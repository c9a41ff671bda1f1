//! Command-line arguments shared by `shredbench` and `shredtrace`.

use crate::workloads::Workload;
use std::process::ExitCode;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Feeds `OrgConfig.seed` and `MutationConfig.seed` and nothing else.
    pub seed: u64,
    /// Length of the timed phase; whole passes run until it has elapsed.
    pub seconds: f64,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// `QUERY=HEX` pairs: the structural fingerprint the named query's
    /// result must have at the workload's timed scale.
    pub expect: Vec<(String, u64)>,
    /// Where `shredtrace` writes its trace and obs dumps.
    pub out_dir: String,
}

pub const USAGE: &str = "usage: --workload <frontend_small|exec_seq|exec_par|live_mixed> \
[--seed N] [--seconds S] [--setups N] [--expect QUERY=HEX]... [--out-dir DIR]";

/// Parse `argv[1..]`. Every flag takes one value.
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::FrontendSmall,
        seed: 42,
        seconds: 10.0,
        setups: 3,
        expect: Vec::new(),
        out_dir: "benchmark/out".to_string(),
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--setups" => {
                args.setups = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=9).contains(n))
                    .ok_or_else(|| bad("between 1 and 9"))?;
            }
            "--expect" => {
                let (query, hex) = value.split_once('=').ok_or_else(|| bad("QUERY=HEX"))?;
                let fp = u64::from_str_radix(hex, 16).map_err(|_| bad("QUERY=HEX"))?;
                args.expect.push((query.to_string(), fp));
            }
            "--out-dir" => args.out_dir = value,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    args.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(args)
}

/// The `main` of both binaries: parse the arguments, run, print the result
/// line. Exit code 0 when every check held, 1 when one failed, 2 for bad
/// usage, 3 when the run could not be made at all.
pub fn main_with(run: impl FnOnce(&Args) -> Result<(String, bool), String>) -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(3)
        }
    }
}
