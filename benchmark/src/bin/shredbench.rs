//! The end-to-end benchmark: one workload per process, closed loop, one
//! client thread, an outside stopwatch, tracing off. Prints one JSON line.
//!
//! This binary is written against the `Shredder` session API and `datagen`
//! alone (see `shredbench::workloads`), so a refactor below that API cannot
//! break the end-to-end numbers.

#![forbid(unsafe_code)]

use shredbench::cli::{self, Args};
use shredbench::recorder::Recorder;
use shredbench::report::{self, Obj};
use shredbench::stats;
use shredbench::workloads::{check_expectations, Exec, Expected, Frontend, Live, Workload};
use shredding::ShredError;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Passes the timed phase runs even when `--seconds` is already over, so a
/// slow host still yields medians rather than single samples.
const MIN_PASSES: usize = 10;

enum State {
    Frontend(Frontend),
    Exec(Exec),
    Live(Box<Live>),
}

impl State {
    fn setup(workload: Workload, seed: u64) -> Result<State, ShredError> {
        Ok(match workload {
            Workload::FrontendSmall => State::Frontend(Frontend::setup(seed)?),
            Workload::ExecSeq | Workload::ExecPar => State::Exec(Exec::setup(workload, seed)?),
            Workload::LiveMixed => State::Live(Box::new(Live::setup(seed)?)),
        })
    }

    fn check(&self, rec: &mut Recorder, seed: u64) -> Vec<Expected> {
        match self {
            State::Frontend(w) => w.check(rec),
            State::Exec(w) => w.check(rec, seed),
            State::Live(w) => w.check(rec, seed),
        }
    }

    /// One pass; `false` when the workload has run out of generated input.
    fn pass(&mut self, rec: &mut Recorder, expected: &[Expected], full: bool) -> bool {
        match self {
            State::Frontend(w) => w.pass(rec, expected, full),
            State::Exec(w) => w.pass(rec, expected, full),
            State::Live(w) => {
                let more = w.pass(rec);
                if full {
                    w.compare_views(rec);
                }
                return more;
            }
        }
        true
    }
}

/// Run the workload; the result line and whether every check held.
fn run(args: &Args, started: Instant) -> Result<(String, bool), String> {
    let workload = args.workload;
    let parallelism = workload.require_cores()?;
    let mut rec = Recorder::new(workload.kinds());

    // Set-up, several times over: generate, build sessions (the first
    // execution loads the engine), prepare / subscribe, warm up. The first
    // one is timed from process start.
    let mut setup_s = Vec::with_capacity(args.setups);
    let mut state = None;
    for i in 0..args.setups {
        drop(state.take());
        let begin = if i == 0 { started } else { Instant::now() };
        let mut fresh =
            State::setup(workload, args.seed).map_err(|e| format!("set-up failed: {e}"))?;
        for _ in 0..workload.warmup_passes() {
            fresh.pass(&mut rec, &[], false);
            rec.end_pass();
        }
        setup_s.push(begin.elapsed().as_secs_f64());
        state = Some(fresh);
    }
    let mut state = state.expect("--setups is at least 1");

    let expected = state.check(&mut rec, args.seed);
    check_expectations(&mut rec, &expected, &args.expect);

    rec.recording = true;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || rec.passes() < MIN_PASSES {
        let more = state.pass(&mut rec, &expected, false);
        rec.end_pass();
        if !more {
            break;
        }
    }
    rec.recording = false;
    // One more untimed pass under the full check.
    state.pass(&mut rec, &expected, true);

    let passes = rec.pass_samples();
    let failed_share = rec.failed as f64 / rec.attempted.max(1) as f64;
    let metrics = Obj::new()
        .num("geomean_ms", rec.geomean_ms())
        .num("pass_p50_ms", stats::ms(stats::median(passes)))
        .num("pass_p90_ms", stats::ms(stats::quantile(passes, 0.9)))
        .num("ops_per_s", rec.ops_per_s())
        .num("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN))
        .num("setup_s", stats::median_f64(&setup_s))
        .num("failed_share", failed_share)
        .finish();
    let mut fingerprints = Obj::new();
    for e in &expected {
        fingerprints = fingerprints.text(e.name, &format!("{:016x}", e.fingerprint));
    }
    let line = Obj::new()
        .text("workload", workload.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .int("passes", passes.len() as u64)
        .int("warmup_passes", workload.warmup_passes() as u64)
        .int("setups", args.setups as u64)
        .int("available_parallelism", parallelism as u64)
        .boolean("correct", rec.failed == 0)
        .int("attempted", rec.attempted)
        .int("failed", rec.failed)
        .raw("metrics", &metrics)
        .raw("kinds", &rec.kinds_json())
        .raw("fingerprints", &fingerprints.finish())
        .finish();
    Ok((line, rec.failed == 0))
}

fn main() -> ExitCode {
    let started = Instant::now();
    cli::main_with(|args| run(args, started))
}
