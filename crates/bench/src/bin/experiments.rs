//! The `experiments` binary regenerates the tables behind the paper's
//! figures.
//!
//! ```text
//! experiments --figure 10                 # flat queries QF1–QF6 (Figure 10)
//! experiments --figure 11                 # nested queries Q1–Q6 (Figure 11)
//! experiments --appendix-a               # Van den Bussche blow-up (Appendix A)
//! experiments --all                      # everything
//! experiments --departments 64          # extend the scaling sweep
//! experiments --max-departments 64      # (alias of --departments)
//! experiments --check                    # verify every result against N⟦−⟧;
//!                                         # exit 1 if any disagrees
//! ```
//!
//! Output layout mirrors the paper: one row per query and system, one column
//! per department count, entries in milliseconds (median of 3 runs).

use baselines::vandenbussche as vdb;
use bench::{check_against_reference, measure_median, Instance, System};

struct Options {
    figure10: bool,
    figure11: bool,
    appendix_a: bool,
    max_departments: usize,
    runs: usize,
    check: bool,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        figure10: false,
        figure11: false,
        appendix_a: false,
        max_departments: 32,
        runs: 3,
        check: false,
    };
    let mut i = 0;
    let mut any = false;
    while i < args.len() {
        match args[i].as_str() {
            "--figure" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("10") => opts.figure10 = true,
                    Some("11") => opts.figure11 = true,
                    other => {
                        eprintln!("unknown figure {:?} (expected 10 or 11)", other);
                        std::process::exit(2);
                    }
                }
                any = true;
            }
            "--appendix-a" => {
                opts.appendix_a = true;
                any = true;
            }
            "--all" => {
                opts.figure10 = true;
                opts.figure11 = true;
                opts.appendix_a = true;
                any = true;
            }
            // `--max-departments` stays as an alias for older scripts.
            "--departments" | "--max-departments" => {
                i += 1;
                opts.max_departments =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--departments expects a number");
                        std::process::exit(2);
                    });
            }
            "--runs" => {
                i += 1;
                opts.runs = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(3);
            }
            "--check" => opts.check = true,
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--figure 10|11] [--appendix-a] [--all] \
                     [--departments N] [--runs N] [--check]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {}", other);
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !any {
        opts.figure10 = true;
        opts.figure11 = true;
        opts.appendix_a = true;
    }
    opts
}

fn department_scales(max: usize) -> Vec<usize> {
    let mut scales = Vec::new();
    let mut d = 4;
    while d <= max {
        scales.push(d);
        d *= 2;
    }
    if scales.is_empty() {
        scales.push(max.max(1));
    }
    scales
}

fn print_header(title: &str, scales: &[usize]) {
    println!("\n=== {} ===", title);
    print!("{:<6} {:<14}", "query", "system");
    for d in scales {
        print!(" {:>9}", format!("{} dept", d));
    }
    println!();
}

/// Print one figure's table; returns the number of `--check` mismatches.
fn run_figure(
    title: &str,
    queries: Vec<(&'static str, nrc::Term)>,
    systems: &[System],
    opts: &Options,
    instances: &[Instance],
) -> usize {
    let mut mismatches = 0;
    let scales: Vec<usize> = instances.iter().map(|i| i.departments).collect();
    print_header(title, &scales);
    for (name, query) in &queries {
        for system in systems {
            print!("{:<6} {:<14}", name, system.to_string());
            for instance in instances {
                if opts.check {
                    if let Err(e) = check_against_reference(*system, query, instance) {
                        print!(" {:>9}", "MISMATCH");
                        eprintln!("check failed for {} under {}: {}", name, system, e);
                        mismatches += 1;
                        continue;
                    }
                }
                let m = measure_median(*system, name, query, instance, opts.runs);
                match m.error {
                    None => print!(" {:>9.1}", m.millis()),
                    Some(_) => print!(" {:>9}", "n/a"),
                }
            }
            println!();
        }
    }
    mismatches
}

/// Print Appendix A's table; returns the number of `--check` failures. The
/// paper's instance has 9 correct tuples, the simulation preserves
/// multiplicity on no instance, and its blow-up rises strictly with the
/// instance size.
fn appendix_a(opts: &Options) -> usize {
    println!("\n=== Appendix A: Van den Bussche simulation on multiset unions ===");
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10} {:>12}",
        "instance", "adom", "correct tuples", "vdb tuples", "blow-up", "bag-correct"
    );
    let mut failures = Vec::new();
    let (r, s) = vdb::appendix_a_instance();
    let paper = vdb::measure_blowup(&r, &s);
    print_blowup("paper example", &paper);
    if paper.correct_tuples != 9 {
        failures.push(format!(
            "the paper example has {} correct tuples, not 9",
            paper.correct_tuples
        ));
    }
    let mut reports = vec![("paper example".to_string(), paper)];
    let mut previous: Option<(String, f64)> = None;
    for n in [4usize, 8, 16, 32] {
        let (r, s) = vdb::scaled_instance(n, 2);
        let report = vdb::measure_blowup(&r, &s);
        let label = format!("{} rows x 2 elems", n);
        print_blowup(&label, &report);
        if let Some((smaller, blowup)) = &previous {
            if report.blowup_factor <= *blowup {
                failures.push(format!(
                    "the blow-up of {} ({:.1}) does not exceed that of {} ({:.1})",
                    label, report.blowup_factor, smaller, blowup
                ));
            }
        }
        previous = Some((label.clone(), report.blowup_factor));
        reports.push((label, report));
    }
    for (label, report) in &reports {
        if report.preserves_multiplicity {
            failures.push(format!(
                "the simulation preserves multiplicity on {}",
                label
            ));
        }
    }
    println!(
        "\nQuery shredding represents the same unions with the `correct tuples` count and\n\
         preserves multiplicities; the simulation grows with |adom|^2 and does not."
    );
    if !opts.check {
        return 0;
    }
    for failure in &failures {
        eprintln!("check failed for Appendix A: {}", failure);
    }
    failures.len()
}

fn print_blowup(label: &str, report: &vdb::BlowupReport) {
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10.1} {:>12}",
        label,
        report.adom_size,
        report.correct_tuples,
        report.vdb_tuples,
        report.blowup_factor,
        if report.preserves_multiplicity {
            "yes"
        } else {
            "no"
        }
    );
}

fn main() {
    let opts = parse_args();
    let scales = department_scales(opts.max_departments);

    if opts.figure10 || opts.figure11 {
        println!(
            "generating organisation databases at department counts {:?} (seeded)…",
            scales
        );
    }
    let instances: Vec<Instance> = if opts.figure10 || opts.figure11 {
        scales.iter().map(|d| Instance::at_scale(*d)).collect()
    } else {
        Vec::new()
    };

    let mut mismatches = 0;
    if opts.figure10 {
        mismatches += run_figure(
            "Figure 10: flat queries (total time in ms)",
            datagen::queries::flat_queries(),
            &[System::Shredding, System::LoopLifting, System::Default],
            &opts,
            &instances,
        );
    }
    if opts.figure11 {
        mismatches += run_figure(
            "Figure 11: nested queries (total time in ms)",
            datagen::queries::nested_queries(),
            &[System::Shredding, System::LoopLifting],
            &opts,
            &instances,
        );
        println!("\nNesting degree (number of flat queries emitted by shredding):");
        // A schema-only session: plans and explains without any data.
        let planner = shredding::session::Shredder::builder()
            .schema(datagen::organisation_schema())
            .build()
            .expect("a schema-only session is valid");
        for (name, q) in datagen::queries::nested_queries() {
            if let Ok(prepared) = planner.prepare(&q) {
                println!("  {}: {} queries", name, prepared.query_count());
            }
        }
    }
    if opts.appendix_a {
        mismatches += appendix_a(&opts);
    }
    if mismatches > 0 {
        eprintln!("{} check(s) failed", mismatches);
        std::process::exit(1);
    }
}
