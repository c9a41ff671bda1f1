//! # bench — the benchmark harness for the SIGMOD 2014 evaluation
//!
//! This crate regenerates the paper's experiments:
//!
//! * **Figure 10** — the flat queries QF1–QF6, comparing query shredding,
//!   loop-lifting and Links' default flat evaluation while scaling the number
//!   of departments;
//! * **Figure 11** — the nested queries Q1–Q6, comparing query shredding and
//!   loop-lifting over the same scaling sweep;
//! * **Appendix A** — the quadratic blow-up of Van den Bussche's simulation
//!   on multiset unions.
//!
//! Each system is a [`Shredder`] session over the same generated database
//! (sharing one loaded SQL engine), with the plan cache disabled so every
//! measurement covers the full translate → execute → stitch path, exactly
//! what the paper reports. The `experiments` binary prints the scaling
//! tables in the same layout as the paper's figures.

#![forbid(unsafe_code)]

use baselines::{FlatDefaultBackend, LoopLiftBackend};
use datagen::{generate, organisation_schema, OrgConfig};
use nrc::schema::Schema;
use nrc::term::Term;
use nrc::value::Value;
use shredding::error::ShredError;
use shredding::session::Shredder;
use sqlengine::plan::VExpr;
use sqlengine::{BinOp, PhysicalPlan};
use std::time::{Duration, Instant};

/// The systems compared by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Query shredding (this paper).
    Shredding,
    /// The loop-lifting baseline (Ferry / Ulrich).
    LoopLifting,
    /// Links' default flat query evaluation (flat queries only).
    Default,
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            System::Shredding => write!(f, "shredding"),
            System::LoopLifting => write!(f, "loop-lifting"),
            System::Default => write!(f, "default"),
        }
    }
}

/// A prepared benchmark instance: one `Shredder` session per compared
/// system, all over the same generated database and sharing one loaded
/// engine.
pub struct Instance {
    pub schema: Schema,
    pub departments: usize,
    shredding: Shredder,
    looplift: Shredder,
    flat: Shredder,
}

impl Instance {
    /// Generate an instance with the paper's distributions at a given number
    /// of departments (scaled-down employee counts keep the in-process sweep
    /// fast; pass a custom config for the full-size data).
    pub fn at_scale(departments: usize) -> Instance {
        Instance::with_config(OrgConfig {
            departments,
            employees_per_department: 20,
            contacts_per_department: 5,
            ..OrgConfig::default()
        })
    }

    /// Generate an instance from an explicit configuration.
    pub(crate) fn with_config(config: OrgConfig) -> Instance {
        let schema = organisation_schema();
        let shredding = Shredder::builder()
            .database(generate(&config))
            .without_plan_cache()
            .build()
            .expect("generated data always configures a session");
        // The baseline sessions run over the same loaded engine (shared, not
        // copied), so each one's oracle reads the same data.
        let engine = shredding
            .shared_engine()
            .expect("generated data always loads into the engine");
        let looplift = Shredder::builder()
            .schema(schema.clone())
            .engine(engine.clone())
            .backend(Box::new(LoopLiftBackend))
            .without_plan_cache()
            .build()
            .expect("generated data always configures a session");
        let flat = Shredder::builder()
            .schema(schema.clone())
            .engine(engine)
            .backend(Box::new(FlatDefaultBackend))
            .without_plan_cache()
            .build()
            .expect("generated data always configures a session");
        Instance {
            schema,
            departments: config.departments,
            shredding,
            looplift,
            flat,
        }
    }

    /// The session configured for a given system.
    pub(crate) fn session(&self, system: System) -> &Shredder {
        match system {
            System::Shredding => &self.shredding,
            System::LoopLifting => &self.looplift,
            System::Default => &self.flat,
        }
    }
}

/// One measurement: total time to translate the query, evaluate the resulting
/// SQL and stitch the results (exactly what the paper reports), plus the size
/// of the produced value as a sanity check.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub system: System,
    pub query: String,
    pub departments: usize,
    pub elapsed: Duration,
    pub result_scalars: usize,
    pub error: Option<String>,
}

impl Measurement {
    /// Elapsed time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1000.0
    }
}

/// Run one query under one system and measure the end-to-end time. The
/// sessions have no plan cache, so every run pays the full translation.
pub(crate) fn measure(
    system: System,
    name: &str,
    query: &Term,
    instance: &Instance,
) -> Measurement {
    let session = instance.session(system);
    let start = Instant::now();
    let outcome: Result<Value, ShredError> = session.run(query);
    let elapsed = start.elapsed();
    match outcome {
        Ok(value) => Measurement {
            system,
            query: name.to_string(),
            departments: instance.departments,
            elapsed,
            result_scalars: value.scalar_count(),
            error: None,
        },
        Err(e) => Measurement {
            system,
            query: name.to_string(),
            departments: instance.departments,
            elapsed,
            result_scalars: 0,
            error: Some(e.to_string()),
        },
    }
}

/// Run a query under a system `runs` times and keep the median, as in the
/// paper ("the times are medians of 5 runs").
pub fn measure_median(
    system: System,
    name: &str,
    query: &Term,
    instance: &Instance,
    runs: usize,
) -> Measurement {
    let mut measurements: Vec<Measurement> = (0..runs.max(1))
        .map(|_| measure(system, name, query, instance))
        .collect();
    measurements.sort_by_key(|m| m.elapsed);
    measurements.swap_remove(measurements.len() / 2)
}

/// Verify that a system's answer matches the nested reference semantics on an
/// instance (used by the harness's `--check` mode and the integration tests).
pub fn check_against_reference(
    system: System,
    query: &Term,
    instance: &Instance,
) -> Result<(), String> {
    let session = instance.session(system);
    let reference = session.oracle(query).map_err(|e| e.to_string())?;
    let value = session.run(query).map_err(|e| e.to_string())?;
    if value.multiset_eq(&reference) {
        Ok(())
    } else {
        Err("result differs from the nested reference semantics".to_string())
    }
}

// ---------------------------------------------------------------------------
// Predicate placement
// ---------------------------------------------------------------------------

/// The `Filter`s of `plan` that the planner should have placed elsewhere,
/// rendered: one directly over a join whose predicate reads one join input
/// only (it belongs below the join), and one with a conjunct that is a
/// chain of `NOT`s over `EXISTS` (it belongs in a semi-join). The
/// differential suites assert that no compiled stage has any.
pub fn misplaced_filters(plan: &PhysicalPlan) -> Vec<String> {
    fn columns(e: &VExpr, out: &mut Vec<usize>) {
        match e {
            VExpr::Col { index, .. } => out.push(*index),
            VExpr::BinOp { left, right, .. } => {
                columns(left, out);
                columns(right, out);
            }
            VExpr::Not(inner) => columns(inner, out),
            _ => {}
        }
    }
    fn not_chain_over_exists(e: &VExpr) -> bool {
        match e {
            VExpr::Not(inner) => not_chain_over_exists(inner),
            VExpr::Exists(_) => true,
            _ => false,
        }
    }
    fn tests_exists(predicate: &VExpr) -> bool {
        match predicate {
            VExpr::BinOp {
                op: BinOp::And,
                left,
                right,
            } => tests_exists(left) || tests_exists(right),
            conjunct => not_chain_over_exists(conjunct),
        }
    }
    let mut out = Vec::new();
    for node in plan.nodes() {
        let PhysicalPlan::Filter { input, predicate } = node else {
            continue;
        };
        if let PhysicalPlan::HashJoin { left, .. } | PhysicalPlan::NestedLoopJoin { left, .. } =
            input.as_ref()
        {
            let width = left.output_columns().len();
            let mut read = Vec::new();
            columns(predicate, &mut read);
            if read.iter().all(|&i| i < width) || read.iter().all(|&i| i >= width) {
                out.push(format!(
                    "Filter {} over one input of a {}",
                    predicate,
                    input.kind()
                ));
            }
        }
        if tests_exists(predicate) {
            out.push(format!("Filter {} tests EXISTS", predicate));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_report_sensible_values() {
        let instance = Instance::with_config(OrgConfig::small());
        let (name, q) = &datagen::queries::flat_queries()[0];
        let m = measure(System::Shredding, name, q, &instance);
        assert!(m.error.is_none());
        assert!(m.millis() >= 0.0);
    }

    #[test]
    fn all_three_systems_agree_on_flat_queries() {
        let instance = Instance::with_config(OrgConfig::small());
        for (name, q) in datagen::queries::flat_queries() {
            for system in [System::Shredding, System::LoopLifting, System::Default] {
                check_against_reference(system, &q, &instance)
                    .unwrap_or_else(|e| panic!("{} under {}: {}", name, system, e));
            }
        }
    }

    #[test]
    fn shredding_and_loop_lifting_agree_on_nested_queries() {
        let instance = Instance::with_config(OrgConfig {
            departments: 3,
            employees_per_department: 5,
            contacts_per_department: 2,
            ..OrgConfig::default()
        });
        for (name, q) in datagen::queries::nested_queries() {
            for system in [System::Shredding, System::LoopLifting] {
                check_against_reference(system, &q, &instance)
                    .unwrap_or_else(|e| panic!("{} under {}: {}", name, system, e));
            }
        }
    }
}
