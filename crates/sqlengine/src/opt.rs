//! The optimizer's report, and the pass that is left of it: none.
//!
//! The planner ([`crate::plan`]) emits the final plan. From the query text,
//! before any column position exists, it places every `WHERE` conjunct,
//! plans each `[NOT] EXISTS` whose correlation is a conjunction of
//! `outer = local` equalities as a [`PhysicalPlan::HashSemiJoin`], and
//! narrows each join input to the columns read above it; the executor picks
//! a hash join's build side from its inputs' real sizes. The one rewrite
//! that needs more than one plan — binding a `WITH` definition that several
//! stages of a shredded package share to one subplan (cross-stage CSE) —
//! belongs to the pipeline, which records it in an [`OptReport`].

use crate::plan::{Catalog, PhysicalPlan};

/// The rewrites applied to a stage plan after planning: one line per
/// cross-stage subplan binding. Rendered by `explain()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptReport {
    /// Human-readable descriptions of the rewrites that fired.
    pub rewrites: Vec<String>,
    /// Always empty, kept for the callers that count it: the `analysis`
    /// pass reports each correlated subquery a plan keeps (code O001).
    pub skipped: Vec<String>,
}

/// Returns `plan` unchanged, with an empty report: the planner emits the
/// final plan. Kept, with its signature, for callers that run it between
/// planning and execution.
pub fn optimize(plan: PhysicalPlan, _catalog: &dyn Catalog) -> (PhysicalPlan, OptReport) {
    (plan, OptReport::default())
}
