//! Cross-stage static verification of compiled shredded packages.
//!
//! The shredding translation is semantics-preserving *by construction*, but
//! the construction spans five IR hops; this module re-proves the invariants
//! each hop hands to the next, at prepare time:
//!
//! * **[`codes::MISSING_INDEX_COLUMNS`]** — every stage's column list leads
//!   with the `(oidx_tag, oidx_ord)` outer index pair;
//! * **[`codes::STAGE_COLUMN_MISMATCH`]** — the stage's physical plan
//!   produces exactly the columns its [`ResultLayout`](crate::ResultLayout) decodes;
//! * **[`codes::PACKAGE_SHAPE_MISMATCH`]** — the layout's `Index` leaves
//!   line up one-to-one (by record path) with the stage's immediate child
//!   bags, so every inner index written by a parent is read by a child;
//! * **[`codes::DUPLICATE_BRANCH_TAG`]** — static branch tags are unique
//!   within a stage (index keys stay unique per the `IndexScheme`);
//! * **[`codes::BROKEN_INDEX_TREE`]** — stage parent/child index references
//!   form a tree: top-level branches carry the ⊤ outer tag and every child
//!   branch's outer tag is one of its parent's branch tags;
//! * plus the full [`analysis::plan_check`] pass over every stage plan.
//!
//! [`check_compiled`] covers the SQL pipeline's [`CompiledQuery`];
//! `check_package` covers any bare `Package<ShreddedQuery>` (the
//! shredded-memory backend's payload).

use crate::flatten::{LeafKind, OUTER_ORD_COLUMN, OUTER_TAG_COLUMN};
use crate::nf::TOP;
use crate::pipeline::CompiledQuery;
use crate::shred::{Package, ShreddedQuery};
use analysis::{codes, plan_check, Diagnostic, Stage};
use sqlengine::storage::TableDef;

/// Verify a compiled SQL-pipeline query: per-stage layout/plan agreement,
/// the index tree across stages, and the physical-plan validator on every
/// stage plan. `declared_params` is the full set of parameter names the
/// query declares (user-written and auto-lifted).
pub fn check_compiled(
    compiled: &CompiledQuery,
    catalog: &[TableDef],
    declared_params: &[String],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    walk_stages(&compiled.stages, "package", &mut |stage, path| {
        let columns = stage.layout.columns();
        if columns.len() < 2 || columns[0] != OUTER_TAG_COLUMN || columns[1] != OUTER_ORD_COLUMN {
            out.push(Diagnostic::error(
                Stage::Package,
                codes::MISSING_INDEX_COLUMNS,
                path.to_string(),
                format!(
                    "stage columns [{}] do not lead with the ({}, {}) index pair",
                    columns.join(", "),
                    OUTER_TAG_COLUMN,
                    OUTER_ORD_COLUMN
                ),
            ));
        }
        let plan_columns = stage.plan.output_columns();
        if plan_columns != columns {
            out.push(Diagnostic::error(
                Stage::Package,
                codes::STAGE_COLUMN_MISMATCH,
                path.to_string(),
                format!(
                    "stage plan produces [{}] but the layout decodes [{}]",
                    plan_columns.join(", "),
                    columns.join(", ")
                ),
            ));
        }
        let mut plan_diags = plan_check::validate_plan(&stage.plan, catalog, declared_params);
        for d in &mut plan_diags {
            d.path = format!("{}/{}", path, d.path);
        }
        out.extend(plan_diags);
        // Correlated subqueries the planner left in place: these still
        // execute (nested-loop, once per outer row), so they are warnings.
        for node in stage.plan.nodes() {
            if let sqlengine::PhysicalPlan::ExistsSemiJoin { anti, .. } = node {
                out.push(
                    Diagnostic::warning(
                        Stage::Plan,
                        codes::RETAINED_CORRELATED_SUBQUERY,
                        path.to_string(),
                        format!(
                            "plan retains a correlated subquery (ExistsSemiJoin{}) that runs \
                             once per row",
                            if *anti { " anti" } else { "" }
                        ),
                    )
                    .with_help(
                        "only a correlation that is a conjunction of `outer = local` \
                         equalities, over one SELECT or a UNION ALL of them, plans as a \
                         hash semi-join",
                    ),
                );
            }
        }
    });
    // The layout's Index leaves must line up with the stage's child bags.
    check_shapes(&compiled.stages, "package", &mut out);
    out.extend(check_index_tree(&compiled.stages, &mut |s| &s.shredded));
    out
}

/// Verify a bare shredded package (no SQL rendering): branch tags unique
/// per stage, parent/child outer tags forming a tree.
pub(crate) fn check_package(package: &Package<ShreddedQuery>) -> Vec<Diagnostic> {
    check_index_tree(package, &mut |s| s)
}

/// Check the per-stage tag invariants over any stage-annotated package:
/// `accessor` projects each annotation onto its shredded query.
pub(crate) fn check_index_tree<T>(
    package: &Package<T>,
    accessor: &mut impl FnMut(&T) -> &ShreddedQuery,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    fn go<T>(
        package: &Package<T>,
        parent: Option<&ShreddedQuery>,
        path: &str,
        accessor: &mut impl FnMut(&T) -> &ShreddedQuery,
        out: &mut Vec<Diagnostic>,
    ) {
        match package {
            Package::Base(_) => {}
            Package::Record(fields) => {
                for (label, field) in fields {
                    go(field, parent, &format!("{}.{}", path, label), accessor, out);
                }
            }
            Package::Bag(stage, inner) => {
                let query = accessor(stage);
                let mut seen = Vec::new();
                for branch in &query.branches {
                    if seen.contains(&branch.tag) {
                        out.push(Diagnostic::error(
                            Stage::Package,
                            codes::DUPLICATE_BRANCH_TAG,
                            path.to_string(),
                            format!(
                                "branch tag {} occurs more than once in this stage",
                                branch.tag
                            ),
                        ));
                    }
                    seen.push(branch.tag);
                    match parent {
                        None => {
                            if branch.outer_tag != TOP {
                                out.push(Diagnostic::error(
                                    Stage::Package,
                                    codes::BROKEN_INDEX_TREE,
                                    path.to_string(),
                                    format!(
                                        "top-level branch {} has outer tag {}, expected {}",
                                        branch.tag, branch.outer_tag, TOP
                                    ),
                                ));
                            }
                        }
                        Some(p) => {
                            if !p.branches.iter().any(|b| b.tag == branch.outer_tag) {
                                out.push(Diagnostic::error(
                                    Stage::Package,
                                    codes::BROKEN_INDEX_TREE,
                                    path.to_string(),
                                    format!(
                                        "branch {} references outer tag {} which no parent \
                                         branch produces",
                                        branch.tag, branch.outer_tag
                                    ),
                                ));
                            }
                        }
                    }
                }
                go(inner, Some(query), &format!("{}.bag", path), accessor, out);
            }
        }
    }
    go(package, None, "package", accessor, &mut out);
    out
}

/// Visit every bag annotation in the package with its breadcrumb path.
fn walk_stages<'a, T>(package: &'a Package<T>, path: &str, f: &mut impl FnMut(&'a T, &str)) {
    match package {
        Package::Base(_) => {}
        Package::Record(fields) => {
            for (label, field) in fields {
                walk_stages(field, &format!("{}.{}", path, label), f);
            }
        }
        Package::Bag(stage, inner) => {
            f(stage, path);
            walk_stages(inner, &format!("{}.bag", path), f);
        }
    }
}

/// Check every stage's layout `Index` leaves against the record paths of its
/// immediate child bags ([`codes::PACKAGE_SHAPE_MISMATCH`]).
fn check_shapes(
    package: &Package<crate::pipeline::QueryStage>,
    path: &str,
    out: &mut Vec<Diagnostic>,
) {
    match package {
        Package::Base(_) => {}
        Package::Record(fields) => {
            for (label, field) in fields {
                check_shapes(field, &format!("{}.{}", path, label), out);
            }
        }
        Package::Bag(stage, inner) => {
            let mut child_paths: Vec<Vec<String>> = Vec::new();
            collect_child_bag_paths(inner, &mut Vec::new(), &mut child_paths);
            let mut index_paths: Vec<Vec<String>> = stage
                .layout
                .leaves
                .iter()
                .filter(|l| l.kind == LeafKind::Index)
                .map(|l| l.path.clone())
                .collect();
            index_paths.sort();
            child_paths.sort();
            if index_paths != child_paths {
                out.push(Diagnostic::error(
                    Stage::Package,
                    codes::PACKAGE_SHAPE_MISMATCH,
                    path.to_string(),
                    format!(
                        "layout index leaves at [{}] but child bags at [{}]",
                        join_paths(&index_paths),
                        join_paths(&child_paths)
                    ),
                ));
            }
            check_shapes(inner, &format!("{}.bag", path), out);
        }
    }
}

/// Record paths of the bags directly inside a package node: descend through
/// records, stop at bags (deeper bags belong to those children).
fn collect_child_bag_paths<T>(
    package: &Package<T>,
    prefix: &mut Vec<String>,
    out: &mut Vec<Vec<String>>,
) {
    match package {
        Package::Base(_) => {}
        Package::Record(fields) => {
            for (label, field) in fields {
                prefix.push(label.clone());
                collect_child_bag_paths(field, prefix, out);
                prefix.pop();
            }
        }
        Package::Bag(_, _) => out.push(prefix.clone()),
    }
}

fn join_paths(paths: &[Vec<String>]) -> String {
    paths
        .iter()
        .map(|p| {
            if p.is_empty() {
                "ε".to_string()
            } else {
                p.join(".")
            }
        })
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, table_defs_of_schema};
    use nrc::builder::*;
    use nrc::schema::{Schema, TableSchema};
    use nrc::types::BaseType;

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new("departments", vec![("name", BaseType::String)])
                    .with_key(vec!["name"]),
            )
            .with_table(
                TableSchema::new(
                    "employees",
                    vec![
                        ("dept", BaseType::String),
                        ("name", BaseType::String),
                        ("salary", BaseType::Int),
                    ],
                )
                .with_key(vec!["name"]),
            )
    }

    fn nested_query() -> nrc::term::Term {
        for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("dept", project(var("d"), "name")),
                (
                    "staff",
                    for_where(
                        "e",
                        table("employees"),
                        eq(project(var("e"), "dept"), project(var("d"), "name")),
                        singleton(project(var("e"), "name")),
                    ),
                ),
            ])),
        )
    }

    #[test]
    fn well_formed_compiled_queries_verify_clean() {
        let schema = schema();
        let compiled = compile(&nested_query(), &schema).unwrap();
        let catalog = table_defs_of_schema(&schema);
        let found = check_compiled(&compiled, &catalog, &[]);
        assert!(found.is_empty(), "{:?}", found);
    }

    #[test]
    fn corrupted_stage_plans_are_rejected() {
        let schema = schema();
        let mut compiled = compile(&nested_query(), &schema).unwrap();
        // Swap the top stage's plan for the child stage's: the column lists
        // cannot agree with the top layout any more.
        let plans: Vec<_> = compiled
            .stages
            .annotations()
            .iter()
            .map(|s| s.plan.clone())
            .collect();
        assert!(plans.len() >= 2);
        if let Package::Bag(stage, _) = &mut compiled.stages {
            stage.plan = plans[1].clone();
        }
        let catalog = table_defs_of_schema(&schema);
        let found = check_compiled(&compiled, &catalog, &[]);
        assert!(found.iter().any(|d| d.code == codes::STAGE_COLUMN_MISMATCH));
    }

    #[test]
    fn broken_outer_tags_are_rejected() {
        let schema = schema();
        let mut compiled = compile(&nested_query(), &schema).unwrap();
        // Point the child stage's outer tag at a tag no parent branch has.
        fn corrupt(p: &mut Package<crate::pipeline::QueryStage>, depth: usize) {
            match p {
                Package::Bag(stage, inner) => {
                    if depth == 1 {
                        for b in &mut stage.shredded.branches {
                            b.outer_tag = crate::nf::StaticIndex(999);
                        }
                    }
                    corrupt(inner, depth + 1);
                }
                Package::Record(fields) => {
                    for (_, f) in fields {
                        corrupt(f, depth);
                    }
                }
                Package::Base(_) => {}
            }
        }
        corrupt(&mut compiled.stages, 0);
        let found = check_index_tree(&compiled.stages, &mut |s| &s.shredded);
        assert!(found.iter().any(|d| d.code == codes::BROKEN_INDEX_TREE));
    }

    #[test]
    fn duplicate_branch_tags_are_rejected() {
        let schema = schema();
        let q = union(
            for_in(
                "x",
                table("departments"),
                singleton(project(var("x"), "name")),
            ),
            for_in(
                "y",
                table("departments"),
                singleton(project(var("y"), "name")),
            ),
        );
        let mut compiled = compile(&q, &schema).unwrap();
        if let Package::Bag(stage, _) = &mut compiled.stages {
            assert!(stage.shredded.branches.len() >= 2);
            stage.shredded.branches[1].tag = stage.shredded.branches[0].tag;
        }
        let found = check_package(&compiled.stages.map(&mut |s| s.shredded.clone()));
        assert!(found.iter().any(|d| d.code == codes::DUPLICATE_BRANCH_TAG));
    }
}
