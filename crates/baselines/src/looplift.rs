//! A loop-lifting baseline in the style of Ferry / Ulrich's Links backend.
//!
//! Ferry's loop-lifting translation [Grust et al., 2009/2010] numbers the
//! rows of every nesting level with OLAP operators (`ROW_NUMBER`,
//! `DENSE_RANK`) computed over the *iteration context* of the enclosing
//! comprehension, and then relies on the Pathfinder optimiser to push
//! selections below those operators. The paper's experiments show the
//! pathological case: for queries with several nesting levels (Q1, Q6)
//! Pathfinder cannot remove the cross products underneath the OLAP
//! operators, and evaluation blows up.
//!
//! This module reproduces exactly that query shape: it reuses the shredding
//! pipeline's per-level decomposition but emits SQL in which every
//! `ROW_NUMBER` is computed over the **unfiltered** product of the iteration
//! context with the current level's tables, with the level's predicates
//! applied only *above* the numbering operator (as loop-lifting does before
//! optimisation). The results are still correct — surrogates are assigned
//! consistently between parent and child queries — but the engine has to
//! materialise the cross products, which is the behaviour the paper measures.
//! Pathfinder itself (a full SQL:1999 algebraic optimiser) is out of scope;
//! see DESIGN.md for the substitution argument.

use nrc::schema::Schema;
use nrc::term::Term;
use nrc::types::Type;
use nrc::value::Value;
use shredding::error::ShredError;
use shredding::flatten::{value_to_sql, LeafKind, ResultLayout};
use shredding::letins::{IndexSource, LetBase, LetComp, LetInner, LetQuery, OUTER_VAR};
use shredding::nf::Generator;
use shredding::pipeline::{compile, CompiledQuery};
use shredding::semantics::{IndexScheme, ShredResult};
use shredding::shred::Package;
use shredding::stitch::stitch_rows;
use sqlengine::ast::{BinOp, Expr, Query, Select, TableSource};
use sqlengine::Engine;

/// Alias of the numbered subquery every loop-lifted block selects from.
const SUB: &str = "sub";
/// Column name of the surrogate produced for the current level.
const POS: &str = "pos";
/// Column name of the surrogate carried from the outer context.
const CTX: &str = "ctx_rn";

/// A query compiled with the loop-lifting baseline: one SQL query per bag
/// constructor, plus the layouts needed to decode and stitch the results.
#[derive(Debug, Clone)]
pub struct LoopLiftedQuery {
    pub result_type: Type,
    pub stages: Package<LoopLiftedStage>,
}

/// One loop-lifted SQL query and its decoding layout (shared by `Arc` with
/// the shredding pipeline's compiled stage it was derived from).
#[derive(Debug, Clone)]
pub struct LoopLiftedStage {
    pub sql: Query,
    pub layout: std::sync::Arc<ResultLayout>,
}

/// Compile a nested query with the loop-lifting baseline.
pub fn compile_looplift(term: &Term, schema: &Schema) -> Result<LoopLiftedQuery, ShredError> {
    let compiled: CompiledQuery = compile(term, schema)?;
    let stages = compiled.stages.try_map(&mut |stage| {
        let sql = lifted_sql(&stage.let_inserted, &stage.layout, schema)?;
        Ok::<LoopLiftedStage, ShredError>(LoopLiftedStage {
            sql,
            layout: stage.layout.clone(),
        })
    })?;
    Ok(LoopLiftedQuery {
        result_type: compiled.result_type,
        stages,
    })
}

/// Execute a loop-lifted query and stitch the results.
pub fn execute_looplift(compiled: &LoopLiftedQuery, engine: &Engine) -> Result<Value, ShredError> {
    execute_looplift_bound(compiled, engine, &sqlengine::ParamValues::new())
}

/// Execute a loop-lifted query with bound values for its `:name`
/// placeholders. The baseline stays on the row path — the engine's columnar
/// result is transposed back into rows (the column→row converter), decoded
/// row by row and stitched with the row-at-a-time stitcher — exactly the
/// result-assembly cost profile the paper's loop-lifting systems pay.
pub(crate) fn execute_looplift_bound(
    compiled: &LoopLiftedQuery,
    engine: &Engine,
    params: &sqlengine::ParamValues,
) -> Result<Value, ShredError> {
    let results: Package<ShredResult> =
        compiled.stages.try_map(&mut |stage: &LoopLiftedStage| {
            let rs = engine.execute_bound(&stage.sql, params)?.into_result_set();
            stage.layout.decode(&rs)
        })?;
    stitch_rows(results, IndexScheme::Flat)
}

/// Run a nested query end to end with the loop-lifting baseline.
pub fn run_looplift(term: &Term, schema: &Schema, engine: &Engine) -> Result<Value, ShredError> {
    let compiled = compile_looplift(term, schema)?;
    execute_looplift(&compiled, engine)
}

// ---------------------------------------------------------------------------
// SQL generation
// ---------------------------------------------------------------------------

fn lifted_sql(
    query: &LetQuery,
    layout: &ResultLayout,
    schema: &Schema,
) -> Result<Query, ShredError> {
    let branches = query
        .branches
        .iter()
        .map(|c| lifted_comp(c, layout, schema))
        .collect::<Result<Vec<_>, _>>()?;
    if branches.is_empty() {
        return Err(ShredError::Internal(
            "loop-lifting a query with no branches".to_string(),
        ));
    }
    Ok(Query::union_all(branches))
}

fn table_columns(schema: &Schema, table: &str) -> Result<Vec<String>, ShredError> {
    Ok(schema
        .table(table)
        .ok_or_else(|| ShredError::Internal(format!("unknown table {}", table)))?
        .columns
        .iter()
        .map(|(c, _)| c.clone())
        .collect())
}

/// The numbered inner subquery: all columns of the iteration context and the
/// current level's tables, cross-producted with *no* predicate, plus the
/// surrogate columns. Every predicate — including the outer levels' — is
/// applied above the numbering, so parent and child queries number the same
/// unfiltered products and their surrogates line up.
fn numbered_subquery(
    outer: Option<&[Generator]>,
    generators: &[Generator],
    schema: &Schema,
) -> Result<Select, ShredError> {
    let mut select = Select::new();
    let mut order_keys = Vec::new();

    // Context columns (from the numbered cross product of the outer
    // generators).
    if let Some(outer_gens) = outer {
        let ctx = context_subquery(outer_gens, schema)?;
        for (i, g) in outer_gens.iter().enumerate() {
            for col in table_columns(schema, &g.table)? {
                let name = format!("c{}_{}", i + 1, col);
                select = select.item(Expr::col(OUTER_VAR, &name), &name);
                order_keys.push(Expr::col(OUTER_VAR, &name));
            }
        }
        select = select.item(Expr::col(OUTER_VAR, CTX), CTX);
        order_keys.push(Expr::col(OUTER_VAR, CTX));
        select = select.from_item(
            TableSource::Subquery(Box::new(Query::select(ctx))),
            OUTER_VAR,
        );
    }

    // Current level's tables.
    for g in generators {
        for col in table_columns(schema, &g.table)? {
            let name = format!("{}_{}", g.var, col);
            select = select.item(Expr::col(&g.var, &col), &name);
            order_keys.push(Expr::col(&g.var, &col));
        }
        select = select.from_named(&g.table, &g.var);
    }

    let surrogate = if order_keys.is_empty() {
        Expr::lit(1i64)
    } else {
        Expr::row_number(order_keys)
    };
    select = select.item(surrogate, POS);
    Ok(select)
}

/// The iteration context of the outer generators: their unfiltered cross
/// product, numbered by all columns.
fn context_subquery(outer_gens: &[Generator], schema: &Schema) -> Result<Select, ShredError> {
    let mut inner = Select::new();
    let mut order_keys = Vec::new();
    for (i, g) in outer_gens.iter().enumerate() {
        for col in table_columns(schema, &g.table)? {
            let name = format!("c{}_{}", i + 1, col);
            inner = inner.item(Expr::col(&g.var, &col), &name);
            order_keys.push(Expr::col(&g.var, &col));
        }
        inner = inner.from_named(&g.table, &g.var);
    }
    inner = inner.item(Expr::row_number(order_keys), CTX);
    Ok(inner)
}

fn lifted_comp(
    comp: &LetComp,
    layout: &ResultLayout,
    schema: &Schema,
) -> Result<Query, ShredError> {
    let outer_gens: Option<&[Generator]> = comp.binding.as_ref().map(|b| b.generators.as_slice());
    let numbered = numbered_subquery(outer_gens, &comp.generators, schema)?;

    // The outer SELECT: project the layout columns from the numbered
    // subquery, applying the level's predicate above the numbering.
    let mut select = Select::new();
    let ordinal = if comp.binding.is_some() {
        Expr::col(SUB, CTX)
    } else {
        Expr::lit(1i64)
    };
    select = select
        .item(Expr::lit(comp.outer_tag.as_int()), "oidx_tag")
        .item(ordinal, "oidx_ord");
    let outer_gens_slice = outer_gens.unwrap_or(&[]);
    for leaf in &layout.leaves {
        let value = navigate(&comp.inner, &leaf.path)?;
        match (&leaf.kind, value) {
            (LeafKind::Base(_), LetInner::Base(b)) => {
                select = select.item(
                    lifted_expr(b, outer_gens_slice, &comp.generators, false, schema)?,
                    &leaf.name,
                );
            }
            (LeafKind::Index, LetInner::IndexPair { tag, source }) => {
                let ordinal = match source {
                    IndexSource::CurrentRow => Expr::col(SUB, POS),
                    IndexSource::OuterBinding => Expr::col(SUB, CTX),
                    IndexSource::One => Expr::lit(1i64),
                };
                select = select.item(Expr::lit(tag.as_int()), &format!("{}_tag", leaf.name));
                select = select.item(ordinal, &format!("{}_ord", leaf.name));
            }
            (kind, other) => {
                return Err(ShredError::Internal(format!(
                    "loop-lifted inner term {:?} does not match layout leaf {:?}",
                    other, kind
                )))
            }
        }
    }
    select = select.from_item(
        TableSource::Subquery(Box::new(Query::select(numbered))),
        SUB,
    );
    // Apply all predicates — the outer levels' and the innermost level's —
    // above the numbering operators.
    let mut predicates = Vec::new();
    if let Some(binding) = &comp.binding {
        if !binding.condition.is_truth() {
            predicates.push(lifted_expr(
                &binding.condition,
                outer_gens_slice,
                &comp.generators,
                true,
                schema,
            )?);
        }
    }
    if !comp.condition.is_truth() {
        predicates.push(lifted_expr(
            &comp.condition,
            outer_gens_slice,
            &comp.generators,
            false,
            schema,
        )?);
    }
    if !predicates.is_empty() {
        select = select.filter(Expr::conj(predicates));
    }
    Ok(Query::select(select))
}

fn navigate<'a>(inner: &'a LetInner, path: &[String]) -> Result<&'a LetInner, ShredError> {
    let mut current = inner;
    for label in path {
        match current {
            LetInner::Record(fields) => {
                current = fields
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| v)
                    .ok_or_else(|| {
                        ShredError::Internal(format!("missing field {} in inner term", label))
                    })?;
            }
            other => {
                return Err(ShredError::Internal(format!(
                    "cannot navigate {} in {:?}",
                    label, other
                )))
            }
        }
    }
    Ok(current)
}

/// Translate a base expression into a reference over the numbered subquery's
/// flattened columns. `in_context` selects between the context subquery's
/// naming (`c{i}_{col}` directly) and the body's naming (same, via `sub`).
#[allow(clippy::only_used_in_recursion)]
fn lifted_expr(
    base: &LetBase,
    outer_gens: &[Generator],
    inner_gens: &[Generator],
    in_context: bool,
    schema: &Schema,
) -> Result<Expr, ShredError> {
    use nrc::term::{Constant, PrimOp};
    let column = |var: &str, field: &str| -> Result<Expr, ShredError> {
        // A reference to an inner generator's column or (inside the context
        // subquery) to an outer generator's column.
        if inner_gens.iter().any(|g| g.var == var) {
            return Ok(Expr::col(SUB, &format!("{}_{}", var, field)));
        }
        if let Some(i) = outer_gens.iter().position(|g| g.var == var) {
            return Ok(Expr::col(SUB, &format!("c{}_{}", i + 1, field)));
        }
        // A correlated reference from inside an EXISTS subquery to a table
        // alias of an enclosing block; leave it qualified as written.
        Ok(Expr::col(var, field))
    };
    Ok(match base {
        LetBase::Proj { var, path } if path.len() == 1 => column(var, &path[0])?,
        LetBase::Proj { var, path } if var == OUTER_VAR && path.len() == 3 => {
            let i: usize = path[1]
                .trim_start_matches('#')
                .parse()
                .map_err(|_| ShredError::Internal(format!("bad tuple label {}", path[1])))?;
            Expr::col(SUB, &format!("c{}_{}", i, path[2]))
        }
        LetBase::Proj { path, .. } => {
            return Err(ShredError::Internal(format!(
                "unexpected projection path {:?} in loop-lifting",
                path
            )))
        }
        LetBase::Const(c) => Expr::Literal(match c {
            Constant::Int(i) => value_to_sql(&Value::Int(*i))?,
            Constant::Bool(b) => value_to_sql(&Value::Bool(*b))?,
            Constant::String(s) => value_to_sql(&Value::string(s.as_str()))?,
            Constant::Unit => value_to_sql(&Value::Unit)?,
        }),
        LetBase::Param(name, _) => Expr::param(name),
        LetBase::Prim(PrimOp::Not, args) => Expr::not(lifted_expr(
            &args[0], outer_gens, inner_gens, in_context, schema,
        )?),
        LetBase::Prim(op, args) => {
            let binop = match op {
                PrimOp::Eq => BinOp::Eq,
                PrimOp::Neq => BinOp::Neq,
                PrimOp::Lt => BinOp::Lt,
                PrimOp::Gt => BinOp::Gt,
                PrimOp::Le => BinOp::Le,
                PrimOp::Ge => BinOp::Ge,
                PrimOp::And => BinOp::And,
                PrimOp::Or => BinOp::Or,
                PrimOp::Add => BinOp::Add,
                PrimOp::Sub => BinOp::Sub,
                PrimOp::Mul => BinOp::Mul,
                PrimOp::Div => BinOp::Div,
                PrimOp::Mod => BinOp::Mod,
                PrimOp::Concat => BinOp::Concat,
                PrimOp::Not => unreachable!("handled above"),
            };
            Expr::binop(
                binop,
                lifted_expr(&args[0], outer_gens, inner_gens, in_context, schema)?,
                lifted_expr(&args[1], outer_gens, inner_gens, in_context, schema)?,
            )
        }
        LetBase::IsEmpty(q) => {
            let mut subqueries = Vec::with_capacity(q.branches.len());
            for branch in &q.branches {
                let mut sub = Select::new().item(Expr::lit(1i64), "one");
                for g in &branch.generators {
                    sub = sub.from_named(&g.table, &g.var);
                }
                if !branch.condition.is_truth() {
                    // Inside the EXISTS subquery, references to the enclosing
                    // block's generators must go through the numbered
                    // subquery's columns; references to the subquery's own
                    // generators stay as they are.
                    sub = sub.filter(lifted_expr(
                        &branch.condition,
                        outer_gens,
                        inner_gens,
                        in_context,
                        schema,
                    )?);
                }
                subqueries.push(Query::select(sub));
            }
            if subqueries.is_empty() {
                Expr::lit(true)
            } else {
                Expr::not(Expr::Exists(Box::new(Query::union_all(subqueries))))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, organisation_schema, OrgConfig};
    use shredding::pipeline::engine_from_database;

    impl LoopLiftedQuery {
        /// The SQL text of every stage.
        fn sql_texts(&self) -> Vec<String> {
            self.stages
                .annotations()
                .into_iter()
                .map(|s| sqlengine::print_query(&s.sql))
                .collect()
        }
    }

    #[test]
    fn loop_lifting_agrees_with_the_nested_semantics_on_nested_queries() {
        let schema = organisation_schema();
        let db = generate(&OrgConfig {
            departments: 3,
            employees_per_department: 4,
            contacts_per_department: 2,
            ..OrgConfig::default()
        });
        let engine = engine_from_database(&db).unwrap();
        for (name, q) in [
            ("Q3", datagen::queries::q3()),
            ("Q4", datagen::queries::q4()),
            ("Q6", datagen::queries::q6()),
        ] {
            let reference = nrc::eval(&q, &db).unwrap();
            let lifted = run_looplift(&q, &schema, &engine)
                .unwrap_or_else(|e| panic!("{} failed: {}", name, e));
            assert!(
                lifted.multiset_eq(&reference),
                "{}: loop-lifting disagrees with the nested semantics",
                name
            );
        }
    }

    #[test]
    fn lifted_sql_numbers_rows_below_the_predicate() {
        let schema = organisation_schema();
        let compiled = compile_looplift(&datagen::queries::q4(), &schema).unwrap();
        let texts = compiled.sql_texts();
        // The inner query computes ROW_NUMBER inside a FROM-subquery and
        // filters outside it — the shape Pathfinder fails to simplify.
        assert!(texts[1].contains("ROW_NUMBER"));
        let inner = &texts[1];
        let pos_rn = inner.find("ROW_NUMBER").unwrap();
        let pos_where = inner.rfind("WHERE").unwrap();
        assert!(
            pos_rn < pos_where,
            "predicate should sit above the numbering"
        );
    }

    #[test]
    fn flat_queries_also_work_under_loop_lifting() {
        let schema = organisation_schema();
        let db = generate(&OrgConfig::small());
        let engine = engine_from_database(&db).unwrap();
        for (name, q) in datagen::queries::flat_queries() {
            let reference = nrc::eval(&q, &db).unwrap();
            let lifted = run_looplift(&q, &schema, &engine)
                .unwrap_or_else(|e| panic!("{} failed: {}", name, e));
            assert!(lifted.multiset_eq(&reference), "{} disagrees", name);
        }
    }
}
