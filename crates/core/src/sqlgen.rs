//! Conversion of let-inserted queries to SQL (Section 7 of the paper).
//!
//! Each let-inserted comprehension becomes a `SELECT` block; its let-bound
//! subquery (if any) becomes a `WITH` clause; `empty L` becomes
//! `NOT EXISTS (…)`; and nested records are flattened to columns using
//! [`crate::flatten::ResultLayout`].
//!
//! The `index` primitive numbers the rows of a *scope*: the generators in
//! scope at a level, i.e. the let-bound outer generators followed by the
//! level's own. `scope_index` chooses its encoding at compile time, from
//! the schema:
//!
//! * a scope of exactly one generator, over a table whose declared key is a
//!   single `Int` column, is indexed by that key column — a *natural* index
//!   (Section 6.1), which does not move when other rows are written;
//! * any other scope is numbered with `ROW_NUMBER() OVER (ORDER BY …)`, where
//!   the ordering lists *all* columns of the scope's tables, making the
//!   numbering deterministic — a *flat* index, which renumbers every later
//!   row when one row is inserted or deleted.
//!
//! The same choice produces a parent's inner index (the current row's
//! index, in the body) and its child's outer index (the surrogate `rn` of
//! the child's let-bound subquery): the child's outer generators are exactly
//! the parent's scope, so the two always agree. A scope with no generators
//! has the single index `1`.

use crate::error::ShredError;
use crate::flatten::{value_to_sql, LeafKind, ResultLayout, OUTER_ORD_COLUMN, OUTER_TAG_COLUMN};
use crate::letins::{IndexSource, LetBase, LetBinding, LetComp, LetInner, LetQuery, OUTER_VAR};
use crate::nf::Generator;
use nrc::schema::Schema;
use nrc::term::{Constant, PrimOp};
use nrc::types::BaseType;
use nrc::value::Value;
use sqlengine::ast::{BinOp, Expr, Query, Select};

/// The name used for every let-bound subquery (`WITH q AS …`). Each branch of
/// a union introduces its own scope, so the name can be reused.
pub const CTE_NAME: &str = "q";

/// Column name of the surrogate produced by a let-bound subquery.
pub const SURROGATE_COLUMN: &str = "rn";

/// Generate the SQL query for a let-inserted shredded query.
pub fn sql_of_let_query(
    query: &LetQuery,
    layout: &ResultLayout,
    schema: &Schema,
) -> Result<Query, ShredError> {
    if query.branches.is_empty() {
        // An empty union produces no rows; emit a select with an impossible
        // condition so that the column list still matches the layout.
        let mut select = Select::new();
        select = push_index_items(select, 0, Expr::lit(0i64), layout);
        let select = empty_branch_items(select, layout).filter(Expr::lit(false));
        return Ok(Query::select(select));
    }
    let branches = query
        .branches
        .iter()
        .map(|c| sql_of_comp(c, layout, schema))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Query::union_all(branches))
}

/// Emit NULL-typed placeholder items matching the layout (used only for the
/// degenerate empty union).
fn empty_branch_items(mut select: Select, layout: &ResultLayout) -> Select {
    for leaf in &layout.leaves {
        match leaf.kind {
            LeafKind::Base(_) => {
                select = select.item(Expr::Literal(sqlengine::SqlValue::Null), &leaf.name);
            }
            LeafKind::Index => {
                select = select.item(Expr::lit(0i64), &format!("{}_tag", leaf.name));
                select = select.item(Expr::lit(0i64), &format!("{}_ord", leaf.name));
            }
        }
    }
    select
}

fn push_index_items(select: Select, tag: i64, ordinal: Expr, _layout: &ResultLayout) -> Select {
    select
        .item(Expr::lit(tag), OUTER_TAG_COLUMN)
        .item(ordinal, OUTER_ORD_COLUMN)
}

/// The flattened column name of the `i`-th outer generator's column `col`
/// inside a let-bound subquery.
fn cte_column(i: usize, col: &str) -> String {
    format!("c{}_{}", i + 1, col)
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

/// All columns of a list of generators, qualified by their variables.
fn generator_columns(schema: &Schema, gens: &[Generator]) -> Result<Vec<Expr>, ShredError> {
    let mut out = Vec::new();
    for g in gens {
        for col in table_columns(schema, &g.table)? {
            out.push(Expr::col(&g.var, &col));
        }
    }
    Ok(out)
}

fn sql_of_comp(
    comp: &LetComp,
    layout: &ResultLayout,
    schema: &Schema,
) -> Result<Query, ShredError> {
    let outer = comp.binding.as_ref().map_or(&[][..], |b| &b.generators[..]);
    let row_index = scope_index(schema, outer, &comp.generators)?;

    // Body SELECT.
    let mut select = Select::new();
    let ordinal = if comp.binding.is_some() {
        Expr::col(OUTER_VAR, SURROGATE_COLUMN)
    } else {
        Expr::lit(1i64)
    };
    select = push_index_items(select, comp.outer_tag.as_int(), ordinal, layout);
    select = push_inner_items(select, &comp.inner, layout, &row_index, schema)?;

    if comp.binding.is_some() {
        select = select.from_named(CTE_NAME, OUTER_VAR);
    }
    for g in &comp.generators {
        select = select.from_named(&g.table, &g.var);
    }
    if !comp.condition.is_truth() {
        select = select.filter(sql_of_base(&comp.condition, comp.binding.as_ref(), schema)?);
    }

    // WITH clause.
    match &comp.binding {
        None => Ok(Query::select(select)),
        Some(binding) => {
            let cte = sql_of_binding(binding, schema)?;
            Ok(Query::with(CTE_NAME, cte, Query::select(select)))
        }
    }
}

/// The `WITH q AS (SELECT …, <index> AS rn …)` subquery of a comprehension.
/// Inside it the outer generators are the block's own, so its surrogate is
/// the `scope_index` of exactly the scope the parent level indexed.
fn sql_of_binding(binding: &LetBinding, schema: &Schema) -> Result<Select, ShredError> {
    let mut select = Select::new();
    for (i, g) in binding.generators.iter().enumerate() {
        for col in table_columns(schema, &g.table)? {
            select = select.item(Expr::col(&g.var, &col), &cte_column(i, &col));
        }
    }
    select = select.item(
        scope_index(schema, &[], &binding.generators)?,
        SURROGATE_COLUMN,
    );
    for g in &binding.generators {
        select = select.from_named(&g.table, &g.var);
    }
    if !binding.condition.is_truth() {
        select = select.filter(sql_of_base(&binding.condition, None, schema)?);
    }
    Ok(select)
}

/// The index of the current row of a scope: the let-bound generators
/// `outer`, read through the `WITH` columns of `z`, followed by the block's
/// own generators `own`. A single generator over a table keyed by one `Int`
/// column is indexed by its key; any other non-empty scope by `ROW_NUMBER`
/// over all its columns (`z.rn` included); the empty scope by `1`.
fn scope_index(
    schema: &Schema,
    outer: &[Generator],
    own: &[Generator],
) -> Result<Expr, ShredError> {
    if let ([g], []) | ([], [g]) = (outer, own) {
        let table = schema
            .table(&g.table)
            .ok_or_else(|| ShredError::Internal(format!("unknown table {}", g.table)))?;
        if let [key] = &table.key[..] {
            if table.column_type(key) == Some(BaseType::Int) {
                return Ok(if outer.is_empty() {
                    Expr::col(&g.var, key)
                } else {
                    Expr::col(OUTER_VAR, &cte_column(0, key))
                });
            }
        }
    }
    let mut order_keys = Vec::new();
    for (i, g) in outer.iter().enumerate() {
        for col in table_columns(schema, &g.table)? {
            order_keys.push(Expr::col(OUTER_VAR, &cte_column(i, &col)));
        }
    }
    if !outer.is_empty() {
        order_keys.push(Expr::col(OUTER_VAR, SURROGATE_COLUMN));
    }
    order_keys.extend(generator_columns(schema, own)?);
    Ok(if order_keys.is_empty() {
        Expr::lit(1i64)
    } else {
        Expr::row_number(order_keys)
    })
}

/// Emit the SELECT items for the inner term, following the layout's leaves in
/// order so that every union branch produces the same column list.
fn push_inner_items(
    mut select: Select,
    inner: &LetInner,
    layout: &ResultLayout,
    row_index: &Expr,
    schema: &Schema,
) -> Result<Select, ShredError> {
    for leaf in &layout.leaves {
        let value = navigate_inner(inner, &leaf.path)?;
        match (&leaf.kind, value) {
            (LeafKind::Base(_), LetInner::Base(b)) => {
                select = select.item(sql_of_base(b, None, schema)?, &leaf.name);
            }
            (LeafKind::Index, LetInner::IndexPair { tag, source }) => {
                let ordinal = match source {
                    IndexSource::CurrentRow => row_index.clone(),
                    IndexSource::OuterBinding => Expr::col(OUTER_VAR, SURROGATE_COLUMN),
                    IndexSource::One => Expr::lit(1i64),
                };
                select = select.item(Expr::lit(tag.as_int()), &format!("{}_tag", leaf.name));
                select = select.item(ordinal, &format!("{}_ord", leaf.name));
            }
            (kind, other) => {
                return Err(ShredError::Internal(format!(
                    "inner term {:?} does not match layout leaf {:?}",
                    other, kind
                )))
            }
        }
    }
    Ok(select)
}

fn navigate_inner<'a>(inner: &'a LetInner, path: &[String]) -> Result<&'a LetInner, ShredError> {
    let mut current = inner;
    for label in path {
        match current {
            LetInner::Record(fields) => {
                current = fields
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| v)
                    .ok_or_else(|| {
                        ShredError::Internal(format!("inner term is missing field {}", label))
                    })?;
            }
            other => {
                return Err(ShredError::Internal(format!(
                    "cannot navigate field {} of non-record inner term {:?}",
                    label, other
                )))
            }
        }
    }
    Ok(current)
}

/// Translate a base term into a SQL expression. `binding` is needed to map
/// projections from the let-bound tuple `z.#1.#i.ℓ` onto the CTE's flattened
/// column names.
#[allow(clippy::only_used_in_recursion)]
fn sql_of_base(
    base: &LetBase,
    binding: Option<&LetBinding>,
    schema: &Schema,
) -> Result<Expr, ShredError> {
    match base {
        LetBase::Proj { var, path } => {
            if var == OUTER_VAR && path.len() == 3 {
                let i: usize = path[1]
                    .trim_start_matches('#')
                    .parse()
                    .map_err(|_| ShredError::Internal(format!("bad tuple label {}", path[1])))?;
                Ok(Expr::col(OUTER_VAR, &cte_column(i - 1, &path[2])))
            } else if path.len() == 1 {
                Ok(Expr::col(var, &path[0]))
            } else {
                Err(ShredError::Internal(format!(
                    "unexpected projection path {:?} in SQL generation",
                    path
                )))
            }
        }
        LetBase::Const(c) => Ok(Expr::Literal(match c {
            Constant::Int(i) => value_to_sql(&Value::Int(*i))?,
            Constant::Bool(b) => value_to_sql(&Value::Bool(*b))?,
            Constant::String(s) => value_to_sql(&Value::string(s.as_str()))?,
            Constant::Unit => value_to_sql(&Value::Unit)?,
        })),
        // Bind variables become named placeholders; the engine fills them in
        // at execution time, so one generated query serves every binding.
        LetBase::Param(name, _) => Ok(Expr::param(name)),
        LetBase::Prim(PrimOp::Not, args) => Ok(Expr::not(sql_of_base(&args[0], binding, schema)?)),
        LetBase::Prim(op, args) => {
            if args.len() != 2 {
                return Err(ShredError::Internal(format!(
                    "primitive {} with {} arguments in SQL generation",
                    op,
                    args.len()
                )));
            }
            let left = sql_of_base(&args[0], binding, schema)?;
            let right = sql_of_base(&args[1], binding, schema)?;
            Ok(Expr::binop(sql_binop(*op)?, left, right))
        }
        LetBase::IsEmpty(q) => {
            // empty L  ⇝  NOT EXISTS (SELECT 1 FROM … WHERE …), one branch per
            // comprehension of L (all binding-free).
            let mut subqueries = Vec::with_capacity(q.branches.len());
            for branch in &q.branches {
                if branch.binding.is_some() {
                    return Err(ShredError::Internal(
                        "emptiness subquery with a let binding".to_string(),
                    ));
                }
                let mut sub = Select::new().item(Expr::lit(1i64), "one");
                for g in &branch.generators {
                    sub = sub.from_named(&g.table, &g.var);
                }
                if !branch.condition.is_truth() {
                    sub = sub.filter(sql_of_base(&branch.condition, binding, schema)?);
                }
                subqueries.push(Query::select(sub));
            }
            if subqueries.is_empty() {
                // empty ∅ is always true.
                return Ok(Expr::lit(true));
            }
            Ok(Expr::not(Expr::Exists(Box::new(Query::union_all(
                subqueries,
            )))))
        }
    }
}

fn sql_binop(op: PrimOp) -> Result<BinOp, ShredError> {
    Ok(match op {
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
        PrimOp::Not => {
            return Err(ShredError::Internal(
                "negation is not a binary operator".to_string(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::letins::let_insert;
    use crate::normalise::normalise_with_type;
    use crate::shred::{shred_query, shred_type};
    use nrc::builder::*;
    use nrc::schema::TableSchema;
    use nrc::types::{BaseType, Path};
    use sqlengine::print_query;

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new(
                    "departments",
                    vec![("id", BaseType::Int), ("name", BaseType::String)],
                )
                .with_key(vec!["id"]),
            )
            .with_table(
                TableSchema::new(
                    "employees",
                    vec![
                        ("id", BaseType::Int),
                        ("dept", BaseType::String),
                        ("name", BaseType::String),
                        ("salary", BaseType::Int),
                    ],
                )
                .with_key(vec!["id"]),
            )
    }

    fn nested_query() -> nrc::Term {
        for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("dept", project(var("d"), "name")),
                (
                    "emps",
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

    /// The SQL text of the stage at `path` of the nested query.
    fn stage_sql(schema: &Schema, path: &Path) -> String {
        let (norm, ty) = normalise_with_type(&nested_query(), schema).unwrap();
        let shredded = shred_query(&norm, path).unwrap();
        let lq = let_insert(&shredded).unwrap();
        let layout = ResultLayout::new(&shred_type(&ty, path).unwrap().inner);
        print_query(&sql_of_let_query(&lq, &layout, schema).unwrap())
    }

    fn inner_path(schema: &Schema) -> Path {
        let (_, ty) = normalise_with_type(&nested_query(), schema).unwrap();
        ty.paths()[1].clone()
    }

    #[test]
    fn top_level_sql_indexes_a_keyed_generator_by_its_key_and_has_no_with() {
        let text = stage_sql(&schema(), &Path::empty());
        assert!(text.contains("d_1.id AS emps_ord"), "{}", text);
        assert!(!text.contains("ROW_NUMBER"), "{}", text);
        assert!(!text.contains("WITH"));
        assert!(text.contains("FROM departments AS d_1"));
    }

    #[test]
    fn inner_sql_uses_a_with_clause_joining_back_to_the_outer_query() {
        let schema = schema();
        let text = stage_sql(&schema, &inner_path(&schema));
        assert!(text.contains("WITH q AS ("));
        assert!(text.contains("FROM q AS z, employees AS e"));
        assert!(text.contains("z.c1_name"));
        // The surrogate is the outer generator's key: the value the parent
        // stage emitted as its inner index.
        assert!(text.contains("d_1.id AS rn"), "{}", text);
        assert!(!text.contains("ROW_NUMBER"), "{}", text);
    }

    /// The same query over tables that declare no key: both sides of the
    /// parent–child link fall back to `ROW_NUMBER` over all columns.
    #[test]
    fn an_unkeyed_scope_keeps_row_number_on_both_sides() {
        let mut unkeyed = Schema::new();
        for table in schema().tables() {
            let mut table = table.clone();
            table.key.clear();
            unkeyed.add_table(table);
        }
        let top = stage_sql(&unkeyed, &Path::empty());
        assert!(
            top.contains("ROW_NUMBER() OVER (ORDER BY d_1.id, d_1.name) AS emps_ord"),
            "{}",
            top
        );
        let inner = stage_sql(&unkeyed, &inner_path(&unkeyed));
        assert!(
            inner.contains("ROW_NUMBER() OVER (ORDER BY d_1.id, d_1.name) AS rn"),
            "{}",
            inner
        );
    }

    #[test]
    fn emptiness_tests_become_not_exists() {
        let schema = schema();
        // Departments with no employees.
        let q = for_where(
            "d",
            table("departments"),
            is_empty(for_where(
                "e",
                table("employees"),
                eq(project(var("e"), "dept"), project(var("d"), "name")),
                singleton(var("e")),
            )),
            singleton(project(var("d"), "name")),
        );
        let (norm, ty) = normalise_with_type(&q, &schema).unwrap();
        let shredded = shred_query(&norm, &Path::empty()).unwrap();
        let lq = let_insert(&shredded).unwrap();
        let layout = ResultLayout::new(&shred_type(&ty, &Path::empty()).unwrap().inner);
        let sql = sql_of_let_query(&lq, &layout, &schema).unwrap();
        let text = print_query(&sql);
        assert!(text.contains("NOT (EXISTS (SELECT 1 AS one"));
    }

    #[test]
    fn union_branches_share_the_same_column_list() {
        let schema = schema();
        let q = union(
            for_where(
                "e",
                table("employees"),
                lt(project(var("e"), "salary"), int(1000)),
                singleton(project(var("e"), "name")),
            ),
            for_where(
                "e",
                table("employees"),
                gt(project(var("e"), "salary"), int(100000)),
                singleton(project(var("e"), "name")),
            ),
        );
        let (norm, ty) = normalise_with_type(&q, &schema).unwrap();
        let shredded = shred_query(&norm, &Path::empty()).unwrap();
        let lq = let_insert(&shredded).unwrap();
        let layout = ResultLayout::new(&shred_type(&ty, &Path::empty()).unwrap().inner);
        let sql = sql_of_let_query(&lq, &layout, &schema).unwrap();
        match sql {
            Query::UnionAll(branches) => {
                assert_eq!(branches.len(), 2);
                assert_eq!(branches[0].output_columns(), branches[1].output_columns());
            }
            other => panic!("expected a union, got {:?}", other),
        }
    }
}
