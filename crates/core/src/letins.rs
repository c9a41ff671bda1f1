//! Let-insertion (Section 6.2, Figures 6 and 7).
//!
//! Let-insertion rewrites each shredded comprehension into (at most) two
//! subqueries:
//!
//! ```text
//! let q = for (G⃗out where Xout) return ⟨Rout, index⟩ in
//! for (z ← q, G⃗in where Xin) return N
//! ```
//!
//! The let-bound subquery enumerates the *outer* generator levels and pairs
//! each combination with a flat surrogate (`index`); the body joins back to
//! it, so the abstract indexes `a⋅out` / `a⋅in` of shredding become concrete
//! pairs `⟨a, z.2⟩` / `⟨a, index⟩` of integers. This is the step that makes
//! shredded queries expressible in SQL, where `index` is the key column of
//! a scope's one keyed generator or else `ROW_NUMBER` (Section 7; see
//! [`crate::sqlgen`]).

use crate::error::ShredError;
use crate::nf::{Generator, StaticIndex, TOP};
use crate::semantics::{FlatValue, IndexValue, ShredResult};
use crate::shred::{ShBase, ShredComp, ShredInner, ShreddedQuery};
use nrc::env::Env;
use nrc::eval::apply_prim;
use nrc::schema::{Database, Schema};
use nrc::term::{Constant, PrimOp};
use nrc::value::Value;
use std::fmt;

/// The distinguished variable bound to the let-bound subquery.
pub const OUTER_VAR: &str = "z";

/// A let-inserted query: a union of let-inserted comprehensions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LetQuery {
    pub branches: Vec<LetComp>,
}

/// One let-inserted comprehension.
#[derive(Debug, Clone, PartialEq)]
pub struct LetComp {
    /// The let-bound outer subquery, if the comprehension has more than one
    /// level. Its rows carry all columns of the outer generators plus a flat
    /// surrogate index.
    pub binding: Option<LetBinding>,
    /// The generators of the innermost level (drawn from tables). When
    /// `binding` is present the body additionally ranges over `z ← q`.
    pub generators: Vec<Generator>,
    /// The innermost level's condition, with outer-variable references
    /// rewritten to projections from `z`.
    pub condition: LetBase,
    /// The static tag of the outer index `⟨outer_tag, …⟩`.
    pub outer_tag: StaticIndex,
    /// The static tag of this comprehension's own rows (its `returnᵇ`).
    pub tag: StaticIndex,
    /// The inner term, with nested bags replaced by `⟨tag, index⟩` pairs.
    pub inner: LetInner,
}

/// The let-bound outer subquery `for (G⃗out where Xout) return ⟨Rout, index⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct LetBinding {
    pub generators: Vec<Generator>,
    pub condition: LetBase,
}

/// Base terms of let-inserted queries: n-ary projections, constants,
/// primitive applications and emptiness tests.
#[derive(Debug, Clone, PartialEq)]
pub enum LetBase {
    /// `x.ℓ1.….ℓn` — a projection path. Paths of length one project table
    /// columns; longer paths project from the let-bound tuple `z`.
    Proj {
        var: String,
        path: Vec<String>,
    },
    Const(Constant),
    /// A typed bind variable `?name : O`; SQL generation renders it as the
    /// named placeholder `:name`.
    Param(String, nrc::BaseType),
    Prim(PrimOp, Vec<LetBase>),
    /// `empty L` over a (binding-free) let-inserted query.
    IsEmpty(Box<LetQuery>),
}

impl LetBase {
    /// The constant `true`.
    pub(crate) fn truth() -> LetBase {
        LetBase::Const(Constant::Bool(true))
    }

    /// Is this the constant `true`?
    pub fn is_truth(&self) -> bool {
        matches!(self, LetBase::Const(Constant::Bool(true)))
    }
}

/// Inner terms: base expressions, records, or the `index` primitive.
#[derive(Debug, Clone, PartialEq)]
pub enum LetInner {
    Base(LetBase),
    Record(Vec<(String, LetInner)>),
    /// An index pair `⟨tag, source⟩`.
    IndexPair {
        tag: StaticIndex,
        source: IndexSource,
    },
}

/// Where the dynamic component of an index pair comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSource {
    /// `index`: the surrogate of the current (innermost) subquery.
    CurrentRow,
    /// `z.2`: the surrogate carried by the let-bound outer subquery.
    OuterBinding,
    /// The literal `1` (top-level outer index of a single-level block).
    One,
}

impl fmt::Display for LetQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.branches.iter().enumerate() {
            if i > 0 {
                write!(f, "\n⊎ ")?;
            }
            write!(f, "{}", c)?;
        }
        Ok(())
    }
}

impl fmt::Display for LetComp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(b) = &self.binding {
            write!(f, "let q = for (")?;
            for (i, g) in b.generators.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", g)?;
            }
            write!(f, " where …) return ⟨…, index⟩ in ")?;
        }
        write!(f, "for (")?;
        if self.binding.is_some() {
            write!(f, "{} ← q, ", OUTER_VAR)?;
        }
        for (i, g) in self.generators.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", g)?;
        }
        write!(f, " where …) return ⟨⟨{}, …⟩, …⟩", self.outer_tag)
    }
}

// ---------------------------------------------------------------------------
// The let-insertion translation (Figure 7)
// ---------------------------------------------------------------------------

/// Apply let-insertion to a shredded query.
pub fn let_insert(query: &ShreddedQuery) -> Result<LetQuery, ShredError> {
    let branches = query
        .branches
        .iter()
        .map(let_insert_comp)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LetQuery { branches })
}

fn let_insert_comp(comp: &ShredComp) -> Result<LetComp, ShredError> {
    if comp.levels.is_empty() {
        return Err(ShredError::Internal(
            "shredded comprehension with no levels".to_string(),
        ));
    }
    let (outer_levels, inner_level) = comp.levels.split_at(comp.levels.len() - 1);
    let inner_level = &inner_level[0];

    // Outer variables: every generator of the outer levels, in order. These
    // become the components of the let-bound tuple Rout.
    let outer_gens: Vec<Generator> = outer_levels
        .iter()
        .flat_map(|l| l.generators.iter().cloned())
        .collect();
    let outer_vars: Vec<String> = outer_gens.iter().map(|g| g.var.clone()).collect();

    let binding = if outer_gens.is_empty() {
        None
    } else {
        let condition = outer_levels
            .iter()
            .map(|l| translate_base(&l.condition, &[]))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .fold(LetBase::truth(), and_let);
        Some(LetBinding {
            generators: outer_gens,
            condition,
        })
    };

    let condition = translate_base(&inner_level.condition, &outer_vars)?;
    let inner = translate_inner(&comp.inner, &outer_vars)?;

    Ok(LetComp {
        binding,
        generators: inner_level.generators.clone(),
        condition,
        outer_tag: comp.outer_tag,
        tag: comp.tag,
        inner,
    })
}

fn and_let(acc: LetBase, next: LetBase) -> LetBase {
    if acc.is_truth() {
        next
    } else if next.is_truth() {
        acc
    } else {
        LetBase::Prim(PrimOp::And, vec![acc, next])
    }
}

/// `L_y⃗(X)`: translate a base term, rewriting references to outer variables
/// `y_i` into projections `z.#1.#i.ℓ` from the let-bound tuple.
fn translate_base(base: &ShBase, outer_vars: &[String]) -> Result<LetBase, ShredError> {
    Ok(match base {
        ShBase::Proj { var, field } => match outer_vars.iter().position(|y| y == var) {
            Some(i) => LetBase::Proj {
                var: OUTER_VAR.to_string(),
                path: vec!["#1".to_string(), format!("#{}", i + 1), field.clone()],
            },
            None => LetBase::Proj {
                var: var.clone(),
                path: vec![field.clone()],
            },
        },
        ShBase::Const(c) => LetBase::Const(c.clone()),
        ShBase::Param(name, ty) => LetBase::Param(name.clone(), *ty),
        ShBase::Prim(op, args) => LetBase::Prim(
            *op,
            args.iter()
                .map(|a| translate_base(a, outer_vars))
                .collect::<Result<_, _>>()?,
        ),
        ShBase::IsEmpty(q) => {
            // Queries under `empty` were shredded at path ε, so every branch
            // has a single level and let-insertion introduces no binding; but
            // their conditions may reference the *enclosing* query's outer
            // variables, which must still be rewritten.
            let mut branches = Vec::with_capacity(q.branches.len());
            for b in &q.branches {
                let mut comp = let_insert_comp(b)?;
                comp.condition = rewrite_outer_refs(&comp.condition, outer_vars)?;
                branches.push(comp);
            }
            LetBase::IsEmpty(Box::new(LetQuery { branches }))
        }
    })
}

/// Rewrite direct projections `y.ℓ` on outer variables inside an
/// already-translated condition (used for the bodies of `empty` subqueries).
fn rewrite_outer_refs(base: &LetBase, outer_vars: &[String]) -> Result<LetBase, ShredError> {
    Ok(match base {
        LetBase::Proj { var, path } if path.len() == 1 => {
            match outer_vars.iter().position(|y| y == var) {
                Some(i) => LetBase::Proj {
                    var: OUTER_VAR.to_string(),
                    path: vec!["#1".to_string(), format!("#{}", i + 1), path[0].clone()],
                },
                None => base.clone(),
            }
        }
        LetBase::Proj { .. } | LetBase::Const(_) | LetBase::Param(_, _) => base.clone(),
        LetBase::Prim(op, args) => LetBase::Prim(
            *op,
            args.iter()
                .map(|a| rewrite_outer_refs(a, outer_vars))
                .collect::<Result<_, _>>()?,
        ),
        LetBase::IsEmpty(q) => {
            let mut branches = Vec::with_capacity(q.branches.len());
            for b in &q.branches {
                let mut comp = b.clone();
                comp.condition = rewrite_outer_refs(&comp.condition, outer_vars)?;
                branches.push(comp);
            }
            LetBase::IsEmpty(Box::new(LetQuery { branches }))
        }
    })
}

fn translate_inner(inner: &ShredInner, outer_vars: &[String]) -> Result<LetInner, ShredError> {
    Ok(match inner {
        ShredInner::Base(b) => LetInner::Base(translate_base(b, outer_vars)?),
        ShredInner::Record(fields) => LetInner::Record(
            fields
                .iter()
                .map(|(l, v)| Ok((l.clone(), translate_inner(v, outer_vars)?)))
                .collect::<Result<_, ShredError>>()?,
        ),
        ShredInner::InnerIndex(tag) => LetInner::IndexPair {
            tag: *tag,
            source: IndexSource::CurrentRow,
        },
    })
}

// ---------------------------------------------------------------------------
// Semantics of let-inserted queries (Figure 6)
// ---------------------------------------------------------------------------

/// Evaluate a let-inserted query over a database, producing indexed flat
/// results directly comparable with the flat-index shredded semantics
/// (Theorem 6). Indexes are materialised as [`IndexValue::Flat`].
pub fn eval_let(
    query: &LetQuery,
    schema: &Schema,
    db: &Database,
) -> Result<ShredResult, ShredError> {
    eval_let_in(query, schema, db, &Env::empty())
}

fn eval_let_in(
    query: &LetQuery,
    schema: &Schema,
    db: &Database,
    outer_env: &Env,
) -> Result<ShredResult, ShredError> {
    let mut out = Vec::new();
    for branch in &query.branches {
        eval_let_comp(branch, schema, db, outer_env, &mut out)?;
    }
    Ok(out)
}

/// The row produced by the let-bound subquery: the bound outer rows plus the
/// flat surrogate.
struct OuterRow {
    rows: Vec<Value>,
    surrogate: i64,
}

fn eval_let_comp(
    comp: &LetComp,
    schema: &Schema,
    db: &Database,
    outer_env: &Env,
    out: &mut ShredResult,
) -> Result<(), ShredError> {
    // Evaluate the let-bound subquery, if any.
    let outer_rows: Vec<OuterRow> = match &comp.binding {
        None => vec![OuterRow {
            rows: Vec::new(),
            surrogate: 1,
        }],
        Some(binding) => {
            let combos = satisfying_let_bindings(
                &binding.generators,
                &binding.condition,
                schema,
                db,
                outer_env,
            )?;
            combos
                .into_iter()
                .enumerate()
                .map(|(i, rows)| OuterRow {
                    rows,
                    surrogate: (i + 1) as i64,
                })
                .collect()
        }
    };

    // Evaluate the body: z ranges over the outer rows, then the inner
    // generators, with a single flat surrogate numbering the satisfying
    // combinations.
    let inner_tables: Vec<Vec<Value>> = comp
        .generators
        .iter()
        .map(|g| {
            db.table_rows(&g.table)
                .map_err(|_| ShredError::Internal(format!("unknown table {}", g.table)))
        })
        .collect::<Result<_, _>>()?;

    let mut surrogate = 0i64;
    for outer in &outer_rows {
        let mut current: Vec<Value> = Vec::with_capacity(comp.generators.len());
        enumerate_rows(&inner_tables, 0, &mut current, &mut |rows| {
            let env = LetEnv {
                binding: comp.binding.as_ref().map(|b| (b, outer)),
                generators: &comp.generators,
                rows,
                outer_env,
            };
            let keep = eval_let_base(&comp.condition, &env, schema, db)?
                .as_bool()
                .ok_or_else(|| {
                    ShredError::Internal("let-inserted condition is not boolean".to_string())
                })?;
            if !keep {
                return Ok(());
            }
            surrogate += 1;
            let outer_index = IndexValue::Flat {
                tag: comp.outer_tag,
                ordinal: if comp.outer_tag == TOP {
                    1
                } else {
                    outer.surrogate
                },
            };
            let inner = eval_let_inner(&comp.inner, &env, schema, db, comp.tag, surrogate, outer)?;
            out.push((outer_index, inner));
            Ok(())
        })?;
    }
    Ok(())
}

fn enumerate_rows(
    tables: &[Vec<Value>],
    depth: usize,
    current: &mut Vec<Value>,
    visit: &mut impl FnMut(&[Value]) -> Result<(), ShredError>,
) -> Result<(), ShredError> {
    if depth == tables.len() {
        return visit(current);
    }
    for row in &tables[depth] {
        current.push(row.clone());
        enumerate_rows(tables, depth + 1, current, visit)?;
        current.pop();
    }
    Ok(())
}

fn satisfying_let_bindings(
    generators: &[Generator],
    condition: &LetBase,
    schema: &Schema,
    db: &Database,
    outer_env: &Env,
) -> Result<Vec<Vec<Value>>, ShredError> {
    let tables: Vec<Vec<Value>> = generators
        .iter()
        .map(|g| {
            db.table_rows(&g.table)
                .map_err(|_| ShredError::Internal(format!("unknown table {}", g.table)))
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    let mut current: Vec<Value> = Vec::with_capacity(generators.len());
    enumerate_rows(&tables, 0, &mut current, &mut |rows| {
        let env = LetEnv {
            binding: None,
            generators,
            rows,
            outer_env,
        };
        let keep = eval_let_base(condition, &env, schema, db)?
            .as_bool()
            .ok_or_else(|| ShredError::Internal("binding condition is not boolean".to_string()))?;
        if keep {
            out.push(rows.to_vec());
        }
        Ok(())
    })?;
    Ok(out)
}

/// The evaluation environment of a let-inserted subquery: the optional
/// let-bound row (`z`), the inner generators' current rows, and any enclosing
/// environment (for correlated `empty` subqueries).
struct LetEnv<'a> {
    binding: Option<(&'a LetBinding, &'a OuterRow)>,
    generators: &'a [Generator],
    rows: &'a [Value],
    outer_env: &'a Env,
}

impl LetEnv<'_> {
    fn lookup_var(&self, var: &str) -> Option<Value> {
        if let Some(i) = self.generators.iter().position(|g| g.var == var) {
            return self.rows.get(i).cloned();
        }
        self.outer_env.lookup(var).cloned()
    }
}

fn eval_let_base(
    base: &LetBase,
    env: &LetEnv<'_>,
    schema: &Schema,
    db: &Database,
) -> Result<Value, ShredError> {
    match base {
        LetBase::Proj { var, path } => {
            if var == OUTER_VAR && path.len() == 3 {
                // z.#1.#i.ℓ — a projection into the let-bound tuple.
                let (binding, outer) = env.binding.ok_or_else(|| {
                    ShredError::Internal("reference to z without a let binding".to_string())
                })?;
                let idx: usize = path[1]
                    .trim_start_matches('#')
                    .parse()
                    .map_err(|_| ShredError::Internal(format!("bad tuple label {}", path[1])))?;
                let row = outer.rows.get(idx - 1).ok_or_else(|| {
                    ShredError::Internal(format!(
                        "outer tuple has no component {} ({} generators)",
                        idx,
                        binding.generators.len()
                    ))
                })?;
                row.field(&path[2]).cloned().ok_or_else(|| {
                    ShredError::Internal(format!("no field {} in outer row", path[2]))
                })
            } else {
                let v = env
                    .lookup_var(var)
                    .ok_or_else(|| ShredError::Internal(format!("unbound variable {}", var)))?;
                let mut current = v;
                for field in path {
                    current = current
                        .field(field)
                        .cloned()
                        .ok_or_else(|| ShredError::Internal(format!("no field {}", field)))?;
                }
                Ok(current)
            }
        }
        LetBase::Const(c) => Ok(Value::from_constant(c)),
        LetBase::Param(name, ty) => Err(ShredError::MissingParam {
            name: name.clone(),
            expected: *ty,
        }),
        LetBase::Prim(op, args) => {
            let vals = args
                .iter()
                .map(|a| eval_let_base(a, env, schema, db))
                .collect::<Result<Vec<_>, _>>()?;
            apply_prim(*op, &vals).map_err(ShredError::Eval)
        }
        LetBase::IsEmpty(q) => {
            // Build an environment exposing the current generator rows to the
            // correlated subquery.
            let mut nested_env = env.outer_env.clone();
            for (gen, row) in env.generators.iter().zip(env.rows.iter()) {
                nested_env.push(&gen.var, row.clone());
            }
            let rows = eval_let_in(q, schema, db, &nested_env)?;
            Ok(Value::Bool(rows.is_empty()))
        }
    }
}

#[allow(clippy::only_used_in_recursion)]
fn eval_let_inner(
    inner: &LetInner,
    env: &LetEnv<'_>,
    schema: &Schema,
    db: &Database,
    tag: StaticIndex,
    surrogate: i64,
    outer: &OuterRow,
) -> Result<FlatValue, ShredError> {
    match inner {
        LetInner::Base(b) => Ok(FlatValue::Base(eval_let_base(b, env, schema, db)?)),
        LetInner::Record(fields) => Ok(FlatValue::Record(
            fields
                .iter()
                .map(|(l, v)| {
                    Ok((
                        l.clone(),
                        eval_let_inner(v, env, schema, db, tag, surrogate, outer)?,
                    ))
                })
                .collect::<Result<_, ShredError>>()?,
        )),
        LetInner::IndexPair { tag, source } => {
            let ordinal = match source {
                IndexSource::CurrentRow => surrogate,
                IndexSource::OuterBinding => outer.surrogate,
                IndexSource::One => 1,
            };
            Ok(FlatValue::Index(IndexValue::Flat { tag: *tag, ordinal }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalise::normalise_with_type;
    use crate::shred::shred_query;
    use nrc::builder::*;
    use nrc::schema::{Schema, TableSchema};
    use nrc::types::{BaseType, Path};

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

    #[test]
    fn top_level_query_needs_no_binding() {
        let schema = schema();
        let (norm, _ty) = normalise_with_type(&nested_query(), &schema).unwrap();
        let shredded = shred_query(&norm, &Path::empty()).unwrap();
        let lq = let_insert(&shredded).unwrap();
        assert_eq!(lq.branches.len(), 1);
        assert!(lq.branches[0].binding.is_none());
        assert_eq!(lq.branches[0].generators.len(), 1);
    }

    #[test]
    fn inner_query_gets_a_binding_over_the_outer_generators() {
        let schema = schema();
        let (norm, ty) = normalise_with_type(&nested_query(), &schema).unwrap();
        let inner_path = ty.paths()[1].clone();
        let shredded = shred_query(&norm, &inner_path).unwrap();
        let lq = let_insert(&shredded).unwrap();
        assert_eq!(lq.branches.len(), 1);
        let comp = &lq.branches[0];
        let binding = comp.binding.as_ref().expect("binding expected");
        assert_eq!(binding.generators.len(), 1);
        assert_eq!(binding.generators[0].table, "departments");
        assert_eq!(comp.generators.len(), 1);
        assert_eq!(comp.generators[0].table, "employees");
        // The inner condition must reference z rather than the outer variable.
        fn mentions_z(b: &LetBase) -> bool {
            match b {
                LetBase::Proj { var, .. } => var == OUTER_VAR,
                LetBase::Const(_) | LetBase::Param(_, _) => false,
                LetBase::Prim(_, args) => args.iter().any(mentions_z),
                LetBase::IsEmpty(_) => false,
            }
        }
        assert!(mentions_z(&comp.condition));
    }

    #[test]
    fn translated_projection_paths_use_tuple_labels() {
        let b = translate_base(
            &ShBase::Proj {
                var: "d".to_string(),
                field: "name".to_string(),
            },
            &["d".to_string()],
        )
        .unwrap();
        assert_eq!(
            b,
            LetBase::Proj {
                var: OUTER_VAR.to_string(),
                path: vec!["#1".to_string(), "#1".to_string(), "name".to_string()],
            }
        );
    }
}
