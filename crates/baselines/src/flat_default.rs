//! Links' default flat query evaluation (Figure 1(a) of the paper).
//!
//! Links normalises a *flat–flat* query and converts it to a single SQL
//! query — no indexes, no `ROW_NUMBER`, no stitching. This is the baseline
//! the paper compares against for the flat queries QF1–QF6; nested queries
//! are rejected, exactly as stock Links rejects them.

use nrc::schema::Schema;
use nrc::term::Term;
use nrc::types::Type;
use nrc::value::Value;
use shredding::error::ShredError;
use shredding::flatten::sql_to_value;
use shredding::nf::{NfBase, NfTerm, NormQuery};
use shredding::normalise::normalise_with_type;
use sqlengine::ast::{BinOp, Expr, Query, Select};
use sqlengine::{Engine, ResultSet};

/// A flat query compiled to a single SQL statement.
#[derive(Debug, Clone)]
pub struct FlatCompiled {
    pub normalised: NormQuery,
    pub result_type: Type,
    pub sql: Query,
    columns: Vec<(String, nrc::BaseType)>,
}

/// Compile a flat–flat query to SQL. Returns an error if the query's result
/// type is nested (contains inner bags), mirroring Links' behaviour.
pub fn compile_flat(term: &Term, schema: &Schema) -> Result<FlatCompiled, ShredError> {
    let (normalised, result_type) = normalise_with_type(term, schema)?;
    let elem = match &result_type {
        Type::Bag(elem) => elem.as_ref(),
        other => return Err(ShredError::NotAQuery(other.to_string())),
    };
    if result_type.nesting_degree() != 1 {
        return Err(ShredError::NotFlatNested(format!(
            "default flat evaluation cannot handle nested result type {}",
            result_type
        )));
    }
    let columns = flat_columns(elem)?;
    let branches = normalised
        .branches
        .iter()
        .map(|comp| {
            let mut select = Select::new();
            for (name, _) in &columns {
                let field = match &comp.body {
                    NfTerm::Record(fields) => fields
                        .iter()
                        .find(|(l, _)| l == name)
                        .map(|(_, v)| v)
                        .ok_or_else(|| {
                            ShredError::Internal(format!("body missing field {}", name))
                        })?,
                    NfTerm::Base(_) if name == "item" => &comp.body,
                    other => {
                        return Err(ShredError::Internal(format!(
                            "unexpected flat body {:?}",
                            other
                        )))
                    }
                };
                let base = match field {
                    NfTerm::Base(b) => b,
                    other => {
                        return Err(ShredError::Internal(format!(
                            "flat query field {} is not base-typed: {:?}",
                            name, other
                        )))
                    }
                };
                select = select.item(expr_of_base(base)?, name);
            }
            for g in &comp.generators {
                select = select.from_named(&g.table, &g.var);
            }
            if !comp.condition.is_truth() {
                select = select.filter(expr_of_base(&comp.condition)?);
            }
            Ok(Query::select(select))
        })
        .collect::<Result<Vec<_>, ShredError>>()?;
    let sql = if branches.is_empty() {
        Query::select(
            columns
                .iter()
                .fold(Select::new(), |s, (name, _)| {
                    s.item(Expr::Literal(sqlengine::SqlValue::Null), name)
                })
                .filter(Expr::lit(false)),
        )
    } else {
        Query::union_all(branches)
    };
    Ok(FlatCompiled {
        normalised,
        result_type,
        sql,
        columns,
    })
}

impl FlatCompiled {
    /// The names of the flat result columns, in SQL order.
    pub(crate) fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|(name, _)| name.clone()).collect()
    }
}

/// Execute a compiled flat query and convert the rows back to λNRC values.
pub fn execute_flat(compiled: &FlatCompiled, engine: &Engine) -> Result<Value, ShredError> {
    execute_flat_bound(compiled, engine, &sqlengine::ParamValues::new())
}

/// Execute a compiled flat query with bound values for its `:name`
/// placeholders.
pub(crate) fn execute_flat_bound(
    compiled: &FlatCompiled,
    engine: &Engine,
    params: &sqlengine::ParamValues,
) -> Result<Value, ShredError> {
    // The flat baseline decodes rows; transpose the engine's columnar
    // result back (the column→row converter).
    let rs = engine
        .execute_bound(&compiled.sql, params)?
        .into_result_set();
    decode_flat(compiled, &rs)
}

/// Run a flat query end to end (compile, execute, decode).
pub fn run_flat(term: &Term, schema: &Schema, engine: &Engine) -> Result<Value, ShredError> {
    let compiled = compile_flat(term, schema)?;
    execute_flat(&compiled, engine)
}

fn decode_flat(compiled: &FlatCompiled, rs: &ResultSet) -> Result<Value, ShredError> {
    let single_base = matches!(compiled.result_type, Type::Bag(ref elem) if elem.is_base());
    let mut out = Vec::with_capacity(rs.rows.len());
    for row in &rs.rows {
        if single_base {
            let (_, ty) = &compiled.columns[0];
            out.push(sql_to_value(&row[0], *ty)?);
        } else {
            let mut fields = Vec::with_capacity(compiled.columns.len());
            for (i, (name, ty)) in compiled.columns.iter().enumerate() {
                fields.push((name.clone(), sql_to_value(&row[i], *ty)?));
            }
            out.push(Value::Record(fields));
        }
    }
    Ok(Value::Bag(out.into()))
}

fn flat_columns(elem: &Type) -> Result<Vec<(String, nrc::BaseType)>, ShredError> {
    match elem {
        Type::Base(b) => Ok(vec![("item".to_string(), *b)]),
        Type::Record(fields) => fields
            .iter()
            .map(|(l, t)| match t {
                Type::Base(b) => Ok((l.clone(), *b)),
                other => Err(ShredError::NotFlatNested(other.to_string())),
            })
            .collect(),
        other => Err(ShredError::NotFlatNested(other.to_string())),
    }
}

fn expr_of_base(base: &NfBase) -> Result<Expr, ShredError> {
    use nrc::term::{Constant, PrimOp};
    Ok(match base {
        NfBase::Proj { var, field } => Expr::col(var, field),
        NfBase::Const(c) => Expr::Literal(match c {
            Constant::Int(i) => sqlengine::SqlValue::Int(*i),
            Constant::Bool(b) => sqlengine::SqlValue::Bool(*b),
            Constant::String(s) => sqlengine::SqlValue::str(s.clone()),
            Constant::Unit => sqlengine::SqlValue::Int(0),
        }),
        NfBase::Param(name, _) => Expr::param(name),
        NfBase::Prim(PrimOp::Not, args) => Expr::not(expr_of_base(&args[0])?),
        NfBase::Prim(op, args) => {
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
            Expr::binop(binop, expr_of_base(&args[0])?, expr_of_base(&args[1])?)
        }
        NfBase::IsEmpty(q) => {
            let mut subqueries = Vec::with_capacity(q.branches.len());
            for branch in &q.branches {
                let mut sub = Select::new().item(Expr::lit(1i64), "one");
                for g in &branch.generators {
                    sub = sub.from_named(&g.table, &g.var);
                }
                if !branch.condition.is_truth() {
                    sub = sub.filter(expr_of_base(&branch.condition)?);
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

    #[test]
    fn flat_queries_match_the_nested_semantics() {
        let schema = organisation_schema();
        let db = generate(&OrgConfig::small());
        let engine = engine_from_database(&db).unwrap();
        for (name, q) in datagen::queries::flat_queries() {
            let reference = nrc::eval(&q, &db).unwrap();
            let flat =
                run_flat(&q, &schema, &engine).unwrap_or_else(|e| panic!("{} failed: {}", name, e));
            assert!(
                flat.multiset_eq(&reference),
                "{} disagrees with the nested semantics",
                name
            );
        }
    }

    #[test]
    fn nested_queries_are_rejected() {
        let schema = organisation_schema();
        let q = datagen::queries::q4();
        assert!(matches!(
            compile_flat(&q, &schema),
            Err(ShredError::NotFlatNested(_))
        ));
    }
}
