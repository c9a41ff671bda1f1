//! Type checking for λNRC (Figure 12 of the paper).
//!
//! The checker is bidirectional: `infer` synthesises a type where possible and
//! `check` pushes an expected type into terms — λ-abstractions and the
//! unannotated empty bag `∅` can only be *checked*, except that β-redexes
//! `(λx.M) N` are inferred by first inferring the argument. This covers every
//! query the paper writes (and everything the builder API produces), because
//! higher-order functions are always either applied directly or inlined by the
//! host language before checking.

use crate::schema::Schema;
use crate::term::{PrimOp, Term};
use crate::types::{BaseType, Type};
use std::fmt;

/// A typing context Γ.
#[derive(Debug, Clone, Default)]
pub struct Context {
    bindings: Vec<(String, Type)>,
}

impl Context {
    /// The empty context.
    pub fn empty() -> Context {
        Context::default()
    }

    /// Extend with a binding `x : A`.
    pub fn extend(&self, x: &str, ty: Type) -> Context {
        let mut bindings = self.bindings.clone();
        bindings.push((x.to_string(), ty));
        Context { bindings }
    }

    /// Look up a variable.
    pub(crate) fn lookup(&self, x: &str) -> Option<&Type> {
        self.bindings
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, t)| t)
    }
}

/// Type errors.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    UnboundVariable(String),
    NoSuchTable(String),
    NoSuchField {
        label: String,
        ty: String,
    },
    Mismatch {
        expected: String,
        found: String,
        context: String,
    },
    NotARecord(String),
    NotABag(String),
    NotAFunction(String),
    CannotInfer(String),
    PrimArity {
        op: PrimOp,
        expected: usize,
        got: usize,
    },
    PrimOperand {
        op: PrimOp,
        found: String,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable {}", x),
            TypeError::NoSuchTable(t) => write!(f, "table {} is not in the schema", t),
            TypeError::NoSuchField { label, ty } => write!(f, "no field {} in type {}", label, ty),
            TypeError::Mismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {}: expected {}, found {}",
                    context, expected, found
                )
            }
            TypeError::NotARecord(t) => write!(f, "expected a record type, found {}", t),
            TypeError::NotABag(t) => write!(f, "expected a bag type, found {}", t),
            TypeError::NotAFunction(t) => write!(f, "expected a function type, found {}", t),
            TypeError::CannotInfer(t) => write!(f, "cannot infer a type for {}", t),
            TypeError::PrimArity { op, expected, got } => {
                write!(
                    f,
                    "primitive {} expects {} arguments, got {}",
                    op, expected, got
                )
            }
            TypeError::PrimOperand { op, found } => {
                write!(f, "primitive {} applied to operand of type {}", op, found)
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Infer the type of a closed term.
pub fn typecheck(term: &Term, schema: &Schema) -> Result<Type, TypeError> {
    infer(term, &Context::empty(), schema)
}

/// Synthesise a type for `term` in context Γ.
pub fn infer(term: &Term, ctx: &Context, schema: &Schema) -> Result<Type, TypeError> {
    match term {
        Term::Var(x) => ctx
            .lookup(x)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        Term::Const(c) => Ok(Type::Base(c.type_of())),
        Term::Param(_, ty) => Ok(Type::Base(*ty)),
        Term::PrimApp(op, args) => infer_prim(*op, args, ctx, schema),
        Term::Table(t) => schema
            .table(t)
            .map(|ts| ts.relation_type())
            .ok_or_else(|| TypeError::NoSuchTable(t.clone())),
        Term::If(c, t, e) => {
            check(c, &Type::bool(), ctx, schema)?;
            // Try to infer the then-branch; if it is an unannotated ∅ or a
            // lambda, fall back to inferring the else-branch instead.
            match infer(t, ctx, schema) {
                Ok(ty) => {
                    check(e, &ty, ctx, schema)?;
                    Ok(ty)
                }
                Err(_) => {
                    let ty = infer(e, ctx, schema)?;
                    check(t, &ty, ctx, schema)?;
                    Ok(ty)
                }
            }
        }
        Term::Lam(_, _) => Err(TypeError::CannotInfer(
            "λ-abstraction outside application position".to_string(),
        )),
        Term::App(f, a) => match f.as_ref() {
            // β-redex: infer the argument, then the body.
            Term::Lam(x, body) => {
                let arg_ty = infer(a, ctx, schema)?;
                infer(body, &ctx.extend(x, arg_ty), schema)
            }
            _ => {
                let fun_ty = infer(f, ctx, schema)?;
                match fun_ty {
                    Type::Fun(arg, res) => {
                        check(a, &arg, ctx, schema)?;
                        Ok(*res)
                    }
                    other => Err(TypeError::NotAFunction(other.to_string())),
                }
            }
        },
        Term::Record(fields) => {
            let mut tys = Vec::with_capacity(fields.len());
            for (l, t) in fields {
                tys.push((l.clone(), infer(t, ctx, schema)?));
            }
            Ok(Type::Record(tys))
        }
        Term::Project(t, label) => {
            let ty = infer(t, ctx, schema)?;
            match &ty {
                Type::Record(_) => ty
                    .field(label)
                    .cloned()
                    .ok_or_else(|| TypeError::NoSuchField {
                        label: label.clone(),
                        ty: ty.to_string(),
                    }),
                other => Err(TypeError::NotARecord(other.to_string())),
            }
        }
        Term::Empty(t) => {
            let ty = infer(t, ctx, schema)?;
            match ty {
                Type::Bag(_) => Ok(Type::bool()),
                other => Err(TypeError::NotABag(other.to_string())),
            }
        }
        Term::Singleton(t) => Ok(Type::bag(infer(t, ctx, schema)?)),
        Term::EmptyBag(Some(elem)) => Ok(Type::bag(elem.clone())),
        Term::EmptyBag(None) => Err(TypeError::CannotInfer(
            "unannotated empty bag ∅".to_string(),
        )),
        Term::Union(l, r) => match infer(l, ctx, schema) {
            Ok(ty) => {
                ensure_bag(&ty)?;
                check(r, &ty, ctx, schema)?;
                Ok(ty)
            }
            Err(_) => {
                let ty = infer(r, ctx, schema)?;
                ensure_bag(&ty)?;
                check(l, &ty, ctx, schema)?;
                Ok(ty)
            }
        },
        Term::For(x, src, body) => {
            let src_ty = infer(src, ctx, schema)?;
            let elem = match src_ty {
                Type::Bag(elem) => *elem,
                other => return Err(TypeError::NotABag(other.to_string())),
            };
            let body_ty = infer(body, &ctx.extend(x, elem), schema)?;
            ensure_bag(&body_ty)?;
            Ok(body_ty)
        }
    }
}

/// Check `term` against `expected` in context Γ.
pub(crate) fn check(
    term: &Term,
    expected: &Type,
    ctx: &Context,
    schema: &Schema,
) -> Result<(), TypeError> {
    match (term, expected) {
        (Term::Lam(x, body), Type::Fun(arg, res)) => {
            check(body, res, &ctx.extend(x, (**arg).clone()), schema)
        }
        (Term::Lam(_, _), other) => Err(TypeError::Mismatch {
            expected: other.to_string(),
            found: "a function".to_string(),
            context: "λ-abstraction".to_string(),
        }),
        (Term::EmptyBag(None), Type::Bag(_)) => Ok(()),
        (Term::EmptyBag(None), other) => Err(TypeError::NotABag(other.to_string())),
        (Term::If(c, t, e), _) => {
            check(c, &Type::bool(), ctx, schema)?;
            check(t, expected, ctx, schema)?;
            check(e, expected, ctx, schema)
        }
        (Term::Union(l, r), Type::Bag(_)) => {
            check(l, expected, ctx, schema)?;
            check(r, expected, ctx, schema)
        }
        (Term::Singleton(t), Type::Bag(elem)) => check(t, elem, ctx, schema),
        (Term::For(x, src, body), Type::Bag(_)) => {
            let src_ty = infer(src, ctx, schema)?;
            let elem = match src_ty {
                Type::Bag(elem) => *elem,
                other => return Err(TypeError::NotABag(other.to_string())),
            };
            check(body, expected, &ctx.extend(x, elem), schema)
        }
        (Term::Record(fields), Type::Record(ftys)) if fields.len() == ftys.len() => {
            for (l, t) in fields {
                match ftys.iter().find(|(fl, _)| fl == l) {
                    Some((_, fty)) => check(t, fty, ctx, schema)?,
                    None => {
                        return Err(TypeError::NoSuchField {
                            label: l.clone(),
                            ty: expected.to_string(),
                        })
                    }
                }
            }
            Ok(())
        }
        _ => {
            let found = infer(term, ctx, schema)?;
            if found.equiv(expected) {
                Ok(())
            } else {
                Err(TypeError::Mismatch {
                    expected: expected.to_string(),
                    found: found.to_string(),
                    context: "checked term".to_string(),
                })
            }
        }
    }
}

fn ensure_bag(ty: &Type) -> Result<(), TypeError> {
    match ty {
        Type::Bag(_) => Ok(()),
        other => Err(TypeError::NotABag(other.to_string())),
    }
}

fn infer_prim(
    op: PrimOp,
    args: &[Term],
    ctx: &Context,
    schema: &Schema,
) -> Result<Type, TypeError> {
    if args.len() != op.arity() {
        return Err(TypeError::PrimArity {
            op,
            expected: op.arity(),
            got: args.len(),
        });
    }
    let tys: Vec<Type> = args
        .iter()
        .map(|a| infer(a, ctx, schema))
        .collect::<Result<_, _>>()?;
    let base = |t: &Type| -> Result<BaseType, TypeError> {
        match t {
            Type::Base(b) => Ok(*b),
            other => Err(TypeError::PrimOperand {
                op,
                found: other.to_string(),
            }),
        }
    };
    match op {
        PrimOp::Eq | PrimOp::Neq => {
            let a = base(&tys[0])?;
            let b = base(&tys[1])?;
            if a == b {
                Ok(Type::bool())
            } else {
                Err(TypeError::Mismatch {
                    expected: tys[0].to_string(),
                    found: tys[1].to_string(),
                    context: format!("operands of {}", op),
                })
            }
        }
        PrimOp::Lt | PrimOp::Gt | PrimOp::Le | PrimOp::Ge => {
            let a = base(&tys[0])?;
            let b = base(&tys[1])?;
            if a == b && a != BaseType::Unit {
                Ok(Type::bool())
            } else {
                Err(TypeError::PrimOperand {
                    op,
                    found: format!("{}, {}", tys[0], tys[1]),
                })
            }
        }
        PrimOp::And | PrimOp::Or => {
            for t in &tys {
                if base(t)? != BaseType::Bool {
                    return Err(TypeError::PrimOperand {
                        op,
                        found: t.to_string(),
                    });
                }
            }
            Ok(Type::bool())
        }
        PrimOp::Not => {
            if base(&tys[0])? != BaseType::Bool {
                return Err(TypeError::PrimOperand {
                    op,
                    found: tys[0].to_string(),
                });
            }
            Ok(Type::bool())
        }
        PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Mod => {
            for t in &tys {
                if base(t)? != BaseType::Int {
                    return Err(TypeError::PrimOperand {
                        op,
                        found: t.to_string(),
                    });
                }
            }
            Ok(Type::int())
        }
        PrimOp::Concat => {
            for t in &tys {
                if base(t)? != BaseType::String {
                    return Err(TypeError::PrimOperand {
                        op,
                        found: t.to_string(),
                    });
                }
            }
            Ok(Type::string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::add;
    use crate::builder::*;
    use crate::schema::TableSchema;

    /// Check a closed term against an expected type.
    fn typecheck_against(term: &Term, expected: &Type, schema: &Schema) -> Result<(), TypeError> {
        check(term, expected, &Context::empty(), schema)
    }

    fn schema() -> Schema {
        Schema::new().with_table(
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

    #[test]
    fn table_has_relation_type() {
        let ty = typecheck(&table("employees"), &schema()).unwrap();
        assert!(crate::types::tests::is_flat_relation(&ty));
    }

    #[test]
    fn comprehension_types() {
        let q = for_where(
            "e",
            table("employees"),
            gt(project(var("e"), "salary"), int(1000)),
            singleton(record(vec![("name", project(var("e"), "name"))])),
        );
        let ty = typecheck(&q, &schema()).unwrap();
        assert!(ty.equiv(&Type::bag(Type::record(vec![("name", Type::string())]))));
    }

    #[test]
    fn nested_result_type_has_degree_two() {
        let q = for_in(
            "e",
            table("employees"),
            singleton(record(vec![
                ("name", project(var("e"), "name")),
                (
                    "peers",
                    for_where(
                        "f",
                        table("employees"),
                        eq(project(var("f"), "dept"), project(var("e"), "dept")),
                        singleton(project(var("f"), "name")),
                    ),
                ),
            ])),
        );
        let ty = typecheck(&q, &schema()).unwrap();
        assert_eq!(ty.nesting_degree(), 2);
    }

    #[test]
    fn beta_redexes_are_inferable() {
        let q = app(lam("x", add(var("x"), int(1))), int(41));
        assert_eq!(typecheck(&q, &schema()), Ok(Type::int()));
    }

    #[test]
    fn bare_lambda_cannot_be_inferred_but_checks() {
        let t = lam("x", var("x"));
        assert!(matches!(
            typecheck(&t, &schema()),
            Err(TypeError::CannotInfer(_))
        ));
        assert!(typecheck_against(
            &t,
            &Type::Fun(Box::new(Type::int()), Box::new(Type::int())),
            &schema()
        )
        .is_ok());
    }

    #[test]
    fn unannotated_empty_bag_checks_against_bag_types() {
        assert!(typecheck_against(&empty_bag(), &Type::bag(Type::int()), &schema()).is_ok());
        assert!(matches!(
            typecheck(&empty_bag(), &schema()),
            Err(TypeError::CannotInfer(_))
        ));
    }

    #[test]
    fn where_clause_with_empty_else_infers() {
        // if cond then return 1 else ∅ — the else branch is an unannotated ∅.
        let t = where_(boolean(true), singleton(int(1)));
        assert_eq!(typecheck(&t, &schema()), Ok(Type::bag(Type::int())));
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(matches!(
            typecheck(&add(int(1), string("x")), &schema()),
            Err(TypeError::PrimOperand { .. })
        ));
        assert!(matches!(
            typecheck(&project(int(1), "a"), &schema()),
            Err(TypeError::NotARecord(_))
        ));
        assert!(matches!(
            typecheck(&table("missing"), &schema()),
            Err(TypeError::NoSuchTable(_))
        ));
        assert!(matches!(
            typecheck(&var("x"), &schema()),
            Err(TypeError::UnboundVariable(_))
        ));
    }

    #[test]
    fn union_requires_matching_element_types() {
        let q = union(singleton(int(1)), singleton(string("x")));
        assert!(typecheck(&q, &schema()).is_err());
    }

    #[test]
    fn empty_test_has_bool_type() {
        let q = is_empty(table("employees"));
        assert_eq!(typecheck(&q, &schema()), Ok(Type::bool()));
    }
}
