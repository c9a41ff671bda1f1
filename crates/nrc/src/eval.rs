//! The denotational semantics N⟦−⟧ of λNRC (Figure 2 of the paper).
//!
//! Bags are interpreted as meta-level lists; the result of a query of nested
//! type is a first-order [`Value`] containing no closures. This evaluator is
//! the *reference semantics* against which the whole shredding pipeline is
//! verified (Theorem 4).

use crate::env::Env;
use crate::schema::Database;
use crate::term::{PrimOp, Term};
use crate::value::{Closure, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised by evaluation. A well-typed closed query never raises any of
/// these; they exist so that the evaluator is total on arbitrary terms.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    UnboundVariable(String),
    /// A `Term::Param` was evaluated without a binding for its name. Supply
    /// one via [`eval_with_params`].
    UnboundParameter(String),
    NoSuchTable(String),
    NotABool(String),
    NotABag(String),
    NotARecord(String),
    NotAFunction(String),
    NoSuchField {
        label: String,
        record: String,
    },
    PrimArity {
        op: PrimOp,
        expected: usize,
        got: usize,
    },
    PrimTypeError {
        op: PrimOp,
        detail: String,
    },
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(x) => write!(f, "unbound variable {}", x),
            EvalError::UnboundParameter(p) => write!(
                f,
                "unbound parameter ?{} (bind a value for it before evaluating)",
                p
            ),
            EvalError::NoSuchTable(t) => write!(f, "no such table {}", t),
            EvalError::NotABool(v) => write!(f, "expected a boolean, got {}", v),
            EvalError::NotABag(v) => write!(f, "expected a bag, got {}", v),
            EvalError::NotARecord(v) => write!(f, "expected a record, got {}", v),
            EvalError::NotAFunction(v) => write!(f, "expected a function, got {}", v),
            EvalError::NoSuchField { label, record } => {
                write!(f, "no field {} in record {}", label, record)
            }
            EvalError::PrimArity { op, expected, got } => {
                write!(
                    f,
                    "primitive {} expects {} arguments, got {}",
                    op, expected, got
                )
            }
            EvalError::PrimTypeError { op, detail } => {
                write!(f, "type error applying primitive {}: {}", op, detail)
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A parameter binding environment: values for the term's `Term::Param`
/// bind variables, keyed by name.
pub type ParamBindings = std::collections::BTreeMap<String, Value>;

/// Evaluate a closed term against a database: `N⟦M⟧ε`.
pub fn eval(term: &Term, db: &Database) -> Result<Value, EvalError> {
    eval_with_params(term, db, &ParamBindings::new())
}

/// Evaluate a term containing `Term::Param` bind variables, supplying their
/// values through a binding environment: `N⟦M⟧ε,σ`.
pub fn eval_with_params(
    term: &Term,
    db: &Database,
    params: &ParamBindings,
) -> Result<Value, EvalError> {
    let cx = Inputs {
        db,
        params,
        tables: RefCell::new(HashMap::new()),
    };
    eval_bound(term, &Env::empty(), &cx)
}

/// What one evaluation reads: the database, the parameter bindings, and
/// each table's rows in canonical order, sorted the first time the table
/// is read and shared by every later `table t` of the same evaluation.
struct Inputs<'a> {
    db: &'a Database,
    params: &'a ParamBindings,
    tables: RefCell<HashMap<String, Value>>,
}

impl Inputs<'_> {
    /// `N⟦table t⟧`: the rows of `t`, as one shared bag.
    fn table(&self, t: &str) -> Result<Value, EvalError> {
        if let Some(rows) = self.tables.borrow().get(t) {
            return Ok(rows.clone());
        }
        let rows = self
            .db
            .table_rows(t)
            .map(Value::bag)
            .map_err(|_| EvalError::NoSuchTable(t.to_string()))?;
        self.tables.borrow_mut().insert(t.to_string(), rows.clone());
        Ok(rows)
    }
}

fn eval_bound(term: &Term, env: &Env, cx: &Inputs<'_>) -> Result<Value, EvalError> {
    match term {
        Term::Var(x) => env
            .lookup(x)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(x.clone())),
        Term::Const(c) => Ok(Value::from_constant(c)),
        Term::Param(name, _) => cx
            .params
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundParameter(name.clone())),
        Term::PrimApp(op, args) => {
            let vals = args
                .iter()
                .map(|a| eval_bound(a, env, cx))
                .collect::<Result<Vec<_>, _>>()?;
            apply_prim(*op, &vals)
        }
        Term::Table(t) => cx.table(t),
        Term::If(c, t, e) => {
            let cond = eval_bound(c, env, cx)?;
            match cond.as_bool() {
                Some(true) => eval_bound(t, env, cx),
                Some(false) => eval_bound(e, env, cx),
                None => Err(EvalError::NotABool(format!("{}", cond))),
            }
        }
        Term::Lam(x, body) => Ok(Value::Closure(Box::new(Closure {
            param: x.clone(),
            body: (**body).clone(),
            env: env.clone(),
        }))),
        Term::App(f, a) => {
            let fun = eval_bound(f, env, cx)?;
            let arg = eval_bound(a, env, cx)?;
            match fun {
                Value::Closure(c) => eval_bound(&c.body, &c.env.extend(&c.param, arg), cx),
                other => Err(EvalError::NotAFunction(format!("{}", other))),
            }
        }
        Term::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (l, t) in fields {
                out.push((l.clone(), eval_bound(t, env, cx)?));
            }
            Ok(Value::Record(out))
        }
        Term::Project(t, label) => {
            let v = eval_bound(t, env, cx)?;
            match &v {
                Value::Record(_) => v
                    .field(label)
                    .cloned()
                    .ok_or_else(|| EvalError::NoSuchField {
                        label: label.clone(),
                        record: format!("{}", v),
                    }),
                other => Err(EvalError::NotARecord(format!("{}", other))),
            }
        }
        Term::Empty(t) => {
            let v = eval_bound(t, env, cx)?;
            match v {
                Value::Bag(items) => Ok(Value::Bool(items.is_empty())),
                other => Err(EvalError::NotABag(format!("{}", other))),
            }
        }
        Term::Singleton(t) => Ok(Value::bag([eval_bound(t, env, cx)?])),
        Term::EmptyBag(_) => Ok(Value::bag([])),
        Term::Union(l, r) => {
            let lv = eval_bound(l, env, cx)?;
            let rv = eval_bound(r, env, cx)?;
            match (lv, rv) {
                (Value::Bag(xs), Value::Bag(ys)) => {
                    let mut out = take_items(xs);
                    out.extend(take_items(ys));
                    Ok(Value::Bag(out.into()))
                }
                (l, r) => Err(EvalError::NotABag(format!("{} ⊎ {}", l, r))),
            }
        }
        Term::For(x, src, body) => {
            let source = eval_bound(src, env, cx)?;
            let items = match source {
                Value::Bag(items) => take_items(items),
                other => return Err(EvalError::NotABag(format!("{}", other))),
            };
            let mut out = Vec::new();
            for item in items {
                let inner = eval_bound(body, &env.extend(x, item), cx)?;
                match inner {
                    Value::Bag(ys) => out.extend(take_items(ys)),
                    other => return Err(EvalError::NotABag(format!("{}", other))),
                }
            }
            Ok(Value::Bag(out.into()))
        }
    }
}

/// The elements of a bag: moved out when no other value shares them (a bag
/// the evaluator has just built), cloned otherwise.
fn take_items(mut items: Arc<[Value]>) -> Vec<Value> {
    match Arc::get_mut(&mut items) {
        Some(owned) => owned
            .iter_mut()
            .map(|v| std::mem::replace(v, Value::Unit))
            .collect(),
        None => items.to_vec(),
    }
}

/// Apply a primitive operation to evaluated arguments.
pub fn apply_prim(op: PrimOp, args: &[Value]) -> Result<Value, EvalError> {
    if args.len() != op.arity() {
        return Err(EvalError::PrimArity {
            op,
            expected: op.arity(),
            got: args.len(),
        });
    }
    let type_err = |detail: String| EvalError::PrimTypeError { op, detail };
    match op {
        PrimOp::Eq => Ok(Value::Bool(base_eq(&args[0], &args[1]))),
        PrimOp::Neq => Ok(Value::Bool(!base_eq(&args[0], &args[1]))),
        PrimOp::Lt | PrimOp::Gt | PrimOp::Le | PrimOp::Ge => {
            let ord = base_cmp(&args[0], &args[1])
                .ok_or_else(|| type_err(format!("cannot compare {} and {}", args[0], args[1])))?;
            let b = match op {
                PrimOp::Lt => ord == std::cmp::Ordering::Less,
                PrimOp::Gt => ord == std::cmp::Ordering::Greater,
                PrimOp::Le => ord != std::cmp::Ordering::Greater,
                PrimOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        PrimOp::And | PrimOp::Or => match (&args[0], &args[1]) {
            (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(if op == PrimOp::And {
                *a && *b
            } else {
                *a || *b
            })),
            _ => Err(type_err("boolean operands required".to_string())),
        },
        PrimOp::Not => match &args[0] {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(type_err(format!("boolean operand required, got {}", other))),
        },
        PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Mod => {
            match (&args[0], &args[1]) {
                (Value::Int(a), Value::Int(b)) => {
                    let r = match op {
                        PrimOp::Add => a.wrapping_add(*b),
                        PrimOp::Sub => a.wrapping_sub(*b),
                        PrimOp::Mul => a.wrapping_mul(*b),
                        PrimOp::Div => {
                            if *b == 0 {
                                return Err(EvalError::DivisionByZero);
                            }
                            a / b
                        }
                        PrimOp::Mod => {
                            if *b == 0 {
                                return Err(EvalError::DivisionByZero);
                            }
                            a % b
                        }
                        _ => unreachable!(),
                    };
                    Ok(Value::Int(r))
                }
                _ => Err(type_err("integer operands required".to_string())),
            }
        }
        PrimOp::Concat => match (&args[0], &args[1]) {
            (Value::String(a), Value::String(b)) => Ok(Value::string(format!("{}{}", a, b))),
            _ => Err(type_err("string operands required".to_string())),
        },
    }
}

/// Equality at base type (the only equality the primitive signature allows).
fn base_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::String(x), Value::String(y)) => x == y,
        (Value::Unit, Value::Unit) => true,
        _ => false,
    }
}

fn base_cmp(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::String(x), Value::String(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{add, concat, le};
    use crate::builder::*;
    use crate::schema::{Schema, TableSchema};
    use crate::types::BaseType;

    /// Evaluate a constant-free, table-free term (useful in tests).
    fn eval_pure(term: &Term) -> Result<Value, EvalError> {
        let db = Database::new(crate::schema::Schema::new());
        eval(term, &db)
    }

    fn tiny_db() -> Database {
        let schema = Schema::new().with_table(
            TableSchema::new(
                "items",
                vec![("id", BaseType::Int), ("name", BaseType::String)],
            )
            .with_key(vec!["id"]),
        );
        let mut db = Database::new(schema);
        for (id, name) in [(1, "a"), (2, "b"), (3, "c")] {
            db.insert_row(
                "items",
                vec![("id", Value::Int(id)), ("name", Value::string(name))],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn constants_and_primitives() {
        assert_eq!(eval_pure(&add(int(2), int(3))), Ok(Value::Int(5)));
        assert_eq!(
            eval_pure(&and(boolean(true), boolean(false))),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            eval_pure(&concat(string("ab"), string("cd"))),
            Ok(Value::string("abcd"))
        );
        assert_eq!(eval_pure(&eq(int(1), int(1))), Ok(Value::Bool(true)));
        assert_eq!(
            eval_pure(&neq(string("x"), string("y"))),
            Ok(Value::Bool(true))
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let t = Term::PrimApp(PrimOp::Div, vec![int(1), int(0)]);
        assert_eq!(eval_pure(&t), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn comprehension_over_table() {
        let db = tiny_db();
        // for (x <- items) return x.name
        let q = for_in("x", table("items"), singleton(project(var("x"), "name")));
        let v = eval(&q, &db).unwrap();
        assert!(v.multiset_eq(&Value::bag(vec![
            Value::string("a"),
            Value::string("b"),
            Value::string("c"),
        ])));
    }

    #[test]
    fn where_clause_filters() {
        let db = tiny_db();
        let q = for_where(
            "x",
            table("items"),
            gt(project(var("x"), "id"), int(1)),
            singleton(project(var("x"), "id")),
        );
        let v = eval(&q, &db).unwrap();
        assert!(v.multiset_eq(&Value::bag(vec![Value::Int(2), Value::Int(3)])));
    }

    #[test]
    fn union_preserves_multiplicity() {
        let db = tiny_db();
        let q = union(
            for_in("x", table("items"), singleton(int(1))),
            for_in("x", table("items"), singleton(int(1))),
        );
        let v = eval(&q, &db).unwrap();
        assert_eq!(v.as_bag().unwrap().len(), 6);
    }

    #[test]
    fn higher_order_functions_evaluate() {
        let db = tiny_db();
        // (λf. f 21) (λx. x + x)
        let q = app(
            lam("f", app(var("f"), int(21))),
            lam("x", add(var("x"), var("x"))),
        );
        assert_eq!(eval(&q, &db), Ok(Value::Int(42)));
    }

    #[test]
    fn empty_test() {
        let db = tiny_db();
        let q = is_empty(for_where(
            "x",
            table("items"),
            gt(project(var("x"), "id"), int(100)),
            singleton(var("x")),
        ));
        assert_eq!(eval(&q, &db), Ok(Value::Bool(true)));
    }

    #[test]
    fn nested_result_query() {
        let db = tiny_db();
        // for (x <- items) return <name = x.name, copies = for (y <- items) where (y.id <= x.id) return y.id>
        let q = for_in(
            "x",
            table("items"),
            singleton(record(vec![
                ("name", project(var("x"), "name")),
                (
                    "copies",
                    for_where(
                        "y",
                        table("items"),
                        le(project(var("y"), "id"), project(var("x"), "id")),
                        singleton(project(var("y"), "id")),
                    ),
                ),
            ])),
        );
        let v = eval(&q, &db).unwrap();
        let items = v.as_bag().unwrap();
        assert_eq!(items.len(), 3);
        // Find the record for "c" and check that its inner bag has 3 elements.
        let c = items
            .iter()
            .find(|r| r.field("name") == Some(&Value::string("c")))
            .unwrap();
        assert_eq!(c.field("copies").unwrap().as_bag().unwrap().len(), 3);
    }

    #[test]
    fn unbound_variable_errors() {
        assert_eq!(
            eval_pure(&var("nope")),
            Err(EvalError::UnboundVariable("nope".to_string()))
        );
    }

    #[test]
    fn missing_table_errors() {
        let db = tiny_db();
        assert_eq!(
            eval(&table("missing"), &db),
            Err(EvalError::NoSuchTable("missing".to_string()))
        );
    }

    #[test]
    fn closures_capture_their_environment() {
        let db = tiny_db();
        // (λx. λy. x + y) 1 2
        let q = app(
            app(lam("x", lam("y", add(var("x"), var("y")))), int(1)),
            int(2),
        );
        assert_eq!(eval(&q, &db), Ok(Value::Int(3)));
    }
}
