//! Terms of the higher-order nested relational calculus (λNRC).
//!
//! The grammar follows Section 2.1 of the paper:
//!
//! ```text
//! M, N ::= x | c(M⃗) | table t | if M then N else N'
//!        | λx.M | M N | ⟨ℓ⃗ = M⃗⟩ | M.ℓ | empty M
//!        | return M | ∅ | M ⊎ N | for (x ← M) N
//! ```

use crate::types::{BaseType, Type};
use std::fmt;

/// Constants of base type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Constant {
    Int(i64),
    Bool(bool),
    String(String),
    /// The unit constant (used after record flattening, Appendix E).
    Unit,
}

impl Constant {
    /// The base type of the constant.
    pub fn type_of(&self) -> crate::types::BaseType {
        use crate::types::BaseType;
        match self {
            Constant::Int(_) => BaseType::Int,
            Constant::Bool(_) => BaseType::Bool,
            Constant::String(_) => BaseType::String,
            Constant::Unit => BaseType::Unit,
        }
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(i) => write!(f, "{}", i),
            Constant::Bool(b) => write!(f, "{}", b),
            Constant::String(s) => write!(f, "{:?}", s),
            Constant::Unit => write!(f, "()"),
        }
    }
}

/// Primitive first-order operations (the fixed signature Σ(c) of the paper).
///
/// All primitives take base-typed arguments and return a base type; this is
/// exactly the restriction the paper places on constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimOp {
    /// Equality on base values.
    Eq,
    /// Disequality on base values.
    Neq,
    /// Integer/string less-than.
    Lt,
    /// Integer/string greater-than.
    Gt,
    /// Integer/string less-or-equal.
    Le,
    /// Integer/string greater-or-equal.
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean negation.
    Not,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (errors on zero at evaluation time).
    Div,
    /// Integer remainder.
    Mod,
    /// String concatenation.
    Concat,
}

impl PrimOp {
    /// The number of arguments the primitive expects.
    pub(crate) fn arity(&self) -> usize {
        match self {
            PrimOp::Not => 1,
            _ => 2,
        }
    }

    /// The SQL-ish symbol for this operator, used by pretty printers.
    pub(crate) fn symbol(&self) -> &'static str {
        match self {
            PrimOp::Eq => "=",
            PrimOp::Neq => "<>",
            PrimOp::Lt => "<",
            PrimOp::Gt => ">",
            PrimOp::Le => "<=",
            PrimOp::Ge => ">=",
            PrimOp::And => "and",
            PrimOp::Or => "or",
            PrimOp::Not => "not",
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Mod => "%",
            PrimOp::Concat => "||",
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// λNRC terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable `x`.
    Var(String),
    /// A constant of base type.
    Const(Constant),
    /// A typed query parameter `?name : O` — a bind variable whose value is
    /// supplied at execution time (prepared-statement style). Parameters are
    /// base-typed, like constants, so they survive normalisation, shredding
    /// and SQL generation as opaque atoms.
    Param(String, BaseType),
    /// Application of a primitive operation `c(M1, …, Mn)`.
    PrimApp(PrimOp, Vec<Term>),
    /// A database table reference `table t`.
    Table(String),
    /// A conditional `if L then M else N`.
    If(Box<Term>, Box<Term>, Box<Term>),
    /// A λ-abstraction `λx.M`.
    Lam(String, Box<Term>),
    /// Function application `M N`.
    App(Box<Term>, Box<Term>),
    /// A record `⟨ℓ1 = M1, …, ℓn = Mn⟩`.
    Record(Vec<(String, Term)>),
    /// A record projection `M.ℓ`.
    Project(Box<Term>, String),
    /// The emptiness test `empty M`.
    Empty(Box<Term>),
    /// A singleton bag `return M`.
    Singleton(Box<Term>),
    /// The empty bag `∅`. Carries its element type so that evaluation and
    /// typechecking of `∅` do not need an annotation environment.
    EmptyBag(Option<Type>),
    /// Bag union `M ⊎ N`.
    Union(Box<Term>, Box<Term>),
    /// A comprehension `for (x ← M) N`.
    For(String, Box<Term>, Box<Term>),
}

impl Term {
    /// Free variables of the term, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<String> {
        fn go(term: &Term, bound: &mut Vec<String>, acc: &mut Vec<String>) {
            match term {
                Term::Var(x) => {
                    if !bound.contains(x) && !acc.contains(x) {
                        acc.push(x.clone());
                    }
                }
                Term::Const(_) | Term::Param(_, _) | Term::Table(_) | Term::EmptyBag(_) => {}
                Term::PrimApp(_, args) => {
                    for a in args {
                        go(a, bound, acc);
                    }
                }
                Term::If(c, t, e) => {
                    go(c, bound, acc);
                    go(t, bound, acc);
                    go(e, bound, acc);
                }
                Term::Lam(x, body) => {
                    bound.push(x.clone());
                    go(body, bound, acc);
                    bound.pop();
                }
                Term::App(f, a) => {
                    go(f, bound, acc);
                    go(a, bound, acc);
                }
                Term::Record(fields) => {
                    for (_, t) in fields {
                        go(t, bound, acc);
                    }
                }
                Term::Project(t, _) | Term::Empty(t) | Term::Singleton(t) => go(t, bound, acc),
                Term::Union(l, r) => {
                    go(l, bound, acc);
                    go(r, bound, acc);
                }
                Term::For(x, src, body) => {
                    go(src, bound, acc);
                    bound.push(x.clone());
                    go(body, bound, acc);
                    bound.pop();
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut Vec::new(), &mut acc);
        acc
    }

    /// Capture-avoiding substitution `self[x := value]`.
    ///
    /// Bound variables that would capture a free variable of `value` are
    /// renamed with a fresh suffix.
    pub fn subst(&self, x: &str, value: &Term) -> Term {
        let value_free = value.free_vars();
        self.subst_inner(x, value, &value_free, &mut 0)
    }

    fn subst_inner(&self, x: &str, value: &Term, value_free: &[String], fresh: &mut usize) -> Term {
        match self {
            Term::Var(y) => {
                if y == x {
                    value.clone()
                } else {
                    self.clone()
                }
            }
            Term::Const(_) | Term::Param(_, _) | Term::Table(_) | Term::EmptyBag(_) => self.clone(),
            Term::PrimApp(op, args) => Term::PrimApp(
                *op,
                args.iter()
                    .map(|a| a.subst_inner(x, value, value_free, fresh))
                    .collect(),
            ),
            Term::If(c, t, e) => Term::If(
                Box::new(c.subst_inner(x, value, value_free, fresh)),
                Box::new(t.subst_inner(x, value, value_free, fresh)),
                Box::new(e.subst_inner(x, value, value_free, fresh)),
            ),
            Term::Lam(y, body) => {
                if y == x {
                    self.clone()
                } else if value_free.contains(y) {
                    let y2 = freshen(y, body, value_free, fresh);
                    let body2 = body.subst(y, &Term::Var(y2.clone()));
                    Term::Lam(y2, Box::new(body2.subst_inner(x, value, value_free, fresh)))
                } else {
                    Term::Lam(
                        y.clone(),
                        Box::new(body.subst_inner(x, value, value_free, fresh)),
                    )
                }
            }
            Term::App(f, a) => Term::App(
                Box::new(f.subst_inner(x, value, value_free, fresh)),
                Box::new(a.subst_inner(x, value, value_free, fresh)),
            ),
            Term::Record(fields) => Term::Record(
                fields
                    .iter()
                    .map(|(l, t)| (l.clone(), t.subst_inner(x, value, value_free, fresh)))
                    .collect(),
            ),
            Term::Project(t, l) => Term::Project(
                Box::new(t.subst_inner(x, value, value_free, fresh)),
                l.clone(),
            ),
            Term::Empty(t) => Term::Empty(Box::new(t.subst_inner(x, value, value_free, fresh))),
            Term::Singleton(t) => {
                Term::Singleton(Box::new(t.subst_inner(x, value, value_free, fresh)))
            }
            Term::Union(l, r) => Term::Union(
                Box::new(l.subst_inner(x, value, value_free, fresh)),
                Box::new(r.subst_inner(x, value, value_free, fresh)),
            ),
            Term::For(y, src, body) => {
                let src2 = src.subst_inner(x, value, value_free, fresh);
                if y == x {
                    Term::For(y.clone(), Box::new(src2), body.clone())
                } else if value_free.contains(y) {
                    let y2 = freshen(y, body, value_free, fresh);
                    let body2 = body.subst(y, &Term::Var(y2.clone()));
                    Term::For(
                        y2,
                        Box::new(src2),
                        Box::new(body2.subst_inner(x, value, value_free, fresh)),
                    )
                } else {
                    Term::For(
                        y.clone(),
                        Box::new(src2),
                        Box::new(body.subst_inner(x, value, value_free, fresh)),
                    )
                }
            }
        }
    }

    /// The parameters of the term: `(name, declared type)` pairs in
    /// first-occurrence order, deduplicated by name. A name declared at two
    /// different types appears once per distinct type (callers reject that
    /// as a conflict).
    pub fn params(&self) -> Vec<(String, BaseType)> {
        fn go(term: &Term, acc: &mut Vec<(String, BaseType)>) {
            match term {
                Term::Param(name, ty) => {
                    if !acc.iter().any(|(n, t)| n == name && t == ty) {
                        acc.push((name.clone(), *ty));
                    }
                }
                Term::Var(_) | Term::Const(_) | Term::Table(_) | Term::EmptyBag(_) => {}
                Term::PrimApp(_, args) => args.iter().for_each(|a| go(a, acc)),
                Term::If(c, t, e) => {
                    go(c, acc);
                    go(t, acc);
                    go(e, acc);
                }
                Term::Lam(_, b) => go(b, acc),
                Term::App(f, a) => {
                    go(f, acc);
                    go(a, acc);
                }
                Term::Record(fields) => fields.iter().for_each(|(_, t)| go(t, acc)),
                Term::Project(t, _) | Term::Empty(t) | Term::Singleton(t) => go(t, acc),
                Term::Union(l, r) => {
                    go(l, acc);
                    go(r, acc);
                }
                Term::For(_, s, b) => {
                    go(s, acc);
                    go(b, acc);
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// The size of the term (number of AST constructors), used to bound
    /// normalisation in tests.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_)
            | Term::Const(_)
            | Term::Param(_, _)
            | Term::Table(_)
            | Term::EmptyBag(_) => 1,
            Term::PrimApp(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            Term::If(c, t, e) => 1 + c.size() + t.size() + e.size(),
            Term::Lam(_, b) => 1 + b.size(),
            Term::App(f, a) => 1 + f.size() + a.size(),
            Term::Record(fields) => 1 + fields.iter().map(|(_, t)| t.size()).sum::<usize>(),
            Term::Project(t, _) | Term::Empty(t) | Term::Singleton(t) => 1 + t.size(),
            Term::Union(l, r) => 1 + l.size() + r.size(),
            Term::For(_, s, b) => 1 + s.size() + b.size(),
        }
    }
}

/// A new name for the binder `base` of `body`, which would capture a free
/// variable of the value being substituted: `base%n` for the next `n` that
/// is free in neither the value nor the body (an earlier substitution may
/// have left its own `base%n` there).
fn freshen(base: &str, body: &Term, value_free: &[String], fresh: &mut usize) -> String {
    let body_free = body.free_vars();
    loop {
        *fresh += 1;
        let candidate = format!("{}%{}", base, fresh);
        if !value_free.contains(&candidate) && !body_free.contains(&candidate) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn free_vars_of_open_term() {
        let t = for_in("x", table("t"), record(vec![("a", project(var("y"), "f"))]));
        assert_eq!(t.free_vars(), vec!["y".to_string()]);
        assert!(!t.free_vars().is_empty());
    }

    #[test]
    fn bound_vars_are_not_free() {
        let t = lam("x", project(var("x"), "a"));
        assert!(t.free_vars().is_empty());
    }

    #[test]
    fn substitution_replaces_free_occurrences() {
        let t = record(vec![("a", var("x")), ("b", var("y"))]);
        let r = t.subst("x", &int(7));
        assert_eq!(r, record(vec![("a", int(7)), ("b", var("y"))]));
    }

    #[test]
    fn substitution_respects_shadowing() {
        // (λx. x) with [x := 3] must not substitute under the binder.
        let t = lam("x", var("x"));
        assert_eq!(t.subst("x", &int(3)), lam("x", var("x")));
    }

    #[test]
    fn substitution_avoids_capture() {
        // (λy. x ⊎ y) [x := y]  must rename the bound y.
        let t = lam("y", union(var("x"), var("y")));
        let r = t.subst("x", &var("y"));
        if let Term::Lam(bound, body) = &r {
            assert_ne!(bound, "y");
            assert_eq!(**body, union(var("y"), var(bound.as_str())));
        } else {
            panic!("expected a lambda, got {:?}", r);
        }
    }

    #[test]
    fn capture_avoidance_in_for_comprehension() {
        // for (y ← t) (x ⊎ return y) [x := return y]
        let t = for_in("y", table("t"), union(var("x"), singleton(var("y"))));
        let r = t.subst("x", &singleton(var("y")));
        if let Term::For(bound, _, body) = &r {
            assert_ne!(bound, "y");
            assert!(format!("{:?}", body).contains(bound.as_str()));
        } else {
            panic!("expected a for, got {:?}", r);
        }
    }

    #[test]
    fn renamed_binders_avoid_names_left_by_earlier_substitutions() {
        // (λy. ⟨x, y, y%1⟩) [x := y]: y%1 is taken, in the body…
        let body = record(vec![("a", var("x")), ("b", var("y")), ("c", var("y%1"))]);
        let r = lam("y", body).subst("x", &var("y"));
        assert_eq!(
            r,
            lam(
                "y%2",
                record(vec![("a", var("y")), ("b", var("y%2")), ("c", var("y%1"))])
            )
        );
        // … or in the value.
        let r = lam("y", union(var("x"), var("y"))).subst("x", &union(var("y"), var("y%1")));
        assert_eq!(
            r,
            lam("y%2", union(union(var("y"), var("y%1")), var("y%2")))
        );
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(int(1).size(), 1);
        assert_eq!(union(int(1), int(2)).size(), 3);
    }

    #[test]
    fn prim_op_arity() {
        assert_eq!(PrimOp::Not.arity(), 1);
        assert_eq!(PrimOp::And.arity(), 2);
    }
}
