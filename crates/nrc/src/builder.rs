//! Ergonomic constructors for λNRC terms.
//!
//! Queries in the paper are written in a comprehension syntax
//! (`for … where … return …`); these helpers let Rust code mirror that syntax
//! closely. See `crates/nrc/src/stdlib.rs` and the examples for usage.

use crate::term::{Constant, PrimOp, Term};
use crate::types::BaseType;

/// A variable reference `x`.
pub fn var(name: &str) -> Term {
    Term::Var(name.to_string())
}

/// An integer constant.
pub fn int(i: i64) -> Term {
    Term::Const(Constant::Int(i))
}

/// A boolean constant.
pub fn boolean(b: bool) -> Term {
    Term::Const(Constant::Bool(b))
}

/// A string constant.
pub fn string(s: &str) -> Term {
    Term::Const(Constant::String(s.to_string()))
}

/// A typed query parameter `?name : ty` (a bind variable supplied at
/// execution time; see `Shredder::execute_bound` in the `shredding` crate).
pub(crate) fn param(name: &str, ty: BaseType) -> Term {
    Term::Param(name.to_string(), ty)
}

/// An integer-typed parameter `?name : Int`.
pub fn int_param(name: &str) -> Term {
    param(name, BaseType::Int)
}

/// A string-typed parameter `?name : String`.
pub fn string_param(name: &str) -> Term {
    param(name, BaseType::String)
}

/// A table reference `table t`.
pub fn table(name: &str) -> Term {
    Term::Table(name.to_string())
}

/// A record `⟨ℓ1 = M1, …⟩`.
pub fn record<I>(fields: I) -> Term
where
    I: IntoIterator<Item = (&'static str, Term)>,
{
    Term::Record(
        fields
            .into_iter()
            .map(|(l, t)| (l.to_string(), t))
            .collect(),
    )
}

/// A projection `M.ℓ`.
pub fn project(t: Term, label: &str) -> Term {
    Term::Project(Box::new(t), label.to_string())
}

/// A λ-abstraction `λx.M`.
pub fn lam(x: &str, body: Term) -> Term {
    Term::Lam(x.to_string(), Box::new(body))
}

/// Function application `M N`.
pub fn app(f: Term, a: Term) -> Term {
    Term::App(Box::new(f), Box::new(a))
}

/// A conditional `if c then t else e`.
pub fn if_then_else(c: Term, t: Term, e: Term) -> Term {
    Term::If(Box::new(c), Box::new(t), Box::new(e))
}

/// A conditional over bags with an implicit `∅` else-branch — the
/// `where` clause of a comprehension: `if c then t else ∅`.
pub fn where_(c: Term, t: Term) -> Term {
    Term::If(Box::new(c), Box::new(t), Box::new(Term::EmptyBag(None)))
}

/// A singleton bag `return M`.
pub fn singleton(t: Term) -> Term {
    Term::Singleton(Box::new(t))
}

/// The empty bag `∅` without a type annotation.
pub fn empty_bag() -> Term {
    Term::EmptyBag(None)
}

/// Bag union `M ⊎ N`.
pub fn union(l: Term, r: Term) -> Term {
    Term::Union(Box::new(l), Box::new(r))
}

/// The emptiness test `empty M`.
pub fn is_empty(t: Term) -> Term {
    Term::Empty(Box::new(t))
}

/// A comprehension `for (x ← src) body`.
pub fn for_in(x: &str, src: Term, body: Term) -> Term {
    Term::For(x.to_string(), Box::new(src), Box::new(body))
}

/// A comprehension with a `where` clause:
/// `for (x ← src) where cond return … ≡ for (x ← src) (if cond then body else ∅)`.
pub fn for_where(x: &str, src: Term, cond: Term, body: Term) -> Term {
    for_in(x, src, where_(cond, body))
}

/// Equality `M = N`.
pub fn eq(l: Term, r: Term) -> Term {
    Term::PrimApp(PrimOp::Eq, vec![l, r])
}

/// Disequality `M <> N`.
pub fn neq(l: Term, r: Term) -> Term {
    Term::PrimApp(PrimOp::Neq, vec![l, r])
}

/// Less-than.
pub fn lt(l: Term, r: Term) -> Term {
    Term::PrimApp(PrimOp::Lt, vec![l, r])
}

/// Greater-than.
pub fn gt(l: Term, r: Term) -> Term {
    Term::PrimApp(PrimOp::Gt, vec![l, r])
}

/// Conjunction.
pub fn and(l: Term, r: Term) -> Term {
    Term::PrimApp(PrimOp::And, vec![l, r])
}

/// Disjunction.
pub fn or(l: Term, r: Term) -> Term {
    Term::PrimApp(PrimOp::Or, vec![l, r])
}

/// Negation.
pub fn not(t: Term) -> Term {
    Term::PrimApp(PrimOp::Not, vec![t])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::term::Term;

    /// Integer addition.
    pub(crate) fn add(l: Term, r: Term) -> Term {
        Term::PrimApp(PrimOp::Add, vec![l, r])
    }

    /// Less-or-equal.
    pub(crate) fn le(l: Term, r: Term) -> Term {
        Term::PrimApp(PrimOp::Le, vec![l, r])
    }

    /// String concatenation.
    pub(crate) fn concat(l: Term, r: Term) -> Term {
        Term::PrimApp(PrimOp::Concat, vec![l, r])
    }

    #[test]
    fn where_builds_conditional_with_empty_else() {
        let t = where_(boolean(true), singleton(int(1)));
        match t {
            Term::If(_, _, e) => assert_eq!(*e, Term::EmptyBag(None)),
            other => panic!("unexpected {:?}", other),
        }
    }
}
