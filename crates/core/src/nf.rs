//! Normal forms for flat–nested queries (Section 2.2 of the paper).
//!
//! After normalisation a query has the shape
//!
//! ```text
//! Query terms       L ::= ⊎ C⃗
//! Comprehensions    C ::= for (G⃗ where X) returnᵃ M
//! Generators        G ::= x ← t
//! Normalised terms  M ::= X | R | L
//! Record terms      R ::= ⟨ℓ⃗ = M⃗⟩
//! Base terms        X ::= x.ℓ | c(X⃗) | empty L
//! ```
//!
//! Each comprehension body carries a *static index* annotation `a` (the
//! superscript on `return` in Section 4), which shredding uses to link outer
//! and inner queries.

use nrc::builder;
use nrc::term::{Constant, PrimOp, Term};
use nrc::types::BaseType;
use std::collections::HashMap;
use std::fmt;

/// A static index: the unique name `a` attached to each `returnᵃ`.
///
/// `StaticIndex(0)` is reserved for the distinguished top-level index ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StaticIndex(pub u32);

/// The distinguished top-level static index ⊤.
pub const TOP: StaticIndex = StaticIndex(0);

impl StaticIndex {
    /// Is this the top-level index ⊤?
    pub fn is_top(&self) -> bool {
        self.0 == 0
    }

    /// The integer used to materialise this static index in SQL results.
    pub fn as_int(&self) -> i64 {
        self.0 as i64
    }
}

impl fmt::Display for StaticIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            write!(f, "⊤")
        } else {
            // 1 → a, 2 → b, …, wrapping to a27 etc. for readability.
            let n = self.0 - 1;
            let letter = (b'a' + (n % 26) as u8) as char;
            if n < 26 {
                write!(f, "{}", letter)
            } else {
                write!(f, "{}{}", letter, n / 26)
            }
        }
    }
}

/// A generator `x ← t` drawing rows from a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generator {
    pub var: String,
    pub table: String,
}

impl Generator {
    pub fn new(var: &str, table: &str) -> Generator {
        Generator {
            var: var.to_string(),
            table: table.to_string(),
        }
    }
}

impl fmt::Display for Generator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← {}", self.var, self.table)
    }
}

/// A normalised query `⊎ C⃗`: a union of comprehensions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NormQuery {
    pub branches: Vec<Comprehension>,
}

/// One comprehension `for (G⃗ where X) returnᵃ M`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comprehension {
    pub generators: Vec<Generator>,
    /// The `where` clause; [`NfBase::truth`] when there is no condition.
    pub condition: NfBase,
    /// The static index annotation `a` on `returnᵃ`.
    pub tag: StaticIndex,
    pub body: NfTerm,
}

/// A normalised term: a base expression, a record of normalised terms, or a
/// nested query.
#[derive(Debug, Clone, PartialEq)]
pub enum NfTerm {
    Base(NfBase),
    Record(Vec<(String, NfTerm)>),
    Query(NormQuery),
}

/// A base expression: field projection, constant / primitive application, or
/// an emptiness test over a nested query.
#[derive(Debug, Clone, PartialEq)]
pub enum NfBase {
    Proj {
        var: String,
        field: String,
    },
    Const(Constant),
    /// A typed bind variable `?name : O`, preserved through normalisation as
    /// an opaque atom; its value is supplied at execution time.
    Param(String, BaseType),
    Prim(PrimOp, Vec<NfBase>),
    IsEmpty(Box<NormQuery>),
}

impl NfBase {
    /// The constant `true`.
    pub fn truth() -> NfBase {
        NfBase::Const(Constant::Bool(true))
    }

    /// Is this the constant `true`?
    pub fn is_truth(&self) -> bool {
        matches!(self, NfBase::Const(Constant::Bool(true)))
    }

    /// Conjoin two conditions, dropping `true` operands.
    pub fn and(self, other: NfBase) -> NfBase {
        if self.is_truth() {
            other
        } else if other.is_truth() {
            self
        } else {
            NfBase::Prim(PrimOp::And, vec![self, other])
        }
    }

    /// Negate a condition.
    pub fn negate(self) -> NfBase {
        NfBase::Prim(PrimOp::Not, vec![self])
    }

    /// A conjunction of many conditions.
    pub fn conj<I: IntoIterator<Item = NfBase>>(conds: I) -> NfBase {
        conds.into_iter().fold(NfBase::truth(), NfBase::and)
    }

    /// Convert back into a λNRC term.
    pub fn to_term(&self) -> Term {
        match self {
            NfBase::Proj { var, field } => builder::project(builder::var(var), field),
            NfBase::Const(c) => Term::Const(c.clone()),
            NfBase::Param(name, ty) => Term::Param(name.clone(), *ty),
            NfBase::Prim(op, args) => {
                Term::PrimApp(*op, args.iter().map(NfBase::to_term).collect())
            }
            NfBase::IsEmpty(q) => builder::is_empty(q.to_term()),
        }
    }

    /// Replace parameters with the bound constants. Parameters without a
    /// binding are left in place.
    pub fn bind_params(&self, bindings: &HashMap<String, Constant>) -> NfBase {
        match self {
            NfBase::Param(name, _) => match bindings.get(name) {
                Some(c) => NfBase::Const(c.clone()),
                None => self.clone(),
            },
            NfBase::Proj { .. } | NfBase::Const(_) => self.clone(),
            NfBase::Prim(op, args) => {
                NfBase::Prim(*op, args.iter().map(|a| a.bind_params(bindings)).collect())
            }
            NfBase::IsEmpty(q) => NfBase::IsEmpty(Box::new(q.bind_params(bindings))),
        }
    }

    /// Variables referenced by this expression (not descending into nested
    /// queries, whose generators re-bind their own variables).
    pub fn free_vars(&self) -> Vec<String> {
        fn go(b: &NfBase, acc: &mut Vec<String>) {
            match b {
                NfBase::Proj { var, .. } => {
                    if !acc.contains(var) {
                        acc.push(var.clone());
                    }
                }
                NfBase::Const(_) | NfBase::Param(_, _) => {}
                NfBase::Prim(_, args) => args.iter().for_each(|a| go(a, acc)),
                NfBase::IsEmpty(q) => {
                    for v in q.to_term().free_vars() {
                        if !acc.contains(&v) {
                            acc.push(v);
                        }
                    }
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }
}

impl NfTerm {
    /// Convert back into a λNRC term.
    pub fn to_term(&self) -> Term {
        match self {
            NfTerm::Base(b) => b.to_term(),
            NfTerm::Record(fields) => Term::Record(
                fields
                    .iter()
                    .map(|(l, t)| (l.clone(), t.to_term()))
                    .collect(),
            ),
            NfTerm::Query(q) => q.to_term(),
        }
    }

    /// Replace parameters with the bound constants.
    pub fn bind_params(&self, bindings: &HashMap<String, Constant>) -> NfTerm {
        match self {
            NfTerm::Base(b) => NfTerm::Base(b.bind_params(bindings)),
            NfTerm::Record(fields) => NfTerm::Record(
                fields
                    .iter()
                    .map(|(l, t)| (l.clone(), t.bind_params(bindings)))
                    .collect(),
            ),
            NfTerm::Query(q) => NfTerm::Query(q.bind_params(bindings)),
        }
    }
}

impl Comprehension {
    /// Convert back into a λNRC term
    /// `for (x1 ← t1) … for (xn ← tn) (if X then return M else ∅)`.
    pub fn to_term(&self) -> Term {
        let ret = builder::singleton(self.body.to_term());
        let guarded = if self.condition.is_truth() {
            ret
        } else {
            builder::where_(self.condition.to_term(), ret)
        };
        self.generators.iter().rev().fold(guarded, |acc, g| {
            builder::for_in(&g.var, builder::table(&g.table), acc)
        })
    }

    /// All static indexes occurring in this comprehension (its own tag plus
    /// the tags of nested queries).
    pub fn tags(&self) -> Vec<StaticIndex> {
        let mut acc = vec![self.tag];
        fn go_term(t: &NfTerm, acc: &mut Vec<StaticIndex>) {
            match t {
                NfTerm::Base(_) => {}
                NfTerm::Record(fields) => fields.iter().for_each(|(_, t)| go_term(t, acc)),
                NfTerm::Query(q) => acc.extend(q.tags()),
            }
        }
        go_term(&self.body, &mut acc);
        acc
    }
}

impl NormQuery {
    /// A query with a single comprehension.
    pub fn single(comp: Comprehension) -> NormQuery {
        NormQuery {
            branches: vec![comp],
        }
    }

    /// Convert back into a λNRC term (the union of the branch terms, or ∅).
    pub fn to_term(&self) -> Term {
        let mut it = self.branches.iter().map(Comprehension::to_term);
        match it.next() {
            None => builder::empty_bag(),
            Some(first) => it.fold(first, builder::union),
        }
    }

    /// All static indexes occurring in the query, in definition order.
    pub fn tags(&self) -> Vec<StaticIndex> {
        self.branches.iter().flat_map(Comprehension::tags).collect()
    }

    /// Replace parameters with the bound constants throughout the query
    /// (used by backends that evaluate normal forms directly rather than
    /// binding at the engine level).
    pub fn bind_params(&self, bindings: &HashMap<String, Constant>) -> NormQuery {
        NormQuery {
            branches: self
                .branches
                .iter()
                .map(|c| Comprehension {
                    generators: c.generators.clone(),
                    condition: c.condition.bind_params(bindings),
                    tag: c.tag,
                    body: c.body.bind_params(bindings),
                })
                .collect(),
        }
    }
}

impl fmt::Display for NormQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.branches.is_empty() {
            return write!(f, "∅");
        }
        for (i, c) in self.branches.iter().enumerate() {
            if i > 0 {
                write!(f, " ⊎ ")?;
            }
            write!(f, "{}", c)?;
        }
        Ok(())
    }
}

impl fmt::Display for Comprehension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "for (")?;
        for (i, g) in self.generators.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", g)?;
        }
        if !self.condition.is_truth() {
            write!(f, " where {}", self.condition.to_term())?;
        }
        write!(f, ") return^{} {}", self.tag, self.body.to_term())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrc::builder::*;

    fn sample() -> NormQuery {
        NormQuery::single(Comprehension {
            generators: vec![Generator::new("x", "departments")],
            condition: NfBase::Prim(
                PrimOp::Eq,
                vec![
                    NfBase::Proj {
                        var: "x".to_string(),
                        field: "name".to_string(),
                    },
                    NfBase::Const(Constant::String("Sales".to_string())),
                ],
            ),
            tag: StaticIndex(1),
            body: NfTerm::Record(vec![(
                "dept".to_string(),
                NfTerm::Base(NfBase::Proj {
                    var: "x".to_string(),
                    field: "name".to_string(),
                }),
            )]),
        })
    }

    #[test]
    fn to_term_round_trips_the_structure() {
        let q = sample();
        let t = q.to_term();
        // for (x ← departments) where (x.name = "Sales") return <dept = x.name>
        let expected = for_where(
            "x",
            table("departments"),
            eq(project(var("x"), "name"), string("Sales")),
            singleton(record(vec![("dept", project(var("x"), "name"))])),
        );
        assert_eq!(t, expected);
    }

    #[test]
    fn empty_query_is_the_empty_bag() {
        assert_eq!(NormQuery::default().to_term(), empty_bag());
    }

    #[test]
    fn static_index_display() {
        assert_eq!(TOP.to_string(), "⊤");
        assert_eq!(StaticIndex(1).to_string(), "a");
        assert_eq!(StaticIndex(2).to_string(), "b");
        assert_eq!(StaticIndex(4).to_string(), "d");
    }

    #[test]
    fn conditions_conjoin_and_drop_truths() {
        let c = NfBase::truth().and(NfBase::Const(Constant::Bool(false)));
        assert_eq!(c, NfBase::Const(Constant::Bool(false)));
        let c2 = NfBase::Const(Constant::Bool(false)).and(NfBase::truth());
        assert_eq!(c2, NfBase::Const(Constant::Bool(false)));
    }

    #[test]
    fn tags_collects_nested_tags() {
        let inner = NormQuery::single(Comprehension {
            generators: vec![Generator::new("y", "employees")],
            condition: NfBase::truth(),
            tag: StaticIndex(2),
            body: NfTerm::Base(NfBase::Proj {
                var: "y".to_string(),
                field: "name".to_string(),
            }),
        });
        let outer = NormQuery::single(Comprehension {
            generators: vec![Generator::new("x", "departments")],
            condition: NfBase::truth(),
            tag: StaticIndex(1),
            body: NfTerm::Record(vec![("emps".to_string(), NfTerm::Query(inner))]),
        });
        assert_eq!(outer.tags(), vec![StaticIndex(1), StaticIndex(2)]);
    }

    #[test]
    fn free_vars_of_conditions() {
        let q = sample();
        assert_eq!(q.branches[0].condition.free_vars(), vec!["x".to_string()]);
    }
}
