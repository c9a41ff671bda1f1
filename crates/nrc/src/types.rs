//! Types of the higher-order nested relational calculus (λNRC).
//!
//! Following Section 2.1 of the paper, types are built from base types
//! (integers, booleans, strings), record types, bag types and function types.
//! A type is *nested* if it contains no function type, and *flat* if it
//! contains only base and record types.

use std::fmt;

/// Base types of λNRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseType {
    Int,
    Bool,
    String,
    /// The unit type, used by record flattening (Appendix E) to represent
    /// empty records at base positions.
    Unit,
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Int => write!(f, "Int"),
            BaseType::Bool => write!(f, "Bool"),
            BaseType::String => write!(f, "String"),
            BaseType::Unit => write!(f, "Unit"),
        }
    }
}

/// λNRC types.
///
/// Record fields are kept in the order they were written; two record types
/// are compared up to field order by `Type::equiv`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A base type (`Int`, `Bool`, `String`).
    Base(BaseType),
    /// A record type `⟨ℓ1 : A1, …, ℓn : An⟩`.
    Record(Vec<(String, Type)>),
    /// A bag (multiset) type `Bag A`.
    Bag(Box<Type>),
    /// A function type `A → B`.
    Fun(Box<Type>, Box<Type>),
}

impl Type {
    /// `Int`.
    pub fn int() -> Type {
        Type::Base(BaseType::Int)
    }

    /// `Bool`.
    pub(crate) fn bool() -> Type {
        Type::Base(BaseType::Bool)
    }

    /// `String`.
    pub fn string() -> Type {
        Type::Base(BaseType::String)
    }

    /// A record type from label/type pairs.
    pub fn record<I, S>(fields: I) -> Type
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<String>,
    {
        Type::Record(fields.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// A bag type `Bag A`.
    pub fn bag(inner: Type) -> Type {
        Type::Bag(Box::new(inner))
    }

    /// Is this a base type?
    pub fn is_base(&self) -> bool {
        matches!(self, Type::Base(_))
    }

    /// Is this type *nested* (no function types anywhere)?
    pub fn is_nested(&self) -> bool {
        match self {
            Type::Base(_) => true,
            Type::Record(fields) => fields.iter().all(|(_, t)| t.is_nested()),
            Type::Bag(inner) => inner.is_nested(),
            Type::Fun(_, _) => false,
        }
    }

    /// The *nesting degree* of a type: the number of bag type constructors it
    /// contains (Section 3). This is the number of flat queries produced by
    /// shredding a query of this type.
    pub fn nesting_degree(&self) -> usize {
        match self {
            Type::Base(_) => 0,
            Type::Record(fields) => fields.iter().map(|(_, t)| t.nesting_degree()).sum(),
            Type::Bag(inner) => 1 + inner.nesting_degree(),
            Type::Fun(a, b) => a.nesting_degree() + b.nesting_degree(),
        }
    }

    /// Look up a field of a record type.
    pub(crate) fn field(&self, label: &str) -> Option<&Type> {
        match self {
            Type::Record(fields) => fields.iter().find(|(l, _)| l == label).map(|(_, t)| t),
            _ => None,
        }
    }

    /// Structural equivalence up to record field order.
    pub(crate) fn equiv(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Base(a), Type::Base(b)) => a == b,
            (Type::Bag(a), Type::Bag(b)) => a.equiv(b),
            (Type::Fun(a1, b1), Type::Fun(a2, b2)) => a1.equiv(a2) && b1.equiv(b2),
            (Type::Record(fs), Type::Record(gs)) => {
                if fs.len() != gs.len() {
                    return false;
                }
                let mut fs_sorted: Vec<_> = fs.iter().collect();
                let mut gs_sorted: Vec<_> = gs.iter().collect();
                fs_sorted.sort_by(|a, b| a.0.cmp(&b.0));
                gs_sorted.sort_by(|a, b| a.0.cmp(&b.0));
                fs_sorted
                    .iter()
                    .zip(gs_sorted.iter())
                    .all(|((l1, t1), (l2, t2))| l1 == l2 && t1.equiv(t2))
            }
            _ => false,
        }
    }

    /// All paths to bag constructors within this type, in depth-first order
    /// (the `paths(A)` function of Section 4.1).
    pub fn paths(&self) -> Vec<Path> {
        fn go(ty: &Type, acc: &mut Vec<Path>, current: &Path) {
            match ty {
                Type::Base(_) => {}
                Type::Record(fields) => {
                    for (label, t) in fields {
                        go(t, acc, &current.extend_label(label));
                    }
                }
                Type::Bag(inner) => {
                    acc.push(current.clone());
                    go(inner, acc, &current.extend_down());
                }
                Type::Fun(a, b) => {
                    // Function types never occur in flat–nested query results,
                    // but we traverse them anyway for completeness.
                    go(a, acc, current);
                    go(b, acc, current);
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc, &Path::empty());
        acc
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Base(b) => write!(f, "{}", b),
            Type::Record(fields) => {
                write!(f, "<")?;
                for (i, (l, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {}", l, t)?;
                }
                write!(f, ">")
            }
            Type::Bag(inner) => write!(f, "Bag {}", WrapIfComplex(inner)),
            Type::Fun(a, b) => write!(f, "{} -> {}", WrapIfComplex(a), b),
        }
    }
}

/// Helper that parenthesises function and bag types when nested inside other
/// type constructors, for readable output.
struct WrapIfComplex<'a>(&'a Type);

impl fmt::Display for WrapIfComplex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Type::Fun(_, _) | Type::Bag(_) => write!(f, "({})", self.0),
            _ => write!(f, "{}", self.0),
        }
    }
}

/// One step of a path into a type: descend through a bag constructor (`↓`) or
/// select a record label.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathStep {
    /// `↓` — go under a `Bag` constructor.
    Down,
    /// `ℓ` — select a record field.
    Label(String),
}

/// A path `p` pointing at a bag constructor inside a type (Section 4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Path {
    pub steps: Vec<PathStep>,
}

impl Path {
    /// The empty path `ε`.
    pub fn empty() -> Path {
        Path { steps: Vec::new() }
    }

    /// Extend the path with a `↓` step (`p.↓`).
    pub fn extend_down(&self) -> Path {
        let mut steps = self.steps.clone();
        steps.push(PathStep::Down);
        Path { steps }
    }

    /// Extend the path with a record label step (`p.ℓ`).
    pub fn extend_label(&self, label: &str) -> Path {
        let mut steps = self.steps.clone();
        steps.push(PathStep::Label(label.to_string()));
        Path { steps }
    }

    /// Is this the empty path?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Split off the first step, if any.
    pub fn split_first(&self) -> Option<(&PathStep, Path)> {
        self.steps.split_first().map(|(head, tail)| {
            (
                head,
                Path {
                    steps: tail.to_vec(),
                },
            )
        })
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "ε");
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            match s {
                PathStep::Down => write!(f, "↓")?,
                PathStep::Label(l) => write!(f, "{}", l)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Is this type a *flat relation type* `Bag ⟨ℓ1:O1,…,ℓn:On⟩` (the only
    /// type a database table may have)?
    pub(crate) fn is_flat_relation(ty: &Type) -> bool {
        match ty {
            Type::Bag(inner) => match inner.as_ref() {
                Type::Record(fields) => fields.iter().all(|(_, t)| t.is_base()),
                _ => false,
            },
            _ => false,
        }
    }

    fn result_type() -> Type {
        // Bag <department: String, people: Bag <name: String, tasks: Bag String>>
        Type::bag(Type::record(vec![
            ("department", Type::string()),
            (
                "people",
                Type::bag(Type::record(vec![
                    ("name", Type::string()),
                    ("tasks", Type::bag(Type::string())),
                ])),
            ),
        ]))
    }

    #[test]
    fn nesting_degree_of_result_type_is_three() {
        assert_eq!(result_type().nesting_degree(), 3);
    }

    #[test]
    fn nesting_degree_of_example_from_paper() {
        // Bag <A : Bag Int, B : Bag String> has nesting degree 3.
        let t = Type::bag(Type::record(vec![
            ("A", Type::bag(Type::int())),
            ("B", Type::bag(Type::string())),
        ]));
        assert_eq!(t.nesting_degree(), 3);
    }

    #[test]
    fn paths_of_result_type() {
        let paths = result_type().paths();
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0], Path::empty());
        assert_eq!(paths[1], Path::empty().extend_down().extend_label("people"));
        assert_eq!(
            paths[2],
            Path::empty()
                .extend_down()
                .extend_label("people")
                .extend_down()
                .extend_label("tasks")
        );
    }

    #[test]
    fn flat_and_nested_predicates() {
        let flat = Type::record(vec![("a", Type::int()), ("b", Type::string())]);
        assert!(flat.is_nested());
        let nested = result_type();
        assert!(nested.is_nested());
        let higher = Type::Fun(Box::new(Type::int()), Box::new(Type::int()));
        assert!(!higher.is_nested());
    }

    #[test]
    fn flat_relation_type_check() {
        let rel = Type::bag(Type::record(vec![
            ("dept", Type::string()),
            ("salary", Type::int()),
        ]));
        assert!(is_flat_relation(&rel));
        assert!(!is_flat_relation(&result_type()));
        assert!(!is_flat_relation(&Type::bag(Type::int())));
    }

    #[test]
    fn record_equivalence_ignores_field_order() {
        let a = Type::record(vec![("x", Type::int()), ("y", Type::bool())]);
        let b = Type::record(vec![("y", Type::bool()), ("x", Type::int())]);
        assert!(a.equiv(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn display_is_readable() {
        let t = result_type();
        let s = format!("{}", t);
        assert!(s.contains("Bag"));
        assert!(s.contains("department"));
    }
}
