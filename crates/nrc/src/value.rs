//! Nested values: the results of evaluating λNRC queries.
//!
//! Following the paper's denotational semantics (Figure 2), object-level bags
//! are interpreted as meta-level lists, and two values are equivalent *as
//! multisets* when they are equal up to permutation of bag elements at every
//! nesting level.

use crate::env::Env;
use crate::term::{Constant, Term};
use crate::types::{BaseType, Type};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A nested value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Bool(bool),
    /// A string value. The payload is `Arc`-shared so strings decoded from
    /// SQL results (whose cells are already `Arc<str>`) reach the final
    /// nested value as refcount bumps, never copies.
    String(Arc<str>),
    Unit,
    /// A record value. Field order is preserved from the constructing term.
    Record(Vec<(String, Value)>),
    /// A bag value, represented as a list (order carries no semantic weight).
    /// The elements are `Arc`-shared: cloning a bag is a refcount bump, so a
    /// nested value can hand the same inner bag to several parents (the
    /// live-view stitcher returns memoised groups this way) and a copy costs
    /// only the spine that is rebuilt.
    Bag(Arc<[Value]>),
    /// A function closure. Only appears while evaluating higher-order terms;
    /// never appears in a query result of nested type. Boxed, so that the
    /// rare closure does not widen every other value.
    Closure(Box<Closure>),
}

/// The payload of [`Value::Closure`]: `λparam. body` closed over `env`.
#[derive(Debug, Clone, PartialEq)]
pub struct Closure {
    pub param: String,
    pub body: Term,
    pub env: Env,
}

impl Value {
    /// Construct a record value.
    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Record(fields.into_iter().map(|(l, v)| (l.into(), v)).collect())
    }

    /// Construct a bag value.
    pub fn bag<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Bag(items.into_iter().collect())
    }

    /// Construct a string value.
    pub fn string<S: Into<Arc<str>>>(s: S) -> Value {
        Value::String(s.into())
    }

    /// Construct a value from a constant.
    pub fn from_constant(c: &Constant) -> Value {
        match c {
            Constant::Int(i) => Value::Int(*i),
            Constant::Bool(b) => Value::Bool(*b),
            Constant::String(s) => Value::String(Arc::from(s.as_str())),
            Constant::Unit => Value::Unit,
        }
    }

    /// The constant corresponding to a base value (`None` for records, bags
    /// and closures). The inverse of [`Value::from_constant`].
    pub fn as_constant(&self) -> Option<Constant> {
        match self {
            Value::Int(i) => Some(Constant::Int(*i)),
            Value::Bool(b) => Some(Constant::Bool(*b)),
            Value::String(s) => Some(Constant::String(s.to_string())),
            Value::Unit => Some(Constant::Unit),
            _ => None,
        }
    }

    /// The base type of a base value (`None` for records, bags and closures).
    pub fn base_type(&self) -> Option<crate::types::BaseType> {
        self.as_constant().map(|c| c.type_of())
    }

    /// The boolean content of a value, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer content of a value, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string content of a value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// The elements of a bag value, if it is a bag.
    pub fn as_bag(&self) -> Option<&[Value]> {
        match self {
            Value::Bag(items) => Some(items),
            _ => None,
        }
    }

    /// The fields of a record value, if it is a record.
    pub fn as_record(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Record(fields) => Some(fields),
            _ => None,
        }
    }

    /// Project a field of a record value.
    pub fn field(&self, label: &str) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields.iter().find(|(l, _)| l == label).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The *canonical form* of a first-order value: bag elements are sorted by
    /// a fixed total order and record fields are sorted by label. Two values
    /// are equal as nested multisets iff their canonical forms are equal.
    ///
    /// Panics if the value contains a closure (closures have no canonical
    /// form and never appear in nested query results).
    pub(crate) fn canonical(&self) -> Value {
        match self {
            Value::Int(_) | Value::Bool(_) | Value::String(_) | Value::Unit => self.clone(),
            Value::Record(fields) => {
                let mut fields: Vec<(String, Value)> = fields
                    .iter()
                    .map(|(l, v)| (l.clone(), v.canonical()))
                    .collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Record(fields)
            }
            Value::Bag(items) => {
                let mut items: Vec<Value> = items.iter().map(Value::canonical).collect();
                items.sort_by(compare_canonical);
                Value::Bag(items.into())
            }
            Value::Closure(_) => panic!("closures have no canonical form"),
        }
    }

    /// Multiset equality: equality up to permutation of bag elements at every
    /// nesting level (and record field order).
    pub fn multiset_eq(&self, other: &Value) -> bool {
        self.canonical() == other.canonical()
    }

    /// Total number of scalar values in this value, a rough measure of its
    /// size (used by the experiments to report data movement).
    pub fn scalar_count(&self) -> usize {
        match self {
            Value::Int(_) | Value::Bool(_) | Value::String(_) | Value::Unit => 1,
            Value::Record(fields) => fields.iter().map(|(_, v)| v.scalar_count()).sum(),
            Value::Bag(items) => items.iter().map(Value::scalar_count).sum(),
            Value::Closure(_) => 0,
        }
    }

    /// Does this first-order value inhabit the given type?
    pub(crate) fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Int(_), Type::Base(BaseType::Int)) => true,
            (Value::Bool(_), Type::Base(BaseType::Bool)) => true,
            (Value::String(_), Type::Base(BaseType::String)) => true,
            (Value::Unit, Type::Base(BaseType::Unit)) => true,
            (Value::Record(fields), Type::Record(ftys)) => {
                fields.len() == ftys.len()
                    && ftys
                        .iter()
                        .all(|(l, t)| fields.iter().any(|(fl, fv)| fl == l && fv.has_type(t)))
            }
            (Value::Bag(items), Type::Bag(inner)) => items.iter().all(|v| v.has_type(inner)),
            _ => false,
        }
    }
}

/// A total order on canonical first-order values, used to sort bag elements.
/// The ordering is arbitrary but fixed: by variant rank, then structurally.
pub(crate) fn compare_canonical(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Unit => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::String(_) => 3,
            Value::Record(_) => 4,
            Value::Bag(_) => 5,
            Value::Closure(_) => 6,
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::String(x), Value::String(y)) => x.cmp(y),
        (Value::Unit, Value::Unit) => Ordering::Equal,
        (Value::Record(xs), Value::Record(ys)) => {
            for ((lx, vx), (ly, vy)) in xs.iter().zip(ys.iter()) {
                let c = lx.cmp(ly).then_with(|| compare_canonical(vx, vy));
                if c != Ordering::Equal {
                    return c;
                }
            }
            xs.len().cmp(&ys.len())
        }
        (Value::Bag(xs), Value::Bag(ys)) => {
            for (vx, vy) in xs.iter().zip(ys.iter()) {
                let c = compare_canonical(vx, vy);
                if c != Ordering::Equal {
                    return c;
                }
            }
            xs.len().cmp(&ys.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(Arc::from(s))
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Value {
        Value::String(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{}", i),
            Value::Bool(b) => write!(f, "{}", b),
            Value::String(s) => write!(f, "{:?}", s),
            Value::Unit => write!(f, "()"),
            Value::Record(fields) => {
                write!(f, "<")?;
                for (i, (l, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} = {}", l, v)?;
                }
                write!(f, ">")
            }
            Value::Bag(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", v)?;
                }
                write!(f, "]")
            }
            Value::Closure(c) => write!(f, "<closure λ{}>", c.param),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_equality_ignores_order() {
        let a = Value::bag(vec![Value::Int(1), Value::Int(2), Value::Int(2)]);
        let b = Value::bag(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        assert!(a.multiset_eq(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn multiset_equality_respects_multiplicity() {
        let a = Value::bag(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::bag(vec![Value::Int(1), Value::Int(2), Value::Int(2)]);
        assert!(!a.multiset_eq(&b));
    }

    #[test]
    fn multiset_equality_is_nested() {
        let a = Value::bag(vec![Value::record(vec![(
            "xs",
            Value::bag(vec![Value::Int(1), Value::Int(2)]),
        )])]);
        let b = Value::bag(vec![Value::record(vec![(
            "xs",
            Value::bag(vec![Value::Int(2), Value::Int(1)]),
        )])]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn record_field_order_does_not_matter_for_multiset_eq() {
        let a = Value::record(vec![("a", Value::Int(1)), ("b", Value::Int(2))]);
        let b = Value::record(vec![("b", Value::Int(2)), ("a", Value::Int(1))]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn has_type_checks_structure() {
        let v = Value::bag(vec![Value::record(vec![
            ("name", Value::string("a")),
            ("salary", Value::Int(3)),
        ])]);
        let t = Type::bag(Type::record(vec![
            ("name", Type::string()),
            ("salary", Type::int()),
        ]));
        assert!(v.has_type(&t));
        assert!(!v.has_type(&Type::bag(Type::int())));
    }

    #[test]
    fn field_projection() {
        let v = Value::record(vec![("a", Value::Int(1))]);
        assert_eq!(v.field("a"), Some(&Value::Int(1)));
        assert_eq!(v.field("b"), None);
    }

    #[test]
    fn scalar_count_counts_leaves() {
        let v = Value::bag(vec![
            Value::record(vec![("a", Value::Int(1)), ("b", Value::string("x"))]),
            Value::record(vec![("a", Value::Int(2)), ("b", Value::string("y"))]),
        ]);
        assert_eq!(v.scalar_count(), 4);
    }

    #[test]
    fn a_value_is_three_words() {
        assert!(std::mem::size_of::<Value>() <= 24);
    }

    #[test]
    fn cloning_a_bag_shares_its_elements() {
        let a = Value::bag(vec![Value::bag(vec![Value::Int(1)])]);
        let b = a.clone();
        assert_eq!(a.as_bag().unwrap().as_ptr(), b.as_bag().unwrap().as_ptr());
    }

    #[test]
    fn compare_canonical_is_total_on_mixed_ranks() {
        assert_eq!(
            compare_canonical(&Value::Bool(true), &Value::Int(0)),
            Ordering::Less
        );
    }
}
