//! Evaluation environments ρ mapping variables to values.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An environment ρ. The paper writes `ε` for the empty environment and
/// `ρ[x ↦ v]` for extension; [`Env::empty`] and `Env::extend` mirror those.
///
/// A list of bindings, newest first, whose tails are shared: extending an
/// environment allocates the one new binding and shares the rest, so a
/// generator that binds each element of a bag copies none of the bindings
/// around it. Lookups walk from the most recent binding, giving the correct
/// shadowing behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Env {
    /// The newest binding, with the environment it extends.
    newest: Option<Arc<(String, Value, Env)>>,
}

impl Env {
    /// The empty environment ε.
    pub fn empty() -> Env {
        Env::default()
    }

    /// `ρ[x ↦ v]`: a new environment extending `self`.
    pub(crate) fn extend(&self, x: &str, v: Value) -> Env {
        let mut env = self.clone();
        env.push(x, v);
        env
    }

    /// In-place extension, used where the environment is threaded linearly.
    pub fn push(&mut self, x: &str, v: Value) {
        let rest = std::mem::take(self);
        self.newest = Some(Arc::new((x.to_string(), v, rest)));
    }

    /// The bindings, most recent first.
    fn bindings(&self) -> impl Iterator<Item = &(String, Value, Env)> {
        std::iter::successors(self.newest.as_deref(), |(_, _, rest)| {
            rest.newest.as_deref()
        })
    }

    /// Look up a variable (most recent binding wins).
    pub fn lookup(&self, x: &str) -> Option<&Value> {
        self.bindings().find(|(y, _, _)| y == x).map(|(_, v, _)| v)
    }

    /// Is the environment empty?
    pub fn is_empty(&self) -> bool {
        self.newest.is_none()
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bindings: Vec<_> = self.bindings().collect();
        write!(f, "{{")?;
        for (i, (x, v, _)) in bindings.into_iter().rev().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} ↦ {}", x, v)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_most_recent_binding() {
        let env = Env::empty()
            .extend("x", Value::Int(1))
            .extend("x", Value::Int(2));
        assert_eq!(env.lookup("x"), Some(&Value::Int(2)));
    }

    #[test]
    fn lookup_missing_is_none() {
        assert_eq!(Env::empty().lookup("x"), None);
    }

    #[test]
    fn extend_does_not_mutate_original() {
        let base = Env::empty();
        let _ext = base.extend("x", Value::Int(1));
        assert!(base.is_empty());
    }
}
