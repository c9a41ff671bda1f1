//! Evaluation environments ρ mapping variables to values.

use crate::value::Value;
use std::fmt;

/// An environment ρ. The paper writes `ε` for the empty environment and
/// `ρ[x ↦ v]` for extension; [`Env::empty`] and `Env::extend` mirror those.
///
/// Environments are small (bounded by the number of nested binders in a
/// query), so a simple association list cloned on extension is both simple
/// and fast enough; lookups scan from the most recent binding, giving the
/// correct shadowing behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Env {
    bindings: Vec<(String, Value)>,
}

impl Env {
    /// The empty environment ε.
    pub fn empty() -> Env {
        Env {
            bindings: Vec::new(),
        }
    }

    /// `ρ[x ↦ v]`: a new environment extending `self`.
    pub(crate) fn extend(&self, x: &str, v: Value) -> Env {
        let mut bindings = self.bindings.clone();
        bindings.push((x.to_string(), v));
        Env { bindings }
    }

    /// In-place extension, used where the environment is threaded linearly.
    pub fn push(&mut self, x: &str, v: Value) {
        self.bindings.push((x.to_string(), v));
    }

    /// Look up a variable (most recent binding wins).
    pub fn lookup(&self, x: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(y, _)| y == x)
            .map(|(_, v)| v)
    }

    /// Is the environment empty?
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (x, v)) in self.bindings.iter().enumerate() {
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
