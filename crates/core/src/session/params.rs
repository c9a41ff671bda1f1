//! Parameters (bind variables), declared with [`nrc::builder::int_param`] or
//! [`nrc::builder::string_param`], or lifted out of ad-hoc terms by
//! [`auto_parameterize`] so queries differing only in such constants share
//! one cached plan. Owns [`ParamSpec`], [`Params`], [`Bindings`] and the
//! checks that turn a caller's bindings into a backend's; must not plan,
//! cache or execute.

use crate::error::ShredError;
use crate::flatten::value_to_sql;
use nrc::term::{Constant, Term};
use nrc::types::BaseType;
use nrc::value::Value;
use std::collections::HashMap;
use std::fmt;

/// One declared parameter of a prepared query: its name and base type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// The parameter's name (without the `?` / `:` sigil).
    pub name: String,
    /// The parameter's declared base type.
    pub ty: BaseType,
}

impl fmt::Display for ParamSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{} : {}", self.name, self.ty)
    }
}

/// A set of named parameter bindings, built fluently and passed to
/// [`Shredder::execute_bound`](super::Shredder::execute_bound):
///
/// ```
/// use shredding::session::Params;
/// use nrc::value::Value;
/// let params = Params::new()
///     .bind("dpt", "Sales")
///     .bind("cutoff", 1000i64);
/// assert_eq!(params.get("cutoff"), Some(&Value::Int(1000)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    pub(super) values: Vec<(String, Value)>,
}

impl Params {
    /// An empty binding set.
    pub fn new() -> Params {
        Params::default()
    }

    /// Bind `name` to a value, replacing any earlier binding of the same
    /// name. Accepts anything convertible into a [`Value`] (`i64`, `bool`,
    /// `&str`, `String`, or a `Value` itself).
    pub fn bind(mut self, name: &str, value: impl Into<Value>) -> Params {
        self.set(name, value);
        self
    }

    /// Non-consuming version of [`bind`](Params::bind).
    pub(crate) fn set(&mut self, name: &str, value: impl Into<Value>) {
        let value = value.into();
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The bound value of a name, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterate over the bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.values.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Is the binding set empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Fully resolved parameter values handed to a backend's `execute`: one
/// type-checked value per declared parameter of the plan. Produced by the
/// session from the prepared query's defaults overlaid with the caller's
/// [`Params`]; backends never see missing or mistyped bindings.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    pub(super) values: Vec<(String, Value)>,
}

impl Bindings {
    /// Are there no bindings?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The bindings as engine-level SQL parameter values (for backends that
    /// ship plans with `:name` slots to the vectorized executor).
    pub fn to_sql_params(&self) -> Result<sqlengine::ParamValues, ShredError> {
        let mut out = sqlengine::ParamValues::new();
        for (name, value) in &self.values {
            out.insert(name.clone(), value_to_sql(value)?);
        }
        Ok(out)
    }

    /// The bindings as constants (for backends that substitute parameters
    /// into terms or normal forms before evaluating).
    pub(crate) fn to_constants(&self) -> HashMap<String, Constant> {
        self.values
            .iter()
            .filter_map(|(n, v)| v.as_constant().map(|c| (n.clone(), c)))
            .collect()
    }

    /// The bindings as a λNRC evaluation parameter environment.
    pub fn to_value_map(&self) -> nrc::ParamBindings {
        self.values
            .iter()
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect()
    }
}

pub(super) fn param_names(params: &[ParamSpec]) -> Vec<String> {
    params.iter().map(|p| p.name.clone()).collect()
}

/// Collect and validate the declared parameters of a term: a name declared
/// at two different base types is a conflict. Collection happens on the
/// source term (not the normal form) so that a parameter normalisation
/// eliminates — e.g. one bound inside a beta-reduced dead branch — is still
/// declared and bindable; backends simply ignore bindings their plan never
/// references.
pub(super) fn param_specs(term: &Term) -> Result<Vec<ParamSpec>, ShredError> {
    let raw = term.params();
    let mut specs: Vec<ParamSpec> = Vec::with_capacity(raw.len());
    for (name, ty) in raw {
        if let Some(existing) = specs.iter().find(|s| s.name == name) {
            if existing.ty != ty {
                return Err(ShredError::ParamTypeMismatch {
                    name,
                    expected: existing.ty.to_string(),
                    found: format!("a second declaration at type {}", ty),
                });
            }
            continue;
        }
        specs.push(ParamSpec { name, ty });
    }
    Ok(specs)
}

/// Overlay explicit bindings on the prepared query's defaults and validate
/// the result against the declared parameters: unknown names and type
/// mismatches are rejected, and every declared parameter must be bound.
pub(super) fn resolve_bindings(
    specs: &[ParamSpec],
    defaults: &Params,
    explicit: &Params,
) -> Result<Bindings, ShredError> {
    for (name, value) in explicit.iter() {
        let spec =
            specs
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| ShredError::UnknownParam {
                    name: name.to_string(),
                    declared: specs.iter().map(|s| s.name.clone()).collect(),
                })?;
        let found = match value.base_type() {
            Some(ty) if ty == spec.ty => continue,
            Some(ty) => ty.to_string(),
            None => "a non-base value (parameters are base-typed)".to_string(),
        };
        return Err(ShredError::ParamTypeMismatch {
            name: name.to_string(),
            expected: spec.ty.to_string(),
            found,
        });
    }
    let mut values = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = explicit
            .get(&spec.name)
            .or_else(|| defaults.get(&spec.name))
            .ok_or_else(|| ShredError::MissingParam {
                name: spec.name.clone(),
                expected: spec.ty,
            })?;
        values.push((spec.name.clone(), value.clone()));
    }
    Ok(Bindings { values })
}

/// Lift integer and string literals out of a term, replacing each with a
/// fresh typed parameter and recording the literal as that parameter's
/// default binding. Two ad-hoc terms differing only in such constants
/// therefore normalise to the same param-shape normal form and share one
/// cached plan. Boolean and unit constants stay inline: normalisation uses
/// boolean constants to prune conditionals, so lifting them would change
/// plan shapes (and `true`/`false` carry no cardinality anyway).
pub fn auto_parameterize(term: &Term) -> (Term, Params) {
    let existing: Vec<String> = term.params().into_iter().map(|(n, _)| n).collect();
    let mut next = 0usize;
    let mut defaults = Params::new();
    let lifted = lift_literals(term, &existing, &mut next, &mut defaults);
    (lifted, defaults)
}

fn lift_literals(
    term: &Term,
    existing: &[String],
    next: &mut usize,
    defaults: &mut Params,
) -> Term {
    use nrc::term::Constant as C;
    match term {
        Term::Const(c @ (C::Int(_) | C::String(_))) => {
            let name = loop {
                *next += 1;
                let candidate = format!("__p{}", next);
                if !existing.contains(&candidate) {
                    break candidate;
                }
            };
            defaults.set(&name, Value::from_constant(c));
            Term::Param(name, c.type_of())
        }
        Term::Var(_) | Term::Const(_) | Term::Param(_, _) | Term::Table(_) | Term::EmptyBag(_) => {
            term.clone()
        }
        Term::PrimApp(op, args) => Term::PrimApp(
            *op,
            args.iter()
                .map(|a| lift_literals(a, existing, next, defaults))
                .collect(),
        ),
        Term::If(c, t, e) => Term::If(
            Box::new(lift_literals(c, existing, next, defaults)),
            Box::new(lift_literals(t, existing, next, defaults)),
            Box::new(lift_literals(e, existing, next, defaults)),
        ),
        Term::Lam(x, b) => Term::Lam(
            x.clone(),
            Box::new(lift_literals(b, existing, next, defaults)),
        ),
        Term::App(f, a) => Term::App(
            Box::new(lift_literals(f, existing, next, defaults)),
            Box::new(lift_literals(a, existing, next, defaults)),
        ),
        Term::Record(fields) => Term::Record(
            fields
                .iter()
                .map(|(l, t)| (l.clone(), lift_literals(t, existing, next, defaults)))
                .collect(),
        ),
        Term::Project(t, l) => Term::Project(
            Box::new(lift_literals(t, existing, next, defaults)),
            l.clone(),
        ),
        Term::Empty(t) => Term::Empty(Box::new(lift_literals(t, existing, next, defaults))),
        Term::Singleton(t) => Term::Singleton(Box::new(lift_literals(t, existing, next, defaults))),
        Term::Union(l, r) => Term::Union(
            Box::new(lift_literals(l, existing, next, defaults)),
            Box::new(lift_literals(r, existing, next, defaults)),
        ),
        Term::For(x, s, b) => Term::For(
            x.clone(),
            Box::new(lift_literals(s, existing, next, defaults)),
            Box::new(lift_literals(b, existing, next, defaults)),
        ),
    }
}
