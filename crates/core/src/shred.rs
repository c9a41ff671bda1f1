//! The shredding translation (Section 4 of the paper).
//!
//! Shredding turns a single normalised nested query into one flat query per
//! bag constructor of its result type. The queries are linked by *indexes*:
//! each shredded comprehension returns a pair ⟨outer index, flat inner term⟩,
//! where the outer index says where the row should be spliced into the parent
//! and any `Index` fields of the inner term name the rows of child queries.

use crate::error::ShredError;
use crate::nf::{Comprehension, Generator, NfBase, NfTerm, NormQuery, StaticIndex, TOP};
use nrc::term::{Constant, PrimOp};
use nrc::types::{BaseType, Path, PathStep, Type};
use std::fmt;

// ---------------------------------------------------------------------------
// Shredded types
// ---------------------------------------------------------------------------

/// Flat shredded types `F ::= O | ⟨ℓ⃗ : F⃗⟩ | Index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatType {
    Base(BaseType),
    Record(Vec<(String, FlatType)>),
    Index,
}

impl fmt::Display for FlatType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatType::Base(b) => write!(f, "{}", b),
            FlatType::Index => write!(f, "Index"),
            FlatType::Record(fields) => {
                write!(f, "<")?;
                for (i, (l, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {}", l, t)?;
                }
                write!(f, ">")
            }
        }
    }
}

/// A shredded type `Bag ⟨Index, F⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShreddedType {
    pub inner: FlatType,
}

impl fmt::Display for ShreddedType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bag <Index, {}>", self.inner)
    }
}

/// The *inner shredding* `⟦A⟧` of a type: nested bags are replaced by `Index`.
pub(crate) fn inner_shred_type(ty: &Type) -> Result<FlatType, ShredError> {
    match ty {
        Type::Base(b) => Ok(FlatType::Base(*b)),
        Type::Record(fields) => Ok(FlatType::Record(
            fields
                .iter()
                .map(|(l, t)| Ok((l.clone(), inner_shred_type(t)?)))
                .collect::<Result<_, ShredError>>()?,
        )),
        Type::Bag(_) => Ok(FlatType::Index),
        Type::Fun(_, _) => Err(ShredError::NotFlatNested(ty.to_string())),
    }
}

/// The *outer shredding* `⟦A⟧_p` of a type at a path: the shredded type of the
/// bag located at `p` inside `A`.
pub fn shred_type(ty: &Type, path: &Path) -> Result<ShreddedType, ShredError> {
    match path.split_first() {
        None => match ty {
            Type::Bag(inner) => Ok(ShreddedType {
                inner: inner_shred_type(inner)?,
            }),
            other => Err(ShredError::BadPath(format!(
                "path ends at non-bag type {}",
                other
            ))),
        },
        Some((PathStep::Down, rest)) => match ty {
            Type::Bag(inner) => shred_type(inner, &rest),
            other => Err(ShredError::BadPath(format!(
                "↓ step at non-bag type {}",
                other
            ))),
        },
        Some((PathStep::Label(l), rest)) => match ty {
            Type::Record(fields) => {
                let field = fields
                    .iter()
                    .find(|(fl, _)| fl == l)
                    .map(|(_, t)| t)
                    .ok_or_else(|| ShredError::BadPath(format!("no field {} in {}", l, ty)))?;
                shred_type(field, &rest)
            }
            other => Err(ShredError::BadPath(format!(
                "label step {} at non-record type {}",
                l, other
            ))),
        },
    }
}

// ---------------------------------------------------------------------------
// Shredded packages
// ---------------------------------------------------------------------------

/// A shredded package: the result type with an annotation attached to every
/// bag constructor (Section 4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Package<T> {
    Base(BaseType),
    Record(Vec<(String, Package<T>)>),
    Bag(T, Box<Package<T>>),
}

impl<T> Package<T> {
    /// Map a function over the annotations (`pmap` in the paper).
    pub fn map<U>(&self, f: &mut impl FnMut(&T) -> U) -> Package<U> {
        match self {
            Package::Base(b) => Package::Base(*b),
            Package::Record(fields) => {
                Package::Record(fields.iter().map(|(l, p)| (l.clone(), p.map(f))).collect())
            }
            Package::Bag(t, inner) => Package::Bag(f(t), Box::new(inner.map(f))),
        }
    }

    /// Map a function over the annotations, consuming the package. Used
    /// where the annotations are bulky results that should move into their
    /// successor rather than be cloned (e.g. grouping decoded rows for
    /// stitching).
    pub(crate) fn into_map<U>(self, f: &mut impl FnMut(T) -> U) -> Package<U> {
        match self {
            Package::Base(b) => Package::Base(b),
            Package::Record(fields) => Package::Record(
                fields
                    .into_iter()
                    .map(|(l, p)| (l, p.into_map(f)))
                    .collect(),
            ),
            Package::Bag(t, inner) => Package::Bag(f(t), Box::new(inner.into_map(f))),
        }
    }

    /// Map a fallible function over the annotations.
    pub fn try_map<U, E>(&self, f: &mut impl FnMut(&T) -> Result<U, E>) -> Result<Package<U>, E> {
        Ok(match self {
            Package::Base(b) => Package::Base(*b),
            Package::Record(fields) => Package::Record(
                fields
                    .iter()
                    .map(|(l, p)| Ok((l.clone(), p.try_map(f)?)))
                    .collect::<Result<_, E>>()?,
            ),
            Package::Bag(t, inner) => Package::Bag(f(t)?, Box::new(inner.try_map(f)?)),
        })
    }

    /// All annotations in depth-first order (the same order as
    /// [`Type::paths`]).
    pub fn annotations(&self) -> Vec<&T> {
        fn go<'a, T>(p: &'a Package<T>, acc: &mut Vec<&'a T>) {
            match p {
                Package::Base(_) => {}
                Package::Record(fields) => fields.iter().for_each(|(_, p)| go(p, acc)),
                Package::Bag(t, inner) => {
                    acc.push(t);
                    go(inner, acc);
                }
            }
        }
        let mut acc = Vec::new();
        go(self, &mut acc);
        acc
    }

    /// Number of bag constructors (= nesting degree = number of annotations).
    pub(crate) fn nesting_degree(&self) -> usize {
        self.annotations().len()
    }
}

/// Build a package over a type by annotating each bag constructor with the
/// value of `f` at its path (the `package_f(A)` function of the paper).
pub fn package_by<T, E>(
    ty: &Type,
    f: &mut impl FnMut(&Path) -> Result<T, E>,
) -> Result<Package<T>, E> {
    fn go<T, E>(
        ty: &Type,
        path: &Path,
        f: &mut impl FnMut(&Path) -> Result<T, E>,
    ) -> Result<Package<T>, E> {
        match ty {
            Type::Base(b) => Ok(Package::Base(*b)),
            Type::Record(fields) => Ok(Package::Record(
                fields
                    .iter()
                    .map(|(l, t)| Ok((l.clone(), go(t, &path.extend_label(l), f)?)))
                    .collect::<Result<_, E>>()?,
            )),
            Type::Bag(inner) => {
                let annotation = f(path)?;
                Ok(Package::Bag(
                    annotation,
                    Box::new(go(inner, &path.extend_down(), f)?),
                ))
            }
            Type::Fun(_, _) => {
                // Flat–nested result types never contain functions; treat the
                // function type as opaque by reporting it as a base type would
                // be wrong, so panic via the error path of the caller.
                unreachable!("package_by called on a type containing functions")
            }
        }
    }
    go(ty, &Path::empty(), f)
}

// ---------------------------------------------------------------------------
// Shredded queries
// ---------------------------------------------------------------------------

/// A shredded query `⊎ C⃗`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShreddedQuery {
    pub branches: Vec<ShredComp>,
}

/// One shredded comprehension: a stack of `for (G⃗ where X)` clauses (one per
/// nesting level of the original query, outermost first), ending in
/// `returnᵇ ⟨a⋅out, N⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShredComp {
    pub levels: Vec<CompLevel>,
    /// The static index `b` of the innermost `return`.
    pub tag: StaticIndex,
    /// The static index `a` of the outer index `a⋅out` this row is keyed by.
    pub outer_tag: StaticIndex,
    /// The flat inner term `N`.
    pub inner: ShredInner,
}

/// One `for (G⃗ where X)` clause of a shredded comprehension.
#[derive(Debug, Clone, PartialEq)]
pub struct CompLevel {
    pub generators: Vec<Generator>,
    pub condition: ShBase,
}

/// A flat inner term: base expression, record, or an index `b⋅in` standing
/// for a nested bag.
#[derive(Debug, Clone, PartialEq)]
pub enum ShredInner {
    Base(ShBase),
    Record(Vec<(String, ShredInner)>),
    /// `tag ⋅ in`: the inner index that child-query rows will be keyed by.
    InnerIndex(StaticIndex),
}

/// Base terms of shredded queries; emptiness tests contain shredded queries.
#[derive(Debug, Clone, PartialEq)]
pub enum ShBase {
    Proj {
        var: String,
        field: String,
    },
    Const(Constant),
    /// A typed bind variable `?name : O`, carried through shredding as an
    /// opaque atom.
    Param(String, BaseType),
    Prim(PrimOp, Vec<ShBase>),
    IsEmpty(Box<ShreddedQuery>),
}

impl ShBase {
    /// Is this the constant `true`?
    pub(crate) fn is_truth(&self) -> bool {
        matches!(self, ShBase::Const(Constant::Bool(true)))
    }

    /// Replace parameters with the bound constants.
    pub(crate) fn bind_params(
        &self,
        bindings: &std::collections::HashMap<String, Constant>,
    ) -> ShBase {
        match self {
            ShBase::Param(name, _) => match bindings.get(name) {
                Some(c) => ShBase::Const(c.clone()),
                None => self.clone(),
            },
            ShBase::Proj { .. } | ShBase::Const(_) => self.clone(),
            ShBase::Prim(op, args) => {
                ShBase::Prim(*op, args.iter().map(|a| a.bind_params(bindings)).collect())
            }
            ShBase::IsEmpty(q) => ShBase::IsEmpty(Box::new(q.bind_params(bindings))),
        }
    }
}

impl ShreddedQuery {
    /// Replace parameters with the bound constants throughout the shredded
    /// query (conditions and inner terms, at every level).
    pub(crate) fn bind_params(
        &self,
        bindings: &std::collections::HashMap<String, Constant>,
    ) -> ShreddedQuery {
        fn bind_inner(
            inner: &ShredInner,
            bindings: &std::collections::HashMap<String, Constant>,
        ) -> ShredInner {
            match inner {
                ShredInner::Base(b) => ShredInner::Base(b.bind_params(bindings)),
                ShredInner::Record(fields) => ShredInner::Record(
                    fields
                        .iter()
                        .map(|(l, v)| (l.clone(), bind_inner(v, bindings)))
                        .collect(),
                ),
                ShredInner::InnerIndex(tag) => ShredInner::InnerIndex(*tag),
            }
        }
        ShreddedQuery {
            branches: self
                .branches
                .iter()
                .map(|b| ShredComp {
                    levels: b
                        .levels
                        .iter()
                        .map(|l| CompLevel {
                            generators: l.generators.clone(),
                            condition: l.condition.bind_params(bindings),
                        })
                        .collect(),
                    tag: b.tag,
                    outer_tag: b.outer_tag,
                    inner: bind_inner(&b.inner, bindings),
                })
                .collect(),
        }
    }
}

impl fmt::Display for ShreddedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.branches.is_empty() {
            return write!(f, "∅");
        }
        for (i, c) in self.branches.iter().enumerate() {
            if i > 0 {
                write!(f, "\n⊎ ")?;
            }
            write!(f, "{}", c)?;
        }
        Ok(())
    }
}

impl fmt::Display for ShredComp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for level in &self.levels {
            write!(f, "for (")?;
            for (i, g) in level.generators.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", g)?;
            }
            if !level.condition.is_truth() {
                write!(f, " where {}", DisplayShBase(&level.condition))?;
            }
            write!(f, ") ")?;
        }
        write!(
            f,
            "return^{} <{}·out, {}>",
            self.tag,
            self.outer_tag,
            DisplayInner(&self.inner)
        )
    }
}

struct DisplayShBase<'a>(&'a ShBase);

impl fmt::Display for DisplayShBase<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            ShBase::Proj { var, field } => write!(f, "{}.{}", var, field),
            ShBase::Const(c) => write!(f, "{}", c),
            ShBase::Param(name, ty) => write!(f, "?{}:{}", name, ty),
            ShBase::Prim(op, args) if args.len() == 2 => write!(
                f,
                "({} {} {})",
                DisplayShBase(&args[0]),
                op,
                DisplayShBase(&args[1])
            ),
            ShBase::Prim(op, args) => {
                write!(f, "{}(", op)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", DisplayShBase(a))?;
                }
                write!(f, ")")
            }
            ShBase::IsEmpty(q) => write!(f, "empty({})", q),
        }
    }
}

struct DisplayInner<'a>(&'a ShredInner);

impl fmt::Display for DisplayInner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            ShredInner::Base(b) => write!(f, "{}", DisplayShBase(b)),
            ShredInner::Record(fields) => {
                write!(f, "<")?;
                for (i, (l, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} = {}", l, DisplayInner(v))?;
                }
                write!(f, ">")
            }
            ShredInner::InnerIndex(tag) => write!(f, "{}·in", tag),
        }
    }
}

// ---------------------------------------------------------------------------
// The shredding translation on terms
// ---------------------------------------------------------------------------

/// `⟦L⟧_p`: shred a normalised query at a path of its result type (Figure 4).
pub fn shred_query(query: &NormQuery, path: &Path) -> Result<ShreddedQuery, ShredError> {
    let branches = shred_branches(query, TOP, path)?;
    Ok(ShreddedQuery { branches })
}

/// `⟦⊎C⃗⟧*_{a,p}`.
fn shred_branches(
    query: &NormQuery,
    outer_tag: StaticIndex,
    path: &Path,
) -> Result<Vec<ShredComp>, ShredError> {
    let mut out = Vec::new();
    for branch in &query.branches {
        out.extend(shred_comprehension(branch, outer_tag, path)?);
    }
    Ok(out)
}

/// `⟦for (G⃗ where X) returnᵇ M⟧*_{a,p}`.
fn shred_comprehension(
    comp: &Comprehension,
    outer_tag: StaticIndex,
    path: &Path,
) -> Result<Vec<ShredComp>, ShredError> {
    let level = CompLevel {
        generators: comp.generators.clone(),
        condition: shred_base(&comp.condition)?,
    };
    match path.split_first() {
        // Path ε: this comprehension is the one being extracted.
        None => Ok(vec![ShredComp {
            levels: vec![level],
            tag: comp.tag,
            outer_tag,
            inner: shred_inner(&comp.body, comp.tag)?,
        }]),
        // Path ↓.p: descend into the body along p, prepending this level.
        Some((PathStep::Down, rest)) => {
            let inner_comps = shred_term_at(&comp.body, comp.tag, &rest)?;
            Ok(inner_comps
                .into_iter()
                .map(|mut c| {
                    c.levels.insert(0, level.clone());
                    c
                })
                .collect())
        }
        Some((PathStep::Label(l), _)) => Err(ShredError::BadPath(format!(
            "label step {} applied to a bag",
            l
        ))),
    }
}

/// `⟦M⟧*_{a,p}` for normalised terms: navigate record labels until the nested
/// query addressed by the path is reached.
fn shred_term_at(
    term: &NfTerm,
    outer_tag: StaticIndex,
    path: &Path,
) -> Result<Vec<ShredComp>, ShredError> {
    match path.split_first() {
        Some((PathStep::Label(l), rest)) => match term {
            NfTerm::Record(fields) => {
                let field = fields
                    .iter()
                    .find(|(fl, _)| fl == l)
                    .map(|(_, t)| t)
                    .ok_or_else(|| ShredError::BadPath(format!("no field {} in record body", l)))?;
                shred_term_at(field, outer_tag, &rest)
            }
            _ => Err(ShredError::BadPath(format!(
                "label step {} applied to a non-record body",
                l
            ))),
        },
        // ε or ↓.p: the term must be a nested query.
        _ => match term {
            NfTerm::Query(q) => shred_branches(q, outer_tag, path),
            _ => Err(ShredError::BadPath(
                "path addresses a non-query body".to_string(),
            )),
        },
    }
}

/// `⟦M⟧_b`: the flat inner shredding of a comprehension body, with inner
/// static index `b`.
fn shred_inner(term: &NfTerm, tag: StaticIndex) -> Result<ShredInner, ShredError> {
    match term {
        NfTerm::Base(b) => Ok(ShredInner::Base(shred_base(b)?)),
        NfTerm::Record(fields) => Ok(ShredInner::Record(
            fields
                .iter()
                .map(|(l, t)| Ok((l.clone(), shred_inner(t, tag)?)))
                .collect::<Result<_, ShredError>>()?,
        )),
        NfTerm::Query(_) => Ok(ShredInner::InnerIndex(tag)),
    }
}

/// Shred a base expression: emptiness tests keep only the top-level query of
/// their operand (shredded at path ε).
fn shred_base(base: &NfBase) -> Result<ShBase, ShredError> {
    Ok(match base {
        NfBase::Proj { var, field } => ShBase::Proj {
            var: var.clone(),
            field: field.clone(),
        },
        NfBase::Const(c) => ShBase::Const(c.clone()),
        NfBase::Param(name, ty) => ShBase::Param(name.clone(), *ty),
        NfBase::Prim(op, args) => {
            ShBase::Prim(*op, args.iter().map(shred_base).collect::<Result<_, _>>()?)
        }
        NfBase::IsEmpty(q) => ShBase::IsEmpty(Box::new(shred_query(q, &Path::empty())?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> Package<T> {
        /// Erase the annotations, recovering the underlying type.
        fn erase(&self) -> Type {
            match self {
                Package::Base(b) => Type::Base(*b),
                Package::Record(fields) => {
                    Type::Record(fields.iter().map(|(l, p)| (l.clone(), p.erase())).collect())
                }
                Package::Bag(_, inner) => Type::Bag(Box::new(inner.erase())),
            }
        }
    }

    fn result_type() -> Type {
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
    fn shredded_types_of_the_running_example() {
        let ty = result_type();
        let paths = ty.paths();
        let a1 = shred_type(&ty, &paths[0]).unwrap();
        let a2 = shred_type(&ty, &paths[1]).unwrap();
        let a3 = shred_type(&ty, &paths[2]).unwrap();
        // A1 = Bag ⟨Index, ⟨department: String, people: Index⟩⟩
        assert_eq!(
            a1.inner,
            FlatType::Record(vec![
                ("department".to_string(), FlatType::Base(BaseType::String)),
                ("people".to_string(), FlatType::Index),
            ])
        );
        // A2 = Bag ⟨Index, ⟨name: String, tasks: Index⟩⟩
        assert_eq!(
            a2.inner,
            FlatType::Record(vec![
                ("name".to_string(), FlatType::Base(BaseType::String)),
                ("tasks".to_string(), FlatType::Index),
            ])
        );
        // A3 = Bag ⟨Index, String⟩
        assert_eq!(a3.inner, FlatType::Base(BaseType::String));
    }

    #[test]
    fn erase_is_left_inverse_of_type_shredding() {
        let ty = result_type();
        let pkg = package_by(&ty, &mut |p| shred_type(&ty, p)).unwrap();
        assert_eq!(pkg.erase(), ty);
        assert_eq!(pkg.nesting_degree(), 3);
    }

    #[test]
    fn package_annotation_order_matches_type_paths() {
        let ty = result_type();
        let pkg = package_by::<Path, ShredError>(&ty, &mut |p| Ok(p.clone())).unwrap();
        let annots: Vec<Path> = pkg.annotations().into_iter().cloned().collect();
        assert_eq!(annots, ty.paths());
    }

    #[test]
    fn bad_paths_are_rejected() {
        let ty = result_type();
        let bad = Path::empty().extend_label("nope");
        assert!(matches!(shred_type(&ty, &bad), Err(ShredError::BadPath(_))));
    }
}
