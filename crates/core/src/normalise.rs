//! Query normalisation (Section 2.2 and Appendix C of the paper).
//!
//! Normalisation proceeds in three stages:
//!
//! 1. **Symbolic evaluation** (the rewrite relation ;c): β-reduction for
//!    functions, records, conditionals and singleton-bag comprehensions, plus
//!    commuting conversions that hoist `for`, `if`, `∅` and `⊎` out of
//!    elimination frames. This eliminates all higher-order features.
//! 2. **If-hoisting** (the rewrite relation ;h): conditionals are hoisted out
//!    of primitive applications, records, unions and singletons so that every
//!    conditional ends up directly under a comprehension, where stage 3 can
//!    turn it into a `where` clause.
//! 3. A **type-directed structural pass** that produces the normal form of
//!    [`crate::nf`], assigning a fresh static index to every `return`.
//!
//! The two rewrite relations are each strongly normalising (Theorem 15 and
//! Proposition 17 in the paper) on well-typed terms; stages 1 and 2 run as
//! their union, contracting the **leftmost-outermost** redex until none is
//! left. `Rewriter` does that in one recursive pass over an owned term:
//!
//! ```text
//! normalise(M, frame):                    frame = what M's parent fires on
//!   loop
//!     while M's root is a redex: contract it (operands moved, not cloned);
//!                                if the parent fires on the new M: return
//!     for each child of M, left to right: normalise(child, M's frame for it);
//!                                if it returned early, M's root is now a
//!                                redex: back to the top of the loop
//!     no child fired: M is normal
//! ```
//!
//! Whether a node is a redex depends only on the root constructors of its
//! direct children (`Frame::fires_on`), and a subterm's root constructor
//! changes only when a redex at its own root is contracted. So the redex the
//! pass contracts next is always the one a search from the top of the whole
//! term (root first, then children left to right) would find — the order of
//! the one-step-and-restart loop this replaced, which tests keep as the
//! reference — and the pass reaches *the same term*, bound names, conditional
//! nesting and all, without rebuilding the spine or re-cloning the siblings
//! of every redex. Rewriting precedes type inference, so it can be handed a
//! term with no normal form; three budgets (`MAX_REWRITE_STEPS`,
//! `MAX_REWRITE_NODES`, `MAX_REWRITE_DEPTH`) turn that into
//! [`ShredError::RewriteDiverged`].

use crate::error::ShredError;
use crate::nf::{Comprehension, Generator, NfBase, NfTerm, NormQuery, StaticIndex};
use nrc::schema::Schema;
use nrc::term::{Constant, PrimOp, Term};
use nrc::typecheck::{infer, Context};
use nrc::types::Type;

/// Redexes one rewrite may contract. The benchmark queries need 37 at most
/// (a test holds them under 1 % of this); `(λx. x x)(λx. x x)` needs more
/// than any number, and gets its answer in about ten milliseconds.
const MAX_REWRITE_STEPS: usize = 20_000;

/// Nodes one rewrite may produce, summed over the reducts of every
/// contraction (913 for the largest benchmark query): the bound on a term
/// that grows instead of looping, and so on the memory a rewrite can take.
const MAX_REWRITE_NODES: usize = 1_000_000;

/// How deep below the root the rewriter descends. It recurses once per level,
/// so this is what keeps a term that grows *downwards* — `(λx. x x x)`
/// applied to itself — from exhausting the stack.
const MAX_REWRITE_DEPTH: usize = 512;

/// Normalise a closed flat–nested query to its normal form, assigning fresh
/// static indexes to every comprehension (Theorem 1).
pub fn normalise(term: &Term, schema: &Schema) -> Result<NormQuery, ShredError> {
    normalise_with_type(term, schema).map(|(q, _)| q)
}

/// Normalise a closed flat–nested query, also returning its (nested) result
/// type. The type is inferred *after* the rewriting stages, when all
/// higher-order features have been eliminated, so queries built with
/// λ-abstractions in argument position are accepted.
pub fn normalise_with_type(term: &Term, schema: &Schema) -> Result<(NormQuery, Type), ShredError> {
    normalise_with_type_obs(term, schema, None)
}

/// [`normalise_with_type`] with stage tracing: the rewrite passes record a
/// `Stage::Normalise` span (two spans — readers sum them) and type inference
/// a `Stage::Typecheck` span into the per-call collector when one is present.
pub(crate) fn normalise_with_type_obs(
    term: &Term,
    schema: &Schema,
    obs: Option<&obs::QueryObs>,
) -> Result<(NormQuery, Type), ShredError> {
    let rewritten = obs::time_maybe(obs, obs::Stage::Normalise, || rewrite_to_normal_form(term))?;
    let ty = obs::time_maybe(obs, obs::Stage::Typecheck, || {
        nrc::typecheck::typecheck(&rewritten, schema).map_err(ShredError::Type)
    })?;
    let query = obs::time_maybe(obs, obs::Stage::Normalise, || {
        normalise_rewritten(&rewritten, &ty, schema)
    })?;
    Ok((query, ty))
}

/// Normalise a closed query whose type is already known.
pub fn normalise_at(term: &Term, ty: &Type, schema: &Schema) -> Result<NormQuery, ShredError> {
    let rewritten = rewrite_to_normal_form(term)?;
    normalise_rewritten(&rewritten, ty, schema)
}

/// Run the structural (stage-3) pass on an already-rewritten term.
fn normalise_rewritten(
    rewritten: &Term,
    ty: &Type,
    schema: &Schema,
) -> Result<NormQuery, ShredError> {
    let elem = match ty {
        Type::Bag(elem) => elem.as_ref(),
        other => return Err(ShredError::NotAQuery(other.to_string())),
    };
    if !ty.is_nested() {
        return Err(ShredError::NotFlatNested(ty.to_string()));
    }
    let mut normaliser = Normaliser {
        schema,
        next_tag: 1,
        fresh_var: 0,
    };
    let branches = normaliser.comprehensions(
        rewritten,
        elem,
        Vec::new(),
        NfBase::truth(),
        &Context::empty(),
    )?;
    Ok(NormQuery { branches })
}

/// Apply the rewrite relations ;c and ;h to a fixed point.
pub fn rewrite_to_normal_form(term: &Term) -> Result<Term, ShredError> {
    let mut term = term.clone();
    match Rewriter::default().normalise(&mut term, Frame::Inert, 0) {
        Ok(_) => Ok(term),
        Err(OutOfBudget) => Err(ShredError::RewriteDiverged),
    }
}

/// A rewrite ran out of one of its budgets. (Zero-sized, unlike
/// [`ShredError`]: the rewriter's stack frame holds one result per child.)
#[derive(Debug)]
struct OutOfBudget;

/// The position of a subterm in its parent, as far as rewriting cares: which
/// root constructors of the subterm make the *parent* a redex.
#[derive(Debug, Clone, Copy)]
enum Frame<'a> {
    /// No rule looks at this position: the top of the term, a λ body, an
    /// argument, a branch of a conditional, a comprehension body, the
    /// operand of `empty`.
    Inert,
    /// `□ N` fires on a λ (β) and on a conditional (hoisted out).
    Function,
    /// `□.ℓ` fires on a record that has the field and on a conditional.
    Subject(&'a str),
    /// `if □ then … else …` fires on a boolean constant and on a conditional.
    Test,
    /// `for (x ← □) …` fires on `return`, `∅`, `⊎`, a conditional and `for`.
    Source,
    /// A primitive's argument, a record field, the operand of `return` and
    /// either side of `⊎`: a conditional is hoisted out (;h).
    Hoist,
}

impl Frame<'_> {
    /// Is the parent a redex with `child` in this position?
    fn fires_on(self, child: &Term) -> bool {
        match (self, child) {
            (Frame::Inert, _) => false,
            (_, Term::If(..)) => true,
            (Frame::Function, Term::Lam(..)) => true,
            (Frame::Subject(label), Term::Record(fields)) => fields.iter().any(|(l, _)| l == label),
            (Frame::Test, Term::Const(Constant::Bool(_))) => true,
            (
                Frame::Source,
                Term::Singleton(_) | Term::EmptyBag(_) | Term::Union(..) | Term::For(..),
            ) => true,
            _ => false,
        }
    }
}

/// Is there a rewrite rule for the root of `term`?
fn is_redex(term: &Term) -> bool {
    match term {
        Term::App(f, _) => Frame::Function.fires_on(f),
        Term::Project(t, label) => Frame::Subject(label).fires_on(t),
        Term::If(c, _, _) => Frame::Test.fires_on(c),
        Term::For(_, src, _) => Frame::Source.fires_on(src),
        Term::PrimApp(_, args) => args.iter().any(|a| Frame::Hoist.fires_on(a)),
        Term::Record(fields) => fields.iter().any(|(_, v)| Frame::Hoist.fires_on(v)),
        Term::Singleton(t) => Frame::Hoist.fires_on(t),
        Term::Union(l, r) => Frame::Hoist.fires_on(l) || Frame::Hoist.fires_on(r),
        Term::Var(_)
        | Term::Const(_)
        | Term::Param(..)
        | Term::Table(_)
        | Term::EmptyBag(_)
        | Term::Lam(..)
        | Term::Empty(_) => false,
    }
}

/// The big-step rewriter: the budgets spent so far.
#[derive(Debug, Default)]
struct Rewriter {
    /// Redexes contracted.
    steps: usize,
    /// Nodes of every reduct, summed.
    nodes: usize,
}

impl Rewriter {
    /// Rewrite `term` to ;c/;h normal form in place, leftmost-outermost.
    /// Returns early, with `true`, as soon as a contraction at the root of
    /// `term` leaves a term `frame` fires on: the parent is a redex now and
    /// goes first. `false` means `term` is normal.
    fn normalise(
        &mut self,
        term: &mut Term,
        frame: Frame<'_>,
        depth: usize,
    ) -> Result<bool, OutOfBudget> {
        if depth > MAX_REWRITE_DEPTH {
            return Err(OutOfBudget);
        }
        let below = depth + 1;
        loop {
            while is_redex(term) {
                self.contract_root(term)?;
                if frame.fires_on(term) {
                    return Ok(true);
                }
            }
            let fired = match term {
                Term::Var(_)
                | Term::Const(_)
                | Term::Param(..)
                | Term::Table(_)
                | Term::EmptyBag(_) => false,
                Term::Lam(_, body) => self.normalise(body, Frame::Inert, below)?,
                Term::Empty(t) => self.normalise(t, Frame::Inert, below)?,
                Term::App(f, a) => {
                    self.normalise(f, Frame::Function, below)?
                        || self.normalise(a, Frame::Inert, below)?
                }
                Term::Project(t, label) => self.normalise(t, Frame::Subject(label), below)?,
                Term::If(c, t, e) => {
                    self.normalise(c, Frame::Test, below)?
                        || self.normalise(t, Frame::Inert, below)?
                        || self.normalise(e, Frame::Inert, below)?
                }
                Term::For(_, src, body) => {
                    self.normalise(src, Frame::Source, below)?
                        || self.normalise(body, Frame::Inert, below)?
                }
                Term::Singleton(t) => self.normalise(t, Frame::Hoist, below)?,
                Term::Union(l, r) => {
                    self.normalise(l, Frame::Hoist, below)?
                        || self.normalise(r, Frame::Hoist, below)?
                }
                Term::PrimApp(_, args) => self.normalise_each(args.iter_mut(), below)?,
                Term::Record(fields) => {
                    self.normalise_each(fields.iter_mut().map(|(_, v)| v), below)?
                }
            };
            if !fired {
                return Ok(false);
            }
        }
    }

    /// [`normalise`](Self::normalise) the arguments of a primitive or the
    /// fields of a record in turn, up to the first that turns into a
    /// conditional.
    fn normalise_each<'t>(
        &mut self,
        children: impl Iterator<Item = &'t mut Term>,
        below: usize,
    ) -> Result<bool, OutOfBudget> {
        for child in children {
            if self.normalise(child, Frame::Hoist, below)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Contract the redex at the root of `term`, charging the budgets.
    fn contract_root(&mut self, term: &mut Term) -> Result<(), OutOfBudget> {
        let redex = std::mem::replace(term, Term::EmptyBag(None));
        *term = contract(redex);
        self.steps += 1;
        self.nodes += term.size();
        if self.steps > MAX_REWRITE_STEPS || self.nodes > MAX_REWRITE_NODES {
            return Err(OutOfBudget);
        }
        Ok(())
    }
}

fn conditional(c: Box<Term>, then: Term, otherwise: Term) -> Term {
    Term::If(c, Box::new(then), Box::new(otherwise))
}

/// Take the parts of the conditional in `slot`, leaving a placeholder.
fn take_conditional(slot: &mut Term) -> Option<(Box<Term>, Box<Term>, Box<Term>)> {
    match std::mem::replace(slot, Term::EmptyBag(None)) {
        Term::If(c, t, e) => Some((c, t, e)),
        other => {
            *slot = other;
            None
        }
    }
}

/// Hoist the first conditional among `items` (the arguments of a primitive,
/// the fields of a record) out of them: its condition, and the items with
/// its `then` and with its `else` branch in its place. `None`, with `items`
/// untouched, if there is no conditional.
fn hoist_first<T: Clone>(
    items: &mut [T],
    slot: impl Fn(&mut T) -> &mut Term,
) -> Option<(Box<Term>, Vec<T>)> {
    let (i, (c, t, e)) = items
        .iter_mut()
        .enumerate()
        .find_map(|(i, item)| take_conditional(slot(item)).map(|parts| (i, parts)))?;
    let mut then_items = items.to_vec();
    *slot(&mut then_items[i]) = *t;
    *slot(&mut items[i]) = *e;
    Some((c, then_items))
}

/// Apply the rewrite rule for the root of `redex`, moving its operands into
/// the reduct; only what a rule duplicates is cloned, and only the β-rules
/// substitute. A term that is no redex comes back as it was.
fn contract(redex: Term) -> Term {
    match redex {
        // ---- β-rules and commuting conversions (;c) ----
        Term::App(mut f, a) => match *f {
            Term::Lam(x, body) => body.subst(&x, &a),
            // Hoist `if` out of the function position.
            Term::If(c, t, e) => conditional(c, Term::App(t, a.clone()), Term::App(e, a)),
            other => {
                *f = other;
                Term::App(f, a)
            }
        },
        Term::Project(mut t, label) => match *t {
            Term::Record(mut fields) => match fields.iter().position(|(l, _)| *l == label) {
                Some(i) => fields.swap_remove(i).1,
                None => {
                    *t = Term::Record(fields);
                    Term::Project(t, label)
                }
            },
            Term::If(c, l, r) => {
                conditional(c, Term::Project(l, label.clone()), Term::Project(r, label))
            }
            other => {
                *t = other;
                Term::Project(t, label)
            }
        },
        Term::If(mut c, t, e) => match *c {
            Term::Const(Constant::Bool(true)) => *t,
            Term::Const(Constant::Bool(false)) => *e,
            // Hoist a conditional out of the condition position.
            Term::If(c2, t2, e2) => {
                conditional(c2, Term::If(t2, t.clone(), e.clone()), Term::If(e2, t, e))
            }
            other => {
                *c = other;
                Term::If(c, t, e)
            }
        },
        Term::For(x, mut src, body) => match *src {
            // for (x ← return M) N  ⇝  N[x := M]
            Term::Singleton(m) => body.subst(&x, &m),
            // for (x ← ∅) N  ⇝  ∅
            Term::EmptyBag(_) => Term::EmptyBag(None),
            // for (x ← M₁ ⊎ M₂) N  ⇝  for (x ← M₁) N ⊎ for (x ← M₂) N
            Term::Union(m1, m2) => Term::Union(
                Box::new(Term::For(x.clone(), m1, body.clone())),
                Box::new(Term::For(x, m2, body)),
            ),
            // for (x ← if L then M else N) P  ⇝  if L then … else …
            Term::If(c, t, e) => conditional(
                c,
                Term::For(x.clone(), t, body.clone()),
                Term::For(x, e, body),
            ),
            // for (x ← for (y ← M) N) P  ⇝  for (y ← M) for (x ← N) P
            Term::For(y, m, n) => {
                let (y, n) = avoid_capture(y, n, &body);
                Term::For(y, m, Box::new(Term::For(x, n, body)))
            }
            other => {
                *src = other;
                Term::For(x, src, body)
            }
        },
        // ---- if-hoisting (;h) ----
        Term::PrimApp(op, mut args) => match hoist_first(&mut args, |a| a) {
            Some((c, then_args)) => {
                conditional(c, Term::PrimApp(op, then_args), Term::PrimApp(op, args))
            }
            None => Term::PrimApp(op, args),
        },
        Term::Record(mut fields) => match hoist_first(&mut fields, |(_, v)| v) {
            Some((c, then_fields)) => {
                conditional(c, Term::Record(then_fields), Term::Record(fields))
            }
            None => Term::Record(fields),
        },
        Term::Singleton(mut inner) => match *inner {
            Term::If(c, t, e) => conditional(c, Term::Singleton(t), Term::Singleton(e)),
            other => {
                *inner = other;
                Term::Singleton(inner)
            }
        },
        Term::Union(mut l, mut r) => {
            if let Some((c, t, e)) = take_conditional(&mut l) {
                conditional(c, Term::Union(t, r.clone()), Term::Union(e, r))
            } else if let Some((c, t, e)) = take_conditional(&mut r) {
                conditional(c, Term::Union(l.clone(), t), Term::Union(l, e))
            } else {
                Term::Union(l, r)
            }
        }
        other => other,
    }
}

/// Rename the binder of a comprehension body if it would capture a free
/// variable of `other`, to a name that is free in neither.
fn avoid_capture(binder: String, body: Box<Term>, other: &Term) -> (String, Box<Term>) {
    let other_free = other.free_vars();
    if !other_free.contains(&binder) {
        return (binder, body);
    }
    let body_free = body.free_vars();
    let mut fresh = binder.clone();
    loop {
        fresh.push('~');
        if !other_free.contains(&fresh) && !body_free.contains(&fresh) {
            break;
        }
    }
    let renamed = body.subst(&binder, &Term::Var(fresh.clone()));
    (fresh, Box::new(renamed))
}

/// The stage-3 structural normaliser.
struct Normaliser<'a> {
    schema: &'a Schema,
    next_tag: u32,
    fresh_var: usize,
}

impl<'a> Normaliser<'a> {
    fn fresh_tag(&mut self) -> StaticIndex {
        let t = StaticIndex(self.next_tag);
        self.next_tag += 1;
        t
    }

    fn fresh_var(&mut self) -> String {
        self.fresh_var += 1;
        format!("η{}", self.fresh_var)
    }

    /// `B⟦M⟧*_{A, G⃗, L}`: the comprehensions of a bag-typed term.
    fn comprehensions(
        &mut self,
        term: &Term,
        elem_ty: &Type,
        gens: Vec<Generator>,
        cond: NfBase,
        ctx: &Context,
    ) -> Result<Vec<Comprehension>, ShredError> {
        match term {
            Term::Singleton(body) => {
                let tag = self.fresh_tag();
                let body = self.norm_term(body, elem_ty, ctx)?;
                Ok(vec![Comprehension {
                    generators: gens,
                    condition: cond,
                    tag,
                    body,
                }])
            }
            Term::For(x, src, body) => match src.as_ref() {
                Term::Table(t) => {
                    let table = self
                        .schema
                        .table(t)
                        .ok_or_else(|| ShredError::Type(nrc::TypeError::NoSuchTable(t.clone())))?;
                    // Rename the bound variable so that all generators of the
                    // whole normal form are distinct (the paper assumes this
                    // before let-insertion; it also keeps correlated SQL
                    // subqueries unambiguous). The name is sanitised so it is
                    // always a valid SQL identifier, even if rewriting minted
                    // helper names with punctuation.
                    self.fresh_var += 1;
                    let sanitised: String = x
                        .chars()
                        .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    let stem = if sanitised.is_empty() {
                        "v"
                    } else {
                        &sanitised
                    };
                    let fresh = format!("{}_{}", stem, self.fresh_var);
                    let body = body.subst(x, &Term::Var(fresh.clone()));
                    let ctx = ctx.extend(&fresh, table.row_type());
                    let mut gens = gens;
                    gens.push(Generator::new(&fresh, t));
                    self.comprehensions(&body, elem_ty, gens, cond, &ctx)
                }
                other => Err(ShredError::NotInNormalForm(format!(
                    "comprehension source is not a table: {}",
                    other
                ))),
            },
            Term::Table(t) => {
                // B⟦table t⟧* = B⟦for (x ← t) return x⟧* for fresh x.
                let x = self.fresh_var();
                let expanded = Term::For(
                    x.clone(),
                    Box::new(Term::Table(t.clone())),
                    Box::new(Term::Singleton(Box::new(Term::Var(x)))),
                );
                self.comprehensions(&expanded, elem_ty, gens, cond, ctx)
            }
            Term::EmptyBag(_) => Ok(Vec::new()),
            Term::Union(l, r) => {
                let mut out = self.comprehensions(l, elem_ty, gens.clone(), cond.clone(), ctx)?;
                out.extend(self.comprehensions(r, elem_ty, gens, cond, ctx)?);
                Ok(out)
            }
            Term::If(c, t, e) => {
                let test = self.norm_base(c, ctx)?;
                let mut out = self.comprehensions(
                    t,
                    elem_ty,
                    gens.clone(),
                    cond.clone().and(test.clone()),
                    ctx,
                )?;
                out.extend(self.comprehensions(e, elem_ty, gens, cond.and(test.negate()), ctx)?);
                Ok(out)
            }
            other => Err(ShredError::NotInNormalForm(format!(
                "unexpected bag-typed term after rewriting: {}",
                other
            ))),
        }
    }

    /// `⟦M⟧_A`: normalise a term at a given type.
    fn norm_term(&mut self, term: &Term, ty: &Type, ctx: &Context) -> Result<NfTerm, ShredError> {
        match ty {
            Type::Base(_) => Ok(NfTerm::Base(self.norm_base(term, ctx)?)),
            Type::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (label, field_ty) in fields {
                    let projected = self.project_field(term, label)?;
                    out.push((label.clone(), self.norm_term(&projected, field_ty, ctx)?));
                }
                Ok(NfTerm::Record(out))
            }
            Type::Bag(elem) => {
                let branches = self.comprehensions(term, elem, Vec::new(), NfBase::truth(), ctx)?;
                Ok(NfTerm::Query(NormQuery { branches }))
            }
            Type::Fun(_, _) => Err(ShredError::NotFlatNested(ty.to_string())),
        }
    }

    /// `F⟦M⟧_{A,ℓ}`: project a field of a record-typed normalised term,
    /// η-expanding variables.
    fn project_field(&mut self, term: &Term, label: &str) -> Result<Term, ShredError> {
        match term {
            Term::Record(fields) => fields
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| {
                    ShredError::NotInNormalForm(format!("record without field {}", label))
                }),
            Term::Var(x) => Ok(Term::Project(
                Box::new(Term::Var(x.clone())),
                label.to_string(),
            )),
            // A projection of a projection (x.ℓ.ℓ′) can only arise from nested
            // record columns, which flat tables do not have, but handle it for
            // robustness.
            Term::Project(_, _) => Ok(Term::Project(Box::new(term.clone()), label.to_string())),
            other => Err(ShredError::NotInNormalForm(format!(
                "cannot project field {} from {}",
                label, other
            ))),
        }
    }

    /// `⟦X⟧_O`: normalise a base-typed term.
    fn norm_base(&mut self, term: &Term, ctx: &Context) -> Result<NfBase, ShredError> {
        match term {
            Term::Project(inner, field) => match inner.as_ref() {
                Term::Var(x) => Ok(NfBase::Proj {
                    var: x.clone(),
                    field: field.clone(),
                }),
                other => Err(ShredError::NotInNormalForm(format!(
                    "projection from non-variable {}",
                    other
                ))),
            },
            Term::Const(c) => Ok(NfBase::Const(c.clone())),
            Term::Param(name, ty) => Ok(NfBase::Param(name.clone(), *ty)),
            Term::PrimApp(op, args) => Ok(NfBase::Prim(
                *op,
                args.iter()
                    .map(|a| self.norm_base(a, ctx))
                    .collect::<Result<_, _>>()?,
            )),
            Term::Empty(inner) => {
                let inner_ty = infer(inner, ctx, self.schema).map_err(ShredError::Type)?;
                let elem = match &inner_ty {
                    Type::Bag(elem) => elem.as_ref().clone(),
                    other => return Err(ShredError::NotAQuery(other.to_string())),
                };
                let branches =
                    self.comprehensions(inner, &elem, Vec::new(), NfBase::truth(), ctx)?;
                Ok(NfBase::IsEmpty(Box::new(NormQuery { branches })))
            }
            // A residual boolean conditional (possible when stage-2 hoisting
            // pushed an `if` into a condition position): encode it with
            // boolean connectives, which is sound at type Bool.
            Term::If(c, t, e) => {
                let c = self.norm_base(c, ctx)?;
                let t = self.norm_base(t, ctx)?;
                let e = self.norm_base(e, ctx)?;
                Ok(NfBase::Prim(
                    PrimOp::Or,
                    vec![
                        NfBase::Prim(PrimOp::And, vec![c.clone(), t]),
                        NfBase::Prim(PrimOp::And, vec![c.negate(), e]),
                    ],
                ))
            }
            other => Err(ShredError::NotInNormalForm(format!(
                "unexpected base-typed term after rewriting: {}",
                other
            ))),
        }
    }
}

/// The rewriter this module used before [`Rewriter`]: find one redex from the
/// top (root first, then children left to right), rebuild the term around
/// its reduct, start again. Kept as the specification of the reduction order:
/// the tests hold [`rewrite_to_normal_form`] to the same *term*, step for
/// step.
#[cfg(test)]
mod reference {
    use super::{avoid_capture, Constant, Term};

    /// The normal form of `term` and the number of steps taken to reach it.
    pub(super) fn rewrite(term: &Term) -> (Term, usize) {
        let mut current = term.clone();
        let mut steps = 0;
        while let Some(next) = step(&current) {
            current = next;
            steps += 1;
        }
        (current, steps)
    }

    /// Perform a single rewrite step anywhere in the term (outermost first),
    /// or return `None` if the term is in ;c/;h normal form.
    fn step(term: &Term) -> Option<Term> {
        if let Some(t) = step_root(term) {
            return Some(t);
        }
        // Recurse into children, left to right.
        match term {
            Term::Var(_)
            | Term::Const(_)
            | Term::Param(_, _)
            | Term::Table(_)
            | Term::EmptyBag(_) => None,
            Term::PrimApp(op, args) => step_in_list(args).map(|args| Term::PrimApp(*op, args)),
            Term::If(c, t, e) => step_in_three(c, t, e)
                .map(|(c, t, e)| Term::If(Box::new(c), Box::new(t), Box::new(e))),
            Term::Lam(x, b) => step(b).map(|b| Term::Lam(x.clone(), Box::new(b))),
            Term::App(f, a) => step_in_two(f, a).map(|(f, a)| Term::App(Box::new(f), Box::new(a))),
            Term::Record(fields) => {
                for (i, (_, t)) in fields.iter().enumerate() {
                    if let Some(t2) = step(t) {
                        let mut fields = fields.clone();
                        fields[i].1 = t2;
                        return Some(Term::Record(fields));
                    }
                }
                None
            }
            Term::Project(t, l) => step(t).map(|t| Term::Project(Box::new(t), l.clone())),
            Term::Empty(t) => step(t).map(|t| Term::Empty(Box::new(t))),
            Term::Singleton(t) => step(t).map(|t| Term::Singleton(Box::new(t))),
            Term::Union(l, r) => {
                step_in_two(l, r).map(|(l, r)| Term::Union(Box::new(l), Box::new(r)))
            }
            Term::For(x, s, b) => {
                step_in_two(s, b).map(|(s, b)| Term::For(x.clone(), Box::new(s), Box::new(b)))
            }
        }
    }

    fn step_in_two(a: &Term, b: &Term) -> Option<(Term, Term)> {
        if let Some(a2) = step(a) {
            return Some((a2, b.clone()));
        }
        step(b).map(|b2| (a.clone(), b2))
    }

    fn step_in_three(a: &Term, b: &Term, c: &Term) -> Option<(Term, Term, Term)> {
        if let Some(a2) = step(a) {
            return Some((a2, b.clone(), c.clone()));
        }
        if let Some(b2) = step(b) {
            return Some((a.clone(), b2, c.clone()));
        }
        step(c).map(|c2| (a.clone(), b.clone(), c2))
    }

    fn step_in_list(items: &[Term]) -> Option<Vec<Term>> {
        for (i, t) in items.iter().enumerate() {
            if let Some(t2) = step(t) {
                let mut items = items.to_vec();
                items[i] = t2;
                return Some(items);
            }
        }
        None
    }

    /// Try all root-level rewrite rules.
    fn step_root(term: &Term) -> Option<Term> {
        match term {
            // ---- β-rules (;c) ----
            Term::App(f, a) => match f.as_ref() {
                Term::Lam(x, body) => Some(body.subst(x, a)),
                // Commuting conversion: hoist `if` out of the function position.
                Term::If(c, t, e) => Some(Term::If(
                    c.clone(),
                    Box::new(Term::App(t.clone(), a.clone())),
                    Box::new(Term::App(e.clone(), a.clone())),
                )),
                _ => None,
            },
            Term::Project(t, label) => match t.as_ref() {
                Term::Record(fields) => fields
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| v.clone()),
                Term::If(c, l, r) => Some(Term::If(
                    c.clone(),
                    Box::new(Term::Project(l.clone(), label.clone())),
                    Box::new(Term::Project(r.clone(), label.clone())),
                )),
                _ => None,
            },
            Term::If(c, t, e) => match c.as_ref() {
                Term::Const(Constant::Bool(true)) => Some((**t).clone()),
                Term::Const(Constant::Bool(false)) => Some((**e).clone()),
                // Hoist a conditional out of the condition position.
                Term::If(c2, t2, e2) => Some(Term::If(
                    c2.clone(),
                    Box::new(Term::If(t2.clone(), t.clone(), e.clone())),
                    Box::new(Term::If(e2.clone(), t.clone(), e.clone())),
                )),
                _ => None,
            },
            Term::For(x, src, body) => match src.as_ref() {
                // for (x ← return M) N  ⇝  N[x := M]
                Term::Singleton(m) => Some(body.subst(x, m)),
                // for (x ← ∅) N  ⇝  ∅
                Term::EmptyBag(_) => Some(Term::EmptyBag(None)),
                // for (x ← M₁ ⊎ M₂) N  ⇝  for (x ← M₁) N ⊎ for (x ← M₂) N
                Term::Union(m1, m2) => Some(Term::Union(
                    Box::new(Term::For(x.clone(), m1.clone(), body.clone())),
                    Box::new(Term::For(x.clone(), m2.clone(), body.clone())),
                )),
                // for (x ← if L then M else N) P  ⇝  if L then … else …
                Term::If(c, t, e) => Some(Term::If(
                    c.clone(),
                    Box::new(Term::For(x.clone(), t.clone(), body.clone())),
                    Box::new(Term::For(x.clone(), e.clone(), body.clone())),
                )),
                // for (x ← for (y ← M) N) P  ⇝  for (y ← M) for (x ← N) P
                Term::For(y, m, n) => {
                    let (y2, n2) = avoid_capture(y.clone(), n.clone(), body);
                    Some(Term::For(
                        y2,
                        m.clone(),
                        Box::new(Term::For(x.clone(), n2, body.clone())),
                    ))
                }
                _ => None,
            },
            // ---- if-hoisting (;h) ----
            Term::PrimApp(op, args) => {
                for (i, a) in args.iter().enumerate() {
                    if let Term::If(c, t, e) = a {
                        let mut then_args = args.clone();
                        then_args[i] = (**t).clone();
                        let mut else_args = args.clone();
                        else_args[i] = (**e).clone();
                        return Some(Term::If(
                            c.clone(),
                            Box::new(Term::PrimApp(*op, then_args)),
                            Box::new(Term::PrimApp(*op, else_args)),
                        ));
                    }
                }
                None
            }
            Term::Record(fields) => {
                for (i, (_, v)) in fields.iter().enumerate() {
                    if let Term::If(c, t, e) = v {
                        let mut then_fields = fields.clone();
                        then_fields[i].1 = (**t).clone();
                        let mut else_fields = fields.clone();
                        else_fields[i].1 = (**e).clone();
                        return Some(Term::If(
                            c.clone(),
                            Box::new(Term::Record(then_fields)),
                            Box::new(Term::Record(else_fields)),
                        ));
                    }
                }
                None
            }
            Term::Singleton(inner) => match inner.as_ref() {
                Term::If(c, t, e) => Some(Term::If(
                    c.clone(),
                    Box::new(Term::Singleton(t.clone())),
                    Box::new(Term::Singleton(e.clone())),
                )),
                _ => None,
            },
            Term::Union(l, r) => {
                if let Term::If(c, t, e) = l.as_ref() {
                    return Some(Term::If(
                        c.clone(),
                        Box::new(Term::Union(t.clone(), r.clone())),
                        Box::new(Term::Union(e.clone(), r.clone())),
                    ));
                }
                if let Term::If(c, t, e) = r.as_ref() {
                    return Some(Term::If(
                        c.clone(),
                        Box::new(Term::Union(l.clone(), t.clone())),
                        Box::new(Term::Union(l.clone(), e.clone())),
                    ));
                }
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrc::builder::*;
    use nrc::schema::{Database, TableSchema};
    use nrc::stdlib;
    use nrc::types::BaseType;
    use nrc::value::Value;

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new(
                    "departments",
                    vec![("id", BaseType::Int), ("name", BaseType::String)],
                )
                .with_key(vec!["id"]),
            )
            .with_table(
                TableSchema::new(
                    "employees",
                    vec![
                        ("id", BaseType::Int),
                        ("dept", BaseType::String),
                        ("name", BaseType::String),
                        ("salary", BaseType::Int),
                    ],
                )
                .with_key(vec!["id"]),
            )
            .with_table(
                TableSchema::new(
                    "tasks",
                    vec![
                        ("id", BaseType::Int),
                        ("employee", BaseType::String),
                        ("task", BaseType::String),
                    ],
                )
                .with_key(vec!["id"]),
            )
    }

    fn db() -> Database {
        let mut db = Database::new(schema());
        for (id, name) in [(1, "Product"), (2, "Research"), (3, "Sales")] {
            db.insert_row(
                "departments",
                vec![("id", Value::Int(id)), ("name", Value::string(name))],
            )
            .unwrap();
        }
        for (id, dept, name, salary) in [
            (1, "Product", "Alex", 20000),
            (2, "Product", "Bert", 900),
            (3, "Research", "Cora", 50000),
            (4, "Sales", "Erik", 2000000),
        ] {
            db.insert_row(
                "employees",
                vec![
                    ("id", Value::Int(id)),
                    ("dept", Value::string(dept)),
                    ("name", Value::string(name)),
                    ("salary", Value::Int(salary)),
                ],
            )
            .unwrap();
        }
        for (id, emp, task) in [
            (1, "Alex", "build"),
            (2, "Bert", "build"),
            (3, "Cora", "abstract"),
            (4, "Erik", "call"),
        ] {
            db.insert_row(
                "tasks",
                vec![
                    ("id", Value::Int(id)),
                    ("employee", Value::string(emp)),
                    ("task", Value::string(task)),
                ],
            )
            .unwrap();
        }
        db
    }

    /// Normalisation must preserve the nested semantics (Theorem 1).
    fn assert_norm_preserves(q: &Term) {
        let schema = schema();
        let db = db();
        let original = nrc::eval(q, &db).unwrap();
        let normal = normalise(q, &schema).unwrap();
        let renormalised = nrc::eval(&normal.to_term(), &db).unwrap();
        assert!(
            original.multiset_eq(&renormalised),
            "normalisation changed semantics:\n  original: {}\n  normal:  {}",
            original,
            renormalised
        );
    }

    #[test]
    fn beta_reduction_eliminates_applications() {
        let q = app(
            lam(
                "p",
                for_where(
                    "e",
                    table("employees"),
                    app(var("p"), var("e")),
                    singleton(project(var("e"), "name")),
                ),
            ),
            lam("x", gt(project(var("x"), "salary"), int(1000))),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 1);
        assert_norm_preserves(&q);
    }

    #[test]
    fn higher_order_combinators_normalise_to_flat_comprehensions() {
        let q = stdlib::filter_fn(
            lam("y", gt(project(var("y"), "salary"), int(1000))),
            table("employees"),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 1);
        assert_eq!(n.branches[0].generators.len(), 1);
        assert_norm_preserves(&q);
    }

    #[test]
    fn nested_for_sources_are_flattened() {
        // for (x ← for (y ← employees) return y) return x.name
        let q = for_in(
            "x",
            for_in("y", table("employees"), singleton(var("y"))),
            singleton(project(var("x"), "name")),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 1);
        assert_eq!(n.branches[0].generators.len(), 1);
        assert_norm_preserves(&q);
    }

    #[test]
    fn unions_are_hoisted_to_the_top() {
        let q = for_in(
            "x",
            union(
                for_where(
                    "e",
                    table("employees"),
                    lt(project(var("e"), "salary"), int(1000)),
                    singleton(var("e")),
                ),
                for_where(
                    "e",
                    table("employees"),
                    gt(project(var("e"), "salary"), int(100000)),
                    singleton(var("e")),
                ),
            ),
            singleton(project(var("x"), "name")),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 2);
        assert_norm_preserves(&q);
    }

    #[test]
    fn conditionals_become_where_clauses() {
        // for (e ← employees) (if e.salary > 1000 then return e.name else ∅)
        let q = for_in(
            "e",
            table("employees"),
            if_then_else(
                gt(project(var("e"), "salary"), int(1000)),
                singleton(project(var("e"), "name")),
                empty_bag(),
            ),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 1);
        assert!(!n.branches[0].condition.is_truth());
        assert_norm_preserves(&q);
    }

    #[test]
    fn conditional_with_both_branches_splits_into_two_comprehensions() {
        let q = for_in(
            "e",
            table("employees"),
            if_then_else(
                gt(project(var("e"), "salary"), int(1000)),
                singleton(string("big")),
                singleton(string("small")),
            ),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 2);
        assert_norm_preserves(&q);
    }

    #[test]
    fn bare_table_is_eta_expanded() {
        let q = table("employees");
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 1);
        assert_eq!(n.branches[0].generators.len(), 1);
        // The body must be a record listing every column explicitly.
        match &n.branches[0].body {
            NfTerm::Record(fields) => assert_eq!(fields.len(), 4),
            other => panic!("expected an η-expanded record, got {:?}", other),
        }
        assert_norm_preserves(&q);
    }

    #[test]
    fn nested_query_bodies_are_normalised_recursively() {
        let q = for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("name", project(var("d"), "name")),
                (
                    "emps",
                    stdlib::filter(table("employees"), |e| {
                        eq(project(e, "dept"), project(var("d"), "name"))
                    }),
                ),
            ])),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 1);
        match &n.branches[0].body {
            NfTerm::Record(fields) => {
                assert!(matches!(fields[1].1, NfTerm::Query(_)));
            }
            other => panic!("expected a record body, got {:?}", other),
        }
        assert_norm_preserves(&q);
        // Tags must be unique across the whole query.
        let tags = n.tags();
        let mut dedup = tags.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(tags.len(), dedup.len());
    }

    #[test]
    fn emptiness_tests_are_normalised_in_place() {
        // Departments with no employee earning over 100000.
        let q = for_where(
            "d",
            table("departments"),
            is_empty(for_where(
                "e",
                table("employees"),
                and(
                    eq(project(var("e"), "dept"), project(var("d"), "name")),
                    gt(project(var("e"), "salary"), int(100000)),
                ),
                singleton(var("e")),
            )),
            singleton(project(var("d"), "name")),
        );
        let n = normalise(&q, &schema()).unwrap();
        assert_eq!(n.branches.len(), 1);
        assert!(matches!(
            n.branches[0].condition,
            NfBase::IsEmpty(_) | NfBase::Prim(_, _)
        ));
        assert_norm_preserves(&q);
    }

    #[test]
    fn any_and_all_combinators_normalise() {
        let q = for_where(
            "d",
            table("departments"),
            stdlib::all(
                stdlib::filter(table("employees"), |e| {
                    eq(project(e, "dept"), project(var("d"), "name"))
                }),
                |e| gt(project(e, "salary"), int(500)),
            ),
            singleton(project(var("d"), "name")),
        );
        assert_norm_preserves(&q);
    }

    #[test]
    fn boolean_conditional_in_condition_position_is_encoded() {
        // where (if e.salary > 1000 then e.dept = "Sales" else true)
        let q = for_where(
            "e",
            table("employees"),
            if_then_else(
                gt(project(var("e"), "salary"), int(1000)),
                eq(project(var("e"), "dept"), string("Sales")),
                boolean(true),
            ),
            singleton(project(var("e"), "name")),
        );
        assert_norm_preserves(&q);
    }

    #[test]
    fn normalising_a_non_query_fails() {
        assert!(matches!(
            normalise(&int(3), &schema()),
            Err(ShredError::NotAQuery(_))
        ));
    }

    #[test]
    fn rewriting_is_idempotent_on_normal_forms() {
        let q = for_where(
            "e",
            table("employees"),
            gt(project(var("e"), "salary"), int(1000)),
            singleton(project(var("e"), "name")),
        );
        let r1 = rewrite_to_normal_form(&q).unwrap();
        let r2 = rewrite_to_normal_form(&r1).unwrap();
        assert_eq!(r1, r2);
    }

    // ---- the big-step rewriter against the small-step reference ----

    /// Rewrite `term` with both rewriters: the same normal form — the same
    /// *term*, not an equivalent one — after the same number of
    /// contractions. Returns the budgets the big-step rewriter spent.
    fn assert_matches_reference(name: &str, term: &Term) -> Rewriter {
        let (expected, steps) = reference::rewrite(term);
        let mut rewriter = Rewriter::default();
        let mut actual = term.clone();
        let fired = rewriter
            .normalise(&mut actual, Frame::Inert, 0)
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(!fired, "{name}: nothing fires on the top of a term");
        assert_eq!(actual, expected, "{name}: normal forms differ");
        assert_eq!(rewriter.steps, steps, "{name}: step counts differ");
        assert_eq!(rewrite_to_normal_form(term).unwrap(), expected, "{name}");
        rewriter
    }

    fn benchmark_queries() -> Vec<(&'static str, Term)> {
        let mut queries = datagen::queries::flat_queries();
        queries.extend(datagen::queries::nested_queries());
        assert_eq!(queries.len(), 12);
        queries
    }

    #[test]
    fn benchmark_queries_rewrite_to_the_reference_normal_forms() {
        for (name, q) in benchmark_queries() {
            assert_matches_reference(name, &q);
            let (lifted, _) = crate::session::auto_parameterize(&q);
            assert_matches_reference(&format!("{name} (auto-parameterized)"), &lifted);
        }
    }

    #[test]
    fn benchmark_queries_use_under_one_percent_of_each_budget() {
        for (name, q) in benchmark_queries() {
            let spent = assert_matches_reference(name, &q);
            assert!(
                spent.steps * 100 < MAX_REWRITE_STEPS,
                "{name}: {} steps",
                spent.steps
            );
            assert!(
                spent.nodes * 100 < MAX_REWRITE_NODES,
                "{name}: {} nodes",
                spent.nodes
            );
        }
    }

    #[test]
    fn stdlib_combinators_rewrite_to_the_reference_normal_forms() {
        let employees = || table("employees");
        let in_dept = |e: Term| eq(project(e, "dept"), project(var("d"), "name"));
        let per_department = |test: Term| {
            for_where(
                "d",
                table("departments"),
                test,
                singleton(project(var("d"), "name")),
            )
        };
        let cases = vec![
            ("filter", stdlib::filter(employees(), stdlib::is_poor)),
            (
                "filter_fn",
                stdlib::filter_fn(lam("y", stdlib::is_rich(var("y"))), employees()),
            ),
            (
                "filter of filter_fn",
                stdlib::filter(
                    stdlib::filter_fn(lam("y", stdlib::is_rich(var("y"))), employees()),
                    stdlib::is_poor,
                ),
            ),
            (
                "any",
                per_department(stdlib::any(
                    stdlib::filter(employees(), in_dept),
                    stdlib::is_rich,
                )),
            ),
            (
                "all",
                per_department(stdlib::all(
                    stdlib::filter(employees(), in_dept),
                    stdlib::is_poor,
                )),
            ),
            (
                "contains",
                per_department(stdlib::contains(
                    for_in("e", employees(), singleton(project(var("e"), "dept"))),
                    project(var("d"), "name"),
                )),
            ),
            (
                "get_tasks",
                stdlib::get_tasks(stdlib::outliers(employees()), |x| {
                    for_where(
                        "t",
                        table("tasks"),
                        eq(project(var("t"), "employee"), project(x, "name")),
                        singleton(project(var("t"), "task")),
                    )
                }),
            ),
            ("outliers", stdlib::outliers(employees())),
            ("clients", stdlib::clients(table("contacts"))),
        ];
        for (name, q) in cases {
            assert_matches_reference(name, &q);
        }
    }

    /// The query family of `tests/properties.rs`, every combination of its
    /// three coin flips under both a satisfiable and a constant condition.
    #[test]
    fn the_property_test_family_rewrites_to_the_reference_normal_forms() {
        for bits in 0..16u32 {
            let [nest_tasks, with_union, with_empty_test, constant_test] =
                [0, 1, 2, 3].map(|b| bits & (1 << b) != 0);
            let body = |who: &str, tasks: Term| {
                let mut fields = vec![("name", project(var(who), "name"))];
                if nest_tasks {
                    fields.push(("tasks", tasks));
                }
                singleton(record(fields))
            };
            let employees = for_where(
                "e",
                table("employees"),
                and(
                    eq(project(var("e"), "dept"), project(var("d"), "name")),
                    gt(project(var("e"), "salary"), int(50_000)),
                ),
                body(
                    "e",
                    for_where(
                        "t",
                        table("tasks"),
                        eq(project(var("t"), "employee"), project(var("e"), "name")),
                        singleton(project(var("t"), "task")),
                    ),
                ),
            );
            let people = if with_union {
                union(
                    employees,
                    for_where(
                        "c",
                        table("contacts"),
                        and(
                            eq(project(var("c"), "dept"), project(var("d"), "name")),
                            project(var("c"), "client"),
                        ),
                        body("c", singleton(string("buy"))),
                    ),
                )
            } else {
                employees
            };
            let test = if with_empty_test {
                not(is_empty(for_where(
                    "e2",
                    table("employees"),
                    eq(project(var("e2"), "dept"), project(var("d"), "name")),
                    singleton(record(vec![])),
                )))
            } else {
                boolean(constant_test)
            };
            let q = for_where(
                "d",
                table("departments"),
                test,
                singleton(record(vec![
                    ("department", project(var("d"), "name")),
                    ("people", people),
                ])),
            );
            assert_matches_reference(&format!("family member {bits:04b}"), &q);
        }
    }

    /// One redex per rewrite rule, over free variables, so each is a redex
    /// wherever it is put. Several have a second redex inside.
    fn one_redex_per_rule() -> Vec<(&'static str, Term)> {
        let cond = || if_then_else(var("p"), var("m"), var("n"));
        let beta = || app(lam("z", var("z")), var("v"));
        vec![
            ("β", app(lam("x", union(var("x"), var("x"))), beta())),
            ("if in function position", app(cond(), beta())),
            (
                "record projection",
                project(record(vec![("a", beta()), ("b", var("w"))]), "a"),
            ),
            ("if under projection", project(cond(), "a")),
            ("if true", if_then_else(boolean(true), beta(), var("w"))),
            ("if false", if_then_else(boolean(false), var("w"), beta())),
            (
                "if in test position",
                if_then_else(cond(), beta(), var("w")),
            ),
            (
                "for over return",
                for_in("x", singleton(beta()), singleton(var("x"))),
            ),
            ("for over ∅", for_in("x", empty_bag(), singleton(var("x")))),
            (
                "for over ⊎",
                for_in("x", union(var("s"), var("t")), singleton(beta())),
            ),
            ("for over if", for_in("x", cond(), singleton(var("x")))),
            (
                "for over for",
                for_in(
                    "x",
                    for_in("y", var("s"), singleton(var("y"))),
                    singleton(record(vec![("l", var("x")), ("r", var("y"))])),
                ),
            ),
            ("if in a first argument", eq(cond(), beta())),
            ("if in a second argument", eq(beta(), cond())),
            ("if in both arguments", and(cond(), cond())),
            (
                "if in a record field",
                record(vec![("a", beta()), ("b", cond()), ("c", cond())]),
            ),
            ("if under return", singleton(cond())),
            ("if left of ⊎", union(cond(), beta())),
            ("if right of ⊎", union(beta(), cond())),
        ]
    }

    type Plug = fn(Term) -> Term;

    /// Every position a subterm can take: the head position of each
    /// elimination form, and every position to its left and right.
    fn one_hole_contexts() -> Vec<(&'static str, Plug)> {
        vec![
            ("□", |h| h),
            ("□ w", |h| app(h, var("w"))),
            ("w □", |h| app(var("w"), h)),
            ("(λk. k) □", |h| app(lam("k", var("k")), h)),
            ("(λk. □) w", |h| app(lam("k", h), var("w"))),
            ("□.a", |h| project(h, "a")),
            ("if □ then t else e", |h| {
                if_then_else(h, var("t"), var("e"))
            }),
            ("if c then □ else e", |h| {
                if_then_else(var("c"), h, var("e"))
            }),
            ("if c then t else □", |h| {
                if_then_else(var("c"), var("t"), h)
            }),
            ("for (i ← □) return i", |h| {
                for_in("i", h, singleton(var("i")))
            }),
            ("for (i ← s) □", |h| for_in("i", var("s"), h)),
            ("□ = w", |h| eq(h, var("w"))),
            ("w = □", |h| eq(var("w"), h)),
            ("⟨a = □, b = w⟩", |h| {
                record(vec![("a", h), ("b", var("w"))])
            }),
            ("⟨a = w, b = □⟩", |h| {
                record(vec![("a", var("w")), ("b", h)])
            }),
            ("return □", singleton),
            ("empty □", is_empty),
            ("□ ⊎ w", |h| union(h, var("w"))),
            ("w ⊎ □", |h| union(var("w"), h)),
            ("λk. □", |h| lam("k", h)),
        ]
    }

    /// Each rule's redex in each position, directly and two contexts deep:
    /// in head position the surrounding node turns into a redex the moment
    /// the inner one is contracted, to the left and right it does not.
    #[test]
    fn every_rule_in_every_position_rewrites_to_the_reference_normal_form() {
        let contexts = one_hole_contexts();
        let mut cases = 0;
        for (rule, redex) in one_redex_per_rule() {
            for (outer_name, outer) in &contexts {
                for (inner_name, inner) in &contexts {
                    let term = outer(inner(redex.clone()));
                    let name = format!("{rule} in {inner_name} in {outer_name}");
                    let spent = assert_matches_reference(&name, &term);
                    assert!(spent.steps > 0, "{name}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 19 * 20 * 20);
    }

    // ---- capture avoidance ----

    #[test]
    fn the_comprehension_binder_is_renamed_to_a_name_free_in_both_terms() {
        // for (x ← for (y ← s) return y) return ⟨x, y, y~⟩: renaming the
        // inner y to y~ would capture the body's y~.
        let body = singleton(record(vec![
            ("x", var("x")),
            ("y", var("y")),
            ("y~", var("y~")),
        ]));
        let q = for_in("x", for_in("y", var("s"), singleton(var("y"))), body);
        assert_eq!(
            rewrite_to_normal_form(&q).unwrap(),
            for_in(
                "y~~",
                var("s"),
                singleton(record(vec![
                    ("x", var("y~~")),
                    ("y", var("y")),
                    ("y~", var("y~")),
                ]))
            )
        );
        assert_matches_reference("capture", &q);
    }

    #[test]
    fn two_nested_renamings_of_one_binder_stay_distinct() {
        // for (x ← for (y ← for (y ← s) return y) return y) return ⟨x, y⟩:
        // both inner binders are called y and both move out past a body
        // that mentions y.
        let inner = for_in("y", var("s"), singleton(var("y")));
        let middle = for_in("y", inner, singleton(var("y")));
        let q = for_in(
            "x",
            middle,
            singleton(record(vec![("x", var("x")), ("y", var("y"))])),
        );
        let normal = rewrite_to_normal_form(&q).unwrap();
        assert_eq!(normal.free_vars(), vec!["s".to_string(), "y".to_string()]);
        // The middle binder became y~ on its way out; the inner one then
        // had to avoid both y and y~.
        assert_eq!(
            normal,
            for_in(
                "y~~",
                var("s"),
                singleton(record(vec![("x", var("y~~")), ("y", var("y"))]))
            )
        );

        // The same with the outer generators kept: the two renamed binders
        // are in scope together and must not be one name.
        let pair = |l: &str, r: &str| singleton(record(vec![("l", var(l)), ("r", var(r))]));
        let q = for_in(
            "x",
            for_in(
                "y",
                var("s"),
                for_in("x", for_in("y", var("t"), pair("y", "y")), pair("x", "y")),
            ),
            singleton(record(vec![("x", var("x")), ("y", var("y"))])),
        );
        let normal = rewrite_to_normal_form(&q).unwrap();
        assert_eq!(
            normal.free_vars(),
            vec!["s".to_string(), "t".to_string(), "y".to_string()]
        );
        let Term::For(first, _, rest) = &normal else {
            panic!("expected a comprehension, got {normal}");
        };
        let Term::For(second, _, _) = rest.as_ref() else {
            panic!("expected a second generator, got {rest}");
        };
        assert_ne!(first, second);
        assert!(first != "y" && second != "y");
        assert_matches_reference("nested capture", &q);
    }

    // ---- divergence ----

    fn assert_diverges_promptly(name: &str, term: &Term) {
        let start = std::time::Instant::now();
        let result = rewrite_to_normal_form(term);
        let elapsed = start.elapsed();
        assert!(
            matches!(result, Err(ShredError::RewriteDiverged)),
            "{name}: {result:?}"
        );
        // Milliseconds in a release build; the bound leaves room for an
        // unoptimised one on a busy machine.
        assert!(elapsed.as_millis() < 1000, "{name} took {elapsed:?}");
    }

    #[test]
    fn a_looping_term_is_reported_as_diverged() {
        let w = lam("x", app(var("x"), var("x")));
        assert_diverges_promptly("(λx. x x)(λx. x x)", &app(w.clone(), w));
    }

    #[test]
    fn a_growing_term_is_reported_as_diverged_before_the_stack_runs_out() {
        let w = lam("x", app(app(var("x"), var("x")), var("x")));
        assert_diverges_promptly("(λx. x x x)(λx. x x x)", &app(w.clone(), w));
        // Growing sideways instead of downwards: the node budget.
        let pair = lam(
            "x",
            app(
                app(var("x"), var("x")),
                record(vec![("l", var("x")), ("r", var("x"))]),
            ),
        );
        assert_diverges_promptly("a doubling term", &app(pair.clone(), pair));
    }

    #[test]
    fn a_term_nested_deeper_than_the_limit_is_refused_not_overflowed() {
        let mut deep = var("x");
        for _ in 0..=MAX_REWRITE_DEPTH {
            deep = singleton(deep);
        }
        assert_diverges_promptly("a deep term", &deep);
    }
}
