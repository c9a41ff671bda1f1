//! Pretty printing of λNRC terms in the paper's comprehension syntax.

use crate::term::{PrimOp, Term};
use std::fmt;

/// Render a term in a compact single-line form.
pub(crate) fn pretty(term: &Term) -> String {
    let mut s = String::new();
    write_term(&mut s, term).expect("writing to a String cannot fail");
    s
}

fn write_term(out: &mut String, term: &Term) -> fmt::Result {
    use fmt::Write;
    match term {
        Term::Var(x) => write!(out, "{}", x),
        Term::Const(c) => write!(out, "{}", c),
        Term::Param(name, ty) => write!(out, "?{}:{}", name, ty),
        Term::PrimApp(PrimOp::Not, args) => {
            write!(out, "not(")?;
            write_term(out, &args[0])?;
            write!(out, ")")
        }
        Term::PrimApp(op, args) if args.len() == 2 => {
            write!(out, "(")?;
            write_term(out, &args[0])?;
            write!(out, " {} ", op)?;
            write_term(out, &args[1])?;
            write!(out, ")")
        }
        Term::PrimApp(op, args) => {
            write!(out, "{}(", op)?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(out, ", ")?;
                }
                write_term(out, a)?;
            }
            write!(out, ")")
        }
        Term::Table(t) => write!(out, "table {}", t),
        Term::If(c, t, e) => {
            // A conditional whose else-branch is ∅ is a where clause.
            if matches!(e.as_ref(), Term::EmptyBag(_)) {
                write!(out, "where ")?;
                write_term(out, c)?;
                write!(out, " ")?;
                write_term(out, t)
            } else {
                write!(out, "if ")?;
                write_term(out, c)?;
                write!(out, " then ")?;
                write_term(out, t)?;
                write!(out, " else ")?;
                write_term(out, e)
            }
        }
        Term::Lam(x, body) => {
            write!(out, "λ{}. ", x)?;
            write_term(out, body)
        }
        Term::App(f, a) => {
            write_term(out, f)?;
            write!(out, "(")?;
            write_term(out, a)?;
            write!(out, ")")
        }
        Term::Record(fields) => {
            write!(out, "<")?;
            for (i, (l, t)) in fields.iter().enumerate() {
                if i > 0 {
                    write!(out, ", ")?;
                }
                write!(out, "{} = ", l)?;
                write_term(out, t)?;
            }
            write!(out, ">")
        }
        Term::Project(t, l) => {
            write_term(out, t)?;
            write!(out, ".{}", l)
        }
        Term::Empty(t) => {
            write!(out, "empty(")?;
            write_term(out, t)?;
            write!(out, ")")
        }
        Term::Singleton(t) => {
            write!(out, "return ")?;
            write_term(out, t)
        }
        Term::EmptyBag(_) => write!(out, "∅"),
        Term::Union(l, r) => {
            write!(out, "(")?;
            write_term(out, l)?;
            write!(out, " ⊎ ")?;
            write_term(out, r)?;
            write!(out, ")")
        }
        Term::For(x, src, body) => {
            write!(out, "for ({} ← ", x)?;
            write_term(out, src)?;
            write!(out, ") ")?;
            write_term(out, body)
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", pretty(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::add;
    use crate::builder::*;

    #[test]
    fn comprehension_pretty_prints_in_paper_syntax() {
        let q = for_where(
            "e",
            table("employees"),
            gt(project(var("e"), "salary"), int(1000)),
            singleton(project(var("e"), "name")),
        );
        let s = pretty(&q);
        assert!(s.contains("for (e ← table employees)"));
        assert!(s.contains("where"));
        assert!(s.contains("return e.name"));
    }

    #[test]
    fn union_and_empty() {
        assert_eq!(
            pretty(&union(empty_bag(), singleton(int(1)))),
            "(∅ ⊎ return 1)"
        );
    }

    #[test]
    fn lambda_and_application() {
        let t = app(lam("x", add(var("x"), int(1))), int(2));
        assert_eq!(pretty(&t), "λx. (x + 1)(2)");
    }
}
