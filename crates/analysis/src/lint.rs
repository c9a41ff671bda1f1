//! A lint pass over λNRC terms.
//!
//! The linter walks a [`Term`] with an explicit scope stack (the same shape
//! as the typechecker's `Context`, minus the types) and reports
//! warning-severity diagnostics for constructs that are well-typed but
//! suspicious:
//!
//! * **`codes::SHADOWED_BINDING`** — a `λ`, `let` (encoded as
//!   `(λx.M) N`) or `for` binder rebinds a name already in scope;
//! * **`codes::UNUSED_BINDING`** — a `let`/λ binder never occurs free in
//!   its body;
//! * **[`codes::DEAD_GENERATOR`]** — a comprehension variable never occurs
//!   free in the body (the generator still multiplies cardinality under bag
//!   semantics, so this is a lint, not a rewrite);
//! * **[`codes::CONSTANT_CONDITIONAL`]** — an `if` whose condition is a
//!   boolean constant;
//! * **`codes::UNUSED_PARAM`** — a declared parameter the term never
//!   mentions.

use crate::{codes, Diagnostic, Stage};
use nrc::term::{Constant, Term};

/// Lint a λNRC term. `declared_params` is the full list of parameter names
/// the caller declares for the query (a parameter *occurring* in the term is
/// definitionally used, so unused-parameter detection needs the declared
/// list from outside — e.g. `PreparedQuery::params()`).
pub fn lint_term(term: &Term, declared_params: &[String]) -> Vec<Diagnostic> {
    let mut linter = Linter {
        out: Vec::new(),
        scope: Vec::new(),
    };
    linter.walk(term, "query");
    let used: Vec<String> = term.params().into_iter().map(|(n, _)| n).collect();
    for name in declared_params {
        if !used.contains(name) {
            linter.out.push(
                Diagnostic::warning(
                    Stage::Term,
                    codes::UNUSED_PARAM,
                    "query",
                    format!("parameter ?{} is declared but never used", name),
                )
                .with_help("drop the declaration or reference the parameter in the query"),
            );
        }
    }
    linter.out
}

struct Linter {
    out: Vec<Diagnostic>,
    scope: Vec<String>,
}

impl Linter {
    fn check_binder(&mut self, kind: &str, x: &str, body: &Term, path: &str) {
        if self.scope.iter().any(|s| s == x) {
            self.out.push(
                Diagnostic::warning(
                    Stage::Term,
                    codes::SHADOWED_BINDING,
                    path.to_string(),
                    format!(
                        "{} binder {} shadows an enclosing binding of {}",
                        kind, x, x
                    ),
                )
                .with_help("rename the inner binder to keep the scopes distinct"),
            );
        }
        let unused = !body.free_vars().iter().any(|v| v == x);
        if unused {
            let (code, message, help) =
                if kind == "for" {
                    (
                    codes::DEAD_GENERATOR,
                    format!("generator variable {} is never used in the comprehension body", x),
                    "the generator still multiplies cardinality; if that is unintended, drop it",
                )
                } else {
                    (
                        codes::UNUSED_BINDING,
                        format!("{} binding {} is never used in its body", kind, x),
                        "remove the binding or use the bound value",
                    )
                };
            self.out.push(
                Diagnostic::warning(Stage::Term, code, path.to_string(), message).with_help(help),
            );
        }
    }

    fn walk(&mut self, term: &Term, path: &str) {
        match term {
            Term::Var(_)
            | Term::Const(_)
            | Term::Param(_, _)
            | Term::Table(_)
            | Term::EmptyBag(_) => {}
            Term::PrimApp(_, args) => {
                for (i, a) in args.iter().enumerate() {
                    self.walk(a, &format!("{}.arg{}", path, i));
                }
            }
            Term::If(c, t, e) => {
                if let Term::Const(Constant::Bool(b)) = c.as_ref() {
                    self.out.push(
                        Diagnostic::warning(
                            Stage::Term,
                            codes::CONSTANT_CONDITIONAL,
                            format!("{}.if", path),
                            format!("condition is constant {}; the conditional folds", b),
                        )
                        .with_help(if *b {
                            "only the then-branch is reachable"
                        } else {
                            "only the else-branch is reachable"
                        }),
                    );
                }
                self.walk(c, &format!("{}.if.cond", path));
                self.walk(t, &format!("{}.if.then", path));
                self.walk(e, &format!("{}.if.else", path));
            }
            // `let x = N in M`, encoded as `(λx.M) N`.
            Term::App(f, a) if matches!(f.as_ref(), Term::Lam(_, _)) => {
                let Term::Lam(x, body) = f.as_ref() else {
                    unreachable!()
                };
                let let_path = format!("{}.let({})", path, x);
                self.check_binder("let", x, body, &let_path);
                self.walk(a, &format!("{}.value", let_path));
                self.scope.push(x.clone());
                self.walk(body, &format!("{}.body", let_path));
                self.scope.pop();
            }
            Term::Lam(x, body) => {
                let lam_path = format!("{}.lam({})", path, x);
                self.check_binder("λ", x, body, &lam_path);
                self.scope.push(x.clone());
                self.walk(body, &format!("{}.body", lam_path));
                self.scope.pop();
            }
            Term::App(f, a) => {
                self.walk(f, &format!("{}.fun", path));
                self.walk(a, &format!("{}.arg", path));
            }
            Term::Record(fields) => {
                for (l, t) in fields {
                    self.walk(t, &format!("{}.{}", path, l));
                }
            }
            Term::Project(t, l) => self.walk(t, &format!("{}.{}", path, l)),
            Term::Empty(t) => self.walk(t, &format!("{}.empty", path)),
            Term::Singleton(t) => self.walk(t, &format!("{}.singleton", path)),
            Term::Union(l, r) => {
                self.walk(l, &format!("{}.union.left", path));
                self.walk(r, &format!("{}.union.right", path));
            }
            Term::For(x, source, body) => {
                let for_path = format!("{}.for({})", path, x);
                self.check_binder("for", x, body, &for_path);
                self.walk(source, &format!("{}.source", for_path));
                self.scope.push(x.clone());
                self.walk(body, &format!("{}.body", for_path));
                self.scope.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrc::builder::*;

    fn codes_of(term: &Term) -> Vec<&'static str> {
        lint_term(term, &[]).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_queries_lint_clean() {
        let q = for_where(
            "e",
            table("employees"),
            gt(project(var("e"), "salary"), int(1000)),
            singleton(project(var("e"), "name")),
        );
        assert!(codes_of(&q).is_empty());
    }

    #[test]
    fn shadowed_for_binders_are_reported() {
        let q = for_in(
            "x",
            table("employees"),
            for_in(
                "x",
                table("employees"),
                singleton(project(var("x"), "name")),
            ),
        );
        assert!(codes_of(&q).contains(&codes::SHADOWED_BINDING));
    }

    #[test]
    fn dead_generators_are_reported() {
        let q = for_in("x", table("employees"), singleton(int(1)));
        assert_eq!(codes_of(&q), vec![codes::DEAD_GENERATOR]);
    }

    #[test]
    fn unused_let_bindings_are_reported() {
        // let y = 1 in for x in employees … — y never used.
        let q = app(
            lam(
                "y",
                for_in(
                    "x",
                    table("employees"),
                    singleton(project(var("x"), "name")),
                ),
            ),
            int(1),
        );
        assert!(codes_of(&q).contains(&codes::UNUSED_BINDING));
    }

    #[test]
    fn constant_conditionals_are_reported() {
        let q = for_in(
            "x",
            table("employees"),
            if_then_else(
                boolean(true),
                singleton(project(var("x"), "name")),
                empty_bag(),
            ),
        );
        assert!(codes_of(&q).contains(&codes::CONSTANT_CONDITIONAL));
    }

    #[test]
    fn unused_declared_params_are_reported() {
        let q = for_in(
            "x",
            table("employees"),
            singleton(project(var("x"), "name")),
        );
        let ds = lint_term(&q, &["cutoff".to_string()]);
        assert!(ds.iter().any(|d| d.code == codes::UNUSED_PARAM));
        // A used parameter is not reported.
        let q2 = for_where(
            "x",
            table("employees"),
            gt(project(var("x"), "salary"), int_param("cutoff")),
            singleton(project(var("x"), "name")),
        );
        let ds2 = lint_term(&q2, &["cutoff".to_string()]);
        assert!(!ds2.iter().any(|d| d.code == codes::UNUSED_PARAM));
    }
}
