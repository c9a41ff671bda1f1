//! # analysis — static verification and structured diagnostics
//!
//! The shredding pipeline moves a query through five hand-written IRs
//! (λNRC term → normal form → shredded package → let-inserted SQL AST →
//! physical plan → columnar layout). Each hop relies on invariants — arities
//! line up, column positions resolve, join keys agree in type, param slots
//! are declared — that, unchecked, only surface as a wrong answer or a panic
//! deep inside the vectorized executor. This crate makes those invariants
//! *statically checkable* at prepare time:
//!
//! * [`lint`] — a lint pass over λNRC [`nrc::term::Term`]s: shadowed and
//!   unused `let` bindings, dead comprehension generators, constant-foldable
//!   conditionals and parameters declared but never used;
//! * [`plan_check`] — a bottom-up validator for
//!   [`sqlengine::plan::PhysicalPlan`] trees: positional column resolution
//!   against `output_columns()`, typed-column inference over `VExpr`, join
//!   key agreement, param-slot consistency and CTE/outer scope
//!   well-formedness.
//!
//! The shredded-package checker (which needs the `shredding` crate's
//! `Package`/`QueryStage` types) lives in `shredding::verify` and shares the
//! [`Diagnostic`] model defined here. Every check reports through the same
//! structured [`Diagnostic`] type, carrying a stable code from the
//! [`codes`] registry, so callers can gate on severity and tests can assert
//! exact codes.

#![forbid(unsafe_code)]

pub mod lint;
pub mod plan_check;

use std::fmt;

/// How serious a diagnostic is. `Error` means the artifact violates an
/// invariant the pipeline relies on; executing it may panic or produce a
/// wrong answer. `Warning` flags suspicious-but-sound constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which pipeline IR a diagnostic is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The source λNRC term.
    Term,
    /// The shredded package (stages, layouts, index tree).
    Package,
    /// A physical plan tree.
    Plan,
    /// The result decode/stitch path (runtime counterpart codes).
    Decode,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Term => write!(f, "term"),
            Stage::Package => write!(f, "package"),
            Stage::Plan => write!(f, "plan"),
            Stage::Decode => write!(f, "decode"),
        }
    }
}

/// One finding of a verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// The IR the finding is about.
    pub stage: Stage,
    /// A stable code from the [`codes`] registry (e.g. `"P004"`).
    pub code: &'static str,
    /// Where in the artifact the finding points: a term path, a stage path
    /// of the result type, or a plan-node breadcrumb.
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// How to fix or interpret it, when there is something useful to say.
    pub help: Option<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        stage: Stage,
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            stage,
            code,
            path: path.into(),
            message: message.into(),
            help: None,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        stage: Stage,
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            stage,
            code,
            path: path.into(),
            message: message.into(),
            help: None,
        }
    }

    /// Attach a help note.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.path, self.message
        )?;
        if let Some(help) = &self.help {
            write!(f, " (help: {})", help)?;
        }
        Ok(())
    }
}

/// An ordered collection of [`Diagnostic`]s with severity accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Wrap an existing list.
    pub fn from_vec(items: Vec<Diagnostic>) -> Diagnostics {
        Diagnostics { items }
    }

    /// Add many diagnostics.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.items.extend(ds);
    }

    /// All diagnostics, in the order the checks reported them.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Is the collection empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Does the collection contain any error-severity diagnostic?
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// The first error-severity diagnostic, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.severity == Severity::Error)
    }

    /// Does the collection contain a diagnostic with the given code?
    pub fn has_code(&self, code: &str) -> bool {
        self.items.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}", d)?;
        }
        Ok(())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// The diagnostic code registry. Codes are stable: tests assert them, the
/// DESIGN.md catalogue documents them, and `ShredError` variants carry them.
///
/// * `L…` — λNRC term lints (warnings).
/// * `S…` — shredded-package invariants (errors).
/// * `P…` — physical-plan invariants (errors).
/// * `O…` — planner findings (warnings).
/// * `D…` — decode/stitch runtime invariants (errors, raised as
///   `ShredError::Decode { code, .. }`).
pub mod codes {
    /// A binder shadows an in-scope binding of the same name.
    pub(crate) const SHADOWED_BINDING: &str = "L001";
    /// A `let`/λ binder is never used in its body.
    pub(crate) const UNUSED_BINDING: &str = "L002";
    /// A comprehension generator's variable is never used in the body
    /// (the generator still multiplies cardinality, so this is a warning,
    /// not a rewrite).
    pub const DEAD_GENERATOR: &str = "L003";
    /// An `if` condition is a boolean constant; the conditional folds.
    pub const CONSTANT_CONDITIONAL: &str = "L004";
    /// A parameter is declared but never used in the term.
    pub(crate) const UNUSED_PARAM: &str = "L005";

    /// A stage layout's first two columns are not `(oidx_tag, oidx_ord)`.
    pub const MISSING_INDEX_COLUMNS: &str = "S001";
    /// A stage's physical plan emits different columns than its layout.
    pub const STAGE_COLUMN_MISMATCH: &str = "S002";
    /// A stage layout's `Index` leaves do not match the package's child
    /// bags (the leaf→column map and the package tree disagree).
    pub const PACKAGE_SHAPE_MISMATCH: &str = "S003";
    /// Two branches of one shredded stage share a static index tag, so
    /// `(oidx_tag, oidx_ord)` keys cannot be unique.
    pub const DUPLICATE_BRANCH_TAG: &str = "S004";
    /// A child stage keys its rows by an outer tag its parent stage never
    /// produces — the parent/child index references do not form a tree.
    pub const BROKEN_INDEX_TREE: &str = "S005";

    /// A positional column reference is out of range for its input.
    pub(crate) const COL_OUT_OF_RANGE: &str = "P001";
    /// A positional column reference resolves to a differently named column.
    pub(crate) const COL_NAME_MISMATCH: &str = "P002";
    /// A hash join's left and right key lists differ in length.
    pub const JOIN_KEY_ARITY: &str = "P003";
    /// A hash join key pair disagrees in inferred type.
    pub(crate) const JOIN_KEY_TYPE_MISMATCH: &str = "P004";
    /// A param slot is not among the query's declared parameters.
    pub const UNDECLARED_PARAM_SLOT: &str = "P005";
    /// A `CteScan` references a name with no enclosing `With`.
    pub(crate) const UNKNOWN_CTE: &str = "P006";
    /// An outer column reference has no enclosing scope that binds it.
    pub(crate) const UNRESOLVED_OUTER_REF: &str = "P007";
    /// A projection's expression list and column list differ in length.
    pub const PROJECTION_ARITY: &str = "P008";
    /// `UNION ALL` branches differ in column count.
    pub(crate) const UNION_ARITY: &str = "P009";
    /// An expression's operand types do not fit its operator.
    pub(crate) const EXPR_TYPE_MISMATCH: &str = "P010";
    /// A table scan references a table the catalog does not know.
    pub const UNKNOWN_TABLE: &str = "P011";
    /// A scan's recorded columns disagree with the catalog/CTE definition.
    pub(crate) const SCAN_COLUMN_MISMATCH: &str = "P012";

    /// A result's column count disagrees with the stage layout.
    pub const DECODE_COLUMN_COUNT: &str = "D001";
    /// A row ended before the layout's leaves were consumed.
    pub const DECODE_ROW_SHORT: &str = "D002";
    /// A cell's runtime type disagrees with the layout leaf's type.
    pub const DECODE_TYPE_MISMATCH: &str = "D003";
    /// An index column position is out of range for the stage.
    pub const DECODE_INDEX_RANGE: &str = "D004";
    /// A shredded row lacks a field the package shape requires.
    pub const DECODE_MISSING_FIELD: &str = "D005";
    /// A decoded value does not match the package shape.
    pub const DECODE_SHAPE_MISMATCH: &str = "D006";

    /// A plan retains a correlated subquery the planner could not hash into
    /// a semi/anti join, so it runs once per row; the diagnostic's `help`
    /// says which correlations hash.
    pub const RETAINED_CORRELATED_SUBQUERY: &str = "O001";
}

#[cfg(test)]
mod tests {
    use super::codes::*;
    use super::*;

    /// Every registered code, with one line of documentation.
    const ALL: &[(&str, &str)] = &[
        (SHADOWED_BINDING, "binder shadows an in-scope binding"),
        (UNUSED_BINDING, "let/λ binder never used in its body"),
        (
            DEAD_GENERATOR,
            "comprehension generator variable never used",
        ),
        (CONSTANT_CONDITIONAL, "if-condition is a boolean constant"),
        (UNUSED_PARAM, "parameter declared but never used"),
        (
            MISSING_INDEX_COLUMNS,
            "stage layout lacks leading (oidx_tag, oidx_ord) columns",
        ),
        (
            STAGE_COLUMN_MISMATCH,
            "stage plan columns disagree with the stage layout",
        ),
        (
            PACKAGE_SHAPE_MISMATCH,
            "layout Index leaves disagree with the package's child bags",
        ),
        (
            DUPLICATE_BRANCH_TAG,
            "two branches of a stage share a static index tag",
        ),
        (
            BROKEN_INDEX_TREE,
            "child stage keyed by an outer tag the parent never produces",
        ),
        (COL_OUT_OF_RANGE, "positional column reference out of range"),
        (
            COL_NAME_MISMATCH,
            "positional column reference resolves to a different name",
        ),
        (JOIN_KEY_ARITY, "hash join key lists differ in length"),
        (
            JOIN_KEY_TYPE_MISMATCH,
            "hash join key pair disagrees in type",
        ),
        (
            UNDECLARED_PARAM_SLOT,
            "param slot not among the declared parameters",
        ),
        (
            UNKNOWN_CTE,
            "CteScan references a name with no enclosing With",
        ),
        (
            UNRESOLVED_OUTER_REF,
            "outer reference not bound by any enclosing scope",
        ),
        (
            PROJECTION_ARITY,
            "projection expressions and columns differ in length",
        ),
        (UNION_ARITY, "UNION ALL branches differ in column count"),
        (EXPR_TYPE_MISMATCH, "operand types do not fit the operator"),
        (UNKNOWN_TABLE, "table scan references an unknown table"),
        (
            SCAN_COLUMN_MISMATCH,
            "scan columns disagree with the catalog definition",
        ),
        (
            DECODE_COLUMN_COUNT,
            "result column count disagrees with the layout",
        ),
        (DECODE_ROW_SHORT, "row ended before the layout was consumed"),
        (
            DECODE_TYPE_MISMATCH,
            "cell type disagrees with the layout leaf",
        ),
        (DECODE_INDEX_RANGE, "index column position out of range"),
        (DECODE_MISSING_FIELD, "shredded row lacks a required field"),
        (
            DECODE_SHAPE_MISMATCH,
            "decoded value does not match the package shape",
        ),
        (
            RETAINED_CORRELATED_SUBQUERY,
            "correlated subquery the planner runs once per row",
        ),
    ];

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn diagnostics_count_by_severity() {
        let ds = Diagnostics::from_vec(vec![
            Diagnostic::warning(Stage::Term, codes::UNUSED_BINDING, "x", "m"),
            Diagnostic::error(Stage::Plan, codes::COL_OUT_OF_RANGE, "p", "m"),
        ]);
        assert_eq!(ds.iter().count(), 2);
        assert_eq!(ds.error_count(), 1);
        assert!(ds.has_errors());
        assert!(ds.has_code(codes::COL_OUT_OF_RANGE));
        assert_eq!(ds.first_error().unwrap().code, codes::COL_OUT_OF_RANGE);
    }

    #[test]
    fn every_code_is_registered_exactly_once() {
        let mut seen = std::collections::HashSet::new();
        for (code, _) in ALL {
            assert!(seen.insert(*code), "code {} registered twice", code);
        }
    }

    #[test]
    fn display_includes_code_and_path() {
        let d = Diagnostic::error(
            Stage::Plan,
            codes::COL_OUT_OF_RANGE,
            "Project/Filter",
            "boom",
        )
        .with_help("check the input arity");
        let rendered = d.to_string();
        assert!(rendered.contains("P001"));
        assert!(rendered.contains("Project/Filter"));
        assert!(rendered.contains("help"));
    }
}
