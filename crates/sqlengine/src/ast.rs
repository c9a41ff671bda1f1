//! Abstract syntax for the SQL:1999 subset emitted by the shredding
//! translation (Section 7 of the paper).
//!
//! The grammar mirrors the paper's final target language:
//!
//! ```text
//! Query terms    L ::= (union all) C⃗
//! Comprehensions C ::= with q as (S) C | S'
//! Subqueries     S ::= select R from G⃗ where X
//! Inner terms    N ::= X | row_number() over (order by X⃗)
//! Base terms     X ::= x.ℓ | c(X⃗) | empty L
//! ```
//!
//! That is all the shredding translation and the baselines (flat default,
//! loop-lifting, Van den Bussche) emit: there is no `ORDER BY`, `DISTINCT`
//! or `EXCEPT ALL`, and the parser refuses them.

use crate::error::EngineError;
use crate::value::SqlValue;
use std::fmt;

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A plain `SELECT`.
    Select(Box<Select>),
    /// `q1 UNION ALL q2 UNION ALL …` (bag union, preserving multiplicity).
    UnionAll(Vec<Query>),
    /// `WITH q AS (SELECT …) body` — a let-bound subquery.
    With {
        name: String,
        definition: Box<Select>,
        body: Box<Query>,
    },
}

impl Query {
    /// Wrap a select in a query.
    pub fn select(s: Select) -> Query {
        Query::Select(Box::new(s))
    }

    /// Union of several queries; a singleton list collapses to the query
    /// itself and an empty list is rejected by the executor.
    pub fn union_all(mut qs: Vec<Query>) -> Query {
        if qs.len() == 1 {
            qs.pop().expect("length checked")
        } else {
            Query::UnionAll(qs)
        }
    }

    /// `WITH name AS (definition) body`.
    pub fn with(name: &str, definition: Select, body: Query) -> Query {
        Query::With {
            name: name.to_string(),
            definition: Box::new(definition),
            body: Box::new(body),
        }
    }

    /// The output column names of the query (taken from the first branch).
    pub fn output_columns(&self) -> Vec<String> {
        match self {
            Query::Select(s) => s.items.iter().map(|i| i.alias.clone()).collect(),
            Query::UnionAll(qs) => qs.first().map(Query::output_columns).unwrap_or_default(),
            Query::With { body, .. } => body.output_columns(),
        }
    }
}

/// A `SELECT … FROM … WHERE …` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// The projection list.
    pub items: Vec<SelectItem>,
    /// The `FROM` clause.
    pub from: Vec<FromItem>,
    /// The `WHERE` clause.
    pub where_clause: Option<Expr>,
}

impl Select {
    /// An empty select to be filled in builder style.
    pub fn new() -> Select {
        Select::default()
    }

    /// Add a projection item `expr AS alias`.
    pub fn item(mut self, expr: Expr, alias: &str) -> Select {
        self.items.push(SelectItem {
            expr,
            alias: alias.to_string(),
        });
        self
    }

    /// Add a `FROM` item `source AS alias`.
    pub fn from_item(mut self, source: TableSource, alias: &str) -> Select {
        self.from.push(FromItem {
            source,
            alias: alias.to_string(),
        });
        self
    }

    /// Add a `FROM` item over a stored table or WITH-bound name.
    pub fn from_named(self, name: &str, alias: &str) -> Select {
        self.from_item(TableSource::Named(name.to_string()), alias)
    }

    /// Set the `WHERE` clause.
    pub fn filter(mut self, expr: Expr) -> Select {
        self.where_clause = Some(expr);
        self
    }

    /// Refuse a `FROM` list that binds one alias twice: a reference to it
    /// could mean either relation. The planner and the interpreter both ask.
    pub(crate) fn check_aliases(&self) -> Result<(), EngineError> {
        for (i, item) in self.from.iter().enumerate() {
            if self.from[..i].iter().any(|f| f.alias == item.alias) {
                return Err(EngineError::DuplicateAlias(item.alias.clone()));
            }
        }
        Ok(())
    }
}

/// One projection item `expr AS alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: String,
}

/// One `FROM` item `source AS alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    pub source: TableSource,
    pub alias: String,
}

/// A data source in `FROM`: a stored table or WITH-bound query referenced by
/// name, or an inline subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    Named(String),
    Subquery(Box<Query>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

impl BinOp {
    /// SQL spelling of the operator.
    pub(crate) fn symbol(&self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "||",
        }
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference `alias.column` (or bare `column`).
    Column {
        table: Option<String>,
        column: String,
    },
    /// A literal value.
    Literal(SqlValue),
    /// A named placeholder `:name` — a bind variable whose value is supplied
    /// when the query (or its compiled plan) is executed.
    Param(String),
    /// A binary operation.
    BinOp {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Boolean negation.
    Not(Box<Expr>),
    /// `EXISTS (subquery)`, possibly correlated with the enclosing query.
    Exists(Box<Query>),
    /// `ROW_NUMBER() OVER (ORDER BY keys)`.
    RowNumber { order_by: Vec<Expr> },
}

impl Expr {
    /// `alias.column`.
    pub fn col(table: &str, column: &str) -> Expr {
        Expr::Column {
            table: Some(table.to_string()),
            column: column.to_string(),
        }
    }

    /// A bare column reference.
    pub(crate) fn bare(column: &str) -> Expr {
        Expr::Column {
            table: None,
            column: column.to_string(),
        }
    }

    /// A literal.
    pub fn lit<V: Into<SqlValue>>(v: V) -> Expr {
        Expr::Literal(v.into())
    }

    /// A named placeholder `:name`.
    pub fn param(name: &str) -> Expr {
        Expr::Param(name.to_string())
    }

    /// `left op right`.
    pub fn binop(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::BinOp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Equality.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binop(BinOp::Eq, left, right)
    }

    /// Conjunction.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binop(BinOp::And, left, right)
    }

    /// Disjunction.
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binop(BinOp::Or, left, right)
    }

    /// Negation. (A constructor taking the operand by value, not a `Not`
    /// impl for `Expr` — the AST builder API is all free-standing.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// Fold a conjunction over the given expressions (`TRUE` when empty).
    pub fn conj<I: IntoIterator<Item = Expr>>(exprs: I) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => Expr::lit(true),
            Some(first) => it.fold(first, Expr::and),
        }
    }

    /// `ROW_NUMBER() OVER (ORDER BY keys)`.
    pub fn row_number(order_by: Vec<Expr>) -> Expr {
        Expr::RowNumber { order_by }
    }

    /// Does `f` hold for this expression or any of its subexpressions,
    /// visited in pre-order (`ROW_NUMBER` keys included)? An `EXISTS` is
    /// visited as a leaf: its subquery resolves its own scopes.
    pub(crate) fn any(&self, mut f: impl FnMut(&Expr) -> bool) -> bool {
        fn go(e: &Expr, f: &mut impl FnMut(&Expr) -> bool) -> bool {
            f(e) || match e {
                Expr::BinOp { left, right, .. } => go(left, f) || go(right, f),
                Expr::Not(inner) => go(inner, f),
                Expr::RowNumber { order_by } => order_by.iter().any(|k| go(k, f)),
                Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) | Expr::Exists(_) => false,
            }
        }
        go(self, &mut f)
    }

    /// All aliases of columns mentioned in this expression (not descending
    /// into subqueries, which resolve their own scopes).
    pub(crate) fn referenced_aliases(&self) -> Vec<String> {
        let mut acc: Vec<String> = Vec::new();
        self.any(|e| {
            if let Expr::Column { table: Some(t), .. } = e {
                if !acc.contains(t) {
                    acc.push(t.clone());
                }
            }
            false
        });
        acc
    }

    /// Does the expression reference a column without a table qualifier?
    /// (The executor and planner defer such predicates until every relation
    /// is bound, since the reference may resolve into any of them.)
    pub(crate) fn contains_unqualified_column(&self) -> bool {
        self.any(|e| matches!(e, Expr::Column { table: None, .. }))
    }

    /// Does the expression contain an `EXISTS` subquery (at any depth)?
    pub(crate) fn contains_exists(&self) -> bool {
        self.any(|e| matches!(e, Expr::Exists(_)))
    }

    /// Split a conjunction into its conjuncts.
    pub(crate) fn conjuncts(&self) -> Vec<Expr> {
        match self {
            Expr::BinOp {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other.clone()],
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::print_query(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::print_expr(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::and(
            Expr::and(Expr::lit(true), Expr::eq(Expr::bare("a"), Expr::lit(1))),
            Expr::lit(false),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn conj_of_empty_is_true() {
        assert_eq!(Expr::conj(vec![]), Expr::lit(true));
    }

    #[test]
    fn union_all_of_one_collapses() {
        let s = Select::new().item(Expr::lit(1), "x");
        let q = Query::union_all(vec![Query::select(s)]);
        assert!(matches!(q, Query::Select(_)));
    }

    #[test]
    fn output_columns_come_from_first_branch() {
        let s1 = Select::new()
            .item(Expr::lit(1), "a")
            .item(Expr::lit(2), "b");
        let s2 = Select::new()
            .item(Expr::lit(3), "a")
            .item(Expr::lit(4), "b");
        let q = Query::UnionAll(vec![Query::select(s1), Query::select(s2)]);
        assert_eq!(q.output_columns(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn referenced_aliases_are_collected() {
        let e = Expr::and(
            Expr::eq(Expr::col("x", "a"), Expr::col("y", "b")),
            Expr::eq(Expr::col("x", "c"), Expr::lit(1)),
        );
        assert_eq!(
            e.referenced_aliases(),
            vec!["x".to_string(), "y".to_string()]
        );
    }
}
