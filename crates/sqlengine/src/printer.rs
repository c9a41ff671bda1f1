//! Rendering of SQL ASTs as SQL:1999 text.
//!
//! The output matches the dialect shown in Section 7 of the paper (and is
//! accepted by PostgreSQL): `WITH`, `UNION ALL`, `ROW_NUMBER() OVER (ORDER BY
//! …)`, `EXISTS`, qualified column references and literal constants.

use crate::ast::{Expr, FromItem, Query, Select, TableSource};

/// Render a query as SQL text.
pub fn print_query(q: &Query) -> String {
    let mut out = String::new();
    write_query(&mut out, q, 0);
    out
}

/// Render an expression as SQL text.
pub(crate) fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_query(out: &mut String, q: &Query, level: usize) {
    match q {
        Query::Select(s) => write_select(out, s, level),
        Query::UnionAll(qs) => {
            for (i, sub) in qs.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                    indent(out, level);
                    out.push_str("UNION ALL\n");
                }
                indent(out, level);
                out.push('(');
                out.push('\n');
                write_query(out, sub, level + 1);
                out.push('\n');
                indent(out, level);
                out.push(')');
            }
        }
        Query::With {
            name,
            definition,
            body,
        } => {
            indent(out, level);
            out.push_str("WITH ");
            out.push_str(name);
            out.push_str(" AS (\n");
            write_select(out, definition, level + 1);
            out.push('\n');
            indent(out, level);
            out.push_str(")\n");
            write_query(out, body, level);
        }
    }
}

fn write_select(out: &mut String, s: &Select, level: usize) {
    indent(out, level);
    out.push_str("SELECT ");
    for (i, item) in s.items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, &item.expr);
        out.push_str(" AS ");
        out.push_str(&item.alias);
    }
    if !s.from.is_empty() {
        out.push('\n');
        indent(out, level);
        out.push_str("FROM ");
        for (i, f) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_from(out, f, level);
        }
    }
    if let Some(w) = &s.where_clause {
        out.push('\n');
        indent(out, level);
        out.push_str("WHERE ");
        write_expr(out, w);
    }
}

fn write_from(out: &mut String, f: &FromItem, level: usize) {
    match &f.source {
        TableSource::Named(n) => {
            out.push_str(n);
        }
        TableSource::Subquery(q) => {
            out.push_str("(\n");
            write_query(out, q, level + 1);
            out.push('\n');
            indent(out, level);
            out.push(')');
        }
    }
    out.push_str(" AS ");
    out.push_str(&f.alias);
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Column { table, column } => {
            if let Some(t) = table {
                out.push_str(t);
                out.push('.');
            }
            out.push_str(column);
        }
        Expr::Literal(v) => out.push_str(&v.to_string()),
        Expr::Param(name) => {
            out.push(':');
            out.push_str(name);
        }
        Expr::BinOp { op, left, right } => {
            out.push('(');
            write_expr(out, left);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(out, right);
            out.push(')');
        }
        Expr::Not(inner) => {
            out.push_str("NOT (");
            write_expr(out, inner);
            out.push(')');
        }
        Expr::Exists(q) => {
            out.push_str("EXISTS (");
            let sub = print_query(q);
            out.push_str(&sub.replace('\n', " "));
            out.push(')');
        }
        Expr::RowNumber { order_by } => {
            out.push_str("ROW_NUMBER() OVER (ORDER BY ");
            for (i, k) in order_by.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, k);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Query, Select, TableSource};

    #[test]
    fn prints_simple_select() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "emp"), "emp")
                .from_named("employees", "e")
                .filter(Expr::binop(
                    BinOp::Gt,
                    Expr::col("e", "salary"),
                    Expr::lit(10000),
                )),
        );
        let sql = print_query(&q);
        assert!(sql.contains("SELECT e.emp AS emp"));
        assert!(sql.contains("FROM employees AS e"));
        assert!(sql.contains("WHERE (e.salary > 10000)"));
    }

    #[test]
    fn prints_with_row_number_and_union() {
        let inner = Select::new()
            .item(Expr::col("x", "name"), "i1_name")
            .item(Expr::row_number(vec![Expr::col("x", "name")]), "i2")
            .from_named("departments", "x");
        let outer = Select::new()
            .item(Expr::col("z", "i2"), "i1_2")
            .from_named("q", "z");
        let q = Query::UnionAll(vec![
            Query::with("q", inner.clone(), Query::select(outer.clone())),
            Query::with("q", inner, Query::select(outer)),
        ]);
        let sql = print_query(&q);
        assert!(sql.contains("WITH q AS ("));
        assert!(sql.contains("ROW_NUMBER() OVER (ORDER BY x.name)"));
        assert!(sql.contains("UNION ALL"));
    }

    #[test]
    fn prints_exists_and_not() {
        let sub = Query::select(
            Select::new()
                .item(Expr::lit(1), "one")
                .from_named("tasks", "t"),
        );
        let e = Expr::not(Expr::Exists(Box::new(sub)));
        let sql = print_expr(&e);
        assert!(sql.starts_with("NOT (EXISTS (SELECT 1 AS one"));
    }

    #[test]
    fn prints_subquery_in_from() {
        let inner = Query::select(Select::new().item(Expr::lit(1), "a"));
        let q = Query::select(
            Select::new()
                .item(Expr::col("s", "a"), "a")
                .from_item(TableSource::Subquery(Box::new(inner)), "s"),
        );
        let sql = print_query(&q);
        assert!(sql.contains(") AS s"));
    }
}
