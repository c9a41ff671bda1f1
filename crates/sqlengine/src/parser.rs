//! A parser for the SQL dialect emitted by [`crate::printer`].
//!
//! The parser exists so that (a) generated SQL text can be executed directly
//! (`Engine::execute_sql`), mimicking the paper's setup where Links ships SQL
//! strings to PostgreSQL, and (b) the printer/parser round trip can be tested:
//! `parse(print(q))` must evaluate to the same result as `q`.
//!
//! It accepts exactly that dialect. `DISTINCT`, `ORDER BY` (outside
//! `ROW_NUMBER() OVER`) and `EXCEPT` are refused with
//! [`EngineError::Parse`] wherever they appear, never read as a column or an
//! alias.

use crate::ast::{BinOp, Expr, FromItem, Query, Select, SelectItem, TableSource};
use crate::error::EngineError;
use crate::value::SqlValue;

/// Parse a SQL string into a [`Query`].
pub fn parse_query(input: &str) -> Result<Query, EngineError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let q = parser.parse_query()?;
    parser.expect_eof()?;
    Ok(q)
}

/// Keywords of SQL the engine does not implement, with their display form.
const UNSUPPORTED: [(&str, &str); 3] = [
    ("distinct", "DISTINCT"),
    ("order", "ORDER BY"),
    ("except", "EXCEPT"),
];

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Str(String),
    Symbol(String),
    /// A named placeholder `:name`.
    Param(String),
}

fn tokenize(input: &str) -> Result<Vec<Token>, EngineError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let n = text
                .parse::<i64>()
                .map_err(|_| EngineError::Parse(format!("bad integer literal {}", text)))?;
            tokens.push(Token::Int(n));
        } else if c.is_alphabetic() || c == '_' || c == '#' {
            let start = i;
            while i < chars.len()
                && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '#')
            {
                i += 1;
            }
            tokens.push(Token::Ident(chars[start..i].iter().collect()));
        } else if c == '\'' {
            i += 1;
            let mut s = String::new();
            loop {
                if i >= chars.len() {
                    return Err(EngineError::Parse(
                        "unterminated string literal".to_string(),
                    ));
                }
                if chars[i] == '\'' {
                    if i + 1 < chars.len() && chars[i + 1] == '\'' {
                        s.push('\'');
                        i += 2;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    s.push(chars[i]);
                    i += 1;
                }
            }
            tokens.push(Token::Str(s));
        } else {
            // Multi-character symbols first.
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            if two == "<>" || two == "<=" || two == ">=" || two == "||" {
                tokens.push(Token::Symbol(two));
                i += 2;
            } else if c == ':' {
                i += 1;
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                if start == i {
                    return Err(EngineError::Parse(
                        "expected a parameter name after ':'".to_string(),
                    ));
                }
                tokens.push(Token::Param(chars[start..i].iter().collect()));
            } else if "(),.=<>+-*/%".contains(c) {
                tokens.push(Token::Symbol(c.to_string()));
                i += 1;
            } else {
                return Err(EngineError::Parse(format!("unexpected character {:?}", c)));
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), EngineError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(EngineError::Parse(format!(
                "expected keyword {}, found {:?}",
                kw,
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), EngineError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(EngineError::Parse(format!(
                "expected {:?}, found {:?}",
                sym,
                self.peek()
            )))
        }
    }

    /// Refuse the next token if it starts one of the [`UNSUPPORTED`] clauses.
    fn refuse_unsupported(&self) -> Result<(), EngineError> {
        let Some(Token::Ident(s)) = self.peek() else {
            return Ok(());
        };
        match UNSUPPORTED
            .iter()
            .find(|(kw, _)| s.eq_ignore_ascii_case(kw))
        {
            Some((_, shown)) => Err(EngineError::Parse(format!(
                "{} is not supported by this engine",
                shown
            ))),
            None => Ok(()),
        }
    }

    fn expect_ident(&mut self) -> Result<String, EngineError> {
        self.refuse_unsupported()?;
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(EngineError::Parse(format!(
                "expected identifier, found {:?}",
                other
            ))),
        }
    }

    fn expect_eof(&self) -> Result<(), EngineError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(EngineError::Parse(format!(
                "unexpected trailing input at {:?}",
                self.peek()
            )))
        }
    }

    /// query := atom (UNION ALL atom)*
    fn parse_query(&mut self) -> Result<Query, EngineError> {
        let mut branches = vec![self.parse_query_atom()?];
        while self.eat_keyword("union") {
            self.expect_keyword("all")?;
            branches.push(self.parse_query_atom()?);
        }
        self.refuse_unsupported()?;
        Ok(Query::union_all(branches))
    }

    /// atom := '(' query ')' | WITH name AS '(' select ')' atom | select
    fn parse_query_atom(&mut self) -> Result<Query, EngineError> {
        if self.eat_symbol("(") {
            let q = self.parse_query()?;
            self.expect_symbol(")")?;
            return Ok(q);
        }
        if self.eat_keyword("with") {
            let name = self.expect_ident()?;
            self.expect_keyword("as")?;
            self.expect_symbol("(")?;
            let def = self.parse_select()?;
            self.expect_symbol(")")?;
            let body = self.parse_query_atom()?;
            return Ok(Query::With {
                name,
                definition: Box::new(def),
                body: Box::new(body),
            });
        }
        Ok(Query::Select(Box::new(self.parse_select()?)))
    }

    fn parse_select(&mut self) -> Result<Select, EngineError> {
        self.expect_keyword("select")?;
        let mut select = Select::new();
        loop {
            let expr = self.parse_or()?;
            let alias = if self.eat_keyword("as") {
                self.expect_ident()?
            } else {
                // Derive an alias from a bare column reference.
                match &expr {
                    Expr::Column { column, .. } => column.clone(),
                    _ => format!("col{}", select.items.len() + 1),
                }
            };
            select.items.push(SelectItem { expr, alias });
            if !self.eat_symbol(",") {
                break;
            }
        }
        if self.eat_keyword("from") {
            loop {
                let source = if self.eat_symbol("(") {
                    let q = self.parse_query()?;
                    self.expect_symbol(")")?;
                    TableSource::Subquery(Box::new(q))
                } else {
                    TableSource::Named(self.expect_ident()?)
                };
                let alias = if self.eat_keyword("as") {
                    self.expect_ident()?
                } else if let Some(Token::Ident(s)) = self.peek() {
                    // Implicit alias, as in `FROM employees e` — but do not
                    // swallow keywords.
                    let lowered = s.to_ascii_lowercase();
                    if ["where", "order", "union", "except", "group"].contains(&lowered.as_str()) {
                        match &source {
                            TableSource::Named(n) => n.clone(),
                            TableSource::Subquery(_) => {
                                return Err(EngineError::Parse(
                                    "subquery in FROM requires an alias".to_string(),
                                ))
                            }
                        }
                    } else {
                        self.expect_ident()?
                    }
                } else {
                    match &source {
                        TableSource::Named(n) => n.clone(),
                        TableSource::Subquery(_) => {
                            return Err(EngineError::Parse(
                                "subquery in FROM requires an alias".to_string(),
                            ))
                        }
                    }
                };
                select.from.push(FromItem { source, alias });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_keyword("where") {
            select.where_clause = Some(self.parse_or()?);
        }
        self.refuse_unsupported()?;
        Ok(select)
    }

    fn parse_or(&mut self) -> Result<Expr, EngineError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            let right = self.parse_and()?;
            left = Expr::or(left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, EngineError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("and") {
            let right = self.parse_not()?;
            left = Expr::and(left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, EngineError> {
        if self.eat_keyword("not") {
            let inner = self.parse_not()?;
            return Ok(Expr::not(inner));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, EngineError> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            Some(Token::Symbol(s)) => match s.as_str() {
                "=" => Some(BinOp::Eq),
                "<>" => Some(BinOp::Neq),
                "<" => Some(BinOp::Lt),
                "<=" => Some(BinOp::Le),
                ">" => Some(BinOp::Gt),
                ">=" => Some(BinOp::Ge),
                _ => None,
            },
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let right = self.parse_additive()?;
                Ok(Expr::binop(op, left, right))
            }
            None => Ok(left),
        }
    }

    fn parse_additive(&mut self) -> Result<Expr, EngineError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(s)) => match s.as_str() {
                    "+" => Some(BinOp::Add),
                    "-" => Some(BinOp::Sub),
                    "||" => Some(BinOp::Concat),
                    _ => None,
                },
                _ => None,
            };
            match op {
                Some(op) => {
                    self.pos += 1;
                    let right = self.parse_multiplicative()?;
                    left = Expr::binop(op, left, right);
                }
                None => return Ok(left),
            }
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, EngineError> {
        let mut left = self.parse_primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(s)) => match s.as_str() {
                    "*" => Some(BinOp::Mul),
                    "/" => Some(BinOp::Div),
                    "%" => Some(BinOp::Mod),
                    _ => None,
                },
                _ => None,
            };
            match op {
                Some(op) => {
                    self.pos += 1;
                    let right = self.parse_primary()?;
                    left = Expr::binop(op, left, right);
                }
                None => return Ok(left),
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, EngineError> {
        self.refuse_unsupported()?;
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Literal(SqlValue::Int(n))),
            Some(Token::Str(s)) => Ok(Expr::Literal(SqlValue::str(s))),
            Some(Token::Param(name)) => Ok(Expr::Param(name)),
            Some(Token::Symbol(s)) if s == "(" => {
                let e = self.parse_or()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some(Token::Symbol(s)) if s == "-" => {
                // Unary minus over an integer literal.
                match self.next() {
                    Some(Token::Int(n)) => Ok(Expr::Literal(SqlValue::Int(-n))),
                    other => Err(EngineError::Parse(format!(
                        "expected integer after unary minus, found {:?}",
                        other
                    ))),
                }
            }
            Some(Token::Ident(id)) => {
                let lowered = id.to_ascii_lowercase();
                match lowered.as_str() {
                    "true" => Ok(Expr::Literal(SqlValue::Bool(true))),
                    "false" => Ok(Expr::Literal(SqlValue::Bool(false))),
                    "null" => Ok(Expr::Literal(SqlValue::Null)),
                    "exists" => {
                        self.expect_symbol("(")?;
                        let q = self.parse_query()?;
                        self.expect_symbol(")")?;
                        Ok(Expr::Exists(Box::new(q)))
                    }
                    "row_number" => {
                        self.expect_symbol("(")?;
                        self.expect_symbol(")")?;
                        self.expect_keyword("over")?;
                        self.expect_symbol("(")?;
                        self.expect_keyword("order")?;
                        self.expect_keyword("by")?;
                        let mut keys = Vec::new();
                        loop {
                            keys.push(self.parse_or()?);
                            if !self.eat_symbol(",") {
                                break;
                            }
                        }
                        self.expect_symbol(")")?;
                        Ok(Expr::RowNumber { order_by: keys })
                    }
                    _ => {
                        if self.eat_symbol(".") {
                            let column = self.expect_ident()?;
                            Ok(Expr::col(&id, &column))
                        } else {
                            Ok(Expr::bare(&id))
                        }
                    }
                }
            }
            other => Err(EngineError::Parse(format!("unexpected token {:?}", other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_query;

    /// Parse a SQL string into an expression (used in tests).
    fn parse_expr(input: &str) -> Result<Expr, EngineError> {
        let tokens = tokenize(input)?;
        let mut parser = Parser { tokens, pos: 0 };
        let e = parser.parse_or()?;
        parser.expect_eof()?;
        Ok(e)
    }

    #[test]
    fn parses_simple_select() {
        let q =
            parse_query("SELECT e.emp AS emp FROM employees AS e WHERE e.salary > 10000").unwrap();
        match &q {
            Query::Select(s) => {
                assert_eq!(s.items.len(), 1);
                assert_eq!(s.from.len(), 1);
                assert!(s.where_clause.is_some());
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn parses_union_all() {
        let q = parse_query(
            "(SELECT t.emp AS emp FROM tasks AS t) UNION ALL (SELECT e.emp AS emp FROM employees AS e)",
        )
        .unwrap();
        assert!(matches!(q, Query::UnionAll(ref v) if v.len() == 2));
    }

    #[test]
    fn distinct_order_by_and_except_are_refused_not_misread() {
        use crate::exec::Engine;
        use crate::storage::{ColumnType, Storage, TableDef};
        let mut storage = Storage::new();
        storage
            .create_table(TableDef::new("t", vec![("a", ColumnType::Int)]))
            .unwrap();
        storage.insert("t", vec![SqlValue::Int(1)]).unwrap();
        let engine = Engine::with_storage(storage);
        for sql in [
            "SELECT DISTINCT t.a AS a FROM t AS t",
            "select distinct FROM t AS t",
            "SELECT DISTINCT FROM t",
            "SELECT t.a AS a FROM t AS t ORDER BY t.a",
            "SELECT t.a AS a FROM t ORDER BY t.a",
            "SELECT t.a AS a FROM t AS t WHERE t.a > 0 ORDER BY t.a",
            "SELECT order FROM t",
            "SELECT t.a AS order FROM t AS t",
            "SELECT t.a AS a FROM t AS distinct",
            "WITH q AS (SELECT t.a AS a FROM t AS t ORDER BY t.a) SELECT q.a AS a FROM q AS q",
            "(SELECT t.a AS a FROM t AS t) EXCEPT ALL (SELECT t.a AS a FROM t AS t)",
            "SELECT t.a AS a FROM t AS t EXCEPT ALL SELECT t.a AS a FROM t AS t",
            "SELECT t.a AS a FROM t except SELECT t.a AS a FROM t",
            "(SELECT t.a AS a FROM t AS t) UNION ALL (SELECT t.a AS a FROM t AS t) ORDER BY a",
            "SELECT t.a AS a FROM t AS t WHERE EXISTS (SELECT DISTINCT t.a AS a FROM t AS t)",
        ] {
            let parsed = parse_query(sql);
            assert!(
                matches!(parsed, Err(EngineError::Parse(ref m)) if m.contains("not supported")),
                "{sql}: {parsed:?}"
            );
            assert_eq!(engine.execute_sql(sql).unwrap_err(), parsed.unwrap_err());
        }
        // `ORDER BY` keeps its one legal place.
        let rn = "SELECT ROW_NUMBER() OVER (ORDER BY t.a) AS i FROM t AS t";
        assert_eq!(
            engine.execute_sql(rn).unwrap().rows,
            vec![vec![SqlValue::Int(1)]]
        );
    }

    #[test]
    fn parses_with_and_row_number() {
        let sql = "WITH q AS (SELECT x.name AS i1_name, ROW_NUMBER() OVER (ORDER BY x.name) AS i2 FROM departments AS x) \
                   SELECT z.i2 AS i1_2 FROM q AS z";
        let q = parse_query(sql).unwrap();
        assert!(matches!(q, Query::With { .. }));
    }

    #[test]
    fn parses_exists_and_not() {
        let e = parse_expr("NOT (EXISTS (SELECT 1 AS one FROM tasks AS t WHERE t.emp = e.name))")
            .unwrap();
        assert!(matches!(e, Expr::Not(_)));
    }

    #[test]
    fn parses_string_escapes_and_booleans() {
        let e = parse_expr("'it''s' || 'fine'").unwrap();
        assert!(matches!(
            e,
            Expr::BinOp {
                op: BinOp::Concat,
                ..
            }
        ));
        assert_eq!(parse_expr("TRUE").unwrap(), Expr::lit(true));
        assert_eq!(parse_expr("NULL").unwrap(), Expr::Literal(SqlValue::Null));
    }

    #[test]
    fn operator_precedence_and_binds_tighter_than_or() {
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        match e {
            Expr::BinOp {
                op: BinOp::Or,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::BinOp { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn print_parse_round_trip_preserves_structure() {
        let sql = "WITH q AS (SELECT x.name AS n, ROW_NUMBER() OVER (ORDER BY x.name) AS i FROM departments AS x) \
                   (SELECT z.n AS n FROM q AS z WHERE (z.i > 1)) UNION ALL (SELECT y.dept AS n FROM employees AS y)";
        let q1 = parse_query(sql).unwrap();
        let printed = print_query(&q1);
        let q2 = parse_query(&printed).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("SELEC x").is_err());
        assert!(parse_query("SELECT 'unterminated").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_query("SELECT 1 AS x EXTRA").is_err());
    }
}
