//! A bottom-up validator for [`PhysicalPlan`] trees.
//!
//! The planner resolves column references to **positions** in the input
//! batch at plan time; the vectorized executor then indexes batches blindly.
//! This validator re-derives every node's output schema (names *and*
//! inferred column types) bottom-up and checks the invariants the executor
//! relies on:
//!
//! * every [`VExpr::Col`] index is in range for its input and resolves to
//!   the column name recorded at plan time
//!   ([`codes::COL_OUT_OF_RANGE`], [`codes::COL_NAME_MISMATCH`]);
//! * hash-join key lists pair up and agree in inferred type
//!   ([`codes::JOIN_KEY_ARITY`], [`codes::JOIN_KEY_TYPE_MISMATCH`]);
//! * every [`VExpr::Param`] slot names a declared parameter
//!   ([`codes::UNDECLARED_PARAM_SLOT`]);
//! * `CteScan` names are bound by an enclosing `With`, and outer column
//!   references are bound by an enclosing scope frame
//!   ([`codes::UNKNOWN_CTE`], [`codes::UNRESOLVED_OUTER_REF`]);
//! * projection and `UNION ALL` arities line up
//!   ([`codes::PROJECTION_ARITY`], [`codes::UNION_ARITY`]);
//! * operator operand types fit ([`codes::EXPR_TYPE_MISMATCH`]), with
//!   `NULL` and param slots typed as ⊤ (compatible with everything).
//!
//! All of these invariants are **cardinality-independent**: they constrain
//! schemas, positions and types, never row counts. A plan the validator
//! accepts is therefore equally sound at any input size. Pipeline breakers (see
//! [`PhysicalPlan::is_pipeline_breaker`]) differ from streaming operators
//! only in *when* they may emit, which is likewise invisible to these
//! checks.

use crate::{codes, Diagnostic, Stage};
use sqlengine::ast::BinOp;
use sqlengine::plan::{PhysicalPlan, VExpr};
use sqlengine::storage::{ColumnType, TableDef};
use sqlengine::value::SqlValue;

/// The inferred type of a column or scalar expression. `Unknown` is ⊤:
/// params, `NULL` literals and columns of unknown relations are compatible
/// with everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColTy {
    Int,
    Bool,
    Text,
    Unknown,
}

impl ColTy {
    fn of_column_type(t: ColumnType) -> ColTy {
        match t {
            ColumnType::Int => ColTy::Int,
            ColumnType::Bool => ColTy::Bool,
            ColumnType::Text => ColTy::Text,
        }
    }

    fn of_value(v: &SqlValue) -> ColTy {
        match v {
            SqlValue::Null => ColTy::Unknown,
            SqlValue::Bool(_) => ColTy::Bool,
            SqlValue::Int(_) => ColTy::Int,
            SqlValue::Str(_) => ColTy::Text,
        }
    }

    fn compatible(self, other: ColTy) -> bool {
        self == ColTy::Unknown || other == ColTy::Unknown || self == other
    }

    fn name(self) -> &'static str {
        match self {
            ColTy::Int => "int",
            ColTy::Bool => "bool",
            ColTy::Text => "text",
            ColTy::Unknown => "unknown",
        }
    }
}

/// One column of a derived schema: its name and inferred type.
type Col = (String, ColTy);

/// Validate a physical plan against the table catalog it was planned from
/// and the query's declared parameter names. Returns every finding; callers
/// gate on [`crate::Severity::Error`].
pub fn validate_plan(
    plan: &PhysicalPlan,
    catalog: &[TableDef],
    declared_params: &[String],
) -> Vec<Diagnostic> {
    let mut checker = Checker {
        catalog,
        declared_params,
        ctes: Vec::new(),
        outer: Vec::new(),
        out: Vec::new(),
    };
    checker.check(plan, "plan");
    checker.out
}

struct Checker<'a> {
    catalog: &'a [TableDef],
    declared_params: &'a [String],
    /// `With` bindings in scope, innermost last.
    ctes: Vec<(String, Vec<Col>)>,
    /// Enclosing-query schemas for correlated references, innermost last.
    outer: Vec<Vec<Col>>,
    out: Vec<Diagnostic>,
}

impl Checker<'_> {
    fn error(&mut self, code: &'static str, path: &str, message: String) {
        self.out.push(Diagnostic::error(
            Stage::Plan,
            code,
            path.to_string(),
            message,
        ));
    }

    /// Derive the node's output schema bottom-up, reporting violations along
    /// the way. The returned schema always matches `output_columns()` in
    /// names so downstream checks stay meaningful after an upstream error.
    fn check(&mut self, plan: &PhysicalPlan, path: &str) -> Vec<Col> {
        match plan {
            PhysicalPlan::UnitRow => Vec::new(),
            PhysicalPlan::TableScan { table, columns, .. } => {
                match self.catalog.iter().find(|d| &d.name == table) {
                    None => {
                        self.error(
                            codes::UNKNOWN_TABLE,
                            path,
                            format!("table scan references unknown table {}", table),
                        );
                        columns
                            .iter()
                            .map(|c| (c.clone(), ColTy::Unknown))
                            .collect()
                    }
                    Some(def) => {
                        let def_names: Vec<&String> = def.columns.iter().map(|(c, _)| c).collect();
                        if !columns.iter().eq(def_names.iter().copied()) {
                            self.error(
                                codes::SCAN_COLUMN_MISMATCH,
                                path,
                                format!(
                                    "scan of {} records columns [{}] but the catalog defines [{}]",
                                    table,
                                    columns.join(", "),
                                    def.column_names().join(", ")
                                ),
                            );
                        }
                        def.columns
                            .iter()
                            .map(|(c, t)| (c.clone(), ColTy::of_column_type(*t)))
                            .collect()
                    }
                }
            }
            PhysicalPlan::CteScan { name, columns, .. } => {
                let binding = self
                    .ctes
                    .iter()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map(|(_, s)| s.clone());
                match binding {
                    None => {
                        self.error(
                            codes::UNKNOWN_CTE,
                            path,
                            format!("CteScan references {} with no enclosing With", name),
                        );
                        columns
                            .iter()
                            .map(|c| (c.clone(), ColTy::Unknown))
                            .collect()
                    }
                    Some(def_schema) => {
                        let def_names: Vec<&String> = def_schema.iter().map(|(c, _)| c).collect();
                        if !columns.iter().eq(def_names.iter().copied()) {
                            self.error(
                                codes::SCAN_COLUMN_MISMATCH,
                                path,
                                format!(
                                    "CteScan of {} records columns [{}] but the definition \
                                     produces [{}]",
                                    name,
                                    columns.join(", "),
                                    def_names
                                        .iter()
                                        .map(|s| s.as_str())
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ),
                            );
                        }
                        def_schema
                    }
                }
            }
            PhysicalPlan::SubqueryScan { input, .. } => {
                self.check(input, &format!("{}/subquery", path))
            }
            PhysicalPlan::NestedLoopJoin { left, right } => {
                let mut schema = self.check(left, &format!("{}/nl-join.left", path));
                schema.extend(self.check(right, &format!("{}/nl-join.right", path)));
                schema
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                let left_schema = self.check(left, &format!("{}/hash-join.left", path));
                let right_schema = self.check(right, &format!("{}/hash-join.right", path));
                if left_keys.len() != right_keys.len() {
                    self.error(
                        codes::JOIN_KEY_ARITY,
                        path,
                        format!(
                            "hash join has {} left keys but {} right keys",
                            left_keys.len(),
                            right_keys.len()
                        ),
                    );
                }
                for (i, (lk, rk)) in left_keys.iter().zip(right_keys).enumerate() {
                    let key_path = format!("{}/hash-join.key{}", path, i);
                    let lt = self.check_expr(lk, &left_schema, &key_path);
                    let rt = self.check_expr(rk, &right_schema, &key_path);
                    if !lt.compatible(rt) {
                        self.error(
                            codes::JOIN_KEY_TYPE_MISMATCH,
                            &key_path,
                            format!(
                                "join key pair {} = {} disagrees in type: {} vs {}",
                                lk,
                                rk,
                                lt.name(),
                                rt.name()
                            ),
                        );
                    }
                }
                let mut schema = left_schema;
                schema.extend(right_schema);
                schema
            }
            PhysicalPlan::Filter { input, predicate } => {
                let schema = self.check(input, &format!("{}/filter.input", path));
                let ty = self.check_expr(predicate, &schema, &format!("{}/filter", path));
                if !ty.compatible(ColTy::Bool) {
                    self.error(
                        codes::EXPR_TYPE_MISMATCH,
                        path,
                        format!(
                            "filter predicate {} has type {}, not bool",
                            predicate,
                            ty.name()
                        ),
                    );
                }
                schema
            }
            PhysicalPlan::ExistsSemiJoin { input, subplan, .. } => {
                let schema = self.check(input, &format!("{}/semi-join.input", path));
                self.outer.push(schema.clone());
                self.check(subplan, &format!("{}/semi-join.subplan", path));
                self.outer.pop();
                schema
            }
            PhysicalPlan::HashSemiJoin {
                input,
                build,
                probe_keys,
                build_keys,
                ..
            } => {
                let schema = self.check(input, &format!("{}/hash-semi-join.input", path));
                // The build side is uncorrelated by construction: it is
                // checked under the *enclosing* scopes, without the input's
                // frame — a leaked correlated reference surfaces as
                // UNRESOLVED_OUTER_REF here.
                let build_schema = self.check(build, &format!("{}/hash-semi-join.build", path));
                if probe_keys.len() != build_keys.len() {
                    self.error(
                        codes::JOIN_KEY_ARITY,
                        path,
                        format!(
                            "hash semi join has {} probe keys but {} build keys",
                            probe_keys.len(),
                            build_keys.len()
                        ),
                    );
                }
                for (i, (pk, bk)) in probe_keys.iter().zip(build_keys).enumerate() {
                    let key_path = format!("{}/hash-semi-join.key{}", path, i);
                    let pt = self.check_expr(pk, &schema, &key_path);
                    let bt = self.check_expr(bk, &build_schema, &key_path);
                    if !pt.compatible(bt) {
                        self.error(
                            codes::JOIN_KEY_TYPE_MISMATCH,
                            &key_path,
                            format!(
                                "semi-join key pair {} = {} disagrees in type: {} vs {}",
                                pk,
                                bk,
                                pt.name(),
                                bt.name()
                            ),
                        );
                    }
                }
                schema
            }
            PhysicalPlan::RowNumber { input, specs } => {
                let mut schema = self.check(input, &format!("{}/row-number.input", path));
                for (i, keys) in specs.iter().enumerate() {
                    for key in keys {
                        self.check_expr(key, &schema, &format!("{}/row-number.spec{}", path, i));
                    }
                }
                schema.extend((0..specs.len()).map(|i| (format!("#rn{}", i), ColTy::Int)));
                schema
            }
            PhysicalPlan::Project {
                input,
                exprs,
                columns,
            } => {
                let input_schema = self.check(input, &format!("{}/project.input", path));
                if exprs.len() != columns.len() {
                    self.error(
                        codes::PROJECTION_ARITY,
                        path,
                        format!(
                            "projection evaluates {} expressions but names {} columns",
                            exprs.len(),
                            columns.len()
                        ),
                    );
                }
                let mut schema = Vec::with_capacity(columns.len());
                for (i, name) in columns.iter().enumerate() {
                    let ty = match exprs.get(i) {
                        Some(e) => {
                            self.check_expr(e, &input_schema, &format!("{}/project.{}", path, name))
                        }
                        None => ColTy::Unknown,
                    };
                    schema.push((name.clone(), ty));
                }
                // Extra expressions beyond the named columns still get checked.
                for e in exprs.iter().skip(columns.len()) {
                    self.check_expr(e, &input_schema, &format!("{}/project.extra", path));
                }
                schema
            }
            PhysicalPlan::UnionAll(branches) => {
                let mut first: Option<Vec<Col>> = None;
                for (i, b) in branches.iter().enumerate() {
                    let schema = self.check(b, &format!("{}/union.branch{}", path, i));
                    match &first {
                        None => first = Some(schema),
                        Some(head) => {
                            if schema.len() != head.len() {
                                self.error(
                                    codes::UNION_ARITY,
                                    path,
                                    format!(
                                        "UNION ALL branch {} has {} columns but branch 0 has {}",
                                        i,
                                        schema.len(),
                                        head.len()
                                    ),
                                );
                            }
                        }
                    }
                }
                first.unwrap_or_default()
            }
            PhysicalPlan::With {
                name,
                definition,
                body,
            } => {
                let def_schema = self.check(definition, &format!("{}/with({}).def", path, name));
                self.ctes.push((name.clone(), def_schema));
                let schema = self.check(body, &format!("{}/with({}).body", path, name));
                self.ctes.pop();
                schema
            }
        }
    }

    fn check_expr(&mut self, expr: &VExpr, schema: &[Col], path: &str) -> ColTy {
        match expr {
            VExpr::Col { index, column, .. } => match schema.get(*index) {
                None => {
                    self.error(
                        codes::COL_OUT_OF_RANGE,
                        path,
                        format!(
                            "column reference {} points at position {} but the input has \
                             only {} columns",
                            column,
                            index,
                            schema.len()
                        ),
                    );
                    ColTy::Unknown
                }
                Some((name, ty)) => {
                    if name != column {
                        self.error(
                            codes::COL_NAME_MISMATCH,
                            path,
                            format!(
                                "column reference at position {} was resolved as {} but the \
                                 input names that column {}",
                                index, column, name
                            ),
                        );
                    }
                    *ty
                }
            },
            VExpr::Outer { table, column } => {
                let found = self
                    .outer
                    .iter()
                    .rev()
                    .flat_map(|frame| frame.iter())
                    .find(|(name, _)| name == column);
                match found {
                    Some((_, ty)) => *ty,
                    None => {
                        let qualifier = table
                            .as_ref()
                            .map(|t| format!("{}.", t))
                            .unwrap_or_default();
                        self.error(
                            codes::UNRESOLVED_OUTER_REF,
                            path,
                            format!(
                                "outer reference {}{} is not bound by any enclosing scope \
                                 ({} frame(s) in scope)",
                                qualifier,
                                column,
                                self.outer.len()
                            ),
                        );
                        ColTy::Unknown
                    }
                }
            }
            VExpr::Lit(v) => ColTy::of_value(v),
            VExpr::Param(name) => {
                if !self.declared_params.iter().any(|p| p == name) {
                    self.error(
                        codes::UNDECLARED_PARAM_SLOT,
                        path,
                        format!(
                            "param slot :{} is not among the declared parameters [{}]",
                            name,
                            self.declared_params.join(", ")
                        ),
                    );
                }
                ColTy::Unknown
            }
            VExpr::BinOp { op, left, right } => {
                let lt = self.check_expr(left, schema, path);
                let rt = self.check_expr(right, schema, path);
                self.check_binop(*op, lt, rt, expr, path)
            }
            VExpr::Not(inner) => {
                let ty = self.check_expr(inner, schema, path);
                if !ty.compatible(ColTy::Bool) {
                    self.error(
                        codes::EXPR_TYPE_MISMATCH,
                        path,
                        format!("NOT applied to a {} operand", ty.name()),
                    );
                }
                ColTy::Bool
            }
            VExpr::Exists(subplan) => {
                self.outer.push(schema.to_vec());
                self.check(subplan, &format!("{}/exists", path));
                self.outer.pop();
                ColTy::Bool
            }
        }
    }

    fn check_binop(&mut self, op: BinOp, lt: ColTy, rt: ColTy, expr: &VExpr, path: &str) -> ColTy {
        let mismatch = |checker: &mut Self, detail: String| {
            checker.error(codes::EXPR_TYPE_MISMATCH, path, detail);
        };
        match op {
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !lt.compatible(rt) {
                    mismatch(
                        self,
                        format!(
                            "comparison {} has operand types {} and {}",
                            expr,
                            lt.name(),
                            rt.name()
                        ),
                    );
                }
                ColTy::Bool
            }
            BinOp::And | BinOp::Or => {
                if !lt.compatible(ColTy::Bool) || !rt.compatible(ColTy::Bool) {
                    mismatch(
                        self,
                        format!(
                            "{} has operand types {} and {}, not bool",
                            expr,
                            lt.name(),
                            rt.name()
                        ),
                    );
                }
                ColTy::Bool
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                if !lt.compatible(ColTy::Int) || !rt.compatible(ColTy::Int) {
                    mismatch(
                        self,
                        format!(
                            "arithmetic {} has operand types {} and {}, not int",
                            expr,
                            lt.name(),
                            rt.name()
                        ),
                    );
                }
                ColTy::Int
            }
            BinOp::Concat => {
                if !lt.compatible(ColTy::Text) || !rt.compatible(ColTy::Text) {
                    mismatch(
                        self,
                        format!(
                            "concatenation {} has operand types {} and {}, not text",
                            expr,
                            lt.name(),
                            rt.name()
                        ),
                    );
                }
                ColTy::Text
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::ast::{Expr, Query, Select};
    use sqlengine::plan::plan_query;
    use sqlengine::SchemaCatalog;

    fn defs() -> Vec<TableDef> {
        vec![
            TableDef::new(
                "employees",
                vec![
                    ("id", ColumnType::Int),
                    ("dept", ColumnType::Text),
                    ("name", ColumnType::Text),
                    ("salary", ColumnType::Int),
                ],
            ),
            TableDef::new(
                "departments",
                vec![("id", ColumnType::Int), ("name", ColumnType::Text)],
            ),
        ]
    }

    fn join_plan() -> PhysicalPlan {
        let q = Query::select(
            Select::new()
                .item(Expr::col("d", "name"), "dept")
                .item(Expr::col("e", "name"), "emp")
                .from_named("departments", "d")
                .from_named("employees", "e")
                .filter(Expr::eq(Expr::col("d", "name"), Expr::col("e", "dept"))),
        );
        plan_query(&q, &SchemaCatalog::new(defs())).unwrap()
    }

    fn codes_of(plan: &PhysicalPlan) -> Vec<&'static str> {
        validate_plan(plan, &defs(), &[])
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn well_formed_plans_validate_clean() {
        assert!(codes_of(&join_plan()).is_empty());
    }

    /// The breaker classification: exactly the operators that must see their
    /// whole input before emitting (numbering, union) are
    /// pipeline breakers; streaming operators — including hash join, whose
    /// probe side streams — are not. The validator's checks are
    /// cardinality-independent either way.
    #[test]
    fn pipeline_breaker_classification_is_exactly_the_blocking_operators() {
        fn scan() -> Box<PhysicalPlan> {
            Box::new(PhysicalPlan::TableScan {
                table: "employees".to_string(),
                alias: "e".to_string(),
                columns: vec!["id".to_string()],
            })
        }
        let breakers = [
            PhysicalPlan::RowNumber {
                input: scan(),
                specs: vec![vec![]],
            },
            PhysicalPlan::UnionAll(vec![*scan(), *scan()]),
        ];
        for plan in &breakers {
            assert!(plan.is_pipeline_breaker(), "{:?}", plan);
        }
        let streaming = [
            PhysicalPlan::UnitRow,
            *scan(),
            PhysicalPlan::Filter {
                input: scan(),
                predicate: VExpr::Col {
                    index: 0,
                    alias: None,
                    column: "id".to_string(),
                },
            },
            PhysicalPlan::NestedLoopJoin {
                left: scan(),
                right: scan(),
            },
            join_plan(),
        ];
        for plan in &streaming {
            assert!(!plan.is_pipeline_breaker(), "{:?}", plan);
        }
    }

    #[test]
    fn out_of_range_columns_are_reported() {
        let mut plan = join_plan();
        // Corrupt the projection: point an expression past the input arity.
        if let PhysicalPlan::Project { exprs, .. } = &mut plan {
            exprs[0] = VExpr::Col {
                index: 99,
                alias: None,
                column: "name".to_string(),
            };
        } else {
            panic!("expected a Project root");
        }
        assert!(codes_of(&plan).contains(&codes::COL_OUT_OF_RANGE));
    }

    #[test]
    fn name_mismatches_are_reported() {
        let mut plan = join_plan();
        if let PhysicalPlan::Project { exprs, .. } = &mut plan {
            if let VExpr::Col { column, .. } = &mut exprs[0] {
                *column = "salary".to_string();
            }
        }
        assert!(codes_of(&plan).contains(&codes::COL_NAME_MISMATCH));
    }

    #[test]
    fn join_key_type_mismatches_are_reported() {
        let mut plan = join_plan();
        fn corrupt(p: &mut PhysicalPlan) -> bool {
            match p {
                PhysicalPlan::HashJoin { left_keys, .. } => {
                    left_keys[0] = VExpr::Lit(SqlValue::Int(1));
                    true
                }
                PhysicalPlan::Project { input, .. } | PhysicalPlan::Filter { input, .. } => {
                    corrupt(input)
                }
                _ => false,
            }
        }
        assert!(corrupt(&mut plan), "no hash join found to corrupt");
        assert!(codes_of(&plan).contains(&codes::JOIN_KEY_TYPE_MISMATCH));
    }

    #[test]
    fn undeclared_param_slots_are_reported() {
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .from_named("employees", "e")
                .filter(Expr::eq(Expr::col("e", "id"), Expr::Param("wanted".into()))),
        );
        let plan = plan_query(&q, &SchemaCatalog::new(defs())).unwrap();
        let found = validate_plan(&plan, &defs(), &[]);
        assert!(found.iter().any(|d| d.code == codes::UNDECLARED_PARAM_SLOT));
        let ok = validate_plan(&plan, &defs(), &["wanted".to_string()]);
        assert!(ok.is_empty(), "{:?}", ok);
    }

    #[test]
    fn cte_scans_need_an_enclosing_with() {
        let orphan = PhysicalPlan::CteScan {
            name: "q1".to_string(),
            alias: "q".to_string(),
            columns: vec!["a".to_string()],
        };
        assert!(codes_of(&orphan).contains(&codes::UNKNOWN_CTE));
    }

    #[test]
    fn outer_refs_need_an_enclosing_scope() {
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::UnitRow),
            predicate: VExpr::Outer {
                table: None,
                column: "ghost".to_string(),
            },
        };
        assert!(codes_of(&plan).contains(&codes::UNRESOLVED_OUTER_REF));
    }

    #[test]
    fn correlated_exists_validates_clean() {
        let sub = Query::select(
            Select::new()
                .item(Expr::lit(1), "one")
                .from_named("departments", "d")
                .filter(Expr::eq(Expr::col("d", "name"), Expr::col("e", "dept"))),
        );
        let q = Query::select(
            Select::new()
                .item(Expr::col("e", "name"), "name")
                .from_named("employees", "e")
                .filter(Expr::not(Expr::Exists(Box::new(sub)))),
        );
        let plan = plan_query(&q, &SchemaCatalog::new(defs())).unwrap();
        assert!(codes_of(&plan).is_empty());
    }

    #[test]
    fn projection_arity_mismatches_are_reported() {
        let mut plan = join_plan();
        if let PhysicalPlan::Project { columns, .. } = &mut plan {
            columns.pop();
        }
        assert!(codes_of(&plan).contains(&codes::PROJECTION_ARITY));
    }
}
