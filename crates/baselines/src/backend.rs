//! The paper's comparison systems as [`SqlBackend`] strategies, selectable
//! through `Shredder::builder().backend(..)` exactly like the built-in
//! backends:
//!
//! * [`LoopLiftBackend`] — Ferry-style loop-lifting (Figure 1(b)); correct
//!   but emits `ROW_NUMBER` over unreduced products.
//! * [`FlatDefaultBackend`] — Links' stock flat evaluation (Figure 1(a));
//!   rejects nested result types, exactly as stock Links does.
//! * [`VandenBusscheBackend`] — Van den Bussche's simulation of nested
//!   queries by flat queries without value invention; only sound for the
//!   Appendix A relation shape, and refuses multiset unions (whose
//!   simulation breaks bag semantics — the paper's Appendix A point).

use nrc::types::{BaseType, Type};
use nrc::value::Value;
use shredding::error::ShredError;
use shredding::session::{
    BackendPlan, Bindings, ExecContext, PlanRequest, SqlBackend, StageExplain,
};

use crate::flat_default::{compile_flat, execute_flat_bound, FlatCompiled};
use crate::looplift::{compile_looplift, execute_looplift_bound, LoopLiftedQuery};
use crate::vandenbussche::{encode, NestedRelation};

/// The loop-lifting baseline as a session backend (paper Figure 1(b)).
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopLiftBackend;

impl SqlBackend for LoopLiftBackend {
    fn name(&self) -> &'static str {
        "looplift"
    }

    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError> {
        let compiled = compile_looplift(req.term, req.schema)?;
        let paths = req.result_type.paths();
        let stages = compiled
            .stages
            .annotations()
            .into_iter()
            .zip(paths)
            .map(|(stage, path)| StageExplain {
                path: path.to_string(),
                sql: Some(sqlengine::print_query(&stage.sql)),
                physical: None,
                columns: stage.layout.columns().to_vec(),
                rewrites: Vec::new(),
            })
            .collect();
        Ok(BackendPlan::new(stages, compiled))
    }

    fn execute(
        &self,
        plan: &BackendPlan,
        cx: &ExecContext<'_>,
        bindings: &Bindings,
    ) -> Result<Value, ShredError> {
        let compiled: &LoopLiftedQuery = plan.downcast()?;
        let engine = cx.engine()?;
        let params = bindings.to_sql_params()?;
        // Sink-level timing: the baseline helper bundles execute + decode +
        // stitch, so the whole evaluation lands in one Execute span.
        shredding::obs::time_maybe(cx.obs(), shredding::obs::Stage::Execute, || {
            execute_looplift_bound(compiled, engine, &params)
        })
    }
}

/// Links' default flat evaluation as a session backend (paper Figure 1(a)).
/// Preparing a query with a nested result type fails with
/// [`ShredError::NotFlatNested`], mirroring stock Links.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatDefaultBackend;

impl SqlBackend for FlatDefaultBackend {
    fn name(&self) -> &'static str {
        "flat-default"
    }

    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError> {
        let compiled = compile_flat(req.term, req.schema)?;
        let stages = vec![StageExplain {
            path: "ε".to_string(),
            sql: Some(sqlengine::print_query(&compiled.sql)),
            physical: None,
            columns: compiled.column_names(),
            rewrites: Vec::new(),
        }];
        Ok(BackendPlan::new(stages, compiled))
    }

    fn execute(
        &self,
        plan: &BackendPlan,
        cx: &ExecContext<'_>,
        bindings: &Bindings,
    ) -> Result<Value, ShredError> {
        let compiled: &FlatCompiled = plan.downcast()?;
        let engine = cx.engine()?;
        let params = bindings.to_sql_params()?;
        shredding::obs::time_maybe(cx.obs(), shredding::obs::Stage::Execute, || {
            execute_flat_bound(compiled, engine, &params)
        })
    }
}

/// Van den Bussche's simulation as a session backend. The simulation
/// represents nested *set* relations by flat relations without value
/// invention; this backend supports queries whose result has the Appendix A
/// shape `Bag ⟨A: Int, B: Bag Int⟩` and routes their result through the flat
/// representation (encode → decode). Multiset unions are refused at prepare
/// time: simulating them multiplies multiplicities by the active-domain size
/// (see [`crate::vandenbussche::measure_blowup`]), which is exactly the
/// failure Appendix A demonstrates.
#[derive(Debug, Clone, Copy, Default)]
pub struct VandenBusscheBackend;

/// The result shape the simulation supports: `Bag ⟨A: Int, B: Bag Int⟩`.
fn is_appendix_a_shape(ty: &Type) -> bool {
    let Type::Bag(elem) = ty else { return false };
    let Type::Record(fields) = elem.as_ref() else {
        return false;
    };
    if fields.len() != 2 {
        return false;
    }
    let a = fields.iter().find(|(l, _)| l == "A");
    let b = fields.iter().find(|(l, _)| l == "B");
    matches!(a, Some((_, Type::Base(BaseType::Int))))
        && matches!(b, Some((_, t)) if matches!(t, Type::Bag(inner) if **inner == Type::Base(BaseType::Int)))
}

impl SqlBackend for VandenBusscheBackend {
    fn name(&self) -> &'static str {
        "vandenbussche"
    }

    fn prepare(&self, req: &PlanRequest<'_>) -> Result<BackendPlan, ShredError> {
        if !is_appendix_a_shape(req.result_type) {
            return Err(ShredError::NotFlatNested(format!(
                "the Van den Bussche simulation only supports the Appendix A shape \
                 Bag ⟨A: Int, B: Bag Int⟩, not {}",
                req.result_type
            )));
        }
        if req.normalised.branches.len() > 1 {
            return Err(ShredError::NotFlatNested(
                "the Van den Bussche simulation does not preserve multiset semantics \
                 for unions (Appendix A); use measure_blowup to quantify the failure"
                    .into(),
            ));
        }
        let stages = vec![
            StageExplain {
                path: "ε".to_string(),
                sql: None,
                physical: None,
                columns: vec!["A".into(), "id".into(), "id1".into(), "id2".into()],
                rewrites: Vec::new(),
            },
            StageExplain {
                path: "B".to_string(),
                sql: None,
                physical: None,
                columns: vec!["id".into(), "id1".into(), "id2".into(), "B".into()],
                rewrites: Vec::new(),
            },
        ];
        Ok(BackendPlan::new(stages, req.term.clone()))
    }

    fn execute(
        &self,
        plan: &BackendPlan,
        cx: &ExecContext<'_>,
        bindings: &Bindings,
    ) -> Result<Value, ShredError> {
        let term: &nrc::Term = plan.downcast()?;
        let value = shredding::obs::time_maybe(cx.obs(), shredding::obs::Stage::Execute, || {
            nrc::eval_with_params(term, &cx.db()?, &bindings.to_value_map())
                .map_err(ShredError::Eval)
        })?;
        shredding::obs::time_maybe(cx.obs(), shredding::obs::Stage::Decode, || {
            let relation =
                NestedRelation::from_value(&value).map_err(|message| ShredError::Decode {
                    code: shredding::analysis::codes::DECODE_SHAPE_MISMATCH,
                    message,
                })?;
            // Round-trip through the simulation's flat representation.
            let decoded = encode(&relation).decode();
            Ok(decoded.to_value())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, OrgConfig};
    use nrc::builder::*;
    use nrc::schema::{Database, Schema, TableSchema};
    use shredding::session::Shredder;

    #[test]
    fn all_baseline_backends_are_send_sync() {
        // The `SqlBackend` trait requires `Send + Sync`; assert it holds for
        // the concrete baseline types (and their plan payloads, transitively,
        // via `BackendPlan::new`'s bound) so sessions using a baseline can be
        // shared across threads like the built-in backends.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LoopLiftBackend>();
        assert_send_sync::<FlatDefaultBackend>();
        assert_send_sync::<VandenBusscheBackend>();
        assert_send_sync::<Box<dyn SqlBackend>>();
    }

    #[test]
    fn looplift_backend_agrees_with_the_oracle_on_nested_queries() {
        let db = generate(&OrgConfig {
            departments: 3,
            employees_per_department: 5,
            contacts_per_department: 2,
            ..OrgConfig::default()
        });
        let session = Shredder::builder()
            .database(db)
            .backend(Box::new(LoopLiftBackend))
            .build()
            .unwrap();
        for (name, q) in datagen::queries::nested_queries() {
            let reference = session.oracle(&q).unwrap();
            let lifted = session.run(&q).unwrap();
            assert!(lifted.multiset_eq(&reference), "{} via loop-lifting", name);
        }
    }

    #[test]
    fn flat_backend_runs_flat_queries_and_rejects_nested_ones() {
        let db = generate(&OrgConfig::small());
        let session = Shredder::builder()
            .database(db)
            .backend(Box::new(FlatDefaultBackend))
            .build()
            .unwrap();
        for (name, q) in datagen::queries::flat_queries() {
            let reference = session.oracle(&q).unwrap();
            let flat = session.run(&q).unwrap();
            assert!(flat.multiset_eq(&reference), "{} via flat-default", name);
        }
        assert!(matches!(
            session.prepare(&datagen::queries::q4()),
            Err(ShredError::NotFlatNested(_))
        ));
    }

    fn appendix_a_db() -> Database {
        let schema = Schema::new()
            .with_table(TableSchema::new("r", vec![("a", nrc::BaseType::Int)]).with_key(vec!["a"]))
            .with_table(
                TableSchema::new(
                    "s",
                    vec![("a", nrc::BaseType::Int), ("b", nrc::BaseType::Int)],
                )
                .with_key(vec!["a", "b"]),
            );
        let mut db = Database::new(schema);
        for a in [1i64, 2] {
            db.insert_row("r", vec![("a", Value::Int(a))]).unwrap();
        }
        for (a, b) in [(1i64, 10i64), (1, 11), (2, 20)] {
            db.insert_row("s", vec![("a", Value::Int(a)), ("b", Value::Int(b))])
                .unwrap();
        }
        db
    }

    fn appendix_a_query() -> nrc::Term {
        for_in(
            "x",
            table("r"),
            singleton(record(vec![
                ("A", project(var("x"), "a")),
                (
                    "B",
                    for_where(
                        "y",
                        table("s"),
                        eq(project(var("y"), "a"), project(var("x"), "a")),
                        singleton(project(var("y"), "b")),
                    ),
                ),
            ])),
        )
    }

    #[test]
    fn vdb_backend_round_trips_the_appendix_a_shape() {
        let session = Shredder::builder()
            .database(appendix_a_db())
            .backend(Box::new(VandenBusscheBackend))
            .build()
            .unwrap();
        let q = appendix_a_query();
        let reference = session.oracle(&q).unwrap();
        let via_vdb = session.run(&q).unwrap();
        assert!(via_vdb.multiset_eq(&reference));
    }

    #[test]
    fn vdb_backend_refuses_other_result_shapes() {
        let db = generate(&OrgConfig::small());
        let session = Shredder::builder()
            .database(db)
            .backend(Box::new(VandenBusscheBackend))
            .build()
            .unwrap();
        assert!(matches!(
            session.prepare(&datagen::queries::q4()),
            Err(ShredError::NotFlatNested(_))
        ));
    }
}
