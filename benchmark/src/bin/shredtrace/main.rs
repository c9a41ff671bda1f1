//! The traced run: re-drives each workload's operations stage by stage
//! through the public layer functions (see `layers.rs`, the only file that
//! calls below the session API), one span per call, and prints the per-layer
//! numbers as one JSON line. End-to-end numbers never come from here: they
//! come from the untraced `shredbench` run.

#![forbid(unsafe_code)]

mod layers;
mod trace;

use layers::{ExecTotals, IrCounts, Reference};
use shredbench::cli::{self, Args};
use shredbench::recorder::Recorder;
use shredbench::report::Obj;
use shredbench::stats;
use shredbench::workloads::{
    live_passes, session, small_database, Exec, Frontend, Live, Workload, LIVE_CHECK_EVERY,
};
use shredding::session::{PreparedQuery, Shredder};
use shredding::ShredError;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Tracer, KEPT_PASSES};

/// Traced passes that run whatever `--seconds` says; the exact counts of the
/// live workload (`delta.rows`, …) are taken after exactly this many, so
/// they repeat from run to run.
const MIN_PASSES: usize = 8;

/// The per-layer numbers of one workload, by metric name.
type Layers = BTreeMap<String, f64>;

/// Drives the timed phase: warm-up passes unrecorded, then whole passes
/// until the time is up. `pass` returns `false` when its input ran out.
fn drive(
    t: &mut Tracer,
    args: &Args,
    mut pass: impl FnMut(&mut Tracer, usize) -> Result<bool, ShredError>,
) -> Result<usize, ShredError> {
    for _ in 0..args.workload.warmup_passes() {
        pass(t, 0)?;
    }
    t.recording = true;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = 0;
    while Instant::now() < deadline || passes < MIN_PASSES {
        t.keep_raw = passes < KEPT_PASSES;
        passes += 1;
        if !pass(t, passes)? {
            break;
        }
    }
    t.recording = false;
    Ok(passes)
}

fn set_exec_layers(layers: &mut Layers, t: &Tracer, prefix: &str) {
    for (metric, layer) in [
        ("exec.execute_ms", "exec.execute"),
        ("flatten.decode_ms", "flatten.decode"),
        ("stitch_ms", "stitch"),
    ] {
        layers.insert(metric.into(), stats::ms(t.layer_nanos(layer, prefix)));
    }
}

fn frontend(
    args: &Args,
    rec: &mut Recorder,
    t: &mut Tracer,
) -> Result<(Layers, usize, String), ShredError> {
    let w = Frontend::setup(args.seed)?;
    let schema = w.hit.schema().clone();
    // A cache-less session executes on its own engine; the traced
    // operations run on that one, the session-level ones on `hit`'s.
    let engine = w.cold.engine()?;
    let opts = layers::exec_options(Workload::FrontendSmall.workers());
    let references: Vec<Reference> = w
        .queries
        .iter()
        .map(|q| Reference::compile(&q.term, &schema))
        .collect::<Result<_, _>>()?;
    let prepared: Vec<PreparedQuery> = w
        .queries
        .iter()
        .map(|q| w.hit.prepare(&q.term))
        .collect::<Result<_, _>>()?;
    let expected = w.check(rec);
    let names: Vec<[String; 6]> = w
        .queries
        .iter()
        .map(|q| {
            ["cold.", "hit.", "u.cold.", "u.hit.", "u.exec.", "phases."]
                .map(|p| format!("{p}{}", q.name))
        })
        .collect();

    let mut cache_before = w.hit.cache_stats();
    let mut plans_before = plans_built(&w.hit);
    let passes = drive(t, args, |t, pass| {
        if pass == 1 {
            // The timed phase starts here: the counters it is held to.
            cache_before = w.hit.cache_stats();
            plans_before = plans_built(&w.hit);
        }
        for (i, q) in w.queries.iter().enumerate() {
            let reference = &references[i];
            for (kind, twin, session, cold) in [
                (&names[i][0], &names[i][2], &w.cold, true),
                (&names[i][1], &names[i][3], &w.hit, false),
            ] {
                let untraced = t.untraced_op(twin, || session.run(&q.term));
                expected[i].check_len(rec, twin, Some(untraced?));
                t.begin_op(kind);
                let ran = layers::front_end(t, &q.term, &schema, reference, cold).and_then(
                    |(params, compiled)| {
                        let plans = compiled.as_ref().unwrap_or(&reference.compiled);
                        let (value, _) = layers::execute(t, plans, engine, &params, opts)?;
                        layers::discard(t, compiled);
                        Ok(value)
                    },
                );
                t.end_op();
                expected[i].check_len(rec, kind, Some(ran?));
            }
            // The compile taken apart, held against the pipeline's plans.
            t.begin_op(&names[i][5]);
            let mirrors = layers::phases(t, &schema, reference);
            t.end_op();
            rec.check(mirrors?, || {
                format!("{}: the adapter's plans differ from the pipeline's", q.name)
            });
            // A hit still pays for everything before the cache lookup:
            // the same query through `execute` is the floor.
            let floor = t.untraced_op(&names[i][4], || w.hit.execute(&prepared[i]));
            expected[i].check_len(rec, &names[i][4], Some(floor?));
        }
        Ok(true)
    })?;

    let cache = w.hit.cache_stats();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    let mut layers = Layers::new();
    for (metric, layer, prefix) in [
        (
            "session.auto_parameterize_us",
            "session.auto_parameterize",
            "cold.",
        ),
        ("nrc.typecheck_us", "nrc.typecheck", "cold."),
        ("normalise_us", "normalise", "cold."),
        ("pipeline.compile_us", "pipeline.compile", "cold."),
        ("shred_us", "shred", "phases."),
        ("letins_us", "letins", "phases."),
        ("sqlgen_us", "sqlgen", "phases."),
        ("plan_us", "plan", "phases."),
        ("opt_us", "opt", "phases."),
        ("verify_us", "verify", "cold."),
    ] {
        layers.insert(metric.into(), stats::us(t.layer_nanos(layer, prefix)));
    }
    set_exec_layers(&mut layers, t, "cold.");
    layers.insert(
        "session.hit_overhead_us".into(),
        stats::us(t.root_nanos("u.hit.")) - stats::us(t.root_nanos("u.exec.")),
    );
    layers.insert(
        "session.cache_hit_share".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.insert(
        "session.plans_built".into(),
        (plans_built(&w.hit) - plans_before) as f64,
    );
    let counts = IrCounts::of(&references);
    for (metric, n) in [
        ("ir.stages", counts.stages),
        ("ir.sql_bytes", counts.sql_bytes),
        ("ir.plan_nodes", counts.plan_nodes),
        ("opt.rewrites", counts.rewrites),
        ("opt.skips", counts.skips),
        ("exec.shared_slots", counts.shared_slots),
    ] {
        layers.insert(metric.into(), n as f64);
    }
    Ok((layers, passes, w.hit.metrics_snapshot().to_json()))
}

/// Plans the session's engine has built, as the session itself reports it.
fn plans_built(session: &Shredder) -> i64 {
    session
        .metrics_snapshot()
        .gauge("engine.plans_built")
        .unwrap_or(0)
}

fn exec(
    args: &Args,
    rec: &mut Recorder,
    t: &mut Tracer,
) -> Result<(Layers, usize, String), ShredError> {
    let w = Exec::setup(args.workload, args.seed)?;
    let engine = w.session.engine()?;
    let opts = layers::exec_options(args.workload.workers());
    let references: Vec<Reference> = w
        .queries
        .iter()
        .map(|q| Reference::compile(&q.term, w.session.schema()))
        .collect::<Result<_, _>>()?;
    let expected = w.check(rec, args.seed);
    let kinds = args.workload.kinds();
    let twins: Vec<String> = kinds.iter().map(|k| format!("u.{k}")).collect();

    let mut morsels_per_pass: Vec<u64> = Vec::new();
    let mut peak_workers = 0;
    let mut morsel_nanos: Vec<u64> = Vec::new();
    let passes = drive(t, args, |t, pass| {
        let mut morsels = 0;
        for (i, reference) in references.iter().enumerate() {
            let untraced = t.untraced_op(&twins[i], || w.session.execute(&w.prepared[i]));
            expected[i].check_len(rec, &twins[i], Some(untraced?));
            t.begin_op(&kinds[i]);
            let ran = layers::execute(t, &reference.compiled, engine, &reference.params, opts);
            t.end_op();
            let (value, totals): (_, ExecTotals) = ran?;
            expected[i].check_len(rec, &kinds[i], Some(value));
            morsels += totals.morsels;
            if pass > 0 {
                peak_workers = peak_workers.max(totals.peak_workers);
                morsel_nanos.extend(totals.morsel_nanos);
            }
        }
        if pass > 0 {
            morsels_per_pass.push(morsels);
        }
        Ok(true)
    })?;

    let mut layers = Layers::new();
    set_exec_layers(&mut layers, t, "exec.");
    layers.insert(
        "exec.shared_slots".into(),
        IrCounts::of(&references).shared_slots as f64,
    );
    layers.insert(
        "par.morsels".into(),
        stats::median(&morsels_per_pass) as f64,
    );
    layers.insert("par.peak_workers".into(), peak_workers as f64);
    layers.insert(
        "par.morsel_p50_us".into(),
        stats::us(stats::median(&morsel_nanos)),
    );
    layers.insert(
        "par.morsel_p99_us".into(),
        stats::us(stats::quantile(&morsel_nanos, 0.99)),
    );
    // One extra pass through the engine's own profiler.
    let mut buckets = BTreeMap::new();
    for reference in &references {
        layers::profile_operators(
            &reference.compiled,
            engine,
            &reference.params,
            opts,
            &mut buckets,
        )?;
    }
    for bucket in layers::OP_BUCKETS {
        let (rows_out, nanos) = buckets.get(bucket).copied().unwrap_or((0, 0));
        layers.insert(format!("op.{bucket}.rows_out"), rows_out as f64);
        layers.insert(format!("op.{bucket}.incl_ms"), stats::ms(nanos));
    }
    Ok((layers, passes, w.session.metrics_snapshot().to_json()))
}

fn live(
    args: &Args,
    rec: &mut Recorder,
    t: &mut Tracer,
) -> Result<(Layers, usize, String), ShredError> {
    let mut w = Live::setup(args.seed)?;
    // The untraced twin: an identical session fed the identical writes, so
    // every traced operation has its untraced counterpart in the same pass.
    let twin = Live::setup(args.seed)?;
    let missing = || ShredError::Internal("the live session has no database".into());
    let shadow = layers::shadow_engine(w.session.database().ok_or_else(missing)?)?;
    let opts = layers::exec_options(Workload::LiveMixed.workers());
    let q1 = Reference::compile(&w.queries[0].term, w.session.schema())?;
    let tables = q1.tables();
    w.check(rec, args.seed);
    live_small_check(rec, args.seed)?;

    // Per view, the maintenance time of each pass (program reported).
    let mut maintain: Vec<Vec<u64>> = vec![Vec::new(); w.views.len()];
    let mut delta_rows = 0;
    let mut counts_at_min_passes = (0, 0, 0);
    let passes = drive(t, args, |t, pass| {
        let Some(writes) = w.feed.next() else {
            return Ok(false);
        };
        let engine = w.session.engine()?;
        let maintained_before: Vec<u64> = w.views.iter().map(|v| v.maintain_nanos()).collect();
        for (bulk, batch) in writes.writes() {
            let (kind, untraced_kind, shadow_kind) = if bulk {
                ("write_b64", "u.write_b64", "shadow_b64")
            } else {
                ("write_b1", "u.write_b1", "shadow_b1")
            };
            t.untraced_op(untraced_kind, || twin.session.apply_batch(batch))?;
            t.begin_op(kind);
            let delta = t.span("session.apply_batch", "Shredder::apply_batch", || {
                w.session.apply_batch(batch)
            });
            t.end_op();
            let delta = delta?;
            if pass > 0 {
                delta_rows += delta.row_count() as u64;
            }
            w.writes += 1;
            t.begin_op(shadow_kind);
            let applied = t.span("storage.apply", "Engine::apply_batch", || {
                layers::shadow_apply(&shadow, batch)
            });
            t.end_op();
            applied?;

            t.untraced_op("u.views_read", || {
                twin.views
                    .iter()
                    .try_for_each(|view| view.value().map(drop))
            })?;
            t.begin_op("views_read");
            let q1_rows = w
                .views
                .iter()
                .map(|view| t.span("delta.view_value", "Subscription::value", || view.value()))
                .collect::<Result<Vec<_>, _>>();
            t.end_op();
            let live_rows = q1_rows?[0].as_bag().map(|rows| rows.len());

            t.untraced_op("u.requery_first", || {
                twin.session.execute(&twin.prepared[0])
            })?;
            t.begin_op("requery_first");
            let ran = layers::retranspose(t, engine, &tables)
                .and_then(|()| layers::execute(t, &q1.compiled, engine, &q1.params, opts));
            t.end_op();
            let fresh_rows = ran?.0.as_bag().map(|rows| rows.len());
            rec.check(live_rows.is_some() && live_rows == fresh_rows, || {
                format!("view(Q1) has {live_rows:?} rows, a re-query {fresh_rows:?}")
            });
            if w.writes.is_multiple_of(LIVE_CHECK_EVERY) {
                w.compare_views(rec);
            }
        }
        if pass > 0 {
            for ((view, before), samples) in
                w.views.iter().zip(maintained_before).zip(&mut maintain)
            {
                samples.push(view.maintain_nanos() - before);
            }
        }
        if pass == MIN_PASSES {
            let reseeds: u64 = w.views.iter().map(|v| v.reseeds()).sum();
            counts_at_min_passes = (delta_rows, reseeds, layers::rows_live(engine));
        }
        Ok(true)
    })?;
    w.compare_views(rec);

    let mut layers = Layers::new();
    for size in ["b1", "b64"] {
        let shadow = t.root_nanos(&format!("shadow_{size}"));
        let write = t.root_nanos(&format!("write_{size}"));
        layers.insert(format!("storage.apply_{size}_us"), stats::us(shadow));
        layers.insert(
            format!("delta.maintain_{size}_us"),
            stats::us(write) - stats::us(shadow),
        );
    }
    for (q, samples) in w.queries.iter().zip(&maintain) {
        layers.insert(
            format!("delta.view_maintain_ms.{}", q.name),
            stats::ms(stats::median(samples)),
        );
    }
    let (rows, reseeds, rows_live) = counts_at_min_passes;
    layers.insert("delta.rows".into(), rows as f64);
    layers.insert("delta.reseeds".into(), reseeds as f64);
    layers.insert("storage.rows_live".into(), rows_live as f64);
    layers.insert(
        "storage.retranspose_us".into(),
        stats::us(t.layer_nanos("storage.retranspose", "requery_first")),
    );
    set_exec_layers(&mut layers, t, "requery_first");
    layers.insert(
        "exec.shared_slots".into(),
        IrCounts::of(std::slice::from_ref(&q1)).shared_slots as f64,
    );
    Ok((layers, passes, w.session.metrics_snapshot().to_json()))
}

/// At small scale, after two passes' worth of writes, every live view must
/// equal N⟦−⟧ evaluated over a database rebuilt from the engine's storage
/// (the session's own oracle reflects the load-time snapshot).
fn live_small_check(rec: &mut Recorder, seed: u64) -> Result<(), ShredError> {
    let db = small_database(seed);
    let feed = live_passes(&db, seed, 2);
    let small = session(db, 1)?;
    let queries = shredbench::workloads::nested_queries();
    let views = queries
        .iter()
        .map(|q| small.subscribe(&small.prepare(&q.term)?))
        .collect::<Result<Vec<_>, _>>()?;
    for pass in &feed {
        for (_, batch) in pass.writes() {
            small.apply_batch(batch)?;
        }
    }
    let rebuilt = layers::rebuild_database(small.engine()?, small.schema())?;
    for (q, view) in queries.iter().zip(&views) {
        let ok = view
            .value()?
            .multiset_eq(&layers::eval_reference(&q.term, &rebuilt)?);
        rec.check(ok, || {
            format!(
                "view({}) differs from N[[-]] over rebuilt storage at small scale",
                q.name
            )
        });
    }
    Ok(())
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let workload = args.workload;
    let parallelism = workload.require_cores()?;
    let mut rec = Recorder::new(Vec::new());
    let mut t = Tracer::new();
    let (mut layers, passes, obs) = match workload {
        Workload::FrontendSmall => frontend(args, &mut rec, &mut t),
        Workload::ExecSeq | Workload::ExecPar => exec(args, &mut rec, &mut t),
        Workload::LiveMixed => live(args, &mut rec, &mut t),
    }
    .map_err(|e| format!("traced run failed: {e}"))?;
    let (coverage, overhead) = t.against_untraced();
    layers.insert("trace.coverage_share".into(), coverage);
    layers.insert("trace.overhead_share".into(), overhead);

    let trace = Obj::new()
        .text("workload", workload.name())
        .int("seed", args.seed)
        .int("kept_passes", passes.min(KEPT_PASSES) as u64)
        .raw("spans", &t.spans_json())
        .finish();
    let write = |file: String, body: &str| {
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(format!("{}/{file}", args.out_dir), body))
            .map_err(|e| format!("cannot write {}/{file}: {e}", args.out_dir))
    };
    write(format!("trace-{}.json", workload.name()), &trace)?;
    // The session's own registry, untouched, for a later reconciliation
    // of obs with the outside stopwatch.
    write(format!("obs-{}.json", workload.name()), &obs)?;

    let mut metrics = Obj::new();
    for (name, value) in &layers {
        metrics = metrics.num(name, *value);
    }
    let line = Obj::new()
        .text("workload", workload.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .int("passes", passes as u64)
        .int("available_parallelism", parallelism as u64)
        .boolean("correct", rec.failed == 0)
        .int("attempted", rec.attempted)
        .int("failed", rec.failed)
        .raw("layers", &metrics.finish())
        .raw("kinds", &t.kinds_json())
        .finish();
    Ok((line, rec.failed == 0))
}

fn main() -> ExitCode {
    cli::main_with(run)
}
