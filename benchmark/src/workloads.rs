//! The four workloads: their generated inputs, their sessions, one pass of
//! each, and the output checks. Everything is a function of the seed; the
//! program under test sees only the generated `Database`, `Term`s and
//! `WriteBatch`es, and is driven through the `Shredder` session API alone.

use crate::recorder::Recorder;
use datagen::{generate, MutationConfig, MutationStream, OrgConfig};
use nrc::{Database, Term, Value};
use shredding::delta::{Subscription, WriteBatch, WriteOp};
use shredding::session::{PreparedQuery, Shredder};
use shredding::ShredError;

/// Departments of the two execution workloads: about 12.9k employees, 12.9k
/// tasks and 1280 contacts, tens of megabytes resident — far beyond L2.
pub const EXEC_DEPARTMENTS: usize = 128;
/// Departments of the live workload.
pub const LIVE_DEPARTMENTS: usize = 16;
/// Single-operation writes per live pass, each followed by reads.
pub const LIVE_SINGLES: usize = 8;
/// Operations in the one bulk write that ends a live pass.
pub const LIVE_BULK_OPS: usize = 64;
/// Live passes generated in set-up; the timed phase stops when they run out.
pub const LIVE_MAX_PASSES: usize = 400;
/// A live view is compared with a recompute every this many writes.
pub const LIVE_CHECK_EVERY: usize = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FrontendSmall,
    ExecSeq,
    ExecPar,
    LiveMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FrontendSmall,
        Workload::ExecSeq,
        Workload::ExecPar,
        Workload::LiveMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FrontendSmall => "frontend_small",
            Workload::ExecSeq => "exec_seq",
            Workload::ExecPar => "exec_par",
            Workload::LiveMixed => "live_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated organisation at the workload's timed scale.
    pub fn org_config(self, seed: u64) -> OrgConfig {
        let base = match self {
            Workload::FrontendSmall => OrgConfig::small(),
            Workload::ExecSeq | Workload::ExecPar => OrgConfig::paper(EXEC_DEPARTMENTS),
            Workload::LiveMixed => OrgConfig::paper(LIVE_DEPARTMENTS),
        };
        OrgConfig { seed, ..base }
    }

    /// Worker threads of the workload's sessions.
    pub fn workers(self) -> usize {
        match self {
            Workload::ExecPar => 2,
            _ => 1,
        }
    }

    /// The host's available parallelism — or, when the workload needs more
    /// cores than that, the refusal: a parallel workload timed on fewer
    /// cores measures overhead only, and no such number is ever printed.
    pub fn require_cores(self) -> Result<usize, String> {
        let cores = crate::report::available_parallelism();
        if self.workers() > cores {
            return Err(format!(
                "REFUSING to run {}: it needs {} cores and this host offers {cores}",
                self.name(),
                self.workers()
            ));
        }
        Ok(cores)
    }

    /// Untimed passes that end set-up: caches fill, lazy loads finish.
    pub fn warmup_passes(self) -> usize {
        match self {
            Workload::FrontendSmall => 50,
            Workload::ExecSeq | Workload::ExecPar => 3,
            Workload::LiveMixed => 2,
        }
    }

    /// The names of the workload's operation kinds, in the order a pass
    /// issues them.
    pub fn kinds(self) -> Vec<String> {
        match self {
            Workload::FrontendSmall => queries()
                .iter()
                .flat_map(|q| [format!("cold.{}", q.name), format!("hit.{}", q.name)])
                .collect(),
            Workload::ExecSeq | Workload::ExecPar => queries()
                .iter()
                .map(|q| format!("exec.{}", q.name))
                .collect(),
            Workload::LiveMixed => LIVE_KINDS.iter().map(|k| k.to_string()).collect(),
        }
    }
}

pub const LIVE_KINDS: [&str; 4] = ["write_b1", "write_b64", "views_read", "requery_first"];
const WRITE_B1: usize = 0;
const WRITE_B64: usize = 1;
const VIEWS_READ: usize = 2;
const REQUERY_FIRST: usize = 3;

#[derive(Debug, Clone)]
pub struct Query {
    pub name: &'static str,
    pub term: Term,
}

/// QF1…QF6 then Q1…Q6, the fixed order of every pass.
pub fn queries() -> Vec<Query> {
    datagen::queries::flat_queries()
        .into_iter()
        .chain(datagen::queries::nested_queries())
        .map(|(name, term)| Query { name, term })
        .collect()
}

/// Q1…Q6, the queries the live workload subscribes to.
pub fn nested_queries() -> Vec<Query> {
    datagen::queries::nested_queries()
        .into_iter()
        .map(|(name, term)| Query { name, term })
        .collect()
}

pub fn session(db: Database, workers: usize) -> Result<Shredder, ShredError> {
    Shredder::builder().database(db).workers(workers).build()
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// A structural fingerprint of a nested value: equal for values that are
/// equal as nested multisets (bag order and record field order do not
/// count), and different, with overwhelming probability, otherwise.
pub fn fingerprint(value: &Value) -> u64 {
    // FNV-1a, fed whole words for scalars and tags.
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    fn byte(h: u64, b: &u8) -> u64 {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    }
    fn mix(h: u64, x: u64) -> u64 {
        x.to_le_bytes().iter().fold(h, byte)
    }
    fn bytes(tag: u64, data: &[u8]) -> u64 {
        data.iter().fold(mix(BASIS, tag), byte)
    }
    match value {
        Value::Int(i) => mix(mix(BASIS, 1), *i as u64),
        Value::Bool(b) => mix(mix(BASIS, 2), u64::from(*b)),
        Value::String(s) => bytes(3, s.as_bytes()),
        Value::Unit => mix(BASIS, 4),
        Value::Record(fields) => {
            let mut hashes: Vec<u64> = fields
                .iter()
                .map(|(label, v)| mix(bytes(5, label.as_bytes()), fingerprint(v)))
                .collect();
            hashes.sort_unstable();
            hashes.into_iter().fold(mix(BASIS, 6), mix)
        }
        Value::Bag(items) => {
            let mut hashes: Vec<u64> = items.iter().map(fingerprint).collect();
            hashes.sort_unstable();
            hashes.into_iter().fold(mix(BASIS, 7), mix)
        }
        Value::Closure { .. } => mix(BASIS, 8),
    }
}

/// What a query's result must look like at the timed scale.
#[derive(Debug, Clone)]
pub struct Expected {
    pub name: &'static str,
    /// Length of the top-level bag: the cheap check made on every timed
    /// operation's result.
    pub len: usize,
    /// The full check, made before and after the timed phase.
    pub fingerprint: u64,
}

impl Expected {
    pub fn of(name: &'static str, value: &Value) -> Expected {
        Expected {
            name,
            len: value.as_bag().map_or(usize::MAX, <[Value]>::len),
            fingerprint: fingerprint(value),
        }
    }

    /// Hold an operation's result against the expectation: cheaply, or in
    /// full.
    pub fn check(&self, rec: &mut Recorder, kind: &str, got: Option<Value>, full: bool) {
        if full {
            self.check_fingerprint(rec, kind, got);
        } else {
            self.check_len(rec, kind, got);
        }
    }

    /// The per-operation check: did the operation return a bag this long?
    pub fn check_len(&self, rec: &mut Recorder, kind: &str, got: Option<Value>) {
        if let Some(value) = got {
            let len = value.as_bag().map(<[Value]>::len);
            rec.check(len == Some(self.len), || {
                format!(
                    "{kind} {}: {len:?} top-level rows, expected {}",
                    self.name, self.len
                )
            });
        }
    }

    pub fn check_fingerprint(&self, rec: &mut Recorder, kind: &str, got: Option<Value>) {
        if let Some(value) = got {
            let fp = fingerprint(&value);
            rec.check(fp == self.fingerprint, || {
                format!(
                    "{kind} {}: fingerprint {fp:016x}, expected {:016x}",
                    self.name, self.fingerprint
                )
            });
        }
    }
}

/// Hold the fingerprints a caller passed with `--expect` against the ones
/// computed at the timed scale.
pub fn check_expectations(rec: &mut Recorder, expected: &[Expected], wanted: &[(String, u64)]) {
    for (name, fp) in wanted {
        let found = expected.iter().find(|e| e.name == name);
        rec.check(found.is_some_and(|e| e.fingerprint == *fp), || {
            format!(
                "--expect {name}={fp:016x}, but the result's fingerprint is {}",
                found.map_or("unknown (no such query)".to_string(), |e| format!(
                    "{:016x}",
                    e.fingerprint
                ))
            )
        });
    }
}

/// The small-scale database the oracle checks run on.
pub fn small_database(seed: u64) -> Database {
    generate(&OrgConfig {
        seed,
        ..OrgConfig::small()
    })
}

/// At `OrgConfig::small()`, every query's result under a session built like
/// the workload's must equal the nested reference semantics N⟦−⟧, both
/// through `run` and through `prepare` + `execute`. Returns the small
/// session for further checks.
pub fn oracle_check(
    rec: &mut Recorder,
    seed: u64,
    workload: Workload,
    queries: &[Query],
) -> Option<Shredder> {
    let label = workload.name();
    let small = match session(small_database(seed), workload.workers()) {
        Ok(small) => small,
        Err(e) => {
            rec.check(false, || format!("{label}: small session: {e}"));
            return None;
        }
    };
    for q in queries {
        let oracle = small.oracle(&q.term);
        let ran = small.run(&q.term);
        let executed = small.prepare(&q.term).and_then(|p| small.execute(&p));
        for (how, got) in [("run", ran), ("execute", executed)] {
            let ok = matches!((&oracle, &got), (Ok(o), Ok(g)) if g.multiset_eq(o));
            rec.check(ok, || {
                format!(
                    "{label}: {how}({}) differs from the oracle at small scale",
                    q.name
                )
            });
        }
    }
    Some(small)
}

// ---------------------------------------------------------------------------
// frontend_small
// ---------------------------------------------------------------------------

/// Two sessions over the same small database: `cold` compiles every query
/// afresh (no plan cache), `hit` answers from its plan cache.
#[derive(Debug)]
pub struct Frontend {
    pub cold: Shredder,
    pub hit: Shredder,
    pub queries: Vec<Query>,
}

impl Frontend {
    pub fn setup(seed: u64) -> Result<Frontend, ShredError> {
        let db = generate(&Workload::FrontendSmall.org_config(seed));
        Ok(Frontend {
            cold: Frontend::cold_session(db.clone())?,
            hit: session(db, 1)?,
            queries: queries(),
        })
    }

    fn cold_session(db: Database) -> Result<Shredder, ShredError> {
        Shredder::builder()
            .database(db)
            .workers(1)
            .without_plan_cache()
            .build()
    }

    /// The timed scale is the small scale: the oracle itself gives the
    /// expected results.
    pub fn check(&self, rec: &mut Recorder) -> Vec<Expected> {
        self.queries
            .iter()
            .map(|q| match self.hit.oracle(&q.term) {
                Ok(oracle) => {
                    for (kind, session) in [("cold", &self.cold), ("hit", &self.hit)] {
                        let ok = session
                            .run(&q.term)
                            .is_ok_and(|got| got.multiset_eq(&oracle));
                        rec.check(ok, || format!("{kind}.{} differs from the oracle", q.name));
                    }
                    Expected::of(q.name, &oracle)
                }
                Err(e) => {
                    rec.check(false, || format!("oracle({}): {e}", q.name));
                    Expected::of(q.name, &Value::Unit)
                }
            })
            .collect()
    }

    /// One pass: each query cold, then as a plan-cache hit. Results are held
    /// against `expected` (none during warm-up): by length, or by
    /// fingerprint when `full`.
    pub fn pass(&self, rec: &mut Recorder, expected: &[Expected], full: bool) {
        for (i, q) in self.queries.iter().enumerate() {
            for (kind, name, session) in
                [(2 * i, "cold", &self.cold), (2 * i + 1, "hit", &self.hit)]
            {
                let got = rec.op(kind, || session.run(&q.term));
                if let Some(want) = expected.get(i) {
                    want.check(rec, name, got, full);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// exec_seq / exec_par
// ---------------------------------------------------------------------------

/// One session over the 128-department organisation with all twelve queries
/// prepared: the timed phase does no compile work at all.
#[derive(Debug)]
pub struct Exec {
    pub workload: Workload,
    pub session: Shredder,
    pub queries: Vec<Query>,
    pub prepared: Vec<PreparedQuery>,
}

impl Exec {
    pub fn setup(workload: Workload, seed: u64) -> Result<Exec, ShredError> {
        let session = session(generate(&workload.org_config(seed)), workload.workers())?;
        let queries = queries();
        let prepared = queries
            .iter()
            .map(|q| session.prepare(&q.term))
            .collect::<Result<_, _>>()?;
        Ok(Exec {
            workload,
            session,
            queries,
            prepared,
        })
    }

    /// The oracle is too slow at this scale, so: the session's configuration
    /// agrees with the oracle at small scale; at the timed scale the results
    /// define the expected fingerprints; and the parallel session must
    /// reproduce, on the same engine, what a sequential one returns.
    pub fn check(&self, rec: &mut Recorder, seed: u64) -> Vec<Expected> {
        let workers = self.workload.workers();
        oracle_check(rec, seed, self.workload, &self.queries);
        let expected: Vec<Expected> = self
            .queries
            .iter()
            .zip(&self.prepared)
            .map(|(q, p)| match self.session.execute(p) {
                Ok(value) => Expected::of(q.name, &value),
                Err(e) => {
                    rec.check(false, || format!("execute({}): {e}", q.name));
                    Expected::of(q.name, &Value::Unit)
                }
            })
            .collect();
        if workers > 1 {
            let sequential = self.session.shared_engine().and_then(|engine| {
                Shredder::builder()
                    .schema(self.session.schema().clone())
                    .engine(engine)
                    .workers(1)
                    .build()
            });
            match sequential {
                Ok(sequential) => {
                    for (q, want) in self.queries.iter().zip(&expected) {
                        want.check_fingerprint(rec, "workers(1)", sequential.run(&q.term).ok());
                    }
                }
                Err(e) => rec.check(false, || format!("sequential twin session: {e}")),
            }
        }
        expected
    }

    pub fn pass(&self, rec: &mut Recorder, expected: &[Expected], full: bool) {
        for (i, p) in self.prepared.iter().enumerate() {
            let got = rec.op(i, || self.session.execute(p));
            if let Some(want) = expected.get(i) {
                want.check(rec, "exec", got, full);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// live_mixed
// ---------------------------------------------------------------------------

/// The writes of one live pass, cut from one singleton mutation stream.
#[derive(Debug, Clone)]
pub struct LivePass {
    pub singles: Vec<WriteBatch>,
    /// `LIVE_BULK_OPS` consecutive singletons committed as one batch.
    pub bulk: WriteBatch,
}

impl LivePass {
    /// The pass's writes in commit order, each with whether it is the bulk
    /// one.
    pub fn writes(&self) -> impl Iterator<Item = (bool, &WriteBatch)> {
        self.singles
            .iter()
            .map(|batch| (false, batch))
            .chain([(true, &self.bulk)])
    }
}

pub fn live_passes(db: &Database, seed: u64, passes: usize) -> Vec<LivePass> {
    let mut stream = MutationStream::over(db, MutationConfig::singleton(seed));
    // The stream's department deletes are left out. Each one orphans a
    // sixteenth of the organisation, a run commits dozens of them, and the
    // views then shrink toward empty: the cost of a pass would depend on
    // which departments the seed happened to delete and on how far the run
    // got. The stream's own mirror has forgotten a deleted department, so
    // nothing later refers to one that is in fact still there.
    let mut kept = std::iter::repeat_with(move || stream.next_batch()).filter(|batch| {
        !batch
            .ops
            .iter()
            .any(|op| matches!(op, WriteOp::DeleteByKey { table, .. } if table == "departments"))
    });
    (0..passes)
        .map(|_| LivePass {
            singles: kept.by_ref().take(LIVE_SINGLES).collect(),
            bulk: WriteBatch {
                ops: kept
                    .by_ref()
                    .take(LIVE_BULK_OPS)
                    .flat_map(|b| b.ops)
                    .collect(),
            },
        })
        .collect()
}

/// One session with Q1…Q6 prepared and subscribed together, and the writes
/// that will be committed beside the reads.
#[derive(Debug)]
pub struct Live {
    pub session: Shredder,
    pub queries: Vec<Query>,
    pub prepared: Vec<PreparedQuery>,
    pub views: Vec<Subscription>,
    pub feed: std::vec::IntoIter<LivePass>,
    /// Write batches committed so far.
    pub writes: usize,
}

impl Live {
    pub fn setup(seed: u64) -> Result<Live, ShredError> {
        let db = generate(&Workload::LiveMixed.org_config(seed));
        let feed = live_passes(&db, seed, LIVE_MAX_PASSES).into_iter();
        let session = session(db, 1)?;
        let queries = nested_queries();
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| session.prepare(&q.term))
            .collect::<Result<_, _>>()?;
        let views = prepared
            .iter()
            .map(|p| session.subscribe(p))
            .collect::<Result<_, _>>()?;
        Ok(Live {
            session,
            queries,
            prepared,
            views,
            feed,
            writes: 0,
        })
    }

    /// Small scale: query and live view agree with the oracle before any
    /// write (the session oracle goes stale after writes). Timed scale: the
    /// fingerprints of the results before the first write.
    pub fn check(&self, rec: &mut Recorder, seed: u64) -> Vec<Expected> {
        if let Some(small) = oracle_check(rec, seed, Workload::LiveMixed, &self.queries) {
            for q in &self.queries {
                let view = small
                    .prepare(&q.term)
                    .and_then(|p| small.subscribe(&p))
                    .and_then(|view| view.value());
                let ok =
                    matches!((view, small.oracle(&q.term)), (Ok(v), Ok(o)) if v.multiset_eq(&o));
                rec.check(ok, || {
                    format!(
                        "live_mixed: view({}) differs from the oracle at small scale",
                        q.name
                    )
                });
            }
        }
        self.compare_views(rec);
        self.queries
            .iter()
            .zip(&self.views)
            .map(|(q, view)| match view.value() {
                Ok(value) => Expected::of(q.name, &value),
                Err(e) => {
                    rec.check(false, || format!("view({}): {e}", q.name));
                    Expected::of(q.name, &Value::Unit)
                }
            })
            .collect()
    }

    /// Every live view against a recompute of its query on current storage.
    pub fn compare_views(&self, rec: &mut Recorder) {
        for ((q, p), view) in self.queries.iter().zip(&self.prepared).zip(&self.views) {
            let ok = match (view.value(), self.session.execute(p)) {
                (Ok(live), Ok(recomputed)) => live.multiset_eq(&recomputed),
                _ => false,
            };
            rec.check(ok, || {
                format!(
                    "view({}) differs from a recompute after {} writes",
                    q.name, self.writes
                )
            });
        }
    }

    /// One pass: eight single-operation writes and one 64-operation write,
    /// each followed by a read of all six views and a re-query of Q1 (the
    /// first read of its tables after the write). `false` once the
    /// generated writes are used up.
    pub fn pass(&mut self, rec: &mut Recorder) -> bool {
        let Some(writes) = self.feed.next() else {
            return false;
        };
        for (bulk, batch) in writes.writes() {
            let kind = if bulk { WRITE_B64 } else { WRITE_B1 };
            rec.op(kind, || self.session.apply_batch(batch));
            self.writes += 1;
            let views = rec.op(VIEWS_READ, || {
                self.views
                    .iter()
                    .map(Subscription::value)
                    .collect::<Result<Vec<Value>, _>>()
            });
            let requeried = rec.op(REQUERY_FIRST, || self.session.execute(&self.prepared[0]));
            // Cheap per-step check: the maintained Q1 and the re-queried Q1
            // have the same number of top-level rows.
            if let (Some(views), Some(requeried)) = (views, requeried) {
                let (live, fresh) = (
                    views[0].as_bag().map(<[Value]>::len),
                    requeried.as_bag().map(<[Value]>::len),
                );
                rec.check(live.is_some() && live == fresh, || {
                    format!(
                        "view(Q1) has {live:?} rows, a re-query {fresh:?}, after {} writes",
                        self.writes
                    )
                });
            }
            if self.writes.is_multiple_of(LIVE_CHECK_EVERY) {
                self.compare_views(rec);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_bag_and_field_order_only() {
        let a = Value::bag(vec![
            Value::record(vec![("x", Value::Int(1)), ("y", Value::string("a"))]),
            Value::record(vec![("x", Value::Int(2)), ("y", Value::string("b"))]),
        ]);
        let b = Value::bag(vec![
            Value::record(vec![("y", Value::string("b")), ("x", Value::Int(2))]),
            Value::record(vec![("x", Value::Int(1)), ("y", Value::string("a"))]),
        ]);
        let c = Value::bag(vec![
            Value::record(vec![("x", Value::Int(1)), ("y", Value::string("b"))]),
            Value::record(vec![("x", Value::Int(2)), ("y", Value::string("a"))]),
        ]);
        assert!(a.multiset_eq(&b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(
            fingerprint(&Value::bag(vec![])),
            fingerprint(&Value::bag(vec![Value::bag(vec![])]))
        );
    }

    #[test]
    fn live_writes_are_a_function_of_the_seed() {
        let db = generate(&OrgConfig::small());
        let a = live_passes(&db, 7, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].singles.len(), LIVE_SINGLES);
        assert_eq!(a[0].bulk.len(), LIVE_BULK_OPS);
        let b = live_passes(&db, 7, 2);
        assert_eq!(a[1].bulk, b[1].bulk);
        assert_ne!(a[1].bulk, live_passes(&db, 8, 2)[1].bulk);
    }

    #[test]
    fn kinds_cover_forty_names() {
        let mut all: Vec<String> = Workload::ALL.iter().flat_map(|w| w.kinds()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 12 + 12 + 12 + 4);
    }
}
