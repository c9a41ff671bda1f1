//! Integration tests of live nested views: `Shredder::subscribe` keeps a
//! prepared query's nested result maintained across `apply_batch` writes,
//! and after every committed batch the subscription's value must be
//! identical to recomputing the query from scratch on the post-write
//! storage, and to the session's oracle, which reads that storage too —
//! across the full benchmark suite (QF1–QF6 and Q1–Q6). SQL generation
//! reads no indexing scheme, so one pass covers every scheme.

use query_shredding::prelude::*;
use query_shredding::shredding::pipeline;

fn small_db() -> Database {
    generate(&OrgConfig {
        departments: 3,
        employees_per_department: 5,
        contacts_per_department: 2,
        seed: 11,
        ..OrgConfig::default()
    })
}

fn all_benchmark_queries() -> Vec<(&'static str, nrc::Term)> {
    let mut queries = datagen::queries::flat_queries();
    queries.extend(datagen::queries::nested_queries());
    queries
}

/// `q` recomputed on the session's current storage by the row stitcher
/// (`ResultLayout::decode` + `stitch_rows`), which shares no code with the
/// row walk behind both `Subscription::value` and `Shredder::execute`.
fn row_path(session: &Shredder, q: &nrc::Term) -> Value {
    let compiled = pipeline::compile(q, session.schema()).unwrap();
    pipeline::execute_rows(&compiled, session.engine().unwrap()).unwrap()
}

/// The acceptance bar of the delta subsystem: for every benchmark query
/// (the SQL path reads no indexing scheme), a subscription's value after
/// each of a stream of committed write batches is multiset-identical to a
/// fresh execution of the same prepared query and to the row path's (the
/// differential oracles). The plans of the suite — narrowing `Project`s
/// included — stay inside the incremental fragment under this stream: no
/// view ever falls back to recompute-from-scratch.
#[test]
fn subscriptions_match_recompute_after_every_write_batch_under_every_scheme() {
    let db = small_db();
    for (name, q) in all_benchmark_queries() {
        let session = Shredder::over(db.clone()).unwrap();
        let prepared = session.prepare(&q).unwrap();
        let sub = session.subscribe(&prepared).unwrap();
        let mut stream = MutationStream::over(
            &db,
            MutationConfig {
                ops_per_batch: 3,
                seed: 7,
                ..MutationConfig::default()
            },
        );
        for round in 0..6 {
            let batch = stream.next_batch();
            session.apply_batch(&batch).unwrap();
            let live = sub.value().unwrap();
            let recomputed = session.execute(&prepared).unwrap();
            assert!(
                live.multiset_eq(&recomputed),
                "{name} diverged from recompute after batch {round}"
            );
            assert!(
                live.multiset_eq(&row_path(&session, &q)),
                "{name} diverged from the row path after batch {round}"
            );
            assert!(
                live.multiset_eq(&session.oracle(&q).unwrap()),
                "{name} diverged from the oracle after batch {round}"
            );
        }
        assert_eq!(sub.generation(), 6, "every batch maintains the view");
        assert_eq!(sub.reseeds(), 0, "{name} reseeded");
    }
}

/// The organisation at `OrgConfig::paper(4)` with the skew of real
/// workloads (Elekes et al.'s analysis of the SIGMOD 2014 contest data: a
/// few keys carry most of the rows): three of every four employees of the
/// other departments are moved into the first one.
fn skewed_db() -> Database {
    let db = generate(&OrgConfig::paper(4));
    let mut skewed = Database::new(organisation_schema());
    for table in ["departments", "tasks", "contacts"] {
        let rows = db.table_rows_unordered(table).unwrap().to_vec();
        skewed.insert_bulk(table, rows).unwrap();
    }
    let employees: Vec<Value> = db
        .table_rows_unordered("employees")
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let dept = match i % 4 {
                0 => e.field("dept").unwrap().clone(),
                _ => Value::string("dept_00000"),
            };
            Value::record(vec![
                ("id", e.field("id").unwrap().clone()),
                ("dept", dept),
                ("name", e.field("name").unwrap().clone()),
                ("salary", e.field("salary").unwrap().clone()),
            ])
        })
        .collect();
    skewed.insert_bulk("employees", employees).unwrap();
    skewed
}

/// The same differential under the writes that are expensive to maintain: a
/// stream biased toward `employees` and `departments` with deletes as likely
/// as inserts, committed as 1-, 8- and 64-op batches over the skewed
/// organisation, where most of those rows share one join key. A bag whose
/// scope is one keyed generator is indexed by that key, which no write
/// moves; the two-generator scopes of Q1 and Q6 are still numbered by
/// `ROW_NUMBER`, so there every delete shifts the rank of all rows after it
/// and the stage delta is O(n).
#[test]
fn subscriptions_match_recompute_under_rank_shifting_writes_and_skew() {
    let db = skewed_db();
    let hot = db
        .table_rows_unordered("employees")
        .unwrap()
        .iter()
        .filter(|e| e.field("dept").unwrap().as_str() == Some("dept_00000"))
        .count();
    assert!(hot * 4 > db.row_count("employees") * 3, "the skew is there");
    for (name, q) in all_benchmark_queries() {
        let session = Shredder::over(db.clone()).unwrap();
        let prepared = session.prepare(&q).unwrap();
        let sub = session.subscribe(&prepared).unwrap();
        let mut stream = MutationStream::over(
            &db,
            MutationConfig {
                ops_per_batch: 1,
                update_weight: 2,
                insert_weight: 3,
                delete_weight: 3,
                leaf_bias: 0.3,
                seed: 23,
            },
        );
        let mut seen = [0usize; 3];
        for (round, ops) in [1, 8, 64, 1, 8, 64].into_iter().enumerate() {
            let batch = WriteBatch {
                ops: stream
                    .batches(ops)
                    .into_iter()
                    .flat_map(|b| b.ops)
                    .collect(),
            };
            for op in &batch.ops {
                match op {
                    WriteOp::Insert { table, .. } if table == "departments" => seen[0] += 1,
                    WriteOp::DeleteByKey { table, .. } if table == "departments" => seen[1] += 1,
                    WriteOp::DeleteByKey { table, .. } if table == "employees" => seen[2] += 1,
                    _ => {}
                }
            }
            session.apply_batch(&batch).unwrap();
            let live = sub.value().unwrap();
            let recomputed = session.execute(&prepared).unwrap();
            assert!(
                live.multiset_eq(&recomputed),
                "{name} diverged from recompute \
                 after the {ops}-op batch of round {round}"
            );
            assert!(
                live.multiset_eq(&row_path(&session, &q)),
                "{name} diverged from the row path \
                 after the {ops}-op batch of round {round}"
            );
        }
        // N⟦−⟧ over this instance takes seconds a query in a debug build:
        // one comparison, after the last batch.
        assert!(
            sub.value()
                .unwrap()
                .multiset_eq(&session.oracle(&q).unwrap()),
            "{name} diverged from the oracle after the last batch"
        );
        assert!(
            seen.iter().all(|&n| n > 0),
            "the stream inserts and deletes departments and deletes employees: {seen:?}"
        );
        assert_eq!(sub.generation(), 6, "every batch maintains the view");
        assert_eq!(sub.reseeds(), 0, "{name} reseeded");
    }
}

/// A subscription taken *after* some writes starts from the current
/// storage, not the data the session was loaded with.
#[test]
fn a_late_subscription_sees_previous_writes() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let (_, q) = datagen::queries::nested_queries().remove(0);
    let prepared = session.prepare(&q).unwrap();

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 4,
            seed: 3,
            ..MutationConfig::default()
        },
    );
    session.apply_batch(&stream.next_batch()).unwrap();

    let sub = session.subscribe(&prepared).unwrap();
    let live = sub.value().unwrap();
    assert!(live.multiset_eq(&session.execute(&prepared).unwrap()));
    assert!(live.multiset_eq(&session.oracle(&q).unwrap()));
    assert_eq!(sub.generation(), 0, "no batch maintained it yet");

    session.apply_batch(&stream.next_batch()).unwrap();
    let live = sub.value().unwrap();
    assert!(live.multiset_eq(&session.execute(&prepared).unwrap()));
    assert!(live.multiset_eq(&session.oracle(&q).unwrap()));
    assert_eq!(sub.generation(), 1);
}

/// Two subscriptions to different queries are maintained independently by
/// the same committed batches, and cloned handles share one live view.
#[test]
fn multiple_subscriptions_are_maintained_by_the_same_writes() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let queries = datagen::queries::nested_queries();
    let p1 = session.prepare(&queries[0].1).unwrap();
    let p2 = session.prepare(&queries[3].1).unwrap();
    let s1 = session.subscribe(&p1).unwrap();
    let s2 = session.subscribe(&p2).unwrap();
    let s1_clone = s1.clone();

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 2,
            seed: 19,
            ..MutationConfig::default()
        },
    );
    for _ in 0..4 {
        session.apply_batch(&stream.next_batch()).unwrap();
        for (sub, p, q) in [(&s1, &p1, &queries[0].1), (&s2, &p2, &queries[3].1)] {
            let live = sub.value().unwrap();
            assert!(live.multiset_eq(&session.execute(p).unwrap()));
            assert!(live.multiset_eq(&session.oracle(q).unwrap()));
        }
    }
    assert_eq!(s1.generation(), 4);
    assert_eq!(s1_clone.generation(), 4, "clones share the live view");
    assert_eq!(s2.generation(), 4);
}

/// `maintain_nanos` accumulates only across maintained batches — it is the
/// maintenance-only cost a benchmark compares against full recompute.
#[test]
fn maintain_nanos_accumulates_per_maintained_batch() {
    let db = small_db();
    let session = Shredder::over(db.clone()).unwrap();
    let (_, q) = datagen::queries::nested_queries().remove(0);
    let prepared = session.prepare(&q).unwrap();
    let sub = session.subscribe(&prepared).unwrap();
    assert_eq!(sub.maintain_nanos(), 0, "nothing maintained yet");

    let mut stream = MutationStream::over(
        &db,
        MutationConfig {
            ops_per_batch: 1,
            seed: 5,
            ..MutationConfig::default()
        },
    );
    session.apply_batch(&stream.next_batch()).unwrap();
    let after_one = sub.maintain_nanos();
    assert!(after_one > 0, "a maintained batch costs measurable time");
    session.apply_batch(&stream.next_batch()).unwrap();
    assert!(sub.maintain_nanos() > after_one, "the counter accumulates");
}

/// The top-level bag of a view's value, by department name.
fn departments_by_name(value: &Value) -> Vec<(String, &Value)> {
    let mut rows: Vec<(String, &Value)> = value
        .as_bag()
        .unwrap()
        .iter()
        .map(|d| (d.field("name").unwrap().as_str().unwrap().to_string(), d))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

fn bag_ptr(record: &Value, field: &str) -> *const Value {
    record.field(field).unwrap().as_bag().unwrap().as_ptr()
}

/// A read with no write since the last one rebuilds nothing: it hands out
/// the memoised top-level bag again, not a copy of it.
#[test]
fn a_clean_read_shares_the_previous_reads_value() {
    let session = Shredder::over(small_db()).unwrap();
    for (name, q) in all_benchmark_queries() {
        let prepared = session.prepare(&q).unwrap();
        let sub = session.subscribe(&prepared).unwrap();
        let first = sub.value().unwrap();
        let second = sub.value().unwrap();
        assert_eq!(
            first.as_bag().unwrap().as_ptr(),
            second.as_bag().unwrap().as_ptr(),
            "{name}: a clean read copied the value"
        );
    }
}

/// A write to `contacts` alone dirties one department's `contacts` group
/// and, above it, the top-level group. The next read of Q1 rebuilds those
/// two and shares every other nested bag with the previous read's value.
#[test]
fn a_read_after_a_leaf_write_copies_only_the_dirty_spine() {
    let session = Shredder::over(small_db()).unwrap();
    let prepared = session.prepare(&datagen::queries::q1()).unwrap();
    let sub = session.subscribe(&prepared).unwrap();
    let before = sub.value().unwrap();

    let written = "dept_00001";
    let contact = vec![
        sqlengine::SqlValue::Int(1_000),
        sqlengine::SqlValue::str(written),
        sqlengine::SqlValue::str("contact_new"),
        sqlengine::SqlValue::Bool(true),
    ];
    session
        .apply_batch(&WriteBatch::new().insert("contacts", contact))
        .unwrap();
    let after = sub.value().unwrap();

    assert!(after.multiset_eq(&session.execute(&prepared).unwrap()));
    assert_eq!(sub.reseeds(), 0);
    let (old, new) = (departments_by_name(&before), departments_by_name(&after));
    assert_eq!(old.len(), new.len());
    for ((name, d0), (_, d1)) in old.iter().zip(&new) {
        assert_eq!(
            bag_ptr(d0, "employees"),
            bag_ptr(d1, "employees"),
            "{name}: a clean employees bag was copied"
        );
        let contacts_shared = bag_ptr(d0, "contacts") == bag_ptr(d1, "contacts");
        assert_eq!(contacts_shared, name != written, "{name}: contacts");
    }
}
