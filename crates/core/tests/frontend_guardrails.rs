//! Guardrails for the front end: `normalise.rs` rewrites in one recursive
//! pass, a session looks a term up before it normalises it, the session
//! builder keeps only the settings its callers set, a session keeps one
//! copy of its data, and the commit lock is taken in one function. The
//! checks read the sources as text, so a reintroduced step-and-restart loop,
//! a second, unguarded normalisation, a returning builder knob, a second
//! copy of the data or a second place that locks the commit path fails here
//! before any benchmark notices.

use std::path::Path;

/// Every public name of `shredding::session`, imported by path: a re-export
/// that `session/mod.rs` loses fails the build of this file, not only the
/// public-surface golden.
#[allow(unused_imports)]
use shredding::session::{
    auto_parameterize, BackendPlan, Bindings, CacheStats, ExecContext, Explain,
    NestedOracleBackend, ParamSpec, Params, PlanRequest, PreparedQuery, ShreddedMemoryBackend,
    Shredder, ShredderBuilder, SqlBackend, SqlEngineBackend, StageExplain,
};

const NORMALISE: &str = include_str!("../src/normalise.rs");
/// The session's modules, one per decision, by file name.
const SESSION: [(&str, &str); 8] = [
    ("backend.rs", include_str!("../src/session/backend.rs")),
    ("builder.rs", include_str!("../src/session/builder.rs")),
    ("cache.rs", include_str!("../src/session/cache.rs")),
    ("commit.rs", include_str!("../src/session/commit.rs")),
    ("execute.rs", include_str!("../src/session/execute.rs")),
    ("mod.rs", include_str!("../src/session/mod.rs")),
    ("params.rs", include_str!("../src/session/params.rs")),
    ("prepare.rs", include_str!("../src/session/prepare.rs")),
];
const OBS: [(&str, &str); 5] = [
    ("json.rs", include_str!("../../obs/src/json.rs")),
    ("lib.rs", include_str!("../../obs/src/lib.rs")),
    ("metrics.rs", include_str!("../../obs/src/metrics.rs")),
    ("profile.rs", include_str!("../../obs/src/profile.rs")),
    ("sink.rs", include_str!("../../obs/src/sink.rs")),
];

/// The product code of a source file: everything before its first
/// test-only item, if it has one.
fn product(source: &str) -> &str {
    source.split("#[cfg(test)]").next().unwrap()
}

/// The product code of the session module `name`.
fn session(name: &str) -> &'static str {
    let (_, text) = SESSION.iter().find(|(n, _)| *n == name).expect(name);
    product(text)
}

#[test]
fn the_small_step_rewriter_is_test_only() {
    let code = product(NORMALISE);
    for needle in ["fn step(", "fn step_in_", "fn step_root("] {
        assert!(
            !code.contains(needle),
            "normalise.rs contains `{needle}` outside #[cfg(test)]: the one-step-and-restart \
             rewriter is the tests' reference, the product rewrites with `Rewriter`"
        );
    }
    assert!(
        NORMALISE.contains("fn step("),
        "the small-step reference the differential tests compare against is gone"
    );
}

#[test]
fn a_session_normalises_in_one_place_after_the_term_lookup() {
    let calls: Vec<(&str, usize)> = SESSION
        .iter()
        .flat_map(|(name, text)| {
            product(text)
                .match_indices("normalise_with_type_obs(")
                .map(move |(at, _)| (*name, at))
        })
        .collect();
    assert_eq!(
        calls.len(),
        1,
        "the session normalises in {} places: `prepare_stages` is the one",
        calls.len()
    );
    let code = session("prepare.rs");
    let prepare = code
        .find("fn prepare_stages(")
        .expect("session/prepare.rs prepares in `prepare_stages`");
    let lookup = prepare
        + code[prepare..]
            .find(".lookup_term(")
            .expect("`prepare_stages` consults the term level of the plan cache");
    assert!(
        calls[0].0 == "prepare.rs" && prepare < lookup && lookup < calls[0].1,
        "the plan cache must be asked about the source term before the term is normalised"
    );
}

/// The builder keeps the eight settings the benchmark, the baselines and
/// deployments set. The index scheme belongs to `ShreddedMemoryBackend`, the
/// one backend that reads it; no setting turns the planner's decorrelation
/// off, and sessions always lift literals; the metrics registry and the
/// profile ring are the session's own.
#[test]
fn the_session_builder_keeps_only_the_knobs_its_callers_set() {
    for needle in [
        "fn index_scheme(",
        "fn optimize(",
        "fn auto_parameterize(mut self",
        "fn metrics(mut self",
        "fn obs_sink(",
        "fn prepare_uncached(",
    ] {
        for (name, text) in SESSION {
            assert!(
                !product(text).contains(needle),
                "session/{name} declares `{needle}` again: that setting has no product caller"
            );
        }
    }
    let code = session("builder.rs");
    let start = code
        .find("impl ShredderBuilder {")
        .expect("session/builder.rs implements ShredderBuilder");
    let body = &code[start..];
    let body = &body[..body.find("\n}\n").expect("the impl block closes")];
    let setters = body.matches("pub fn ").count() - body.matches("pub fn build(").count();
    assert!(
        setters <= 8,
        "ShredderBuilder has {setters} setters besides `build`; it keeps schema, database, \
         engine, backend, plan_cache_capacity, without_plan_cache, verify and workers"
    );
    for (file, source) in OBS {
        assert!(
            !source.contains("trait ObsSink"),
            "obs/src/{file} declares `trait ObsSink`: `RingSink` is the one place profiles go"
        );
    }
}

/// Every source file of this crate, by its path under `src/` (such as
/// `session/commit.rs`), read when the test runs so a new file, or one in a
/// new directory, is covered too.
fn core_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, prefix: &str, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("a readable source directory") {
            let path = entry.expect("a readable directory entry").path();
            let name = format!("{prefix}{}", path.file_name().unwrap().to_string_lossy());
            if path.is_dir() {
                walk(&path, &format!("{name}/"), out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("a readable source");
                out.push((name, text));
            }
        }
    }
    let mut files = Vec::new();
    walk(
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src")),
        "",
        &mut files,
    );
    files.sort();
    files
}

/// One walk stitches every value read from SQL, one-shot and live alike:
/// `stitch_row` is the only product code that steps through a layout's
/// leaves (`.next_leaf(`), the live views key their groups by the decode's
/// `(tag, ord)` pair rather than by `IndexValue`, and neither the deleted
/// columnar walk nor the pair-to-`IndexValue` shim comes back.
#[test]
fn one_row_walk_stitches_one_shot_and_live_reads() {
    let sources = core_sources();
    let source = |name: &str| {
        let (_, text) = sources.iter().find(|(n, _)| n == name).expect(name);
        text.as_str()
    };
    let delta = product(source("delta.rs"));
    for needle in ["IndexValue", "IndexScheme", "flat_index"] {
        assert!(
            !delta.contains(needle),
            "delta.rs names `{needle}` in product code: live views key their groups by the \
             decode's `(u32, i64)` pair"
        );
    }
    let stitch = source("stitch.rs");
    let walk_start = stitch
        .find("fn stitch_row<")
        .expect("stitch.rs defines the row walk `stitch_row`");
    let walk_end = walk_start + stitch[walk_start..].find("\n}\n").expect("it closes");
    for (name, text) in &sources {
        for needle in ["fn flat_index(", "fn stitch_value("] {
            assert!(
                !text.contains(needle),
                "{name} declares `{needle}` again: `stitch_row` is the one row walk"
            );
        }
        let code = text.split("#[cfg(test)]").next().unwrap();
        for (at, _) in code.match_indices(".next_leaf(") {
            assert!(
                name == "stitch.rs" && walk_start < at && at < walk_end,
                "{name} steps through a layout's leaves outside `stitch_row` (byte {at}): \
                 drive the one row walk with a cell source and a bag callback instead"
            );
        }
    }
    assert!(
        stitch[walk_start..walk_end].contains(".next_leaf("),
        "`stitch_row` no longer reads the layout's leaves"
    );
}

/// The body of the item that starts at `head` in `code`, up to its closing
/// brace at the start of a line.
fn item<'a>(code: &'a str, head: &str) -> &'a str {
    let start = code.find(head).unwrap_or_else(|| panic!("no `{head}`"));
    let body = &code[start..];
    &body[..body.find("\n}\n").expect("the item closes")]
}

/// One copy of the data per session: the engine's storage. `build` loads an
/// attached database into it and drops the database, so the oracle and every
/// backend read the committed state. Neither the lazy engine load nor a
/// session-held `Database` that writes never reach comes back. The one
/// `Database` the session may keep is the copy `Shredder::database` makes
/// for the callers that still ask for one: deprecated, filled by that
/// method alone, read by nothing else, and called nowhere in the workspace.
#[test]
fn a_session_keeps_one_copy_of_its_data() {
    for needle in [
        "engine_init",
        "OnceLock<Arc<Engine>>",
        "engine_from_database(self.db",
    ] {
        for (name, text) in SESSION {
            assert!(
                !product(text).contains(needle),
                "session/{name} names `{needle}`: `build` loads the engine once, eagerly"
            );
        }
    }
    for (module, head) in [
        ("mod.rs", "struct ShredderCore {"),
        ("backend.rs", "pub struct ExecContext<'a> {"),
    ] {
        let body = item(session(module), head);
        for line in body.lines().filter(|l| l.contains("Database")) {
            assert!(
                line.trim() == "snapshot: OnceLock<Database>,",
                "`{head}` holds a database (`{}`): the engine's storage is the \
                 session's one copy of the data",
                line.trim()
            );
        }
    }
    let code = session("mod.rs");
    let database = code
        .find("pub fn database(&self)")
        .expect("Shredder::database");
    let before = &code[..database];
    assert!(
        before[before.rfind('}').unwrap_or(0)..].contains("#[deprecated("),
        "`Shredder::database` hands out a copy that writes do not reach: keep it deprecated"
    );
    let reader = database..database + code[database..].find("\n    }\n").expect("it closes");
    for (name, text) in SESSION {
        let reads: Vec<usize> = product(text)
            .match_indices("core.snapshot")
            .map(|(at, _)| at)
            .filter(|at| name != "mod.rs" || !reader.contains(at))
            .collect();
        assert!(
            reads.is_empty(),
            "session/{name} reads the `Shredder::database` copy outside that method (bytes \
             {reads:?})"
        );
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let call = concat!(".database", "()");
    let mut dirs = vec![std::path::PathBuf::from(root).join("src")];
    for dir in ["crates", "tests", "examples"] {
        dirs.push(std::path::PathBuf::from(root).join(dir));
    }
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a readable directory") {
            let path = entry.expect("a readable directory entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("a readable source");
                assert!(
                    !text.contains(call),
                    "{} calls `Shredder::database`: read the committed state with \
                     `oracle`, or build a database from `Engine::storage` with \
                     `pipeline::database_from_storage`",
                    path.display()
                );
            }
        }
    }
}

/// The commit lock is taken in one function, `CommitLock::acquire` in
/// `session/commit.rs`: `Shredder::apply_batch`, `Shredder::subscribe` and a
/// stale live view's re-seed all go through it. The lock's mutex is private
/// to that file, so the compiler keeps other files from locking it; this
/// test keeps other functions of that file from doing so, and keeps any
/// other product file from declaring a second `Mutex<()>` or reading the
/// session's commit lock or subscription registry.
#[test]
fn the_commit_lock_is_taken_in_one_function() {
    let sources = core_sources();
    for (name, text) in sources.iter().filter(|(n, _)| n != "session/commit.rs") {
        let code = product(text);
        assert!(
            !code.contains("Mutex<()>"),
            "{name} declares a `Mutex<()>`: the session has one commit lock, `CommitLock` in \
             session/commit.rs"
        );
        for field in ["core.write_lock", "core.subs"] {
            assert!(
                !code.contains(field),
                "{name} reads `{field}`: the commit path's state is session/commit.rs's alone"
            );
        }
    }
    let code = session("commit.rs");
    let lockers: Vec<&str> = code
        .match_indices(".lock()")
        .map(|(at, _)| {
            let rest = &code[code[..at].rfind("fn ").expect("a `.lock()` in a function") + 3..];
            &rest[..rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap()]
        })
        .collect();
    assert_eq!(
        lockers,
        ["acquire", "live_views"],
        "session/commit.rs locks in {lockers:?}: the commit lock is taken in \
         `CommitLock::acquire` alone, the subscription registry in `live_views`"
    );
    let (_, delta) = sources
        .iter()
        .find(|(name, _)| name == "delta.rs")
        .expect("delta.rs");
    assert!(
        product(delta).contains("self.commit.acquire()"),
        "a stale live view no longer re-seeds under the commit lock"
    );
}
