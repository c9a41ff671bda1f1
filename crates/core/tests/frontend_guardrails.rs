//! Guardrails for the front end: `normalise.rs` rewrites in one recursive
//! pass, a session looks a term up before it normalises it, and the session
//! builder keeps only the settings its callers set. The checks read the
//! sources as text, so a reintroduced step-and-restart loop, a second,
//! unguarded normalisation or a returning builder knob fails here before any
//! benchmark notices.

const NORMALISE: &str = include_str!("../src/normalise.rs");
const SESSION: &str = include_str!("../src/session.rs");
const OBS: [(&str, &str); 5] = [
    ("json.rs", include_str!("../../obs/src/json.rs")),
    ("lib.rs", include_str!("../../obs/src/lib.rs")),
    ("metrics.rs", include_str!("../../obs/src/metrics.rs")),
    ("profile.rs", include_str!("../../obs/src/profile.rs")),
    ("sink.rs", include_str!("../../obs/src/sink.rs")),
];

/// The product code of a source file: everything before its first
/// test-only item.
fn product(source: &str) -> &str {
    let (product, _tests) = source
        .split_once("#[cfg(test)]")
        .expect("the file ends in test-only items");
    product
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
    let code = product(SESSION);
    let calls: Vec<usize> = code
        .match_indices("normalise_with_type_obs(")
        .map(|(at, _)| at)
        .collect();
    assert_eq!(
        calls.len(),
        1,
        "session.rs normalises in {} places: `prepare_stages` is the one",
        calls.len()
    );
    let prepare = code
        .find("fn prepare_stages(")
        .expect("session.rs prepares in `prepare_stages`");
    let lookup = prepare
        + code[prepare..]
            .find(".lookup_term(")
            .expect("`prepare_stages` consults the term level of the plan cache");
    assert!(
        prepare < lookup && lookup < calls[0],
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
    let code = product(SESSION);
    for needle in [
        "fn index_scheme(",
        "fn optimize(",
        "fn auto_parameterize(mut self",
        "fn metrics(mut self",
        "fn obs_sink(",
        "fn prepare_uncached(",
    ] {
        assert!(
            !code.contains(needle),
            "session.rs declares `{needle}` again: that setting has no product caller"
        );
    }
    let start = code
        .find("impl ShredderBuilder {")
        .expect("session.rs implements ShredderBuilder");
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
