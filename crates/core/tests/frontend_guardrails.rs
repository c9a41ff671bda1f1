//! Guardrails for the front end: `normalise.rs` rewrites in one recursive
//! pass, and a session looks a term up before it normalises it. The checks
//! read the sources as text, so a reintroduced step-and-restart loop or a
//! second, unguarded normalisation fails here before any benchmark notices.

const NORMALISE: &str = include_str!("../src/normalise.rs");
const SESSION: &str = include_str!("../src/session.rs");

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
