//! Guardrails for the key-kernel layer: `kernels.rs` holds the one copy of
//! key hashing, the join table and key ordering, and neither executor may
//! grow a private one again. The checks read the sources as text, so a
//! reintroduced per-row path fails here before any benchmark notices.

const VEXEC: &str = include_str!("../src/vexec.rs");
const PAR: &str = include_str!("../src/par.rs");

/// The product code of a source file: everything before its test module.
fn product(source: &str) -> &str {
    let (product, _tests) = source
        .split_once("#[cfg(test)]")
        .expect("the file ends in a test module");
    product
}

/// The batch executor of `vexec.rs`: the product code before the section
/// of the incremental executor, which keeps its row-keyed indexes — it
/// maintains row multisets, not batches.
fn batch_executor(vexec: &str) -> &str {
    let (batch, _delta) = product(vexec)
        .split_once("// Incremental (delta) execution")
        .expect("vexec.rs keeps DeltaExec in its own marked section, after the batch executor");
    batch
}

#[test]
fn the_executors_keep_no_private_key_kernels() {
    let banned = [
        "fn eval_keys",
        "fn par_eval_keys",
        "fn hash_row",
        "HashMap<Row",
        "HashSet<Row",
        "HashMap<&Row",
        "HashSet<&Row",
        "DefaultHasher",
    ];
    for (file, code) in [
        ("vexec.rs", batch_executor(VEXEC)),
        ("par.rs", product(PAR)),
    ] {
        for needle in banned {
            assert!(
                !code.contains(needle),
                "{file} contains `{needle}`: keyed operators go through crate::kernels"
            );
        }
    }
}
