//! The three indexing schemes of Section 6 — canonical, natural and flat —
//! evaluated with the in-memory shredded-semantics backend, plus the
//! Appendix A demonstration of why Van den Bussche's simulation does not
//! work for bags.
//!
//! ```sh
//! cargo run --example indexing_schemes
//! ```

use baselines::vandenbussche as vdb;
use query_shredding::prelude::*;

fn main() {
    let db = generate(&OrgConfig::small());
    let q4 = datagen::queries::q4();
    let oracle = Shredder::builder()
        .database(db.clone())
        .backend(Box::new(NestedOracleBackend))
        .build()
        .unwrap();
    let reference = oracle.run(&q4).unwrap();

    println!("Q4 (departments with their employees) under the three indexing schemes:\n");
    for scheme in IndexScheme::ALL {
        let session = Shredder::builder()
            .database(db.clone())
            .backend(Box::new(ShreddedMemoryBackend::new(scheme)))
            .build()
            .unwrap();
        let value = session.run(&q4).unwrap();
        let agrees = value.multiset_eq(&reference);
        println!(
            "  {:<10} → {} rows at the top level, agrees with N⟦Q4⟧: {}",
            scheme.to_string(),
            value.as_bag().unwrap().len(),
            agrees
        );
        assert!(agrees);
    }

    println!("\nAppendix A: Van den Bussche's simulation on a multiset union R ⊎ S\n");
    println!(
        "{:<22} {:>6} {:>16} {:>12} {:>9}",
        "instance", "adom", "correct tuples", "vdb tuples", "blow-up"
    );
    let (r, s) = vdb::appendix_a_instance();
    let report = vdb::measure_blowup(&r, &s);
    println!(
        "{:<22} {:>6} {:>16} {:>12} {:>9.1}",
        "paper example",
        report.adom_size,
        report.correct_tuples,
        report.vdb_tuples,
        report.blowup_factor
    );
    for n in [4usize, 16, 64] {
        let (r, s) = vdb::scaled_instance(n, 2);
        let report = vdb::measure_blowup(&r, &s);
        println!(
            "{:<22} {:>6} {:>16} {:>12} {:>9.1}",
            format!("{} rows × 2 elems", n),
            report.adom_size,
            report.correct_tuples,
            report.vdb_tuples,
            report.blowup_factor
        );
    }
    println!("\nShredding keeps the representation linear and preserves multiplicities;");
    println!("the simulation grows quadratically with the active domain and does not.");
}
