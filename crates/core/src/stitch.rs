//! Stitching shredded results back into a nested value (Section 5.2).
//!
//! Following the optimisation described in Section 8, stitching is done in a
//! single pass: each shredded result is first grouped by its outer index in a
//! hash map, so rebuilding the nested value is linear in the total size of
//! the shredded results rather than quadratic.
//!
//! One walk, `stitch_row`, builds every value read from SQL: it materialises
//! a stage row against the layout's pre-resolved leaves, reading cells
//! through a cell source and handing each nested `(tag, ord)` pair to a bag
//! callback. [`stitch`] drives it over [`ColumnarStage`]s grouped by that
//! pair at decode time ([`stitch_obs`] splits a large top-level bag across
//! the `workers` budget); the live views of `crate::delta` drive it over
//! their executors' output caches, with a memo on top. [`stitch_rows`] is
//! the separate row path over [`ShredResult`]s: the differential oracle,
//! and the stitcher of the in-memory shredded semantics (whose canonical
//! and natural indexes have no columnar encoding).

use crate::error::ShredError;
use crate::flatten::{flat_pair, sql_to_value, ColumnarStage, ResultLayout};
use crate::nf::TOP;
use crate::semantics::{FlatValue, IndexScheme, IndexValue, ShredResult};
use crate::shred::Package;
use analysis::codes;
use nrc::value::Value;
use sqlengine::SqlValue;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// The columnar stitcher (the default path)
// ---------------------------------------------------------------------------

/// The distinguished top-level index ⊤⋅1 as a flat `(tag, ord)` pair.
pub(crate) const TOP_PAIR: (u32, i64) = (TOP.0, 1);

/// Decoded rows, summed over a package's stages, from which [`stitch_obs`]
/// splits the top-level bag across its `workers` budget.
///
/// Derived from measurements on a 2-core host. Stitching costs about
/// 0.2 µs per decoded row (26 ms over about 127k rows for one pass of the
/// twelve benchmark queries at 128 departments), so with two workers a
/// split saves at most half of that, 0.1 µs a row. It pays one scoped
/// spawn and join: 23 µs (p50) for a bare thread, which puts the break-even
/// near 230 rows, and the bound sits ten times above that. A thread that
/// allocates, as a stitch worker does, starts with a cold malloc arena and
/// costs about 140 µs (p50) instead; even then a balanced split of
/// 2 300 rows saves more (230 µs) than it costs.
const SPLIT_MIN_ROWS: usize = 2_300;

/// Stitch a package of decoded columnar stages into the nested value they
/// encode, starting from the distinguished top-level index ⊤⋅1, on the
/// calling thread.
///
/// This is the index-keyed columnar path: each [`ColumnarStage`] arrives
/// already grouped by its `(oidx_tag, oidx_ord)` pair (built by
/// [`ColumnarStage::decode`]), and nested values are materialised in one
/// pass straight out of the `Arc`-shared columns — no intermediate
/// [`FlatValue`] tree exists at any point, string cells reach the result as
/// refcount bumps, and the package is consumed by value so nothing is
/// re-cloned. The SQL rendering always materialises flat indexes, so no
/// [`IndexScheme`] parameter is needed here; the row path
/// ([`stitch_rows`]) remains the scheme-polymorphic oracle.
pub fn stitch(package: Package<ColumnarStage>) -> Result<Value, ShredError> {
    stitch_obs(package, None, 1)
}

/// [`stitch`] on up to `workers` threads, with the elapsed time recorded as
/// a `Stage::Stitch` span when a collector is present.
///
/// With `workers > 1` and at least `SPLIT_MIN_ROWS` decoded rows in the
/// package, the top-level bag's rows are cut into about `4 × workers`
/// contiguous chunks that [`sqlengine::scoped_map`] hands out from a
/// cursor, so a chunk of large departments does not hold up the others.
/// The chunks' items are concatenated in chunk order, so the value is
/// identical to the one-thread stitch, and an error is the first one in
/// row order, as on one thread.
pub fn stitch_obs(
    package: Package<ColumnarStage>,
    obs: Option<&obs::QueryObs>,
    workers: usize,
) -> Result<Value, ShredError> {
    obs::time_maybe(obs, obs::Stage::Stitch, || {
        let Package::Bag(stage, inner) = &package else {
            return Err(ShredError::Internal(
                "stitching requires a bag-typed result package".to_string(),
            ));
        };
        let rows = stage.group(TOP_PAIR);
        let decoded: usize = package.annotations().iter().map(|s| s.len()).sum();
        if workers <= 1 || decoded < SPLIT_MIN_ROWS {
            return Ok(Value::Bag(stitch_items(inner, stage, rows)?.into()));
        }
        let chunk_rows = rows.len().div_ceil(4 * workers).max(1);
        let chunks: Vec<&[u32]> = rows.chunks(chunk_rows).collect();
        let parts = sqlengine::scoped_map(workers, &chunks, |_, chunk| {
            stitch_items(inner, stage, chunk)
        })?;
        let mut items = Vec::with_capacity(rows.len());
        parts.into_iter().for_each(|part| items.extend(part));
        Ok(Value::Bag(items.into()))
    })
}

/// The items of one bag: the given rows of `stage`, each materialised
/// against the bag's element package `inner`.
fn stitch_items(
    inner: &Package<ColumnarStage>,
    stage: &ColumnarStage,
    rows: &[u32],
) -> Result<Vec<Value>, ShredError> {
    let mut items = Vec::with_capacity(rows.len());
    for &row in rows {
        let row = row as usize;
        items.push(stitch_row(
            inner,
            stage.layout(),
            &mut 0,
            &|col| stage.cell(col, row),
            &mut stitch_bag,
        )?);
    }
    Ok(items)
}

/// The nested bag a row reads: the rows of `stage` grouped under `key`.
fn stitch_bag(
    stage: &ColumnarStage,
    inner: &Package<ColumnarStage>,
    key: (u32, i64),
) -> Result<Value, ShredError> {
    Ok(Value::Bag(
        stitch_items(inner, stage, stage.group(key))?.into(),
    ))
}

/// Materialise one row of a stage as a nested value: the one walk of a
/// bag's element package in lockstep with the stage layout's pre-resolved
/// leaves, from the leaf at `*leaf` (0 for a whole row), shared by the
/// columnar stitcher and the live-view stitcher (`crate::delta`). A `Base`
/// node reads one cell of the row through `cell` (column position → cell);
/// a `Bag` node reads the `(tag, ord)` pair in the two columns of its
/// `Index` leaf and hands it, with the node's annotation and element
/// package, to `bag`, which returns the nested bag.
pub(crate) fn stitch_row<'c, A>(
    package: &Package<A>,
    layout: &ResultLayout,
    leaf: &mut usize,
    cell: &impl Fn(usize) -> &'c SqlValue,
    bag: &mut impl FnMut(&A, &Package<A>, (u32, i64)) -> Result<Value, ShredError>,
) -> Result<Value, ShredError> {
    match package {
        Package::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (label, field) in fields {
                out.push((label.clone(), stitch_row(field, layout, leaf, cell, bag)?));
            }
            Ok(Value::Record(out))
        }
        Package::Base(b) => sql_to_value(cell(layout.next_leaf(leaf, false)?.col), *b),
        Package::Bag(stage, inner) => {
            let col = layout.next_leaf(leaf, true)?.col;
            bag(stage, inner, flat_pair(cell(col), cell(col + 1))?)
        }
    }
}

// ---------------------------------------------------------------------------
// The row-at-a-time stitcher (the differential oracle)
// ---------------------------------------------------------------------------

/// A shredded result grouped by outer index.
type Grouped = HashMap<IndexValue, Vec<FlatValue>>;

/// Stitch a package of row-decoded shredded results into the nested value
/// they encode, starting from the distinguished top-level index ⊤⋅1.
///
/// This is the original row path, kept as the differential oracle for the
/// columnar [`stitch`] (and as the stitcher for the in-memory shredded
/// semantics, which produce [`FlatValue`]s under any [`IndexScheme`], not
/// columns). The package is consumed by value, so grouping moves each
/// `(outer, value)` pair into its bucket instead of cloning it.
pub fn stitch_rows(
    package: Package<ShredResult>,
    scheme: IndexScheme,
) -> Result<Value, ShredError> {
    let grouped = package.into_map(&mut |result: ShredResult| {
        let mut map: Grouped = HashMap::new();
        for (outer, value) in result {
            map.entry(outer).or_default().push(value);
        }
        map
    });
    match &grouped {
        Package::Bag(_, _) => stitch_rows_bag(&grouped, &IndexValue::top(scheme)),
        _ => Err(ShredError::Internal(
            "stitching requires a bag-typed result package".to_string(),
        )),
    }
}

fn stitch_rows_bag(package: &Package<Grouped>, index: &IndexValue) -> Result<Value, ShredError> {
    match package {
        Package::Bag(grouped, inner) => {
            let rows = grouped.get(index).map(Vec::as_slice).unwrap_or(&[]);
            let mut items = Vec::with_capacity(rows.len());
            for row in rows {
                items.push(stitch_rows_value(inner, row)?);
            }
            Ok(Value::Bag(items.into()))
        }
        _ => Err(ShredError::Internal(
            "stitch_bag called on a non-bag package".to_string(),
        )),
    }
}

fn stitch_rows_value(package: &Package<Grouped>, value: &FlatValue) -> Result<Value, ShredError> {
    match (package, value) {
        (Package::Base(_), FlatValue::Base(v)) => Ok(v.clone()),
        (Package::Record(fields), FlatValue::Record(values)) => {
            let mut out = Vec::with_capacity(fields.len());
            for (i, (label, field_pkg)) in fields.iter().enumerate() {
                // Decoded record fields arrive in layout order, which is the
                // package's field order — so the i-th field is found by
                // position, not by a linear scan per field per row. The scan
                // survives only as a fallback for hand-built results whose
                // field order differs.
                let field_value = match values.get(i) {
                    Some((l, v)) if l == label => v,
                    _ => values
                        .iter()
                        .find(|(l, _)| l == label)
                        .map(|(_, v)| v)
                        .ok_or_else(|| ShredError::Decode {
                            code: codes::DECODE_MISSING_FIELD,
                            message: format!("shredded row is missing field {}", label),
                        })?,
                };
                out.push((label.clone(), stitch_rows_value(field_pkg, field_value)?));
            }
            Ok(Value::Record(out))
        }
        (Package::Bag(_, _), FlatValue::Index(idx)) => stitch_rows_bag(package, idx),
        (pkg, v) => Err(ShredError::Decode {
            code: codes::DECODE_SHAPE_MISMATCH,
            message: format!(
                "value {} does not match the package shape {:?}",
                v,
                std::mem::discriminant(pkg)
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::ResultLayout;
    use crate::nf::StaticIndex;
    use crate::shred::FlatType;
    use nrc::types::BaseType;
    use sqlengine::{ColumnarResult, SqlValue};
    use std::sync::Arc;

    fn idx(tag: u32, ordinal: i64) -> IndexValue {
        IndexValue::Flat {
            tag: StaticIndex(tag),
            ordinal,
        }
    }

    /// Assemble a decoded columnar stage from literal rows (tag, ord, cells).
    fn columnar_stage(shape: FlatType, rows: Vec<Vec<SqlValue>>) -> ColumnarStage {
        let layout = Arc::new(ResultLayout::new(&shape));
        let width = layout.columns().len();
        let n = rows.len();
        let mut cols: Vec<Vec<SqlValue>> = (0..width).map(|_| Vec::with_capacity(n)).collect();
        for row in rows {
            assert_eq!(row.len(), width, "test row width matches the layout");
            for (c, v) in row.into_iter().enumerate() {
                cols[c].push(v);
            }
        }
        let result = ColumnarResult::new(
            layout.columns().to_vec(),
            cols.into_iter().map(Arc::new).collect(),
            n,
        );
        ColumnarStage::decode(layout, result).unwrap()
    }

    fn int(i: i64) -> SqlValue {
        SqlValue::Int(i)
    }

    fn s(x: &str) -> SqlValue {
        SqlValue::str(x)
    }

    /// The running example of `stitches_the_running_example_shape`, but fed
    /// through the columnar decode + stitch path: same three stages, now as
    /// flat SQL columns.
    #[test]
    fn columnar_stitch_rebuilds_the_running_example() {
        let people_shape = FlatType::Record(vec![
            ("name".to_string(), FlatType::Base(BaseType::String)),
            ("tasks".to_string(), FlatType::Index),
        ]);
        let dept_shape = FlatType::Record(vec![
            ("department".to_string(), FlatType::Base(BaseType::String)),
            ("people".to_string(), FlatType::Index),
        ]);
        // Rows are deliberately out of index order: grouping must gather them.
        let r1 = columnar_stage(
            dept_shape,
            vec![
                vec![int(0), int(1), s("Sales"), int(1), int(2)],
                vec![int(0), int(1), s("Product"), int(1), int(1)],
            ],
        );
        let r2 = columnar_stage(
            people_shape,
            vec![
                vec![int(1), int(2), s("Erik"), int(2), int(2)],
                vec![int(1), int(1), s("Bert"), int(2), int(1)],
            ],
        );
        let r3 = columnar_stage(
            FlatType::Base(BaseType::String),
            vec![
                vec![int(2), int(2), s("call")],
                vec![int(2), int(1), s("build")],
                vec![int(2), int(2), s("enthuse")],
            ],
        );
        let package = Package::Bag(
            r1,
            Box::new(Package::Record(vec![
                ("department".to_string(), Package::Base(BaseType::String)),
                (
                    "people".to_string(),
                    Package::Bag(
                        r2,
                        Box::new(Package::Record(vec![
                            ("name".to_string(), Package::Base(BaseType::String)),
                            (
                                "tasks".to_string(),
                                Package::Bag(r3, Box::new(Package::Base(BaseType::String))),
                            ),
                        ])),
                    ),
                ),
            ])),
        );
        let v = stitch(package).unwrap();
        let expected = Value::bag(vec![
            Value::record(vec![
                ("department", Value::string("Product")),
                (
                    "people",
                    Value::bag(vec![Value::record(vec![
                        ("name", Value::string("Bert")),
                        ("tasks", Value::bag(vec![Value::string("build")])),
                    ])]),
                ),
            ]),
            Value::record(vec![
                ("department", Value::string("Sales")),
                (
                    "people",
                    Value::bag(vec![Value::record(vec![
                        ("name", Value::string("Erik")),
                        (
                            "tasks",
                            Value::bag(vec![Value::string("call"), Value::string("enthuse")]),
                        ),
                    ])]),
                ),
            ]),
        ]);
        assert!(v.multiset_eq(&expected), "got {}", v);
    }

    /// An inner index with no rows in the nested stage stitches to an empty
    /// bag on the columnar path too.
    #[test]
    fn columnar_missing_inner_rows_produce_empty_bags() {
        let dept_shape = FlatType::Record(vec![
            ("dept".to_string(), FlatType::Base(BaseType::String)),
            ("people".to_string(), FlatType::Index),
        ]);
        let r1 = columnar_stage(
            dept_shape,
            vec![vec![int(0), int(1), s("Quality"), int(1), int(7)]],
        );
        let r2 = columnar_stage(FlatType::Base(BaseType::String), vec![]);
        let package = Package::Bag(
            r1,
            Box::new(Package::Record(vec![
                ("dept".to_string(), Package::Base(BaseType::String)),
                (
                    "people".to_string(),
                    Package::Bag(r2, Box::new(Package::Base(BaseType::String))),
                ),
            ])),
        );
        let v = stitch(package).unwrap();
        let people = v.as_bag().unwrap()[0].field("people").unwrap();
        assert_eq!(people, &Value::bag([]));
    }

    /// A stage whose cells do not inhabit the declared base type is a decode
    /// error, not a panic.
    #[test]
    fn columnar_type_mismatches_are_decode_errors() {
        let r1 = columnar_stage(
            FlatType::Base(BaseType::Int),
            vec![vec![int(0), int(1), s("not-an-int")]],
        );
        let package = Package::Bag(r1, Box::new(Package::Base(BaseType::Int)));
        assert!(matches!(stitch(package), Err(ShredError::Decode { .. })));
    }

    /// A split stitch returns the value and the error of the one-thread
    /// stitch: with bad cells in two different chunks of the top-level bag,
    /// workers 1 and 4 both report the first bad cell in row order.
    #[test]
    fn a_split_stitch_matches_the_one_thread_stitch_and_its_first_error() {
        let n = SPLIT_MIN_ROWS + 100;
        let package = |bad: &[usize]| {
            let rows = (0..n)
                .map(|i| {
                    let item = if bad.contains(&i) {
                        s(&format!("bad-{i}"))
                    } else {
                        int(i as i64)
                    };
                    vec![int(0), int(1), item]
                })
                .collect();
            let stage = columnar_stage(FlatType::Base(BaseType::Int), rows);
            Package::Bag(stage, Box::new(Package::Base(BaseType::Int)))
        };
        let value = stitch_obs(package(&[]), None, 4).unwrap();
        assert_eq!(value, stitch(package(&[])).unwrap());
        assert_eq!(value.as_bag().unwrap().len(), n);

        // 4 workers cut 16 chunks, so a third of the rows apart is another
        // chunk.
        let bad = [n / 3, 2 * n / 3];
        assert!(bad[1] - bad[0] > n.div_ceil(16));
        let one = stitch_obs(package(&bad), None, 1).unwrap_err();
        assert!(
            format!("{one}").contains(&format!("bad-{}", bad[0])),
            "{one}"
        );
        assert_eq!(stitch_obs(package(&bad), None, 4).unwrap_err(), one);
    }

    /// A package that decodes enough rows to split but whose top-level bag
    /// is empty stitches to the empty bag at any worker count.
    #[test]
    fn an_empty_top_level_bag_stitches_at_any_worker_count() {
        let shape = FlatType::Record(vec![("xs".to_string(), FlatType::Index)]);
        let nested = (0..SPLIT_MIN_ROWS as i64)
            .map(|i| vec![int(1), int(1), int(i)])
            .collect();
        let package = Package::Bag(
            columnar_stage(shape, vec![]),
            Box::new(Package::Record(vec![(
                "xs".to_string(),
                Package::Bag(
                    columnar_stage(FlatType::Base(BaseType::Int), nested),
                    Box::new(Package::Base(BaseType::Int)),
                ),
            )])),
        );
        for workers in [1, 4] {
            let value = stitch_obs(package.clone(), None, workers).unwrap();
            assert_eq!(value, Value::bag([]));
        }
    }

    /// Hand-build the shredded results of the paper's running example (the
    /// r′1, r′2, r′3 tables of Section 3, slightly reduced) and stitch them.
    #[test]
    fn stitches_the_running_example_shape() {
        // Outer query: one row per department.
        let r1: ShredResult = vec![
            (
                idx(0, 1),
                FlatValue::Record(vec![
                    (
                        "department".to_string(),
                        FlatValue::Base(Value::string("Product")),
                    ),
                    ("people".to_string(), FlatValue::Index(idx(1, 1))),
                ]),
            ),
            (
                idx(0, 1),
                FlatValue::Record(vec![
                    (
                        "department".to_string(),
                        FlatValue::Base(Value::string("Sales")),
                    ),
                    ("people".to_string(), FlatValue::Index(idx(1, 2))),
                ]),
            ),
        ];
        // Middle query: people per department.
        let r2: ShredResult = vec![
            (
                idx(1, 1),
                FlatValue::Record(vec![
                    ("name".to_string(), FlatValue::Base(Value::string("Bert"))),
                    ("tasks".to_string(), FlatValue::Index(idx(2, 1))),
                ]),
            ),
            (
                idx(1, 2),
                FlatValue::Record(vec![
                    ("name".to_string(), FlatValue::Base(Value::string("Erik"))),
                    ("tasks".to_string(), FlatValue::Index(idx(2, 2))),
                ]),
            ),
        ];
        // Inner query: tasks per person.
        let r3: ShredResult = vec![
            (idx(2, 1), FlatValue::Base(Value::string("build"))),
            (idx(2, 2), FlatValue::Base(Value::string("call"))),
            (idx(2, 2), FlatValue::Base(Value::string("enthuse"))),
        ];

        let package = Package::Bag(
            r1,
            Box::new(Package::Record(vec![
                ("department".to_string(), Package::Base(BaseType::String)),
                (
                    "people".to_string(),
                    Package::Bag(
                        r2,
                        Box::new(Package::Record(vec![
                            ("name".to_string(), Package::Base(BaseType::String)),
                            (
                                "tasks".to_string(),
                                Package::Bag(r3, Box::new(Package::Base(BaseType::String))),
                            ),
                        ])),
                    ),
                ),
            ])),
        );

        let v = stitch_rows(package, IndexScheme::Flat).unwrap();
        let expected = Value::bag(vec![
            Value::record(vec![
                ("department", Value::string("Product")),
                (
                    "people",
                    Value::bag(vec![Value::record(vec![
                        ("name", Value::string("Bert")),
                        ("tasks", Value::bag(vec![Value::string("build")])),
                    ])]),
                ),
            ]),
            Value::record(vec![
                ("department", Value::string("Sales")),
                (
                    "people",
                    Value::bag(vec![Value::record(vec![
                        ("name", Value::string("Erik")),
                        (
                            "tasks",
                            Value::bag(vec![Value::string("call"), Value::string("enthuse")]),
                        ),
                    ])]),
                ),
            ]),
        ]);
        assert!(v.multiset_eq(&expected));
    }

    #[test]
    fn missing_inner_rows_produce_empty_bags() {
        let r1: ShredResult = vec![(
            idx(0, 1),
            FlatValue::Record(vec![
                (
                    "dept".to_string(),
                    FlatValue::Base(Value::string("Quality")),
                ),
                ("people".to_string(), FlatValue::Index(idx(1, 7))),
            ]),
        )];
        let r2: ShredResult = vec![];
        let package = Package::Bag(
            r1,
            Box::new(Package::Record(vec![
                ("dept".to_string(), Package::Base(BaseType::String)),
                (
                    "people".to_string(),
                    Package::Bag(r2, Box::new(Package::Base(BaseType::String))),
                ),
            ])),
        );
        let v = stitch_rows(package, IndexScheme::Flat).unwrap();
        let people = v.as_bag().unwrap()[0].field("people").unwrap();
        assert_eq!(people, &Value::bag([]));
    }

    #[test]
    fn mismatched_shapes_are_decode_errors() {
        let r1: ShredResult = vec![(idx(0, 1), FlatValue::Base(Value::Int(3)))];
        let package = Package::Bag(
            r1,
            Box::new(Package::Record(vec![(
                "x".to_string(),
                Package::Base(BaseType::Int),
            )])),
        );
        assert!(matches!(
            stitch_rows(package, IndexScheme::Flat),
            Err(ShredError::Decode { .. })
        ));
    }
}
