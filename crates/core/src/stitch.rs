//! Stitching shredded results back into a nested value (Section 5.2).
//!
//! Following the optimisation described in Section 8, stitching is done in a
//! single pass: each shredded result is first grouped by its outer index in a
//! hash map, so rebuilding the nested value is linear in the total size of
//! the shredded results rather than quadratic.
//!
//! Two stitchers live here:
//!
//! * [`stitch`] — the **columnar** path (the default): consumes
//!   [`ColumnarStage`]s whose rows were grouped by their `(oidx_tag,
//!   oidx_ord)` columns at decode time, and materialises the nested value
//!   straight out of the `Arc`-shared columns using the layout's
//!   pre-resolved leaf positions. No intermediate [`FlatValue`] tree is
//!   allocated.
//! * [`stitch_rows`] — the **row** path: consumes [`ShredResult`]s (lists of
//!   ⟨outer index, flat value⟩ pairs). It is the differential oracle the
//!   columnar path is tested against, and the only stitcher the in-memory
//!   shredded semantics can use (they materialise canonical or natural
//!   indexes, which have no columnar encoding).

use crate::error::ShredError;
use crate::flatten::{flat_index, sql_to_value, ColumnarStage};
use crate::semantics::{FlatValue, IndexScheme, IndexValue, ShredResult};
use crate::shred::Package;
use analysis::codes;
use nrc::value::Value;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// The columnar stitcher (the default path)
// ---------------------------------------------------------------------------

/// Stitch a package of decoded columnar stages into the nested value they
/// encode, starting from the distinguished top-level index ⊤⋅1.
///
/// This is the index-keyed columnar path: each [`ColumnarStage`] arrives
/// already grouped by its `(oidx_tag, oidx_ord)` columns (a `HashMap` over a
/// sorted row permutation, built by [`ColumnarStage::decode`]), and nested
/// values are materialised in one pass straight out of the `Arc`-shared
/// columns — no intermediate [`FlatValue`] tree exists at any point, string
/// cells reach the result as refcount bumps, and the package is consumed by
/// value so nothing is re-cloned. The SQL rendering always materialises
/// flat indexes, so no [`IndexScheme`] parameter is needed here; the row
/// path ([`stitch_rows`]) remains the scheme-polymorphic oracle.
pub fn stitch(package: Package<ColumnarStage>) -> Result<Value, ShredError> {
    stitch_obs(package, None)
}

/// [`stitch`] with the elapsed time recorded as a `Stage::Stitch` span when
/// a collector is present.
pub fn stitch_obs(
    package: Package<ColumnarStage>,
    obs: Option<&obs::QueryObs>,
) -> Result<Value, ShredError> {
    obs::time_maybe(obs, obs::Stage::Stitch, || match &package {
        Package::Bag(_, _) => stitch_bag(&package, &IndexValue::top(IndexScheme::Flat)),
        _ => Err(ShredError::Internal(
            "stitching requires a bag-typed result package".to_string(),
        )),
    })
}

fn stitch_bag(package: &Package<ColumnarStage>, index: &IndexValue) -> Result<Value, ShredError> {
    match package {
        Package::Bag(stage, inner) => {
            let rows = stage.group(index);
            let mut items = Vec::with_capacity(rows.len());
            for &row in rows {
                let mut leaf = 0usize;
                items.push(stitch_value(inner, stage, &mut leaf, row as usize)?);
            }
            Ok(Value::Bag(items))
        }
        _ => Err(ShredError::Internal(
            "stitch_bag called on a non-bag package".to_string(),
        )),
    }
}

/// Materialise one row of a stage as a nested value, walking the inner
/// package shape in lockstep with the stage layout's pre-resolved leaves:
/// a `Base` package node reads one data column, a `Bag` node reads the two
/// index columns of its `Index` leaf and recurses into the nested stage.
fn stitch_value(
    package: &Package<ColumnarStage>,
    stage: &ColumnarStage,
    leaf: &mut usize,
    row: usize,
) -> Result<Value, ShredError> {
    match package {
        Package::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (label, field_pkg) in fields {
                out.push((label.clone(), stitch_value(field_pkg, stage, leaf, row)?));
            }
            Ok(Value::Record(out))
        }
        Package::Base(b) => {
            let l = stage.layout().next_leaf(leaf, false)?;
            sql_to_value(stage.cell(l.col, row), *b)
        }
        Package::Bag(_, _) => {
            let l = stage.layout().next_leaf(leaf, true)?;
            let index = flat_index(stage.cell(l.col, row), stage.cell(l.col + 1, row))?;
            stitch_bag(package, &index)
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
            Ok(Value::Bag(items))
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
        // Rows are deliberately out of index order: grouping must sort them.
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
        assert_eq!(people, &Value::Bag(vec![]));
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
        assert_eq!(people, &Value::Bag(vec![]));
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
