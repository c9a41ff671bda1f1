//! Record flattening (Appendix E of the paper).
//!
//! SQL result rows are flat, but shredded queries return nested records (an
//! index pair plus an inner record that may itself contain index pairs).
//! This module defines the *column layout* of a shredded query's SQL
//! rendering: the flattened column names, how each leaf of the shredded type
//! maps onto columns, and how to decode (unflatten) result rows back into
//! indexed flat values for stitching.

use crate::error::ShredError;
use crate::nf::StaticIndex;
use crate::semantics::{FlatValue, IndexValue, ShredResult};
use crate::shred::FlatType;
use analysis::codes;
use nrc::types::BaseType;
use nrc::value::Value;
use sqlengine::{ColumnarResult, ResultSet, SqlValue};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Name of the column holding the static component of the outer index.
pub const OUTER_TAG_COLUMN: &str = "oidx_tag";
/// Name of the column holding the dynamic component of the outer index.
pub const OUTER_ORD_COLUMN: &str = "oidx_ord";

/// One leaf of the flattened shredded type.
#[derive(Debug, Clone, PartialEq)]
pub enum LeafKind {
    /// A base-typed column.
    Base(BaseType),
    /// An inner index, occupying two columns (`…_tag`, `…_ord`).
    Index,
}

/// A leaf of the flattened layout: the record path to it and its kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    /// Record labels from the root of the inner term to this leaf.
    pub path: Vec<String>,
    pub kind: LeafKind,
    /// Flattened column name (for `Index` leaves this is the prefix; the
    /// actual columns are `{name}_tag` and `{name}_ord`).
    pub name: String,
    /// Position of this leaf's first SQL column in the stage's full column
    /// list (positions 0 and 1 hold the outer index pair; an `Index` leaf
    /// occupies `col` and `col + 1`). Resolved once in
    /// [`ResultLayout::new`], so decoding never searches by name.
    pub col: usize,
}

/// The column layout of one shredded query's SQL rendering.
///
/// Built once per prepared query (at compile time): the leaf→column
/// positions and the full expected column list are resolved here, so
/// per-execution decoding — row-major or columnar — does no name lookups
/// and allocates no column-name vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLayout {
    /// The shredded inner type this layout flattens.
    pub shape: FlatType,
    /// The flattened leaves, in column order.
    pub leaves: Vec<Leaf>,
    /// All SQL column names, in order — computed once at construction.
    columns: Vec<String>,
}

impl ResultLayout {
    /// Build the layout for a shredded inner type, resolving each leaf's
    /// column position and the full expected column list once.
    pub fn new(shape: &FlatType) -> ResultLayout {
        let mut leaves = Vec::new();
        collect_leaves(shape, &mut Vec::new(), &mut leaves);
        // Disambiguate duplicate flattened names (possible when labels contain
        // underscores) by appending a position suffix.
        let mut seen = std::collections::HashSet::new();
        for (i, leaf) in leaves.iter_mut().enumerate() {
            if !seen.insert(leaf.name.clone()) {
                leaf.name = format!("{}_{}", leaf.name, i);
                seen.insert(leaf.name.clone());
            }
        }
        let mut columns = vec![OUTER_TAG_COLUMN.to_string(), OUTER_ORD_COLUMN.to_string()];
        for leaf in leaves.iter_mut() {
            leaf.col = columns.len();
            match leaf.kind {
                LeafKind::Base(_) => columns.push(leaf.name.clone()),
                LeafKind::Index => {
                    columns.push(format!("{}_tag", leaf.name));
                    columns.push(format!("{}_ord", leaf.name));
                }
            }
        }
        ResultLayout {
            shape: shape.clone(),
            leaves,
            columns,
        }
    }

    /// All SQL column names, in order: the outer index pair followed by the
    /// flattened inner columns. Computed once in [`ResultLayout::new`].
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The leaf at `*cursor`, advancing the cursor: a stitcher walks a
    /// stage's package shape in lockstep with the layout's leaves, and
    /// `nested` says whether the shape expects a nested bag (an `Index`
    /// leaf) or a base value there.
    pub(crate) fn next_leaf(&self, cursor: &mut usize, nested: bool) -> Result<&Leaf, ShredError> {
        let leaf = self.leaves.get(*cursor).ok_or_else(|| {
            decode_err(
                codes::DECODE_SHAPE_MISMATCH,
                "stage has fewer leaves than the package shape".to_string(),
            )
        })?;
        *cursor += 1;
        match (&leaf.kind, nested) {
            (LeafKind::Base(_), false) | (LeafKind::Index, true) => Ok(leaf),
            (LeafKind::Index, false) => Err(decode_err(
                codes::DECODE_SHAPE_MISMATCH,
                format!(
                    "layout leaf {} is an index but the package expects a base value",
                    leaf.name
                ),
            )),
            (LeafKind::Base(_), true) => Err(decode_err(
                codes::DECODE_SHAPE_MISMATCH,
                format!(
                    "layout leaf {} is a base column but the package expects a nested bag",
                    leaf.name
                ),
            )),
        }
    }

    /// Decode (unflatten) a row-major engine result set into an indexed
    /// shredded result, ready for [`crate::stitch::stitch_rows`]. This is
    /// the row path, kept as the differential oracle for the columnar
    /// decode; per-row it allocates a [`FlatValue`] tree.
    pub fn decode(&self, rs: &ResultSet) -> Result<ShredResult, ShredError> {
        if rs.columns != self.columns {
            return Err(decode_err(
                codes::DECODE_COLUMN_COUNT,
                format!(
                    "result columns {:?} do not match layout {:?}",
                    rs.columns, self.columns
                ),
            ));
        }
        let mut out = Vec::with_capacity(rs.rows.len());
        for row in &rs.rows {
            let mut cursor = 0usize;
            let outer = decode_index(row, &mut cursor)?;
            let value = decode_value(&self.shape, row, &mut cursor)?;
            if cursor != row.len() {
                return Err(decode_err(
                    codes::DECODE_COLUMN_COUNT,
                    format!("row has {} columns but {} were consumed", row.len(), cursor),
                ));
            }
            out.push((outer, value));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Columnar decode
// ---------------------------------------------------------------------------

/// The decoded, index-grouped columnar result of one shredded query stage:
/// the stage's `Arc`-shared data columns taken by value from the engine,
/// plus a row permutation grouped by the stage's outer index
/// `(oidx_tag, oidx_ord)` columns.
///
/// This is the columnar replacement for [`ShredResult`]: no per-row
/// [`FlatValue`] tree is built and no cell or label is cloned at decode
/// time — the only per-row work is reading the two integer index columns,
/// one hash lookup of the pair and one counting-scatter step. The stitcher
/// ([`crate::stitch::stitch`]) materialises nested values straight out of
/// the columns, using the layout's pre-resolved leaf positions.
#[derive(Debug, Clone)]
pub struct ColumnarStage {
    layout: Arc<ResultLayout>,
    /// Every stage column (index pair first), shared with the engine batch.
    columns: Vec<Arc<Vec<SqlValue>>>,
    /// Row indices, group after group; inside a group in engine order.
    perm: Vec<u32>,
    /// Outer `(tag, ord)` pair → group number, numbered by first occurrence.
    groups: PairMap<u32>,
    /// `ends[g]` is the end of group `g` in `perm`; it starts where group
    /// `g - 1` ends.
    ends: Vec<u32>,
}

impl ColumnarStage {
    /// Decode a columnar engine result against a stage layout: verify the
    /// column list, group the rows by their outer `(oidx_tag, oidx_ord)`
    /// pair and take ownership of the shared columns. Linear in the row
    /// count: one hashed pass over the index columns and one scatter.
    pub fn decode(
        layout: Arc<ResultLayout>,
        result: ColumnarResult,
    ) -> Result<ColumnarStage, ShredError> {
        Self::decode_obs(layout, result, None)
    }

    /// [`decode`](Self::decode) with the elapsed time recorded as a
    /// `Stage::Decode` span when a collector is present.
    pub fn decode_obs(
        layout: Arc<ResultLayout>,
        result: ColumnarResult,
        obs: Option<&obs::QueryObs>,
    ) -> Result<ColumnarStage, ShredError> {
        obs::time_maybe(obs, obs::Stage::Decode, || {
            Self::decode_inner(layout, result)
        })
    }

    fn decode_inner(
        layout: Arc<ResultLayout>,
        result: ColumnarResult,
    ) -> Result<ColumnarStage, ShredError> {
        if result.columns != layout.columns {
            return Err(decode_err(
                codes::DECODE_COLUMN_COUNT,
                format!(
                    "result columns {:?} do not match layout {:?}",
                    result.columns, layout.columns
                ),
            ));
        }
        check_row_count(result.len())?;
        let columns = result.into_columns();
        let (tags, ords) = (&columns[0], &columns[1]);
        // One pass: number each distinct pair by first occurrence and count
        // its rows. Engine output tends to arrive grouped, so a row whose
        // pair equals the previous row's skips the lookup.
        let mut groups = PairMap::<u32>::default();
        let mut ends: Vec<u32> = Vec::new();
        let mut group_of: Vec<u32> = Vec::with_capacity(tags.len());
        let mut last: Option<((u32, i64), u32)> = None;
        for (tag, ord) in tags.iter().zip(ords.iter()) {
            let key = flat_pair(tag, ord)?;
            let g = match last {
                Some((k, g)) if k == key => g,
                _ => {
                    let fresh = ends.len() as u32;
                    let g = *groups.entry(key).or_insert(fresh);
                    if g == fresh {
                        ends.push(0);
                    }
                    last = Some((key, g));
                    g
                }
            };
            ends[g as usize] += 1;
            group_of.push(g);
        }
        // Counting scatter: turn the counts into group starts, then place
        // each row at its group's cursor. Rows are placed in row order, so
        // rows with equal outer indexes keep the engine's output order and
        // the columnar path yields values *identical* to the row path's
        // (which groups in output order), not merely multiset-equal — the
        // differential suite asserts exactly that. Each cursor finishes at
        // its group's end.
        let mut start = 0u32;
        for count in ends.iter_mut() {
            let size = *count;
            *count = start;
            start += size;
        }
        let mut perm = vec![0u32; group_of.len()];
        for (row, &g) in group_of.iter().enumerate() {
            let cursor = &mut ends[g as usize];
            perm[*cursor as usize] = row as u32;
            *cursor += 1;
        }
        Ok(ColumnarStage {
            layout,
            columns,
            perm,
            groups,
            ends,
        })
    }

    /// The stage's layout.
    pub fn layout(&self) -> &ResultLayout {
        &self.layout
    }

    /// Number of decoded rows.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Is the stage empty?
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The physical row indices grouped under an outer `(tag, ord)` pair,
    /// in engine order (empty when the pair never occurs — stitching turns
    /// that into an empty bag).
    pub fn group(&self, key: (u32, i64)) -> &[u32] {
        match self.groups.get(&key) {
            Some(&g) => {
                let g = g as usize;
                let start = if g == 0 { 0 } else { self.ends[g - 1] };
                &self.perm[start as usize..self.ends[g] as usize]
            }
            None => &[],
        }
    }

    /// The cell at (column position, physical row).
    pub fn cell(&self, col: usize, row: usize) -> &SqlValue {
        &self.columns[col][row]
    }
}

/// A stage's row positions are `u32`s: a stage of `u32::MAX` rows or more
/// is a typed error, not a silently truncated permutation (the same bound
/// the engine's join tables enforce on a build side).
fn check_row_count(rows: usize) -> Result<(), ShredError> {
    if rows >= u32::MAX as usize {
        return Err(decode_err(
            codes::DECODE_INDEX_RANGE,
            format!(
                "stage has {rows} rows; row positions hold at most {}",
                u32::MAX - 1
            ),
        ));
    }
    Ok(())
}

/// A map keyed by a flat `(tag, ord)` index pair.
pub(crate) type PairMap<V> = HashMap<(u32, i64), V, PairHash>;

/// The hasher of [`PairMap`], for other collections of small integer keys.
pub(crate) type PairHash = BuildHasherDefault<PairHasher>;

/// The hasher of [`PairMap`]: one multiply-rotate step per word, then the
/// high half folded into the low bits the table indexes its buckets by.
/// The keys are two integers that no client chooses adversarially, so the
/// default SipHash buys nothing here but cost.
#[derive(Default)]
pub(crate) struct PairHasher(u64);

impl PairHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    fn write_i64(&mut self, word: i64) {
        self.add(word as u64);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Interpret a `(tag, ord)` cell pair as a flat index: the one decoder of
/// index cells on the SQL path (both decodes, the stitch walk and live-view
/// maintenance).
pub(crate) fn flat_pair(tag: &SqlValue, ord: &SqlValue) -> Result<(u32, i64), ShredError> {
    let tag = tag.as_int().ok_or_else(|| {
        decode_err(
            codes::DECODE_TYPE_MISMATCH,
            format!("expected an integer index tag cell, got {tag}"),
        )
    })?;
    let ord = ord.as_int().ok_or_else(|| {
        decode_err(
            codes::DECODE_TYPE_MISMATCH,
            format!("expected an integer index ordinal cell, got {ord}"),
        )
    })?;
    let tag = u32::try_from(tag).map_err(|_| {
        decode_err(
            codes::DECODE_INDEX_RANGE,
            format!("static index column out of range: {}", tag),
        )
    })?;
    Ok((tag, ord))
}

/// Build a typed decode error carrying its diagnostic registry code.
fn decode_err(code: &'static str, message: String) -> ShredError {
    ShredError::Decode { code, message }
}

fn collect_leaves(shape: &FlatType, path: &mut Vec<String>, out: &mut Vec<Leaf>) {
    match shape {
        FlatType::Base(b) => out.push(Leaf {
            path: path.clone(),
            kind: LeafKind::Base(*b),
            name: flat_name(path, "item"),
            col: 0, // resolved by ResultLayout::new once names are final
        }),
        FlatType::Index => out.push(Leaf {
            path: path.clone(),
            kind: LeafKind::Index,
            name: flat_name(path, "idx"),
            col: 0, // resolved by ResultLayout::new once names are final
        }),
        FlatType::Record(fields) => {
            for (label, field) in fields {
                path.push(label.clone());
                collect_leaves(field, path, out);
                path.pop();
            }
        }
    }
}

/// Flatten a record path into an SQL-friendly identifier. Tuple labels `#1`
/// become `t1` and an empty path falls back to the supplied default.
fn flat_name(path: &[String], default: &str) -> String {
    if path.is_empty() {
        return default.to_string();
    }
    path.iter()
        .map(|l| l.replace('#', "t"))
        .collect::<Vec<_>>()
        .join("_")
}

fn decode_index(row: &[SqlValue], cursor: &mut usize) -> Result<IndexValue, ShredError> {
    let (tag, ordinal) = flat_pair(take(row, cursor)?, take(row, cursor)?)?;
    Ok(IndexValue::Flat {
        tag: StaticIndex(tag),
        ordinal,
    })
}

fn decode_value(
    shape: &FlatType,
    row: &[SqlValue],
    cursor: &mut usize,
) -> Result<FlatValue, ShredError> {
    match shape {
        FlatType::Base(b) => {
            let v = take(row, cursor)?;
            Ok(FlatValue::Base(sql_to_value(v, *b)?))
        }
        FlatType::Index => Ok(FlatValue::Index(decode_index(row, cursor)?)),
        FlatType::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (label, field) in fields {
                out.push((label.clone(), decode_value(field, row, cursor)?));
            }
            Ok(FlatValue::Record(out))
        }
    }
}

fn take<'a>(row: &'a [SqlValue], cursor: &mut usize) -> Result<&'a SqlValue, ShredError> {
    let v = row.get(*cursor).ok_or_else(|| {
        decode_err(
            codes::DECODE_ROW_SHORT,
            "row is shorter than the layout".to_string(),
        )
    })?;
    *cursor += 1;
    Ok(v)
}

/// Convert a SQL scalar back into a λNRC base value of the expected type.
/// Strings hand their `Arc<str>` payload over — a refcount bump, not a copy
/// per cell.
pub fn sql_to_value(v: &SqlValue, expected: BaseType) -> Result<Value, ShredError> {
    match (v, expected) {
        (SqlValue::Int(i), BaseType::Int) => Ok(Value::Int(*i)),
        (SqlValue::Bool(b), BaseType::Bool) => Ok(Value::Bool(*b)),
        (SqlValue::Str(s), BaseType::String) => Ok(Value::String(s.clone())),
        (_, BaseType::Unit) => Ok(Value::Unit),
        (other, expected) => Err(decode_err(
            codes::DECODE_TYPE_MISMATCH,
            format!(
                "column value {} does not have base type {}",
                other, expected
            ),
        )),
    }
}

/// Convert a λNRC base value into a SQL scalar. Strings share their
/// `Arc<str>` payload with the value.
pub fn value_to_sql(v: &Value) -> Result<SqlValue, ShredError> {
    match v {
        Value::Int(i) => Ok(SqlValue::Int(*i)),
        Value::Bool(b) => Ok(SqlValue::Bool(*b)),
        Value::String(s) => Ok(SqlValue::Str(s.clone())),
        Value::Unit => Ok(SqlValue::Int(0)),
        other => Err(ShredError::Internal(format!(
            "cannot store non-base value {} in a SQL column",
            other
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people_shape() -> FlatType {
        FlatType::Record(vec![
            ("name".to_string(), FlatType::Base(BaseType::String)),
            ("tasks".to_string(), FlatType::Index),
        ])
    }

    #[test]
    fn columns_follow_the_flattened_shape() {
        let layout = ResultLayout::new(&people_shape());
        assert_eq!(
            layout.columns(),
            [
                "oidx_tag".to_string(),
                "oidx_ord".to_string(),
                "name".to_string(),
                "tasks_tag".to_string(),
                "tasks_ord".to_string(),
            ]
        );
        // Leaf positions are resolved once at construction.
        assert_eq!(layout.leaves[0].col, 2);
        assert_eq!(layout.leaves[1].col, 3);
    }

    #[test]
    fn base_shape_uses_the_item_column() {
        let layout = ResultLayout::new(&FlatType::Base(BaseType::String));
        assert_eq!(
            layout.columns(),
            ["oidx_tag", "oidx_ord", "item"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn decode_round_trips_rows() {
        let layout = ResultLayout::new(&people_shape());
        let rs = ResultSet {
            columns: layout.columns().to_vec(),
            rows: vec![vec![
                SqlValue::Int(1),
                SqlValue::Int(4),
                SqlValue::str("Erik"),
                SqlValue::Int(2),
                SqlValue::Int(7),
            ]],
        };
        let decoded = layout.decode(&rs).unwrap();
        assert_eq!(decoded.len(), 1);
        let (outer, value) = &decoded[0];
        assert_eq!(
            outer,
            &IndexValue::Flat {
                tag: StaticIndex(1),
                ordinal: 4
            }
        );
        assert_eq!(
            value.field("name"),
            Some(&FlatValue::Base(Value::string("Erik")))
        );
        assert_eq!(
            value.field("tasks"),
            Some(&FlatValue::Index(IndexValue::Flat {
                tag: StaticIndex(2),
                ordinal: 7
            }))
        );
    }

    #[test]
    fn decode_rejects_mismatched_columns() {
        let layout = ResultLayout::new(&people_shape());
        let rs = ResultSet {
            columns: vec!["x".to_string()],
            rows: vec![],
        };
        assert!(matches!(layout.decode(&rs), Err(ShredError::Decode { .. })));
    }

    #[test]
    fn duplicate_flattened_names_are_disambiguated() {
        let shape = FlatType::Record(vec![
            (
                "a".to_string(),
                FlatType::Record(vec![("b".to_string(), FlatType::Base(BaseType::Int))]),
            ),
            ("a_b".to_string(), FlatType::Base(BaseType::Int)),
        ]);
        let layout = ResultLayout::new(&shape);
        let cols = layout.columns();
        let unique: std::collections::HashSet<_> = cols.iter().collect();
        assert_eq!(unique.len(), cols.len());
    }

    /// Decode a base-shaped stage from literal `(tag, ord, item)` rows.
    fn decode_stage(rows: Vec<[SqlValue; 3]>) -> Result<ColumnarStage, ShredError> {
        let layout = Arc::new(ResultLayout::new(&FlatType::Base(BaseType::Int)));
        let n = rows.len();
        let mut cols: Vec<Vec<SqlValue>> = vec![Vec::new(); 3];
        for row in rows {
            for (c, v) in row.into_iter().enumerate() {
                cols[c].push(v);
            }
        }
        let result = ColumnarResult::new(
            layout.columns().to_vec(),
            cols.into_iter().map(Arc::new).collect(),
            n,
        );
        ColumnarStage::decode(layout, result)
    }

    fn row(tag: i64, ord: i64) -> [SqlValue; 3] {
        [SqlValue::Int(tag), SqlValue::Int(ord), SqlValue::Int(0)]
    }

    fn decode_code(rows: Vec<[SqlValue; 3]>) -> &'static str {
        match decode_stage(rows) {
            Err(ShredError::Decode { code, .. }) => code,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn grouping_keeps_the_engine_order_inside_each_group() {
        let stage = decode_stage(vec![
            row(1, 5),
            row(1, 3),
            row(1, 5),
            row(2, 5),
            row(1, 3),
            row(1, 5),
            row(1, -4),
        ])
        .unwrap();
        assert_eq!(stage.len(), 7);
        assert_eq!(stage.group((1, 5)), [0, 2, 5]);
        assert_eq!(stage.group((1, 3)), [1, 4]);
        assert_eq!(stage.group((2, 5)), [3]);
        assert_eq!(stage.group((1, -4)), [6]);
        assert!(stage.group((9, 9)).is_empty());
    }

    #[test]
    fn an_empty_stage_decodes() {
        let stage = decode_stage(vec![]).unwrap();
        assert!(stage.is_empty());
        assert!(stage.group((0, 1)).is_empty());
    }

    #[test]
    fn a_tag_outside_u32_is_an_index_range_error() {
        assert_eq!(
            decode_code(vec![row(0, 1), row(-1, 1)]),
            codes::DECODE_INDEX_RANGE
        );
        let too_big = i64::from(u32::MAX) + 1;
        assert_eq!(
            decode_code(vec![row(too_big, 1)]),
            codes::DECODE_INDEX_RANGE
        );
    }

    #[test]
    fn a_non_integer_ordinal_is_a_type_mismatch() {
        let bad = [SqlValue::Int(0), SqlValue::str("1"), SqlValue::Int(0)];
        assert_eq!(
            decode_code(vec![row(0, 1), bad]),
            codes::DECODE_TYPE_MISMATCH
        );
        let null = [SqlValue::Int(0), SqlValue::Null, SqlValue::Int(0)];
        assert_eq!(decode_code(vec![null]), codes::DECODE_TYPE_MISMATCH);
    }

    #[test]
    fn a_stage_too_long_for_u32_row_positions_is_a_decode_error() {
        assert!(check_row_count(0).is_ok());
        assert!(check_row_count(u32::MAX as usize - 1).is_ok());
        for rows in [u32::MAX as usize, usize::MAX] {
            assert!(matches!(
                check_row_count(rows),
                Err(ShredError::Decode {
                    code: codes::DECODE_INDEX_RANGE,
                    ..
                })
            ));
        }
    }

    #[test]
    fn value_conversions_round_trip() {
        for v in [Value::Int(4), Value::Bool(true), Value::string("x")] {
            let sql = value_to_sql(&v).unwrap();
            let b = match v {
                Value::Int(_) => BaseType::Int,
                Value::Bool(_) => BaseType::Bool,
                Value::String(_) => BaseType::String,
                _ => unreachable!(),
            };
            assert_eq!(sql_to_value(&sql, b).unwrap(), v);
        }
    }
}
