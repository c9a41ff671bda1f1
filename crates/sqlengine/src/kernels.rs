//! Key kernels: hashing, equality, join tables and ordering over **borrowed
//! key columns**.
//!
//! Every keyed operator of the executor — hash join, hash semi-join,
//! `DISTINCT`, `EXCEPT ALL`, `ROW_NUMBER` and `ORDER BY` — runs on this one
//! layer, and the walk in [`crate::vexec`] calls each kernel once over an
//! operator's whole batch. Nothing here transposes key columns
//! into one `Vec<SqlValue>` per row: a key is a list of [`Vector`]s borrowed
//! from the batch, a per-row `u64` hash computed column-at-a-time, and
//! equality checked in place on the columns.
//!
//! **Pair order.** [`KeyIndex::join_pairs`] emits matches in probe order,
//! and for one probe row in ascending build-row order — the order the
//! executors produced when a key's matches were a `Vec<usize>` filled in build
//! order. Chains are threaded through `next` from the last build row to the
//! first, so walking a chain from its head visits build rows ascending.
//!
//! **NULL modes.** [`NullMode::NeverMatches`] is SQL equality (joins and
//! semi-joins): a row with a `NULL` in any key column is left out of the
//! table and matches nothing when probing. [`NullMode::GroupsWithNull`] is
//! grouping (`DISTINCT`, `EXCEPT ALL`): `NULL` equals `NULL`.
//!
//! **The hasher** is a hand-written multiply–rotate mixer, not SipHash. It is
//! not resistant to keys crafted to collide; that is acceptable here because
//! the tables live inside the process (for one operator execution, or as
//! the state of a live view), their hashes are never exposed or written
//! out, and a degenerate table (every key in one bucket) is merely slow —
//! equality is always re-checked on the columns, as the all-collisions tests
//! below pin down.
//!
//! **Across writes.** The incremental executor ([`crate::vexec::DeltaExec`])
//! runs on the same hashes with two additions: [`PersistentIndex`], the
//! join-table layout kept alive between writes (append at the chain's end,
//! tombstone in place, grow by doubling, compact when mostly dead — chains
//! stay in ascending row order, so pair order is the one above), and
//! [`merge_into_order`], which merges a sorted delta into a cached key order
//! for `ROW_NUMBER` maintenance. [`JoinTable`] and [`KeyIndex`] are
//! untouched by them.

use crate::error::EngineError;
use crate::value::SqlValue;
use std::cmp::Ordering;
use std::ops::Range;

/// The physical rows a batch view ranges over: a run of a dense batch or a
/// selection vector. `Copy`, so a view costs no allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Physical rows `start..end`.
    Range { start: usize, end: usize },
    /// Explicit physical row ids, in logical order.
    Sel(&'a [usize]),
}

impl Rows<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Range { start, end } => end - start,
            Rows::Sel(sel) => sel.len(),
        }
    }

    /// Physical row of logical row `i`.
    pub(crate) fn phys(&self, i: usize) -> usize {
        match self {
            Rows::Range { start, .. } => start + i,
            Rows::Sel(sel) => sel[i],
        }
    }
}

/// One expression evaluated over a run of rows, without copying what can be
/// borrowed: a column read through the batch's rows, a computed dense
/// vector, or one value standing for every row.
#[derive(Debug)]
pub(crate) enum Vector<'a> {
    /// `data[rows.phys(i)]`: a bare column reference.
    Col {
        data: &'a [SqlValue],
        rows: Rows<'a>,
    },
    /// Computed values, one per row.
    Owned(Vec<SqlValue>),
    /// A literal, parameter or outer reference: constant within the batch.
    Const { value: SqlValue, len: usize },
}

impl Vector<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Vector::Col { rows, .. } => rows.len(),
            Vector::Owned(values) => values.len(),
            Vector::Const { len, .. } => *len,
        }
    }

    /// The value of logical row `i`.
    pub(crate) fn get(&self, i: usize) -> &SqlValue {
        match self {
            Vector::Col { data, rows } => &data[rows.phys(i)],
            Vector::Owned(values) => &values[i],
            Vector::Const { value, .. } => value,
        }
    }

    /// Call `f(i, value)` for every logical row of `range`, with the
    /// representation matched once outside the loop.
    fn for_each(&self, range: Range<usize>, mut f: impl FnMut(usize, &SqlValue)) {
        match self {
            Vector::Col {
                data,
                rows: Rows::Range { start, .. },
            } => {
                let slice = &data[start + range.start..start + range.end];
                for (k, v) in slice.iter().enumerate() {
                    f(range.start + k, v);
                }
            }
            Vector::Col {
                data,
                rows: Rows::Sel(sel),
            } => {
                for (k, &p) in sel[range.clone()].iter().enumerate() {
                    f(range.start + k, &data[p]);
                }
            }
            Vector::Owned(values) => {
                for (k, v) in values[range.clone()].iter().enumerate() {
                    f(range.start + k, v);
                }
            }
            Vector::Const { value, .. } => {
                for i in range {
                    f(i, value);
                }
            }
        }
    }

    /// A dense owned copy (what a materialising operator stores).
    pub(crate) fn into_vec(self) -> Vec<SqlValue> {
        match self {
            Vector::Owned(values) => values,
            Vector::Const { value, len } => vec![value; len],
            col => {
                let mut out = Vec::with_capacity(col.len());
                col.for_each(0..col.len(), |_, v| out.push(v.clone()));
                out
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

const K: u64 = 0x9E37_79B9_7F4A_7C15;
const SEED: u64 = 0x243F_6A88_85A3_08D3;
const TAG_NULL: u64 = 0x6A09_E667_F3BC_C908;
const TAG_BOOL: u64 = 0xBB67_AE85_84CA_A73B;
const TAG_INT: u64 = 0x3C6E_F372_FE94_F82B;
const TAG_STR: u64 = 0xA54F_F53A_5F1D_36F1;

fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(K)
}

/// Spread the entropy of the multiply chain over all 64 bits: bucket
/// indices take the low bits.
fn finish(h: u64) -> u64 {
    let h = (h ^ (h >> 32)).wrapping_mul(K);
    h ^ (h >> 29)
}

fn hash_value(v: &SqlValue) -> u64 {
    match v {
        SqlValue::Null => TAG_NULL,
        SqlValue::Bool(b) => mix(TAG_BOOL, u64::from(*b)),
        SqlValue::Int(i) => mix(TAG_INT, *i as u64),
        SqlValue::Str(s) => {
            let bytes = s.as_bytes();
            let mut h = mix(TAG_STR, bytes.len() as u64);
            let mut words = bytes.chunks_exact(8);
            for word in &mut words {
                let word: [u8; 8] = word.try_into().expect("chunks_exact(8) yields 8 bytes");
                h = mix(h, u64::from_le_bytes(word));
            }
            let tail = words.remainder();
            if !tail.is_empty() {
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                h = mix(h, u64::from_le_bytes(word));
            }
            h
        }
    }
}

/// Per-row key hashes and which rows hold a `NULL` in some key column.
#[derive(Debug, Default)]
pub(crate) struct KeyHashes {
    pub(crate) hashes: Vec<u64>,
    pub(crate) has_null: Vec<bool>,
}

/// Hash the key of every logical row in `range`, one key column at a time.
/// Entry `k` of the result belongs to row `range.start + k`.
pub(crate) fn hash_keys(cols: &[Vector<'_>], range: Range<usize>) -> KeyHashes {
    let base = range.start;
    let mut hashes = vec![SEED; range.len()];
    let mut has_null = vec![false; range.len()];
    for col in cols {
        col.for_each(range.clone(), |i, v| {
            hashes[i - base] = mix(hashes[i - base], hash_value(v));
            has_null[i - base] |= v.is_null();
        });
    }
    for h in &mut hashes {
        *h = finish(*h);
    }
    KeyHashes { hashes, has_null }
}

/// Evaluated key columns of one relation together with their row hashes.
#[derive(Debug)]
pub(crate) struct Keys<'a> {
    pub(crate) cols: Vec<Vector<'a>>,
    pub(crate) hashed: KeyHashes,
}

impl<'a> Keys<'a> {
    /// Hash `len` rows of `cols` on the calling thread (`len` is explicit:
    /// an empty key list still has one key per row).
    pub(crate) fn new(cols: Vec<Vector<'a>>, len: usize) -> Keys<'a> {
        let hashed = hash_keys(&cols, 0..len);
        Keys { cols, hashed }
    }

    pub(crate) fn len(&self) -> usize {
        self.hashed.hashes.len()
    }
}

// ---------------------------------------------------------------------------
// The join table
// ---------------------------------------------------------------------------

/// How `NULL` key values compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NullMode {
    /// SQL equality: a key holding a `NULL` equals nothing, itself included.
    NeverMatches,
    /// Grouping: `NULL` is a value like any other.
    GroupsWithNull,
}

/// Refuse a build side whose row ids do not fit the table's `u32` links.
fn check_indexable(rows: usize) -> Result<(), EngineError> {
    if rows >= u32::MAX as usize {
        return Err(EngineError::TypeError(format!(
            "hash table build side has {rows} rows; row links hold at most {}",
            u32::MAX - 1
        )));
    }
    Ok(())
}

/// A chained hash table over a build side: `heads[b]` is the first build
/// row of bucket `b`, `next[row]` the following one, both stored `+ 1` with
/// `0` for "none". It holds row ids only — hashes and key
/// values stay in the [`Keys`] it was built from.
#[derive(Debug)]
struct JoinTable {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl JoinTable {
    /// The table over `build`'s rows, with about one bucket per row.
    fn build(build: &KeyHashes, nulls: NullMode) -> Result<JoinTable, EngineError> {
        let buckets = build.hashes.len().max(1).next_power_of_two();
        JoinTable::with_buckets(build, nulls, buckets)
    }

    fn with_buckets(
        build: &KeyHashes,
        nulls: NullMode,
        buckets: usize,
    ) -> Result<JoinTable, EngineError> {
        debug_assert!(buckets.is_power_of_two());
        let rows = build.hashes.len();
        check_indexable(rows)?;
        let mut heads = vec![0u32; buckets];
        let mut next = vec![0u32; rows];
        // Last row first: each bucket's chain then reads in ascending row
        // order from its head.
        for row in (0..rows).rev() {
            if nulls == NullMode::NeverMatches && build.has_null[row] {
                continue;
            }
            let bucket = build.hashes[row] as usize & (buckets - 1);
            next[row] = heads[bucket];
            heads[bucket] = row as u32 + 1;
        }
        Ok(JoinTable { heads, next })
    }
}

/// A build side ready to be probed: its keys, the NULL mode and its
/// [`JoinTable`].
#[derive(Debug)]
pub(crate) struct KeyIndex<'k> {
    build: &'k Keys<'k>,
    nulls: NullMode,
    table: JoinTable,
}

impl<'k> KeyIndex<'k> {
    /// Index `build`.
    pub(crate) fn new(build: &'k Keys<'k>, nulls: NullMode) -> Result<KeyIndex<'k>, EngineError> {
        Ok(KeyIndex {
            build,
            nulls,
            table: JoinTable::build(&build.hashed, nulls)?,
        })
    }

    /// Call `f` with each build row whose key equals probe row `i`'s, in
    /// ascending order, until it returns `false`.
    fn for_each_match(&self, probe: &Keys<'_>, i: usize, mut f: impl FnMut(usize) -> bool) {
        if self.nulls == NullMode::NeverMatches && probe.hashed.has_null[i] {
            return;
        }
        let hash = probe.hashed.hashes[i];
        let table = &self.table;
        let mut at = table.heads[hash as usize & (table.heads.len() - 1)];
        while at != 0 {
            let row = at as usize - 1;
            at = table.next[row];
            if self.build.hashed.hashes[row] == hash
                && self
                    .build
                    .cols
                    .iter()
                    .zip(&probe.cols)
                    .all(|(b, p)| b.get(row) == p.get(i))
                && !f(row)
            {
                return;
            }
        }
    }

    /// The smallest build row matching probe row `i`.
    pub(crate) fn first_match(&self, probe: &Keys<'_>, i: usize) -> Option<usize> {
        let mut first = None;
        self.for_each_match(probe, i, |row| {
            first = Some(row);
            false
        });
        first
    }

    /// The join's match list: probe order, then ascending build order. Pairs
    /// are `(left row, right row)`.
    pub(crate) fn join_pairs(&self, probe: &Keys<'_>, probe_is_left: bool) -> Vec<(usize, usize)> {
        let mut pairs = Vec::with_capacity(probe.len());
        for i in 0..probe.len() {
            self.for_each_match(probe, i, |j| {
                pairs.push(if probe_is_left { (i, j) } else { (j, i) });
                true
            });
        }
        pairs
    }

    /// The semi (`anti`: anti) join's selection: the physical row, through
    /// `rows`, of every probe row that has a match (`anti`: has none).
    pub(crate) fn semi_select(&self, probe: &Keys<'_>, anti: bool, rows: Rows<'_>) -> Vec<usize> {
        (0..probe.len())
            .filter(|&i| self.first_match(probe, i).is_some() != anti)
            .map(|i| rows.phys(i))
            .collect()
    }
}

/// `DISTINCT`: the logical rows that are the first occurrence of their key.
pub(crate) fn distinct_rows(keys: &Keys<'_>) -> Result<Vec<usize>, EngineError> {
    let index = KeyIndex::new(keys, NullMode::GroupsWithNull)?;
    Ok((0..keys.len())
        .filter(|&i| index.first_match(keys, i) == Some(i))
        .collect())
}

/// `EXCEPT ALL`: the logical left rows that survive subtracting the right
/// bag — each right row cancels the earliest left row still standing with
/// the same key.
pub(crate) fn except_all_rows(
    left: &Keys<'_>,
    right: &Keys<'_>,
) -> Result<Vec<usize>, EngineError> {
    let index = KeyIndex::new(right, NullMode::GroupsWithNull)?;
    // Multiplicity of each right key, filed under its first occurrence.
    let mut remaining = vec![0usize; right.len()];
    for j in 0..right.len() {
        let first = index.first_match(right, j).expect("a row matches itself");
        remaining[first] += 1;
    }
    Ok((0..left.len())
        .filter(|&i| match index.first_match(left, i) {
            Some(first) if remaining[first] > 0 => {
                remaining[first] -= 1;
                false
            }
            _ => true,
        })
        .collect())
}

// ---------------------------------------------------------------------------
// The persistent index
// ---------------------------------------------------------------------------

/// A chained key index that outlives one operator execution: the
/// [`JoinTable`] layout — `heads`/`next` row links stored `+ 1` — kept alive
/// across writes by the incremental executor. Rows are **appended** at the
/// end of their bucket's chain (a `tails` link per bucket), so a chain still
/// reads in ascending row order; **tombstoned** in place (the link stays, a
/// walk skips the dead row); and the bucket array **grows** by doubling when
/// rows outnumber buckets, relinking the live rows. [`compact`] renumbers the
/// live rows once the dead outnumber them.
///
/// Like [`JoinTable`] it holds hashes and links only: the key columns stay
/// with the caller, who appends to them in step and hands them in to
/// [`for_each_match`] for the equality check.
///
/// [`compact`]: PersistentIndex::compact
/// [`for_each_match`]: PersistentIndex::for_each_match
#[derive(Debug)]
pub(crate) struct PersistentIndex {
    nulls: NullMode,
    hashes: Vec<u64>,
    live: Vec<bool>,
    dead: usize,
    heads: Vec<u32>,
    tails: Vec<u32>,
    next: Vec<u32>,
    /// Rows the `u32` links can address.
    max_rows: usize,
}

impl PersistentIndex {
    pub(crate) fn new(nulls: NullMode) -> PersistentIndex {
        PersistentIndex {
            nulls,
            hashes: Vec::new(),
            live: Vec::new(),
            dead: 0,
            heads: vec![0],
            tails: vec![0],
            next: Vec::new(),
            max_rows: u32::MAX as usize - 1,
        }
    }

    /// Rows ever appended since the last compaction, dead ones included: the
    /// next appended row gets this id.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    pub(crate) fn live_len(&self) -> usize {
        self.len() - self.dead
    }

    pub(crate) fn is_live(&self, row: usize) -> bool {
        self.live[row]
    }

    /// Append one row per entry of `hashed`; they take the ids
    /// `len()..len() + n`. Under [`NullMode::NeverMatches`] a row with a
    /// `NULL` key takes its id but is dead from the start.
    pub(crate) fn append(&mut self, hashed: &KeyHashes) -> Result<Range<usize>, EngineError> {
        let start = self.len();
        let end = start + hashed.hashes.len();
        if end > self.max_rows {
            return Err(EngineError::TypeError(format!(
                "persistent index would hold {end} rows; row links hold at most {}",
                self.max_rows
            )));
        }
        for (&hash, &has_null) in hashed.hashes.iter().zip(&hashed.has_null) {
            let unmatched = self.nulls == NullMode::NeverMatches && has_null;
            self.hashes.push(hash);
            self.live.push(!unmatched);
            self.dead += usize::from(unmatched);
            self.next.push(0);
        }
        if end > self.heads.len() {
            self.relink(end.next_power_of_two());
        } else {
            for row in start..end {
                self.link_last(row);
            }
        }
        Ok(start..end)
    }

    /// Link live row `row`, larger than every linked row, at the end of its
    /// bucket's chain.
    fn link_last(&mut self, row: usize) {
        if !self.live[row] {
            return;
        }
        let bucket = self.hashes[row] as usize & (self.heads.len() - 1);
        match self.tails[bucket] {
            0 => self.heads[bucket] = row as u32 + 1,
            tail => self.next[tail as usize - 1] = row as u32 + 1,
        }
        self.tails[bucket] = row as u32 + 1;
    }

    /// Rebuild the chains of the live rows over `buckets` buckets, last row
    /// first, as [`JoinTable::with_buckets`] does.
    fn relink(&mut self, buckets: usize) {
        debug_assert!(buckets.is_power_of_two());
        self.heads = vec![0; buckets];
        self.tails = vec![0; buckets];
        for row in (0..self.len()).rev() {
            if !self.live[row] {
                continue;
            }
            let bucket = self.hashes[row] as usize & (buckets - 1);
            if self.tails[bucket] == 0 {
                self.tails[bucket] = row as u32 + 1;
            }
            self.next[row] = self.heads[bucket];
            self.heads[bucket] = row as u32 + 1;
        }
    }

    /// Mark `row` dead: it keeps its id and its place in the chain, and no
    /// walk reports it again.
    pub(crate) fn tombstone(&mut self, row: usize) {
        if std::mem::replace(&mut self.live[row], false) {
            self.dead += 1;
        }
    }

    /// Call `f` with each live row whose key hash is `hash`, in ascending
    /// order, until it returns `false`.
    pub(crate) fn for_each_candidate(&self, hash: u64, mut f: impl FnMut(usize) -> bool) {
        let mut at = self.heads[hash as usize & (self.heads.len() - 1)];
        while at != 0 {
            let row = at as usize - 1;
            at = self.next[row];
            if self.live[row] && self.hashes[row] == hash && !f(row) {
                return;
            }
        }
    }

    /// Call `f` with each live row whose key — read from `build`, the key
    /// columns the caller keeps in step with the index — equals probe row
    /// `i`'s, in ascending order, until it returns `false`.
    pub(crate) fn for_each_match(
        &self,
        build: &[Vector<'_>],
        probe: &Keys<'_>,
        i: usize,
        mut f: impl FnMut(usize) -> bool,
    ) {
        if self.nulls == NullMode::NeverMatches && probe.hashed.has_null[i] {
            return;
        }
        self.for_each_candidate(probe.hashed.hashes[i], |row| {
            let equal = build
                .iter()
                .zip(&probe.cols)
                .all(|(b, p)| b.get(row) == p.get(i));
            !equal || f(row)
        });
    }

    /// Once the dead rows outnumber the live ones (and a chain walk spends
    /// most of its steps skipping), drop them: the surviving rows are
    /// renumbered `0..live_len()` in their old order, and the old ids are
    /// returned, ascending, so the caller can gather its columns to match.
    pub(crate) fn compact(&mut self) -> Option<Vec<usize>> {
        if self.dead <= self.live_len().max(32) {
            return None;
        }
        let kept: Vec<usize> = (0..self.len()).filter(|&row| self.live[row]).collect();
        self.hashes = kept.iter().map(|&row| self.hashes[row]).collect();
        self.live = vec![true; kept.len()];
        self.dead = 0;
        self.next = vec![0; kept.len()];
        self.relink(kept.len().max(1).next_power_of_two());
        Some(kept)
    }
}

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

/// Lexicographic comparison of logical rows `a` and `b` under
/// [`SqlValue::sql_cmp`], read in place from the key columns.
pub(crate) fn compare_at(cols: &[Vector<'_>], a: usize, b: usize) -> Ordering {
    for col in cols {
        let ord = col.get(a).sql_cmp(col.get(b));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The logical rows of `range` in stable key order (ties keep row order).
pub(crate) fn sort_rows(cols: &[Vector<'_>], range: Range<usize>) -> Vec<usize> {
    let mut order: Vec<usize> = range.collect();
    order.sort_by(|&a, &b| compare_at(cols, a, b));
    order
}

/// Merge a sorted delta into a cached order: `old` is in key order with ties
/// to the smaller row, `new` is what [`sort_rows`] gave for rows that are all
/// larger than every row of `old` — so on a tie the old row goes first, and
/// the result is the order one stable sort of both would give. Old rows that
/// `keep` rejects are dropped on the way. Each insertion point is found by
/// galloping from the previous one: `O(new · log(old / new))` comparisons,
/// never more than a linear merge and far fewer for a small delta.
pub(crate) fn merge_into_order(
    cols: &[Vector<'_>],
    old: &[usize],
    new: &[usize],
    keep: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(old.len() + new.len());
    let mut at = 0;
    for &row in new {
        let sorts_after = |k: usize| compare_at(cols, old[k], row) == Ordering::Greater;
        let (mut lo, mut hi, mut step) = (at, at, 1);
        while hi < old.len() && !sorts_after(hi) {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(old.len());
        let end =
            lo + old[lo..hi].partition_point(|&o| compare_at(cols, o, row) != Ordering::Greater);
        out.extend(old[at..end].iter().copied().filter(|&o| keep(o)));
        out.push(row);
        at = end;
    }
    out.extend(old[at..].iter().copied().filter(|&o| keep(o)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{compare_rows, Row};
    use std::collections::HashMap;

    /// splitmix64, so every case replays.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A value from a small domain in which `Int(1)`, `Bool(true)` and
    /// `Str("1")` all occur, beside NULLs and duplicates.
    fn small_value(rng: &mut Rng) -> SqlValue {
        match rng.below(8) {
            0 => SqlValue::Null,
            1 => SqlValue::Bool(true),
            2 => SqlValue::Bool(false),
            3 => SqlValue::str("1"),
            4 => SqlValue::str("a longer string, past one word"),
            n => SqlValue::Int(n as i64 - 4),
        }
    }

    fn random_columns(rng: &mut Rng, width: usize, rows: usize) -> Vec<Vec<SqlValue>> {
        (0..width)
            .map(|_| (0..rows).map(|_| small_value(rng)).collect())
            .collect()
    }

    /// Skew in the style of the SIGMOD 2014 contest analysis (Elekes et
    /// al.): one key on half the rows, a Zipf-like tail on the rest.
    fn skewed_column(rng: &mut Rng, rows: usize) -> Vec<SqlValue> {
        (0..rows)
            .map(|_| {
                if rng.below(2) == 0 {
                    SqlValue::Int(0)
                } else {
                    let u = rng.below(1 << 16) as f64 / f64::from(1u32 << 16);
                    SqlValue::Int((1.0 / (1.0 - u * 0.999)) as i64)
                }
            })
            .collect()
    }

    fn dense(columns: &[Vec<SqlValue>]) -> Vec<Vector<'_>> {
        let rows = columns.first().map_or(0, Vec::len);
        columns
            .iter()
            .map(|data| Vector::Col {
                data,
                rows: Rows::Range {
                    start: 0,
                    end: rows,
                },
            })
            .collect()
    }

    fn key_rows(columns: &[Vec<SqlValue>], rows: usize) -> Vec<Row> {
        (0..rows)
            .map(|i| columns.iter().map(|c| c[i].clone()).collect())
            .collect()
    }

    /// The executors' former match loop: one `Vec<SqlValue>` per row,
    /// `HashMap<Row, Vec<usize>>`, NULL keys skipped on both sides.
    fn reference_join(build: &[Row], probe: &[Row], probe_is_left: bool) -> Vec<(usize, usize)> {
        let mut table: HashMap<&Row, Vec<usize>> = HashMap::new();
        for (i, key) in build.iter().enumerate() {
            if !key.iter().any(SqlValue::is_null) {
                table.entry(key).or_default().push(i);
            }
        }
        let mut pairs = Vec::new();
        for (i, key) in probe.iter().enumerate() {
            if key.iter().any(SqlValue::is_null) {
                continue;
            }
            for &j in table.get(key).map_or(&[][..], Vec::as_slice) {
                pairs.push(if probe_is_left { (i, j) } else { (j, i) });
            }
        }
        pairs
    }

    fn kernel_join(
        build: &[Vec<SqlValue>],
        build_rows: usize,
        probe: &[Vec<SqlValue>],
        probe_rows: usize,
        buckets: Option<usize>,
    ) -> Vec<(usize, usize)> {
        let build = Keys::new(dense(build), build_rows);
        let probe = Keys::new(dense(probe), probe_rows);
        let nulls = NullMode::NeverMatches;
        let index = KeyIndex {
            build: &build,
            nulls,
            table: match buckets {
                Some(b) => JoinTable::with_buckets(&build.hashed, nulls, b),
                None => JoinTable::build(&build.hashed, nulls),
            }
            .unwrap(),
        };
        index.join_pairs(&probe, true)
    }

    #[test]
    fn join_pairs_equal_the_hashmap_reference_on_random_keys() {
        let mut rng = Rng(12);
        for case in 0..60 {
            let width = 1 + case % 3;
            let (b, p) = match case % 5 {
                0 => (0, 17),
                1 => (23, 0),
                _ => (rng.below(90) as usize, rng.below(90) as usize),
            };
            let build = random_columns(&mut rng, width, b);
            let probe = random_columns(&mut rng, width, p);
            let expect = reference_join(&key_rows(&build, b), &key_rows(&probe, p), true);
            for buckets in [None, Some(1)] {
                assert_eq!(
                    kernel_join(&build, b, &probe, p, buckets),
                    expect,
                    "case {case}, buckets {buckets:?}"
                );
            }
        }
    }

    #[test]
    fn join_pairs_equal_the_reference_on_skewed_keys() {
        let mut rng = Rng(2014);
        let build = vec![skewed_column(&mut rng, 400)];
        let probe = vec![skewed_column(&mut rng, 300)];
        let expect = reference_join(&key_rows(&build, 400), &key_rows(&probe, 300), true);
        assert!(
            expect.len() > 400 * 300 / 5,
            "the hot key dominates the output"
        );
        assert_eq!(kernel_join(&build, 400, &probe, 300, None), expect);
    }

    #[test]
    fn values_of_different_type_never_join() {
        let build = vec![vec![
            SqlValue::Int(1),
            SqlValue::Bool(true),
            SqlValue::str("1"),
            SqlValue::Null,
        ]];
        let probe = build.clone();
        // One bucket and — through equal hashes or not — only the diagonal
        // matches; NULL matches nothing, itself included.
        assert_eq!(
            kernel_join(&build, 4, &probe, 4, Some(1)),
            vec![(0, 0), (1, 1), (2, 2)]
        );
    }

    #[test]
    fn keys_read_through_a_selection_and_constants_match_dense_ones() {
        let data: Vec<SqlValue> = (0..10).map(|i| SqlValue::Int(i % 3)).collect();
        let sel = [9usize, 0, 4, 4, 7];
        let through_sel = Keys::new(
            vec![
                Vector::Col {
                    data: &data,
                    rows: Rows::Sel(&sel),
                },
                Vector::Const {
                    value: SqlValue::Int(7),
                    len: sel.len(),
                },
            ],
            sel.len(),
        );
        let gathered: Vec<SqlValue> = sel.iter().map(|&p| data[p].clone()).collect();
        let sevens = vec![SqlValue::Int(7); sel.len()];
        let dense_keys = Keys::new(
            vec![Vector::Owned(gathered), Vector::Owned(sevens)],
            sel.len(),
        );
        assert_eq!(through_sel.hashed.hashes, dense_keys.hashed.hashes);
        let index = KeyIndex::new(&dense_keys, NullMode::NeverMatches).unwrap();
        // data[9] = 0 and data[0] = 0 share a key; the two data[4] rows and
        // data[7] share another.
        assert_eq!(
            index.join_pairs(&through_sel, true),
            vec![
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 2),
                (2, 3),
                (2, 4),
                (3, 2),
                (3, 3),
                (3, 4),
                (4, 2),
                (4, 3),
                (4, 4)
            ]
        );
    }

    #[test]
    fn both_null_modes() {
        let col = vec![vec![
            SqlValue::Null,
            SqlValue::Int(1),
            SqlValue::Null,
            SqlValue::Int(1),
        ]];
        let keys = Keys::new(dense(&col), 4);
        let joining = KeyIndex::new(&keys, NullMode::NeverMatches).unwrap();
        assert_eq!(joining.first_match(&keys, 0), None);
        assert_eq!(joining.first_match(&keys, 3), Some(1));
        let rows = Rows::Range { start: 0, end: 4 };
        assert_eq!(joining.semi_select(&keys, false, rows), vec![1, 3]);
        assert_eq!(joining.semi_select(&keys, true, rows), vec![0, 2]);
        let grouping = KeyIndex::new(&keys, NullMode::GroupsWithNull).unwrap();
        assert_eq!(grouping.first_match(&keys, 2), Some(0));
        assert_eq!(distinct_rows(&keys).unwrap(), vec![0, 1]);
    }

    #[test]
    fn an_empty_key_list_matches_every_build_row() {
        let build = Keys::new(Vec::new(), 3);
        let probe = Keys::new(Vec::new(), 2);
        let index = KeyIndex::new(&build, NullMode::NeverMatches).unwrap();
        assert_eq!(index.first_match(&probe, 1), Some(0));
        assert_eq!(index.join_pairs(&probe, true).len(), 6);
        let empty = Keys::new(Vec::new(), 0);
        let index = KeyIndex::new(&empty, NullMode::NeverMatches).unwrap();
        assert_eq!(index.first_match(&probe, 0), None);
    }

    #[test]
    fn distinct_and_except_all_equal_their_hashmap_references() {
        let mut rng = Rng(7);
        for case in 0..40 {
            let width = 1 + case % 3;
            let (l, r) = (rng.below(70) as usize, rng.below(70) as usize);
            let left = random_columns(&mut rng, width, l);
            let right = random_columns(&mut rng, width, r);
            let (left_rows, right_rows) = (key_rows(&left, l), key_rows(&right, r));

            let mut seen = std::collections::HashSet::new();
            let expect: Vec<usize> = (0..l).filter(|&i| seen.insert(&left_rows[i])).collect();
            let left_keys = Keys::new(dense(&left), l);
            assert_eq!(distinct_rows(&left_keys).unwrap(), expect, "case {case}");

            let mut counts: HashMap<&Row, usize> = HashMap::new();
            for row in &right_rows {
                *counts.entry(row).or_insert(0) += 1;
            }
            let expect: Vec<usize> = (0..l)
                .filter(|&i| match counts.get_mut(&left_rows[i]) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        false
                    }
                    _ => true,
                })
                .collect();
            let right_keys = Keys::new(dense(&right), r);
            assert_eq!(
                except_all_rows(&left_keys, &right_keys).unwrap(),
                expect,
                "case {case}"
            );
        }
    }

    #[test]
    fn sorting_equals_a_stable_sort_of_transposed_rows() {
        let mut rng = Rng(99);
        for case in 0..40 {
            let width = 1 + case % 3;
            let rows = rng.below(120) as usize;
            let columns = random_columns(&mut rng, width, rows);
            let transposed = key_rows(&columns, rows);
            let mut expect: Vec<usize> = (0..rows).collect();
            expect.sort_by(|&a, &b| compare_rows(&transposed[a], &transposed[b]));
            let cols = dense(&columns);
            assert_eq!(sort_rows(&cols, 0..rows), expect, "case {case}");
        }
    }

    /// A persistent index beside the key columns a caller would keep for it,
    /// and the `HashMap` it must agree with: live rows per key, ascending.
    struct Persisted {
        index: PersistentIndex,
        columns: Vec<Vec<SqlValue>>,
        reference: HashMap<Row, Vec<usize>>,
    }

    impl Persisted {
        fn new(width: usize, nulls: NullMode) -> Persisted {
            Persisted {
                index: PersistentIndex::new(nulls),
                columns: vec![Vec::new(); width],
                reference: HashMap::new(),
            }
        }

        fn matchable(&self, key: &Row) -> bool {
            self.index.nulls == NullMode::GroupsWithNull || !key.iter().any(SqlValue::is_null)
        }

        /// Append `rows` under the given hashes (`None`: their real ones).
        fn append(&mut self, rows: &[Row], hashes: Option<u64>) {
            let columns: Vec<Vec<SqlValue>> = (0..self.columns.len())
                .map(|c| rows.iter().map(|r| r[c].clone()).collect())
                .collect();
            let mut hashed = hash_keys(&dense(&columns), 0..rows.len());
            if let Some(forced) = hashes {
                hashed.hashes = vec![forced; rows.len()];
            }
            let ids = self.index.append(&hashed).unwrap();
            assert_eq!(ids.len(), rows.len());
            for (id, row) in ids.zip(rows) {
                assert_eq!(
                    id,
                    self.columns[0].len(),
                    "ids are the caller's row numbers"
                );
                for (column, v) in self.columns.iter_mut().zip(row) {
                    column.push(v.clone());
                }
                if self.matchable(row) {
                    self.reference.entry(row.clone()).or_default().push(id);
                }
            }
        }

        fn tombstone(&mut self, id: usize) {
            self.index.tombstone(id);
            for ids in self.reference.values_mut() {
                ids.retain(|&live| live != id);
            }
        }

        /// Compact if the index wants to, renumbering columns and reference.
        fn compact(&mut self) -> bool {
            let Some(kept) = self.index.compact() else {
                return false;
            };
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "old ids, ascending");
            for column in &mut self.columns {
                *column = kept.iter().map(|&id| column[id].clone()).collect();
            }
            for ids in self.reference.values_mut() {
                for id in ids.iter_mut() {
                    *id = kept.binary_search(id).expect("a live row survives");
                }
            }
            true
        }

        /// Every key of `probes` finds exactly the reference's live rows.
        fn check(&self, probes: &[Row], hashes: Option<u64>, context: &str) {
            let columns: Vec<Vec<SqlValue>> = (0..self.columns.len())
                .map(|c| probes.iter().map(|r| r[c].clone()).collect())
                .collect();
            let mut probe = Keys::new(dense(&columns), probes.len());
            if let Some(forced) = hashes {
                probe.hashed.hashes = vec![forced; probes.len()];
            }
            let build = dense(&self.columns);
            for (i, key) in probes.iter().enumerate() {
                let mut found = Vec::new();
                self.index.for_each_match(&build, &probe, i, |row| {
                    found.push(row);
                    true
                });
                let expect = match self.matchable(key) {
                    true => self.reference.get(key).cloned().unwrap_or_default(),
                    false => Vec::new(),
                };
                assert_eq!(found, expect, "{context}: key {key:?}");
                let mut first = None;
                self.index.for_each_match(&build, &probe, i, |row| {
                    first = Some(row);
                    false
                });
                assert_eq!(
                    first,
                    expect.first().copied(),
                    "{context}: first of {key:?}"
                );
            }
            let live: usize = self.reference.values().map(Vec::len).sum();
            let live_ids = (0..self.index.len())
                .filter(|&id| self.index.is_live(id))
                .count();
            assert_eq!(live_ids, live, "{context}: live rows");
            assert_eq!(self.index.live_len(), live, "{context}: live_len");
        }
    }

    /// Every key of the small domain at `width`, NULLs included.
    fn key_domain(rng: &mut Rng, width: usize) -> Vec<Row> {
        (0..40)
            .map(|_| (0..width).map(|_| small_value(rng)).collect())
            .collect()
    }

    #[test]
    fn the_persistent_index_equals_a_hashmap_under_append_tombstone_and_reappend() {
        for (case, nulls) in [NullMode::NeverMatches, NullMode::GroupsWithNull]
            .into_iter()
            .cycle()
            .take(12)
            .enumerate()
        {
            let mut rng = Rng(1000 + case as u64);
            let width = 1 + case % 3;
            // Every other case forces all rows into one bucket *and* one
            // hash, so only the column comparison tells keys apart.
            let forced = (case % 4 >= 2).then_some(0xDEAD_BEEF);
            let domain = key_domain(&mut rng, width);
            let mut p = Persisted::new(width, nulls);
            let (mut compactions, mut buckets) = (0, p.index.heads.len());
            let mut growths = 0;
            for round in 0..120 {
                match rng.below(3) {
                    // Append a few rows at once — re-appending keys that were
                    // tombstoned earlier as often as new ones.
                    0 | 1 => {
                        let rows: Vec<Row> = (0..rng.below(6))
                            .map(|_| domain[rng.below(domain.len() as u64) as usize].clone())
                            .collect();
                        p.append(&rows, forced);
                    }
                    _ => {
                        for _ in 0..rng.below(8) {
                            let live: Vec<usize> =
                                p.reference.values().flatten().copied().collect();
                            if let Some(&id) =
                                live.get(rng.below(live.len().max(1) as u64) as usize)
                            {
                                p.tombstone(id);
                            }
                        }
                    }
                }
                compactions += usize::from(p.compact());
                growths += usize::from(p.index.heads.len() > buckets);
                buckets = p.index.heads.len();
                p.check(&domain, forced, &format!("case {case}, round {round}"));
            }
            assert!(
                growths >= 2,
                "case {case}: the bucket array grew across resizes"
            );
            assert!(
                compactions >= 1,
                "case {case}: dead rows were compacted away"
            );
        }
    }

    #[test]
    fn the_persistent_index_treats_null_keys_by_mode() {
        let rows: Vec<Row> = vec![
            vec![SqlValue::Null],
            vec![SqlValue::Int(1)],
            vec![SqlValue::Null],
            vec![SqlValue::Int(1)],
        ];
        let mut joining = Persisted::new(1, NullMode::NeverMatches);
        joining.append(&rows, None);
        // A NULL key takes an id but is dead from the start: it matches
        // nothing, itself included, and probing with one finds nothing.
        assert!(!joining.index.is_live(0) && !joining.index.is_live(2));
        assert_eq!(joining.index.live_len(), 2);
        joining.check(&rows, None, "never matches");
        let mut grouping = Persisted::new(1, NullMode::GroupsWithNull);
        grouping.append(&rows, None);
        assert_eq!(grouping.reference[&rows[0]], vec![0, 2]);
        grouping.check(&rows, None, "groups with null");
        grouping.tombstone(0);
        grouping.check(&rows, None, "groups with null, first NULL gone");
    }

    #[test]
    fn a_persistent_index_beyond_the_link_width_is_an_error_not_a_panic() {
        let mut p = Persisted::new(1, NullMode::NeverMatches);
        p.index.max_rows = 5;
        let rows: Vec<Row> = (0..4).map(|i| vec![SqlValue::Int(i)]).collect();
        p.append(&rows, None);
        let columns = vec![vec![SqlValue::Int(7), SqlValue::Int(8)]];
        let err = p
            .index
            .append(&hash_keys(&dense(&columns), 0..2))
            .unwrap_err();
        assert!(matches!(err, EngineError::TypeError(_)), "{err}");
        assert!(err.to_string().contains("rows"), "{err}");
        // The refused append left the index as it was.
        assert_eq!(p.index.len(), 4);
        p.check(&rows, None, "after the refused append");
        assert_eq!(
            PersistentIndex::new(NullMode::NeverMatches).max_rows,
            u32::MAX as usize - 1
        );
    }

    #[test]
    fn merging_a_sorted_delta_equals_one_stable_sort() {
        let mut rng = Rng(314);
        for case in 0..60 {
            let width = 1 + case % 3;
            let old_rows = rng.below(80) as usize;
            // Deltas from nothing to three times the cache.
            let new_rows = match case % 4 {
                0 => 0,
                1 => 1 + rng.below(3) as usize,
                2 => 3 * old_rows + 1,
                _ => rng.below(80) as usize,
            };
            let rows = old_rows + new_rows;
            let columns = random_columns(&mut rng, width, rows);
            let cols = dense(&columns);
            // Some old rows are dead: still readable, not to be kept.
            let dead: Vec<bool> = (0..rows)
                .map(|r| r < old_rows && rng.below(4) == 0)
                .collect();
            let old: Vec<usize> = sort_rows(&cols, 0..old_rows);
            let new = sort_rows(&cols, old_rows..rows);
            let merged = merge_into_order(&cols, &old, &new, |r| !dead[r]);
            let expect: Vec<usize> = sort_rows(&cols, 0..rows)
                .into_iter()
                .filter(|&r| !dead[r])
                .collect();
            assert_eq!(merged, expect, "case {case}");
        }
    }

    #[test]
    fn a_build_side_beyond_the_link_width_is_an_error_not_a_panic() {
        assert!(check_indexable(u32::MAX as usize - 1).is_ok());
        let err = check_indexable(u32::MAX as usize).unwrap_err();
        assert!(matches!(err, EngineError::TypeError(_)), "{err}");
        assert!(err.to_string().contains("rows"), "{err}");
    }
}
