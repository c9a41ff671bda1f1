//! Van den Bussche's simulation of nested queries by flat queries
//! (Appendix A of the paper).
//!
//! Van den Bussche [TCS 2001] proved that nested *set* queries can be
//! simulated by several flat queries without value invention (no
//! `ROW_NUMBER`), by using the active domain to mint identifiers for unions.
//! The paper's Appendix A shows why this does not carry over to *multisets*:
//! representing the union `R ⊎ S` of two nested relations requires pairing
//! one side with every element of the active domain and the other with every
//! *pair* of distinct elements, a quadratic blow-up that also breaks bag
//! semantics (evaluating `R ⊎ S` and `S ⊎ R` yields different multiplicities).
//!
//! This module reproduces that construction on the appendix's example and on
//! scaled instances, so the blow-up can be measured and compared with the
//! shredding representation (see the `experiments --appendix-a` harness).

use nrc::value::Value;

/// A nested relation of type `Bag ⟨A: Int, B: Bag Int⟩`, the shape used in
/// Appendix A.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NestedRelation {
    /// Each row: the `A` value and the nested bag of `B` values.
    pub rows: Vec<(i64, Vec<i64>)>,
}

impl NestedRelation {
    pub(crate) fn new(rows: Vec<(i64, Vec<i64>)>) -> NestedRelation {
        NestedRelation { rows }
    }

    /// The multiset union of two nested relations (the correct semantics).
    pub fn union(&self, other: &NestedRelation) -> NestedRelation {
        let mut rows = self.rows.clone();
        rows.extend(other.rows.clone());
        NestedRelation { rows }
    }

    /// Total number of tuples in the natural two-table flat representation
    /// (one outer tuple per row plus one inner tuple per element), which is
    /// what query shredding produces.
    pub(crate) fn shredded_tuple_count(&self) -> usize {
        self.rows.len() + self.rows.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    /// Read a nested value of shape `Bag ⟨A: Int, B: Bag Int⟩` back into a
    /// relation (the inverse of [`to_value`](Self::to_value)).
    pub(crate) fn from_value(value: &Value) -> Result<NestedRelation, String> {
        let bag = value
            .as_bag()
            .ok_or_else(|| "expected a bag at the top level".to_string())?;
        let mut rows = Vec::with_capacity(bag.len());
        for row in bag {
            let a = row
                .field("A")
                .and_then(|v| v.as_int())
                .ok_or_else(|| "row lacks an integer field A".to_string())?;
            let b = row
                .field("B")
                .and_then(|v| v.as_bag())
                .ok_or_else(|| "row lacks a bag field B".to_string())?;
            let elems = b
                .iter()
                .map(|v| {
                    v.as_int()
                        .ok_or_else(|| "B contains a non-integer".to_string())
                })
                .collect::<Result<Vec<i64>, String>>()?;
            rows.push((a, elems));
        }
        Ok(NestedRelation { rows })
    }

    /// The nested value this relation denotes.
    pub(crate) fn to_value(&self) -> Value {
        Value::Bag(
            self.rows
                .iter()
                .map(|(a, b)| {
                    Value::record(vec![
                        ("A", Value::Int(*a)),
                        ("B", Value::Bag(b.iter().map(|i| Value::Int(*i)).collect())),
                    ])
                })
                .collect(),
        )
    }
}

/// The flat representation used by Van den Bussche's simulation: an outer
/// table keyed by abstract ids and an inner table keyed by the same ids.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VdbRepresentation {
    /// Outer tuples `(A, id, id1, id2)`.
    pub outer: Vec<(i64, i64, i64, i64)>,
    /// Inner tuples `(id, id1, id2, B)`.
    pub inner: Vec<(i64, i64, i64, i64)>,
}

impl VdbRepresentation {
    /// Total number of tuples in the representation.
    pub(crate) fn tuple_count(&self) -> usize {
        self.outer.len() + self.inner.len()
    }

    /// Read a representation produced by [`encode`] back into the nested
    /// relation it denotes: inner tuples attach to the outer tuple whose id
    /// columns they repeat.
    pub(crate) fn decode(&self) -> NestedRelation {
        let rows = self
            .outer
            .iter()
            .map(|&(a, id, id1, id2)| {
                let elems = self
                    .inner
                    .iter()
                    .filter(|&&(iid, iid1, iid2, _)| (iid, iid1, iid2) == (id, id1, id2))
                    .map(|&(_, _, _, b)| b)
                    .collect();
                (a, elems)
            })
            .collect();
        NestedRelation { rows }
    }
}

/// Encode a single nested relation in the simulation's flat form (before any
/// union): ids are assigned per row, and the two extra id columns are equal
/// placeholders.
pub(crate) fn encode(relation: &NestedRelation) -> VdbRepresentation {
    let mut outer = Vec::new();
    let mut inner = Vec::new();
    for (i, (a, bs)) in relation.rows.iter().enumerate() {
        let id = i as i64 + 1;
        outer.push((*a, id, id, id));
        for b in bs {
            inner.push((id, id, id, *b));
        }
    }
    VdbRepresentation { outer, inner }
}

/// The active domain of a pair of nested relations: every base value
/// occurring in either, plus the ids used by their encodings.
pub(crate) fn active_domain(r: &NestedRelation, s: &NestedRelation) -> Vec<i64> {
    let mut adom = Vec::new();
    let mut push = |v: i64| {
        if !adom.contains(&v) {
            adom.push(v);
        }
    };
    for (i, (a, bs)) in r.rows.iter().chain(s.rows.iter()).enumerate() {
        push(*a);
        for b in bs {
            push(*b);
        }
        push(i as i64 + 1);
    }
    adom
}

/// Simulate the union `R ⊎ S` with Van den Bussche's construction: tuples
/// from `R` are paired with every `(x, x)` over the active domain and tuples
/// from `S` with every pair `(x, x')` of *distinct* elements, so that ids
/// never clash. The result is quadratically larger than the shredded
/// representation — and, read as a multiset, it is simply wrong (each tuple's
/// multiplicity is multiplied by `|adom|` or `|adom|²−|adom|`).
pub fn simulate_union(r: &NestedRelation, s: &NestedRelation) -> VdbRepresentation {
    let adom = active_domain(r, s);
    let re = encode(r);
    let se = encode(s);
    let mut out = VdbRepresentation::default();
    for &(a, id, _, _) in &re.outer {
        for &x in &adom {
            out.outer.push((a, id, x, x));
        }
    }
    for &(id, _, _, b) in &re.inner {
        for &x in &adom {
            out.inner.push((id, x, x, b));
        }
    }
    for &(a, id, _, _) in &se.outer {
        for &x in &adom {
            for &y in &adom {
                if x != y {
                    out.outer.push((a, id, x, y));
                }
            }
        }
    }
    for &(id, _, _, b) in &se.inner {
        for &x in &adom {
            for &y in &adom {
                if x != y {
                    out.inner.push((id, x, y, b));
                }
            }
        }
    }
    out
}

/// The Appendix A example instance: `R = {⟨1,{1}⟩, ⟨2,{2}⟩}` and
/// `S = {⟨1,{3,4}⟩, ⟨2,{2}⟩}`.
pub fn appendix_a_instance() -> (NestedRelation, NestedRelation) {
    (
        NestedRelation::new(vec![(1, vec![1]), (2, vec![2])]),
        NestedRelation::new(vec![(1, vec![3, 4]), (2, vec![2])]),
    )
}

/// A scaled instance with `n` outer rows per relation and `k` inner elements
/// per row, for measuring how the blow-up grows.
pub fn scaled_instance(n: usize, k: usize) -> (NestedRelation, NestedRelation) {
    let make = |offset: i64| {
        NestedRelation::new(
            (0..n)
                .map(|i| {
                    (
                        offset + i as i64,
                        (0..k).map(|j| offset * 1000 + (i * k + j) as i64).collect(),
                    )
                })
                .collect(),
        )
    };
    (make(1), make(100))
}

/// A measured comparison between the simulation and query shredding on a
/// union of two nested relations.
#[derive(Debug, Clone, PartialEq)]
pub struct BlowupReport {
    pub adom_size: usize,
    pub correct_tuples: usize,
    pub vdb_tuples: usize,
    pub blowup_factor: f64,
    /// Does the simulation preserve the multiset? (It never does unless one
    /// side is empty.)
    pub preserves_multiplicity: bool,
}

/// Measure the blow-up of simulating `R ⊎ S`.
pub fn measure_blowup(r: &NestedRelation, s: &NestedRelation) -> BlowupReport {
    let adom = active_domain(r, s);
    let correct = r.union(s).shredded_tuple_count();
    let vdb = simulate_union(r, s).tuple_count();
    BlowupReport {
        adom_size: adom.len(),
        correct_tuples: correct,
        vdb_tuples: vdb,
        blowup_factor: vdb as f64 / correct as f64,
        preserves_multiplicity: vdb == correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appendix_a_union_has_nine_tuples_in_the_correct_representation() {
        let (r, s) = appendix_a_instance();
        // 4 outer rows + 5 inner elements = 9 tuples, as stated in the paper.
        assert_eq!(r.union(&s).shredded_tuple_count(), 9);
    }

    #[test]
    fn the_simulation_blows_up_quadratically_on_the_appendix_instance() {
        let (r, s) = appendix_a_instance();
        let report = measure_blowup(&r, &s);
        assert!(report.vdb_tuples > report.correct_tuples);
        assert!(!report.preserves_multiplicity);
        // O(|adom|·|R| + |adom|²·|S|): with |adom| = 6 this is far larger
        // than 9.
        assert!(report.blowup_factor > 5.0);
    }

    #[test]
    fn the_simulation_is_not_commutative_on_multisets() {
        let (r, s) = appendix_a_instance();
        let rs = simulate_union(&r, &s).tuple_count();
        let sr = simulate_union(&s, &r).tuple_count();
        assert_ne!(
            rs, sr,
            "R ⊎ S and S ⊎ R should have different simulated sizes (the paper's point)"
        );
    }

    #[test]
    fn blowup_grows_with_the_active_domain() {
        let (r1, s1) = scaled_instance(2, 2);
        let (r2, s2) = scaled_instance(8, 2);
        let small = measure_blowup(&r1, &s1);
        let big = measure_blowup(&r2, &s2);
        assert!(big.blowup_factor > small.blowup_factor);
    }

    #[test]
    fn union_to_value_round_trips() {
        let (r, s) = appendix_a_instance();
        let v = r.union(&s).to_value();
        assert_eq!(v.as_bag().unwrap().len(), 4);
    }
}
