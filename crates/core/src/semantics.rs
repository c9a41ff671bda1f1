//! The semantics of shredded queries (Figure 5) and the indexing schemes of
//! Section 6: canonical, natural and flat indexes.
//!
//! This module is the *in-memory reference* implementation of shredded query
//! evaluation: it runs shredded queries directly over an [`nrc::Database`]
//! without going through SQL. The SQL path (let-insertion → SQL → engine)
//! must agree with it, and both must agree with the nested semantics after
//! stitching (Theorem 4); the test suites check those agreements.

use crate::error::ShredError;
use crate::nf::{Comprehension, NfBase, NfTerm, NormQuery, StaticIndex, TOP};
use crate::shred::{CompLevel, Package, ShBase, ShredComp, ShredInner, ShreddedQuery};
use nrc::env::Env;
use nrc::eval::apply_prim;
use nrc::schema::Database;
use nrc::term::Constant;
use nrc::value::Value;
use std::collections::HashMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Index values and schemes
// ---------------------------------------------------------------------------

/// Which indexing scheme to use when materialising indexes (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexScheme {
    /// Canonical indexes `a ⋅ ι`: the static tag plus the full dynamic path of
    /// positions. Not directly representable in SQL without padding.
    Canonical,
    /// Flat indexes `⟨a, i⟩`: the dynamic path is replaced by its ordinal in
    /// the enumeration of all dynamic indexes for tag `a` (Section 6.2). SQL
    /// generation implements it with `ROW_NUMBER`, for every scope it does
    /// not index by a key (see [`crate::sqlgen`]).
    Flat,
    /// Natural indexes `⟨a, keys⟩`: the keys of all generator rows in scope
    /// (Section 6.1). Requires every table to declare a key.
    Natural,
}

impl IndexScheme {
    /// Every indexing scheme, for exhaustive comparisons and tests.
    pub const ALL: [IndexScheme; 3] = [
        IndexScheme::Canonical,
        IndexScheme::Flat,
        IndexScheme::Natural,
    ];
}

impl fmt::Display for IndexScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexScheme::Canonical => write!(f, "canonical"),
            IndexScheme::Flat => write!(f, "flat"),
            IndexScheme::Natural => write!(f, "natural"),
        }
    }
}

/// A concrete index value, under one of the three schemes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IndexValue {
    Canonical {
        tag: StaticIndex,
        path: Vec<usize>,
    },
    Flat {
        tag: StaticIndex,
        ordinal: i64,
    },
    Natural {
        tag: StaticIndex,
        keys: Vec<Constant>,
    },
}

impl IndexValue {
    /// The static component of the index.
    pub fn tag(&self) -> StaticIndex {
        match self {
            IndexValue::Canonical { tag, .. }
            | IndexValue::Flat { tag, .. }
            | IndexValue::Natural { tag, .. } => *tag,
        }
    }

    /// The top-level index ⊤⋅1 under the given scheme, used to start
    /// stitching.
    pub fn top(scheme: IndexScheme) -> IndexValue {
        match scheme {
            IndexScheme::Canonical => IndexValue::Canonical {
                tag: TOP,
                path: vec![1],
            },
            IndexScheme::Flat => IndexValue::Flat {
                tag: TOP,
                ordinal: 1,
            },
            IndexScheme::Natural => IndexValue::Natural {
                tag: TOP,
                keys: Vec::new(),
            },
        }
    }
}

impl fmt::Display for IndexValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexValue::Canonical { tag, path } => {
                write!(f, "{}·", tag)?;
                for (i, p) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, ".")?;
                    }
                    write!(f, "{}", p)?;
                }
                Ok(())
            }
            IndexValue::Flat { tag, ordinal } => write!(f, "⟨{}, {}⟩", tag, ordinal),
            IndexValue::Natural { tag, keys } => {
                write!(f, "⟨{}", tag)?;
                for k in keys {
                    write!(f, ", {}", k)?;
                }
                write!(f, "⟩")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Index tables: I⟦L⟧ and I♮⟦L⟧
// ---------------------------------------------------------------------------

/// One canonical index occurrence together with its natural-key counterpart.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexOccurrence {
    pub tag: StaticIndex,
    pub path: Vec<usize>,
    pub natural_keys: Vec<Constant>,
}

/// Precomputed index assignments for a query and database: the list `I⟦L⟧` of
/// canonical indexes (with natural keys alongside), the flat ordinal of each
/// canonical index and its natural key tuple.
#[derive(Debug, Clone, Default)]
pub struct IndexTables {
    pub occurrences: Vec<IndexOccurrence>,
    flat: HashMap<(StaticIndex, Vec<usize>), i64>,
    natural: HashMap<(StaticIndex, Vec<usize>), Vec<Constant>>,
    natural_available: bool,
}

impl IndexTables {
    /// Compute the index tables for an annotated normalised query over a
    /// database (the functions `I⟦−⟧` and `I♮⟦−⟧` of the paper).
    pub fn compute(query: &NormQuery, db: &Database) -> Result<IndexTables, ShredError> {
        let mut builder = IndexWalk {
            db,
            occurrences: Vec::new(),
            natural_available: true,
        };
        builder.walk_query(query, &Env::empty(), &[1], &[])?;
        let mut tables = IndexTables {
            occurrences: builder.occurrences,
            flat: HashMap::new(),
            natural: HashMap::new(),
            natural_available: builder.natural_available,
        };
        let mut per_tag_counter: HashMap<StaticIndex, i64> = HashMap::new();
        for occ in &tables.occurrences {
            let counter = per_tag_counter.entry(occ.tag).or_insert(0);
            *counter += 1;
            tables.flat.insert((occ.tag, occ.path.clone()), *counter);
            tables
                .natural
                .insert((occ.tag, occ.path.clone()), occ.natural_keys.clone());
        }
        Ok(tables)
    }

    /// The concrete index of a canonical index under a scheme.
    pub fn concrete(
        &self,
        scheme: IndexScheme,
        tag: StaticIndex,
        path: &[usize],
    ) -> Result<IndexValue, ShredError> {
        if tag == TOP {
            return Ok(IndexValue::top(scheme));
        }
        match scheme {
            IndexScheme::Canonical => Ok(IndexValue::Canonical {
                tag,
                path: path.to_vec(),
            }),
            IndexScheme::Flat => {
                let ordinal = self
                    .flat
                    .get(&(tag, path.to_vec()))
                    .copied()
                    .ok_or_else(|| {
                        ShredError::InvalidIndexing(format!(
                            "canonical index {}·{:?} was not enumerated",
                            tag, path
                        ))
                    })?;
                Ok(IndexValue::Flat { tag, ordinal })
            }
            IndexScheme::Natural => {
                if !self.natural_available {
                    return Err(ShredError::MissingKey(
                        "a table referenced by the query has no declared key".to_string(),
                    ));
                }
                let keys = self
                    .natural
                    .get(&(tag, path.to_vec()))
                    .cloned()
                    .ok_or_else(|| {
                        ShredError::InvalidIndexing(format!(
                            "canonical index {}·{:?} was not enumerated",
                            tag, path
                        ))
                    })?;
                Ok(IndexValue::Natural { tag, keys })
            }
        }
    }

    /// Is the scheme valid for this query (Section 6): injective on the
    /// canonical indexes that were enumerated?
    pub fn is_valid(&self, scheme: IndexScheme) -> bool {
        let mut seen = std::collections::HashSet::new();
        for occ in &self.occurrences {
            let concrete = match self.concrete(scheme, occ.tag, &occ.path) {
                Ok(c) => c,
                Err(_) => return false,
            };
            if !seen.insert(concrete) {
                return false;
            }
        }
        true
    }
}

struct IndexWalk<'a> {
    db: &'a Database,
    occurrences: Vec<IndexOccurrence>,
    natural_available: bool,
}

impl<'a> IndexWalk<'a> {
    fn walk_query(
        &mut self,
        query: &NormQuery,
        env: &Env,
        iota: &[usize],
        keys: &[Constant],
    ) -> Result<(), ShredError> {
        for branch in &query.branches {
            self.walk_comprehension(branch, env, iota, keys)?;
        }
        Ok(())
    }

    fn walk_comprehension(
        &mut self,
        comp: &Comprehension,
        env: &Env,
        iota: &[usize],
        keys: &[Constant],
    ) -> Result<(), ShredError> {
        let combos = satisfying_bindings(&comp.generators, &comp.condition, env, self.db)?;
        for (j, rows) in combos.iter().enumerate() {
            let mut inner_env = env.clone();
            let mut inner_keys = keys.to_vec();
            for (gen, row) in comp.generators.iter().zip(rows.iter()) {
                inner_env.push(&gen.var, row.clone());
                match row_key(self.db, &gen.table, row)? {
                    Some(mut ks) => inner_keys.append(&mut ks),
                    None => self.natural_available = false,
                }
            }
            let mut path = iota.to_vec();
            path.push(j + 1);
            self.occurrences.push(IndexOccurrence {
                tag: comp.tag,
                path: path.clone(),
                natural_keys: inner_keys.clone(),
            });
            self.walk_term(&comp.body, &inner_env, &path, &inner_keys)?;
        }
        Ok(())
    }

    fn walk_term(
        &mut self,
        term: &NfTerm,
        env: &Env,
        iota: &[usize],
        keys: &[Constant],
    ) -> Result<(), ShredError> {
        match term {
            NfTerm::Base(_) => Ok(()),
            NfTerm::Record(fields) => {
                for (_, t) in fields {
                    self.walk_term(t, env, iota, keys)?;
                }
                Ok(())
            }
            NfTerm::Query(q) => self.walk_query(q, env, iota, keys),
        }
    }
}

/// The key column values of a row, if the table declares a key.
fn row_key(db: &Database, table: &str, row: &Value) -> Result<Option<Vec<Constant>>, ShredError> {
    let schema = db
        .schema
        .table(table)
        .ok_or_else(|| ShredError::Internal(format!("unknown table {} during indexing", table)))?;
    if !schema.has_key() {
        return Ok(None);
    }
    let mut keys = Vec::with_capacity(schema.key.len());
    for column in &schema.key {
        let v = row
            .field(column)
            .ok_or_else(|| ShredError::Internal(format!("row missing key column {}", column)))?;
        keys.push(value_to_constant(v)?);
    }
    Ok(Some(keys))
}

fn value_to_constant(v: &Value) -> Result<Constant, ShredError> {
    match v {
        Value::Int(i) => Ok(Constant::Int(*i)),
        Value::Bool(b) => Ok(Constant::Bool(*b)),
        Value::String(s) => Ok(Constant::String(s.to_string())),
        Value::Unit => Ok(Constant::Unit),
        other => Err(ShredError::Internal(format!(
            "non-base value {} used as an index key",
            other
        ))),
    }
}

/// Enumerate the bindings of a comprehension level: every combination of rows
/// from the generators' tables (in canonical table order, outer generator
/// slowest) for which the condition holds.
fn satisfying_bindings(
    generators: &[crate::nf::Generator],
    condition: &NfBase,
    env: &Env,
    db: &Database,
) -> Result<Vec<Vec<Value>>, ShredError> {
    let tables: Vec<Vec<Value>> = generators
        .iter()
        .map(|g| {
            db.table_rows(&g.table).map_err(|_| {
                ShredError::Internal(format!("unknown table {} during evaluation", g.table))
            })
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    let mut current: Vec<Value> = Vec::with_capacity(generators.len());
    enumerate(&tables, 0, &mut current, &mut |rows| {
        let mut env2 = env.clone();
        for (gen, row) in generators.iter().zip(rows.iter()) {
            env2.push(&gen.var, row.clone());
        }
        let keep = eval_nf_base(condition, &env2, db)?
            .as_bool()
            .ok_or_else(|| {
                ShredError::Internal("where clause did not evaluate to a boolean".to_string())
            })?;
        if keep {
            out.push(rows.to_vec());
        }
        Ok(())
    })?;
    Ok(out)
}

fn enumerate(
    tables: &[Vec<Value>],
    depth: usize,
    current: &mut Vec<Value>,
    visit: &mut impl FnMut(&[Value]) -> Result<(), ShredError>,
) -> Result<(), ShredError> {
    if depth == tables.len() {
        return visit(current);
    }
    for row in &tables[depth] {
        current.push(row.clone());
        enumerate(tables, depth + 1, current, visit)?;
        current.pop();
    }
    Ok(())
}

/// Evaluate a normal-form base expression under an environment.
pub fn eval_nf_base(base: &NfBase, env: &Env, db: &Database) -> Result<Value, ShredError> {
    match base {
        NfBase::Proj { var, field } => {
            let v = env
                .lookup(var)
                .ok_or_else(|| ShredError::Internal(format!("unbound variable {}", var)))?;
            v.field(field)
                .cloned()
                .ok_or_else(|| ShredError::Internal(format!("no field {} in {}", field, v)))
        }
        NfBase::Const(c) => Ok(Value::from_constant(c)),
        // The in-memory evaluators bind parameters by substitution before
        // evaluation; reaching one here means no binding was supplied.
        NfBase::Param(name, ty) => Err(ShredError::MissingParam {
            name: name.clone(),
            expected: *ty,
        }),
        NfBase::Prim(op, args) => {
            let vals = args
                .iter()
                .map(|a| eval_nf_base(a, env, db))
                .collect::<Result<Vec<_>, _>>()?;
            apply_prim(*op, &vals).map_err(ShredError::Eval)
        }
        NfBase::IsEmpty(q) => {
            let empty = norm_query_is_empty(q, env, db)?;
            Ok(Value::Bool(empty))
        }
    }
}

/// Is a normalised query empty under the given environment? (Used for `empty`
/// tests in conditions, where only emptiness matters.)
fn norm_query_is_empty(query: &NormQuery, env: &Env, db: &Database) -> Result<bool, ShredError> {
    for branch in &query.branches {
        if !satisfying_bindings(&branch.generators, &branch.condition, env, db)?.is_empty() {
            return Ok(false);
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Shredded values and shredded query evaluation
// ---------------------------------------------------------------------------

/// A flat value produced by a shredded query: a base value, a flat record, or
/// an index standing for a nested bag.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatValue {
    Base(Value),
    Record(Vec<(String, FlatValue)>),
    Index(IndexValue),
}

impl FlatValue {
    /// Project a field of a record flat value.
    pub fn field(&self, label: &str) -> Option<&FlatValue> {
        match self {
            FlatValue::Record(fields) => fields.iter().find(|(l, _)| l == label).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for FlatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatValue::Base(v) => write!(f, "{}", v),
            FlatValue::Record(fields) => {
                write!(f, "<")?;
                for (i, (l, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} = {}", l, v)?;
                }
                write!(f, ">")
            }
            FlatValue::Index(i) => write!(f, "{}", i),
        }
    }
}

/// The result of one shredded query: a list of ⟨outer index, flat value⟩
/// pairs.
pub type ShredResult = Vec<(IndexValue, FlatValue)>;

/// Evaluate a shredded query over a database (Figure 5), materialising
/// indexes with the given scheme.
pub fn eval_shredded(
    query: &ShreddedQuery,
    db: &Database,
    scheme: IndexScheme,
    tables: &IndexTables,
) -> Result<ShredResult, ShredError> {
    eval_shredded_in(query, db, scheme, tables, &Env::empty())
}

fn eval_shredded_in(
    query: &ShreddedQuery,
    db: &Database,
    scheme: IndexScheme,
    tables: &IndexTables,
    env: &Env,
) -> Result<ShredResult, ShredError> {
    let mut out = Vec::new();
    for branch in &query.branches {
        eval_levels(branch, 0, env, &mut vec![1], db, scheme, tables, &mut out)?;
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn eval_levels(
    comp: &ShredComp,
    depth: usize,
    env: &Env,
    iota: &mut Vec<usize>,
    db: &Database,
    scheme: IndexScheme,
    tables: &IndexTables,
    out: &mut ShredResult,
) -> Result<(), ShredError> {
    if depth == comp.levels.len() {
        // returnᵇ ⟨a⋅out, N⟩
        let outer_path = &iota[..iota.len() - 1];
        let outer = tables.concrete(scheme, comp.outer_tag, outer_path)?;
        let inner = eval_inner(&comp.inner, comp.tag, iota, env, db, scheme, tables)?;
        out.push((outer, inner));
        return Ok(());
    }
    let level: &CompLevel = &comp.levels[depth];
    let combos = satisfying_sh_bindings(level, env, db, scheme, tables)?;
    for (j, rows) in combos.iter().enumerate() {
        let mut env2 = env.clone();
        for (gen, row) in level.generators.iter().zip(rows.iter()) {
            env2.push(&gen.var, row.clone());
        }
        iota.push(j + 1);
        eval_levels(comp, depth + 1, &env2, iota, db, scheme, tables, out)?;
        iota.pop();
    }
    Ok(())
}

fn satisfying_sh_bindings(
    level: &CompLevel,
    env: &Env,
    db: &Database,
    scheme: IndexScheme,
    tables: &IndexTables,
) -> Result<Vec<Vec<Value>>, ShredError> {
    let table_rows: Vec<Vec<Value>> = level
        .generators
        .iter()
        .map(|g| {
            db.table_rows(&g.table).map_err(|_| {
                ShredError::Internal(format!("unknown table {} during evaluation", g.table))
            })
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    let mut current: Vec<Value> = Vec::with_capacity(level.generators.len());
    enumerate(&table_rows, 0, &mut current, &mut |rows| {
        let mut env2 = env.clone();
        for (gen, row) in level.generators.iter().zip(rows.iter()) {
            env2.push(&gen.var, row.clone());
        }
        let keep = eval_sh_base(&level.condition, &env2, db, scheme, tables)?
            .as_bool()
            .ok_or_else(|| {
                ShredError::Internal("where clause did not evaluate to a boolean".to_string())
            })?;
        if keep {
            out.push(rows.to_vec());
        }
        Ok(())
    })?;
    Ok(out)
}

#[allow(clippy::only_used_in_recursion)]
fn eval_inner(
    inner: &ShredInner,
    tag: StaticIndex,
    iota: &[usize],
    env: &Env,
    db: &Database,
    scheme: IndexScheme,
    tables: &IndexTables,
) -> Result<FlatValue, ShredError> {
    match inner {
        ShredInner::Base(b) => Ok(FlatValue::Base(eval_sh_base(b, env, db, scheme, tables)?)),
        ShredInner::Record(fields) => Ok(FlatValue::Record(
            fields
                .iter()
                .map(|(l, v)| {
                    Ok((
                        l.clone(),
                        eval_inner(v, tag, iota, env, db, scheme, tables)?,
                    ))
                })
                .collect::<Result<_, ShredError>>()?,
        )),
        ShredInner::InnerIndex(inner_tag) => {
            Ok(FlatValue::Index(tables.concrete(scheme, *inner_tag, iota)?))
        }
    }
}

#[allow(clippy::only_used_in_recursion)]
fn eval_sh_base(
    base: &ShBase,
    env: &Env,
    db: &Database,
    scheme: IndexScheme,
    tables: &IndexTables,
) -> Result<Value, ShredError> {
    match base {
        ShBase::Proj { var, field } => {
            let v = env
                .lookup(var)
                .ok_or_else(|| ShredError::Internal(format!("unbound variable {}", var)))?;
            v.field(field)
                .cloned()
                .ok_or_else(|| ShredError::Internal(format!("no field {} in {}", field, v)))
        }
        ShBase::Const(c) => Ok(Value::from_constant(c)),
        ShBase::Param(name, ty) => Err(ShredError::MissingParam {
            name: name.clone(),
            expected: *ty,
        }),
        ShBase::Prim(op, args) => {
            let vals = args
                .iter()
                .map(|a| eval_sh_base(a, env, db, scheme, tables))
                .collect::<Result<Vec<_>, _>>()?;
            apply_prim(*op, &vals).map_err(ShredError::Eval)
        }
        ShBase::IsEmpty(q) => {
            // Only emptiness matters; indexes inside the subquery are unused.
            let rows = eval_shredded_in(q, db, IndexScheme::Canonical, tables, env)?;
            Ok(Value::Bool(rows.is_empty()))
        }
    }
}

/// Evaluate every query in a shredded package (`H⟦L⟧` in the paper).
pub fn eval_shredded_package(
    package: &Package<ShreddedQuery>,
    db: &Database,
    scheme: IndexScheme,
    tables: &IndexTables,
) -> Result<Package<ShredResult>, ShredError> {
    package.try_map(&mut |q| eval_shredded(q, db, scheme, tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalise::normalise;
    use crate::shred::shred_query_package;
    use nrc::builder::*;
    use nrc::schema::{Schema, TableSchema};
    use nrc::types::BaseType;

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new(
                    "departments",
                    vec![("id", BaseType::Int), ("name", BaseType::String)],
                )
                .with_key(vec!["id"]),
            )
            .with_table(
                TableSchema::new(
                    "employees",
                    vec![
                        ("id", BaseType::Int),
                        ("dept", BaseType::String),
                        ("name", BaseType::String),
                        ("salary", BaseType::Int),
                    ],
                )
                .with_key(vec!["id"]),
            )
    }

    fn db() -> Database {
        let mut db = Database::new(schema());
        for (id, name) in [(1, "Product"), (2, "Sales")] {
            db.insert_row(
                "departments",
                vec![("id", Value::Int(id)), ("name", Value::string(name))],
            )
            .unwrap();
        }
        for (id, dept, name, salary) in [
            (1, "Product", "Alex", 20000),
            (2, "Product", "Bert", 900),
            (3, "Sales", "Erik", 2000000),
        ] {
            db.insert_row(
                "employees",
                vec![
                    ("id", Value::Int(id)),
                    ("dept", Value::string(dept)),
                    ("name", Value::string(name)),
                    ("salary", Value::Int(salary)),
                ],
            )
            .unwrap();
        }
        db
    }

    fn nested_query() -> nrc::Term {
        // for (d ← departments) return ⟨dept = d.name,
        //   emps = for (e ← employees) where (e.dept = d.name) return e.name⟩
        for_in(
            "d",
            table("departments"),
            singleton(record(vec![
                ("dept", project(var("d"), "name")),
                (
                    "emps",
                    for_where(
                        "e",
                        table("employees"),
                        eq(project(var("e"), "dept"), project(var("d"), "name")),
                        singleton(project(var("e"), "name")),
                    ),
                ),
            ])),
        )
    }

    #[test]
    fn index_tables_enumerate_all_occurrences() {
        let schema = schema();
        let db = db();
        let q = normalise(&nested_query(), &schema).unwrap();
        let tables = IndexTables::compute(&q, &db).unwrap();
        // 2 departments at the outer tag + 3 matching employees at the inner
        // tag = 5 occurrences.
        assert_eq!(tables.occurrences.len(), 5);
        assert!(tables.is_valid(IndexScheme::Canonical));
        assert!(tables.is_valid(IndexScheme::Flat));
        assert!(tables.is_valid(IndexScheme::Natural));
    }

    #[test]
    fn flat_ordinals_are_dense_per_tag() {
        let schema = schema();
        let db = db();
        let q = normalise(&nested_query(), &schema).unwrap();
        let tables = IndexTables::compute(&q, &db).unwrap();
        let mut per_tag: HashMap<StaticIndex, Vec<i64>> = HashMap::new();
        for occ in &tables.occurrences {
            let v = tables
                .concrete(IndexScheme::Flat, occ.tag, &occ.path)
                .unwrap();
            if let IndexValue::Flat { ordinal, .. } = v {
                per_tag.entry(occ.tag).or_default().push(ordinal);
            }
        }
        for ordinals in per_tag.values() {
            let mut sorted = ordinals.clone();
            sorted.sort();
            assert_eq!(sorted, (1..=ordinals.len() as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shredded_evaluation_produces_linked_results() {
        let schema = schema();
        let db = db();
        let ty = nrc::typecheck(&nested_query(), &schema).unwrap();
        let q = normalise(&nested_query(), &schema).unwrap();
        let tables = IndexTables::compute(&q, &db).unwrap();
        let pkg = shred_query_package(&q, &ty).unwrap();
        let results = eval_shredded_package(&pkg, &db, IndexScheme::Flat, &tables).unwrap();
        let annots = results.annotations();
        assert_eq!(annots.len(), 2);
        let outer = annots[0];
        let inner = annots[1];
        assert_eq!(outer.len(), 2); // one row per department
        assert_eq!(inner.len(), 3); // one row per matching employee
                                    // Every inner index referenced by the outer query appears as an outer
                                    // index of some inner row.
        for (_, fv) in outer {
            let idx = fv.field("emps").expect("emps field");
            if let FlatValue::Index(i) = idx {
                assert!(inner.iter().any(|(outer_idx, _)| outer_idx == i));
            } else {
                panic!("emps should be an index, got {:?}", idx);
            }
        }
    }

    #[test]
    fn natural_indexes_use_key_columns() {
        let schema = schema();
        let db = db();
        let q = normalise(&nested_query(), &schema).unwrap();
        let tables = IndexTables::compute(&q, &db).unwrap();
        let occ = tables
            .occurrences
            .iter()
            .find(|o| o.path.len() == 3)
            .expect("an inner occurrence");
        let v = tables
            .concrete(IndexScheme::Natural, occ.tag, &occ.path)
            .unwrap();
        match v {
            IndexValue::Natural { keys, .. } => assert_eq!(keys.len(), 2), // department id + employee id
            other => panic!("expected natural index, got {:?}", other),
        }
    }

    #[test]
    fn top_index_is_fixed_per_scheme() {
        assert_eq!(
            IndexValue::top(IndexScheme::Flat),
            IndexValue::Flat {
                tag: TOP,
                ordinal: 1
            }
        );
        assert_eq!(
            IndexValue::top(IndexScheme::Canonical),
            IndexValue::Canonical {
                tag: TOP,
                path: vec![1]
            }
        );
    }
}
