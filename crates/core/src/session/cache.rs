//! The plan cache: two LRU levels, the param-shape source term in front of
//! the param-shape normal form, shared by every clone of a session. Owns
//! what a hit returns and when an entry leaves; must not normalise, plan or
//! verify: `prepare` does, and inserts only what passed.

use super::prepare::PlannedQuery;
use super::{ParamSpec, Shredder};
use crate::nf::NormQuery;
use analysis::Diagnostics;
use nrc::term::Term;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Counters describing the plan cache's behaviour so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Prepares answered from the cache (the backend's `prepare` was skipped).
    pub hits: u64,
    /// Prepares that had to invoke the backend.
    pub misses: u64,
    /// Plans evicted to stay within capacity.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// What a prepare works out, from the cache or the long way round, before it
/// is made into a handle.
#[derive(Debug)]
pub(super) struct Prepared {
    pub(super) planned: Arc<PlannedQuery>,
    pub(super) params: Arc<Vec<ParamSpec>>,
    /// The lint findings for the source term, then the plan's.
    pub(super) diagnostics: Arc<Diagnostics>,
}

/// Level 2 of the cache: a plan, under the key of its normal form.
#[derive(Debug)]
struct CachedPlan {
    planned: Arc<PlannedQuery>,
    /// Atomic because a hit on any term that points here refreshes it.
    last_used: AtomicU64,
}

/// Level 1 of the cache: what preparing one source term came to — which
/// plan, and what else today's `prepare` would otherwise recompute from the
/// term alone.
#[derive(Debug)]
struct CachedTerm {
    plan: Arc<CachedPlan>,
    params: Arc<Vec<ParamSpec>>,
    /// The diagnostics the first prepare of this term returned.
    diagnostics: Arc<Diagnostics>,
    last_used: u64,
}

/// The LRU maps themselves: the only part of the cache that needs a lock.
#[derive(Debug, Default)]
struct CacheMap {
    tick: u64,
    plans: HashMap<String, Arc<CachedPlan>>,
    terms: HashMap<Term, CachedTerm>,
}

/// A least-recently-used plan cache in two levels, shared by every clone of
/// a session.
///
/// **Level 1** is keyed on the source term as `prepare` sees it after
/// auto-parameterization — integer and string literals already lifted into
/// parameters, so the key is the query's *shape*; booleans stay inline. It
/// is consulted before any other work: a hit is a hash of the term, and
/// returns the plan, the declared parameters and the diagnostics of the
/// first prepare without normalising, typechecking, rendering a key or
/// verifying again. The term alone is a safe key because everything else a
/// prepare depends on — the schema and the backend — is fixed for the
/// session that owns the cache.
///
/// **Level 2** is keyed on the normal form (its canonical rendering, see
/// [`plan_key`]) and holds the plan with what was derived from it. A term
/// that misses level 1 is normalised and looked up here, so two different
/// source terms with one normal form share one plan; each is then linted
/// once and remembered at level 1.
///
/// An entry enters either level only after the prepare that produced it
/// passed verification, so a hit cannot return what `verify(true)` would
/// have refused. Both levels hold at most `capacity` entries, on one LRU
/// clock; a plan that is evicted or cleared takes the terms that point at
/// it along. The counters count prepares, and `entries` counts plans: a
/// level-1 hit is a hit, a level-1 miss counts as whatever level 2 answers.
///
/// Locking strategy: the maps (and their LRU ticks) sit behind one
/// [`Mutex`]; the hit/miss/eviction counters are atomics updated outside any
/// contention-sensitive path. The critical section is a hash lookup plus
/// three `Arc` clones — the cached plans themselves are immutable and shared,
/// so the expensive parts (backend `prepare`, plan execution) happen entirely
/// outside the lock.
#[derive(Debug)]
pub(super) struct PlanCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    map: Mutex<CacheMap>,
}

impl PlanCache {
    pub(super) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            map: Mutex::new(CacheMap::default()),
        }
    }

    fn lock_map(&self) -> MutexGuard<'_, CacheMap> {
        // A panic while holding the lock can only happen on allocation
        // failure; the maps are structurally intact either way, so poisoning
        // is safe to shrug off rather than propagate to every caller.
        self.map
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Level 1. Counts a hit when the term is known and nothing when it is
    /// not: the prepare goes on to level 2, which counts it.
    pub(super) fn lookup_term(&self, term: &Term) -> Option<Prepared> {
        let mut map = self.lock_map();
        map.tick += 1;
        let tick = map.tick;
        let entry = map.terms.get_mut(term)?;
        entry.last_used = tick;
        entry.plan.last_used.store(tick, Ordering::Relaxed);
        let found = Prepared {
            planned: entry.plan.planned.clone(),
            params: entry.params.clone(),
            diagnostics: entry.diagnostics.clone(),
        };
        drop(map);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(found)
    }

    /// Level 2. Counts a hit or a miss.
    pub(super) fn lookup_plan(&self, key: &str) -> Option<Arc<PlannedQuery>> {
        let mut map = self.lock_map();
        map.tick += 1;
        let tick = map.tick;
        let found = map.plans.get(key).map(|entry| {
            entry.last_used.store(tick, Ordering::Relaxed);
            entry.planned.clone()
        });
        drop(map);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Remember a verified prepare of `term`: its plan under `key` at level
    /// 2 (unless a plan is there already) and the term at level 1, each
    /// displacing the least recently used entry of a full level.
    pub(super) fn insert(&self, key: String, term: &Term, prepared: &Prepared) {
        let mut evicted = 0u64;
        {
            let mut map = self.lock_map();
            map.tick += 1;
            let tick = map.tick;
            let CacheMap { plans, terms, .. } = &mut *map;
            let plan = match plans.get(&key) {
                Some(plan) => {
                    plan.last_used.store(tick, Ordering::Relaxed);
                    plan.clone()
                }
                None => {
                    if plans.len() >= self.capacity {
                        let oldest = plans
                            .iter()
                            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                            .map(|(k, _)| k.clone());
                        if let Some(gone) = oldest.and_then(|k| plans.remove(&k)) {
                            terms.retain(|_, t| !Arc::ptr_eq(&t.plan, &gone));
                            evicted = 1;
                        }
                    }
                    let plan = Arc::new(CachedPlan {
                        planned: prepared.planned.clone(),
                        last_used: AtomicU64::new(tick),
                    });
                    plans.insert(key, plan.clone());
                    plan
                }
            };
            if terms.len() >= self.capacity && !terms.contains_key(term) {
                let oldest = terms
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    terms.remove(&oldest);
                }
            }
            terms.insert(
                term.clone(),
                CachedTerm {
                    plan,
                    params: prepared.params.clone(),
                    diagnostics: prepared.diagnostics.clone(),
                    last_used: tick,
                },
            );
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn clear(&self) {
        let mut map = self.lock_map();
        map.plans.clear();
        map.terms.clear();
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.lock_map().plans.len(),
        }
    }
}

impl Shredder {
    /// Counters describing the plan cache (all zero when caching is
    /// disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.core
            .cache
            .as_ref()
            .map(PlanCache::stats)
            .unwrap_or_default()
    }

    /// Drop every cached plan, keeping the hit/miss counters.
    pub fn clear_plan_cache(&self) {
        if let Some(cache) = &self.core.cache {
            cache.clear();
        }
    }
}

/// The plan-cache key of a normal form. Normal forms are small, so their
/// canonical debug rendering doubles as a cheap structural key. Parameters
/// appear by name, never by value, so the key identifies a *param shape*:
/// all bindings of one prepared shape share a single cache entry.
pub(super) fn plan_key(normalised: &NormQuery) -> String {
    format!("{:?}", normalised)
}
