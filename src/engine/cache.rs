//! The shared plan cache.
//!
//! One LRU cache of compiled plans serves every document in a
//! [`Catalog`](crate::engine::Catalog): plans are document-independent
//! (they name axes, tests and strategies, never node ids), so
//! `count(/descendant::w)` compiles once and serves every manuscript. The
//! cache is keyed by `(language, query text)` — the same source text is a
//! valid query in both languages and compiles to different plans, so the
//! two never collide. Interior mutability (a [`Mutex`] around the map and
//! counters) lets lookups run from `&self` query paths.
//!
//! Compilation is **single-flight** per key: the first request for a text
//! marks the key in flight and compiles outside the lock; concurrent
//! requests for the same key wait for that one compile and count as hits,
//! so a burst of first requests compiles exactly once.

use crate::engine::error::{EngineError, QueryLang};
use mhx_xquery::CompiledXQuery;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A cached, compiled query plan — one type for both languages (XPath is
/// lowered into the same plan). `Arc` so cache hits hand out a handle
/// without cloning the plan and eviction never invalidates a running
/// query. It carries the as-written *and* the optimized plan, so one entry
/// serves every `optimize` knob setting (the knob is evaluation state,
/// never part of the cache key).
pub(crate) type CachedPlan = Arc<CompiledXQuery>;

type Key = (QueryLang, String);

/// Plan-cache counters, cumulative since construction. Resizing the cache
/// preserves them (and the surviving entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Hits where the requesting document differs from the document whose
    /// query first compiled the entry — the cross-document sharing the
    /// catalog exists for.
    pub cross_doc_hits: u64,
    /// Current number of cached plans.
    pub entries: usize,
}

struct Entry {
    stamp: u64,
    /// Document the compiling query ran against (None for `prepare`d
    /// queries, which are document-free).
    origin_doc: Option<String>,
    plan: CachedPlan,
}

struct Inner {
    capacity: usize,
    stamp: u64,
    map: HashMap<Key, Entry>,
    /// Keys being compiled right now (their waiters sleep on `compiled`).
    in_flight: HashSet<Key>,
    hits: u64,
    misses: u64,
    evictions: u64,
    cross_doc_hits: u64,
}

impl Inner {
    /// Evict least-recently-used entries until `len <= capacity`. Recency
    /// is a monotonic stamp per entry; eviction scans for the minimum —
    /// O(capacity), trivial next to a parse.
    fn shrink_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            } else {
                break;
            }
        }
    }
}

/// The `Send + Sync` LRU plan cache shared across a catalog's documents.
pub(crate) struct SharedPlanCache {
    inner: Mutex<Inner>,
    /// Signalled whenever an in-flight compile finishes (or fails).
    compiled: Condvar,
}

impl SharedPlanCache {
    pub(crate) fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                stamp: 0,
                map: HashMap::new(),
                in_flight: HashSet::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                cross_doc_hits: 0,
            }),
            compiled: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic mid-lookup leaves only counters/LRU stamps possibly
        // stale, never a dangling plan; recover rather than propagate.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached plan for `(lang, src)`, compiling it with `compile` on a
    /// miss. `doc` attributes a hit for the cross-document counter. A
    /// request that finds the key in flight waits for that compile and
    /// counts as a hit; if the compile fails, the next waiter compiles
    /// (failed plans are never cached).
    pub(crate) fn get_or_compile(
        &self,
        lang: QueryLang,
        src: &str,
        doc: Option<&str>,
        compile: impl FnOnce() -> Result<CompiledXQuery, EngineError>,
    ) -> Result<CachedPlan, EngineError> {
        // Tuple keys have no borrowed-key lookup; a short-lived owned key
        // is fine next to a parse.
        let key = (lang, src.to_string());
        let mut inner = self.lock();
        loop {
            inner.stamp += 1;
            let stamp = inner.stamp;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.stamp = stamp;
                let cross = matches!((&entry.origin_doc, doc), (Some(o), Some(d)) if o != d);
                let plan = Arc::clone(&entry.plan);
                inner.hits += 1;
                inner.cross_doc_hits += u64::from(cross);
                return Ok(plan);
            }
            if !inner.in_flight.contains(&key) {
                break;
            }
            inner = self.compiled.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        inner.misses += 1;
        inner.in_flight.insert(key.clone());
        drop(inner);
        // Clears the in-flight mark and wakes the waiters on every exit,
        // a failed or panicking compile included.
        let _flight = Flight { cache: self, key: &key };
        let plan = Arc::new(compile()?);
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        let entry = Entry { stamp, origin_doc: doc.map(str::to_string), plan: Arc::clone(&plan) };
        inner.map.insert(key.clone(), entry);
        inner.shrink_to_capacity();
        Ok(plan)
    }

    /// Change the capacity, keeping the most recent entries up to the new
    /// capacity and all cumulative counters (trimmed entries count as
    /// evictions).
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        inner.shrink_to_capacity();
    }

    pub(crate) fn capacity(&self) -> usize {
        self.lock().capacity
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            cross_doc_hits: inner.cross_doc_hits,
            entries: inner.map.len(),
        }
    }
}

/// The in-flight mark of one compile; see [`SharedPlanCache::get_or_compile`].
struct Flight<'a> {
    cache: &'a SharedPlanCache,
    key: &'a Key,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.cache.lock().in_flight.remove(self.key);
        self.cache.compiled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile() -> Result<CompiledXQuery, EngineError> {
        Ok(CompiledXQuery::compile("count(/descendant::w)").unwrap())
    }

    fn lookup(c: &SharedPlanCache, lang: QueryLang, src: &str, doc: Option<&str>) {
        c.get_or_compile(lang, src, doc, compile).unwrap();
    }

    #[test]
    fn resize_preserves_entries_and_counters() {
        let c = SharedPlanCache::new(8);
        for i in 0..4 {
            lookup(&c, QueryLang::XPath, &format!("/descendant::w[{i}]"), Some("a"));
        }
        assert_eq!(c.stats().entries, 4);
        assert_eq!(c.stats().misses, 4);

        // Shrinking to 2 keeps the two most recent entries and the stats.
        c.set_capacity(2);
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.misses, 4, "cumulative counters survive the resize");
        assert_eq!(s.evictions, 2, "trimmed entries count as evictions");
        lookup(&c, QueryLang::XPath, "/descendant::w[3]", Some("a"));
        assert_eq!(c.stats().hits, 1, "the most recent entry survived");
        lookup(&c, QueryLang::XPath, "/descendant::w[0]", Some("a"));
        assert_eq!(c.stats().misses, 5, "the oldest entry was trimmed");

        // Growing never drops anything.
        c.set_capacity(16);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.capacity(), 16);
    }

    #[test]
    fn cross_document_hits_are_attributed() {
        let c = SharedPlanCache::new(4);
        lookup(&c, QueryLang::XPath, "/descendant::w", Some("ms-a"));
        lookup(&c, QueryLang::XPath, "/descendant::w", Some("ms-a"));
        assert_eq!(c.stats().cross_doc_hits, 0);
        lookup(&c, QueryLang::XPath, "/descendant::w", Some("ms-b"));
        assert_eq!(c.stats().cross_doc_hits, 1);
        // Document-free (prepared) lookups never count as cross-document.
        lookup(&c, QueryLang::XPath, "/descendant::w", None);
        assert_eq!(c.stats().cross_doc_hits, 1);
        assert_eq!(c.stats().hits, 3);
    }

    #[test]
    fn languages_do_not_collide() {
        let c = SharedPlanCache::new(4);
        lookup(&c, QueryLang::XPath, "count(/descendant::w)", None);
        lookup(&c, QueryLang::XQuery, "count(/descendant::w)", None);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn concurrent_first_requests_compile_once() {
        let c = SharedPlanCache::new(4);
        let compiles = std::sync::atomic::AtomicU32::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    c.get_or_compile(QueryLang::XQuery, "count(//w)", None, || {
                        compiles.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        compile()
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(compiles.into_inner(), 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 7, "waiters count as hits");
    }

    #[test]
    fn a_failed_compile_is_not_cached_and_frees_the_key() {
        let c = SharedPlanCache::new(4);
        let failed = c.get_or_compile(QueryLang::XQuery, "bad", None, || {
            Err(EngineError::Compile { lang: QueryLang::XQuery, message: "no".into() })
        });
        assert!(failed.is_err());
        lookup(&c, QueryLang::XQuery, "bad", None);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().entries, 1);
    }
}
