//! Prepared-plan program reuse: a shared [`ProgramCache`] that lets a
//! serving layer pay parse → rewrite → plan → compile → verify once
//! per (query, epoch) instead of once per execution.
//!
//! Chain compilation happens on the query thread, before any worker
//! fan-out (the same property the tamper and fault seams rely on), so
//! the cache is installed as a thread-local scope around one
//! evaluation: [`with_program_cache`] mirrors
//! [`crate::vcheck::with_tampered_programs`]. Every compile site
//! ([`crate::vcheck::Vet`]) consults the installed cache before
//! lowering; a hit skips lowering *and* the Tier B abstract
//! interpretation, but still re-runs the structural Tier A check
//! (O(ops + nodes)): Tier A gates every cached program before it runs.
//!
//! Coherence is the *caller's* contract: a cache must only be shared
//! across evaluations of the same logical plan against the same
//! catalog shape. The serving engine keys caches by (query text,
//! epoch) and drops them wholesale on publish, which the prepared-
//! cache coherence property test pins down.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use audb_core::Program;

/// Hit/miss meters of one [`ProgramCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// A keyed store of vetted [`Program`]s, shared across evaluations of
/// one prepared plan. Keys encode the compile mode and the expression
/// text, so distinct stages of one chain never collide.
#[derive(Debug, Default)]
pub struct ProgramCache {
    map: Mutex<HashMap<String, Program>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Cached programs currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counts since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Look up a program, counting the outcome.
    pub(crate) fn lookup(&self, key: &str) -> Option<Program> {
        let found = self.map.lock().unwrap_or_else(PoisonError::into_inner).get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a vetted program (last write wins; identical keys compile
    /// to identical programs, so races are benign).
    pub(crate) fn insert(&self, key: String, p: Program) {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).insert(key, p);
    }
}

thread_local! {
    static CACHE: RefCell<Option<Arc<ProgramCache>>> = const { RefCell::new(None) };
}

/// Run `f` with `cache` installed as the program cache for every
/// compile site on this thread. The previous cache (if any) is
/// restored when `f` returns or panics.
pub fn with_program_cache<R>(cache: Arc<ProgramCache>, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<Arc<ProgramCache>>);
    impl Drop for Reset {
        fn drop(&mut self) {
            CACHE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CACHE.with(|c| c.borrow_mut().replace(cache));
    let _reset = Reset(prev);
    f()
}

/// The cache installed on this thread, if any.
pub(crate) fn current() -> Option<Arc<ProgramCache>> {
    CACHE.with(|c| c.borrow().clone())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::{col, lit, Program};

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ProgramCache::new();
        assert!(cache.lookup("k").is_none());
        cache.insert("k".to_string(), Program::compile_det(&col(0).eq(lit(1i64))));
        assert!(cache.lookup("k").is_some());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn install_scope_restores_previous() {
        assert!(current().is_none());
        let outer = Arc::new(ProgramCache::new());
        let inner = Arc::new(ProgramCache::new());
        with_program_cache(outer.clone(), || {
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
            with_program_cache(inner.clone(), || {
                assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            });
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        });
        assert!(current().is_none());
    }
}
