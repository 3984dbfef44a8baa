//! Cross-job calibration-profile cache.
//!
//! Calibration (the paper's Algorithm 1) measures each worker's speed on a
//! representative payload.  A one-shot backend pays that measurement on
//! every run; a resident service can remember it: profiles are keyed by
//! `(worker, payload-kind)` and reused by every later job of the same kind,
//! so a warmed-up service derives its threshold *Z* from the cache and
//! dispatches immediately.
//!
//! Invalidation contract: a cached profile stays valid until the shared
//! `AdaptationEngine` flags drift — i.e. it calls the service's recalibrate
//! hook because the whole pool degraded past *Z*.  The service then clears the
//! cache and the next dispatch round re-measures.  No timer, no ad-hoc
//! heuristics: the engine is the single authority on staleness, exactly as
//! it is on demotion.

use std::collections::HashMap;

/// Cumulative cache accounting, exposed through the service's stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh measurement.
    pub misses: u64,
    /// Drift-triggered cache clears.
    pub invalidations: u64,
    /// Profiles currently cached.
    pub entries: usize,
}

/// The `(worker, payload-kind) → seconds-per-work-unit` calibration cache.
#[derive(Debug, Default)]
pub struct ProfileCache {
    profiles: HashMap<(usize, String), f64>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProfileCache::default()
    }

    /// Look up the cached seconds-per-work-unit profile of `worker` on
    /// `kind`, counting the hit or miss.
    pub fn lookup(&mut self, worker: usize, kind: &str) -> Option<f64> {
        match self.profiles.get(&(worker, kind.to_string())) {
            Some(&t) => {
                self.hits += 1;
                Some(t)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Read a profile without touching the hit/miss accounting (internal
    /// bookkeeping reads, e.g. "would an insert overwrite a measurement").
    pub fn peek(&self, worker: usize, kind: &str) -> Option<f64> {
        self.profiles.get(&(worker, kind.to_string())).copied()
    }

    /// Store (or refresh) a measured profile.
    pub fn insert(&mut self, worker: usize, kind: &str, secs_per_unit: f64) {
        self.profiles
            .insert((worker, kind.to_string()), secs_per_unit);
    }

    /// Drift: the engine recalibrated, so every cached profile describes a
    /// machine state that no longer holds.  Clear them all.
    pub fn invalidate_all(&mut self) {
        if !self.profiles.is_empty() {
            self.profiles.clear();
        }
        self.invalidations += 1;
    }

    /// Current accounting.
    pub fn stats(&self) -> ProfileCacheStats {
        ProfileCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            entries: self.profiles.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_count_hits_and_misses() {
        let mut c = ProfileCache::new();
        assert_eq!(c.lookup(0, "spin"), None);
        c.insert(0, "spin", 0.01);
        assert_eq!(c.lookup(0, "spin"), Some(0.01));
        assert_eq!(c.lookup(0, "mandelbrot"), None, "kinds are distinct keys");
        assert_eq!(c.lookup(1, "spin"), None, "workers are distinct keys");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 1));
    }

    #[test]
    fn invalidation_clears_every_profile() {
        let mut c = ProfileCache::new();
        c.insert(0, "spin", 0.01);
        c.insert(1, "spin", 0.02);
        c.invalidate_all();
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.lookup(0, "spin"), None);
    }
}
