//! Set-associative cache model with true-LRU replacement.
//!
//! Used for the D$ (64 KB / 4-way / 32 B lines), the E$ (8 MB / 2-way /
//! 512 B lines) and the I$ (32 KB / 4-way / 32 B lines) of the
//! simulated Sun Fire 280R. The model tracks tags only — data flows
//! through the flat [`crate::Memory`] — because the paper's metrics
//! depend on hit/miss behaviour, not on cached values.

/// Geometry of one cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.bytes / self.line_bytes / self.ways as u64
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    Hit,
    Miss,
}

/// A set-associative, true-LRU, write-allocate cache.
pub struct SetAssocCache {
    line_shift: u32,
    set_mask: u64,
    ways: usize,
    /// `tags[set * ways..][..ways]` holds one set's lines in recency
    /// order: index 0 is the most recently used, the last index the
    /// LRU victim. `u64::MAX` = invalid; invalid ways are always at
    /// the tail, since every fill inserts at the front.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

const INVALID: u64 = u64::MAX;

impl SetAssocCache {
    pub fn new(config: CacheConfig) -> SetAssocCache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = config.sets();
        assert!(
            sets.is_power_of_two() && sets > 0,
            "set count must be a power of two"
        );
        assert!(config.ways >= 1 && config.ways <= 16);
        let total = (sets as usize) * config.ways as usize;
        SetAssocCache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            ways: config.ways as usize,
            tags: vec![INVALID; total],
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Access the line containing `addr`, allocating it on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];

        // Most accesses re-touch the set's MRU line: nothing moves.
        if tags[0] == line {
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        // Otherwise the touched line moves to the front and every line
        // more recent than it shifts back one place. On a miss that is
        // the whole set, dropping the LRU line off the end.
        let (end, outcome) = match tags.iter().position(|&t| t == line) {
            Some(w) => {
                self.hits += 1;
                (w, CacheOutcome::Hit)
            }
            None => {
                self.misses += 1;
                (tags.len() - 1, CacheOutcome::Miss)
            }
        };
        mru_insert(&mut tags[..=end], line);
        outcome
    }

    /// Probe without touching LRU state or counting (used by software
    /// prefetch and by tests).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Shift `set[..len - 1]` back one place and put `tag` at the front:
/// the recency-order update shared by the caches and the DTLB. Sets
/// hold at most 16 ways, so a plain loop beats a `memmove` call.
#[inline]
pub(crate) fn mru_insert<T: Copy>(set: &mut [T], tag: T) {
    for i in (1..set.len()).rev() {
        set[i] = set[i - 1];
    }
    set[0] = tag;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 32-byte lines = 128 bytes.
        SetAssocCache::new(CacheConfig {
            bytes: 128,
            ways: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 32,
        };
        assert_eq!(c.sets(), 512);
        let e = CacheConfig {
            bytes: 8 * 1024 * 1024,
            ways: 2,
            line_bytes: 512,
        };
        assert_eq!(e.sets(), 8192);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(31), CacheOutcome::Hit); // same line
        assert_eq!(c.access(32), CacheOutcome::Miss); // next line, set 1
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines whose line-number is even (2 sets).
        let a = 0u64; // line 0, set 0
        let b = 64; // line 2, set 0
        let d = 128; // line 4, set 0
        assert_eq!(c.access(a), CacheOutcome::Miss);
        assert_eq!(c.access(b), CacheOutcome::Miss);
        // Touch `a` so `b` is LRU.
        assert_eq!(c.access(a), CacheOutcome::Hit);
        // `d` evicts `b`.
        assert_eq!(c.access(d), CacheOutcome::Miss);
        assert_eq!(c.access(a), CacheOutcome::Hit);
        assert_eq!(c.access(b), CacheOutcome::Miss);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = tiny();
        c.access(0);
        let stats = c.stats();
        assert!(c.probe(16));
        assert!(!c.probe(64));
        assert_eq!(c.stats(), stats);
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        // 64KB 4-way: any 16 distinct lines mapping to the same set fit in 4 ways?
        // Use a full-cache sweep instead: 2048 lines fit exactly.
        let mut c = SetAssocCache::new(CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 32,
        });
        for i in 0..2048u64 {
            assert_eq!(c.access(i * 32), CacheOutcome::Miss);
        }
        for i in 0..2048u64 {
            assert_eq!(c.access(i * 32), CacheOutcome::Hit, "line {i}");
        }
    }

    #[test]
    fn streaming_larger_than_capacity_always_misses() {
        let mut c = tiny(); // 4 lines total
        for round in 0..3 {
            for i in 0..8u64 {
                assert_eq!(
                    c.access(i * 32),
                    CacheOutcome::Miss,
                    "round {round} line {i}"
                );
            }
        }
    }
}
