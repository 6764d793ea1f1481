//! Property tests for the machine substrate: the set-associative
//! cache and the DTLB against naive reference models, TLB reach
//! invariants, and sparse-memory read/write laws.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use simsparc_machine::{
    CacheConfig, CacheOutcome, Memory, SetAssocCache, Tlb, TlbConfig, DATA_BASE, HEAP_BASE,
    HOST_PAGE_BYTES, MEM_LIMIT, STACK_TOP,
};

const HP: u64 = HOST_PAGE_BYTES as u64;

/// Windows of four host pages the memory property writes into: the
/// data, heap and stack segments, and one that runs two pages past
/// [`MEM_LIMIT`].
const REGIONS: [u64; 4] = [DATA_BASE, HEAP_BASE, STACK_TOP - 3 * HP, MEM_LIMIT - 2 * HP];

/// The bytes a bulk write of `len` bytes seeded by `val` stores.
fn bulk_bytes(val: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (val >> (8 * (i % 8))) as u8 ^ i as u8)
        .collect()
}

/// A straightforward reference model: per set, a vector of lines in
/// LRU order (front = MRU).
struct RefCache {
    line_shift: u32,
    sets: u64,
    ways: usize,
    lru: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        let sets = config.sets();
        RefCache {
            line_shift: config.line_bytes.trailing_zeros(),
            sets,
            ways: config.ways as usize,
            lru: vec![Vec::new(); sets as usize],
        }
    }

    fn access(&mut self, addr: u64) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        let v = &mut self.lru[set];
        if let Some(pos) = v.iter().position(|&l| l == line) {
            v.remove(pos);
            v.insert(0, line);
            CacheOutcome::Hit
        } else {
            v.insert(0, line);
            v.truncate(self.ways);
            CacheOutcome::Miss
        }
    }
}

/// The DTLB's reference model: per set, a vector of `(vpn,
/// page_shift)` tags in LRU order (front = MRU), as in [`RefCache`].
struct RefTlb {
    sets: u64,
    ways: usize,
    lru: Vec<Vec<(u64, u32)>>,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn new(config: TlbConfig) -> RefTlb {
        let sets = (config.entries / config.ways) as u64;
        RefTlb {
            sets,
            ways: config.ways as usize,
            lru: vec![Vec::new(); sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64, page_bytes: u64) -> bool {
        let shift = page_bytes.trailing_zeros();
        let tag = (addr >> shift, shift);
        let v = &mut self.lru[(tag.0 % self.sets) as usize];
        if let Some(pos) = v.iter().position(|&t| t == tag) {
            v.remove(pos);
            v.insert(0, tag);
            self.hits += 1;
            true
        } else {
            v.insert(0, tag);
            v.truncate(self.ways);
            self.misses += 1;
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production cache and the reference model agree on every
    /// access of a random trace, for random (small) geometries.
    #[test]
    fn cache_matches_reference_model(
        ways in 1u32..=4,
        sets_log in 1u32..=4,
        line_log in 4u32..=7,
        trace in prop::collection::vec(0u64..(1 << 16), 1..500),
    ) {
        let line_bytes = 1u64 << line_log;
        let bytes = line_bytes * (1 << sets_log) * ways as u64;
        let config = CacheConfig { bytes, ways, line_bytes };
        let mut real = SetAssocCache::new(config);
        let mut reference = RefCache::new(config);
        for (i, &addr) in trace.iter().enumerate() {
            let a = real.access(addr);
            let b = reference.access(addr);
            prop_assert_eq!(a, b, "divergence at access {} (addr {:#x})", i, addr);
        }
    }

    /// Hits + misses equals the number of accesses, and re-running the
    /// same trace on a fresh cache is deterministic.
    #[test]
    fn cache_stats_are_consistent(
        trace in prop::collection::vec(0u64..(1 << 20), 1..300),
    ) {
        let config = CacheConfig { bytes: 4096, ways: 2, line_bytes: 64 };
        let mut c1 = SetAssocCache::new(config);
        let r1: Vec<CacheOutcome> = trace.iter().map(|&a| c1.access(a)).collect();
        let (h, m) = c1.stats();
        prop_assert_eq!(h + m, trace.len() as u64);
        let mut c2 = SetAssocCache::new(config);
        let r2: Vec<CacheOutcome> = trace.iter().map(|&a| c2.access(a)).collect();
        prop_assert_eq!(r1, r2);
    }

    /// A second pass over any working set that fits within one way's
    /// worth of distinct lines per set never misses.
    #[test]
    fn cache_second_pass_hits_when_fits(
        seed_lines in prop::collection::btree_set(0u64..128, 1..16),
    ) {
        // 16 sets x 4 ways of 32-byte lines: any 16 distinct lines that
        // map to distinct sets fit; to be safe, use <= 4 lines per set.
        let config = CacheConfig { bytes: 2048, ways: 4, line_bytes: 32 };
        let sets = config.sets();
        let mut per_set = std::collections::HashMap::new();
        let lines: Vec<u64> = seed_lines
            .into_iter()
            .filter(|l| {
                let c = per_set.entry(l % sets).or_insert(0u32);
                *c += 1;
                *c <= 4
            })
            .collect();
        let mut c = SetAssocCache::new(config);
        for &l in &lines {
            c.access(l * 32);
        }
        for &l in &lines {
            prop_assert_eq!(c.access(l * 32), CacheOutcome::Hit);
        }
    }

    /// TLB: accesses within one page hit after the first touch,
    /// regardless of page size; the large-page tag covers the whole
    /// large page.
    #[test]
    fn tlb_page_granularity(base in 0u64..(1 << 28), offs in prop::collection::vec(0u64..8192, 1..50)) {
        let mut t = Tlb::new(TlbConfig { entries: 8, ways: 2 });
        let page = base & !8191;
        t.access(page, 8192);
        for &o in &offs {
            prop_assert!(t.access(page + o, 8192), "same 8K page must hit");
        }
        let mut t = Tlb::new(TlbConfig { entries: 8, ways: 2 });
        let lpage = base & !(512 * 1024 - 1);
        t.access(lpage, 512 * 1024);
        for &o in &offs {
            prop_assert!(t.access(lpage + o * 63, 512 * 1024), "same 512K page must hit");
        }
    }

    /// The production DTLB and the reference model agree on every
    /// access of a random trace mixing 8 KB and 512 KB pages, for
    /// several geometries, and so do their hit/miss totals.
    #[test]
    fn tlb_matches_reference_model(
        ways in 1u32..=4,
        sets_log in 0u32..=3,
        trace in prop::collection::vec((0u64..(1 << 21), any::<bool>()), 1..500),
    ) {
        let config = TlbConfig { entries: ways << sets_log, ways };
        let mut real = Tlb::new(config);
        let mut reference = RefTlb::new(config);
        for (i, &(addr, large)) in trace.iter().enumerate() {
            let page_bytes = if large { 512 * 1024 } else { 8 * 1024 };
            let a = real.access(addr, page_bytes);
            let b = reference.access(addr, page_bytes);
            prop_assert_eq!(a, b, "divergence at access {} (addr {:#x}, page {})", i, addr, page_bytes);
        }
        prop_assert_eq!(real.stats(), (reference.hits, reference.misses));
    }

    /// Memory: the last write wins, all widths, and disjoint writes do
    /// not interfere.
    #[test]
    fn memory_last_write_wins(
        writes in prop::collection::vec((0u64..1024u64, prop::sample::select(&[1u64,2,4,8][..]), any::<u64>()), 1..100),
    ) {
        let mut mem = Memory::new();
        let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for (slot, len, val) in writes {
            let addr = 0x2000_0000 + slot * 8; // 8-aligned, any width legal
            prop_assert!(mem.write(addr, len, val));
            for (i, b) in val.to_le_bytes()[..len as usize].iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for (&addr, &b) in &model {
            prop_assert_eq!(mem.read(addr, 1), Some(b as u64));
        }
    }

    /// Memory against a byte-map model across host-page boundaries:
    /// aligned writes of every width and unaligned bulk writes (some
    /// longer than a host page) land next to page boundaries in the
    /// data, heap and stack segments and at the `MEM_LIMIT` edge.
    /// Every write that would end past `MEM_LIMIT` fails and writes
    /// nothing; reads read back the model (zero where unwritten) or
    /// `None` past the limit; residency is one whole host page per
    /// page a successful write touched.
    #[test]
    fn memory_matches_byte_map_across_host_pages(
        ops in prop::collection::vec(
            (0usize..4, 0u64..4, -48i64..48, 0usize..6, 1usize..200, any::<u64>()),
            1..40,
        ),
    ) {
        let mut mem = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut pages: HashSet<u64> = HashSet::new();
        let mut spans = Vec::new();
        for &(region, page, near, kind, len, val) in &ops {
            let mut addr = (REGIONS[region] + page * HP).wrapping_add_signed(near);
            let bytes = match kind {
                0..=3 => {
                    let width = 1u64 << kind;
                    addr &= !(width - 1);
                    val.to_le_bytes()[..width as usize].to_vec()
                }
                4 => bulk_bytes(val, len),
                _ => bulk_bytes(val, HOST_PAGE_BYTES + len),
            };
            let end = addr + bytes.len() as u64;
            let fits = end <= MEM_LIMIT;
            let wrote = if kind <= 3 {
                mem.write(addr, bytes.len() as u64, val)
            } else {
                mem.write_bytes(addr, &bytes)
            };
            prop_assert_eq!(wrote, fits, "write of {} bytes at {:#x}", bytes.len(), addr);
            if fits {
                for (i, &b) in bytes.iter().enumerate() {
                    model.insert(addr + i as u64, b);
                }
                pages.extend(addr / HP..=(end - 1) / HP);
            }
            spans.push((addr, bytes.len() as u64));
        }
        let byte = |a: u64| model.get(&a).copied().unwrap_or(0);
        for &(addr, len) in &spans {
            // The written span and a few bytes either side, in bulk...
            let (lo, hi) = (addr - 8, addr + len + 8);
            let want: Option<Vec<u8>> = (hi <= MEM_LIMIT).then(|| (lo..hi).map(byte).collect());
            prop_assert_eq!(mem.read_bytes(lo, (hi - lo) as usize), want);
            // ...and as aligned words of every width at its start.
            for width in [1u64, 2, 4, 8] {
                let a = addr & !(width - 1);
                let want = (a + width <= MEM_LIMIT).then(|| {
                    (0..width).rev().fold(0u64, |v, i| v << 8 | byte(a + i) as u64)
                });
                prop_assert_eq!(mem.read(a, width), want, "read {} at {:#x}", width, a);
            }
        }
        prop_assert_eq!(mem.read(MEM_LIMIT, 1), None);
        prop_assert_eq!(mem.read_bytes(MEM_LIMIT - 1, 2), None);
        prop_assert_eq!(mem.resident_bytes(), pages.len() * HOST_PAGE_BYTES);
    }
}
