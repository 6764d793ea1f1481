//! # simsparc-machine
//!
//! A cycle-approximate simulator of an UltraSPARC-III-like processor,
//! built as the hardware substrate for the `memprof` reproduction of
//! *Memory Profiling using Hardware Counters* (SC'03). The paper's
//! technique exists *because of* the awkward properties of real
//! counter hardware, so this simulator reproduces exactly those
//! properties (§2.2 of the paper):
//!
//! * two hardware counter registers, each programmable to count one of
//!   a number of events (cycles, instructions, D$ read misses, E$
//!   references, E$ read misses, E$ stall cycles, DTLB misses, ...),
//!   with per-register event constraints as on the real PIC0/PIC1;
//! * counters are preloaded with `-interval` and generate a trap on
//!   overflow — but the trap is **imprecise**: it is delivered several
//!   instructions after the triggering one ("counter skid", §2.2.2),
//!   and the PC delivered with it is the *next instruction to issue*,
//!   not the trigger;
//! * the hardware does not capture the data address of the reference
//!   that caused a memory-related overflow — only the register file at
//!   *delivery* time is visible, which is why the collector must
//!   backtrack and reconstruct (and sometimes fails to);
//! * the memory hierarchy of the paper's Sun Fire 280R: 64 KB 4-way
//!   L1 D$ with 32-byte lines, 8 MB 2-way L2 E$ with 512-byte lines, a
//!   512-entry DTLB with 8 KB default pages (large heap pages
//!   selectable, for the `-xpagesize_heap` experiment), 900 MHz clock.
//!
//! The machine also keeps *ground-truth* aggregate event counts,
//! independent of any profiling configuration. Tests use these to
//! verify that the profile estimates (overflow count × interval)
//! statistically match reality, something the original authors could
//! not do on real hardware.

mod cache;
mod counters;
mod cpu;
mod image;
mod mem;
mod tlb;

pub use cache::{CacheConfig, CacheOutcome, SetAssocCache};
pub use counters::{
    CounterEvent, CounterSlot, HwCounter, PicConstraintError, SkidModel, NUM_COUNTER_SLOTS,
};
pub use cpu::{
    CpuState, EventCounts, Machine, MachineError, NullHook, OverflowTrap, ProfileHook, RunOutcome,
};
pub use image::{Image, Segment, SegmentKind};
pub use mem::{Memory, HOST_PAGE_BYTES, MEM_LIMIT};
pub use tlb::{page_size_supported, Tlb, TlbConfig, DEFAULT_PAGE_BYTES, SUPPORTED_PAGE_BYTES};

/// Base virtual address of the text segment. Chosen at 2^32 so that
/// PCs print like the paper's listings (`0x1000031b0`); text addresses
/// never need to be materialized in registers by `sethi`/`or`.
pub const TEXT_BASE: u64 = 0x1_0000_0000;
/// Base of the static data segment (globals).
pub const DATA_BASE: u64 = 0x2000_0000;
/// Base of the heap segment (the mini-C runtime's `malloc` arena).
pub const HEAP_BASE: u64 = 0x4000_0000;
/// Exclusive end of the heap segment.
pub const HEAP_END: u64 = 0x7000_0000;
/// Initial stack pointer (the stack grows down from here).
pub const STACK_TOP: u64 = 0x7fff_f000;

/// Machine configuration: clock, memory hierarchy geometry, latencies
/// and the skid model. `Default` is the paper's 900 MHz UltraSPARC-III
/// Cu Sun Fire 280R.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Clock frequency used to convert cycle metrics to seconds.
    pub clock_hz: u64,
    /// L1 data cache geometry (64 KB, 4-way, 32 B lines).
    pub dcache: CacheConfig,
    /// External (L2) cache geometry (8 MB, 2-way, 512 B lines).
    pub ecache: CacheConfig,
    /// Instruction cache geometry (32 KB, 4-way, 32 B lines).
    pub icache: CacheConfig,
    /// Data TLB configuration.
    pub tlb: TlbConfig,
    /// Page size of the heap segment; set to `512 * 1024` for the
    /// paper's `-xpagesize_heap=512k` experiment (§3.3). All other
    /// segments use the system default of 8 KB.
    pub heap_page_bytes: u64,
    /// Stall cycles for a D$ miss that hits in E$.
    pub ec_hit_stall: u64,
    /// Stall cycles for a load that misses E$ (memory latency). The
    /// paper's Figure 1 implies ≈170 cycles/E$ read miss on the 280R.
    pub ec_miss_stall: u64,
    /// Penalty for a DTLB miss (the paper estimates 100 cycles).
    pub tlb_miss_penalty: u64,
    /// Extra cycles for `mulx`.
    pub mul_cycles: u64,
    /// Extra cycles for `sdivx`.
    pub div_cycles: u64,
    /// Extra cycles for an I$ miss (code fetch from E$).
    pub ic_miss_stall: u64,
    /// Per-event skid model: an overflow trap is delivered after a
    /// sampled number of further retired instructions.
    pub skid: SkidModel,
    /// Seed for skid jitter (all machine randomness flows from here).
    pub seed: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            clock_hz: 900_000_000,
            dcache: CacheConfig {
                bytes: 64 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            ecache: CacheConfig {
                bytes: 8 * 1024 * 1024,
                ways: 2,
                line_bytes: 512,
            },
            icache: CacheConfig {
                bytes: 32 * 1024,
                ways: 4,
                line_bytes: 32,
            },
            tlb: TlbConfig::default(),
            heap_page_bytes: DEFAULT_PAGE_BYTES,
            ec_hit_stall: 15,
            ec_miss_stall: 170,
            tlb_miss_penalty: 100,
            mul_cycles: 5,
            div_cycles: 40,
            ic_miss_stall: 15,
            skid: SkidModel::default(),
            seed: 0x5c03_2003,
        }
    }
}

impl MachineConfig {
    /// The paper's `-xpagesize_heap=512k` variant.
    pub fn with_large_heap_pages(self) -> Self {
        self.with_heap_page_bytes(512 * 1024)
    }

    /// Select the heap segment's page size (the `-xpagesize_heap`
    /// knob, generalized to every size the MMU supports). Panics on a
    /// size the MMU cannot map — a feedback-directed driver must
    /// validate its page-size decisions against
    /// [`SUPPORTED_PAGE_BYTES`] before applying them.
    pub fn with_heap_page_bytes(mut self, bytes: u64) -> Self {
        assert!(
            page_size_supported(bytes),
            "unsupported heap page size {bytes}; the MMU maps {SUPPORTED_PAGE_BYTES:?}"
        );
        self.heap_page_bytes = bytes;
        self
    }

    /// Seconds represented by `cycles` at this machine's clock.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}
