//! Hardware performance counters with overflow traps and skid.
//!
//! The simulated chip has two counter registers (PIC0/PIC1, §2.2.1 of
//! the paper). Each can be programmed to count one event type; not
//! every event is available on every register, so "if two counters are
//! requested, they must be on different registers" — the same
//! constraint the `collect` command enforces. A counter is preloaded
//! with `-interval`; when it crosses zero the machine schedules a trap
//! that is delivered only after a *skid* of several more retired
//! instructions (§2.2.2), with the PC of the next instruction to
//! issue. If a counter overflows again while a trap is still pending,
//! the event is dropped (and counted as such), as on real hardware
//! with too-small intervals.

/// Identifies one of the two counter registers.
pub type CounterSlot = usize;

/// Number of counter registers on the chip.
pub const NUM_COUNTER_SLOTS: usize = 2;

/// Events the counters can be programmed to count. The names (used on
/// the `collect -h` command line) follow the paper: `cycles`, `insts`,
/// `icm`, `dcrm`, `dtlbm`, `ecref`, `ecrm`, `ecstall`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CounterEvent {
    /// CPU cycles (a cycle-valued counter).
    Cycles,
    /// Instructions completed.
    Insts,
    /// Instruction-cache misses.
    ICMiss,
    /// Data-cache read misses.
    DCReadMiss,
    /// Data-TLB misses. Precise on this chip (skid of exactly one
    /// instruction), like the paper reports.
    DTLBMiss,
    /// External-cache references (D$ misses that reach the E$).
    ECRef,
    /// External-cache read misses.
    ECReadMiss,
    /// Cycles stalled waiting for the E$/memory (a cycle-valued
    /// counter — "especially interesting, since they count the actual
    /// time lost because of the events", §2.2.1).
    ECStallCycles,
}

impl CounterEvent {
    pub const ALL: [CounterEvent; 8] = [
        CounterEvent::Cycles,
        CounterEvent::Insts,
        CounterEvent::ICMiss,
        CounterEvent::DCReadMiss,
        CounterEvent::DTLBMiss,
        CounterEvent::ECRef,
        CounterEvent::ECReadMiss,
        CounterEvent::ECStallCycles,
    ];

    /// The `collect -h` name.
    pub const fn name(self) -> &'static str {
        match self {
            CounterEvent::Cycles => "cycles",
            CounterEvent::Insts => "insts",
            CounterEvent::ICMiss => "icm",
            CounterEvent::DCReadMiss => "dcrm",
            CounterEvent::DTLBMiss => "dtlbm",
            CounterEvent::ECRef => "ecref",
            CounterEvent::ECReadMiss => "ecrm",
            CounterEvent::ECStallCycles => "ecstall",
        }
    }

    /// Human-readable metric title, as shown by the analyzer.
    pub const fn title(self) -> &'static str {
        match self {
            CounterEvent::Cycles => "CPU Cycles",
            CounterEvent::Insts => "Instructions Completed",
            CounterEvent::ICMiss => "I$ Misses",
            CounterEvent::DCReadMiss => "D$ Read Misses",
            CounterEvent::DTLBMiss => "DTLB Misses",
            CounterEvent::ECRef => "E$ Refs",
            CounterEvent::ECReadMiss => "E$ Read Misses",
            CounterEvent::ECStallCycles => "E$ Stall Cycles",
        }
    }

    /// Parse a `collect -h` name.
    pub fn parse(name: &str) -> Option<CounterEvent> {
        CounterEvent::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Cycle-valued counters are displayed in seconds (with the raw
    /// count alongside, as in Figure 1); event-valued counters are
    /// displayed as counts.
    pub const fn counts_cycles(self) -> bool {
        matches!(self, CounterEvent::Cycles | CounterEvent::ECStallCycles)
    }

    /// Is this a memory-related event for which apropos backtracking
    /// (a `+` prefix on the counter name) makes sense?
    pub const fn is_memory_event(self) -> bool {
        matches!(
            self,
            CounterEvent::DCReadMiss
                | CounterEvent::DTLBMiss
                | CounterEvent::ECRef
                | CounterEvent::ECReadMiss
                | CounterEvent::ECStallCycles
        )
    }

    /// Which counter registers can count this event. Mirrors the
    /// UltraSPARC-III PIC0/PIC1 split closely enough that the paper's
    /// two experiments are exactly the legal pairings:
    /// `ecstall`(PIC0) + `ecrm`(PIC1), and `dtlbm`(PIC0) + `ecref`(PIC1).
    pub const fn allowed_slots(self) -> &'static [CounterSlot] {
        match self {
            CounterEvent::Cycles | CounterEvent::Insts => &[0, 1],
            CounterEvent::DCReadMiss | CounterEvent::DTLBMiss | CounterEvent::ECStallCycles => &[0],
            CounterEvent::ICMiss | CounterEvent::ECRef | CounterEvent::ECReadMiss => &[1],
        }
    }

    /// Default overflow interval for the `on` (normal) setting. The
    /// values are primes, "to reduce the probability of correlations
    /// in the profiles" (§2.2). Real `collect` aims at ~10 ms per
    /// event at 900 MHz for cycle counters; simulated runs are several
    /// orders of magnitude shorter than MCF's 550 s, so callers
    /// normally scale these down (numeric intervals are accepted
    /// everywhere, as in the real tool).
    pub const fn default_interval(self) -> u64 {
        if self.counts_cycles() {
            9_999_991
        } else {
            100_003
        }
    }
}

impl std::fmt::Display for CounterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an event/register pairing the hardware does not support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PicConstraintError {
    pub event: CounterEvent,
    pub slot: CounterSlot,
}

impl std::fmt::Display for PicConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "counter event `{}` cannot be counted on register PIC{}; allowed: {:?}",
            self.event,
            self.slot,
            self.event.allowed_slots()
        )
    }
}

impl std::error::Error for PicConstraintError {}

/// Skid model: how many further instructions retire between a counter
/// overflow and the delivery of its trap, per event type.
///
/// The defaults are tuned so the *effectiveness* numbers of §3.2.5
/// emerge: `dtlbm` is precise (the paper: "DTLB misses (which are
/// precise)" — 100% effective), `ecstall`/`ecrm` skid a little
/// (>99% / ~100% effective) and `ecref` has "significantly greater
/// skid" (~94% effective).
#[derive(Clone, Debug)]
pub struct SkidModel {
    /// Inclusive (min, max) retired-instruction skid for each event.
    pub ranges: [(u32, u32); CounterEvent::ALL.len()],
}

impl Default for SkidModel {
    fn default() -> Self {
        let mut ranges = [(1u32, 6u32); CounterEvent::ALL.len()];
        ranges[CounterEvent::DTLBMiss as usize] = (1, 1);
        ranges[CounterEvent::ECReadMiss as usize] = (1, 3);
        ranges[CounterEvent::ECStallCycles as usize] = (1, 4);
        ranges[CounterEvent::ECRef as usize] = (2, 7);
        ranges[CounterEvent::Cycles as usize] = (1, 8);
        ranges[CounterEvent::Insts as usize] = (1, 6);
        SkidModel { ranges }
    }
}

impl SkidModel {
    /// Inclusive skid range for `event`.
    pub fn range(&self, event: CounterEvent) -> (u32, u32) {
        self.ranges[event as usize]
    }

    /// A model with zero-skid ("precise trap") delivery for every
    /// event — useful for ablation benches showing why backtracking
    /// exists at all.
    pub fn precise() -> SkidModel {
        SkidModel {
            ranges: [(1, 1); CounterEvent::ALL.len()],
        }
    }
}

/// A pending overflow trap counting down its skid.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingTrap {
    /// PC of the instruction that caused the overflow (ground truth —
    /// real hardware does not expose this; the simulator records it so
    /// tests and the `mp-verify` oracle can score the backtracker).
    pub trigger_pc: u64,
    /// Effective data address of the triggering access (ground truth,
    /// like `trigger_pc`). `None` for non-memory events (cycles,
    /// insts, I$ misses have no data address).
    pub trigger_ea: Option<u64>,
    /// Retired instructions remaining before delivery.
    pub remaining: u32,
    /// Total skid assigned (for diagnostics).
    pub skid: u32,
}

/// One programmed hardware counter register.
#[derive(Clone, Debug)]
pub struct HwCounter {
    pub event: CounterEvent,
    /// Overflow interval (the counter is preloaded with `-interval`).
    pub interval: u64,
    /// Current value counting up toward zero from `-interval`.
    pub(crate) value: i64,
    pub(crate) pending: Option<PendingTrap>,
    /// Overflows that produced (or will produce) a delivered trap.
    pub overflows: u64,
    /// Overflows dropped because a trap was already pending.
    pub dropped: u64,
}

impl HwCounter {
    pub fn new(event: CounterEvent, interval: u64) -> HwCounter {
        assert!(interval > 0, "overflow interval must be positive");
        HwCounter {
            event,
            interval,
            value: -(interval as i64),
            pending: None,
            overflows: 0,
            dropped: 0,
        }
    }

    /// Add `n` events; returns `true` if the counter overflowed and a
    /// trap should be scheduled (the caller handles skid).
    ///
    /// A single burst can cross the overflow threshold more than once
    /// (`ecstall` adds whole stall bursts at a time, easily ≥ 2× a
    /// small interval). The hardware reloads once per crossing, so the
    /// preloaded value ends below zero whatever the burst size; only
    /// the first crossing can fire a trap — the rest arrive while that
    /// trap is pending (or queued for delivery) and are dropped, which
    /// keeps `overflows + dropped` an exact count of crossings.
    #[inline]
    pub(crate) fn add(&mut self, n: u64) -> bool {
        self.value += n as i64;
        self.value >= 0 && self.wrap()
    }

    /// The counter crossed zero: account the crossing(s) and reload.
    #[inline(never)]
    fn wrap(&mut self) -> bool {
        let fired = if self.pending.is_some() {
            self.dropped += 1;
            false
        } else {
            self.overflows += 1;
            true
        };
        self.value -= self.interval as i64;
        while self.value >= 0 {
            self.dropped += 1;
            self.value -= self.interval as i64;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for e in CounterEvent::ALL {
            assert_eq!(CounterEvent::parse(e.name()), Some(e));
        }
        assert_eq!(CounterEvent::parse("bogus"), None);
    }

    #[test]
    fn paper_experiment_pairings_are_legal() {
        // Experiment 1: +ecstall,lo,+ecrm,on
        assert!(CounterEvent::ECStallCycles.allowed_slots().contains(&0));
        assert!(CounterEvent::ECReadMiss.allowed_slots().contains(&1));
        // Experiment 2: +ecref,on,+dtlbm,on
        assert!(CounterEvent::ECRef.allowed_slots().contains(&1));
        assert!(CounterEvent::DTLBMiss.allowed_slots().contains(&0));
    }

    #[test]
    fn cycle_valued_counters() {
        assert!(CounterEvent::Cycles.counts_cycles());
        assert!(CounterEvent::ECStallCycles.counts_cycles());
        assert!(!CounterEvent::ECReadMiss.counts_cycles());
    }

    #[test]
    fn overflow_and_wrap() {
        let mut c = HwCounter::new(CounterEvent::Insts, 10);
        for _ in 0..9 {
            assert!(!c.add(1));
        }
        assert!(c.add(1), "10th event overflows");
        assert_eq!(c.value, -10);
        assert_eq!(c.overflows, 1);
    }

    #[test]
    fn large_increment_overflows_once() {
        let mut c = HwCounter::new(CounterEvent::ECStallCycles, 100);
        assert!(c.add(170), "one burst of stall cycles can overflow");
        assert_eq!(c.value, 70 - 100);
        assert_eq!((c.overflows, c.dropped), (1, 0));
    }

    #[test]
    fn burst_over_twice_the_interval_drops_the_extra_wraps() {
        // A burst ≥ 2× the interval fires one trap and drops the rest;
        // it must not leave `value` ≥ 0 (which would silently defer
        // the second overflow to the next event).
        let mut c = HwCounter::new(CounterEvent::ECStallCycles, 100);
        assert!(c.add(350), "first crossing fires");
        assert_eq!(c.value, 50 - 100, "value reloads past every crossing");
        assert_eq!((c.overflows, c.dropped), (1, 2));
    }

    #[test]
    fn burst_accounting_is_exact() {
        // Whatever the burst pattern, every interval's worth of events
        // is accounted exactly once: overflows + dropped == total /
        // interval, and the counter always ends below zero.
        let interval = 100u64;
        for burst in [1u64, 99, 100, 170, 200, 350, 999, 1000, 1001] {
            let mut c = HwCounter::new(CounterEvent::ECStallCycles, interval);
            let mut total = 0u64;
            for _ in 0..37 {
                c.add(burst);
                total += burst;
            }
            assert!(c.value < 0, "burst {burst}: counter must end below zero");
            assert_eq!(
                c.overflows + c.dropped,
                total / interval,
                "burst {burst}: every crossing accounted exactly once"
            );
            assert_eq!(
                c.value,
                (total % interval) as i64 - interval as i64,
                "burst {burst}: reload preserves the event remainder"
            );
        }
    }

    #[test]
    fn overflow_while_pending_is_dropped() {
        let mut c = HwCounter::new(CounterEvent::Insts, 5);
        assert!(c.add(5));
        c.pending = Some(PendingTrap {
            trigger_pc: 0,
            trigger_ea: None,
            remaining: 3,
            skid: 3,
        });
        assert!(!c.add(5), "second overflow dropped while trap pending");
        assert_eq!(c.dropped, 1);
        assert_eq!(c.overflows, 1);
    }

    #[test]
    fn dtlbm_is_precise_in_default_skid_model() {
        let m = SkidModel::default();
        assert_eq!(m.range(CounterEvent::DTLBMiss), (1, 1));
        let (lo, hi) = m.range(CounterEvent::ECRef);
        let (_, hi_ecrm) = m.range(CounterEvent::ECReadMiss);
        assert!(
            hi > lo && hi > hi_ecrm,
            "ecref has significantly greater skid than ecrm"
        );
    }
}
