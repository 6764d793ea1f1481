//! Host-speed gauge: timed intervals reported at a nominal host speed.
//!
//! The benchmark runs on a host whose cores and memory are shared with
//! other tenants, and its speed changes by tens of percent over tens of
//! seconds. Every timing of the same code moves with it, so two series
//! of runs a few minutes apart would differ by more than any usable
//! bound. The gauge is a pair of fixed reference kernels, part of the
//! benchmark and of no crate it measures, timed at checkpoints through
//! each measured interval. The stretch between two checkpoints is
//! scaled by the gauge's nominal time over the mean of its times at the
//! two ends, and the gauge's own time is left out of the interval. A
//! change to the program moves the scaled time as it moves the raw
//! one; a change in the host's speed moves the gauge as well and
//! cancels out.
//!
//! The two kernels are the kinds of work the simulator does: a small
//! register-machine interpreter (decode, dispatch, data-dependent
//! branches) and a chain of dependent lookups in a 1 MB table, which
//! lives in a core's L2 cache as the simulator's hot state does. The
//! gauge is the geometric mean of their times. `README.md` shows how
//! well it tracks each workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::trace;

/// Gauge seconds that define the nominal host speed: the gauge's median
/// on the 2-core Intel Xeon host the benchmark was tuned on, so that
/// scaled times read close to that host's raw ones.
const NOMINAL_S: f64 = 0.00147;
const TABLE_WORDS: usize = 1 << 17;
const LOOKUPS: usize = 60_000;
const VM_STEPS: usize = 800_000;
/// Timings of each kernel per checkpoint; the checkpoint takes their
/// median.
const REPS: usize = 3;
/// A checkpoint closer than this to the previous one is skipped, so
/// frequent checkpoints cost a bounded share of the interval.
const MIN_STRETCH_S: f64 = 0.25;

fn table() -> &'static [u64] {
    static TABLE: OnceLock<&'static [u64]> = OnceLock::new();
    TABLE.get_or_init(|| {
        // From the system allocator, not the counting one, so the
        // table does not show in `peak_heap_mb`. It lives as long as
        // the process.
        let layout = Layout::array::<u64>(TABLE_WORDS).expect("table layout");
        // SAFETY: the layout is non-zero; a null pointer is checked.
        let ptr = unsafe { System.alloc(layout) } as *mut u64;
        assert!(!ptr.is_null(), "cannot allocate the gauge table");
        // SAFETY: `ptr` holds `TABLE_WORDS` u64s and is never freed.
        let t = unsafe { std::slice::from_raw_parts_mut(ptr, TABLE_WORDS) };
        let mut z = 0x2545_f491_4f6c_dd1du64;
        for w in t.iter_mut() {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            *w = z;
        }
        t
    })
}

/// Dependent lookups: each address depends on the last word read.
fn lookups(t: &[u64]) -> u64 {
    let mask = t.len() - 1;
    let (mut pc, mut acc) = (0usize, 0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..LOOKUPS {
        let op = t[pc];
        let data = t[(op ^ (acc & 0xff)) as usize & mask];
        acc = match op & 3 {
            0 => acc.wrapping_add(data),
            1 => acc ^ data.rotate_left(17),
            2 => acc.wrapping_mul(data | 1),
            _ => acc.rotate_right(9).wrapping_sub(data),
        };
        pc = if op & 0x70 == 0 {
            data as usize & mask
        } else {
            (pc + 1) & mask
        };
    }
    acc
}

/// A fixed pseudo-random program of 256 instructions on a 16-register
/// machine with 4 KB of memory.
fn interpret() -> u64 {
    let mut prog = [0u32; 256];
    let mut z = 0x1234_5678u32;
    for p in prog.iter_mut() {
        z ^= z << 13;
        z ^= z >> 17;
        z ^= z << 5;
        *p = z;
    }
    let mut regs = [1u64; 16];
    let mut mem = [0u64; 512];
    let mut pc = 0usize;
    for _ in 0..VM_STEPS {
        let ins = black_box(prog[pc]);
        let field = |shift: u32| (ins >> shift & 15) as usize;
        let (a, b, c) = (field(8), field(12), field(16));
        let addr = |base: u64| (base as usize ^ (ins >> 20) as usize) & 511;
        pc = (pc + 1) & 255;
        match ins & 7 {
            0 => regs[a] = regs[b].wrapping_add(regs[c]),
            1 => regs[a] = regs[b] ^ regs[c].rotate_left(3),
            2 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
            3 => regs[a] = mem[addr(regs[b])],
            4 => mem[addr(regs[b])] = regs[c],
            5 if regs[b] & 1 == 0 => pc = (ins >> 20) as usize & 255,
            6 => regs[a] = regs[b] >> (regs[c] & 31),
            7 if regs[b] > regs[c] => pc = (ins >> 24) as usize & 255,
            _ => {}
        }
    }
    regs.iter().fold(0, |x, r| x ^ r)
}

/// Median seconds of `REPS` calls of `f`.
fn median_time(f: impl Fn() -> u64) -> f64 {
    let mut times = [0.0; REPS];
    for x in &mut times {
        let start = Instant::now();
        black_box(f());
        *x = start.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// The gauge now: the geometric mean of the two kernels' times, in
/// seconds. Recorded as a `bench.gauge` span in traced runs.
fn sample() -> f64 {
    let start = trace::now();
    let t = table();
    let g = (median_time(|| lookups(black_box(t))) * median_time(interpret)).sqrt();
    trace::record("bench.gauge", start, trace::now());
    g
}

struct Meter {
    /// Gauge at the last checkpoint.
    gauge_s: f64,
    /// When the last checkpoint's gauge ended.
    mark: Instant,
    raw_s: f64,
    scaled_s: f64,
}

static METER: Mutex<Option<Meter>> = Mutex::new(None);

fn meter() -> std::sync::MutexGuard<'static, Option<Meter>> {
    METER.lock().unwrap_or_else(|e| e.into_inner())
}

/// A timed interval: its host seconds, with the gauge's own time left
/// out, and the same at the nominal host speed.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub raw_s: f64,
    pub scaled_s: f64,
}

impl Interval {
    /// Nominal over actual host speed during the interval.
    pub fn factor(&self) -> f64 {
        self.scaled_s / self.raw_s
    }
}

/// Start a timed interval.
fn start() {
    let gauge_s = sample();
    *meter() = Some(Meter {
        gauge_s,
        mark: Instant::now(),
        raw_s: 0.0,
        scaled_s: 0.0,
    });
}

fn close_stretch(m: &mut Meter) {
    let stretch = m.mark.elapsed().as_secs_f64();
    let gauge_s = sample();
    m.raw_s += stretch;
    m.scaled_s += stretch * NOMINAL_S * 2.0 / (m.gauge_s + gauge_s);
    m.gauge_s = gauge_s;
    m.mark = Instant::now();
}

/// Gauge the host between two pieces of the interval's work; skipped
/// outside an interval and when the last checkpoint was too recent.
pub fn checkpoint() {
    if let Some(m) = meter().as_mut() {
        if m.mark.elapsed().as_secs_f64() >= MIN_STRETCH_S {
            close_stretch(m);
        }
    }
}

/// End the interval started by [`start`].
fn stop() -> Interval {
    let mut m = meter().take().expect("gauge::stop without gauge::start");
    close_stretch(&mut m);
    Interval {
        raw_s: m.raw_s,
        scaled_s: m.scaled_s,
    }
}

/// Time `f` as one interval.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    start();
    let out = f();
    (out, stop())
}
