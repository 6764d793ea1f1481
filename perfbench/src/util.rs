//! Shared pieces: the run context, the per-workload report, order
//! statistics, and small host measurements.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a workload is asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Measurement budget: jobs start only while they are expected to
    /// end within it.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, removed when the run ends.
    pub work: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (a failed output check is a
    /// failed operation).
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed.
    pub problems: Vec<String>,
    /// Seconds per set-up at the gauge's nominal host speed, one entry
    /// per group of set-ups timed together.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed job at the gauge's nominal host speed
    /// (for `serve_mixed`, also scaled to the bytes a default-seed round
    /// ingests).
    pub job_s: Vec<f64>,
    /// The same jobs' host seconds as measured.
    pub job_raw_s: Vec<f64>,
    pub ea_precision_pct: f64,
    /// Peak live heap of each timed job, in MB.
    pub peak_heap_mb: Vec<f64>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Exact counts that must repeat bit-identically.
    pub exact: BTreeMap<&'static str, String>,
}

impl Report {
    /// Count one operation; a `Some` problem makes it a failed one.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Count a check of `actual` against `expected` as one operation.
    pub fn check_eq(&mut self, what: &str, expected: &str, actual: &str) {
        self.op((expected != actual).then(|| format!("{what}: output differs from reference")));
    }

    /// Record an exact count; a different value for the same key later
    /// in the run fails the run.
    pub fn exact(&mut self, key: &'static str, value: impl ToString) {
        let value = value.to_string();
        if let Some(old) = self.exact.get(key) {
            if *old != value {
                self.op(Some(format!(
                    "{key} drifted within the run: {old} -> {value}"
                )));
            }
        }
        self.exact.insert(key, value);
    }
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile (`p` in 0..=100); NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Run one timed job, recording its peak live heap.
pub fn heap_measured<T>(r: &mut Report, f: impl FnOnce() -> T) -> T {
    crate::heap::reset_peak();
    let out = f();
    r.peak_heap_mb.push(crate::heap::peak_mb());
    out
}

/// Time a closure in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Set up `groups × per_group` times and return the last set-up. Each
/// group is timed as one interval, at the gauge's nominal host speed,
/// and adds its mean per set-up to `setup_s`, so a set-up of a few
/// milliseconds is timed over a span long enough to resolve above the
/// host's noise.
pub fn set_up<T>(
    r: &mut Report,
    groups: usize,
    per_group: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..groups {
        let (group, iv) = crate::gauge::measured(|| {
            (0..per_group).try_for_each(|_| {
                last = Some(setup()?);
                Ok::<(), String>(())
            })
        });
        group?;
        r.setup_s.push(iv.scaled_s / per_group as f64);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Run `job` until the budget is spent: after the first `min_jobs`,
/// another iteration starts only if the previous one's duration still
/// fits.
pub fn for_budget(
    seconds: f64,
    min_jobs: usize,
    mut job: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    for n in 1.. {
        let (r, took) = timed(&mut job);
        r?;
        if n >= min_jobs && start.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    Ok(())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// A symbol table's text form, as `mp-collect` attaches it.
pub fn syms_text(syms: &minic::SymbolTable, scratch: &Path) -> Result<String, String> {
    let path = scratch.join("syms.txt");
    syms.save(&path).map_err(|e| format!("save syms: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read syms: {e}"))?;
    let _ = std::fs::remove_file(&path);
    Ok(text)
}

/// Lowest data-address precision over the backtracked counters of
/// `exps`: `(Exact + WrongPc) / attributed` per counter, the rule of
/// `mp-opt`'s verify gate.
pub fn ea_precision_pct(exps: &[&memprof_core::Experiment], syms: &minic::SymbolTable) -> f64 {
    use memprof_core::verify::{verify_experiment, Verdict};
    let mut min = 100.0f64;
    for exp in exps {
        let report = {
            let _s = crate::trace::span("core.verify");
            verify_experiment(exp, syms)
        };
        for c in report.counters.iter().filter(|c| c.backtrack) {
            let attributed = c.attributed();
            if attributed > 0 {
                let ok = c.verdict_total(Verdict::Exact) + c.verdict_total(Verdict::WrongPc);
                min = min.min(100.0 * ok as f64 / attributed as f64);
            }
        }
    }
    min
}

/// The collection recipe a seed generates. At the workload's default
/// seed it is the nominal recipe; any other seed moves every overflow
/// interval and the clock period to a prime within ±5% of nominal.
/// The profiled program and its input stay the same, so every seed
/// simulates the same work and samples it differently.
pub struct Recipe {
    state: Option<u64>,
}

impl Recipe {
    pub fn new(seed: u64, default_seed: u64) -> Recipe {
        Recipe {
            state: (seed != default_seed).then_some(seed),
        }
    }

    /// `nominal`, or a prime near it.
    pub fn interval(&mut self, nominal: u64) -> u64 {
        let Some(state) = &mut self.state else {
            return nominal;
        };
        // splitmix64
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let u = (z ^ (z >> 31)) as f64 / u64::MAX as f64;
        let mut n = ((nominal as f64 * (0.95 + 0.1 * u)) as u64).max(2);
        while (2..)
            .take_while(|d| d * d <= n)
            .any(|d| n.is_multiple_of(d))
        {
            n += 1;
        }
        n
    }

    /// A counter spec (`name,interval,...`) with its intervals moved.
    pub fn spec(&mut self, spec: &str) -> String {
        spec.split(',')
            .map(|part| match part.parse::<u64>() {
                Ok(v) => self.interval(v).to_string(),
                Err(_) => part.to_string(),
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// The min-cost-flow optimum of an instance (`None` if infeasible),
/// solved once in set-up as the reference answer.
pub fn oracle_cost(instance: &mcf::Instance) -> Option<i64> {
    let _s = crate::trace::span("mcf.oracle");
    match mcf::McfProblem::from_instance(instance).solve() {
        mcf::OracleResult::Optimal { cost, .. } => Some(cost),
        mcf::OracleResult::Infeasible => None,
    }
}

/// `mcf::verify_against_oracle`'s rule, against the reference answer:
/// the run is clean and its objective equals the optimum.
pub fn agrees_with_oracle(
    outcome: &simsparc_machine::RunOutcome,
    oracle: Option<i64>,
) -> Option<String> {
    let _s = crate::trace::span("mcf.validate");
    let result = match mcf::parse_result(outcome) {
        Ok(r) => r,
        Err(e) => return Some(format!("unparseable mcf output: {e}")),
    };
    match oracle {
        _ if result.violations != 0 => Some(format!("{} dual violations", result.violations)),
        _ if result.artificial_flow != 0 => Some(format!(
            "{} units of residual artificial flow",
            result.artificial_flow
        )),
        None => Some("oracle says infeasible".to_string()),
        Some(cost) if cost != result.cost => Some(format!(
            "mcf result disagrees with the oracle: simplex {} vs oracle {cost}",
            result.cost
        )),
        Some(_) => None,
    }
}
