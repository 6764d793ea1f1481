//! The iterate-to-fixed-point driver: profile → verify-gate → decide
//! → measure-each → fold accepted decisions → repeat.
//!
//! Independent simulations run concurrently, one per core: a round's
//! profiling collections, and its candidate measurements in batches.
//! Only the simulations leave the caller's thread; every
//! [`Workload`] call and every decision stays on it, in a fixed
//! order, so the report is the same at any core count.
//!
//! Two invariants the driver enforces that the paper's authors
//! enforced by hand:
//!
//! * **no decision from a corrupted profile** — every profiled run is
//!   replayed through `mp-verify`'s differential oracle first, and a
//!   round whose backtracked attribution precision falls below
//!   threshold is *gated*: its profile produces no decisions at all;
//! * **no decision that changes the answer** — every candidate is run
//!   unprofiled and its program output must be byte-identical to the
//!   current best (workloads can add stronger checks: MCF re-verifies
//!   against the min-cost-flow oracle).

use memprof_core::analyze::Analysis;
use memprof_core::batch::capped_workers;
use memprof_core::verify::{verify_experiment, Verdict};
use memprof_core::{collect, parse_counter_spec, CollectConfig, Experiment};
use minic::{CompileOptions, Feedback, Program};
use simsparc_machine::{EventCounts, Machine, MachineConfig, NullHook, RunOutcome, HEAP_BASE};

use crate::decide::{decide, DecideConfig, Decision};

/// A workload the driver can optimize: anything that can be compiled
/// by `minic` under a feedback file, staged onto the machine, and
/// semantically validated after a run.
///
/// The driver calls every method from the caller's thread only, and
/// never while one of its simulations is running: it compiles and
/// stages a batch of runs, simulates the batch on worker threads,
/// joins them, and only then validates. Compiles, stages and
/// validations each keep the order of a one-at-a-time loop, so an
/// implementation needs no `Send` or `Sync` and may keep plain
/// interior-mutable state.
pub trait Workload {
    fn name(&self) -> &str;
    /// Compile under the given options and feedback state.
    fn compile(&self, options: CompileOptions, feedback: &Feedback) -> Result<Program, String>;
    /// Write workload inputs into the loaded image's globals.
    fn stage(&self, machine: &mut Machine, program: &Program);
    /// Check a finished run beyond exit-code-zero (e.g. against an
    /// oracle). Output equality across variants is checked by the
    /// driver itself.
    fn validate(&self, outcome: &RunOutcome) -> Result<(), String>;
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct OptConfig {
    /// Baseline machine; a `pagesize_heap` decision overrides only
    /// `heap_page_bytes`.
    pub machine: MachineConfig,
    /// Counter specs to collect per round, with clock-profiling flag
    /// (the paper's E1/E2 pair by default).
    pub counter_specs: Vec<(String, bool)>,
    /// Clock-profiling period in cycles.
    pub clock_period_cycles: u64,
    /// Instruction budget per simulated run.
    pub max_insns: u64,
    /// Stop after this many profile→decide→measure rounds.
    pub max_rounds: usize,
    /// Fractional cycle improvement a candidate must deliver.
    pub min_gain: f64,
    /// Minimum exact-attribution precision (percent) over the
    /// backtracked counters for a profile to be trusted.
    pub verify_min_precision: f64,
    /// Decision-engine thresholds.
    pub decide: DecideConfig,
}

impl OptConfig {
    /// Defaults for a machine: the paper's two experiments with
    /// test-scale intervals, three rounds, 0.3% acceptance bar.
    pub fn for_machine(machine: MachineConfig) -> OptConfig {
        OptConfig {
            counter_specs: vec![
                ("+ecstall,20011,+ecrm,211".to_string(), true),
                ("+ecref,997,+dtlbm,53".to_string(), false),
            ],
            clock_period_cycles: 10007,
            max_insns: 4_000_000_000,
            max_rounds: 3,
            min_gain: 0.003,
            verify_min_precision: 70.0,
            decide: DecideConfig::for_machine(&machine),
            machine,
        }
    }

    fn machine_for(&self, feedback: &Feedback) -> MachineConfig {
        match feedback.heap_page_bytes {
            Some(p) => self.machine.clone().with_heap_page_bytes(p),
            None => self.machine.clone(),
        }
    }
}

/// An unprofiled reference run.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub counts: EventCounts,
    pub output: String,
}

impl Measurement {
    /// The §3.3 memory-stall metric: E$ stall plus the DTLB penalty.
    pub fn mem_stall(&self, tlb_miss_penalty: u64) -> u64 {
        self.counts.ec_stall_cycles + self.counts.dtlb_miss * tlb_miss_penalty
    }
}

/// One measured candidate decision.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub round: usize,
    pub decision: Decision,
    pub describe: String,
    /// Round-start reference the candidate was measured against.
    pub before: Measurement,
    /// The candidate's own unprofiled run (absent if it failed to
    /// compile or run — which is itself a rejection).
    pub after: Option<Measurement>,
    pub accepted: bool,
    pub reject_reason: Option<String>,
}

impl Candidate {
    /// Fractional cycle improvement over the round-start reference.
    pub fn gain(&self) -> f64 {
        match &self.after {
            Some(m) => 1.0 - m.counts.cycles as f64 / self.before.counts.cycles as f64,
            None => 0.0,
        }
    }

    /// Fractional improvement of the memory-stall metric.
    pub fn mem_stall_gain(&self, tlb_miss_penalty: u64) -> f64 {
        match &self.after {
            Some(m) => {
                let before = self.before.mem_stall(tlb_miss_penalty).max(1);
                1.0 - m.mem_stall(tlb_miss_penalty) as f64 / before as f64
            }
            None => 0.0,
        }
    }
}

/// One profile→decide→measure round.
#[derive(Clone, Debug)]
pub struct Round {
    pub index: usize,
    /// Worst exact-attribution precision over backtracked counters.
    pub verify_min_precision: f64,
    /// True if the verify gate rejected this round's profile.
    pub gated: bool,
    pub candidates: Vec<Candidate>,
}

impl Round {
    pub fn accepted(&self) -> usize {
        self.candidates.iter().filter(|c| c.accepted).count()
    }
}

/// The driver's full account of an optimization run.
#[derive(Clone, Debug)]
pub struct OptReport {
    pub workload: String,
    pub baseline: Measurement,
    pub final_measurement: Measurement,
    pub rounds: Vec<Round>,
    /// The feedback state at exit — the file a build system would
    /// check in next to the source.
    pub feedback: Feedback,
    /// True if a round produced no (accepted) decisions, i.e. the
    /// loop converged rather than hitting `max_rounds`.
    pub fixed_point: bool,
    /// For rendering the memory-stall metric.
    pub tlb_miss_penalty: u64,
}

impl OptReport {
    /// Combined fractional cycle improvement over the baseline.
    pub fn total_gain(&self) -> f64 {
        1.0 - self.final_measurement.counts.cycles as f64 / self.baseline.counts.cycles as f64
    }

    /// Combined fractional memory-stall improvement.
    pub fn total_mem_stall_gain(&self) -> f64 {
        let before = self.baseline.mem_stall(self.tlb_miss_penalty).max(1);
        1.0 - self.final_measurement.mem_stall(self.tlb_miss_penalty) as f64 / before as f64
    }

    /// All candidates across rounds, in evaluation order.
    pub fn candidates(&self) -> impl Iterator<Item = &Candidate> {
        self.rounds.iter().flat_map(|r| r.candidates.iter())
    }

    /// Human-readable report (the tool's default output).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "mp-opt: {}", self.workload);
        let _ = writeln!(
            out,
            "baseline: {} cycles, {} mem-stall",
            self.baseline.counts.cycles,
            self.baseline.mem_stall(self.tlb_miss_penalty)
        );
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "round {}: verify precision {:.1}%{}",
                r.index,
                r.verify_min_precision,
                if r.gated {
                    " — GATED, profile rejected"
                } else {
                    ""
                }
            );
            for c in &r.candidates {
                let verdict = if c.accepted {
                    "accepted".to_string()
                } else {
                    format!(
                        "rejected ({})",
                        c.reject_reason.as_deref().unwrap_or("no gain")
                    )
                };
                let _ = writeln!(
                    out,
                    "  {:<52} {:>6.1}% cycles {:>6.1}% mem-stall  {}",
                    c.describe,
                    100.0 * c.gain(),
                    100.0 * c.mem_stall_gain(self.tlb_miss_penalty),
                    verdict
                );
            }
        }
        let _ = writeln!(
            out,
            "combined: {} cycles ({:+.1}%), {} mem-stall ({:+.1}%){}",
            self.final_measurement.counts.cycles,
            -100.0 * self.total_gain(),
            self.final_measurement.mem_stall(self.tlb_miss_penalty),
            -100.0 * self.total_mem_stall_gain(),
            if self.fixed_point {
                " — fixed point"
            } else {
                " — round budget exhausted"
            }
        );
        if !self.feedback.is_empty() {
            let _ = writeln!(out, "feedback file:\n{}", self.feedback.to_text());
        }
        out
    }
}

/// Driver errors (baseline failures are fatal; per-candidate failures
/// are recorded as rejections instead).
#[derive(Debug)]
pub struct OptError(pub String);

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mp-opt: {}", self.0)
    }
}

impl std::error::Error for OptError {}

/// Run `n` independent jobs, `width` at a time. For each batch,
/// `stage(i)` prepares job `i` on the caller's thread, in input order;
/// the batch's `run` calls then execute concurrently on scoped worker
/// threads (the caller's thread takes the batch's last job); after
/// they have all joined, `finish(i, result)` consumes each result on
/// the caller's thread, again in input order. Nothing of the caller's
/// runs while a batch is in flight, and the output is in input order
/// whatever the width.
fn in_batches<S: Send, R: Send, T>(
    n: usize,
    width: usize,
    mut stage: impl FnMut(usize) -> S,
    run: impl Fn(S) -> R + Sync,
    mut finish: impl FnMut(usize, R) -> T,
) -> Vec<T> {
    let run = &run;
    let width = width.max(1);
    let mut out = Vec::with_capacity(n);
    for start in (0..n).step_by(width) {
        let batch: Vec<S> = (start..n.min(start + width)).map(&mut stage).collect();
        let results = std::thread::scope(|scope| {
            let mut batch = batch;
            let last = batch.pop().expect("a batch holds at least one job");
            let workers: Vec<_> = batch
                .into_iter()
                .map(|job| scope.spawn(move || run(job)))
                .collect();
            let last = run(last);
            let mut results: Vec<R> = workers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect();
            results.push(last);
            results
        });
        for (k, r) in results.into_iter().enumerate() {
            out.push(finish(start + k, r));
        }
    }
    out
}

/// Compile + run the workload unprofiled under each feedback state,
/// `width` simulations at a time. Each state's result sits at its own
/// index: a compile or machine failure rejects only that state.
fn measure_batch(
    w: &dyn Workload,
    cfg: &OptConfig,
    states: &[Feedback],
    width: usize,
) -> Vec<Result<Measurement, String>> {
    let options = CompileOptions {
        hwcprof: false,
        dwarf: false,
        prefetch: true,
        opt: true,
    };
    in_batches(
        states.len(),
        width,
        |i| {
            let program = w.compile(options, &states[i])?;
            let mut machine = Machine::new(cfg.machine_for(&states[i]));
            machine.load(&program.image);
            w.stage(&mut machine, &program);
            Ok(machine)
        },
        |staged: Result<Machine, String>| {
            staged?
                .run(cfg.max_insns, &mut NullHook)
                .map_err(|e| format!("machine error: {e}"))
        },
        |_, outcome| {
            let outcome = outcome?;
            if outcome.exit_code != 0 {
                return Err(format!("exit code {}", outcome.exit_code));
            }
            w.validate(&outcome)?;
            Ok(Measurement {
                counts: outcome.counts,
                output: outcome.output,
            })
        },
    )
}

/// Compile + run the workload unprofiled under one feedback state.
fn measure(w: &dyn Workload, cfg: &OptConfig, feedback: &Feedback) -> Result<Measurement, String> {
    measure_batch(w, cfg, std::slice::from_ref(feedback), 1)
        .pop()
        .expect("one state, one result")
}

/// Profile the workload under every configured counter spec, the
/// collections running concurrently. Returns the profiled program,
/// the experiments, and the heap footprint.
fn profile(
    w: &dyn Workload,
    cfg: &OptConfig,
    feedback: &Feedback,
) -> Result<(Program, Vec<Experiment>, u64), String> {
    let options = CompileOptions {
        hwcprof: true,
        dwarf: true,
        prefetch: true,
        opt: true,
    };
    let program = w.compile(options, feedback)?;
    let heap_ptr = program.global_addr("__heap_ptr");
    let collected = in_batches(
        cfg.counter_specs.len(),
        capped_workers(0),
        |i| {
            let (spec, clock) = &cfg.counter_specs[i];
            let counters =
                parse_counter_spec(spec).map_err(|e| format!("bad counter spec: {e}"))?;
            let mut machine = Machine::new(cfg.machine_for(feedback));
            machine.load(&program.image);
            w.stage(&mut machine, &program);
            let config = CollectConfig {
                counters,
                clock_profiling: *clock,
                clock_period_cycles: cfg.clock_period_cycles,
                max_insns: cfg.max_insns,
            };
            Ok((machine, config))
        },
        |staged: Result<(Machine, CollectConfig), String>| {
            let (mut machine, config) = staged?;
            let exp = collect(&mut machine, &config).map_err(|e| format!("collect failed: {e}"))?;
            if exp.run.exit_code != 0 {
                return Err(format!("profiled run exited {}", exp.run.exit_code));
            }
            // Heap footprint: the runtime allocator's bump pointer.
            let heap_bytes = heap_ptr
                .and_then(|addr| machine.mem().read_u64(addr))
                .map_or(0, |p| p.saturating_sub(HEAP_BASE));
            Ok((exp, heap_bytes))
        },
        |_, r| r,
    );
    let mut exps = Vec::new();
    let mut heap_bytes = 0u64;
    for r in collected {
        let (exp, heap) = r?;
        heap_bytes = heap_bytes.max(heap);
        exps.push(exp);
    }
    Ok((program, exps, heap_bytes))
}

/// Worst *data-address* precision over the backtracked counters of a
/// set of experiments — the verify gate's input.
///
/// Exact-PC precision is the wrong gate for data-centric decisions:
/// counter skid legitimately lands a stall event on a neighboring
/// instruction (`WrongPc`) while the reconstructed effective address —
/// the thing the data-object views aggregate — is still correct. What
/// corrupts a decision is a *wrong address* (`WrongEa`): the event is
/// charged to the wrong object entirely. So the gate scores
/// `(Exact + WrongPc) / attributed` per backtracked counter.
fn min_backtracked_precision(exps: &[Experiment], program: &Program) -> f64 {
    let mut min = 100.0f64;
    for exp in exps {
        let report = verify_experiment(exp, &program.syms);
        for c in report.counters.iter().filter(|c| c.backtrack) {
            let attributed = c.attributed();
            if attributed == 0 {
                continue; // no claims, no lies
            }
            let addr_ok = c.verdict_total(Verdict::Exact) + c.verdict_total(Verdict::WrongPc);
            min = min.min(100.0 * addr_ok as f64 / attributed as f64);
        }
    }
    min
}

/// Run the full feedback-directed optimization loop.
pub fn optimize(w: &dyn Workload, cfg: &OptConfig) -> Result<OptReport, OptError> {
    let mut state = Feedback::default();
    let baseline = measure(w, cfg, &state).map_err(|e| OptError(format!("baseline: {e}")))?;
    let mut current = baseline.clone();
    let mut rounds = Vec::new();
    let mut fixed_point = false;

    for index in 1..=cfg.max_rounds {
        let (program, exps, heap_bytes) =
            profile(w, cfg, &state).map_err(|e| OptError(format!("round {index}: {e}")))?;

        // §2.3 verify gate: a profile whose backtracked attribution
        // cannot be trusted produces no decisions.
        let precision = min_backtracked_precision(&exps, &program);
        if precision < cfg.verify_min_precision {
            rounds.push(Round {
                index,
                verify_min_precision: precision,
                gated: true,
                candidates: Vec::new(),
            });
            break;
        }

        let refs: Vec<&Experiment> = exps.iter().collect();
        let analysis = Analysis::new(&refs, &program.syms);
        let mut decide_cfg = cfg.decide.clone();
        decide_cfg.heap_page_bytes = cfg.machine_for(&state).heap_page_bytes;
        let proposals = decide(&analysis, heap_bytes, &decide_cfg, &state);
        if proposals.is_empty() {
            fixed_point = true;
            rounds.push(Round {
                index,
                verify_min_precision: precision,
                gated: false,
                candidates: Vec::new(),
            });
            break;
        }

        // Measure each candidate in isolation against the round-start
        // reference; the accepted set is folded together afterwards.
        let mut round = Round {
            index,
            verify_min_precision: precision,
            gated: false,
            candidates: Vec::new(),
        };
        let trials: Vec<Feedback> = proposals
            .iter()
            .map(|d| {
                let mut trial = state.clone();
                d.apply(&mut trial);
                trial
            })
            .collect();
        let measured = measure_batch(w, cfg, &trials, capped_workers(0));
        let mut best: Option<(usize, u64)> = None;
        for (d, result) in proposals.into_iter().zip(measured) {
            let mut cand = Candidate {
                round: index,
                describe: d.describe(),
                decision: d,
                before: current.clone(),
                after: None,
                accepted: false,
                reject_reason: None,
            };
            match result {
                Ok(m) => {
                    if m.output != current.output {
                        cand.reject_reason = Some("output changed".to_string());
                    } else {
                        let gain = 1.0 - m.counts.cycles as f64 / current.counts.cycles as f64;
                        if gain >= cfg.min_gain {
                            cand.accepted = true;
                            let cycles = m.counts.cycles;
                            if best.is_none_or(|(_, c)| cycles < c) {
                                best = Some((round.candidates.len(), cycles));
                            }
                        } else {
                            cand.reject_reason =
                                Some(format!("gain {:.2}% below bar", gain * 100.0));
                        }
                    }
                    cand.after = Some(m);
                }
                Err(e) => cand.reject_reason = Some(e),
            }
            round.candidates.push(cand);
        }

        if round.accepted() == 0 {
            fixed_point = true;
            rounds.push(round);
            break;
        }

        // Fold all accepted decisions and re-measure the combination.
        let mut combined = state.clone();
        for c in round.candidates.iter().filter(|c| c.accepted) {
            c.decision.apply(&mut combined);
        }
        let (bi, best_cycles) = best.expect("accepted round has a best candidate");
        match measure(w, cfg, &combined) {
            Ok(m) if m.output == current.output && m.counts.cycles <= best_cycles => {
                state = combined;
                current = m;
            }
            _ => {
                // Accepted decisions interfere when combined — the
                // fold came out worse than the best candidate alone:
                // fall back to that single decision (which was
                // measured and accepted on its own).
                round.candidates[bi].decision.apply(&mut state);
                current = round.candidates[bi]
                    .after
                    .clone()
                    .expect("accepted candidate was measured");
            }
        }
        rounds.push(round);
    }

    Ok(OptReport {
        workload: w.name().to_string(),
        baseline,
        final_measurement: current,
        rounds,
        feedback: state,
        fixed_point,
        tlb_miss_penalty: cfg.machine.tlb_miss_penalty,
    })
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    use simsparc_machine::MachineConfig;

    use super::*;

    #[derive(Debug, PartialEq)]
    enum Call {
        Stage(usize),
        Finish(usize),
    }

    /// `in_batches` over `n` jobs: the call log, the thread each job
    /// ran on, the results, and the most jobs seen running at once.
    /// Each job waits on a barrier as wide as its batch, so the test
    /// hangs unless a whole batch is in flight at once.
    fn run_jobs(n: usize, width: usize) -> (Vec<Call>, Vec<ThreadId>, Vec<usize>, usize) {
        let barriers: Vec<Barrier> = (0..n)
            .step_by(width)
            .map(|start| Barrier::new(width.min(n - start)))
            .collect();
        let log = RefCell::new(Vec::new());
        let (in_flight, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let mut ran_on = Vec::new();
        let out = in_batches(
            n,
            width,
            |i| {
                log.borrow_mut().push(Call::Stage(i));
                i
            },
            |i| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(now, Ordering::SeqCst);
                barriers[i / width].wait();
                in_flight.fetch_sub(1, Ordering::SeqCst);
                (i * 10, thread::current().id())
            },
            |i, (r, id)| {
                log.borrow_mut().push(Call::Finish(i));
                ran_on.push(id);
                r
            },
        );
        (log.into_inner(), ran_on, out, most.into_inner())
    }

    #[test]
    fn batches_keep_input_order_at_any_width() {
        let me = thread::current().id();
        for width in [1, 2, 8] {
            let (log, ran_on, out, most) = run_jobs(5, width);
            assert_eq!(out, vec![0, 10, 20, 30, 40], "width {width}");
            assert_eq!(most, width.min(5), "width {width}");
            // Each batch is staged in order, then finished in order,
            // before the next batch is staged.
            let mut want = Vec::new();
            for start in (0..5).step_by(width) {
                let batch = start..(start + width).min(5);
                want.extend(batch.clone().map(Call::Stage));
                want.extend(batch.map(Call::Finish));
            }
            assert_eq!(log, want, "width {width}");
            // The last job of a batch runs on the caller's thread, the
            // others on workers.
            for (i, id) in ran_on.iter().enumerate() {
                let last_of_batch = i % width == width - 1 || i == 4;
                assert_eq!(*id == me, last_of_batch, "width {width}, job {i}");
            }
        }
    }

    /// A workload whose source depends on the requested heap page
    /// size, so one batch can hold good, looping and broken programs.
    struct ByPageSize;

    impl Workload for ByPageSize {
        fn name(&self) -> &str {
            "by-page-size"
        }

        fn compile(&self, options: CompileOptions, feedback: &Feedback) -> Result<Program, String> {
            let src = match feedback.heap_page_bytes {
                None => "long main() { print_long(1); return 0; }",
                Some(65536) => "long main() { long i = 0; while (1) { i = i + 1; } return i; }",
                Some(524288) => "long main() { return 0 }",
                Some(_) => "long main() { print_long(4); return 0; }",
            };
            minic::compile_and_link_with_feedback(&[("t.c", src)], options, feedback)
                .map_err(|e| e.to_string())
        }

        fn stage(&self, _machine: &mut Machine, _program: &Program) {}

        fn validate(&self, _outcome: &RunOutcome) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_job_is_rejected_at_its_own_index() {
        let mut cfg = OptConfig::for_machine(MachineConfig::default());
        cfg.max_insns = 100_000;
        let page = |bytes| Feedback {
            heap_page_bytes: bytes,
            ..Feedback::default()
        };
        let states = [
            page(None),
            page(Some(65536)),
            page(Some(4 << 20)),
            page(Some(524288)),
            page(None),
        ];
        let reference = measure_batch(&ByPageSize, &cfg, &states, 1);
        for width in [1, 2, 8] {
            let got = measure_batch(&ByPageSize, &cfg, &states, width);
            assert_eq!(got.len(), states.len());
            assert_eq!(got[0].as_ref().unwrap().output, "1\n", "width {width}");
            let limit = got[1].as_ref().unwrap_err();
            assert!(
                limit.contains("instruction limit"),
                "width {width}: {limit}"
            );
            assert_eq!(got[2].as_ref().unwrap().output, "4\n", "width {width}");
            assert!(got[3].is_err(), "width {width}: broken source compiled");
            assert_eq!(got[4].as_ref().unwrap().output, "1\n", "width {width}");
            for (a, b) in got.iter().zip(&reference) {
                match (a, b) {
                    (Ok(a), Ok(b)) => assert_eq!((a.counts, &a.output), (b.counts, &b.output)),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    _ => panic!("width {width} disagrees with width 1"),
                }
            }
        }
    }
}
