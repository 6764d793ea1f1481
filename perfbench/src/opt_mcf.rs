//! `opt_mcf`: the §3.3 feedback-directed optimization loop on MCF
//! with `mp-opt mcf`'s defaults, run to its fixed point.
//!
//! Most of its simulation runs unprofiled, between repeated feedback
//! compiles and oracle validations; it is the only workload that runs
//! `memprof_opt` and `minic`'s feedback path.

use std::cell::Cell;

use mcf::{Instance, InstanceParams};
use memprof_opt::{optimize, McfWorkload, OptConfig, OptReport, Workload};
use minic::{CompileOptions, Feedback, Program};
use simsparc_machine::{Machine, NullHook, RunOutcome};

use crate::util::{
    agrees_with_oracle, heap_measured, oracle_cost, set_up, timed, Ctx, Recipe, Report,
};
use crate::{gauge, trace};

/// `mp-opt mcf` defaults.
const N_TRIPS: usize = 220;
const WINDOW: usize = 40;
const INSTANCE_SEED: u64 = 18;
/// The benchmark seed whose recipe is `mp-opt`'s default, where the
/// reference report applies.
const DEFAULT_SEED: u64 = 18;
/// Jobs per run at least; the run reports their median. At the
/// gauge's nominal speed, jobs of one run agree within about 4%.
const JOBS: usize = 2;
/// Set-up takes about 8 ms: it is timed in groups of 8, five times.
const SETUP_GROUPS: usize = 5;
const SETUPS_PER_GROUP: usize = 8;

/// `McfWorkload` with counters, and spans around each call the
/// optimizer makes into it; the host is gauged before each call. The interval between staging an
/// unprofiled run and validating its outcome is the simulator's run.
struct Observed {
    inner: McfWorkload,
    compiles: Cell<u64>,
    runs: Cell<u64>,
    profiled: Cell<bool>,
    run_start: Cell<Option<u64>>,
}

impl Workload for Observed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compile(&self, options: CompileOptions, feedback: &Feedback) -> Result<Program, String> {
        gauge::checkpoint();
        let _s = trace::span("minic.compile");
        self.compiles.set(self.compiles.get() + 1);
        self.profiled.set(options.hwcprof);
        self.inner.compile(options, feedback)
    }

    fn stage(&self, machine: &mut Machine, program: &Program) {
        gauge::checkpoint();
        {
            let _s = trace::span("mcf.stage");
            self.runs.set(self.runs.get() + 1);
            self.inner.stage(machine, program);
        }
        if !self.profiled.get() && trace::enabled() {
            self.run_start.set(Some(trace::now()));
        }
    }

    fn validate(&self, outcome: &RunOutcome) -> Result<(), String> {
        if let Some(start) = self.run_start.take() {
            trace::record("machine.run", start, trace::now());
        }
        gauge::checkpoint();
        let _s = trace::span("mcf.validate");
        self.inner.validate(outcome)
    }
}

struct Setup {
    workload: Observed,
    oracle: Option<i64>,
    config: OptConfig,
    /// `mp-opt mcf`'s report at the default seed.
    reference: Option<String>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let instance = Instance::generate(InstanceParams {
        n_trips: N_TRIPS,
        window: WINDOW,
        seed: INSTANCE_SEED,
        ..Default::default()
    });
    let workload = Observed {
        inner: McfWorkload::new(instance),
        compiles: Cell::new(0),
        runs: Cell::new(0),
        profiled: Cell::new(false),
        run_start: Cell::new(None),
    };
    // The baseline build, as the loop's first measurement compiles it,
    // and the reference answer.
    workload
        .inner
        .compile(baseline_options(), &Feedback::default())?;
    let oracle = oracle_cost(&workload.inner.instance);
    let reference = if seed == DEFAULT_SEED {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("expected/opt_mcf-seed18-report.txt");
        Some(std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?)
    } else {
        None
    };
    let mut config = OptConfig::for_machine(mcf::paper_machine_config());
    let mut recipe = Recipe::new(seed, DEFAULT_SEED);
    for (spec, _) in &mut config.counter_specs {
        *spec = recipe.spec(spec);
    }
    config.clock_period_cycles = recipe.interval(config.clock_period_cycles);
    Ok(Setup {
        workload,
        oracle,
        config,
        reference,
    })
}

/// The options the optimizer measures candidates with.
fn baseline_options() -> CompileOptions {
    CompileOptions {
        hwcprof: false,
        dwarf: false,
        prefetch: true,
        opt: true,
    }
}

struct Job {
    report: OptReport,
    /// Host seconds, and the same at the gauge's nominal host speed.
    secs: f64,
    scaled_s: f64,
    runs: u64,
    compiles: u64,
}

fn job(s: &Setup) -> Result<Job, String> {
    let w = &s.workload;
    let (runs0, compiles0) = (w.runs.get(), w.compiles.get());
    let _j = trace::request("bench.job");
    let (report, iv) = gauge::measured(|| {
        let _s = trace::span("opt.optimize");
        optimize(w, &s.config)
    });
    Ok(Job {
        report: report.map_err(|e| format!("optimize failed: {e}"))?,
        secs: iv.raw_s,
        scaled_s: iv.scaled_s,
        runs: w.runs.get() - runs0,
        compiles: w.compiles.get() - compiles0,
    })
}

fn precision(report: &OptReport) -> f64 {
    report
        .rounds
        .iter()
        .map(|r| r.verify_min_precision)
        .fold(100.0, f64::min)
}

fn check(s: &Setup, j: &Job, r: &mut Report) {
    let rendered = j.report.render();
    if let Some(want) = &s.reference {
        r.check_eq("decisions and feedback file", want, &rendered);
    }
    let last = &j.report.final_measurement;
    r.op(agrees_with_oracle(
        &RunOutcome {
            exit_code: 0,
            output: last.output.clone(),
            counts: last.counts,
            dropped_overflows: [0, 0],
        },
        s.oracle,
    ));
    let base = &j.report.baseline.counts;
    r.exact("machine.insts", base.insts);
    r.exact("machine.cycles", base.cycles);
    r.exact("opt.final_cycles", j.report.final_measurement.counts.cycles);
    r.exact(
        "opt.gain_pct",
        format!("{:.6}", 100.0 * j.report.total_gain()),
    );
    r.exact("opt.sim_runs", j.runs);
    r.exact("opt.fixed_point", j.report.fixed_point);
    r.exact(
        "opt.report_fnv",
        format!("{:016x}", memprof_store::fnv1a64(rendered.as_bytes())),
    );
    r.exact("ea_precision_pct", format!("{:.6}", precision(&j.report)));
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let s = set_up(r, SETUP_GROUPS, SETUPS_PER_GROUP, || setup(ctx.seed))?;

    let one = |r: &mut Report| -> Result<Job, String> {
        let j = heap_measured(r, || job(&s))?;
        r.job_s.push(j.scaled_s);
        r.job_raw_s.push(j.secs);
        r.ea_precision_pct = precision(&j.report);
        check(&s, &j, r);
        Ok(j)
    };

    if !ctx.trace {
        return crate::util::for_budget(ctx.seconds, JOBS, || one(r).map(|_| ()));
    }

    let untraced = one(r)?;
    trace::enable(true);
    let j = one(r);
    trace::enable(false);
    let j = j?;
    let spans = trace::spans();

    // Calibration: the baseline binary, unprofiled, as the loop's
    // first measurement runs it.
    let program = s
        .workload
        .inner
        .compile(baseline_options(), &Feedback::default())?;
    let mut machine = Machine::new(s.config.machine.clone());
    machine.load(&program.image);
    s.workload.inner.stage(&mut machine, &program);
    let (outcome, run_s) = timed(|| machine.run(s.config.max_insns, &mut NullHook));
    let outcome = outcome.map_err(|e| format!("unprofiled run: {e}"))?;
    r.op((outcome.counts != j.report.baseline.counts)
        .then(|| "calibration run differs from the loop's baseline".to_string()));

    let selfs = trace::layer_self_times(&spans, "bench.job");
    let l = &mut r.layers;
    l.insert("job.raw_s", untraced.secs);
    l.insert("machine.run_s", run_s);
    l.insert(
        "machine.minst_per_s",
        outcome.counts.insts as f64 / run_s / 1e6,
    );
    l.insert("machine.insts", outcome.counts.insts as f64);
    l.insert("machine.cycles", outcome.counts.cycles as f64);
    l.insert("minic.compile_s", trace::total(&spans, "minic.compile").0);
    l.insert("minic.compiles", j.compiles as f64);
    l.insert("mcf.validate_s", trace::total(&spans, "mcf.validate").0);
    l.insert("opt.self_s", selfs.get("opt").copied().unwrap_or(0.0));
    l.insert("opt.rounds", j.report.rounds.len() as f64);
    l.insert("opt.candidates", j.report.candidates().count() as f64);
    l.insert("opt.gain_pct", 100.0 * j.report.total_gain());
    l.insert("opt.sim_runs", j.runs as f64);
    crate::report_layers(r, &selfs, j.secs, untraced.secs, &spans);
    Ok(())
}
