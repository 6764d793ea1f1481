//! `profile_mcf`: the paper's own user path at figure scale.
//!
//! Compile MCF with `-xhwcprof`, stream the paper's two experiments
//! (E1 `+ecstall,+ecrm` with clock profiling, E2 `+ecref,+dtlbm`)
//! through `collect_stream` into MPES v2 files, reload them, reduce
//! them with `Analysis`, render Figures 1–7 and replay every event
//! through the attribution oracle. Almost all of the time is spent in
//! the simulator and the collector hook.

use std::path::Path;

use mcf::{Instance, InstanceParams, Layout, McfBinary, McfParams};
use memprof_core::analyze::Analysis;
use memprof_core::{
    collect_stream, parse_counter_spec, CollectConfig, CollectSink, CounterRequest, Experiment,
    PackedClockEvent, PackedHwcEvent, RunInfo, StreamConfig, StreamStats,
};
use memprof_store::{SegmentWriter, StreamFile};
use minic::CompileOptions;
use simsparc_machine::{CounterEvent, Machine, NullHook};

use crate::util::{
    agrees_with_oracle, ea_precision_pct, heap_measured, oracle_cost, set_up, timed, Ctx, Recipe,
    Report,
};
use crate::{gauge, trace};

/// `Scale::paper()`: the instance of the published figures.
const N_TRIPS: usize = 1200;
const WINDOW: usize = 60;
const INSTANCE_SEED: u64 = 181;
/// The benchmark seed whose recipe is the paper's, where the golden
/// figures apply.
const DEFAULT_SEED: u64 = 181;
/// The paper's two experiments: counter spec, clock profiling.
const EXPERIMENTS: [(&str, bool); 2] = [
    ("+ecstall,99991,+ecrm,499", true),
    ("+ecref,2003,+dtlbm,97", false),
];
const CLOCK_PERIOD: u64 = 20011;
const SPILL_EVENTS: usize = 8192;
/// Jobs per run at least; the run reports their median. The collector
/// calls the sink, where the host is gauged, only every few seconds, so
/// the gauge follows the host's speed less closely here than in
/// `opt_mcf`: jobs of one run still differ by up to 10% at nominal
/// speed, and the median of three steadies the run.
const JOBS: usize = 3;
const SETUPS: usize = 5;
const FIGURES: [&str; 7] = [
    "fig1_total_metrics.txt",
    "fig2_function_list.txt",
    "fig3_annotated_source.txt",
    "fig4_annotated_disasm.txt",
    "fig5_pc_list.txt",
    "fig6_data_objects.txt",
    "fig7_struct_node.txt",
];

struct Setup {
    /// `(counter spec, clock profiling)` of E1 and E2, and the clock
    /// period, as the seed's recipe sets them.
    experiments: Vec<(String, bool)>,
    clock_period: u64,
    instance: Instance,
    oracle: Option<i64>,
    binary: McfBinary,
    /// Golden Figures 1–7, at the default seed only.
    golden: Option<Vec<String>>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut recipe = Recipe::new(seed, DEFAULT_SEED);
    let experiments = EXPERIMENTS
        .iter()
        .map(|(spec, clock)| (recipe.spec(spec), *clock))
        .collect();
    let clock_period = recipe.interval(CLOCK_PERIOD);
    let instance = Instance::generate(InstanceParams {
        n_trips: N_TRIPS,
        window: WINDOW,
        seed: INSTANCE_SEED,
        ..Default::default()
    });
    let binary = {
        let _s = trace::span("minic.compile");
        mcf::compile_mcf(
            &instance,
            Layout::Baseline,
            &McfParams::default(),
            CompileOptions::profiling(),
        )
        .map_err(|e| format!("compile mcf: {e}"))?
    };
    let oracle = oracle_cost(&instance);
    let golden = if seed == DEFAULT_SEED {
        let dir = crate::repo_root().join("tests/golden");
        let figs = FIGURES
            .iter()
            .map(|f| std::fs::read_to_string(dir.join(f)).map_err(|e| format!("{f}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Some(figs)
    } else {
        None
    };
    Ok(Setup {
        experiments,
        clock_period,
        instance,
        oracle,
        binary,
        golden,
    })
}

/// A `CollectSink` that records a `store.encode` span around every
/// call into the wrapped writer, and gauges the host before it.
pub struct TimedSink<S>(pub S);

impl<S: CollectSink> CollectSink for TimedSink<S> {
    fn begin(
        &mut self,
        counters: &[CounterRequest],
        clock_period: Option<u64>,
        clock_hz: u64,
    ) -> std::io::Result<()> {
        gauge::checkpoint();
        let _s = trace::span("store.encode");
        self.0.begin(counters, clock_period, clock_hz)
    }

    fn stacks(&mut self, stacks: &[Vec<u64>]) -> std::io::Result<()> {
        gauge::checkpoint();
        let _s = trace::span("store.encode");
        self.0.stacks(stacks)
    }

    fn hwc_segment(&mut self, events: &[PackedHwcEvent]) -> std::io::Result<()> {
        gauge::checkpoint();
        let _s = trace::span("store.encode");
        self.0.hwc_segment(events)
    }

    fn clock_segment(&mut self, events: &[PackedClockEvent]) -> std::io::Result<()> {
        gauge::checkpoint();
        let _s = trace::span("store.encode");
        self.0.clock_segment(events)
    }

    fn finish(&mut self, run: &RunInfo, log: &[String]) -> std::io::Result<()> {
        gauge::checkpoint();
        let _s = trace::span("store.encode");
        self.0.finish(run, log)
    }

    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }
}

/// A machine loaded with the binary and staged with the instance.
fn staged_machine(s: &Setup) -> Machine {
    let _s = trace::span("machine.load");
    let mut machine = Machine::new(mcf::paper_machine_config());
    machine.load(&s.binary.program.image);
    mcf::stage_instance(&mut machine, &s.binary.program, &s.instance);
    machine
}

struct Job {
    exps: Vec<Experiment>,
    stats: Vec<StreamStats>,
    collect_s: f64,
    figures: Vec<String>,
    precision: f64,
}

/// Source binary to rendered figures: one timed job.
fn job(s: &Setup, dir: &Path) -> Result<Job, String> {
    let _j = trace::request("bench.job");
    let mut exps = Vec::new();
    let mut stats = Vec::new();
    let mut collect_s = 0.0;
    for (i, (spec, clock)) in s.experiments.iter().enumerate() {
        let mut machine = staged_machine(s);
        let config = CollectConfig {
            counters: parse_counter_spec(spec).map_err(|e| e.to_string())?,
            clock_profiling: *clock,
            clock_period_cycles: s.clock_period,
            max_insns: mcf::MAX_INSNS,
        };
        let path = dir.join(format!("exp{}.mpes", i + 1));
        let writer = SegmentWriter::create(&path).map_err(|e| format!("create {e}"))?;
        let mut sink = TimedSink(writer);
        let (st, secs) = {
            let _s = trace::span("core.collect");
            timed(|| {
                collect_stream(
                    &mut machine,
                    &config,
                    &StreamConfig {
                        spill_events: SPILL_EVENTS,
                    },
                    &mut sink,
                )
            })
        };
        let st = st.map_err(|e| format!("collect: {e}"))?;
        collect_s += secs;
        drop(sink);
        let exp = {
            let _s = trace::span("store.reload");
            let file = StreamFile::open(&path).map_err(|e| format!("reload: {e}"))?;
            if !file.is_complete() {
                return Err("fresh stream file is truncated".to_string());
            }
            file.to_experiment()
                .map_err(|e| format!("rehydrate: {e}"))?
        };
        exps.push(exp);
        stats.push(st);
    }

    let syms = &s.binary.program.syms;
    let analysis = {
        let _s = trace::span("core.analyze.reduce");
        Analysis::new(&[&exps[0], &exps[1]], syms)
    };
    let render = |f: &dyn Fn() -> Option<String>| {
        let _s = trace::span("core.analyze.render");
        f().unwrap_or_default()
    };
    let a = &analysis;
    let user_cpu = a.user_cpu_col().unwrap_or(0);
    let ecrm = a.col_by_event(CounterEvent::ECReadMiss).unwrap_or(0);
    let ecstall = a.col_by_event(CounterEvent::ECStallCycles).unwrap_or(0);
    let text = &s.binary.program.image.text;
    let figures = vec![
        render(&|| Some(a.total_metrics().render())),
        render(&|| Some(a.render_function_list(user_cpu))),
        render(&|| a.render_annotated_source("refresh_potential")),
        render(&|| a.render_annotated_disasm("refresh_potential", text)),
        render(&|| Some(a.render_pc_list(ecrm, 17))),
        render(&|| Some(a.render_data_objects(ecstall))),
        render(&|| a.render_struct_expansion("node")),
    ];
    drop(analysis);
    let precision = ea_precision_pct(&[&exps[0], &exps[1]], syms);
    Ok(Job {
        exps,
        stats,
        collect_s,
        figures,
        precision,
    })
}

/// Output checks and exact counts of one job.
fn check(s: &Setup, j: &Job, r: &mut Report) {
    let outcome = simsparc_machine::RunOutcome {
        exit_code: j.exps[0].run.exit_code,
        output: j.exps[0].run.output.clone(),
        counts: j.exps[0].run.counts,
        dropped_overflows: [0, 0],
    };
    r.op(agrees_with_oracle(&outcome, s.oracle));
    if let Some(golden) = &s.golden {
        for ((name, want), got) in FIGURES.iter().zip(golden).zip(&j.figures) {
            r.check_eq(name, want, got);
        }
    }
    let sum = |f: fn(&StreamStats) -> u64| j.stats.iter().map(f).sum::<u64>();
    r.exact("machine.insts", j.exps[0].run.counts.insts);
    r.exact("machine.cycles", j.exps[0].run.counts.cycles);
    r.exact("core.hwc_events", sum(|s| s.hwc_events));
    r.exact("core.clock_events", sum(|s| s.clock_events));
    r.exact("core.dropped", sum(|s| s.dropped.iter().sum()));
    r.exact("store.bytes_written", sum(|s| s.bytes_written));
    r.exact("ea_precision_pct", format!("{:.6}", j.precision));
}

fn sim_insts(j: &Job) -> u64 {
    j.exps.iter().map(|e| e.run.counts.insts).sum()
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let s = set_up(r, SETUPS, 1, || setup(ctx.seed))?;

    let one = |r: &mut Report| -> Result<(Job, f64), String> {
        let (j, iv) = heap_measured(r, || gauge::measured(|| job(&s, &ctx.work)));
        let j = j?;
        r.job_s.push(iv.scaled_s);
        r.job_raw_s.push(iv.raw_s);
        let secs = iv.raw_s;
        check(&s, &j, r);
        r.ea_precision_pct = j.precision;
        Ok((j, secs))
    };

    if !ctx.trace {
        return crate::util::for_budget(ctx.seconds, JOBS, || one(r).map(|_| ()));
    }

    // Traced run: an untraced job for reference, then a traced one.
    let (_, untraced_s) = one(r)?;
    trace::enable(true);
    let traced = one(r);
    trace::enable(false);
    let (j, traced_s) = traced?;
    let spans = trace::spans();

    // Calibration: the same binary and input, unprofiled.
    let mut machine = staged_machine(&s);
    let (outcome, run_s) = timed(|| machine.run(mcf::MAX_INSNS, &mut NullHook));
    let outcome = outcome.map_err(|e| format!("unprofiled run: {e}"))?;
    r.op((outcome.counts.insts != j.exps[0].run.counts.insts
        || outcome.counts.cycles != j.exps[0].run.counts.cycles)
        .then(|| "profiling changed the simulated instruction or cycle count".to_string()));

    let l = &mut r.layers;
    l.insert("job.raw_s", untraced_s);
    l.insert("job.sim_insts", sim_insts(&j) as f64);
    l.insert("machine.run_s", run_s);
    l.insert(
        "machine.minst_per_s",
        outcome.counts.insts as f64 / run_s / 1e6,
    );
    l.insert("machine.insts", outcome.counts.insts as f64);
    l.insert("machine.cycles", outcome.counts.cycles as f64);

    let collect_self: f64 = {
        let selfs = trace::self_times(&spans);
        spans
            .iter()
            .zip(&selfs)
            .filter(|(sp, _)| sp.name == "core.collect")
            .map(|(_, t)| t)
            .sum()
    };
    // Each collection simulates the whole run once; the rest of its
    // self time is the collector hook.
    let machine_s = (run_s * EXPERIMENTS.len() as f64).min(collect_self);
    let hook_s = collect_self - machine_s;
    l.insert("core.collect_s", trace::total(&spans, "core.collect").0);
    l.insert(
        "core.collect_minst_per_s",
        sim_insts(&j) as f64 / j.collect_s / 1e6,
    );
    l.insert("core.hook_s", hook_s);
    l.insert("core.hook_overhead_pct", 100.0 * hook_s / machine_s);
    let cycles: f64 = j.exps.iter().map(|e| e.run.counts.cycles as f64).sum();
    let est: f64 = j
        .exps
        .iter()
        .zip(&j.stats)
        .map(|(e, st)| st.estimated_overhead_pct * e.run.counts.cycles as f64)
        .sum();
    l.insert("core.est_overhead_pct", est / cycles);
    let sum = |f: fn(&StreamStats) -> u64| j.stats.iter().map(f).sum::<u64>() as f64;
    l.insert("core.hwc_events", sum(|s| s.hwc_events));
    l.insert("core.clock_events", sum(|s| s.clock_events));
    l.insert("core.dropped", sum(|s| s.dropped.iter().sum()));
    l.insert(
        "core.intern_hit_pct",
        100.0 * sum(|s| s.intern_hits) / sum(|s| s.intern_lookups).max(1.0),
    );
    l.insert("store.encode_s", trace::total(&spans, "store.encode").0);
    l.insert("store.bytes_written", sum(|s| s.bytes_written));
    l.insert("store.segments_spilled", sum(|s| s.segments_spilled));
    l.insert("store.reload_s", trace::total(&spans, "store.reload").0);
    l.insert(
        "core.analyze.reduce_s",
        trace::total(&spans, "core.analyze.reduce").0,
    );
    l.insert(
        "core.analyze.render_s",
        trace::total(&spans, "core.analyze.render").0,
    );
    l.insert("core.verify_s", trace::total(&spans, "core.verify").0);
    l.insert("mcf.validate_s", trace::total(&spans, "mcf.validate").0);

    // Layer self times inside the job; the simulator's share of the
    // collections comes from the calibration run.
    let mut selfs = trace::layer_self_times(&spans, "bench.job");
    *selfs.entry("core".to_string()).or_default() -= machine_s;
    *selfs.entry("machine".to_string()).or_default() += machine_s;
    crate::report_layers(r, &selfs, traced_s, untraced_s, &spans);
    Ok(())
}
