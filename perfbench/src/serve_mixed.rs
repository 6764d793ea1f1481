//! `serve_mixed`: a closed loop against an in-process `mp-serve`
//! daemon, with writes beside reads.
//!
//! Set-up records real MPES v2 sessions from two MCF collections
//! (`mp-opt`'s E1 and E2 recipes for this instance). Each timed round
//! starts a daemon on an empty data directory and runs two clients at
//! once, in the shape of the daemon's own stress test
//! (`crates/serve/tests/serve_stress.rs`: three windows, four sessions
//! per window, compaction passes between arrivals):
//!
//! * client 1 replays the recorded sessions over `SocketSink` into
//!   three windows, phase by phase, and asks for a `compact` after
//!   each phase, so every window gets new sessions between compaction
//!   passes and the incremental compaction path does real work;
//! * client 2 sends one pass of a fixed query mix after each
//!   compaction pass but the last, beside the writer's next phase:
//!   summary-tier verbs (`functions`, `stat`, `diff`) and verbs that
//!   rehydrate the window (`objects`, `lines`).
//!
//! Compaction is requested by the writer at phase boundaries rather
//! than on a timer, so what each pass folds — and so every byte of the
//! packed stores — is the same on every run. No simulation runs in the
//! timed region.

use std::path::Path;
use std::sync::mpsc;

use mcf::{Instance, InstanceParams, Layout, McfParams};
use memprof_core::{
    collect_stream, parse_counter_spec, CollectConfig, CollectSink, CounterRequest,
    PackedClockEvent, PackedHwcEvent, RunInfo, StreamConfig, StreamStats,
};
use memprof_opt::OptConfig;
use memprof_serve::{Server, ServerConfig, SocketSink};
use memprof_store::{
    aggregate_refs, collect_attachments, diff_aggregates, merge_experiments, pack_experiment,
    ExperimentRef, SegmentWriter, StreamFile,
};
use minic::CompileOptions;
use simsparc_machine::{Machine, NullHook};

use crate::util::{
    dir_bytes, ea_precision_pct, heap_measured, median, percentile, set_up, syms_text, timed, Ctx,
    Recipe, Report,
};
use crate::{gauge, trace};

/// The instance `mp-opt mcf` uses.
const N_TRIPS: usize = 220;
const WINDOW: usize = 40;
const INSTANCE_SEED: u64 = 18;
/// The benchmark seed whose recipes are the nominal ones.
const DEFAULT_SEED: u64 = 18;
/// MPES bytes one round ingests at the default seed. Round times are
/// scaled to this much data, so recipes of different density compare.
const REF_BYTES: f64 = 1_997_466.0;
/// How strongly a round's client time follows the host's speed, as an
/// exponent of the gauge's factor. Much of a round is waiting that the
/// host's speed does not change (socket round trips, hand-offs between
/// the daemon's threads); over 16 rounds across a slow and a fast
/// stretch of the host, round time moved with the gauge to the power
/// 0.49.
const HOST_SPEED_SHARE: f64 = 0.5;
/// The two recordings: `mp-opt`'s E1 and E2, the recipes it profiles
/// this instance with (`OptConfig::for_machine`).
const RECORDINGS: [&str; 2] = ["e1", "e2"];
const SETUPS: usize = 3;
const PHASES: usize = 4;
/// Windows and the recording each one receives; `e1b` only gets a
/// session in even phases, so it differs from `e1a`.
const WINDOWS: [(&str, usize); 3] = [("e1a", 0), ("e1b", 0), ("e2a", 1)];
/// One pass of client 2: every verb once against each recording's
/// window it applies to (`diff` needs two windows of one recipe).
const MIX: [&str; 9] = [
    "functions e1a e1b",
    "functions e2a",
    "stat e1a",
    "stat e2a",
    "diff e1a e1b",
    "objects e1a",
    "objects e2a",
    "lines e1a",
    "lines e2a",
];
/// Answers compared with the offline toolchain after every round.
const FINAL: [&str; 3] = ["functions e1a e1b", "functions e2a", "diff e1a e1b"];

/// One collection run, captured as the sequence of sink calls it made
/// so it can be replayed into a daemon without simulating again.
enum Call {
    Begin(Vec<CounterRequest>, Option<u64>, u64),
    Stacks(Vec<Vec<u64>>),
    Hwc(Vec<PackedHwcEvent>),
    Clock(Vec<PackedClockEvent>),
    Finish(RunInfo, Vec<String>),
}

struct Recording {
    name: &'static str,
    calls: Vec<Call>,
    /// What a local `SegmentWriter` wrote for the run, attachments
    /// included: the bytes a sealed session must hold.
    bytes: Vec<u8>,
    stats: StreamStats,
}

/// Records every call and forwards it to a local writer; gauges the
/// host at each segment, as set-up is timed at nominal host speed.
struct Recorder {
    calls: Vec<Call>,
    writer: SegmentWriter<Vec<u8>>,
}

impl CollectSink for Recorder {
    fn begin(
        &mut self,
        counters: &[CounterRequest],
        clock_period: Option<u64>,
        clock_hz: u64,
    ) -> std::io::Result<()> {
        self.calls
            .push(Call::Begin(counters.to_vec(), clock_period, clock_hz));
        self.writer.begin(counters, clock_period, clock_hz)
    }

    fn stacks(&mut self, stacks: &[Vec<u64>]) -> std::io::Result<()> {
        self.calls.push(Call::Stacks(stacks.to_vec()));
        self.writer.stacks(stacks)
    }

    fn hwc_segment(&mut self, events: &[PackedHwcEvent]) -> std::io::Result<()> {
        gauge::checkpoint();
        self.calls.push(Call::Hwc(events.to_vec()));
        self.writer.hwc_segment(events)
    }

    fn clock_segment(&mut self, events: &[PackedClockEvent]) -> std::io::Result<()> {
        gauge::checkpoint();
        self.calls.push(Call::Clock(events.to_vec()));
        self.writer.clock_segment(events)
    }

    fn finish(&mut self, run: &RunInfo, log: &[String]) -> std::io::Result<()> {
        self.calls.push(Call::Finish(run.clone(), log.to_vec()));
        self.writer.finish(run, log)
    }

    fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }
}

fn replay(calls: &[Call], sink: &mut dyn CollectSink) -> std::io::Result<()> {
    for call in calls {
        match call {
            Call::Begin(c, p, hz) => sink.begin(c, *p, *hz)?,
            Call::Stacks(s) => sink.stacks(s)?,
            Call::Hwc(e) => sink.hwc_segment(e)?,
            Call::Clock(e) => sink.clock_segment(e)?,
            Call::Finish(run, log) => sink.finish(run, log)?,
        }
    }
    Ok(())
}

struct Setup {
    recordings: Vec<Recording>,
    syms: String,
    program: minic::Program,
    instance: Instance,
}

fn setup(seed: u64, work: &Path) -> Result<Setup, String> {
    let nominal = OptConfig::for_machine(mcf::paper_machine_config());
    let mut recipe = Recipe::new(seed, DEFAULT_SEED);
    let clock_period = recipe.interval(nominal.clock_period_cycles);
    let instance = Instance::generate(InstanceParams {
        n_trips: N_TRIPS,
        window: WINDOW,
        seed: INSTANCE_SEED,
        ..Default::default()
    });
    let program = mcf::compile_mcf(
        &instance,
        Layout::Baseline,
        &McfParams::default(),
        CompileOptions::profiling(),
    )
    .map_err(|e| format!("compile mcf: {e}"))?
    .program;
    let syms = syms_text(&program.syms, work)?;
    let mut recordings = Vec::new();
    for (name, (spec, clock)) in RECORDINGS.into_iter().zip(&nominal.counter_specs) {
        let mut machine = Machine::new(mcf::paper_machine_config());
        machine.load(&program.image);
        mcf::stage_instance(&mut machine, &program, &instance);
        let config = CollectConfig {
            counters: parse_counter_spec(&recipe.spec(spec)).map_err(|e| e.to_string())?,
            clock_profiling: *clock,
            clock_period_cycles: clock_period,
            max_insns: mcf::MAX_INSNS,
        };
        let mut rec = Recorder {
            calls: Vec::new(),
            writer: SegmentWriter::new(Vec::new()),
        };
        rec.writer.attach("syms.txt", &syms);
        let stats = collect_stream(&mut machine, &config, &StreamConfig::default(), &mut rec)
            .map_err(|e| format!("record {name}: {e}"))?;
        recordings.push(Recording {
            name,
            calls: rec.calls,
            bytes: rec.writer.into_inner(),
            stats,
        });
    }
    // A daemon start, as every round makes one.
    let data = work.join("setup-daemon");
    let server = Server::start("127.0.0.1:0", &data, ServerConfig::default())
        .map_err(|e| format!("start daemon: {e}"))?;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    Ok(Setup {
        recordings,
        syms,
        program,
        instance,
    })
}

/// The windows that get a session in `phase`, with the recording each
/// one gets.
fn plan(phase: usize) -> impl Iterator<Item = (&'static str, usize)> {
    WINDOWS
        .into_iter()
        .filter(move |(w, _)| *w != "e1b" || phase.is_multiple_of(2))
}

#[derive(Default)]
struct Round {
    /// Client-side latency of every request, by kind.
    ingest_s: Vec<f64>,
    compact_s: Vec<f64>,
    queries: Vec<(&'static str, f64)>,
    bytes: u64,
    sealed: u64,
    segments_compacted: u64,
    failures: Vec<String>,
    /// Session ids each window received, in arrival order.
    sessions: Vec<(&'static str, String)>,
    /// Final answers, packed store bytes and data-directory size.
    answers: Vec<String>,
    packed: Vec<Vec<u8>>,
    store_bytes: u64,
}

impl Round {
    /// Client time summed over every request of the round.
    fn busy_s(&self) -> f64 {
        self.ingest_s.iter().sum::<f64>()
            + self.compact_s.iter().sum::<f64>()
            + self.queries.iter().map(|(_, t)| t).sum::<f64>()
    }
}

fn verb(line: &'static str) -> &'static str {
    line.split(' ').next().unwrap_or(line)
}

fn query_span(line: &'static str) -> &'static str {
    match verb(line) {
        "functions" => "serve.query.functions",
        "stat" => "serve.query.stat",
        "diff" => "serve.query.diff",
        "objects" => "serve.query.objects",
        _ => "serve.query.lines",
    }
}

/// Client 1: replay every phase's sessions, compacting after each.
fn writer_client(s: &Setup, addr: &str, r: &mut Round, compacted: mpsc::Sender<()>) {
    let _j = trace::request("bench.job");
    for phase in 0..PHASES {
        for (window, rec) in plan(phase) {
            let rec = &s.recordings[rec];
            let _q = trace::request("serve.ingest_session");
            let (res, secs) = timed(|| -> std::io::Result<String> {
                let mut sink = SocketSink::connect(addr, rec.name, window)?;
                sink.attach("syms.txt", &s.syms);
                replay(&rec.calls, &mut sink)?;
                Ok(sink.session().to_string())
            });
            r.ingest_s.push(secs);
            match res {
                Ok(id) => {
                    r.sealed += 1;
                    r.bytes += rec.bytes.len() as u64;
                    r.sessions.push((window, id));
                }
                Err(e) => r.failures.push(format!("session into {window}: {e}")),
            }
        }
        let _q = trace::request("serve.compact");
        let (res, secs) = timed(|| memprof_serve::query(addr, "compact"));
        r.compact_s.push(secs);
        match res {
            Ok(text) => {
                r.segments_compacted += text
                    .lines()
                    .filter_map(|l| l.strip_prefix("compacted "))
                    .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                    .sum::<u64>();
                if text.contains("failed") {
                    r.failures.push(format!("compaction: {}", text.trim()));
                }
            }
            Err(e) => r.failures.push(format!("compact: {e}")),
        }
        // Client 2 has gone once it has its passes.
        let _ = compacted.send(());
    }
}

/// Client 2: one pass of the mix after each compaction pass but the
/// last.
fn query_client(
    addr: &str,
    compacted: mpsc::Receiver<()>,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let _j = trace::request("bench.job");
    let mut out = Vec::new();
    let mut failures = Vec::new();
    for _ in 1..PHASES {
        if compacted.recv().is_err() {
            failures.push("the writer stopped before its last phase".to_string());
            break;
        }
        for line in MIX {
            let _q = trace::request(query_span(line));
            let (res, secs) = timed(|| memprof_serve::query(addr, line));
            out.push((line, secs));
            if let Err(e) = res {
                failures.push(format!("`{line}`: {e}"));
            }
        }
    }
    (out, failures)
}

fn round(s: &Setup, data: &Path) -> Result<Round, String> {
    let server = Server::start("127.0.0.1:0", data, ServerConfig::default())
        .map_err(|e| format!("start daemon: {e}"))?;
    let addr = server.addr().to_string();
    let mut r = Round::default();
    let (tx, rx) = mpsc::channel();
    let (queries, query_failures) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| query_client(&addr, rx));
        writer_client(s, &addr, &mut r, tx);
        reader.join().expect("query client panicked")
    });
    r.queries = queries;
    r.failures.extend(query_failures);
    for line in FINAL {
        r.answers
            .push(memprof_serve::query(&addr, line).unwrap_or_else(|e| format!("error: {e}")));
    }
    server.shutdown();
    let dirs = memprof_serve::StoreDirs::create(data).map_err(|e| e.to_string())?;
    for (w, _) in WINDOWS {
        r.packed
            .push(std::fs::read(dirs.packed_path(w)).unwrap_or_default());
    }
    r.store_bytes = dir_bytes(data);
    let _ = std::fs::remove_dir_all(data);
    Ok(r)
}

/// What the offline toolchain makes of the same sessions: each
/// window's compaction passes replayed with `merge_experiments` +
/// `pack_experiment`, and the final answers from `aggregate_refs`.
struct Offline {
    answers: Vec<String>,
    packed: Vec<Vec<u8>>,
}

fn offline(s: &Setup, r: &Round, dir: &Path) -> Result<Offline, String> {
    let e = |e: memprof_store::StoreError| e.to_string();
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut packed = Vec::new();
    {
        let _s = trace::span("store.merge");
        for (w, rec) in WINDOWS {
            let path = dir.join(format!("{w}.mps"));
            let ids: Vec<&String> = r
                .sessions
                .iter()
                .filter(|(win, _)| *win == w)
                .map(|(_, id)| id)
                .collect();
            for (pass, id) in ids.iter().enumerate() {
                let mut inputs = Vec::new();
                if pass > 0 {
                    inputs.push(path.clone());
                }
                let session = dir.join(format!("{id}.mpes"));
                std::fs::write(&session, &s.recordings[rec].bytes).map_err(io)?;
                inputs.push(session);
                let refs = inputs
                    .iter()
                    .map(|p| ExperimentRef::open(p))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(e)?;
                let bytes = pack_experiment(
                    &merge_experiments(&refs).map_err(e)?,
                    &collect_attachments(&refs),
                );
                drop(refs);
                std::fs::write(&path, bytes).map_err(io)?;
            }
            packed.push(std::fs::read(&path).map_err(io)?);
        }
    }
    let _s = trace::span("store.aggregate");
    let open = |w: &str| ExperimentRef::open(&dir.join(format!("{w}.mps"))).map_err(e);
    let syms = open("e1a")?
        .load_syms()
        .ok_or("packed store lost its symbols")?;
    let agg = |ws: &[&str]| -> Result<memprof_store::Aggregate, String> {
        let refs = ws.iter().map(|w| open(w)).collect::<Result<Vec<_>, _>>()?;
        aggregate_refs(&refs, 0).map_err(e)
    };
    let diff = diff_aggregates(&agg(&["e1a"])?, &agg(&["e1b"])?).map_err(e)?;
    Ok(Offline {
        answers: vec![
            agg(&["e1a", "e1b"])?.stat_json(Some(&syms)),
            agg(&["e2a"])?.stat_json(Some(&syms)),
            diff.render_by_function(&syms),
        ],
        packed,
    })
}

fn check(r: &Round, off: &Offline, rep: &mut Report) {
    for f in &r.failures {
        rep.op(Some(f.clone()));
    }
    let requests = r.ingest_s.len() + r.compact_s.len() + r.queries.len();
    rep.attempted += (requests - r.failures.len().min(requests)) as u64;
    for ((line, got), want) in FINAL.iter().zip(&r.answers).zip(&off.answers) {
        rep.check_eq(&format!("final `{line}`"), want, got);
    }
    for (((w, _), got), want) in WINDOWS.iter().zip(&r.packed).zip(&off.packed) {
        rep.op((got != want).then(|| format!("packed store of {w} differs from the offline merge")));
    }
    rep.exact("serve.bytes_ingested", r.bytes);
    rep.exact("serve.segments_compacted", r.segments_compacted);
    rep.exact("store_mb", r.store_bytes);
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let s = set_up(rep, SETUPS, 1, || setup(ctx.seed, &ctx.work))?;
    let sum = |f: fn(&StreamStats) -> u64| s.recordings.iter().map(|r| f(&r.stats)).sum::<u64>();
    rep.exact("core.hwc_events", sum(|s| s.hwc_events));
    rep.exact("core.dropped", sum(|s| s.dropped.iter().sum()));
    rep.exact("store.bytes_written", sum(|s| s.bytes_written));
    let exps = s
        .recordings
        .iter()
        .map(|r| {
            StreamFile::from_bytes(r.bytes.clone())
                .and_then(|f| f.to_experiment())
                .map_err(|e| format!("reload {}: {e}", r.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    rep.ea_precision_pct = ea_precision_pct(&exps.iter().collect::<Vec<_>>(), &s.program.syms);
    rep.exact("ea_precision_pct", format!("{:.6}", rep.ea_precision_pct));

    let mut rounds: Vec<Round> = Vec::new();
    let mut reference: Option<Offline> = None;
    let mut n = 0;
    // Each round is checked against the offline toolchain; the
    // reference is built from the first round checked after `rebuild`.
    let mut one = |rep: &mut Report, rounds: &mut Vec<Round>, rebuild: &mut bool| {
        n += 1;
        let (r, iv) = heap_measured(rep, || {
            gauge::measured(|| round(&s, &ctx.work.join(format!("round-{n}"))))
        });
        let mut r = r?;
        if std::mem::take(rebuild) || reference.is_none() {
            reference = Some(offline(&s, &r, &ctx.work.join(format!("offline-{n}")))?);
        }
        check(&r, reference.as_ref().expect("just built"), rep);
        rep.job_raw_s.push(r.busy_s());
        rep.job_s.push(
            r.busy_s() * iv.factor().powf(HOST_SPEED_SHARE) * REF_BYTES / r.bytes.max(1) as f64,
        );
        r.answers.clear();
        r.packed.clear();
        rounds.push(r);
        Ok::<(), String>(())
    };

    if !ctx.trace {
        return crate::util::for_budget(ctx.seconds, 1, || one(rep, &mut rounds, &mut false));
    }

    // Traced run: half the budget untraced, half traced (the offline
    // reference is rebuilt under tracing so its layers are measured).
    crate::util::for_budget(ctx.seconds / 2.0, 1, || one(rep, &mut rounds, &mut false))?;
    let untraced = rounds.len();
    trace::enable(true);
    let mut rebuild = true;
    let traced =
        crate::util::for_budget(ctx.seconds / 2.0, 1, || one(rep, &mut rounds, &mut rebuild));
    trace::enable(false);
    traced?;
    let spans = trace::spans();
    let (before, after) = rounds.split_at(untraced);
    let busy = |rs: &[Round]| median(&rs.iter().map(Round::busy_s).collect::<Vec<_>>());
    let (untraced_s, traced_s) = (busy(before), busy(after));

    // Calibration: the recorded binary and input, unprofiled.
    let mut machine = Machine::new(mcf::paper_machine_config());
    machine.load(&s.program.image);
    mcf::stage_instance(&mut machine, &s.program, &s.instance);
    let (outcome, run_s) = timed(|| machine.run(mcf::MAX_INSNS, &mut NullHook));
    let outcome = outcome.map_err(|e| format!("unprofiled run: {e}"))?;

    let all = |f: fn(&Round) -> Vec<f64>| rounds.iter().flat_map(f).collect::<Vec<f64>>();
    let ms = |v: Vec<f64>| v.into_iter().map(|t| t * 1e3).collect::<Vec<f64>>();
    let ingest = all(|r| r.ingest_s.clone());
    let queries = ms(all(|r| r.queries.iter().map(|(_, t)| *t).collect()));
    let verb_ms = |v: &str| {
        median(&ms(rounds
            .iter()
            .flat_map(|r| {
                r.queries
                    .iter()
                    .filter(|(l, _)| verb(l) == v)
                    .map(|(_, t)| *t)
            })
            .collect()))
    };
    let bytes: u64 = rounds.iter().map(|r| r.bytes).sum();
    let l = &mut rep.layers;
    l.insert("job.raw_s", untraced_s);
    l.insert("machine.run_s", run_s);
    l.insert(
        "machine.minst_per_s",
        outcome.counts.insts as f64 / run_s / 1e6,
    );
    l.insert("machine.insts", outcome.counts.insts as f64);
    l.insert("machine.cycles", outcome.counts.cycles as f64);
    l.insert("core.hwc_events", sum(|s| s.hwc_events) as f64);
    l.insert("core.clock_events", sum(|s| s.clock_events) as f64);
    l.insert("core.dropped", sum(|s| s.dropped.iter().sum()) as f64);
    l.insert("store.bytes_written", sum(|s| s.bytes_written) as f64);
    l.insert("store.segments_spilled", sum(|s| s.segments_spilled) as f64);
    l.insert("store.merge_s", trace::total(&spans, "store.merge").0);
    l.insert(
        "store.aggregate_s",
        trace::total(&spans, "store.aggregate").0,
    );
    l.insert("serve.ingest_session_ms", 1e3 * median(&ingest));
    l.insert(
        "serve.ingest_mb_per_s",
        bytes as f64 / 1e6 / ingest.iter().sum::<f64>(),
    );
    l.insert(
        "serve.sessions_attempted",
        rounds.iter().map(|r| r.ingest_s.len()).sum::<usize>() as f64,
    );
    l.insert(
        "serve.sessions_sealed",
        rounds.iter().map(|r| r.sealed).sum::<u64>() as f64,
    );
    l.insert("serve.bytes_ingested", bytes as f64);
    l.insert(
        "serve.compact_p50_ms",
        median(&ms(all(|r| r.compact_s.clone()))),
    );
    l.insert(
        "serve.segments_compacted",
        rounds.iter().map(|r| r.segments_compacted).sum::<u64>() as f64,
    );
    l.insert("serve.queries", queries.len() as f64);
    l.insert(
        "serve.queries_failed",
        rounds
            .iter()
            .map(|r| r.failures.iter().filter(|f| f.starts_with('`')).count())
            .sum::<usize>() as f64,
    );
    l.insert("serve.query_p50_ms", median(&queries));
    l.insert("serve.query_p99_ms", percentile(&queries, 99.0));
    l.insert("serve.query.functions_ms", verb_ms("functions"));
    l.insert("serve.query.stat_ms", verb_ms("stat"));
    l.insert("serve.query.diff_ms", verb_ms("diff"));
    l.insert("serve.query.objects_ms", verb_ms("objects"));
    l.insert("serve.query.lines_ms", verb_ms("lines"));
    l.insert("serve.store_mb", rounds[0].store_bytes as f64 / 1e6);
    let selfs = trace::layer_self_times(&spans, "bench.job");
    let per_round = |t: f64| t / after.len() as f64;
    let selfs = selfs.into_iter().map(|(k, v)| (k, per_round(v))).collect();
    crate::report_layers(rep, &selfs, traced_s, untraced_s, &spans);
    Ok(())
}
