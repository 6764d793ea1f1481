//! The repository benchmark: one command runs a workload, checks its
//! outputs and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload profile_mcf|serve_mixed|opt_mcf --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload again
//! with spans recorded around the benchmark's calls into each layer and
//! reports the per-layer metrics. See `README.md` for what each metric
//! means and which layer should move it.

mod gauge;
mod heap;
mod opt_mcf;
mod profile_mcf;
mod serve_mixed;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use util::{median, Ctx, Report};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

pub const WORKLOADS: [&str; 3] = ["profile_mcf", "serve_mixed", "opt_mcf"];

/// The layers, named after the crates, plus the benchmark's own glue.
const LAYERS: [(&str, &str); 8] = [
    ("minic", "self_s.minic"),
    ("machine", "self_s.machine"),
    ("core", "self_s.core"),
    ("store", "self_s.store"),
    ("serve", "self_s.serve"),
    ("opt", "self_s.opt"),
    ("mcf", "self_s.mcf"),
    ("bench", "self_s.bench"),
];

/// The repository checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

/// Fill the trace bookkeeping metrics of a traced run. `selfs` are the
/// layer self times inside the traced job(s); `traced_s` and
/// `untraced_s` are the same job's end-to-end time with tracing on and
/// off.
pub fn report_layers(
    r: &mut Report,
    selfs: &BTreeMap<String, f64>,
    traced_s: f64,
    untraced_s: f64,
    spans: &[trace::Span],
) {
    let mut accounted = 0.0;
    for (layer, key) in LAYERS {
        let t = selfs.get(layer).copied().unwrap_or(0.0);
        r.layers.insert(key, t);
        if layer != "bench" {
            accounted += t;
        }
    }
    r.layers.insert("trace.untraced_job_s", untraced_s);
    r.layers.insert("trace.traced_job_s", traced_s);
    r.layers.insert(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    r.layers
        .insert("trace.accounted_pct", 100.0 * accounted / untraced_s);
    r.layers.insert("trace.spans", spans.len() as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), in file order. Names and units hold
/// no quotes, braces or brackets, so the list is found by scanning.
fn metric_list(json: &str, list: &str) -> Result<Vec<(String, String)>, String> {
    let key = format!("\"{list}\"");
    let missing = || format!("BENCHMARK.json has no `{list}` list");
    let rest = &json[json.find(&key).ok_or_else(missing)? + key.len()..];
    let (open, close) = (
        rest.find('[').ok_or_else(missing)?,
        rest.find(']').ok_or_else(missing)?,
    );
    rest.get(open + 1..close)
        .ok_or_else(missing)?
        .split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| Ok((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` in one JSON object's text.
fn field(obj: &str, key: &str) -> Result<String, String> {
    let k = format!("\"{key}\"");
    obj.find(&k)
        .and_then(|at| obj[at + k.len()..].split('"').nth(1))
        .map(str::to_string)
        .ok_or(format!("BENCHMARK.json: a metric without `{key}`"))
}

/// An identity of this build: the FNV-1a hash of the benchmark's own
/// binary, which links every crate it measures.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    Ok(format!("{:016x}", memprof_store::fnv1a64(&bytes)))
}

/// Compare the run's exact counts with the first run of the same
/// workload and seed by the same build in this checkout; the first run
/// records them. A different build (another commit, say) keeps a
/// record of its own, so a change that moves an exact count on purpose
/// is not charged as drift to either build.
fn check_ledger(r: &mut Report, workload: &str, seed: u64, ledger_dir: &Path) {
    let build = match build_id() {
        Ok(id) => id,
        Err(e) => return r.op(Some(format!("exact-count ledger: {e}"))),
    };
    let ledger = ledger_dir.join(format!("{workload}-seed{seed}-{build}.txt"));
    let mut known: BTreeMap<String, String> = std::fs::read_to_string(&ledger)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    for (key, value) in std::mem::take(&mut r.exact) {
        match known.get(key) {
            Some(first) => r
                .op((*first != value)
                    .then(|| format!("{key} = {value}, an earlier run had {first}"))),
            None => {
                known.insert(key.to_string(), value);
            }
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let _ = std::fs::create_dir_all(ledger_dir);
    let _ = std::fs::write(&ledger, text);
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = repo_root();
    let lists = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("read BENCHMARK.json: {e}"))
        .and_then(|json| {
            Ok((
                metric_list(&json, "end_to_end")?,
                metric_list(&json, "per_layer")?,
            ))
        });
    let (end_to_end, per_layer) = match lists {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let state = root.join(".bench_work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: state.join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        std::process::exit(1);
    }
    // An error ends the workload early; it counts as a failed operation
    // and the run still reports what it measured until then.
    let mut r = Report::default();
    let result = match args.workload.as_str() {
        "profile_mcf" => profile_mcf::run(&ctx, &mut r),
        "serve_mixed" => serve_mixed::run(&ctx, &mut r),
        _ => opt_mcf::run(&ctx, &mut r),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = result {
        r.op(Some(e));
    }
    check_ledger(&mut r, &args.workload, args.seed, &state.join("counts"));

    let mut metrics = Vec::new();
    if args.trace {
        let spans = trace::spans();
        let path = state.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::flush(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        r.layers.insert("host.peak_rss_mb", util::peak_rss_mb());
        let unlisted: Vec<&str> = r
            .layers
            .keys()
            .filter(|k| !per_layer.iter().any(|(n, _)| n == *k))
            .copied()
            .collect();
        for k in unlisted {
            r.op(Some(format!(
                "{k} is measured but not listed in BENCHMARK.json"
            )));
        }
        for (name, unit) in &per_layer {
            let v = r.layers.get(name.as_str()).copied().unwrap_or(0.0);
            metrics.push(metric(name, if v.is_finite() { v } else { 0.0 }, unit));
        }
    } else {
        let values = BTreeMap::from([
            ("setup_s", median(&r.setup_s)),
            (
                "peak_heap_mb",
                r.peak_heap_mb.iter().copied().fold(f64::NAN, f64::max),
            ),
            ("job_s", median(&r.job_s)),
            ("ea_precision_pct", r.ea_precision_pct),
        ]);
        for (name, unit) in &end_to_end {
            let v = values.get(name.as_str()).copied().unwrap_or(f64::NAN);
            if !(v.is_finite() && v > 0.0) {
                r.op(Some(format!("{name} was not measured ({v})")));
            }
            metrics.push(metric(name, if v.is_finite() { v } else { 0.0 }, unit));
        }
    }
    eprintln!(
        "perfbench: {}: setup_s {:?} job_s {:?} raw {:?} peak_heap_mb {:?}",
        args.workload, r.setup_s, r.job_s, r.job_raw_s, r.peak_heap_mb
    );
    for p in &r.problems {
        eprintln!("perfbench: {}: FAILED: {p}", args.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}
