//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- \
//!     --workload NAME|all|NAME,NAME [--seed N] [--seconds S] [--trace 0|1] \
//!     [--trace-out PATH] [--out PATH]
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- \
//!     --compare A.jsonl B.jsonl
//! ```
//!
//! One workload runs in this process and prints every metric as
//! `workload metric value unit`, then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`.
//! Several workloads run one after another, each in a child process of
//! its own, so that set-up time and peak memory belong to one workload.
//! Times and rates are at reference speed (see `gauge.rs`); the unscaled
//! values are printed as `raw.*` rows.
//! `--out` appends one JSON row per (workload, metric) for `--compare`;
//! `--trace-out` writes the traced run's spans as Chrome trace-event
//! JSON. The exit code is 0 only when every output check passed.

use roccc_perfbench::gauge::Gauge;
use roccc_perfbench::heap;
use roccc_perfbench::json::{self, Json};
use roccc_perfbench::trace::Tracer;
use roccc_perfbench::workloads::{setup, Compiler, Measured};
use roccc_perfbench::{
    compare, median, peak_rss_mb, percentile, tail_percentile, MetricDef, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use std::io::Write as _;
use std::process::Command;
use std::sync::Arc;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str = "usage: bench --workload NAME|all|NAME,NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out PATH] [--out PATH]\n       \
                     bench --compare A.jsonl B.jsonl";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads = if v == "all" {
                    WORKLOADS.iter().map(|w| w.0.to_string()).collect()
                } else {
                    v.split(',').map(str::to_string).collect()
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: integer expected")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds: number expected")?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1 expected".into()),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--compare" => {
                let first = value()?;
                a.compare = Some((first, value()?));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.compare.is_none() && a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    for w in &a.workloads {
        if !WORKLOADS.iter().any(|k| k.0 == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(a)
}

/// Everything one run reports.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    extras: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Registered metrics in registry order.
fn registered(
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    defs.iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {} not computed", d.name));
            (d.name, v, d.unit)
        })
        .collect()
}

fn untraced(name: &str, a: &Args) -> Result<Report, String> {
    let mut gauge = Gauge::default();
    let (mut setup_raw, mut setup_scaled) = (Vec::new(), Vec::new());
    let mut workload = None;
    for i in 0..SETUP_REPEATS {
        let (w, raw, scaled) = gauge.time(|| setup(name, a.seed, &Compiler::Plain));
        let w = w?;
        setup_raw.push(raw);
        setup_scaled.push(scaled);
        if i + 1 < SETUP_REPEATS {
            w.finish();
        } else {
            workload = Some(w);
        }
    }
    let mut w = workload.expect("at least one set-up");
    let mut m = w.measure(&Compiler::Plain, a.seconds, &mut gauge);
    w.finish();
    let values = [
        ("setup_s", median(&setup_scaled)),
        ("latency_ms", m.timing.latency_ms),
        ("worst_ms", m.timing.worst_ms),
        ("throughput_per_s", m.timing.throughput_per_s),
        ("peak_heap_mb", heap::peak_mb()),
    ];
    m.extras
        .push(("process.peak_rss_mb".into(), peak_rss_mb(), "MB"));
    m.extras
        .push(("host.gauge_ms".into(), gauge.median_ms(), "ms"));
    m.extras
        .push(("op.samples".into(), m.op_ms.len() as f64, "count"));
    // The tail: the highest percentile with at least ten samples beyond it.
    if let Some(p) = tail_percentile(m.op_ms.len()) {
        m.extras.push(("op.tail_percentile".into(), p, "%"));
        m.extras
            .push(("op.tail_ms".into(), percentile(&m.op_ms, p), "ms"));
    }
    m.extras
        .push(("raw.setup_s".into(), median(&setup_raw), "s"));
    m.extras
        .push(("raw.latency_ms".into(), m.raw.latency_ms, "ms"));
    m.extras.push(("raw.worst_ms".into(), m.raw.worst_ms, "ms"));
    m.extras
        .push(("raw.throughput_per_s".into(), m.raw.throughput_per_s, "1/s"));
    Ok(Report {
        metrics: registered(END_TO_END, &values),
        extras: m.extras,
        attempted: m.attempted,
        failed: m.failed,
        errors: m.errors,
    })
}

fn traced(name: &str, a: &Args) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::new());
    let traced = Compiler::Traced(Arc::clone(&tracer));
    let mut gauge = Gauge::default();
    let mut w = setup(name, a.seed, &traced)?;
    // A short untraced segment gives the baseline of the overhead ratio.
    let base: Measured = w.measure(&Compiler::Plain, a.seconds / 5.0, &mut gauge);
    let m = w.measure(&traced, a.seconds, &mut gauge);
    w.finish();
    if tracer.compile_count() == 0 {
        return Err("the traced run compiled nothing".into());
    }

    let mut layer = tracer.layer_metrics();
    layer.push((
        "trace_overhead_ratio",
        m.timing.throughput_per_s / base.timing.throughput_per_s,
    ));
    let mut errors = base.errors;
    errors.extend(m.errors);
    errors.extend(
        tracer
            .drift_check()
            .into_iter()
            .map(|d| format!("replica drift: {d}")),
    );
    if let Some(path) = &a.trace_out {
        std::fs::write(path, tracer.chrome_trace(name)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: {} spans written to {path}", tracer.spans().len());
    }
    let mut extras = m.extras;
    extras.push((
        "compile.traced".into(),
        tracer.compile_count() as f64,
        "count",
    ));
    Ok(Report {
        metrics: registered(PER_LAYER, &layer),
        extras,
        attempted: base.attempted + m.attempted,
        failed: base.failed + m.failed,
        errors,
    })
}

fn run_one(name: &str, a: &Args) -> i32 {
    let report = if a.trace {
        traced(name, a)
    } else {
        untraced(name, a)
    };
    let r = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench: {name}: {e}");
            return 1;
        }
    };
    for e in &r.errors {
        eprintln!("bench: {name}: CHECK FAILED: {e}");
    }
    let correct = r.errors.is_empty() && r.failed == 0;

    let rows: Vec<(&str, f64, &str)> = r
        .extras
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .chain(r.metrics.iter().copied())
        .collect();
    for (metric, value, unit) in &rows {
        println!("{name} {metric} {value} {unit}");
    }
    if let Some(path) = &a.out {
        let mut text = String::new();
        for (metric, value, unit) in &rows {
            text.push_str(&format!(
                "{{\"workload\":{},\"metric\":{},\"value\":{},\"unit\":{},\"seed\":{},\"trace\":{}}}\n",
                json::quote(name),
                json::quote(metric),
                json::num(*value),
                json::quote(unit),
                a.seed,
                u8::from(a.trace)
            ));
        }
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(text.as_bytes()));
        if let Err(e) = appended {
            eprintln!("bench: {path}: {e}");
            return 1;
        }
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(n),
                json::num(*v),
                json::quote(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    i32::from(!correct)
}

/// Runs each workload in a child process, in the order given, echoes its
/// rows, and ends with one summary line naming the workloads that
/// completed.
fn run_children(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench: cannot find own executable: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut per_workload = Vec::new();
    for name in &a.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(out) = &a.out {
            cmd.args(["--out", out]);
        }
        if let Some(t) = &a.trace_out {
            let stem = t.strip_suffix(".json").unwrap_or(t);
            cmd.args(["--trace-out", &format!("{stem}.{name}.json")]);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("bench: {name}: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for l in &lines[..lines.len().saturating_sub(1)] {
            println!("{l}");
        }
        let last = lines.last().and_then(|l| json::parse(l).ok());
        match last {
            Some(doc) if output.status.success() => {
                let field = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                attempted += field("attempted");
                failed += field("failed");
                per_workload.push(json::quote(name));
            }
            _ => {
                eprintln!("bench: {name}: failed ({})", output.status);
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": [{}]}}",
        per_workload.join(", ")
    );
    i32::from(!correct)
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if let Some((pa, pb)) = &a.compare {
        let load = |p: &str| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| compare::read_rows(&t).map_err(|e| format!("{p}: {e}")))
        };
        match (load(pa), load(pb)) {
            (Ok(ra), Ok(rb)) => {
                let (report, regressed) = compare::compare(&ra, &rb);
                print!("{report}");
                i32::from(regressed)
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench: {e}");
                2
            }
        }
    } else if a.workloads.len() == 1 {
        run_one(&a.workloads[0], &a)
    } else {
        run_children(&a)
    };
    std::process::exit(code);
}
