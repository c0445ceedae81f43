//! # roccc-perfbench — the benchmark of the ROCCC reproduction
//!
//! One command, `bench`, measures the four things a user of this
//! repository waits for: C → VHDL compile latency on the Table 1 kernels,
//! design-space exploration throughput, system-simulation speed and the
//! compile daemon's request latency. Each is a named workload:
//!
//! | workload | what one run times | why |
//! |---|---|---|
//! | `compile-table1` | `roccc::compile(..).to_vhdl()` of the nine Table 1 kernels under `default` and `full` options, 1 thread, closed loop, seeded order | every compile layer on successful compiles; `default` bypasses range/schedule/prove, so their optimisations show on `full` rows only |
//! | `explore-sweep` | `roccc_explore::explore` over fir, dct, wavelet × unroll {1,2,3,4,6,8} × strip {0,2,4,8} under `full`, 2 workers, cold memo | the failure path: most candidates fail after a large hlir expansion, plus mapping and simulation of the scored ones |
//! | `simulate-system` | `Compiled::run` of fir, dct and wavelet on seeded arrays and `roccc_stream::run_cosim` of `wavelet \| threshold \| encode` | no compile in the timed region, so a compiler optimisation predicts no change here |
//! | `serve-mixed` | an in-process `roccc-serve` daemon under an open loop of 300 req/s from 2 threads, 10% of requests unique | cache hits exercise protocol and cache, misses exercise compile + render + re-verify |
//!
//! Every run of a workload reports the same end-to-end metrics
//! ([`END_TO_END`]); "op" means one compile, one sweep, one simulation
//! run or one request. Times and rates are scaled to reference speed by
//! the host speed [`gauge`], because shared hosts change speed in
//! phases. A traced run (`--trace 1`) routes every compile
//! through [`replica::compile_traced`], a copy of `roccc::compile` built
//! from the crates' public functions with a span around each pass, and
//! reports the per-layer metrics ([`PER_LAYER`]). The drift guard
//! ([`trace::Tracer::drift_check`]) fails the run unless every traced
//! compile produced what `roccc::compile` produces.
//!
//! The seven older bins in `crates/bench` and the root `BENCH_*.json`
//! files are not this benchmark: they are artifact generators with
//! their own schemas.

#![warn(missing_docs)]

pub mod compare;
pub mod gauge;
pub mod heap;
pub mod json;
pub mod replica;
pub mod trace;
pub mod workloads;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, sizes).
    Lower,
    /// Larger is better (throughputs, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "compile-table1",
        "every compile layer on the nine Table 1 kernels under default and full options; default bypasses range, schedule and prove",
    ),
    (
        "explore-sweep",
        "design-space sweep where most candidates fail after large hlir expansion; adds synth mapping, simulation and the worker pool",
    ),
    (
        "simulate-system",
        "system and stream simulation with no compile in the timed region, so a compiler optimisation should not move it",
    ),
    (
        "serve-mixed",
        "daemon under a 300 req/s open loop, 10% unique misses: hits use cache and protocol, misses compile, render and re-verify",
    ),
];

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_ms", "ms", Better::Lower, 0.25),
    e2e("worst_ms", "ms", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.25),
];

/// Compile passes timed by the traced run, as `(span name, metric name)`,
/// in pipeline order.
pub const PASSES: &[(&str, &str)] = &[
    ("cparse.frontend", "cparse.frontend_ms"),
    ("hlir.transform", "hlir.transform_ms"),
    ("hlir.extract", "hlir.extract_ms"),
    ("suifvm.lower", "suifvm.lower_ms"),
    ("suifvm.ssa", "suifvm.ssa_ms"),
    ("suifvm.opt", "suifvm.opt_ms"),
    ("suifvm.range", "suifvm.range_ms"),
    ("suifvm.deps", "suifvm.deps_ms"),
    ("datapath.build", "datapath.build_ms"),
    ("datapath.pipeline", "datapath.pipeline_ms"),
    ("datapath.narrow", "datapath.narrow_ms"),
    ("schedule.modulo", "schedule.modulo_ms"),
    ("datapath.verify", "datapath.verify_ms"),
    ("netlist.build", "netlist.build_ms"),
    ("netlist.verify", "netlist.verify_ms"),
    ("prove.prove", "prove.prove_ms"),
    ("prove.check", "prove.check_ms"),
    ("vhdl.render", "vhdl.render_ms"),
];

/// Per-layer metrics, reported by every traced run of every workload.
/// The `_ms` pass metrics are self time per traced compile; the counts
/// are summed over the distinct (kernel, options) pairs the run
/// compiled, so they repeat exactly between runs.
pub const PER_LAYER: &[MetricDef] = &[
    layer("cparse.frontend_ms", "ms", Better::Lower),
    layer("hlir.transform_ms", "ms", Better::Lower),
    layer("hlir.extract_ms", "ms", Better::Lower),
    layer("suifvm.lower_ms", "ms", Better::Lower),
    layer("suifvm.ssa_ms", "ms", Better::Lower),
    layer("suifvm.opt_ms", "ms", Better::Lower),
    layer("suifvm.range_ms", "ms", Better::Lower),
    layer("suifvm.deps_ms", "ms", Better::Lower),
    layer("datapath.build_ms", "ms", Better::Lower),
    layer("datapath.pipeline_ms", "ms", Better::Lower),
    layer("datapath.narrow_ms", "ms", Better::Lower),
    layer("schedule.modulo_ms", "ms", Better::Lower),
    layer("datapath.verify_ms", "ms", Better::Lower),
    layer("netlist.build_ms", "ms", Better::Lower),
    layer("netlist.verify_ms", "ms", Better::Lower),
    layer("prove.prove_ms", "ms", Better::Lower),
    layer("prove.check_ms", "ms", Better::Lower),
    layer("vhdl.render_ms", "ms", Better::Lower),
    layer("compile.err_share", "ratio", Better::Lower),
    layer("compile.useful_ratio", "ratio", Better::Higher),
    layer("hlir.stmts_out", "count", Better::Lower),
    layer("suifvm.instrs", "count", Better::Lower),
    layer("datapath.ops", "count", Better::Lower),
    layer("netlist.cells", "count", Better::Lower),
    layer("vhdl.bytes", "count", Better::Lower),
    layer("prove.sat_obligations", "count", Better::Lower),
    layer("prove.rewrite_steps", "count", Better::Lower),
    layer("area_slices", "slices", Better::Lower),
    layer("fmax_geomean_mhz", "MHz", Better::Higher),
    layer("trace_overhead_ratio", "ratio", Better::Higher),
];

/// The registered metric called `name`, end-to-end or per-layer.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// True when `name` is a valid workload or metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples on even counts. NaN when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads agree with the ones a Python check computes. A single sample
/// is its own quartiles; NaN when `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// Geometric mean of positive samples; NaN when `xs` is empty or holds a
/// non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Linear-interpolated percentile (`p` in 0..=100). NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest of p99, p95, p90 and p50 that leaves at least ten of `n`
/// samples beyond it, or `None` when not even the median does. p99.9 is
/// left out: with the ten samples it needs it moved by a third between
/// runs of serve-mixed, where p99 stays within a tenth.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (whose clock ticks are 1/100 s on Linux); NaN where
/// `/proc` is not available.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 300 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() >= before + 0.05, "{before}");
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "invalid name `{name}`");
            assert!(seen.insert(name), "duplicate name `{name}`");
        }
        for (_, metric) in PASSES {
            assert!(
                metric_def(metric).is_some(),
                "pass metric {metric} unregistered"
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` and the registry above must name the same
    /// workloads and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(json::Json::as_array)
                .unwrap_or_else(|| panic!("`{key}` is an array"))
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(json::Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let registered: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(names("workloads"), registered, "workloads");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = names(key);
            let registered: Vec<String> = defs.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(listed, registered, "{key}");
            for (entry, def) in doc
                .get(key)
                .and_then(json::Json::as_array)
                .unwrap()
                .iter()
                .zip(defs)
            {
                assert!(valid_name(def.name), "{}", def.name);
                assert_eq!(
                    entry.get("unit").and_then(json::Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(json::Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(json::Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let why: Vec<String> = doc
            .get("workloads")
            .and_then(json::Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("why")
                    .and_then(json::Json::as_str)
                    .expect("why")
                    .to_string()
            })
            .collect();
        let registered_why: Vec<String> = WORKLOADS.iter().map(|w| w.1.to_string()).collect();
        assert_eq!(why, registered_why, "workload reasons");
    }
}
