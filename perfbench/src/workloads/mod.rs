//! The four workloads and what they share: the compiler switch (plain
//! library or traced replica), the option sets, and the measured result.
//!
//! A workload is built by [`setup`] (timed as `setup_s`), then
//! [`Workload::measure`] runs an untimed warm-up, times operations until
//! the requested seconds have passed, and checks every output outside
//! the timed regions.

mod compile_table1;
mod explore_sweep;
mod serve_mixed;
mod simulate_system;

use crate::gauge::Gauge;
use crate::replica;
use crate::trace::Tracer;
use roccc::{CompileError, CompileOptions, Compiled, PhaseTimings};
use roccc_testutil::XorShift64;
use std::sync::Arc;

/// Which compiler a workload's compiles go through.
#[derive(Clone)]
pub enum Compiler {
    /// The library pipeline, `roccc::compile`.
    Plain,
    /// The traced replica, recording into the tracer.
    Traced(Arc<Tracer>),
}

impl Compiler {
    /// Compiles and renders VHDL.
    ///
    /// # Errors
    ///
    /// The compile error, unchanged.
    pub fn compile_vhdl(
        &self,
        source: &str,
        func: &str,
        opts: &CompileOptions,
    ) -> Result<(Compiled, String), CompileError> {
        match self {
            Compiler::Plain => roccc::compile(source, func, opts).map(|c| {
                let vhdl = c.to_vhdl();
                (c, vhdl)
            }),
            Compiler::Traced(t) => replica::compile_traced(t, source, func, opts),
        }
    }

    /// Compiles without rendering, in the shape `roccc-explore` and
    /// `roccc-serve` call their compiler hook with. The traced replica
    /// still renders (and drops) VHDL, which the drift guard checks.
    ///
    /// # Errors
    ///
    /// The compile error, unchanged.
    pub fn compile_timed(
        &self,
        source: &str,
        func: &str,
        opts: &CompileOptions,
    ) -> Result<(Compiled, PhaseTimings), CompileError> {
        match self {
            Compiler::Plain => roccc::compile_timed(source, func, opts),
            Compiler::Traced(t) => replica::compile_traced(t, source, func, opts)
                .map(|(c, _)| (c, PhaseTimings::default())),
        }
    }
}

/// The `full` option set: range narrowing, modulo scheduling at MinII and
/// translation validation on top of `base`.
pub fn full(base: &CompileOptions) -> CompileOptions {
    CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        prove: true,
        ..base.clone()
    }
}

/// Fisher–Yates shuffle driven by the benchmark seed.
pub fn shuffle<T>(rng: &mut XorShift64, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_index(i + 1));
    }
}

/// The timed end-to-end figures of one measured segment.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timing {
    /// Typical op latency (the workload defines "typical").
    pub latency_ms: f64,
    /// Latency of the slowest kind of op (the workload defines "kind").
    pub worst_ms: f64,
    /// Work completed per second of measured time.
    pub throughput_per_s: f64,
}

/// The result of one measured segment.
#[derive(Debug, Default)]
pub struct Measured {
    /// At reference speed.
    pub timing: Timing,
    /// Unscaled.
    pub raw: Timing,
    /// Every timed op's unscaled latency (explore-sweep: every candidate
    /// compile, since a sweep has too few ops for a tail), for the tail
    /// printed as an extra. Tails are left unscaled: a slow op next to a
    /// fast gauge sample would land in the tail scaled up.
    pub op_ms: Vec<f64>,
    /// Operations timed.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Workload-specific rows `(metric, value, unit)`, printed and
    /// written with `--out` but not part of the registered metric set.
    pub extras: Vec<(String, f64, &'static str)>,
}

impl Measured {
    /// Records an output-check failure, keeping the first 20 messages.
    pub fn note(&mut self, error: String) {
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }
}

/// Per-class op times, raw and at reference speed, for the single-thread
/// workloads that scale every op by the gauge sampled just before it.
#[derive(Debug)]
pub struct Scaled {
    /// Raw op times in ms, by class.
    pub raw: Vec<Vec<f64>>,
    /// The same ops at reference speed.
    pub scaled: Vec<Vec<f64>>,
    /// Raw op times in the order the ops ran.
    pub in_order: Vec<f64>,
}

impl Scaled {
    /// Empty series for `classes` op classes, with room for more ops than
    /// a run makes: were they to grow during the run, the harness's own
    /// buffers would move `peak_heap_mb` whenever the op count crossed a
    /// power of two.
    pub fn new(classes: usize) -> Scaled {
        const OPS: usize = 1 << 15;
        let series = || {
            (0..classes)
                .map(|_| Vec::with_capacity(OPS / classes))
                .collect()
        };
        Scaled {
            raw: series(),
            scaled: series(),
            in_order: Vec::with_capacity(OPS),
        }
    }

    /// Records an op of `class` that took `ms` right after `gauge` was
    /// ticked.
    pub fn push(&mut self, class: usize, ms: f64, gauge: &Gauge) {
        self.raw[class].push(ms);
        self.scaled[class].push(ms * gauge.scale());
        self.in_order.push(ms);
    }

    /// Fills `m`'s timing fields: latency is the geometric mean of the
    /// per-class medians, the worst is the highest of them, throughput is
    /// `work` per busy second.
    pub fn fill(&self, m: &mut Measured, work: f64) {
        let of = |series: &[Vec<f64>]| {
            let medians: Vec<f64> = series.iter().map(|s| crate::median(s)).collect();
            let busy_s = series.iter().flatten().sum::<f64>() / 1e3;
            Timing {
                latency_ms: crate::geomean(&medians),
                worst_ms: medians.iter().copied().fold(f64::NAN, f64::max),
                throughput_per_s: work / busy_s,
            }
        };
        m.timing = of(&self.scaled);
        m.raw = of(&self.raw);
        m.op_ms = self.in_order.clone();
    }

    /// Median of one class at reference speed.
    pub fn median(&self, class: usize) -> f64 {
        crate::median(&self.scaled[class])
    }
}

/// A set-up workload.
pub trait Workload {
    /// Warms up, then measures for `seconds`, with compiles going through
    /// `compiler`, sampling `gauge` between ops.
    fn measure(&mut self, compiler: &Compiler, seconds: f64, gauge: &mut Gauge) -> Measured;

    /// Releases what the workload holds (the serve daemon).
    fn finish(self: Box<Self>) {}
}

/// Builds workload `name` from `seed`. Compiles done while setting up go
/// through `compiler` where the workload has no other compile to trace.
///
/// # Errors
///
/// An unknown name, or a set-up step that failed.
pub fn setup(name: &str, seed: u64, compiler: &Compiler) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "compile-table1" => Box::new(compile_table1::CompileTable1::setup(seed)?),
        "explore-sweep" => Box::new(explore_sweep::ExploreSweep::setup(seed)?),
        "simulate-system" => Box::new(simulate_system::SimulateSystem::setup(seed, compiler)?),
        "serve-mixed" => Box::new(serve_mixed::ServeMixed::setup(seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Whether `seconds` have passed since `start`, counting at least one op.
fn done(start: std::time::Instant, seconds: f64, ops: usize) -> bool {
    ops > 0 && start.elapsed().as_secs_f64() >= seconds
}
