//! # roccc-stream — multi-kernel streaming process networks
//!
//! The single-kernel pipeline (`roccc::compile`) turns one C loop nest
//! into one pipelined data path. Real image workloads are *pipelines of
//! kernels* — `wavelet | threshold | encode` — so this crate adds the
//! system layer above it:
//!
//! * a pipeline-description language ([`parse_spec`]) naming the stages
//!   and the streams between them;
//! * per-stage produce/consume **rate extraction** from the compiled
//!   kernels ([`rate`]): how many elements each firing pushes, at which
//!   statically known addresses, and how far out of flat-address order;
//! * **FIFO depth derivation** from those rates — reorder span + one
//!   burst is the deadlock-free minimum; non-static patterns take a
//!   conservative whole-array fallback;
//! * composition **verification** as the `P0xx` diagnostic family
//!   (`roccc_verify::verify_pipeline`): dangling ports, rate mismatches,
//!   undersized FIFOs, duplicate drivers, cycles;
//! * whole-pipeline **co-simulation** ([`run_cosim`]): every stage's
//!   lane-batched compiled simulation wired through credit-based
//!   [`ChannelFifo`] channels, with backpressure stalls and bubble
//!   propagation across stage boundaries, checked bit-exact against the
//!   composed single-kernel goldens ([`chain_golden`]);
//! * **VHDL top-level emission** instantiating the per-kernel entities
//!   with FIFO glue ([`generate_pipeline_vhdl`]).
//!
//! [`ARTIFACTS`] declares what a compiled pipeline renders: the
//! [`stats_report`], the VHDL, and the [`cosim_report`], which only a
//! local run can produce.
//!
//! The FIFO sizing follows the polyhedral process-network tradition
//! (Alias et al.): channel buffers fall out of the producer/consumer
//! access patterns instead of guesswork.

#![warn(missing_docs)]

pub mod cosim;
pub mod fifo;
pub mod rate;
pub mod spec;
pub mod vhdl;

pub use cosim::{chain_golden, run_cosim, CosimRun, StageStats};
pub use fifo::ChannelFifo;
pub use rate::{consume_rate, produce_rate, stage_rates, ConsumeRate, ProduceRate, StageRates};
pub use spec::{parse_spec, BindSpec, FifoSpec, PipelineSpec, StageSpec};
pub use vhdl::generate_pipeline_vhdl;

use roccc::artifact::{Artifact, Table};
use roccc::hash::Fnv64;
use roccc::{CompileError, CompileOptions, Compiled, Diagnostic, VerifyLevel};
use roccc_verify::pipeline::{BindView, ChannelView, PipelineView, PortView, StageView};
use std::collections::HashMap;
use std::fmt;

/// Errors from pipeline parsing, compilation, verification or
/// co-simulation.
#[derive(Debug)]
pub enum StreamError {
    /// Malformed pipeline description or unsupported stage shape.
    Spec(String),
    /// One stage failed to compile.
    Stage {
        /// The failing stage.
        stage: String,
        /// The underlying single-kernel compile error.
        err: CompileError,
    },
    /// The pipeline-composition verifier rejected the network (fatal
    /// `P0xx` findings under the requested [`VerifyLevel`]).
    Verify(Vec<Diagnostic>),
    /// Co-simulation failure (missing inputs, simulation fault,
    /// deadlock).
    Sim(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Spec(m) => write!(f, "pipeline spec error: {m}"),
            StreamError::Stage { stage, err } => write!(f, "stage `{stage}`: {err}"),
            StreamError::Verify(diags) => {
                write!(
                    f,
                    "pipeline verification failed with {} finding(s):",
                    diags.len()
                )?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            StreamError::Sim(m) => write!(f, "pipeline simulation error: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One stage of a compiled pipeline.
#[derive(Debug, Clone)]
pub struct CompiledStage {
    /// Stage name == kernel function name.
    pub name: String,
    /// The effective options this stage compiled with (base + stage
    /// overrides).
    pub opts: CompileOptions,
    /// The compiled kernel.
    pub compiled: Compiled,
    /// Extracted produce/consume rates.
    pub rates: StageRates,
}

/// One resolved stage-to-stage channel.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Producer stage index into `CompiledPipeline::stages`.
    pub from_stage: usize,
    /// Producer output array.
    pub from_array: String,
    /// Consumer stage index.
    pub to_stage: usize,
    /// Consumer input window array.
    pub to_array: String,
    /// Flat address space size (elements streamed).
    pub len: usize,
    /// Elements per producer firing.
    pub burst: usize,
    /// Deadlock-free minimum depth.
    pub min_depth: usize,
    /// Configured depth (derived, or a `fifo` override).
    pub depth: usize,
    /// Whether the depth came from static rate analysis (false = the
    /// conservative whole-array fallback).
    pub static_rates: bool,
    /// Statically written flat addresses (unwritten commit as zeros).
    pub write_mask: Vec<bool>,
}

/// A fully compiled and verified pipeline.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// The parsed description.
    pub spec: PipelineSpec,
    /// Compiled stages, in declaration order.
    pub stages: Vec<CompiledStage>,
    /// Resolved channels.
    pub channels: Vec<Channel>,
    /// The plain-data view the `P0xx` checks ran over.
    pub view: PipelineView,
    /// Non-fatal composition findings (empty under `VerifyLevel::Off`).
    pub diagnostics: Vec<Diagnostic>,
}

/// Compiles every stage of `spec` from `source` and composes them into
/// a verified process network. `base` supplies the default per-stage
/// [`CompileOptions`] (overridden by `stage` directives); its `verify`
/// level also gates the `P0xx` composition findings.
///
/// # Errors
///
/// [`StreamError::Stage`] when a stage fails to compile,
/// [`StreamError::Spec`] for stages outside the streamable shape
/// (straight-line kernels, loop-carried feedback), and
/// [`StreamError::Verify`] for fatal composition findings.
pub fn compile_pipeline(
    source: &str,
    spec: &PipelineSpec,
    base: &CompileOptions,
) -> Result<CompiledPipeline, StreamError> {
    let mut stages = Vec::with_capacity(spec.stages.len());
    for s in &spec.stages {
        let opts = s.apply(base)?;
        let compiled =
            roccc::compile(source, &s.name, &opts).map_err(|err| StreamError::Stage {
                stage: s.name.clone(),
                err,
            })?;
        let kernel = &compiled.kernel;
        if kernel.dims.is_empty() {
            return Err(StreamError::Spec(format!(
                "stage `{}` is a straight-line kernel — process networks stream loop \
                 kernels (arrays in, arrays out)",
                s.name
            )));
        }
        if !kernel.feedback.is_empty() || !kernel.scalar_outputs.is_empty() {
            return Err(StreamError::Spec(format!(
                "stage `{}` has loop-carried feedback or scalar outputs, which have no \
                 streaming consumer — keep it a standalone kernel",
                s.name
            )));
        }
        let rates = stage_rates(kernel, compiled.netlist.latency);
        stages.push(CompiledStage {
            name: s.name.clone(),
            opts,
            compiled,
            rates,
        });
    }

    // Resolve bindings: explicit first, then auto-derived for
    // consecutive single-port stage pairs with no explicit driver.
    let mut binds = spec.binds.clone();
    for pair in 0..spec.stages.len().saturating_sub(1) {
        let (prod, cons) = (&stages[pair], &stages[pair + 1]);
        let consumer_driven = binds.iter().any(|b| b.to_stage == cons.name);
        if !consumer_driven
            && prod.compiled.kernel.outputs.len() == 1
            && cons.compiled.kernel.windows.len() == 1
        {
            binds.push(BindSpec {
                from_stage: prod.name.clone(),
                from_array: prod.compiled.kernel.outputs[0].array.clone(),
                to_stage: cons.name.clone(),
                to_array: cons.compiled.kernel.windows[0].array.clone(),
            });
        }
    }

    // Build channels for the bindings that resolve to real ports.
    let stage_index = |name: &str| stages.iter().position(|s| s.name == name);
    let mut channels = Vec::new();
    for b in &binds {
        let (Some(fi), Some(ti)) = (stage_index(&b.from_stage), stage_index(&b.to_stage)) else {
            continue;
        };
        let Some(pr) = stages[fi]
            .rates
            .produces
            .iter()
            .find(|p| p.array == b.from_array)
        else {
            continue;
        };
        if !stages[ti]
            .rates
            .consumes
            .iter()
            .any(|c| c.array == b.to_array)
        {
            continue;
        }
        let derived = pr.min_depth + pr.burst.max(spec.bus_elems.max(1));
        let depth = spec
            .fifos
            .iter()
            .find(|f| f.stage == b.to_stage && f.array == b.to_array)
            .map_or(derived, |f| f.depth);
        channels.push(Channel {
            from_stage: fi,
            from_array: b.from_array.clone(),
            to_stage: ti,
            to_array: b.to_array.clone(),
            len: pr.len,
            burst: pr.burst,
            min_depth: pr.min_depth,
            depth,
            static_rates: pr.static_rates,
            write_mask: pr.write_mask.clone(),
        });
    }

    // Run the P0xx composition checks over the plain-data view.
    let view = build_view(spec, &stages, &binds, &channels);
    let findings = roccc_verify::verify_pipeline(&view);
    if base.verify.is_fatal(&findings) {
        return Err(StreamError::Verify(findings));
    }
    let diagnostics = if base.verify == VerifyLevel::Off {
        Vec::new()
    } else {
        findings
    };

    Ok(CompiledPipeline {
        spec: spec.clone(),
        stages,
        channels,
        view,
        diagnostics,
    })
}

fn build_view(
    spec: &PipelineSpec,
    stages: &[CompiledStage],
    binds: &[BindSpec],
    channels: &[Channel],
) -> PipelineView {
    PipelineView {
        name: spec.name.clone(),
        stages: stages
            .iter()
            .map(|s| StageView {
                name: s.name.clone(),
                inputs: s
                    .rates
                    .consumes
                    .iter()
                    .map(|c| PortView {
                        array: c.array.clone(),
                        len: c.len,
                        elem_bits: c.elem_bits,
                    })
                    .collect(),
                outputs: s
                    .rates
                    .produces
                    .iter()
                    .map(|p| PortView {
                        array: p.array.clone(),
                        len: p.len,
                        elem_bits: p.elem_bits,
                    })
                    .collect(),
            })
            .collect(),
        binds: binds
            .iter()
            .map(|b| BindView {
                from_stage: b.from_stage.clone(),
                from_array: b.from_array.clone(),
                to_stage: b.to_stage.clone(),
                to_array: b.to_array.clone(),
            })
            .collect(),
        channels: channels
            .iter()
            .map(|c| {
                let consume = stages[c.to_stage]
                    .rates
                    .consumes
                    .iter()
                    .find(|r| r.array == c.to_array)
                    .expect("channel consumer resolved");
                let produce = stages[c.from_stage]
                    .rates
                    .produces
                    .iter()
                    .find(|r| r.array == c.from_array)
                    .expect("channel producer resolved");
                ChannelView {
                    bind: BindView {
                        from_stage: stages[c.from_stage].name.clone(),
                        from_array: c.from_array.clone(),
                        to_stage: stages[c.to_stage].name.clone(),
                        to_array: c.to_array.clone(),
                    },
                    produced_len: produce.len,
                    consumed_len: consume.len,
                    producer_bits: produce.elem_bits,
                    consumer_bits: consume.elem_bits,
                    burst: c.burst,
                    min_depth: c.min_depth,
                    depth: c.depth,
                    static_rates: c.static_rates,
                    first_consumed_addr: consume.first_addr,
                }
            })
            .collect(),
    }
}

/// Content-addressed key of one pipeline configuration: the source, the
/// full topology (stages + effective per-stage options + bindings + FIFO
/// overrides + bus width), domain-separated from single-kernel compile
/// keys so a pipeline request can never alias a kernel cache entry.
///
/// # Errors
///
/// [`StreamError::Spec`] if a stage's option overrides are malformed
/// (the same error `compile_pipeline` would report).
pub fn pipeline_cache_key(
    source: &str,
    spec: &PipelineSpec,
    base: &CompileOptions,
) -> Result<u64, StreamError> {
    let mut h = Fnv64::new();
    h.write_field(b"roccc-pipeline-v1");
    h.write_field(source.as_bytes());
    h.write_field(spec.name.as_bytes());
    h.write(&(spec.stages.len() as u64).to_le_bytes());
    for s in &spec.stages {
        h.write_field(s.name.as_bytes());
        h.write_field(&s.apply(base)?.canonical_bytes());
    }
    h.write(&(spec.binds.len() as u64).to_le_bytes());
    for b in &spec.binds {
        h.write_field(b.from_stage.as_bytes());
        h.write_field(b.from_array.as_bytes());
        h.write_field(b.to_stage.as_bytes());
        h.write_field(b.to_array.as_bytes());
    }
    h.write(&(spec.fifos.len() as u64).to_le_bytes());
    for f in &spec.fifos {
        h.write_field(f.stage.as_bytes());
        h.write_field(f.array.as_bytes());
        h.write(&(f.depth as u64).to_le_bytes());
    }
    h.write(&(spec.bus_elems as u64).to_le_bytes());
    Ok(h.finish())
}

/// The kind `roccc --pipeline` prints by default.
pub const STATS: &str = "stats";
/// The kind of the pipeline's top-level VHDL.
pub const VHDL: &str = "vhdl";

/// Every artifact kind of a compiled pipeline.
pub const ARTIFACTS: Table<CompiledPipeline> = &[
    Artifact::new(STATS, "stages and FIFO depths", |cp| Ok(stats_report(cp))),
    Artifact::new(VHDL, "the top entity with its FIFO glue", |cp| {
        Ok(generate_pipeline_vhdl(cp))
    }),
    Artifact::new("cosim", "co-simulate, checked vs chained kernels", |cp| {
        cosim_report(cp).map_err(|e| e.to_string())
    })
    .local(),
];

/// Human-readable stage/channel report (the `--pipeline` stats emit).
pub fn stats_report(cp: &CompiledPipeline) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "pipeline `{}`:", cp.spec.name);
    let _ = writeln!(
        s,
        "  {:<12} {:>10} {:>8} {:>4} {:>8} {:>8}",
        "stage", "iterations", "latency", "II", "windows", "outputs"
    );
    for st in &cp.stages {
        let _ = writeln!(
            s,
            "  {:<12} {:>10} {:>8} {:>4} {:>8} {:>8}",
            st.name,
            st.compiled.kernel.total_iterations(),
            st.rates.latency,
            st.compiled.netlist.effective_ii(),
            st.rates.consumes.len(),
            st.rates.produces.len(),
        );
    }
    let _ = writeln!(s, "  channels:");
    if cp.channels.is_empty() {
        let _ = writeln!(s, "    (none)");
    }
    for c in &cp.channels {
        let _ = writeln!(
            s,
            "    {}.{} -> {}.{}: {} elems, burst {}, min depth {}, depth {}{}",
            cp.stages[c.from_stage].name,
            c.from_array,
            cp.stages[c.to_stage].name,
            c.to_array,
            c.len,
            c.burst,
            c.min_depth,
            c.depth,
            if c.static_rates {
                ""
            } else {
                " (non-static fallback)"
            },
        );
    }
    for d in &cp.diagnostics {
        let _ = writeln!(s, "  {d}");
    }
    s
}

/// Deterministic inputs for [`cosim_report`]: every external
/// (non-channel-fed) input array gets reproducible pseudo-random words in
/// [-100, 100], every scalar live-in gets 1 (a safe divisor). One
/// xorshift stream, fixed seed — two runs of the same pipeline see
/// identical data.
fn synth_inputs(cp: &CompiledPipeline) -> (HashMap<String, Vec<i64>>, HashMap<String, i64>) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 201) as i64 - 100
    };
    let mut arrays = HashMap::new();
    let mut scalars = HashMap::new();
    for (si, st) in cp.stages.iter().enumerate() {
        for c in &st.rates.consumes {
            let channel_fed = cp
                .channels
                .iter()
                .any(|ch| ch.to_stage == si && ch.to_array == c.array);
            if !channel_fed {
                arrays.insert(
                    format!("{}.{}", st.name, c.array),
                    (0..c.len).map(|_| next()).collect(),
                );
            }
        }
        for (name, _) in &st.compiled.kernel.scalar_inputs {
            scalars.insert(format!("{}.{name}", st.name), 1);
        }
    }
    (arrays, scalars)
}

/// Co-simulates the process network on synthesized inputs, checks it
/// bit-exact against chained single-kernel golden runs, and reports the
/// cycles, per-stage stalls and FIFO peaks (the `--pipeline` cosim emit).
///
/// # Errors
///
/// A simulation error, or [`StreamError::Sim`] naming the first output
/// that diverged from the golden.
pub fn cosim_report(cp: &CompiledPipeline) -> Result<String, StreamError> {
    use std::fmt::Write as _;
    let (arrays, scalars) = synth_inputs(cp);
    let lanes = [arrays];
    let run = run_cosim(cp, &lanes, &scalars)?;
    let golden = chain_golden(cp, &lanes, &scalars)?;
    for (key, data) in &run.lane_arrays[0] {
        if golden[0].get(key) != Some(data) {
            return Err(StreamError::Sim(format!(
                "co-simulation diverged from the chained single-kernel golden on output `{key}`"
            )));
        }
    }
    let mut s = format!(
        "pipeline `{}`: {} cycles, {:.4} outputs/cycle, {} output words\n  \
         stage           fired   stalls  starves\n",
        cp.spec.name,
        run.cycles,
        run.throughput(),
        run.mem_writes
    );
    for st in &run.stages {
        let _ = writeln!(
            s,
            "  {:<12} {:>8} {:>8} {:>8}",
            st.name, st.fired, st.stall_cycles, st.starve_cycles
        );
    }
    for (c, peak) in cp.channels.iter().zip(&run.fifo_peaks) {
        let _ = writeln!(
            s,
            "  fifo {}.{} -> {}.{}: peak {peak}/{}",
            cp.stages[c.from_stage].name,
            c.from_array,
            cp.stages[c.to_stage].name,
            c.to_array,
            c.depth
        );
    }
    s.push_str("  bit-exact vs chained single-kernel golden: yes\n");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_STAGE: &str = "void scale(int16 A[32], int16 B[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
      void offset(int16 B[32], int16 C[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { C[i] = B[i] + 100; } }";

    /// Errors must be fatal regardless of the build-profile-dependent
    /// default verify level (`off` in release).
    fn warn_opts() -> CompileOptions {
        CompileOptions {
            verify: VerifyLevel::Warn,
            ..CompileOptions::default()
        }
    }

    #[test]
    fn two_stage_auto_binds_and_sizes_fifo() {
        let spec = parse_spec("pipeline scale | offset").unwrap();
        let cp = compile_pipeline(TWO_STAGE, &spec, &CompileOptions::default()).unwrap();
        assert_eq!(cp.stages.len(), 2);
        assert_eq!(cp.channels.len(), 1);
        let c = &cp.channels[0];
        assert_eq!(c.from_array, "B");
        assert_eq!(c.to_array, "B");
        assert!(c.static_rates);
        assert_eq!(c.min_depth, 1, "in-order single-burst stream");
        assert!(c.depth >= c.min_depth);
        assert!(cp.diagnostics.is_empty(), "{:?}", cp.diagnostics);
    }

    #[test]
    fn undersized_fifo_override_is_fatal_p003() {
        let spec = parse_spec("pipeline scale | offset\nfifo offset.B depth=0").unwrap();
        let err = compile_pipeline(TWO_STAGE, &spec, &warn_opts()).unwrap_err();
        match err {
            StreamError::Verify(diags) => {
                assert!(diags.iter().any(|d| d.code == "P003-undersized-fifo"));
            }
            other => panic!("expected verify error, got {other}"),
        }
    }

    #[test]
    fn dangling_bind_is_fatal_p001() {
        let spec = parse_spec("pipeline scale | offset\nbind scale.B -> offset.Q").unwrap();
        let err = compile_pipeline(TWO_STAGE, &spec, &warn_opts()).unwrap_err();
        match err {
            StreamError::Verify(diags) => {
                assert!(diags.iter().any(|d| d.code == "P001-dangling-port"));
            }
            other => panic!("expected verify error, got {other}"),
        }
    }

    #[test]
    fn rate_mismatch_is_fatal_p002() {
        let src = "void scale(int16 A[32], int16 B[32]) { int i;
            for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
          void shrink(int16 B[16], int16 C[16]) { int i;
            for (i = 0; i < 16; i = i + 1) { C[i] = B[i] + 1; } }";
        let spec = parse_spec("pipeline scale | shrink").unwrap();
        let err = compile_pipeline(src, &spec, &warn_opts()).unwrap_err();
        match err {
            StreamError::Verify(diags) => {
                assert!(diags.iter().any(|d| d.code == "P002-rate-mismatch"));
            }
            other => panic!("expected verify error, got {other}"),
        }
    }

    #[test]
    fn verify_off_collects_nothing_and_passes() {
        let spec = parse_spec("pipeline scale | offset\nfifo offset.B depth=0").unwrap();
        let base = CompileOptions {
            verify: VerifyLevel::Off,
            ..CompileOptions::default()
        };
        let cp = compile_pipeline(TWO_STAGE, &spec, &base).unwrap();
        assert!(cp.diagnostics.is_empty());
    }

    #[test]
    fn straight_line_stage_is_rejected() {
        let src = "void f(int a, int* o) { *o = a + 1; }
          void scale(int16 A[32], int16 B[32]) { int i;
            for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }";
        let spec = parse_spec("pipeline f | scale").unwrap();
        let err = compile_pipeline(src, &spec, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, StreamError::Spec(_)), "{err}");
    }

    #[test]
    fn feedback_stage_is_rejected() {
        let src = "void acc(int A[32], int B[32]) { int i; int s = 0;
            for (i = 0; i < 32; i++) { s = s + A[i]; B[i] = s; } }
          void scale(int16 B[32], int16 C[32]) { int i;
            for (i = 0; i < 32; i = i + 1) { C[i] = B[i] * 3; } }";
        let spec = parse_spec("pipeline acc | scale").unwrap();
        let err = compile_pipeline(src, &spec, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, StreamError::Spec(_)), "{err}");
    }

    #[test]
    fn cache_key_separates_topologies_and_options() {
        let base = CompileOptions::default();
        let a = parse_spec("pipeline scale | offset").unwrap();
        let b = parse_spec("pipeline scale | offset\nfifo offset.B depth=9").unwrap();
        let c = parse_spec("pipeline scale | offset\nbus 2").unwrap();
        let d = parse_spec("pipeline scale | offset\nstage scale unroll=2").unwrap();
        let ka = pipeline_cache_key(TWO_STAGE, &a, &base).unwrap();
        let kb = pipeline_cache_key(TWO_STAGE, &b, &base).unwrap();
        let kc = pipeline_cache_key(TWO_STAGE, &c, &base).unwrap();
        let kd = pipeline_cache_key(TWO_STAGE, &d, &base).unwrap();
        let ks = pipeline_cache_key("void g() {}", &a, &base).unwrap();
        let all = [ka, kb, kc, kd, ks];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "keys {i} and {j} alias");
            }
        }
        // And never aliases the single-kernel key space for the same text.
        assert_ne!(ka, roccc::hash::cache_key(TWO_STAGE, "scale", &base));
    }

    #[test]
    fn stats_report_lists_stages_and_channels() {
        let spec = parse_spec("pipeline scale | offset").unwrap();
        let cp = compile_pipeline(TWO_STAGE, &spec, &CompileOptions::default()).unwrap();
        let report = stats_report(&cp);
        assert!(report.contains("scale"));
        assert!(report.contains("min depth"));
    }
}
