//! # roccc — the end-to-end compiler pipeline
//!
//! Reproduction of the ROCCC compiler from *"Optimized Generation of
//! Data-path from C Codes for FPGAs"* (DATE 2005): C kernels in, pipelined
//! data paths (and VHDL) out.
//!
//! The [`compile`] function chains the whole flow:
//!
//! 1. front end (`roccc-cparse`): parse + semantic checks;
//! 2. loop level (`roccc-hlir`): inlining, folding, optional unrolling,
//!    scalar replacement, feedback detection → a [`Kernel`];
//! 3. back end (`roccc-suifvm`): lowering, SSA, scalar optimizations;
//! 4. data path (`roccc-datapath`): if-conversion with mux/pipe hard
//!    nodes, pipelining, bit-width narrowing;
//! 5. RTL (`roccc-netlist`): registers materialized, cycle-accurate model;
//! 6. VHDL (`roccc-vhdl`): one component per CFG node.
//!
//! ```
//! use roccc::{compile, CompileOptions};
//!
//! # fn main() -> Result<(), roccc::CompileError> {
//! let src = "void fir(int A[21], int C[17]) { int i;
//!   for (i = 0; i < 17; i = i + 1) {
//!     C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";
//! let hw = compile(src, "fir", &CompileOptions::default())?;
//! assert_eq!(hw.kernel.windows[0].extent(), vec![5]);
//! assert!(hw.datapath.fmax_mhz() > 50.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use roccc_cparse::ast::{Function, Item, Program};
use roccc_cparse::error::CError;
use roccc_datapath::{
    build_datapath_ranged, narrow_widths, pipeline_datapath, Datapath, DefaultDelayModel,
    DelayModel,
};
use roccc_hlir::extract::extract_kernel;
use roccc_hlir::kernel::Kernel;
use roccc_netlist::{netlist_from_datapath, run_system, Netlist, SimPlan, SystemError, SystemRun};
use roccc_suifvm::{lower_function, optimize, to_ssa, FunctionIr};
use roccc_verify::{
    verify_datapath, verify_deps, verify_ir, verify_netlist, verify_ranges, verify_schedule,
};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

pub mod artifact;
pub mod hash;
pub mod options;
pub mod proto;

pub use options::{CompileOptions, UnrollStrategy};

/// Wall-clock time spent in each phase of one [`compile_timed`] call.
///
/// The `vhdl` slot is zero until somebody renders VHDL and charges it
/// (the compile pipeline itself stops at the netlist); `roccc-serve`
/// fills it when it generates the artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Front end: lex + parse + semantic checks.
    pub parse: Duration,
    /// Loop level: fusion/unrolling transforms + kernel extraction.
    pub hlir: Duration,
    /// Back end: lowering, SSA construction, scalar optimizations.
    pub suifvm: Duration,
    /// Data path: build, pipeline, narrow, verify.
    pub datapath: Duration,
    /// RTL netlist materialization + verification.
    pub netlist: Duration,
    /// VHDL rendering (charged by the caller, not by `compile`).
    pub vhdl: Duration,
}

impl PhaseTimings {
    /// Phase names, in pipeline order, matching [`PhaseTimings::get`].
    pub const PHASES: [&'static str; 6] =
        ["parse", "hlir", "suifvm", "datapath", "netlist", "vhdl"];

    /// The timing for phase index `i` of [`PhaseTimings::PHASES`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 6`.
    pub fn get(&self, i: usize) -> Duration {
        [
            self.parse,
            self.hlir,
            self.suifvm,
            self.datapath,
            self.netlist,
            self.vhdl,
        ][i]
    }

    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        (0..Self::PHASES.len()).map(|i| self.get(i)).sum()
    }
}

/// A fully compiled kernel.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Front-end kernel description (windows, loop dims, feedback).
    pub kernel: Kernel,
    /// Optimized SSA IR of the data-path function.
    pub ir: FunctionIr,
    /// Pipelined, width-narrowed data path.
    pub datapath: Datapath,
    /// Word-level netlist with pipeline registers.
    pub netlist: Netlist,
    /// The (transformed) program the kernel was extracted from.
    pub program: Program,
    /// Per-register value ranges computed by the forward analysis
    /// (`Some` iff the compile ran with [`CompileOptions::range_narrow`]).
    pub ranges: Option<roccc_suifvm::RangeMap>,
    /// Dependence graph, recurrences, and MinII lower bounds (always
    /// computed; `body_latency` holds the pipelined stage count).
    pub deps: roccc_suifvm::DepGraph,
    /// Modulo-schedule artifact (`Some` iff the compile ran with
    /// [`CompileOptions::pipeline_ii`]). When the schedule is not a
    /// fallback, its slots are already applied to [`Compiled::datapath`]
    /// and the netlist launches at its initiation interval.
    pub schedule: Option<Schedule>,
    /// Non-fatal verifier findings collected during compilation. When
    /// [`CompileOptions::verify`] is [`VerifyLevel::Off`], only the
    /// certificate check's, which runs whenever the compile proves.
    pub diagnostics: Vec<Diagnostic>,
    /// Translation-validation certificate (`Some` iff the compile ran
    /// with [`CompileOptions::prove`] and the `E` family enabled): the
    /// per-obligation equivalence audit of netlist vs. IR.
    pub certificate: Option<roccc_prove::Certificate>,
}

impl Compiled {
    /// Runs the generated hardware over concrete arrays/scalars
    /// (cycle-accurate system simulation; loop kernels only).
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] from the system simulator.
    pub fn run(
        &self,
        arrays: &HashMap<String, Vec<i64>>,
        scalars: &HashMap<String, i64>,
    ) -> Result<SystemRun, SystemError> {
        run_system(&self.kernel, &self.netlist, arrays, scalars, 1)
    }

    /// [`Compiled::run`] with a wide memory bus delivering `bus_elems`
    /// words per beat (the paper's "bus size" smart-buffer parameter).
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] from the system simulator.
    pub fn run_with_bus(
        &self,
        arrays: &HashMap<String, Vec<i64>>,
        scalars: &HashMap<String, i64>,
        bus_elems: usize,
    ) -> Result<SystemRun, SystemError> {
        run_system(&self.kernel, &self.netlist, arrays, scalars, bus_elems)
    }

    /// Generates the RTL VHDL for the data path (one component per node)
    /// plus the buffer/controller entities.
    pub fn to_vhdl(&self) -> String {
        roccc_vhdl::generate_vhdl(&self.kernel, &self.datapath)
    }

    /// DOT rendering of the data path (Figure 6/7 shape).
    pub fn to_dot(&self) -> String {
        self.datapath.to_dot()
    }

    /// Compiles the netlist into a [`SimPlan`] for fast, zero-allocation
    /// simulation on [`BatchedSim`], the one compiled engine (one lane
    /// per cycle, or many lanes per pass). `run`/`run_with_bus` do this
    /// internally: a plan without feedback
    /// ([`SimPlan::has_feedback`]) computes the fired iterations 16 lanes
    /// at a time while the controller steps every cycle, and a plan with
    /// feedback is stepped one lane per cycle. Call it directly to drive
    /// the data path yourself, e.g. for throughput measurement.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] if the netlist contains an opcode the
    /// simulator cannot execute.
    pub fn sim_plan(&self) -> Result<SimPlan, SystemError> {
        SimPlan::compile(&self.netlist).map_err(SystemError::from)
    }

    /// Human-readable report of the value-range analysis and the widths
    /// it bought (the `--emit ranges` payload). Covers the per-register
    /// IR ranges and, per data-path op, declared vs. hardware width.
    pub fn range_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        match &self.ranges {
            None => {
                s.push_str("no range analysis (compile with range_narrow)\n");
            }
            Some(map) => {
                let mut regs: Vec<_> = map.iter().collect();
                regs.sort_by_key(|(r, _)| r.0);
                let _ = writeln!(s, "ir ranges ({}):", regs.len());
                for (reg, r) in regs {
                    let _ = write!(s, "  {reg}: [{}, {}]", r.lo, r.hi);
                    if r.known_zero != 0 {
                        let _ = write!(s, " known-zero {:#x}", r.known_zero);
                    }
                    s.push('\n');
                }
            }
        }
        let _ = writeln!(s, "datapath widths ({} ops):", self.datapath.ops.len());
        for (i, op) in self.datapath.ops.iter().enumerate() {
            let _ = write!(
                s,
                "  op{i} {:?}: {} -> {} bits",
                op.op, op.ty.bits, op.hw_bits
            );
            if let Some(r) = op.range {
                let _ = write!(s, "  range [{}, {}]", r.lo, r.hi);
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "total width bits saved: {}",
            roccc_datapath::width_bits_saved(&self.datapath)
        );
        s
    }

    /// Human-readable dependence graph + MinII table (the `--emit deps`
    /// payload): accesses, surviving dependence edges, recurrences with
    /// their latency, and the RecMII/ResMII/MinII summary against the
    /// body latency the pipeline achieved.
    pub fn deps_report(&self) -> String {
        use std::fmt::Write as _;
        let d = &self.deps;
        let mut s = String::new();
        let _ = writeln!(s, "dependence graph for `{}`:", self.kernel.name);
        let _ = writeln!(s, "  dims ({}):", d.dims.len());
        for dim in &d.dims {
            let _ = writeln!(
                s,
                "    {} = {}..{} step {} (trip {})",
                dim.var, dim.start, dim.bound, dim.step, dim.trip
            );
        }
        let _ = writeln!(s, "  accesses ({}):", d.accesses.len());
        for (i, a) in d.accesses.iter().enumerate() {
            let _ = writeln!(
                s,
                "    a{i} {} {}[{}]",
                if a.write { "write" } else { "read " },
                a.array,
                a.index.join("][")
            );
        }
        let _ = writeln!(s, "  edges ({}):", d.edges.len());
        for e in &d.edges {
            let dist: Vec<String> = e.dist.iter().map(|x| x.to_string()).collect();
            let _ = writeln!(
                s,
                "    a{} -> a{} {} dist ({}){}",
                e.src,
                e.dst,
                e.kind,
                dist.join(", "),
                if e.carried { " carried" } else { "" }
            );
        }
        let _ = writeln!(s, "  recurrences ({}):", d.recurrences.len());
        for r in &d.recurrences {
            let _ = writeln!(
                s,
                "    {}: {} ops, {:.3} ns, {} cycle(s) / distance {} -> MII {}",
                r.name, r.ops, r.latency_ns, r.latency_cycles, r.distance, r.mii
            );
        }
        let _ = writeln!(
            s,
            "  mult blocks: {} used / {}",
            d.mult_blocks_used,
            match d.mult_blocks_avail {
                Some(a) => a.to_string(),
                None => "unlimited".to_string(),
            }
        );
        let _ = writeln!(
            s,
            "  min II: {} (rec {}, res {}), body latency {} cycle(s)",
            d.min_ii, d.rec_mii, d.res_mii, d.body_latency
        );
        if let Some(h) = d.headroom() {
            let _ = writeln!(s, "  modulo-scheduling headroom: {h} cycle(s)");
        }
        s
    }

    /// Deterministic JSON rendering of the certificate (schema
    /// `roccc-prove-v1`); `None` when the compile did not prove.
    pub fn prove_json(&self) -> Option<String> {
        self.certificate.as_ref().map(roccc_prove::certificate_json)
    }

    /// Deterministic JSON rendering of the dependence graph
    /// (`--emit deps-json`, schema `roccc-deps-v1`).
    pub fn deps_json(&self) -> String {
        use std::fmt::Write as _;
        let d = &self.deps;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"roccc-deps-v1\",\"function\":{:?},\"dims\":[",
            self.kernel.name
        );
        for (i, dim) in d.dims.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"var\":{:?},\"start\":{},\"step\":{},\"trip\":{}}}",
                dim.var, dim.start, dim.step, dim.trip
            );
        }
        s.push_str("],\"accesses\":[");
        for (i, a) in d.accesses.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"array\":{:?},\"write\":{},\"index\":{:?}}}",
                a.array,
                a.write,
                a.index.join("][")
            );
        }
        s.push_str("],\"edges\":[");
        for (i, e) in d.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let dist: Vec<String> = e.dist.iter().map(|x| x.to_string()).collect();
            let _ = write!(
                s,
                "{{\"src\":{},\"dst\":{},\"kind\":\"{}\",\"dist\":{:?},\"carried\":{}}}",
                e.src,
                e.dst,
                e.kind,
                dist.join(","),
                e.carried
            );
        }
        s.push_str("],\"recurrences\":[");
        for (i, r) in d.recurrences.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":{:?},\"ops\":{},\"latency_ns\":{:.3},\"latency_cycles\":{},\
                 \"distance\":{},\"mii\":{}}}",
                r.name, r.ops, r.latency_ns, r.latency_cycles, r.distance, r.mii
            );
        }
        let _ = write!(
            s,
            "],\"unknown_accesses\":{},\"mult_blocks_used\":{},\"mult_blocks_avail\":{},\
             \"rec_mii\":{},\"res_mii\":{},\"min_ii\":{},\"body_latency\":{}}}",
            d.unknown_accesses,
            d.mult_blocks_used,
            match d.mult_blocks_avail {
                Some(a) => a.to_string(),
                None => "null".to_string(),
            },
            d.rec_mii,
            d.res_mii,
            d.min_ii,
            d.body_latency
        );
        s
    }
}

/// Errors from any stage of the pipeline.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Front-end (lex/parse/sema/extract/lower) diagnostic.
    Front(CError),
    /// Structural error in data-path or netlist construction.
    Backend(String),
    /// The phase-indexed static verifier rejected an intermediate
    /// artifact (fatal findings under the requested [`VerifyLevel`]).
    Verify(Vec<Diagnostic>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Front(e) => write!(f, "{e}"),
            CompileError::Backend(m) => write!(f, "backend error: {m}"),
            CompileError::Verify(diags) => {
                write!(f, "verification failed with {} finding(s):", diags.len())?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<CError> for CompileError {
    fn from(e: CError) -> Self {
        CompileError::Front(e)
    }
}

impl From<String> for CompileError {
    fn from(m: String) -> Self {
        CompileError::Backend(m)
    }
}

/// Compiles C `source`'s function `func` into hardware.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed source, subset violations, or
/// kernels outside the supported loop shapes.
pub fn compile(source: &str, func: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    compile_with_model(source, func, opts, &DefaultDelayModel)
}

/// [`compile`], also returning per-phase wall-clock timings — the
/// observability hook `roccc-serve` feeds into its latency histograms.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_timed(
    source: &str,
    func: &str,
    opts: &CompileOptions,
) -> Result<(Compiled, PhaseTimings), CompileError> {
    let mut timings = PhaseTimings::default();
    let compiled = compile_with_model_timed(source, func, opts, &DefaultDelayModel, &mut timings)?;
    Ok((compiled, timings))
}

/// [`compile`] with a caller-provided delay model (e.g. the calibrated
/// Virtex-II model from `roccc-synth`).
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with_model(
    source: &str,
    func: &str,
    opts: &CompileOptions,
    model: &dyn DelayModel,
) -> Result<Compiled, CompileError> {
    compile_with_model_timed(source, func, opts, model, &mut PhaseTimings::default())
}

/// [`compile_with_model`], accumulating per-phase wall-clock time into
/// `timings` (the `vhdl` slot is left untouched).
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with_model_timed(
    source: &str,
    func: &str,
    opts: &CompileOptions,
    model: &dyn DelayModel,
    timings: &mut PhaseTimings,
) -> Result<Compiled, CompileError> {
    let t0 = Instant::now();
    let mut program = roccc_cparse::frontend(source)?;
    timings.parse += t0.elapsed();

    // Loop-level transformations requested by the options.
    let t0 = Instant::now();
    program = transform_program(&program, func, opts)?;

    // Scalar replacement + feedback detection.
    let kernel = extract_kernel(&program, func)?;
    timings.hlir += t0.elapsed();

    // Back end: VM IR → SSA → optimizations.
    let t0 = Instant::now();
    let dp_program = Program {
        items: {
            let mut items: Vec<Item> = program
                .items
                .iter()
                .filter(|i| matches!(i, Item::Global(_)))
                .cloned()
                .collect();
            items.push(Item::Function(kernel.dp_func.clone()));
            items
        },
    };
    let mut ir = lower_function(&dp_program, &kernel.dp_func, &kernel.feedback)?;
    to_ssa(&mut ir);
    if opts.optimize {
        optimize(&mut ir);
    }
    roccc_suifvm::verify_ssa(&ir).map_err(CompileError::Backend)?;
    let mut diags = Vec::new();
    gate_phase(opts, &mut diags, || verify_ir(&ir))?;

    // Value-range analysis: seed input ports that carry counted-loop
    // indices with their trip bounds, analyze, fold range-proven
    // constants, and re-analyze over the folded IR so downstream stamps
    // describe the code that actually lowers.
    let mut ranges = None;
    if opts.range_narrow {
        let input_ranges = roccc_suifvm::input_seed_ranges(&kernel.dims, &ir);
        let mut map = roccc_suifvm::analyze_with_inputs(&ir, &input_ranges);
        if roccc_suifvm::fold_constant_ranges(&mut ir, &map) {
            if opts.optimize {
                optimize(&mut ir);
            }
            roccc_suifvm::verify_ssa(&ir).map_err(CompileError::Backend)?;
            map = roccc_suifvm::analyze_with_inputs(&ir, &input_ranges);
        }
        gate_phase(opts, &mut diags, || verify_ranges(&ir, &map))?;
        ranges = Some(map);
    }

    // Dependence graph + MinII lower bounds (the modulo-scheduling
    // artifact): memory edges from the kernel's affine accesses,
    // recurrences from the LPR→SNX feedback cycles, resource pressure
    // from the delay model's device budget.
    let budget = model.resource_budget();
    let mut deps = roccc_suifvm::analyze_deps(
        &kernel,
        &ir,
        opts.target_period_ns,
        &|op, w| model.delay_ns(op, w, false),
        &roccc_suifvm::Resources {
            mult_blocks_avail: budget.mult_blocks,
            ..roccc_suifvm::Resources::unlimited()
        },
    );
    timings.suifvm += t0.elapsed();

    // Data path.
    let t0 = Instant::now();
    let mut datapath = build_datapath_ranged(&ir, ranges.as_ref())?;
    pipeline_datapath(&mut datapath, opts.target_period_ns, model);
    if opts.narrow {
        narrow_widths(&mut datapath);
    }
    // The pipeline depth is the initiation interval the current hardware
    // achieves for loop-carried bodies — the MinII comparison baseline.
    deps.body_latency = datapath.num_stages;
    gate_phase(opts, &mut diags, || verify_deps(&deps, &kernel, &ir))?;
    // Modulo scheduling: slot assignment under the modulo reservation
    // table, applied to the data path unless the scheduler fell back to
    // latch pipelining (no overlap benefit / infeasible budget).
    let mut schedule = None;
    if let Some(target) = opts.pipeline_ii {
        let s = roccc_schedule::modulo_schedule(&datapath, &deps, target, model);
        if s.fallback.is_none() {
            roccc_datapath::apply_modulo_schedule(&mut datapath, &s.slots, s.ii as u32, model)
                .map_err(CompileError::Backend)?;
        }
        gate_phase(opts, &mut diags, || verify_schedule(&s, &datapath, &deps))?;
        schedule = Some(s);
    }
    datapath.verify().map_err(CompileError::Backend)?;
    gate_phase(opts, &mut diags, || verify_datapath(&datapath))?;
    timings.datapath += t0.elapsed();

    // RTL netlist.
    let t0 = Instant::now();
    let netlist = netlist_from_datapath(&datapath);
    netlist.verify().map_err(CompileError::Backend)?;
    gate_phase(opts, &mut diags, || verify_netlist(&netlist))?;

    // Translation validation: certify the netlist against the optimized
    // IR. Findings gate at least at `Warn` — asking for a proof and then
    // ignoring a refutation would be worse than not proving at all.
    // Charged to the netlist phase slot (it certifies that artifact).
    let mut certificate = None;
    if opts.prove && opts.family_enabled('E') {
        let cert = roccc_prove::prove(&ir, &netlist, func, &roccc_prove::ProveOptions::default());
        let findings = roccc_prove::verify_certificate_diags(&cert, &ir, &netlist);
        certificate = Some(cert);
        let level = if opts.verify == VerifyLevel::Off {
            VerifyLevel::Warn
        } else {
            opts.verify
        };
        gate_findings(level, filter_families(opts, findings), &mut diags)?;
    }
    timings.netlist += t0.elapsed();

    Ok(Compiled {
        kernel,
        ir,
        datapath,
        netlist,
        program,
        ranges,
        deps,
        schedule,
        diagnostics: diags,
        certificate,
    })
}

/// Drops findings whose diagnostic family is excluded by
/// [`CompileOptions::verify_families`].
fn filter_families(opts: &CompileOptions, findings: Vec<Diagnostic>) -> Vec<Diagnostic> {
    if opts.verify_families.is_none() {
        return findings;
    }
    findings
        .into_iter()
        .filter(|d| d.code.chars().next().is_none_or(|c| opts.family_enabled(c)))
        .collect()
}

/// Runs one phase's `check` and gates its findings at
/// [`CompileOptions::verify`]; the check does not run when that is `Off`.
fn gate_phase(
    opts: &CompileOptions,
    collected: &mut Vec<Diagnostic>,
    check: impl FnOnce() -> Vec<Diagnostic>,
) -> Result<(), CompileError> {
    if opts.verify == VerifyLevel::Off {
        return Ok(());
    }
    gate_findings(opts.verify, filter_families(opts, check()), collected)
}

/// Applies a [`VerifyLevel`] to one phase's findings: fatal findings
/// become a [`CompileError::Verify`], the rest are collected into the
/// [`Compiled::diagnostics`] stream.
fn gate_findings(
    level: VerifyLevel,
    findings: Vec<Diagnostic>,
    collected: &mut Vec<Diagnostic>,
) -> Result<(), CompileError> {
    if findings.is_empty() {
        return Ok(());
    }
    if level.is_fatal(&findings) {
        Err(CompileError::Verify(findings))
    } else {
        collected.extend(findings);
        Ok(())
    }
}

/// Re-runs every phase check of `roccc-verify` over an already-compiled
/// artifact and returns all findings, independent of the
/// [`VerifyLevel`] the compile ran at. `roccc-serve` uses this to count
/// findings into its `verify_findings_total` metric even for compiles
/// that ran with verification off.
///
/// The certificate is not re-checked: a compile that proved gated that
/// check at `Warn` or stricter, so its surviving findings are already
/// the `E` entries of [`Compiled::diagnostics`].
pub fn verify_compiled(c: &Compiled) -> Vec<Diagnostic> {
    let mut v = verify_ir(&c.ir);
    if let Some(map) = &c.ranges {
        v.extend(verify_ranges(&c.ir, map));
    }
    v.extend(verify_deps(&c.deps, &c.kernel, &c.ir));
    if let Some(s) = &c.schedule {
        v.extend(verify_schedule(s, &c.datapath, &c.deps));
    }
    v.extend(verify_datapath(&c.datapath));
    v.extend(verify_netlist(&c.netlist));
    v.extend(
        c.diagnostics
            .iter()
            .filter(|d| d.phase == Phase::Prove)
            .cloned(),
    );
    v
}

/// Applies the option-selected loop transformations to `func` only.
/// Body-duplicating transforms run behind the `hlir::deps` legality gate
/// and refuse (`L010`/`L011` diagnostics) when a loop-carried dependence
/// at distance below the factor would make the duplicated bodies touch
/// the same array element within one parallel iteration.
fn transform_program(
    program: &Program,
    func: &str,
    opts: &CompileOptions,
) -> Result<Program, CompileError> {
    let map_fn = |f: &Function| -> Result<Function, CompileError> {
        if f.name != func {
            return Ok(f.clone());
        }
        let mut f = f.clone();
        if opts.fuse {
            f = roccc_hlir::fusion::fuse_function(&f);
        }
        if let Some(w) = opts.stripmine {
            if w >= 2 {
                f = roccc_hlir::stripmine::stripmine_unroll_function_checked(&f, w)?;
                f = roccc_hlir::fold::fold_function(&f);
            }
        }
        match opts.unroll {
            UnrollStrategy::Keep => {}
            UnrollStrategy::Full => {
                // Full unrolling preserves sequential straight-line
                // semantics, so it needs no dependence gate.
                f = roccc_hlir::unroll::fully_unroll_function(&f);
                f = roccc_hlir::fold::fold_function(&f);
            }
            UnrollStrategy::Partial(k) => {
                f = roccc_hlir::unroll::partially_unroll_function_checked(&f, k)?;
                f = roccc_hlir::fold::fold_function(&f);
            }
        }
        Ok(f)
    };
    let mut items = Vec::with_capacity(program.items.len());
    for i in &program.items {
        items.push(match i {
            Item::Function(f) => Item::Function(map_fn(f)?),
            g => g.clone(),
        });
    }
    Ok(Program { items })
}

/// Profiles a program by running `driver` in the golden-model interpreter
/// and ranks functions by executed statements — the paper's Figure 1
/// "Code Profiling" stage, which "identifies the frequently executing
/// code kernels in a given application" for hardware mapping.
///
/// # Errors
///
/// Propagates front-end and interpreter errors.
pub fn identify_kernels(
    source: &str,
    driver: &str,
    args: &[i64],
    arrays: &mut HashMap<String, Vec<i64>>,
) -> Result<Vec<(String, u64)>, CompileError> {
    let program = roccc_cparse::frontend(source)?;
    let mut interp = Interpreter::new(&program);
    interp
        .call(driver, args, arrays)
        .map_err(CompileError::Front)?;
    Ok(interp.profile())
}

/// Result of [`compile_with_area_budget`].
#[derive(Debug, Clone)]
pub struct BudgetedCompile {
    /// The selected compilation.
    pub compiled: Compiled,
    /// The unroll factor chosen (1 = no unrolling).
    pub factor: u64,
    /// Estimated slices of the chosen configuration.
    pub estimated_slices: u64,
}

/// Chooses the largest power-of-two unroll factor whose estimated area
/// fits `budget_slices`, using the sub-millisecond fast estimator — the
/// paper's §2 flow: "Loop unrolling for FPGAs requires compile time area
/// estimation".
///
/// Factors 1, 2, 4, … are tried until the estimate exceeds the budget or
/// the loop is fully unrolled; the last fitting configuration wins.
///
/// # Errors
///
/// Returns a [`CompileError`] if even the un-unrolled kernel fails to
/// compile; estimation failures at larger factors just stop the search.
pub fn compile_with_area_budget(
    source: &str,
    func: &str,
    opts: &CompileOptions,
    budget_slices: u64,
) -> Result<BudgetedCompile, CompileError> {
    let model = roccc_synth::VirtexII::default();
    let mut best: Option<BudgetedCompile> = None;
    let mut factor = 1u64;
    loop {
        let attempt_opts = CompileOptions {
            unroll: if factor == 1 {
                UnrollStrategy::Keep
            } else {
                UnrollStrategy::Partial(factor)
            },
            ..opts.clone()
        };
        let compiled = match compile_with_model(source, func, &attempt_opts, &model) {
            Ok(c) => c,
            Err(e) => match best {
                Some(b) => return Ok(b),
                None => return Err(e),
            },
        };
        let est = roccc_synth::fast_estimate(&compiled.datapath, &model);
        let iterations = compiled.kernel.total_iterations();
        if est.slices <= budget_slices || best.is_none() {
            let done = est.slices > budget_slices;
            best = Some(BudgetedCompile {
                compiled,
                factor,
                estimated_slices: est.slices,
            });
            if done {
                // Even factor 1 blows the budget: report it and stop.
                break;
            }
        } else {
            break;
        }
        if iterations <= 1 || factor >= 64 {
            break;
        }
        factor *= 2;
    }
    Ok(best.expect("loop sets best before breaking"))
}

pub use roccc_cparse::{interp::Interpreter, CResult};
pub use roccc_datapath::graph::NodeKind;
pub use roccc_datapath::width_bits_saved;
pub use roccc_netlist::{BatchedSim, NetlistSim};
pub use roccc_prove::{
    certificate_json, certificate_report, check_certificate, prove, Certificate, Counterexample,
    ObKind, ObStatus, Obligation, ProveOptions, Verdict,
};
pub use roccc_schedule::Schedule;
pub use roccc_suifvm::{DepGraph, RangeMap, Recurrence, ValueRange};
pub use roccc_verify::{Diagnostic, Loc, Phase, Severity, VerifyLevel};

#[cfg(test)]
mod tests {
    use super::*;

    const FIR: &str = "void fir(int A[21], int C[17]) { int i;
      for (i = 0; i < 17; i = i + 1) {
        C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";

    #[test]
    fn fir_compiles_and_runs_end_to_end() {
        let hw = compile(FIR, "fir", &CompileOptions::default()).unwrap();
        let a: Vec<i64> = (0..21).map(|x| (x * 31 % 47) - 11).collect();
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a.clone());
        let run = hw.run(&arrays, &HashMap::new()).unwrap();
        // Golden model.
        let prog = roccc_cparse::frontend(FIR).unwrap();
        let mut golden_arrays = HashMap::new();
        golden_arrays.insert("A".to_string(), a);
        golden_arrays.insert("C".to_string(), vec![0i64; 17]);
        Interpreter::new(&prog)
            .call("fir", &[], &mut golden_arrays)
            .unwrap();
        assert_eq!(run.arrays["C"], golden_arrays["C"]);
        // Smart buffer reuse: 21 reads, not 85.
        assert_eq!(run.mem_reads, 21);
        assert_eq!(run.mem_writes, 17);
        assert_eq!(run.fired, 17);
    }

    #[test]
    fn accumulator_live_out_matches_golden() {
        let src = "void acc(int A[32], int* out) {
          int sum = 0; int i;
          for (i = 0; i < 32; i++) { sum = sum + A[i]; }
          *out = sum; }";
        let hw = compile(src, "acc", &CompileOptions::default()).unwrap();
        let a: Vec<i64> = (0..32).map(|x| x * x - 40).collect();
        let expect: i64 = a.iter().sum();
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a);
        let run = hw.run(&arrays, &HashMap::new()).unwrap();
        assert_eq!(run.scalars["sum"], expect);
    }

    #[test]
    fn full_unroll_removes_loop_dims() {
        // An 8-sample scaler fully unrolled: becomes straight-line.
        let src = "void scale8(int x0,int x1,int x2,int x3, int* o) {
           int s = 0; int t;
           t = x0 * 3; s = s + t;
           t = x1 * 3; s = s + t;
           t = x2 * 3; s = s + t;
           t = x3 * 3; s = s + t;
           *o = s; }";
        let hw = compile(src, "scale8", &CompileOptions::default()).unwrap();
        assert!(hw.kernel.dims.is_empty());
        // Straight-line kernels run through NetlistSim directly.
        let mut sim = NetlistSim::new(&hw.netlist);
        let outs = sim.run_stream(&[vec![1, 2, 3, 4]]).unwrap();
        assert_eq!(outs[0], vec![3 * (1 + 2 + 3 + 4)]);
    }

    #[test]
    fn stripmine_option_matches_golden_and_cuts_cycles() {
        // Strip-mining by 4 fully unrolls the strip, so the transformed
        // kernel computes 4 outputs per iteration; fed through a 4-wide
        // bus it must still match the golden interpreter on the original
        // source, in fewer cycles than the un-mined baseline.
        let src = "void fir(int A[20], int C[16]) { int i;
          for (i = 0; i < 16; i = i + 1) {
            C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";
        let mined = compile(
            src,
            "fir",
            &CompileOptions {
                stripmine: Some(4),
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            mined.kernel.total_iterations(),
            4,
            "16 iterations / strip 4"
        );

        let a: Vec<i64> = (0..20).map(|x| (x * 13 % 31) - 9).collect();
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a.clone());
        let run = mined.run_with_bus(&arrays, &HashMap::new(), 4).unwrap();

        let prog = roccc_cparse::frontend(src).unwrap();
        let mut golden_arrays = HashMap::new();
        golden_arrays.insert("A".to_string(), a.clone());
        golden_arrays.insert("C".to_string(), vec![0i64; 16]);
        Interpreter::new(&prog)
            .call("fir", &[], &mut golden_arrays)
            .unwrap();
        assert_eq!(run.arrays["C"], golden_arrays["C"]);

        let baseline = compile(src, "fir", &CompileOptions::default()).unwrap();
        let mut arrays2 = HashMap::new();
        arrays2.insert("A".to_string(), a);
        let base_run = baseline.run(&arrays2, &HashMap::new()).unwrap();
        assert_eq!(base_run.arrays["C"], golden_arrays["C"]);
        assert!(
            run.cycles < base_run.cycles,
            "strip-mined {} cycles vs baseline {}",
            run.cycles,
            base_run.cycles
        );
    }

    #[test]
    fn scalar_inputs_are_ports() {
        let src = "void scale(int A[16], int B[16], int gain) { int i;
          for (i = 0; i < 16; i++) { B[i] = A[i] * gain; } }";
        let hw = compile(src, "scale", &CompileOptions::default()).unwrap();
        let a: Vec<i64> = (0..16).collect();
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a.clone());
        let mut scalars = HashMap::new();
        scalars.insert("gain".to_string(), 7i64);
        let run = hw.run(&arrays, &scalars).unwrap();
        let expect: Vec<i64> = a.iter().map(|x| x * 7).collect();
        assert_eq!(run.arrays["B"], expect);
    }

    #[test]
    fn throughput_counts_outputs_per_cycle() {
        let hw = compile(FIR, "fir", &CompileOptions::default()).unwrap();
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), (0..21).collect());
        let run = hw.run(&arrays, &HashMap::new()).unwrap();
        // 17 outputs over some cycles; with II=1 the steady state is one
        // output per cycle, fills and drains cost a handful.
        assert!(run.cycles < 60, "cycles = {}", run.cycles);
        assert!(run.throughput() > 0.25, "throughput = {}", run.throughput());
    }

    #[test]
    fn identify_kernels_ranks_the_hot_loop() {
        let src = "int hot(int x) { int s = 0; int i;
            for (i = 0; i < 200; i++) { s = s + x; } return s; }
          int cold(int x) { return x + 1; }
          void app(int a, int* o) { *o = hot(a) + cold(a); }";
        let ranked = identify_kernels(src, "app", &[5], &mut HashMap::new()).unwrap();
        assert_eq!(ranked[0].0, "hot");
        assert!(ranked[0].1 > 50 * ranked.iter().find(|(n, _)| n == "cold").unwrap().1);
    }

    #[test]
    fn area_budget_drives_unroll_factor() {
        let src = "void scale(int16 A[64], int16 B[64]) { int i;
          for (i = 0; i < 64; i++) { B[i] = A[i] * 11 + 3; } }";
        let tight = compile_with_area_budget(src, "scale", &CompileOptions::default(), 60).unwrap();
        let loose =
            compile_with_area_budget(src, "scale", &CompileOptions::default(), 100_000).unwrap();
        assert!(
            loose.factor > tight.factor,
            "loose budget should unroll more: {} vs {}",
            loose.factor,
            tight.factor
        );
        assert!(tight.estimated_slices <= 60 || tight.factor == 1);
        // The chosen configuration still computes correctly.
        let a: Vec<i64> = (0..64).collect();
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a.clone());
        let run = loose.compiled.run(&arrays, &HashMap::new()).unwrap();
        let expect: Vec<i64> = a.iter().map(|x| x * 11 + 3).collect();
        assert_eq!(run.arrays["B"], expect);
    }

    #[test]
    fn prove_certifies_fir_equal() {
        let hw = compile(
            FIR,
            "fir",
            &CompileOptions {
                prove: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let cert = hw
            .certificate
            .as_ref()
            .expect("prove produces a certificate");
        assert_eq!(
            cert.verdict,
            Verdict::Equal,
            "{}",
            roccc_prove::certificate_report(cert)
        );
        assert!(cert
            .obligations
            .iter()
            .all(|o| o.status != ObStatus::Unknown));
        // The structural E-family re-check accepts the certificate.
        assert!(roccc_prove::verify_certificate_diags(cert, &hw.ir, &hw.netlist).is_empty());
        let json = hw.prove_json().unwrap();
        assert!(json.contains("\"schema\": \"roccc-prove-v1\""));
    }

    #[test]
    fn verify_families_filters_and_keys_cache() {
        let all = CompileOptions::default();
        let some = CompileOptions {
            verify_families: Some("S,D".into()),
            ..CompileOptions::default()
        };
        assert!(some.family_enabled('S') && some.family_enabled('d'));
        assert!(!some.family_enabled('E') && !some.family_enabled('N'));
        assert!(all.family_enabled('E'));
        assert_ne!(all.canonical_bytes(), some.canonical_bytes());
        let proved = CompileOptions {
            prove: true,
            ..CompileOptions::default()
        };
        assert_ne!(all.canonical_bytes(), proved.canonical_bytes());
    }

    #[test]
    fn compile_rejects_bad_source() {
        assert!(compile("int f(", "f", &CompileOptions::default()).is_err());
        assert!(compile("void f() {}", "g", &CompileOptions::default()).is_err());
    }
}
