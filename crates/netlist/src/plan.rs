//! Compiled netlist simulation: levelize once, step fast forever.
//!
//! [`NetlistSim`](crate::sim::NetlistSim) re-interprets the cell graph on
//! every clock — matching on `CellKind`, chasing `Vec<CellId>` sources,
//! constructing an `IntType` per cell, and allocating fresh value and
//! occupancy buffers per cycle. That is fine as a readable reference, but
//! every evaluation artifact of the paper (Table 1, the §5 throughput
//! numbers, `run_system`'s memory traffic) funnels through that inner
//! loop.
//!
//! [`SimPlan::compile`] pays the interpretation cost once:
//!
//! * cells are **levelized** into a dense instruction stream of flat
//!   `(opcode, operand indices, precomputed wrap mask)` records —
//!   constants are pre-folded out of the stream entirely (including
//!   constant subexpressions), ROM tables are pre-wrapped, and register
//!   cells are split into a separate clock-edge list;
//! * every cell gets a **pipeline stage** from a levelization pass
//!   ([`cell_stages`]), so divide/rem bubble handling is keyed to the
//!   *divider's own stage* occupancy — a garbage bubble flowing past a
//!   divider no longer faults just because an unrelated valid iteration
//!   is elsewhere in the pipeline;
//! * [`BatchedSim`] then steps `lanes` independent pipelines per clock
//!   with **zero allocation** against preallocated slot-major
//!   value/occupancy buffers, and [`SimPlan::run_batch_lanes`] streams
//!   whole iteration blocks through it without per-cycle argument clones
//!   or per-output `Vec` churn. One lane is the per-cycle engine
//!   `run_system` and the co-simulator step; wide lanes are the
//!   throughput drivers.
//!
//! This is the one compiled engine. It is bit-identical to the reference
//! simulator [`NetlistSim`](crate::sim::NetlistSim), which stays the
//! oracle: the workspace differential tests drive both over random
//! kernels, bubbles with garbage arguments and faults included.

use crate::cells::{CellKind, Netlist};
use crate::sim::SimError;
use roccc_cparse::intern::Symbol;
use roccc_cparse::types::IntType;
use roccc_suifvm::ir::Opcode;

/// Precomputed two's-complement truncation for one net: the `IntType`
/// wrap with the mask and sign bit resolved at plan-compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wrap {
    mask: u64,
    sign: u64,
}

impl Wrap {
    fn from_ty(ty: IntType) -> Wrap {
        if ty.bits >= 64 {
            return Wrap { mask: !0, sign: 0 };
        }
        let mask = (1u64 << ty.bits) - 1;
        Wrap {
            mask,
            sign: if ty.signed { 1u64 << (ty.bits - 1) } else { 0 },
        }
    }

    /// Branchless truncate-and-sign-extend: `(t ^ s) - s` flips the sign
    /// bit out and subtracts it back in, which is the identity for
    /// non-negative values and the two's-complement extension otherwise.
    /// No data-dependent branch, so the lane-batched engine's inner loops
    /// auto-vectorize through it.
    #[inline(always)]
    fn apply(self, v: i64) -> i64 {
        let t = (v as u64) & self.mask;
        (t ^ self.sign).wrapping_sub(self.sign) as i64
    }
}

/// Compiled per-cell operation. Operand slots index the value buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimOp {
    /// Load input port and wrap to the port type.
    Input {
        port: u32,
    },
    Add,
    Sub,
    Mul,
    /// Division; `stage` keys the bubble check to the divider's own
    /// pipeline stage occupancy.
    Div {
        stage: u32,
    },
    /// Remainder; `stage` as for `Div`.
    Rem {
        stage: u32,
    },
    Neg,
    Not,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Slt,
    Sle,
    Seq,
    Sne,
    Bool,
    Mux,
    /// `Mov`/`Cvt`: copy (the wrap does the narrowing).
    Copy,
    /// ROM lookup into the pre-wrapped table `rom`.
    Lut {
        rom: u32,
    },
}

/// One combinational instruction: evaluate `op` over the value buffer and
/// store the wrapped result at `dst`.
#[derive(Debug, Clone, Copy)]
struct Instr {
    op: SimOp,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
    wrap: Wrap,
}

/// One register in the clock-edge list.
#[derive(Debug, Clone, Copy)]
struct RegEdge {
    /// Value-buffer slot of the register.
    reg: u32,
    /// Value-buffer slot of the data input.
    d: u32,
    /// Register width truncation.
    wrap: Wrap,
    /// `u32::MAX` latches every cycle; otherwise the occupancy stage that
    /// must hold a valid iteration for the register to latch.
    gate: u32,
}

const GATE_NONE: u32 = u32::MAX;

/// Computes the pipeline stage of every cell by levelization.
///
/// Inputs and constants sit at stage 0; combinational ops at the maximum
/// stage of their sources (same-cycle evaluation); pipeline registers one
/// stage after their data input; feedback registers (stage-gated) at their
/// gate stage, which is where their consumers read them. The pass iterates
/// to a fixpoint so hand-built netlists with forward register references
/// resolve too.
pub fn cell_stages(nl: &Netlist) -> Vec<u32> {
    let n = nl.cells.len();
    let mut stage = vec![0u32; n];
    // A netlist's combinational cells are topologically ordered, so one
    // pass settles everything except forward-connected plain registers;
    // iterate until stable with a small safety bound.
    for _ in 0..n.max(1) {
        let mut changed = false;
        for (i, cell) in nl.cells.iter().enumerate() {
            let s = match &cell.kind {
                CellKind::Const(_) | CellKind::Input(_) => 0,
                CellKind::Reg {
                    stage_gate: Some(g),
                    ..
                } => *g,
                CellKind::Reg {
                    d,
                    stage_gate: None,
                    ..
                } => match d {
                    Some(d) => stage[d.0 as usize].saturating_add(1),
                    None => 0,
                },
                CellKind::Op { srcs, .. } => {
                    srcs.iter().map(|s| stage[s.0 as usize]).max().unwrap_or(0)
                }
            };
            if stage[i] != s {
                stage[i] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    stage
}

/// A netlist compiled for fast simulation. Compile once per netlist with
/// [`SimPlan::compile`], then instantiate any number of cheap
/// [`BatchedSim`] states from it.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Combinational instruction stream in evaluation order.
    instrs: Vec<Instr>,
    /// Clock-edge register list.
    edges: Vec<RegEdge>,
    /// Initial value buffer: power-on register values and pre-folded
    /// constants; combinational slots start at 0 and are overwritten
    /// before first use.
    init_vals: Vec<i64>,
    /// Pre-wrapped ROM tables.
    roms: Vec<Vec<i64>>,
    /// Output ports: `(name, value slot, port wrap)`.
    outputs: Vec<(Symbol, u32, Wrap)>,
    /// Feedback registers by slot name.
    feedback: Vec<(Symbol, u32)>,
    /// Pipeline depth (occupancy length).
    latency: u32,
    /// Initiation interval: valid iterations may only be presented on
    /// cycles that are multiples of `ii` (see [`Netlist::ii`]).
    ii: u64,
    /// Input port count and wraps.
    input_wraps: Vec<Wrap>,
}

impl SimPlan {
    /// Levelizes and compiles `nl` into a dense instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the netlist contains an opcode the
    /// simulator cannot execute (checked here once instead of per cycle).
    pub fn compile(nl: &Netlist) -> Result<SimPlan, SimError> {
        let stages = cell_stages(nl);
        let n = nl.cells.len();
        let mut instrs = Vec::with_capacity(n);
        let mut edges = Vec::new();
        let mut init_vals = vec![0i64; n];
        // Constant value per cell, when the cell is a constant or folds to
        // one (all-constant sources and a side-effect-free evaluation).
        let mut const_val: Vec<Option<i64>> = vec![None; n];

        let roms: Vec<Vec<i64>> = nl
            .roms
            .iter()
            .map(|t| t.data.iter().map(|&v| t.elem.wrap(v)).collect())
            .collect();

        for (i, cell) in nl.cells.iter().enumerate() {
            let wrap = Wrap::from_ty(cell.ty());
            match &cell.kind {
                CellKind::Const(c) => {
                    let v = wrap.apply(*c);
                    const_val[i] = Some(v);
                    init_vals[i] = v;
                }
                CellKind::Input(k) => {
                    instrs.push(Instr {
                        op: SimOp::Input { port: *k as u32 },
                        dst: i as u32,
                        a: 0,
                        b: 0,
                        c: 0,
                        wrap,
                    });
                }
                CellKind::Reg {
                    d,
                    init,
                    stage_gate,
                } => {
                    let v = cell.ty().wrap(*init);
                    init_vals[i] = v;
                    edges.push(RegEdge {
                        reg: i as u32,
                        d: d.ok_or_else(|| SimError(format!("register n{i} has no data input")))?
                            .0,
                        wrap,
                        gate: stage_gate.map_or(GATE_NONE, |s| s),
                    });
                }
                CellKind::Op { op, srcs, imm } => {
                    let sim_op = lower_op(*op, *imm, stages[i], &roms)?;
                    let idx = |k: usize| srcs.get(k).map_or(0, |s| s.0);
                    // Pre-fold constant subexpressions (division excluded
                    // when the folded divisor is zero: that must stay a
                    // dynamic, occupancy-gated fault).
                    let folded = fold_const(sim_op, srcs, &const_val, &roms);
                    if let Some(v) = folded {
                        let v = wrap.apply(v);
                        const_val[i] = Some(v);
                        init_vals[i] = v;
                    } else {
                        instrs.push(Instr {
                            op: sim_op,
                            dst: i as u32,
                            a: idx(0),
                            b: idx(1),
                            c: idx(2),
                            wrap,
                        });
                    }
                }
            }
        }

        // Renumber value slots: non-instruction cells (constants, folded
        // ops, registers) first, then instruction destinations in stream
        // order. Combinational sources already precede their consumers in
        // the stream, so afterwards every instruction's sources sit
        // strictly below its destination — the invariant that lets the
        // batched engine split the value buffer and write destinations in
        // place without a scratch copy.
        let mut is_dst = vec![false; n];
        for ins in &instrs {
            is_dst[ins.dst as usize] = true;
        }
        let mut remap = vec![0u32; n];
        let mut next = 0u32;
        for (i, d) in is_dst.iter().enumerate() {
            if !d {
                remap[i] = next;
                next += 1;
            }
        }
        for ins in &mut instrs {
            let new = next;
            next += 1;
            remap[ins.dst as usize] = new;
        }
        for ins in &mut instrs {
            ins.dst = remap[ins.dst as usize];
            ins.a = remap[ins.a as usize];
            ins.b = remap[ins.b as usize];
            ins.c = remap[ins.c as usize];
            debug_assert!(
                matches!(ins.op, SimOp::Input { .. })
                    || (ins.a < ins.dst && ins.b < ins.dst && ins.c < ins.dst),
                "slot renumbering broke the sources-below-destination invariant"
            );
        }
        for e in &mut edges {
            e.reg = remap[e.reg as usize];
            e.d = remap[e.d as usize];
        }
        let mut permuted = vec![0i64; n];
        for (i, &v) in init_vals.iter().enumerate() {
            permuted[remap[i] as usize] = v;
        }
        let init_vals = permuted;

        // Order clock edges downstream-first: when edge `j` reads the
        // register edge `i` writes (a pipeline delay chain r1 -> r2),
        // commit `j` before `i` so a fused single-pass commit still sees
        // pre-edge values along the chain. Cyclic register loops can't be
        // ordered; they stay in place and the batched engine detects that
        // and falls back to its two-phase commit.
        {
            let m = edges.len();
            let mut writer = std::collections::HashMap::with_capacity(m);
            for (k, e) in edges.iter().enumerate() {
                writer.insert(e.reg, k);
            }
            let mut succ: Vec<Option<usize>> = vec![None; m];
            let mut indeg = vec![0usize; m];
            for (j, e) in edges.iter().enumerate() {
                if let Some(&i) = writer.get(&e.d) {
                    if i != j {
                        succ[j] = Some(i);
                        indeg[i] += 1;
                    }
                }
            }
            let mut order: Vec<usize> = (0..m).filter(|&k| indeg[k] == 0).collect();
            let mut head = 0;
            while head < order.len() {
                if let Some(i) = succ[order[head]] {
                    indeg[i] -= 1;
                    if indeg[i] == 0 {
                        order.push(i);
                    }
                }
                head += 1;
            }
            if order.len() == m {
                edges = order.into_iter().map(|k| edges[k]).collect();
            }
        }

        let outputs = nl
            .outputs
            .iter()
            .map(|(name, ty, net)| (*name, remap[net.0 as usize], Wrap::from_ty(*ty)))
            .collect();
        let feedback = nl
            .feedback_regs
            .iter()
            .map(|(name, id)| (*name, remap[id.0 as usize]))
            .collect();
        let input_wraps = nl.inputs.iter().map(|(_, t)| Wrap::from_ty(*t)).collect();

        Ok(SimPlan {
            instrs,
            edges,
            init_vals,
            roms,
            outputs,
            feedback,
            latency: nl.latency.max(1),
            ii: nl.effective_ii(),
            input_wraps,
        })
    }

    /// Number of combinational instructions in the stream (constants are
    /// pre-folded away and registers live in the edge list).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Number of clocked registers.
    pub fn reg_count(&self) -> usize {
        self.edges.len()
    }

    /// Pipeline latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Initiation interval: valid iterations may only launch on cycles
    /// that are multiples of `ii` (1 for latch pipelines).
    pub fn ii(&self) -> u64 {
        self.ii
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.input_wraps.len()
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Output port names in port order.
    pub fn output_names(&self) -> impl Iterator<Item = &str> {
        self.outputs.iter().map(|(n, _, _)| n.as_str())
    }

    /// Whether the plan carries loop-carried state (feedback registers).
    /// Lane-batched execution splits the iteration stream into independent
    /// chunks, which would break feedback chains, so stateful plans run
    /// single-lane.
    pub fn has_feedback(&self) -> bool {
        !self.feedback.is_empty() || self.edges.iter().any(|e| e.gate != GATE_NONE)
    }

    /// The lane count [`SimPlan::run_batch_lanes`] will actually use for
    /// a requested `lanes`: clamped to ≥1, and to 1 for stateful plans.
    pub fn effective_lanes(&self, lanes: usize) -> usize {
        if self.has_feedback() {
            1
        } else {
            lanes.max(1)
        }
    }

    /// Streams `iters` iterations (row-major in `flat_args`,
    /// `iters × num_inputs`) through a [`BatchedSim`] with up to
    /// `lanes` lanes, appending output rows to `out_flat` in the original
    /// iteration order. Returns the number of output rows.
    ///
    /// Iterations are assigned to lanes round-robin, so every simulation
    /// pass consumes `lanes` *consecutive* rows of `flat_args` — a
    /// zero-copy tile — and, `latency` passes later, produces `lanes`
    /// consecutive output rows. Both streams stay sequential in memory,
    /// which is what keeps the driver overhead below the lane engine's
    /// gain. Lane counts that do not divide `iters` are fine: the final
    /// partial tile pads with bubble lanes. Stateful plans (feedback
    /// registers) are automatically clamped to a single lane —
    /// interleaving would corrupt the loop-carried state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] under the same conditions as
    /// [`BatchedSim::step_lanes`] (valid-lane division by zero).
    ///
    /// # Panics
    ///
    /// Panics if `flat_args.len() != iters * num_inputs`.
    pub fn run_batch_lanes(
        &self,
        flat_args: &[i64],
        iters: usize,
        lanes: usize,
        out_flat: &mut Vec<i64>,
    ) -> Result<usize, SimError> {
        let n_in = self.input_wraps.len();
        let n_out = self.outputs.len();
        assert_eq!(flat_args.len(), iters * n_in, "batch arity");
        let lanes = self.effective_lanes(lanes).min(iters.max(1));

        let full = iters / lanes;
        let rem = iters % lanes;
        let tiles = full + usize::from(rem > 0);
        let ii = self.ii as usize;
        let total = tiles * ii + self.latency as usize + 2;

        let out_start = out_flat.len();
        out_flat.resize(out_start + iters * n_out, 0);

        let mut sim = BatchedSim::new(self, lanes);
        let all_valid = vec![true; lanes];
        let none_valid = vec![false; lanes];
        // The one partial tile (if any) gets a padded copy of the last
        // `rem` rows; bubble lanes carry zeros.
        let mut edge_valid = vec![false; lanes];
        let mut edge_rows = vec![0i64; lanes * n_in];
        if rem > 0 {
            edge_valid[..rem].fill(true);
            edge_rows[..rem * n_in].copy_from_slice(&flat_args[full * lanes * n_in..]);
        }
        let zero_rows = vec![0i64; lanes * n_in];

        let mut drained = 0usize;
        for t in 0..total {
            // Tiles launch every `ii` cycles; off-phase cycles are bubbles.
            let tile = if t % ii == 0 { Some(t / ii) } else { None };
            match tile {
                Some(k) if k < full => {
                    let rb = k * lanes * n_in;
                    sim.step_lanes(&flat_args[rb..rb + lanes * n_in], &all_valid)?;
                }
                Some(k) if k == full && rem > 0 => {
                    sim.step_lanes(&edge_rows, &edge_valid)?;
                }
                _ => sim.step_lanes(&zero_rows, &none_valid)?,
            }
            // Tiles exit in entry order; lane 0 is valid in every real
            // tile (full tiles entirely, the partial tile by `rem >= 1`).
            if sim.lane_out_valid(0) {
                let n_rows = lanes.min(iters - drained);
                let dst = out_start + drained * n_out;
                sim.read_output_rows(n_rows, &mut out_flat[dst..dst + n_rows * n_out]);
                drained += n_rows;
            }
        }
        debug_assert_eq!(drained, iters);
        Ok(iters)
    }
}

/// Lowers a netlist opcode to the compiled form, validating it is
/// executable.
fn lower_op(op: Opcode, imm: i64, stage: u32, roms: &[Vec<i64>]) -> Result<SimOp, SimError> {
    Ok(match op {
        Opcode::Add => SimOp::Add,
        Opcode::Sub => SimOp::Sub,
        Opcode::Mul => SimOp::Mul,
        Opcode::Div => SimOp::Div { stage },
        Opcode::Rem => SimOp::Rem { stage },
        Opcode::Neg => SimOp::Neg,
        Opcode::Not => SimOp::Not,
        Opcode::Shl => SimOp::Shl,
        Opcode::Shr => SimOp::Shr,
        Opcode::And => SimOp::And,
        Opcode::Or => SimOp::Or,
        Opcode::Xor => SimOp::Xor,
        Opcode::Slt => SimOp::Slt,
        Opcode::Sle => SimOp::Sle,
        Opcode::Seq => SimOp::Seq,
        Opcode::Sne => SimOp::Sne,
        Opcode::Bool => SimOp::Bool,
        Opcode::Mux => SimOp::Mux,
        Opcode::Cvt | Opcode::Mov => SimOp::Copy,
        Opcode::Lut => {
            let rom = imm as u32;
            if rom as usize >= roms.len() {
                return Err(SimError(format!("LUT references missing ROM {imm}")));
            }
            SimOp::Lut { rom }
        }
        other => {
            return Err(SimError(format!(
                "opcode {other} cannot appear in a netlist"
            )))
        }
    })
}

/// Evaluates `op` at compile time when every source is a known constant.
/// Returns `None` when any source is dynamic or the fold is unsafe.
fn fold_const(
    op: SimOp,
    srcs: &[crate::cells::CellId],
    const_val: &[Option<i64>],
    roms: &[Vec<i64>],
) -> Option<i64> {
    let cv = |k: usize| -> Option<i64> { const_val[srcs.get(k)?.0 as usize] };
    Some(match op {
        SimOp::Input { .. } => return None,
        SimOp::Add => cv(0)?.wrapping_add(cv(1)?),
        SimOp::Sub => cv(0)?.wrapping_sub(cv(1)?),
        SimOp::Mul => cv(0)?.wrapping_mul(cv(1)?),
        SimOp::Div { .. } => {
            let d = cv(1)?;
            if d == 0 {
                return None;
            }
            cv(0)?.wrapping_div(d)
        }
        SimOp::Rem { .. } => {
            let d = cv(1)?;
            if d == 0 {
                return None;
            }
            cv(0)?.wrapping_rem(d)
        }
        SimOp::Neg => cv(0)?.wrapping_neg(),
        SimOp::Not => !cv(0)?,
        SimOp::Shl => cv(0)?.wrapping_shl(cv(1)?.clamp(0, 63) as u32),
        SimOp::Shr => cv(0)?.wrapping_shr(cv(1)?.clamp(0, 63) as u32),
        SimOp::And => cv(0)? & cv(1)?,
        SimOp::Or => cv(0)? | cv(1)?,
        SimOp::Xor => cv(0)? ^ cv(1)?,
        SimOp::Slt => (cv(0)? < cv(1)?) as i64,
        SimOp::Sle => (cv(0)? <= cv(1)?) as i64,
        SimOp::Seq => (cv(0)? == cv(1)?) as i64,
        SimOp::Sne => (cv(0)? != cv(1)?) as i64,
        SimOp::Bool => (cv(0)? != 0) as i64,
        SimOp::Mux => {
            if cv(0)? != 0 {
                cv(1)?
            } else {
                cv(2)?
            }
        }
        SimOp::Copy => cv(0)?,
        SimOp::Lut { rom } => {
            let idx = cv(0)?;
            if idx < 0 {
                0
            } else {
                roms[rom as usize].get(idx as usize).copied().unwrap_or(0)
            }
        }
    })
}

/// A lane-batched compiled simulation: structure-of-arrays state that
/// advances `lanes` independent input vectors per instruction pass.
///
/// The value buffer is **slot-major** (`vals[slot * lanes + lane]`), so
/// each instruction's opcode dispatch is paid once and the per-lane
/// arithmetic runs as a tight, auto-vectorizable inner loop over
/// contiguous memory. Lanes are fully independent — lane `l` simulates
/// its own copy of the datapath — which is exactly the shape differential
/// suites and throughput drivers need: N test vectors through the same
/// netlist. At one lane per stage lane it is the per-cycle engine of a
/// stepped `SystemStage`; at 16 lanes it computes a deferred stage's
/// fired iterations in tiles.
///
/// Bit-exactness: each lane computes precisely what
/// [`NetlistSim`](crate::sim::NetlistSim) does, including wrap semantics,
/// divider bubble gating (per-lane occupancy), and two-phase register
/// commit. All buffers are allocated at construction; stepping performs
/// no heap allocation.
#[derive(Debug, Clone)]
pub struct BatchedSim<'p> {
    plan: &'p SimPlan,
    lanes: usize,
    /// Slot-major SoA value buffer: `vals[slot * lanes + lane]`.
    vals: Vec<i64>,
    /// Per-lane next-state scratch for the two-phase register commit
    /// (`reg_next[edge * lanes + lane]`); empty unless `chained_regs`.
    reg_next: Vec<i64>,
    /// Per-lane pipeline occupancy, stage-major
    /// (`occ[stage * lanes + lane]`; stage 0 = newest).
    occ: Vec<bool>,
    /// Per-instruction compute scratch (one word per lane), so the inner
    /// loops read `vals` immutably and write disjoint scratch — the
    /// pattern LLVM vectorizes.
    tmp: Vec<i64>,
    /// Whether the edge list, in commit order, has an edge reading a
    /// register an earlier edge already overwrote (only cyclic register
    /// loops, since the plan orders delay chains downstream-first). Only
    /// then does the clock edge need the full two-phase commit through
    /// `reg_next`; otherwise each edge commits independently, halving the
    /// edge traffic.
    chained_regs: bool,
    cycles: u64,
}

impl<'p> BatchedSim<'p> {
    /// Creates a `lanes`-wide simulation, every lane at power-on state.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(plan: &'p SimPlan, lanes: usize) -> Self {
        assert!(lanes > 0, "at least one lane");
        let n_slots = plan.init_vals.len();
        let mut vals = vec![0i64; n_slots * lanes];
        for (slot, &v) in plan.init_vals.iter().enumerate() {
            vals[slot * lanes..(slot + 1) * lanes].fill(v);
        }
        // Single-pass commit is sound iff no edge reads a register an
        // earlier edge in commit order already overwrote (compile() orders
        // chains downstream-first, so this only stays true for cyclic
        // register loops).
        let mut committed = vec![false; n_slots];
        let mut chained_regs = false;
        for e in &plan.edges {
            if committed[e.d as usize] {
                chained_regs = true;
                break;
            }
            committed[e.reg as usize] = true;
        }
        BatchedSim {
            plan,
            lanes,
            vals,
            reg_next: vec![
                0;
                if chained_regs {
                    plan.edges.len() * lanes
                } else {
                    0
                }
            ],
            occ: vec![false; plan.latency as usize * lanes],
            tmp: vec![0; lanes],
            chained_regs,
            cycles: 0,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles simulated so far (each step advances every lane one cycle).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current state of feedback register `name` in lane `l`.
    pub fn feedback_value(&self, name: &str, l: usize) -> Option<i64> {
        self.plan
            .feedback
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, slot)| self.vals[*slot as usize * self.lanes + l])
    }

    /// Whether lane `l`'s post-edge outputs correspond to a valid
    /// iteration.
    #[inline]
    pub fn lane_out_valid(&self, l: usize) -> bool {
        let last = (self.plan.latency as usize - 1) * self.lanes;
        self.occ[last + l]
    }

    /// Post-edge value of output port `k` in lane `l`.
    #[inline]
    pub fn output_lane(&self, k: usize, l: usize) -> i64 {
        let (_, idx, wrap) = &self.plan.outputs[k];
        wrap.apply(self.vals[*idx as usize * self.lanes + l])
    }

    /// Copies lane `l`'s post-edge output-port values into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the output-port count.
    pub fn read_outputs_lane(&self, l: usize, out: &mut [i64]) {
        assert_eq!(out.len(), self.plan.outputs.len(), "output arity");
        for (slot, (_, idx, wrap)) in out.iter_mut().zip(&self.plan.outputs) {
            *slot = wrap.apply(self.vals[*idx as usize * self.lanes + l]);
        }
    }

    /// Copies the post-edge outputs of the first `n_rows` lanes into `out`
    /// row-major (`out[lane * num_outputs + port]`) — the bulk drain used
    /// by [`SimPlan::run_batch_lanes`] when a whole tile retires at once.
    ///
    /// # Panics
    ///
    /// Panics if `n_rows` exceeds the lane count or `out.len()` differs
    /// from `n_rows * num_outputs`.
    pub fn read_output_rows(&self, n_rows: usize, out: &mut [i64]) {
        let n_out = self.plan.outputs.len();
        assert!(n_rows <= self.lanes, "row count");
        assert_eq!(out.len(), n_rows * n_out, "output arity");
        for (k, (_, idx, wrap)) in self.plan.outputs.iter().enumerate() {
            let base = *idx as usize * self.lanes;
            for l in 0..n_rows {
                out[l * n_out + k] = wrap.apply(self.vals[base + l]);
            }
        }
    }

    /// Simulates one clock cycle in every lane. `args_rows` is row-major —
    /// `args_rows[lane * num_inputs + port]`, i.e. `lanes` consecutive
    /// iteration rows exactly as they sit in a flat batch buffer, so
    /// callers feed input slices with no transpose. `valid[l]` marks lane
    /// `l`'s inputs as a real iteration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if any lane divides by zero while a valid
    /// iteration occupies that divider's stage in that lane (bubble lanes
    /// produce benign zeros), or if a valid lane launches off the
    /// initiation-interval grid.
    ///
    /// # Panics
    ///
    /// Panics if `args_rows.len() != num_inputs * lanes` or
    /// `valid.len() != lanes`.
    pub fn step_lanes(&mut self, args_rows: &[i64], valid: &[bool]) -> Result<(), SimError> {
        assert_eq!(
            args_rows.len(),
            self.plan.input_wraps.len() * self.lanes,
            "input arity"
        );
        assert_eq!(valid.len(), self.lanes, "valid arity");
        // Dispatch on the common lane widths with a literal count so each
        // monomorphized body sees a constant trip count: the lane loops
        // then unroll to exact full-width vector ops with no remainder
        // handling. One lane (the per-cycle engine of a stepped system
        // stage) collapses every lane loop to straight-line scalar code.
        match self.lanes {
            1 => self.step_impl(args_rows, valid, 1),
            4 => self.step_impl(args_rows, valid, 4),
            8 => self.step_impl(args_rows, valid, 8),
            16 => self.step_impl(args_rows, valid, 16),
            32 => self.step_impl(args_rows, valid, 32),
            64 => self.step_impl(args_rows, valid, 64),
            n => self.step_impl(args_rows, valid, n),
        }
    }

    #[inline(always)]
    fn step_impl(
        &mut self,
        args_rows: &[i64],
        valid: &[bool],
        lanes: usize,
    ) -> Result<(), SimError> {
        debug_assert_eq!(lanes, self.lanes);
        let ii = self.plan.ii;
        if ii > 1 && !self.cycles.is_multiple_of(ii) && valid.iter().any(|&v| v) {
            return Err(SimError(format!(
                "valid iteration presented at cycle {} of a schedule with II {ii}; \
                 launches must land on multiples of the initiation interval",
                self.cycles
            )));
        }
        self.cycles += 1;

        // Advance occupancy: stage-major, so shifting all lanes of all
        // stages is one contiguous copy by `lanes`.
        let occ_len = self.occ.len();
        self.occ.copy_within(0..occ_len - lanes, lanes);
        self.occ[..lanes].copy_from_slice(valid);

        // Combinational settle: one opcode dispatch per instruction, one
        // vectorizable lane loop per dispatch. Slot numbering puts every
        // source strictly below the destination (see the renumbering in
        // [`SimPlan::compile`]), so the value buffer splits into a
        // read-only source region and an in-place destination — no scratch
        // copy. The truncation wrap is branchless and fused into each
        // loop; the zipped exact-length slices elide every bounds check.
        let n_in = self.plan.input_wraps.len();
        for ins in &self.plan.instrs {
            let db = ins.dst as usize * lanes;
            let (src, rest) = self.vals.split_at_mut(db);
            let dst = &mut rest[..lanes];
            let ab = ins.a as usize * lanes;
            let bb = ins.b as usize * lanes;
            let cb = ins.c as usize * lanes;
            let w = ins.wrap;
            match ins.op {
                SimOp::Input { port } => {
                    // Row-major tile: the transpose into lane order is this
                    // strided read, fused with the port wrap (the tile is
                    // L1-resident, so the stride costs little).
                    let p = port as usize;
                    for (l, t) in dst.iter_mut().enumerate() {
                        *t = w.apply(args_rows[l * n_in + p]);
                    }
                }
                SimOp::Add => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x.wrapping_add(y));
                    }
                }
                SimOp::Sub => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x.wrapping_sub(y));
                    }
                }
                SimOp::Mul => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x.wrapping_mul(y));
                    }
                }
                SimOp::Div { stage } => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    let ob = stage as usize * lanes;
                    for (l, ((t, &x), &d)) in dst.iter_mut().zip(a).zip(b).enumerate() {
                        *t = if d == 0 {
                            if self.occ.get(ob + l).copied().unwrap_or(false) {
                                return Err(SimError("division by zero".into()));
                            }
                            0
                        } else {
                            w.apply(x.wrapping_div(d))
                        };
                    }
                }
                SimOp::Rem { stage } => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    let ob = stage as usize * lanes;
                    for (l, ((t, &x), &d)) in dst.iter_mut().zip(a).zip(b).enumerate() {
                        *t = if d == 0 {
                            if self.occ.get(ob + l).copied().unwrap_or(false) {
                                return Err(SimError("remainder by zero".into()));
                            }
                            0
                        } else {
                            w.apply(x.wrapping_rem(d))
                        };
                    }
                }
                SimOp::Neg => {
                    let a = &src[ab..ab + lanes];
                    for (t, &x) in dst.iter_mut().zip(a) {
                        *t = w.apply(x.wrapping_neg());
                    }
                }
                SimOp::Not => {
                    let a = &src[ab..ab + lanes];
                    for (t, &x) in dst.iter_mut().zip(a) {
                        *t = w.apply(!x);
                    }
                }
                SimOp::Shl => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x.wrapping_shl(y.clamp(0, 63) as u32));
                    }
                }
                SimOp::Shr => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x.wrapping_shr(y.clamp(0, 63) as u32));
                    }
                }
                SimOp::And => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x & y);
                    }
                }
                SimOp::Or => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x | y);
                    }
                }
                SimOp::Xor => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply(x ^ y);
                    }
                }
                SimOp::Slt => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply((x < y) as i64);
                    }
                }
                SimOp::Sle => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply((x <= y) as i64);
                    }
                }
                SimOp::Seq => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply((x == y) as i64);
                    }
                }
                SimOp::Sne => {
                    let (a, b) = (&src[ab..ab + lanes], &src[bb..bb + lanes]);
                    for ((t, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *t = w.apply((x != y) as i64);
                    }
                }
                SimOp::Bool => {
                    let a = &src[ab..ab + lanes];
                    for (t, &x) in dst.iter_mut().zip(a) {
                        *t = w.apply((x != 0) as i64);
                    }
                }
                SimOp::Mux => {
                    let (a, b, c) = (
                        &src[ab..ab + lanes],
                        &src[bb..bb + lanes],
                        &src[cb..cb + lanes],
                    );
                    for (((t, &s), &x), &y) in dst.iter_mut().zip(a).zip(b).zip(c) {
                        *t = w.apply(if s != 0 { x } else { y });
                    }
                }
                SimOp::Copy => {
                    let a = &src[ab..ab + lanes];
                    for (t, &x) in dst.iter_mut().zip(a) {
                        *t = w.apply(x);
                    }
                }
                SimOp::Lut { rom } => {
                    let a = &src[ab..ab + lanes];
                    let rom = &self.plan.roms[rom as usize];
                    for (t, &x) in dst.iter_mut().zip(a) {
                        *t = if x < 0 {
                            0
                        } else {
                            w.apply(rom.get(x as usize).copied().unwrap_or(0))
                        };
                    }
                }
            }
        }

        // Clock edge. When no register feeds another register directly,
        // every edge reads a combinational slot the commit cannot disturb,
        // so each commits independently (wrap into scratch, one copy).
        // Register-to-register chains need the classic two-phase commit
        // through `reg_next` to read pre-edge values.
        if !self.chained_regs {
            let tmp = &mut self.tmp[..lanes];
            for edge in &self.plan.edges {
                let db = edge.d as usize * lanes;
                for (t, &x) in tmp.iter_mut().zip(&self.vals[db..db + lanes]) {
                    *t = edge.wrap.apply(x);
                }
                let rb = edge.reg as usize * lanes;
                if edge.gate == GATE_NONE {
                    self.vals[rb..rb + lanes].copy_from_slice(tmp);
                } else {
                    let ob = edge.gate as usize * lanes;
                    for (l, &t) in tmp.iter().enumerate() {
                        if self.occ.get(ob + l).copied().unwrap_or(false) {
                            self.vals[rb + l] = t;
                        }
                    }
                }
            }
            return Ok(());
        }
        for (e, edge) in self.plan.edges.iter().enumerate() {
            let db = edge.d as usize * lanes;
            let nb = e * lanes;
            for l in 0..lanes {
                self.reg_next[nb + l] = edge.wrap.apply(self.vals[db + l]);
            }
        }
        for (e, edge) in self.plan.edges.iter().enumerate() {
            let rb = edge.reg as usize * lanes;
            let nb = e * lanes;
            if edge.gate == GATE_NONE {
                self.vals[rb..rb + lanes].copy_from_slice(&self.reg_next[nb..nb + lanes]);
            } else {
                let ob = edge.gate as usize * lanes;
                for l in 0..lanes {
                    if self.occ.get(ob + l).copied().unwrap_or(false) {
                        self.vals[rb + l] = self.reg_next[nb + l];
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_dp::netlist_from_datapath;
    use crate::from_dp::tests::dp_for;
    use crate::sim::NetlistSim;

    /// The reference interpreter's output rows for `iters`, flattened
    /// row-major like [`SimPlan::run_batch_lanes`] writes them.
    fn reference_flat(nl: &Netlist, iters: &[Vec<i64>]) -> Vec<i64> {
        NetlistSim::new(nl).run_stream(iters).unwrap().concat()
    }

    #[test]
    fn compiled_matches_reference_on_fir() {
        let src = "void fir_dp(int A0, int A1, int A2, int A3, int A4, int* Tmp0) {
           *Tmp0 = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }";
        for period in [1000.0, 5.0, 3.0] {
            let dp = dp_for(src, "fir_dp", period);
            let nl = netlist_from_datapath(&dp);
            let plan = SimPlan::compile(&nl).unwrap();
            let iters: Vec<Vec<i64>> = (0..20)
                .map(|i| (0..5).map(|j| (i * 7 + j * 13) % 200 - 100).collect())
                .collect();
            let mut compiled = Vec::new();
            plan.run_batch_lanes(&iters.concat(), iters.len(), 1, &mut compiled)
                .unwrap();
            assert_eq!(reference_flat(&nl, &iters), compiled, "period {period}");
        }
    }

    #[test]
    fn constants_fold_out_of_the_stream() {
        // 3*A0 + ... : the literal coefficients and any constant math
        // disappear from the instruction stream.
        let src = "void f(int a, int* o) { *o = a * 3 + (2 + 5); }";
        let dp = dp_for(src, "f", 1000.0);
        let nl = netlist_from_datapath(&dp);
        let plan = SimPlan::compile(&nl).unwrap();
        let consts = nl
            .cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Const(_)))
            .count();
        assert!(consts > 0, "test premise: netlist has constants");
        // Stream = cells − constants − registers (at minimum).
        assert!(plan.instr_count() <= nl.cells.len() - consts - plan.reg_count());
    }

    #[test]
    fn batch_and_stream_agree() {
        let src = "void f(uint8 a, uint8 b, uint8* o) { *o = a * b + 1; }";
        let dp = dp_for(src, "f", 4.0);
        let nl = netlist_from_datapath(&dp);
        let plan = SimPlan::compile(&nl).unwrap();
        let iters: Vec<Vec<i64>> = (0..32).map(|i| vec![i % 17, (i * 3) % 11]).collect();
        // Per-cycle stepping of one lane, back-to-back then drained ...
        let mut sim = BatchedSim::new(&plan, 1);
        let mut streamed = Vec::new();
        let mut row = vec![0i64; plan.num_outputs()];
        let drain = vec![vec![0i64; 2]; plan.latency() as usize + 2];
        for (k, args) in iters.iter().chain(&drain).enumerate() {
            sim.step_lanes(args, &[k < iters.len()]).unwrap();
            if sim.lane_out_valid(0) {
                sim.read_outputs_lane(0, &mut row);
                streamed.extend_from_slice(&row);
            }
        }
        // ... retires exactly what the batch driver does.
        let mut out = Vec::new();
        let rows = plan
            .run_batch_lanes(&iters.concat(), iters.len(), 1, &mut out)
            .unwrap();
        assert_eq!(rows, iters.len());
        assert_eq!(out, streamed);
    }

    #[test]
    fn divider_bubble_with_garbage_zero_is_benign() {
        // Pipelined divide: a bubble carrying a zero divisor while a valid
        // iteration is in flight elsewhere must NOT fault (the reference
        // simulator used to error on any occupied stage).
        let src = "void d(int a, int b, int* o) { *o = (a * a + b) / b; }";
        let dp = dp_for(src, "d", 4.0);
        let nl = netlist_from_datapath(&dp);
        assert!(nl.latency > 1, "test premise: pipelined");
        let plan = SimPlan::compile(&nl).unwrap();
        let mut sim = BatchedSim::new(&plan, 1);
        // Valid iteration with a safe divisor, then garbage bubbles with
        // zero divisors while it drains.
        sim.step_lanes(&[10, 3], &[true]).unwrap();
        for _ in 0..(nl.latency + 2) {
            sim.step_lanes(&[7, 0], &[false]).unwrap();
        }
        // A valid zero divisor still faults.
        sim.step_lanes(&[1, 0], &[true]).unwrap();
        let mut faulted = false;
        for _ in 0..(nl.latency + 2) {
            if sim.step_lanes(&[0, 0], &[false]).is_err() {
                faulted = true;
                break;
            }
        }
        // The fault fires on the cycle the valid iteration reaches the
        // divider's stage (possibly the firing cycle itself for stage 0).
        assert!(faulted || nl.latency == 1);
    }

    #[test]
    fn feedback_value_reads_each_lane() {
        let src = "void acc(int t0, int* t1) {
           int s; int c = ROCCC_load_prev(s) + t0;
           ROCCC_store2next(s, c);
           *t1 = c; }";
        let prog = roccc_cparse::parser::parse(src).unwrap();
        let f = prog.function("acc").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "s".into(),
            ty: roccc_cparse::types::IntType::int(),
            init: 0,
        }];
        let mut ir = roccc_suifvm::lower_function(&prog, f, &fb).unwrap();
        roccc_suifvm::to_ssa(&mut ir);
        roccc_suifvm::optimize(&mut ir);
        let mut dp = roccc_datapath::build_datapath(&ir).unwrap();
        roccc_datapath::pipeline_datapath(&mut dp, 100.0, &roccc_datapath::DefaultDelayModel);
        roccc_datapath::narrow_widths(&mut dp);
        let nl = netlist_from_datapath(&dp);
        let plan = SimPlan::compile(&nl).unwrap();
        // Each lane is its own pipeline with its own accumulator; lane 1
        // skips the second iteration, so its sum stops at the first.
        let mut sim = BatchedSim::new(&plan, 2);
        assert_eq!(sim.feedback_value("s", 0), Some(0), "power-on state");
        sim.step_lanes(&[10, 7], &[true, true]).unwrap();
        sim.step_lanes(&[5, 99], &[true, false]).unwrap();
        for _ in 0..4 {
            sim.step_lanes(&[0, 0], &[false, false]).unwrap();
        }
        assert_eq!(sim.feedback_value("s", 0), Some(15));
        assert_eq!(sim.feedback_value("s", 1), Some(7));
        assert_eq!(sim.feedback_value("missing", 0), None);
        assert_eq!(sim.cycles(), 6);
    }

    #[test]
    fn batched_lanes_match_single_lane() {
        let src = "void f(int a, int b, int* o) { *o = (a * b) * (a + b) + a * 3; }";
        let dp = dp_for(src, "f", 4.0);
        let nl = netlist_from_datapath(&dp);
        let plan = SimPlan::compile(&nl).unwrap();
        let iters: Vec<Vec<i64>> = (0..37)
            .map(|i| vec![(i * 31) % 211 - 100, (i * 17) % 97 - 48])
            .collect();
        let flat: Vec<i64> = iters.concat();
        let want = reference_flat(&nl, &iters);
        // Lane counts that do and do not divide 37, plus over-provisioned.
        for lanes in [1, 2, 8, 37, 64] {
            let mut got = Vec::new();
            let rows = plan
                .run_batch_lanes(&flat, iters.len(), lanes, &mut got)
                .unwrap();
            assert_eq!(rows, iters.len(), "{lanes} lanes");
            assert_eq!(got, want, "{lanes} lanes");
        }
    }

    #[test]
    fn feedback_plans_clamp_to_one_lane() {
        let src = "void acc(int t0, int* t1) {
           int s; int c = ROCCC_load_prev(s) + t0;
           ROCCC_store2next(s, c);
           *t1 = c; }";
        let prog = roccc_cparse::parser::parse(src).unwrap();
        let f = prog.function("acc").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "s".into(),
            ty: roccc_cparse::types::IntType::int(),
            init: 0,
        }];
        let mut ir = roccc_suifvm::lower_function(&prog, f, &fb).unwrap();
        roccc_suifvm::to_ssa(&mut ir);
        roccc_suifvm::optimize(&mut ir);
        let mut dp = roccc_datapath::build_datapath(&ir).unwrap();
        roccc_datapath::pipeline_datapath(&mut dp, 100.0, &roccc_datapath::DefaultDelayModel);
        roccc_datapath::narrow_widths(&mut dp);
        let nl = netlist_from_datapath(&dp);
        let plan = SimPlan::compile(&nl).unwrap();
        assert!(plan.has_feedback());
        assert_eq!(plan.effective_lanes(8), 1);
        // And the driver still produces the exact running-sum sequence.
        let flat: Vec<i64> = (1..=10).collect();
        let mut out = Vec::new();
        plan.run_batch_lanes(&flat, 10, 8, &mut out).unwrap();
        let want: Vec<i64> = (1..=10)
            .scan(0i64, |s, x| {
                *s += x;
                Some(*s)
            })
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn batched_divider_bubbles_are_per_lane() {
        // Remainder lanes drain as bubbles carrying zero divisors; only a
        // *valid* lane with a zero divisor may fault.
        let src = "void d(int a, int b, int* o) { *o = (a * a + b) / b; }";
        let dp = dp_for(src, "d", 4.0);
        let nl = netlist_from_datapath(&dp);
        let plan = SimPlan::compile(&nl).unwrap();
        // 5 iterations over 3 lanes: chunks of 2/2/1 — lane 2 bubbles
        // early while others are mid-flight. All divisors nonzero.
        let iters: Vec<Vec<i64>> = (0..5).map(|i| vec![i + 10, i + 1]).collect();
        let mut out = Vec::new();
        plan.run_batch_lanes(&iters.concat(), 5, 3, &mut out)
            .unwrap();
        assert_eq!(out, reference_flat(&nl, &iters));
        // A valid zero divisor faults in the batched engine too.
        let bad: Vec<i64> = vec![4, 2, 9, 0, 5, 1];
        let mut out2 = Vec::new();
        assert!(plan.run_batch_lanes(&bad, 3, 2, &mut out2).is_err());
    }

    #[test]
    fn stages_levelize_inputs_ops_and_registers() {
        let src = "void f(int a, int b, int* o) { *o = (a * b) * (a + b) + a * 3; }";
        let dp = dp_for(src, "f", 4.0);
        let nl = netlist_from_datapath(&dp);
        let stages = cell_stages(&nl);
        assert_eq!(stages.len(), nl.cells.len());
        for (i, cell) in nl.cells.iter().enumerate() {
            match &cell.kind {
                CellKind::Input(_) | CellKind::Const(_) => assert_eq!(stages[i], 0),
                CellKind::Op { srcs, .. } => {
                    let m = srcs.iter().map(|s| stages[s.0 as usize]).max().unwrap_or(0);
                    assert_eq!(stages[i], m, "op n{i}");
                }
                CellKind::Reg {
                    d,
                    stage_gate: None,
                    ..
                } => {
                    assert_eq!(stages[i], stages[d.unwrap().0 as usize] + 1, "reg n{i}");
                }
                CellKind::Reg {
                    stage_gate: Some(g),
                    ..
                } => assert_eq!(stages[i], *g),
            }
        }
        // No combinational cell sits beyond the last pipeline stage.
        for (i, cell) in nl.cells.iter().enumerate() {
            if matches!(cell.kind, CellKind::Op { .. }) {
                assert!(stages[i] < nl.latency, "op n{i} stage {}", stages[i]);
            }
        }
    }
}
