//! Data-path graph structures.
//!
//! A [`Datapath`] is the fully pipelined dataflow graph the compiler emits
//! for one loop body (§4.2.2): a DAG of hardware operations connected by
//! typed wires, annotated with
//!
//! * the **node** each operation belongs to — *soft* nodes mirror CFG
//!   blocks and "will have the same behavior on a CPU", *hard* nodes
//!   (`Mux`, `Pipe`) "only appear in hardware" (Figure 6);
//! * the **pipeline stage** each operation executes in (§4.2.3), where each
//!   stage is "an instance of a single iteration in the for-loop body";
//! * the **hardware width** of each value after forward inference and
//!   backward narrowing ("the compiler … narrows inner signals' bit
//!   sizes", §6).

use roccc_cparse::inline_vec::InlineVec;
use roccc_cparse::intern::Symbol;
use roccc_cparse::types::IntType;
use roccc_suifvm::ir::{FeedbackSlot, LutTable, Opcode, Violation};
use roccc_suifvm::range::ValueRange;
use std::fmt;

/// Identifies an operation in the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifies a structural node (component) in the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Inline operand list of a data-path operation (`MUX` is the widest at
/// three), stored in the op itself — no per-op heap allocation.
pub type Vals = InlineVec<Value, 3>;

/// An operand of a data-path operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Result of another operation.
    Op(OpId),
    /// The k-th input port.
    Input(usize),
    /// A literal constant (free in hardware: tied to VCC/GND).
    Const(i64),
}

impl Default for Value {
    /// A harmless placeholder (`InlineVec` slack slots); never observable
    /// through the length-bounded slice API.
    fn default() -> Value {
        Value::Const(0)
    }
}

/// One hardware operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpOp {
    /// What it computes (a subset of the VM opcodes; no control flow).
    pub op: Opcode,
    /// Operands (inline; at most three).
    pub srcs: Vals,
    /// Exact (value-preserving) result type from forward inference.
    pub ty: IntType,
    /// Hardware width in bits after backward narrowing (`≤ ty.bits`).
    pub hw_bits: u8,
    /// Immediate payload (`LUT` table index, `LPR`/`SNX` slot).
    pub imm: i64,
    /// Structural node this op belongs to.
    pub node: NodeId,
    /// Pipeline stage (0-based).
    pub stage: u32,
    /// Proven value range of the *exact* (unwrapped) result, stamped from
    /// the `suifvm::range` analysis when compiling with `range_narrow`;
    /// `None` when the analysis did not run or did not reach this value.
    pub range: Option<ValueRange>,
}

/// The role a structural node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Mirrors a CFG basic block (has a software equivalent).
    Soft,
    /// Selects between alternative branch results (hardware-only).
    Mux,
    /// Copies live variables past alternative branches (hardware-only).
    Pipe,
}

/// Bookkeeping for one structural node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpNode {
    /// Node id.
    pub id: NodeId,
    /// Soft or hard.
    pub kind: NodeKind,
    /// Human-readable label (`node 1`, `mux 7`, …) used in DOT output and
    /// VHDL component names (interned: labels repeat across candidates).
    pub label: Symbol,
}

/// An output port of the data path.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputPort {
    /// Port name.
    pub name: Symbol,
    /// Declared port type.
    pub ty: IntType,
    /// The value driving the port.
    pub value: Value,
}

/// A fully built (and possibly pipelined) data path.
#[derive(Debug, Clone, PartialEq)]
pub struct Datapath {
    /// Kernel name.
    pub name: Symbol,
    /// Input ports in order.
    pub inputs: Vec<(Symbol, IntType)>,
    /// Output ports.
    pub outputs: Vec<OutputPort>,
    /// Operations in topological order (operands precede users).
    pub ops: Vec<DpOp>,
    /// Structural nodes.
    pub nodes: Vec<DpNode>,
    /// Lookup tables.
    pub luts: Vec<LutTable>,
    /// Feedback slots with the value each `SNX` latches.
    pub feedback: Vec<(FeedbackSlot, Value)>,
    /// Number of pipeline stages (1 = purely combinational between input
    /// and output registers).
    pub num_stages: u32,
    /// Initiation interval: a new iteration may launch every `ii` cycles.
    /// Latch pipelining always achieves 1; a modulo schedule sharing
    /// block multipliers across congruence classes may raise it.
    pub ii: u32,
    /// Target clock period the pipeliner aimed for, in nanoseconds.
    pub target_period_ns: f64,
    /// Achieved critical-path delay of the slowest stage, in nanoseconds.
    pub achieved_period_ns: f64,
}

impl Datapath {
    /// The operation defining a [`Value::Op`], if any.
    pub fn def(&self, v: Value) -> Option<&DpOp> {
        match v {
            Value::Op(id) => self.ops.get(id.0 as usize),
            _ => None,
        }
    }

    /// The hardware width of a value in bits.
    pub fn width_of(&self, v: Value) -> u8 {
        match v {
            Value::Op(id) => self.ops[id.0 as usize].hw_bits,
            Value::Input(k) => self.inputs[k].1.bits,
            Value::Const(c) => IntType::width_for(c, c < 0),
        }
    }

    /// The stage a value becomes available in (inputs and constants are
    /// stage 0).
    pub fn stage_of(&self, v: Value) -> u32 {
        match v {
            Value::Op(id) => self.ops[id.0 as usize].stage,
            _ => 0,
        }
    }

    /// Maximum clock frequency implied by the achieved period, in MHz.
    pub fn fmax_mhz(&self) -> f64 {
        if self.achieved_period_ns <= 0.0 {
            return f64::INFINITY;
        }
        1000.0 / self.achieved_period_ns
    }

    /// Pipeline latency in cycles from input to output.
    pub fn latency_cycles(&self) -> u32 {
        self.num_stages
    }

    /// Output values produced per clock cycle once the pipeline is full
    /// (initiation interval is 1).
    pub fn throughput_per_cycle(&self) -> usize {
        self.outputs.len()
    }

    /// Number of pipeline registers a value edge crosses: one per stage
    /// boundary between producer and consumer.
    pub fn regs_on_edge(&self, src: Value, consumer: OpId) -> u32 {
        let ps = self.stage_of(src);
        let cs = self.ops[consumer.0 as usize].stage;
        cs.saturating_sub(ps)
    }

    /// Counts hard (mux/pipe) and soft nodes.
    pub fn node_census(&self) -> (usize, usize) {
        let soft = self
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Soft)
            .count();
        (soft, self.nodes.len() - soft)
    }

    /// Emits a Graphviz DOT rendering of the data path grouped by node —
    /// the shape of the paper's Figure 6/7.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("digraph \"{}\" {{\n  rankdir=TB;\n", self.name));
        for (k, (name, ty)) in self.inputs.iter().enumerate() {
            s.push_str(&format!("  in{k} [label=\"{name}:{ty}\", shape=house];\n"));
        }
        for node in &self.nodes {
            let style = match node.kind {
                NodeKind::Soft => "solid",
                NodeKind::Mux | NodeKind::Pipe => "dashed",
            };
            s.push_str(&format!(
                "  subgraph cluster_{} {{ label=\"{}\"; style={style};\n",
                node.id.0, node.label
            ));
            for (i, op) in self.ops.iter().enumerate() {
                if op.node == node.id {
                    s.push_str(&format!(
                        "    op{i} [label=\"{} s{} w{}\", shape=box];\n",
                        op.op, op.stage, op.hw_bits
                    ));
                }
            }
            s.push_str("  }\n");
        }
        for (i, op) in self.ops.iter().enumerate() {
            for src in &op.srcs {
                match src {
                    Value::Op(o) => s.push_str(&format!("  op{} -> op{i};\n", o.0)),
                    Value::Input(k) => s.push_str(&format!("  in{k} -> op{i};\n")),
                    Value::Const(_) => {}
                }
            }
        }
        for (k, out) in self.outputs.iter().enumerate() {
            s.push_str(&format!(
                "  out{k} [label=\"{}:{}\", shape=invhouse];\n",
                out.name, out.ty
            ));
            match out.value {
                Value::Op(o) => s.push_str(&format!("  op{} -> out{k};\n", o.0)),
                Value::Input(i) => s.push_str(&format!("  in{i} -> out{k};\n")),
                Value::Const(_) => {}
            }
        }
        s.push_str("}\n");
        s
    }

    /// Every structural violation of the data path. The references and
    /// operand counts come first (`D001`, `D002`, `D008`); when any of
    /// them fails, they are all there is, since the staging checks read
    /// through those references. Otherwise the staging violations: an
    /// `LPR` off its slot's `SNX` stage (`D005`), an op staged out of
    /// range (`D004`), a value consumed before its stage (`D003`).
    pub fn violations(&self) -> Vec<Violation> {
        let (mut refs, mut staging) = (Vec::new(), Vec::new());
        let resolves = |v: Value| match v {
            Value::Op(o) => (o.0 as usize) < self.ops.len(),
            Value::Input(k) => k < self.inputs.len(),
            Value::Const(_) => true,
        };
        for (i, op) in self.ops.iter().enumerate() {
            let at = |code, message| Violation::at(code, i as u32, message);
            let staged = op.stage < self.num_stages;
            for &src in &op.srcs {
                match src {
                    Value::Op(o) if o.0 as usize >= i => refs.push(at(
                        D001_COMB_CYCLE,
                        format!(
                            "op{i} ({}) consumes {o}, closing a combinational cycle; only the \
                             latched LPR->SNX feedback loop may cycle, and it lives in feedback \
                             slots, not operand edges",
                            op.op
                        ),
                    )),
                    v if !resolves(v) => refs.push(at(
                        D002_MISSING_REF,
                        format!("op{i} ({}) reads nonexistent {v:?}", op.op),
                    )),
                    v if staged && self.stage_of(v) > op.stage => staging.push(at(
                        D003_STAGE_INVERSION,
                        format!(
                            "op{i} at stage {} consumes {v:?} produced in later stage {}",
                            op.stage,
                            self.stage_of(v)
                        ),
                    )),
                    _ => {}
                }
            }
            if !staged {
                staging.push(at(
                    D004_STAGE_RANGE,
                    format!(
                        "op{i} staged at {} but the pipeline has {} stage(s)",
                        op.stage, self.num_stages
                    ),
                ));
            }
            if op.node.0 as usize >= self.nodes.len() {
                refs.push(at(
                    D002_MISSING_REF,
                    format!("op{i} belongs to missing {}", op.node),
                ));
            }
            let slot = usize::try_from(op.imm).ok();
            match op.op {
                Opcode::Lut if slot.is_none_or(|k| k >= self.luts.len()) => refs.push(at(
                    D002_MISSING_REF,
                    format!("op{i} names LUT table {} of {}", op.imm, self.luts.len()),
                )),
                Opcode::Lpr | Opcode::Snx => match slot.and_then(|k| self.feedback.get(k)) {
                    None => refs.push(at(
                        D002_MISSING_REF,
                        format!(
                            "op{i} ({}) names feedback slot {} of {}",
                            op.op,
                            op.imm,
                            self.feedback.len()
                        ),
                    )),
                    // An LPR must sit in the stage where the SNX of its
                    // slot latches, otherwise one physical register would
                    // be read and written in different pipeline phases of
                    // the same iteration.
                    Some((fb, snx_src))
                        if op.op == Opcode::Lpr
                            && resolves(*snx_src)
                            && self.stage_of(*snx_src) != op.stage =>
                    {
                        staging.push(at(
                            D005_FEEDBACK_STAGE_SPLIT,
                            format!(
                                "feedback slot {} ({}): LPR at stage {} but SNX latches at \
                                 stage {}; the LPR->SNX path must land in a single stage",
                                op.imm,
                                fb.name,
                                op.stage,
                                self.stage_of(*snx_src)
                            ),
                        ))
                    }
                    Some(_) => {}
                },
                _ => {}
            }
            let want = op.op.arity();
            if op.srcs.len() != want {
                refs.push(at(
                    D008_BAD_ARITY,
                    format!(
                        "op{i} ({}) has {} operands, expected {want}",
                        op.op,
                        op.srcs.len()
                    ),
                ));
            }
        }
        for (k, port) in self.outputs.iter().enumerate() {
            if !resolves(port.value) {
                refs.push(Violation::global(
                    D002_MISSING_REF,
                    format!(
                        "output port {k} ({}) driven by nonexistent {:?}",
                        port.name, port.value
                    ),
                ));
            }
        }
        for (slot_idx, (slot, v)) in self.feedback.iter().enumerate() {
            if !resolves(*v) {
                refs.push(Violation::global(
                    D002_MISSING_REF,
                    format!(
                        "feedback slot {slot_idx} ({}) latches nonexistent {v:?}",
                        slot.name
                    ),
                ));
            }
        }
        if refs.is_empty() {
            staging
        } else {
            refs
        }
    }

    /// Checks the structural invariants ([`Datapath::violations`]) and
    /// returns the first violation's message.
    ///
    /// # Errors
    ///
    /// The message of the first violation, when there is one.
    pub fn verify(&self) -> Result<(), String> {
        Violation::first(self.violations())
    }
}

/// An operand edge closes a combinational cycle (a self or forward
/// reference in the topological order). The only legal cycle, the
/// latched `LPR→…→SNX` feedback loop, lives in [`Datapath::feedback`],
/// not in operand edges.
pub const D001_COMB_CYCLE: &str = "D001-comb-cycle";
/// An operand, node, LUT table, feedback slot, output or feedback value
/// names something out of range.
pub const D002_MISSING_REF: &str = "D002-missing-ref";
/// A value consumed in an earlier stage than the one producing it.
pub const D003_STAGE_INVERSION: &str = "D003-stage-inversion";
/// An op staged at or beyond `num_stages`.
pub const D004_STAGE_RANGE: &str = "D004-stage-range";
/// An `LPR` and the `SNX` source of the same slot placed in different
/// stages (the latch would close over a partial iteration).
pub const D005_FEEDBACK_STAGE_SPLIT: &str = "D005-feedback-stage-split";
/// Wrong operand count for the opcode ([`Opcode::arity`]).
pub const D008_BAD_ARITY: &str = "D008-bad-arity";

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Datapath {
        // out = a + b, one soft node, one stage.
        Datapath {
            name: "tiny".into(),
            inputs: vec![
                ("a".into(), IntType::unsigned(8)),
                ("b".into(), IntType::unsigned(8)),
            ],
            outputs: vec![OutputPort {
                name: "o".into(),
                ty: IntType::unsigned(9),
                value: Value::Op(OpId(0)),
            }],
            ops: vec![DpOp {
                op: Opcode::Add,
                srcs: [Value::Input(0), Value::Input(1)].into(),
                ty: IntType::unsigned(9),
                hw_bits: 9,
                imm: 0,
                node: NodeId(0),
                stage: 0,
                range: None,
            }],
            nodes: vec![DpNode {
                id: NodeId(0),
                kind: NodeKind::Soft,
                label: "node 1".into(),
            }],
            luts: vec![],
            feedback: vec![],
            num_stages: 1,
            ii: 1,
            target_period_ns: 10.0,
            achieved_period_ns: 2.5,
        }
    }

    #[test]
    fn verify_accepts_well_formed() {
        tiny().verify().unwrap();
    }

    #[test]
    fn verify_rejects_forward_reference() {
        let mut dp = tiny();
        dp.ops[0].srcs[0] = Value::Op(OpId(5));
        assert!(dp.verify().is_err());
    }

    #[test]
    fn verify_rejects_stage_inversion() {
        let mut dp = tiny();
        dp.num_stages = 2;
        dp.ops.push(DpOp {
            op: Opcode::Not,
            srcs: [Value::Op(OpId(0))].into(),
            ty: IntType::signed(10),
            hw_bits: 10,
            imm: 0,
            node: NodeId(0),
            stage: 1,
            range: None,
        });
        dp.ops[0].stage = 1;
        dp.ops[1].stage = 0;
        // op1 (stage 0) consumes op0 (stage 1): invalid.
        let err = dp.verify().unwrap_err();
        assert!(err.contains("later stage"));
    }

    #[test]
    fn fmax_and_throughput() {
        let dp = tiny();
        assert!((dp.fmax_mhz() - 400.0).abs() < 1e-9);
        assert_eq!(dp.throughput_per_cycle(), 1);
        assert_eq!(dp.latency_cycles(), 1);
    }

    #[test]
    fn dot_output_mentions_nodes_and_edges() {
        let dot = tiny().to_dot();
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("in0 -> op0"));
        assert!(dot.contains("op0 -> out0"));
    }

    #[test]
    fn regs_on_edge_counts_stage_crossings() {
        let mut dp = tiny();
        dp.num_stages = 3;
        dp.ops.push(DpOp {
            op: Opcode::Not,
            srcs: [Value::Op(OpId(0))].into(),
            ty: IntType::signed(10),
            hw_bits: 10,
            imm: 0,
            node: NodeId(0),
            stage: 2,
            range: None,
        });
        assert_eq!(dp.regs_on_edge(Value::Op(OpId(0)), OpId(1)), 2);
        assert_eq!(dp.regs_on_edge(Value::Input(0), OpId(0)), 0);
    }
}
