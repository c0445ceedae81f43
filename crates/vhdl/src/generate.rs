//! RTL VHDL generation (§4.2.4).
//!
//! "ROCCC generates one VHDL component for each CFG node that goes to
//! hardware. In a node, every virtual register is single assigned and is
//! converted into wires in hardware." This module emits:
//!
//! * one combinational entity per data-path node (soft, mux and pipe);
//! * ROM entities for `LUT` operations ("the compiler instantiates the
//!   lookup table as a regular ROM IP core unit in the VHDL code");
//! * a top-level data-path entity that instantiates the nodes, places the
//!   pipeline registers between stages, the feedback latches (`SNX` →
//!   `LPR`), the input-valid chain and the output registers;
//! * behavioral smart-buffer and controller entities parameterized from
//!   the kernel's window specification (§4.1's "pre-existing parameterized
//!   FSMs in a VHDL library").
//!
//! The text is written in one pass into one buffer: the port sets of
//! every node are computed once ([`node_ports`]), C names are lowercased
//! once ([`Names`]), and every fragment is formatted in place.

use crate::writer::{Cast, Fmt, Lit, PortDir, VhdlType, VhdlWriter};
use roccc_datapath::graph::{Datapath, Value};
use roccc_hlir::kernel::Kernel;
use roccc_suifvm::ir::{LutTable, Opcode};
use std::fmt::{self, Display};

/// Generates the complete VHDL source for a compiled kernel.
pub fn generate_vhdl(kernel: &Kernel, dp: &Datapath) -> String {
    let mut w = VhdlWriter::with_capacity(4096 + 256 * dp.ops.len());
    write_vhdl(&mut w, kernel, dp);
    w.finish()
}

/// Writes the complete VHDL source for a compiled kernel into `w`,
/// library header included.
pub fn write_vhdl(w: &mut VhdlWriter, kernel: &Kernel, dp: &Datapath) {
    let names = Names::new(dp);
    let ports = node_ports(dp);
    w.header();

    // ROM entities for LUT ops.
    for (t, lut) in dp.luts.iter().enumerate() {
        rom_entity(w, &names, t, lut);
    }

    // One entity per node.
    for node in &dp.nodes {
        let i = node.id.0 as usize;
        node_entity(w, dp, &names, &names.labels[i], &ports[i]);
    }

    // Top-level data path.
    top_entity(w, dp, &names, &ports);

    // Buffer and controller shells for loop kernels.
    if !kernel.dims.is_empty() {
        smart_buffer_entity(w, kernel, &names);
        controller_entity(w, kernel, &names);
    }
}

/// Lowercases each name, the way VHDL compares identifiers, and makes
/// the results unique: a name equal to an earlier one gets `_<index>`
/// (its position in `names`) appended until it is unique.
fn unique_ids<'a>(names: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut ids: Vec<String> = names.map(str::to_lowercase).collect();
    for i in 1..ids.len() {
        let (earlier, rest) = ids.split_at_mut(i);
        let id = &mut rest[0];
        while earlier.contains(id) {
            id.push_str(&format!("_{i}"));
        }
    }
    ids
}

/// The VHDL identifiers of one data path's C names, lowercased once per
/// render. VHDL identifiers are case-insensitive, so within each list a
/// name equal to an earlier one gets `_<index>` appended (its position
/// in the list) until it is unique: C inputs `A`, `a` become ports
/// `in_a`, `in_a_1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Names {
    /// The data path (and top entity) name.
    pub dp: String,
    /// Input `k` is port `in_{inputs[k]}` of the top entity.
    pub inputs: Vec<String>,
    /// Output `k` is port `out_{outputs[k]}` of the top entity.
    pub outputs: Vec<String>,
    /// Feedback slot `k` latches into signal `fb_{feedback[k]}`.
    feedback: Vec<String>,
    /// Node `n`'s entity is `{dp}_{labels[n]}`.
    labels: Vec<String>,
}

impl Names {
    /// The identifiers of `dp`'s names.
    pub fn new(dp: &Datapath) -> Names {
        Names {
            dp: dp.name.to_lowercase(),
            inputs: unique_ids(dp.inputs.iter().map(|(n, _)| n.as_str())),
            outputs: unique_ids(dp.outputs.iter().map(|o| o.name.as_str())),
            feedback: unique_ids(dp.feedback.iter().map(|(s, _)| s.name.as_str())),
            labels: dp.nodes.iter().map(|n| n.label.replace(' ', "_")).collect(),
        }
    }
}

fn op_ty(dp: &Datapath, o: u32) -> VhdlType {
    let op = &dp.ops[o as usize];
    VhdlType::vector(op.ty.signed, op.hw_bits)
}

fn val_ty(dp: &Datapath, v: Value) -> VhdlType {
    match v {
        Value::Op(o) => op_ty(dp, o.0),
        Value::Input(k) => {
            let t = dp.inputs[k].1;
            VhdlType::vector(t.signed, t.bits)
        }
        Value::Const(c) => {
            VhdlType::vector(c < 0, roccc_cparse::types::IntType::width_for(c, c < 0))
        }
    }
}

/// The literal for constant operand `c` at its own width.
fn const_lit(c: i64) -> Lit {
    Lit {
        value: c,
        ty: VhdlType::vector(c < 0, roccc_cparse::types::IntType::width_for(c, c < 0)),
    }
}

/// Whether an op's logic lives in its node entity (vs the top level).
fn in_node(op: Opcode) -> bool {
    !matches!(op, Opcode::Lpr | Opcode::Lut)
}

/// The ports of one node entity.
#[derive(Debug, Default)]
struct NodePorts {
    /// The ops whose logic the node holds, in op order.
    ops: Vec<usize>,
    /// Values the node reads from outside it or from another stage,
    /// sorted, each with the latest stage an op of the node reads it at.
    imported: Vec<(Value, u32)>,
    /// Ops whose value leaves the node (another node, another stage, or
    /// a top-level output, feedback latch, ROM or `LPR`), sorted.
    exported: Vec<u32>,
}

impl NodePorts {
    fn imports(&self, v: Value) -> bool {
        self.imported.binary_search_by(|(x, _)| x.cmp(&v)).is_ok()
    }
}

/// The port sets of every node (indexed by node id), from one pass over
/// the ops.
fn node_ports(dp: &Datapath) -> Vec<NodePorts> {
    let mut ports: Vec<NodePorts> = dp.nodes.iter().map(|_| NodePorts::default()).collect();
    // Every operand read by an op assigned to the node, LPR and LUT ops
    // included: (value, stage, whether it enters the node's logic through
    // a port). A port carries its value from the latest of these stages.
    let mut reads: Vec<Vec<(Value, u32, bool)>> = dp.nodes.iter().map(|_| Vec::new()).collect();
    let home = |op: &roccc_datapath::DpOp| in_node(op.op).then_some(op.node.0 as usize);
    for (i, op) in dp.ops.iter().enumerate() {
        let here = home(op);
        let n = op.node.0 as usize;
        if let Some(p) = here.and_then(|n| ports.get_mut(n)) {
            p.ops.push(i);
        }
        for &s in op.srcs.iter() {
            let crosses = match s {
                Value::Op(o) => {
                    let src = &dp.ops[o.0 as usize];
                    let there = home(src);
                    let crosses = there != here || src.stage != op.stage;
                    if crosses {
                        if let Some(p) = there.and_then(|n| ports.get_mut(n)) {
                            p.exported.push(o.0);
                        }
                    }
                    crosses
                }
                Value::Input(_) => true,
                Value::Const(_) => continue,
            };
            if let Some(r) = reads.get_mut(n) {
                r.push((s, op.stage, crosses && here.is_some()));
            }
        }
    }
    // Values feeding outputs and feedback latches also export.
    let sinks = dp.outputs.iter().map(|o| o.value);
    for v in sinks.chain(dp.feedback.iter().map(|(_, v)| *v)) {
        if let Value::Op(o) = v {
            if let Some(p) = home(&dp.ops[o.0 as usize]).and_then(|n| ports.get_mut(n)) {
                p.exported.push(o.0);
            }
        }
    }
    for (p, mut reads) in ports.iter_mut().zip(reads) {
        reads.sort_unstable();
        reads.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.max(later.1);
                kept.2 |= later.2;
            }
            same
        });
        p.imported = reads
            .into_iter()
            .filter(|r| r.2)
            .map(|(v, stage, _)| (v, stage))
            .collect();
        p.exported.sort_unstable();
        p.exported.dedup();
    }
    ports
}

fn rom_entity(w: &mut VhdlWriter, names: &Names, t: usize, lut: &LutTable) {
    let mut e = w.entity(format_args!("{}_rom{t}", names.dp));
    let elem = VhdlType::vector(lut.elem.signed, lut.elem.bits);
    e.port("addr", PortDir::In, VhdlType::Unsigned(lut.addr_bits()));
    e.port("data", PortDir::Out, elem);
    let padded = 1usize << lut.addr_bits();
    let values = (0..padded).map(|i| lut.elem.wrap(lut.data.get(i).copied().unwrap_or(0)));
    e.rom("table", elem, values);
    e.assign("data", "table(to_integer(addr))");
    e.end();
}

/// Writes the combinational entity for one node.
fn node_entity(w: &mut VhdlWriter, dp: &Datapath, names: &Names, label: &str, p: &NodePorts) {
    let mut e = w.entity(format_args!("{}_{label}", names.dp));
    for &(v, _) in &p.imported {
        match v {
            Value::Op(o) => e.port(format_args!("i_op{}", o.0), PortDir::In, val_ty(dp, v)),
            Value::Input(k) => e.port(
                format_args!("i_{}", names.inputs[k]),
                PortDir::In,
                val_ty(dp, v),
            ),
            Value::Const(_) => unreachable!("constants are never ports"),
        }
    }
    for &o in &p.exported {
        e.port(format_args!("o_op{o}"), PortDir::Out, op_ty(dp, o));
    }

    // How the node's logic reads a value.
    let read = |v: Value| {
        Fmt(move |f| match v {
            Value::Op(o) if p.imports(v) => write!(f, "i_op{}", o.0),
            Value::Op(o) => write!(f, "w{}", o.0),
            Value::Input(k) => write!(f, "i_{}", names.inputs[k]),
            Value::Const(c) => const_lit(c).fmt(f),
        })
    };

    for &i in &p.ops {
        let op = &dp.ops[i];
        let bits = op.hw_bits.max(1);
        let signed = op.ty.signed;
        e.signal(format_args!("w{i}"), VhdlType::vector(signed, bits));
        let opnd = |k: usize| Cast {
            expr: read(op.srcs[k]),
            from: val_ty(dp, op.srcs[k]),
            signed,
            bits,
        };
        // Comparison operands keep their own widths and signedness.
        let raw = |k: usize| read(op.srcs[k]);
        let cmp = |rel: &'static str| {
            Fmt(move |f| {
                write!(
                    f,
                    "to_unsigned(1, 1) when ({} {rel} {}) else to_unsigned(0, 1)",
                    raw(0),
                    raw(1)
                )
            })
        };
        let target = format_args!("w{i}");
        match op.op {
            Opcode::Add => e.assign(target, format_args!("{} + {}", opnd(0), opnd(1))),
            Opcode::Sub => e.assign(target, format_args!("{} - {}", opnd(0), opnd(1))),
            Opcode::Mul => e.assign(
                target,
                format_args!("resize({} * {}, {bits})", opnd(0), opnd(1)),
            ),
            Opcode::Div => e.assign(target, format_args!("{} / {}", opnd(0), opnd(1))),
            Opcode::Rem => e.assign(target, format_args!("{} rem {}", opnd(0), opnd(1))),
            Opcode::Neg => e.assign(target, format_args!("-{}", opnd(0))),
            Opcode::Not => e.assign(target, format_args!("not {}", opnd(0))),
            Opcode::Shl | Opcode::Shr => {
                let dir = if op.op == Opcode::Shl {
                    "left"
                } else {
                    "right"
                };
                match op.srcs[1] {
                    Value::Const(c) => {
                        e.assign(target, format_args!("shift_{dir}({}, {c})", opnd(0)))
                    }
                    _ => e.assign(
                        target,
                        format_args!("shift_{dir}({}, to_integer({}))", opnd(0), raw(1)),
                    ),
                }
            }
            Opcode::And => e.assign(target, format_args!("{} and {}", opnd(0), opnd(1))),
            Opcode::Or => e.assign(target, format_args!("{} or {}", opnd(0), opnd(1))),
            Opcode::Xor => e.assign(target, format_args!("{} xor {}", opnd(0), opnd(1))),
            Opcode::Slt => e.assign(target, cmp("<")),
            Opcode::Sle => e.assign(target, cmp("<=")),
            Opcode::Seq => e.assign(target, cmp("=")),
            Opcode::Sne => e.assign(target, cmp("/=")),
            Opcode::Bool => e.assign(
                target,
                format_args!(
                    "to_unsigned(1, 1) when (to_integer({}) /= 0) else to_unsigned(0, 1)",
                    raw(0)
                ),
            ),
            Opcode::Mux => e.assign(
                target,
                format_args!("{} when {}(0) = '1' else {}", opnd(1), raw(0), opnd(2)),
            ),
            Opcode::Mov | Opcode::Cvt => e.assign(target, opnd(0)),
            _ => unreachable!("{} excluded from node entities", op.op),
        }
    }

    // Drive the export ports.
    for &o in &p.exported {
        e.assign(format_args!("o_op{o}"), format_args!("w{o}"));
    }
    e.end();
}

/// The staged top-entity signal carrying value `v` to a consumer at
/// `stage`.
fn top_signal<'a>(dp: &'a Datapath, names: &'a Names, v: Value, stage: u32) -> impl Display + 'a {
    Fmt(move |f| match v {
        Value::Op(o) => write!(f, "op{}_s{}", o.0, stage.max(dp.ops[o.0 as usize].stage)),
        Value::Input(k) if stage == 0 => write!(f, "in_{}", names.inputs[k]),
        Value::Input(k) => write!(f, "in{k}_s{stage}"),
        Value::Const(c) => const_lit(c).fmt(f),
    })
}

/// The top-level data-path entity: node instances, pipeline registers,
/// feedback latches, valid chain, output registers.
fn top_entity(w: &mut VhdlWriter, dp: &Datapath, names: &Names, ports: &[NodePorts]) {
    // `dp.name` is the data-path function's name, which the front end
    // already suffixed `_dp` (Figure 3 (c)'s `main_df` convention).
    let mut e = w.entity(&names.dp);
    e.port("clk", PortDir::In, VhdlType::StdLogic);
    e.port("ivalid", PortDir::In, VhdlType::StdLogic);
    e.port("ovalid", PortDir::Out, VhdlType::StdLogic);
    for ((_, t), n) in dp.inputs.iter().zip(&names.inputs) {
        e.port(
            format_args!("in_{n}"),
            PortDir::In,
            VhdlType::vector(t.signed, t.bits),
        );
    }
    for (out, n) in dp.outputs.iter().zip(&names.outputs) {
        let ty = VhdlType::vector(out.ty.signed, out.ty.bits);
        e.port(format_args!("out_{n}"), PortDir::Out, ty);
    }

    // Max stage each op and input is consumed at.
    let mut op_use: Vec<Option<u32>> = vec![None; dp.ops.len()];
    let mut in_use: Vec<Option<u32>> = vec![None; dp.inputs.len()];
    let mut consume = |v: Value, stage: u32| {
        let slot = match v {
            Value::Op(o) => &mut op_use[o.0 as usize],
            Value::Input(k) => &mut in_use[k],
            Value::Const(_) => return,
        };
        *slot = Some(slot.map_or(stage, |m| m.max(stage)));
    };
    for op in &dp.ops {
        for s in op.srcs.iter() {
            consume(*s, op.stage);
        }
    }
    let last = dp.num_stages - 1;
    for out in &dp.outputs {
        consume(out.value, last);
    }
    for (_, v) in &dp.feedback {
        // Feedback latches at the LPR stage (verified equal by dp.verify).
        consume(*v, dp.stage_of(*v));
    }

    // An op's value appears as a top-level signal only when it leaves its
    // node: consumed in another node, at a later stage, by an output or
    // feedback latch, or produced by a top-level element (LPR/LUT).
    let mut visible: Vec<bool> = dp.ops.iter().map(|op| !in_node(op.op)).collect();
    for op in &dp.ops {
        for s in op.srcs.iter() {
            if let Value::Op(o) = s {
                let src = &dp.ops[o.0 as usize];
                if src.node != op.node
                    || src.stage != op.stage
                    || !in_node(src.op)
                    || !in_node(op.op)
                {
                    visible[o.0 as usize] = true;
                }
            }
        }
    }
    let sinks = dp.outputs.iter().map(|o| o.value);
    for v in sinks.chain(dp.feedback.iter().map(|(_, v)| *v)) {
        if let Value::Op(o) = v {
            visible[o.0 as usize] = true;
        }
    }

    // Staged signals: the defining stage and one register per later
    // stage a consumer reads (inputs are ports at stage 0). Purely
    // node-internal values get none.
    let staged = || {
        let ops = op_use.iter().enumerate().filter_map(|(o, m)| {
            let def = dp.ops[o].stage;
            m.filter(|_| visible[o])
                .map(|m| (Value::Op(roccc_datapath::OpId(o as u32)), def, m))
        });
        let inputs = in_use
            .iter()
            .enumerate()
            .filter_map(|(k, m)| m.map(|m| (Value::Input(k), 0, m)));
        ops.chain(inputs)
    };
    for (v, def, max) in staged() {
        let ty = val_ty(dp, v);
        if let Value::Op(o) = v {
            e.signal(format_args!("op{}_s{def}", o.0), ty);
        }
        for s in def + 1..=max {
            e.signal(top_signal(dp, names, v, s), ty);
        }
    }

    // Valid chain.
    for s in 0..dp.num_stages {
        e.signal(format_args!("valid_s{s}"), VhdlType::StdLogic);
    }
    e.assign("valid_s0", "ivalid");
    e.signal("ovalid_r", VhdlType::StdLogic);
    e.assign("ovalid", "ovalid_r");

    // Node instances.
    for node in &dp.nodes {
        let label = &names.labels[node.id.0 as usize];
        let p = &ports[node.id.0 as usize];
        let entity = format_args!("{}_{label}", names.dp);
        e.instance(format_args!("u_{label}"), entity, |m| {
            for &(v, stage) in &p.imported {
                let actual = top_signal(dp, names, v, stage);
                match v {
                    Value::Op(o) => m.map(format_args!("i_op{}", o.0), actual),
                    Value::Input(k) => m.map(format_args!("i_{}", names.inputs[k]), actual),
                    Value::Const(_) => {}
                }
            }
            for &o in &p.exported {
                let def = dp.ops[o as usize].stage;
                m.map(format_args!("o_op{o}"), format_args!("op{o}_s{def}"));
            }
        });
    }

    // LPR / feedback latches and LUT ROM instances live at the top.
    for (i, op) in dp.ops.iter().enumerate() {
        match op.op {
            Opcode::Lpr => {
                let slot = op.imm as usize;
                let (info, snx) = &dp.feedback[slot];
                let fb = format_args!("fb_{}", names.feedback[slot]);
                let fb_ty = VhdlType::vector(info.ty.signed, info.ty.bits);
                e.signal(fb, fb_ty);
                // The LPR value is the latch output.
                let value = Cast {
                    expr: fb,
                    from: fb_ty,
                    signed: op.ty.signed,
                    bits: op.hw_bits,
                };
                e.assign(format_args!("op{i}_s{}", op.stage), value);
                let enable = format_args!("valid_s{}", op.stage);
                let next = Cast {
                    expr: top_signal(dp, names, *snx, op.stage),
                    from: val_ty(dp, *snx),
                    signed: info.ty.signed,
                    bits: info.ty.bits,
                };
                let label = format_args!("fb_latch_{}", names.feedback[slot]);
                e.process(label, Some(&enable), |p| p.latch(fb, next));
            }
            Opcode::Lut => {
                let t = op.imm as usize;
                let addr_bits = dp.luts[t].addr_bits();
                let addr = format_args!("lut{i}_addr");
                e.signal(addr, VhdlType::Unsigned(addr_bits));
                let index = Cast {
                    expr: top_signal(dp, names, op.srcs[0], op.stage),
                    from: val_ty(dp, op.srcs[0]),
                    signed: false,
                    bits: addr_bits,
                };
                e.assign(addr, index);
                let data = format_args!("op{i}_s{}", op.stage);
                let rom = format_args!("{}_rom{t}", names.dp);
                e.instance(format_args!("u_rom{i}"), rom, |m| {
                    m.map("addr", addr);
                    m.map("data", data);
                });
                // Ensure the base signal exists even if only later stages
                // consume it (declared above when a consumer exists).
                if op_use[i].is_none() {
                    e.signal(data, op_ty(dp, i as u32));
                }
            }
            _ => {}
        }
    }

    // Output registers.
    for (out, n) in dp.outputs.iter().zip(&names.outputs) {
        e.signal(
            format_args!("out_{n}_r"),
            VhdlType::vector(out.ty.signed, out.ty.bits),
        );
        e.assign(format_args!("out_{n}"), format_args!("out_{n}_r"));
    }

    // Pipeline registers, valid chain and output registers in one
    // clocked process.
    e.process("pipeline", None, |p| {
        for (v, def, max) in staged() {
            for s in def + 1..=max {
                p.latch(top_signal(dp, names, v, s), top_signal(dp, names, v, s - 1));
            }
        }
        for s in 1..dp.num_stages {
            p.latch(format_args!("valid_s{s}"), format_args!("valid_s{}", s - 1));
        }
        p.latch("ovalid_r", format_args!("valid_s{last}"));
        for (out, n) in dp.outputs.iter().zip(&names.outputs) {
            let value = Cast {
                expr: top_signal(dp, names, out.value, last),
                from: val_ty(dp, out.value),
                signed: out.ty.signed,
                bits: out.ty.bits,
            };
            p.latch(format_args!("out_{n}_r"), value);
        }
    });
    e.end();
}

/// A `[a, b, ...]` list, the way `{:?}` prints a `Vec`.
fn debug_list<T: fmt::Debug>(items: impl Iterator<Item = T> + Clone) -> impl Display {
    Fmt(move |f| f.debug_list().entries(items.clone()).finish())
}

/// Behavioral smart-buffer shell parameterized by the kernel's window.
fn smart_buffer_entity(w: &mut VhdlWriter, kernel: &Kernel, names: &Names) {
    let arrays = unique_ids(kernel.windows.iter().map(|win| win.array.as_str()));
    let taps = kernel.windows.iter().flat_map(|win| &win.reads);
    let taps = unique_ids(taps.map(|r| r.scalar.as_str()));

    let mut e = w.entity(format_args!("{}_smart_buffer", names.dp));
    e.port("clk", PortDir::In, VhdlType::StdLogic);
    e.port("din_valid", PortDir::In, VhdlType::StdLogic);
    e.port("window_valid", PortDir::Out, VhdlType::StdLogic);
    let mut tap = taps.iter();
    for (win, arr) in kernel.windows.iter().zip(&arrays) {
        let ty = VhdlType::vector(win.elem.signed, win.elem.bits);
        e.port(format_args!("din_{arr}"), PortDir::In, ty);
        for t in tap.by_ref().take(win.reads.len()) {
            e.port(format_args!("win_{t}"), PortDir::Out, ty);
        }
    }
    e.comment(format_args!(
        "parameterized smart buffer: windows {}, stride {}",
        debug_list(kernel.windows.iter().map(|win| win.extent())),
        debug_list(kernel.dims.iter().map(|d| d.step))
    ));
    // Shift-register behaviour for every window.
    let mut tap = taps.iter();
    for (win, arr) in kernel.windows.iter().zip(&arrays) {
        let n = win.reads.len();
        let ty = VhdlType::vector(win.elem.signed, win.elem.bits);
        for i in 0..n {
            e.signal(format_args!("sr_{arr}_{i}"), ty);
        }
        e.process(format_args!("shift_{arr}"), Some(&"din_valid"), |p| {
            for i in 0..n {
                if i + 1 < n {
                    p.latch(
                        format_args!("sr_{arr}_{i}"),
                        format_args!("sr_{arr}_{}", i + 1),
                    );
                } else {
                    p.latch(format_args!("sr_{arr}_{i}"), format_args!("din_{arr}"));
                }
            }
        });
        for (i, t) in tap.by_ref().take(n).enumerate() {
            e.assign(format_args!("win_{t}"), format_args!("sr_{arr}_{i}"));
        }
    }
    e.signal("fill_count", VhdlType::Unsigned(16));
    e.process("fill", Some(&"din_valid"), |p| {
        p.latch("fill_count", "fill_count + 1")
    });
    let window = kernel
        .windows
        .first()
        .map(|win| win.reads.len())
        .unwrap_or(1);
    e.assign(
        "window_valid",
        format_args!("'1' when fill_count >= to_unsigned({window}, 16) else '0'"),
    );
    e.end();
}

/// Controller FSM shell: address generation bounds from the loop dims.
fn controller_entity(w: &mut VhdlWriter, kernel: &Kernel, names: &Names) {
    let mut e = w.entity(format_args!("{}_controller", names.dp));
    e.port("clk", PortDir::In, VhdlType::StdLogic);
    e.port("start", PortDir::In, VhdlType::StdLogic);
    e.port("read_addr", PortDir::Out, VhdlType::Unsigned(32));
    e.port("write_addr", PortDir::Out, VhdlType::Unsigned(32));
    e.port("done", PortDir::Out, VhdlType::StdLogic);
    let total: u64 = kernel.total_iterations();
    e.signal("iter", VhdlType::Unsigned(32));
    e.comment(format_args!(
        "higher-level controller: {total} iterations over dims {}",
        debug_list(kernel.dims.iter().map(|d| (d.start, d.bound, d.step)))
    ));
    e.process("count", Some(&"start"), |p| p.latch("iter", "iter + 1"));
    e.assign("read_addr", "iter");
    e.assign("write_addr", "iter");
    e.assign(
        "done",
        format_args!("'1' when iter >= to_unsigned({total}, 32) else '0'"),
    );
    e.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc::{compile, CompileOptions};

    fn vhdl_for(src: &str, func: &str) -> String {
        let hw = compile(src, func, &CompileOptions::default()).unwrap();
        generate_vhdl(&hw.kernel, &hw.datapath)
    }

    #[test]
    fn cast_handles_all_signedness_combinations() {
        let cast = |from, signed, bits| {
            crate::writer::Cast {
                expr: "x",
                from,
                signed,
                bits,
            }
            .to_string()
        };
        assert_eq!(cast(VhdlType::Signed(8), true, 8), "x");
        assert_eq!(cast(VhdlType::Signed(8), true, 12), "resize(x, 12)");
        assert_eq!(
            cast(VhdlType::Unsigned(8), true, 12),
            "signed(resize(x, 12))"
        );
        assert_eq!(
            cast(VhdlType::Signed(8), false, 4),
            "unsigned(resize(x, 4))"
        );
        assert_eq!(cast(VhdlType::Unsigned(1), false, 0), "x");
        assert_eq!(
            cast(VhdlType::StdLogic, false, 3),
            "to_unsigned(0, 3) -- std_logic cast of x"
        );
    }

    #[test]
    fn top_entity_has_valid_chain_and_ports() {
        let text = vhdl_for("void f(int a, int b, int* o) { *o = a * b + 1; }", "f");
        assert!(text.contains("entity f_dp is"));
        assert!(text.contains("ivalid : in  std_logic"));
        assert!(text.contains("ovalid : out std_logic"));
        assert!(text.contains("in_a : in  signed(31 downto 0)"));
        assert!(text.contains("out_o : out signed(31 downto 0)"));
        assert!(text.contains("valid_s0 <= ivalid;"));
        assert!(text.contains("pipeline: process(clk)"));
    }

    #[test]
    fn mux_node_entity_emitted_for_branches() {
        let text = vhdl_for(
            "void f(int a, int* o) { int x; if (a > 0) { x = a; } else { x = -a; } *o = x; }",
            "f",
        );
        assert!(text.contains("mux"), "{text}");
        assert!(text.contains("when"), "mux select expression");
    }

    #[test]
    fn feedback_kernel_gets_gated_latch() {
        let text = vhdl_for(
            "void acc(int A[8], int* out) { int s = 0; int i;
               for (i = 0; i < 8; i++) { s = s + A[i]; } *out = s; }",
            "acc",
        );
        assert!(text.contains("fb_latch_s"), "{text}");
        assert!(text.contains("if valid_s"), "latch gated by the valid bit");
        // Streaming kernel also gets buffer + controller shells.
        assert!(text.contains("smart_buffer"));
        assert!(text.contains("controller"));
    }

    #[test]
    fn rom_entities_are_padded_to_power_of_two() {
        let text = vhdl_for(
            "const uint8 t[5] = {1,2,3,4,5};
             void f(uint3 i, uint8* o) { *o = ROCCC_lut(t, i); }",
            "f",
        );
        // 5 entries pad to 8.
        assert!(text.contains("array (0 to 7)"), "{text}");
        assert!(text.contains("table(to_integer(addr))"));
    }

    #[test]
    fn case_colliding_inputs_become_distinct_ports() {
        let text = vhdl_for("void f(int A, int a, int* o) { *o = A - a; }", "f");
        assert!(
            text.contains(
                "    in_a : in  signed(31 downto 0);\n    in_a_1 : in  signed(31 downto 0);\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "    i_a : in  signed(31 downto 0);\n    i_a_1 : in  signed(31 downto 0);\n"
            ),
            "{text}"
        );
        // The subtraction reads two different ports, each wired to its own
        // top-level input.
        assert!(text.contains("w0 <= i_a - i_a_1;"), "{text}");
        assert!(
            text.contains("port map (i_a => in_a, i_a_1 => in_a_1, "),
            "{text}"
        );
        assert!(crate::lint::lint(&text).is_empty(), "{text}");
    }

    #[test]
    fn case_colliding_outputs_and_feedback_become_distinct() {
        let outputs = vhdl_for("void h(int x, int* O, int* o) { *O = x; *o = x + 1; }", "h");
        let feedback = vhdl_for(
            "void g(int A[8], int* O, int* o) { int s = 0; int S = 1; int i;
               for (i = 0; i < 8; i++) { s = s + A[i]; S = S ^ A[i]; } *O = s; *o = S; }",
            "g",
        );
        for (text, ids) in [
            (&outputs, ["    out_o : ", "    out_o_1 : "]),
            (&feedback, ["  signal fb_s : ", "  signal fb_s_1 : "]),
            (&feedback, ["    out_s_final : ", "    out_s_final_1 : "]),
        ] {
            for id in ids {
                assert!(text.contains(id), "{id}: {text}");
            }
            assert!(crate::lint::lint(text).is_empty(), "{text}");
        }
    }

    #[test]
    fn unique_ids_lowercase_and_suffix_collisions() {
        let ids = |names: &[&str]| unique_ids(names.iter().copied());
        assert_eq!(ids(&["In", "out", "x"]), ["in", "out", "x"]);
        assert_eq!(ids(&["A", "a", "a_1", "B"]), ["a", "a_1", "a_1_2", "b"]);
        assert_eq!(ids(&["a_2", "A", "a"]), ["a_2", "a", "a_2_2"]);
        assert!(ids(&[]).is_empty());
    }

    #[test]
    fn node_ports_are_written_once_per_node_and_match_the_instance() {
        // Every node entity's ports appear, in the same order, as the
        // formals of its instance in the top entity.
        let text = vhdl_for(
            "void f(int a, int b, int* o) { int x; if (a > b) { x = a * 3; } else { x = b - a; } *o = x + 1; }",
            "f",
        );
        let mut checked = 0;
        for block in text.split("\nentity ").skip(1) {
            let name = block.split_whitespace().next().unwrap();
            let Some(label) = name.strip_prefix("f_dp_") else {
                continue;
            };
            let formals: Vec<&str> = block
                .split("end entity")
                .next()
                .unwrap()
                .lines()
                .filter_map(|l| l.trim().split_once(" : ").map(|(n, _)| n))
                .collect();
            let instance = format!("  u_{label}: entity work.{name} port map (");
            let map = text
                .split(&instance)
                .nth(1)
                .unwrap_or_else(|| panic!("no instance of {name}: {text}"));
            let mapped: Vec<&str> = map
                .split(");")
                .next()
                .unwrap()
                .split(", ")
                .map(|a| a.split(" => ").next().unwrap())
                .collect();
            assert_eq!(formals, mapped, "{name}");
            checked += 1;
        }
        assert!(checked >= 3, "{text}");
    }
}
