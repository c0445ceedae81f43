//! Symbolic execution of one II-period of the compiled netlist: the value
//! half of translation validation.
//!
//! Cells are evaluated in index order (with bounded re-passes, since only
//! registers may be forward-referenced), mirroring `netlist::plan` wrap
//! semantics exactly: every cell result wraps to the cell type, ROM data is
//! element-wrapped before the cell wrap, shifts clamp dynamic amounts to
//! `0..=63`, and register commits wrap to the register type.
//!
//! Registers are transparent: a gateless register's term is its driver's
//! term wrapped to the register type, and a gated feedback register reads
//! as [`crate::term::Term::FbVar`]. The leaves are the ones `eval_ir`
//! uses, in the same store, so a netlist cone that keeps the IR's
//! structure hash-conses onto the IR's term. When each value is computed
//! is the timing half's question ([`crate::timing::cell_lags`]).
//!
//! Why dropping the timing from the terms is sound: a netlist cone whose
//! cells all sit at one lag `l` computes the lag-0 cone over the window
//! launched `l` stages earlier, i.e. the lag-0 cone with its leaves
//! renamed injectively. Its transparent term is therefore exactly the
//! window-relative term the value obligation compares, the one that
//! shifting each leaf by its register count and then resetting every lag
//! to 0 would have built. A cone whose cells sit at mixed lags, or at the
//! wrong lag, is refuted by its valid-grid obligation before its value
//! matters, even when its value is constant: at mixed lags a constant may
//! come from a value cancelled against its own delayed copy
//! (`x - x_delayed` folds to 0), which the hardware does not compute.
//!
//! Width-change absorption uses two tiers: the store's own interval
//! analysis (always sound, trusts nothing), and the compiler's `nl.ranges`
//! facts (`suifvm::range` known-bits results stamped onto cells). Cells
//! whose wrap was elided only thanks to a compiler fact are recorded in
//! [`NlSymbols::fact_elided`] so obligations closed through them can be
//! reported as range-assisted rather than purely rewritten
//! ([`NlSymbols::range_assisted`]).

use std::collections::{HashMap, HashSet};

use roccc_netlist::cells::{CellKind, Netlist};
use roccc_suifvm::ir::{FunctionIr, Opcode};

use crate::term::{TOp, Term, TermId, TermStore};

/// Result of symbolically executing one netlist period.
pub struct NlSymbols {
    /// Per-output-port terms (port wrap applied).
    pub outputs: Vec<TermId>,
    /// Per-feedback-slot next-state terms (register wrap applied), indexed
    /// like `f.feedback`.
    pub next_state: Vec<TermId>,
    /// `(netlist init, IR init)` per feedback slot, both wrapped.
    pub init_vals: Vec<(i64, i64)>,
    /// The unwrapped term of every cell whose wrap was dropped only
    /// because a compiler range fact proved the value fits the cell type.
    pub fact_elided: HashSet<TermId>,
}

impl NlSymbols {
    /// True when a fact-elided term lies in `t`'s cone, at any lag: the
    /// obligation leans on a compiler range fact wherever in the cone the
    /// elided wrap sits, behind a register or not.
    pub fn range_assisted(&self, store: &TermStore, t: TermId) -> bool {
        let facts = &self.fact_elided;
        if facts.is_empty() {
            return false;
        }
        let mut seen = vec![false; store.len()];
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut seen[x as usize], true) {
                continue;
            }
            if facts.contains(&x) {
                return true;
            }
            match store.term(x) {
                Term::Wrap { arg, .. } => stack.push(*arg),
                Term::Op { args, .. } => stack.extend_from_slice(args),
                _ => {}
            }
        }
        false
    }
}

/// Symbolically evaluates `nl` over the same leaves `eval_ir` uses.
pub fn eval_nl(store: &mut TermStore, nl: &Netlist, f: &FunctionIr) -> Result<NlSymbols, String> {
    // Map feedback-register cells to IR slot indices by name.
    let mut fb_slot: HashMap<u32, usize> = HashMap::new();
    for &(name, cid) in &nl.feedback_regs {
        let slot = f
            .feedback
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| format!("netlist feedback reg '{name}' has no IR slot"))?;
        let cell = &nl.cells[cid.0 as usize];
        if cell.ty() != f.feedback[slot].ty {
            return Err(format!(
                "feedback reg '{name}' type {} != IR slot type {}",
                cell.ty(),
                f.feedback[slot].ty
            ));
        }
        fb_slot.insert(cid.0, slot);
    }
    if fb_slot.len() != f.feedback.len() {
        return Err(format!(
            "netlist exposes {} feedback regs, IR has {} slots",
            fb_slot.len(),
            f.feedback.len()
        ));
    }

    let mut terms: Vec<Option<TermId>> = vec![None; nl.cells.len()];
    let mut fact_elided = HashSet::new();

    // Only registers may be forward-referenced, so each pass resolves at
    // least the next unresolved non-register cell; bound passes anyway.
    let max_passes = nl.cells.len() + 2;
    for _ in 0..max_passes {
        let mut progress = false;
        let mut done = true;
        for (ci, cell) in nl.cells.iter().enumerate() {
            if terms[ci].is_some() {
                continue;
            }
            let t = match &cell.kind {
                CellKind::Const(v) => Some(store.cst(cell.ty().wrap(*v))),
                CellKind::Input(k) => {
                    let raw = store.var(*k as u32);
                    Some(store.wrap(cell.ty(), raw))
                }
                CellKind::Reg {
                    d,
                    init,
                    stage_gate,
                } => match (stage_gate, fb_slot.get(&(ci as u32))) {
                    (Some(_), Some(&slot)) => Some(store.fb(slot as u32)),
                    (Some(_), None) => {
                        return Err(format!("gated reg c{ci} is not a feedback register"))
                    }
                    (None, _) => match d {
                        Some(dc) => terms[dc.0 as usize]
                            .map(|dt| cell_wrap(store, nl, ci, dt, &mut fact_elided)),
                        // A dangling register holds its init forever.
                        None => Some(store.cst(cell.ty().wrap(*init))),
                    },
                },
                CellKind::Op { op, srcs, imm } => {
                    let mut args = Vec::with_capacity(srcs.len());
                    let mut ready = true;
                    for s in srcs.iter() {
                        match terms[s.0 as usize] {
                            Some(t) => args.push(t),
                            None => {
                                ready = false;
                                break;
                            }
                        }
                    }
                    if ready {
                        let raw = op_term(store, nl, *op, &args, *imm)?;
                        Some(cell_wrap(store, nl, ci, raw, &mut fact_elided))
                    } else {
                        None
                    }
                }
            };
            match t {
                Some(t) => {
                    terms[ci] = Some(t);
                    progress = true;
                }
                None => done = false,
            }
        }
        if done {
            break;
        }
        if !progress {
            return Err("unresolvable combinational cycle in netlist".into());
        }
    }
    if terms.iter().any(|t| t.is_none()) {
        return Err("netlist cells left unresolved".into());
    }

    let mut outputs = Vec::with_capacity(nl.outputs.len());
    for &(_, ty, cid) in &nl.outputs {
        let t = terms[cid.0 as usize].unwrap();
        outputs.push(store.wrap(ty, t));
    }

    let mut next_state = vec![store.cst(0); f.feedback.len()];
    let mut init_vals = vec![(0i64, 0i64); f.feedback.len()];
    for &(_, cid) in &nl.feedback_regs {
        let slot = fb_slot[&cid.0];
        let cell = &nl.cells[cid.0 as usize];
        let CellKind::Reg { d, init, .. } = &cell.kind else {
            return Err(format!("feedback cell c{} is not a register", cid.0));
        };
        let ir_slot = &f.feedback[slot];
        init_vals[slot] = (cell.ty().wrap(*init), ir_slot.ty.wrap(ir_slot.init));
        let d = (*d).ok_or_else(|| format!("feedback reg c{} has no driver", cid.0))?;
        // Commit wraps to the register type; the commit reads its driver
        // in the gate cycle itself.
        let dt = terms[d.0 as usize].unwrap();
        next_state[slot] = store.wrap(cell.ty(), dt);
    }

    Ok(NlSymbols {
        outputs,
        next_state,
        init_vals,
        fact_elided,
    })
}

/// Applies the cell wrap to `t`, eliding it when either the term's own
/// interval or a compiler range fact proves the value already fits.
fn cell_wrap(
    store: &mut TermStore,
    nl: &Netlist,
    ci: usize,
    t: TermId,
    fact_elided: &mut HashSet<TermId>,
) -> TermId {
    let ty = nl.cells[ci].ty();
    let wrapped = store.wrap(ty, t);
    if wrapped == t {
        return t; // identity or interval-proved
    }
    if let Some(r) = nl.range_of(roccc_netlist::cells::CellId(ci as u32)) {
        if r.lo >= ty.min_value() && r.hi <= ty.max_value() {
            fact_elided.insert(t);
            return t;
        }
    }
    wrapped
}

/// Builds the raw (pre-cell-wrap) term of an `Op` cell.
fn op_term(
    store: &mut TermStore,
    nl: &Netlist,
    op: Opcode,
    args: &[TermId],
    imm: i64,
) -> Result<TermId, String> {
    Ok(match op {
        Opcode::Mov | Opcode::Cvt => args[0],
        Opcode::Add => store.add(vec![args[0], args[1]]),
        Opcode::Sub => store.sub(args[0], args[1]),
        Opcode::Mul => store.mul(vec![args[0], args[1]]),
        Opcode::Div => store.op2(TOp::Div, args[0], args[1]),
        Opcode::Rem => store.op2(TOp::Rem, args[0], args[1]),
        Opcode::Neg => store.neg(args[0]),
        Opcode::Not => store.not(args[0]),
        Opcode::Shl => store.shl(args[0], args[1]),
        Opcode::Shr => store.shr(args[0], args[1]),
        Opcode::And => store.bitwise(TOp::And, vec![args[0], args[1]]),
        Opcode::Or => store.bitwise(TOp::Or, vec![args[0], args[1]]),
        Opcode::Xor => store.bitwise(TOp::Xor, vec![args[0], args[1]]),
        Opcode::Slt => store.op2(TOp::Slt, args[0], args[1]),
        Opcode::Sle => store.op2(TOp::Sle, args[0], args[1]),
        Opcode::Seq => store.op2(TOp::Seq, args[0], args[1]),
        Opcode::Sne => store.op2(TOp::Sne, args[0], args[1]),
        Opcode::Bool => store.boolify(args[0]),
        Opcode::Mux => store.mux(args[0], args[1], args[2]),
        Opcode::Lut => {
            let rom = nl
                .roms
                .get(imm as usize)
                .ok_or_else(|| format!("LUT cell references missing rom {imm}"))?;
            let tid = store.intern_lut(&rom.data);
            let raw = store.lut(tid, args[0]);
            // The plan element-wraps ROM data before the cell wrap.
            store.wrap(rom.elem, raw)
        }
        other => return Err(format!("unexpected opcode {other} in netlist cell")),
    })
}
