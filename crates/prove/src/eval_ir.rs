//! Symbolic execution of one steady-state window of the suifvm SSA IR.
//!
//! Mirrors `suifvm::interp::IrMachine` exactly: values wrap only at `ARG`,
//! `CVT`, phis, `SNX`, `LUT` (element type) and the output ports; every
//! other opcode is raw wrapping `i64` arithmetic. Control flow is resolved
//! statically: the CFG must be acyclic (loops reach the prover only after
//! being rewritten into feedback windows), and phi nodes are folded into
//! `Mux` terms using per-block *guard lists* — the branch conditions taken
//! from the entry to each block. The resulting mux nesting matches the
//! shape the datapath if-conversion produces, so the netlist side
//! normalizes to the same terms.
//!
//! Faulting IR behaviour (division by zero, negative shift amounts,
//! negative LUT indices) has no netlist counterpart; equivalence is
//! certified *conditioned on fault-free IR runs*, which is also what the
//! replay oracle enforces.

use roccc_cparse::hash::FxHashMap;
use roccc_suifvm::ir::{FunctionIr, Opcode, Terminator};

use crate::term::{TOp, TermId, TermStore};

/// Result of symbolically executing one IR window.
pub struct IrSymbols {
    /// Per-output-port terms, wrapped to the port type.
    pub outputs: Vec<TermId>,
    /// Per-feedback-slot next-state terms, wrapped to the slot type.
    pub next_state: Vec<TermId>,
}

/// One `(condition, polarity)` literal on the path guard of a block.
type Guard = Vec<(TermId, bool)>;

/// Symbolically evaluates `f` over the window's leaves in `store`.
pub fn eval_ir(store: &mut TermStore, f: &FunctionIr) -> Result<IrSymbols, String> {
    let order = f.reverse_postorder();
    let pos: FxHashMap<u32, usize> = order.iter().enumerate().map(|(i, b)| (b.0, i)).collect();
    // The window body must be acyclic: every edge goes forward in RPO.
    for &bid in &order {
        for succ in f.block(bid).term.successors() {
            let (Some(&from), Some(&to)) = (pos.get(&bid.0), pos.get(&succ.0)) else {
                continue;
            };
            if to <= from {
                return Err(format!("cyclic control flow at {bid}->{succ}"));
            }
        }
    }

    let preds = f.predecessors();
    let mut regs: FxHashMap<u32, TermId> = FxHashMap::default();
    let mut guards: FxHashMap<u32, Guard> = FxHashMap::default();
    let mut next_state: Vec<TermId> = (0..f.feedback.len()).map(|s| store.fb(s as u32)).collect();

    for (idx, &bid) in order.iter().enumerate() {
        // Path guard: longest common prefix of the incoming edge guards.
        let guard: Guard = if idx == 0 {
            Vec::new()
        } else {
            let mut incoming: Vec<Guard> = Vec::new();
            for &p in &preds[bid.0 as usize] {
                incoming.push(edge_guard(f, &guards, &regs, p, bid)?);
            }
            if incoming.is_empty() {
                // Unreachable block: skip entirely.
                guards.insert(bid.0, Vec::new());
                continue;
            }
            common_prefix(&incoming)
        };

        let block = f.block(bid).clone();
        // Phis read predecessor-end values; in SSA those are just the
        // (unique) defining terms, so evaluation order inside the block
        // does not matter.
        for phi in &block.phis {
            let mut arms: Vec<(Guard, TermId)> = Vec::new();
            for &(pred, src) in &phi.args {
                let eg = edge_guard(f, &guards, &regs, pred, bid)?;
                let suffix = eg[guard.len().min(eg.len())..].to_vec();
                let v = *regs
                    .get(&src.0)
                    .ok_or_else(|| format!("phi reads undefined {src}"))?;
                arms.push((suffix, v));
            }
            let v = select(store, arms)?;
            let v = store.wrap(phi.ty, v);
            regs.insert(phi.dst.0, v);
        }

        for i in &block.instrs {
            let src = |k: usize, regs: &FxHashMap<u32, TermId>| -> Result<TermId, String> {
                regs.get(&i.srcs[k].0)
                    .copied()
                    .ok_or_else(|| format!("use of undefined {}", i.srcs[k]))
            };
            let v = match i.op {
                Opcode::Arg => {
                    let raw = store.var(i.imm as u32);
                    store.wrap(f.inputs[i.imm as usize].1, raw)
                }
                Opcode::Ldc => store.cst(i.imm),
                Opcode::Mov => src(0, &regs)?,
                Opcode::Cvt => {
                    let a = src(0, &regs)?;
                    store.wrap(i.ty, a)
                }
                Opcode::Add => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.add(vec![a, b])
                }
                Opcode::Sub => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.sub(a, b)
                }
                Opcode::Mul => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.mul(vec![a, b])
                }
                Opcode::Div => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.op2(TOp::Div, a, b)
                }
                Opcode::Rem => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.op2(TOp::Rem, a, b)
                }
                Opcode::Neg => {
                    let a = src(0, &regs)?;
                    store.neg(a)
                }
                Opcode::Not => {
                    let a = src(0, &regs)?;
                    store.not(a)
                }
                Opcode::Shl => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.shl(a, b)
                }
                Opcode::Shr => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.shr(a, b)
                }
                Opcode::And => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.bitwise(TOp::And, vec![a, b])
                }
                Opcode::Or => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.bitwise(TOp::Or, vec![a, b])
                }
                Opcode::Xor => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    store.bitwise(TOp::Xor, vec![a, b])
                }
                Opcode::Slt | Opcode::Sle | Opcode::Seq | Opcode::Sne => {
                    let (a, b) = (src(0, &regs)?, src(1, &regs)?);
                    let op = match i.op {
                        Opcode::Slt => TOp::Slt,
                        Opcode::Sle => TOp::Sle,
                        Opcode::Seq => TOp::Seq,
                        _ => TOp::Sne,
                    };
                    store.op2(op, a, b)
                }
                Opcode::Bool => {
                    let a = src(0, &regs)?;
                    store.boolify(a)
                }
                Opcode::Mux => {
                    let (c, t, e) = (src(0, &regs)?, src(1, &regs)?, src(2, &regs)?);
                    store.mux(c, t, e)
                }
                Opcode::Lpr => store.fb(i.imm as u32),
                Opcode::Snx => {
                    let slot = i.imm as usize;
                    let ty = f.feedback[slot].ty;
                    let a = src(0, &regs)?;
                    let wrapped = store.wrap(ty, a);
                    next_state[slot] = if guard.is_empty() {
                        wrapped
                    } else {
                        let g = guard_term(store, &guard);
                        store.mux(g, wrapped, next_state[slot])
                    };
                    continue;
                }
                Opcode::Lut => {
                    let table = &f.luts[i.imm as usize];
                    let tid = store.intern_lut(&table.data);
                    let idx = src(0, &regs)?;
                    let raw = store.lut(tid, idx);
                    store.wrap(table.elem, raw)
                }
            };
            if let Some(dst) = i.dst {
                regs.insert(dst.0, v);
            }
        }
        guards.insert(bid.0, guard);
    }

    let mut outputs = Vec::with_capacity(f.outputs.len());
    for (k, &(_, ty)) in f.outputs.iter().enumerate() {
        let src = f.output_srcs[k];
        let v = *regs
            .get(&src.0)
            .ok_or_else(|| format!("output {k} reads undefined {src}"))?;
        outputs.push(store.wrap(ty, v));
    }
    Ok(IrSymbols {
        outputs,
        next_state,
    })
}

/// Guard of the edge `pred -> succ`: the predecessor's guard extended by
/// its branch literal when the terminator is conditional.
fn edge_guard(
    f: &FunctionIr,
    guards: &FxHashMap<u32, Guard>,
    regs: &FxHashMap<u32, TermId>,
    pred: roccc_suifvm::ir::BlockId,
    succ: roccc_suifvm::ir::BlockId,
) -> Result<Guard, String> {
    let mut g = guards
        .get(&pred.0)
        .cloned()
        .ok_or_else(|| format!("predecessor {pred} not yet evaluated"))?;
    if let Terminator::Branch {
        cond,
        then_b,
        else_b,
    } = f.block(pred).term
    {
        let c = *regs
            .get(&cond.0)
            .ok_or_else(|| format!("branch on undefined {cond}"))?;
        if succ == then_b {
            g.push((c, true));
        } else if succ == else_b {
            g.push((c, false));
        }
    }
    Ok(g)
}

/// Longest common prefix of the incoming edge guards.
fn common_prefix(gs: &[Guard]) -> Guard {
    let mut n = gs.iter().map(|g| g.len()).min().unwrap_or(0);
    for g in gs {
        let mut k = 0;
        while k < n && g[k] == gs[0][k] {
            k += 1;
        }
        n = k;
    }
    gs[0][..n].to_vec()
}

/// Conjunction of guard literals as a 0/1 term (product of 0/1 factors).
fn guard_term(store: &mut TermStore, guard: &Guard) -> TermId {
    let mut factors = Vec::with_capacity(guard.len());
    for &(c, pol) in guard {
        let lit = if pol {
            store.boolify(c)
        } else {
            let z = store.cst(0);
            store.op2(TOp::Seq, c, z)
        };
        factors.push(lit);
    }
    store.mul(factors)
}

/// Folds phi arms (edge-guard suffix, value) into nested `Mux` terms by
/// splitting on the first guard literal. Handles arbitrarily nested
/// structured diamonds; anything unstructured is reported as unsupported.
fn select(store: &mut TermStore, arms: Vec<(Guard, TermId)>) -> Result<TermId, String> {
    if arms.is_empty() {
        return Err("phi with no incoming arms".into());
    }
    if arms.len() == 1 {
        return Ok(arms[0].1);
    }
    if arms.iter().all(|(g, _)| g.is_empty()) {
        let v0 = arms[0].1;
        if arms.iter().all(|&(_, v)| v == v0) {
            return Ok(v0);
        }
        return Err("phi arms converge without a distinguishing branch".into());
    }
    let cond = arms
        .iter()
        .find_map(|(g, _)| g.first().map(|&(c, _)| c))
        .unwrap();
    let mut t_arms = Vec::new();
    let mut e_arms = Vec::new();
    for (g, v) in arms {
        match g.split_first() {
            Some((&(c, pol), rest)) if c == cond => {
                if pol {
                    t_arms.push((rest.to_vec(), v));
                } else {
                    e_arms.push((rest.to_vec(), v));
                }
            }
            _ => return Err("unstructured phi guard shape".into()),
        }
    }
    if t_arms.is_empty() || e_arms.is_empty() {
        return Err("phi guard covers only one branch polarity".into());
    }
    let t = select(store, t_arms)?;
    let e = select(store, e_arms)?;
    Ok(store.mux(cond, t, e))
}
