//! Bit-vector-style dataflow analyses.
//!
//! Reproduces the Machine-SUIF Data Flow Analysis library used by the
//! paper's back end \[15\]: liveness drives the data-path builder's *pipe*
//! node insertion (live variables crossing alternative branches, §4.2.2)
//! and dead-code elimination.

use crate::ir::*;
use std::collections::HashSet;

/// Liveness information per block.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live at block entry.
    pub live_in: Vec<HashSet<VReg>>,
    /// Registers live at block exit.
    pub live_out: Vec<HashSet<VReg>>,
}

/// Computes liveness by backwards iteration to a fixed point.
///
/// Output registers (`output_srcs`) are live at every `Ret` block's exit;
/// phi arguments are live at the end of the corresponding predecessor.
pub fn liveness(f: &FunctionIr) -> Liveness {
    let n = f.blocks.len();
    let mut live_in: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); n];

    // use[b] / def[b], with phi handling: phi dsts are defs of the block;
    // phi args count as uses on the *edge*, handled in the out-set below.
    let mut uses: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut defs: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    for b in &f.blocks {
        let bi = b.id.0 as usize;
        for p in &b.phis {
            defs[bi].insert(p.dst);
        }
        for i in &b.instrs {
            for s in &i.srcs {
                if !defs[bi].contains(s) {
                    uses[bi].insert(*s);
                }
            }
            if let Some(d) = i.dst {
                defs[bi].insert(d);
            }
        }
        if let Terminator::Branch { cond, .. } = &b.term {
            if !defs[bi].contains(cond) {
                uses[bi].insert(*cond);
            }
        }
        if matches!(b.term, Terminator::Ret) {
            for r in &f.output_srcs {
                if !defs[bi].contains(r) {
                    uses[bi].insert(*r);
                }
            }
        }
    }

    let mut changed = true;
    while changed {
        changed = false;
        for b in f.blocks.iter().rev() {
            let bi = b.id.0 as usize;
            // out[b] = ∪ (in[s] − phi_defs(s)) ∪ phi_args_on_edge(b→s)
            let mut out: HashSet<VReg> = HashSet::new();
            for s in b.term.successors() {
                let si = s.0 as usize;
                let succ = f.block(s);
                let phi_defs: HashSet<VReg> = succ.phis.iter().map(|p| p.dst).collect();
                for r in &live_in[si] {
                    if !phi_defs.contains(r) {
                        out.insert(*r);
                    }
                }
                for p in &succ.phis {
                    for (pred, arg) in &p.args {
                        if *pred == b.id {
                            out.insert(*arg);
                        }
                    }
                }
            }
            if matches!(b.term, Terminator::Ret) {
                for r in &f.output_srcs {
                    out.insert(*r);
                }
            }
            // in[b] = use[b] ∪ (out[b] − def[b])
            let mut inn = uses[bi].clone();
            for r in &out {
                if !defs[bi].contains(r) {
                    inn.insert(*r);
                }
            }
            if out != live_out[bi] || inn != live_in[bi] {
                live_out[bi] = out;
                live_in[bi] = inn;
                changed = true;
            }
        }
    }

    Liveness { live_in, live_out }
}

/// All registers used anywhere (sources, phi args, branch conditions,
/// outputs). Complements defs for dead-code analysis.
pub fn all_uses(f: &FunctionIr) -> HashSet<VReg> {
    let counts = use_counts(f);
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, _)| VReg(i as u32))
        .collect()
}

/// Dense count behind [`all_uses`]: `use_counts(f)[r.0]` is how many
/// sources, phi arguments, branch conditions and outputs read `r`.
/// Registers are dense ids, so the optimizer's DCE sweep decrements this
/// flat vec instead of hashing each candidate.
pub fn use_counts(f: &FunctionIr) -> Vec<u32> {
    let mut uses = vec![0u32; f.vreg_types.len()];
    for b in &f.blocks {
        for p in &b.phis {
            for (_, a) in &p.args {
                uses[a.0 as usize] += 1;
            }
        }
        for i in &b.instrs {
            for s in &i.srcs {
                uses[s.0 as usize] += 1;
            }
        }
        if let Terminator::Branch { cond, .. } = &b.term {
            uses[cond.0 as usize] += 1;
        }
    }
    for r in &f.output_srcs {
        uses[r.0 as usize] += 1;
    }
    uses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use crate::ssa::to_ssa;
    use roccc_cparse::parser::parse;

    fn ir_of(src: &str, func: &str) -> FunctionIr {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        ir
    }

    #[test]
    fn outputs_live_at_exit() {
        let ir = ir_of("void f(int a, int* o) { *o = a + 1; }", "f");
        let lv = liveness(&ir);
        let exit = ir
            .blocks
            .iter()
            .find(|b| matches!(b.term, Terminator::Ret))
            .unwrap();
        for r in &ir.output_srcs {
            assert!(lv.live_out[exit.id.0 as usize].contains(r));
        }
    }

    #[test]
    fn values_crossing_a_branch_are_live_through_it() {
        // `c` is computed before the branch and used after it (Figure 5):
        // it must be live through both arms — the motivation for the pipe
        // node (node 6 in Figure 6).
        let ir = ir_of(
            "void if_else(int x1, int x2, int* x3, int* x4) {
               int a; int c;
               c = x1 - x2;
               if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
               c = c - a;
               *x3 = c; *x4 = a; }",
            "if_else",
        );
        let lv = liveness(&ir);
        // Arm blocks are 1 and 2; something from the entry block must be
        // live into both (at least x1 and c's value).
        assert!(!lv.live_in[1].is_empty());
        assert!(!lv.live_in[2].is_empty());
        let common: Vec<_> = lv.live_in[1].intersection(&lv.live_in[2]).collect();
        assert!(!common.is_empty(), "live-through values expected");
    }

    #[test]
    fn dead_register_is_not_live() {
        let ir = ir_of(
            "void f(int a, int* o) { int dead = a * 7; *o = a + 1; }",
            "f",
        );
        let lv = liveness(&ir);
        let used = all_uses(&ir);
        // Find the MUL result: defined but never used.
        let mul = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| i.op == Opcode::Mul)
            .map(|i| i.dst.unwrap());
        if let Some(d) = mul {
            // `dead`'s home got a CVT/MOV from it; the final value is unused.
            assert!(!lv.live_out.iter().any(|s| s.contains(&d)) || used.contains(&d));
        }
    }

    #[test]
    fn phi_args_live_on_their_edge_only() {
        let ir = ir_of(
            "void f(int a, int* o) { int x = 1; if (a) { x = 2; } *o = x; }",
            "f",
        );
        let lv = liveness(&ir);
        // Each phi argument must be live-out of its predecessor.
        for b in &ir.blocks {
            for p in &b.phis {
                for (pred, arg) in &p.args {
                    assert!(
                        lv.live_out[pred.0 as usize].contains(arg),
                        "{arg} not live out of {pred}\n{}",
                        ir.dump()
                    );
                }
            }
        }
    }
}
