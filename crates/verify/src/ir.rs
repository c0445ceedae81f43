//! SUIFvm-phase checks: CFG well-formedness and SSA invariants.
//!
//! The paper's back end leans on two structural guarantees (§4.2.1):
//! the CFG of a data-path function is a DAG of blocks with explicit
//! terminators, and after SSA construction "every virtual register is
//! assigned only once" with every use dominated by its definition.
//! These checks make both machine-verifiable.

use crate::diag::{Diagnostic, Loc, Phase};
use roccc_suifvm::dom::DomInfo;
use roccc_suifvm::ir::{BlockId, FunctionIr, Terminator, VReg};
use roccc_suifvm::ssa::{ssa_violations, S001_BAD_EDGE, S002_BLOCK_ID_MISMATCH};

/// Where a register is defined inside its block.
#[derive(Clone, Copy)]
enum DefSite {
    /// A phi node (phis execute before every instruction of the block).
    Phi,
    /// The `i`-th instruction of the block.
    Instr(usize),
}

/// Runs every SuifVM-phase check over `f` and returns the findings
/// (empty = clean).
///
/// First come the structural violations of [`ssa_violations`], the
/// checks `roccc_suifvm::verify_ssa` runs on every compile, as errors
/// under their own codes (`S001`–`S005`, `S007`–`S010`; see the
/// constants in [`roccc_suifvm::ssa`]). A broken CFG shape (`S001`,
/// `S002`) ends the walk there. Then:
///
/// * `S006-undominated-use` (SSA form only) — a definition that does not
///   dominate one of its uses;
/// * `S011-unreachable-block` (warning) — a block the entry cannot reach.
pub fn verify_ir(f: &FunctionIr) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = ssa_violations(f)
        .into_iter()
        .map(|v| Diagnostic::structural(Phase::SuifVm, v))
        .collect();
    if out
        .iter()
        .any(|d| d.code == S001_BAD_EDGE || d.code == S002_BLOCK_ID_MISMATCH)
    {
        return out;
    }

    let mut reachable = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry()];
    reachable[0] = true;
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if !reachable[s.0 as usize] {
                reachable[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    for b in &f.blocks {
        if !reachable[b.id.0 as usize] {
            out.push(Diagnostic::warning(
                Phase::SuifVm,
                "S011-unreachable-block",
                Loc::Block(b.id.0),
                format!("block {} is unreachable from the entry", b.id),
            ));
        }
    }

    if f.is_ssa {
        undominated_uses(f, &reachable, &mut out);
    }
    out
}

/// `S006`: every use of a register on the reachable CFG must be
/// dominated by its definition. Unallocated and undefined registers are
/// [`ssa_violations`]' findings and are skipped here.
fn undominated_uses(f: &FunctionIr, reachable: &[bool], out: &mut Vec<Diagnostic>) {
    let mut defs: Vec<Option<(BlockId, DefSite)>> = vec![None; f.vreg_types.len()];
    for b in &f.blocks {
        let phis = b.phis.iter().map(|p| (Some(p.dst), DefSite::Phi));
        let instrs = b.instrs.iter().enumerate();
        for (d, site) in phis.chain(instrs.map(|(i, instr)| (instr.dst, DefSite::Instr(i)))) {
            if let Some(slot) = d.and_then(|d| defs.get_mut(d.0 as usize)) {
                *slot = Some((b.id, site));
            }
        }
    }
    let dom = DomInfo::compute(f);
    let mut check_use = |r: VReg, block: BlockId, at: DefSite| {
        let Some(&Some((def_block, def_site))) = defs.get(r.0 as usize) else {
            return;
        };
        if !reachable[block.0 as usize] {
            return; // dominance is meaningless off the reachable CFG
        }
        let dominated = if def_block == block {
            match (def_site, at) {
                (DefSite::Phi, _) => true,
                (DefSite::Instr(_), DefSite::Phi) => false,
                (DefSite::Instr(d), DefSite::Instr(u)) => d < u,
            }
        } else {
            dom.dominates(def_block, block)
        };
        if !dominated {
            out.push(Diagnostic::error(
                Phase::SuifVm,
                "S006-undominated-use",
                Loc::Block(block.0),
                format!(
                    "{r} used in {block} but its definition in {def_block} does not dominate it"
                ),
            ));
        }
    };
    for b in &f.blocks {
        for p in &b.phis {
            // A phi argument is really a use at the end of the incoming
            // edge: the definition must dominate the predecessor.
            for (pred, a) in &p.args {
                check_use(*a, *pred, DefSite::Instr(usize::MAX));
            }
        }
        for (i, instr) in b.instrs.iter().enumerate() {
            for s in &instr.srcs {
                check_use(*s, b.id, DefSite::Instr(i));
            }
        }
        if let Terminator::Branch { cond, .. } = &b.term {
            check_use(*cond, b.id, DefSite::Instr(usize::MAX));
        }
    }
}

// The corrupt fixtures below build instructions by hand.
#[cfg(test)]
use roccc_suifvm::ir::{Instr, Opcode};

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;
    use roccc_suifvm::{lower_function, optimize, to_ssa};

    fn ssa_ir(src: &str, func: &str) -> FunctionIr {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        ir
    }

    const BRANCHY: &str = "void f(int a, int b, int* o) {
        int x;
        if (a < b) { x = a * 3; } else { x = b - a; }
        *o = x + 1; }";

    #[test]
    fn clean_ssa_ir_passes() {
        let ir = ssa_ir(BRANCHY, "f");
        assert_eq!(verify_ir(&ir), vec![]);
    }

    #[test]
    fn bad_edge_is_reported() {
        let mut ir = ssa_ir(BRANCHY, "f");
        ir.blocks[0].term = Terminator::Jump(BlockId(99));
        let codes: Vec<_> = verify_ir(&ir).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"S001-bad-edge"), "{codes:?}");
    }

    #[test]
    fn double_definition_is_reported() {
        let mut ir = ssa_ir(BRANCHY, "f");
        // Duplicate the first value-producing instruction.
        let dup = *ir.blocks[0]
            .instrs
            .iter()
            .find(|i| i.dst.is_some())
            .unwrap();
        ir.blocks[0].instrs.push(dup);
        let diags = verify_ir(&ir);
        assert!(
            diags.iter().any(|d| d.code == "S004-multiple-def"),
            "{diags:?}"
        );
    }

    #[test]
    fn undominated_use_is_reported() {
        let mut ir = ssa_ir(BRANCHY, "f");
        // Find a register defined in a branch arm (bb != 0) and use it in
        // the entry block, before the definition can dominate it.
        let arm_def = ir
            .blocks
            .iter()
            .skip(1)
            .flat_map(|b| b.instrs.iter())
            .find_map(|i| i.dst)
            .expect("branchy kernel defines values in arms");
        let ty = ir.ty(arm_def);
        let d = ir.new_vreg(ty);
        ir.blocks[0]
            .instrs
            .insert(0, Instr::new(Opcode::Mov, d, vec![arm_def], 0, ty));
        let diags = verify_ir(&ir);
        assert!(
            diags.iter().any(|d| d.code == "S006-undominated-use"),
            "{diags:?}"
        );
    }

    #[test]
    fn phi_arity_mismatch_is_reported() {
        let mut ir = ssa_ir(BRANCHY, "f");
        let join = ir
            .blocks
            .iter()
            .position(|b| !b.phis.is_empty())
            .expect("branchy kernel has a phi");
        ir.blocks[join].phis[0].args.pop();
        let diags = verify_ir(&ir);
        assert!(
            diags.iter().any(|d| d.code == "S007-phi-arity"),
            "{diags:?}"
        );
    }

    #[test]
    fn undefined_vreg_is_reported() {
        let mut ir = ssa_ir(BRANCHY, "f");
        let ghost = ir.new_vreg(roccc_cparse::types::IntType::int());
        let last = ir.blocks.len() - 1;
        let dst = ir.new_vreg(roccc_cparse::types::IntType::int());
        ir.blocks[last].instrs.push(Instr::new(
            Opcode::Mov,
            dst,
            vec![ghost],
            0,
            roccc_cparse::types::IntType::int(),
        ));
        let diags = verify_ir(&ir);
        assert!(
            diags.iter().any(|d| d.code == "S005-undefined-vreg"),
            "{diags:?}"
        );
    }

    #[test]
    fn invalid_vreg_and_arity_are_reported() {
        let mut ir = ssa_ir("void g(int a, int* o) { *o = a + 2; }", "g");
        let ty = roccc_cparse::types::IntType::int();
        let d = ir.new_vreg(ty);
        // A register index far beyond the allocator.
        ir.blocks[0]
            .instrs
            .push(Instr::new(Opcode::Mov, d, vec![VReg(4096)], 0, ty));
        let d2 = ir.new_vreg(ty);
        // add with one operand.
        ir.blocks[0]
            .instrs
            .push(Instr::new(Opcode::Add, d2, vec![d], 0, ty));
        let codes: Vec<_> = verify_ir(&ir).iter().map(|d| d.code).collect();
        assert!(codes.contains(&"S003-invalid-vreg"), "{codes:?}");
        assert!(codes.contains(&"S009-bad-arity"), "{codes:?}");
    }

    #[test]
    fn bad_feedback_slot_is_reported() {
        let mut ir = ssa_ir("void g(int a, int* o) { *o = a + 2; }", "g");
        let ty = roccc_cparse::types::IntType::int();
        let d = ir.new_vreg(ty);
        ir.blocks[0]
            .instrs
            .insert(0, Instr::new(Opcode::Lpr, d, vec![], 3, ty));
        let diags = verify_ir(&ir);
        assert!(diags.iter().any(|d| d.code == "S010-bad-slot"), "{diags:?}");
    }

    #[test]
    fn unreachable_block_is_a_warning() {
        let mut ir = ssa_ir("void g(int a, int* o) { *o = a + 2; }", "g");
        ir.new_block(); // dangling, nothing jumps to it
        let diags = verify_ir(&ir);
        let hit = diags
            .iter()
            .find(|d| d.code == "S011-unreachable-block")
            .expect("dangling block flagged");
        assert_eq!(hit.severity, crate::Severity::Warning);
    }
}
