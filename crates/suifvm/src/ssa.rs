//! Static single assignment construction.
//!
//! Standard Cytron-style phi placement on dominance frontiers followed by
//! dominator-tree renaming — the reproduction of the Machine-SUIF SSA pass
//! the paper applies before data-path building ("every virtual register is
//! assigned only once", §4.2.1).

use crate::dom::DomInfo;
use crate::ir::*;

/// Converts `f` into SSA form in place.
///
/// After this pass every register has exactly one definition; merges are
/// explicit phi nodes; `output_srcs` is rewritten to the renamed registers.
pub fn to_ssa(f: &mut FunctionIr) {
    if f.is_ssa {
        return;
    }
    let dom = DomInfo::compute(f);
    let preds = f.predecessors();

    // 1. Find registers with multiple defs or defs + live-across-block uses.
    let n_regs = f.vreg_types.len();
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); n_regs];
    for b in &f.blocks {
        for i in &b.instrs {
            if let Some(d) = i.dst {
                if !def_blocks[d.0 as usize].contains(&b.id) {
                    def_blocks[d.0 as usize].push(b.id);
                }
            }
        }
    }

    // 2. Phi insertion on iterated dominance frontiers for every register
    //    defined in more than one block (single-block multi-def registers
    //    are handled by renaming alone).
    let mut placed = vec![false; f.blocks.len()];
    for (reg, blocks) in def_blocks.iter().enumerate() {
        if blocks.len() < 2 {
            continue;
        }
        let reg = VReg(reg as u32);
        let ty = f.ty(reg);
        let mut work: Vec<BlockId> = blocks.clone();
        placed.iter_mut().for_each(|p| *p = false);
        while let Some(b) = work.pop() {
            for &df in &dom.frontier[b.0 as usize] {
                if !placed[df.0 as usize] {
                    placed[df.0 as usize] = true;
                    f.block_mut(df).phis.push(Phi {
                        dst: reg, // renamed below
                        args: preds[df.0 as usize].iter().map(|&p| (p, reg)).collect(),
                        ty,
                    });
                    if !def_blocks[reg.0 as usize].contains(&df) {
                        work.push(df);
                    }
                }
            }
        }
    }

    // 3. Renaming along the dominator tree.
    let mut renamer = Renamer {
        stacks: vec![Vec::new(); n_regs],
        f,
        preds: &preds,
    };
    let children = dom.dom_tree_children();
    renamer.rename_block(BlockId(0), &children);

    f.is_ssa = true;
}

struct Renamer<'a> {
    /// For each original register, the stack of current SSA names.
    stacks: Vec<Vec<VReg>>,
    f: &'a mut FunctionIr,
    preds: &'a [Vec<BlockId>],
}

impl<'a> Renamer<'a> {
    fn current(&self, orig: VReg) -> VReg {
        self.stacks[orig.0 as usize].last().copied().unwrap_or(orig)
    }

    fn rename_block(&mut self, b: BlockId, children: &[Vec<BlockId>]) {
        let mut pushed: Vec<u32> = Vec::new();

        // Phi destinations define new names.
        let phi_count = self.f.block(b).phis.len();
        for pi in 0..phi_count {
            let (orig, ty) = {
                let p = &self.f.block(b).phis[pi];
                (p.dst, p.ty)
            };
            let new = self.f.new_vreg(ty);
            self.stacks.push(Vec::new()); // keep stacks parallel to vregs
            self.stacks[orig.0 as usize].push(new);
            pushed.push(orig.0);
            self.f.block_mut(b).phis[pi].dst = new;
        }

        // Instructions: rewrite uses, then define new names.
        let instr_count = self.f.block(b).instrs.len();
        for ii in 0..instr_count {
            let srcs: crate::ir::Srcs = self.f.block(b).instrs[ii]
                .srcs
                .iter()
                .map(|&s| self.current(s))
                .collect();
            self.f.block_mut(b).instrs[ii].srcs = srcs;
            if let Some(orig) = self.f.block(b).instrs[ii].dst {
                let ty = self.f.block(b).instrs[ii].ty;
                let new = self.f.new_vreg(ty);
                self.stacks.push(Vec::new());
                self.stacks[orig.0 as usize].push(new);
                pushed.push(orig.0);
                self.f.block_mut(b).instrs[ii].dst = Some(new);
            }
        }

        // Terminator condition.
        let term = self.f.block(b).term.clone();
        if let Terminator::Branch {
            cond,
            then_b,
            else_b,
        } = term
        {
            self.f.block_mut(b).term = Terminator::Branch {
                cond: self.current(cond),
                then_b,
                else_b,
            };
        }

        // Output sources are "used" at exit; rewrite them in the exit block.
        if matches!(self.f.block(b).term, Terminator::Ret) {
            let outs: Vec<VReg> = self
                .f
                .output_srcs
                .iter()
                .map(|&r| self.current(r))
                .collect();
            self.f.output_srcs = outs;
        }

        // Fill successor phi arguments for the edge b → s.
        for s in self.f.block(b).term.successors() {
            let phi_count = self.f.block(s).phis.len();
            for pi in 0..phi_count {
                let arg_pos = self.preds[s.0 as usize]
                    .iter()
                    .position(|&p| p == b)
                    .expect("b is a predecessor of s");
                let orig = self.f.block(s).phis[pi].args[arg_pos].1;
                // args still hold original names until their edge is
                // processed; stacks are keyed by the original register.
                let cur = self.current(orig);
                self.f.block_mut(s).phis[pi].args[arg_pos] = (b, cur);
            }
        }

        // Recurse over dominator-tree children.
        for &c in &children[b.0 as usize] {
            self.rename_block(c, children);
        }

        for orig in pushed {
            self.stacks[orig as usize].pop();
        }
    }
}

/// A terminator or phi argument names a block that does not exist, or
/// the function has no blocks at all.
pub const S001_BAD_EDGE: &str = "S001-bad-edge";
/// A block's `id` disagrees with its index.
pub const S002_BLOCK_ID_MISMATCH: &str = "S002-block-id-mismatch";
/// A register was never allocated (`vreg_types` has no entry for it).
pub const S003_INVALID_VREG: &str = "S003-invalid-vreg";
/// A register assigned more than once (SSA form only).
pub const S004_MULTIPLE_DEF: &str = "S004-multiple-def";
/// A use (source, phi argument, branch condition or output register)
/// with no definition anywhere.
pub const S005_UNDEFINED_VREG: &str = "S005-undefined-vreg";
/// A phi's argument list disagrees with its block's predecessors.
pub const S007_PHI_ARITY: &str = "S007-phi-arity";
/// A value-producing instruction without a destination (only `SNX` may
/// omit one, and must).
pub const S008_MISSING_DST: &str = "S008-missing-dst";
/// Wrong operand count for the opcode ([`Opcode::arity`]).
pub const S009_BAD_ARITY: &str = "S009-bad-arity";
/// An `LPR`/`SNX` feedback slot or `LUT` table index out of range.
pub const S010_BAD_SLOT: &str = "S010-bad-slot";

/// Every structural violation of `f`, in a fixed order: the CFG shape
/// (`S001`, `S002`; later checks index blocks by id, so a broken shape
/// ends the walk), then block by block the definitions and instruction
/// shapes (`S003`, `S004`, `S008`–`S010`), then phi arities (`S007`),
/// and last the uses with no definition (`S005`). One dense table per
/// register, no dominator tree: dominance of uses and reachability are
/// `roccc-verify`'s (`S006`, `S011`).
pub fn ssa_violations(f: &FunctionIr) -> Vec<Violation> {
    let mut out = Vec::new();
    let nblocks = f.blocks.len();
    if nblocks == 0 {
        let message = "function has no blocks (no entry)".into();
        return vec![Violation::global(S001_BAD_EDGE, message)];
    }
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); nblocks];
    for (i, b) in f.blocks.iter().enumerate() {
        let mut report = |code, message| out.push(Violation::at(code, b.id.0, message));
        if b.id.0 as usize != i {
            report(
                S002_BLOCK_ID_MISMATCH,
                format!("block at index {i} carries id {}", b.id),
            );
        }
        for s in b.term.successors() {
            match preds.get_mut(s.0 as usize) {
                Some(p) => p.push(b.id),
                None => report(
                    S001_BAD_EDGE,
                    format!("terminator of {} targets missing block {s}", b.id),
                ),
            }
        }
        for p in &b.phis {
            for (pred, _) in p.args.iter().filter(|(pred, _)| pred.0 as usize >= nblocks) {
                report(
                    S001_BAD_EDGE,
                    format!("phi {} in {} names missing block {pred}", p.dst, b.id),
                );
            }
        }
    }
    if !out.is_empty() {
        return out;
    }

    let nregs = f.vreg_types.len();
    let valid = |out: &mut Vec<Violation>, r: VReg, what: &str, at: Option<u32>| {
        let ok = (r.0 as usize) < nregs;
        if !ok {
            out.push(Violation {
                code: S003_INVALID_VREG,
                at,
                message: format!("{what} names unallocated register {r}"),
            });
        }
        ok
    };
    let mut defined = vec![false; nregs];
    for b in &f.blocks {
        let at = Some(b.id.0);
        let mut define = |out: &mut Vec<Violation>, d: VReg, phi: bool| {
            let what = if phi {
                "phi destination"
            } else {
                "destination"
            };
            if valid(out, d, what, at)
                && std::mem::replace(&mut defined[d.0 as usize], true)
                && f.is_ssa
            {
                let site = if phi { "phi in" } else { "in" };
                let message = format!("{d} defined more than once ({site} {})", b.id);
                out.push(Violation::at(S004_MULTIPLE_DEF, b.id.0, message));
            }
        };
        for p in &b.phis {
            define(&mut out, p.dst, true);
            for (_, a) in &p.args {
                valid(&mut out, *a, "phi argument", at);
            }
        }
        for instr in &b.instrs {
            if let Some(d) = instr.dst {
                define(&mut out, d, false);
            }
            for s in &instr.srcs {
                valid(&mut out, *s, "source operand", at);
            }
            instr_shape(&mut out, instr, b.id, f);
        }
        if let Terminator::Branch { cond, .. } = &b.term {
            valid(&mut out, *cond, "branch condition", at);
        }
    }
    for r in &f.output_srcs {
        valid(&mut out, *r, "output register", None);
    }

    for b in &f.blocks {
        let mut report = |message| out.push(Violation::at(S007_PHI_ARITY, b.id.0, message));
        let bp = &preds[b.id.0 as usize];
        for p in &b.phis {
            if p.args.len() != bp.len() {
                report(format!(
                    "phi {} in {} has {} arguments for {} predecessors",
                    p.dst,
                    b.id,
                    p.args.len(),
                    bp.len()
                ));
                continue;
            }
            for (pred, _) in p.args.iter().filter(|(pred, _)| !bp.contains(pred)) {
                report(format!(
                    "phi {} in {} names {pred}, which is not a predecessor",
                    p.dst, b.id
                ));
            }
        }
    }

    let undefined = |r: VReg| (r.0 as usize) < nregs && !defined[r.0 as usize];
    let mut use_of = |r: VReg, block: BlockId| {
        if undefined(r) {
            let message = format!("{r} used in {block} but never defined");
            out.push(Violation::at(S005_UNDEFINED_VREG, block.0, message));
        }
    };
    for b in &f.blocks {
        for p in &b.phis {
            // A phi argument is a use at the end of its incoming edge.
            for &(pred, a) in &p.args {
                use_of(a, pred);
            }
        }
        for instr in &b.instrs {
            for &s in &instr.srcs {
                use_of(s, b.id);
            }
        }
        if let Terminator::Branch { cond, .. } = b.term {
            use_of(cond, b.id);
        }
    }
    for r in f.output_srcs.iter().filter(|r| undefined(**r)) {
        let message = format!("output register {r} never defined");
        out.push(Violation::global(S005_UNDEFINED_VREG, message));
    }
    out
}

/// Destination presence, operand count and immediate range of one
/// instruction of `block`.
fn instr_shape(out: &mut Vec<Violation>, instr: &Instr, block: BlockId, f: &FunctionIr) {
    let mut report = |code, message| out.push(Violation::at(code, block.0, message));
    match (instr.op, instr.dst) {
        (Opcode::Snx, Some(d)) => report(
            S008_MISSING_DST,
            format!("snx in {block} must not produce a value, but writes {d}"),
        ),
        (Opcode::Snx, None) | (_, Some(_)) => {}
        (op, None) => report(
            S008_MISSING_DST,
            format!("{op} in {block} has no destination register"),
        ),
    }
    let want = instr.op.arity();
    if instr.srcs.len() != want {
        report(
            S009_BAD_ARITY,
            format!(
                "{} in {block} has {} operands, expected {want}",
                instr.op,
                instr.srcs.len()
            ),
        );
    }
    let (what, len) = match instr.op {
        Opcode::Lpr | Opcode::Snx => ("feedback slot", f.feedback.len()),
        Opcode::Lut => ("table", f.luts.len()),
        _ => return,
    };
    if instr.imm < 0 || instr.imm as usize >= len {
        report(
            S010_BAD_SLOT,
            format!(
                "{} in {block} names {what} {} of {len}",
                instr.op, instr.imm
            ),
        );
    }
}

/// Checks that `f` is in SSA form and keeps its structural invariants
/// ([`ssa_violations`]), returning the first violation's message.
///
/// # Errors
///
/// The message of the first violation, when there is one.
pub fn verify_ssa(f: &FunctionIr) -> Result<(), String> {
    if !f.is_ssa {
        return Err(format!("{} is not in SSA form", f.name));
    }
    Violation::first(ssa_violations(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use roccc_cparse::parser::parse;

    fn ssa_of(src: &str, func: &str) -> FunctionIr {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        ir
    }

    #[test]
    fn straight_line_ssa_has_no_phis() {
        let ir = ssa_of(
            "void f(int a, int b, int* o) { int t = a + b; t = t * 2; *o = t; }",
            "f",
        );
        assert!(verify_ssa(&ir).is_ok(), "{}", ir.dump());
        let phi_count: usize = ir.blocks.iter().map(|b| b.phis.len()).sum();
        assert_eq!(phi_count, 0);
    }

    #[test]
    fn diamond_gets_phi_at_join() {
        let ir = ssa_of(
            "void if_else(int x1, int x2, int* x3, int* x4) {
               int a; int c;
               c = x1 - x2;
               if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
               c = c - a;
               *x3 = c; *x4 = a; }",
            "if_else",
        );
        verify_ssa(&ir).unwrap_or_else(|e| panic!("{e}\n{}", ir.dump()));
        // The join block merges `a` (and possibly `c`'s home).
        let join_phis = ir.blocks.last().map(|b| b.phis.len()).unwrap_or(0);
        let total_phis: usize = ir.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(total_phis >= 1, "expected ≥1 phi\n{}", ir.dump());
        let _ = join_phis;
    }

    #[test]
    fn one_sided_if_still_merges() {
        let ir = ssa_of(
            "void f(int a, int* o) { int x = 0; if (a > 0) { x = a; } *o = x; }",
            "f",
        );
        verify_ssa(&ir).unwrap_or_else(|e| panic!("{e}\n{}", ir.dump()));
        let total_phis: usize = ir.blocks.iter().map(|b| b.phis.len()).sum();
        assert_eq!(total_phis, 1, "{}", ir.dump());
    }

    #[test]
    fn nested_ifs_verify() {
        let ir = ssa_of(
            "void f(int a, int b, int* o) {
               int x = 0;
               if (a > 0) { if (b > 0) { x = a + b; } else { x = a - b; } x = x * 2; }
               *o = x; }",
            "f",
        );
        verify_ssa(&ir).unwrap_or_else(|e| panic!("{e}\n{}", ir.dump()));
    }

    #[test]
    fn output_srcs_are_renamed() {
        let ir = ssa_of(
            "void f(int a, int* o) { int x = 1; if (a) { x = 2; } *o = x; }",
            "f",
        );
        verify_ssa(&ir).unwrap();
        assert_eq!(ir.output_srcs.len(), 1);
    }

    #[test]
    fn else_side_nesting_verifies() {
        let ir = ssa_of(
            "void f(int a, int b, int* o) {
               int x = 0;
               if (a > 0) { x = 1; }
               else { if (b > 0) { x = 2; } else { x = 3; } x = x + 10; }
               *o = x; }",
            "f",
        );
        verify_ssa(&ir).unwrap_or_else(|e| panic!("{e}\n{}", ir.dump()));
        let phis: usize = ir.blocks.iter().map(|b| b.phis.len()).sum();
        assert!(
            phis >= 2,
            "inner and outer joins both merge x\n{}",
            ir.dump()
        );
    }

    #[test]
    fn sequential_diamonds_verify() {
        let ir = ssa_of(
            "void f(int a, int* o) {
               int x = 0; int y = 0;
               if (a > 0) { x = 1; } else { x = 2; }
               if (a > 5) { y = x + 1; } else { y = x - 1; }
               *o = x + y; }",
            "f",
        );
        verify_ssa(&ir).unwrap_or_else(|e| panic!("{e}\n{}", ir.dump()));
    }

    #[test]
    fn idempotent() {
        let mut ir = ssa_of("void f(int a, int* o) { *o = a + 1; }", "f");
        let before = ir.dump();
        to_ssa(&mut ir);
        assert_eq!(before, ir.dump());
    }
}
