//! Scalar optimizations on SSA-form VM IR.
//!
//! ROCCC's "conventional optimizations" (§2) at the circuit level: constant
//! folding/propagation, copy propagation, global value numbering (common
//! sub-expression elimination), dead-code elimination, and strength
//! reduction (multiplications and divisions by powers of two become shifts
//! — essential on FPGAs where a shift by a constant is free wiring).
//!
//! [`optimize`] walks the dominator tree twice, each walk followed by a
//! use-count dead-code sweep. In SSA on a DAG a walk meets each
//! instruction after the instructions it reads. The *first* walk folds
//! over the input's own constants only. The *complete* walk then folds,
//! propagates, strength-reduces and value-numbers every instruction for
//! good. The first walk numbers the input's own duplicates before folds
//! add constants of other types, which decides what the value-number
//! table merges (see `Walk::block`); `tests/ir_golden.rs` pins the IR.

use crate::dataflow::use_counts;
use crate::dom::DomInfo;
use crate::ir::*;
use roccc_cparse::hash::FxHashMap;
use roccc_cparse::types::IntType;
use std::collections::HashMap;

/// Optimizes `f` in place: the first walk, then the complete walk, each
/// followed by one dead-code sweep. The CFG is left as it is; only branch
/// conditions are renamed, so dominators are computed once.
///
/// ```
/// # use roccc_cparse::parser::parse;
/// # use roccc_suifvm::{lower::lower_function, ssa::to_ssa, opt::optimize};
/// let prog = parse("void f(int a, int* o) { *o = a * 8 + (2 + 2); }").unwrap();
/// let f = prog.function("f").unwrap();
/// let mut ir = lower_function(&prog, f, &[]).unwrap();
/// to_ssa(&mut ir);
/// optimize(&mut ir);
/// // `a * 8` became `a << 3`, `2 + 2` became `4`.
/// let ops: Vec<_> = ir.blocks.iter().flat_map(|b| &b.instrs).map(|i| i.op).collect();
/// assert!(ops.contains(&roccc_suifvm::ir::Opcode::Shl));
/// assert!(!ops.contains(&roccc_suifvm::ir::Opcode::Mul));
/// ```
pub fn optimize(f: &mut FunctionIr) {
    assert!(f.is_ssa, "optimize requires SSA form");
    let dom = DomInfo::compute(f);
    let children = dom.dom_tree_children();
    for first in [true, false] {
        let mut walk = Walk::new(f, first);
        walk.block(f, f.entry(), &children);
        for b in &mut f.blocks {
            for p in &mut b.phis {
                for (_, a) in &mut p.args {
                    *a = walk.resolve(*a);
                }
            }
        }
        for r in &mut f.output_srcs {
            *r = walk.resolve(*r);
        }
        walk.number_new_in_block_order(f);
        eliminate_dead(f, &dom.rpo);
    }
}

/// A value-number key: opcode, operand registers and immediate. Besides
/// `LDC`, only `LUT` carries an immediate, the index of a table the
/// compiler numbered, so these keys hold only the compiler's own values.
type ExprKey = (Opcode, Srcs, i64);

/// A value-number table entry the walk added, undone when it leaves the
/// block that added it.
enum Added {
    Expr(ExprKey),
    Const(i64),
}

/// Why a register's uses read another register.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// An algebraic identity passes an operand through.
    Identity,
    /// A `MOV`, a value-preserving `CVT`, or a value number.
    Other,
}

/// One walk's state: what each register has become so far, and the value
/// numbers of the dominating blocks.
struct Walk {
    /// Whether this is the first walk, which folds over the input's
    /// constants and operands only.
    first: bool,
    /// `copies[r.0]` is the register every use of `r` reads instead.
    /// Targets may be copies themselves: `Walk::resolve` follows them.
    copies: Vec<Option<(VReg, Via)>>,
    /// `consts[r.0]` is the value `r` holds once an `LDC` defines it.
    consts: Vec<Option<i64>>,
    /// The first walk's folds read the constants the input loads.
    input_consts: Vec<Option<i64>>,
    /// Value numbers of the pure instructions with sources.
    exprs: FxHashMap<ExprKey, VReg>,
    /// Value numbers of the `LDC`s, keyed by the constant. The values
    /// come from the kernel source, so this map keeps the std hasher.
    ldcs: HashMap<i64, VReg>,
    /// Entries added by the blocks on the current dominator-tree path.
    added: Vec<Added>,
    /// The block of each register strength reduction allocated, in
    /// allocation order; they are the function's last registers.
    new_regs: Vec<BlockId>,
}

impl Walk {
    fn new(f: &FunctionIr, first: bool) -> Self {
        let n = f.vreg_types.len();
        let mut input_consts = Vec::new();
        if first {
            input_consts = vec![None; n];
            for i in f.blocks.iter().flat_map(|b| &b.instrs) {
                if let (Opcode::Ldc, Some(d)) = (i.op, i.dst) {
                    input_consts[d.0 as usize] = Some(i.imm);
                }
            }
        }
        Walk {
            first,
            copies: vec![None; n],
            consts: vec![None; n],
            input_consts,
            exprs: FxHashMap::default(),
            ldcs: HashMap::new(),
            added: Vec::new(),
            new_regs: Vec::new(),
        }
    }

    /// Renumbers the registers strength reduction allocated so that their
    /// ids ascend with the block index rather than the walk's dominator
    /// order, the order the IR dumps have always numbered them in.
    fn number_new_in_block_order(&self, f: &mut FunctionIr) {
        if self.new_regs.is_sorted() {
            return;
        }
        let base = (f.vreg_types.len() - self.new_regs.len()) as u32;
        let mut order: Vec<u32> = (0..self.new_regs.len() as u32).collect();
        order.sort_by_key(|&j| self.new_regs[j as usize]);
        let mut id = vec![0u32; order.len()];
        for (rank, &j) in order.iter().enumerate() {
            id[j as usize] = base + rank as u32;
        }
        // Every use is renamed: phi arguments, branch conditions and
        // outputs may already read one of these registers through a value
        // number.
        let rename = |r: &mut VReg| {
            if let Some(k) = r.0.checked_sub(base) {
                r.0 = id[k as usize];
            }
        };
        for b in &mut f.blocks {
            for p in &mut b.phis {
                p.args.iter_mut().map(|(_, a)| a).for_each(rename);
            }
            for i in &mut b.instrs {
                i.dst.iter_mut().chain(&mut i.srcs).for_each(rename);
            }
            if let Terminator::Branch { cond, .. } = &mut b.term {
                rename(cond);
            }
        }
        f.output_srcs.iter_mut().for_each(rename);
        let types = f.vreg_types.split_off(base as usize);
        f.vreg_types
            .extend(order.iter().map(|&j| types[j as usize]));
    }

    /// The register a use of `r` reads now.
    fn resolve(&self, mut r: VReg) -> VReg {
        while let Some((t, _)) = self.copies[r.0 as usize] {
            r = t;
        }
        r
    }

    /// The register a use of `r` reads once identities are applied.
    fn resolve_identities(&self, mut r: VReg) -> VReg {
        while let Some((t, Via::Identity)) = self.copies[r.0 as usize] {
            r = t;
        }
        r
    }

    /// Rewrites block `b`, then the blocks it dominates, with `b`'s value
    /// numbers in scope.
    fn block(&mut self, f: &mut FunctionIr, b: BlockId, children: &[Vec<BlockId>]) {
        let scope = self.added.len();
        let mut ii = 0;
        while ii < f.block(b).instrs.len() {
            ii = self.instr(f, b, ii);
        }
        if let Terminator::Branch { cond, .. } = &mut f.block_mut(b).term {
            *cond = self.resolve(*cond);
        }
        for &c in &children[b.0 as usize] {
            self.block(f, c, children);
        }
        // Leaving the scope drops the key even when this block overwrote
        // a dominating entry of another type, so later siblings lose it
        // too. The pinned IR depends on it.
        for a in self.added.drain(scope..) {
            match a {
                Added::Expr(k) => self.exprs.remove(&k),
                Added::Const(v) => self.ldcs.remove(&v),
            };
        }
    }

    /// Rewrites instruction `ii` of block `b` and returns the index of
    /// the next one. An instruction whose uses now read another register
    /// is left in place for DCE.
    fn instr(&mut self, f: &mut FunctionIr, b: BlockId, mut ii: usize) -> usize {
        let mut i = f.block(b).instrs[ii];
        let input = i;
        for s in &mut i.srcs {
            *s = self.resolve(*s);
        }
        let Some(dst) = i.dst else {
            f.block_mut(b).instrs[ii] = i;
            return ii + 1;
        };
        // Folding and identities; the first walk sees the input's form.
        let (seen, consts) = if self.first {
            (&input, &self.input_consts)
        } else {
            (&i, &self.consts)
        };
        let c = |k: usize| seen.srcs.get(k).and_then(|r| consts[r.0 as usize]);
        let mut numbered = true;
        if let Some(v) = fold(seen, c, &f.luts) {
            i = Instr::new(Opcode::Ldc, dst, [], v, i.ty);
        } else if let Some(src) = identity(seen, c).filter(|&s| fits_in(f.ty(s), i.ty)) {
            // The identity is only a pure copy when no wrap can occur;
            // the lowering discipline guarantees result widths hold the
            // value, so substitute when the source type fits.
            self.copies[dst.0 as usize] = Some((src, Via::Identity));
            numbered = false;
        } else if is_zero(seen, c) {
            i = Instr::new(Opcode::Ldc, dst, [], 0, i.ty);
        } else if i.op == Opcode::Mov {
            self.copies[dst.0 as usize] = Some((i.srcs[0], Via::Other));
        } else if i.op == Opcode::Cvt {
            // A value-preserving conversion is a copy. The first walk
            // still numbers it, as the conversion it was.
            let src = if self.first {
                self.resolve_identities(input.srcs[0])
            } else {
                i.srcs[0]
            };
            if fits_in(f.ty(src), i.ty) {
                self.copies[dst.0 as usize] = Some((i.srcs[0], Via::Other));
                numbered = self.first;
            }
        } else if let Some((op, x, k, kty)) = reduce(&i, &self.consts, f) {
            let kreg = f.new_vreg(kty);
            self.new_regs.push(b);
            self.copies.push(None);
            self.consts.push(None);
            f.block_mut(b)
                .instrs
                .insert(ii, Instr::new(Opcode::Ldc, kreg, [], k, kty));
            ii = self.instr(f, b, ii);
            i = Instr::new(op, dst, [x, self.resolve(kreg)], 0, i.ty);
        }
        if numbered {
            self.number(f, &i, dst);
        }
        f.block_mut(b).instrs[ii] = i;
        ii + 1
    }

    /// Value-numbers `i`: redirects `dst` to an equal dominating value of
    /// the same type, or records `dst` as the value of its key.
    fn number(&mut self, f: &FunctionIr, i: &Instr, dst: VReg) {
        let prev = match i.op {
            // Inputs, feedback reads and copies are not value-numbered.
            Opcode::Arg | Opcode::Lpr | Opcode::Mov => return,
            Opcode::Ldc => {
                self.consts[dst.0 as usize] = Some(i.imm);
                self.ldcs.get(&i.imm)
            }
            _ => self.exprs.get(&expr_key(i)),
        };
        match prev {
            Some(&prev) if f.ty(prev) == i.ty => {
                self.copies[dst.0 as usize].get_or_insert((prev, Via::Other));
            }
            _ if i.op == Opcode::Ldc => {
                self.ldcs.insert(i.imm, dst);
                self.added.push(Added::Const(i.imm));
            }
            _ => {
                let k = expr_key(i);
                self.exprs.insert(k, dst);
                self.added.push(Added::Expr(k));
            }
        }
    }
}

fn expr_key(i: &Instr) -> ExprKey {
    let mut srcs = i.srcs;
    if i.op.is_commutative() {
        srcs.sort();
    }
    (i.op, srcs, i.imm)
}

/// The constant `i` evaluates to when the operands `c` knows are enough.
fn fold(i: &Instr, c: impl Fn(usize) -> Option<i64>, luts: &[LutTable]) -> Option<i64> {
    match i.op {
        Opcode::Add => c(0).zip(c(1)).map(|(a, b)| a.wrapping_add(b)),
        Opcode::Sub => c(0).zip(c(1)).map(|(a, b)| a.wrapping_sub(b)),
        Opcode::Mul => c(0).zip(c(1)).map(|(a, b)| a.wrapping_mul(b)),
        Opcode::Div => match (c(0), c(1)) {
            (Some(a), Some(b)) if b != 0 => Some(a.wrapping_div(b)),
            _ => None,
        },
        Opcode::Rem => match (c(0), c(1)) {
            (Some(a), Some(b)) if b != 0 => Some(a.wrapping_rem(b)),
            _ => None,
        },
        Opcode::Neg => c(0).map(|a| a.wrapping_neg()),
        Opcode::Not => c(0).map(|a| !a),
        Opcode::Shl => match (c(0), c(1)) {
            (Some(a), Some(b)) if b >= 0 => Some(a.wrapping_shl(b.min(63) as u32)),
            _ => None,
        },
        Opcode::Shr => match (c(0), c(1)) {
            (Some(a), Some(b)) if b >= 0 => Some(a.wrapping_shr(b.min(63) as u32)),
            _ => None,
        },
        Opcode::And => c(0).zip(c(1)).map(|(a, b)| a & b),
        Opcode::Or => c(0).zip(c(1)).map(|(a, b)| a | b),
        Opcode::Xor => c(0).zip(c(1)).map(|(a, b)| a ^ b),
        Opcode::Slt => c(0).zip(c(1)).map(|(a, b)| (a < b) as i64),
        Opcode::Sle => c(0).zip(c(1)).map(|(a, b)| (a <= b) as i64),
        Opcode::Seq => c(0).zip(c(1)).map(|(a, b)| (a == b) as i64),
        Opcode::Sne => c(0).zip(c(1)).map(|(a, b)| (a != b) as i64),
        Opcode::Bool => c(0).map(|a| (a != 0) as i64),
        Opcode::Cvt => c(0).map(|a| i.ty.wrap(a)),
        Opcode::Mux => c(0).and_then(|sel| if sel != 0 { c(1) } else { c(2) }),
        Opcode::Lut => c(0).and_then(|idx| {
            if idx < 0 {
                None
            } else {
                let t = &luts[i.imm as usize];
                Some(t.elem.wrap(t.data.get(idx as usize).copied().unwrap_or(0)))
            }
        }),
        _ => None,
    }
}

/// The operand `i` passes through unchanged under an algebraic identity.
fn identity(i: &Instr, c: impl Fn(usize) -> Option<i64>) -> Option<VReg> {
    match i.op {
        Opcode::Add | Opcode::Or | Opcode::Xor => match (c(0), c(1)) {
            (_, Some(0)) => Some(i.srcs[0]),
            (Some(0), _) => Some(i.srcs[1]),
            _ => None,
        },
        Opcode::Sub if c(1) == Some(0) => Some(i.srcs[0]),
        Opcode::Mul => match (c(0), c(1)) {
            (_, Some(1)) => Some(i.srcs[0]),
            (Some(1), _) => Some(i.srcs[1]),
            _ => None,
        },
        Opcode::Div if c(1) == Some(1) => Some(i.srcs[0]),
        Opcode::Shl | Opcode::Shr if c(1) == Some(0) => Some(i.srcs[0]),
        Opcode::Mux => match c(0) {
            Some(v) if v != 0 => Some(i.srcs[1]),
            Some(_) => Some(i.srcs[2]),
            None if i.srcs[1] == i.srcs[2] => Some(i.srcs[1]),
            None => None,
        },
        _ => None,
    }
}

/// Whether `i` is `x * 0` or `x & 0`, zero whatever `x` is.
fn is_zero(i: &Instr, c: impl Fn(usize) -> Option<i64>) -> bool {
    matches!(i.op, Opcode::Mul | Opcode::And) && (c(0) == Some(0) || c(1) == Some(0))
}

/// Whether a value of type `small` is always representable in `big`.
fn fits_in(small: IntType, big: IntType) -> bool {
    if small.signed == big.signed {
        big.bits >= small.bits
    } else if big.signed {
        // unsigned small into signed big needs one extra bit.
        big.bits > small.bits
    } else {
        // signed into unsigned never guaranteed.
        false
    }
}

/// Strength reduction: `x * 2^k → x << k`, unsigned `x / 2^k → x >> k`,
/// unsigned `x % 2^k → x & (2^k − 1)`. Returns the new opcode, `x`, and
/// the constant second operand with its type.
fn reduce(
    i: &Instr,
    consts: &[Option<i64>],
    f: &FunctionIr,
) -> Option<(Opcode, VReg, i64, IntType)> {
    let c = |k: usize| i.srcs.get(k).and_then(|r| consts[r.0 as usize]);
    let pow2 = |v: Option<i64>| v.filter(|&v| v > 1 && v.count_ones() == 1);
    let shift = IntType::unsigned(7);
    match i.op {
        Opcode::Mul => match (c(0), c(1)) {
            (None, Some(_)) => pow2(c(1)).map(|v| (i.srcs[0], v)),
            (Some(_), None) => pow2(c(0)).map(|v| (i.srcs[1], v)),
            _ => None,
        }
        .map(|(x, v)| (Opcode::Shl, x, v.trailing_zeros() as i64, shift)),
        // C division truncates toward zero, not −∞: signed stays.
        Opcode::Div | Opcode::Rem if f.ty(i.srcs[0]).signed => None,
        Opcode::Div => {
            pow2(c(1)).map(|v| (Opcode::Shr, i.srcs[0], v.trailing_zeros() as i64, shift))
        }
        Opcode::Rem => {
            let bits = f.ty(i.srcs[0]).bits;
            pow2(c(1)).map(|v| {
                (
                    Opcode::And,
                    i.srcs[0],
                    v - 1,
                    IntType::unsigned(63.min(bits)),
                )
            })
        }
        _ => None,
    }
}

/// Removes every instruction and phi whose result is never used, keeping
/// side effects and outputs. One sweep over the blocks in reverse
/// postorder, each read backwards, reaches every use of a register
/// before its definition, so a use count that is zero there stays zero.
fn eliminate_dead(f: &mut FunctionIr, rpo: &[BlockId]) {
    let mut uses = use_counts(f);
    let dead = |uses: &[u32], i: &Instr| {
        !i.op.has_side_effects() && i.dst.is_some_and(|d| uses[d.0 as usize] == 0)
    };
    for &b in rpo.iter().rev() {
        let b = f.block_mut(b);
        for i in b.instrs.iter().rev() {
            if dead(&uses, i) {
                for s in &i.srcs {
                    uses[s.0 as usize] -= 1;
                }
            }
        }
        for p in &b.phis {
            if uses[p.dst.0 as usize] == 0 {
                for (_, a) in &p.args {
                    uses[a.0 as usize] -= 1;
                }
            }
        }
        b.instrs.retain(|i| !dead(&uses, i));
        b.phis.retain(|p| uses[p.dst.0 as usize] > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::IrMachine;
    use crate::lower::lower_function;
    use crate::ssa::{to_ssa, verify_ssa};
    use roccc_cparse::parser::parse;

    fn build(src: &str, func: &str) -> FunctionIr {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        ir
    }

    /// Asserts optimized IR computes the same outputs as unoptimized.
    fn assert_preserves(src: &str, func: &str, arg_sets: &[Vec<i64>]) {
        let base = build(src, func);
        let mut opt = base.clone();
        optimize(&mut opt);
        verify_ssa(&opt).unwrap_or_else(|e| panic!("{e}\n{}", opt.dump()));
        for args in arg_sets {
            let r1 = IrMachine::new(&base).run(args).unwrap();
            let r2 = IrMachine::new(&opt).run(args).unwrap();
            assert_eq!(r1, r2, "args {args:?}\n{}", opt.dump());
        }
    }

    #[test]
    fn folds_constant_subexpressions() {
        let mut ir = build("void f(int a, int* o) { *o = a + (3 * 4 - 2); }", "f");
        optimize(&mut ir);
        // Exactly one LDC with value 10 should feed the add.
        let ldcs: Vec<i64> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Ldc)
            .map(|i| i.imm)
            .collect();
        assert!(ldcs.contains(&10), "{}", ir.dump());
        assert_preserves(
            "void f(int a, int* o) { *o = a + (3 * 4 - 2); }",
            "f",
            &[vec![5], vec![-1]],
        );
    }

    #[test]
    fn cse_merges_duplicate_expressions() {
        let src = "void f(int a, int b, int* o) { *o = (a + b) * (a + b); }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let adds = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Add)
            .count();
        assert_eq!(adds, 1, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![3, 4], vec![-5, 2]]);
    }

    #[test]
    fn cse_respects_commutativity() {
        let src = "void f(int a, int b, int* o) { *o = a * b + b * a; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let muls = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Mul)
            .count();
        assert_eq!(muls, 1, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![3, 4]]);
    }

    #[test]
    fn strength_reduces_mul_by_power_of_two() {
        let src = "void f(int a, int* o) { *o = a * 16; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(ops.contains(&Opcode::Shl));
        assert!(!ops.contains(&Opcode::Mul));
        assert_preserves(src, "f", &[vec![7], vec![-3], vec![0]]);
    }

    #[test]
    fn strength_reduces_unsigned_div_and_rem() {
        let src = "void f(uint16 a, uint16* q, uint16* r) { *q = a / 8; *r = a % 8; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(!ops.contains(&Opcode::Div), "{}", ir.dump());
        assert!(!ops.contains(&Opcode::Rem), "{}", ir.dump());
        assert_preserves(src, "f", &[vec![12345], vec![7], vec![65535]]);
    }

    #[test]
    fn signed_div_is_not_shifted() {
        // -7 / 2 == -3 in C, but -7 >> 1 == -4.
        let src = "void f(int a, int* o) { *o = a / 2; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(ops.contains(&Opcode::Div));
        assert_preserves(src, "f", &[vec![-7], vec![7]]);
    }

    #[test]
    fn dce_removes_dead_code() {
        let src = "void f(int a, int* o) { int dead = a * 99; *o = a + 1; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let muls = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Mul || i.op == Opcode::Shl)
            .count();
        assert_eq!(muls, 0, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![41]]);
    }

    #[test]
    fn snx_survives_dce() {
        let prog = parse(
            "void acc(int t0, int* t1) {
               int s; int c = ROCCC_load_prev(s) + t0;
               ROCCC_store2next(s, c);
               *t1 = c; }",
        )
        .unwrap();
        let f = prog.function("acc").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "s".into(),
            ty: IntType::int(),
            init: 0,
        }];
        let mut ir = lower_function(&prog, f, &fb).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let has_snx = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.op == Opcode::Snx);
        assert!(has_snx);
        let mut m = IrMachine::new(&ir);
        assert_eq!(m.run(&[4]).unwrap(), vec![4]);
        assert_eq!(m.run(&[6]).unwrap(), vec![10]);
    }

    #[test]
    fn optimization_preserves_branches() {
        let src = "void if_else(int x1, int x2, int* x3, int* x4) {
           int a; int c;
           c = x1 - x2;
           if (c < x2) { a = x1 * x1; } else { a = x1 * x2 + 3; }
           c = c - a;
           *x3 = c; *x4 = a; }";
        assert_preserves(
            src,
            "if_else",
            &[vec![5, 3], vec![9, 2], vec![0, 0], vec![-4, -9]],
        );
    }

    #[test]
    fn mux_with_equal_arms_collapses() {
        let src = "void f(int a, int b, int* o) { *o = a > 0 ? b : b; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let ops: Vec<Opcode> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|i| i.op)
            .collect();
        assert!(!ops.contains(&Opcode::Mux), "{}", ir.dump());
        assert_preserves(src, "f", &[vec![1, 9], vec![-1, 9]]);
    }

    #[test]
    fn constant_lut_folds() {
        let src = "const uint8 t[4] = {9, 8, 7, 6};
          void f(int a, uint8* o) { *o = t[2] + a; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        let has_lut = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.op == Opcode::Lut);
        assert!(!has_lut, "{}", ir.dump());
        assert_preserves(src, "f", &[vec![1]]);
    }

    /// The blocks holding each `op` instruction, in block order.
    fn blocks_with(ir: &FunctionIr, op: Opcode) -> Vec<u32> {
        ir.blocks
            .iter()
            .flat_map(|b| b.instrs.iter().filter(|i| i.op == op).map(|_| b.id.0))
            .collect()
    }

    const BRANCH_ARGS: [[i64; 3]; 4] = [[3, 4, 1], [3, 4, -1], [-7, 5, 0], [9, -2, 2]];

    #[test]
    fn cse_merges_a_dominating_expression_into_both_arms() {
        let src = "void f(int a, int b, int c, int* o) { int t = a * b; int x;
           if (c > 0) { x = a * b + 1; } else { x = a * b - 1; }
           *o = x + t; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        assert_eq!(blocks_with(&ir, Opcode::Mul), vec![0], "{}", ir.dump());
        assert_preserves(src, "f", &BRANCH_ARGS.map(Vec::from));
    }

    #[test]
    fn cse_does_not_merge_across_sibling_arms() {
        let src = "void f(int a, int b, int c, int* o) { int x;
           if (c > 0) { x = a * b + 1; } else { x = a * b - 1; }
           *o = x + a * b; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        // One product per arm, and one at the join, which neither arm
        // dominates.
        let muls = blocks_with(&ir, Opcode::Mul);
        assert_eq!(muls.len(), 3, "{}", ir.dump());
        assert!(muls.windows(2).all(|w| w[0] != w[1]), "{}", ir.dump());
        assert_preserves(src, "f", &BRANCH_ARGS.map(Vec::from));
    }

    #[test]
    fn cse_keys_commutative_operands_alike_across_blocks() {
        let src = "void f(int a, int b, int c, int* o) { int t = a * b; int x;
           if (c > 0) { x = b * a; } else { x = c; }
           *o = x + t; }";
        let mut ir = build(src, "f");
        optimize(&mut ir);
        assert_eq!(blocks_with(&ir, Opcode::Mul), vec![0], "{}", ir.dump());
        assert_preserves(src, "f", &BRANCH_ARGS.map(Vec::from));
    }

    /// Strength reduction allocates a shift amount in the nested arm
    /// (bb4) before a mask in the else arm (bb2), so the two registers are
    /// renumbered into block order. The else arm's `x = 255` merges into
    /// the mask, and the phi argument that reads it must follow the
    /// renumbering.
    #[test]
    fn renumbered_reduction_registers_keep_phi_and_output_uses() {
        let src = "void f(uint8 a, int c, int d, uint8* o, uint8* p) { uint8 x;
           if (c > 0) { if (d > 0) { x = a * 4; } else { x = a; } }
           else { *p = a % 256; x = 255; }
           *o = x; }";
        let args = [[7, 1, 1], [7, 1, -1], [7, -1, 1], [200, 0, 0], [63, 2, 5]];
        assert_preserves(src, "f", &args.map(Vec::from));
    }

    /// Thousands of distinct constants stay linear: each gets its own
    /// entry in the constant table, every repeat merges into its first
    /// load, and no distinct constant is lost.
    #[test]
    fn thousands_of_constants_number_correctly() {
        let distinct: Vec<i64> = (1000..1000 + 4096).collect();
        let repeats = distinct.iter().step_by(8);
        let mut src = String::from("void f(int a, int* o) { int s = a;\n");
        for v in distinct.iter().chain(repeats) {
            src.push_str(&format!("  s = s + (a ^ {v});\n"));
        }
        src.push_str("  *o = s; }");
        let mut ir = build(&src, "f");
        optimize(&mut ir);
        let mut loaded: Vec<i64> = ir
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op == Opcode::Ldc)
            .map(|i| i.imm)
            .collect();
        loaded.sort_unstable();
        assert_eq!(loaded, distinct);
        assert_eq!(blocks_with(&ir, Opcode::Xor).len(), distinct.len());
        assert_preserves(&src, "f", &[vec![0], vec![-5], vec![123_456]]);
    }
}
