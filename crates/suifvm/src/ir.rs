//! The SUIFvm-style virtual machine IR.
//!
//! Mirrors the Machine-SUIF SUIFvm library the paper builds on (§4.2.1):
//! assembly-like three-address instructions over an infinite set of typed
//! virtual registers, organized into basic blocks with explicit
//! terminators, plus the ROCCC-specific opcodes `LPR` (load previous),
//! `SNX` (store next) and `LUT` (lookup table).
//!
//! Data-path functions contain no loops — a data path *is* one loop body —
//! so the CFG is a DAG of straight-line blocks and if/else diamonds
//! (Figure 5/6 in the paper).

use roccc_cparse::inline_vec::InlineVec;
use roccc_cparse::intern::Symbol;
use roccc_cparse::types::IntType;
use std::fmt;

/// Inline operand list of an instruction: at most three sources (`MUX`
/// is the widest opcode), stored in the instruction itself — no per-node
/// heap allocation.
pub type Srcs = InlineVec<VReg, 3>;

/// A virtual register.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vr{}", self.0)
    }
}

/// A basic block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Instruction opcodes. Arithmetic/logic opcodes follow SUIFvm; `MUX` only
/// appears after data-path hardening (it is the paper's "hard node"
/// selector); `LPR`/`SNX`/`LUT` are the ROCCC extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Function input (`srcs` empty; `imm` is the parameter index).
    Arg,
    /// Load constant (`imm`).
    Ldc,
    /// Copy.
    Mov,
    /// Width/signedness conversion (wrap or extend to `ty`).
    Cvt,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (signed semantics; by-constant divides are strength-reduced
    /// before hardware generation).
    Div,
    /// Remainder.
    Rem,
    /// Arithmetic negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Shift left (amount = src1).
    Shl,
    /// Shift right (arithmetic when `ty.signed`, logical otherwise).
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Set if less-than (1-bit result).
    Slt,
    /// Set if less-or-equal.
    Sle,
    /// Set if equal.
    Seq,
    /// Set if not-equal.
    Sne,
    /// Boolean normalize: 1 if src ≠ 0 (used by logical operators).
    Bool,
    /// Select: `dst = src0 ? src1 : src2` (hard node in the data path).
    Mux,
    /// Load previous iteration's value of feedback slot `imm`.
    Lpr,
    /// Store src0 as the next iteration's value of feedback slot `imm`.
    Snx,
    /// Look src0 up in constant table `imm`.
    Lut,
}

impl Opcode {
    /// Whether this opcode produces a 1-bit Boolean result.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            Opcode::Slt | Opcode::Sle | Opcode::Seq | Opcode::Sne | Opcode::Bool
        )
    }

    /// Whether operand order is irrelevant (used by value numbering).
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Mul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Seq
                | Opcode::Sne
        )
    }

    /// Whether the instruction has side effects and must never be removed.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Opcode::Snx)
    }

    /// The operand count the opcode takes, in the IR and the data path
    /// alike.
    pub fn arity(&self) -> usize {
        match self {
            Opcode::Arg | Opcode::Ldc | Opcode::Lpr => 0,
            Opcode::Mov
            | Opcode::Cvt
            | Opcode::Neg
            | Opcode::Not
            | Opcode::Bool
            | Opcode::Lut
            | Opcode::Snx => 1,
            Opcode::Mux => 3,
            _ => 2,
        }
    }
}

/// One structural violation of an IR level (SSA, data path or netlist):
/// the stable diagnostic code `roccc-verify` reports it under, the index
/// of the offending block, op or cell (`None` for whole-artifact
/// findings), and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable code, e.g. `S004-multiple-def`.
    pub code: &'static str,
    /// Offending block, op or cell index.
    pub at: Option<u32>,
    /// What is wrong.
    pub message: String,
}

impl Violation {
    /// A violation at item `at`.
    pub fn at(code: &'static str, at: u32, message: String) -> Self {
        Violation {
            code,
            at: Some(at),
            message,
        }
    }

    /// A whole-artifact violation.
    pub fn global(code: &'static str, message: String) -> Self {
        Violation {
            code,
            at: None,
            message,
        }
    }

    /// The always-on checkers' result: the first violation's message.
    ///
    /// # Errors
    ///
    /// Returns the first violation's message when there is one.
    pub fn first(violations: Vec<Violation>) -> Result<(), String> {
        violations
            .into_iter()
            .next()
            .map_or(Ok(()), |v| Err(v.message))
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::Arg => "arg",
            Opcode::Ldc => "ldc",
            Opcode::Mov => "mov",
            Opcode::Cvt => "cvt",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Rem => "rem",
            Opcode::Neg => "neg",
            Opcode::Not => "not",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Slt => "slt",
            Opcode::Sle => "sle",
            Opcode::Seq => "seq",
            Opcode::Sne => "sne",
            Opcode::Bool => "bool",
            Opcode::Mux => "mux",
            Opcode::Lpr => "lpr",
            Opcode::Snx => "snx",
            Opcode::Lut => "lut",
        };
        write!(f, "{s}")
    }
}

/// A three-address instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Operation.
    pub op: Opcode,
    /// Destination register (`None` only for `SNX`).
    pub dst: Option<VReg>,
    /// Source registers (inline; at most three).
    pub srcs: Srcs,
    /// Immediate payload: constant for `LDC`, parameter index for `ARG`,
    /// feedback slot for `LPR`/`SNX`, table index for `LUT`.
    pub imm: i64,
    /// Result type (width the destination wraps to).
    pub ty: IntType,
}

impl Instr {
    /// Creates an instruction with a destination.
    pub fn new(op: Opcode, dst: VReg, srcs: impl Into<Srcs>, imm: i64, ty: IntType) -> Self {
        Instr {
            op,
            dst: Some(dst),
            srcs: srcs.into(),
            imm,
            ty,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(dst) = self.dst {
            write!(f, "{dst}:{} = {}", self.ty, self.op)?;
        } else {
            write!(f, "{}", self.op)?;
        }
        for s in &self.srcs {
            write!(f, " {s}")?;
        }
        match self.op {
            Opcode::Ldc | Opcode::Arg | Opcode::Lpr | Opcode::Snx | Opcode::Lut => {
                write!(f, " #{}", self.imm)?
            }
            _ => {}
        }
        Ok(())
    }
}

/// A phi node (only present while the function is in SSA form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phi {
    /// Destination register.
    pub dst: VReg,
    /// `(predecessor block, incoming register)` pairs.
    pub args: Vec<(BlockId, VReg)>,
    /// Result type.
    pub ty: IntType,
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a 1-bit register.
    Branch {
        /// Condition register.
        cond: VReg,
        /// Successor when `cond != 0`.
        then_b: BlockId,
        /// Successor when `cond == 0`.
        else_b: BlockId,
    },
    /// Function exit.
    Ret,
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { then_b, else_b, .. } => vec![*then_b, *else_b],
            Terminator::Ret => vec![],
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Block id.
    pub id: BlockId,
    /// Phi nodes (SSA form only).
    pub phis: Vec<Phi>,
    /// Instructions in order.
    pub instrs: Vec<Instr>,
    /// Terminator.
    pub term: Terminator,
}

/// A constant lookup table referenced by `LUT` instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutTable {
    /// Table name (the C global).
    pub name: Symbol,
    /// Element type.
    pub elem: IntType,
    /// Contents.
    pub data: Vec<i64>,
}

impl LutTable {
    /// Address width needed to index the whole table.
    pub fn addr_bits(&self) -> u8 {
        let n = self.data.len().max(2);
        (usize::BITS - (n - 1).leading_zeros()) as u8
    }
}

/// A feedback slot (one `LPR`/`SNX` pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackSlot {
    /// Original variable name.
    pub name: Symbol,
    /// Register type.
    pub ty: IntType,
    /// Initial latched value.
    pub init: i64,
}

/// A function in VM IR.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionIr {
    /// Function name.
    pub name: Symbol,
    /// Blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Input ports in order: `(name, type)` — defined by `ARG` instructions.
    pub inputs: Vec<(Symbol, IntType)>,
    /// Output ports in order: `(name, type)`; the registers holding each
    /// output at exit are listed in `output_srcs`, maintained by every
    /// pass that rewrites uses.
    pub outputs: Vec<(Symbol, IntType)>,
    /// Registers carrying each output at function exit (parallel to
    /// `outputs`).
    pub output_srcs: Vec<VReg>,
    /// Types of all registers, indexed by register number.
    pub vreg_types: Vec<IntType>,
    /// Lookup tables referenced by `LUT` instructions (by index).
    pub luts: Vec<LutTable>,
    /// Feedback slots referenced by `LPR`/`SNX` (by index).
    pub feedback: Vec<FeedbackSlot>,
    /// True once the SSA pass has run.
    pub is_ssa: bool,
}

impl FunctionIr {
    /// Creates an empty function.
    pub fn new(name: impl Into<Symbol>) -> Self {
        FunctionIr {
            name: name.into(),
            blocks: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_srcs: Vec::new(),
            vreg_types: Vec::new(),
            luts: Vec::new(),
            feedback: Vec::new(),
            is_ssa: false,
        }
    }

    /// Allocates a fresh register of type `ty`.
    pub fn new_vreg(&mut self, ty: IntType) -> VReg {
        let r = VReg(self.vreg_types.len() as u32);
        self.vreg_types.push(ty);
        r
    }

    /// The type of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register was not allocated by this function.
    pub fn ty(&self, r: VReg) -> IntType {
        self.vreg_types[r.0 as usize]
    }

    /// Allocates a fresh empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            id,
            phis: Vec::new(),
            instrs: Vec::new(),
            term: Terminator::Ret,
        });
        id
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Predecessor map, computed from terminators.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in &self.blocks {
            for s in b.term.successors() {
                preds[s.0 as usize].push(b.id);
            }
        }
        preds
    }

    /// Blocks in reverse postorder from the entry.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack.
        let mut stack = vec![(self.entry(), 0usize)];
        visited[0] = true;
        while let Some((bid, child)) = stack.pop() {
            let succs = self.block(bid).term.successors();
            if child < succs.len() {
                stack.push((bid, child + 1));
                let s = succs[child];
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(bid);
            }
        }
        post.reverse();
        post
    }

    /// Total instruction count (excluding phis).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Pretty-prints the whole function.
    pub fn dump(&self) -> String {
        let mut s = format!("function {}(", self.name);
        let ins: Vec<String> = self
            .inputs
            .iter()
            .map(|(n, t)| format!("{n}:{t}"))
            .collect();
        s.push_str(&ins.join(", "));
        s.push_str(") -> (");
        let outs: Vec<String> = self
            .outputs
            .iter()
            .map(|(n, t)| format!("{n}:{t}"))
            .collect();
        s.push_str(&outs.join(", "));
        s.push_str(")\n");
        for b in &self.blocks {
            s.push_str(&format!("{}:\n", b.id));
            for p in &b.phis {
                let args: Vec<String> = p
                    .args
                    .iter()
                    .map(|(bid, r)| format!("[{bid}: {r}]"))
                    .collect();
                s.push_str(&format!("  {}:{} = phi {}\n", p.dst, p.ty, args.join(" ")));
            }
            for i in &b.instrs {
                s.push_str(&format!("  {i}\n"));
            }
            match &b.term {
                Terminator::Jump(t) => s.push_str(&format!("  jump {t}\n")),
                Terminator::Branch {
                    cond,
                    then_b,
                    else_b,
                } => s.push_str(&format!("  br {cond} ? {then_b} : {else_b}\n")),
                Terminator::Ret => s.push_str("  ret\n"),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vreg_allocation_tracks_types() {
        let mut f = FunctionIr::new("t");
        let a = f.new_vreg(IntType::unsigned(8));
        let b = f.new_vreg(IntType::signed(12));
        assert_eq!(f.ty(a), IntType::unsigned(8));
        assert_eq!(f.ty(b), IntType::signed(12));
        assert_ne!(a, b);
    }

    #[test]
    fn predecessors_follow_terminators() {
        let mut f = FunctionIr::new("t");
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let c = f.new_vreg(IntType::bit());
        f.block_mut(b0).term = Terminator::Branch {
            cond: c,
            then_b: b1,
            else_b: b2,
        };
        f.block_mut(b1).term = Terminator::Jump(b3);
        f.block_mut(b2).term = Terminator::Jump(b3);
        let preds = f.predecessors();
        assert_eq!(preds[b3.0 as usize], vec![b1, b2]);
        assert_eq!(preds[b0.0 as usize], Vec::<BlockId>::new());
    }

    #[test]
    fn reverse_postorder_visits_entry_first_and_join_last() {
        let mut f = FunctionIr::new("t");
        let b0 = f.new_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let c = f.new_vreg(IntType::bit());
        f.block_mut(b0).term = Terminator::Branch {
            cond: c,
            then_b: b1,
            else_b: b2,
        };
        f.block_mut(b1).term = Terminator::Jump(b3);
        f.block_mut(b2).term = Terminator::Jump(b3);
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], b0);
        assert_eq!(*rpo.last().unwrap(), b3);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn lut_addr_bits() {
        let t = LutTable {
            name: "t".into(),
            elem: IntType::unsigned(16),
            data: vec![0; 1024],
        };
        assert_eq!(t.addr_bits(), 10);
        let t2 = LutTable {
            name: "t".into(),
            elem: IntType::unsigned(16),
            data: vec![0; 3],
        };
        assert_eq!(t2.addr_bits(), 2);
    }

    #[test]
    fn instr_display_is_readable() {
        let i = Instr::new(
            Opcode::Add,
            VReg(3),
            vec![VReg(1), VReg(2)],
            0,
            IntType::int(),
        );
        assert_eq!(i.to_string(), "vr3:int32 = add vr1 vr2");
        let ldc = Instr::new(Opcode::Ldc, VReg(0), vec![], 42, IntType::int());
        assert_eq!(ldc.to_string(), "vr0:int32 = ldc #42");
    }

    #[test]
    fn opcode_classifications() {
        assert!(Opcode::Slt.is_comparison());
        assert!(!Opcode::Add.is_comparison());
        assert!(Opcode::Add.is_commutative());
        assert!(!Opcode::Sub.is_commutative());
        assert!(Opcode::Snx.has_side_effects());
        assert!(!Opcode::Lpr.has_side_effects());
    }
}
