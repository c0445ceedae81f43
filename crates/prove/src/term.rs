//! Hash-consed word-level term DAG shared by the symbolic IR and netlist
//! evaluators.
//!
//! All terms denote 64-bit two's-complement words (`i64`); arithmetic is
//! wrapping, exactly matching both `suifvm::interp::IrMachine` and the
//! `netlist::plan` simulators. There are two leaf kinds, both read from
//! the current window: [`Term::Var`], an input port, and [`Term::FbVar`],
//! a feedback slot's state. Timing is not part of a term: the netlist's
//! registers are transparent to its value terms, and when each value is
//! computed is [`crate::timing`]'s question.
//!
//! Smart constructors canonicalize on the way in: associative/commutative
//! operators are flattened and sorted, sums are kept as linear combinations
//! (constant coefficients folded wrapping), constants fold through every
//! operator, and width changes ([`Term::Wrap`]) are absorbed whenever an
//! interval analysis over the term itself proves the value already fits.
//!
//! [`Term::Var`] denotes the *raw* 64-bit argument word — each side wraps
//! it explicitly (the IR to the port type at `ARG`, the netlist to the
//! input-cell type), so differing widths are visible to the prover.
//! [`Term::FbVar`] denotes the (slot-type-wrapped) feedback state, which
//! both sides share by the usual inductive argument: the init obligation
//! makes the states equal at reset and the next-state obligations keep
//! them equal.

use std::collections::HashMap;

use roccc_cparse::hash::FxHashMap;
use roccc_cparse::types::IntType;

/// Index of a term in its [`TermStore`].
pub type TermId = u32;

/// Operator tag for [`Term::Op`] nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TOp {
    /// n-ary wrapping sum (linear-combination canonical form).
    Add,
    /// n-ary wrapping product (sign pulled out, constants folded front).
    Mul,
    /// n-ary bitwise AND.
    And,
    /// n-ary bitwise OR.
    Or,
    /// n-ary bitwise XOR.
    Xor,
    /// Wrapping negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// `!= 0` coercion to 0/1.
    Bool,
    /// Shift-amount clamp to `0..=63` (both machines clamp; the IR faults
    /// on negative amounts, so equivalence is conditioned on no-fault runs).
    ShAmt,
    /// Left shift by a clamped dynamic amount (constant shifts become `Mul`).
    Shl,
    /// Arithmetic right shift by a clamped amount.
    Shr,
    /// Signed quotient (conditioned on a non-zero divisor).
    Div,
    /// Signed remainder (conditioned on a non-zero divisor).
    Rem,
    /// Signed less-than, 0/1 result.
    Slt,
    /// Signed less-or-equal, 0/1 result.
    Sle,
    /// Equality, 0/1 result.
    Seq,
    /// Inequality, 0/1 result.
    Sne,
    /// `args[0] != 0 ? args[1] : args[2]`.
    Mux,
    /// ROM lookup in the interned table; negative or out-of-range indices
    /// read 0 (the netlist semantics; the IR faults on negative indices).
    Lut(u32),
}

/// A node of the term DAG. Interned: equal nodes share one [`TermId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Raw 64-bit input-port word.
    Var {
        /// Input port index into `FunctionIr::inputs`.
        port: u32,
    },
    /// Slot-type-wrapped feedback state (justified inductively).
    FbVar {
        /// Feedback slot index into `FunctionIr::feedback`.
        slot: u32,
    },
    /// Constant word.
    Const(i64),
    /// Truncate to `bits` then sign- or zero-extend — `IntType::wrap`.
    Wrap {
        /// Target width.
        bits: u8,
        /// Sign- (`true`) or zero-extend after truncation.
        signed: bool,
        /// Wrapped operand.
        arg: TermId,
    },
    /// Operator application.
    Op {
        /// The operator.
        op: TOp,
        /// Operands, in operator order.
        args: Vec<TermId>,
    },
}

/// Dense side table keyed by [`TermId`]: one slot per interned term, so a
/// memo lookup is an index instead of a hash. Grows on insert.
#[derive(Debug, Clone)]
pub struct TermMap<V> {
    slots: Vec<Option<V>>,
}

impl<V: Copy> Default for TermMap<V> {
    fn default() -> Self {
        TermMap { slots: Vec::new() }
    }
}

impl<V: Copy> TermMap<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored for `t`, if any.
    #[inline]
    pub fn get(&self, t: TermId) -> Option<V> {
        self.slots.get(t as usize).copied().flatten()
    }

    /// Stores `v` for `t`.
    #[inline]
    pub fn insert(&mut self, t: TermId, v: V) {
        let i = t as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(v);
    }

    /// Forgets every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Hash-consing store plus the leaf-type context needed by the interval
/// analysis, the concrete evaluator, and the bit-blaster.
pub struct TermStore {
    terms: Vec<Term>,
    /// Interned non-constant nodes. Their fields are the prover's own
    /// ids and small tags, so the fast in-tree hasher suffices.
    intern: FxHashMap<Term, TermId>,
    /// Interned constants. Their values come from the kernel source, so
    /// they keep the std hasher, which resists keys crafted to collide.
    consts: HashMap<i64, TermId>,
    /// Input-port types, indexed by `Var::port` (sampling hints only — a
    /// `Var` itself is the raw, unwrapped argument word).
    pub var_tys: Vec<IntType>,
    /// Feedback-slot types, indexed by `FbVar::slot`.
    pub fb_tys: Vec<IntType>,
    /// Interned ROM tables (raw, unwrapped data; wraps are explicit nodes).
    pub luts: Vec<Vec<i64>>,
    /// Count of simplification-rule firings (reported as `rewrite_steps`).
    pub steps: u64,
    /// Memoized [`TermStore::interval`] results; an interval is only kept
    /// when it fits i64, so the bounds are stored as `i64`.
    intervals: TermMap<Option<(i64, i64)>>,
}

fn ty_bounds(ty: IntType) -> (i128, i128) {
    (ty.min_value() as i128, ty.max_value() as i128)
}

impl TermStore {
    /// Creates an empty store with the given leaf-type context.
    pub fn new(var_tys: Vec<IntType>, fb_tys: Vec<IntType>) -> Self {
        TermStore {
            terms: Vec::new(),
            intern: FxHashMap::default(),
            consts: HashMap::new(),
            var_tys,
            fb_tys,
            luts: Vec::new(),
            steps: 0,
            intervals: TermMap::new(),
        }
    }

    /// Interns `t`, returning its id.
    pub fn mk(&mut self, t: Term) -> TermId {
        let found = match t {
            Term::Const(v) => self.consts.get(&v),
            _ => self.intern.get(&t),
        };
        if let Some(&id) = found {
            return id;
        }
        let id = self.terms.len() as TermId;
        match t {
            Term::Const(v) => {
                self.consts.insert(v, id);
            }
            _ => {
                self.intern.insert(t.clone(), id);
            }
        }
        self.terms.push(t);
        id
    }

    /// The node behind `id`.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id as usize]
    }

    /// Operands of `id` (empty for leaves and wraps). Recursive passes
    /// index this slice instead of cloning the node.
    pub(crate) fn args(&self, id: TermId) -> &[TermId] {
        match &self.terms[id as usize] {
            Term::Op { args, .. } => args,
            _ => &[],
        }
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no nodes have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a ROM table (by raw contents), returning its table id.
    pub fn intern_lut(&mut self, data: &[i64]) -> u32 {
        for (i, t) in self.luts.iter().enumerate() {
            if t.as_slice() == data {
                return i as u32;
            }
        }
        self.luts.push(data.to_vec());
        (self.luts.len() - 1) as u32
    }

    // ---- leaf and constant constructors -------------------------------

    /// Input-port leaf.
    pub fn var(&mut self, port: u32) -> TermId {
        self.mk(Term::Var { port })
    }

    /// Feedback-slot leaf.
    pub fn fb(&mut self, slot: u32) -> TermId {
        self.mk(Term::FbVar { slot })
    }

    /// Constant word.
    pub fn cst(&mut self, v: i64) -> TermId {
        self.mk(Term::Const(v))
    }

    /// The value of `id` when it is a constant.
    pub(crate) fn as_const(&self, id: TermId) -> Option<i64> {
        match self.term(id) {
            Term::Const(v) => Some(*v),
            _ => None,
        }
    }

    // ---- smart constructors -------------------------------------------

    /// Wrapping n-ary sum in linear-combination canonical form: collects
    /// `coeff * base` contributions (folding `Neg` and constant factors),
    /// sums coefficients wrapping, and drops zero terms.
    pub fn add(&mut self, args: Vec<TermId>) -> TermId {
        let mut contribs: Vec<(TermId, i64)> = Vec::with_capacity(args.len());
        let mut konst: i64 = 0;
        let mut stack = args;
        while let Some(a) = stack.pop() {
            match *self.term(a) {
                Term::Const(v) => konst = konst.wrapping_add(v),
                Term::Op {
                    op: TOp::Add,
                    ref args,
                } => stack.extend_from_slice(args),
                Term::Op {
                    op: TOp::Neg,
                    ref args,
                } => {
                    let x = args[0];
                    self.steps += 1;
                    let (c, base) = self.coeff_of(x);
                    contribs.push((base, c.wrapping_neg()));
                }
                _ => {
                    let (c, base) = self.coeff_of(a);
                    contribs.push((base, c));
                }
            }
        }
        // Merge the contributions per base (wrapping), dropping zeros.
        contribs.sort_unstable_by_key(|&(b, _)| b);
        let mut parts: Vec<(TermId, i64)> = Vec::with_capacity(contribs.len());
        for (b, c) in contribs {
            match parts.last_mut() {
                Some((pb, pc)) if *pb == b => *pc = pc.wrapping_add(c),
                _ => parts.push((b, c)),
            }
        }
        parts.retain(|&(_, c)| c != 0);
        let mut out: Vec<TermId> = Vec::with_capacity(parts.len() + 1);
        if konst != 0 {
            out.push(self.cst(konst));
        }
        for (base, c) in parts {
            let t = match c {
                1 => base,
                -1 => self.mk_neg_raw(base),
                _ => {
                    let k = self.cst(c);
                    self.mul(vec![k, base])
                }
            };
            out.push(t);
        }
        match out.len() {
            0 => self.cst(0),
            1 => out[0],
            _ => self.mk(Term::Op {
                op: TOp::Add,
                args: out,
            }),
        }
    }

    /// Splits `t` into `(coefficient, base)` for sum collection.
    fn coeff_of(&mut self, t: TermId) -> (i64, TermId) {
        if let Term::Op {
            op: TOp::Mul,
            ref args,
        } = *self.term(t)
        {
            if let Some(c) = self.as_const(args[0]) {
                let base = if args.len() == 2 {
                    args[1]
                } else {
                    let rest = args[1..].to_vec();
                    self.mk(Term::Op {
                        op: TOp::Mul,
                        args: rest,
                    })
                };
                return (c, base);
            }
        }
        (1, t)
    }

    fn mk_neg_raw(&mut self, t: TermId) -> TermId {
        self.mk(Term::Op {
            op: TOp::Neg,
            args: vec![t],
        })
    }

    /// Wrapping negation (distributes over sums, folds into products).
    pub fn neg(&mut self, a: TermId) -> TermId {
        match *self.term(a) {
            Term::Const(v) => {
                self.steps += 1;
                self.cst(v.wrapping_neg())
            }
            Term::Op {
                op: TOp::Neg,
                ref args,
            } => {
                let x = args[0];
                self.steps += 1;
                x
            }
            Term::Op { op: TOp::Add, .. } => {
                self.steps += 1;
                let n = self.args(a).len();
                let negd: Vec<TermId> = (0..n)
                    .map(|i| {
                        let x = self.args(a)[i];
                        self.mk_neg_raw(x)
                    })
                    .collect();
                self.add(negd)
            }
            Term::Op {
                op: TOp::Mul,
                ref args,
            } if self.as_const(args[0]).is_some() => {
                let mut v = args.to_vec();
                self.steps += 1;
                let c = self.as_const(v[0]).unwrap().wrapping_neg();
                v[0] = self.cst(c);
                self.mul(v)
            }
            _ => self.mk_neg_raw(a),
        }
    }

    /// Wrapping subtraction, canonicalized as `a + (-b)`.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.neg(b);
        self.add(vec![a, nb])
    }

    /// Wrapping n-ary product: constants fold to a leading coefficient,
    /// signs are pulled out of `Neg` factors, factors sort by id.
    pub fn mul(&mut self, args: Vec<TermId>) -> TermId {
        let mut konst: i64 = 1;
        let mut factors: Vec<TermId> = Vec::new();
        let mut stack = args;
        while let Some(a) = stack.pop() {
            match *self.term(a) {
                Term::Const(v) => konst = konst.wrapping_mul(v),
                Term::Op {
                    op: TOp::Mul,
                    ref args,
                } => stack.extend_from_slice(args),
                Term::Op {
                    op: TOp::Neg,
                    ref args,
                } => {
                    stack.push(args[0]);
                    self.steps += 1;
                    konst = konst.wrapping_neg();
                }
                _ => factors.push(a),
            }
        }
        if konst == 0 {
            self.steps += 1;
            return self.cst(0);
        }
        factors.sort_unstable();
        if factors.is_empty() {
            return self.cst(konst);
        }
        let core = if factors.len() == 1 {
            factors[0]
        } else {
            self.mk(Term::Op {
                op: TOp::Mul,
                args: factors.clone(),
            })
        };
        match konst {
            1 => core,
            -1 => self.mk_neg_raw(core),
            _ => {
                let mut v = vec![self.cst(konst)];
                v.extend(factors);
                self.mk(Term::Op {
                    op: TOp::Mul,
                    args: v,
                })
            }
        }
    }

    /// n-ary bitwise operator with constant folding, idempotence /
    /// cancellation, and identity/absorbing-element elimination.
    pub fn bitwise(&mut self, op: TOp, args: Vec<TermId>) -> TermId {
        debug_assert!(matches!(op, TOp::And | TOp::Or | TOp::Xor));
        let (identity, absorber) = match op {
            TOp::And => (-1i64, Some(0i64)),
            TOp::Or => (0, Some(-1)),
            _ => (0, None),
        };
        let mut konst = identity;
        let mut rest: Vec<TermId> = Vec::new();
        let mut stack = args;
        while let Some(a) = stack.pop() {
            match *self.term(a) {
                Term::Const(v) => {
                    konst = match op {
                        TOp::And => konst & v,
                        TOp::Or => konst | v,
                        _ => konst ^ v,
                    }
                }
                Term::Op { op: o2, ref args } if o2 == op => stack.extend_from_slice(args),
                _ => rest.push(a),
            }
        }
        if absorber == Some(konst) {
            self.steps += 1;
            return self.cst(konst);
        }
        rest.sort_unstable();
        if op == TOp::Xor {
            // pairs cancel
            let mut kept: Vec<TermId> = Vec::new();
            for a in rest {
                if kept.last() == Some(&a) {
                    self.steps += 1;
                    kept.pop();
                } else {
                    kept.push(a);
                }
            }
            rest = kept;
        } else {
            let before = rest.len();
            rest.dedup();
            if rest.len() != before {
                self.steps += 1;
            }
        }
        let mut out = Vec::with_capacity(rest.len() + 1);
        if konst != identity {
            out.push(self.cst(konst));
        }
        out.extend(rest);
        match out.len() {
            0 => self.cst(identity),
            1 => out[0],
            _ => self.mk(Term::Op { op, args: out }),
        }
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: TermId) -> TermId {
        match *self.term(a) {
            Term::Const(v) => {
                self.steps += 1;
                self.cst(!v)
            }
            Term::Op {
                op: TOp::Not,
                ref args,
            } => {
                let x = args[0];
                self.steps += 1;
                x
            }
            _ => self.mk(Term::Op {
                op: TOp::Not,
                args: vec![a],
            }),
        }
    }

    /// `!= 0` coercion; absorbed when the argument is already 0/1-valued.
    pub fn boolify(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_const(a) {
            self.steps += 1;
            return self.cst((v != 0) as i64);
        }
        if let Some((lo, hi)) = self.interval(a) {
            if lo >= 0 && hi <= 1 {
                self.steps += 1;
                return a;
            }
        }
        self.mk(Term::Op {
            op: TOp::Bool,
            args: vec![a],
        })
    }

    /// Clamp a dynamic shift amount to `0..=63`.
    pub fn sh_amt(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_const(a) {
            self.steps += 1;
            return self.cst(v.clamp(0, 63));
        }
        if matches!(self.term(a), Term::Op { op: TOp::ShAmt, .. }) {
            self.steps += 1;
            return a;
        }
        if let Some((lo, hi)) = self.interval(a) {
            if lo >= 0 && hi <= 63 {
                self.steps += 1;
                return a;
            }
        }
        self.mk(Term::Op {
            op: TOp::ShAmt,
            args: vec![a],
        })
    }

    /// Left shift; constant amounts strength-reduce to a multiplication
    /// (`x << k` ≡ `x * 2^k` mod 2^64), unifying either spelling.
    pub fn shl(&mut self, x: TermId, amt: TermId) -> TermId {
        if let Some(k) = self.as_const(amt) {
            self.steps += 1;
            let k = k.clamp(0, 63) as u32;
            let f = self.cst(1i64.wrapping_shl(k));
            return self.mul(vec![f, x]);
        }
        let amt = self.sh_amt(amt);
        if self.as_const(x) == Some(0) {
            self.steps += 1;
            return x;
        }
        self.mk(Term::Op {
            op: TOp::Shl,
            args: vec![x, amt],
        })
    }

    /// Arithmetic right shift by a clamped amount.
    pub fn shr(&mut self, x: TermId, amt: TermId) -> TermId {
        let amt = self.sh_amt(amt);
        if let (Some(v), Some(k)) = (self.as_const(x), self.as_const(amt)) {
            self.steps += 1;
            return self.cst(v >> (k.clamp(0, 63) as u32));
        }
        if self.as_const(x) == Some(0) || self.as_const(x) == Some(-1) {
            self.steps += 1;
            return x;
        }
        self.mk(Term::Op {
            op: TOp::Shr,
            args: vec![x, amt],
        })
    }

    /// Binary operator dispatch for the non-AC arithmetic/compare ops.
    pub fn op2(&mut self, op: TOp, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            if let Some(v) = fold2(op, x, y) {
                self.steps += 1;
                return self.cst(v);
            }
        }
        match op {
            TOp::Div if self.as_const(b) == Some(1) => {
                self.steps += 1;
                return a;
            }
            TOp::Rem if matches!(self.as_const(b), Some(1) | Some(-1)) => {
                self.steps += 1;
                return self.cst(0);
            }
            TOp::Slt | TOp::Sne if a == b => {
                self.steps += 1;
                return self.cst(0);
            }
            TOp::Sle | TOp::Seq if a == b => {
                self.steps += 1;
                return self.cst(1);
            }
            _ => {}
        }
        let (a, b) = if matches!(op, TOp::Seq | TOp::Sne) && a > b {
            (b, a)
        } else {
            (a, b)
        };
        self.mk(Term::Op {
            op,
            args: vec![a, b],
        })
    }

    /// `c != 0 ? t : e` with constant-condition and equal-branch folding.
    pub fn mux(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        if let Some(v) = self.as_const(c) {
            self.steps += 1;
            return if v != 0 { t } else { e };
        }
        if t == e {
            self.steps += 1;
            return t;
        }
        // Bool(c) != 0  ⟺  c != 0: drop the coercion inside a mux guard.
        let c = match *self.term(c) {
            Term::Op {
                op: TOp::Bool,
                ref args,
            } => {
                let x = args[0];
                self.steps += 1;
                x
            }
            _ => c,
        };
        if let (Some(1), Some(0)) = (self.as_const(t), self.as_const(e)) {
            if let Some((lo, hi)) = self.interval(c) {
                if lo >= 0 && hi <= 1 {
                    self.steps += 1;
                    return c;
                }
            }
        }
        self.mk(Term::Op {
            op: TOp::Mux,
            args: vec![c, t, e],
        })
    }

    /// ROM lookup.
    pub fn lut(&mut self, table: u32, idx: TermId) -> TermId {
        if let Some(i) = self.as_const(idx) {
            self.steps += 1;
            let data = &self.luts[table as usize];
            let v = if i < 0 {
                0
            } else {
                data.get(i as usize).copied().unwrap_or(0)
            };
            return self.cst(v);
        }
        self.mk(Term::Op {
            op: TOp::Lut(table),
            args: vec![idx],
        })
    }

    /// `IntType::wrap` as a term: dropped when the interval analysis proves
    /// the argument already fits, and collapsed through wider inner wraps.
    pub fn wrap(&mut self, ty: IntType, a: TermId) -> TermId {
        if ty.bits >= 64 {
            self.steps += 1;
            return a;
        }
        if let Some(v) = self.as_const(a) {
            self.steps += 1;
            return self.cst(ty.wrap(v));
        }
        if let Some((lo, hi)) = self.interval(a) {
            let (tmin, tmax) = ty_bounds(ty);
            if lo >= tmin && hi <= tmax {
                self.steps += 1;
                return a;
            }
        }
        // Wrap_b(Wrap_b2(x)) = Wrap_b(x) when b <= b2: truncation keeps the
        // low b bits, which the wider inner wrap left untouched.
        if let Term::Wrap { bits: b2, arg, .. } = *self.term(a) {
            if ty.bits <= b2 {
                self.steps += 1;
                return self.wrap(ty, arg);
            }
        }
        self.mk(Term::Wrap {
            bits: ty.bits,
            signed: ty.signed,
            arg: a,
        })
    }

    // ---- interval analysis --------------------------------------------

    /// Conservative value interval of `t` (treating leaves as ranging over
    /// their full port/slot types), or `None` when unbounded/unknown.
    pub fn interval(&mut self, t: TermId) -> Option<(i128, i128)> {
        if let Some(v) = self.intervals.get(t) {
            return v.map(|(lo, hi)| (lo as i128, hi as i128));
        }
        let r = self.interval_inner(t);
        // Every term denotes wrap64(mathematical value), while Add/Mul
        // intervals bound the *mathematical* value. Only an interval that
        // fits i64 certifies no 64-bit wrap occurred — anything wider must
        // be discarded, or downstream rules (Shr-by-constant, And/Or
        // non-negativity, the guarded-mux clamp, wrap elision) would apply
        // math-value bounds to a possibly-wrapped word.
        let r = r.filter(|&(lo, hi)| lo >= i64::MIN as i128 && hi <= i64::MAX as i128 && lo <= hi);
        self.intervals
            .insert(t, r.map(|(lo, hi)| (lo as i64, hi as i64)));
        r
    }

    fn interval_inner(&mut self, t: TermId) -> Option<(i128, i128)> {
        match *self.term(t) {
            Term::Const(v) => Some((v as i128, v as i128)),
            // A `Var` is the raw argument word: unbounded.
            Term::Var { .. } => None,
            Term::FbVar { slot, .. } => {
                let ty = *self.fb_tys.get(slot as usize)?;
                Some(ty_bounds(ty))
            }
            Term::Wrap { bits, signed, arg } => {
                let ty = if signed {
                    IntType::signed(bits)
                } else {
                    IntType::unsigned(bits)
                };
                let (tmin, tmax) = ty_bounds(ty);
                match self.interval(arg) {
                    Some((lo, hi)) if lo >= tmin && hi <= tmax => Some((lo, hi)),
                    _ => Some((tmin, tmax)),
                }
            }
            Term::Op { op, .. } => self.interval_op(op, t),
        }
    }

    fn interval_op(&mut self, op: TOp, t: TermId) -> Option<(i128, i128)> {
        let arg = |s: &Self, i: usize| s.args(t)[i];
        let n = self.args(t).len();
        match op {
            TOp::Add => {
                let mut lo = 0i128;
                let mut hi = 0i128;
                for i in 0..n {
                    let (l, h) = self.interval(arg(self, i))?;
                    lo = lo.checked_add(l)?;
                    hi = hi.checked_add(h)?;
                }
                Some((lo, hi))
            }
            TOp::Mul => {
                let (mut lo, mut hi) = (1i128, 1i128);
                for i in 0..n {
                    let (l, h) = self.interval(arg(self, i))?;
                    let cands = [
                        lo.checked_mul(l)?,
                        lo.checked_mul(h)?,
                        hi.checked_mul(l)?,
                        hi.checked_mul(h)?,
                    ];
                    lo = *cands.iter().min().unwrap();
                    hi = *cands.iter().max().unwrap();
                }
                Some((lo, hi))
            }
            TOp::Neg => {
                let (l, h) = self.interval(arg(self, 0))?;
                Some((h.checked_neg()?, l.checked_neg()?))
            }
            TOp::And => {
                // The result's set bits are a subset of every operand's, so
                // any operand known non-negative bounds it to [0, operand].
                let mut hi: Option<i128> = None;
                for i in 0..n {
                    if let Some((l, h)) = self.interval(arg(self, i)) {
                        if l >= 0 {
                            hi = Some(hi.map_or(h, |m: i128| m.min(h)));
                        }
                    }
                }
                hi.map(|h| (0, h))
            }
            TOp::Or | TOp::Xor => {
                // Or/xor of non-negative values stays below the smallest
                // power of two clearing every operand; or is also >= each.
                let mut lo = 0i128;
                let mut hi = 0i128;
                for i in 0..n {
                    let (l, h) = self.interval(arg(self, i))?;
                    if l < 0 {
                        return None;
                    }
                    if op == TOp::Or {
                        lo = lo.max(l);
                    }
                    hi = hi.max(h);
                }
                let m = 128 - (hi as u128).leading_zeros();
                Some((lo, (1i128 << m) - 1))
            }
            TOp::Slt | TOp::Sle | TOp::Seq | TOp::Sne | TOp::Bool => Some((0, 1)),
            TOp::ShAmt => Some((0, 63)),
            TOp::Mux => {
                let (c, then_arm, else_arm) = (arg(self, 0), arg(self, 1), arg(self, 2));
                let (mut tl, th) = self.interval(then_arm)?;
                let (el, eh) = self.interval(else_arm)?;
                // Guard-aware clamp: a condition `a <= b` (or `a < b`) whose
                // then-arm is canonically `b - a` proves that arm >= 0 (>= 1)
                // — the pattern restoring dividers/square roots build.
                if let Term::Op {
                    op: c_op @ (TOp::Sle | TOp::Slt),
                    ref args,
                } = *self.term(c)
                {
                    let (a, b) = (args[0], args[1]);
                    let diff = self.sub(b, a);
                    if diff == then_arm {
                        tl = tl.max(if c_op == TOp::Slt { 1 } else { 0 });
                    }
                }
                Some((tl.min(el), th.max(eh)))
            }
            TOp::Shr => {
                let (l, h) = self.interval(arg(self, 0))?;
                // An arithmetic shift by a fixed amount is monotone (floor
                // division by 2^k), so the bounds shift with the operand
                // regardless of sign.
                if let Some(k) = self.as_const(arg(self, 1)) {
                    let k = k.clamp(0, 63) as u32;
                    return Some((l >> k, h >> k));
                }
                if l >= 0 {
                    // Unknown non-negative shift of a non-negative value.
                    return Some((0, h));
                }
                None
            }
            TOp::Lut(tb) => {
                let data = &self.luts[tb as usize];
                let lo = data.iter().copied().min().unwrap_or(0).min(0);
                let hi = data.iter().copied().max().unwrap_or(0).max(0);
                Some((lo as i128, hi as i128))
            }
            _ => None,
        }
    }

    // ---- concrete evaluation ------------------------------------------

    /// Evaluates `t` over one window: `vars[p]` is the (wrapped) value of
    /// input port `p`, `fbs[s]` the (wrapped) state of slot `s`. Division
    /// by zero and out-of-range lookups follow the benign netlist semantics
    /// (0), which is safe here because candidates are always confirmed by
    /// replay.
    pub fn eval(&self, t: TermId, vars: &[i64], fbs: &[i64], cache: &mut TermMap<i64>) -> i64 {
        if let Some(v) = cache.get(t) {
            return v;
        }
        let v = match *self.term(t) {
            Term::Const(v) => v,
            Term::Var { port, .. } => vars.get(port as usize).copied().unwrap_or(0),
            Term::FbVar { slot, .. } => fbs.get(slot as usize).copied().unwrap_or(0),
            Term::Wrap { bits, signed, arg } => {
                let ty = if signed {
                    IntType::signed(bits)
                } else {
                    IntType::unsigned(bits)
                };
                ty.wrap(self.eval(arg, vars, fbs, cache))
            }
            Term::Op {
                op: op @ (TOp::Add | TOp::Mul | TOp::And | TOp::Or | TOp::Xor),
                ref args,
            } => {
                // n-ary: fold pairwise from the operator's identity.
                let mut acc = eval_op(op, &[], &self.luts);
                for &a in args {
                    let x = self.eval(a, vars, fbs, cache);
                    acc = eval_op(op, &[acc, x], &self.luts);
                }
                acc
            }
            Term::Op { op, ref args } => {
                // Every other operator takes at most three operands.
                let mut xs = [0i64; 3];
                for (x, &a) in xs.iter_mut().zip(args) {
                    *x = self.eval(a, vars, fbs, cache);
                }
                eval_op(op, &xs[..args.len()], &self.luts)
            }
        };
        cache.insert(t, v);
        v
    }
}

/// Constant folding for binary non-AC ops; `None` when undefined (faulting).
fn fold2(op: TOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        TOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        TOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        TOp::Slt => (a < b) as i64,
        TOp::Sle => (a <= b) as i64,
        TOp::Seq => (a == b) as i64,
        TOp::Sne => (a != b) as i64,
        TOp::Shl => a.wrapping_shl(b.clamp(0, 63) as u32),
        TOp::Shr => a >> (b.clamp(0, 63) as u32),
        _ => return None,
    })
}

/// Operator semantics for the concrete evaluator.
fn eval_op(op: TOp, xs: &[i64], luts: &[Vec<i64>]) -> i64 {
    match op {
        TOp::Add => xs.iter().fold(0i64, |a, &b| a.wrapping_add(b)),
        TOp::Mul => xs.iter().fold(1i64, |a, &b| a.wrapping_mul(b)),
        TOp::And => xs.iter().fold(-1i64, |a, &b| a & b),
        TOp::Or => xs.iter().fold(0i64, |a, &b| a | b),
        TOp::Xor => xs.iter().fold(0i64, |a, &b| a ^ b),
        TOp::Neg => xs[0].wrapping_neg(),
        TOp::Not => !xs[0],
        TOp::Bool => (xs[0] != 0) as i64,
        TOp::ShAmt => xs[0].clamp(0, 63),
        TOp::Shl => xs[0].wrapping_shl(xs[1].clamp(0, 63) as u32),
        TOp::Shr => xs[0] >> (xs[1].clamp(0, 63) as u32),
        TOp::Div => {
            if xs[1] == 0 {
                0
            } else {
                xs[0].wrapping_div(xs[1])
            }
        }
        TOp::Rem => {
            if xs[1] == 0 {
                0
            } else {
                xs[0].wrapping_rem(xs[1])
            }
        }
        TOp::Slt => (xs[0] < xs[1]) as i64,
        TOp::Sle => (xs[0] <= xs[1]) as i64,
        TOp::Seq => (xs[0] == xs[1]) as i64,
        TOp::Sne => (xs[0] != xs[1]) as i64,
        TOp::Mux => {
            if xs[0] != 0 {
                xs[1]
            } else {
                xs[2]
            }
        }
        TOp::Lut(t) => {
            let i = xs[0];
            if i < 0 {
                0
            } else {
                luts[t as usize].get(i as usize).copied().unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TermStore {
        TermStore::new(vec![IntType::int(), IntType::int(), IntType::int()], vec![])
    }

    #[test]
    fn add_is_commutative_and_folds() {
        let mut s = store();
        let a = s.var(0);
        let b = s.var(1);
        let c2 = s.cst(2);
        let c3 = s.cst(3);
        let l = s.add(vec![a, c2, b, c3]);
        let r = s.add(vec![c3, b, c2, a]);
        assert_eq!(l, r);
    }

    #[test]
    fn sub_cancels_and_coefficients_merge() {
        let mut s = store();
        let a = s.var(0);
        let z = s.sub(a, a);
        assert_eq!(s.term(z), &Term::Const(0));
        // a + a + a == 3*a
        let t = s.add(vec![a, a, a]);
        let c3 = s.cst(3);
        let m = s.mul(vec![c3, a]);
        assert_eq!(t, m);
    }

    #[test]
    fn shl_is_mul_by_power_of_two() {
        let mut s = store();
        let a = s.var(0);
        let k = s.cst(3);
        let sh = s.shl(a, k);
        let c8 = s.cst(8);
        let m = s.mul(vec![c8, a]);
        assert_eq!(sh, m);
    }

    #[test]
    fn wrap_drops_when_interval_fits() {
        let mut s = store();
        let a = s.var(0);
        let w32 = s.wrap(IntType::signed(32), a);
        assert_ne!(w32, a); // raw word: the first wrap matters
        let w40 = s.wrap(IntType::signed(40), w32);
        assert_eq!(w40, w32); // an i32 value always fits 40 bits
        let w16 = s.wrap(IntType::signed(16), w32);
        assert_ne!(w16, w32);
    }

    #[test]
    fn mulhi_wrap_is_not_elided() {
        // Regression: interval(u32*u32) bounds the *mathematical* product
        // [0, (2^32-1)^2], which exceeds i64 — the term's actual word is
        // the wrapped product and may be negative. The interval must be
        // discarded, so the 33-bit wrap after `>> 32` (the mulhi idiom's
        // width change) survives in the symbolic model.
        let mut s = store();
        let a = s.var(0);
        let b = s.var(1);
        let x = s.wrap(IntType::unsigned(32), a);
        let y = s.wrap(IntType::unsigned(32), b);
        let m = s.mul(vec![x, y]);
        assert_eq!(s.interval(m), None);
        let k = s.cst(32);
        let sh = s.shr(m, k);
        assert_eq!(s.interval(sh), None);
        let w = s.wrap(IntType::unsigned(33), sh);
        assert_ne!(w, sh);
        // At a = b = 2^32 - 1 the wrapped product is negative: the shift
        // yields -2 and the retained u33 wrap restores 8589934590.
        let v = u32::MAX as i64;
        let mut cache = TermMap::new();
        assert_eq!(s.eval(sh, &[v, v], &[], &mut cache), -2);
        assert_eq!(s.eval(w, &[v, v], &[], &mut cache), 8589934590);
    }

    #[test]
    fn xor_pairs_cancel() {
        let mut s = store();
        let a = s.var(0);
        let b = s.var(1);
        let x = s.bitwise(TOp::Xor, vec![a, b, a]);
        assert_eq!(x, b);
    }

    #[test]
    fn eval_matches_wrapping_semantics() {
        let mut s = store();
        let a = s.var(0);
        let b = s.var(1);
        let m = s.mul(vec![a, b]);
        let t = s.add(vec![m, a]);
        let mut cache = TermMap::new();
        let v = s.eval(t, &[7, -3], &[], &mut cache);
        assert_eq!(v, 7i64.wrapping_mul(-3) + 7);
    }

    #[test]
    fn or_interval_bounds_nonnegative_operands() {
        let mut s = store();
        let a = s.var(0);
        let x = s.wrap(IntType::unsigned(8), a); // [0, 255]
        let b = s.var(1);
        let y = s.wrap(IntType::unsigned(4), b); // [0, 15]
        let o = s.bitwise(TOp::Or, vec![x, y]);
        assert_eq!(s.interval(o), Some((0, 255)));
        // A 9-bit wrap of the or therefore drops.
        let w = s.wrap(IntType::unsigned(9), o);
        assert_eq!(w, o);
    }

    #[test]
    fn guarded_subtract_mux_is_nonnegative() {
        let mut s = store();
        let a = s.var(0);
        let x = s.wrap(IntType::unsigned(8), a); // [0, 255]
        let b = s.var(1);
        let y = s.wrap(IntType::unsigned(8), b); // [0, 255]
        let c = s.op2(TOp::Sle, y, x); // y <= x
        let d = s.sub(x, y); // unguarded: [-255, 255]
        assert_eq!(s.interval(d), Some((-255, 255)));
        // ... but the restoring-step mux proves the subtract arm >= 0.
        let m = s.mux(c, d, x);
        assert_eq!(s.interval(m), Some((0, 255)));
    }
}
