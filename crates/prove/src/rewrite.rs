//! Care-bits normalization.
//!
//! `normalize(store, t, care)` rebuilds `t` through the store's smart
//! constructors while tracking how many low bits of each subterm can
//! influence the observed result (`care`, 1..=64). Two guarantees:
//!
//! - **Soundness**: the normal form agrees with `t` modulo 2^care, so
//!   `normalize(l, b) == normalize(r, b)` implies `l ≡ r (mod 2^b)` and
//!   hence `Wrap_b(l) == Wrap_b(r)`.
//! - **Width-change absorption**: a `Wrap` to `b` bits disappears whenever
//!   only `care <= b` low bits are observed downstream — this is what closes
//!   the narrowing obligations introduced by `--range-narrow`, without
//!   needing the compiler's own range facts to be trusted.
//!
//! Care propagation: `Add`/bitwise/`Neg`/`Not` pass `care` through
//! (mod-2^care arithmetic is closed under them); a `Mul` whose constant
//! factor has `k` trailing zero bits narrows the other factors to
//! `care − k` (the product is ≡ 0 once `k ≥ care`) — constant shifts reach
//! the rewriter as such products, so `x << k` observed at `care` bits needs
//! only `care − k` bits of `x`; `Shl` by a dynamic amount passes `care` to
//! the shifted value; `Shr` by a constant `k` widens the operand's context
//! to `care + k` (bits k..k+care are what's observed); an `And` with a
//! constant mask narrows the other operands to the mask's top set bit;
//! comparisons, divisions, dynamic shift amounts, mux conditions and LUT
//! indices are exact contexts (`care = 64`).
//! Constants are canonicalized to their sign-extended `care`-bit image, so
//! coefficients that vanish mod 2^care drop out of sums and products.

use roccc_cparse::hash::FxHashMap;
use roccc_cparse::types::IntType;

use crate::term::{TOp, Term, TermId, TermStore};

/// Memo table for [`normalize`] — keyed by `(term, care)`.
pub type NormCache = FxHashMap<(TermId, u8), TermId>;

/// Normalizes `t` under `care` observed low bits (see module docs).
pub fn normalize(store: &mut TermStore, t: TermId, care: u8, cache: &mut NormCache) -> TermId {
    let care = care.min(64);
    if let Some(&r) = cache.get(&(t, care)) {
        return r;
    }
    let r = match *store.term(t) {
        Term::Var { .. } | Term::FbVar { .. } => t,
        Term::Const(v) => {
            if care < 64 {
                store.cst(IntType::signed(care.max(1)).wrap(v))
            } else {
                t
            }
        }
        Term::Wrap { bits, signed, arg } => {
            if bits >= care {
                // Only `care <= bits` low bits are observed, and the wrap
                // leaves them untouched: absorb it.
                store.steps += 1;
                normalize(store, arg, care, cache)
            } else {
                let inner = normalize(store, arg, bits, cache);
                let ty = if signed {
                    IntType::signed(bits)
                } else {
                    IntType::unsigned(bits)
                };
                store.wrap(ty, inner)
            }
        }
        Term::Op { op, .. } => normalize_op(store, t, op, care, cache),
    };
    cache.insert((t, care), r);
    r
}

/// Normalizes every operand of the `Op` node `t`, each under the care
/// width `care_of` picks for it (the operand is indexed, not cloned, so
/// the store stays free for the recursive calls).
fn norm_args(
    store: &mut TermStore,
    t: TermId,
    cache: &mut NormCache,
    care_of: impl Fn(&TermStore, TermId) -> u8,
) -> Vec<TermId> {
    let n = store.args(t).len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = store.args(t)[i];
        let care = care_of(store, a);
        out.push(normalize(store, a, care, cache));
    }
    out
}

/// The `Op` arm of [`normalize`]: care propagation per operator.
fn normalize_op(
    store: &mut TermStore,
    t: TermId,
    op: TOp,
    care: u8,
    cache: &mut NormCache,
) -> TermId {
    let arg = |s: &TermStore, i: usize| s.args(t)[i];
    match op {
        TOp::Add => {
            let na = norm_args(store, t, cache, |_, _| care);
            store.add(na)
        }
        TOp::Mul => {
            // A constant factor `c = c'·2^k` (k trailing zeros) narrows
            // the other factors to `care − k` bits: if
            // `x ≡ x' (mod 2^(care−k))` then the product P of the
            // non-constant factors agrees mod 2^(care−k) as well
            // (mod-2^m arithmetic is closed under products), and
            // `c'·2^k·(P + m·2^(care−k)) = c'·2^k·P + c'·m·2^care`.
            // So `c·P mod 2^care` depends only on each factor's low
            // `care − k` bits, whatever the sign of `c'`. When `k ≥ care`
            // the product is ≡ 0. The constant itself stays at `care`.
            let k: u32 = store
                .args(t)
                .iter()
                .filter_map(|&a| store.as_const(a))
                .map(|v| v.trailing_zeros())
                .sum();
            if k >= care as u32 {
                store.steps += 1;
                return store.cst(0);
            }
            let care_x = care - k as u8;
            let na = norm_args(store, t, cache, |s, a| {
                if s.as_const(a).is_some() {
                    care
                } else {
                    care_x
                }
            });
            store.mul(na)
        }
        TOp::And => {
            // A constant mask zeroes every result bit above its top set
            // bit, so the other operands only need that many low bits.
            // The mask itself must stay exact — its zeros are
            // load-bearing.
            let window = if care < 64 { (1u64 << care) - 1 } else { !0 };
            let mask = store
                .args(t)
                .iter()
                .filter_map(|&a| store.as_const(a))
                .fold(!0u64, |m, v| m & v as u64);
            let need = (64 - (mask & window).leading_zeros()) as u8;
            let care_x = care.min(need.max(1));
            let na = norm_args(store, t, cache, |s, a| {
                if s.as_const(a).is_some() {
                    care
                } else {
                    care_x
                }
            });
            store.bitwise(op, na)
        }
        TOp::Or | TOp::Xor => {
            let na = norm_args(store, t, cache, |_, _| care);
            store.bitwise(op, na)
        }
        TOp::Neg => {
            let a = normalize(store, arg(store, 0), care, cache);
            store.neg(a)
        }
        TOp::Not => {
            let a = normalize(store, arg(store, 0), care, cache);
            store.not(a)
        }
        TOp::Bool => {
            let a = normalize(store, arg(store, 0), 64, cache);
            store.boolify(a)
        }
        TOp::ShAmt => {
            let a = normalize(store, arg(store, 0), 64, cache);
            store.sh_amt(a)
        }
        TOp::Shl => {
            // Low `care` bits of `x << amt` depend only on the low `care`
            // bits of `x` (left shifts move bits upward).
            let (x0, a0) = (arg(store, 0), arg(store, 1));
            let x = normalize(store, x0, care, cache);
            let a = normalize(store, a0, 64, cache);
            store.shl(x, a)
        }
        TOp::Shr => {
            // Low `care` bits of `x >> k` are bits k..k+care of `x`, so a
            // constant amount narrows the operand's context to
            // `care + k`; dynamic amounts stay exact.
            let (x0, a0) = (arg(store, 0), arg(store, 1));
            let a = normalize(store, a0, 64, cache);
            let care_x = match store.as_const(a) {
                Some(k) if (0..=63).contains(&k) => care.saturating_add(k as u8).min(64),
                _ => 64,
            };
            let x = normalize(store, x0, care_x, cache);
            store.shr(x, a)
        }
        TOp::Div | TOp::Rem | TOp::Slt | TOp::Sle | TOp::Seq | TOp::Sne => {
            let (a0, b0) = (arg(store, 0), arg(store, 1));
            let a = normalize(store, a0, 64, cache);
            let b = normalize(store, b0, 64, cache);
            store.op2(op, a, b)
        }
        TOp::Mux => {
            let (c0, x0, y0) = (arg(store, 0), arg(store, 1), arg(store, 2));
            let c = normalize(store, c0, 64, cache);
            let x = normalize(store, x0, care, cache);
            let y = normalize(store, y0, care, cache);
            store.mux(c, x, y)
        }
        TOp::Lut(tb) => {
            let i = normalize(store, arg(store, 0), 64, cache);
            store.lut(tb, i)
        }
    }
}

/// Proves `l ≡ r (mod 2^bits)` by normalization alone; identical terms
/// are equal without it.
pub fn equal_mod(
    store: &mut TermStore,
    l: TermId,
    r: TermId,
    bits: u8,
    cache: &mut NormCache,
) -> bool {
    l == r || normalize(store, l, bits, cache) == normalize(store, r, bits, cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TermStore {
        TermStore::new(vec![IntType::int(), IntType::int()], vec![])
    }

    #[test]
    fn wrap_absorbed_under_narrow_care() {
        let mut s = store();
        let a = s.var(0);
        let b = s.var(1);
        let sum = s.add(vec![a, b]);
        // i32 wrap of (a + b), observed at 16 bits ≡ a + b at 16 bits.
        let wrapped = s.mk(Term::Wrap {
            bits: 32,
            signed: true,
            arg: sum,
        });
        let mut c = NormCache::default();
        assert!(equal_mod(&mut s, wrapped, sum, 16, &mut c));
        // ... but not at 64 bits (the wrap matters there).
        assert!(!equal_mod(&mut s, wrapped, sum, 64, &mut c));
    }

    #[test]
    fn coefficient_vanishes_mod_care() {
        let mut s = store();
        let a = s.var(0);
        let b = s.var(1);
        let c256 = s.cst(256);
        let m = s.mul(vec![c256, b]);
        let l = s.add(vec![a, m]);
        let mut c = NormCache::default();
        // At 8 observed bits the 256*b term contributes nothing.
        assert!(equal_mod(&mut s, l, a, 8, &mut c));
        assert!(!equal_mod(&mut s, l, a, 16, &mut c));
    }

    #[test]
    fn masked_constant_sign_extends() {
        let mut s = store();
        let a = s.var(0);
        let mask = s.cst(0xFF);
        let masked = s.bitwise(TOp::And, vec![a, mask]);
        let mut c = NormCache::default();
        // At care 8, the 0xFF mask becomes -1 and drops.
        assert!(equal_mod(&mut s, masked, a, 8, &mut c));
    }

    #[test]
    fn shr_constant_widens_operand_context() {
        let mut s = store();
        let x = s.var(0);
        let w = s.mk(Term::Wrap {
            bits: 24,
            signed: false,
            arg: x,
        });
        let k = s.cst(22);
        let l = s.shr(w, k);
        let r = s.shr(x, k);
        let mut c = NormCache::default();
        // Observed at 1 bit, only bits 22..23 of x matter — inside the 24.
        assert!(equal_mod(&mut s, l, r, 1, &mut c));
        assert!(!equal_mod(&mut s, l, r, 64, &mut c));
    }

    #[test]
    fn and_mask_narrows_other_operands() {
        let mut s = store();
        let x = s.var(0);
        let w = s.mk(Term::Wrap {
            bits: 8,
            signed: false,
            arg: x,
        });
        let one = s.cst(1);
        let l = s.bitwise(TOp::And, vec![one, w]);
        let r = s.bitwise(TOp::And, vec![one, x]);
        let mut c = NormCache::default();
        // The mask keeps only bit 0, which the 8-bit wrap never touches.
        assert!(equal_mod(&mut s, l, r, 64, &mut c));
    }

    fn wrap(s: &mut TermStore, bits: u8, signed: bool, arg: TermId) -> TermId {
        s.mk(Term::Wrap { bits, signed, arg })
    }

    #[test]
    fn constant_multiplier_narrows_factor_care() {
        // The udiv quotient step: `Mul(2, Ws7(x))` at care 8 only sees
        // x's low 7 bits, which the 7-bit wrap leaves alone.
        let mut s = store();
        let x = s.var(0);
        let w7 = wrap(&mut s, 7, true, x);
        let two = s.cst(2);
        let l = s.mul(vec![two, w7]);
        let r = s.mul(vec![two, x]);
        let mut c = NormCache::default();
        assert!(equal_mod(&mut s, l, r, 8, &mut c));
        // At care 9 bit 7 of x reaches bit 8 of the product, and the
        // wrap replaces it by a sign copy: not equal.
        assert!(!equal_mod(&mut s, l, r, 9, &mut c));
        // Concretely: x = 0x40 differs after the wrap at bit 7 → bit 8.
        let mut e = crate::term::TermMap::new();
        let lv = s.eval(l, &[0x40], &[], &mut e);
        e.clear();
        let rv = s.eval(r, &[0x40], &[], &mut e);
        assert_eq!(lv & 0xFF, rv & 0xFF);
        assert_ne!(lv & 0x1FF, rv & 0x1FF);
    }

    #[test]
    fn negative_even_coefficient_narrows_like_positive() {
        let mut s = store();
        let x = s.var(0);
        let w7 = wrap(&mut s, 7, true, x);
        let m2 = s.cst(-2);
        let l = s.mul(vec![m2, w7]);
        let r = s.mul(vec![m2, x]);
        let mut c = NormCache::default();
        assert!(equal_mod(&mut s, l, r, 8, &mut c));
        assert!(!equal_mod(&mut s, l, r, 9, &mut c));
    }

    #[test]
    fn constant_multiplier_narrows_every_factor() {
        // 4·x·y at care 8 needs 6 bits of each factor.
        let mut s = store();
        let x = s.var(0);
        let y = s.var(1);
        let wx = wrap(&mut s, 6, false, x);
        let wy = wrap(&mut s, 6, true, y);
        let four = s.cst(4);
        let l = s.mul(vec![four, wx, wy]);
        let r = s.mul(vec![four, x, y]);
        let mut c = NormCache::default();
        assert!(equal_mod(&mut s, l, r, 8, &mut c));
        assert!(!equal_mod(&mut s, l, r, 9, &mut c));
    }

    #[test]
    fn product_vanishes_when_shift_covers_care() {
        let mut s = store();
        let x = s.var(0);
        let c256 = s.cst(256);
        let l = s.mul(vec![c256, x]);
        let zero = s.cst(0);
        let mut c = NormCache::default();
        assert!(equal_mod(&mut s, l, zero, 8, &mut c));
        assert!(!equal_mod(&mut s, l, zero, 9, &mut c));
    }

    #[test]
    fn nested_wraps_collapse() {
        let mut s = store();
        let a = s.var(0);
        let big = s.cst(1i64 << 40);
        let sum = s.add(vec![a, big]);
        let w32 = s.mk(Term::Wrap {
            bits: 32,
            signed: true,
            arg: sum,
        });
        let w16 = s.mk(Term::Wrap {
            bits: 16,
            signed: true,
            arg: w32,
        });
        let direct = s.mk(Term::Wrap {
            bits: 16,
            signed: true,
            arg: sum,
        });
        let mut c = NormCache::default();
        assert!(equal_mod(&mut s, w16, direct, 64, &mut c));
    }
}
