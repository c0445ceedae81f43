//! Data-path-phase checks: acyclicity, staging and bit-width soundness.
//!
//! The pipelined data path (§4.2.2–§4.2.3) must stay a DAG — the one
//! legal feedback loop, `LPR → … → SNX`, is latched through a
//! [`Datapath::feedback`] slot and never appears as an operand edge —
//! stages must be monotone along every edge, and the narrowed hardware
//! widths must still satisfy every consumer's demand (§5's
//! port-size-and-opcode narrowing, re-derived here independently).

use crate::diag::{Diagnostic, Loc, Phase};
use roccc_datapath::graph::{D001_COMB_CYCLE, D002_MISSING_REF, D008_BAD_ARITY};
use roccc_datapath::{Datapath, Value};
use roccc_suifvm::ir::Opcode;

fn err(code: &'static str, op: u32, msg: String) -> Diagnostic {
    Diagnostic::error(Phase::Datapath, code, Loc::Op(op), msg)
}

/// Runs every datapath-phase check over `dp` and returns the findings
/// (empty = clean).
///
/// First come the structural violations of [`Datapath::violations`],
/// the checks `Datapath::verify` runs on every compile, as errors under
/// their own codes (`D001`–`D005`, `D008`; see the constants in
/// [`roccc_datapath::graph`]). A broken reference or operand count
/// (`D001`, `D002`, `D008`) ends the walk there. Then the widths:
///
/// * `D006-width-bounds` — `hw_bits` of 0 or wider than the exact type,
///   or a comparison not exactly 1 bit;
/// * `D007-width-demand` — a producer narrower than what one of its
///   consumers observes, so narrowing changed the computed value (a
///   producer whose proven range fits its `hw_bits` is exempt: its wire
///   holds the exact value no matter the demand).
///
/// When ops carry range annotations (range-driven narrowing was on), the
/// `W0xx` family additionally checks the annotations themselves:
///
/// * `W003-exact-operand-narrowed` — an exact-value consumer (divide,
///   remainder, comparison, LUT index, variable shift) reads an operand
///   wire too narrow to be exact: the producer is below its forward width
///   and has no proven range fitting its `hw_bits`;
/// * `W004-range-escapes-type` — a range annotation is malformed
///   (`lo > hi`, an inconsistent known-zero mask) or claims values outside
///   the op's declared sub-64-bit type.
pub fn verify_datapath(dp: &Datapath) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = dp
        .violations()
        .into_iter()
        .map(|v| Diagnostic::structural(Phase::Datapath, v))
        .collect();
    // The width logic below indexes through the references.
    if out
        .iter()
        .any(|d| [D001_COMB_CYCLE, D002_MISSING_REF, D008_BAD_ARITY].contains(&d.code))
    {
        return out;
    }

    // --- Widths ---------------------------------------------------------
    for (i, op) in dp.ops.iter().enumerate() {
        if op.hw_bits == 0 || op.hw_bits > op.ty.bits {
            out.push(err(
                "D006-width-bounds",
                i as u32,
                format!(
                    "op{i} ({}) narrowed to {} bits outside 1..={} (exact type {})",
                    op.op, op.hw_bits, op.ty.bits, op.ty
                ),
            ));
        }
        if op.op.is_comparison() && op.hw_bits != 1 {
            out.push(err(
                "D006-width-bounds",
                i as u32,
                format!(
                    "op{i} ({}) is a comparison but is {} bits wide, expected 1",
                    op.op, op.hw_bits
                ),
            ));
        }
        if let Some(r) = op.range {
            if r.lo > r.hi {
                out.push(err(
                    "W004-range-escapes-type",
                    i as u32,
                    format!("op{i} ({}) carries empty range [{}, {}]", op.op, r.lo, r.hi),
                ));
            } else if (r.lo < 0 && r.known_zero != 0)
                || (r.lo >= 0 && r.hi > (!r.known_zero & (i64::MAX as u64)) as i64)
            {
                out.push(err(
                    "W004-range-escapes-type",
                    i as u32,
                    format!(
                        "op{i} ({}) range [{}, {}] contradicts known-zero mask {:#x}",
                        op.op, r.lo, r.hi, r.known_zero
                    ),
                ));
            } else if op.ty.bits < roccc_cparse::types::IntType::MAX_BITS
                && (r.lo < op.ty.min_value() || r.hi > op.ty.max_value())
            {
                out.push(err(
                    "W004-range-escapes-type",
                    i as u32,
                    format!(
                        "op{i} ({}) range [{}, {}] escapes its declared type {}",
                        op.op, r.lo, r.hi, op.ty
                    ),
                ));
            }
        }
    }
    check_width_demand(dp, &mut out);

    out
}

/// Re-derives the backward demand of every operation from the *actual*
/// consumer widths (rather than trusting the narrowing pass) and flags
/// any producer too narrow to satisfy it. The propagation rules mirror
/// `roccc_datapath::narrow_widths` exactly — this is the independent
/// soundness half of that optimization.
fn check_width_demand(dp: &Datapath, out: &mut Vec<Diagnostic>) {
    let n = dp.ops.len();
    let mut demand: Vec<u8> = vec![0; n];
    let demand_value = |demand: &mut Vec<u8>, v: Value, bits: u8| {
        if let Value::Op(o) = v {
            let i = o.0 as usize;
            demand[i] = demand[i].max(bits);
        }
    };
    let src_full = |v: &Value| -> u8 {
        match v {
            Value::Op(o) => dp.ops[o.0 as usize].ty.bits,
            Value::Input(k) => dp.inputs[*k].1.bits,
            Value::Const(c) => roccc_cparse::types::IntType::width_for(*c, *c < 0),
        }
    };
    // What an exact-value consumer must demand of `v` — mirrors the
    // `exact_demand` rule in `narrow_widths`: the full forward width, or
    // the bits of the producer's proven range when it has one (a wire
    // wide enough for the whole range carries the exact value).
    let exact_demand = |v: &Value| -> u8 {
        let full = src_full(v);
        match v {
            Value::Op(o) => {
                let src = &dp.ops[o.0 as usize];
                src.range
                    .map(|r| r.bits(src.ty.signed).max(1).min(full))
                    .unwrap_or(full)
            }
            _ => full,
        }
    };
    // Whether the wire of operand `v` provably carries the exact value:
    // full forward width, or narrowed but covered by a proven range.
    // (`Input`s and `Const`s are always exact.)
    let exact_wire = |v: &Value| -> bool {
        match v {
            Value::Op(o) => {
                let src = &dp.ops[o.0 as usize];
                src.hw_bits >= src.ty.bits
                    || src
                        .range
                        .is_some_and(|r| src.hw_bits >= r.bits(src.ty.signed).max(1))
            }
            _ => true,
        }
    };
    let exact_err = |out: &mut Vec<Diagnostic>, i: usize, op: &roccc_datapath::DpOp, v: &Value| {
        if !exact_wire(v) {
            out.push(err(
                "W003-exact-operand-narrowed",
                i as u32,
                format!(
                    "op{i} ({}) needs the exact value of {v:?}, but that wire is narrower \
                     than its forward width and no proven range covers it",
                    op.op
                ),
            ));
        }
    };

    for port in &dp.outputs {
        demand_value(&mut demand, port.value, port.ty.bits);
    }
    for (slot, v) in &dp.feedback {
        demand_value(&mut demand, *v, slot.ty.bits);
    }

    for i in (0..n).rev() {
        let op = &dp.ops[i];
        // A comparison only ever produces 0 or 1, so 1 bit is always
        // enough no matter how wide the observer; everything else must
        // cover the demand up to its exact (never-wrapping) type width.
        let cap = if op.op.is_comparison() { 1 } else { op.ty.bits };
        let need = demand[i].min(cap).max(1);
        // A proven range fitting `hw_bits` makes the wire exact, which
        // satisfies any demand — the wrap-free escape range narrowing
        // relies on.
        let range_exact = op
            .range
            .is_some_and(|r| op.hw_bits >= r.bits(op.ty.signed).max(1));
        if op.hw_bits < need && !range_exact {
            out.push(err(
                "D007-width-demand",
                i as u32,
                format!(
                    "op{i} ({}) is {} bits wide but its consumers observe {need} bits; \
                     narrowing changed the computed value",
                    op.op, op.hw_bits
                ),
            ));
        }

        // Push this op's observation down to its operands, using the width
        // it is actually built at.
        let hw = op.hw_bits.max(1);
        match op.op {
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Not
            | Opcode::Neg
            | Opcode::Mov => {
                for s in &op.srcs {
                    demand_value(&mut demand, *s, hw.min(src_full(s)));
                }
            }
            Opcode::Shl => match op.srcs.get(1) {
                Some(Value::Const(c)) if *c >= 0 => {
                    demand_value(&mut demand, op.srcs[0], hw.saturating_sub(*c as u8).max(1));
                }
                _ => {
                    // Variable shifts need exact operand values.
                    for s in &op.srcs {
                        exact_err(out, i, op, s);
                        demand_value(&mut demand, *s, exact_demand(s));
                    }
                }
            },
            Opcode::Shr => match op.srcs.get(1) {
                Some(Value::Const(c)) if *c >= 0 => {
                    let need = hw
                        .saturating_add(*c as u8)
                        .min(src_full(&op.srcs[0]))
                        // A wrap-free operand wire always suffices: the
                        // exact value shifts to the exact result.
                        .min(exact_demand(&op.srcs[0]).max(hw));
                    demand_value(&mut demand, op.srcs[0], need);
                }
                _ => {
                    for s in &op.srcs {
                        exact_err(out, i, op, s);
                        demand_value(&mut demand, *s, exact_demand(s));
                    }
                }
            },
            Opcode::Cvt => demand_value(&mut demand, op.srcs[0], hw.min(op.ty.bits)),
            Opcode::Mux => {
                demand_value(&mut demand, op.srcs[0], 1);
                demand_value(&mut demand, op.srcs[1], hw.min(src_full(&op.srcs[1])));
                demand_value(&mut demand, op.srcs[2], hw.min(src_full(&op.srcs[2])));
            }
            // Exact-value consumers observe their operands' exact values:
            // the full forward width, or the proven-range width when the
            // producer carries one.
            Opcode::Div
            | Opcode::Rem
            | Opcode::Slt
            | Opcode::Sle
            | Opcode::Seq
            | Opcode::Sne
            | Opcode::Bool
            | Opcode::Lut => {
                for s in &op.srcs {
                    exact_err(out, i, op, s);
                    demand_value(&mut demand, *s, exact_demand(s));
                }
            }
            Opcode::Lpr | Opcode::Arg | Opcode::Ldc | Opcode::Snx => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;
    use roccc_datapath::{
        build_datapath, narrow_widths, pipeline_datapath, DefaultDelayModel, OpId,
    };
    use roccc_suifvm::{lower_function, optimize, to_ssa};

    fn dp_of(src: &str, func: &str, period: f64) -> Datapath {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let mut dp = build_datapath(&ir).unwrap();
        pipeline_datapath(&mut dp, period, &DefaultDelayModel);
        narrow_widths(&mut dp);
        dp
    }

    const DEEP: &str = "void f(int a, int b, int* o) { *o = (a * b) * (a + b) * 3 + a; }";

    #[test]
    fn clean_pipelined_datapath_passes() {
        let dp = dp_of(DEEP, "f", 4.0);
        assert!(dp.num_stages > 1, "want a multi-stage pipeline");
        assert_eq!(verify_datapath(&dp), vec![]);
    }

    #[test]
    fn forward_reference_is_a_comb_cycle() {
        let mut dp = dp_of(DEEP, "f", 1000.0);
        let last = OpId(dp.ops.len() as u32 - 1);
        dp.ops[0].srcs[0] = Value::Op(last);
        let diags = verify_datapath(&dp);
        assert!(
            diags.iter().any(|d| d.code == "D001-comb-cycle"),
            "{diags:?}"
        );
    }

    #[test]
    fn stage_inversion_is_reported() {
        let mut dp = dp_of(DEEP, "f", 4.0);
        // Pull the last op (latest stage) into stage 0: its operands now
        // come from later stages.
        let last = dp.ops.len() - 1;
        assert!(dp.ops[last].stage > 0);
        dp.ops[last].stage = 0;
        let diags = verify_datapath(&dp);
        assert!(
            diags.iter().any(|d| d.code == "D003-stage-inversion"),
            "{diags:?}"
        );
    }

    #[test]
    fn stage_out_of_range_is_reported() {
        let mut dp = dp_of(DEEP, "f", 1000.0);
        let last = dp.ops.len() - 1;
        dp.ops[last].stage = dp.num_stages + 3;
        let diags = verify_datapath(&dp);
        assert!(
            diags.iter().any(|d| d.code == "D004-stage-range"),
            "{diags:?}"
        );
    }

    #[test]
    fn over_narrowed_width_is_reported() {
        let mut dp = dp_of(DEEP, "f", 1000.0);
        // Shrink the op driving the 32-bit output below its demand.
        let driven = match dp.outputs[0].value {
            Value::Op(o) => o.0 as usize,
            _ => panic!("expected op-driven output"),
        };
        dp.ops[driven].hw_bits = 3;
        let diags = verify_datapath(&dp);
        assert!(
            diags.iter().any(|d| d.code == "D007-width-demand"),
            "{diags:?}"
        );
    }

    #[test]
    fn zero_width_is_reported() {
        let mut dp = dp_of(DEEP, "f", 1000.0);
        dp.ops[0].hw_bits = 0;
        let diags = verify_datapath(&dp);
        assert!(
            diags.iter().any(|d| d.code == "D006-width-bounds"),
            "{diags:?}"
        );
    }

    /// Build a range-annotated, range-narrowed datapath with the given
    /// input intervals.
    fn dp_ranged(src: &str, func: &str, inputs: &[Option<(i64, i64)>]) -> Datapath {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let ranges = roccc_suifvm::range::analyze_with_inputs(&ir, inputs);
        let mut dp = roccc_datapath::build_datapath_ranged(&ir, Some(&ranges)).unwrap();
        pipeline_datapath(&mut dp, 1000.0, &DefaultDelayModel);
        narrow_widths(&mut dp);
        dp
    }

    const RANGED: &str = "void f(int a, int b, int* o) { *o = (a + b < 12) ? a : b; }";

    #[test]
    fn range_narrowed_datapath_passes_with_wrap_free_escape() {
        // With inputs pinned to [0, 7], the add feeding the comparison
        // narrows to its range width (4 bits), far below its 33-bit
        // forward type — the wrap-free escape must keep D007 quiet and
        // the annotations must satisfy W003/W004.
        let dp = dp_ranged(RANGED, "f", &[Some((0, 7)), Some((0, 7))]);
        let add = dp.ops.iter().find(|o| o.op == Opcode::Add).unwrap();
        assert!(
            add.hw_bits < add.ty.bits,
            "expected range narrowing below {} bits, got {}",
            add.ty.bits,
            add.hw_bits
        );
        assert_eq!(verify_datapath(&dp), vec![]);
    }

    #[test]
    fn exact_consumer_of_unranged_narrow_wire_is_w003() {
        let mut dp = dp_ranged(RANGED, "f", &[Some((0, 7)), Some((0, 7))]);
        // Strip the annotation that justified the narrow add: its
        // comparison consumer can no longer trust the wire.
        let add = dp.ops.iter().position(|o| o.op == Opcode::Add).unwrap();
        assert!(dp.ops[add].hw_bits < dp.ops[add].ty.bits);
        dp.ops[add].range = None;
        let diags = verify_datapath(&dp);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "W003-exact-operand-narrowed"),
            "{diags:?}"
        );
    }

    #[test]
    fn corrupt_range_annotation_is_w004() {
        let dp = dp_ranged(RANGED, "f", &[Some((0, 7)), Some((0, 7))]);
        let add = dp.ops.iter().position(|o| o.op == Opcode::Add).unwrap();
        // Empty interval.
        let mut bad = dp.clone();
        bad.ops[add].range = Some(roccc_suifvm::range::ValueRange {
            lo: 5,
            hi: 4,
            known_zero: 0,
        });
        let diags = verify_datapath(&bad);
        assert!(
            diags.iter().any(|d| d.code == "W004-range-escapes-type"),
            "{diags:?}"
        );
        // Interval escaping the declared type.
        let narrow_ty = dp
            .ops
            .iter()
            .position(|o| o.ty.bits < 64 && o.range.is_some())
            .unwrap();
        let mut bad = dp.clone();
        bad.ops[narrow_ty].range = Some(roccc_suifvm::range::ValueRange::interval(
            i64::MIN,
            i64::MAX,
        ));
        let diags = verify_datapath(&bad);
        assert!(
            diags.iter().any(|d| d.code == "W004-range-escapes-type"),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_input_ref_is_reported() {
        let mut dp = dp_of(DEEP, "f", 1000.0);
        dp.ops[0].srcs[0] = Value::Input(99);
        let diags = verify_datapath(&dp);
        assert!(
            diags.iter().any(|d| d.code == "D002-missing-ref"),
            "{diags:?}"
        );
    }
}
