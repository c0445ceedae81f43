//! Data-path pipelining (§4.2.3).
//!
//! "ROCCC automatically places latches in a data path to pipeline it. The
//! latch location in a node is decided based on the delay estimation of
//! instructions." This module implements that: operations are assigned to
//! pipeline stages greedily so that the combinational delay inside each
//! stage stays within a target clock period, with one special rule — the
//! "SNX instruction must have a latch to store the feedback signal to the
//! corresponding LPR instruction", which forces every `LPR → … → SNX` path
//! into a single stage (the feedback latch is the only register on the
//! cycle, keeping the initiation interval at 1).

use crate::graph::*;
use roccc_suifvm::ir::Opcode;
use std::collections::HashSet;

/// Per-operation combinational delay estimation.
///
/// The trait is object-safe so callers can plug in the calibrated
/// Virtex-II model from `roccc-synth`; [`DefaultDelayModel`] provides
/// technology-plausible defaults.
pub trait DelayModel {
    /// Estimated combinational delay of one operation, in nanoseconds.
    /// `width` is the operation's (forward) result width; `const_shift`
    /// reports whether a shift amount is a compile-time constant (constant
    /// shifts are free wiring).
    fn delay_ns(&self, op: Opcode, width: u8, const_shift: bool) -> f64;

    /// Delay of a multiply by the compile-time constant `c`: a shift-add
    /// tree over the canonical signed-digit recoding, much faster than a
    /// full multiplier. The default derives it from the adder delay.
    fn const_mult_delay_ns(&self, c: i64, width: u8) -> f64 {
        let digits = csd_digits(c);
        if digits <= 1 {
            return 0.0; // ±2^k is wiring
        }
        (digits as f64).log2().ceil().max(1.0) * self.delay_ns(Opcode::Add, width, false)
    }

    /// Device resource budget backing the ResMII bound of the dependence
    /// analysis. The default is unconstrained (multipliers built from
    /// logic scale with area, not with a fixed block count).
    fn resource_budget(&self) -> ResourceBudget {
        ResourceBudget { mult_blocks: None }
    }
}

/// Hard per-device resource limits a modulo scheduler must ration per
/// initiation interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    /// Dedicated block multipliers available, `None` = unconstrained.
    pub mult_blocks: Option<u64>,
}

/// Nonzero digits in the canonical signed-digit (NAF) recoding of `c`.
pub fn csd_digits(c: i64) -> u64 {
    let mut n = c.unsigned_abs();
    let mut digits = 0u64;
    while n != 0 {
        if n & 1 == 1 {
            if n % 4 == 3 {
                n += 1;
            } else {
                n -= 1;
            }
            digits += 1;
        }
        n >>= 1;
    }
    digits
}

/// A generic 4-input-LUT FPGA delay model (roughly a Virtex-II -5 speed
/// grade): LUT ≈ 0.44 ns plus average net delay, carry chains ≈ 50 ps/bit.
#[derive(Debug, Clone, Default)]
pub struct DefaultDelayModel;

impl DelayModel for DefaultDelayModel {
    fn delay_ns(&self, op: Opcode, width: u8, const_shift: bool) -> f64 {
        let w = width as f64;
        match op {
            Opcode::Add | Opcode::Sub | Opcode::Neg => 1.0 + 0.05 * w,
            Opcode::Slt | Opcode::Sle | Opcode::Seq | Opcode::Sne => 0.9 + 0.05 * w,
            Opcode::Bool => 0.8 + 0.15 * (w.max(2.0)).log2(),
            Opcode::Mul => 2.0 + 0.12 * w,
            Opcode::Div | Opcode::Rem => 3.0 + 0.45 * w,
            Opcode::Shl | Opcode::Shr => {
                if const_shift {
                    0.0 // pure wiring
                } else {
                    1.2 + 0.1 * (w.max(2.0)).log2()
                }
            }
            Opcode::And | Opcode::Or | Opcode::Xor | Opcode::Not => 0.8,
            Opcode::Mux => 0.9,
            Opcode::Lut => 1.8,
            Opcode::Mov | Opcode::Cvt => 0.0, // wiring / truncation
            Opcode::Lpr => 0.0,               // register output
            Opcode::Arg | Opcode::Ldc | Opcode::Snx => 0.0,
        }
    }
}

/// Result summary of a pipelining run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Stages created.
    pub stages: u32,
    /// Critical combinational delay of the slowest stage (ns).
    pub achieved_period_ns: f64,
    /// Whether the feedback constraint forced ops into a shared stage.
    pub feedback_constrained: bool,
}

/// Assigns every op to a pipeline stage targeting `target_period_ns`, then
/// enforces the feedback (LPR/SNX) single-stage rule and recomputes the
/// achieved period. Mutates `dp` in place.
pub fn pipeline_datapath(
    dp: &mut Datapath,
    target_period_ns: f64,
    model: &dyn DelayModel,
) -> PipelineReport {
    dp.target_period_ns = target_period_ns;
    let n = dp.ops.len();
    let shared_cmp = shared_compare_set(dp);

    // Greedy ASAP stage assignment with per-op arrival times.
    let mut arrival = vec![0.0f64; n];
    for i in 0..n {
        let op = dp.ops[i];
        let mut stage = 0u32;
        for s in &op.srcs {
            stage = stage.max(dp.stage_of(*s));
        }
        let mut ready = 0.0f64;
        for s in &op.srcs {
            if let Value::Op(o) = s {
                if dp.ops[o.0 as usize].stage == stage {
                    ready = ready.max(arrival[o.0 as usize]);
                }
            }
        }
        let d = if shared_cmp.contains(&i) {
            // The comparison reuses a subtractor's carry chain: no extra
            // LUTs, but its result (the sign bit) arrives with the sub.
            let w = op.srcs.iter().map(|s| dp.width_of(*s)).max().unwrap_or(1);
            model.delay_ns(Opcode::Sub, w, false)
        } else {
            op_delay(dp, i, model)
        };
        let mut t = ready + d;
        if t > target_period_ns && ready > 0.0 {
            stage += 1;
            t = d;
        }
        dp.ops[i].stage = stage;
        arrival[i] = t;
    }

    // Feedback constraint: each slot's pinned ops share one stage. Moving
    // them later can push an op of another slot's set later too, so merge
    // and repair until neither changes a stage; stages only grow and
    // never past the greedy maximum, so this ends.
    let mut feedback_constrained = false;
    loop {
        let mut merged = false;
        for slot in 0..dp.feedback.len() {
            let cycle = feedback_cycle_ops(dp, slot);
            let m = cycle.iter().map(|&i| dp.ops[i].stage).max().unwrap_or(0);
            for &i in &cycle {
                if dp.ops[i].stage != m {
                    dp.ops[i].stage = m;
                    merged = true;
                }
            }
        }
        feedback_constrained |= merged;

        // Repair stage monotonicity after the feedback merge.
        loop {
            let mut changed = false;
            for i in 0..n {
                let mut min_stage = dp.ops[i].stage;
                for s in dp.ops[i].srcs {
                    min_stage = min_stage.max(dp.stage_of(s));
                }
                if min_stage != dp.ops[i].stage {
                    dp.ops[i].stage = min_stage;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if !merged {
            break;
        }
    }

    // Recompute arrivals and the achieved period.
    let achieved = recompute_achieved_period(dp, model);

    dp.num_stages = dp.ops.iter().map(|o| o.stage).max().unwrap_or(0) + 1;
    dp.achieved_period_ns = achieved;
    PipelineReport {
        stages: dp.num_stages,
        achieved_period_ns: achieved,
        feedback_constrained,
    }
}

/// Indices of the ops of feedback slot `slot` that must share the stage
/// where its SNX latches, since one register is read (LPR) and written
/// (SNX) in one pipeline phase of an iteration. The pipeliner merges them
/// into one stage and a modulo scheduler never moves them apart.
///
/// * When the SNX value reads the slot's LPR, they are every op on an
///   `LPR → … → SNX` path: the recurrence cycle (moving any of them would
///   widen the feedback span and break the single-latch rule the netlist
///   relies on).
/// * When it does not, as in a delay line whose slot takes another slot's
///   value, they are the slot's LPRs and the op producing the SNX value.
pub fn feedback_cycle_ops(dp: &Datapath, slot: usize) -> Vec<usize> {
    let n = dp.ops.len();
    let lprs: Vec<usize> = dp
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.op == Opcode::Lpr && o.imm == slot as i64)
        .map(|(i, _)| i)
        .collect();
    let Some((_, snx_val)) = dp.feedback.get(slot) else {
        return Vec::new();
    };
    let Value::Op(snx_op) = *snx_val else {
        return Vec::new();
    };

    // Forward reachability from the LPRs.
    let mut fwd = HashSet::new();
    for &l in &lprs {
        fwd.insert(l);
    }
    for i in 0..n {
        let reaches = dp.ops[i]
            .srcs
            .iter()
            .any(|s| matches!(s, Value::Op(o) if fwd.contains(&(o.0 as usize))));
        if reaches {
            fwd.insert(i);
        }
    }
    // Backward reachability from the SNX source.
    let mut bwd = HashSet::new();
    bwd.insert(snx_op.0 as usize);
    for i in (0..n).rev() {
        if bwd.contains(&i) {
            for s in &dp.ops[i].srcs {
                if let Value::Op(o) = s {
                    bwd.insert(o.0 as usize);
                }
            }
        }
    }
    let mut cycle: Vec<usize> = fwd.intersection(&bwd).copied().collect();
    if cycle.is_empty() && !lprs.is_empty() {
        cycle = lprs;
        cycle.push(snx_op.0 as usize);
    }
    cycle.sort_unstable();
    cycle.dedup();
    cycle
}

/// Critical combinational delay of the slowest stage under the current
/// stage assignment (same-stage chaining included).
pub fn recompute_achieved_period(dp: &Datapath, model: &dyn DelayModel) -> f64 {
    let n = dp.ops.len();
    let shared_cmp = shared_compare_set(dp);
    let mut arrival = vec![0.0f64; n];
    let mut achieved = 0.0f64;
    for i in 0..n {
        let op = dp.ops[i];
        let mut ready = 0.0f64;
        for s in &op.srcs {
            if let Value::Op(o) = s {
                if dp.ops[o.0 as usize].stage == op.stage {
                    ready = ready.max(arrival[o.0 as usize]);
                }
            }
        }
        let d = if shared_cmp.contains(&i) {
            let w = op.srcs.iter().map(|s| dp.width_of(*s)).max().unwrap_or(1);
            model.delay_ns(Opcode::Sub, w, false)
        } else {
            op_delay(dp, i, model)
        };
        arrival[i] = ready + d;
        achieved = achieved.max(arrival[i]);
    }
    achieved
}

/// Installs a modulo schedule onto an already latch-pipelined data path:
/// every op moves to its scheduled slot (slots only ever grow past the
/// latch assignment, so monotonicity and chaining stay legal — moving an
/// op later just inserts balancing registers), the initiation interval is
/// recorded, and the achieved period is recomputed under the new stage
/// assignment.
///
/// # Errors
///
/// Rejects slot vectors of the wrong length, slots that would invert an
/// operand edge, or a zero `ii`.
pub fn apply_modulo_schedule(
    dp: &mut Datapath,
    slots: &[u32],
    ii: u32,
    model: &dyn DelayModel,
) -> Result<(), String> {
    if slots.len() != dp.ops.len() {
        return Err(format!(
            "schedule has {} slots for {} ops",
            slots.len(),
            dp.ops.len()
        ));
    }
    if ii == 0 {
        return Err("initiation interval must be at least 1".to_string());
    }
    for (i, op) in dp.ops.iter().enumerate() {
        for s in &op.srcs {
            if let Value::Op(o) = s {
                if slots[o.0 as usize] > slots[i] {
                    return Err(format!(
                        "schedule inverts edge op{} -> op{i}: slot {} after {}",
                        o.0, slots[o.0 as usize], slots[i]
                    ));
                }
            }
        }
    }
    for (i, &slot) in slots.iter().enumerate() {
        dp.ops[i].stage = slot;
    }
    dp.num_stages = dp.ops.iter().map(|o| o.stage).max().unwrap_or(0) + 1;
    dp.ii = ii;
    dp.achieved_period_ns = recompute_achieved_period(dp, model);
    Ok(())
}

/// Delay of op `i`, resolving whether a shift amount is constant.
/// Constant masks (`AND` with a literal) and disjoint bit-field
/// concatenations (`x | (y << k)` with `width(x) ≤ k`) are pure wiring on
/// any FPGA and contribute no delay.
fn op_delay(dp: &Datapath, i: usize, model: &dyn DelayModel) -> f64 {
    let op = &dp.ops[i];
    let const_shift = matches!(op.op, Opcode::Shl | Opcode::Shr)
        && matches!(op.srcs.get(1), Some(Value::Const(_)));
    if op.op == Opcode::And && op.srcs.iter().any(|s| matches!(s, Value::Const(_))) {
        return 0.0;
    }
    if op.op == Opcode::Or && or_is_concat(dp, &op.srcs) {
        return 0.0;
    }
    if op.op == Opcode::Mul {
        if let Some(Value::Const(c)) = op.srcs.iter().find(|s| matches!(s, Value::Const(_))) {
            return model.const_mult_delay_ns(*c, op.ty.bits);
        }
    }
    model.delay_ns(op.op, op.ty.bits, const_shift)
}

/// Comparisons whose operand pair also feeds a subtraction share the
/// subtractor's carry chain after synthesis (`a - b` and `a < b` are the
/// same carry computation); their marginal delay and area are ~zero. This
/// mirrors what ISE does with the paper's `if (rem >= d) rem = rem - d;`
/// digit-recurrence kernels.
pub fn shared_compare_set(dp: &Datapath) -> std::collections::HashSet<usize> {
    use std::collections::HashSet as Set;
    let mut sub_pairs: Set<(Value, Value)> = Set::new();
    for op in &dp.ops {
        if op.op == Opcode::Sub && op.srcs.len() == 2 {
            sub_pairs.insert((op.srcs[0], op.srcs[1]));
        }
    }
    let mut shared = Set::new();
    for (i, op) in dp.ops.iter().enumerate() {
        if matches!(op.op, Opcode::Slt | Opcode::Sle)
            && op.srcs.len() == 2
            && (sub_pairs.contains(&(op.srcs[0], op.srcs[1]))
                || sub_pairs.contains(&(op.srcs[1], op.srcs[0])))
        {
            shared.insert(i);
        }
    }
    shared
}

/// See [`op_delay`]: disjoint-support OR detection. The lowest possibly
/// set bit of a value is tracked through constant shifts and nested ORs so
/// chained concatenations (`(a << 2) | (b << 1) | c`) are all recognized.
fn or_is_concat(dp: &Datapath, srcs: &[Value]) -> bool {
    if srcs.len() != 2 {
        return false;
    }
    fn low_bound(dp: &Datapath, v: &Value, depth: u8) -> u8 {
        if depth == 0 {
            return 0;
        }
        if let Value::Op(o) = v {
            let op = &dp.ops[o.0 as usize];
            match op.op {
                Opcode::Shl => {
                    if let Some(Value::Const(k)) = op.srcs.get(1) {
                        if *k >= 0 {
                            return (*k as u8).saturating_add(low_bound(
                                dp,
                                &op.srcs[0],
                                depth - 1,
                            ));
                        }
                    }
                }
                Opcode::Or => {
                    return low_bound(dp, &op.srcs[0], depth - 1).min(low_bound(
                        dp,
                        &op.srcs[1],
                        depth - 1,
                    ));
                }
                _ => {}
            }
        }
        0
    }
    dp.width_of(srcs[1]) <= low_bound(dp, &srcs[0], 8)
        || dp.width_of(srcs[0]) <= low_bound(dp, &srcs[1], 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_datapath;
    use roccc_cparse::parser::parse;
    use roccc_suifvm::{lower_function, optimize, to_ssa};

    fn dp_of(src: &str, func: &str) -> Datapath {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        build_datapath(&ir).unwrap()
    }

    const FIR: &str = "void fir_dp(int A0, int A1, int A2, int A3, int A4, int* Tmp0) {
       *Tmp0 = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }";

    #[test]
    fn loose_target_gives_single_stage() {
        let mut dp = dp_of(FIR, "fir_dp");
        let rep = pipeline_datapath(&mut dp, 1000.0, &DefaultDelayModel);
        assert_eq!(rep.stages, 1);
        dp.verify().unwrap();
    }

    #[test]
    fn tight_target_creates_stages() {
        let mut dp = dp_of(FIR, "fir_dp");
        let model = DefaultDelayModel;
        let rep = pipeline_datapath(&mut dp, 6.0, &model);
        assert!(rep.stages >= 2, "expected pipelining, got {rep:?}");
        // The achieved period is bounded by max(target, slowest single op)
        // — an op slower than the target gets its own stage.
        let max_op: f64 = (0..dp.ops.len())
            .map(|i| super::op_delay(&dp, i, &model))
            .fold(0.0, f64::max);
        assert!(
            rep.achieved_period_ns <= 6.0f64.max(max_op) + 1e-9,
            "{rep:?}, max op {max_op}"
        );
        dp.verify().unwrap();
    }

    #[test]
    fn tighter_target_never_reduces_stages() {
        let mut prev_stages = 0;
        for target in [1000.0, 12.0, 8.0, 6.0, 5.0] {
            let mut dp = dp_of(FIR, "fir_dp");
            let rep = pipeline_datapath(&mut dp, target, &DefaultDelayModel);
            assert!(
                rep.stages >= prev_stages,
                "stages decreased at target {target}"
            );
            prev_stages = rep.stages;
        }
    }

    #[test]
    fn achieved_period_bounded_by_slowest_op_when_feasible() {
        let mut dp = dp_of(FIR, "fir_dp");
        let model = DefaultDelayModel;
        let max_op: f64 = (0..dp.ops.len())
            .map(|i| super::op_delay(&dp, i, &model))
            .fold(0.0, f64::max);
        let rep = pipeline_datapath(&mut dp, max_op, &model);
        assert!(rep.achieved_period_ns <= max_op + 1e-9);
    }

    #[test]
    fn feedback_cycle_shares_one_stage() {
        let prog = parse(
            "void acc_dp(int t0, int* t1) {
               int s; int c = ROCCC_load_prev(s) + (t0 * t0 + 3) * t0;
               ROCCC_store2next(s, c);
               *t1 = c; }",
        )
        .unwrap();
        let f = prog.function("acc_dp").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "s".into(),
            ty: roccc_cparse::types::IntType::int(),
            init: 0,
        }];
        let mut ir = lower_function(&prog, f, &fb).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let mut dp = build_datapath(&ir).unwrap();
        // Aggressive target: would split the accumulate chain without the
        // constraint.
        let rep = pipeline_datapath(&mut dp, 3.0, &DefaultDelayModel);
        dp.verify()
            .unwrap_or_else(|e| panic!("{e}\n{}", dp.to_dot()));
        // LPR and the SNX source share a stage (checked by verify), and the
        // multiplies feeding the chain may sit in earlier stages.
        let _ = rep;
    }

    #[test]
    fn figure7_accumulator_has_snx_latch() {
        let prog = parse(
            "void acc_dp(int t0, int* t1) {
               int s; int c = ROCCC_load_prev(s) + t0;
               ROCCC_store2next(s, c);
               *t1 = c; }",
        )
        .unwrap();
        let f = prog.function("acc_dp").unwrap();
        let fb = vec![roccc_hlir::kernel::FeedbackVar {
            name: "s".into(),
            ty: roccc_cparse::types::IntType::int(),
            init: 0,
        }];
        let mut ir = lower_function(&prog, f, &fb).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let mut dp = build_datapath(&ir).unwrap();
        pipeline_datapath(&mut dp, 100.0, &DefaultDelayModel);
        dp.verify().unwrap();
        assert_eq!(dp.feedback.len(), 1);
    }

    #[test]
    fn default_model_constant_shifts_are_free() {
        let m = DefaultDelayModel;
        assert_eq!(m.delay_ns(Opcode::Shl, 32, true), 0.0);
        assert!(m.delay_ns(Opcode::Shl, 32, false) > 0.0);
        assert!(m.delay_ns(Opcode::Mul, 32, false) > m.delay_ns(Opcode::Add, 32, false));
    }
}
