//! Integration tests for the modulo-scheduling subsystem: the paper's
//! streaming kernels must achieve II == MinII == 1 with the M-family
//! verifier deriving legality from the artifacts alone, a constrained
//! multiplier budget must force a genuine II-2 schedule that stays
//! bit-exact against the per-cycle reference interpreter across all
//! engines and lane counts (bubbles and misaligned launches included),
//! and exprgen-seeded recurrence loops at planted feedback distances
//! 1–4 must run bit-exact scheduled vs unscheduled.

use roccc_suite::datapath::{DelayModel, ResourceBudget};
use roccc_suite::ipcores::table::{benchmarks, compile_benchmark};
use roccc_suite::netlist::{BatchedSim, Netlist, NetlistSim, SimPlan};
use roccc_suite::roccc::{
    compile, compile_with_model, verify_compiled, CompileOptions, VerifyLevel,
};
use roccc_suite::suifvm::ir::Opcode;
use roccc_suite::testrand::exprgen::gen_recurrence_kernel;
use roccc_suite::testrand::XorShift64;

/// The default delay model with a hard multiplier-block budget, to force
/// a resource-constrained II on kernels with several variable multiplies.
struct Budgeted(u64);

impl DelayModel for Budgeted {
    fn delay_ns(&self, op: Opcode, width: u8, const_shift: bool) -> f64 {
        roccc_suite::datapath::DefaultDelayModel.delay_ns(op, width, const_shift)
    }
    fn resource_budget(&self) -> ResourceBudget {
        ResourceBudget {
            mult_blocks: Some(self.0),
        }
    }
}

/// In-range input iterations for a netlist, seeded.
fn gen_iters(nl: &Netlist, n: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|_| nl.inputs.iter().map(|(_, t)| rng.sample_int(*t)).collect())
        .collect()
}

/// Runs `iters` through the reference interpreter and the compiled
/// engine at lanes {1, 8, 64}, asserting every lane count retires the
/// same rows.
fn assert_engines_agree(nl: &Netlist, iters: &[Vec<i64>], name: &str) -> Vec<Vec<i64>> {
    let reference = NetlistSim::new(nl)
        .run_stream(iters)
        .expect("reference stream");
    let plan = SimPlan::compile(nl).expect("plan compiles");
    let flat: Vec<i64> = iters.iter().flatten().copied().collect();
    let expect: Vec<i64> = reference.iter().flatten().copied().collect();
    for lanes in [1usize, 8, 64] {
        let mut out = Vec::new();
        let rows = plan
            .run_batch_lanes(&flat, iters.len(), lanes, &mut out)
            .expect("batched run");
        assert_eq!(rows, iters.len(), "{name}: lanes={lanes} retire count");
        assert_eq!(out, expect, "{name}: lanes={lanes} outputs diverged");
    }
    reference
}

/// fir, dct, and wavelet — the kernels PR 8 proved have MinII 1 below
/// their body latency — must schedule at II == MinII == 1 with no
/// fallback, pass the M-family verifier from the artifacts alone, and
/// produce netlists bit-exact against the unscheduled goldens in every
/// engine.
#[test]
fn paper_streaming_kernels_achieve_min_ii() {
    let mut seen = 0;
    for b in benchmarks() {
        if !matches!(b.name, "fir" | "dct" | "wavelet") {
            continue;
        }
        seen += 1;
        let golden = compile_benchmark(&b).expect("unscheduled golden compiles");
        let opts = CompileOptions {
            pipeline_ii: Some(0),
            verify: VerifyLevel::Deny,
            ..b.opts.clone()
        };
        let hw = compile(&b.source, b.func, &opts).expect("scheduled compile");
        let s = hw.schedule.as_ref().expect("schedule artifact present");
        assert_eq!(s.fallback, None, "{}: fell back: {:?}", b.name, s.fallback);
        assert_eq!(s.min_ii, 1, "{}", b.name);
        assert_eq!(s.ii, 1, "{}: achieved II == MinII == 1", b.name);
        assert!(
            u64::from(s.body_latency) > s.ii,
            "{}: premise — MinII strictly below body latency",
            b.name
        );
        assert_eq!(s.throughput_windows_per_cycle(), 1.0, "{}", b.name);

        // The M-family re-derives legality from the artifacts alone.
        let findings = verify_compiled(&hw);
        assert!(
            findings.is_empty(),
            "{}: verifier findings: {findings:?}",
            b.name
        );

        // Scheduled output is bit-exact against the unscheduled golden
        // in all three engines.
        let iters = gen_iters(&hw.netlist, 97, 0x5c0 + seen);
        let scheduled = assert_engines_agree(&hw.netlist, &iters, b.name);
        let unscheduled = assert_engines_agree(&golden.netlist, &iters, b.name);
        assert_eq!(
            scheduled, unscheduled,
            "{}: scheduled vs unscheduled goldens diverged",
            b.name
        );
    }
    assert_eq!(seen, 3, "all three streaming kernels exercised");
}

/// Two independent 16-bit variable multiplies under a one-block budget:
/// ResMII is 2, so the scheduler must emit a genuine II-2 schedule
/// (II < body latency), the sims must reject misaligned launches, and
/// the II-spaced stream must retire the same rows as the unscheduled
/// golden in every engine.
#[test]
fn forced_ii_two_is_bit_exact_across_engines() {
    let src = "void k2(int16 A[24], int16 B[16]) {
      int i;
      for (i = 0; i < 16; i = i + 1) {
        B[i] = A[i] * A[i + 1] + A[i + 2] * A[i + 3] + A[i];
      }
    }";
    let model = Budgeted(1);
    // A tight period keeps the body latency well above II 2.
    let base = CompileOptions {
        target_period_ns: 3.0,
        verify: VerifyLevel::Deny,
        ..CompileOptions::default()
    };
    let golden = compile_with_model(src, "k2", &base, &model).expect("golden compiles");
    let opts = CompileOptions {
        pipeline_ii: Some(0),
        ..base
    };
    let hw = compile_with_model(src, "k2", &opts, &model).expect("scheduled compile");
    let s = hw.schedule.as_ref().expect("schedule artifact present");
    assert_eq!(s.fallback, None, "fell back: {:?}", s.fallback);
    assert_eq!(s.res_mii, 2, "two tiles over a one-block budget");
    assert_eq!(s.ii, 2, "achieved II == MinII");
    assert!(
        u64::from(s.body_latency) > s.ii,
        "premise: overlap benefit (body latency {} vs II {})",
        s.body_latency,
        s.ii
    );
    assert!(s.mrt_peak <= 1, "MRT respects the budget: {s:?}");
    assert!(verify_compiled(&hw).is_empty());

    // The netlist and both engines enforce launch alignment: a valid
    // iteration off the II grid is a fault, in the reference and the
    // compiled engine alike.
    let args: Vec<i64> = hw.netlist.inputs.iter().map(|_| 1).collect();
    let plan = SimPlan::compile(&hw.netlist).expect("plan compiles");
    let mut reference = NetlistSim::new(&hw.netlist);
    let mut compiled = BatchedSim::new(&plan, 1);
    assert!(reference.step(&args, true).is_ok(), "cycle 0 is aligned");
    assert!(
        compiled.step_lanes(&args, &[true]).is_ok(),
        "cycle 0 is aligned"
    );
    let e_ref = reference.step(&args, true).expect_err("cycle 1 misaligned");
    let e_comp = compiled
        .step_lanes(&args, &[true])
        .expect_err("cycle 1 misaligned");
    assert_eq!(format!("{e_ref:?}"), format!("{e_comp:?}"));

    // Bubble cycles (garbage arguments, valid low) are free to land
    // anywhere, including through the prologue and epilogue; the engines
    // must stay in lock-step through the mix.
    let mut reference = NetlistSim::new(&hw.netlist);
    let mut compiled = BatchedSim::new(&plan, 1);
    let mut rng = XorShift64::new(0x1122);
    let mut out_buf = vec![0i64; hw.netlist.outputs.len()];
    for t in 0..200usize {
        let valid = t % 2 == 0 && rng.gen_ratio(3, 4);
        let args: Vec<i64> = hw
            .netlist
            .inputs
            .iter()
            .map(|(_, ty)| {
                if valid {
                    rng.sample_int(*ty)
                } else {
                    rng.next_u64() as i64
                }
            })
            .collect();
        let r = reference.step(&args, valid).expect("reference step");
        compiled.step_lanes(&args, &[valid]).expect("compiled step");
        assert_eq!(
            r.out_valid,
            compiled.lane_out_valid(0),
            "cycle {t}: out_valid diverged"
        );
        compiled.read_outputs_lane(0, &mut out_buf);
        assert_eq!(r.outputs, out_buf, "cycle {t}: outputs diverged");
    }

    // Full II-spaced streams retire the same rows as the unscheduled
    // golden at every lane count.
    let iters = gen_iters(&hw.netlist, 97, 0x5c9);
    let scheduled = assert_engines_agree(&hw.netlist, &iters, "k2-ii2");
    let unscheduled = assert_engines_agree(&golden.netlist, &iters, "k2-golden");
    assert_eq!(scheduled, unscheduled, "II-2 schedule changed the math");
}

/// Exprgen-seeded loops with planted LPR→SNX recurrence chains at
/// distances 1 through 4: scheduled compiles must stay bit-exact against
/// the reference interpreter, the batched engine at lanes {1, 8, 64},
/// and the unscheduled golden.
#[test]
fn recurrence_kernels_scheduled_differential() {
    for distance in 1..=4u64 {
        for case in 0..3u64 {
            let mut rng = XorShift64::new(0xd15 + distance * 16 + case);
            let k = gen_recurrence_kernel(&mut rng, 2, distance, false);
            let name = format!("rec_d{distance}_{case}");
            let base = CompileOptions::default();
            let golden = match compile(&k.source, "k", &base) {
                Ok(c) => c,
                // A generated body can exceed the supported subset (e.g.
                // a dynamic shift amount wider than the target); skip —
                // the seeds below still cover every distance.
                Err(_) => continue,
            };
            let opts = CompileOptions {
                pipeline_ii: Some(0),
                verify: VerifyLevel::Deny,
                ..base
            };
            let hw = compile(&k.source, "k", &opts).expect("scheduled compile");
            let s = hw.schedule.as_ref().expect("schedule artifact present");
            assert!(
                s.ii >= 1 && s.ii <= u64::from(s.body_latency).max(1),
                "{name}: {s:?}"
            );
            assert!(verify_compiled(&hw).is_empty(), "{name}");

            let iters = gen_iters(&hw.netlist, 61, 0xa17 + distance + case);
            let scheduled = assert_engines_agree(&hw.netlist, &iters, &name);
            let unscheduled = assert_engines_agree(&golden.netlist, &iters, &name);
            assert_eq!(scheduled, unscheduled, "{name}: schedule changed the math");
        }
    }
}
