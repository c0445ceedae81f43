//! Differential soundness of range-driven bit-width narrowing.
//!
//! With `CompileOptions::range_narrow` on, the forward value-range
//! analysis lets the narrowing pass shave operator bits beyond what
//! backward demand alone proves, and lets range-proven constants fold.
//! None of that may change a single observable output bit, so this
//! suite compares the narrowed hardware against the IR interpreter
//! (and against the un-narrowed hardware) on:
//!
//! * every Table 1 kernel, over deterministic pseudo-random input
//!   streams wrapped to each port's declared type;
//! * hundreds of randomly generated expression kernels from the
//!   in-tree generator (`roccc_suite::testrand`), replayable by seed.

use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::ipcores::benchmarks;
use roccc_suite::netlist::SimPlan;
use roccc_suite::roccc::{compile, CompileOptions, Compiled};
use roccc_suite::suifvm::IrMachine;
use roccc_suite::testrand::exprgen::gen_kernel_source;
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

fn ranged(base: &CompileOptions) -> CompileOptions {
    CompileOptions {
        range_narrow: true,
        ..base.clone()
    }
}

/// Streams `cases` through the compiled netlist engine, one output row
/// per case.
fn simulate(hw: &Compiled, cases: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let plan = SimPlan::compile(&hw.netlist).expect("netlist compiles to a sim plan");
    let mut flat = Vec::new();
    plan.run_batch_lanes(&cases.concat(), cases.len(), 1, &mut flat)
        .expect("netlist simulates");
    flat.chunks(plan.num_outputs())
        .map(<[i64]>::to_vec)
        .collect()
}

/// Runs the compiled netlist over `cases` and compares every output row
/// against a fresh IR interpreter fed the same sequence (feedback state
/// evolves identically on both sides).
fn assert_matches_interpreter(hw: &Compiled, cases: &[Vec<i64>], label: &str) {
    let outs = simulate(hw, cases);
    assert_eq!(outs.len(), cases.len(), "{label}: one output row per case");
    let mut m = IrMachine::new(&hw.ir);
    for (args, hw_out) in cases.iter().zip(&outs) {
        let want = m.run(args).expect("interpreter accepts the same inputs");
        assert_eq!(hw_out, &want, "{label}: inputs {args:?}");
    }
}

/// Deterministic input vectors wrapped to each input port's type.
fn input_cases(hw: &Compiled, rng: &mut XorShift64, n: usize) -> Vec<Vec<i64>> {
    (0..n)
        .map(|_| {
            hw.ir
                .inputs
                .iter()
                .map(|(_, t)| t.wrap(rng.gen_range(-(1 << 20), (1 << 20) - 1)))
                .collect()
        })
        .collect()
}

/// Every Table 1 kernel, compiled with range narrowing on, is bit-exact
/// against the IR interpreter — and its data path never grows.
#[test]
fn table1_kernels_match_interpreter_with_range_narrow() {
    for (i, b) in benchmarks().into_iter().enumerate() {
        let plain = compile(&b.source, b.func, &b.opts).expect("baseline compiles");
        let hw = compile(&b.source, b.func, &ranged(&b.opts)).expect("range-narrow compiles");
        let mut rng = XorShift64::new(0xD1F0 + i as u64);
        let cases = input_cases(&hw, &mut rng, 64);
        assert_matches_interpreter(&hw, &cases, b.name);
        let bits = |c: &Compiled| c.datapath.ops.iter().map(|o| o.hw_bits as u64).sum::<u64>();
        assert!(
            bits(&hw) <= bits(&plain),
            "{}: range narrowing may never widen the data path",
            b.name
        );
    }
}

/// The shift-subtract kernels are where ranges pay: relational facts
/// through the `if (rem >= d) rem = rem - d` guards bound the remainders.
#[test]
fn range_narrow_shrinks_the_divider() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "udiv")
        .expect("udiv row");
    let plain = compile(&b.source, b.func, &b.opts).unwrap();
    let hw = compile(&b.source, b.func, &ranged(&b.opts)).unwrap();
    let bits = |c: &Compiled| c.datapath.ops.iter().map(|o| o.hw_bits as u64).sum::<u64>();
    assert!(
        bits(&hw) < bits(&plain) / 2,
        "expected >2x total-bit reduction on udiv, got {} -> {}",
        bits(&plain),
        bits(&hw)
    );
    // The exhaustive 8-bit divider input space stays bit-exact.
    let cases: Vec<Vec<i64>> = (0..=255i64)
        .flat_map(|n| (0..=255i64).map(move |d| vec![n, d]))
        .collect();
    assert_matches_interpreter(&hw, &cases, "udiv exhaustive");
}

const EXPRGEN_CASES: u64 = 520;

/// Hundreds of generated expression kernels: the range-narrowed netlist
/// matches both the golden C interpreter and the demand-only netlist.
#[test]
fn exprgen_range_narrow_is_equivalent() {
    for case in 0..EXPRGEN_CASES {
        let mut rng = XorShift64::new(0xA11CE + case);
        let src = gen_kernel_source(&mut rng, 3);
        let opts = CompileOptions {
            target_period_ns: [1000.0f64, 6.0][rng.gen_index(2)],
            ..CompileOptions::default()
        };
        let plain = compile(&src, "k", &opts).expect("generated source compiles");
        let narrow = compile(&src, "k", &ranged(&opts)).expect("range-narrow compiles");

        let prog = frontend(&src).expect("generated source is valid");
        let args_list: Vec<Vec<i64>> = (0..3)
            .map(|_| (0..3).map(|_| rng.gen_range(-5000, 4999)).collect())
            .collect();

        let plain_outs = simulate(&plain, &args_list);
        let narrow_outs = simulate(&narrow, &args_list);
        assert_eq!(
            plain_outs, narrow_outs,
            "case {case} (src {src}): narrowed hardware diverged"
        );
        for (args, out) in args_list.iter().zip(&narrow_outs) {
            let mut interp = Interpreter::new(&prog);
            let golden = interp.call("k", args, &mut HashMap::new()).unwrap();
            assert_eq!(
                out[0], golden.outputs["o"],
                "case {case} (src {src}) inputs {args:?}"
            );
        }
    }
}
