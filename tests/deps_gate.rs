//! Dependence-gate differential suite.
//!
//! Generated stencil loops with seeded write-lane layouts: loops whose
//! lanes write disjoint residues must compile and match the golden-model
//! C interpreter bit for bit; loops with a planted carried output
//! dependence (any collision distance) must be refused with the coded
//! `L012` diagnostic, and loops with a short-distance carried dependence
//! must be refused by the unroll/strip-mine legality gates (`L010` /
//! `L011`) before any hardware is built.

use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::roccc::{compile, CompileOptions, UnrollStrategy};
use roccc_suite::testrand::exprgen::{gen_loop_kernel, LoopShape};
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

/// Runs the original C through the golden-model interpreter.
fn golden(source: &str, a: &[i64], b_len: usize) -> Vec<i64> {
    let prog = frontend(source).unwrap();
    let mut arrays = HashMap::new();
    arrays.insert("A".to_string(), a.to_vec());
    arrays.insert("B".to_string(), vec![0; b_len]);
    Interpreter::new(&prog).call("k", &[], &mut arrays).unwrap();
    arrays["B"].clone()
}

/// Disjoint-lane loops (one write per residue modulo the step, like the
/// paper's dct lanes) compile and the hardware matches the interpreter
/// bit for bit on every written element.
#[test]
fn generated_disjoint_lane_loops_match_golden_model() {
    let mut compiled_any = 0;
    for case in 0..12u64 {
        let mut rng = XorShift64::new(0xdead0 + case);
        let lanes = 1 + case % 3; // 1, 2, or 3 write lanes
        let k = gen_loop_kernel(&mut rng, 2, lanes, None, LoopShape::default());
        let a: Vec<i64> = (0..k.a_len as i64).map(|x| (x * 13) % 251 - 125).collect();
        let expect = golden(&k.source, &a, k.b_len);

        let hw = compile(&k.source, "k", &CompileOptions::default())
            .unwrap_or_else(|e| panic!("case {case}: legal loop refused: {e}\n{}", k.source));
        assert!(hw.deps.min_ii >= 1, "case {case}: MinII is a lower bound");
        let mut arrays = HashMap::new();
        arrays.insert("A".to_string(), a.clone());
        let run = hw
            .run(&arrays, &HashMap::new())
            .unwrap_or_else(|e| panic!("case {case}: simulation failed: {e}"));
        // Compare only the elements the loop writes: the hardware's output
        // memory covers exactly the written footprint.
        for (idx, v) in run.arrays["B"].iter().enumerate() {
            assert_eq!(
                *v, expect[idx],
                "case {case}: B[{idx}] diverged from the interpreter\n{}",
                k.source
            );
        }
        compiled_any += 1;
    }
    assert_eq!(compiled_any, 12);
}

/// A planted write collision at any seeded distance is refused with the
/// coded extraction diagnostic — never silently compiled.
#[test]
fn planted_overlap_distances_are_refused() {
    for case in 0..9u64 {
        let mut rng = XorShift64::new(0xbeef0 + case);
        let lanes = 1 + case % 3;
        let dist = 1 + case / 3; // seeded distances 1, 2, 3
        let k = gen_loop_kernel(&mut rng, 2, lanes, Some(dist), LoopShape::default());
        let err = compile(&k.source, "k", &CompileOptions::default())
            .err()
            .unwrap_or_else(|| {
                panic!(
                    "case {case}: planted distance-{dist} collision compiled\n{}",
                    k.source
                )
            });
        let msg = err.to_string();
        assert!(
            msg.contains("L012-overlapping-writes"),
            "case {case}: wrong diagnostic: {msg}"
        );
    }
}

/// The shape that used to miscompile: two write lanes at step 1 touch
/// the same element from *different iterations*, and the interpreter
/// shows program order is observable — the later iteration's lane-0
/// write must win over the earlier iteration's lane-1 write. The
/// per-lane BRAM merge is order-insensitive, so the compiler now refuses
/// the loop instead of emitting hardware that picks an arbitrary winner.
#[test]
fn prior_miscompile_shape_is_refused_and_order_matters() {
    let src = "void k(int A[20], int B[20]) { int i;
      for (i = 0; i < 16; i = i + 1) {
        B[i] = A[i] * 3;
        B[i + 1] = A[i] - 7;
      } }";
    // Golden model: element 5 is written by iteration 4 (lane 1: A[4]-7)
    // then by iteration 5 (lane 0: A[5]*3); program order keeps the later.
    let a: Vec<i64> = (0..20).map(|x| x * 10).collect();
    let expect = golden(src, &a, 20);
    assert_eq!(
        expect[5],
        5 * 10 * 3,
        "program order: lane 0 of iter 5 wins"
    );
    assert_ne!(
        expect[5],
        4 * 10 - 7,
        "an order-insensitive merge could have kept iter 4's lane-1 value"
    );

    let Err(err) = compile(src, "k", &CompileOptions::default()) else {
        panic!("overlapping write lanes must be refused");
    };
    assert!(
        err.to_string().contains("L012-overlapping-writes"),
        "wrong diagnostic: {err}"
    );
}

const CARRIED_DIST4: &str = "void k(int A[40], int B[40]) { int i;
  for (i = 0; i < 32; i = i + 1) { B[i] = A[i] + B[i + 4]; } }";

/// The unroll gate blocks factors larger than the carried-dependence
/// distance with the coded `L010` diagnostic, and lets smaller factors
/// through to the rest of the pipeline.
#[test]
fn unroll_gate_blocks_factors_beyond_carried_distance() {
    // Factor 8 > distance 4: the gate must refuse before extraction.
    let Err(err) = compile(
        CARRIED_DIST4,
        "k",
        &CompileOptions {
            unroll: UnrollStrategy::Partial(8),
            ..CompileOptions::default()
        },
    ) else {
        panic!("unrolling past the carried distance must be refused");
    };
    let msg = err.to_string();
    assert!(
        msg.contains("L010-unroll-carried-dep"),
        "wrong diagnostic: {msg}"
    );
    assert!(msg.contains("B"), "diagnostic names the array: {msg}");

    // Factor 2 <= distance 4: the gate passes; the loop is still refused
    // later (B is read and written), but NOT by the unroll gate.
    let Err(err) = compile(
        CARRIED_DIST4,
        "k",
        &CompileOptions {
            unroll: UnrollStrategy::Partial(2),
            ..CompileOptions::default()
        },
    ) else {
        panic!("read+written output array is refused at extraction");
    };
    assert!(
        !err.to_string().contains("L010-unroll-carried-dep"),
        "factor 2 is legal for distance 4: {err}"
    );
}

/// The strip-mine gate emits its own code (`L011`) for the same shape.
#[test]
fn stripmine_gate_blocks_carried_distance() {
    let Err(err) = compile(
        CARRIED_DIST4,
        "k",
        &CompileOptions {
            stripmine: Some(8),
            ..CompileOptions::default()
        },
    ) else {
        panic!("strip-mining past the carried distance must be refused");
    };
    assert!(
        err.to_string().contains("L011-stripmine-carried-dep"),
        "wrong diagnostic: {err}"
    );
}
