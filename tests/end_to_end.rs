//! End-to-end differential tests: for every Table 1 kernel, the generated
//! hardware (cycle-accurate netlist / full-system simulation) must match
//! the golden-model C interpreter bit for bit.

use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::ipcores::{benchmarks, table::compile_benchmark};
use roccc_suite::netlist::NetlistSim;
use roccc_suite::roccc::Compiled;
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

/// Random value in a type's range.
fn sample(rng: &mut XorShift64, ty: roccc_suite::cparse::IntType) -> i64 {
    rng.sample_int(ty)
}

/// Differential test of a scalar (non-streaming) kernel.
fn check_scalar_kernel(hw: &Compiled, source: &str, func: &str, iters: usize, seed: u64) {
    let prog = frontend(source).expect("kernel parses");
    let mut rng = XorShift64::new(seed);
    let args_list: Vec<Vec<i64>> = (0..iters)
        .map(|_| {
            hw.netlist
                .inputs
                .iter()
                .map(|(_, t)| sample(&mut rng, *t))
                .collect()
        })
        .collect();

    let mut sim = NetlistSim::new(&hw.netlist);
    let outs = sim.run_stream(&args_list).expect("simulation runs");
    assert_eq!(outs.len(), args_list.len());

    for (args, hw_out) in args_list.iter().zip(&outs) {
        let mut interp = Interpreter::new(&prog);
        let golden = interp
            .call(func, args, &mut HashMap::new())
            .expect("golden model runs");
        for ((name, _, _), v) in hw.netlist.outputs.iter().zip(hw_out) {
            assert_eq!(
                *v,
                golden.outputs[name.as_str()],
                "{func}: output {name} for args {args:?}"
            );
        }
    }
}

/// Differential test of a streaming kernel over random arrays.
fn check_streaming_kernel(hw: &Compiled, source: &str, func: &str, seed: u64) {
    let prog = frontend(source).expect("kernel parses");
    let f = prog.function(func).expect("function exists");
    let mut rng = XorShift64::new(seed);

    let mut inputs: HashMap<String, Vec<i64>> = HashMap::new();
    let mut golden_arrays: HashMap<String, Vec<i64>> = HashMap::new();
    for p in &f.params {
        if let roccc_suite::cparse::CType::Array(t, dims) = &p.ty {
            let n: usize = dims.iter().product();
            let is_input = hw.kernel.windows.iter().any(|w| w.array == p.name);
            let data: Vec<i64> = if is_input {
                (0..n).map(|_| sample(&mut rng, *t)).collect()
            } else {
                vec![0; n]
            };
            if is_input {
                inputs.insert(p.name.clone(), data.clone());
            }
            golden_arrays.insert(p.name.clone(), data);
        }
    }

    let run = hw.run(&inputs, &HashMap::new()).expect("system runs");
    Interpreter::new(&prog)
        .call(func, &[], &mut golden_arrays)
        .expect("golden model runs");

    for o in &hw.kernel.outputs {
        assert_eq!(
            run.arrays[&o.array], golden_arrays[&o.array],
            "{func}: output array {}",
            o.array
        );
    }
    for name in &hw.kernel.live_out {
        // The golden model exports live-outs through the out-pointer; rerun
        // to fetch them.
        let mut ga = golden_arrays.clone();
        let out = Interpreter::new(&prog).call(func, &[], &mut ga).unwrap();
        let expect = out
            .outputs
            .values()
            .next()
            .copied()
            .expect("live-out present");
        assert_eq!(run.scalars[name], expect, "{func}: live-out {name}");
    }
}

#[test]
fn bit_correlator_matches_golden() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "bit_correlator")
        .unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_scalar_kernel(&hw, &b.source, b.func, 64, 101);
}

#[test]
fn udiv_matches_golden() {
    let b = benchmarks().into_iter().find(|b| b.name == "udiv").unwrap();
    let hw = compile_benchmark(&b).unwrap();
    // Avoid the divide-free path: udiv kernel handles d = 0 gracefully
    // (quotient of all-ones), matching the golden model exactly anyway.
    check_scalar_kernel(&hw, &b.source, b.func, 128, 102);
}

#[test]
fn square_root_matches_golden() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "square_root")
        .unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_scalar_kernel(&hw, &b.source, b.func, 128, 103);
}

#[test]
fn udiv_bit_macro_variant_matches_golden_in_hardware() {
    // The paper's future-work "bit manipulation macros", implemented here:
    // the ROCCC_bits/ROCCC_cat form must be bit-exact too.
    let src = roccc_suite::ipcores::kernels::udiv_bits_source();
    let hw = roccc_suite::roccc::compile(
        &src,
        "udiv",
        &roccc_suite::roccc::CompileOptions {
            target_period_ns: 3.7,
            ..Default::default()
        },
    )
    .unwrap();
    check_scalar_kernel(&hw, &src, "udiv", 128, 110);
}

#[test]
fn bit_intrinsics_compile_and_match() {
    let src = "void pack(uint8 a, uint8 b, uint16* o) {
       uint4 hi = ROCCC_bits(a, 7, 4);
       uint4 lo = ROCCC_bits(b, 3, 0);
       *o = ROCCC_cat(hi, lo, 4); }";
    let hw = roccc_suite::roccc::compile(src, "pack", &Default::default()).unwrap();
    check_scalar_kernel(&hw, src, "pack", 64, 111);
}

#[test]
fn cos_lut_matches_golden() {
    let b = benchmarks().into_iter().find(|b| b.name == "cos").unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_scalar_kernel(&hw, &b.source, b.func, 64, 104);
}

#[test]
fn arbitrary_lut_matches_golden() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "arbitrary_lut")
        .unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_scalar_kernel(&hw, &b.source, b.func, 64, 105);
}

#[test]
fn fir_matches_golden() {
    let b = benchmarks().into_iter().find(|b| b.name == "fir").unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_streaming_kernel(&hw, &b.source, b.func, 106);
}

#[test]
fn dct_matches_golden() {
    let b = benchmarks().into_iter().find(|b| b.name == "dct").unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_streaming_kernel(&hw, &b.source, b.func, 107);
}

#[test]
fn mul_acc_matches_golden() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "mul_acc")
        .unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_streaming_kernel(&hw, &b.source, b.func, 108);
}

#[test]
fn combined_stream_and_reduction_matches_golden() {
    // Array outputs and a feedback live-out in the same kernel.
    let src = "void running(int16 A[16], int16 B[16], int* total) {
      int sum = 0; int i;
      for (i = 0; i < 16; i++) {
        B[i] = A[i] * 2 + 1;
        sum = sum + A[i];
      }
      *total = sum; }";
    let hw = roccc_suite::roccc::compile(src, "running", &Default::default()).unwrap();
    assert_eq!(hw.kernel.outputs.len(), 1);
    assert_eq!(hw.kernel.live_out, vec!["sum"]);

    let a: Vec<i64> = (0..16).map(|x| x * 5 - 30).collect();
    let mut arrays = HashMap::new();
    arrays.insert("A".to_string(), a.clone());
    let run = hw.run(&arrays, &HashMap::new()).unwrap();
    let expect_b: Vec<i64> = a.iter().map(|x| x * 2 + 1).collect();
    assert_eq!(run.arrays["B"], expect_b);
    assert_eq!(run.scalars["sum"], a.iter().sum::<i64>());
}

#[test]
fn mul_acc_multiply_variant_matches_branchy_in_hardware() {
    // §5's algorithm-level rewrite produces identical results in hardware.
    let src = roccc_suite::ipcores::kernels::mul_acc_multiply_source();
    let hw = roccc_suite::roccc::compile(src.as_str(), "mul_acc", &Default::default()).unwrap();
    let mut rng = XorShift64::new(42);
    let mut arrays = HashMap::new();
    arrays.insert(
        "a".to_string(),
        (0..256).map(|_| rng.gen_range(-2048, 2047)).collect(),
    );
    arrays.insert(
        "b".to_string(),
        (0..256).map(|_| rng.gen_range(-2048, 2047)).collect(),
    );
    arrays.insert(
        "nd".to_string(),
        (0..256).map(|_| rng.gen_range(0, 1)).collect(),
    );
    let run = hw.run(&arrays, &HashMap::new()).unwrap();
    let expect: i64 = (0..256)
        .map(|i| arrays["a"][i] * arrays["b"][i] * arrays["nd"][i])
        .sum();
    assert_eq!(run.scalars["acc"], expect);
}

#[test]
fn wavelet_matches_golden() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "wavelet")
        .unwrap();
    let hw = compile_benchmark(&b).unwrap();
    check_streaming_kernel(&hw, &b.source, b.func, 109);
}

#[test]
fn loop_without_input_window_fires_every_cycle() {
    // No array is read, so no window ever stages: the controller fires on
    // every grid cycle instead of waiting for one.
    let src = "void k(int16 Y[16]) { int i; for (i = 0; i < 16; i = i + 1) { Y[i] = 7; } }";
    let hw = roccc_suite::roccc::compile(src, "k", &Default::default()).unwrap();
    assert!(hw.kernel.windows.is_empty());
    check_streaming_kernel(&hw, src, "k", 110);
    let run = hw.run(&HashMap::new(), &HashMap::new()).unwrap();
    assert_eq!((run.fired, run.mem_reads, run.mem_writes), (16, 0, 16));
    assert_eq!(run.cycles, 16 + hw.netlist.latency as u64 + 2);
}
