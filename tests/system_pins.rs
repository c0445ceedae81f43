//! Cycle pins for the system driver.
//!
//! `run_system` runs one `SystemStage` to completion and `run_cosim` runs
//! one per pipeline stage under channel credits. Their memory side (smart
//! buffers, BRAM read port, channel FIFOs) is pure modelling: rewriting
//! its data structures or the driver around it must not move a single
//! cycle. These tests pin every
//! observable count — cycles, firings, memory traffic, per-stage stall
//! and starve counters and FIFO peaks — at the values the map-based
//! buffers produced, for the three streaming Table 1 kernels and the
//! `wavelet | threshold | encode` pipeline. The pipeline's channel depths
//! and the cycles of its stages run one after another (the
//! store-and-forward baseline the co-simulation overlaps) are pinned too.
//!
//! A stage with a feed-forward data path that stores to BRAM computes
//! its values in tiles instead of stepping the data path per cycle. The
//! differential tests below run such a stage in lockstep with the same
//! kernel's stepped stage (one that streams its outputs) and require the
//! same launches, retires, arrays and counts; a division fault must still
//! be reported.

use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::ipcores::{benchmarks, kernels};
use roccc_suite::netlist::{Launch, SystemRun, SystemStage};
use roccc_suite::roccc::{compile, CompileOptions, Compiled};
use roccc_suite::stream::{compile_pipeline, parse_spec, run_cosim, CompiledPipeline};
use roccc_suite::testrand::exprgen::{gen_loop_kernel, gen_recurrence_kernel, LoopShape};
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

/// Runs Table 1 kernel `name` under its own options on seeded inputs
/// over a `bus`-word memory bus and returns
/// `(cycles, fired, mem_reads, mem_writes)`.
fn system_counts(name: &str, bus: usize) -> (u64, u64, u64, u64) {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("Table 1 kernel");
    let hw = compile(&b.source, b.func, &b.opts).unwrap();
    let mut rng = XorShift64::new(0x5157_0000 + name.len() as u64);
    let arrays: HashMap<String, Vec<i64>> = hw
        .kernel
        .windows
        .iter()
        .map(|w| {
            let n: usize = w.dims.iter().product();
            (
                w.array.clone(),
                (0..n).map(|_| rng.gen_range(-99, 99)).collect(),
            )
        })
        .collect();
    let run = hw.run_with_bus(&arrays, &HashMap::new(), bus).unwrap();
    (run.cycles, run.fired, run.mem_reads, run.mem_writes)
}

#[test]
fn fir_system_counts_are_pinned() {
    assert_eq!(system_counts("fir", 1), (134, 124, 128, 248));
}

#[test]
fn dct_system_counts_are_pinned() {
    assert_eq!(system_counts("dct", 1), (70, 8, 64, 64));
}

#[test]
fn wavelet_system_counts_are_pinned() {
    assert_eq!(system_counts("wavelet", 1), (3727, 841, 3721, 3364));
}

#[test]
fn wide_bus_system_counts_are_pinned() {
    assert_eq!(system_counts("fir", 2), (132, 124, 128, 248));
    assert_eq!(system_counts("dct", 8), (14, 8, 64, 64));
    assert_eq!(system_counts("wavelet", 4), (951, 841, 3721, 3364));
}

/// `(stage, fired, stall cycles, starve cycles)`.
type StageRow = (String, u64, u64, u64);

/// Compiles `wavelet | threshold | encode` with `extra_spec` appended to
/// the demo spec.
fn wavelet_pipeline(extra_spec: &str) -> CompiledPipeline {
    let spec = parse_spec(&format!("{}{extra_spec}", kernels::wavelet_pipeline_spec())).unwrap();
    compile_pipeline(
        &kernels::wavelet_pipeline_source(),
        &spec,
        &CompileOptions::default(),
    )
    .unwrap()
}

/// Co-simulates `wavelet | threshold | encode` (with `extra_spec`
/// appended to the demo spec) over `lanes` seeded lanes and returns the
/// cycles, per-stage `(name, fired, stall, starve)` and FIFO peaks.
fn pipeline_counts(extra_spec: &str, lanes: usize) -> (u64, Vec<StageRow>, Vec<usize>) {
    let cp = wavelet_pipeline(extra_spec);
    let mut rng = XorShift64::new(23);
    let inputs: Vec<HashMap<String, Vec<i64>>> = (0..lanes)
        .map(|_| {
            let x = (0..64 * 64).map(|_| rng.gen_range(-100, 100)).collect();
            HashMap::from([("X".to_string(), x)])
        })
        .collect();
    let run = run_cosim(&cp, &inputs, &HashMap::new()).unwrap();
    assert_eq!(run.mem_writes, 4096 * lanes as u64);
    let stages = run
        .stages
        .iter()
        .map(|s| (s.name.clone(), s.fired, s.stall_cycles, s.starve_cycles))
        .collect();
    (run.cycles, stages, run.fifo_peaks)
}

fn named(rows: [(&str, u64, u64, u64); 3]) -> Vec<StageRow> {
    rows.iter()
        .map(|&(n, f, s, t)| (n.to_string(), f, s, t))
        .collect()
}

#[test]
fn wavelet_pipeline_counts_are_pinned() {
    assert_eq!(
        pipeline_counts("", 1),
        (
            4348,
            named([
                ("wavelet", 841, 2233, 815),
                ("threshold", 4096, 0, 252),
                ("encode", 4096, 0, 252),
            ]),
            vec![64, 1],
        )
    );
}

#[test]
fn multi_lane_pipeline_counts_are_pinned() {
    assert_eq!(
        pipeline_counts("", 3),
        (
            4348,
            named([
                ("wavelet", 2523, 6699, 2445),
                ("threshold", 12288, 0, 756),
                ("encode", 12288, 0, 756),
            ]),
            vec![64, 1],
        )
    );
}

#[test]
fn min_depth_pipeline_counts_are_pinned() {
    // The channel clamped to its deadlock-free minimum depth.
    assert_eq!(
        pipeline_counts("fifo threshold.Y depth=60\n", 1),
        (
            4464,
            named([
                ("wavelet", 841, 2603, 562),
                ("threshold", 4096, 0, 368),
                ("encode", 4096, 0, 368),
            ]),
            vec![60, 1],
        )
    );
}

/// The demo pipeline's channel `(min_depth, depth)` pairs, and the cycles
/// of each stage run to completion on its own in pipeline order, each
/// consumer reading its producer's finished output array. Their sum,
/// 11928 cycles, is what the co-simulation's 4348 overlap.
#[test]
fn wavelet_pipeline_depths_and_stage_cycles_are_pinned() {
    let cp = wavelet_pipeline("");
    let depths: Vec<_> = cp.channels.iter().map(|c| (c.min_depth, c.depth)).collect();
    assert_eq!(depths, [(60, 64), (1, 2)]);

    let mut rng = XorShift64::new(23);
    let x = (0..64 * 64).map(|_| rng.gen_range(-100, 100)).collect();
    let mut arrays = HashMap::from([("X".to_string(), x)]);
    let bus = cp.spec.bus_elems.max(1);
    let cycles: Vec<u64> = cp
        .stages
        .iter()
        .map(|st| {
            let run = st
                .compiled
                .run_with_bus(&arrays, &HashMap::new(), bus)
                .unwrap();
            for o in &st.compiled.kernel.outputs {
                let mut data = run.arrays.get(&o.array).cloned().unwrap_or_default();
                data.resize(o.dims.iter().product(), 0);
                arrays.insert(o.array.clone(), data);
            }
            run.cycles
        })
        .collect();
    assert_eq!(cycles, [3728, 4100, 4100]);
}

/// `run_system` with the data path stepped on every cycle: a one-lane
/// stage that streams every output (so it cannot defer), its pushed words
/// collected into arrays, run with `run_system`'s loop and drain. A
/// second stage that stores to BRAM (and so defers) runs beside it, and
/// every cycle both must launch, retire and finish alike.
fn stepped_run(hw: &Compiled, arrays: &HashMap<String, Vec<i64>>, bus: usize) -> SystemRun {
    let kernel = &hw.kernel;
    let plan = hw.sim_plan().unwrap();
    let memory: Vec<_> = kernel
        .windows
        .iter()
        .map(|w| Some(arrays[&w.array].clone()))
        .collect();
    let stage = |streamed: bool| {
        let streamed = vec![streamed; kernel.outputs.len()];
        let memories = vec![memory.clone()];
        SystemStage::new(kernel, &plan, memories, &streamed, &HashMap::new(), bus).unwrap()
    };
    let (mut stepped, mut deferred) = (stage(true), stage(false));
    let mut run = SystemRun::default();
    for o in &kernel.outputs {
        run.arrays
            .insert(o.array.clone(), vec![0; o.dims.iter().product()]);
    }
    let total = kernel.total_iterations();
    let mut drain = 0;
    while !stepped.done() || drain < hw.netlist.latency + 2 {
        if stepped.fired(0) >= total {
            drain += 1;
        }
        run.cycles += 1;
        stepped.land(|_, _| None);
        deferred.land(|_, _| None);
        let launch = stepped.launch_state(0);
        assert_eq!(launch, deferred.launch_state(0), "cycle {}", run.cycles);
        if launch == Launch::Ready {
            stepped.fire(0);
            deferred.fire(0);
        }
        let retired = stepped
            .step(|_, o, addr, v| {
                run.arrays.get_mut(&kernel.outputs[o].array).unwrap()[addr] = v;
                run.mem_writes += 1;
            })
            .unwrap();
        assert_eq!(retired, deferred.step(|_, _, _, _| {}).unwrap());
        assert_eq!(stepped.done(), deferred.done(), "cycle {}", run.cycles);
    }
    run.fired = stepped.fired(0);
    run.mem_reads = stepped.reads();
    let mut stored = HashMap::new();
    assert_eq!(deferred.merge_outputs(0, "", &mut stored), run.mem_writes);
    assert_eq!(stored, run.arrays);
    run
}

/// Seeded inputs for every window of `hw`.
fn random_inputs(hw: &Compiled, seed: u64) -> HashMap<String, Vec<i64>> {
    let mut rng = XorShift64::new(seed);
    hw.kernel
        .windows
        .iter()
        .map(|w| {
            let n: usize = w.dims.iter().product();
            (
                w.array.clone(),
                (0..n).map(|_| rng.gen_range(-99, 99)).collect(),
            )
        })
        .collect()
}

/// Asserts that `run_system` (which defers a feed-forward data path into
/// tiles) and the stepped data path agree on every array and count.
fn assert_deferred_matches_stepped(hw: &Compiled, seed: u64, ctx: &str) {
    assert!(
        !hw.sim_plan().unwrap().has_feedback(),
        "{ctx}: feed-forward"
    );
    let arrays = random_inputs(hw, seed);
    for bus in [1, 4] {
        let deferred = hw.run_with_bus(&arrays, &HashMap::new(), bus).unwrap();
        let stepped = stepped_run(hw, &arrays, bus);
        let counts = |r: &SystemRun| (r.cycles, r.fired, r.mem_reads, r.mem_writes);
        assert_eq!(counts(&deferred), counts(&stepped), "{ctx} bus {bus}");
        assert_eq!(deferred.arrays, stepped.arrays, "{ctx} bus {bus}");
    }
}

#[test]
fn deferred_data_path_matches_stepped_on_table1_kernels() {
    for name in ["fir", "dct", "wavelet"] {
        let b = benchmarks().into_iter().find(|b| b.name == name).unwrap();
        let hw = compile(&b.source, b.func, &b.opts).unwrap();
        assert_deferred_matches_stepped(&hw, 0x7113, name);
    }
    // Scheduled at II 2, the tiles launch on the wide simulation's grid.
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "wavelet")
        .unwrap();
    let opts = CompileOptions {
        pipeline_ii: Some(2),
        ..b.opts.clone()
    };
    let hw = compile(&b.source, b.func, &opts).unwrap();
    assert_eq!(hw.sim_plan().unwrap().ii(), 2);
    assert_deferred_matches_stepped(&hw, 0x7114, "wavelet at II 2");
}

#[test]
fn deferred_data_path_matches_stepped_on_generated_loops() {
    for seed in 0..6u64 {
        let mut rng = XorShift64::new(0xdef0 + seed);
        let shape = LoopShape {
            trip: [16, 20, 37][seed as usize % 3],
            local_temp: false,
        };
        let k = gen_loop_kernel(&mut rng, 3, 1 + seed % 2, None, shape);
        let hw = compile(&k.source, "k", &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{e}\n{}", k.source));
        assert_deferred_matches_stepped(&hw, seed, &k.source);
    }
}

/// A store indexed by fewer loop variables than the nest runs out of
/// addresses before the last firing: the stores finish while firings are
/// still in the pipeline, and those firings store nothing.
#[test]
fn deferred_data_path_matches_stepped_when_stores_run_out() {
    let src = "void k(int A[8][8], int Y[8]) { int i; int j;
      for (i = 0; i < 8; i = i + 1) { for (j = 0; j < 8; j = j + 1) { Y[i] = A[i][j]; } } }";
    let hw = compile(src, "k", &CompileOptions::default()).unwrap();
    assert_eq!(hw.kernel.total_iterations(), 64);
    assert_deferred_matches_stepped(&hw, 3, src);
}

#[test]
fn feedback_data_path_steps_and_matches_the_interpreter() {
    let mut rng = XorShift64::new(0xfeed);
    let k = gen_recurrence_kernel(&mut rng, 2, 2, false);
    let hw = compile(&k.source, "k", &CompileOptions::default()).unwrap();
    assert!(hw.sim_plan().unwrap().has_feedback());
    let arrays = random_inputs(&hw, 5);
    let run = hw.run(&arrays, &HashMap::new()).unwrap();

    let prog = frontend(&k.source).unwrap();
    let mut golden = arrays.clone();
    golden.insert("B".into(), vec![0; k.b_len]);
    Interpreter::new(&prog).call("k", &[], &mut golden).unwrap();
    assert_eq!(run.arrays["B"], golden["B"], "{}", k.source);
    assert_eq!(run.fired, k.trip);
}

#[test]
fn deferred_division_fault_is_reported() {
    let src = "void q(int16 A[64], int16 B[64], int16 C[64]) { int i;
      for (i = 0; i < 64; i = i + 1) { C[i] = A[i] / B[i]; } }";
    let hw = compile(src, "q", &CompileOptions::default()).unwrap();
    assert!(!hw.sim_plan().unwrap().has_feedback());
    // In the first tile, a middle one and the last.
    for at in [0, 21, 63] {
        let mut b: Vec<i64> = (0..64).map(|x| x % 7 + 1).collect();
        b[at] = 0;
        let arrays = HashMap::from([("A".to_string(), vec![100; 64]), ("B".to_string(), b)]);
        for bus in [1, 4] {
            let err = hw.run_with_bus(&arrays, &HashMap::new(), bus).unwrap_err();
            assert_eq!(err.0, "division by zero", "zero divisor at {at}, bus {bus}");
        }
    }
}
