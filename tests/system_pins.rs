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

use roccc_suite::ipcores::{benchmarks, kernels};
use roccc_suite::roccc::{compile, CompileOptions};
use roccc_suite::stream::{compile_pipeline, parse_spec, run_cosim, CompiledPipeline};
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
