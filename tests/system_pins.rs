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
//! A stage with a feed-forward data path that reads only BRAMs stages its
//! windows by counting words and computes its values in tiles, whether it
//! stores them or streams them, so no stage of the driver steps such a
//! kernel any more. The differential tests below build the reference
//! from the memory-side models instead: per window an address generator,
//! a smart buffer and a BRAM read port, per write a store address
//! generator, and a one-lane `BatchedSim` stepped on every cycle. A
//! storing and a streaming stage run in lockstep with it and must launch,
//! retire and finish alike on every cycle, the streaming stage must push
//! what the reference stores on the cycle it stores it, and arrays and
//! counts must agree; a division fault must still be reported.

use roccc_suite::buffers::{
    AddressGen1d, AddressGen2d, BramModel, OutputAddressGen, SmartBuffer1d, SmartBuffer2d,
};
use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::ipcores::{benchmarks, kernels};
use roccc_suite::netlist::{
    store_addr_gens, window_scan, BatchedSim, Launch, SimPlan, SystemRun, SystemStage, WindowScan,
};
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

/// The smart buffer of a window scan.
enum Smart {
    One(SmartBuffer1d),
    Two(SmartBuffer2d),
}

/// One window of the reference controller: the scan's address
/// generator, a smart buffer and a BRAM read port, word by word.
struct RefFeed {
    addrs: Box<dyn Iterator<Item = i64>>,
    buffer: Smart,
    port_map: Vec<(usize, usize)>,
    window: Vec<i64>,
    staged: bool,
    bram: BramModel,
}

impl RefFeed {
    fn new(scan: WindowScan, data: Vec<i64>) -> Self {
        let (addrs, buffer): (Box<dyn Iterator<Item = i64>>, _) = match scan.dims[..] {
            [d] => (
                Box::new(AddressGen1d::new(d)),
                Smart::One(SmartBuffer1d::new(d.extent, d.step as usize, d.start)),
            ),
            [r, c] => (
                Box::new(AddressGen2d::new(r, c, scan.row_width)),
                Smart::Two(SmartBuffer2d::new(
                    r.extent,
                    c.extent,
                    r.step as usize,
                    c.step as usize,
                    r.start,
                    r.bound,
                    c.start,
                    c.bound,
                    scan.row_width,
                )),
            ),
            _ => unreachable!("one or two dimensions"),
        };
        RefFeed {
            addrs,
            buffer,
            window: vec![0; scan.dims.iter().map(|d| d.extent).product()],
            port_map: scan.port_map,
            staged: false,
            bram: BramModel::new(data),
        }
    }
}

/// One output write of the reference controller.
struct RefStore {
    output: usize,
    port: usize,
    addrs: OutputAddressGen,
    remaining: u64,
}

/// The system driver's controller of one lane, built from the reference
/// models: per window an address generator, a smart buffer and a BRAM
/// read port; per output write a store address generator; and a one-lane
/// `BatchedSim` stepped on every cycle. Stores go to one dense image per
/// output array.
struct Reference<'p> {
    feeds: Vec<RefFeed>,
    stores: Vec<RefStore>,
    arrays: Vec<Vec<i64>>,
    sim: BatchedSim<'p>,
    args: Vec<i64>,
    valid: bool,
    fired: u64,
    total: u64,
    ii: u64,
    bus: usize,
    cycle: u64,
    writes: u64,
}

impl<'p> Reference<'p> {
    fn new(
        hw: &Compiled,
        plan: &'p SimPlan,
        arrays: &HashMap<String, Vec<i64>>,
        bus: usize,
    ) -> Self {
        let k = &hw.kernel;
        let feeds = k
            .windows
            .iter()
            .map(|w| RefFeed::new(window_scan(k, w).unwrap(), arrays[&w.array].clone()))
            .collect();
        let out_ports = k.output_ports();
        let mut stores = Vec::new();
        for (output, o) in k.outputs.iter().enumerate() {
            for (wr, addrs) in o.writes.iter().zip(store_addr_gens(k, o).unwrap()) {
                let port = out_ports.iter().position(|(n, _)| n == &wr.scalar).unwrap();
                let remaining = addrs.total();
                stores.push(RefStore {
                    output,
                    port,
                    addrs,
                    remaining,
                });
            }
        }
        Reference {
            feeds,
            stores,
            arrays: k
                .outputs
                .iter()
                .map(|o| vec![0; o.dims.iter().product()])
                .collect(),
            sim: BatchedSim::new(plan, 1),
            args: vec![0; plan.num_inputs()],
            valid: false,
            fired: 0,
            total: k.total_iterations(),
            ii: plan.ii(),
            bus,
            cycle: 0,
            writes: 0,
        }
    }

    fn land(&mut self) {
        for f in &mut self.feeds {
            for (addr, v) in f.bram.clock_all() {
                match &mut f.buffer {
                    Smart::One(b) => b.push(addr as i64, v),
                    Smart::Two(b) => b.push_flat(addr as i64, v),
                }
            }
            if !f.staged {
                f.staged = match &mut f.buffer {
                    Smart::One(b) => b.pop_window_into(&mut f.window),
                    Smart::Two(b) => b.pop_window_into(&mut f.window),
                };
            }
        }
    }

    fn launch_state(&self) -> Launch {
        if self.fired >= self.total {
            Launch::Finished
        } else if self.ii > 1 && !self.cycle.is_multiple_of(self.ii) {
            Launch::OffGrid
        } else if !self.feeds.iter().all(|f| f.staged) {
            Launch::Starved
        } else {
            Launch::Ready
        }
    }

    fn fire(&mut self) {
        for f in &mut self.feeds {
            assert!(f.staged);
            for &(slot, port) in &f.port_map {
                self.args[port] = f.window[slot];
            }
            f.staged = false;
        }
        self.valid = true;
        self.fired += 1;
    }

    /// Steps, retires (each store is also handed to `push(output, addr,
    /// value)`) and fetches; returns whether anything was stored.
    fn step(&mut self, mut push: impl FnMut(usize, usize, i64)) -> Result<bool, String> {
        self.cycle += 1;
        self.sim
            .step_lanes(&self.args, &[self.valid])
            .map_err(|e| e.0)?;
        self.args.fill(0);
        self.valid = false;
        let mut stored = false;
        if self.sim.lane_out_valid(0) {
            for st in self.stores.iter_mut().filter(|s| s.remaining > 0) {
                let addr = st.addrs.next().ok_or("output address underflow")? as usize;
                let v = self.sim.output_lane(st.port, 0);
                self.arrays[st.output][addr] = v;
                push(st.output, addr, v);
                st.remaining -= 1;
                self.writes += 1;
                stored = true;
            }
        }
        for f in &mut self.feeds {
            for a in f.addrs.by_ref().take(self.bus) {
                f.bram.issue_read(a as usize);
            }
        }
        Ok(stored)
    }

    fn done(&self) -> bool {
        self.fired >= self.total && self.stores.iter().all(|s| s.remaining == 0)
    }

    fn reads(&self) -> u64 {
        self.feeds.iter().map(|f| f.bram.traffic().0).sum()
    }
}

/// `(lane, output, addr, value)` of each streamed store.
type Push = (usize, usize, usize, i64);

/// Runs `hw` over `arrays` with `run_system`'s loop and drain on the
/// reference controller, in lockstep with two system stages of the same
/// kernel: one that stores to BRAM and one that streams every output.
/// Every cycle all three must launch, retire and finish alike, and the
/// streaming stage must push what the reference stores. Returns the
/// reference's run, after checking both stages' traffic and the storing
/// stage's arrays against it.
fn reference_run(hw: &Compiled, arrays: &HashMap<String, Vec<i64>>, bus: usize) -> SystemRun {
    let kernel = &hw.kernel;
    let plan = hw.sim_plan().unwrap();
    let mut reference = Reference::new(hw, &plan, arrays, bus);
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
    let (mut stored, mut streamed) = (stage(false), stage(true));
    let mut cycles = 0;
    let mut drain = 0;
    let (mut want, mut got): (Vec<Push>, Vec<Push>) = (Vec::new(), Vec::new());
    while !reference.done() || drain < hw.netlist.latency + 2 {
        if reference.fired >= reference.total {
            drain += 1;
        }
        cycles += 1;
        reference.land();
        stored.land(|_, _| None);
        streamed.land(|_, _| None);
        let launch = reference.launch_state();
        assert_eq!(launch, stored.launch_state(0), "cycle {cycles}");
        assert_eq!(launch, streamed.launch_state(0), "cycle {cycles}");
        if launch == Launch::Ready {
            reference.fire();
            stored.fire(0);
            streamed.fire(0);
        }
        let retired = reference
            .step(|o, addr, v| want.push((0, o, addr, v)))
            .unwrap();
        assert_eq!(retired, stored.step(|_, _, _, _| {}).unwrap());
        assert_eq!(
            retired,
            streamed
                .step(|l, o, addr, v| got.push((l, o, addr, v)))
                .unwrap()
        );
        assert_eq!(got, want, "pushes by cycle {cycles}");
        assert_eq!(reference.done(), stored.done(), "cycle {cycles}");
        assert_eq!(reference.done(), streamed.done(), "cycle {cycles}");
    }
    let run = SystemRun {
        arrays: kernel
            .outputs
            .iter()
            .map(|o| o.array.clone())
            .zip(reference.arrays.clone())
            .collect(),
        cycles,
        fired: reference.fired,
        mem_reads: reference.reads(),
        mem_writes: reference.writes,
        ..SystemRun::default()
    };
    assert_eq!((stored.fired(0), streamed.fired(0)), (run.fired, run.fired));
    assert_eq!(
        (stored.reads(), streamed.reads()),
        (run.mem_reads, run.mem_reads)
    );
    let mut merged = HashMap::new();
    assert_eq!(stored.merge_outputs(0, "", &mut merged), run.mem_writes);
    assert_eq!(merged, run.arrays);
    assert_eq!(got.len() as u64, run.mem_writes);
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

/// Asserts that `run_system` (which computes a feed-forward data path in
/// tiles) and the reference controller's stepped data path agree on
/// every array and count, with the per-cycle checks of
/// [`reference_run`].
fn assert_deferred_matches_stepped(hw: &Compiled, seed: u64, ctx: &str) {
    assert!(
        !hw.sim_plan().unwrap().has_feedback(),
        "{ctx}: feed-forward"
    );
    let arrays = random_inputs(hw, seed);
    for bus in [1, 4] {
        let deferred = hw.run_with_bus(&arrays, &HashMap::new(), bus).unwrap();
        let stepped = reference_run(hw, &arrays, bus);
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

/// A stage that streams its outputs and reads only BRAMs computes ahead
/// too, and still reports a zero divisor.
#[test]
fn streamed_division_fault_is_reported() {
    let src = "void q(int16 A[64], int16 B[64], int16 C[64]) { int i;
      for (i = 0; i < 64; i = i + 1) { C[i] = A[i] / B[i]; } }";
    let hw = compile(src, "q", &CompileOptions::default()).unwrap();
    let plan = hw.sim_plan().unwrap();
    for at in [0, 21, 63] {
        let mut b: Vec<i64> = (0..64).map(|x| x % 7 + 1).collect();
        b[at] = 0;
        for bus in [1, 4] {
            let memory = vec![vec![Some(vec![100; 64]), Some(b.clone())]];
            let mut stage =
                SystemStage::new(&hw.kernel, &plan, memory, &[true], &HashMap::new(), bus).unwrap();
            let mut cycles = 0;
            let err = loop {
                cycles += 1;
                assert!(cycles < 10_000, "zero divisor at {at}, bus {bus}: no fault");
                stage.land(|_, _| None);
                if stage.launch_state(0) == Launch::Ready {
                    stage.fire(0);
                }
                match stage.step(|_, _, _, _| {}) {
                    Ok(_) => assert!(!stage.done(), "zero divisor at {at}, bus {bus}: no fault"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.0, "division by zero", "zero divisor at {at}, bus {bus}");
        }
    }
}

/// Lanes of one stage may fire on different cycles: here lane 1 takes
/// only every third launch it could. A stage that computes ahead in row
/// order must still hand each lane its own values, stored or streamed.
#[test]
fn lanes_firing_out_of_step_keep_their_own_values() {
    let b = benchmarks().into_iter().find(|b| b.name == "fir").unwrap();
    let hw = compile(&b.source, b.func, &b.opts).unwrap();
    let plan = hw.sim_plan().unwrap();
    let kernel = &hw.kernel;
    let inputs: Vec<_> = (0..2).map(|l| random_inputs(&hw, 40 + l)).collect();
    let memories: Vec<Vec<_>> = inputs
        .iter()
        .map(|a| {
            kernel
                .windows
                .iter()
                .map(|w| Some(a[&w.array].clone()))
                .collect()
        })
        .collect();
    for streamed in [false, true] {
        let flags = vec![streamed; kernel.outputs.len()];
        let mut stage =
            SystemStage::new(kernel, &plan, memories.clone(), &flags, &HashMap::new(), 1).unwrap();
        let mut pushed: Vec<HashMap<String, Vec<i64>>> = vec![HashMap::new(); 2];
        let mut ready = 0;
        let mut cycles = 0;
        while !stage.done() {
            cycles += 1;
            assert!(cycles < 10_000, "streamed {streamed}: no progress");
            stage.land(|_, _| None);
            if stage.launch_state(0) == Launch::Ready {
                stage.fire(0);
            }
            if stage.launch_state(1) == Launch::Ready {
                ready += 1;
                if ready % 3 == 0 {
                    stage.fire(1);
                }
            }
            stage
                .step(|l, o, addr, v| {
                    let out = &kernel.outputs[o];
                    let image = pushed[l]
                        .entry(out.array.clone())
                        .or_insert_with(|| vec![0; out.dims.iter().product()]);
                    image[addr] = v;
                })
                .unwrap();
        }
        assert!(stage.fired(0) == stage.fired(1) && cycles > 2 * 134);
        for (l, arrays) in inputs.iter().enumerate() {
            let want = hw.run(arrays, &HashMap::new()).unwrap().arrays;
            let mut got = HashMap::new();
            stage.merge_outputs(l, "", &mut got);
            if streamed {
                got = std::mem::take(&mut pushed[l]);
            }
            assert_eq!(got, want, "lane {l}, streamed {streamed}");
        }
    }
}
