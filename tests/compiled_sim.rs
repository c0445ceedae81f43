//! The compiled engine's two stream drivers against the reference: a
//! one-lane `BatchedSim` stepped cycle by cycle on the II launch grid
//! (what a stepped `SystemStage` does) and `SimPlan::run_batch_lanes` (the prove
//! replay path at one lane) must both retire exactly the rows that
//! `NetlistSim::run_stream` does, on full valid streams for every paper
//! kernel.

use roccc_suite::ipcores::{benchmarks, table::compile_benchmark};
use roccc_suite::netlist::{BatchedSim, NetlistSim, SimError, SimPlan};
use roccc_suite::testrand::XorShift64;

/// Steps a one-lane `BatchedSim` through `iters` the way
/// `NetlistSim::run_stream` does: one launch every `ii` cycles, bubbles in
/// between, then `latency + 2` drain cycles. Returns the retired rows.
fn step_stream(plan: &SimPlan, iters: &[Vec<i64>]) -> Result<Vec<Vec<i64>>, SimError> {
    let mut sim = BatchedSim::new(plan, 1);
    let zeros = vec![0i64; plan.num_inputs()];
    let ii = plan.ii() as usize;
    let total = iters.len() * ii + plan.latency() as usize + 2;
    let mut out = Vec::new();
    for t in 0..total {
        let iter = (t % ii == 0).then(|| iters.get(t / ii)).flatten();
        let (args, valid) = match iter {
            Some(a) => (a.as_slice(), true),
            None => (zeros.as_slice(), false),
        };
        sim.step_lanes(args, &[valid])?;
        if sim.lane_out_valid(0) {
            let mut row = vec![0i64; plan.num_outputs()];
            sim.read_outputs_lane(0, &mut row);
            out.push(row);
        }
    }
    Ok(out)
}

/// Per-cycle stepping and the batch driver agree with the reference
/// engine on full valid streams for every paper kernel.
#[test]
fn run_stream_and_run_batch_agree_on_paper_kernels() {
    for (k, b) in benchmarks().iter().enumerate() {
        let hw = compile_benchmark(b).expect("benchmark compiles");
        let nl = &hw.netlist;
        let plan = SimPlan::compile(nl).expect("plan compiles");
        let mut rng = XorShift64::new(0xa000 + k as u64);
        let iters: Vec<Vec<i64>> = (0..64)
            .map(|_| nl.inputs.iter().map(|(_, t)| rng.sample_int(*t)).collect())
            .collect();

        let reference = NetlistSim::new(nl).run_stream(&iters);
        let streamed = step_stream(&plan, &iters);
        match (&reference, &streamed) {
            (Ok(a), Ok(c)) => assert_eq!(a, c, "{}: stepped stream diverged", b.name),
            (Err(a), Err(c)) => {
                assert_eq!(format!("{a:?}"), format!("{c:?}"), "{}", b.name);
                continue;
            }
            _ => panic!("{}: stream fault mismatch", b.name),
        }

        let flat: Vec<i64> = iters.iter().flatten().copied().collect();
        let mut out_flat = Vec::new();
        let retired = plan
            .run_batch_lanes(&flat, iters.len(), 1, &mut out_flat)
            .expect("batch runs");
        let expect = reference.unwrap();
        assert_eq!(retired, expect.len(), "{}: batch retire count", b.name);
        let flat_expect: Vec<i64> = expect.iter().flatten().copied().collect();
        assert_eq!(out_flat, flat_expect, "{}: batch outputs", b.name);
    }
}
