//! Differential tests for the one compiled simulation engine. The
//! lane-batched `BatchedSim` must agree bit for bit with the per-cycle
//! reference interpreter `NetlistSim` — same outputs, same `out_valid`
//! timing, same feedback-register state, same fault behaviour — whether it
//! is stepped cycle by cycle (one lane is the `run_system` path) or driven
//! through `SimPlan::run_batch_lanes` at several lane counts (including
//! counts that do not divide the iteration total, so the padded edge tile
//! is exercised). Kernels: every Table 1 paper kernel, randomly generated
//! expression kernels, and hand-built netlists; bubbles carry garbage.

use roccc_suite::cparse::types::IntType;
use roccc_suite::ipcores::{benchmarks, table::compile_benchmark};
use roccc_suite::netlist::{BatchedSim, Cell, CellKind, Netlist, NetlistSim, SimPlan};
use roccc_suite::roccc::{compile, CompileOptions};
use roccc_suite::suifvm::ir::Opcode;
use roccc_suite::testrand::exprgen::gen_kernel_source;
use roccc_suite::testrand::XorShift64;

/// Lane counts stepped cycle by cycle: one lane (the `run_system` path)
/// and an odd width whose lanes run unrelated streams.
const STEP_LANES: [usize; 2] = [1, 3];

/// Lane counts for the batch driver: one lane, divisor-friendly powers of
/// two, and deliberately awkward counts (prime, larger than the
/// iteration total) that force partial edge tiles.
const LANE_COUNTS: [usize; 7] = [1, 3, 4, 7, 8, 64, 200];

/// Iterations per kernel for the batch driver — odd on purpose so most
/// lane counts above leave remainder lanes.
const ITERS: usize = 123;

/// Steps a `lanes`-wide `BatchedSim` and one `NetlistSim` per lane in
/// lock-step through `cycles` cycles and asserts cycle-by-cycle
/// equivalence in every lane. Each lane gets its own valid/bubble mix;
/// bubble cycles carry raw 64-bit garbage in the argument slots (the
/// hardware must ignore them), valid cycles carry in-range values.
fn drive_differential(nl: &Netlist, name: &str, lanes: usize, cycles: usize, seed: u64) {
    let plan = SimPlan::compile(nl).expect("plan compiles");
    let mut references: Vec<NetlistSim> = (0..lanes).map(|_| NetlistSim::new(nl)).collect();
    let mut sim = BatchedSim::new(&plan, lanes);
    let mut rng = XorShift64::new(seed);
    let n_in = nl.inputs.len();
    let mut rows = vec![0i64; lanes * n_in];
    let mut valid = vec![false; lanes];
    let mut out_buf = vec![0i64; nl.outputs.len()];

    for t in 0..cycles {
        for (row, v) in rows.chunks_mut(n_in.max(1)).zip(valid.iter_mut()) {
            *v = rng.gen_ratio(3, 4);
            for (slot, (_, ty)) in row.iter_mut().zip(&nl.inputs) {
                // Garbage, possibly far out of range and zero-prone.
                *slot = if *v {
                    rng.sample_int(*ty)
                } else {
                    rng.next_u64() as i64
                };
            }
        }
        let expect: Vec<_> = references
            .iter_mut()
            .enumerate()
            .map(|(l, r)| r.step(&rows[l * n_in..(l + 1) * n_in], valid[l]))
            .collect();
        let got = sim.step_lanes(&rows, &valid);
        let faults: Vec<String> = expect
            .iter()
            .filter_map(|r| r.as_ref().err().map(|e| format!("{e:?}")))
            .collect();
        if !faults.is_empty() {
            // Both engines fault on the same cycle with the same error
            // (e.g. a valid iteration dividing by zero).
            let e = got.expect_err(&format!("{name} cycle {t}: only the reference faulted"));
            assert!(
                faults.contains(&format!("{e:?}")),
                "{name} cycle {t}: different faults: {faults:?} / {e:?}"
            );
            return;
        }
        got.unwrap_or_else(|e| panic!("{name} cycle {t}: only the compiled engine faulted: {e}"));
        for (l, r) in expect.into_iter().enumerate() {
            let r = r.expect("checked above");
            assert_eq!(
                r.out_valid,
                sim.lane_out_valid(l),
                "{name} lane {l} cycle {t}: out_valid timing diverged"
            );
            sim.read_outputs_lane(l, &mut out_buf);
            assert_eq!(r.outputs, out_buf, "{name} lane {l} cycle {t}: outputs");
            for (k, v) in out_buf.iter().enumerate() {
                assert_eq!(*v, sim.output_lane(k, l), "{name} lane {l} cycle {t}: {k}");
            }
        }
    }

    for (l, reference) in references.iter().enumerate() {
        assert_eq!(reference.cycles(), sim.cycles(), "{name}: cycle count");
        for (fname, _) in &nl.feedback_regs {
            assert_eq!(
                reference.feedback_value(fname),
                sim.feedback_value(fname, l),
                "{name} lane {l}: feedback register {fname} diverged after {cycles} cycles"
            );
        }
    }
}

/// Runs `ITERS` in-range iterations through the reference interpreter and
/// through `run_batch_lanes` at every lane count in [`LANE_COUNTS`],
/// asserting all agree row for row, in the original iteration order.
fn drive_batched_differential(nl: &Netlist, name: &str, seed: u64) {
    let plan = SimPlan::compile(nl).expect("plan compiles");
    let mut rng = XorShift64::new(seed);
    let iters: Vec<Vec<i64>> = (0..ITERS)
        .map(|_| nl.inputs.iter().map(|(_, t)| rng.sample_int(*t)).collect())
        .collect();
    let flat = iters.concat();

    let reference = NetlistSim::new(nl).run_stream(&iters);
    for lanes in LANE_COUNTS {
        let mut out = Vec::new();
        let got = plan.run_batch_lanes(&flat, ITERS, lanes, &mut out);
        match &reference {
            Ok(rows) => {
                let rows_out = got.expect("batched run");
                assert_eq!(rows_out, ITERS, "{name}: lanes={lanes} retire count");
                assert_eq!(out, rows.concat(), "{name}: lanes={lanes} outputs diverged");
            }
            // A faulting stream (e.g. a generated kernel dividing by zero)
            // must fault at every lane count; at one lane the iteration
            // order and so the fault are exactly the reference's.
            Err(e_ref) => {
                let e = got.expect_err("reference faulted but the compiled engine did not");
                if lanes == 1 {
                    assert_eq!(format!("{e_ref:?}"), format!("{e:?}"), "{name}");
                }
            }
        }
    }
}

/// Every Table 1 paper kernel, several hundred cycles, mixed bubbles.
#[test]
fn paper_kernels_differential() {
    for (k, b) in benchmarks().iter().enumerate() {
        let hw = compile_benchmark(b).expect("benchmark compiles");
        for lanes in STEP_LANES {
            drive_differential(&hw.netlist, b.name, lanes, 300, 0x7000 + k as u64);
        }
    }
}

/// Randomly generated straight-line expression kernels at several clock
/// targets (deeper pipelines stress the occupancy/retire paths).
#[test]
fn generated_expression_kernels_differential() {
    for case in 0..16u64 {
        let mut rng = XorShift64::new(0x8000 + case);
        let src = gen_kernel_source(&mut rng, 3);
        let period = [1000.0f64, 6.0, 3.0][rng.gen_index(3)];
        let hw = compile(
            &src,
            "k",
            &CompileOptions {
                target_period_ns: period,
                ..CompileOptions::default()
            },
        )
        .expect("generated kernel compiles");
        let name = format!("expr_{case}");
        for lanes in STEP_LANES {
            drive_differential(&hw.netlist, &name, lanes, 200, 0x9000 + case);
        }
    }
}

/// Every Table 1 paper kernel through the batch driver, all lane counts.
#[test]
fn paper_kernels_batched_differential() {
    for (k, b) in benchmarks().iter().enumerate() {
        let hw = compile_benchmark(b).expect("benchmark compiles");
        drive_batched_differential(&hw.netlist, b.name, 0xb000 + k as u64);
    }
}

/// Randomly generated straight-line expression kernels at several clock
/// targets (deeper pipelines mean more passes of pure pipeline drain,
/// where every lane is a bubble).
#[test]
fn generated_expression_kernels_batched_differential() {
    for case in 0..12u64 {
        let mut rng = XorShift64::new(0xc000 + case);
        let src = gen_kernel_source(&mut rng, 3);
        let period = [1000.0f64, 6.0, 3.0][rng.gen_index(3)];
        let hw = compile(
            &src,
            "k",
            &CompileOptions {
                target_period_ns: period,
                ..CompileOptions::default()
            },
        )
        .expect("generated kernel compiles");
        drive_batched_differential(&hw.netlist, &format!("expr_{case}"), 0xd000 + case);
    }
}

/// Stepping a `BatchedSim` by hand with a lane count wider than the
/// remaining work: invalid lanes may carry garbage arguments and must
/// never contaminate valid lanes' outputs.
#[test]
fn bubble_lanes_carry_garbage_without_contamination() {
    let src = "void fir_dp(int16 A0, int16 A1, int16 A2, int16 A3, int16 A4, int16* T) {
       *T = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4; }";
    let hw = compile(src, "fir_dp", &CompileOptions::default()).expect("compiles");
    let plan = SimPlan::compile(&hw.netlist).expect("plan");
    let n_in = plan.num_inputs();
    let lanes = 8usize;

    let mut rng = XorShift64::new(0xe000);
    let valid_args: Vec<i64> = hw
        .netlist
        .inputs
        .iter()
        .map(|(_, t)| rng.sample_int(*t))
        .collect();
    let mut reference = NetlistSim::new(&hw.netlist);
    let mut expect = None;
    for _ in 0..plan.latency() {
        expect = Some(reference.step(&valid_args, true).expect("step"));
    }
    let expect = expect.expect("latency is at least one");
    assert!(expect.out_valid);

    // Lane 3 is the only valid lane; every other lane gets raw 64-bit
    // garbage (zero-prone, far out of range).
    let mut sim = BatchedSim::new(&plan, lanes);
    let mut valid = vec![false; lanes];
    valid[3] = true;
    let mut rows = vec![0i64; lanes * n_in];
    for _ in 0..plan.latency() {
        for (l, row) in rows.chunks_mut(n_in).enumerate() {
            for v in row.iter_mut() {
                *v = rng.next_u64() as i64;
            }
            if l == 3 {
                row.copy_from_slice(&valid_args);
            }
        }
        sim.step_lanes(&rows, &valid).expect("lane step");
    }
    assert!(sim.lane_out_valid(3), "valid lane must retire");
    for l in 0..lanes {
        if l != 3 {
            assert!(!sim.lane_out_valid(l), "bubble lane {l} must not retire");
        }
    }
    for (k, &e) in expect.outputs.iter().enumerate() {
        assert_eq!(sim.output_lane(k, 3), e, "output {k} contaminated");
    }
}

/// A one-stage netlist `o = reg(op(a, b))` whose compare cell is signed
/// and 1 bit wide, so a true result wraps to -1, behind an 8-bit signed
/// register that keeps the sign.
fn one_bit_compare(op: Opcode) -> Netlist {
    let mut nl = Netlist::new();
    let int = IntType::int();
    nl.inputs = vec![("a".into(), int), ("b".into(), int)];
    let a = nl.add(Cell {
        kind: CellKind::Input(0),
        width: 32,
        signed: true,
    });
    let b = nl.add(Cell {
        kind: CellKind::Input(1),
        width: 32,
        signed: true,
    });
    let srcs = if op == Opcode::Bool {
        vec![a]
    } else {
        vec![a, b]
    };
    let cmp = nl.add(Cell {
        kind: CellKind::Op {
            op,
            srcs: srcs.into_iter().collect(),
            imm: 0,
        },
        width: 1,
        signed: true,
    });
    let reg = nl.add(Cell {
        kind: CellKind::Reg {
            d: Some(cmp),
            init: 0,
            stage_gate: None,
        },
        width: 8,
        signed: true,
    });
    let i8_ty = IntType {
        signed: true,
        bits: 8,
    };
    nl.outputs = vec![("o".into(), i8_ty, reg)];
    nl.latency = 1;
    nl
}

/// Regression: compare and `Bool` results are wrapped to their cell type
/// like every other result, so a signed 1-bit "true" reads -1 in both
/// engines (the batched engine used to store a raw 1).
#[test]
fn signed_one_bit_compares_wrap_like_the_reference() {
    let true_cases = [
        (Opcode::Slt, [1, 2]),
        (Opcode::Sle, [1, 2]),
        (Opcode::Seq, [2, 2]),
        (Opcode::Sne, [1, 2]),
        (Opcode::Bool, [1, 0]),
    ];
    for (k, (op, args)) in true_cases.into_iter().enumerate() {
        let nl = one_bit_compare(op);
        let iters = vec![args.to_vec()];
        let expect = NetlistSim::new(&nl).run_stream(&iters).unwrap();
        assert_eq!(expect, vec![vec![-1]], "{op:?}: the reference wraps");
        let plan = SimPlan::compile(&nl).unwrap();
        for lanes in [1, 4] {
            let mut out = Vec::new();
            plan.run_batch_lanes(&args, 1, lanes, &mut out).unwrap();
            assert_eq!(out, vec![-1], "{op:?} at {lanes} lanes");
        }
        for lanes in STEP_LANES {
            drive_differential(&nl, &format!("{op:?}"), lanes, 64, 0xf000 + k as u64);
        }
    }
}
