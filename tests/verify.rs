//! Integration tests for the `roccc-verify` static verifier.
//!
//! Three directions:
//!
//! * **positive sweep** — every paper kernel and a battery of generated
//!   kernels must compile *clean* under `VerifyLevel::Deny` (the level is
//!   set explicitly because the default is profile-dependent);
//! * **negative fixtures** — corrupting a compiled artifact must fire the
//!   specific check that guards the broken invariant, for each check
//!   family across all three phases (IR, data path, netlist);
//! * **agreement** — on every corrupt fixture, each level's always-on
//!   checker (`verify_ssa`, `Datapath::verify`, `Netlist::verify`) fails
//!   exactly when its family reports a code that level's IR crate owns,
//!   with that finding's message.
//!
//! Plus the feedback-staging regression: every `LPR → … → SNX` path of an
//! accumulator kernel lands in a single pipeline stage, and breaking that
//! fires `D005-feedback-stage-split`.

use roccc_suite::datapath::{OpId, Value};
use roccc_suite::hlir::deps::{DepKind, DimDist};
use roccc_suite::ipcores::table::benchmarks;
use roccc_suite::netlist::cells::{Cell, CellId, CellKind};
use roccc_suite::netlist::NetlistSim;
use roccc_suite::prove::verify_certificate_diags;
use roccc_suite::roccc::{
    check_certificate, compile, compile_with_model, verify_compiled, CompileOptions, VerifyLevel,
};
use roccc_suite::suifvm::deps::DepEdge;
use roccc_suite::suifvm::ir::{BlockId, Opcode, Terminator, VReg};
use roccc_suite::suifvm::verify_ssa;
use roccc_suite::synth::VirtexII;
use roccc_suite::testrand::exprgen::gen_kernel_source;
use roccc_suite::testrand::XorShift64;
use roccc_suite::verify::{
    verify_datapath, verify_deps, verify_ir, verify_netlist, verify_ranges, verify_schedule,
    Diagnostic, Severity,
};

fn deny(period_ns: f64) -> CompileOptions {
    CompileOptions {
        target_period_ns: period_ns,
        verify: VerifyLevel::Deny,
        ..CompileOptions::default()
    }
}

fn has(diags: &[Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

const SCALAR: &str = "void k(int a, int b, int c, int* o) { *o = (a * b) * (a + b) * c + a; }";

const BRANCHY: &str = "void k(int a, int b, int* o) {
  int x;
  if (a < b) { x = a * 3; } else { x = b - a; }
  *o = x + 1;
}";

// ---------------------------------------------------------------------
// Positive sweep
// ---------------------------------------------------------------------

/// All nine Table 1 kernels compile clean under `--deny-warnings`.
#[test]
fn paper_kernels_verify_clean_under_deny() {
    for b in benchmarks() {
        let opts = CompileOptions {
            verify: VerifyLevel::Deny,
            ..b.opts.clone()
        };
        let model = VirtexII::with_mult_style(b.mult_style);
        let hw = compile_with_model(&b.source, b.func, &opts, &model)
            .unwrap_or_else(|e| panic!("{}: verification failed: {e}", b.name));
        assert!(
            hw.diagnostics.is_empty(),
            "{}: {:?}",
            b.name,
            hw.diagnostics
        );
        // Re-running the verifier standalone agrees.
        assert!(verify_ir(&hw.ir).is_empty(), "{}", b.name);
        assert!(verify_datapath(&hw.datapath).is_empty(), "{}", b.name);
        assert!(verify_netlist(&hw.netlist).is_empty(), "{}", b.name);
    }
}

/// Randomly generated kernels compile clean under deny, at several
/// pipeline depths.
#[test]
fn generated_kernels_verify_clean_under_deny() {
    for case in 0..32u64 {
        let mut rng = XorShift64::new(0x7e51 + case);
        let src = gen_kernel_source(&mut rng, 3);
        let period = [1000.0f64, 6.0, 3.0][rng.gen_index(3)];
        let hw = compile(&src, "k", &deny(period))
            .unwrap_or_else(|e| panic!("case {case} (src {src}): {e}"));
        assert!(
            hw.diagnostics.is_empty(),
            "case {case}: {:?}",
            hw.diagnostics
        );
    }
}

/// Bit-width soundness, dynamically: the narrowed netlist computes the
/// same outputs, and faults on the same cycles, as the un-narrowed one
/// under `NetlistSim` — the runtime counterpart of the static
/// `D006`/`D007` width checks. Eight back-to-back iterations, then
/// bubbles until the last one has left the pipeline.
#[test]
fn narrowed_widths_preserve_eval_semantics() {
    for case in 0..24u64 {
        let mut rng = XorShift64::new(0xa11 + case);
        let src = gen_kernel_source(&mut rng, 3);
        let narrowed = compile(&src, "k", &deny(6.0)).expect("compiles narrowed");
        let wide = compile(
            &src,
            "k",
            &CompileOptions {
                narrow: false,
                ..deny(6.0)
            },
        )
        .expect("compiles wide");
        assert_eq!(narrowed.netlist.latency, wide.netlist.latency);
        let mut sim_n = NetlistSim::new(&narrowed.netlist);
        let mut sim_w = NetlistSim::new(&wide.netlist);
        let drain = narrowed.netlist.latency as usize + 1;
        for step in 0..8 + drain {
            let (args, valid): (Vec<i64>, bool) = if step < 8 {
                ((0..3).map(|_| rng.gen_range(-5000, 4999)).collect(), true)
            } else {
                (vec![0; 3], false)
            };
            assert_eq!(
                sim_n.step(&args, valid),
                sim_w.step(&args, valid),
                "case {case} (src {src}) step {step} args {args:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Agreement: the always-on checkers and the S/D/N families
// ---------------------------------------------------------------------

/// The codes each IR crate owns: its always-on checker
/// (`verify_ssa`, `Datapath::verify`, `Netlist::verify`) runs them on
/// every compile and the family reports them unchanged.
const S_OWNED: &[&str] = &[
    "S001-bad-edge",
    "S002-block-id-mismatch",
    "S003-invalid-vreg",
    "S004-multiple-def",
    "S005-undefined-vreg",
    "S007-phi-arity",
    "S008-missing-dst",
    "S009-bad-arity",
    "S010-bad-slot",
];
const D_OWNED: &[&str] = &[
    "D001-comb-cycle",
    "D002-missing-ref",
    "D003-stage-inversion",
    "D004-stage-range",
    "D005-feedback-stage-split",
    "D008-bad-arity",
];
const N_OWNED: &[&str] = &["N001-undriven-reg", "N002-missing-ref", "N004-comb-order"];

/// `always_on` is `Err(m)` exactly when `family` reports an owned code,
/// and `m` is the message of the first such finding.
fn assert_agrees(
    label: &str,
    always_on: Result<(), String>,
    family: &[Diagnostic],
    owned: &[&str],
) {
    let first = family
        .iter()
        .find(|d| owned.contains(&d.code))
        .map(|d| d.message.clone());
    assert_eq!(always_on.err(), first, "{label}: {family:?}");
}

fn full(base: &CompileOptions) -> CompileOptions {
    CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        prove: true,
        ..base.clone()
    }
}

/// Every corrupt fixture fires its code in the family, and the level's
/// always-on checker agrees with the family on every fixture: the moved
/// codes and the family-only ones (`S006`, `D006`, `N003`, `N006`) alike.
#[test]
fn always_on_checkers_agree_with_families_on_corrupt_fixtures() {
    let scalar = compile(SCALAR, "k", &deny(4.0)).unwrap();
    let branchy = compile(BRANCHY, "k", &deny(1000.0)).unwrap();
    let acc = acc_compiled();

    type IrFix = fn(&mut roccc_suite::suifvm::FunctionIr);
    let ir_fixtures: [(&str, bool, IrFix); 11] = [
        ("S001-bad-edge", false, |ir| {
            let last = ir.blocks.len() - 1;
            ir.blocks[last].term = Terminator::Jump(BlockId(99));
        }),
        ("S002-block-id-mismatch", false, |ir| {
            ir.blocks[0].id = BlockId(7)
        }),
        ("S003-invalid-vreg", false, |ir| {
            let i = ir.blocks[0].instrs.iter().position(|i| !i.srcs.is_empty());
            ir.blocks[0].instrs[i.unwrap()].srcs[0] = VReg(u32::MAX);
        }),
        ("S004-multiple-def", false, |ir| {
            let dup = *ir.blocks[0]
                .instrs
                .iter()
                .find(|i| i.dst.is_some())
                .unwrap();
            ir.blocks[0].instrs.push(dup);
        }),
        ("S005-undefined-vreg", false, |ir| {
            let ghost = VReg(ir.vreg_types.len() as u32);
            ir.vreg_types.push(roccc_suite::cparse::IntType::int());
            let i = ir.blocks[0].instrs.iter().position(|i| !i.srcs.is_empty());
            ir.blocks[0].instrs[i.unwrap()].srcs[0] = ghost;
        }),
        ("S007-phi-arity", true, |ir| {
            let phi = ir.blocks.iter_mut().flat_map(|b| b.phis.iter_mut()).next();
            phi.unwrap().args.pop();
        }),
        ("S008-missing-dst", false, |ir| {
            let last = ir.blocks[0].instrs.len() - 1;
            ir.blocks[0].instrs[last].dst = None;
        }),
        ("S009-bad-arity", false, |ir| {
            let i = ir.blocks[0].instrs.iter().position(|i| i.op == Opcode::Add);
            ir.blocks[0].instrs[i.unwrap()].srcs.push(VReg(0));
        }),
        ("S010-bad-slot", false, |ir| {
            let ty = roccc_suite::cparse::IntType::int();
            let d = ir.new_vreg(ty);
            let lpr = roccc_suite::suifvm::Instr::new(Opcode::Lpr, d, vec![], 3, ty);
            ir.blocks[0].instrs.insert(0, lpr);
        }),
        ("S006-undominated-use", true, |ir| {
            // Use a value defined in a branch arm from the entry block.
            let arm = ir.blocks[1..]
                .iter()
                .flat_map(|b| &b.instrs)
                .find_map(|i| i.dst);
            let ty = roccc_suite::cparse::IntType::int();
            let d = ir.new_vreg(ty);
            let mov = roccc_suite::suifvm::Instr::new(Opcode::Mov, d, vec![arm.unwrap()], 0, ty);
            ir.blocks[0].instrs.insert(0, mov);
        }),
        ("S011-unreachable-block", false, |ir| {
            ir.new_block();
        }),
    ];
    for (code, use_branchy, corrupt) in ir_fixtures {
        let mut ir = if use_branchy { &branchy } else { &scalar }.ir.clone();
        corrupt(&mut ir);
        let family = verify_ir(&ir);
        assert!(has(&family, code), "{code}: {family:?}");
        assert_agrees(code, verify_ssa(&ir), &family, S_OWNED);
    }

    type DpFix = fn(&mut roccc_suite::datapath::Datapath);
    let dp_fixtures: [(&str, bool, DpFix); 8] = [
        ("D001-comb-cycle", false, |dp| {
            let i = dp.ops.iter().position(|o| !o.srcs.is_empty()).unwrap();
            dp.ops[i].srcs[0] = Value::Op(OpId(i as u32));
        }),
        ("D002-missing-ref", false, |dp| {
            let i = dp.ops.iter().position(|o| !o.srcs.is_empty()).unwrap();
            dp.ops[i].srcs[0] = Value::Input(99);
        }),
        ("D003-stage-inversion", false, |dp| {
            let last = dp.ops.len() - 1;
            dp.ops[last].stage = 0;
        }),
        ("D004-stage-range", false, |dp| {
            let last = dp.ops.len() - 1;
            dp.ops[last].stage = dp.num_stages + 3;
        }),
        ("D005-feedback-stage-split", true, |dp| {
            let lpr = dp.ops.iter().position(|o| o.op == Opcode::Lpr).unwrap();
            dp.ops[lpr].stage = (dp.ops[lpr].stage + 1) % dp.num_stages;
        }),
        ("D008-bad-arity", false, |dp| {
            let i = dp.ops.iter().position(|o| o.srcs.len() == 2).unwrap();
            dp.ops[i].srcs.push(Value::Const(0));
        }),
        ("D006-width-bounds", false, |dp| dp.ops[0].hw_bits = 0),
        ("D007-width-demand", false, |dp| {
            let Value::Op(id) = dp.outputs[0].value else {
                panic!("output driven by an op");
            };
            dp.ops[id.0 as usize].hw_bits = 1;
        }),
    ];
    for (code, use_acc, corrupt) in dp_fixtures {
        let mut dp = if use_acc { &acc } else { &scalar }.datapath.clone();
        assert!(dp.num_stages > 1, "deep pipeline expected");
        corrupt(&mut dp);
        let family = verify_datapath(&dp);
        assert!(has(&family, code), "{code}: {family:?}");
        assert_agrees(code, dp.verify(), &family, D_OWNED);
    }

    type NlFix = fn(&mut roccc_suite::netlist::Netlist);
    let nl_fixtures: [(&str, NlFix); 6] = [
        ("N001-undriven-reg", |nl| {
            for c in &mut nl.cells {
                if let CellKind::Reg { d, .. } = &mut c.kind {
                    *d = None;
                    return;
                }
            }
        }),
        ("N002-missing-ref", |nl| {
            nl.add(not_cell(CellId(9999)));
        }),
        ("N004-comb-order", |nl| {
            // Reads the constant added right after it: out of order, but
            // no loop.
            let next = CellId(nl.cells.len() as u32 + 1);
            nl.add(not_cell(next));
            nl.constant(3);
        }),
        ("N003-comb-loop", |nl| {
            let me = CellId(nl.cells.len() as u32);
            nl.add(not_cell(me));
        }),
        ("N006-width-bounds", |nl| nl.cells[0].width = 0),
        ("N007-dead-cell", |nl| {
            nl.constant(5);
        }),
    ];
    for (code, corrupt) in nl_fixtures {
        let mut nl = scalar.netlist.clone();
        corrupt(&mut nl);
        let family = verify_netlist(&nl);
        assert!(has(&family, code), "{code}: {family:?}");
        assert_agrees(code, nl.verify(), &family, N_OWNED);
    }
}

fn not_cell(src: CellId) -> Cell {
    Cell {
        kind: CellKind::Op {
            op: Opcode::Not,
            srcs: [src].into(),
            imm: 0,
        },
        width: 8,
        signed: false,
    }
}

/// On every Table 1 kernel under default and full options, both the
/// always-on checkers and the families are clean.
#[test]
fn always_on_checkers_and_families_clean_on_paper_kernels() {
    for b in benchmarks() {
        let model = VirtexII::with_mult_style(b.mult_style);
        for (set, opts) in [("default", b.opts.clone()), ("full", full(&b.opts))] {
            let hw = compile_with_model(&b.source, b.func, &opts, &model)
                .unwrap_or_else(|e| panic!("{}/{set}: {e}", b.name));
            let label = format!("{}/{set}", b.name);
            assert_eq!(verify_ssa(&hw.ir), Ok(()), "{label}");
            assert_eq!(hw.datapath.verify(), Ok(()), "{label}");
            assert_eq!(hw.netlist.verify(), Ok(()), "{label}");
            assert_eq!(verify_ir(&hw.ir), vec![], "{label}");
            assert_eq!(verify_datapath(&hw.datapath), vec![], "{label}");
            assert_eq!(verify_netlist(&hw.netlist), vec![], "{label}");
        }
    }
}

/// `verify_compiled` takes the certificate findings from the compile
/// instead of re-checking the certificate: on every Table 1 kernel under
/// full options its output equals every family run afresh, a fresh
/// certificate check included.
#[test]
fn verify_compiled_reuses_the_compile_certificate_check() {
    for b in benchmarks() {
        let model = VirtexII::with_mult_style(b.mult_style);
        let hw = compile_with_model(&b.source, b.func, &full(&b.opts), &model)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let cert = hw.certificate.as_ref().expect("full options prove");
        let mut fresh = verify_ir(&hw.ir);
        fresh.extend(verify_ranges(&hw.ir, hw.ranges.as_ref().unwrap()));
        fresh.extend(verify_deps(&hw.deps, &hw.kernel, &hw.ir));
        let schedule = hw.schedule.as_ref().unwrap();
        fresh.extend(verify_schedule(schedule, &hw.datapath, &hw.deps));
        fresh.extend(verify_datapath(&hw.datapath));
        fresh.extend(verify_netlist(&hw.netlist));
        fresh.extend(verify_certificate_diags(cert, &hw.ir, &hw.netlist));
        assert_eq!(verify_compiled(&hw), fresh, "{}", b.name);
    }
}

/// The compile's S findings are those of the IR it ships: under
/// `--range-narrow` at `warn` they equal `verify_ir` run afresh over the
/// artifact's IR, which the range fold and the second optimize rewrote,
/// on every Table 1 kernel and on a loop whose branch the ranges decide,
/// optimized and not. (A correct pipeline leaves no S findings on these;
/// the check guards against the gate reading an IR the artifact does not
/// ship.)
#[test]
fn compile_s_findings_check_the_shipped_ir() {
    let warn = |base: &CompileOptions, optimize: bool| CompileOptions {
        optimize,
        verify: VerifyLevel::Warn,
        ..full(base)
    };
    let mut cases: Vec<(String, String, &str, CompileOptions)> = benchmarks()
        .into_iter()
        .map(|b| {
            (
                b.name.to_string(),
                b.source.clone(),
                b.func,
                warn(&b.opts, true),
            )
        })
        .collect();
    // The ranges decide the branch (`A[i + 1]` is at most 255), so the
    // range fold rewrites its condition to a constant.
    let branchy_loop = "void k(unsigned char A[10], int B[8]) { int i; int x;
      for (i = 0; i < 8; i = i + 1) {
        x = A[i] * 3;
        if (A[i + 1] < 300) { x = x + A[i + 2]; } else { x = x - 5; }
        B[i] = x; } }";
    for optimize in [true, false] {
        let opts = warn(&CompileOptions::default(), optimize);
        cases.push((
            format!("branchy optimize={optimize}"),
            branchy_loop.into(),
            "k",
            opts,
        ));
    }
    for (name, src, func, opts) in cases {
        let hw = compile(&src, func, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let compiled: Vec<&Diagnostic> = hw
            .diagnostics
            .iter()
            .filter(|d| d.code.starts_with('S'))
            .collect();
        let fresh = verify_ir(&hw.ir);
        assert_eq!(compiled, fresh.iter().collect::<Vec<_>>(), "{name}");
    }
}

/// A proved grid obligation whose recorded lag disagrees with the timing
/// re-derived from the netlist fires `E002`, on an output grid and on a
/// next-state grid of the accumulator; the certificate re-check reports
/// it too.
#[test]
fn corrupt_certificate_grid_lag_fires_e002() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "mul_acc")
        .expect("accumulator benchmark exists");
    let hw = compile(&b.source, b.func, &full(&b.opts)).expect("accumulator compiles");
    let cert = hw.certificate.as_ref().expect("full options prove");
    assert!(verify_certificate_diags(cert, &hw.ir, &hw.netlist).is_empty());
    for grid in ["grid acc_final", "grid next acc"] {
        let mut bad = cert.clone();
        let o = bad
            .obligations
            .iter_mut()
            .find(|o| o.name == grid)
            .expect("the accumulator has this grid obligation");
        o.lag = o.lag.map(|l| l + 1);
        let diags = verify_certificate_diags(&bad, &hw.ir, &hw.netlist);
        assert!(has(&diags, "E002-grid-divergence"), "{grid}: {diags:?}");
        assert!(
            !check_certificate(&bad, &hw.ir, &hw.netlist).is_empty(),
            "{grid}: the re-check passed"
        );
    }
}

// ---------------------------------------------------------------------
// Negative fixtures: SuifVM IR
// ---------------------------------------------------------------------

#[test]
fn corrupt_ir_bad_edge_fires_s001() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    let last = ir.blocks.len() - 1;
    ir.blocks[last].term = Terminator::Jump(BlockId(99));
    assert!(has(&verify_ir(&ir), "S001-bad-edge"));
}

#[test]
fn corrupt_ir_out_of_range_vreg_fires_s003() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    let instr = ir
        .blocks
        .iter_mut()
        .flat_map(|b| b.instrs.iter_mut())
        .find(|i| !i.srcs.is_empty())
        .expect("an instruction with sources");
    instr.srcs[0] = VReg(u32::MAX);
    assert!(has(&verify_ir(&ir), "S003-invalid-vreg"));
}

#[test]
fn corrupt_ir_duplicate_def_fires_s004() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    assert!(ir.is_ssa, "pipeline output is SSA");
    let victim = *ir.blocks[0]
        .instrs
        .iter()
        .find(|i| i.dst.is_some())
        .expect("a defining instruction");
    ir.blocks[0].instrs.push(victim);
    assert!(has(&verify_ir(&ir), "S004-multiple-def"));
}

#[test]
fn corrupt_ir_undefined_vreg_fires_s005() {
    let mut ir = compile(SCALAR, "k", &deny(1000.0)).unwrap().ir;
    // A fresh register that exists in the type table but is never defined.
    let ghost = VReg(ir.vreg_types.len() as u32);
    ir.vreg_types.push(roccc_suite::cparse::IntType::int());
    let last = ir.blocks.len() - 1;
    let instr = ir.blocks[last]
        .instrs
        .iter_mut()
        .find(|i| !i.srcs.is_empty())
        .expect("an instruction with sources");
    instr.srcs[0] = ghost;
    assert!(has(&verify_ir(&ir), "S005-undefined-vreg"));
}

#[test]
fn corrupt_ir_phi_arity_fires_s007() {
    let mut ir = compile(BRANCHY, "k", &deny(1000.0)).unwrap().ir;
    let phi = ir
        .blocks
        .iter_mut()
        .flat_map(|b| b.phis.iter_mut())
        .next()
        .expect("branchy kernel keeps a phi at the join");
    let arg = phi.args[0];
    phi.args.push(arg);
    assert!(has(&verify_ir(&ir), "S007-phi-arity"));
}

// ---------------------------------------------------------------------
// Negative fixtures: data path
// ---------------------------------------------------------------------

#[test]
fn corrupt_datapath_self_loop_fires_d001() {
    let mut dp = compile(SCALAR, "k", &deny(1000.0)).unwrap().datapath;
    let i = dp
        .ops
        .iter()
        .position(|o| !o.srcs.is_empty())
        .expect("an op with sources");
    dp.ops[i].srcs[0] = Value::Op(OpId(i as u32));
    assert!(has(&verify_datapath(&dp), "D001-comb-cycle"));
}

#[test]
fn corrupt_datapath_stage_inversion_fires_d003() {
    // A tight period forces multiple stages, so an inversion is expressible
    // without going out of stage range.
    let mut dp = compile(SCALAR, "k", &deny(4.0)).unwrap().datapath;
    assert!(dp.num_stages > 1, "deep pipeline expected");
    let (consumer, producer) = dp
        .ops
        .iter()
        .enumerate()
        .find_map(|(i, o)| {
            o.srcs.iter().find_map(|s| match s {
                Value::Op(p) if dp.ops[p.0 as usize].stage + 1 < dp.num_stages => {
                    Some((i, p.0 as usize))
                }
                _ => None,
            })
        })
        .expect("an op consuming another op's result");
    dp.ops[producer].stage = dp.ops[consumer].stage + 1;
    assert!(has(&verify_datapath(&dp), "D003-stage-inversion"));
}

#[test]
fn corrupt_datapath_zero_width_fires_d006() {
    let mut dp = compile(SCALAR, "k", &deny(1000.0)).unwrap().datapath;
    dp.ops[0].hw_bits = 0;
    assert!(has(&verify_datapath(&dp), "D006-width-bounds"));
}

#[test]
fn corrupt_datapath_starved_width_fires_d007() {
    let mut dp = compile(SCALAR, "k", &deny(1000.0)).unwrap().datapath;
    // Starve the op driving the 32-bit output down to one bit: the
    // backward-demand check must notice the producer is too narrow.
    let out = dp.outputs[0].value;
    let Value::Op(id) = out else {
        panic!("output driven by an op");
    };
    dp.ops[id.0 as usize].hw_bits = 1;
    assert!(has(&verify_datapath(&dp), "D007-width-demand"));
}

// ---------------------------------------------------------------------
// Negative fixtures: netlist
// ---------------------------------------------------------------------

#[test]
fn corrupt_netlist_undriven_reg_fires_n001() {
    let mut nl = compile(SCALAR, "k", &deny(4.0)).unwrap().netlist;
    let i = nl
        .cells
        .iter()
        .position(|c| matches!(c.kind, CellKind::Reg { d: Some(_), .. }))
        .expect("a driven register");
    if let CellKind::Reg { d, .. } = &mut nl.cells[i].kind {
        *d = None;
    }
    assert!(has(&verify_netlist(&nl), "N001-undriven-reg"));
}

#[test]
fn corrupt_netlist_self_loop_fires_n003() {
    let mut nl = compile(SCALAR, "k", &deny(1000.0)).unwrap().netlist;
    let i = nl
        .cells
        .iter()
        .position(|c| matches!(&c.kind, CellKind::Op { srcs, .. } if !srcs.is_empty()))
        .expect("an op cell with sources");
    if let CellKind::Op { srcs, .. } = &mut nl.cells[i].kind {
        srcs[0] = roccc_suite::netlist::cells::CellId(i as u32);
    }
    assert!(has(&verify_netlist(&nl), "N003-comb-loop"));
}

#[test]
fn corrupt_netlist_zero_width_fires_n006() {
    let mut nl = compile(SCALAR, "k", &deny(1000.0)).unwrap().netlist;
    nl.cells[0].width = 0;
    assert!(has(&verify_netlist(&nl), "N006-width-bounds"));
}

#[test]
fn dead_netlist_cell_is_a_warning_not_an_error() {
    let mut nl = compile(SCALAR, "k", &deny(1000.0)).unwrap().netlist;
    nl.add(Cell {
        kind: CellKind::Const(5),
        width: 4,
        signed: false,
    });
    let findings = verify_netlist(&nl);
    let dead: Vec<_> = findings
        .iter()
        .filter(|d| d.code == "N007-dead-cell")
        .collect();
    assert!(!dead.is_empty(), "{findings:?}");
    assert!(dead.iter().all(|d| d.severity == Severity::Warning));
    assert!(
        findings.iter().all(|d| d.severity == Severity::Warning),
        "only warnings expected: {findings:?}"
    );
}

// ---------------------------------------------------------------------
// Feedback staging regression (satellite: LPR → … → SNX in one stage)
// ---------------------------------------------------------------------

/// Every `LPR → … → SNX` feedback path of the accumulator kernel lands in
/// a single pipeline stage (the latch and the read agree), and breaking
/// that staging fires `D005-feedback-stage-split`.
#[test]
fn feedback_paths_land_in_single_stage() {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "mul_acc")
        .expect("accumulator benchmark exists");
    let opts = CompileOptions {
        verify: VerifyLevel::Deny,
        ..b.opts.clone()
    };
    let hw = compile(&b.source, b.func, &opts).expect("accumulator compiles under deny");
    let dp = &hw.datapath;
    assert!(!dp.feedback.is_empty(), "accumulator has a feedback latch");
    for (slot_idx, (_, snx_src)) in dp.feedback.iter().enumerate() {
        let latch_stage = dp.stage_of(*snx_src);
        for op in dp.ops.iter().filter(|o| o.op == Opcode::Lpr) {
            if op.imm as usize == slot_idx {
                assert_eq!(
                    op.stage, latch_stage,
                    "slot {slot_idx}: LPR read and SNX latch must share a stage"
                );
            }
        }
    }

    // Break the invariant: move one LPR read off its latch stage.
    let mut dp = hw.datapath.clone();
    let lpr = dp
        .ops
        .iter()
        .position(|o| o.op == Opcode::Lpr)
        .expect("an LPR op");
    dp.ops[lpr].stage = (dp.ops[lpr].stage + 1) % dp.num_stages;
    assert!(has(&verify_datapath(&dp), "D005-feedback-stage-split"));
}

// ---------------------------------------------------------------------
// Negative fixtures: dependence graph / MinII (L0xx)
// ---------------------------------------------------------------------

/// A compiled kernel whose graph has memory edges (fir reads a window
/// and writes two output arrays).
fn fir_compiled() -> roccc_suite::roccc::Compiled {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "fir")
        .expect("fir benchmark exists");
    compile(&b.source, b.func, &b.opts).expect("fir compiles")
}

/// A compiled kernel whose graph has a recurrence (the accumulator).
fn acc_compiled() -> roccc_suite::roccc::Compiled {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "mul_acc")
        .expect("accumulator benchmark exists");
    compile(&b.source, b.func, &b.opts).expect("accumulator compiles")
}

/// Every paper kernel's dependence graph re-verifies clean.
#[test]
fn paper_kernel_dep_graphs_verify_clean() {
    for b in benchmarks() {
        let hw = compile(&b.source, b.func, &b.opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
        assert!(findings.is_empty(), "{}: {findings:?}", b.name);
    }
}

#[test]
fn corrupt_deps_bad_edge_endpoint_fires_l001() {
    let mut hw = fir_compiled();
    hw.deps.edges.push(DepEdge {
        src: 999,
        dst: 0,
        kind: DepKind::Flow,
        dist: vec![DimDist::Eq(0); hw.deps.dims.len()],
        carried: false,
    });
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L001-malformed-graph"
    ));
}

#[test]
fn corrupt_deps_wrong_dist_rank_fires_l001() {
    let mut hw = fir_compiled();
    assert!(hw.deps.accesses.len() >= 2, "fir has several accesses");
    // Valid endpoints, but one distance entry too many for the dims.
    hw.deps.edges.push(DepEdge {
        src: 0,
        dst: 1,
        kind: DepKind::Flow,
        dist: vec![DimDist::Eq(0); hw.deps.dims.len() + 1],
        carried: false,
    });
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L001-malformed-graph"
    ));
}

#[test]
fn corrupt_deps_zero_distance_recurrence_fires_l001() {
    let mut hw = acc_compiled();
    assert!(
        !hw.deps.recurrences.is_empty(),
        "accumulator has a recurrence"
    );
    hw.deps.recurrences[0].distance = 0;
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L001-malformed-graph"
    ));
}

#[test]
fn corrupt_deps_phantom_edge_fires_l002() {
    // A compiled kernel's surviving edge list is empty (every pair the
    // extractor accepts is proven independent) — a structurally
    // well-formed phantom edge must still fail the recomputation.
    let mut hw = fir_compiled();
    assert!(hw.deps.accesses.len() >= 2, "fir has several accesses");
    hw.deps.edges.push(DepEdge {
        src: 0,
        dst: 1,
        kind: DepKind::Flow,
        dist: vec![DimDist::Eq(0); hw.deps.dims.len()],
        carried: false,
    });
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L002-edge-mismatch"), "{findings:?}");
    assert!(!has(&findings, "L001-malformed-graph"), "{findings:?}");
}

#[test]
fn corrupt_deps_flipped_access_fires_l002() {
    let mut hw = fir_compiled();
    assert!(!hw.deps.accesses.is_empty(), "fir has accesses");
    hw.deps.accesses[0].write = !hw.deps.accesses[0].write;
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L002-edge-mismatch"
    ));
}

#[test]
fn corrupt_deps_dropped_recurrence_fires_l003() {
    let mut hw = acc_compiled();
    assert!(
        !hw.deps.recurrences.is_empty(),
        "accumulator has a recurrence"
    );
    hw.deps.recurrences.clear();
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L003-missing-recurrence"), "{findings:?}");
}

#[test]
fn corrupt_deps_phantom_recurrence_fires_l003() {
    // fir has feedback-free hardware: any listed recurrence is phantom.
    let mut hw = fir_compiled();
    let mut acc = acc_compiled();
    assert!(!acc.deps.recurrences.is_empty());
    hw.deps.recurrences.push(acc.deps.recurrences.remove(0));
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L003-missing-recurrence"), "{findings:?}");
}

#[test]
fn corrupt_deps_wrong_min_ii_fires_l004() {
    let mut hw = fir_compiled();
    hw.deps.min_ii += 3;
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L004-mii-inconsistent"
    ));
}

#[test]
fn corrupt_deps_wrong_recurrence_mii_fires_l004() {
    let mut hw = acc_compiled();
    assert!(!hw.deps.recurrences.is_empty());
    hw.deps.recurrences[0].mii += 1;
    let findings = verify_deps(&hw.deps, &hw.kernel, &hw.ir);
    assert!(has(&findings, "L004-mii-inconsistent"), "{findings:?}");
}

#[test]
fn corrupt_kernel_duplicate_write_fires_l005() {
    let mut hw = fir_compiled();
    let dup = hw.kernel.outputs[0].writes[0].clone();
    hw.kernel.outputs[0].writes.push(dup);
    // Two writes with identical subscripts collide at distance 0.
    assert!(has(
        &verify_deps(&hw.deps, &hw.kernel, &hw.ir),
        "L005-overlapping-writes"
    ));
}
