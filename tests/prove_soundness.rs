//! Soundness suite for `roccc-prove`, the per-compile translation
//! validator.
//!
//! Two directions, both required:
//!
//! * **Completeness on real kernels** — every Table 1 benchmark must
//!   certify `EQUAL` with no residual `Unknown` obligation, under the
//!   default options and again under `--range-narrow --pipeline-ii auto`,
//!   and the certificate must re-check from the artifact alone.
//!   Every obligation closes in the normalizing rewriter: none needs the
//!   SAT fallback.
//! * **Soundness under mutation** — planted netlist mutations (swapped
//!   non-commutative operands, off-by-one constants, dropped balancing
//!   registers, a wrong quotient bit in udiv) that are observable under
//!   differential simulation must be refuted, never certified `EQUAL`, and
//!   refutations must carry a counterexample that replays through both
//!   machines.

use roccc_suite::ipcores::benchmarks;
use roccc_suite::ipcores::kernels::udiv_source;
use roccc_suite::netlist::cells::{Cell, CellId, CellKind, Netlist};
use roccc_suite::prove::{
    certificate_json, differential_replay, prove, verify_certificate_diags, Certificate, ObStatus,
    ProveOptions, Verdict,
};
use roccc_suite::roccc::{check_certificate, compile, CompileOptions};
use roccc_suite::suifvm::ir::Opcode;
use roccc_suite::suifvm::FunctionIr;
use roccc_suite::testrand::exprgen::{
    gen_kernel_source, gen_loop_kernel, gen_recurrence_kernel, LoopShape, RecurrenceKernel,
};
use roccc_suite::testrand::XorShift64;
use Verdict::Equal;

/// Proves one benchmark under `opts` and asserts a clean EQUAL verdict.
fn assert_proves_equal(name: &str, source: &str, func: &str, opts: &CompileOptions) {
    let mut opts = opts.clone();
    opts.prove = true;
    let hw = compile(source, func, &opts)
        .unwrap_or_else(|e| panic!("{name}: compile with prove failed: {e}"));
    let cert = hw
        .certificate
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: no certificate"));
    assert_eq!(
        cert.verdict,
        Verdict::Equal,
        "{name}: expected EQUAL, got {:?}; obligations: {:#?}",
        cert.verdict,
        cert.obligations
    );
    for o in &cert.obligations {
        assert_ne!(
            o.status,
            ObStatus::Unknown,
            "{name}: residual unknown obligation `{}`: {}",
            o.name,
            o.detail
        );
        assert_ne!(
            o.status,
            ObStatus::ProvedSat,
            "{name}: obligation `{}` needed the SAT fallback",
            o.name
        );
    }
    // Re-check the certificate from the artifact alone.
    let problems = check_certificate(cert, &hw.ir, &hw.netlist);
    assert!(problems.is_empty(), "{name}: re-check failed: {problems:?}");
    let diags = verify_certificate_diags(cert, &hw.ir, &hw.netlist);
    assert!(diags.is_empty(), "{name}: E-family findings: {diags:?}");
    // The JSON artifact carries the stable schema tag.
    let json = hw.prove_json().expect("certificate renders");
    assert!(json.contains("\"schema\": \"roccc-prove-v1\""));
}

/// All nine Table 1 kernels certify EQUAL under their paper options, by
/// rewriting alone.
#[test]
fn table1_kernels_prove_equal_default() {
    let rows = benchmarks();
    assert_eq!(rows.len(), 9, "Table 1 has nine kernels");
    for b in &rows {
        assert_proves_equal(b.name, &b.source, b.func, &b.opts);
    }
}

/// The same nine kernels certify EQUAL with range-driven narrowing and
/// an auto modulo schedule — the prover must track both transforms, still
/// without SAT (udiv's narrowed quotient closes by care narrowing through
/// its `quo << 1` multipliers).
#[test]
fn table1_kernels_prove_equal_range_narrow_pipelined() {
    for b in &benchmarks() {
        let mut opts = b.opts.clone();
        opts.range_narrow = true;
        opts.pipeline_ii = Some(0); // auto: search up from MinII
        assert_proves_equal(b.name, &b.source, b.func, &opts);
    }
}

/// `(kernel, verdict, obligations, [proved_rewrite, proved_range,
/// proved_sat, refuted, unknown], rewrite_steps, terms, cert_bytes)`.
type ProveRow = (&'static str, Verdict, usize, [usize; 5], u64, usize, usize);

/// One [`ProveRow`] per Table 1 kernel, proved with the default prover
/// options on its paper-option compile. `cert_bytes` is the length of the
/// JSON certificate.
const PROVE_ROWS: [ProveRow; 9] = [
    ("bit_correlator", Equal, 2, [2, 0, 0, 0, 0], 68, 89, 510),
    ("mul_acc", Equal, 5, [5, 0, 0, 0, 0], 12, 12, 968),
    ("udiv", Equal, 2, [2, 0, 0, 0, 0], 375, 242, 494),
    ("square_root", Equal, 2, [2, 0, 0, 0, 0], 869, 648, 506),
    ("cos", Equal, 2, [2, 0, 0, 0, 0], 6, 4, 488),
    ("arbitrary_lut", Equal, 2, [2, 0, 0, 0, 0], 6, 4, 504),
    ("fir", Equal, 4, [4, 0, 0, 0, 0], 51, 77, 806),
    ("dct", Equal, 16, [16, 0, 0, 0, 0], 171, 104, 2654),
    ("wavelet", Equal, 8, [8, 0, 0, 0, 0], 289, 144, 1428),
];

/// The verdict, discharge mix, rewrite steps, term count and certificate
/// size of each Table 1 proof are pinned.
#[test]
fn table1_prove_figures_are_pinned() {
    let rows: Vec<_> = benchmarks()
        .iter()
        .map(|b| {
            let c = compile(&b.source, b.func, &b.opts).expect("benchmark compiles");
            let cert = prove(&c.ir, &c.netlist, b.name, &ProveOptions::default());
            let (rewrite, range, sat, refuted, unknown) = cert.status_counts();
            (
                b.name,
                cert.verdict,
                cert.obligations.len(),
                [rewrite, range, sat, refuted, unknown],
                cert.rewrite_steps,
                cert.terms,
                certificate_json(&cert).len(),
            )
        })
        .collect();
    assert_eq!(rows, PROVE_ROWS);
}

// ---------------------------------------------------------------------------
// Mutation harness
// ---------------------------------------------------------------------------

/// A planted netlist mutation.
enum Mutation {
    /// Swap the operands of a non-commutative two-input op.
    SwapOperands,
    /// Bump a referenced constant by one.
    OffByOneConst,
    /// Bypass an ungated (pipeline-balancing) register.
    DropBalancingReg,
    /// Put one extra ungated register in front of the first output.
    DelayOutput,
    /// Move the first feedback register's gate one stage later (one
    /// earlier when it is already past stage 0).
    ShiftGate,
}

impl Mutation {
    fn label(&self) -> &'static str {
        match self {
            Mutation::SwapOperands => "swap-operands",
            Mutation::OffByOneConst => "off-by-one-const",
            Mutation::DropBalancingReg => "drop-balancing-reg",
            Mutation::DelayOutput => "delay-output",
            Mutation::ShiftGate => "shift-gate",
        }
    }
}

/// Applies `m` to a clone of `nl`. Returns `None` when the netlist has
/// no site for this mutation class.
fn mutate(nl: &Netlist, m: &Mutation) -> Option<Netlist> {
    let mut out = nl.clone();
    match m {
        Mutation::SwapOperands => {
            let idx = out.cells.iter().position(|c| {
                matches!(
                    c.kind,
                    CellKind::Op { op, ref srcs, .. }
                    if matches!(
                        op,
                        Opcode::Sub | Opcode::Div | Opcode::Rem | Opcode::Shl
                            | Opcode::Shr | Opcode::Slt | Opcode::Sle
                    ) && srcs.len() == 2 && srcs[0] != srcs[1]
                )
            })?;
            if let CellKind::Op { ref mut srcs, .. } = out.cells[idx].kind {
                let (a, b) = (srcs[0], srcs[1]);
                srcs[0] = b;
                srcs[1] = a;
            }
            // The stamped range fact described the unmutated computation.
            out.ranges[idx] = None;
        }
        Mutation::OffByOneConst => {
            // Only a *referenced* constant can be observable.
            let referenced: Vec<usize> = out
                .cells
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c.kind, CellKind::Const(_)))
                .filter(|(i, _)| {
                    out.cells.iter().any(|c| match &c.kind {
                        CellKind::Op { srcs, .. } => srcs.iter().any(|s| s.0 as usize == *i),
                        CellKind::Reg { d: Some(d), .. } => d.0 as usize == *i,
                        _ => false,
                    })
                })
                .map(|(i, _)| i)
                .collect();
            let idx = *referenced.first()?;
            let ty = out.cells[idx].ty();
            if let CellKind::Const(ref mut v) = out.cells[idx].kind {
                *v = ty.wrap(v.wrapping_add(1));
            }
            out.ranges[idx] = None;
        }
        Mutation::DropBalancingReg => {
            let idx = out.cells.iter().position(|c| {
                matches!(
                    c.kind,
                    CellKind::Reg {
                        d: Some(_),
                        stage_gate: None,
                        ..
                    }
                )
            })?;
            let CellKind::Reg { d: Some(d), .. } = out.cells[idx].kind else {
                unreachable!("position matched an ungated reg");
            };
            let victim = roccc_suite::netlist::cells::CellId(idx as u32);
            for c in &mut out.cells {
                match &mut c.kind {
                    CellKind::Op { srcs, .. } => {
                        for s in srcs.iter_mut() {
                            if *s == victim {
                                *s = d;
                            }
                        }
                    }
                    CellKind::Reg { d: Some(rd), .. } if *rd == victim => *rd = d,
                    _ => {}
                }
            }
            for (_, _, net) in &mut out.outputs {
                if *net == victim {
                    *net = d;
                }
            }
        }
        Mutation::DelayOutput => {
            let net = out.outputs.first()?.2;
            let delay = out.add(Cell {
                kind: CellKind::Reg {
                    d: Some(net),
                    init: 0,
                    stage_gate: None,
                },
                ..out.cells[net.0 as usize]
            });
            out.outputs[0].2 = delay;
        }
        Mutation::ShiftGate => {
            let reg = out.feedback_regs.first()?.1;
            if let CellKind::Reg {
                stage_gate: Some(ref mut g),
                ..
            } = out.cells[reg.0 as usize].kind
            {
                *g = if *g == 0 { 1 } else { *g - 1 };
            }
        }
    }
    Some(out)
}

/// Differential observability screen: random per-window inputs, many
/// windows, so both value and timing mutations can surface.
fn observable(f: &FunctionIr, nl: &Netlist, rng: &mut XorShift64) -> bool {
    let windows: Vec<Vec<i64>> = (0..32)
        .map(|_| f.inputs.iter().map(|&(_, ty)| rng.sample_int(ty)).collect())
        .collect();
    differential_replay(f, nl, &windows).is_some()
}

/// The counterexample in `cert` must replay: feeding its windows through
/// both machines must reproduce a divergence.
fn assert_cex_replays(label: &str, cert: &Certificate, f: &FunctionIr, nl: &Netlist) {
    let cex = cert
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: refuted without a counterexample"));
    assert!(
        differential_replay(f, nl, &cex.windows).is_some(),
        "{label}: counterexample does not replay: {cex:?}"
    );
}

/// Planted mutations on generated kernels: every observable mutant is
/// refuted with a replaying counterexample; none certifies EQUAL.
#[test]
fn planted_mutations_are_refuted_with_replaying_counterexamples() {
    let mutations = [
        Mutation::SwapOperands,
        Mutation::OffByOneConst,
        Mutation::DropBalancingReg,
    ];
    let mut refuted_by_class = [0usize; 3];
    let mut screened = 0usize;
    for case in 0..24u64 {
        let mut rng = XorShift64::new(0x7000 + case);
        let src = gen_kernel_source(&mut rng, 3);
        // A tight period forces deep pipelines (more balancing regs).
        let opts = CompileOptions {
            target_period_ns: [1000.0f64, 6.0, 3.0][rng.gen_index(3)],
            ..CompileOptions::default()
        };
        let Ok(hw) = compile(&src, "k", &opts) else {
            continue;
        };
        for (mi, m) in mutations.iter().enumerate() {
            let Some(mutant) = mutate(&hw.netlist, m) else {
                continue;
            };
            if !observable(&hw.ir, &mutant, &mut rng) {
                screened += 1;
                continue;
            }
            let cert = prove(&hw.ir, &mutant, "mutant", &ProveOptions::default());
            assert_ne!(
                cert.verdict,
                Verdict::Equal,
                "case {case} {}: observable mutant certified EQUAL (src {src})",
                m.label()
            );
            if cert.verdict == Verdict::Refuted {
                refuted_by_class[mi] += 1;
                let label = format!("case {case} {}", m.label());
                assert_cex_replays(&label, &cert, &hw.ir, &mutant);
                // The E-family checker must class this as a refutation
                // finding (E001/E002), not a malformed certificate.
                let diags = verify_certificate_diags(&cert, &hw.ir, &mutant);
                assert!(
                    diags
                        .iter()
                        .any(|d| d.code.starts_with("E001") || d.code.starts_with("E002")),
                    "{label}: no E001/E002 finding: {diags:?}"
                );
                assert!(
                    !diags.iter().any(|d| d.code.starts_with("E004")),
                    "{label}: refutation flagged malformed: {diags:?}"
                );
            }
        }
    }
    // The sweep must exercise every class, not vacuously skip.
    for (mi, m) in mutations.iter().enumerate() {
        assert!(
            refuted_by_class[mi] > 0,
            "no observable {} mutant was refuted (screened {screened})",
            m.label()
        );
    }
}

/// Six recurrence kernels, `(seed, distance, kernel)`, at distances 1–4,
/// from seeds 4–9. Seed 3 (a delay line whose slot `s0` latches in a
/// second stage) is covered in `tests/schedule.rs`.
fn recurrence_kernels() -> impl Iterator<Item = (u64, u64, RecurrenceKernel)> {
    (4..10u64).map(|seed| {
        let distance = 1 + seed % 4;
        let mut rng = XorShift64::new(0x9e0 + seed);
        (
            seed,
            distance,
            gen_recurrence_kernel(&mut rng, 2, distance, false),
        )
    })
}

/// Mistimed netlists: an output read one cycle late (on generated
/// kernels, recurrence kernels and mul_acc) and a feedback register
/// latching one stage off (on mul_acc and the recurrence kernels). Every
/// observable mutant is refuted with a replaying counterexample and an
/// E001 or E002 finding (a delayed constant output differs only in its
/// first window, which the differential pre-pass refutes), and some
/// refutation finds a cone that is uniform at the wrong lag rather than
/// mixed.
#[test]
fn timing_mutants_are_refuted_with_replaying_counterexamples() {
    let mut subjects: Vec<(String, roccc_suite::roccc::Compiled)> = Vec::new();
    for case in 0..8u64 {
        let mut rng = XorShift64::new(0x7000 + case);
        let src = gen_kernel_source(&mut rng, 3);
        let opts = CompileOptions {
            target_period_ns: [1000.0f64, 6.0, 3.0][rng.gen_index(3)],
            ..CompileOptions::default()
        };
        if let Ok(hw) = compile(&src, "k", &opts) {
            subjects.push((format!("gen{case}"), hw));
        }
    }
    for (seed, distance, k) in recurrence_kernels() {
        for (set, ii) in [("default", None), ("auto", Some(0))] {
            let opts = CompileOptions {
                pipeline_ii: ii,
                ..CompileOptions::default()
            };
            let hw = compile(&k.source, "k", &opts).expect("recurrence kernel compiles");
            subjects.push((format!("rec{seed}/d{distance}/{set}"), hw));
        }
    }
    let mul_acc = benchmarks()
        .into_iter()
        .find(|b| b.name == "mul_acc")
        .expect("mul_acc is a Table 1 kernel");
    for (set, narrow, ii) in [("default", false, None), ("full", true, Some(0))] {
        let opts = CompileOptions {
            range_narrow: narrow,
            pipeline_ii: ii,
            ..mul_acc.opts.clone()
        };
        let hw = compile(&mul_acc.source, mul_acc.func, &opts).expect("mul_acc compiles");
        subjects.push((format!("mul_acc/{set}"), hw));
    }

    let mutations = [Mutation::DelayOutput, Mutation::ShiftGate];
    let mut refuted_by_class = [0usize; 2];
    let mut wrong_lag = 0usize;
    let mut rng = XorShift64::new(0x71e);
    for (name, hw) in &subjects {
        for (mi, m) in mutations.iter().enumerate() {
            let Some(mutant) = mutate(&hw.netlist, m) else {
                continue;
            };
            if !observable(&hw.ir, &mutant, &mut rng) {
                continue;
            }
            let label = format!("{name} {}", m.label());
            let cert = prove(&hw.ir, &mutant, "mutant", &ProveOptions::default());
            assert_eq!(
                cert.verdict,
                Verdict::Refuted,
                "{label}: observable mutant not refuted: {:#?}",
                cert.obligations
            );
            refuted_by_class[mi] += 1;
            assert_cex_replays(&label, &cert, &hw.ir, &mutant);
            let diags = verify_certificate_diags(&cert, &hw.ir, &mutant);
            assert!(
                diags
                    .iter()
                    .any(|d| d.code.starts_with("E001") || d.code.starts_with("E002")),
                "{label}: no E001/E002 finding: {diags:?}"
            );
            assert!(
                !diags.iter().any(|d| d.code.starts_with("E004")),
                "{label}: refutation flagged malformed: {diags:?}"
            );
            wrong_lag += cert
                .obligations
                .iter()
                .filter(|o| o.status == ObStatus::Refuted && o.detail.contains(", expected "))
                .count();
        }
    }
    for (mi, m) in mutations.iter().enumerate() {
        assert!(
            refuted_by_class[mi] > 0,
            "no observable {} mutant was refuted",
            m.label()
        );
    }
    assert!(wrong_lag > 0, "no refutation found a cone at the wrong lag");
}

/// A cone whose register-transparent value folds to a constant is no
/// constant in hardware when its cells sit at mixed lags: the output
/// `x == K ? x - x_delayed : 0` reads as `0` once the register is
/// transparent, exactly what the IR's `A[i] - A[i]` computes, and the
/// differential pre-pass almost never draws `x == K`. Its grid
/// obligation must be refuted as mixed, and a certificate claiming it
/// proved as a constant cone must be an E002 finding.
#[test]
fn a_mixed_cone_whose_value_folds_to_a_constant_is_refuted() {
    let src = "void k(int A[16], int C[16]) { int i;
      for (i = 0; i < 16; i = i + 1) { C[i] = A[i] - A[i]; } }";
    let hw = compile(src, "k", &CompileOptions::default()).expect("kernel compiles");
    let mut nl = hw.netlist.clone();
    let ty = nl.inputs[0].1;
    let cell = |kind, bits, signed| Cell {
        kind,
        width: bits,
        signed,
    };
    let op = |op, srcs: &[CellId]| CellKind::Op {
        op,
        srcs: srcs.into(),
        imm: 0,
    };
    let x = nl.add(cell(CellKind::Input(0), ty.bits, ty.signed));
    let delayed = nl.add(cell(
        CellKind::Reg {
            d: Some(x),
            init: 0,
            stage_gate: None,
        },
        ty.bits,
        ty.signed,
    ));
    let diff = nl.add(cell(op(Opcode::Sub, &[x, delayed]), ty.bits, ty.signed));
    let k = nl.add(cell(CellKind::Const(12345), ty.bits, ty.signed));
    let hit = nl.add(cell(op(Opcode::Seq, &[x, k]), 1, false));
    let zero = nl.add(cell(CellKind::Const(0), ty.bits, ty.signed));
    let out = nl.add(cell(
        op(Opcode::Mux, &[hit, diff, zero]),
        ty.bits,
        ty.signed,
    ));
    nl.outputs[0].2 = out;

    let cert = prove(&hw.ir, &nl, "folded-mix", &ProveOptions::default());
    assert_eq!(
        cert.verdict,
        Verdict::Refuted,
        "{}",
        certificate_json(&cert)
    );
    let grid = cert
        .obligations
        .iter()
        .position(|o| o.name.starts_with("grid "))
        .expect("a grid obligation");
    assert_eq!(cert.obligations[grid].status, ObStatus::Refuted);
    assert!(
        cert.obligations[grid].detail.starts_with("mixed"),
        "{}",
        cert.obligations[grid].detail
    );

    // The same certificate claiming a constant cone does not re-check.
    let mut forged = cert.clone();
    forged.verdict = Verdict::Equal;
    forged.counterexample = None;
    for o in &mut forged.obligations {
        o.status = ObStatus::ProvedRewrite;
    }
    forged.obligations[grid].lag = None;
    forged.obligations[grid].detail = "constant cone (timing-neutral)".into();
    let diags = verify_certificate_diags(&forged, &hw.ir, &nl);
    assert!(
        diags.iter().any(|d| d.code == "E002-grid-divergence"),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------------------
// udiv: a wrong quotient bit
// ---------------------------------------------------------------------------

/// A planted fault in one restoring-divide stage's `quo = quo | 1`.
#[derive(Clone, Copy, Debug)]
enum QuotientBit {
    /// The stage sets two bits (`| 3`) instead of one.
    OrThree,
    /// The stage never sets its bit (the `Or` is bypassed).
    DropOr,
}

/// The `Or` cells of `nl` with a constant-1 operand: `(cell, operand
/// index of the constant)`. In udiv these are the quotient stages.
fn or_one_sites(nl: &Netlist) -> Vec<(usize, usize)> {
    let is_one = |id: CellId| {
        let c = &nl.cells[id.0 as usize];
        matches!(c.kind, CellKind::Const(v) if c.ty().wrap(v) == 1)
    };
    nl.cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c.kind {
            CellKind::Op {
                op: Opcode::Or,
                ref srcs,
                ..
            } if srcs.len() == 2 => srcs.iter().position(|&s| is_one(s)).map(|k| (i, k)),
            _ => None,
        })
        .collect()
}

/// Plants `fault` at the `Or` cell `site` (constant operand `k`) in a
/// clone of `nl`. The compiler's range facts describe the unmutated
/// netlist, so the mutant carries none.
fn plant_quotient_fault(nl: &Netlist, (site, k): (usize, usize), fault: QuotientBit) -> Netlist {
    let mut out = nl.clone();
    out.ranges.iter_mut().for_each(|r| *r = None);
    match fault {
        QuotientBit::OrThree => {
            // Sources must precede their users, so the new constant goes
            // in front and every net id moves up by one.
            let bump = |id: &mut CellId| id.0 += 1;
            for c in &mut out.cells {
                match &mut c.kind {
                    CellKind::Op { srcs, .. } => srcs.iter_mut().for_each(bump),
                    CellKind::Reg { d: Some(d), .. } => bump(d),
                    _ => {}
                }
            }
            out.outputs.iter_mut().for_each(|(_, _, n)| bump(n));
            out.feedback_regs.iter_mut().for_each(|(_, n)| bump(n));
            let or_cell = nl.cells[site];
            out.cells.insert(
                0,
                Cell {
                    kind: CellKind::Const(3),
                    ..or_cell
                },
            );
            out.ranges.insert(0, None);
            if let CellKind::Op { ref mut srcs, .. } = out.cells[site + 1].kind {
                srcs[k] = CellId(0);
            }
        }
        QuotientBit::DropOr => {
            let CellKind::Op { ref srcs, .. } = nl.cells[site].kind else {
                unreachable!("site is an Or cell");
            };
            let (victim, keep) = (CellId(site as u32), srcs[1 - k]);
            for c in &mut out.cells {
                match &mut c.kind {
                    CellKind::Op { srcs, .. } => srcs
                        .iter_mut()
                        .filter(|s| **s == victim)
                        .for_each(|s| *s = keep),
                    CellKind::Reg { d: Some(d), .. } if *d == victim => *d = keep,
                    _ => {}
                }
            }
            for (_, _, n) in &mut out.outputs {
                if *n == victim {
                    *n = keep;
                }
            }
        }
    }
    out
}

/// A wrong `| 1` in any one quotient stage of udiv, under the default and
/// the narrowed, scheduled options, is refuted with a replaying
/// counterexample. Every such mutant is a real fault (each stage's bit is
/// set by some input), so this holds whether or not a random differential
/// screen happens to observe it. The care narrowing that closes the real
/// udiv by rewriting must not absorb a wrong quotient bit.
#[test]
fn udiv_wrong_quotient_bit_is_refuted() {
    let src = udiv_source();
    let full = CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        ..CompileOptions::default()
    };
    let mut rng = XorShift64::new(0x0d1f);
    let mut screened = 0usize;
    for (label, opts) in [("default", CompileOptions::default()), ("full", full)] {
        let hw = compile(&src, "udiv", &opts).expect("udiv compiles");
        let sites = or_one_sites(&hw.netlist);
        assert!(
            sites.len() >= 7,
            "{label}: expected a `| 1` per quotient stage, found {}",
            sites.len()
        );
        for &site in &sites {
            for fault in [QuotientBit::OrThree, QuotientBit::DropOr] {
                let mutant = plant_quotient_fault(&hw.netlist, site, fault);
                screened += observable(&hw.ir, &mutant, &mut rng) as usize;
                let tag = format!("udiv {label} cell {} {fault:?}", site.0);
                let cert = prove(&hw.ir, &mutant, "udiv-mutant", &ProveOptions::default());
                assert_eq!(
                    cert.verdict,
                    Verdict::Refuted,
                    "{tag}: mutant not refuted: {:#?}",
                    cert.obligations
                );
                assert_cex_replays(&tag, &cert, &hw.ir, &mutant);
            }
        }
    }
    // The differential screen sees most of these faults too.
    assert!(screened > 0, "no udiv quotient-bit mutant observable");
}

// ---------------------------------------------------------------------------
// Obligation pins
// ---------------------------------------------------------------------------

/// The inputs the obligation pin covers: `(label, source, function,
/// options)`. Every Table 1 kernel under its paper options and again
/// under `--range-narrow --pipeline-ii auto`; six recurrence kernels
/// (distances 1–4) under `--pipeline-ii auto`; six stencil loops at
/// three clock periods.
fn pinned_compiles() -> Vec<(String, String, &'static str, CompileOptions)> {
    let mut out = Vec::new();
    for b in benchmarks() {
        let full = CompileOptions {
            range_narrow: true,
            pipeline_ii: Some(0),
            ..b.opts.clone()
        };
        out.push((
            format!("{}/default", b.name),
            b.source.clone(),
            b.func,
            b.opts,
        ));
        out.push((format!("{}/full", b.name), b.source, b.func, full));
    }
    for (seed, distance, k) in recurrence_kernels() {
        let opts = CompileOptions {
            pipeline_ii: Some(0),
            ..CompileOptions::default()
        };
        out.push((format!("rec{seed}/d{distance}"), k.source, "k", opts));
    }
    for seed in 0..6u64 {
        let mut rng = XorShift64::new(0x10a0 + seed);
        let k = gen_loop_kernel(&mut rng, 3, 1 + seed % 2, None, LoopShape::default());
        let opts = CompileOptions {
            target_period_ns: [1000.0f64, 6.0, 3.0][seed as usize % 3],
            ..CompileOptions::default()
        };
        out.push((format!("loop{seed}"), k.source, "k", opts));
    }
    out
}

/// One line per certificate (`== label: verdict`) followed by one line
/// per obligation: `name | kind | status | lag | detail`.
fn obligation_lines(label: &str, cert: &Certificate) -> String {
    let mut s = format!("== {label}: {}\n", cert.verdict);
    for o in &cert.obligations {
        let lag = o.lag.map_or("-".to_string(), |l| l.to_string());
        s.push_str(&format!(
            "{} | {} | {} | {lag} | {}\n",
            o.name, o.kind, o.status, o.detail
        ));
    }
    s
}

/// Every obligation's name, kind, status, recorded lag and detail, and
/// every verdict, on the [`pinned_compiles`] inputs. No detail string
/// embeds a rewrite-step count, so each is compared in full.
const PINNED_OBLIGATIONS: &str = "\
== bit_correlator/default: equal
grid count | valid-grid | proved-rewrite | 2 | cone uniform at lag 2
output count | output | proved-rewrite | 2 | normal forms coincide
== bit_correlator/full: equal
grid count | valid-grid | proved-rewrite | 2 | cone uniform at lag 2
output count | output | proved-rewrite | 2 | normal forms coincide
== mul_acc/default: equal
grid acc_final | valid-grid | proved-rewrite | 2 | cone uniform at lag 2
grid next acc | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
init acc | init | proved-rewrite | - | both reset to 0
output acc_final | output | proved-rewrite | 2 | normal forms coincide
next acc | next-state | proved-rewrite | 1 | normal forms coincide
== mul_acc/full: equal
grid acc_final | valid-grid | proved-rewrite | 2 | cone uniform at lag 2
grid next acc | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
init acc | init | proved-rewrite | - | both reset to 0
output acc_final | output | proved-rewrite | 2 | normal forms coincide
next acc | next-state | proved-rewrite | 1 | normal forms coincide
== udiv/default: equal
grid q | valid-grid | proved-rewrite | 8 | cone uniform at lag 8
output q | output | proved-rewrite | 8 | normal forms coincide
== udiv/full: equal
grid q | valid-grid | proved-rewrite | 8 | cone uniform at lag 8
output q | output | proved-range | 8 | normal forms coincide (range-fact assisted)
== square_root/default: equal
grid r | valid-grid | proved-rewrite | 12 | cone uniform at lag 12
output r | output | proved-rewrite | 12 | normal forms coincide
== square_root/full: equal
grid r | valid-grid | proved-rewrite | 12 | cone uniform at lag 12
output r | output | proved-range | 12 | normal forms coincide (range-fact assisted)
== cos/default: equal
grid c | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output c | output | proved-rewrite | 1 | normal forms coincide
== cos/full: equal
grid c | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output c | output | proved-rewrite | 1 | normal forms coincide
== arbitrary_lut/default: equal
grid data | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output data | output | proved-rewrite | 1 | normal forms coincide
== arbitrary_lut/full: equal
grid data | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output data | output | proved-rewrite | 1 | normal forms coincide
== fir/default: equal
grid Tmp0 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp1 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
output Tmp0 | output | proved-rewrite | 3 | normal forms coincide
output Tmp1 | output | proved-rewrite | 3 | normal forms coincide
== fir/full: equal
grid Tmp0 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp1 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
output Tmp0 | output | proved-rewrite | 3 | normal forms coincide
output Tmp1 | output | proved-rewrite | 3 | normal forms coincide
== dct/default: equal
grid Tmp0 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp1 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp2 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp3 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp4 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp5 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp6 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp7 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
output Tmp0 | output | proved-rewrite | 3 | normal forms coincide
output Tmp1 | output | proved-rewrite | 3 | normal forms coincide
output Tmp2 | output | proved-rewrite | 3 | normal forms coincide
output Tmp3 | output | proved-rewrite | 3 | normal forms coincide
output Tmp4 | output | proved-rewrite | 3 | normal forms coincide
output Tmp5 | output | proved-rewrite | 3 | normal forms coincide
output Tmp6 | output | proved-rewrite | 3 | normal forms coincide
output Tmp7 | output | proved-rewrite | 3 | normal forms coincide
== dct/full: equal
grid Tmp0 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp1 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp2 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp3 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp4 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp5 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp6 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp7 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
output Tmp0 | output | proved-rewrite | 3 | normal forms coincide
output Tmp1 | output | proved-rewrite | 3 | normal forms coincide
output Tmp2 | output | proved-rewrite | 3 | normal forms coincide
output Tmp3 | output | proved-rewrite | 3 | normal forms coincide
output Tmp4 | output | proved-rewrite | 3 | normal forms coincide
output Tmp5 | output | proved-rewrite | 3 | normal forms coincide
output Tmp6 | output | proved-rewrite | 3 | normal forms coincide
output Tmp7 | output | proved-rewrite | 3 | normal forms coincide
== wavelet/default: equal
grid Tmp0 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp1 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp2 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp3 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
output Tmp0 | output | proved-rewrite | 3 | normal forms coincide
output Tmp1 | output | proved-rewrite | 3 | normal forms coincide
output Tmp2 | output | proved-rewrite | 3 | normal forms coincide
output Tmp3 | output | proved-rewrite | 3 | normal forms coincide
== wavelet/full: equal
grid Tmp0 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp1 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp2 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
grid Tmp3 | valid-grid | proved-rewrite | 3 | cone uniform at lag 3
output Tmp0 | output | proved-rewrite | 3 | normal forms coincide
output Tmp1 | output | proved-rewrite | 3 | normal forms coincide
output Tmp2 | output | proved-range | 3 | normal forms coincide (range-fact assisted)
output Tmp3 | output | proved-range | 3 | normal forms coincide (range-fact assisted)
== rec4/d1: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid next s0 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
init s0 | init | proved-rewrite | - | both reset to 0
output Tmp0 | output | proved-rewrite | 1 | normal forms coincide
next s0 | next-state | proved-rewrite | 0 | normal forms coincide
== rec5/d2: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid next s0 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
grid next s1 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
init s0 | init | proved-rewrite | - | both reset to 0
init s1 | init | proved-rewrite | - | both reset to 0
output Tmp0 | output | proved-rewrite | 1 | normal forms coincide
next s0 | next-state | proved-rewrite | 0 | normal forms coincide
next s1 | next-state | proved-rewrite | 0 | normal forms coincide
== rec6/d3: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid next s0 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
grid next s1 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
grid next s2 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
init s0 | init | proved-rewrite | - | both reset to 0
init s1 | init | proved-rewrite | - | both reset to 0
init s2 | init | proved-rewrite | - | both reset to 0
output Tmp0 | output | proved-rewrite | 1 | normal forms coincide
next s0 | next-state | proved-rewrite | 0 | normal forms coincide
next s1 | next-state | proved-rewrite | 0 | normal forms coincide
next s2 | next-state | proved-rewrite | 0 | normal forms coincide
== rec7/d4: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid next s0 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
grid next s1 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
grid next s2 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
grid next s3 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
init s0 | init | proved-rewrite | - | both reset to 0
init s1 | init | proved-rewrite | - | both reset to 0
init s2 | init | proved-rewrite | - | both reset to 0
init s3 | init | proved-rewrite | - | both reset to 0
output Tmp0 | output | proved-rewrite | 1 | normal forms coincide
next s0 | next-state | proved-rewrite | 0 | normal forms coincide
next s1 | next-state | proved-rewrite | 0 | normal forms coincide
next s2 | next-state | proved-rewrite | 0 | normal forms coincide
next s3 | next-state | proved-rewrite | 0 | normal forms coincide
== rec8/d1: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid next s0 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
init s0 | init | proved-rewrite | - | both reset to 0
output Tmp0 | output | proved-rewrite | 1 | normal forms coincide
next s0 | next-state | proved-rewrite | 0 | normal forms coincide
== rec9/d2: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid next s0 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
grid next s1 | valid-grid | proved-rewrite | 0 | cone uniform at lag 0
init s0 | init | proved-rewrite | - | both reset to 0
init s1 | init | proved-rewrite | - | both reset to 0
output Tmp0 | output | proved-rewrite | 1 | normal forms coincide
next s0 | next-state | proved-rewrite | 0 | normal forms coincide
next s1 | next-state | proved-rewrite | 0 | normal forms coincide
== loop0: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output Tmp0 | output | proved-sat | 1 | difference UNSAT
== loop1: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid Tmp1 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output Tmp0 | output | proved-sat | 1 | difference UNSAT
output Tmp1 | output | proved-rewrite | 1 | normal forms coincide
== loop2: equal
grid Tmp0 | valid-grid | proved-rewrite | 2 | cone uniform at lag 2
output Tmp0 | output | proved-rewrite | 2 | normal forms coincide
== loop3: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
grid Tmp1 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output Tmp0 | output | proved-rewrite | 1 | normal forms coincide
output Tmp1 | output | proved-rewrite | 1 | normal forms coincide
== loop4: equal
grid Tmp0 | valid-grid | proved-rewrite | 1 | cone uniform at lag 1
output Tmp0 | output | proved-sat | 1 | difference UNSAT
== loop5: equal
grid Tmp0 | valid-grid | proved-rewrite | 4 | cone uniform at lag 4
grid Tmp1 | valid-grid | proved-rewrite | 4 | cone uniform at lag 4
output Tmp0 | output | proved-rewrite | 4 | normal forms coincide
output Tmp1 | output | proved-rewrite | 4 | normal forms coincide
";

/// The timing and value verdicts of every obligation are pinned: a change
/// to how the prover computes them must reproduce each status, lag and
/// detail exactly.
#[test]
fn obligation_statuses_are_pinned() {
    let mut got = String::new();
    for (label, source, func, opts) in pinned_compiles() {
        let opts = CompileOptions {
            prove: true,
            ..opts
        };
        let hw = compile(&source, func, &opts)
            .unwrap_or_else(|e| panic!("{label}: compile failed: {e}\n{source}"));
        let cert = hw.certificate.as_ref().expect("prove was requested");
        got.push_str(&obligation_lines(&label, cert));
    }
    assert_eq!(got, PINNED_OBLIGATIONS);
}
