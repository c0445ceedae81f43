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
use roccc_suite::testrand::exprgen::gen_kernel_source;
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
    ("bit_correlator", Equal, 2, [2, 0, 0, 0, 0], 68, 154, 511),
    ("mul_acc", Equal, 5, [5, 0, 0, 0, 0], 13, 34, 968),
    ("udiv", Equal, 2, [2, 0, 0, 0, 0], 375, 821, 494),
    ("square_root", Equal, 2, [2, 0, 0, 0, 0], 869, 2602, 507),
    ("cos", Equal, 2, [2, 0, 0, 0, 0], 6, 7, 488),
    ("arbitrary_lut", Equal, 2, [2, 0, 0, 0, 0], 6, 7, 504),
    ("fir", Equal, 4, [4, 0, 0, 0, 0], 51, 201, 807),
    ("dct", Equal, 16, [16, 0, 0, 0, 0], 187, 338, 2654),
    ("wavelet", Equal, 8, [8, 0, 0, 0, 0], 326, 511, 1430),
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
}

impl Mutation {
    fn label(&self) -> &'static str {
        match self {
            Mutation::SwapOperands => "swap-operands",
            Mutation::OffByOneConst => "off-by-one-const",
            Mutation::DropBalancingReg => "drop-balancing-reg",
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
