//! Transform-gate differential suite.
//!
//! The unroll and strip-mine gates refuse some expansions before building
//! them: a copied body-local declaration, or statements left after the
//! kernel loop. Every configuration below checks three things:
//!
//! * each gate against its unchecked transform: an early refusal is the
//!   error fold + extract report for the expansion (stage, span and
//!   message), and a pass hands on the expansion itself;
//! * the gate chain against the chain of unchecked transforms behind the
//!   dependence tests alone, the pipeline before the gates refused early:
//!   the same error, or the same transformed program and so the same
//!   compile, VHDL included;
//! * `roccc::compile` against the gate chain: it stops with the chain's
//!   error, or compiles the chain's program.

use roccc_suite::cparse::ast::{Function, Item, Program};
use roccc_suite::cparse::error::{CError, CResult, Stage};
use roccc_suite::cparse::frontend;
use roccc_suite::hlir::deps::find_blocking_dep;
use roccc_suite::hlir::extract_kernel;
use roccc_suite::hlir::fold::fold_function;
use roccc_suite::hlir::stripmine::{stripmine_unroll_function, stripmine_unroll_function_checked};
use roccc_suite::hlir::unroll::{partially_unroll_function, partially_unroll_function_checked};
use roccc_suite::roccc::{compile, CompileError, CompileOptions, UnrollStrategy};
use roccc_suite::testrand::exprgen::{gen_loop_kernel, gen_recurrence_kernel, LoopShape};
use roccc_suite::testrand::XorShift64;

const UNROLLS: [u64; 6] = [1, 2, 3, 4, 6, 8];
const STRIPS: [u64; 4] = [0, 2, 4, 8];

type Gate = fn(&Function, u64) -> CResult<Function>;
type Transform = fn(&Function, u64) -> Function;

/// One body-copying step of `roccc`'s option-selected transforms.
struct Step {
    factor: u64,
    gate: Gate,
    transform: Transform,
    /// Whether the dependence test refuses, with its diagnostic.
    deps: fn(&Function, u64) -> Option<CError>,
}

fn steps(opts: &CompileOptions) -> Vec<Step> {
    let mut steps = Vec::new();
    if let Some(w) = opts.stripmine.filter(|&w| w >= 2) {
        steps.push(Step {
            factor: w,
            gate: stripmine_unroll_function_checked,
            transform: stripmine_unroll_function,
            deps: |f, w| {
                find_blocking_dep(f, w, true)
                    .map(|_| stripmine_unroll_function_checked(f, w).unwrap_err())
            },
        });
    }
    if let UnrollStrategy::Partial(k) = opts.unroll {
        steps.push(Step {
            factor: k,
            gate: partially_unroll_function_checked,
            transform: partially_unroll_function,
            deps: |f, k| {
                find_blocking_dep(f, k, false)
                    .map(|_| partially_unroll_function_checked(f, k).unwrap_err())
            },
        });
    }
    steps
}

fn with_function(program: &Program, f: Function) -> Program {
    let items = program
        .items
        .iter()
        .map(|i| match i {
            Item::Function(g) if g.name == f.name => Item::Function(f.clone()),
            other => other.clone(),
        })
        .collect();
    Program { items }
}

/// What the pipeline makes of `func` up to and including extraction.
fn front(program: &Program, func: &str, f: CResult<Function>) -> CResult<Program> {
    let p = with_function(program, f?);
    extract_kernel(&p, func)?;
    Ok(p)
}

/// The transforms through the gates, each gate checked against its
/// unchecked transform on the same input.
fn gated(program: &Program, func: &str, opts: &CompileOptions, ctx: &str) -> CResult<Function> {
    let mut f = program.function(func).unwrap().clone();
    for step in steps(opts) {
        let verdict = (step.gate)(&f, step.factor);
        if (step.deps)(&f, step.factor).is_none() {
            let expanded = (step.transform)(&f, step.factor);
            match &verdict {
                Ok(g) => assert!(g == &expanded, "{ctx}: a pass must hand on the expansion"),
                Err(e) => {
                    let late = front(program, func, Ok(fold_function(&expanded))).err();
                    assert_eq!(
                        late.as_ref(),
                        Some(e),
                        "{ctx}: early refusal differs from the expansion's error"
                    );
                }
            }
        }
        f = fold_function(&verdict?);
    }
    Ok(f)
}

/// The transforms as they ran before the gates refused early: the
/// dependence tests, then the full expansion.
fn expanded(program: &Program, func: &str, opts: &CompileOptions) -> CResult<Function> {
    let mut f = program.function(func).unwrap().clone();
    for step in steps(opts) {
        if let Some(e) = (step.deps)(&f, step.factor) {
            return Err(e);
        }
        f = fold_function(&(step.transform)(&f, step.factor));
    }
    Ok(f)
}

/// Runs every check on one configuration; returns whether it fails
/// before the back end (for coverage counts).
fn check(source: &str, func: &str, opts: &CompileOptions, ctx: &str) -> bool {
    let program = frontend(source).unwrap();
    let gated = front(&program, func, gated(&program, func, opts, ctx));
    let before = front(&program, func, expanded(&program, func, opts));
    assert_eq!(gated, before, "{ctx}: the gates changed the outcome");
    match (&gated, compile(source, func, opts)) {
        (Err(e), Err(CompileError::Front(c))) => assert_eq!(&c, e, "{ctx}"),
        (Ok(p), Ok(c)) => assert_eq!(&c.program, p, "{ctx}"),
        // Past extraction the pipeline is the same code either way.
        (Ok(_), Err(_)) => {}
        (g, c) => panic!("{ctx}: compile gave {c:?}, the gate chain {g:?}"),
    }
    gated.is_err()
}

fn options(base: &CompileOptions, unroll: u64, strip: u64) -> CompileOptions {
    CompileOptions {
        unroll: if unroll <= 1 {
            UnrollStrategy::Keep
        } else {
            UnrollStrategy::Partial(unroll)
        },
        stripmine: (strip >= 2).then_some(strip),
        ..base.clone()
    }
}

/// The explore sweep's kernels and space under the `full` options.
#[test]
fn paper_kernels_over_the_explore_space() {
    for b in roccc_suite::ipcores::benchmarks() {
        if !["fir", "dct", "wavelet"].contains(&b.name) {
            continue;
        }
        let full = CompileOptions {
            range_narrow: true,
            pipeline_ii: Some(0),
            prove: true,
            ..b.opts.clone()
        };
        let mut failed = 0;
        for u in UNROLLS {
            for s in STRIPS {
                let ctx = format!("{} u{u}·s{s}", b.name);
                failed += check(&b.source, b.func, &options(&full, u, s), &ctx) as usize;
            }
        }
        // fir scores 6 of 24 candidates, dct and wavelet only the baseline.
        let expect = if b.name == "fir" { 18 } else { 23 };
        assert_eq!(failed, expect, "{}: failing candidates", b.name);
    }
}

/// Generated stencils with and without a body-local temporary, over a
/// dividing (16) and a non-dividing (20) trip count.
#[test]
fn generated_loop_kernels() {
    let mut shapes_failed = [0usize; 4];
    for case in 0..8u64 {
        for (n, (trip, local_temp)) in [(16, false), (16, true), (20, false), (20, true)]
            .into_iter()
            .enumerate()
        {
            let mut rng = XorShift64::new(0x6a7e + case);
            let lanes = 1 + case % 2;
            let shape = LoopShape { trip, local_temp };
            let k = gen_loop_kernel(&mut rng, 2, lanes, None, shape);
            for u in UNROLLS {
                for s in STRIPS {
                    let ctx = format!("case {case} {shape:?} u{u}·s{s}\n{}", k.source);
                    shapes_failed[n] += check(
                        &k.source,
                        "k",
                        &options(&CompileOptions::default(), u, s),
                        &ctx,
                    ) as usize;
                }
            }
        }
    }
    // Temporaries fail whenever a body is copied; trip 20 leaves
    // remainders for some factors.
    assert!(shapes_failed[1] > shapes_failed[0], "{shapes_failed:?}");
    assert!(shapes_failed[2] > shapes_failed[0], "{shapes_failed:?}");
}

/// Recurrence kernels: a body-local temporary, or a `*out = s0` export
/// after the loop, which passes the shape rule and takes the expansion.
#[test]
fn generated_recurrence_kernels() {
    let mut passed_export = 0;
    for distance in 1..=3u64 {
        for export in [false, true] {
            let mut rng = XorShift64::new(0x7ec + distance);
            let k = gen_recurrence_kernel(&mut rng, 2, distance, export);
            for u in UNROLLS {
                for s in STRIPS {
                    let ctx = format!(
                        "distance {distance} export {export} u{u}·s{s}\n{}",
                        k.source
                    );
                    let failed = check(
                        &k.source,
                        "k",
                        &options(&CompileOptions::default(), u, s),
                        &ctx,
                    );
                    passed_export += (export && !failed) as usize;
                }
            }
        }
    }
    assert!(
        passed_export > 0,
        "exporting kernels must reach the expansion"
    );
}

/// The refusal is the expansion's sema error, byte for byte.
#[test]
fn refusals_keep_stage_span_and_message() {
    let src = "void k(int A[24], int B[24]) { int i;
      for (i = 0; i < 20; i++) { int t = A[i]; B[i] = t; } }";
    let Err(CompileError::Front(e)) = compile(src, "k", &options(&CompileOptions::default(), 2, 0))
    else {
        panic!("a copied local must be refused");
    };
    assert_eq!(e.stage, Stage::Sema);
    assert_eq!(e.message, "duplicate declaration of `t`");
    assert_eq!(&src[e.span.start..e.span.end], "int t = A[i];");
}
