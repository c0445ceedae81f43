//! Extraction works on the kernel it is handed.
//!
//! `extract_kernel` copies only the kernel function (next to the globals),
//! inlines only when that function calls another defined function, and
//! folds and splices its copy in place. The reference below is the
//! whole-program path it replaced: inline every function, fold every
//! function, then extract from that program. Both must give the same
//! kernel field by field, or the same error, on:
//!
//! * the nine Table 1 kernels after their option-selected transforms;
//! * generated stencil loops with a body-local temporary, as written and
//!   partially unrolled;
//! * a kernel that calls a helper (the inlining path);
//! * a program with an uncalled extra function;
//! * kernels whose top level holds a bare block, from the source and from
//!   an unroll remainder.
//!
//! The in-place fold is also checked against the persistent bottom-up
//! rebuild it replaced, on random expressions.

use roccc_suite::cparse::ast::{Expr, ExprKind, Function, Item, Program, StmtKind};
use roccc_suite::cparse::error::CResult;
use roccc_suite::cparse::{frontend, parser::parse};
use roccc_suite::hlir::extract_kernel;
use roccc_suite::hlir::fold::{fold_expr, fold_function, fold_node, fold_program};
use roccc_suite::hlir::inline::inline_program;
use roccc_suite::hlir::kernel::Kernel;
use roccc_suite::hlir::stripmine::stripmine_unroll_function_checked;
use roccc_suite::hlir::subst::map_expr_mut;
use roccc_suite::hlir::unroll::{fully_unroll_function, partially_unroll_function_checked};
use roccc_suite::ipcores::benchmarks;
use roccc_suite::roccc::{CompileOptions, UnrollStrategy};
use roccc_suite::testrand::exprgen::{gen_expr, gen_loop_kernel, LoopShape};
use roccc_suite::testrand::XorShift64;

/// The whole-program path: inline and fold every function first.
fn reference(program: &Program, func: &str) -> CResult<Kernel> {
    extract_kernel(&fold_program(&inline_program(program)), func)
}

/// Asserts that both paths agree on `func` of `program`; returns whether
/// it extracted.
fn assert_same(program: &Program, func: &str, ctx: &str) -> bool {
    match (extract_kernel(program, func), reference(program, func)) {
        (Ok(k), Ok(r)) => {
            assert_eq!(k.name, r.name, "{ctx}: name");
            assert_eq!(k.dims, r.dims, "{ctx}: dims");
            assert_eq!(k.windows, r.windows, "{ctx}: windows");
            assert_eq!(k.outputs, r.outputs, "{ctx}: outputs");
            assert_eq!(k.feedback, r.feedback, "{ctx}: feedback");
            assert_eq!(k.live_out, r.live_out, "{ctx}: live-outs");
            assert_eq!(k.scalar_inputs, r.scalar_inputs, "{ctx}: scalar inputs");
            assert_eq!(k.scalar_outputs, r.scalar_outputs, "{ctx}: scalar outputs");
            assert_eq!(k.dp_func, r.dp_func, "{ctx}: dp_func");
            assert_eq!(k.rewritten.to_c(), r.rewritten.to_c(), "{ctx}: rewritten");
            true
        }
        (k, r) => {
            assert_eq!(k.err(), r.err(), "{ctx}: both paths must fail alike");
            false
        }
    }
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

/// The compiler's option-selected loop transforms on `func`, each followed
/// by a fold, as extraction receives them.
fn transformed(program: &Program, func: &str, opts: &CompileOptions) -> Program {
    let mut f = program.function(func).unwrap().clone();
    if let Some(w) = opts.stripmine.filter(|&w| w >= 2) {
        f = fold_function(&stripmine_unroll_function_checked(&f, w).unwrap());
    }
    match opts.unroll {
        UnrollStrategy::Keep => {}
        UnrollStrategy::Full => f = fold_function(&fully_unroll_function(&f)),
        UnrollStrategy::Partial(k) => {
            f = fold_function(&partially_unroll_function_checked(&f, k).unwrap())
        }
    }
    with_function(program, f)
}

#[test]
fn table1_kernels_extract_alike() {
    for b in benchmarks() {
        let program = transformed(&frontend(&b.source).unwrap(), b.func, &b.opts);
        assert!(assert_same(&program, b.func, b.name), "{} extracts", b.name);
    }
}

#[test]
fn generated_loops_with_local_temporaries_extract_alike() {
    let shape = LoopShape {
        local_temp: true,
        ..LoopShape::default()
    };
    let mut extracted = 0;
    for seed in 0..24u64 {
        let mut rng = XorShift64::new(0x7e5 + seed);
        let k = gen_loop_kernel(&mut rng, 2, 1 + seed % 3, None, shape);
        let program = frontend(&k.source).unwrap();
        extracted += assert_same(&program, "k", &format!("seed {seed}")) as usize;
        // A partial unroll copies the body-local declaration: both paths
        // must refuse it with the same diagnostic.
        let f = program.function("k").unwrap();
        if let Ok(u) = partially_unroll_function_checked(f, 2) {
            let unrolled = with_function(&program, fold_function(&u));
            assert_same(&unrolled, "k", &format!("seed {seed} unrolled by 2"));
        }
    }
    assert_eq!(extracted, 24, "every generated loop extracts");
}

#[test]
fn kernel_calling_a_helper_extracts_alike() {
    let src = "int sq(int x) { int y = x * x; return y; }
      int twice(int x) { return sq(x) + sq(x + 1); }
      void k(int A[10], int B[8]) { int i;
        for (i = 0; i < 8; i++) { B[i] = twice(A[i]) - A[i + 2]; } }";
    let program = frontend(src).unwrap();
    assert!(assert_same(&program, "k", "helper calls"));
    let k = extract_kernel(&program, "k").unwrap();
    assert!(
        !k.dp_func.to_c().contains("sq("),
        "calls are inlined: {}",
        k.dp_func.to_c()
    );
}

#[test]
fn uncalled_functions_take_no_part() {
    let src = "int unused(int a) { return a * 3 + 1; }
      void fir(int A[21], int C[17]) { int i;
        for (i = 0; i < 17; i = i + 1) {
          C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }
      int also_unused(int b) { return unused(b) - 2; }";
    let program = frontend(src).unwrap();
    assert!(assert_same(&program, "fir", "uncalled functions"));
    assert_same(&program, "missing", "unknown function");
}

#[test]
fn top_level_bare_blocks_extract_alike() {
    let src = "void k(int A[18], int B[16]) { int i;
      { for (i = 0; i < 16; i++) { B[i] = A[i] + A[i + 2]; } } }";
    let program = frontend(src).unwrap();
    assert!(assert_same(&program, "k", "source block"));

    // Unrolling 17 trips by 2 leaves `{ loop; remainder }` at the top.
    let src = "void k(int A[19], int B[17]) { int i;
      for (i = 0; i < 17; i++) { B[i] = A[i] * 3 + A[i + 2]; } }";
    let program = frontend(src).unwrap();
    let f = program.function("k").unwrap();
    let unrolled = with_function(
        &program,
        fold_function(&roccc_suite::hlir::unroll::partially_unroll_function(f, 2)),
    );
    assert!(
        matches!(
            unrolled
                .function("k")
                .unwrap()
                .body
                .stmts
                .last()
                .unwrap()
                .kind,
            StmtKind::Block(_)
        ),
        "the remainder sits in a bare block"
    );
    assert!(!assert_same(&unrolled, "k", "unroll remainder"));
}

/// The persistent bottom-up rebuild the in-place walk replaced.
fn rebuild(e: &Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let kind = match &e.kind {
        ExprKind::IntLit(v) => ExprKind::IntLit(*v),
        ExprKind::Var(n) => ExprKind::Var(n.clone()),
        ExprKind::ArrayIndex { name, indices } => ExprKind::ArrayIndex {
            name: name.clone(),
            indices: indices.iter().map(|i| rebuild(i, f)).collect(),
        },
        ExprKind::Unary { op, operand } => ExprKind::Unary {
            op: *op,
            operand: Box::new(rebuild(operand, f)),
        },
        ExprKind::Binary { op, lhs, rhs } => ExprKind::Binary {
            op: *op,
            lhs: Box::new(rebuild(lhs, f)),
            rhs: Box::new(rebuild(rhs, f)),
        },
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => ExprKind::Cond {
            cond: Box::new(rebuild(cond, f)),
            then_e: Box::new(rebuild(then_e, f)),
            else_e: Box::new(rebuild(else_e, f)),
        },
        ExprKind::Call { name, args } => ExprKind::Call {
            name: name.clone(),
            args: args.iter().map(|a| rebuild(a, f)).collect(),
        },
    };
    f(Expr { kind, span: e.span })
}

#[test]
fn in_place_fold_matches_the_rebuilding_fold() {
    let mut rng = XorShift64::new(0xf01d);
    for case in 0..400 {
        let src = format!(
            "int f(int a, int b, int c) {{ return {}; }}",
            gen_expr(&mut rng, 5).to_c()
        );
        let program = parse(&src).unwrap();
        let StmtKind::Return(Some(e)) = &program.function("f").unwrap().body.stmts[0].kind else {
            unreachable!()
        };
        let expected = rebuild(e, &mut fold_node);
        let mut walked = e.clone();
        map_expr_mut(&mut walked, &mut fold_node);
        assert_eq!(walked, expected, "case {case}: {src}");
        let mut folded = e.clone();
        fold_expr(&mut folded);
        assert_eq!(folded, expected, "case {case}: {src}");
    }
}
