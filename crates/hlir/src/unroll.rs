//! Loop unrolling.
//!
//! "Full loop unrolling converts a for-loop with constant bounds into a
//! non-iterative block of code and therefore eliminates the loop
//! controller" (§2). Partial unrolling by a factor duplicates the body and
//! widens the step, exposing instruction-level parallelism to the data-path
//! builder; the unroll factor is normally chosen under an area budget
//! supplied by the fast estimator (see `roccc-synth`).

use crate::loops::{recognize, CanonLoop};
use crate::subst::subst_var_stmt;
use roccc_cparse::ast::*;

/// Maximum trip count that full unrolling will expand, as a safety valve.
pub const FULL_UNROLL_LIMIT: u64 = 4096;

/// Fully unrolls every constant-bound loop in the function (recursively,
/// innermost first). Loops that are not canonical or exceed
/// [`FULL_UNROLL_LIMIT`] iterations are left in place.
pub fn fully_unroll_function(f: &Function) -> Function {
    Function {
        body: unroll_block(&f.body, None),
        ..f.clone()
    }
}

/// Partially unrolls every canonical loop in the function by `factor`.
pub fn partially_unroll_function(f: &Function, factor: u64) -> Function {
    Function {
        body: unroll_block(&f.body, Some(factor.max(1))),
        ..f.clone()
    }
}

/// [`partially_unroll_function`] behind the loop-carried dependence gate:
/// refuses (diagnostic `L010-unroll-carried-dep`) when `crate::deps`
/// proves a carried dependence at distance below the factor, because the
/// duplicated bodies would then touch the same array element inside one
/// parallel iteration of the generated hardware.
///
/// It then refuses, before building any copy, an expansion that sema or
/// kernel extraction is certain to reject: one that copies a body-local
/// declaration, or leaves statements after the kernel loop that are not
/// `*p = v` or `return;` (such as the remainder of a factor that does not
/// divide the trip count). The error is the one the expanded function
/// would get from [`crate::fold::fold_function`] and
/// [`crate::extract::extract_kernel`].
pub fn partially_unroll_function_checked(
    f: &Function,
    factor: u64,
) -> roccc_cparse::error::CResult<Function> {
    if let Some(dep) = crate::deps::find_blocking_dep(f, factor, false) {
        return Err(roccc_cparse::error::CError::new(
            roccc_cparse::error::Stage::Sema,
            dep.span,
            format!(
                "L010-unroll-carried-dep: cannot unroll by {factor}: {}",
                dep.describe()
            ),
        ));
    }
    if let Some(e) = crate::precheck::unroll_refusal(f, factor) {
        return Err(e);
    }
    Ok(partially_unroll_function(f, factor))
}

fn unroll_block(b: &Block, factor: Option<u64>) -> Block {
    let mut stmts = Vec::new();
    for s in &b.stmts {
        stmts.extend(unroll_stmt(s, factor));
    }
    Block {
        stmts,
        span: b.span,
    }
}

fn unroll_stmt(s: &Stmt, factor: Option<u64>) -> Vec<Stmt> {
    match &s.kind {
        StmtKind::For { .. } => {
            if let Some(l) = recognize(s) {
                // Unroll inner loops first so nests fully flatten.
                let inner_unrolled = CanonLoop {
                    body: unroll_block(&l.body, factor),
                    ..l
                };
                match factor {
                    None => fully_unroll(&inner_unrolled)
                        .unwrap_or_else(|| vec![inner_unrolled.to_stmt()]),
                    Some(k) => vec![partially_unroll(&inner_unrolled, k)],
                }
            } else {
                vec![rebuild_with_unrolled_children(s, factor)]
            }
        }
        _ => vec![rebuild_with_unrolled_children(s, factor)],
    }
}

fn rebuild_with_unrolled_children(s: &Stmt, factor: Option<u64>) -> Stmt {
    let kind = match &s.kind {
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => StmtKind::If {
            cond: cond.clone(),
            then_blk: unroll_block(then_blk, factor),
            else_blk: else_blk.as_ref().map(|b| unroll_block(b, factor)),
        },
        StmtKind::While { cond, body } => StmtKind::While {
            cond: cond.clone(),
            body: unroll_block(body, factor),
        },
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => StmtKind::For {
            init: init.clone(),
            cond: cond.clone(),
            step: step.clone(),
            body: unroll_block(body, factor),
        },
        StmtKind::Block(b) => StmtKind::Block(unroll_block(b, factor)),
        other => other.clone(),
    };
    Stmt { kind, span: s.span }
}

/// Fully expands a canonical loop into straight-line statements, or `None`
/// when the trip count is unknown or too large.
///
/// The induction variable is substituted as a literal constant in each
/// copy, so downstream constant folding collapses all index arithmetic —
/// this is what turns the paper's DCT into a branch-free 8-outputs-per-cycle
/// data-path.
pub fn fully_unroll(l: &CanonLoop) -> Option<Vec<Stmt>> {
    let trips = l.trip_count()?;
    if trips > FULL_UNROLL_LIMIT {
        return None;
    }
    let mut out = Vec::new();
    for k in 0..trips {
        let value = Expr::int(l.iter_value(k), l.span);
        for stmt in &l.body.stmts {
            out.push(substituted(stmt, &l.var, &value));
        }
    }
    Some(out)
}

/// A copy of `stmt` with `var` replaced by `value`.
fn substituted(stmt: &Stmt, var: &str, value: &Expr) -> Stmt {
    let mut s = stmt.clone();
    subst_var_stmt(&mut s, var, value);
    s
}

/// Unrolls a canonical loop by `factor`: the body is duplicated `factor`
/// times with the induction variable offset by `0, step, 2*step, …`, and the
/// loop step becomes `factor * step`. A remainder loop is appended when the
/// trip count is not divisible by the factor.
pub fn partially_unroll(l: &CanonLoop, factor: u64) -> Stmt {
    let factor = factor.max(1);
    let trips = l.trip_count().unwrap_or(0);
    if factor <= 1 || trips == 0 {
        return l.to_stmt();
    }
    let main_trips = trips / factor * factor;
    let sp = l.span;

    let mut body_stmts = Vec::new();
    for j in 0..factor {
        let offset = Expr {
            kind: ExprKind::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::var(l.var.clone(), sp)),
                rhs: Box::new(Expr::int(l.step * j as i64, sp)),
            },
            span: sp,
        };
        for stmt in &l.body.stmts {
            body_stmts.push(substituted(stmt, &l.var, &offset));
        }
    }

    let main_loop = CanonLoop {
        bound: l.start + main_trips as i64 * l.step,
        cmp: BinOp::Lt,
        step: l.step * factor as i64,
        body: Block {
            stmts: body_stmts,
            span: l.body.span,
        },
        decl_ty: l.decl_ty.clone(),
        ..l.clone()
    }
    .to_stmt();

    if main_trips == trips {
        main_loop
    } else {
        // Remainder iterations as straight-line code.
        let mut stmts = vec![main_loop];
        for k in main_trips..trips {
            let value = Expr::int(l.iter_value(k), sp);
            for stmt in &l.body.stmts {
                stmts.push(substituted(stmt, &l.var, &value));
            }
        }
        Stmt {
            kind: StmtKind::Block(Block { stmts, span: sp }),
            span: sp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_function;
    use roccc_cparse::interp::Interpreter;
    use roccc_cparse::parser::parse;
    use std::collections::HashMap;

    /// Runs `func` on both the original and transformed program and asserts
    /// identical array/output results.
    fn assert_equivalent(src: &str, func: &str, transform: impl Fn(&Function) -> Function) {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let transformed = transform(f);
        let mut prog2 = prog.clone();
        for item in &mut prog2.items {
            if let Item::Function(g) = item {
                if g.name == func {
                    *g = transformed.clone();
                }
            }
        }

        let arrays_proto: HashMap<String, Vec<i64>> = f
            .params
            .iter()
            .filter_map(|p| match &p.ty {
                roccc_cparse::types::CType::Array(_, dims) => {
                    let n: usize = dims.iter().product();
                    Some((
                        p.name.clone(),
                        (0..n as i64).map(|x| x * 3 % 17 - 5).collect(),
                    ))
                }
                _ => None,
            })
            .collect();

        let mut a1 = arrays_proto.clone();
        let mut a2 = arrays_proto;
        let o1 = Interpreter::new(&prog).call(func, &[], &mut a1).unwrap();
        let o2 = Interpreter::new(&prog2).call(func, &[], &mut a2).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn full_unroll_preserves_fir_semantics() {
        let src = "void fir(int A[21], int C[17]) { int i;
          for (i = 0; i < 17; i = i + 1) {
            C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";
        assert_equivalent(src, "fir", fully_unroll_function);
    }

    #[test]
    fn full_unroll_eliminates_loop() {
        let src = "void f(int A[4]) { int i; for (i = 0; i < 4; i++) { A[i] = i * 2; } }";
        let prog = parse(src).unwrap();
        let unrolled = fully_unroll_function(prog.function("f").unwrap());
        let has_for = unrolled
            .body
            .stmts
            .iter()
            .any(|s| matches!(s.kind, StmtKind::For { .. }));
        assert!(!has_for, "loop should be gone: {}", unrolled.to_c());
        // After folding, indices are literals.
        let folded = fold_function(&unrolled);
        assert!(folded.to_c().contains("A[3]"));
    }

    #[test]
    fn full_unroll_flattens_nests() {
        let src = "void f(int A[2][3]) { int i; int j;
          for (i = 0; i < 2; i++) { for (j = 0; j < 3; j++) { A[i][j] = i + j; } } }";
        let prog = parse(src).unwrap();
        let unrolled = fully_unroll_function(prog.function("f").unwrap());
        let has_for = format!("{unrolled:?}").contains("For");
        assert!(!has_for);
        assert_equivalent(src, "f", fully_unroll_function);
    }

    #[test]
    fn partial_unroll_by_2_and_4_preserve_semantics() {
        let src = "void f(int A[16], int B[16]) { int i;
          for (i = 0; i < 16; i++) { B[i] = A[i] * 2 + 1; } }";
        assert_equivalent(src, "f", |f| partially_unroll_function(f, 2));
        assert_equivalent(src, "f", |f| partially_unroll_function(f, 4));
    }

    #[test]
    fn partial_unroll_with_remainder() {
        let src = "void f(int A[10], int B[10]) { int i;
          for (i = 0; i < 10; i++) { B[i] = A[i] - 3; } }";
        assert_equivalent(src, "f", |f| partially_unroll_function(f, 4));
        assert_equivalent(src, "f", |f| partially_unroll_function(f, 3));
        assert_equivalent(src, "f", |f| partially_unroll_function(f, 7));
    }

    #[test]
    fn partial_unroll_widens_step() {
        let src = "void f(int A[16]) { int i; for (i = 0; i < 16; i++) { A[i] = 1; } }";
        let prog = parse(src).unwrap();
        let unrolled = partially_unroll_function(prog.function("f").unwrap(), 4);
        let l = unrolled
            .body
            .stmts
            .iter()
            .find_map(crate::loops::recognize)
            .unwrap();
        assert_eq!(l.step, 4);
        assert_eq!(l.body.stmts.len(), 4);
    }

    #[test]
    fn unroll_limit_leaves_huge_loops() {
        let src = "void f(int* o) { int i; int s = 0;
          for (i = 0; i < 100000; i++) { s = s + 1; } *o = s; }";
        let prog = parse(src).unwrap();
        let unrolled = fully_unroll_function(prog.function("f").unwrap());
        let has_for = unrolled
            .body
            .stmts
            .iter()
            .any(|s| matches!(s.kind, StmtKind::For { .. }));
        assert!(has_for);
    }

    #[test]
    fn accumulator_unrolls_correctly() {
        let src = "void acc(int A[32], int* out) { int sum = 0; int i;
          for (i = 0; i < 32; i++) { sum = sum + A[i]; } *out = sum; }";
        assert_equivalent(src, "acc", fully_unroll_function);
        assert_equivalent(src, "acc", |f| partially_unroll_function(f, 8));
    }
}
