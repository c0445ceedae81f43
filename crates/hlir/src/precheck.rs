//! Pre-expansion refusals for the body-copying transform gates
//! ([`crate::unroll::partially_unroll_function_checked`] and
//! [`crate::stripmine::stripmine_unroll_function_checked`]).
//!
//! Some expansions are certain to be rejected downstream, but only after
//! they have been built, folded, inlined and folded again, at a cost that
//! grows with the factor. Two such rejections are visible in the
//! untransformed function:
//!
//! * **a copied body-local declaration**: sema rejects the first
//!   declaration of the second copy;
//! * **statements after the kernel loop** that extract's epilogue shape
//!   rule rejects: the remainder copies of a factor that does not divide
//!   the trip count, or anything that already follows the loop.
//!
//! Each check returns exactly the diagnostic (stage, span, message) the
//! expanded pipeline reports, or `None` whenever that is not certain, and
//! the gate then expands as before. They assume `f` passed sema, as every
//! function reaching the gates has.

use crate::deps::{find_blocking_dep, nested_loop_vars};
use crate::extract::{check_epilogue_shape, top_level_stmts};
use crate::loops::{contains_loop, recognize};
use crate::subst::for_each_block_expr;
use roccc_cparse::ast::*;
use roccc_cparse::error::CError;
use roccc_cparse::sema::redeclaration_error;
use roccc_cparse::span::Span;

/// The error partial unrolling by `factor` is certain to end in.
pub(crate) fn unroll_refusal(f: &Function, factor: u64) -> Option<CError> {
    if factor < 2 || !predictable(f) {
        return None;
    }
    unroll_redeclaration(&f.body).or_else(|| epilogue_error(f, factor))
}

/// The error strip-mining by `width` is certain to end in: a copied
/// declaration only. The compiler may run a full unroll after the
/// strip-miner, which removes the kernel loop and with it extract's
/// epilogue verdict, so remainders are left to the expansion (they fail
/// at extract's first check, or in the unroll gate).
pub(crate) fn stripmine_refusal(f: &Function, width: u64) -> Option<CError> {
    // A partial unroll may follow, behind the L010 gate: only when no loop
    // carries a dependence at any distance can that gate not fire first.
    if width < 2 || !predictable(f) || find_blocking_dep(f, u64::MAX, false).is_some() {
        return None;
    }
    strip_redeclaration(&f.body, width, false).ok().flatten()
}

/// Whether copying loop bodies changes no sema verdict but the
/// redeclarations predicted here, and extract's inliner leaves `f` alone:
/// every call is an intrinsic, and none passes an induction variable as a
/// bare argument (`ROCCC_load_prev`, `ROCCC_store2next` and `ROCCC_lut`
/// need a name there, which the substituted copies no longer have).
fn predictable(f: &Function) -> bool {
    let mut loop_vars = Vec::new();
    nested_loop_vars(&f.body, &mut loop_vars);
    let mut ok = true;
    for_each_block_expr(&f.body, &mut |e| {
        if let ExprKind::Call { name, args } = &e.kind {
            ok &= intrinsics::is_intrinsic(name)
                && !args
                    .iter()
                    .any(|a| matches!(&a.kind, ExprKind::Var(v) if loop_vars.contains(v)));
        }
    });
    ok
}

/// Partial unrolling copies every canonical loop with a nonzero trip
/// count, inner loops first. The first repeat sema meets is therefore in
/// the first such loop whose body declares anything, at the first
/// declaration of that body's second copy.
fn unroll_redeclaration(b: &Block) -> Option<CError> {
    b.stmts.iter().find_map(|s| match &s.kind {
        StmtKind::For { body, .. } => match recognize(s) {
            Some(l) => unroll_redeclaration(&l.body).or_else(|| {
                if l.trip_count().unwrap_or(0) > 0 {
                    second_copy_error(&l.body)
                } else {
                    None
                }
            }),
            None => unroll_redeclaration(body),
        },
        StmtKind::While { body, .. } | StmtKind::Block(body) => unroll_redeclaration(body),
        StmtKind::If {
            then_blk, else_blk, ..
        } => unroll_redeclaration(then_blk)
            .or_else(|| else_blk.as_ref().and_then(unroll_redeclaration)),
        _ => None,
    })
}

/// Strip-mining copies innermost canonical loops of at least `width`
/// trips, reached through canonical loops, `if`s and blocks; the first
/// repeat is in the first of them whose body declares anything.
///
/// A partial or full unroll may follow and copy loops of its own. `Err`
/// (unsure) when one of those could redeclare first: a declaration inside
/// another loop (`in_loop`) comes earlier in sema's order, or a loop that
/// full unrolling would delete, or that the strip-miner never enters,
/// holds a declaration.
fn strip_redeclaration(b: &Block, width: u64, in_loop: bool) -> Result<Option<CError>, ()> {
    for s in &b.stmts {
        let found = match &s.kind {
            StmtKind::For { init, .. }
                if in_loop
                    && matches!(
                        init.as_deref(),
                        Some(Stmt {
                            kind: StmtKind::Decl { .. },
                            ..
                        })
                    ) =>
            {
                return Err(())
            }
            StmtKind::For { body, .. } | StmtKind::While { body, .. } => match recognize(s) {
                Some(l)
                    if !contains_loop(&l.body) && l.trip_count().is_some_and(|t| t >= width) =>
                {
                    second_copy_error(&l.body)
                }
                Some(l) if l.trip_count() != Some(0) => strip_redeclaration(&l.body, width, true)?,
                _ if first_declaration(body).is_some() => return Err(()),
                _ => None,
            },
            StmtKind::If {
                then_blk, else_blk, ..
            } => match strip_redeclaration(then_blk, width, in_loop)? {
                Some(e) => Some(e),
                None => match else_blk {
                    Some(e) => strip_redeclaration(e, width, in_loop)?,
                    None => None,
                },
            },
            StmtKind::Block(inner) => strip_redeclaration(inner, width, in_loop)?,
            StmtKind::Decl { .. } if in_loop => return Err(()),
            _ => None,
        };
        if found.is_some() {
            return Ok(found);
        }
    }
    Ok(None)
}

/// The sema error of the second copy of `body`: at its first declaration,
/// a same-scope duplicate when that declaration sits directly in `body`.
fn second_copy_error(body: &Block) -> Option<CError> {
    first_declaration(body).map(|(name, span, direct)| redeclaration_error(name, span, direct))
}

/// The first declaration in `b` in sema's visiting order: its name, its
/// span, and whether it sits directly in `b` (rather than in a nested
/// scope).
fn first_declaration(b: &Block) -> Option<(&str, Span, bool)> {
    let nested = |(name, span, _)| (name, span, false);
    b.stmts.iter().find_map(|s| match &s.kind {
        StmtKind::Decl { name, .. } => Some((name.as_str(), s.span, true)),
        StmtKind::For { init, body, .. } => match init.as_deref() {
            // Unrolling rebuilds canonical headers at the loop's span.
            Some(Stmt {
                kind: StmtKind::Decl { name, .. },
                span,
            }) => Some((name.as_str(), recognize(s).map_or(*span, |l| l.span), false)),
            _ => first_declaration(body).map(nested),
        },
        StmtKind::While { body, .. } | StmtKind::Block(body) => first_declaration(body).map(nested),
        StmtKind::If {
            then_blk, else_blk, ..
        } => first_declaration(then_blk)
            .or_else(|| else_blk.as_ref().and_then(first_declaration))
            .map(nested),
        _ => None,
    })
}

/// Extract's epilogue error for the unrolled function. Its kernel loop is
/// the first top-level `for` once bare blocks are spliced; after it come
/// the remainder copies of its body when `factor` does not divide its trip
/// count, then whatever followed it already. Unrolling changes statements
/// only inside loops and leaves each loop a loop (followed by its own
/// remainder), so the first offending shape and its span carry over.
fn epilogue_error(f: &Function, factor: u64) -> Option<CError> {
    let top = top_level_stmts(&f.body);
    let pos = top
        .iter()
        .position(|s| matches!(s.kind, StmtKind::For { .. }))?;
    let kernel_loop = recognize(top[pos]);
    let mut after = match &kernel_loop {
        Some(l) if l.trip_count().is_some_and(|t| t % factor != 0) => top_level_stmts(&l.body),
        _ => Vec::new(),
    };
    after.extend_from_slice(&top[pos + 1..]);
    check_epilogue_shape(after).err()
}

#[cfg(test)]
mod tests {
    use crate::extract::extract_kernel;
    use crate::fold::fold_function;
    use crate::stripmine::{stripmine_unroll_function, stripmine_unroll_function_checked};
    use crate::unroll::{partially_unroll_function, partially_unroll_function_checked};
    use roccc_cparse::ast::{Function, Item, Program};
    use roccc_cparse::error::CResult;

    type Gate = fn(&Function, u64) -> CResult<Function>;
    type Transform = fn(&Function, u64) -> Function;
    const UNROLL: (Gate, Transform) =
        (partially_unroll_function_checked, partially_unroll_function);
    const STRIP: (Gate, Transform) = (stripmine_unroll_function_checked, stripmine_unroll_function);

    /// The gate's verdict on `k` of `src`, and whether it refused early:
    /// an early refusal must equal the error extraction reports for the
    /// folded expansion, and a pass must return the expansion itself.
    fn gate(
        src: &str,
        (checked, unchecked): (Gate, Transform),
        factor: u64,
    ) -> (CResult<Function>, bool) {
        let program = roccc_cparse::frontend(src).unwrap();
        let f = program.function("k").unwrap();
        let verdict = checked(f, factor);
        let expanded = unchecked(f, factor);
        let early = match &verdict {
            Ok(g) => {
                assert_eq!(g, &expanded, "a pass hands on the expansion");
                false
            }
            Err(e) => {
                let items = program
                    .items
                    .iter()
                    .map(|i| match i {
                        Item::Function(g) if g.name == "k" => {
                            Item::Function(fold_function(&expanded))
                        }
                        other => other.clone(),
                    })
                    .collect();
                let late = extract_kernel(&Program { items }, "k").err();
                assert_eq!(
                    late.as_ref(),
                    Some(e),
                    "early refusal differs from the expansion's error"
                );
                true
            }
        };
        (verdict, early)
    }

    fn refusal(src: &str, g: (Gate, Transform), factor: u64) -> String {
        match gate(src, g, factor) {
            (Err(e), true) => e.to_string(),
            (v, _) => panic!("expected an early refusal, got {v:?}"),
        }
    }

    #[test]
    fn copied_top_level_local_is_a_same_scope_duplicate() {
        let src = "void k(int A[24], int B[24]) { int i;
          for (i = 0; i < 20; i++) { B[i] = A[i]; int t = A[i + 1]; B[i] = t; } }";
        for g in [UNROLL, STRIP] {
            assert!(refusal(src, g, 4).contains("duplicate declaration of `t`"));
        }
    }

    #[test]
    fn copied_nested_local_is_declared_elsewhere() {
        let src = "void k(int A[24], int B[24]) { int i; int s = 0;
          for (i = 0; i < 16; i++) { if (A[i] > 0) { int t = A[i]; s = s + t; } B[i] = s; } }";
        for g in [UNROLL, STRIP] {
            assert!(refusal(src, g, 2).contains("`t` is already declared elsewhere"));
        }
    }

    #[test]
    fn unroll_reports_an_inner_loop_duplicate_before_the_outer_one() {
        // The inner loop is unrolled first, so its own copies collide
        // before the outer copies redeclare the header variable `j`.
        let src = "void k(int A[8][24], int B[8][24]) { int i;
          for (i = 0; i < 4; i++) { for (int j = 0; j < 20; j++) { int t = A[i][j]; B[i][j] = t; } } }";
        assert!(refusal(src, UNROLL, 2).contains("duplicate declaration of `t`"));
        // Without an inner collision the copied header declaration is
        // reported, at the span unrolling rebuilds the header with.
        let header = "void k(int A[8][24], int B[8][24]) { int i;
          for (i = 0; i < 4; i++) { for (int j = 0; j < 20; j++) { B[i][j] = A[i][j]; } } }";
        assert!(refusal(header, UNROLL, 4).contains("`j` is already declared elsewhere"));
    }

    #[test]
    fn remainder_after_the_kernel_loop_is_refused_by_the_unroll_gate() {
        let fir = "void k(int A[24], int B[20]) { int i;
          for (i = 0; i < 20; i++) { B[i] = 3 * A[i] + A[i + 1]; } }";
        assert!(refusal(fir, UNROLL, 3).contains("unsupported statement after the kernel loop"));
        // A dividing factor leaves no remainder, and the kernel compiles.
        assert!(gate(fir, UNROLL, 4).0.is_ok());
        // An accumulator's remainder updates the feedback scalar after the
        // loop; its export alone would pass the shape rule.
        let acc = "void k(int A[24], int* o) { int s = 0; int i;
          for (i = 0; i < 20; i++) { s = s + A[i]; } *o = s; }";
        assert!(refusal(acc, UNROLL, 6).contains("unsupported statement after the kernel loop"));
        assert!(gate(acc, UNROLL, 5).0.is_ok());
    }

    #[test]
    fn uncertain_expansions_fall_through() {
        // An inlined call: the inliner's renaming is left to the expansion.
        let call = "int g(int x) { int y = x * 2; return y; }
          void k(int A[24], int B[24]) { int i;
          for (i = 0; i < 20; i++) { int t = g(A[i]); B[i] = t; } }";
        // A loop the strip-miner leaves alone declares first; an unroll
        // after it would copy that loop before the strip collides.
        let short_first = "void k(int A[24], int B[24], int C[24]) { int i; int j;
          for (i = 0; i < 3; i++) { int a = A[i]; B[i] = a; }
          for (j = 0; j < 20; j++) { int b = A[j]; C[j] = b; } }";
        assert!(!gate(call, UNROLL, 2).1);
        assert!(!gate(call, STRIP, 2).1);
        assert!(!gate(short_first, STRIP, 4).1);
        // The unroll gate is the last transform and still refuses it.
        assert!(refusal(short_first, UNROLL, 4).contains("duplicate declaration of `a`"));
    }

    /// A million copies would take minutes to build; the refusals need
    /// one walk of the body.
    #[test]
    fn a_million_copies_are_refused_without_building_them() {
        let local = "void k(int A[24], int B[24]) { int i;
          for (i = 0; i < 20; i++) { int t = A[i] * 3; B[i] = t; } }";
        let fir = "void k(int A[24], int B[20]) { int i;
          for (i = 0; i < 20; i++) { B[i] = 3 * A[i] + 5 * A[i + 1] - A[i + 4]; } }";
        for src in [local, fir] {
            let f = roccc_cparse::frontend(src)
                .unwrap()
                .function("k")
                .unwrap()
                .clone();
            assert!(partially_unroll_function_checked(&f, 1_000_000).is_err());
            // Strip-mining leaves a loop shorter than one strip alone.
            assert_eq!(stripmine_unroll_function_checked(&f, 1_000_000).unwrap(), f);
        }
        let long_local = "void k(int A[2000000], int B[2000000]) { int i;
          for (i = 0; i < 2000000; i++) { int t = A[i] * 3; B[i] = t; } }";
        let f = roccc_cparse::frontend(long_local)
            .unwrap()
            .function("k")
            .unwrap()
            .clone();
        assert!(stripmine_unroll_function_checked(&f, 1_000_000).is_err());
    }
}
