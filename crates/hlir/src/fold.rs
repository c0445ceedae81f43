//! Constant folding and algebraic simplification.
//!
//! One of ROCCC's "conventional optimizations" (§2). Folding runs at the AST
//! level so that loop bounds and array indices become literal constants
//! before unrolling and scalar replacement; the back end (`roccc-suifvm`)
//! folds again at the IR level after other passes expose more constants.

use crate::subst::{map_block_exprs_mut, map_expr_mut};
use roccc_cparse::ast::*;

/// Folds constants in every function of the program.
pub fn fold_program(p: &Program) -> Program {
    let mut p = p.clone();
    for item in &mut p.items {
        if let Item::Function(f) = item {
            fold_block(&mut f.body);
        }
    }
    p
}

/// Folds constants in one function.
pub fn fold_function(f: &Function) -> Function {
    let mut f = f.clone();
    fold_block(&mut f.body);
    f
}

/// Folds constants in a block, in place.
pub fn fold_block(b: &mut Block) {
    map_block_exprs_mut(b, &mut fold_expr)
}

/// Folds an expression bottom-up, in place: literal arithmetic is
/// evaluated and algebraic identities are applied (`x*1 → x`, `x+0 → x`,
/// `x*0 → 0`, `x<<0 → x`, `x&0 → 0`, `1?a:b → a`, …).
///
/// ```
/// use roccc_cparse::{parser::parse, ast::StmtKind};
/// use roccc_hlir::fold::fold_expr;
///
/// let prog = parse("int f(int x) { return x * 1 + 2 * 3; }").unwrap();
/// let mut e = match &prog.function("f").unwrap().body.stmts[0].kind {
///     StmtKind::Return(Some(e)) => e.clone(),
///     _ => unreachable!(),
/// };
/// fold_expr(&mut e);
/// assert_eq!(e.to_c(), "(x + 6)");
/// ```
pub fn fold_expr(e: &mut Expr) {
    map_expr_mut(e, &mut fold_node)
}

/// Folds one node whose operands are already folded: the post-order step
/// of [`fold_expr`], for walks that rewrite other nodes in the same pass.
pub fn fold_node(e: Expr) -> Expr {
    let span = e.span;
    match &e.kind {
        ExprKind::Unary { op, operand } => {
            if let Some(v) = operand.as_const() {
                let folded = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::BitNot => !v,
                    UnOp::LogicalNot => (v == 0) as i64,
                };
                return Expr::int(folded, span);
            }
            e
        }
        ExprKind::Binary { op, lhs, rhs } => {
            if let (Some(l), Some(r)) = (lhs.as_const(), rhs.as_const()) {
                if let Some(v) = eval_binop(*op, l, r) {
                    return Expr::int(v, span);
                }
            }
            // Algebraic identities with one constant side.
            if let Some(simplified) = simplify_identity(*op, lhs, rhs, span) {
                return simplified;
            }
            // Reassociation: `(x ± c1) ± c2 → x ± c`. Unrolling substitutes
            // `i → i + j` into window indices like `A[i + 1]`, producing
            // `A[(i + j) + 1]`; collapsing the constants restores the
            // `i + c` affine form the memory analysis requires.
            if let Some(reassoc) = reassociate(*op, lhs, rhs, span) {
                return reassoc;
            }
            e
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            if let Some(c) = cond.as_const() {
                return if c != 0 {
                    (**then_e).clone()
                } else {
                    (**else_e).clone()
                };
            }
            e
        }
        _ => e,
    }
}

/// Evaluates a binary operation on constants; `None` for division by zero
/// (left in place so the interpreter reports it with the right span).
pub fn eval_binop(op: BinOp, l: i64, r: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return None;
            }
            l.wrapping_div(r)
        }
        BinOp::Rem => {
            if r == 0 {
                return None;
            }
            l.wrapping_rem(r)
        }
        BinOp::Shl => {
            if r < 0 {
                return None;
            }
            l.wrapping_shl(r.min(63) as u32)
        }
        BinOp::Shr => {
            if r < 0 {
                return None;
            }
            l.wrapping_shr(r.min(63) as u32)
        }
        BinOp::Lt => (l < r) as i64,
        BinOp::Le => (l <= r) as i64,
        BinOp::Gt => (l > r) as i64,
        BinOp::Ge => (l >= r) as i64,
        BinOp::Eq => (l == r) as i64,
        BinOp::Ne => (l != r) as i64,
        BinOp::BitAnd => l & r,
        BinOp::BitXor => l ^ r,
        BinOp::BitOr => l | r,
        BinOp::LogicalAnd => ((l != 0) && (r != 0)) as i64,
        BinOp::LogicalOr => ((l != 0) || (r != 0)) as i64,
    })
}

fn simplify_identity(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    span: roccc_cparse::span::Span,
) -> Option<Expr> {
    let lc = lhs.as_const();
    let rc = rhs.as_const();
    match op {
        BinOp::Add => {
            if rc == Some(0) {
                return Some(lhs.clone());
            }
            if lc == Some(0) {
                return Some(rhs.clone());
            }
        }
        BinOp::Sub
            if rc == Some(0) => {
                return Some(lhs.clone());
            }
        BinOp::Mul => {
            if rc == Some(1) {
                return Some(lhs.clone());
            }
            if lc == Some(1) {
                return Some(rhs.clone());
            }
            if rc == Some(0) || lc == Some(0) {
                return Some(Expr::int(0, span));
            }
        }
        BinOp::Div
            if rc == Some(1) => {
                return Some(lhs.clone());
            }
        BinOp::Shl | BinOp::Shr => {
            if rc == Some(0) {
                return Some(lhs.clone());
            }
            if lc == Some(0) {
                return Some(Expr::int(0, span));
            }
        }
        BinOp::BitAnd => {
            if rc == Some(0) || lc == Some(0) {
                return Some(Expr::int(0, span));
            }
            if rc == Some(-1) {
                return Some(lhs.clone());
            }
            if lc == Some(-1) {
                return Some(rhs.clone());
            }
        }
        BinOp::BitOr | BinOp::BitXor => {
            if rc == Some(0) {
                return Some(lhs.clone());
            }
            if lc == Some(0) {
                return Some(rhs.clone());
            }
        }
        BinOp::LogicalAnd
            // The subset has no side effects in expressions, so a constant
            // zero on either side collapses the conjunction.
            if (rc == Some(0) || lc == Some(0)) => {
                return Some(Expr::int(0, span));
            }
        BinOp::LogicalOr
            if (matches!(rc, Some(v) if v != 0) || matches!(lc, Some(v) if v != 0)) => {
                return Some(Expr::int(1, span));
            }
        _ => {}
    }
    None
}

/// Collapses constant chains: `(x + c1) + c2 → x + (c1 + c2)`, with `Sub`
/// variants and the commuted `c + (x + c1)` form. Only the outer constant
/// and the inner right-or-left constant are combined; `c - x` shapes (base
/// negated) are left alone.
fn reassociate(op: BinOp, lhs: &Expr, rhs: &Expr, span: roccc_cparse::span::Span) -> Option<Expr> {
    // Normalize the outer node to `inner + c_outer`.
    let (inner, c_outer) = match op {
        BinOp::Add => {
            if let Some(c) = rhs.as_const() {
                (lhs, c)
            } else if let Some(c) = lhs.as_const() {
                (rhs, c)
            } else {
                return None;
            }
        }
        BinOp::Sub => (lhs, rhs.as_const()?.wrapping_neg()),
        _ => return None,
    };
    // Normalize the inner node to `base + c_inner`.
    let ExprKind::Binary {
        op: iop,
        lhs: ilhs,
        rhs: irhs,
    } = &inner.kind
    else {
        return None;
    };
    let (base, c_inner) = match iop {
        BinOp::Add => {
            if let Some(c) = irhs.as_const() {
                (ilhs, c)
            } else if let Some(c) = ilhs.as_const() {
                (irhs, c)
            } else {
                return None;
            }
        }
        BinOp::Sub => (ilhs, irhs.as_const()?.wrapping_neg()),
        _ => return None,
    };
    let c = c_inner.wrapping_add(c_outer);
    if c == 0 {
        return Some((**base).clone());
    }
    let (op2, mag) = if c < 0 {
        (BinOp::Sub, c.wrapping_neg())
    } else {
        (BinOp::Add, c)
    };
    Some(Expr {
        kind: ExprKind::Binary {
            op: op2,
            lhs: base.clone(),
            rhs: Box::new(Expr::int(mag, span)),
        },
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;

    fn fold_ret(src: &str) -> String {
        let prog = parse(&format!("int f(int x, int y) {{ return {src}; }}")).unwrap();
        let folded = fold_function(prog.function("f").unwrap());
        match &folded.body.stmts[0].kind {
            StmtKind::Return(Some(e)) => e.to_c(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn folds_literal_arithmetic() {
        assert_eq!(fold_ret("2 + 3 * 4"), "14");
        assert_eq!(fold_ret("(10 - 4) / 3"), "2");
        assert_eq!(fold_ret("1 << 5"), "32");
        assert_eq!(fold_ret("-(3) + 1"), "-2");
        assert_eq!(fold_ret("~0 & 255"), "255");
    }

    #[test]
    fn folds_comparisons_and_logic() {
        assert_eq!(fold_ret("3 < 4"), "1");
        assert_eq!(fold_ret("3 == 4 || 1"), "1");
        assert_eq!(fold_ret("0 && x"), "0");
    }

    #[test]
    fn applies_identities() {
        assert_eq!(fold_ret("x * 1"), "x");
        assert_eq!(fold_ret("x + 0"), "x");
        assert_eq!(fold_ret("0 + x"), "x");
        assert_eq!(fold_ret("x * 0"), "0");
        assert_eq!(fold_ret("x - 0"), "x");
        assert_eq!(fold_ret("x << 0"), "x");
        assert_eq!(fold_ret("x & 0"), "0");
        assert_eq!(fold_ret("x | 0"), "x");
        assert_eq!(fold_ret("x ^ 0"), "x");
    }

    #[test]
    fn reassociates_constant_chains() {
        assert_eq!(fold_ret("(x + 1) + 2"), "(x + 3)");
        assert_eq!(fold_ret("(x - 1) + 3"), "(x + 2)");
        assert_eq!(fold_ret("(x + 5) - 2"), "(x + 3)");
        assert_eq!(fold_ret("(x - 3) - 1"), "(x - 4)");
        assert_eq!(fold_ret("(x + 2) - 2"), "x");
        assert_eq!(fold_ret("2 + (x + 1)"), "(x + 3)");
        assert_eq!(fold_ret("(1 + x) + 1"), "(x + 2)");
        // `c - x` keeps its shape (base would be negated).
        assert_eq!(fold_ret("(3 - x) + 1"), "((3 - x) + 1)");
    }

    #[test]
    fn folds_constant_ternary() {
        assert_eq!(fold_ret("1 ? x : y"), "x");
        assert_eq!(fold_ret("0 ? x : y"), "y");
        assert_eq!(fold_ret("2 > 1 ? 5 : 6"), "5");
    }

    #[test]
    fn leaves_division_by_zero_unfolded() {
        assert_eq!(fold_ret("4 / 0"), "(4 / 0)");
        assert_eq!(fold_ret("4 % 0"), "(4 % 0)");
    }

    #[test]
    fn folds_inside_loop_bounds() {
        let prog = parse(
            "void f(int A[8], int* o) { int i; int s = 0;
          for (i = 0; i < 2 * 4; i++) { s = s + A[i]; } *o = s; }",
        )
        .unwrap();
        let folded = fold_function(prog.function("f").unwrap());
        let text = folded.to_c();
        assert!(text.contains("i < 8"), "bounds folded: {text}");
    }

    #[test]
    fn nested_folding_cascades() {
        assert_eq!(fold_ret("(1 + 1) * (2 + 2)"), "8");
        assert_eq!(fold_ret("x * (3 - 2)"), "x");
    }
}
