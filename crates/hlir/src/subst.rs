//! AST rewriting helpers shared by the loop transformations.
//!
//! The rewrites work in place on a tree the caller owns: a pass that needs
//! a fresh copy clones first, so each tree is copied at most once, and a
//! node that a rewrite leaves alone is moved, never copied. The `for_each`
//! walks read without rewriting, in the same order.

use roccc_cparse::ast::*;
use std::collections::HashMap;

/// Applies `f` bottom-up to every expression node inside `e`, in place:
/// the children first, then `f` on the node taken by value, so the parts
/// `f` hands back unchanged are moved rather than copied.
pub fn map_expr_mut(e: &mut Expr, f: &mut impl FnMut(Expr) -> Expr) {
    match &mut e.kind {
        ExprKind::IntLit(_) | ExprKind::Var(_) => {}
        ExprKind::ArrayIndex { indices: args, .. } | ExprKind::Call { args, .. } => {
            for a in args {
                map_expr_mut(a, f);
            }
        }
        ExprKind::Unary { operand, .. } => map_expr_mut(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            map_expr_mut(lhs, f);
            map_expr_mut(rhs, f);
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            map_expr_mut(cond, f);
            map_expr_mut(then_e, f);
            map_expr_mut(else_e, f);
        }
    }
    let span = e.span;
    let node = std::mem::replace(e, Expr::int(0, span));
    *e = f(node);
}

/// Applies `f` to every top-level expression of a statement tree
/// (conditions, right-hand sides, store indices, initializers), recursing
/// through nested blocks, in place.
pub fn map_stmt_exprs_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match &mut s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                f(e);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            if let LValue::ArrayElem { indices, .. } = target {
                indices.iter_mut().for_each(&mut *f);
            }
            f(value);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            f(cond);
            map_block_exprs_mut(then_blk, f);
            if let Some(b) = else_blk {
                map_block_exprs_mut(b, f);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(st) = init {
                map_stmt_exprs_mut(st, f);
            }
            if let Some(e) = cond {
                f(e);
            }
            if let Some(st) = step {
                map_stmt_exprs_mut(st, f);
            }
            map_block_exprs_mut(body, f);
        }
        StmtKind::While { cond, body } => {
            f(cond);
            map_block_exprs_mut(body, f);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                f(e);
            }
        }
        StmtKind::Block(b) => map_block_exprs_mut(b, f),
        StmtKind::Expr(e) => f(e),
    }
}

/// Applies `f` to every top-level expression in a block, in place. See
/// [`map_stmt_exprs_mut`].
pub fn map_block_exprs_mut(b: &mut Block, f: &mut impl FnMut(&mut Expr)) {
    for s in &mut b.stmts {
        map_stmt_exprs_mut(s, f);
    }
}

/// Calls `f` on every expression node inside `e`, children first: the
/// order in which [`map_expr_mut`] rewrites them.
fn for_each_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::Var(_) => {}
        ExprKind::ArrayIndex { indices: args, .. } | ExprKind::Call { args, .. } => {
            for a in args {
                for_each_expr(a, f);
            }
        }
        ExprKind::Unary { operand, .. } => for_each_expr(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            for_each_expr(lhs, f);
            for_each_expr(rhs, f);
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            for_each_expr(cond, f);
            for_each_expr(then_e, f);
            for_each_expr(else_e, f);
        }
    }
    f(e);
}

/// Calls `f` on every expression node of a statement tree, in the order
/// [`map_stmt_exprs_mut`] visits its top-level expressions and
/// [`for_each_expr`] their nodes.
fn for_each_stmt_expr(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match &s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                for_each_expr(e, f);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            if let LValue::ArrayElem { indices, .. } = target {
                for i in indices {
                    for_each_expr(i, f);
                }
            }
            for_each_expr(value, f);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            for_each_expr(cond, f);
            for_each_block_expr(then_blk, f);
            if let Some(b) = else_blk {
                for_each_block_expr(b, f);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(st) = init {
                for_each_stmt_expr(st, f);
            }
            if let Some(e) = cond {
                for_each_expr(e, f);
            }
            if let Some(st) = step {
                for_each_stmt_expr(st, f);
            }
            for_each_block_expr(body, f);
        }
        StmtKind::While { cond, body } => {
            for_each_expr(cond, f);
            for_each_block_expr(body, f);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                for_each_expr(e, f);
            }
        }
        StmtKind::Block(b) => for_each_block_expr(b, f),
        StmtKind::Expr(e) => for_each_expr(e, f),
    }
}

/// Calls `f` on every expression node in a block. See
/// [`for_each_stmt_expr`].
pub(crate) fn for_each_block_expr(b: &Block, f: &mut impl FnMut(&Expr)) {
    for s in &b.stmts {
        for_each_stmt_expr(s, f);
    }
}

/// Replaces every read of variable `var` with `replacement`, in place.
pub fn subst_var(e: &mut Expr, var: &str, replacement: &Expr) {
    map_expr_mut(e, &mut |x| match &x.kind {
        ExprKind::Var(n) if n == var => Expr {
            kind: replacement.kind.clone(),
            span: x.span,
        },
        _ => x,
    })
}

/// Substitutes `var` in every expression position of a statement tree, in
/// place.
pub fn subst_var_stmt(s: &mut Stmt, var: &str, replacement: &Expr) {
    map_stmt_exprs_mut(s, &mut |e| subst_var(e, var, replacement))
}

/// Collects the names of all variables read anywhere in `e`.
pub fn collect_var_reads(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::IntLit(_) => {}
        ExprKind::Var(n) => out.push(n.clone()),
        ExprKind::ArrayIndex { indices, .. } => {
            for i in indices {
                collect_var_reads(i, out);
            }
        }
        ExprKind::Unary { operand, .. } => collect_var_reads(operand, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_var_reads(lhs, out);
            collect_var_reads(rhs, out);
        }
        ExprKind::Cond {
            cond,
            then_e,
            else_e,
        } => {
            collect_var_reads(cond, out);
            collect_var_reads(then_e, out);
            collect_var_reads(else_e, out);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_var_reads(a, out);
            }
        }
    }
}

/// Collects scalar variables written anywhere in a block (assignments and
/// declarations with initializers), recursing into nested control flow.
pub fn collect_scalar_writes(b: &Block, out: &mut Vec<String>) {
    for s in &b.stmts {
        collect_scalar_writes_stmt(s, out);
    }
}

pub(crate) fn collect_scalar_writes_stmt(s: &Stmt, out: &mut Vec<String>) {
    match &s.kind {
        StmtKind::Decl { name, init, .. } => {
            if init.is_some() {
                out.push(name.clone());
            }
        }
        StmtKind::Assign { target, .. } => {
            if let LValue::Var(n) = target {
                out.push(n.clone());
            }
        }
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            collect_scalar_writes(then_blk, out);
            if let Some(e) = else_blk {
                collect_scalar_writes(e, out);
            }
        }
        StmtKind::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                collect_scalar_writes_stmt(i, out);
            }
            if let Some(st) = step {
                collect_scalar_writes_stmt(st, out);
            }
            collect_scalar_writes(body, out);
        }
        StmtKind::While { body, .. } => collect_scalar_writes(body, out),
        StmtKind::Block(b) => collect_scalar_writes(b, out),
        StmtKind::Return(_) | StmtKind::Expr(_) => {}
    }
}

/// Renames every variable occurrence (reads, writes, declarations, store
/// indices) in place using the provided mapping; names absent from the
/// map are left unchanged.
pub fn rename_vars_stmt(s: &mut Stmt, map: &HashMap<String, String>) {
    match &mut s.kind {
        StmtKind::Decl { name, init, .. } => {
            rename(name, map);
            if let Some(e) = init {
                rename_vars_expr(e, map);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            match target {
                LValue::Var(n) | LValue::Deref(n) => rename(n, map),
                LValue::ArrayElem { name, indices } => {
                    rename(name, map);
                    indices.iter_mut().for_each(|i| rename_vars_expr(i, map));
                }
            }
            rename_vars_expr(value, map);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            rename_vars_expr(cond, map);
            rename_vars_block(then_blk, map);
            if let Some(b) = else_blk {
                rename_vars_block(b, map);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(st) = init {
                rename_vars_stmt(st, map);
            }
            if let Some(e) = cond {
                rename_vars_expr(e, map);
            }
            if let Some(st) = step {
                rename_vars_stmt(st, map);
            }
            rename_vars_block(body, map);
        }
        StmtKind::While { cond, body } => {
            rename_vars_expr(cond, map);
            rename_vars_block(body, map);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                rename_vars_expr(e, map);
            }
        }
        StmtKind::Block(b) => rename_vars_block(b, map),
        StmtKind::Expr(e) => rename_vars_expr(e, map),
    }
}

/// Renames variables in a block, in place. See [`rename_vars_stmt`].
pub fn rename_vars_block(b: &mut Block, map: &HashMap<String, String>) {
    for s in &mut b.stmts {
        rename_vars_stmt(s, map);
    }
}

/// Renames variables and array names in an expression, in place. See
/// [`rename_vars_stmt`].
pub fn rename_vars_expr(e: &mut Expr, map: &HashMap<String, String>) {
    map_expr_mut(e, &mut |mut x| {
        if let ExprKind::Var(n) | ExprKind::ArrayIndex { name: n, .. } = &mut x.kind {
            rename(n, map);
        }
        x
    })
}

fn rename(name: &mut String, map: &HashMap<String, String>) {
    if let Some(new) = map.get(name.as_str()) {
        name.clone_from(new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;
    use roccc_cparse::span::Span;

    fn expr_of(src: &str) -> Expr {
        // Parse `int f() { return <src>; }` and pull out the expression.
        let prog = parse(&format!("int f(int a, int b, int i) {{ return {src}; }}")).unwrap();
        match &prog.function("f").unwrap().body.stmts[0].kind {
            StmtKind::Return(Some(e)) => e.clone(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn subst_replaces_all_occurrences() {
        let mut e = expr_of("a + a * b");
        subst_var(&mut e, "a", &Expr::int(7, Span::dummy()));
        assert_eq!(e.to_c(), "(7 + (7 * b))");
    }

    #[test]
    fn subst_reaches_array_indices() {
        let prog = parse("void f(int A[8], int i, int* o) { *o = A[i + 1]; }").unwrap();
        let f = prog.function("f").unwrap();
        let mut s = f.body.stmts[0].clone();
        subst_var_stmt(&mut s, "i", &Expr::int(3, Span::dummy()));
        match &s.kind {
            StmtKind::Assign { value, .. } => assert_eq!(value.to_c(), "A[(3 + 1)]"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn collect_reads_finds_nested() {
        let e = expr_of("a > 0 ? b : a + i");
        let mut reads = Vec::new();
        collect_var_reads(&e, &mut reads);
        reads.sort();
        assert_eq!(reads, vec!["a", "a", "b", "i"]);
    }

    #[test]
    fn rename_renames_decls_and_uses() {
        let prog = parse("void f() { int x = 1; int y = x + 2; }").unwrap();
        let f = prog.function("f").unwrap();
        let mut map = HashMap::new();
        map.insert("x".to_string(), "x_1".to_string());
        let mut renamed = f.body.clone();
        rename_vars_block(&mut renamed, &map);
        let text: String = renamed.stmts.iter().map(|s| format!("{s:?}")).collect();
        assert!(text.contains("x_1"));
        assert!(!text.contains("\"x\""));
    }

    #[test]
    fn collect_writes_descends_into_branches() {
        let prog = parse("void f(int c) { int a; if (c) { a = 1; } else { a = 2; } }").unwrap();
        let f = prog.function("f").unwrap();
        let mut writes = Vec::new();
        collect_scalar_writes(&f.body, &mut writes);
        assert_eq!(writes, vec!["a", "a"]);
    }
}
