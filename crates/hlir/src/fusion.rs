//! Loop fusion.
//!
//! Another of ROCCC's FPGA-specific loop optimizations (§2): two adjacent
//! counted loops with identical headers are merged into one, so a single
//! controller/smart-buffer pass feeds one wider data-path instead of two
//! sequential circuits.
//!
//! Legality here is intentionally conservative (matching a production HLS
//! front end's "prove it or skip it" stance): the loops must have identical
//! `(start, bound, cmp, step)`, and the second body must not read any array
//! element or scalar that the first body writes at a *different* iteration
//! — we require that every array the first loop writes is accessed by the
//! second only at exactly the same index expressions, and that scalars
//! written by either body are disjoint from scalars used by the other.

use crate::loops::{recognize, CanonLoop};
use crate::subst::{collect_scalar_writes, collect_var_reads};
use roccc_cparse::ast::*;
use std::collections::HashSet;

/// Fuses adjacent fusable loops throughout the function. Repeats until a
/// fixed point so chains of three or more loops collapse.
pub fn fuse_function(f: &Function) -> Function {
    let mut body = f.body.clone();
    loop {
        let (new_body, changed) = fuse_block(&body);
        body = new_body;
        if !changed {
            break;
        }
    }
    Function { body, ..f.clone() }
}

fn fuse_block(b: &Block) -> (Block, bool) {
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut changed = false;
    for s in &b.stmts {
        // Recurse into structured statements first.
        let s = match &s.kind {
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (t, c1) = fuse_block(then_blk);
                let (e, c2) = match else_blk {
                    Some(e) => {
                        let (e, c) = fuse_block(e);
                        (Some(e), c)
                    }
                    None => (None, false),
                };
                changed |= c1 | c2;
                Stmt {
                    kind: StmtKind::If {
                        cond: cond.clone(),
                        then_blk: t,
                        else_blk: e,
                    },
                    span: s.span,
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let (nb, c) = fuse_block(body);
                changed |= c;
                Stmt {
                    kind: StmtKind::For {
                        init: init.clone(),
                        cond: cond.clone(),
                        step: step.clone(),
                        body: nb,
                    },
                    span: s.span,
                }
            }
            StmtKind::Block(inner) => {
                let (nb, c) = fuse_block(inner);
                changed |= c;
                Stmt {
                    kind: StmtKind::Block(nb),
                    span: s.span,
                }
            }
            _ => s.clone(),
        };

        // Try to fuse with the previous statement.
        if let Some(prev) = stmts.last() {
            if let (Some(l1), Some(l2)) = (recognize(prev), recognize(&s)) {
                if headers_match(&l1, &l2) && bodies_independent(&l1, &l2) {
                    let fused = fuse_pair(&l1, &l2);
                    stmts.pop();
                    stmts.push(fused.to_stmt());
                    changed = true;
                    continue;
                }
            }
        }
        stmts.push(s);
    }
    (
        Block {
            stmts,
            span: b.span,
        },
        changed,
    )
}

fn headers_match(a: &CanonLoop, b: &CanonLoop) -> bool {
    a.start == b.start && a.bound == b.bound && a.cmp == b.cmp && a.step == b.step
}

/// Conservative independence check described in the module docs.
fn bodies_independent(a: &CanonLoop, b: &CanonLoop) -> bool {
    let mut writes_a = Vec::new();
    collect_scalar_writes(&a.body, &mut writes_a);
    let mut writes_b = Vec::new();
    collect_scalar_writes(&b.body, &mut writes_b);
    let writes_a: HashSet<_> = writes_a.into_iter().collect();
    let writes_b: HashSet<_> = writes_b.into_iter().collect();

    let reads_a = block_var_reads(&a.body);
    let reads_b = block_var_reads(&b.body);

    // Scalars must not flow between the bodies in either direction, except
    // through the induction variable (same in both).
    let cross = |w: &HashSet<String>, r: &HashSet<String>, ind: &str| {
        w.iter().any(|v| v != ind && r.contains(v))
    };
    if cross(&writes_a, &reads_b, &a.var)
        || cross(&writes_b, &reads_a, &a.var)
        || writes_a.intersection(&writes_b).any(|v| v != &a.var)
    {
        return false;
    }

    // Arrays written by one loop must not be touched by the other at all
    // (index-equality reasoning is left to a smarter dependence test).
    let (aw, ar) = array_accesses(&a.body);
    let (bw, br) = array_accesses(&b.body);
    if aw.iter().any(|arr| bw.contains(arr) || br.contains(arr)) {
        return false;
    }
    if bw.iter().any(|arr| aw.contains(arr) || ar.contains(arr)) {
        return false;
    }
    true
}

fn block_var_reads(b: &Block) -> HashSet<String> {
    let mut reads = Vec::new();
    for s in &b.stmts {
        collect_stmt_reads(s, &mut reads);
    }
    reads.into_iter().collect()
}

fn collect_stmt_reads(s: &Stmt, out: &mut Vec<String>) {
    match &s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                collect_var_reads(e, out);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            collect_var_reads(value, out);
            if let LValue::ArrayElem { indices, .. } = target {
                for i in indices {
                    collect_var_reads(i, out);
                }
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            collect_var_reads(cond, out);
            for st in &then_blk.stmts {
                collect_stmt_reads(st, out);
            }
            if let Some(e) = else_blk {
                for st in &e.stmts {
                    collect_stmt_reads(st, out);
                }
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                collect_stmt_reads(i, out);
            }
            if let Some(c) = cond {
                collect_var_reads(c, out);
            }
            if let Some(st) = step {
                collect_stmt_reads(st, out);
            }
            for st in &body.stmts {
                collect_stmt_reads(st, out);
            }
        }
        StmtKind::While { cond, body } => {
            collect_var_reads(cond, out);
            for st in &body.stmts {
                collect_stmt_reads(st, out);
            }
        }
        StmtKind::Return(Some(e)) => collect_var_reads(e, out),
        StmtKind::Return(None) => {}
        StmtKind::Block(b) => {
            for st in &b.stmts {
                collect_stmt_reads(st, out);
            }
        }
        StmtKind::Expr(e) => collect_var_reads(e, out),
    }
}

/// Returns (written arrays, read arrays) in a block.
fn array_accesses(b: &Block) -> (HashSet<String>, HashSet<String>) {
    let mut writes = HashSet::new();
    let mut reads = HashSet::new();
    fn walk_expr(e: &Expr, reads: &mut HashSet<String>) {
        match &e.kind {
            ExprKind::ArrayIndex { name, indices } => {
                reads.insert(name.clone());
                for i in indices {
                    walk_expr(i, reads);
                }
            }
            ExprKind::Unary { operand, .. } => walk_expr(operand, reads),
            ExprKind::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, reads);
                walk_expr(rhs, reads);
            }
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => {
                walk_expr(cond, reads);
                walk_expr(then_e, reads);
                walk_expr(else_e, reads);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    walk_expr(a, reads);
                }
            }
            _ => {}
        }
    }
    fn walk_stmt(s: &Stmt, writes: &mut HashSet<String>, reads: &mut HashSet<String>) {
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    walk_expr(e, reads);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                walk_expr(value, reads);
                if let LValue::ArrayElem { name, indices } = target {
                    writes.insert(name.clone());
                    for i in indices {
                        walk_expr(i, reads);
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                walk_expr(cond, reads);
                for st in &then_blk.stmts {
                    walk_stmt(st, writes, reads);
                }
                if let Some(e) = else_blk {
                    for st in &e.stmts {
                        walk_stmt(st, writes, reads);
                    }
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    walk_stmt(i, writes, reads);
                }
                if let Some(c) = cond {
                    walk_expr(c, reads);
                }
                if let Some(st) = step {
                    walk_stmt(st, writes, reads);
                }
                for st in &body.stmts {
                    walk_stmt(st, writes, reads);
                }
            }
            StmtKind::While { cond, body } => {
                walk_expr(cond, reads);
                for st in &body.stmts {
                    walk_stmt(st, writes, reads);
                }
            }
            StmtKind::Return(Some(e)) => walk_expr(e, reads),
            StmtKind::Return(None) => {}
            StmtKind::Block(b) => {
                for st in &b.stmts {
                    walk_stmt(st, writes, reads);
                }
            }
            StmtKind::Expr(e) => walk_expr(e, reads),
        }
    }
    for s in &b.stmts {
        walk_stmt(s, &mut writes, &mut reads);
    }
    (writes, reads)
}

fn fuse_pair(a: &CanonLoop, b: &CanonLoop) -> CanonLoop {
    // Rename b's induction variable to a's (headers are identical).
    let mut stmts = a.body.stmts.clone();
    let first = stmts.len();
    stmts.extend_from_slice(&b.body.stmts);
    let var = Expr::var(a.var.clone(), b.span);
    for s in &mut stmts[first..] {
        crate::subst::subst_var_stmt(s, &b.var, &var);
    }
    CanonLoop {
        body: Block {
            stmts,
            span: a.body.span,
        },
        ..a.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::interp::Interpreter;
    use roccc_cparse::parser::parse;
    use std::collections::HashMap;

    fn count_loops(f: &Function) -> usize {
        f.body
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::For { .. }))
            .count()
    }

    #[test]
    fn fuses_independent_maps() {
        let src = "void f(int A[8], int B[8], int C[8], int D[8]) { int i; int j;
          for (i = 0; i < 8; i++) { B[i] = A[i] * 2; }
          for (j = 0; j < 8; j++) { D[j] = C[j] + 1; } }";
        let prog = parse(src).unwrap();
        let fused = fuse_function(prog.function("f").unwrap());
        assert_eq!(count_loops(&fused), 1, "{}", fused.to_c());

        // Semantics preserved.
        let mut prog2 = prog.clone();
        for item in &mut prog2.items {
            if let Item::Function(g) = item {
                *g = fused.clone();
            }
        }
        let mk = || {
            let mut m = HashMap::new();
            for n in ["A", "B", "C", "D"] {
                m.insert(
                    n.to_string(),
                    (0..8).map(|x| x * x - 3).collect::<Vec<i64>>(),
                );
            }
            m
        };
        let mut a1 = mk();
        let mut a2 = mk();
        Interpreter::new(&prog).call("f", &[], &mut a1).unwrap();
        Interpreter::new(&prog2).call("f", &[], &mut a2).unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn refuses_flow_dependent_loops() {
        let src = "void f(int A[8], int B[8], int C[8]) { int i; int j;
          for (i = 0; i < 8; i++) { B[i] = A[i] * 2; }
          for (j = 0; j < 8; j++) { C[j] = B[7 - j]; } }";
        let prog = parse(src).unwrap();
        let fused = fuse_function(prog.function("f").unwrap());
        assert_eq!(count_loops(&fused), 2);
    }

    #[test]
    fn refuses_mismatched_headers() {
        let src = "void f(int A[8], int B[8]) { int i; int j;
          for (i = 0; i < 8; i++) { A[i] = i; }
          for (j = 0; j < 4; j++) { B[j] = j; } }";
        let prog = parse(src).unwrap();
        let fused = fuse_function(prog.function("f").unwrap());
        assert_eq!(count_loops(&fused), 2);
    }

    #[test]
    fn fuses_chain_of_three() {
        let src = "void f(int A[4], int B[4], int C[4]) { int i; int j; int k;
          for (i = 0; i < 4; i++) { A[i] = i; }
          for (j = 0; j < 4; j++) { B[j] = j * 2; }
          for (k = 0; k < 4; k++) { C[k] = k * 3; } }";
        let prog = parse(src).unwrap();
        let fused = fuse_function(prog.function("f").unwrap());
        assert_eq!(count_loops(&fused), 1);
    }

    #[test]
    fn refuses_scalar_flow() {
        let src = "void f(int A[8], int B[8], int* o) { int i; int j; int s = 0;
          for (i = 0; i < 8; i++) { s = s + A[i]; }
          for (j = 0; j < 8; j++) { B[j] = s; } *o = s; }";
        let prog = parse(src).unwrap();
        let fused = fuse_function(prog.function("f").unwrap());
        assert_eq!(count_loops(&fused), 2);
    }
}
