//! Kernel extraction: scalar replacement and feedback detection.
//!
//! This pass reproduces §4.1–§4.2.1 of the paper:
//!
//! * **Scalar replacement** (Figure 3 (a) → (b)) isolates memory accesses
//!   from computation: every affine array read `A[i+c]` becomes a scalar
//!   `A<k>` loaded at the top of the loop body, every array write becomes a
//!   scalar `Tmp<k>` stored at the bottom.
//! * **Feedback detection** (Figure 4) finds loop-carried scalars and
//!   annotates them with `ROCCC_load_prev` / `ROCCC_store2next` in the
//!   exported data-path function.
//! * The highlighted computation region is **exported** as a stand-alone
//!   function (Figure 3 (c) / 4 (c)) that the back end lowers to the
//!   data-path, while the loop statement and the load/store code drive the
//!   controller and smart-buffer generators.

use crate::fold::{fold_block, fold_node};
use crate::inline::{callee_names, inline_program};
use crate::kernel::*;
use crate::loops::{contains_loop, recognize, CanonLoop};
use crate::subst::{
    collect_var_reads, for_each_block_expr, map_expr_mut, map_stmt_exprs_mut, rename_vars_stmt,
};
use roccc_cparse::ast::intrinsics;
use roccc_cparse::ast::*;
use roccc_cparse::error::{CError, CResult, Stage};
use roccc_cparse::span::Span;
use roccc_cparse::types::{CType, IntType};
use std::collections::{BTreeMap, HashMap, HashSet};

fn err(span: Span, msg: impl Into<String>) -> CError {
    CError::new(Stage::Sema, span, msg)
}

/// Extracts the hardware kernel from function `func_name` of `program`.
///
/// Extraction works on its own copy of that function, next to the
/// program's globals: calls into other defined functions are inlined
/// first (only then is the whole program copied), and the copy is
/// constant-folded and checked by semantic analysis in place. The other
/// functions take no part. The function must be either straight-line
/// scalar code, or a 1- or 2-deep canonical loop nest with affine array
/// accesses.
///
/// # Errors
///
/// Returns a diagnostic when the function is missing, fails semantic
/// analysis, or falls outside the supported shape (non-affine indices,
/// array accesses in straight-line code, loops deeper than two, …).
pub fn extract_kernel(program: &Program, func_name: &str) -> CResult<Kernel> {
    let mut program = kernel_program(program, func_name);
    for item in &mut program.items {
        if let Item::Function(f) = item {
            fold_block(&mut f.body);
        }
    }
    let sema = roccc_cparse::sema::check(&program)?;
    let pos = program
        .items
        .iter()
        .position(|i| matches!(i, Item::Function(f) if f.name == func_name))
        .ok_or_else(|| err(Span::dummy(), format!("unknown function `{func_name}`")))?;
    let Item::Function(mut f) = program.items.remove(pos) else {
        unreachable!("`pos` is a function item")
    };
    // Transformations such as partial unrolling with a remainder wrap their
    // result in a bare block; splice those so the loop partition below sees
    // the loop (and reports accurate diagnostics for what surrounds it).
    // Only a body that holds such a block is copied.
    if f.body
        .stmts
        .iter()
        .any(|s| matches!(s.kind, StmtKind::Block(_)))
    {
        f.body.stmts = top_level_stmts(&f.body).into_iter().cloned().collect();
    }
    let info = &sema.functions[func_name];

    // Partition top-level statements: prologue / loop / epilogue.
    let loop_pos = f
        .body
        .stmts
        .iter()
        .position(|s| matches!(s.kind, StmtKind::For { .. }));

    match loop_pos {
        None => extract_straight_line(f),
        Some(pos) => {
            check_epilogue_shape(&f.body.stmts[pos + 1..])?;
            extract_loop_kernel(&program, &f, info, pos)
        }
    }
}

/// The program extraction reads: the globals of `program` and a copy of
/// function `func_name` (absent when `program` has none), in source
/// order. When that function calls another defined function, the copy is
/// taken from the inlined program, the one case in which inlining changes
/// it. Other functions are left out: no pass of extraction reads them.
fn kernel_program(program: &Program, func_name: &str) -> Program {
    let calls_defined = program.function(func_name).is_some_and(|f| {
        callee_names(&f.body)
            .iter()
            .any(|c| program.function(c).is_some())
    });
    let keep = |i: &Item| match i {
        Item::Global(_) => true,
        Item::Function(f) => f.name == func_name,
    };
    let items = if calls_defined {
        inline_program(program)
            .items
            .into_iter()
            .filter(keep)
            .collect()
    } else {
        program.items.iter().filter(|i| keep(i)).cloned().collect()
    };
    Program { items }
}

/// The shape half of extract's epilogue rule: only `*p = v` exports and
/// `return;` may follow the kernel loop. Returns the first statement of
/// `epilogue` with any other shape. Whether each `*p = v` exports a
/// feedback variable is checked later, once feedback is known.
///
/// The unroll gate applies the same rule to the statements its expansion
/// would leave after the kernel loop, so it can refuse before expanding.
///
/// # Errors
///
/// `unsupported statement after the kernel loop`, at that statement.
pub(crate) fn check_epilogue_shape<'a>(
    epilogue: impl IntoIterator<Item = &'a Stmt>,
) -> CResult<()> {
    for s in epilogue {
        match &s.kind {
            StmtKind::Assign {
                target: LValue::Deref(_),
                op: None,
                ..
            }
            | StmtKind::Return(None) => {}
            _ => return Err(err(s.span, "unsupported statement after the kernel loop")),
        }
    }
    Ok(())
}

fn scalar_ty(info: &roccc_cparse::sema::FunctionInfo, name: &str) -> Option<IntType> {
    match info.vars.get(name) {
        Some(CType::Int(t)) => Some(*t),
        Some(CType::Ptr(t)) => Some(*t),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Straight-line kernels (fully unrolled or naturally scalar).
// ---------------------------------------------------------------------------

fn extract_straight_line(f: Function) -> CResult<Kernel> {
    // No loops anywhere, no array parameters.
    if contains_loop(&f.body) {
        return Err(err(
            f.span,
            "kernel has nested loops; fully unroll before extraction",
        ));
    }
    for p in &f.params {
        if matches!(p.ty, CType::Array(..)) {
            return Err(err(
                p.span,
                "straight-line kernels cannot take array parameters; use a loop kernel",
            ));
        }
    }

    let scalar_inputs: Vec<(String, IntType)> = f
        .params
        .iter()
        .filter_map(|p| match &p.ty {
            CType::Int(t) => Some((p.name.clone(), *t)),
            _ => None,
        })
        .collect();
    let scalar_outputs: Vec<(String, IntType)> = f
        .params
        .iter()
        .filter_map(|p| match &p.ty {
            CType::Ptr(t) => Some((p.name.clone(), *t)),
            _ => None,
        })
        .collect();

    let dp_func = Function {
        name: format!("{}_dp", f.name),
        ..f.clone()
    };

    Ok(Kernel {
        name: f.name.clone(),
        dims: vec![],
        windows: vec![],
        outputs: vec![],
        scalar_inputs,
        scalar_outputs,
        feedback: vec![],
        live_out: vec![],
        dp_func,
        rewritten: f,
    })
}

/// The statements of `b` with each bare `{ … }` at the top level spliced
/// into its parent (loop and branch bodies are left alone), borrowed.
/// Extraction partitions the kernel body as this leaves it, and the unroll
/// gate reads it to predict extraction's refusals.
pub(crate) fn top_level_stmts(b: &Block) -> Vec<&Stmt> {
    fn push<'a>(b: &'a Block, out: &mut Vec<&'a Stmt>) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::Block(inner) => push(inner, out),
                _ => out.push(s),
            }
        }
    }
    let mut out = Vec::with_capacity(b.stmts.len());
    push(b, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Loop kernels.
// ---------------------------------------------------------------------------

fn extract_loop_kernel(
    program: &Program,
    f: &Function,
    info: &roccc_cparse::sema::FunctionInfo,
    loop_pos: usize,
) -> CResult<Kernel> {
    let prologue = &f.body.stmts[..loop_pos];
    let loop_stmt = &f.body.stmts[loop_pos];
    let epilogue = &f.body.stmts[loop_pos + 1..];

    // -- prologue: declarations and constant initializations only ----------
    let mut pre_values: HashMap<String, i64> = HashMap::new();
    let mut pre_decls: HashSet<String> = HashSet::new();
    for s in prologue {
        match &s.kind {
            StmtKind::Decl { name, init, ty } => {
                if !matches!(ty, CType::Int(_)) {
                    return Err(err(s.span, "only scalar locals may precede the kernel loop"));
                }
                pre_decls.insert(name.clone());
                if let Some(e) = init {
                    let v = e
                        .as_const()
                        .ok_or_else(|| err(e.span, "pre-loop initializer must be constant"))?;
                    pre_values.insert(name.clone(), v);
                }
            }
            StmtKind::Assign {
                target: LValue::Var(name),
                op: None,
                value,
            } if pre_decls.contains(name) => {
                let v = value
                    .as_const()
                    .ok_or_else(|| err(value.span, "pre-loop assignment must be constant"))?;
                pre_values.insert(name.clone(), v);
            }
            _ => {
                return Err(err(
                    s.span,
                    "unsupported statement before the kernel loop (only declarations and constant initializations)",
                ))
            }
        }
    }

    // -- loop nest ----------------------------------------------------------
    let l1 = recognize(loop_stmt).ok_or_else(|| {
        err(
            loop_stmt.span,
            "kernel loop is not in canonical counted form",
        )
    })?;
    let (dims, body) = recognize_nest(l1)?;
    if contains_loop(&body) {
        return Err(err(
            loop_stmt.span,
            "loop nests deeper than two are not supported; strip-mine or unroll first",
        ));
    }
    let loop_vars: Vec<String> = dims.iter().map(|d| d.var.clone()).collect();

    // -- classify arrays ----------------------------------------------------
    let array_params: HashMap<String, (IntType, Vec<usize>)> = f
        .params
        .iter()
        .filter_map(|p| match &p.ty {
            CType::Array(t, d) => Some((p.name.clone(), (*t, d.clone()))),
            _ => None,
        })
        .collect();
    let const_tables: HashSet<String> = program
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Global(g) if g.is_const => Some(g.name.clone()),
            _ => None,
        })
        .collect();

    let mut reads: BTreeMap<String, Vec<Vec<AffineIndex>>> = BTreeMap::new();
    collect_array_reads(&body, &array_params, &const_tables, &loop_vars, &mut reads)?;

    // -- build windows and the read-rename map -------------------------------
    let mut windows = Vec::new();
    let mut read_rename: HashMap<(String, Vec<AffineIndex>), String> = HashMap::new();
    for (array, mut idxs) in reads {
        let (elem, adims) = array_params[&array].clone();
        idxs.sort_by_key(|ix| ix.iter().map(|a| a.offset).collect::<Vec<_>>());
        idxs.dedup();
        let mut wreads = Vec::new();
        for (k, ix) in idxs.into_iter().enumerate() {
            let scalar = format!("{array}{k}");
            read_rename.insert((array.clone(), ix.clone()), scalar.clone());
            wreads.push(WindowRead { scalar, index: ix });
        }
        windows.push(WindowSpec {
            array,
            elem,
            dims: adims,
            reads: wreads,
        });
    }

    // -- rewrite the body -----------------------------------------------------
    let mut rewriter = BodyRewriter {
        array_params: &array_params,
        loop_vars: &loop_vars,
        read_rename: &read_rename,
        outputs: BTreeMap::new(),
        tmp_counter: 0,
        compute: Vec::new(),
        error: None,
    };
    for s in body.stmts {
        rewriter.stmt(s);
    }
    if let Some(e) = rewriter.error {
        return Err(e);
    }
    let compute = rewriter.compute;
    let outputs: Vec<OutputSpec> = rewriter
        .outputs
        .into_iter()
        .map(|(array, writes)| {
            let (elem, adims) = array_params[&array].clone();
            OutputSpec {
                array,
                elem,
                dims: adims,
                writes,
            }
        })
        .collect();
    // Arrays that are both read and written would need in-loop memory
    // dependences the execution model (BRAM in, BRAM out) does not provide.
    for o in &outputs {
        if windows.iter().any(|w| w.array == o.array) {
            return Err(err(
                loop_stmt.span,
                format!("array `{}` is both read and written in the loop", o.array),
            ));
        }
        // Distinct per-iteration writes become parallel write lanes merged
        // order-insensitively by the system generator; any pair that can
        // target the same element would silently lose the later value.
        if let Some((i, j, dist)) = crate::deps::overlapping_writes(&o.writes, &dims) {
            let d: Vec<String> = dist.iter().map(|x| x.to_string()).collect();
            return Err(err(
                loop_stmt.span,
                format!(
                    "L012-overlapping-writes: output array `{}` writes `[{}]` and `[{}]` \
                     can touch the same element (iteration distance ({})); the parallel \
                     write lanes cannot preserve program order between them",
                    o.array,
                    o.writes[i]
                        .index
                        .iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join("]["),
                    o.writes[j]
                        .index
                        .iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join("]["),
                    d.join(", "),
                ),
            ));
        }
    }

    // -- feedback detection ---------------------------------------------------
    // A prologue scalar that the compute body both reads and writes is
    // loop-carried.
    let mut body_reads = Vec::new();
    for s in &compute {
        collect_stmt_reads_full(s, &mut body_reads);
    }
    let body_reads: HashSet<String> = body_reads.into_iter().collect();
    let mut body_writes = Vec::new();
    for s in &compute {
        crate::subst::collect_scalar_writes_stmt(s, &mut body_writes);
    }
    let body_writes: HashSet<String> = body_writes.into_iter().collect();

    let mut feedback = Vec::new();
    let mut const_prologue: HashMap<String, i64> = HashMap::new();
    for name in &pre_decls {
        let read = body_reads.contains(name);
        let written = body_writes.contains(name);
        let ty = scalar_ty(info, name)
            .ok_or_else(|| err(f.span, format!("`{name}` has no scalar type")))?;
        match (read, written) {
            (true, true) => feedback.push(FeedbackVar {
                name: name.clone(),
                ty,
                init: pre_values.get(name).copied().unwrap_or(0),
            }),
            (true, false) => {
                // Read-only constant: propagate its value.
                let v = pre_values.get(name).copied().ok_or_else(|| {
                    err(
                        f.span,
                        format!("`{name}` is read in the loop but never initialized"),
                    )
                })?;
                const_prologue.insert(name.clone(), v);
            }
            _ => {} // dead or write-only: ignore.
        }
    }
    feedback.sort_by(|a, b| a.name.cmp(&b.name));

    // -- epilogue: exports of feedback finals ---------------------------------
    // `check_epilogue_shape` already let through only `*p = v` and `return;`.
    let mut live_out = Vec::new();
    for s in epilogue {
        if let StmtKind::Assign { value, .. } = &s.kind {
            match &value.kind {
                ExprKind::Var(v) if feedback.iter().any(|fb| &fb.name == v) => {
                    live_out.push(v.clone());
                }
                _ => {
                    return Err(err(
                        s.span,
                        "post-loop statements may only export feedback variables",
                    ))
                }
            }
        }
    }

    // -- scalar live-ins -------------------------------------------------------
    let scalar_params: HashSet<String> = f
        .params
        .iter()
        .filter(|p| matches!(p.ty, CType::Int(_)))
        .map(|p| p.name.clone())
        .collect();
    let mut scalar_inputs: Vec<(String, IntType)> = body_reads
        .iter()
        .filter(|n| scalar_params.contains(*n))
        .map(|n| (n.clone(), scalar_ty(info, n).expect("param typed")))
        .collect();
    scalar_inputs.sort();

    // -- substitute propagated constants --------------------------------------
    // All of them in one walk, folding as it goes: the replacements are
    // literals, so each node folds once its operands are substituted.
    let mut compute = compute;
    for s in &mut compute {
        map_stmt_exprs_mut(s, &mut |e| {
            map_expr_mut(e, &mut |x| match &x.kind {
                ExprKind::Var(n) => match const_prologue.get(n) {
                    Some(v) => Expr::int(*v, x.span),
                    None => x,
                },
                _ => fold_node(x),
            })
        });
    }

    // -- build the data-path function (Figure 3 (c) / 4 (c)) -------------------
    let rewritten_compute = compute.clone();
    let dp_func = build_dp_func(
        f,
        &windows,
        &outputs,
        &scalar_inputs,
        &feedback,
        &live_out,
        compute,
    );

    // -- build the rewritten function (Figure 3 (b)) ----------------------------
    let rewritten = build_rewritten(f, &windows, &outputs, rewritten_compute, loop_pos, &dims);

    Ok(Kernel {
        name: f.name.clone(),
        dims,
        windows,
        outputs,
        scalar_inputs,
        scalar_outputs: vec![],
        feedback,
        live_out,
        dp_func,
        rewritten,
    })
}

/// Recognizes a 1- or 2-deep nest rooted at `l1`, returning normalized
/// dimensions (outermost first) and the innermost body.
fn recognize_nest(l1: CanonLoop) -> CResult<(Vec<LoopDim>, Block)> {
    let dim1 = to_dim(&l1)?;
    // A 2-deep nest is a body consisting solely of one canonical loop
    // (allowing leading declarations of the inner induction variable).
    let inner_candidates: Vec<&Stmt> = l1
        .body
        .stmts
        .iter()
        .filter(|s| !matches!(s.kind, StmtKind::Decl { init: None, .. }))
        .collect();
    if inner_candidates.len() == 1 {
        if let Some(l2) = recognize(inner_candidates[0]) {
            let dim2 = to_dim(&l2)?;
            return Ok((vec![dim1, dim2], l2.body));
        }
    }
    Ok((vec![dim1], l1.body))
}

fn to_dim(l: &CanonLoop) -> CResult<LoopDim> {
    let trip = l
        .trip_count()
        .ok_or_else(|| err(l.span, "loop trip count is not statically known"))?;
    let bound = l.start + trip as i64 * l.step;
    Ok(LoopDim {
        var: l.var.clone(),
        start: l.start,
        bound,
        step: l.step,
        trip,
    })
}

/// Collects affine reads of input arrays throughout a block.
fn collect_array_reads(
    b: &Block,
    arrays: &HashMap<String, (IntType, Vec<usize>)>,
    const_tables: &HashSet<String>,
    loop_vars: &[String],
    out: &mut BTreeMap<String, Vec<Vec<AffineIndex>>>,
) -> CResult<()> {
    let mut error = None;
    // Reads occur in every expression position, so visit every node
    // bottom-up to reach nested `ArrayIndex` nodes.
    for_each_block_expr(b, &mut |e| {
        if let ExprKind::ArrayIndex { name, indices } = &e.kind {
            if arrays.contains_key(name) {
                match indices
                    .iter()
                    .map(|ix| affine(ix, loop_vars))
                    .collect::<Option<Vec<_>>>()
                {
                    Some(aff) => out.entry(name.clone()).or_default().push(aff),
                    None => {
                        if error.is_none() {
                            error = Some(err(
                                e.span,
                                format!(
                                    "non-affine index into `{name}`; ROCCC requires `i + c` form"
                                ),
                            ));
                        }
                    }
                }
            } else if !const_tables.contains(name) {
                // Local array or unknown: leave to the back end (LUT
                // for const tables) — locals are rejected here.
                if error.is_none() {
                    error = Some(err(
                        e.span,
                        format!("array `{name}` is neither a parameter nor a const table"),
                    ));
                }
            }
        }
    });
    // Remove entries that are exclusively writes: handled by the rewriter.
    match error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Recognizes `i`, `i + c`, `i - c`, `c + i`, or `c`.
pub(crate) fn affine(e: &Expr, loop_vars: &[String]) -> Option<AffineIndex> {
    match &e.kind {
        ExprKind::IntLit(c) => Some(AffineIndex {
            var: None,
            offset: *c,
        }),
        ExprKind::Var(v) if loop_vars.contains(v) => Some(AffineIndex {
            var: Some(v.clone()),
            offset: 0,
        }),
        ExprKind::Binary { op, lhs, rhs } => {
            let (var, c) = match (&lhs.kind, &rhs.kind, op) {
                (ExprKind::Var(v), ExprKind::IntLit(c), BinOp::Add) => (v.clone(), *c),
                (ExprKind::IntLit(c), ExprKind::Var(v), BinOp::Add) => (v.clone(), *c),
                (ExprKind::Var(v), ExprKind::IntLit(c), BinOp::Sub) => (v.clone(), -*c),
                _ => return None,
            };
            if loop_vars.contains(&var) {
                Some(AffineIndex {
                    var: Some(var),
                    offset: c,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Rewrites the loop body: array reads → window scalars, array writes →
/// `Tmp<k>` assignments.
struct BodyRewriter<'a> {
    array_params: &'a HashMap<String, (IntType, Vec<usize>)>,
    loop_vars: &'a [String],
    read_rename: &'a HashMap<(String, Vec<AffineIndex>), String>,
    outputs: BTreeMap<String, Vec<OutputWrite>>,
    tmp_counter: usize,
    compute: Vec<Stmt>,
    error: Option<CError>,
}

impl<'a> BodyRewriter<'a> {
    fn stmt(&mut self, s: Stmt) {
        let span = s.span;
        match s.kind {
            StmtKind::Assign {
                target: LValue::ArrayElem { name, indices },
                op: None,
                value,
            } if self.array_params.contains_key(&name) => {
                // Array write: becomes `Tmp<k> = value`.
                let aff = indices
                    .iter()
                    .map(|ix| affine(ix, self.loop_vars))
                    .collect::<Option<Vec<_>>>();
                let Some(aff) = aff else {
                    self.error
                        .get_or_insert(err(span, format!("non-affine store index into `{name}`")));
                    return;
                };
                let scalar = format!("Tmp{}", self.tmp_counter);
                self.tmp_counter += 1;
                let (elem, _) = self.array_params[&name];
                let init = self.expr(value);
                self.compute.push(Stmt {
                    kind: StmtKind::Decl {
                        name: scalar.clone(),
                        ty: CType::Int(elem),
                        init: Some(init),
                    },
                    span,
                });
                self.outputs
                    .entry(name)
                    .or_default()
                    .push(OutputWrite { scalar, index: aff });
            }
            StmtKind::Assign { target, op, value } => {
                if let LValue::ArrayElem { name, .. } = &target {
                    if self.array_params.contains_key(name) {
                        self.error.get_or_insert(err(
                            span,
                            "compound assignment to output arrays is not supported",
                        ));
                        return;
                    }
                }
                let value = self.expr(value);
                self.compute.push(Stmt {
                    kind: StmtKind::Assign { target, op, value },
                    span,
                });
            }
            StmtKind::Decl { name, ty, init } => {
                let init = init.map(|e| self.expr(e));
                self.compute.push(Stmt {
                    kind: StmtKind::Decl { name, ty, init },
                    span,
                });
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                // Array writes inside branches would need predicated stores;
                // reject them, but allow scalar computation.
                if block_writes_arrays(&then_blk, self.array_params)
                    || else_blk
                        .as_ref()
                        .is_some_and(|b| block_writes_arrays(b, self.array_params))
                {
                    self.error.get_or_insert(err(
                        span,
                        "array stores inside branches are not supported; compute into a scalar and store unconditionally",
                    ));
                    return;
                }
                let cond = self.expr(cond);
                let then_blk = self.rewrite_block(then_blk);
                let else_blk = else_blk.map(|b| self.rewrite_block(b));
                self.compute.push(Stmt {
                    kind: StmtKind::If {
                        cond,
                        then_blk,
                        else_blk,
                    },
                    span,
                });
            }
            StmtKind::Block(b) => {
                let inner = self.rewrite_block(b);
                self.compute.push(Stmt {
                    kind: StmtKind::Block(inner),
                    span,
                });
            }
            StmtKind::Expr(e) => {
                let e = self.expr(e);
                self.compute.push(Stmt {
                    kind: StmtKind::Expr(e),
                    span,
                });
            }
            StmtKind::Return(_) | StmtKind::For { .. } | StmtKind::While { .. } => {
                self.error.get_or_insert(err(
                    span,
                    "unsupported statement inside the kernel loop body",
                ));
            }
        }
    }

    fn rewrite_block(&mut self, b: Block) -> Block {
        let saved = std::mem::take(&mut self.compute);
        for s in b.stmts {
            self.stmt(s);
        }
        let stmts = std::mem::replace(&mut self.compute, saved);
        Block {
            stmts,
            span: b.span,
        }
    }

    fn expr(&mut self, mut e: Expr) -> Expr {
        map_expr_mut(&mut e, &mut |x| {
            if let ExprKind::ArrayIndex { name, indices } = &x.kind {
                if self.array_params.contains_key(name) {
                    if let Some(aff) = indices
                        .iter()
                        .map(|ix| affine(ix, self.loop_vars))
                        .collect::<Option<Vec<_>>>()
                    {
                        if let Some(scalar) = self.read_rename.get(&(name.clone(), aff)) {
                            return Expr::var(scalar.clone(), x.span);
                        }
                    }
                }
            }
            x
        });
        e
    }
}

fn block_writes_arrays(b: &Block, arrays: &HashMap<String, (IntType, Vec<usize>)>) -> bool {
    b.stmts.iter().any(|s| match &s.kind {
        StmtKind::Assign {
            target: LValue::ArrayElem { name, .. },
            ..
        } => arrays.contains_key(name),
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            block_writes_arrays(then_blk, arrays)
                || else_blk
                    .as_ref()
                    .is_some_and(|e| block_writes_arrays(e, arrays))
        }
        StmtKind::Block(inner) => block_writes_arrays(inner, arrays),
        _ => false,
    })
}

#[allow(clippy::collapsible_match)]
fn collect_stmt_reads_full(s: &Stmt, out: &mut Vec<String>) {
    match &s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                collect_var_reads(e, out);
            }
        }
        StmtKind::Assign { target, op, value } => {
            collect_var_reads(value, out);
            // Compound assignment reads the target too.
            if op.is_some() {
                if let LValue::Var(n) = target {
                    out.push(n.clone());
                }
            }
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
                collect_stmt_reads_full(st, out);
            }
            if let Some(e) = else_blk {
                for st in &e.stmts {
                    collect_stmt_reads_full(st, out);
                }
            }
        }
        StmtKind::Block(b) => {
            for st in &b.stmts {
                collect_stmt_reads_full(st, out);
            }
        }
        StmtKind::Expr(e) => collect_var_reads(e, out),
        StmtKind::Return(Some(e)) => collect_var_reads(e, out),
        _ => {}
    }
}

/// Builds the exported data-path function (Figure 3 (c) / 4 (c)).
fn build_dp_func(
    f: &Function,
    windows: &[WindowSpec],
    outputs: &[OutputSpec],
    scalar_inputs: &[(String, IntType)],
    feedback: &[FeedbackVar],
    live_out: &[String],
    mut compute: Vec<Stmt>,
) -> Function {
    let sp = f.span;
    let mut params = Vec::new();
    for w in windows {
        for r in &w.reads {
            params.push(Param {
                name: r.scalar.clone(),
                ty: CType::Int(w.elem),
                span: sp,
            });
        }
    }
    for (name, t) in scalar_inputs {
        params.push(Param {
            name: name.clone(),
            ty: CType::Int(*t),
            span: sp,
        });
    }
    for o in outputs {
        for w in &o.writes {
            params.push(Param {
                name: w.scalar.clone(),
                ty: CType::Ptr(o.elem),
                span: sp,
            });
        }
    }
    for name in live_out {
        let fb = feedback
            .iter()
            .find(|fb| &fb.name == name)
            .expect("live_out names come from feedback");
        params.push(Param {
            name: format!("{name}_final"),
            ty: CType::Ptr(fb.ty),
            span: sp,
        });
    }

    let mut stmts: Vec<Stmt> = Vec::new();
    // Feedback prologue: `ty s; ty s_cur = ROCCC_load_prev(s);`
    let mut fb_rename: HashMap<String, String> = HashMap::new();
    for fb in feedback {
        let cur = format!("{}_cur", fb.name);
        fb_rename.insert(fb.name.clone(), cur.clone());
        stmts.push(Stmt {
            kind: StmtKind::Decl {
                name: fb.name.clone(),
                ty: CType::Int(fb.ty),
                init: None,
            },
            span: sp,
        });
        stmts.push(Stmt {
            kind: StmtKind::Decl {
                name: cur,
                ty: CType::Int(fb.ty),
                init: Some(Expr {
                    kind: ExprKind::Call {
                        name: intrinsics::LOAD_PREV.to_string(),
                        args: vec![Expr::var(fb.name.clone(), sp)],
                    },
                    span: sp,
                }),
            },
            span: sp,
        });
    }

    // Compute body: feedback vars renamed to `_cur`; `Tmp<k>` declarations
    // become writes through the out-pointers.
    let out_scalars: HashSet<String> = outputs
        .iter()
        .flat_map(|o| o.writes.iter().map(|w| w.scalar.clone()))
        .collect();
    if !fb_rename.is_empty() {
        compute
            .iter_mut()
            .for_each(|s| rename_vars_stmt(s, &fb_rename));
    }
    for s in compute {
        match s.kind {
            StmtKind::Decl {
                name,
                init: Some(init),
                ..
            } if out_scalars.contains(&name) => {
                stmts.push(Stmt {
                    kind: StmtKind::Assign {
                        target: LValue::Deref(name),
                        op: None,
                        value: init,
                    },
                    span: s.span,
                });
            }
            kind => stmts.push(Stmt { kind, span: s.span }),
        }
    }

    // Feedback epilogue: `ROCCC_store2next(s, s_cur);` and exports.
    for fb in feedback {
        let cur = &fb_rename[&fb.name];
        stmts.push(Stmt {
            kind: StmtKind::Expr(Expr {
                kind: ExprKind::Call {
                    name: intrinsics::STORE_NEXT.to_string(),
                    args: vec![Expr::var(fb.name.clone(), sp), Expr::var(cur.clone(), sp)],
                },
                span: sp,
            }),
            span: sp,
        });
    }
    for name in live_out {
        let cur = &fb_rename[name];
        stmts.push(Stmt {
            kind: StmtKind::Assign {
                target: LValue::Deref(format!("{name}_final")),
                op: None,
                value: Expr::var(cur.clone(), sp),
            },
            span: sp,
        });
    }

    Function {
        name: format!("{}_dp", f.name),
        ret: CType::Void,
        params,
        body: Block { stmts, span: sp },
        span: sp,
    }
}

/// Builds the Figure 3 (b)-style function: same signature as the original,
/// loop body = loads; compute; stores.
#[allow(clippy::too_many_arguments)]
fn build_rewritten(
    f: &Function,
    windows: &[WindowSpec],
    outputs: &[OutputSpec],
    compute: Vec<Stmt>,
    loop_pos: usize,
    dims: &[LoopDim],
) -> Function {
    let sp = f.span;

    let mut body_stmts: Vec<Stmt> = Vec::new();
    // Loads.
    for w in windows {
        for r in &w.reads {
            let indices: Vec<Expr> = r.index.iter().map(|a| affine_to_expr(a, sp)).collect();
            body_stmts.push(Stmt {
                kind: StmtKind::Decl {
                    name: r.scalar.clone(),
                    ty: CType::Int(w.elem),
                    init: Some(Expr {
                        kind: ExprKind::ArrayIndex {
                            name: w.array.clone(),
                            indices,
                        },
                        span: sp,
                    }),
                },
                span: sp,
            });
        }
    }
    // Compute.
    body_stmts.extend(compute);
    // Stores.
    for o in outputs {
        for w in &o.writes {
            let indices: Vec<Expr> = w.index.iter().map(|a| affine_to_expr(a, sp)).collect();
            body_stmts.push(Stmt {
                kind: StmtKind::Assign {
                    target: LValue::ArrayElem {
                        name: o.array.clone(),
                        indices,
                    },
                    op: None,
                    value: Expr::var(w.scalar.clone(), sp),
                },
                span: sp,
            });
        }
    }

    // Rebuild the nest around the new body.
    let mut nest = Block {
        stmts: body_stmts,
        span: sp,
    };
    for dim in dims.iter().rev() {
        // `to_stmt` copies the body: build the header around an empty one
        // and move the nest in.
        let mut l = CanonLoop {
            var: dim.var.clone(),
            decl_ty: None,
            start: dim.start,
            bound: dim.bound,
            cmp: BinOp::Lt,
            step: dim.step,
            body: Block::default(),
            span: sp,
        }
        .to_stmt();
        if let StmtKind::For { body, .. } = &mut l.kind {
            *body = nest;
        }
        nest = Block {
            stmts: vec![l],
            span: sp,
        };
    }

    // Induction variables may have been declared in headers originally; add
    // declarations when the original function body declared them in the
    // prologue (they survive there), otherwise declare here.
    let mut stmts: Vec<Stmt> = f.body.stmts[..loop_pos].to_vec();
    let declared: HashSet<String> = {
        let mut names = Vec::new();
        for s in &stmts {
            if let StmtKind::Decl { name, .. } = &s.kind {
                names.push(name.clone());
            }
        }
        names.into_iter().collect()
    };
    for dim in dims {
        if !declared.contains(&dim.var) {
            stmts.push(Stmt {
                kind: StmtKind::Decl {
                    name: dim.var.clone(),
                    ty: CType::Int(IntType::int()),
                    init: None,
                },
                span: sp,
            });
        }
    }
    stmts.extend(nest.stmts);
    stmts.extend_from_slice(&f.body.stmts[loop_pos + 1..]);

    Function {
        name: f.name.clone(),
        ret: f.ret.clone(),
        params: f.params.clone(),
        body: Block {
            stmts,
            span: f.body.span,
        },
        span: f.span,
    }
}

fn affine_to_expr(a: &AffineIndex, sp: Span) -> Expr {
    match (&a.var, a.offset) {
        (None, c) => Expr::int(c, sp),
        (Some(v), 0) => Expr::var(v.clone(), sp),
        (Some(v), c) if c > 0 => Expr {
            kind: ExprKind::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::var(v.clone(), sp)),
                rhs: Box::new(Expr::int(c, sp)),
            },
            span: sp,
        },
        (Some(v), c) => Expr {
            kind: ExprKind::Binary {
                op: BinOp::Sub,
                lhs: Box::new(Expr::var(v.clone(), sp)),
                rhs: Box::new(Expr::int(-c, sp)),
            },
            span: sp,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::interp::Interpreter;
    use roccc_cparse::parser::parse;

    const FIR: &str = "void fir(int A[21], int C[17]) { int i;
      for (i = 0; i < 17; i = i + 1) {
        C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";

    const ACC: &str = "void acc(int A[32], int* out) {
      int sum = 0; int i;
      for (i = 0; i < 32; i++) { sum = sum + A[i]; }
      *out = sum; }";

    #[test]
    fn fir_window_matches_figure3() {
        let prog = parse(FIR).unwrap();
        let k = extract_kernel(&prog, "fir").unwrap();
        assert_eq!(k.dims.len(), 1);
        assert_eq!(k.dims[0].trip, 17);
        assert_eq!(k.windows.len(), 1);
        let w = &k.windows[0];
        assert_eq!(w.array, "A");
        assert_eq!(w.extent(), vec![5]);
        let scalars: Vec<&str> = w.reads.iter().map(|r| r.scalar.as_str()).collect();
        assert_eq!(scalars, vec!["A0", "A1", "A2", "A3", "A4"]);
        assert_eq!(k.outputs.len(), 1);
        assert_eq!(k.outputs[0].writes[0].scalar, "Tmp0");
        assert!(k.feedback.is_empty());
    }

    #[test]
    fn fir_dp_func_matches_figure3c() {
        let prog = parse(FIR).unwrap();
        let k = extract_kernel(&prog, "fir").unwrap();
        let dp = &k.dp_func;
        assert_eq!(dp.name, "fir_dp");
        let names: Vec<&str> = dp.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["A0", "A1", "A2", "A3", "A4", "Tmp0"]);
        assert!(matches!(dp.params[5].ty, CType::Ptr(_)));
        // Body is a single `*Tmp0 = …` statement.
        assert_eq!(dp.body.stmts.len(), 1);
        // And it is executable: 3*1 + 5*2 + 7*3 + 9*4 - 5 = 65.
        roccc_cparse::sema::check(&prog_with(dp)).unwrap();
        let prog_dp = prog_with(dp);
        let mut interp = Interpreter::new(&prog_dp);
        let out = interp
            .call("fir_dp", &[1, 2, 3, 4, 5], &mut Default::default())
            .unwrap();
        assert_eq!(out.outputs["Tmp0"], 65);
    }

    fn prog_with(f: &Function) -> Program {
        Program {
            items: vec![Item::Function(f.clone())],
        }
    }

    #[test]
    fn fir_rewritten_is_equivalent() {
        let prog = parse(FIR).unwrap();
        let k = extract_kernel(&prog, "fir").unwrap();
        let prog2 = prog_with(&k.rewritten);
        let a: Vec<i64> = (0..21).map(|x| (x * 13 % 29) - 7).collect();
        let mut a1 = std::collections::HashMap::new();
        a1.insert("A".to_string(), a.clone());
        a1.insert("C".to_string(), vec![0i64; 17]);
        let mut a2 = a1.clone();
        Interpreter::new(&prog).call("fir", &[], &mut a1).unwrap();
        Interpreter::new(&prog2).call("fir", &[], &mut a2).unwrap();
        assert_eq!(a1["C"], a2["C"]);
    }

    #[test]
    fn accumulator_detects_feedback() {
        let prog = parse(ACC).unwrap();
        let k = extract_kernel(&prog, "acc").unwrap();
        assert_eq!(k.feedback.len(), 1);
        assert_eq!(k.feedback[0].name, "sum");
        assert_eq!(k.feedback[0].init, 0);
        assert_eq!(k.live_out, vec!["sum"]);
        // dp function uses the macros, as in Figure 4 (c).
        let text = k.dp_func.to_c();
        assert!(text.contains("ROCCC_load_prev(sum)"), "{text}");
        assert!(text.contains("ROCCC_store2next(sum"), "{text}");
        assert!(text.contains("*sum_final"), "{text}");
    }

    #[test]
    fn accumulator_dp_streams_correctly() {
        let prog = parse(ACC).unwrap();
        let k = extract_kernel(&prog, "acc").unwrap();
        let prog_dp = prog_with(&k.dp_func);
        roccc_cparse::sema::check(&prog_dp).unwrap();
        let mut interp = Interpreter::new(&prog_dp);
        let mut total = 0;
        for x in [5, -2, 9] {
            total += x;
            let out = interp
                .call("acc_dp", &[x], &mut Default::default())
                .unwrap();
            assert_eq!(out.outputs["sum_final"], total);
        }
    }

    #[test]
    fn straight_line_kernel_extracts() {
        let src = "void comb(uint8 x, uint8* o) { *o = (x & 15) + (x >> 4); }";
        let prog = parse(src).unwrap();
        let k = extract_kernel(&prog, "comb").unwrap();
        assert!(k.dims.is_empty());
        assert_eq!(
            k.scalar_inputs,
            vec![("x".to_string(), IntType::unsigned(8))]
        );
        assert_eq!(
            k.scalar_outputs,
            vec![("o".to_string(), IntType::unsigned(8))]
        );
        assert_eq!(k.dp_func.name, "comb_dp");
    }

    #[test]
    fn two_dimensional_window() {
        let src = "void blur(int A[8][8], int B[8][8]) { int i; int j;
          for (i = 0; i < 6; i++) {
            for (j = 0; j < 6; j++) {
              B[i][j] = A[i][j] + A[i][j+1] + A[i+1][j] + A[i+1][j+1]; } } }";
        let prog = parse(src).unwrap();
        let k = extract_kernel(&prog, "blur").unwrap();
        assert_eq!(k.dims.len(), 2);
        assert_eq!(k.windows[0].extent(), vec![2, 2]);
        assert_eq!(k.windows[0].reads.len(), 4);
    }

    #[test]
    fn scalar_live_ins_become_ports() {
        let src = "void scale(int A[16], int B[16], int gain) { int i;
          for (i = 0; i < 16; i++) { B[i] = A[i] * gain; } }";
        let prog = parse(src).unwrap();
        let k = extract_kernel(&prog, "scale").unwrap();
        assert_eq!(k.scalar_inputs, vec![("gain".to_string(), IntType::int())]);
        let ports = k.input_ports();
        assert_eq!(ports.last().unwrap().0, "gain");
    }

    #[test]
    fn read_only_prologue_constants_propagate() {
        let src = "void f(int A[8], int B[8]) { int k = 3; int i;
          for (i = 0; i < 8; i++) { B[i] = A[i] * k; } }";
        let prog = parse(src).unwrap();
        let k = extract_kernel(&prog, "f").unwrap();
        assert!(k.feedback.is_empty());
        let text = k.dp_func.to_c();
        assert!(text.contains("* 3") || text.contains("(A0 * 3)"), "{text}");
    }

    #[test]
    fn rejects_non_affine_index() {
        let src = "void f(int A[8], int B[8]) { int i;
          for (i = 0; i < 4; i++) { B[i] = A[i * 2]; } }";
        let prog = parse(src).unwrap();
        let e = extract_kernel(&prog, "f").unwrap_err();
        assert!(e.message.contains("non-affine"), "{}", e.message);
    }

    #[test]
    fn rejects_conditional_array_store() {
        let src = "void f(int A[8], int B[8]) { int i;
          for (i = 0; i < 8; i++) { if (A[i] > 0) { B[i] = 1; } } }";
        let prog = parse(src).unwrap();
        let e = extract_kernel(&prog, "f").unwrap_err();
        assert!(e.message.contains("branches"), "{}", e.message);
    }

    #[test]
    fn branches_on_scalars_are_allowed() {
        // The paper's mul_acc: new-data flag selects accumulate vs hold.
        let src = "void mul_acc(int12 a[64], int12 b[64], uint1 nd[64], int* out) {
          int acc = 0; int i;
          for (i = 0; i < 64; i++) {
            int p; p = 0;
            if (nd[i]) { p = a[i] * b[i]; }
            acc = acc + p; }
          *out = acc; }";
        let prog = parse(src).unwrap();
        let k = extract_kernel(&prog, "mul_acc").unwrap();
        assert_eq!(k.feedback.len(), 1);
        assert_eq!(k.feedback[0].name, "acc");
        assert_eq!(k.windows.len(), 3);
    }

    #[test]
    fn mul_acc_rewritten_equivalent() {
        let src = "void mul_acc(int12 a[16], int12 b[16], uint1 nd[16], int* out) {
          int acc = 0; int i;
          for (i = 0; i < 16; i++) {
            int p; p = 0;
            if (nd[i]) { p = a[i] * b[i]; }
            acc = acc + p; }
          *out = acc; }";
        let prog = parse(src).unwrap();
        let k = extract_kernel(&prog, "mul_acc").unwrap();
        let prog2 = prog_with(&k.rewritten);
        let mk = || {
            let mut m = std::collections::HashMap::new();
            m.insert(
                "a".to_string(),
                (0..16).map(|x| x * 3 - 8).collect::<Vec<i64>>(),
            );
            m.insert(
                "b".to_string(),
                (0..16).map(|x| 5 - x).collect::<Vec<i64>>(),
            );
            m.insert(
                "nd".to_string(),
                (0..16).map(|x| x % 2).collect::<Vec<i64>>(),
            );
            m
        };
        let mut m1 = mk();
        let mut m2 = mk();
        let o1 = Interpreter::new(&prog)
            .call("mul_acc", &[], &mut m1)
            .unwrap();
        let o2 = Interpreter::new(&prog2)
            .call("mul_acc", &[], &mut m2)
            .unwrap();
        assert_eq!(o1.outputs["out"], o2.outputs["out"]);
    }

    #[test]
    fn strided_window_records_step() {
        let src = "void decim(int A[32], int B[16]) { int i;
          for (i = 0; i < 16; i++) { B[i] = A[i + i] ; } }";
        // `A[i+i]` is non-affine in our form — expect rejection.
        let prog = parse(src).unwrap();
        assert!(extract_kernel(&prog, "decim").is_err());
    }

    #[test]
    fn input_output_ports_ordered() {
        let prog = parse(FIR).unwrap();
        let k = extract_kernel(&prog, "fir").unwrap();
        let inputs: Vec<String> = k.input_ports().into_iter().map(|(n, _)| n).collect();
        assert_eq!(inputs, vec!["A0", "A1", "A2", "A3", "A4"]);
        let outputs: Vec<String> = k.output_ports().into_iter().map(|(n, _)| n).collect();
        assert_eq!(outputs, vec!["Tmp0"]);
    }
}
