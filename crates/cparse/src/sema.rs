//! Semantic analysis: scoping, type checking and ROCCC subset restrictions.
//!
//! The paper (§2) restricts the accepted C: *no recursion, no usage of
//! pointers that cannot be statically unaliased; function calls will either
//! be inlined or made into a lookup table*. This pass enforces:
//!
//! * every name is declared before use; no shadow-free duplicate declarations
//!   in one scope;
//! * all expressions type-check under the integer subset;
//! * pointers appear only as parameters and are only written through
//!   (`*p = e`), never read, aliased or offset;
//! * calls target either ROCCC intrinsics or other defined functions, and the
//!   call graph is acyclic (no recursion);
//! * `ROCCC_load_prev`/`ROCCC_store2next` take a declared scalar as their
//!   first argument.

use crate::ast::*;
use crate::error::{CError, CResult, Stage};
use crate::span::Span;
use crate::types::{CType, IntType};
use std::collections::{HashMap, HashSet};

/// Result of semantic analysis: per-function symbol tables.
#[derive(Debug, Clone, Default)]
pub struct SemaResult {
    /// For each function name, the complete variable typing environment
    /// (parameters and every local, including loop variables).
    pub functions: HashMap<String, FunctionInfo>,
}

/// Typing information for a single function.
#[derive(Debug, Clone, Default)]
pub struct FunctionInfo {
    /// Variable name → type, for parameters and locals (flattened scopes;
    /// duplicates across sibling scopes are rejected to keep this a map).
    pub vars: HashMap<String, CType>,
    /// Names of functions this function calls (intrinsics excluded).
    pub callees: HashSet<String>,
}

/// Runs semantic analysis over a parsed program.
///
/// # Errors
///
/// Returns the first semantic violation found.
///
/// ```
/// use roccc_cparse::{parser::parse, sema::check};
///
/// # fn main() -> Result<(), roccc_cparse::error::CError> {
/// let prog = parse("int dbl(int x) { return x * 2; }")?;
/// let info = check(&prog)?;
/// assert!(info.functions["dbl"].vars.contains_key("x"));
/// # Ok(())
/// # }
/// ```
pub fn check(program: &Program) -> CResult<SemaResult> {
    let mut globals: HashMap<String, &GlobalDecl> = HashMap::new();
    let mut functions: HashMap<String, &Function> = HashMap::new();
    for item in &program.items {
        match item {
            Item::Global(g) => {
                if globals.insert(g.name.clone(), g).is_some() {
                    return Err(err(g.span, format!("duplicate global `{}`", g.name)));
                }
            }
            Item::Function(f) => {
                if functions.insert(f.name.clone(), f).is_some() {
                    return Err(err(f.span, format!("duplicate function `{}`", f.name)));
                }
            }
        }
    }

    let mut result = SemaResult::default();
    for f in functions.values() {
        let info = Checker {
            globals: &globals,
            functions: &functions,
            func: f,
            scopes: vec![HashMap::new()],
            all_vars: HashMap::new(),
            callees: HashSet::new(),
        }
        .run()?;
        result.functions.insert(f.name.clone(), info);
    }

    check_no_recursion(&result, &functions)?;
    Ok(result)
}

fn err(span: Span, msg: impl Into<String>) -> CError {
    CError::new(Stage::Sema, span, msg)
}

/// The diagnostic for a second declaration of `name` at `span`: in the
/// same scope as the first (`same_scope`), or anywhere else in the
/// function. The loop-transform gates of `roccc-hlir` predict this error
/// without building the body copies that would trigger it.
pub fn redeclaration_error(name: &str, span: Span, same_scope: bool) -> CError {
    if same_scope {
        err(span, format!("duplicate declaration of `{name}`"))
    } else {
        err(
            span,
            format!("`{name}` is already declared elsewhere in this function; the ROCCC subset requires unique local names"),
        )
    }
}

/// Rejects call-graph cycles (including self-recursion).
fn check_no_recursion(result: &SemaResult, functions: &HashMap<String, &Function>) -> CResult<()> {
    // Depth-first search with colors: 0 = white, 1 = gray, 2 = black.
    let mut color: HashMap<&str, u8> = HashMap::new();
    fn visit<'a>(
        name: &'a str,
        result: &'a SemaResult,
        functions: &HashMap<String, &Function>,
        color: &mut HashMap<&'a str, u8>,
    ) -> CResult<()> {
        match color.get(name) {
            Some(1) => {
                let span = functions.get(name).map(|f| f.span).unwrap_or_default();
                return Err(err(
                    span,
                    format!("recursion involving `{name}` is not allowed"),
                ));
            }
            Some(2) => return Ok(()),
            _ => {}
        }
        color.insert(name, 1);
        if let Some(info) = result.functions.get(name) {
            for callee in &info.callees {
                if result.functions.contains_key(callee.as_str()) {
                    // Find the owned key so the borrow lives long enough.
                    let key = result
                        .functions
                        .keys()
                        .find(|k| *k == callee)
                        .expect("checked contains_key");
                    visit(key, result, functions, color)?;
                }
            }
        }
        color.insert(name, 2);
        Ok(())
    }
    for name in result.functions.keys() {
        visit(name, result, functions, &mut color)?;
    }
    Ok(())
}

struct Checker<'a> {
    globals: &'a HashMap<String, &'a GlobalDecl>,
    functions: &'a HashMap<String, &'a Function>,
    func: &'a Function,
    scopes: Vec<HashMap<String, CType>>,
    all_vars: HashMap<String, CType>,
    callees: HashSet<String>,
}

impl<'a> Checker<'a> {
    fn run(mut self) -> CResult<FunctionInfo> {
        for p in &self.func.params {
            self.declare(&p.name, p.ty.clone(), p.span)?;
        }
        self.block(&self.func.body)?;
        Ok(FunctionInfo {
            vars: self.all_vars,
            callees: self.callees,
        })
    }

    fn declare(&mut self, name: &str, ty: CType, span: Span) -> CResult<()> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.contains_key(name) {
            return Err(redeclaration_error(name, span, true));
        }
        if self.all_vars.contains_key(name) {
            // Sibling-scope reuse would make the flat map ambiguous for
            // later lowering; require unique local names per function.
            return Err(redeclaration_error(name, span, false));
        }
        scope.insert(name.to_string(), ty.clone());
        self.all_vars.insert(name.to_string(), ty);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<CType> {
        for scope in self.scopes.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some(t.clone());
            }
        }
        self.globals.get(name).map(|g| g.ty.clone())
    }

    fn block(&mut self, b: &Block) -> CResult<()> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                if let Some(e) = init {
                    let et = self.expr(e)?;
                    if !matches!(et, CType::Int(_)) {
                        return Err(err(e.span, "initializer must be an integer expression"));
                    }
                    if matches!(ty, CType::Array(..)) {
                        return Err(err(s.span, "array locals cannot have scalar initializers"));
                    }
                }
                self.declare(name, ty.clone(), s.span)
            }
            StmtKind::Assign {
                target,
                op: _,
                value,
            } => {
                let vt = self.expr(value)?;
                if !matches!(vt, CType::Int(_)) {
                    return Err(err(value.span, "assigned value must be an integer"));
                }
                self.lvalue(target, s.span)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond)?;
                self.block(then_blk)?;
                if let Some(e) = else_blk {
                    self.block(e)?;
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                if let Some(c) = cond {
                    self.expr(c)?;
                }
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.block(body)?;
                self.scopes.pop();
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.expr(cond)?;
                self.block(body)
            }
            StmtKind::Return(e) => match (e, &self.func.ret) {
                (Some(e), CType::Int(_)) => {
                    self.expr(e)?;
                    Ok(())
                }
                (None, CType::Void) => Ok(()),
                (Some(e), CType::Void) => Err(err(e.span, "void function cannot return a value")),
                (None, _) => Err(err(s.span, "non-void function must return a value")),
                (Some(e), _) => Err(err(e.span, "function return type must be integer or void")),
            },
            StmtKind::Block(b) => self.block(b),
            StmtKind::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
        }
    }

    fn lvalue(&mut self, lv: &LValue, span: Span) -> CResult<()> {
        match lv {
            LValue::Var(name) => match self.lookup(name) {
                Some(CType::Int(_)) => {
                    if let Some(g) = self.globals.get(name) {
                        if g.is_const {
                            return Err(err(
                                span,
                                format!("cannot assign to const global `{name}`"),
                            ));
                        }
                    }
                    Ok(())
                }
                Some(other) => Err(err(
                    span,
                    format!("cannot assign to `{name}` of type {other}"),
                )),
                None => Err(err(span, format!("use of undeclared variable `{name}`"))),
            },
            LValue::ArrayElem { name, indices } => {
                let ty = self
                    .lookup(name)
                    .ok_or_else(|| err(span, format!("use of undeclared array `{name}`")))?;
                match ty {
                    CType::Array(_, dims) => {
                        if dims.len() != indices.len() {
                            return Err(err(
                                span,
                                format!(
                                    "`{name}` has {} dimensions but {} indices were given",
                                    dims.len(),
                                    indices.len()
                                ),
                            ));
                        }
                        if let Some(g) = self.globals.get(name) {
                            if g.is_const {
                                return Err(err(
                                    span,
                                    format!("cannot write const table `{name}`"),
                                ));
                            }
                        }
                        for i in indices {
                            self.expr(i)?;
                        }
                        Ok(())
                    }
                    other => Err(err(
                        span,
                        format!("`{name}` of type {other} is not an array"),
                    )),
                }
            }
            LValue::Deref(name) => match self.lookup(name) {
                Some(CType::Ptr(_)) => Ok(()),
                Some(other) => Err(err(
                    span,
                    format!("cannot dereference `{name}` of type {other}"),
                )),
                None => Err(err(span, format!("use of undeclared pointer `{name}`"))),
            },
        }
    }

    fn expr(&mut self, e: &Expr) -> CResult<CType> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let bits = IntType::width_for(*v, *v < 0).clamp(1, 32);
                Ok(CType::Int(IntType {
                    signed: *v < 0,
                    bits,
                }))
            }
            ExprKind::Var(name) => {
                let ty = self
                    .lookup(name)
                    .ok_or_else(|| err(e.span, format!("use of undeclared variable `{name}`")))?;
                match ty {
                    CType::Int(t) => Ok(CType::Int(t)),
                    CType::Ptr(_) => Err(err(
                        e.span,
                        format!("pointer `{name}` can only be written through `*{name} = …`"),
                    )),
                    CType::Array(..) => Err(err(
                        e.span,
                        format!("array `{name}` must be indexed, not used as a value"),
                    )),
                    CType::Void => unreachable!("variables are never void"),
                }
            }
            ExprKind::ArrayIndex { name, indices } => {
                let ty = self
                    .lookup(name)
                    .ok_or_else(|| err(e.span, format!("use of undeclared array `{name}`")))?;
                match ty {
                    CType::Array(t, dims) => {
                        if dims.len() != indices.len() {
                            return Err(err(
                                e.span,
                                format!(
                                    "`{name}` has {} dimensions but {} indices were given",
                                    dims.len(),
                                    indices.len()
                                ),
                            ));
                        }
                        for i in indices {
                            let it = self.expr(i)?;
                            if !matches!(it, CType::Int(_)) {
                                return Err(err(i.span, "array index must be an integer"));
                            }
                        }
                        Ok(CType::Int(t))
                    }
                    other => Err(err(
                        e.span,
                        format!("`{name}` of type {other} is not an array"),
                    )),
                }
            }
            ExprKind::Unary { operand, .. } => {
                let t = self.expr(operand)?;
                match t {
                    CType::Int(it) => Ok(CType::Int(it)),
                    _ => Err(err(operand.span, "unary operand must be an integer")),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr(lhs)?;
                let rt = self.expr(rhs)?;
                match (lt, rt) {
                    (CType::Int(a), CType::Int(b)) => {
                        if op.is_boolean() {
                            Ok(CType::Int(IntType::bit()))
                        } else {
                            Ok(CType::Int(a.unify(b)))
                        }
                    }
                    _ => Err(err(e.span, "binary operands must be integers")),
                }
            }
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => {
                self.expr(cond)?;
                let tt = self.expr(then_e)?;
                let et = self.expr(else_e)?;
                match (tt, et) {
                    (CType::Int(a), CType::Int(b)) => Ok(CType::Int(a.unify(b))),
                    _ => Err(err(e.span, "conditional arms must be integers")),
                }
            }
            ExprKind::Call { name, args } => self.call(e.span, name, args),
        }
    }

    fn call(&mut self, span: Span, name: &str, args: &[Expr]) -> CResult<CType> {
        match name {
            intrinsics::LOAD_PREV => {
                if args.len() != 1 {
                    return Err(err(span, "ROCCC_load_prev takes exactly one argument"));
                }
                let var = match &args[0].kind {
                    ExprKind::Var(n) => n.clone(),
                    _ => {
                        return Err(err(
                            args[0].span,
                            "ROCCC_load_prev argument must be a scalar variable",
                        ))
                    }
                };
                match self.lookup(&var) {
                    Some(CType::Int(t)) => Ok(CType::Int(t)),
                    Some(_) => Err(err(args[0].span, "feedback variable must be a scalar")),
                    None => Err(err(
                        args[0].span,
                        format!("use of undeclared feedback variable `{var}`"),
                    )),
                }
            }
            intrinsics::STORE_NEXT => {
                if args.len() != 2 {
                    return Err(err(span, "ROCCC_store2next takes exactly two arguments"));
                }
                if !matches!(&args[0].kind, ExprKind::Var(_)) {
                    return Err(err(
                        args[0].span,
                        "ROCCC_store2next first argument must be a scalar variable",
                    ));
                }
                self.expr(&args[1])?;
                Ok(CType::Void)
            }
            intrinsics::LUT => {
                if args.len() != 2 {
                    return Err(err(span, "ROCCC_lut takes a table name and an index"));
                }
                let table = match &args[0].kind {
                    ExprKind::Var(n) => n.clone(),
                    _ => return Err(err(args[0].span, "ROCCC_lut table must be a named global")),
                };
                let g = self
                    .globals
                    .get(&table)
                    .ok_or_else(|| err(args[0].span, format!("unknown lookup table `{table}`")))?;
                let elem = match &g.ty {
                    CType::Array(t, _) => *t,
                    _ => return Err(err(args[0].span, "lookup table must be an array")),
                };
                self.expr(&args[1])?;
                Ok(CType::Int(elem))
            }
            intrinsics::BITS => {
                if args.len() != 3 {
                    return Err(err(span, "ROCCC_bits takes a value, hi and lo bit indices"));
                }
                self.expr(&args[0])?;
                let hi = args[1]
                    .as_const()
                    .ok_or_else(|| err(args[1].span, "ROCCC_bits hi index must be constant"))?;
                let lo = args[2]
                    .as_const()
                    .ok_or_else(|| err(args[2].span, "ROCCC_bits lo index must be constant"))?;
                if !(0..=63).contains(&lo) || !(lo..=63).contains(&hi) {
                    return Err(err(span, "ROCCC_bits needs 0 <= lo <= hi <= 63"));
                }
                Ok(CType::Int(IntType::unsigned((hi - lo + 1) as u8)))
            }
            intrinsics::CAT => {
                if args.len() != 3 {
                    return Err(err(
                        span,
                        "ROCCC_cat takes hi part, lo part, and the lo part's width",
                    ));
                }
                let ht = self.expr(&args[0])?;
                let lt = self.expr(&args[1])?;
                let w = args[2]
                    .as_const()
                    .ok_or_else(|| err(args[2].span, "ROCCC_cat width must be constant"))?;
                if !(1..=63).contains(&w) {
                    return Err(err(span, "ROCCC_cat width must be in 1..=63"));
                }
                match (ht, lt) {
                    (CType::Int(h), CType::Int(_)) => Ok(CType::Int(IntType::unsigned(
                        (h.bits as u16 + w as u16).min(64) as u8,
                    ))),
                    _ => Err(err(span, "ROCCC_cat parts must be integers")),
                }
            }
            _ => {
                let callee = self
                    .functions
                    .get(name)
                    .ok_or_else(|| err(span, format!("call to undefined function `{name}`")))?;
                if callee.params.len() != args.len() {
                    return Err(err(
                        span,
                        format!(
                            "`{name}` takes {} arguments but {} were given",
                            callee.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (a, p) in args.iter().zip(&callee.params) {
                    let at = self.expr(a)?;
                    if !matches!(at, CType::Int(_)) || !matches!(p.ty, CType::Int(_)) {
                        return Err(err(a.span, "inlined calls may only pass integer scalars"));
                    }
                }
                self.callees.insert(name.to_string());
                match &callee.ret {
                    CType::Int(t) => Ok(CType::Int(*t)),
                    CType::Void => Ok(CType::Void),
                    _ => Err(err(span, "called function must return integer or void")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> CResult<SemaResult> {
        // Parse errors propagate so restriction tests can live at either
        // stage (e.g. pointer reads are rejected syntactically).
        check(&parse(src)?)
    }

    #[test]
    fn accepts_figure3_fir() {
        let src = "void fir(int A[32], int C[32]) { int i;
          for (i = 0; i < 17; i = i + 1) {
            C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";
        check_src(src).unwrap();
    }

    #[test]
    fn rejects_undeclared_variable() {
        let e = check_src("void f() { x = 1; }").unwrap_err();
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn rejects_recursion() {
        let e = check_src("int f(int x) { return f(x - 1); }").unwrap_err();
        assert!(e.message.contains("recursion"));
    }

    #[test]
    fn rejects_mutual_recursion() {
        // Our subset has no prototypes, so write it as two defs calling each other.
        let e =
            check_src("int f(int x) { return g(x); } int g(int x) { return f(x); }").unwrap_err();
        assert!(e.message.contains("recursion"));
    }

    #[test]
    fn rejects_pointer_read() {
        let e = check_src("void f(int* p, int* q) { *q = *p; }");
        assert!(e.is_err());
    }

    #[test]
    fn allows_pointer_write() {
        check_src("void f(int a, int* out) { *out = a + 1; }").unwrap();
    }

    #[test]
    fn rejects_const_table_write() {
        let src = "const int t[2] = {1,2}; void f(int i) { t[i] = 0; }";
        let e = check_src(src).unwrap_err();
        assert!(e.message.contains("const"));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let e = check_src("void f(int A[4][4], int* o) { *o = A[1]; }").unwrap_err();
        assert!(e.message.contains("dimensions"));
    }

    #[test]
    fn rejects_duplicate_locals() {
        let e = check_src("void f() { int x; int x; }").unwrap_err();
        assert!(e.message.contains("duplicate") || e.message.contains("already"));
    }

    #[test]
    fn checks_intrinsic_arity() {
        let e = check_src("void f(int a) { int s; ROCCC_store2next(s); }").unwrap_err();
        assert!(e.message.contains("two arguments"));
    }

    #[test]
    fn accepts_figure4_accumulator_with_macros() {
        let src = "void main_dp(int t0, int* t1) {
          int sum; int tmp;
          tmp = ROCCC_load_prev(sum) + t0;
          ROCCC_store2next(sum, tmp);
          *t1 = tmp; }";
        check_src(src).unwrap();
    }

    #[test]
    fn lut_intrinsic_types_from_table() {
        let src = "const uint16 tab[4] = {1,2,3,4};
          void f(uint12 i, uint16* o) { *o = ROCCC_lut(tab, i); }";
        check_src(src).unwrap();
    }

    #[test]
    fn records_callees_for_inlining() {
        let src = "int dbl(int x) { return x * 2; } void f(int a, int* o) { *o = dbl(a); }";
        let info = check_src(src).unwrap();
        assert!(info.functions["f"].callees.contains("dbl"));
        assert!(info.functions["dbl"].callees.is_empty());
    }

    #[test]
    fn rejects_void_misuse() {
        assert!(check_src("unsigned void f() {}").is_err());
        assert!(check_src("int f() { return; }").is_err());
        assert!(check_src("void f() { return 3; }").is_err());
    }
}
