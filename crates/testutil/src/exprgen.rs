//! Random C expression and kernel-source generation.
//!
//! Generates expressions over the inputs `a`, `b`, `c` from the compiler's
//! supported operator subset (no division — divide-by-zero handling is
//! covered by dedicated tests). Used by the workspace property tests and
//! the reference-vs-compiled simulator differential tests.

use crate::XorShift64;

/// A randomly generated integer expression over inputs `a`, `b`, `c`.
#[derive(Debug, Clone)]
pub enum Expr {
    /// One of the three kernel inputs.
    Var(usize),
    /// An integer literal.
    Lit(i32),
    /// Unary operator applied to a subexpression.
    Un(&'static str, Box<Expr>),
    /// Binary operator.
    Bin(&'static str, Box<Expr>, Box<Expr>),
    /// Shift by a constant amount (dynamic shifts are sampled separately).
    ShiftK(&'static str, Box<Expr>, u8),
    /// Ternary conditional.
    Tern(Box<Expr>, Box<Expr>, Box<Expr>),
}

const BIN_OPS: &[&str] = &["+", "-", "*", "&", "|", "^", "<", "<=", "==", "!="];
const UN_OPS: &[&str] = &["-", "~"];

impl Expr {
    /// Renders the expression as C source.
    pub fn to_c(&self) -> String {
        self.to_c_with(&["a", "b", "c"])
    }

    /// Renders the expression with custom source text for the three
    /// input slots — the loop generator substitutes window reads like
    /// `A[i + 1]` for the scalar names.
    pub fn to_c_with(&self, vars: &[&str; 3]) -> String {
        match self {
            Expr::Var(i) => vars[*i].to_string(),
            Expr::Lit(v) => format!("({v})"),
            Expr::Un(op, e) => format!("({op}({}))", e.to_c_with(vars)),
            Expr::Bin(op, l, r) => {
                format!("({} {op} {})", l.to_c_with(vars), r.to_c_with(vars))
            }
            Expr::ShiftK(op, e, k) => format!("({} {op} {k})", e.to_c_with(vars)),
            Expr::Tern(c, a, b) => format!(
                "({} ? {} : {})",
                c.to_c_with(vars),
                a.to_c_with(vars),
                b.to_c_with(vars)
            ),
        }
    }
}

/// Samples a random expression of at most `depth` operator levels.
pub fn gen_expr(rng: &mut XorShift64, depth: u32) -> Expr {
    if depth == 0 || rng.gen_ratio(1, 4) {
        return if rng.gen_bool() {
            Expr::Var(rng.gen_index(3))
        } else {
            Expr::Lit(rng.gen_range(-100, 100) as i32)
        };
    }
    match rng.gen_index(8) {
        0 => Expr::Un(
            UN_OPS[rng.gen_index(UN_OPS.len())],
            Box::new(gen_expr(rng, depth - 1)),
        ),
        1 => Expr::ShiftK(
            if rng.gen_bool() { "<<" } else { ">>" },
            Box::new(gen_expr(rng, depth - 1)),
            rng.gen_range(0, 7) as u8,
        ),
        2 => Expr::Tern(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        _ => Expr::Bin(
            BIN_OPS[rng.gen_index(BIN_OPS.len())],
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

/// A straight-line kernel `void k(int a, int b, int c, int* o)` computing
/// one random expression.
pub fn gen_kernel_source(rng: &mut XorShift64, depth: u32) -> String {
    format!(
        "void k(int a, int b, int c, int* o) {{ *o = {}; }}",
        gen_expr(rng, depth).to_c()
    )
}

/// A random expression that reads at least one of `vars`: a
/// constant-only lane gives a loop nothing to stream, so the system
/// simulation would never fire an iteration.
fn gen_expr_over(rng: &mut XorShift64, depth: u32, vars: &[&str; 3]) -> String {
    let mut e = gen_expr(rng, depth);
    if !has_var(&e) {
        e = Expr::Bin("+", Box::new(Expr::Var(rng.gen_index(3))), Box::new(e));
    }
    e.to_c_with(vars)
}

fn has_var(e: &Expr) -> bool {
    match e {
        Expr::Var(_) => true,
        Expr::Lit(_) => false,
        Expr::Un(_, e) | Expr::ShiftK(_, e, _) => has_var(e),
        Expr::Bin(_, l, r) => has_var(l) || has_var(r),
        Expr::Tern(c, a, b) => has_var(c) || has_var(a) || has_var(b),
    }
}

/// A generated single-loop stencil kernel `void k(int A[..], int B[..])`
/// with a seeded write-lane layout, for the dependence-gate differential
/// suite.
#[derive(Debug, Clone)]
pub struct LoopKernel {
    /// Full C source.
    pub source: String,
    /// Loop step (equals the number of legal write lanes).
    pub step: u64,
    /// Trip count (number of loop iterations).
    pub trip: u64,
    /// Offsets written into `B` each iteration, relative to `i`.
    pub write_offsets: Vec<u64>,
    /// Planted carried output-dependence distance in iterations.
    /// `None` means the lanes write disjoint residues (legal to extract,
    /// like the paper's dct lanes); `Some(d)` means the last write lane
    /// collides with lane 0 exactly `d` iterations later — the compiler
    /// must refuse the loop.
    pub planted_distance: Option<u64>,
    /// Length of the input array `A`.
    pub a_len: usize,
    /// Length of the output array `B`.
    pub b_len: usize,
}

/// Optional features of a [`gen_loop_kernel`] loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopShape {
    /// Trip count (16 by default; 20 leaves a remainder for factors 3, 6
    /// and 8).
    pub trip: u64,
    /// Declare a body-local temporary `int t = …;` over the window and
    /// let the write lanes read it.
    pub local_temp: bool,
}

impl Default for LoopShape {
    fn default() -> Self {
        LoopShape {
            trip: 16,
            local_temp: false,
        }
    }
}

/// Samples a stencil loop with `lanes` writes per iteration over the
/// window `A[i] .. A[i + 2]`. With `planted = None` the writes land on
/// distinct residues modulo the step (one lane per residue — legal).
/// With `planted = Some(d)` an extra write at offset `d * step` is
/// appended: it collides with lane 0 of the iteration `d` steps later,
/// a carried output dependence at distance `d` that extraction must
/// refuse (the parallel write lanes cannot preserve program order).
/// `shape` sets the trip count and an optional body-local temporary;
/// the default shape draws exactly what the plain stencil always drew.
pub fn gen_loop_kernel(
    rng: &mut XorShift64,
    depth: u32,
    lanes: u64,
    planted: Option<u64>,
    shape: LoopShape,
) -> LoopKernel {
    let step = lanes.max(1);
    let trip = shape.trip;
    let bound = trip * step;

    let mut write_offsets: Vec<u64> = (0..step).collect();
    if let Some(d) = planted {
        write_offsets.push(d.max(1) * step);
    }
    let max_off = *write_offsets.iter().max().unwrap();
    let a_len = (bound + 4) as usize;
    // Size the output to the written footprint exactly, like the paper
    // kernels (the last iteration starts at `bound - step`).
    let b_len = (bound - step + max_off + 1) as usize;

    let mut body = String::new();
    let mut vars_ref = ["A[i]", "A[i + 1]", "A[i + 2]"];
    if shape.local_temp {
        body.push_str(&format!(
            "    int t = {};\n",
            gen_expr_over(rng, depth, &vars_ref)
        ));
        vars_ref[0] = "t";
    }
    for off in &write_offsets {
        let idx = if *off == 0 {
            "i".to_string()
        } else {
            format!("i + {off}")
        };
        body.push_str(&format!(
            "    B[{idx}] = {};\n",
            gen_expr_over(rng, depth, &vars_ref)
        ));
    }
    let source = format!(
        "void k(int A[{a_len}], int B[{b_len}]) {{ int i;\n  \
         for (i = 0; i < {bound}; i = i + {step}) {{\n{body}  }}\n}}"
    );
    LoopKernel {
        source,
        step,
        trip,
        write_offsets,
        planted_distance: planted,
        a_len,
        b_len,
    }
}

/// A generated streaming loop kernel whose output depends on a value
/// carried `distance` iterations back, for the modulo-scheduling
/// differential suite.
#[derive(Debug, Clone)]
pub struct RecurrenceKernel {
    /// Full C source.
    pub source: String,
    /// Iterations the carried value crosses before it is consumed.
    pub distance: u64,
    /// Trip count.
    pub trip: u64,
    /// Length of the input array `A`.
    pub a_len: usize,
    /// Length of the output array `B`.
    pub b_len: usize,
}

/// Samples a loop kernel with a planted LPR→SNX recurrence of the given
/// iteration distance: `distance` rotating feedback scalars compose a
/// chain of distance-1 feedback pairs, so the value folded into the
/// accumulator this iteration re-enters the data path exactly
/// `distance` iterations later. The per-iteration update mixes a random
/// expression over the window `A[i] .. A[i + 2]` into the oldest state.
///
/// With `export` the kernel also takes `int* out` and ends in
/// `*out = s0;`, exporting the newest state, and the temporary `t` is
/// declared before the loop instead of in its body.
pub fn gen_recurrence_kernel(
    rng: &mut XorShift64,
    depth: u32,
    distance: u64,
    export: bool,
) -> RecurrenceKernel {
    let d = distance.max(1);
    let trip = 16u64;
    let a_len = (trip + 4) as usize;
    let b_len = trip as usize;

    let e = gen_expr_over(rng, depth, &["A[i]", "A[i + 1]", "A[i + 2]"]);

    let mut decls = String::new();
    for j in 0..d {
        decls.push_str(&format!("  int s{j} = 0;\n"));
    }
    let mut body = String::new();
    body.push_str(&format!("    t = (s{} + {e});\n", d - 1));
    for j in (1..d).rev() {
        body.push_str(&format!("    s{j} = s{};\n", j - 1));
    }
    body.push_str("    s0 = t;\n    B[i] = t;\n");
    let source = if export {
        format!(
            "void k(int A[{a_len}], int B[{b_len}], int* out) {{\n{decls}  int t;\n  int i;\n  \
             for (i = 0; i < {trip}; i = i + 1) {{\n{body}  }}\n  *out = s0;\n}}\n"
        )
    } else {
        format!(
            "void k(int A[{a_len}], int B[{b_len}]) {{\n{decls}  int i;\n  \
             for (i = 0; i < {trip}; i = i + 1) {{\n    int t;\n{body}  }}\n}}\n"
        )
    };
    RecurrenceKernel {
        source,
        distance: d,
        trip,
        a_len,
        b_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recurrence_kernels_parse_at_every_distance() {
        let mut rng = XorShift64::new(909);
        for d in 1..=4 {
            for export in [false, true] {
                let k = gen_recurrence_kernel(&mut rng, 2, d, export);
                assert_eq!(k.distance, d);
                roccc_cparse::frontend(&k.source).unwrap_or_else(|e| {
                    panic!("distance-{d} kernel must parse: {e}\n{}", k.source)
                });
            }
        }
    }

    #[test]
    fn generated_source_is_parseable_c() {
        let mut rng = XorShift64::new(2024);
        for _ in 0..64 {
            let src = gen_kernel_source(&mut rng, 3);
            roccc_cparse::frontend(&src)
                .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{src}"));
        }
    }

    #[test]
    fn depth_zero_is_a_leaf() {
        let mut rng = XorShift64::new(5);
        for _ in 0..32 {
            match gen_expr(&mut rng, 0) {
                Expr::Var(_) | Expr::Lit(_) => {}
                other => panic!("depth 0 produced {other:?}"),
            }
        }
    }
}
