//! # roccc-hlir — loop-level IR and transformations
//!
//! The "SUIF level" of the ROCCC reproduction: transformations that run on
//! the structured C AST before the kernel is lowered to the virtual-machine
//! IR. Implements the passes named in §2 of the paper:
//!
//! * [`fold`] — constant folding and algebraic simplification;
//! * [`inline`] — function inlining (the subset has no recursion);
//! * [`unroll`] — full and partial loop unrolling;
//! * [`stripmine`] — loop strip-mining (FPGA-specific);
//! * [`fusion`] — loop fusion (FPGA-specific);
//! * [`extract`] — scalar replacement + feedback detection, producing a
//!   [`kernel::Kernel`]: the data-path function (Figure 3 (c) / 4 (c)), the
//!   window specifications for the smart buffer, and the loop information
//!   for the controllers.
//!
//! ```
//! use roccc_cparse::parser::parse;
//! use roccc_hlir::extract::extract_kernel;
//!
//! # fn main() -> Result<(), roccc_cparse::error::CError> {
//! let prog = parse(
//!     "void fir(int A[21], int C[17]) { int i;
//!        for (i = 0; i < 17; i = i + 1) {
//!          C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }",
//! )?;
//! let kernel = extract_kernel(&prog, "fir")?;
//! assert_eq!(kernel.windows[0].extent(), vec![5]); // the 5-tap sliding window
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod deps;
pub mod extract;
pub mod fold;
pub mod fusion;
pub mod inline;
pub mod kernel;
pub mod loops;
mod precheck;
pub mod stripmine;
pub mod subst;
pub mod unroll;

pub use extract::extract_kernel;
pub use kernel::{FeedbackVar, Kernel, LoopDim, OutputSpec, WindowSpec};
