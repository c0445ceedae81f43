//! # roccc-suifvm — the Machine-SUIF-style back-end IR
//!
//! Reproduces the paper's back-end substrate (§4.2.1): the SUIFvm virtual
//! machine IR with ROCCC's extra opcodes (`LPR`, `SNX`, `LUT`), control-flow
//! graphs, dominator-based SSA construction, bit-vector dataflow analysis,
//! and the scalar optimizations that run before data-path building.
//!
//! Pipeline position: `roccc-hlir` hands this crate a loop-free data-path
//! function (Figure 3 (c) / 4 (c)); [`lower`] turns it into a CFG of
//! three-address instructions, [`ssa`] makes every virtual register
//! single-assignment ("every virtual register is assigned only once",
//! §4.2.1), [`opt`] cleans it up, and `roccc-datapath` consumes the result.
//!
//! ```
//! use roccc_cparse::parser::parse;
//! use roccc_suifvm::{lower::lower_function, ssa::to_ssa, opt::optimize, interp::IrMachine};
//!
//! # fn main() -> Result<(), roccc_cparse::error::CError> {
//! let prog = parse("void f(int a, int b, int* o) { *o = (a + b) * 4; }")?;
//! let f = prog.function("f").unwrap();
//! let mut ir = lower_function(&prog, f, &[])?;
//! to_ssa(&mut ir);
//! optimize(&mut ir);
//! let mut machine = IrMachine::new(&ir);
//! assert_eq!(machine.run(&[3, 2])?, vec![20]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod dataflow;
pub mod deps;
pub mod dom;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod opt;
pub mod range;
pub mod ssa;

pub use deps::{analyze_deps, input_seed_ranges, res_mii, DepGraph, Recurrence, Resources};
pub use interp::IrMachine;
pub use ir::{Block, BlockId, FunctionIr, Instr, Opcode, Phi, Terminator, VReg, Violation};
pub use lower::lower_function;
pub use opt::optimize;
pub use range::{analyze, analyze_with_inputs, fold_constant_ranges, RangeMap, ValueRange};
pub use ssa::{ssa_violations, to_ssa, verify_ssa};
