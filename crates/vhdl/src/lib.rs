//! # roccc-vhdl — RTL VHDL code generation (§4.2.4)
//!
//! Emits the paper's VHDL shape: one component per CFG node (soft nodes,
//! mux and pipe hard nodes), ROM entities for `LUT` instructions, a
//! top-level data-path entity with the pipeline registers, feedback
//! latches and valid chain, plus parameterized smart-buffer and controller
//! shells. A structural [`lint`] checks the output in tests.
//!
//! The text is written in one pass into one buffer by a small streaming
//! [`writer`]: entity headers, ports and declarations go straight to the
//! output, each architecture body collects in one reused scratch buffer,
//! and types, casts, literals and operand references are `Display`
//! adapters formatted in place. The generator computes every node's
//! port sets once and lowercases the C names once per render, making
//! names that differ only in case unique ([`Names`]), since VHDL
//! identifiers are case-insensitive.
//!
//! ```
//! use roccc::{compile, CompileOptions};
//!
//! # fn main() -> Result<(), roccc::CompileError> {
//! let src = "void f(int a, int b, int* o) { *o = a * b + 1; }";
//! let hw = compile(src, "f", &CompileOptions::default())?;
//! let vhdl = hw.to_vhdl();
//! assert!(vhdl.contains("entity f_dp is"));
//! assert!(roccc_vhdl::lint::lint(&vhdl).is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod generate;
pub mod lint;
pub mod writer;

pub use generate::{generate_vhdl, write_vhdl, Names};
pub use writer::{PortDir, VhdlType, VhdlWriter};
