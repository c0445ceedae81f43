//! # roccc-datapath — data-path generation (the paper's §4.2)
//!
//! The primary contribution of the reproduced paper: turning an optimized
//! SSA CFG into a fully pipelined hardware data path.
//!
//! * [`build`] — if-conversion into a flat dataflow graph with the paper's
//!   node structure: *soft* nodes per CFG block, *mux* and *pipe* hard
//!   nodes around alternative branches (Figure 6);
//! * [`pipeline`] — automatic latch placement from per-opcode delay
//!   estimation, with the `LPR`/`SNX` feedback-latch rule (Figure 7);
//! * [`narrow`] — backward bit-width narrowing from port sizes and opcodes;
//! * [`graph`] — the data-path graph and its structural invariants
//!   ([`Datapath::violations`]).
//!
//! ```
//! use roccc_cparse::parser::parse;
//! use roccc_suifvm::{lower_function, to_ssa, optimize};
//! use roccc_datapath::{build_datapath, pipeline_datapath, narrow_widths, DefaultDelayModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = parse("void f(int a, int b, int* o) { *o = a * b + 7; }")?;
//! let f = prog.function("f").unwrap();
//! let mut ir = lower_function(&prog, f, &[])?;
//! to_ssa(&mut ir);
//! optimize(&mut ir);
//! let mut dp = build_datapath(&ir)?;
//! pipeline_datapath(&mut dp, 8.0, &DefaultDelayModel);
//! narrow_widths(&mut dp);
//! assert!(dp.fmax_mhz() > 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod graph;
pub mod narrow;
pub mod pipeline;

pub use build::{build_datapath, build_datapath_ranged};
pub use graph::{Datapath, DpNode, DpOp, NodeId, NodeKind, OpId, OutputPort, Value};
pub use narrow::{narrow_widths, register_bits, width_bits_saved};
pub use pipeline::{
    apply_modulo_schedule, feedback_cycle_ops, pipeline_datapath, recompute_achieved_period,
    DefaultDelayModel, DelayModel, PipelineReport, ResourceBudget,
};
