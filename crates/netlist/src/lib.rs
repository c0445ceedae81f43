//! # roccc-netlist — RTL netlist and cycle-accurate simulation
//!
//! The hardware substrate the original authors got from synthesizing VHDL
//! and running on a Virtex-II: here, a word-level netlist lowered from the
//! pipelined data path, simulated cycle by cycle, and assembled into a full
//! system (BRAM → smart buffer → data path → BRAM, the paper's Figure 2).
//!
//! * [`cells`] — cell/netlist representation (combinational ops, registers
//!   with optional valid gating, ROMs);
//! * [`from_dp`] — lowering from `roccc_datapath::Datapath`, materializing
//!   the pipeline balancing registers and feedback latches;
//! * [`sim`] — two-phase cycle-accurate *reference* simulation with a
//!   valid chain (readable, interprets the cell graph every cycle);
//! * [`plan`] — the *compiled* engine: one-time levelization into a dense
//!   instruction stream ([`SimPlan`]) executed zero-allocation by
//!   [`CompiledSim`] — what `run_system` and the benches actually run;
//! * [`system`] — whole-kernel runs with smart buffers and controllers,
//!   producing throughput and memory-traffic numbers for the evaluation.

#![warn(missing_docs)]

pub mod cells;
pub mod from_dp;
pub mod plan;
pub mod sim;
pub mod system;

pub use cells::{Cell, CellId, CellKind, Netlist};
pub use from_dp::netlist_from_datapath;
pub use plan::{cell_stages, BatchedSim, CompiledSim, SimPlan};
pub use sim::{CycleResult, NetlistSim, SimError};
pub use system::{
    run_system, run_system_with_options, BramFeed, OutputLane, SystemError, SystemOptions,
    SystemRun, WindowFeed,
};
