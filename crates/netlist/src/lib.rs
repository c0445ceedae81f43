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
//! * [`plan`] — the one *compiled* engine: one-time levelization into a
//!   dense instruction stream ([`SimPlan`]) executed zero-allocation by
//!   the lane-batched [`BatchedSim`] — what every [`SystemStage`], prove's
//!   replay and the benches actually run, checked against the [`sim`]
//!   reference in the differential suites;
//! * [`system`] — [`SystemStage`], the one controller of a kernel (smart
//!   buffers, II launch grid, fire, step, retire; a feed-forward data
//!   path that stores to BRAM is computed in 16-lane tiles), which
//!   [`run_system`] runs to completion for throughput and memory-traffic
//!   numbers and the stream co-simulator runs under channel credits.

#![warn(missing_docs)]

pub mod cells;
pub mod from_dp;
pub mod plan;
pub mod sim;
pub mod system;

pub use cells::{Cell, CellId, CellKind, Netlist};
pub use from_dp::netlist_from_datapath;
pub use plan::{cell_stages, BatchedSim, SimPlan};
pub use sim::{CycleResult, NetlistSim, SimError};
pub use system::{
    run_system, store_addr_gens, window_scan, Launch, SystemError, SystemRun, SystemStage,
    WindowScan,
};
