//! # roccc-verify — phase-indexed static verification
//!
//! The compile pipeline (§4 of the reproduced paper) only produces
//! correct hardware because each phase preserves strong structural
//! invariants: SSA single assignment in the IR, an acyclic latch-balanced
//! data path whose one legal feedback loop (`LPR→…→SNX`) is registered,
//! and a netlist where every wire has exactly one driver and every cycle
//! crosses a register. This crate checks those invariants *after* each
//! phase and reports violations as uniform [`Diagnostic`] values with
//! stable codes (`S004-multiple-def`, `D001-comb-cycle`,
//! `N003-comb-loop`, …), so a transform bug surfaces as a named finding
//! instead of silently becoming wrong VHDL.
//!
//! The structural codes of the first three families live in the IR
//! crates, which check them on every compile (`verify_ssa`,
//! `Datapath::verify`, `Netlist::verify`); the families report those
//! crates' violations unchanged and add the checks that need more than
//! the IR crate keeps.
//!
//! * [`verify_ir`] — CFG well-formedness and SSA invariants (`S0xx`);
//! * [`verify_ranges`] — consistency of value-range annotations against
//!   the SSA IR they describe (`W0xx`, IR half);
//! * [`verify_datapath`] — acyclicity, stage monotonicity/latch balance,
//!   bit-width soundness against the narrowing rules (`D0xx`);
//! * [`verify_netlist`] — drivers, combinational loops, port widths,
//!   dead cells (`N0xx`);
//! * [`verify_pipeline`] — multi-kernel streaming pipeline composition:
//!   port bindings, rate balance, FIFO sizing, deadlock freedom (`P0xx`);
//! * [`verify_deps`] — dependence-graph well-formedness, recurrence
//!   completeness, MinII arithmetic, and transform-legality re-checks
//!   (`L0xx`);
//! * [`verify_schedule`] — modulo-schedule legality re-derived from the
//!   schedule artifact: MRT resource conflicts, recurrence slack,
//!   achieved II vs MinII, prologue/epilogue coverage (`M0xx`);
//! * [`verify_certificate`] — structural re-check of `roccc-prove`
//!   translation-validation certificates: refuted output equivalence,
//!   valid-grid divergence, unproven obligations, malformed
//!   certificates (`E0xx`);
//! * the VHDL linter in `roccc-vhdl` emits the same [`Diagnostic`] type
//!   with `V0xx` codes.
//!
//! How strictly findings gate a compile is a [`VerifyLevel`]: `Off`,
//! `Warn` (errors abort, warnings surface) or `Deny` (anything aborts).

#![warn(missing_docs)]

pub mod datapath;
pub mod deps;
pub mod diag;
pub mod ir;
pub mod netlist;
pub mod pipeline;
pub mod prove;
pub mod ranges;
pub mod schedule;

pub use datapath::verify_datapath;
pub use deps::verify_deps;
pub use diag::{Diagnostic, Loc, Phase, Severity, VerifyLevel};
pub use ir::verify_ir;
pub use netlist::verify_netlist;
pub use pipeline::{
    pipeline_code_severity, verify_pipeline, BindView, ChannelView, PipelineView, PortView,
    StageView,
};
pub use prove::{
    prove_code_severity, verify_certificate, CertificateView, CounterexampleView, ObligationView,
    PROVE_SCHEMA,
};
pub use ranges::{verify_fresh_ranges, verify_ranges};
pub use schedule::verify_schedule;
