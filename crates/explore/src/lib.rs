//! Design-space exploration for the ROCCC reproduction.
//!
//! The paper's front end uses compile-time area estimation to *steer*
//! loop unrolling and strip-mining toward a configuration that fits the
//! FPGA (§2, §5): estimate cheaply, prune what cannot fit, and only
//! fully evaluate the promising remainder. This crate reproduces that
//! steering loop as a standalone subsystem:
//!
//! * [`space::Space`] enumerates transformation configurations — unroll
//!   factor × strip-mine width × scalar-optimization setting — on top of
//!   `hlir`'s existing passes;
//! * [`engine::explore`] compiles every candidate through the full
//!   pipeline on a bounded worker pool, scores survivors with the
//!   `synth` area/clock model plus the compiled-sim throughput numbers,
//!   prunes by the paper's area budget and an optional beam, and
//!   memoizes by content hash (single-flight) so re-runs are free;
//! * [`pareto::frontier`] keeps the non-dominated points over
//!   (slices, cycles, clock);
//! * [`artifact::render_json`] emits a byte-stable JSON artifact,
//!   [`artifact::render_table`] the human-readable view; both are kinds
//!   of [`artifact::ARTIFACTS`].
//!
//! Infeasible configurations (e.g. an unroll factor that does not divide
//! the trip count, or a candidate rejected by the `deny` verifier) are
//! skip-reported with their diagnostics; they never abort a sweep.

pub mod artifact;
pub mod engine;
pub mod pareto;
pub mod space;

pub use artifact::{render_json, render_table, ARTIFACTS, TABLE};
pub use engine::{
    explore, CandidateReport, CompileFn, ExploreConfig, ExploreResult, ExploreStats, Memo,
    MemoEntry, Metrics, Status,
};
pub use pareto::{frontier, Point};
pub use space::{Candidate, Space};
