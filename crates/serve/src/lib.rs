//! # roccc-serve — the concurrent compile service
//!
//! The ROADMAP's production goal means the compiler has to stop being a
//! one-shot CLI call: design-space sweeps recompile the same FIR/DCT/
//! wavelet kernels under different unroll factors over and over (the
//! paper's §4.1 area-driven unrolling loop), which is exactly a
//! repeated, cacheable, concurrent workload. This crate turns
//! [`roccc::compile`] into a daemon:
//!
//! * **content-addressed artifact cache** — a 64-bit FNV-1a hash over
//!   `(source, function, canonical CompileOptions)` keys a sharded
//!   in-memory LRU of `Arc`-shared compiles, with an optional
//!   write-through on-disk artifact store ([`cache`], keyed by
//!   [`roccc::hash::cache_key`]);
//! * **robustness** — a bounded admission queue replies `busy` under
//!   overload, a watchdog thread enforces a per-request wall-clock
//!   budget, `catch_unwind` isolates compiler panics, and identical
//!   concurrent requests are deduplicated single-flight ([`server`]);
//! * **observability** — atomic counters and fixed-bucket per-phase
//!   latency histograms (fed by [`roccc::PhaseTimings`]), exposed as
//!   Prometheus-style text via the `metrics` protocol command
//!   ([`metrics`]).
//!
//! The wire protocol lives in [`roccc::proto`], shared with the
//! `roccc --connect` client mode. Everything is `std`-only: the
//! workspace builds offline with an empty cargo registry.
//!
//! ```no_run
//! use roccc_serve::{start, ServerConfig};
//! use roccc::proto::{roundtrip, Request, Response};
//!
//! let handle = start(ServerConfig::default()).unwrap();
//! let addr = handle.local_addr();
//! let resp = roundtrip(addr, &Request::Ping, None).unwrap();
//! assert!(matches!(resp, Response::Ok { .. }));
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod server;

pub use cache::{CacheEntry, DiskStore, ShardedLru};
pub use metrics::{scrape_counter, Metrics};
pub use server::{start, CompileFn, ServerConfig, ServerHandle};
