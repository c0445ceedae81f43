//! `explore-sweep`: design-space exploration of fir, dct and wavelet over
//! unroll {1,2,3,4,6,8} × strip {0,2,4,8} (72 candidates) under the
//! `full` options, 2 workers, a cold memo every sweep.
//!
//! One op is one sweep of all three kernels, in a seeded order. Most
//! candidates fail after a large hlir expansion, so this is where the
//! failure path and expansion-bound work show. The set-up runs one
//! reference sweep; every timed sweep must reproduce its frontiers and
//! its scored/skipped counts.

use super::{full, shuffle, Compiler, Measured, Timing, Workload};
use crate::gauge::Gauge;
use crate::median;
use roccc::CompileOptions;
use roccc_explore::{explore, CompileFn, ExploreConfig, ExploreStats, Memo, Space};
use roccc_testutil::XorShift64;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const KERNELS: [&str; 3] = ["fir", "dct", "wavelet"];

/// A candidate compile: kernel function and canonical option bytes.
type Candidate = (String, Vec<u8>);

thread_local! {
    /// The gauge of the explore worker thread running the hook.
    static WORKER_GAUGE: RefCell<Gauge> = RefCell::new(Gauge::default());
}

struct Kernel {
    source: String,
    func: &'static str,
    base: CompileOptions,
    /// Counts and frontier labels of the reference sweep.
    reference: (ExploreStats, Vec<String>),
}

pub struct ExploreSweep {
    rng: XorShift64,
    space: Space,
    kernels: Vec<Kernel>,
}

/// What a sweep of one kernel must reproduce.
fn outcome(k: &Kernel, space: &Space, compiler: Option<CompileFn>) -> (ExploreStats, Vec<String>) {
    let cfg = ExploreConfig {
        workers: 2,
        budget_slices: None,
        beam: None,
        compiler,
    };
    let r = explore(&k.source, k.func, &k.base, space, &cfg, &Memo::new());
    let frontier = r
        .frontier
        .iter()
        .map(|&i| r.reports[i].candidate.label())
        .collect();
    (r.stats, frontier)
}

impl ExploreSweep {
    /// Runs the reference sweep with the library compiler.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let space = Space::new(&[1, 2, 3, 4, 6, 8], &[0, 2, 4, 8], false);
        let mut kernels = Vec::new();
        for b in roccc_ipcores::benchmarks() {
            if !KERNELS.contains(&b.name) {
                continue;
            }
            let mut k = Kernel {
                source: b.source,
                func: b.func,
                base: full(&b.opts),
                reference: Default::default(),
            };
            k.reference = outcome(&k, &space, None);
            if k.reference.1.is_empty() {
                return Err(format!("{}: empty reference frontier", b.name));
            }
            kernels.push(k);
        }
        Ok(ExploreSweep {
            rng: XorShift64::new(seed),
            space,
            kernels,
        })
    }
}

impl Workload for ExploreSweep {
    fn measure(&mut self, compiler: &Compiler, seconds: f64, gauge: &mut Gauge) -> Measured {
        let mut m = Measured::default();
        // `(candidate, raw, reference-speed)` time of every candidate
        // compile, recorded by the compiler hook on the worker thread that
        // ran it.
        let candidates_ms: Arc<Mutex<Vec<(Candidate, f64, f64)>>> = Arc::default();
        let hook: CompileFn = {
            let compiler = compiler.clone();
            let candidates_ms = Arc::clone(&candidates_ms);
            Arc::new(move |source: &str, func: &str, opts: &CompileOptions| {
                let scale = WORKER_GAUGE.with(|g| {
                    let mut g = g.borrow_mut();
                    g.tick();
                    g.scale()
                });
                let t0 = Instant::now();
                let out = compiler.compile_timed(source, func, opts);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let candidate = (func.to_string(), opts.canonical_bytes());
                candidates_ms.lock().expect("sample list poisoned").push((
                    candidate,
                    ms,
                    ms * scale,
                ));
                out
            })
        };

        // The set-up's reference sweep doubles as the warm-up.
        let (mut sweeps_raw, mut sweeps_scaled) = (Vec::new(), Vec::new());
        let mut order: Vec<usize> = (0..self.kernels.len()).collect();
        let start = Instant::now();
        while !super::done(start, seconds, sweeps_raw.len()) {
            shuffle(&mut self.rng, &mut order);
            let first = candidates_ms.lock().expect("sample list poisoned").len();
            let mut sweep_ms = 0.0;
            let mut outcomes = Vec::new();
            for &i in &order {
                let t0 = Instant::now();
                outcomes.push(outcome(
                    &self.kernels[i],
                    &self.space,
                    Some(Arc::clone(&hook)),
                ));
                sweep_ms += t0.elapsed().as_secs_f64() * 1e3;
                gauge.tick();
            }
            // The sweep runs on both workers, so its scale is the
            // time-weighted mean of its candidates' scales. The slowest
            // candidates take most of a second, over which the host flips
            // speed several times, so each candidate then takes the
            // sweep's scale too: scaled by the gauge sampled just before
            // it, the slowest one spread by 0.10 over ten runs.
            let mut compiles = candidates_ms.lock().expect("sample list poisoned");
            let (raw, scaled) = compiles[first..]
                .iter()
                .fold((0.0, 0.0), |acc, c| (acc.0 + c.1, acc.1 + c.2));
            for c in &mut compiles[first..] {
                c.2 = c.1 * scaled / raw;
            }
            drop(compiles);
            sweeps_raw.push(sweep_ms);
            sweeps_scaled.push(sweep_ms * scaled / raw);
            m.attempted += 1;
            let mut ok = true;
            for (&i, got) in order.iter().zip(outcomes) {
                let k = &self.kernels[i];
                if got != k.reference {
                    ok = false;
                    m.note(format!(
                        "{}: sweep gave {:?}, reference {:?}",
                        k.func, got, k.reference
                    ));
                }
            }
            m.failed += u64::from(!ok);
        }

        let candidates: usize = self.kernels.iter().map(|k| k.reference.0.candidates).sum();
        let compiles = candidates_ms.lock().expect("sample list poisoned");
        // The slowest kind of op is the candidate whose compile has the
        // highest median over the sweeps.
        let timing = |sweeps: &[f64], time: fn(&(Candidate, f64, f64)) -> f64| {
            let mut by_candidate: BTreeMap<&Candidate, Vec<f64>> = BTreeMap::new();
            for c in compiles.iter() {
                by_candidate.entry(&c.0).or_default().push(time(c));
            }
            let latency_ms = median(sweeps);
            Timing {
                latency_ms,
                worst_ms: by_candidate
                    .values()
                    .map(|t| median(t))
                    .fold(f64::NAN, f64::max),
                throughput_per_s: candidates as f64 / (latency_ms / 1e3),
            }
        };
        m.timing = timing(&sweeps_scaled, |c| c.2);
        m.raw = timing(&sweeps_raw, |c| c.1);
        m.op_ms = compiles.iter().map(|c| c.1).collect();
        let stat = |f: fn(&ExploreStats) -> usize| {
            self.kernels
                .iter()
                .map(|k| f(&k.reference.0))
                .sum::<usize>() as f64
        };
        m.extras.extend([
            ("explore.candidates".to_string(), candidates as f64, "count"),
            ("explore.scored".to_string(), stat(|s| s.scored), "count"),
            ("explore.skipped".to_string(), stat(|s| s.skipped), "count"),
            (
                "explore.frontier".to_string(),
                self.kernels
                    .iter()
                    .map(|k| k.reference.1.len())
                    .sum::<usize>() as f64,
                "count",
            ),
            (
                "explore.candidate_p50_ms".to_string(),
                median(&m.op_ms),
                "ms",
            ),
        ]);
        m
    }
}
