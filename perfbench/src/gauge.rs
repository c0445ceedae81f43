//! Host speed gauge.
//!
//! Shared virtual machines change speed underneath a run: on the 2-vCPU host
//! this benchmark was built on, each vCPU flips between two speeds every
//! 0.1–1 s, and the slowdown is in the memory system (a compile took 1.5
//! or 2.4 ms, a pure-ALU loop barely moved). The gauge is a fixed
//! allocation- and pointer-heavy routine (ordered-map inserts of
//! formatted strings), independent of every crate the benchmark measures.
//!
//! A thread samples its own gauge between its own ops, at most every
//! 25 ms, never inside an op's timed region, and scales each op by
//! [`REFERENCE_MS`] ÷ the median of its last three samples, so the gauge
//! sees the vCPU state the op ran in. `perfbench/README.md` lists which
//! figures are scaled and the spreads that decided it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Gauge time that defines reference speed.
pub const REFERENCE_MS: f64 = 1.0;

/// Minimum spacing of samples taken by [`Gauge::tick`].
const TICK_MS: f64 = 25.0;

/// Runs the gauge routine once and returns its wall time in ms.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 1u64;
    for i in 0..2000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 1_000_000, format!("v{i}"));
    }
    let values: Vec<String> = map.values().cloned().collect();
    std::hint::black_box(values);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Gauge samples taken by one thread.
#[derive(Debug, Default)]
pub struct Gauge {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Gauge {
    /// Takes `n` samples now.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.samples.push(sample());
        }
        self.last = Some(Instant::now());
    }

    /// Takes one sample unless one was taken in the last 25 ms. Call it
    /// between ops, outside their timed regions.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() * 1e3 >= TICK_MS)
        {
            self.burst(1);
        }
    }

    /// The factor that converts a time measured on this thread just now
    /// to reference speed: [`REFERENCE_MS`] ÷ the median of the last
    /// three samples (1 before the first sample).
    pub fn scale(&self) -> f64 {
        let recent = &self.samples[self.samples.len().saturating_sub(3)..];
        if recent.is_empty() {
            1.0
        } else {
            REFERENCE_MS / crate::median(recent)
        }
    }

    /// Runs `f`, with bursts of three samples just before and after it,
    /// and returns its result with its time in seconds, raw and at
    /// reference speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        self.burst(3);
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        self.burst(3);
        let around = &self.samples[self.samples.len() - 6..];
        let scaled = raw * REFERENCE_MS / crate::median(around);
        (out, raw, scaled)
    }

    /// Median of every sample, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::median(&self.samples)
    }

    /// Time spent sampling, in ms.
    pub fn total_ms(&self) -> f64 {
        self.samples.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_last_three_samples() {
        let mut g = Gauge::default();
        assert_eq!(g.scale(), 1.0);
        g.tick();
        assert_eq!(g.samples.len(), 1, "the first tick samples");
        g.samples.extend([4.0, 4.0, 2.0]);
        assert_eq!(g.scale(), REFERENCE_MS / 4.0);
        let (v, raw, scaled) = g.time(|| 7);
        assert_eq!(v, 7);
        assert!(raw >= 0.0 && scaled >= 0.0 && scaled.is_finite());
        assert!(g.median_ms() > 0.0);
        assert!(g.total_ms() >= 4.0 + 4.0 + 2.0);
    }
}
