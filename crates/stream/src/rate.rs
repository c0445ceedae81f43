//! Produce/consume rate extraction from compiled kernels.
//!
//! A streaming channel between two kernels is only as deep as it needs
//! to be. The producer's side of a channel is fully determined by the
//! kernel's loop nest and store indices: every firing pushes one fixed
//! *burst* of elements at statically known flat addresses, in firing
//! order. Because the consumer ingests the array in flat address order,
//! the channel is an **in-order-commit reorder buffer**: an element
//! becomes visible (commits) only once every lower flat address has
//! either been produced or is statically never written (those commit as
//! zeros, matching the zero-initialized output BRAMs of the
//! single-kernel system simulation).
//!
//! The deadlock-free minimum depth falls out of replaying the store
//! address sequence against that commit rule:
//!
//! ```text
//! min_depth = max over firings of (uncommitted elements before the
//!             firing) + burst
//! ```
//!
//! — i.e. the worst-case reorder span plus one in-flight burst. Any
//! shallower and the producer eventually blocks on a full FIFO whose
//! head slot cannot commit until a *later* write arrives: deadlock. The
//! derived depth adds one beat of headroom:
//! `depth = min_depth + max(burst, bus_elems)`.
//!
//! When the store indices are not statically enumerable (a constant
//! index, or a store that does not walk every loop dimension), the
//! analysis falls back to `depth = len` — a whole-array buffer can never
//! deadlock — and flags the channel (`P005-nonstatic-rate`).

use roccc_buffers::addr::OutputAddressGen;
use roccc_hlir::kernel::{Kernel, OutputSpec, WindowSpec};
use roccc_netlist::{store_addr_gens, window_scan};

use crate::StreamError;

/// Statically derived production pattern of one stage output array.
#[derive(Debug, Clone)]
pub struct ProduceRate {
    /// Output array name.
    pub array: String,
    /// Flat element count of the declared array.
    pub len: usize,
    /// Element width in bits.
    pub elem_bits: u8,
    /// Elements pushed per firing.
    pub burst: usize,
    /// Whether the store addresses were statically enumerable. When
    /// false, `min_depth == len` (conservative whole-array fallback).
    pub static_rates: bool,
    /// Deadlock-free minimum FIFO depth (reorder span + one burst).
    pub min_depth: usize,
    /// Which flat addresses are ever written; unwritten addresses commit
    /// as zeros. All-true under the non-static fallback.
    pub write_mask: Vec<bool>,
    /// Total firings that produce into this array.
    pub total_firings: u64,
}

/// Statically derived consumption pattern of one stage input window.
#[derive(Debug, Clone)]
pub struct ConsumeRate {
    /// Input array name.
    pub array: String,
    /// Flat element count of the declared array.
    pub len: usize,
    /// Element width in bits.
    pub elem_bits: u8,
    /// First flat address the window scan touches (earlier addresses are
    /// popped and discarded).
    pub first_addr: i64,
    /// Elements per staged window.
    pub window_elems: usize,
}

/// Rate summary of one compiled stage, in kernel port order.
#[derive(Debug, Clone, Default)]
pub struct StageRates {
    /// One entry per output array.
    pub produces: Vec<ProduceRate>,
    /// One entry per input window.
    pub consumes: Vec<ConsumeRate>,
    /// Pipeline latency of the stage's data path, in cycles.
    pub latency: u32,
}

/// The store address generators of `out` (the system simulation's own,
/// [`store_addr_gens`]) when every write fires once per iteration, the
/// shape a channel streams.
///
/// # Errors
///
/// A human-readable reason when the store pattern is not statically
/// enumerable (constant index, unknown loop variable, or a store that
/// does not fire once per iteration).
pub fn output_addr_gens(
    kernel: &Kernel,
    out: &OutputSpec,
) -> Result<Vec<OutputAddressGen>, String> {
    let gens = store_addr_gens(kernel, out).map_err(|e| e.0)?;
    if gens.is_empty() {
        return Err(format!("output `{}` has no writes", out.array));
    }
    let iterations = kernel.total_iterations();
    if let Some(gen) = gens.iter().find(|g| g.total() != iterations) {
        return Err(format!(
            "store into `{}` does not fire once per iteration ({} stores, {iterations} iterations)",
            out.array,
            gen.total(),
        ));
    }
    Ok(gens)
}

/// Derives the production pattern of `out`, including the deadlock-free
/// minimum FIFO depth. Never fails: statically underivable patterns take
/// the conservative whole-array fallback.
pub fn produce_rate(kernel: &Kernel, out: &OutputSpec) -> ProduceRate {
    let len: usize = out.dims.iter().product::<usize>().max(1);
    let burst = out.writes.len().max(1);
    match output_addr_gens(kernel, out) {
        Err(_) => ProduceRate {
            array: out.array.clone(),
            len,
            elem_bits: out.elem.bits,
            burst,
            static_rates: false,
            min_depth: len,
            write_mask: vec![true; len],
            total_firings: kernel.total_iterations(),
        },
        Ok(mut gens) => {
            // Enumerate the full address sequence once for the mask…
            let mut write_mask = vec![false; len];
            let mut seqs: Vec<Vec<i64>> = Vec::with_capacity(gens.len());
            for gen in &mut gens {
                let addrs: Vec<i64> = gen.collect();
                for &a in &addrs {
                    if a >= 0 && (a as usize) < len {
                        write_mask[a as usize] = true;
                    }
                }
                seqs.push(addrs);
            }
            // …then replay firings against the in-order commit rule.
            let firings = seqs[0].len();
            let mut produced = vec![false; len];
            let mut commit = 0usize;
            let mut occupancy = 0usize; // produced but uncommitted
            let mut min_depth = burst;
            for k in 0..firings {
                min_depth = min_depth.max(occupancy + burst);
                for seq in &seqs {
                    let a = seq[k];
                    if a >= 0 && (a as usize) < len && !produced[a as usize] {
                        produced[a as usize] = true;
                        occupancy += 1;
                    }
                }
                while commit < len && (!write_mask[commit] || produced[commit]) {
                    if produced[commit] {
                        occupancy -= 1;
                    }
                    commit += 1;
                }
            }
            ProduceRate {
                array: out.array.clone(),
                len,
                elem_bits: out.elem.bits,
                burst,
                static_rates: true,
                min_depth,
                write_mask,
                total_firings: firings as u64,
            }
        }
    }
}

/// Derives the consumption pattern of window `w` from the scan the system
/// driver runs ([`window_scan`]).
///
/// # Errors
///
/// [`StreamError::Spec`] when the window has no static scan: no reads, a
/// constant or unknown index variable, more than two dimensions, or a
/// read with no input port.
pub fn consume_rate(kernel: &Kernel, w: &WindowSpec) -> Result<ConsumeRate, StreamError> {
    let scan = window_scan(kernel, w).map_err(|e| StreamError::Spec(e.0))?;
    // First flat address: the scan's first position in each dimension,
    // folded row-major.
    let first_addr = scan
        .dims
        .iter()
        .fold(0, |addr, d| addr * scan.row_width as i64 + d.start);
    Ok(ConsumeRate {
        array: w.array.clone(),
        len: w.dims.iter().product::<usize>().max(1),
        elem_bits: w.elem.bits,
        first_addr,
        window_elems: w.extent().iter().product(),
    })
}

/// Derives the full rate summary of a compiled stage.
///
/// # Errors
///
/// [`StreamError::Spec`] when an input window has no static scan
/// ([`consume_rate`]).
pub fn stage_rates(kernel: &Kernel, latency: u32) -> Result<StageRates, StreamError> {
    Ok(StageRates {
        produces: kernel
            .outputs
            .iter()
            .map(|o| produce_rate(kernel, o))
            .collect(),
        consumes: kernel
            .windows
            .iter()
            .map(|w| consume_rate(kernel, w))
            .collect::<Result<_, _>>()?,
        latency,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use roccc::{compile, CompileOptions};

    #[test]
    fn fir_produces_in_order_min_depth_is_one_burst() {
        let src = "void fir(int A[21], int C[17]) { int i;
          for (i = 0; i < 17; i = i + 1) {
            C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]; } }";
        let hw = compile(src, "fir", &CompileOptions::default()).unwrap();
        let r = produce_rate(&hw.kernel, &hw.kernel.outputs[0]);
        assert!(r.static_rates);
        assert_eq!(r.burst, 1);
        // In-order single writes: one slot of reorder, one burst.
        assert_eq!(r.min_depth, 1);
        // Elements 17..20 of C[17]? No: C has exactly 17 elements, all written.
        assert!(r.write_mask.iter().all(|&m| m));
        let c = consume_rate(&hw.kernel, &hw.kernel.windows[0]).unwrap();
        assert_eq!(c.first_addr, 0);
        assert_eq!(c.window_elems, 5);
        assert_eq!(c.len, 21);
    }

    #[test]
    fn wavelet_interleaved_rows_need_a_row_span() {
        let src = "void wavelet(int16 X[16][16], int16 Y[16][16]) {
          int i; int j;
          for (i = 0; i < 10; i = i + 2) {
            for (j = 0; j < 10; j = j + 2) {
              int a = X[i][j]; int b = X[i][j+1];
              int c = X[i+1][j]; int d = X[i+1][j+1];
              Y[i][j] = (a + b + c + d) / 4;
              Y[i][j+1] = (a - b + c - d) / 4;
              Y[i+1][j] = (a + b - c - d) / 4;
              Y[i+1][j+1] = (a - b - c + d) / 4; } } }";
        let hw = compile(src, "wavelet", &CompileOptions::default()).unwrap();
        let r = produce_rate(&hw.kernel, &hw.kernel.outputs[0]);
        assert!(r.static_rates);
        assert_eq!(r.burst, 4);
        // Row i+1 elements pile up until row i (plus its zero-filled
        // tail) commits: the span is at least one produced row band.
        assert!(r.min_depth > 10, "min_depth = {}", r.min_depth);
        assert!(r.min_depth <= 2 * 16 + 4, "min_depth = {}", r.min_depth);
        // Rows 10..15 and cols 10..15 are never written.
        assert!(!r.write_mask[15]);
        assert!(r.write_mask[0]);
        assert_eq!(r.total_firings, 25);
    }

    #[test]
    fn two_d_consumer_first_addr_is_window_origin() {
        let src = "void wavelet(int16 X[16][16], int16 Y[16][16]) {
          int i; int j;
          for (i = 0; i < 10; i = i + 2) {
            for (j = 0; j < 10; j = j + 2) {
              Y[i][j] = X[i][j] + X[i+1][j+1];
              Y[i][j+1] = X[i][j] - X[i+1][j+1];
              Y[i+1][j] = X[i][j];
              Y[i+1][j+1] = X[i+1][j+1]; } } }";
        let hw = compile(src, "wavelet", &CompileOptions::default()).unwrap();
        let c = consume_rate(&hw.kernel, &hw.kernel.windows[0]).unwrap();
        assert_eq!(c.first_addr, 0);
        assert_eq!(c.len, 256);
    }
}
