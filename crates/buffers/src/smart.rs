//! The smart buffer (§4.1, and reference \[18\] of the paper).
//!
//! "ROCCC … automatically generates an intelligent buffer, called smart
//! buffer, based on the bus size, window size, data size and sliding-window
//! stride. This buffer unit is able to reuse live input data, clean unused
//! data and export the present valid input data set to the data path."
//!
//! Two variants are modeled: [`SmartBuffer1d`] for vector scans (FIR,
//! accumulator) and [`SmartBuffer2d`] for image scans (wavelet): the 2-D
//! buffer keeps `window_rows − 1` full row lines plus a register window,
//! the standard line-buffer structure.

use std::collections::VecDeque;

/// Reuse statistics common to both buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Words accepted from memory.
    pub fetched: u64,
    /// Windows exported to the data path.
    pub windows: u64,
}

impl BufferStats {
    /// Words a naive (no-reuse) implementation would have fetched.
    pub fn naive_fetches(&self, window_elems: u64) -> u64 {
        self.windows * window_elems
    }

    /// Reuse factor: naive fetches ÷ actual fetches.
    pub fn reuse_factor(&self, window_elems: u64) -> f64 {
        if self.fetched == 0 {
            return 1.0;
        }
        self.naive_fetches(window_elems) as f64 / self.fetched as f64
    }
}

/// 1-D sliding-window smart buffer.
///
/// The live elements are one dense run of slots starting at index
/// `base`; a slot is `None` until its word arrives (scans with stride
/// larger than the window skip elements).
#[derive(Debug, Clone)]
pub struct SmartBuffer1d {
    window: usize,
    stride: usize,
    /// `buf[k]` holds element `base + k`.
    buf: VecDeque<Option<i64>>,
    base: i64,
    /// Index of the next window's first element.
    next_start: i64,
    stats: BufferStats,
}

impl SmartBuffer1d {
    /// Creates a buffer for `window` elements sliding by `stride`,
    /// starting at element index `start`.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize, start: i64) -> Self {
        assert!(
            window > 0 && stride > 0,
            "window and stride must be positive"
        );
        SmartBuffer1d {
            window,
            stride,
            buf: VecDeque::new(),
            base: start,
            next_start: start,
            stats: BufferStats::default(),
        }
    }

    /// Register capacity of the hardware buffer (elements).
    pub fn capacity_elems(&self) -> usize {
        // Window registers plus up to stride−1 staging slots.
        self.window + self.stride.saturating_sub(1)
    }

    /// Accepts one word from memory (indices arrive in increasing order;
    /// indices below the next window are discarded — "clean unused
    /// data"). Should an index arrive twice, the first word is kept.
    pub fn push(&mut self, index: i64, value: i64) {
        self.stats.fetched += 1;
        if index < self.next_start {
            return;
        }
        if self.buf.is_empty() {
            self.base = index;
        }
        while index < self.base {
            self.buf.push_front(None);
            self.base -= 1;
        }
        let k = (index - self.base) as usize;
        if k >= self.buf.len() {
            self.buf.resize(k + 1, None);
        }
        self.buf[k].get_or_insert(value);
    }

    /// Exports the next window if all of its elements are present,
    /// sliding forward by the stride and retiring dead elements (an
    /// allocating convenience over [`SmartBuffer1d::pop_window_into`]).
    pub fn pop_window(&mut self) -> Option<Vec<i64>> {
        let mut out = vec![0; self.window];
        self.pop_window_into(&mut out).then_some(out)
    }

    /// Reuse statistics so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Writes the next window into `out` if all of its elements are
    /// present, sliding forward by the stride and retiring dead elements.
    /// Returns whether a window was written.
    pub fn pop_window_into(&mut self, out: &mut [i64]) -> bool {
        let dead = (self.next_start - self.base).clamp(0, self.buf.len() as i64) as usize;
        self.buf.drain(..dead);
        self.base += dead as i64;
        // Every live slot now sits at or above the window start.
        if self.base != self.next_start || self.buf.len() < self.window {
            return false;
        }
        for (o, slot) in out.iter_mut().zip(self.buf.range(..self.window)) {
            match slot {
                Some(v) => *o = *v,
                None => return false,
            }
        }
        self.next_start += self.stride as i64;
        self.stats.windows += 1;
        true
    }
}

/// 2-D sliding-window smart buffer (line buffer).
///
/// Live rows are a deque of dense lines starting at row `base_row`; each
/// line covers the columns some window reads, `col_start ..
/// col_start + line_len`. Rows below the next window are evicted as
/// words arrive and their storage is reused for new rows.
#[derive(Debug, Clone)]
pub struct SmartBuffer2d {
    win_rows: usize,
    win_cols: usize,
    stride_r: usize,
    stride_c: usize,
    /// First column a window reads; column `c` lives at `c - col_start`.
    col_start: i64,
    /// Columns per line: every column any window reads.
    line_len: usize,
    row_width: usize,
    /// `lines[k]` holds row `base_row + k`; a slot is `None` until its
    /// word arrives.
    lines: VecDeque<Vec<Option<i64>>>,
    base_row: i64,
    /// Storage of evicted lines, reused for new rows.
    spare: Vec<Vec<Option<i64>>>,
    /// Next window position (top-left corner).
    next_r: i64,
    next_c: i64,
    /// Window-position bounds.
    row_bound: i64,
    col_bound: i64,
    stats: BufferStats,
}

impl SmartBuffer2d {
    /// Creates a line buffer for `win_rows × win_cols` windows sliding by
    /// `(stride_r, stride_c)` over window positions
    /// `rows ∈ [row_start, row_bound)`, `cols ∈ [col_start, col_bound)` of
    /// an array with `row_width` columns.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        win_rows: usize,
        win_cols: usize,
        stride_r: usize,
        stride_c: usize,
        row_start: i64,
        row_bound: i64,
        col_start: i64,
        col_bound: i64,
        row_width: usize,
    ) -> Self {
        assert!(win_rows > 0 && win_cols > 0 && stride_r > 0 && stride_c > 0);
        // The first window of a row band sits at `col_start` even when
        // the bound is empty; the last one starts below `col_bound`.
        let last_col = (col_bound - 1).max(col_start) + win_cols as i64 - 1;
        SmartBuffer2d {
            win_rows,
            win_cols,
            stride_r,
            stride_c,
            col_start,
            line_len: (last_col - col_start + 1) as usize,
            row_width,
            lines: VecDeque::new(),
            base_row: row_start,
            spare: Vec::new(),
            next_r: row_start,
            next_c: col_start,
            row_bound,
            col_bound,
            stats: BufferStats::default(),
        }
    }

    /// Hardware storage: `win_rows − 1` full line buffers (BRAM or SRL)
    /// plus a `win_rows × win_cols` register window.
    pub fn line_buffer_words(&self) -> usize {
        (self.win_rows - 1) * self.row_width + self.win_rows * self.win_cols
    }

    /// Accepts one word (flat row-major address).
    pub fn push_flat(&mut self, flat: i64, value: i64) {
        let r = flat / self.row_width as i64;
        let c = flat % self.row_width as i64;
        self.push(r, c, value);
    }

    /// Accepts one word by coordinates. Data must stream row-major; a
    /// later word for the same element replaces the earlier one.
    pub fn push(&mut self, row: i64, col: i64, value: i64) {
        self.stats.fetched += 1;
        // Clean rows that no future window touches; a word whose row is
        // already dead is dropped on arrival.
        while self.base_row < self.next_r {
            let Some(line) = self.lines.pop_front() else {
                break;
            };
            self.spare.push(line);
            self.base_row += 1;
        }
        if row < self.next_r {
            return;
        }
        let Some(c) = usize::try_from(col - self.col_start)
            .ok()
            .filter(|&c| c < self.line_len)
        else {
            return; // no window reads this column
        };
        if self.lines.is_empty() {
            self.base_row = row;
        }
        while row < self.base_row {
            let line = self.fresh_line();
            self.lines.push_front(line);
            self.base_row -= 1;
        }
        while row >= self.base_row + self.lines.len() as i64 {
            let line = self.fresh_line();
            self.lines.push_back(line);
        }
        self.lines[(row - self.base_row) as usize][c] = Some(value);
    }

    /// An empty line, reusing evicted storage when there is some.
    fn fresh_line(&mut self) -> Vec<Option<i64>> {
        match self.spare.pop() {
            Some(mut line) => {
                line.fill(None);
                line
            }
            None => vec![None; self.line_len],
        }
    }

    /// Exports the next window (row-major within the window) if complete
    /// (an allocating convenience over [`SmartBuffer2d::pop_window_into`]).
    pub fn pop_window(&mut self) -> Option<Vec<i64>> {
        let mut out = vec![0; self.win_rows * self.win_cols];
        self.pop_window_into(&mut out).then_some(out)
    }

    /// Reuse statistics so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Writes the next window (row-major within the window) into `out`
    /// if it is complete, sliding forward by the stride. Returns whether
    /// a window was written.
    pub fn pop_window_into(&mut self, out: &mut [i64]) -> bool {
        if self.next_r >= self.row_bound {
            return false;
        }
        let Ok(top) = usize::try_from(self.next_r - self.base_row) else {
            return false;
        };
        if top + self.win_rows > self.lines.len() {
            return false;
        }
        let left = (self.next_c - self.col_start) as usize;
        let rows = self.lines.range(top..top + self.win_rows);
        for (line, out_row) in rows.zip(out.chunks_exact_mut(self.win_cols)) {
            for (o, slot) in out_row.iter_mut().zip(&line[left..left + self.win_cols]) {
                match slot {
                    Some(v) => *o = *v,
                    None => return false,
                }
            }
        }
        // Advance column-major-within-row scan of window positions.
        self.next_c += self.stride_c as i64;
        if self.next_c >= self.col_bound {
            self.next_c = self.col_start;
            self.next_r += self.stride_r as i64;
        }
        self.stats.windows += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddressGen1d, AddressGen2d, DimScan};

    #[test]
    fn fir_windows_stream_with_full_reuse() {
        // The paper's FIR: 5-wide window, stride 1, 17 positions.
        let scan = DimScan {
            start: 0,
            bound: 17,
            step: 1,
            extent: 5,
        };
        let data: Vec<i64> = (0..21).map(|x| x * x).collect();
        let mut sb = SmartBuffer1d::new(5, 1, 0);
        let mut windows = Vec::new();
        for addr in AddressGen1d::new(scan) {
            sb.push(addr, data[addr as usize]);
            while let Some(w) = sb.pop_window() {
                windows.push(w);
            }
        }
        assert_eq!(windows.len(), 17);
        for (i, w) in windows.iter().enumerate() {
            let expect: Vec<i64> = (i..i + 5).map(|k| data[k]).collect();
            assert_eq!(*w, expect, "window {i}");
        }
        let stats = sb.stats();
        assert_eq!(stats.fetched, 21);
        assert_eq!(stats.naive_fetches(5), 85);
        assert!((stats.reuse_factor(5) - 85.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn stride_two_cleans_dead_data() {
        let scan = DimScan {
            start: 0,
            bound: 8,
            step: 2,
            extent: 3,
        };
        let data: Vec<i64> = (0..10).collect();
        let mut sb = SmartBuffer1d::new(3, 2, 0);
        let mut windows = Vec::new();
        for addr in AddressGen1d::new(scan) {
            sb.push(addr, data[addr as usize]);
            while let Some(w) = sb.pop_window() {
                windows.push(w);
            }
        }
        assert_eq!(
            windows,
            vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6], vec![6, 7, 8]]
        );
    }

    #[test]
    fn window_of_one_is_plain_streaming() {
        let scan = DimScan {
            start: 0,
            bound: 4,
            step: 1,
            extent: 1,
        };
        let mut sb = SmartBuffer1d::new(1, 1, 0);
        let mut out = Vec::new();
        for addr in AddressGen1d::new(scan) {
            sb.push(addr, addr * 10);
            while let Some(w) = sb.pop_window() {
                out.push(w[0]);
            }
        }
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(sb.stats().reuse_factor(1), 1.0);
    }

    #[test]
    fn capacity_matches_window_plus_staging() {
        assert_eq!(SmartBuffer1d::new(5, 1, 0).capacity_elems(), 5);
        assert_eq!(SmartBuffer1d::new(3, 2, 0).capacity_elems(), 4);
    }

    #[test]
    fn two_d_wavelet_style_windows() {
        // 2×2 window, stride 2 in both dims (the (5,3) wavelet's decimating
        // scan shape), over an 8×8 image.
        let rows = DimScan {
            start: 0,
            bound: 8,
            step: 2,
            extent: 2,
        };
        let cols = rows;
        let img: Vec<i64> = (0..64).collect();
        let mut sb = SmartBuffer2d::new(2, 2, 2, 2, 0, 8, 0, 8, 8);
        let mut windows = Vec::new();
        for flat in AddressGen2d::new(rows, cols, 8) {
            sb.push_flat(flat, img[flat as usize]);
            while let Some(w) = sb.pop_window() {
                windows.push(w);
            }
        }
        assert_eq!(windows.len(), 16);
        // First window: elements (0,0),(0,1),(1,0),(1,1) = 0,1,8,9.
        assert_eq!(windows[0], vec![0, 1, 8, 9]);
        // Next in the same row band: 2,3,10,11.
        assert_eq!(windows[1], vec![2, 3, 10, 11]);
        // First of the second band: 16,17,24,25.
        assert_eq!(windows[4], vec![16, 17, 24, 25]);
        // Full reuse: every element fetched exactly once.
        assert_eq!(sb.stats().fetched, 64);
        assert_eq!(sb.stats().naive_fetches(4), 64);
    }

    #[test]
    fn two_d_overlapping_windows_reuse() {
        // 3×3 window, stride 1 over a 6×6 image: classic image filter.
        let rows = DimScan {
            start: 0,
            bound: 4,
            step: 1,
            extent: 3,
        };
        let cols = rows;
        let img: Vec<i64> = (0..36).map(|x| x * 7 % 23).collect();
        let mut sb = SmartBuffer2d::new(3, 3, 1, 1, 0, 4, 0, 4, 6);
        let mut count = 0u64;
        for flat in AddressGen2d::new(rows, cols, 6) {
            sb.push_flat(flat, img[flat as usize]);
            while let Some(w) = sb.pop_window() {
                // Spot-check center element of the window.
                assert_eq!(w.len(), 9);
                count += 1;
            }
        }
        assert_eq!(count, 16);
        let stats = sb.stats();
        assert_eq!(stats.fetched, 36);
        // Naive would fetch 16 × 9 = 144 words: 4× reuse.
        assert_eq!(stats.naive_fetches(9), 144);
        assert!(stats.reuse_factor(9) > 3.9);
    }

    #[test]
    fn line_buffer_capacity() {
        let sb = SmartBuffer2d::new(3, 3, 1, 1, 0, 4, 0, 4, 64);
        // Two full lines of 64 plus the 3×3 window registers.
        assert_eq!(sb.line_buffer_words(), 2 * 64 + 9);
    }
}
