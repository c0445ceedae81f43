//! Address generators.
//!
//! "The controllers include address generators, which export a series of
//! memory addresses according to the memory access pattern" (§4.1). Each
//! generator is a small parameterized iterator-FSM that walks exactly the
//! addresses a window scan touches — every needed word once, in streaming
//! order, so the smart buffer can exploit reuse.

/// Scan parameters for one loop dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimScan {
    /// First window position.
    pub start: i64,
    /// Exclusive bound on window positions.
    pub bound: i64,
    /// Stride between consecutive window positions.
    pub step: i64,
    /// Window extent in this dimension (elements per window).
    pub extent: usize,
}

impl DimScan {
    /// Number of window positions.
    pub fn positions(&self) -> u64 {
        if self.step <= 0 || self.bound <= self.start {
            return 0;
        }
        ((self.bound - self.start + self.step - 1) / self.step) as u64
    }

    /// Index of the last element touched.
    pub fn last_touched(&self) -> i64 {
        let n = self.positions();
        if n == 0 {
            return self.start - 1;
        }
        self.start + (n as i64 - 1) * self.step + self.extent as i64 - 1
    }
}

/// Input address generator for a 1-D window scan: yields each needed
/// element address exactly once, in increasing order, skipping elements no
/// window touches (stride larger than the window extent).
///
/// ```
/// use roccc_buffers::addr::{AddressGen1d, DimScan};
///
/// // 5-tap FIR over 17 positions (the paper's Figure 3): elements 0..=20.
/// let gen = AddressGen1d::new(DimScan { start: 0, bound: 17, step: 1, extent: 5 });
/// let addrs: Vec<i64> = gen.collect();
/// assert_eq!(addrs, (0..=20).collect::<Vec<i64>>());
/// ```
#[derive(Debug, Clone)]
pub struct AddressGen1d {
    scan: DimScan,
    /// Window positions of the scan.
    positions: u64,
    /// Current window position and its first address.
    pos: u64,
    base: i64,
    /// Highest address already emitted (+1), for reuse skipping.
    next_fresh: i64,
    done: bool,
}

impl AddressGen1d {
    /// Creates the generator.
    pub fn new(scan: DimScan) -> Self {
        let positions = scan.positions();
        AddressGen1d {
            scan,
            positions,
            pos: 0,
            base: scan.start,
            next_fresh: i64::MIN,
            done: positions == 0,
        }
    }

    /// Total addresses this generator will emit.
    pub fn total(&self) -> u64 {
        let mut c = self.clone();
        let mut n = 0;
        while c.next().is_some() {
            n += 1;
        }
        n
    }
}

impl Iterator for AddressGen1d {
    type Item = i64;

    /// The first address of the current window an earlier (overlapping)
    /// window has not fetched; once the window has none left, the next
    /// window's. A call moves at most one window on unless the extent is
    /// zero.
    fn next(&mut self) -> Option<i64> {
        while !self.done {
            let addr = self.base.max(self.next_fresh);
            if addr < self.base + self.scan.extent as i64 {
                self.next_fresh = addr + 1;
                return Some(addr);
            }
            self.pos += 1;
            self.base += self.scan.step;
            self.done = self.pos >= self.positions;
        }
        None
    }
}

/// Input address generator for a 2-D row-major window scan: streams, row
/// by row, every element of the rows any window touches — each flat
/// address exactly once.
#[derive(Debug, Clone)]
pub struct AddressGen2d {
    rows: DimScan,
    cols: DimScan,
    row_width: usize,
    /// Last row and column any window touches.
    row_last: i64,
    col_last: i64,
    cur_row: i64,
    cur_col: i64,
    done: bool,
}

impl AddressGen2d {
    /// Creates the generator for windows scanning `rows` × `cols` of an
    /// array `row_width` words wide (flat row-major layout).
    pub fn new(rows: DimScan, cols: DimScan, row_width: usize) -> Self {
        let done = rows.positions() == 0 || cols.positions() == 0;
        AddressGen2d {
            cur_row: rows.start,
            cur_col: cols.start,
            row_last: rows.last_touched(),
            col_last: cols.last_touched(),
            rows,
            cols,
            row_width,
            done,
        }
    }

    /// Flat addresses this generator will emit in total.
    pub fn total(&self) -> u64 {
        let rows = (self.row_last - self.rows.start + 1).max(0) as u64;
        let cols = (self.col_last - self.cols.start + 1).max(0) as u64;
        rows * cols
    }
}

impl Iterator for AddressGen2d {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        if self.done {
            return None;
        }
        let addr = self.cur_row * self.row_width as i64 + self.cur_col;
        self.cur_col += 1;
        if self.cur_col > self.col_last {
            self.cur_col = self.cols.start;
            self.cur_row += 1;
            self.done = self.cur_row > self.row_last;
        }
        Some(addr)
    }
}

/// Output address generator: yields the flat store address for each window
/// position, in iteration order. The positions advance like the counters
/// of a hardware address generator: the innermost dimension steps, and
/// wraps into the next one out at its bound.
#[derive(Debug, Clone)]
pub struct OutputAddressGen {
    dims: Vec<DimScan>,
    /// Constant offset per output element (the store index offset).
    offset: i64,
    /// Row width for 2-D layouts (1-D uses 1 dim and ignores this).
    row_width: usize,
    /// Current window position per dimension (outermost first).
    coords: Vec<i64>,
    total: u64,
    idx: u64,
}

impl OutputAddressGen {
    /// Creates a generator over the given dimensions (outermost first).
    pub fn new(dims: Vec<DimScan>, offset: i64, row_width: usize) -> Self {
        OutputAddressGen {
            coords: dims.iter().map(|d| d.start).collect(),
            total: dims.iter().map(|d| d.positions()).product(),
            dims,
            offset,
            row_width,
            idx: 0,
        }
    }

    /// Total stores.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Iterator for OutputAddressGen {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        if self.idx >= self.total {
            return None;
        }
        let row_width = self.row_width as i64;
        let flat = self.coords.iter().fold(0, |acc, c| acc * row_width + c);
        self.idx += 1;
        for (c, d) in self.coords.iter_mut().zip(&self.dims).rev() {
            *c += d.step;
            if *c < d.bound {
                break;
            }
            *c = d.start;
        }
        Some(flat + self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fir_scan_emits_each_element_once() {
        let gen = AddressGen1d::new(DimScan {
            start: 0,
            bound: 17,
            step: 1,
            extent: 5,
        });
        let addrs: Vec<i64> = gen.collect();
        assert_eq!(addrs.len(), 21);
        let set: HashSet<i64> = addrs.iter().copied().collect();
        assert_eq!(set.len(), addrs.len(), "duplicates found");
        // Naive (no reuse) would fetch 17 × 5 = 85 words.
        assert!(addrs.len() < 85);
    }

    #[test]
    fn strided_scan_skips_untouched() {
        // Window of 2, stride 4: touches {0,1, 4,5, 8,9}.
        let gen = AddressGen1d::new(DimScan {
            start: 0,
            bound: 12,
            step: 4,
            extent: 2,
        });
        let addrs: Vec<i64> = gen.collect();
        assert_eq!(addrs, vec![0, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn overlapping_stride_two() {
        // Window of 3, stride 2 over positions 0,2,4: {0,1,2,3,4,5,6}.
        let gen = AddressGen1d::new(DimScan {
            start: 0,
            bound: 6,
            step: 2,
            extent: 3,
        });
        let addrs: Vec<i64> = gen.collect();
        assert_eq!(addrs, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn empty_scan() {
        let gen = AddressGen1d::new(DimScan {
            start: 5,
            bound: 5,
            step: 1,
            extent: 3,
        });
        assert_eq!(gen.count(), 0);
    }

    #[test]
    fn two_d_scan_row_major_once_each() {
        // 2×2 windows over a 4×4 array, positions (0..3)×(0..3).
        let rows = DimScan {
            start: 0,
            bound: 3,
            step: 1,
            extent: 2,
        };
        let cols = rows;
        let gen = AddressGen2d::new(rows, cols, 4);
        let addrs: Vec<i64> = gen.clone().collect();
        assert_eq!(addrs.len() as u64, gen.total());
        let set: HashSet<i64> = addrs.iter().copied().collect();
        assert_eq!(set.len(), addrs.len());
        // Rows 0..=3, cols 0..=3 → all 16 elements.
        assert_eq!(addrs.len(), 16);
        // Streaming order is row-major.
        let mut sorted = addrs.clone();
        sorted.sort();
        assert_eq!(addrs, sorted);
    }

    #[test]
    fn output_addresses_follow_iteration_order() {
        let gen = OutputAddressGen::new(
            vec![DimScan {
                start: 0,
                bound: 17,
                step: 1,
                extent: 1,
            }],
            0,
            1,
        );
        let addrs: Vec<i64> = gen.collect();
        assert_eq!(addrs, (0..17).collect::<Vec<i64>>());
    }

    #[test]
    fn output_addresses_2d() {
        let d = DimScan {
            start: 0,
            bound: 2,
            step: 1,
            extent: 1,
        };
        let gen = OutputAddressGen::new(vec![d, d], 0, 8);
        let addrs: Vec<i64> = gen.collect();
        assert_eq!(addrs, vec![0, 1, 8, 9]);
    }

    #[test]
    fn output_addresses_strided_with_offset() {
        let rows = DimScan {
            start: 1,
            bound: 6,
            step: 2,
            extent: 1,
        };
        let cols = DimScan {
            start: 2,
            bound: 10,
            step: 3,
            extent: 1,
        };
        let gen = OutputAddressGen::new(vec![rows, cols], 5, 16);
        assert_eq!(gen.total(), 9);
        let mut expect = Vec::new();
        for i in [1, 3, 5] {
            for j in [2, 5, 8] {
                expect.push(i * 16 + j + 5);
            }
        }
        assert_eq!(gen.collect::<Vec<i64>>(), expect);
    }

    /// A random scan: start `lo..lo + 9`, 0–7 positions, stride 1–4 (so
    /// some strides exceed the extent), extent 1–6.
    fn random_scan(rng: &mut roccc_testutil::XorShift64, lo: i64) -> DimScan {
        let start = rng.gen_range(lo, lo + 9);
        let step = rng.gen_range(1, 5);
        DimScan {
            start,
            bound: start + rng.gen_range(0, 8) * step - rng.gen_range(0, step),
            step,
            extent: rng.gen_range(1, 7) as usize,
        }
    }

    /// Every index some window of `scan` reads.
    fn touched(scan: DimScan) -> Vec<i64> {
        let mut all: Vec<i64> = (scan.start..scan.bound)
            .step_by(scan.step as usize)
            .flat_map(|w| w..w + scan.extent as i64)
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    #[test]
    fn generators_emit_the_sorted_union_of_the_windows() {
        let mut rng = roccc_testutil::XorShift64::new(0xadd7);
        for case in 0..500 {
            let scan = random_scan(&mut rng, -3);
            let want = touched(scan);
            let gen = AddressGen1d::new(scan);
            assert_eq!(gen.total(), want.len() as u64, "case {case}: {scan:?}");
            assert_eq!(gen.collect::<Vec<_>>(), want, "case {case}: {scan:?}");

            // The 2-D generator streams every row and column of the box
            // the windows span, gaps included: the union of the windows
            // when no stride exceeds its extent.
            let (rows, cols) = (random_scan(&mut rng, 0), random_scan(&mut rng, 0));
            let row_width = (cols.last_touched() + 1).max(1) as usize + rng.gen_index(3);
            let span = |s: DimScan| {
                touched(s)
                    .first()
                    .map_or(0..0, |&a| a..s.last_touched() + 1)
            };
            let want: Vec<i64> = span(rows)
                .flat_map(|r| span(cols).map(move |c| r * row_width as i64 + c))
                .filter(|_| cols.positions() > 0)
                .collect();
            let gaps = |s: DimScan| s.step > s.extent as i64;
            if !gaps(rows) && !gaps(cols) {
                let union = touched(rows)
                    .into_iter()
                    .flat_map(|r| touched(cols).into_iter().map(move |c| (r, c)))
                    .map(|(r, c)| r * row_width as i64 + c);
                assert!(union.eq(want.iter().copied()), "case {case}");
            }
            let gen = AddressGen2d::new(rows, cols, row_width);
            let ctx = format!("case {case}: {rows:?} × {cols:?} width {row_width}");
            assert_eq!(gen.total(), want.len() as u64, "{ctx}");
            assert_eq!(gen.collect::<Vec<_>>(), want, "{ctx}");
        }
    }

    #[test]
    fn dimscan_positions_and_last() {
        let d = DimScan {
            start: 0,
            bound: 17,
            step: 1,
            extent: 5,
        };
        assert_eq!(d.positions(), 17);
        assert_eq!(d.last_touched(), 20);
        let s = DimScan {
            start: 2,
            bound: 10,
            step: 3,
            extent: 1,
        };
        assert_eq!(s.positions(), 3); // 2, 5, 8
        assert_eq!(s.last_touched(), 8);
    }
}
