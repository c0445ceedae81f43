//! Differential tests of the memory-side models against map-based
//! reference models.
//!
//! The smart buffers keep dense row lines and the channel FIFO a deque
//! indexed from its read pointer. The reference models below keep every
//! live word in a map keyed by its index and clean it with a scan, the
//! simplest statement of the semantics. Seeded random streams — varying
//! window, stride, start, row width and bus width, with words pushed far
//! ahead of the window, rows dead on arrival, repeated and locally
//! reordered words, and out-of-order landing into reserved FIFO slots —
//! must give the same windows, `BufferStats`, occupancy and peak.

use roccc_suite::buffers::{
    AddressGen1d, AddressGen2d, BufferStats, DimScan, SmartBuffer1d, SmartBuffer2d,
};
use roccc_suite::stream::ChannelFifo;
use roccc_suite::testrand::XorShift64;
use std::collections::{HashMap, VecDeque};

/// Reference 1-D buffer: a deque of `(index, value)` pairs in arrival
/// order, searched per window element.
struct Ref1d {
    window: usize,
    stride: usize,
    buf: VecDeque<(i64, i64)>,
    next_start: i64,
    stats: BufferStats,
}

impl Ref1d {
    fn new(window: usize, stride: usize, start: i64) -> Self {
        Ref1d {
            window,
            stride,
            buf: VecDeque::new(),
            next_start: start,
            stats: BufferStats::default(),
        }
    }

    fn push(&mut self, index: i64, value: i64) {
        self.stats.fetched += 1;
        if index >= self.next_start {
            self.buf.push_back((index, value));
        }
    }

    fn pop_window(&mut self) -> Option<Vec<i64>> {
        while self.buf.front().is_some_and(|&(i, _)| i < self.next_start) {
            self.buf.pop_front();
        }
        let mut out = Vec::new();
        for idx in self.next_start..self.next_start + self.window as i64 {
            out.push(self.buf.iter().find(|&&(i, _)| i == idx)?.1);
        }
        self.next_start += self.stride as i64;
        self.stats.windows += 1;
        Some(out)
    }
}

/// Reference 2-D buffer: a map keyed by `(row, col)`, cleaned of dead
/// rows on every push.
struct Ref2d {
    win_rows: i64,
    win_cols: i64,
    stride_r: i64,
    stride_c: i64,
    col_start: i64,
    row_bound: i64,
    col_bound: i64,
    row_width: i64,
    store: HashMap<(i64, i64), i64>,
    next_r: i64,
    next_c: i64,
    stats: BufferStats,
}

impl Ref2d {
    fn push(&mut self, row: i64, col: i64, value: i64) {
        self.stats.fetched += 1;
        self.store.insert((row, col), value);
        let dead_before = self.next_r;
        self.store.retain(|&(r, _), _| r >= dead_before);
    }

    fn push_flat(&mut self, flat: i64, value: i64) {
        self.push(flat / self.row_width, flat % self.row_width, value);
    }

    fn pop_window(&mut self) -> Option<Vec<i64>> {
        if self.next_r >= self.row_bound {
            return None;
        }
        let mut out = Vec::new();
        for dr in 0..self.win_rows {
            for dc in 0..self.win_cols {
                out.push(*self.store.get(&(self.next_r + dr, self.next_c + dc))?);
            }
        }
        self.next_c += self.stride_c;
        if self.next_c >= self.col_bound {
            self.next_c = self.col_start;
            self.next_r += self.stride_r;
        }
        self.stats.windows += 1;
        Some(out)
    }
}

/// Reference channel: landed values in a map keyed by flat address.
struct RefFifo {
    depth: usize,
    len: usize,
    write_mask: Vec<bool>,
    store: HashMap<usize, i64>,
    commit_ptr: usize,
    read_ptr: usize,
    reserved: usize,
    peak: usize,
}

impl RefFifo {
    fn new(depth: usize, write_mask: Vec<bool>) -> Self {
        let mut f = RefFifo {
            depth,
            len: write_mask.len(),
            write_mask,
            store: HashMap::new(),
            commit_ptr: 0,
            read_ptr: 0,
            reserved: 0,
            peak: 0,
        };
        f.advance_commit();
        f
    }

    fn occupancy(&self) -> usize {
        self.reserved + self.store.len()
    }

    fn can_reserve(&self, burst: usize) -> bool {
        self.occupancy() + burst <= self.depth
    }

    fn reserve(&mut self, burst: usize) {
        self.reserved += burst;
        self.peak = self.peak.max(self.occupancy());
    }

    fn push(&mut self, addr: usize, value: i64) {
        self.reserved -= 1;
        self.store.insert(addr, value);
        self.advance_commit();
    }

    fn pop(&mut self) -> Option<(usize, i64)> {
        if self.read_ptr >= self.commit_ptr {
            return None;
        }
        let addr = self.read_ptr;
        self.read_ptr += 1;
        Some((addr, self.store.remove(&addr).unwrap_or(0)))
    }

    fn advance_commit(&mut self) {
        while self.commit_ptr < self.len
            && (!self.write_mask[self.commit_ptr] || self.store.contains_key(&self.commit_ptr))
        {
            self.commit_ptr += 1;
        }
    }
}

/// Swaps random neighbours so a stream arrives locally out of order.
fn jitter<T>(rng: &mut XorShift64, items: &mut [T]) {
    for k in 1..items.len() {
        if rng.gen_ratio(1, 6) {
            items.swap(k - 1, k);
        }
    }
}

/// Words per cycle: usually a narrow bus, sometimes a burst that runs
/// far ahead of the window.
fn beat(rng: &mut XorShift64) -> usize {
    if rng.gen_ratio(1, 10) {
        rng.gen_index(40) + 1
    } else {
        rng.gen_index(4) + 1
    }
}

#[test]
fn smart_buffer_1d_matches_the_reference_model() {
    let mut windows = 0;
    for seed in 0..300u64 {
        let mut rng = XorShift64::new(0x1d00 + seed);
        let window = rng.gen_index(6) + 1;
        let stride = rng.gen_index(5) + 1;
        let start = rng.gen_range(-3, 5);
        let scan = DimScan {
            start,
            bound: start + rng.gen_range(0, 30),
            step: stride as i64,
            extent: window,
        };
        // The scan's own stream, or an increasing stream with gaps that
        // starts below the first window (dead on arrival).
        let mut stream: Vec<i64> = if rng.gen_bool() {
            AddressGen1d::new(scan).collect()
        } else {
            let mut i = start - rng.gen_range(0, 4);
            (0..rng.gen_index(60))
                .map(|_| {
                    i += rng.gen_range(1, 3);
                    i
                })
                .collect()
        };
        if rng.gen_ratio(1, 3) {
            jitter(&mut rng, &mut stream);
        }
        if let Some(&again) = stream.get(rng.gen_index(stream.len() + 1)) {
            stream.push(again); // a repeated word: the first one is kept
            jitter(&mut rng, &mut stream);
        }

        let mut dut = SmartBuffer1d::new(window, stride, start);
        let mut reference = Ref1d::new(window, stride, start);
        let mut words = stream.iter();
        loop {
            let mut pushed = false;
            for &index in words.by_ref().take(beat(&mut rng)) {
                let value = rng.gen_range(-1000, 1000);
                dut.push(index, value);
                reference.push(index, value);
                pushed = true;
            }
            for _ in 0..rng.gen_index(3) {
                assert_eq!(dut.pop_window(), reference.pop_window(), "seed {seed}");
            }
            assert_eq!(dut.stats(), reference.stats, "seed {seed}");
            if !pushed {
                break;
            }
        }
        loop {
            let (got, want) = (dut.pop_window(), reference.pop_window());
            assert_eq!(got, want, "seed {seed}");
            if want.is_none() {
                break;
            }
        }
        assert_eq!(dut.stats(), reference.stats, "seed {seed}");
        windows += reference.stats.windows;
    }
    assert!(
        windows > 1000,
        "streams too short to exercise the buffer: {windows}"
    );
}

#[test]
fn smart_buffer_2d_matches_the_reference_model() {
    let mut windows = 0;
    for seed in 0..300u64 {
        let mut rng = XorShift64::new(0x2d00 + seed);
        let win_rows = rng.gen_index(3) + 1;
        let win_cols = rng.gen_index(3) + 1;
        let stride_r = rng.gen_index(3) + 1;
        let stride_c = rng.gen_index(3) + 1;
        let row_width = rng.gen_index(8) + win_cols;
        let row_start = rng.gen_range(0, 2);
        let col_start = rng.gen_range(0, (row_width - win_cols) as i64);
        let row_bound = row_start + rng.gen_range(0, 8);
        let col_bound = rng.gen_range(col_start, (row_width - win_cols + 1) as i64);
        let rows = DimScan {
            start: row_start,
            bound: row_bound,
            step: stride_r as i64,
            extent: win_rows,
        };
        let cols = DimScan {
            start: col_start,
            bound: col_bound,
            step: stride_c as i64,
            extent: win_cols,
        };
        let image = (row_bound as usize + win_rows + 2) * row_width;
        // The scan's own stream, or every flat address from 0 (rows above
        // the first window are dead on arrival) with some words missing.
        let mut stream: Vec<(i64, i64)> = if rng.gen_bool() {
            AddressGen2d::new(rows, cols, row_width)
                .map(|f| (f / row_width as i64, f % row_width as i64))
                .collect()
        } else {
            (0..image as i64)
                .filter(|_| !rng.gen_ratio(1, 50))
                .map(|f| (f / row_width as i64, f % row_width as i64))
                .collect()
        };
        if rng.gen_ratio(1, 3) {
            jitter(&mut rng, &mut stream);
        }
        // A few words outside the array's columns (never read), and a
        // repeated word (the later one wins).
        for _ in 0..rng.gen_index(3) {
            let at = rng.gen_index(stream.len() + 1);
            let row = rng.gen_range(0, row_bound + 2);
            let col = if rng.gen_bool() {
                -1
            } else {
                row_width as i64 + 1
            };
            stream.insert(at, (row, col));
        }
        if let Some(&again) = stream.get(rng.gen_index(stream.len() + 1)) {
            let at = rng.gen_index(stream.len() + 1);
            stream.insert(at, again);
        }

        let mut dut = SmartBuffer2d::new(
            win_rows, win_cols, stride_r, stride_c, row_start, row_bound, col_start, col_bound,
            row_width,
        );
        let mut reference = Ref2d {
            win_rows: win_rows as i64,
            win_cols: win_cols as i64,
            stride_r: stride_r as i64,
            stride_c: stride_c as i64,
            col_start,
            row_bound,
            col_bound,
            row_width: row_width as i64,
            store: HashMap::new(),
            next_r: row_start,
            next_c: col_start,
            stats: BufferStats::default(),
        };
        let flat = rng.gen_bool();
        let mut words = stream.iter();
        loop {
            let mut pushed = false;
            for &(row, col) in words.by_ref().take(beat(&mut rng)) {
                let value = rng.gen_range(-1000, 1000);
                let in_row = (0..row_width as i64).contains(&col);
                if flat && in_row {
                    let f = row * row_width as i64 + col;
                    dut.push_flat(f, value);
                    reference.push_flat(f, value);
                } else {
                    dut.push(row, col, value);
                    reference.push(row, col, value);
                }
                pushed = true;
            }
            for _ in 0..rng.gen_index(3) {
                assert_eq!(dut.pop_window(), reference.pop_window(), "seed {seed}");
            }
            assert_eq!(dut.stats(), reference.stats, "seed {seed}");
            if !pushed {
                break;
            }
        }
        loop {
            let (got, want) = (dut.pop_window(), reference.pop_window());
            assert_eq!(got, want, "seed {seed}");
            if want.is_none() {
                break;
            }
        }
        assert_eq!(dut.stats(), reference.stats, "seed {seed}");
        windows += reference.stats.windows;
    }
    assert!(
        windows > 500,
        "streams too short to exercise the buffer: {windows}"
    );
}

#[test]
fn channel_fifo_matches_the_reference_model() {
    let mut landed_pops = 0;
    for seed in 0..300u64 {
        let mut rng = XorShift64::new(0xf1f0 + seed);
        let len = rng.gen_index(48) + 1;
        let mask: Vec<bool> = (0..len).map(|_| !rng.gen_ratio(1, 4)).collect();
        let depth = rng.gen_index(10) + 1;
        let mut dut = ChannelFifo::new(depth, len, mask.clone());
        let mut reference = RefFifo::new(depth, mask.clone());

        // The producer writes every masked address once, in a locally
        // shuffled order (interleaved rows write out of address order),
        // reserving whole bursts and landing them in any order.
        let mut order: Vec<usize> = (0..len).filter(|&a| mask[a]).collect();
        jitter(&mut rng, &mut order);
        jitter(&mut rng, &mut order);
        let mut to_reserve = order.into_iter().peekable();
        let mut in_flight: Vec<usize> = Vec::new();
        for _ in 0..20 * len + 50 {
            match rng.gen_index(3) {
                0 if to_reserve.peek().is_some() => {
                    let burst = rng.gen_index(3) + 1;
                    assert_eq!(
                        dut.can_reserve(burst),
                        reference.can_reserve(burst),
                        "seed {seed}"
                    );
                    if dut.can_reserve(burst) {
                        dut.reserve(burst);
                        reference.reserve(burst);
                        in_flight.extend(to_reserve.by_ref().take(burst));
                        // A burst past the end of the stream still holds
                        // its slots until the run ends.
                    }
                }
                1 if !in_flight.is_empty() => {
                    let addr = in_flight.swap_remove(rng.gen_index(in_flight.len()));
                    let value = rng.gen_range(-1000, 1000);
                    dut.push(addr, value);
                    reference.push(addr, value);
                }
                _ => {
                    assert_eq!(dut.can_pop(), reference.read_ptr < reference.commit_ptr);
                    let popped = dut.pop();
                    assert_eq!(popped, reference.pop(), "seed {seed}");
                    landed_pops += usize::from(popped.is_some_and(|(a, _)| mask[a]));
                }
            }
            assert_eq!(dut.occupancy(), reference.occupancy(), "seed {seed}");
            assert_eq!(dut.peak(), reference.peak, "seed {seed}");
            assert_eq!(dut.read_ptr(), reference.read_ptr, "seed {seed}");
            assert_eq!(dut.drained(), reference.read_ptr >= len, "seed {seed}");
        }
    }
    assert!(
        landed_pops > 1000,
        "too few landed words popped: {landed_pops}"
    );
}
