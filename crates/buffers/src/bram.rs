//! Block-RAM model.
//!
//! The paper's execution model (Figure 2): "An engine moves the data from
//! off-chip to a BRAM storage. The compiler-generated circuit accesses the
//! arrays in BRAM and stores the output data into another BRAM." This
//! module models such a BRAM with a synchronous read port (one-cycle
//! latency, as on Virtex-II block RAM) and a synchronous write port.

/// A word-addressable block RAM with synchronous read.
///
/// Several reads may be issued in one cycle to model a wide bus (e.g. a
/// 16-bit bus carrying two 8-bit words per beat, the paper's FIR
/// configuration); all land on the next clock edge.
#[derive(Debug, Clone)]
pub struct BramModel {
    data: Vec<i64>,
    /// Reads issued last cycle: (address, data) pairs.
    pending: std::collections::VecDeque<(usize, i64)>,
    reads: u64,
    writes: u64,
}

impl BramModel {
    /// Creates a BRAM initialized with `data`.
    pub fn new(data: Vec<i64>) -> Self {
        BramModel {
            data,
            pending: std::collections::VecDeque::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Creates a zero-filled BRAM of `len` words.
    pub fn zeroed(len: usize) -> Self {
        Self::new(vec![0; len])
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the BRAM holds no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Issues a synchronous read of `addr`; the data appears at the next
    /// [`BramModel::clock`] call. Out-of-range reads return 0 (open
    /// address lines). Multiple issues per cycle model a wide bus.
    pub fn issue_read(&mut self, addr: usize) {
        let v = self.data.get(addr).copied().unwrap_or(0);
        self.pending.push_back((addr, v));
        self.reads += 1;
    }

    /// Clocks the read port, returning one previously issued read (if any).
    pub fn clock(&mut self) -> Option<(usize, i64)> {
        self.pending.pop_front()
    }

    /// Clocks the read port, draining everything issued last cycle in
    /// place (wide bus: all words of a beat arrive together).
    pub fn clock_all(&mut self) -> std::collections::vec_deque::Drain<'_, (usize, i64)> {
        self.pending.drain(..)
    }

    /// Synchronous write (visible to reads issued after this call).
    pub fn write(&mut self, addr: usize, value: i64) {
        if addr < self.data.len() {
            self.data[addr] = value;
        } else {
            // Grow for output BRAMs sized lazily by the controller.
            self.data.resize(addr + 1, 0);
            self.data[addr] = value;
        }
        self.writes += 1;
    }

    /// Immediate (test-only) combinational peek.
    pub fn peek(&self, addr: usize) -> i64 {
        self.data.get(addr).copied().unwrap_or(0)
    }

    /// Read and write counters: `(reads, writes)`.
    pub fn traffic(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Consumes the model, returning its contents.
    pub fn into_data(self) -> Vec<i64> {
        self.data
    }

    /// Borrow the contents.
    pub fn data(&self) -> &[i64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_has_one_cycle_latency() {
        let mut b = BramModel::new(vec![10, 20, 30]);
        b.issue_read(1);
        assert_eq!(b.clock(), Some((1, 20)));
        assert_eq!(b.clock(), None);
    }

    #[test]
    fn writes_are_visible_to_later_reads() {
        let mut b = BramModel::zeroed(4);
        b.write(2, 99);
        b.issue_read(2);
        assert_eq!(b.clock(), Some((2, 99)));
    }

    #[test]
    fn out_of_range_reads_zero_and_writes_grow() {
        let mut b = BramModel::zeroed(2);
        b.issue_read(10);
        assert_eq!(b.clock(), Some((10, 0)));
        b.write(5, 7);
        assert_eq!(b.len(), 6);
        assert_eq!(b.peek(5), 7);
    }

    #[test]
    fn traffic_counters() {
        let mut b = BramModel::zeroed(8);
        b.issue_read(0);
        b.clock();
        b.issue_read(1);
        b.clock();
        b.write(0, 1);
        assert_eq!(b.traffic(), (2, 1));
    }
}
