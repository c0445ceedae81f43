//! The sized channel between two pipeline stages.
//!
//! A [`ChannelFifo`] is a bounded in-order-commit reorder buffer over a
//! flat address space `0..len` (see `rate` module docs for why plain
//! FIFOs are not enough: producers like the 2-D wavelet write two
//! interleaved rows per firing, out of flat-address order).
//!
//! Occupancy counts **reserved + stored-uncommitted + committed-unpopped
//! slots**; the producer reserves its whole burst at fire time (credit
//! based flow control) so a value landing `latency` cycles later always
//! has a slot. Flat addresses the producer statically never writes
//! commit for free as zeros, matching the zero-initialized output BRAM
//! of the single-kernel system simulation — chained goldens stay
//! bit-exact.
//!
//! Landed values live in a deque indexed from the read pointer, so the
//! channel's memory follows the live span `read_ptr..` up to the highest
//! landed address, not the whole address space.

use std::collections::VecDeque;

/// One bounded stage-to-stage channel.
#[derive(Debug, Clone)]
pub struct ChannelFifo {
    /// Capacity in element slots.
    depth: usize,
    /// Flat address space size.
    len: usize,
    /// `write_mask[a]` — whether the producer ever writes flat address
    /// `a`; unwritten addresses commit as zeros without a slot.
    write_mask: Vec<bool>,
    /// `store[k]` holds the value landed at flat address `read_ptr + k`,
    /// if any (uncommitted or committed-but-unpopped).
    store: VecDeque<Option<i64>>,
    /// Landed values in `store`.
    stored: usize,
    /// Next flat address to commit (everything below is consumable).
    commit_ptr: usize,
    /// Next flat address the consumer will pop.
    read_ptr: usize,
    /// Slots promised to in-flight firings (values not yet landed).
    reserved: usize,
    /// Peak occupancy ever observed (for reporting).
    peak: usize,
}

impl ChannelFifo {
    /// Creates an empty channel. `write_mask.len()` must equal `len`.
    ///
    /// # Panics
    ///
    /// Panics if the mask length disagrees with `len`.
    pub fn new(depth: usize, len: usize, write_mask: Vec<bool>) -> Self {
        assert_eq!(write_mask.len(), len, "write mask covers the address space");
        let mut f = ChannelFifo {
            depth,
            len,
            write_mask,
            store: VecDeque::new(),
            stored: 0,
            commit_ptr: 0,
            read_ptr: 0,
            reserved: 0,
            peak: 0,
        };
        f.advance_commit();
        f
    }

    /// Occupied slots: reserved + stored-but-unpopped.
    pub fn occupancy(&self) -> usize {
        self.reserved + self.stored
    }

    /// Peak occupancy observed so far.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether a firing producing `burst` elements may start now.
    pub fn can_reserve(&self, burst: usize) -> bool {
        self.occupancy() + burst <= self.depth
    }

    /// Reserves `burst` slots for an in-flight firing.
    ///
    /// # Panics
    ///
    /// Panics if the reservation exceeds capacity — the co-simulation
    /// must gate firings on [`ChannelFifo::can_reserve`].
    pub fn reserve(&mut self, burst: usize) {
        assert!(self.can_reserve(burst), "over-reservation");
        self.reserved += burst;
        self.peak = self.peak.max(self.occupancy());
    }

    /// Lands one produced element into a previously reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if nothing was reserved, the address is out of range or
    /// already popped — each indicates a co-simulation engine bug, not a
    /// user error.
    pub fn push(&mut self, addr: usize, value: i64) {
        assert!(self.reserved > 0, "push without reservation");
        assert!(addr < self.len, "address {addr} outside 0..{}", self.len);
        assert!(addr >= self.read_ptr, "address {addr} already popped");
        self.reserved -= 1;
        let k = addr - self.read_ptr;
        if k >= self.store.len() {
            self.store.resize(k + 1, None);
        }
        if self.store[k].replace(value).is_none() {
            self.stored += 1;
        }
        self.advance_commit();
    }

    /// Whether the element at the consumer's read pointer is consumable.
    pub fn can_pop(&self) -> bool {
        self.read_ptr < self.commit_ptr
    }

    /// Next flat address [`ChannelFifo::pop`] would return.
    pub fn read_ptr(&self) -> usize {
        self.read_ptr
    }

    /// Pops the next element in flat address order. Zero for addresses
    /// the producer statically never writes.
    ///
    /// Returns `None` when nothing is committed (or the stream is
    /// exhausted).
    pub fn pop(&mut self) -> Option<(usize, i64)> {
        if !self.can_pop() {
            return None;
        }
        let addr = self.read_ptr;
        self.read_ptr += 1;
        let v = self.store.pop_front().flatten();
        self.stored -= usize::from(v.is_some());
        Some((addr, v.unwrap_or(0)))
    }

    /// Whether the consumer has drained the whole address space.
    pub fn drained(&self) -> bool {
        self.read_ptr >= self.len
    }

    /// Advances the commit pointer past every landed or never-written
    /// address.
    fn advance_commit(&mut self) {
        while self.commit_ptr < self.len
            && (!self.write_mask[self.commit_ptr]
                || matches!(
                    self.store.get(self.commit_ptr - self.read_ptr),
                    Some(Some(_))
                ))
        {
            self.commit_ptr += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_commits_immediately() {
        let mut f = ChannelFifo::new(2, 4, vec![true; 4]);
        assert!(f.can_reserve(1));
        f.reserve(1);
        assert!(!f.can_pop());
        f.push(0, 10);
        assert_eq!(f.pop(), Some((0, 10)));
        f.reserve(1);
        f.push(1, 11);
        assert_eq!(f.pop(), Some((1, 11)));
        assert!(!f.drained());
    }

    #[test]
    fn out_of_order_commits_only_at_the_gap_fill() {
        let mut f = ChannelFifo::new(4, 4, vec![true; 4]);
        f.reserve(2);
        f.push(2, 22);
        f.push(1, 21);
        // Address 0 is still missing: nothing commits.
        assert!(!f.can_pop());
        f.reserve(1);
        f.push(0, 20);
        assert_eq!(f.pop(), Some((0, 20)));
        assert_eq!(f.pop(), Some((1, 21)));
        assert_eq!(f.pop(), Some((2, 22)));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn unwritten_addresses_commit_as_free_zeros() {
        // Only address 2 is ever written.
        let mut f = ChannelFifo::new(1, 4, vec![false, false, true, false]);
        // Leading zero-fill commits with no producer action.
        assert_eq!(f.pop(), Some((0, 0)));
        assert_eq!(f.pop(), Some((1, 0)));
        assert!(!f.can_pop());
        f.reserve(1);
        f.push(2, 7);
        assert_eq!(f.pop(), Some((2, 7)));
        // Trailing zero-fill commits too; the stream fully drains.
        assert_eq!(f.pop(), Some((3, 0)));
        assert!(f.drained());
    }

    #[test]
    fn capacity_counts_reservations() {
        let mut f = ChannelFifo::new(2, 8, vec![true; 8]);
        f.reserve(2);
        assert!(!f.can_reserve(1), "reserved slots count");
        f.push(0, 1);
        f.push(1, 2);
        // Committed-but-unpopped still occupies.
        assert!(!f.can_reserve(1));
        f.pop();
        assert!(f.can_reserve(1));
        assert_eq!(f.peak(), 2);
    }
}
