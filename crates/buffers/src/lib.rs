//! # roccc-buffers — smart buffers, address generators, BRAM model
//!
//! The I/O side of the paper's execution model (§4.1, Figure 2): data
//! streams from a BRAM through a **smart buffer** that exploits
//! sliding-window reuse ("two adjacent windows have four input data in
//! common and only one new input data per window"), driven by
//! **address generators**, all parameterized FSMs.
//!
//! The smart buffers and the BRAM read port are the **reference model**
//! of that side: they hold each word the way the hardware does. The
//! controller that fires, drains and retires windows,
//! `roccc_netlist::system::SystemStage`, keeps the same timing with
//! counters (a window is staged once the count of landed stream words
//! passes its last word, and gathered from memory when it fires); its tests
//! drive it beside these models and require the same windows on the
//! same cycles. The address generators filter a channel's words for it,
//! the store address generator ([`OutputAddressGen`]) places its
//! outputs and [`BramModel`]'s write port holds them.
//!
//! ```
//! use roccc_buffers::addr::{AddressGen1d, DimScan};
//! use roccc_buffers::smart::SmartBuffer1d;
//!
//! // The paper's 5-tap FIR window scan.
//! let scan = DimScan { start: 0, bound: 17, step: 1, extent: 5 };
//! let mut sb = SmartBuffer1d::new(5, 1, 0);
//! let mut windows = 0;
//! for addr in AddressGen1d::new(scan) {
//!     sb.push(addr, addr * 3);
//!     while sb.pop_window().is_some() { windows += 1; }
//! }
//! assert_eq!(windows, 17);
//! assert_eq!(sb.stats().fetched, 21); // each element fetched once
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod bram;
pub mod smart;

pub use addr::{AddressGen1d, AddressGen2d, DimScan, OutputAddressGen};
pub use bram::BramModel;
pub use smart::{BufferStats, SmartBuffer1d, SmartBuffer2d};
