//! # roccc-buffers — smart buffers, address generators, BRAM model
//!
//! The I/O side of the paper's execution model (§4.1, Figure 2): data
//! streams from a BRAM through a **smart buffer** that exploits
//! sliding-window reuse ("two adjacent windows have four input data in
//! common and only one new input data per window"), driven by
//! **address generators**, all parameterized FSMs. The higher-level
//! controller that fires, drains and retires windows is
//! `roccc_netlist::system::SystemStage`.
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
pub use smart::{BufferStats, SmartBuffer1d, SmartBuffer2d, WindowBuffer};
