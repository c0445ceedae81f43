//! Whole-kernel system simulation (the paper's Figure 2 execution model).
//!
//! Instantiates, per input array, a BRAM + address generator + smart
//! buffer; per output array, an output address generator + BRAM; plus the
//! higher-level firing logic and the pipelined data-path netlist. Each
//! simulated clock cycle: memory data lands in the smart buffers, a new
//! iteration fires when every buffer has a valid window, and valid outputs
//! retire into the output BRAMs.
//!
//! This is the cycle-accurate counterpart of running the kernel on the
//! FPGA; integration tests check it word-for-word against the golden-model
//! C interpreter, and the Table 1 harness reads its throughput numbers.
//!
//! The memory side is shared with the stream co-simulator: a
//! [`WindowFeed`] (address generator, smart buffer, slot-to-port map and
//! staged window) per input window, a [`BramFeed`] when that window
//! reads a BRAM, and an [`OutputLane`] per output write. Each costs O(1)
//! per word and O(window) per firing, and allocates nothing per cycle.

use crate::cells::Netlist;
use crate::plan::{BatchedSim, SimPlan};
use crate::sim::SimError;
use roccc_buffers::addr::{AddressGen1d, AddressGen2d, DimScan, OutputAddressGen};
use roccc_buffers::bram::BramModel;
use roccc_buffers::smart::{SmartBuffer1d, SmartBuffer2d, WindowBuffer};
use roccc_hlir::kernel::{Kernel, OutputSpec, WindowSpec};
use std::collections::HashMap;
use std::iter::Peekable;

/// Result of a full system run.
#[derive(Debug, Clone, Default)]
pub struct SystemRun {
    /// Final contents of each output array.
    pub arrays: HashMap<String, Vec<i64>>,
    /// Final values of exported feedback scalars (`<name>_final`).
    pub scalars: HashMap<String, i64>,
    /// Total clock cycles from start to done.
    pub cycles: u64,
    /// Iterations fired.
    pub fired: u64,
    /// Words read from input BRAMs.
    pub mem_reads: u64,
    /// Words written to output BRAMs.
    pub mem_writes: u64,
}

impl SystemRun {
    /// Output words produced per clock cycle, averaged over the run.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.mem_writes as f64 / self.cycles as f64
    }
}

/// System-level error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemError(pub String);

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "system simulation error: {}", self.0)
    }
}

impl std::error::Error for SystemError {}

impl From<SimError> for SystemError {
    fn from(e: SimError) -> Self {
        SystemError(e.0)
    }
}

/// One input window's memory side, built once from `(Kernel,
/// WindowSpec)`: the address generator of the window scan, the smart
/// buffer, the map from window slot to data-path input port and one
/// reusable slot for the staged window.
pub struct WindowFeed {
    addrs: Peekable<Box<dyn Iterator<Item = i64>>>,
    buffer: Box<dyn WindowBuffer>,
    /// `(window slot, data-path input port)`; windows may be sparse.
    port_map: Vec<(usize, usize)>,
    window: Vec<i64>,
    staged: bool,
}

impl WindowFeed {
    /// Builds the feed for window `w` of `kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for windows without reads, constant or
    /// unknown index variables, more than two dimensions, or reads with
    /// no data-path input port.
    pub fn new(kernel: &Kernel, w: &WindowSpec) -> Result<Self, SystemError> {
        let ndim = w
            .reads
            .first()
            .map(|r| r.index.len())
            .ok_or_else(|| SystemError(format!("window `{}` has no reads", w.array)))?;
        let extent = w.extent();

        // Loop dimension for each window dimension.
        let mut scans = Vec::new();
        let mut min_off = Vec::new();
        for (d, ext) in extent.iter().enumerate().take(ndim) {
            let var = w.reads[0].index[d]
                .var
                .as_ref()
                .ok_or_else(|| SystemError("constant window dimensions unsupported".into()))?;
            let ld = kernel
                .dims
                .iter()
                .find(|l| &l.var == var)
                .ok_or_else(|| SystemError(format!("window index var `{var}` unknown")))?;
            let mo = w.reads.iter().map(|r| r.index[d].offset).min().unwrap_or(0);
            min_off.push(mo);
            scans.push(DimScan {
                start: ld.start + mo,
                bound: ld.bound + mo,
                step: ld.step,
                extent: *ext,
            });
        }
        if !(1..=2).contains(&ndim) {
            return Err(SystemError(format!(
                "{ndim}-dimensional windows unsupported"
            )));
        }

        // Port map: window slot (row-major in the extent box) → dp port.
        let ports = kernel.input_ports();
        let mut port_map = Vec::new();
        for r in &w.reads {
            let mut slot = 0;
            for d in 0..ndim {
                slot = slot * extent[d] + (r.index[d].offset - min_off[d]) as usize;
            }
            let port = ports
                .iter()
                .position(|(n, _)| n == &r.scalar)
                .ok_or_else(|| SystemError(format!("no input port for `{}`", r.scalar)))?;
            port_map.push((slot, port));
        }

        let (addrs, buffer): (Box<dyn Iterator<Item = i64>>, Box<dyn WindowBuffer>) =
            if let [scan] = scans[..] {
                let buffer = SmartBuffer1d::new(extent[0], scan.step as usize, scan.start);
                (Box::new(AddressGen1d::new(scan)), Box::new(buffer))
            } else {
                let (rows, cols) = (scans[0], scans[1]);
                let row_width = if w.dims.len() == 2 { w.dims[1] } else { 1 };
                let buffer = SmartBuffer2d::new(
                    extent[0],
                    extent[1],
                    rows.step as usize,
                    cols.step as usize,
                    rows.start,
                    rows.bound,
                    cols.start,
                    cols.bound,
                    row_width,
                );
                (
                    Box::new(AddressGen2d::new(rows, cols, row_width)),
                    Box::new(buffer),
                )
            };
        Ok(WindowFeed {
            addrs: addrs.peekable(),
            buffer,
            port_map,
            window: vec![0; extent.iter().product()],
            staged: false,
        })
    }

    /// The next flat address the window scan needs from memory.
    fn next_addr(&mut self) -> Option<i64> {
        self.addrs.next()
    }

    /// Accepts one word the scan fetched into the smart buffer.
    fn push(&mut self, flat: i64, value: i64) {
        self.buffer.push_flat(flat, value);
    }

    /// Offers one word of an in-order stream over the whole array: it is
    /// accepted when it is the next address the scan needs and discarded
    /// otherwise.
    pub fn offer(&mut self, flat: i64, value: i64) {
        if self.addrs.next_if_eq(&flat).is_some() {
            self.buffer.push_flat(flat, value);
        }
    }

    /// Stages the next complete window, unless one is already staged.
    pub fn stage(&mut self) {
        if !self.staged {
            self.staged = self.buffer.pop_window_into(&mut self.window);
        }
    }

    /// Whether a window is staged for the next firing.
    pub fn is_staged(&self) -> bool {
        self.staged
    }

    /// Drives the staged window onto its data-path ports in `args` and
    /// frees the slot.
    ///
    /// # Panics
    ///
    /// Panics if no window is staged.
    pub fn fire_into(&mut self, args: &mut [i64]) {
        assert!(self.staged, "firing without a staged window");
        for &(slot, port) in &self.port_map {
            args[port] = self.window[slot];
        }
        self.staged = false;
    }
}

/// A [`WindowFeed`] reading its input array from a BRAM.
pub struct BramFeed {
    bram: BramModel,
    /// The window side.
    pub feed: WindowFeed,
}

impl BramFeed {
    /// Feeds `feed` from a BRAM holding `data`.
    pub fn new(feed: WindowFeed, data: &[i64]) -> Self {
        BramFeed {
            bram: BramModel::new(data.to_vec()),
            feed,
        }
    }

    /// Lands last cycle's beat in the smart buffer (the whole beat
    /// arrives together) and stages a window. Returns whether any word
    /// landed.
    pub fn land(&mut self) -> bool {
        let mut landed = false;
        for (addr, v) in self.bram.clock_all() {
            self.feed.push(addr as i64, v);
            landed = true;
        }
        self.feed.stage();
        landed
    }

    /// Issues the next beat: up to `bus` reads of the scan's addresses.
    pub fn fetch(&mut self, bus: usize) {
        for _ in 0..bus {
            match self.feed.next_addr() {
                Some(a) => self.bram.issue_read(a as usize),
                None => break,
            }
        }
    }

    /// Words read from the BRAM so far.
    pub fn reads(&self) -> u64 {
        self.bram.traffic().0
    }
}

/// One write of an output array retiring into its own BRAM.
pub struct OutputLane {
    /// Output array name.
    pub array: String,
    bram: BramModel,
    addrs: OutputAddressGen,
    /// Data-path output port feeding this lane.
    port: usize,
    remaining: u64,
}

impl OutputLane {
    /// One lane per write of output `o` of `kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for writes with no data-path output port
    /// or store indices that are constant or not loop variables.
    pub fn for_output(kernel: &Kernel, o: &OutputSpec) -> Result<Vec<Self>, SystemError> {
        let out_ports = kernel.output_ports();
        let mut lanes = Vec::new();
        for wr in &o.writes {
            let port = out_ports
                .iter()
                .position(|(n, _)| n == &wr.scalar)
                .ok_or_else(|| SystemError(format!("no output port for `{}`", wr.scalar)))?;
            let mut dims = Vec::new();
            for ai in &wr.index {
                let var = ai.var.as_ref().ok_or_else(|| {
                    SystemError("constant store indices are not supported".into())
                })?;
                let ld = kernel
                    .dims
                    .iter()
                    .find(|l| &l.var == var)
                    .ok_or_else(|| SystemError(format!("store index var `{var}` unknown")))?;
                dims.push(DimScan {
                    start: ld.start + ai.offset,
                    bound: ld.bound + ai.offset,
                    step: ld.step,
                    extent: 1,
                });
            }
            let row_width = if o.dims.len() == 2 { o.dims[1] } else { 1 };
            let addrs = OutputAddressGen::new(dims, 0, row_width);
            lanes.push(OutputLane {
                array: o.array.clone(),
                bram: BramModel::zeroed(o.dims.iter().product()),
                remaining: addrs.total(),
                addrs,
                port,
            });
        }
        Ok(lanes)
    }

    /// Stores still to come.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Retires one valid iteration: stores the value of this lane's
    /// output port (read through `output`) at the next store address.
    /// Returns whether a store happened (false once the lane is full).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the address generator runs dry early.
    pub fn retire(&mut self, output: impl FnOnce(usize) -> i64) -> Result<bool, SystemError> {
        if self.remaining == 0 {
            return Ok(false);
        }
        let addr = self
            .addrs
            .next()
            .ok_or_else(|| SystemError("output address underflow".into()))?;
        self.bram.write(addr as usize, output(self.port));
        self.remaining -= 1;
        Ok(true)
    }

    /// Merges this lane's BRAM into `arrays[key]` (several writes of one
    /// array land in one image; non-zero words win) and returns the
    /// number of words written.
    pub fn merge_into(&self, arrays: &mut HashMap<String, Vec<i64>>, key: &str) -> u64 {
        let data = self.bram.data();
        let entry = arrays
            .entry(key.to_string())
            .or_insert_with(|| vec![0; data.len()]);
        for (i, &v) in data.iter().enumerate() {
            if v != 0 {
                if i >= entry.len() {
                    entry.resize(i + 1, 0);
                }
                entry[i] = v;
            }
        }
        self.bram.traffic().1
    }
}

/// System-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct SystemOptions {
    /// Words delivered per memory beat ("bus size ÷ data size" in the
    /// paper's smart-buffer parameterization). 1 models a word-wide bus;
    /// the paper's FIR uses 2 (16-bit bus, 8-bit data).
    pub bus_elems: usize,
}

impl Default for SystemOptions {
    fn default() -> Self {
        SystemOptions { bus_elems: 1 }
    }
}

/// Runs a kernel's generated hardware over concrete array contents.
///
/// `arrays` supplies input arrays by parameter name; `scalars` supplies
/// scalar live-in parameters. `netlist` must come from the kernel's
/// pipelined data path.
///
/// # Errors
///
/// Returns [`SystemError`] on missing buffers, unsupported access shapes
/// or netlist simulation faults.
pub fn run_system(
    kernel: &Kernel,
    netlist: &Netlist,
    arrays: &HashMap<String, Vec<i64>>,
    scalars: &HashMap<String, i64>,
) -> Result<SystemRun, SystemError> {
    run_system_with_options(kernel, netlist, arrays, scalars, SystemOptions::default())
}

/// [`run_system`] with explicit [`SystemOptions`] (bus width etc.).
///
/// # Errors
///
/// See [`run_system`].
pub fn run_system_with_options(
    kernel: &Kernel,
    netlist: &Netlist,
    arrays: &HashMap<String, Vec<i64>>,
    scalars: &HashMap<String, i64>,
    options: SystemOptions,
) -> Result<SystemRun, SystemError> {
    if kernel.dims.is_empty() {
        return Err(SystemError(
            "straight-line kernels have no loop to stream; use NetlistSim directly".into(),
        ));
    }

    // ----- input lanes ------------------------------------------------------
    let mut lanes: Vec<BramFeed> = Vec::new();
    for w in &kernel.windows {
        let data = arrays
            .get(&w.array)
            .ok_or_else(|| SystemError(format!("missing input array `{}`", w.array)))?;
        lanes.push(BramFeed::new(WindowFeed::new(kernel, w)?, data));
    }

    // ----- scalar live-ins --------------------------------------------------
    let ports = kernel.input_ports();
    let mut const_inputs: Vec<(usize, i64)> = Vec::new();
    for (name, _) in &kernel.scalar_inputs {
        let v = *scalars
            .get(name)
            .ok_or_else(|| SystemError(format!("missing scalar input `{name}`")))?;
        let port = ports.iter().position(|(n, _)| n == name);
        const_inputs.push((port.expect("scalar input is a port"), v));
    }

    // ----- output lanes -----------------------------------------------------
    let mut out_lanes: Vec<OutputLane> = Vec::new();
    for o in &kernel.outputs {
        out_lanes.extend(OutputLane::for_output(kernel, o)?);
    }

    // ----- main loop ----------------------------------------------------------
    // Compile the netlist once; every cycle then steps one lane of the
    // zero-allocation levelized engine instead of re-interpreting the
    // cell graph.
    let plan = SimPlan::compile(netlist)?;
    let mut sim = BatchedSim::new(&plan, 1);
    let total_iters = kernel.total_iterations();
    let mut fired = 0u64;
    let mut cycles = 0u64;
    // Single argument buffer reused every cycle (zeroed, then window
    // values written in for firing cycles).
    let mut args_buf = vec![0i64; netlist.inputs.len()];
    let ii = plan.ii();
    let safety = 16 * total_iters * ii + 4096;
    let mut drain = 0u32;
    let drain_needed = netlist.latency + 2;
    let bus = options.bus_elems.max(1);

    // Run until every output array is written, all iterations have fired,
    // and the pipeline has drained (so feedback finals are settled).
    while out_lanes.iter().any(|l| l.remaining() > 0) || fired < total_iters || drain < drain_needed
    {
        if fired >= total_iters {
            drain += 1;
        }
        cycles += 1;
        if cycles > safety {
            return Err(SystemError(format!(
                "system did not converge after {cycles} cycles ({fired}/{total_iters} fired)"
            )));
        }

        // 1. Memory data from last cycle lands in the smart buffers.
        for lane in &mut lanes {
            lane.land();
        }

        // 2. Fire when every lane has a window and the cycle lands on the
        //    schedule's initiation interval (the sim has stepped
        //    `cycles - 1` times at this point).
        let all_ready = fired < total_iters
            && !lanes.is_empty()
            && lanes.iter().all(|l| l.feed.is_staged())
            && (cycles - 1).is_multiple_of(ii);
        args_buf.fill(0);
        if all_ready {
            for lane in &mut lanes {
                lane.feed.fire_into(&mut args_buf);
            }
            for (port, v) in &const_inputs {
                args_buf[*port] = *v;
            }
            fired += 1;
        }

        // 3. Step the data path.
        sim.step_lanes(&args_buf, &[all_ready])?;

        // 4. Retire valid outputs.
        if sim.lane_out_valid(0) {
            for lane in &mut out_lanes {
                lane.retire(|port| sim.output_lane(port, 0))?;
            }
        }

        // 5. Issue next input reads (one beat of `bus_elems` words).
        for lane in &mut lanes {
            lane.fetch(bus);
        }
    }

    // Collect results.
    let mut result = SystemRun {
        cycles,
        fired,
        ..SystemRun::default()
    };
    result.mem_reads = lanes.iter().map(BramFeed::reads).sum();
    for lane in &out_lanes {
        result.mem_writes += lane.merge_into(&mut result.arrays, &lane.array);
    }
    for name in &kernel.live_out {
        if let Some(v) = sim.feedback_value(name, 0) {
            result.scalars.insert(format!("{name}_final"), v);
            result.scalars.insert(name.clone(), v);
        }
    }
    Ok(result)
}
