//! Whole-kernel system simulation (the paper's Figure 2 execution model).
//!
//! A [`SystemStage`] is the controller of one kernel over `lanes`
//! independent lanes of its data path. Per lane it holds, for each input
//! window, an address generator and a smart buffer fed by a BRAM (or by
//! the caller, word by word); for each output write, a store address
//! generator retiring into a BRAM (or handing `(addr, value)` to the
//! caller); and the scalar constant inputs. Each clock cycle runs five
//! steps:
//!
//! 1. **land** — last cycle's BRAM beat and the caller's words reach the
//!    smart buffers, which stage their next complete window;
//! 2. **fire** — a lane may fire once every window is staged and the
//!    cycle lands on the initiation-interval grid ([`Launch::Ready`]);
//!    the caller decides whether it does (a stream channel withholds
//!    the launch until it has credit for the burst); a kernel that reads
//!    no window fires on every grid cycle;
//! 3. **step** — the data path advances one clock;
//! 4. **retire** — lanes whose pipeline output is valid store one value
//!    per output write at the next store address;
//! 5. **fetch** — the next beat of `bus` BRAM reads is issued.
//!
//! The controller decides *when* an iteration fires and *where* its
//! values go; only the data path decides *what* they are. Where that
//! needs no past state — the plan has no feedback
//! ([`SimPlan::has_feedback`]) and no output is streamed to the caller —
//! the stage **defers** its data path. Steps 1, 2, 4 and 5 still run every
//! cycle, on the stage's own cycle count, but step 3 only shifts a
//! valid-bit register of the plan's latency: a fired window is queued,
//! the register says when it retires, and the retire logs its store
//! addresses. The queued iterations are computed 16 at a time (fewer if
//! the whole run fires fewer) on one wide [`BatchedSim`] and written to
//! the logged addresses in fire order. The last of them are computed in
//! the step that retires the last iteration, so every output is written,
//! and every fault reported, by the time [`SystemStage::done`] holds.
//! Cycles, firings and memory traffic are those of a stepped data path.
//! Stages with feedback or a streamed output step their data path, one
//! lane per stage lane, every cycle.
//!
//! [`run_system`] runs one one-lane stage to completion; the stream
//! co-simulator runs one stage per pipeline stage under channel credits.
//! Integration tests check it word-for-word against the golden-model C
//! interpreter, and the Table 1 harness reads its throughput numbers.
//! Memory costs O(1) per word, O(window) per firing and O(lanes ×
//! latency) queued firings, and nothing is allocated per cycle.

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
/// buffer, the map from window slot to data-path input port, one
/// reusable slot for the staged window and, when the window reads a
/// BRAM rather than the caller's words, that BRAM.
struct WindowFeed {
    addrs: Peekable<Box<dyn Iterator<Item = i64>>>,
    buffer: Box<dyn WindowBuffer>,
    /// `(window slot, data-path input port)`; windows may be sparse.
    port_map: Vec<(usize, usize)>,
    window: Vec<i64>,
    staged: bool,
    bram: Option<BramModel>,
}

impl WindowFeed {
    /// Builds the feed for window `w` of `kernel`, reading a BRAM that
    /// holds `memory`, or the caller's words when `memory` is `None`.
    fn new(kernel: &Kernel, w: &WindowSpec, memory: Option<Vec<i64>>) -> Result<Self, SystemError> {
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
            bram: memory.map(BramModel::new),
        })
    }

    /// Lands last cycle's BRAM beat (the whole beat arrives together),
    /// or up to `bus` of the caller's words from `pull`, in the smart
    /// buffer, and stages the next complete window unless one is staged.
    /// The caller's words are an in-order stream over the whole array:
    /// a word is kept when it is the next address the scan needs and
    /// discarded otherwise. Returns whether any word arrived.
    fn land(&mut self, bus: usize, mut pull: impl FnMut() -> Option<(usize, i64)>) -> bool {
        let mut arrived = false;
        if let Some(bram) = &mut self.bram {
            for (addr, v) in bram.clock_all() {
                self.buffer.push_flat(addr as i64, v);
                arrived = true;
            }
        } else {
            for _ in 0..bus {
                let Some((addr, v)) = pull() else { break };
                if self.addrs.next_if_eq(&(addr as i64)).is_some() {
                    self.buffer.push_flat(addr as i64, v);
                }
                arrived = true;
            }
        }
        if !self.staged {
            self.staged = self.buffer.pop_window_into(&mut self.window);
        }
        arrived
    }

    /// Drives the staged window onto its data-path ports in `args` and
    /// frees the slot.
    #[inline]
    fn fire_into(&mut self, args: &mut [i64]) {
        assert!(self.staged, "firing without a staged window");
        for &(slot, port) in &self.port_map {
            args[port] = self.window[slot];
        }
        self.staged = false;
    }

    /// Issues the next beat: up to `bus` BRAM reads of the scan's
    /// addresses.
    #[inline]
    fn fetch(&mut self, bus: usize) {
        let Some(bram) = &mut self.bram else {
            return;
        };
        for _ in 0..bus {
            match self.addrs.next() {
                Some(a) => bram.issue_read(a as usize),
                None => break,
            }
        }
    }

    /// Words read from the BRAM so far.
    fn reads(&self) -> u64 {
        self.bram.as_ref().map_or(0, |b| b.traffic().0)
    }
}

/// The store address generator of each write of output `o`, in write
/// order. The system retires through these, and the stream layer derives
/// its channel rates from them.
///
/// # Errors
///
/// Returns [`SystemError`] for store indices that are constant or not
/// loop variables.
pub fn store_addr_gens(
    kernel: &Kernel,
    o: &OutputSpec,
) -> Result<Vec<OutputAddressGen>, SystemError> {
    let row_width = if o.dims.len() == 2 { o.dims[1] } else { 1 };
    o.writes
        .iter()
        .map(|wr| {
            let dims = wr
                .index
                .iter()
                .map(|ai| {
                    let var = ai.var.as_ref().ok_or_else(|| {
                        SystemError(format!("store into `{}` uses a constant index", o.array))
                    })?;
                    let ld = kernel.dims.iter().find(|l| &l.var == var).ok_or_else(|| {
                        SystemError(format!("store index var `{var}` is not a loop variable"))
                    })?;
                    Ok(DimScan {
                        start: ld.start + ai.offset,
                        bound: ld.bound + ai.offset,
                        step: ld.step,
                        extent: 1,
                    })
                })
                .collect::<Result<_, SystemError>>()?;
            Ok(OutputAddressGen::new(dims, 0, row_width))
        })
        .collect()
}

/// One write of an output array: its data-path output port, its store
/// addresses and, unless the caller takes the values, its own BRAM.
struct OutputWrite {
    /// Index of the output array in `Kernel::outputs`.
    output: usize,
    array: String,
    port: usize,
    addrs: OutputAddressGen,
    remaining: u64,
    bram: Option<BramModel>,
}

impl OutputWrite {
    /// One entry per write of output `oi` of `kernel`; `streamed` hands
    /// the writes to the caller instead of a BRAM.
    fn for_output(kernel: &Kernel, oi: usize, streamed: bool) -> Result<Vec<Self>, SystemError> {
        let o = &kernel.outputs[oi];
        let out_ports = kernel.output_ports();
        let gens = store_addr_gens(kernel, o)?;
        o.writes
            .iter()
            .zip(gens)
            .map(|(wr, addrs)| {
                let port = out_ports
                    .iter()
                    .position(|(n, _)| n == &wr.scalar)
                    .ok_or_else(|| SystemError(format!("no output port for `{}`", wr.scalar)))?;
                Ok(OutputWrite {
                    output: oi,
                    array: o.array.clone(),
                    port,
                    remaining: addrs.total(),
                    addrs,
                    bram: (!streamed).then(|| BramModel::zeroed(o.dims.iter().product())),
                })
            })
            .collect()
    }
}

/// All per-lane state of a [`SystemStage`].
struct Lane {
    /// One feed per input window, in kernel order.
    feeds: Vec<WindowFeed>,
    /// One entry per output write, in kernel order.
    outs: Vec<OutputWrite>,
    fired: u64,
}

/// What one lane of a [`SystemStage`] can do this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launch {
    /// Every iteration has fired.
    Finished,
    /// The cycle is off the initiation-interval grid.
    OffGrid,
    /// Some input window is not staged yet.
    Starved,
    /// Every window is staged on a grid cycle: the lane may fire.
    Ready,
}

/// Lanes of the wide simulation that computes a deferred stage's values
/// (fewer when the whole run fires fewer iterations).
const TILE_LANES: usize = 16;

/// An empty pipeline stage in the valid-bit shift register, or a write
/// with no store address left.
const NONE: usize = usize::MAX;

/// How a stage computes its data path's values.
enum DataPath<'p> {
    /// Stepped every cycle, one sim lane per stage lane.
    Stepped {
        sim: BatchedSim<'p>,
        /// Row-major inputs of the next step: `args[lane * num_inputs + port]`.
        args: Vec<i64>,
        valid: Vec<bool>,
    },
    /// Queued at fire and computed in tiles.
    Deferred(Tiles<'p>),
    /// A deferred data path after its last iteration was written back;
    /// the tile buffers are freed.
    Written,
}

/// The data path of a stage whose plan has no feedback and whose outputs
/// all go to BRAM. Such an iteration's values depend on its input window
/// alone, so they need not be computed on the cycle it fires. Each fired
/// window is queued in a ring of firings; a valid-bit shift register of
/// the plan's latency carries it to the cycle it retires, where its store
/// addresses are logged. Retired firings are computed a tile at a time on
/// one wide [`BatchedSim`] of up to [`TILE_LANES`] lanes, and their
/// values are written to the logged addresses in fire order.
struct Tiles<'p> {
    sim: BatchedSim<'p>,
    /// Lanes of `sim`: a power of two.
    width: usize,
    /// Slots of the ring of firings: a power of two of at least `width`,
    /// with room for every firing not yet written back.
    cap: usize,
    /// Slots of the ring of inputs: a power of two of at least `width`,
    /// with room for every firing not yet sent into `sim`.
    row_cap: usize,
    num_inputs: usize,
    num_outputs: usize,
    num_writes: usize,
    ii: u64,
    /// Inputs of firing `f`: `rows[(f % row_cap) * num_inputs + port]`.
    rows: Vec<i64>,
    /// Stage lane of firing `f`: `lane[f % cap]`.
    lane: Vec<usize>,
    /// Store address of each write of retired firing `f`:
    /// `addrs[(f % cap) * num_writes + write]`, [`NONE`] for no store.
    addrs: Vec<usize>,
    /// The valid-bit shift register: per stage lane, the firing that
    /// retires at each of the next `latency` cycles (or [`NONE`]), one
    /// row of `stage_lanes` entries per cycle modulo `latency`.
    pipe: Vec<usize>,
    /// Offset in `pipe` of the row this cycle's firings take, which the
    /// step `latency` cycles later retires.
    pipe_at: usize,
    stage_lanes: usize,
    /// Firings queued, retired, sent into `sim` and written back so far.
    queued: usize,
    retired: usize,
    sent: usize,
    written: usize,
    /// Scratch: the valid lanes of a tile and one tile of outputs.
    valid: Vec<bool>,
    out: Vec<i64>,
}

impl<'p> Tiles<'p> {
    /// Tiles for `lanes` stage lanes of `plan` that fire `firings` times
    /// in all, with `num_writes` output writes per firing.
    fn new(plan: &'p SimPlan, lanes: usize, firings: u64, num_writes: usize) -> Self {
        let width = TILE_LANES.min(
            usize::try_from(firings)
                .unwrap_or(TILE_LANES)
                .next_power_of_two(),
        );
        let latency = plan.latency() as usize;
        // At a fire, up to `latency - 1` tiles are in `sim`, fewer than a
        // tile of firings is retired but not sent, and each lane has fired
        // at most `latency` times since its last retire.
        let row_cap = (width + lanes * latency).next_power_of_two();
        let cap = ((width + lanes) * latency).next_power_of_two();
        let (num_inputs, num_outputs) = (plan.num_inputs(), plan.num_outputs());
        Tiles {
            sim: BatchedSim::new(plan, width),
            width,
            cap,
            row_cap,
            num_inputs,
            num_outputs,
            num_writes,
            ii: plan.ii(),
            rows: vec![0; row_cap * num_inputs],
            lane: vec![0; cap],
            addrs: vec![NONE; cap * num_writes],
            pipe: vec![NONE; latency * lanes],
            pipe_at: (1 % latency) * lanes,
            stage_lanes: lanes,
            queued: 0,
            retired: 0,
            sent: 0,
            written: 0,
            valid: vec![false; width],
            out: vec![0; width * num_outputs],
        }
    }

    /// Queues a firing of lane `l` and returns its input row, zeroed.
    #[inline]
    fn queue(&mut self, l: usize) -> &mut [i64] {
        let f = self.queued;
        assert!(
            f - self.written < self.cap && f - self.sent < self.row_cap,
            "tile ring overrun"
        );
        self.queued += 1;
        self.pipe[self.pipe_at + l] = f;
        self.lane[f & (self.cap - 1)] = l;
        let slot = f & (self.row_cap - 1);
        let args = &mut self.rows[slot * self.num_inputs..(slot + 1) * self.num_inputs];
        args.fill(0);
        args
    }

    /// Advances the shift register one cycle and retires the firings
    /// whose pipeline output is now valid: each takes the next store
    /// address of each write of its lane. Returns whether any word was
    /// stored.
    fn retire(&mut self, lanes: &mut [Lane]) -> Result<bool, SystemError> {
        self.pipe_at += self.stage_lanes;
        if self.pipe_at == self.pipe.len() {
            self.pipe_at = 0;
        }
        let row = self.pipe_at;
        let mut stored = false;
        for (l, lane) in lanes.iter_mut().enumerate() {
            let f = std::mem::replace(&mut self.pipe[row + l], NONE);
            if f == NONE {
                continue;
            }
            let slot = f & (self.cap - 1);
            let logged = &mut self.addrs[slot * self.num_writes..(slot + 1) * self.num_writes];
            for (addr, out) in logged.iter_mut().zip(&mut lane.outs) {
                *addr = if out.remaining > 0 {
                    out.remaining -= 1;
                    stored = true;
                    out.addrs
                        .next()
                        .ok_or_else(|| SystemError("output address underflow".into()))?
                        as usize
                } else {
                    NONE
                };
            }
            self.retired += 1;
        }
        Ok(stored)
    }

    /// Computes the retired firings a full tile at a time.
    fn flush(&mut self, lanes: &mut [Lane]) -> Result<(), SimError> {
        while self.retired - self.sent >= self.width {
            self.send(self.width, lanes)?;
        }
        Ok(())
    }

    /// Computes every queued firing and writes its values back, once
    /// every iteration has fired. A firing still in the pipeline is
    /// retired now with no store: it would find none left.
    fn finish(&mut self, lanes: &mut [Lane]) -> Result<(), SimError> {
        for f in &mut self.pipe {
            if *f != NONE {
                let slot = std::mem::replace(f, NONE) & (self.cap - 1);
                self.addrs[slot * self.num_writes..(slot + 1) * self.num_writes].fill(NONE);
            }
        }
        self.retired = self.queued;
        self.flush(lanes)?;
        if self.retired > self.sent {
            self.send(self.retired - self.sent, lanes)?;
        }
        while self.written < self.sent {
            self.clock(0, lanes)?;
        }
        Ok(())
    }

    /// Sends the next `n` retired firings into `sim` on its next grid
    /// cycle.
    fn send(&mut self, n: usize, lanes: &mut [Lane]) -> Result<(), SimError> {
        while !self.sim.cycles().is_multiple_of(self.ii) {
            self.clock(0, lanes)?;
        }
        self.clock(n, lanes)
    }

    /// Steps `sim` once with the next `n` firings in its first lanes
    /// (none: a bubble) and writes back the tile that leaves the pipeline.
    fn clock(&mut self, n: usize, lanes: &mut [Lane]) -> Result<(), SimError> {
        // Tiles start on a multiple of `width` (only the last one is
        // partial), so a tile is one slice of the ring. Lanes past `n`
        // are bubbles, whatever rows they see.
        let start = if n == 0 {
            0
        } else {
            self.sent & (self.row_cap - 1)
        };
        let nin = self.num_inputs;
        let args = &self.rows[start * nin..(start + self.width) * nin];
        for (i, v) in self.valid.iter_mut().enumerate() {
            *v = i < n;
        }
        self.sim.step_lanes(args, &self.valid)?;
        self.sent += n;

        let leaving = (0..self.width)
            .take_while(|&l| self.sim.lane_out_valid(l))
            .count();
        let nout = self.num_outputs;
        let out = &mut self.out[..leaving * nout];
        self.sim.read_output_rows(leaving, out);
        for i in 0..leaving {
            let slot = (self.written + i) & (self.cap - 1);
            let logged = &self.addrs[slot * self.num_writes..(slot + 1) * self.num_writes];
            for (write, &addr) in lanes[self.lane[slot]].outs.iter_mut().zip(logged) {
                if addr != NONE {
                    let bram = write
                        .bram
                        .as_mut()
                        .expect("a deferred stage stores to BRAM");
                    bram.write(addr, out[i * nout + write.port]);
                }
            }
        }
        self.written += leaving;
        Ok(())
    }
}

/// The steppable controller of one kernel over `lanes` lanes (see the
/// module docs for the five steps of a cycle). A cycle is
/// [`land`](Self::land), then [`fire`](Self::fire) for each lane the
/// caller launches, then [`step`](Self::step).
pub struct SystemStage<'p> {
    datapath: DataPath<'p>,
    lanes: Vec<Lane>,
    /// `(data-path input port, value)` of each scalar input.
    consts: Vec<(usize, i64)>,
    total: u64,
    ii: u64,
    bus: usize,
    num_inputs: usize,
    /// Cycles stepped so far.
    cycle: u64,
}

impl<'p> SystemStage<'p> {
    /// Builds the stage of `kernel` on `plan` (compiled from the kernel's
    /// pipelined data path) with one lane per entry of `memories`. Each
    /// entry holds, per input window, the contents of the BRAM feeding
    /// it, or `None` when the caller feeds it through
    /// [`land`](Self::land). `streamed[o]` hands the writes of output
    /// `o` to the caller of [`step`](Self::step) instead of a BRAM.
    /// `scalars` supplies the scalar inputs, shared by all lanes. Each
    /// beat fetches `bus` words per BRAM.
    ///
    /// A stage whose plan has no feedback and that streams no output
    /// defers its data path: see the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for straight-line kernels, missing
    /// scalars and unsupported access shapes.
    ///
    /// # Panics
    ///
    /// Panics if `memories` is empty, or if an entry of `memories` or
    /// `streamed` does not match the kernel's window or output count.
    pub fn new(
        kernel: &Kernel,
        plan: &'p SimPlan,
        memories: Vec<Vec<Option<Vec<i64>>>>,
        streamed: &[bool],
        scalars: &HashMap<String, i64>,
        bus: usize,
    ) -> Result<Self, SystemError> {
        if kernel.dims.is_empty() {
            return Err(SystemError(
                "straight-line kernels have no loop to stream; use NetlistSim directly".into(),
            ));
        }
        assert_eq!(streamed.len(), kernel.outputs.len(), "one flag per output");
        assert!(!memories.is_empty(), "at least one lane");
        let ports = kernel.input_ports();
        let consts = kernel
            .scalar_inputs
            .iter()
            .map(|(name, _)| {
                let v = *scalars
                    .get(name)
                    .ok_or_else(|| SystemError(format!("missing scalar input `{name}`")))?;
                let port = ports.iter().position(|(n, _)| n == name);
                Ok((port.expect("scalar input is a port"), v))
            })
            .collect::<Result<_, SystemError>>()?;
        let num_inputs = plan.num_inputs();
        let n = memories.len();
        let datapath = if plan.has_feedback() || streamed.contains(&true) {
            DataPath::Stepped {
                sim: BatchedSim::new(plan, n),
                args: vec![0; num_inputs * n],
                valid: vec![false; n],
            }
        } else {
            let firings = kernel.total_iterations() * n as u64;
            let writes = kernel.outputs.iter().map(|o| o.writes.len()).sum();
            DataPath::Deferred(Tiles::new(plan, n, firings, writes))
        };
        let lanes = memories
            .into_iter()
            .map(|memory| {
                assert_eq!(memory.len(), kernel.windows.len(), "one memory per window");
                let feeds = kernel
                    .windows
                    .iter()
                    .zip(memory)
                    .map(|(w, m)| WindowFeed::new(kernel, w, m))
                    .collect::<Result<_, _>>()?;
                let mut outs = Vec::new();
                for (oi, &s) in streamed.iter().enumerate() {
                    outs.extend(OutputWrite::for_output(kernel, oi, s)?);
                }
                Ok(Lane {
                    feeds,
                    outs,
                    fired: 0,
                })
            })
            .collect::<Result<Vec<_>, SystemError>>()?;
        Ok(SystemStage {
            datapath,
            lanes,
            consts,
            total: kernel.total_iterations(),
            ii: plan.ii(),
            bus: bus.max(1),
            num_inputs,
            cycle: 0,
        })
    }

    /// Iterations fired so far in lane `l`.
    #[inline]
    pub fn fired(&self, l: usize) -> u64 {
        self.lanes[l].fired
    }

    /// Whether every lane has fired every iteration and retired every
    /// store.
    #[inline]
    pub fn done(&self) -> bool {
        self.lanes
            .iter()
            .all(|lane| lane.fired >= self.total && lane.outs.iter().all(|o| o.remaining == 0))
    }

    /// Step 1: lands last cycle's BRAM beats, takes up to `bus` words per
    /// caller-fed window from `pull(lane, window)` (words the window scan
    /// does not need are discarded), and stages each window. Returns
    /// whether any word arrived.
    pub fn land(&mut self, mut pull: impl FnMut(usize, usize) -> Option<(usize, i64)>) -> bool {
        let mut arrived = false;
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            for (w, feed) in lane.feeds.iter_mut().enumerate() {
                arrived |= feed.land(self.bus, || pull(l, w));
            }
        }
        arrived
    }

    /// Whether lane `l` may fire this cycle. Launches land on multiples
    /// of the initiation interval, counted in this stage's own cycles.
    /// A kernel that reads no window fires on every grid cycle.
    #[inline]
    pub fn launch_state(&self, l: usize) -> Launch {
        let lane = &self.lanes[l];
        if lane.fired >= self.total {
            Launch::Finished
        } else if self.ii > 1 && !self.cycle.is_multiple_of(self.ii) {
            Launch::OffGrid
        } else if !lane.feeds.iter().all(|f| f.staged) {
            Launch::Starved
        } else {
            Launch::Ready
        }
    }

    /// Step 2: fires lane `l`, driving its staged windows and the scalar
    /// inputs onto the data path for the coming [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if a window of lane `l` is not staged.
    #[inline]
    pub fn fire(&mut self, l: usize) {
        let row = match &mut self.datapath {
            DataPath::Stepped { args, valid, .. } => {
                valid[l] = true;
                &mut args[l * self.num_inputs..(l + 1) * self.num_inputs]
            }
            DataPath::Deferred(tiles) => tiles.queue(l),
            DataPath::Written => unreachable!("every iteration has fired"),
        };
        let lane = &mut self.lanes[l];
        for feed in &mut lane.feeds {
            feed.fire_into(row);
        }
        for &(port, v) in &self.consts {
            row[port] = v;
        }
        lane.fired += 1;
    }

    /// Steps 3–5: advances the data path one clock, retires the lanes
    /// whose pipeline output is valid (a streamed write goes to
    /// `push(lane, output, addr, value)`), and issues the next BRAM beat.
    /// Returns whether anything retired.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on data-path faults (such as division by
    /// zero, or a launch off the initiation-interval grid) and on store
    /// address underflow. A deferred stage reports a fault when the tile
    /// holding the faulting iteration is computed, at the latest in the
    /// step that retires the last iteration.
    pub fn step(
        &mut self,
        mut push: impl FnMut(usize, usize, usize, i64),
    ) -> Result<bool, SystemError> {
        self.cycle += 1;
        let retired = match &mut self.datapath {
            DataPath::Stepped { sim, args, valid } => {
                sim.step_lanes(args, valid)?;
                // Only a firing writes `args`; otherwise they are still zero.
                if valid.contains(&true) {
                    args.fill(0);
                    valid.fill(false);
                }
                let mut retired = false;
                for (l, lane) in self.lanes.iter_mut().enumerate() {
                    if !sim.lane_out_valid(l) {
                        continue;
                    }
                    for out in lane.outs.iter_mut().filter(|o| o.remaining > 0) {
                        let addr = out
                            .addrs
                            .next()
                            .ok_or_else(|| SystemError("output address underflow".into()))?
                            as usize;
                        let value = sim.output_lane(out.port, l);
                        match &mut out.bram {
                            Some(bram) => bram.write(addr, value),
                            None => push(l, out.output, addr, value),
                        }
                        out.remaining -= 1;
                        retired = true;
                    }
                }
                retired
            }
            DataPath::Deferred(tiles) => {
                let retired = tiles.retire(&mut self.lanes)?;
                // Once every iteration has fired and retired, or every
                // store is done (so the run may end), compute the rest.
                let lanes = &self.lanes;
                let fired = tiles.queued as u64 == self.total * lanes.len() as u64;
                let stored = || lanes.iter().flat_map(|l| &l.outs).all(|o| o.remaining == 0);
                if fired && (tiles.retired == tiles.queued || stored()) {
                    tiles.finish(&mut self.lanes)?;
                    self.datapath = DataPath::Written;
                } else {
                    tiles.flush(&mut self.lanes)?;
                }
                retired
            }
            DataPath::Written => false,
        };
        for lane in &mut self.lanes {
            for feed in &mut lane.feeds {
                feed.fetch(self.bus);
            }
        }
        Ok(retired)
    }

    /// Words read from the input BRAMs so far, over all lanes.
    pub fn reads(&self) -> u64 {
        self.lanes
            .iter()
            .flat_map(|lane| &lane.feeds)
            .map(WindowFeed::reads)
            .sum()
    }

    /// Merges lane `l`'s output BRAMs into `arrays`, keyed
    /// `{prefix}{array}` (several writes of one array land in one image;
    /// non-zero words win), and returns the number of words written.
    pub fn merge_outputs(
        &self,
        l: usize,
        prefix: &str,
        arrays: &mut HashMap<String, Vec<i64>>,
    ) -> u64 {
        let mut writes = 0;
        for out in &self.lanes[l].outs {
            let Some(bram) = &out.bram else { continue };
            let data = bram.data();
            let entry = arrays
                .entry([prefix, &out.array].concat())
                .or_insert_with(|| vec![0; data.len()]);
            for (i, &v) in data.iter().enumerate() {
                if v != 0 {
                    if i >= entry.len() {
                        entry.resize(i + 1, 0);
                    }
                    entry[i] = v;
                }
            }
            writes += bram.traffic().1;
        }
        writes
    }

    /// Current state of feedback register `name` in lane `l` (a deferred
    /// stage has none).
    pub fn feedback_value(&self, name: &str, l: usize) -> Option<i64> {
        match &self.datapath {
            DataPath::Stepped { sim, .. } => sim.feedback_value(name, l),
            DataPath::Deferred(_) | DataPath::Written => None,
        }
    }
}

/// Runs a kernel's generated hardware over concrete array contents: one
/// one-lane [`SystemStage`] run to completion, its BRAMs fetching
/// `bus_elems` words per beat ("bus size ÷ data size" in the paper's
/// smart-buffer parameterization; the paper's FIR uses 2).
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
    bus_elems: usize,
) -> Result<SystemRun, SystemError> {
    let memory = kernel
        .windows
        .iter()
        .map(|w| {
            let data = arrays
                .get(&w.array)
                .ok_or_else(|| SystemError(format!("missing input array `{}`", w.array)))?;
            Ok(Some(data.clone()))
        })
        .collect::<Result<Vec<_>, SystemError>>()?;
    let plan = SimPlan::compile(netlist)?;
    let streamed = vec![false; kernel.outputs.len()];
    let mut stage = SystemStage::new(kernel, &plan, vec![memory], &streamed, scalars, bus_elems)?;

    let total_iters = kernel.total_iterations();
    let safety = 16 * total_iters * plan.ii() + 4096;
    let drain_needed = netlist.latency + 2;
    let mut drain = 0u32;
    let mut cycles = 0u64;
    // Run until every output array is written, all iterations have fired,
    // and the pipeline has drained (so feedback finals are settled).
    while !stage.done() || drain < drain_needed {
        if stage.fired(0) >= total_iters {
            drain += 1;
        }
        cycles += 1;
        if cycles > safety {
            return Err(SystemError(format!(
                "system did not converge after {cycles} cycles ({}/{total_iters} fired)",
                stage.fired(0)
            )));
        }
        stage.land(|_, _| None);
        if stage.launch_state(0) == Launch::Ready {
            stage.fire(0);
        }
        stage.step(|_, _, _, _| {})?;
    }

    let mut result = SystemRun {
        cycles,
        fired: stage.fired(0),
        mem_reads: stage.reads(),
        ..SystemRun::default()
    };
    result.mem_writes = stage.merge_outputs(0, "", &mut result.arrays);
    for name in &kernel.live_out {
        if let Some(v) = stage.feedback_value(name, 0) {
            result.scalars.insert(format!("{name}_final"), v);
            result.scalars.insert(name.clone(), v);
        }
    }
    Ok(result)
}
