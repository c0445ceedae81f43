//! Whole-kernel system simulation (the paper's Figure 2 execution model).
//!
//! A [`SystemStage`] is the controller of one kernel over `lanes`
//! independent lanes of its data path. Per lane it holds, for each input
//! window, a feed that reads a BRAM (or the caller's words); for each
//! output write, a store address generator retiring into a BRAM (or
//! handing `(addr, value)` to the caller); and the scalar constant
//! inputs. Each clock cycle runs five steps:
//!
//! 1. **land** — last cycle's BRAM beat and the caller's words arrive,
//!    and each feed stages its next complete window;
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
//! **Staging is a counter.** A window's address generator streams each
//! word the scan needs once, in increasing order, so window *k* is
//! complete exactly when the count of landed words passes the stream
//! position of its last word: `k·step + extent` words for a 1-D scan
//! whose windows overlap or touch, `(k+1)·extent` when the stride skips
//! words, and the row-major position inside the scanned box for a 2-D
//! scan. That is the smart buffers' own rule (`roccc_buffers::smart`, the
//! reference model the tests drive beside this one). A BRAM's read port
//! is a count of the words issued; a beat lands whole on the next cycle.
//! A fired window is gathered straight from memory: from the BRAM's
//! contents, which never change (an address out of range reads 0), or
//! from the caller's words, which a feed holds over the live span of its
//! scan only.
//!
//! The controller decides *when* an iteration fires and *where* its
//! values go; only the data path decides *what* they are. How a stage
//! computes them follows from what they can depend on:
//!
//! - **Ahead.** The plan has no feedback ([`SimPlan::has_feedback`]) and
//!   every window reads a BRAM, so an iteration's values depend on its
//!   index alone. The stage gathers rows by iteration index and computes
//!   them 16 at a time on one wide [`BatchedSim`] when a retire first
//!   needs one; a valid-bit shift register of the plan's latency says
//!   when each firing retires, and the retire finds its values computed,
//!   whether it stores to a BRAM or streams to the caller. [`run_system`]
//!   and the head stage of a stream pipeline run this way.
//! - **Behind.** The plan has no feedback, some window reads the caller's
//!   words and no output is streamed. A fired window is queued, its
//!   retire logs its store addresses, and retired firings are computed a
//!   tile at a time and written back in fire order; the last of them in
//!   the step that retires the last iteration.
//! - **Stepped.** A plan with feedback, or a stage that both reads the
//!   caller's words and streams an output, steps its data path every
//!   cycle, one sim lane per stage lane.
//!
//! Cycles, firings and memory traffic do not depend on the mode, and
//! every output is written, and every fault reported, by the time
//! [`SystemStage::done`] holds.
//!
//! [`run_system`] runs one one-lane stage to completion; the stream
//! co-simulator runs one stage per pipeline stage under channel credits.
//! Integration tests check it word-for-word against the golden-model C
//! interpreter, and the Table 1 harness reads its throughput numbers.
//! Memory costs O(1) per BRAM-fed window, the live span of its scan per
//! caller-fed window and O((16 + lanes) × latency) rows per stage, and
//! nothing is allocated per cycle.

use crate::cells::Netlist;
use crate::plan::{BatchedSim, SimPlan};
use crate::sim::SimError;
use roccc_buffers::addr::{AddressGen1d, AddressGen2d, DimScan, OutputAddressGen};
use roccc_buffers::bram::BramModel;
use roccc_hlir::kernel::{Kernel, OutputSpec, WindowSpec};
use std::collections::{HashMap, VecDeque};
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

/// The scan of one input window, as the address generators and smart
/// buffers of `roccc_buffers` take it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowScan {
    /// One scan per window dimension, outermost first (one or two).
    pub dims: Vec<DimScan>,
    /// Words per row of the array (1 unless the array has two
    /// dimensions).
    pub row_width: usize,
    /// `(window slot, data-path input port)` of each read, the slot
    /// row-major in the window's extent box; windows may be sparse.
    pub port_map: Vec<(usize, usize)>,
}

/// The scan of window `w` of `kernel`: the input windows' half of what
/// [`store_addr_gens`] is for the stores.
///
/// # Errors
///
/// Returns [`SystemError`] for windows with no reads, constant or
/// unknown index variables, more than two dimensions, and reads with no
/// input port.
pub fn window_scan(kernel: &Kernel, w: &WindowSpec) -> Result<WindowScan, SystemError> {
    let ndim = w
        .reads
        .first()
        .map(|r| r.index.len())
        .ok_or_else(|| SystemError(format!("window `{}` has no reads", w.array)))?;
    let extent = w.extent();

    // Loop dimension for each window dimension.
    let mut dims = Vec::new();
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
        dims.push(DimScan {
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
    Ok(WindowScan {
        dims,
        row_width: if w.dims.len() == 2 { w.dims[1] } else { 1 },
        port_map,
    })
}

/// A word's place: its flat address and its position in the address
/// generator's stream (or a step between two places).
#[derive(Debug, Clone, Copy, Default)]
struct Place {
    addr: i64,
    pos: usize,
}

impl std::ops::Add for Place {
    type Output = Place;

    fn add(self, step: Place) -> Place {
        Place {
            addr: self.addr + step.addr,
            pos: self.pos + step.pos,
        }
    }
}

/// Where the windows of a scan sit. Window positions run row-major in
/// bands (one band for a 1-D scan); a window's first word moves by
/// `along` to the next window of its band, and a band's first word by
/// `across` to the next band's.
#[derive(Debug, Clone)]
struct Layout {
    windows: u64,
    per_band: u64,
    first: Place,
    along: Place,
    across: Place,
    /// Stream position of a window's last word, from its first.
    last: usize,
    /// Words the scan streams.
    words: u64,
    /// Each read's word, from the window's first, and its input port.
    taps: Vec<(Place, usize)>,
}

impl Layout {
    fn new(scan: &WindowScan) -> Self {
        match scan.dims[..] {
            [d] => {
                // The stream skips the words between windows a stride
                // larger than the extent leaves out.
                let pos_step = d.step.clamp(0, d.extent as i64) as usize;
                Layout {
                    windows: d.positions(),
                    per_band: d.positions(),
                    first: Place {
                        addr: d.start,
                        pos: 0,
                    },
                    along: Place {
                        addr: d.step,
                        pos: pos_step,
                    },
                    across: Place::default(),
                    last: d.extent - 1,
                    words: AddressGen1d::new(d).total(),
                    taps: scan
                        .port_map
                        .iter()
                        .map(|&(slot, port)| {
                            (
                                Place {
                                    addr: slot as i64,
                                    pos: slot,
                                },
                                port,
                            )
                        })
                        .collect(),
                }
            }
            [rows, cols] => {
                // The stream is every word of the box the windows span,
                // row by row.
                let width = scan.row_width as i64;
                let box_w = (cols.last_touched() - cols.start + 1).max(0) as usize;
                let at = |r: usize, c: usize| Place {
                    addr: r as i64 * width + c as i64,
                    pos: r * box_w + c,
                };
                Layout {
                    windows: rows.positions() * cols.positions(),
                    per_band: cols.positions(),
                    first: Place {
                        addr: rows.start * width + cols.start,
                        pos: 0,
                    },
                    along: at(0, cols.step.max(0) as usize),
                    across: at(rows.step.max(0) as usize, 0),
                    last: (rows.extent - 1) * box_w + cols.extent - 1,
                    words: AddressGen2d::new(rows, cols, scan.row_width).total(),
                    taps: scan
                        .port_map
                        .iter()
                        .map(|&(slot, port)| (at(slot / cols.extent, slot % cols.extent), port))
                        .collect(),
                }
            }
            _ => unreachable!("window_scan returns one or two dimensions"),
        }
    }
}

/// Window `k` of a scan, walked one window at a time.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    k: u64,
    /// Windows before `k` in its band.
    in_band: u64,
    /// First word of the band's first window, and of window `k`.
    band: Place,
    at: Place,
}

impl Cursor {
    fn new(layout: &Layout) -> Self {
        Cursor {
            k: 0,
            in_band: 0,
            band: layout.first,
            at: layout.first,
        }
    }

    #[inline]
    fn advance(&mut self, layout: &Layout) {
        self.k += 1;
        self.in_band += 1;
        if self.in_band == layout.per_band {
            self.in_band = 0;
            self.band = self.band + layout.across;
            self.at = self.band;
        } else {
            self.at = self.at + layout.along;
        }
    }
}

/// Where a window's words come from.
enum Source {
    /// A BRAM holding the array, and the count of scan words its read
    /// port has issued.
    Bram { data: Vec<i64>, issued: u64 },
    /// The caller's in-order stream over the whole array. The scan's
    /// addresses pick out its words; those from stream position `base`
    /// on are held.
    Caller {
        addrs: Peekable<Box<dyn Iterator<Item = i64>>>,
        held: VecDeque<i64>,
        base: usize,
    },
}

/// One input window's memory side, built once from a [`WindowScan`]:
/// where its windows sit, the next window to stage, how many scan words
/// have landed and where they come from.
struct WindowFeed {
    layout: Layout,
    next: Cursor,
    staged: bool,
    landed: u64,
    source: Source,
}

impl WindowFeed {
    /// Builds the feed for `scan`, reading a BRAM that holds `memory`, or
    /// the caller's words when `memory` is `None`.
    fn new(scan: &WindowScan, memory: Option<Vec<i64>>) -> Self {
        let source = match memory {
            Some(data) => Source::Bram { data, issued: 0 },
            None => {
                let addrs: Box<dyn Iterator<Item = i64>> = match scan.dims[..] {
                    [d] => Box::new(AddressGen1d::new(d)),
                    [rows, cols] => Box::new(AddressGen2d::new(rows, cols, scan.row_width)),
                    _ => unreachable!("window_scan returns one or two dimensions"),
                };
                Source::Caller {
                    addrs: addrs.peekable(),
                    held: VecDeque::new(),
                    base: 0,
                }
            }
        };
        let layout = Layout::new(scan);
        WindowFeed {
            next: Cursor::new(&layout),
            layout,
            staged: false,
            landed: 0,
            source,
        }
    }

    /// Lands last cycle's BRAM beat (the whole beat arrives together),
    /// or up to `bus` of the caller's words from `pull`, and stages the
    /// next window once its last word has landed, unless one is staged.
    /// The caller's words are an in-order stream over the whole array: a
    /// word is kept when it is the next address the scan needs and
    /// discarded otherwise. Returns whether any word arrived.
    fn land(&mut self, bus: usize, mut pull: impl FnMut() -> Option<(usize, i64)>) -> bool {
        let mut arrived = false;
        match &mut self.source {
            Source::Bram { issued, .. } => {
                arrived = *issued > self.landed;
                self.landed = *issued;
            }
            Source::Caller { addrs, held, base } => {
                for _ in 0..bus {
                    let Some((addr, v)) = pull() else { break };
                    arrived = true;
                    if addrs.next_if_eq(&(addr as i64)).is_some() {
                        if self.landed >= *base as u64 {
                            held.push_back(v);
                        }
                        self.landed += 1;
                    }
                }
            }
        }
        if !self.staged && self.next.k < self.layout.windows {
            self.staged = self.landed > (self.next.at.pos + self.layout.last) as u64;
        }
        arrived
    }

    /// Drives the words of the window whose first word is `at` onto
    /// their data-path ports in `args`.
    #[inline]
    fn gather(&self, at: Place, args: &mut [i64]) {
        match &self.source {
            Source::Bram { data, .. } => {
                for &(tap, port) in &self.layout.taps {
                    let addr = usize::try_from(at.addr + tap.addr).ok();
                    args[port] = addr.and_then(|a| data.get(a)).copied().unwrap_or(0);
                }
            }
            Source::Caller { held, base, .. } => {
                for &(tap, port) in &self.layout.taps {
                    args[port] = held[at.pos + tap.pos - base];
                }
            }
        }
    }

    /// Fires the staged window, driving it onto its ports in `args` when
    /// given, and frees the slot. The caller's words before the next
    /// window are dropped.
    #[inline]
    fn fire(&mut self, args: Option<&mut [i64]>) {
        assert!(self.staged, "firing without a staged window");
        if let Some(args) = args {
            self.gather(self.next.at, args);
        }
        self.staged = false;
        self.next.advance(&self.layout);
        if let Source::Caller { held, base, .. } = &mut self.source {
            let live = self.next.at.pos.max(*base);
            held.drain(..(live - *base).min(held.len()));
            *base = live;
        }
    }

    /// Issues the next beat: up to `bus` BRAM reads of the scan.
    #[inline]
    fn fetch(&mut self, bus: usize) {
        if let Source::Bram { issued, .. } = &mut self.source {
            *issued = (*issued + bus as u64).min(self.layout.words);
        }
    }

    /// Words read from the BRAM so far.
    fn reads(&self) -> u64 {
        match self.source {
            Source::Bram { issued, .. } => issued,
            Source::Caller { .. } => 0,
        }
    }

    /// Whether the window reads a BRAM rather than the caller's words.
    fn reads_bram(&self) -> bool {
        matches!(self.source, Source::Bram { .. })
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

impl Lane {
    /// Retires one firing of this lane, lane `l` of its stage: each write
    /// with a store left stores `value(port)` at its next store address,
    /// in its BRAM or through `push(lane, output, addr, value)`. Returns
    /// whether any word was stored.
    #[inline]
    fn store(
        &mut self,
        l: usize,
        value: impl Fn(usize) -> i64,
        push: &mut impl FnMut(usize, usize, usize, i64),
    ) -> Result<bool, SystemError> {
        let mut stored = false;
        for out in self.outs.iter_mut().filter(|o| o.remaining > 0) {
            let addr = out
                .addrs
                .next()
                .ok_or_else(|| SystemError("output address underflow".into()))?
                as usize;
            let v = value(out.port);
            match &mut out.bram {
                Some(bram) => bram.write(addr, v),
                None => push(l, out.output, addr, v),
            }
            out.remaining -= 1;
            stored = true;
        }
        Ok(stored)
    }
}

/// Lanes of the wide simulation that computes a deferred stage's values
/// (fewer when the whole run fires fewer iterations).
const TILE_LANES: usize = 16;

/// An empty pipeline stage in the valid-bit shift register, or a write
/// with no store address left.
const NONE: usize = usize::MAX;

/// The lanes of a tile sim for `firings` firings in all: a power of two.
fn tile_width(firings: u64) -> usize {
    TILE_LANES.min(
        usize::try_from(firings)
            .unwrap_or(TILE_LANES)
            .next_power_of_two(),
    )
}

/// The valid-bit shift register of a deferred data path: per stage lane,
/// the firing that retires at each of the next `latency` cycles (or
/// [`NONE`]), one row of `lanes` entries per cycle modulo `latency`.
struct Pipe {
    slots: Vec<usize>,
    /// Offset in `slots` of the row this cycle's firings take, which the
    /// shift `latency` cycles later retires.
    at: usize,
    lanes: usize,
}

impl Pipe {
    fn new(latency: usize, lanes: usize) -> Self {
        Pipe {
            slots: vec![NONE; latency * lanes],
            at: (1 % latency) * lanes,
            lanes,
        }
    }

    /// Enters firing `f` of lane `l` this cycle.
    #[inline]
    fn enter(&mut self, l: usize, f: usize) {
        self.slots[self.at + l] = f;
    }

    /// Advances one cycle and returns the offset of the row retiring now.
    #[inline]
    fn shift(&mut self) -> usize {
        self.at += self.lanes;
        if self.at == self.slots.len() {
            self.at = 0;
        }
        self.at
    }

    /// Takes lane `l`'s firing out of the row at `row`.
    #[inline]
    fn take(&mut self, row: usize, l: usize) -> usize {
        std::mem::replace(&mut self.slots[row + l], NONE)
    }
}

/// How a stage computes its data path's values (see the module docs).
enum DataPath<'p> {
    /// Stepped every cycle, one sim lane per stage lane.
    Stepped {
        sim: BatchedSim<'p>,
        /// Row-major inputs of the next step: `args[lane * num_inputs + port]`.
        args: Vec<i64>,
        valid: Vec<bool>,
    },
    /// Computed by iteration index before the retire needs it.
    Ahead(Ahead<'p>),
    /// Queued at fire and computed in tiles after the retire.
    Behind(Tiles<'p>),
    /// A deferred data path after its last iteration was computed; the
    /// tile buffers are freed.
    Written,
}

/// The data path of a stage whose plan has no feedback and whose windows
/// all read BRAMs. Iteration `i` of stage lane `l` is row `i × lanes + l`,
/// whose inputs are its windows' words in the BRAMs and the scalar
/// inputs: nothing a cycle can change. A retire that needs a row not yet
/// computed clocks one wide [`BatchedSim`] of up to [`TILE_LANES`] lanes
/// until the row leaves it, and each grid cycle of that clock sends the
/// next tile of rows, gathered in row order, so the pipeline stays full.
/// The rows that left wait in a ring until their lanes retire them.
struct Ahead<'p> {
    sim: BatchedSim<'p>,
    /// Lanes of `sim`: a power of two.
    width: usize,
    ii: u64,
    num_inputs: usize,
    num_outputs: usize,
    stage_lanes: usize,
    /// Rows in all: iterations × stage lanes.
    rows: usize,
    /// Rows sent into `sim`, and rows that have left it.
    sent: usize,
    left: usize,
    /// Per stage lane and window, the window of the lane's next row to
    /// send: `cursors[lane * windows + window]`.
    cursors: Vec<Cursor>,
    windows: usize,
    /// Outputs of row `r`: `out[(r % cap) * num_outputs + port]`.
    out: Vec<i64>,
    /// Rows of `out`: a power of two of at least `width`, with room for
    /// every row that left `sim` and some lane has yet to retire.
    cap: usize,
    /// Firings retired so far, per stage lane.
    retired: Vec<u64>,
    pipe: Pipe,
    /// Scratch: one tile of inputs and its valid lanes.
    args: Vec<i64>,
    valid: Vec<bool>,
}

impl<'p> Ahead<'p> {
    /// The data path of `lanes` (each firing `total` times) on `plan`.
    fn new(plan: &'p SimPlan, lanes: &[Lane], total: u64) -> Self {
        let stage_lanes = lanes.len();
        let rows = usize::try_from(total).expect("trip count fits usize") * stage_lanes;
        let width = tile_width(rows as u64);
        let (num_inputs, num_outputs) = (plan.num_inputs(), plan.num_outputs());
        let windows = lanes[0].feeds.len();
        Ahead {
            sim: BatchedSim::new(plan, width),
            width,
            ii: plan.ii(),
            num_inputs,
            num_outputs,
            stage_lanes,
            rows,
            sent: 0,
            left: 0,
            cursors: lanes
                .iter()
                .flat_map(|lane| lane.feeds.iter().map(|f| Cursor::new(&f.layout)))
                .collect(),
            windows,
            // When lanes retire in step, a retire of row `r` leaves at
            // most the rest of `r`'s tile computed.
            out: vec![0; width * num_outputs],
            cap: width,
            retired: vec![0; stage_lanes],
            pipe: Pipe::new(plan.latency() as usize, stage_lanes),
            args: vec![0; width * num_inputs],
            valid: vec![false; width],
        }
    }

    /// Advances the shift register one cycle and retires the firings
    /// whose pipeline output is now valid, computing their rows first if
    /// need be. Returns whether any word was stored.
    fn retire(
        &mut self,
        lanes: &mut [Lane],
        consts: &[(usize, i64)],
        push: &mut impl FnMut(usize, usize, usize, i64),
    ) -> Result<bool, SystemError> {
        let row = self.pipe.shift();
        let mut stored = false;
        for l in 0..self.stage_lanes {
            let r = self.pipe.take(row, l);
            if r == NONE {
                continue;
            }
            while self.left <= r {
                self.clock(lanes, consts)?;
            }
            let slot = (r & (self.cap - 1)) * self.num_outputs;
            let values = &self.out[slot..slot + self.num_outputs];
            stored |= lanes[l].store(l, |port| values[port], push)?;
            self.retired[l] += 1;
        }
        Ok(stored)
    }

    /// Computes every row not computed yet, once every iteration has
    /// fired; nothing is read from the ring any more.
    fn finish(&mut self, lanes: &[Lane], consts: &[(usize, i64)]) -> Result<(), SimError> {
        self.retired.fill((self.rows / self.stage_lanes) as u64);
        while self.left < self.rows {
            self.clock(lanes, consts)?;
        }
        Ok(())
    }

    /// Steps `sim` once, sending the next tile of rows on a grid cycle
    /// (none once every row is sent: a bubble), and keeps the rows that
    /// leave the pipeline.
    fn clock(&mut self, lanes: &[Lane], consts: &[(usize, i64)]) -> Result<(), SimError> {
        let n = if self.sim.cycles().is_multiple_of(self.ii) {
            self.width.min(self.rows - self.sent)
        } else {
            0
        };
        let nin = self.num_inputs;
        for (j, args) in self.args.chunks_exact_mut(nin.max(1)).take(n).enumerate() {
            let l = (self.sent + j) % self.stage_lanes;
            let cursors = &mut self.cursors[l * self.windows..(l + 1) * self.windows];
            args.fill(0);
            for (feed, cursor) in lanes[l].feeds.iter().zip(cursors) {
                feed.gather(cursor.at, args);
                cursor.advance(&feed.layout);
            }
            for &(port, v) in consts {
                args[port] = v;
            }
        }
        // Lanes past `n` are bubbles, whatever rows they see.
        for (j, v) in self.valid.iter_mut().enumerate() {
            *v = j < n;
        }
        self.sim.step_lanes(&self.args, &self.valid)?;
        self.sent += n;

        // Tiles leave whole and in order, each from a multiple of
        // `width`, so a tile is one slice of the ring.
        let leaving = (0..self.width)
            .take_while(|&j| self.sim.lane_out_valid(j))
            .count();
        if leaving > 0 {
            let lanes = self.stage_lanes;
            let lo = (0..lanes)
                .map(|l| self.retired[l] as usize * lanes + l)
                .min();
            let lo = lo.unwrap_or(usize::MAX);
            while self.left + leaving > lo.saturating_add(self.cap) {
                self.grow(lo);
            }
            let nout = self.num_outputs;
            let slot = self.left & (self.cap - 1);
            let out = &mut self.out[slot * nout..(slot + leaving) * nout];
            self.sim.read_output_rows(leaving, out);
            self.left += leaving;
        }
        Ok(())
    }

    /// Doubles the ring, keeping rows `lo..left`: only when some stage
    /// lane retires far behind another.
    #[cold]
    fn grow(&mut self, lo: usize) {
        let nout = self.num_outputs;
        let cap = self.cap * 2;
        let mut out = vec![0; cap * nout];
        for r in lo..self.left {
            let (from, to) = ((r & (self.cap - 1)) * nout, (r & (cap - 1)) * nout);
            out[to..to + nout].copy_from_slice(&self.out[from..from + nout]);
        }
        self.out = out;
        self.cap = cap;
    }
}

/// The data path of a stage whose plan has no feedback, some of whose
/// windows read the caller's words and whose outputs all go to BRAM.
/// Such an iteration's values depend on its input window alone, so they
/// need not be computed on the cycle it fires. Each fired window is
/// queued in a ring of firings; a valid-bit shift register of the plan's
/// latency carries it to the cycle it retires, where its store addresses
/// are logged. Retired firings are computed a tile at a time on one wide
/// [`BatchedSim`] of up to [`TILE_LANES`] lanes, and their values are
/// written to the logged addresses in fire order.
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
    pipe: Pipe,
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
        let width = tile_width(firings);
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
            pipe: Pipe::new(latency, lanes),
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
        self.pipe.enter(l, f);
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
        let row = self.pipe.shift();
        let mut stored = false;
        for (l, lane) in lanes.iter_mut().enumerate() {
            let f = self.pipe.take(row, l);
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
        for f in &mut self.pipe.slots {
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
    /// A stage whose plan has no feedback defers its data path unless it
    /// both reads the caller's words and streams an output: see the
    /// module docs.
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
        let scans = kernel
            .windows
            .iter()
            .map(|w| window_scan(kernel, w))
            .collect::<Result<Vec<_>, _>>()?;
        let lanes = memories
            .into_iter()
            .map(|memory| {
                assert_eq!(memory.len(), kernel.windows.len(), "one memory per window");
                let feeds = scans
                    .iter()
                    .zip(memory)
                    .map(|(scan, m)| WindowFeed::new(scan, m))
                    .collect();
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

        let total = kernel.total_iterations();
        let n = lanes.len();
        let bram_fed = lanes
            .iter()
            .flat_map(|l| &l.feeds)
            .all(WindowFeed::reads_bram);
        let datapath = if plan.has_feedback() || (!bram_fed && streamed.contains(&true)) {
            DataPath::Stepped {
                sim: BatchedSim::new(plan, n),
                args: vec![0; plan.num_inputs() * n],
                valid: vec![false; n],
            }
        } else if bram_fed {
            DataPath::Ahead(Ahead::new(plan, &lanes, total))
        } else {
            let writes = kernel.outputs.iter().map(|o| o.writes.len()).sum();
            DataPath::Behind(Tiles::new(plan, n, total * n as u64, writes))
        };
        Ok(SystemStage {
            datapath,
            lanes,
            consts,
            total,
            ii: plan.ii(),
            bus: bus.max(1),
            num_inputs: plan.num_inputs(),
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
        let lane = &mut self.lanes[l];
        let row = match &mut self.datapath {
            DataPath::Stepped { args, valid, .. } => {
                valid[l] = true;
                Some(&mut args[l * self.num_inputs..(l + 1) * self.num_inputs])
            }
            DataPath::Ahead(ahead) => {
                let lanes = ahead.stage_lanes;
                ahead.pipe.enter(l, lane.fired as usize * lanes + l);
                None
            }
            DataPath::Behind(tiles) => Some(tiles.queue(l)),
            DataPath::Written => unreachable!("every iteration has fired"),
        };
        match row {
            Some(row) => {
                for feed in &mut lane.feeds {
                    feed.fire(Some(&mut *row));
                }
                for &(port, v) in &self.consts {
                    row[port] = v;
                }
            }
            None => lane.feeds.iter_mut().for_each(|feed| feed.fire(None)),
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
    /// holding the faulting iteration is computed: ahead of its retire,
    /// or after it, at the latest in the step that retires the last
    /// iteration.
    pub fn step(
        &mut self,
        mut push: impl FnMut(usize, usize, usize, i64),
    ) -> Result<bool, SystemError> {
        self.cycle += 1;
        let fired = self.lanes.iter().all(|l| l.fired == self.total);
        let stored = |lanes: &[Lane]| lanes.iter().flat_map(|l| &l.outs).all(|o| o.remaining == 0);
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
                    if sim.lane_out_valid(l) {
                        retired |= lane.store(l, |port| sim.output_lane(port, l), &mut push)?;
                    }
                }
                retired
            }
            DataPath::Ahead(ahead) => {
                let retired = ahead.retire(&mut self.lanes, &self.consts, &mut push)?;
                // Once every iteration has fired and retired, or every
                // store is done (so the run may end), compute the rest.
                let all_retired = ahead.retired.iter().all(|&r| r == self.total);
                if fired && (all_retired || stored(&self.lanes)) {
                    ahead.finish(&self.lanes, &self.consts)?;
                    self.datapath = DataPath::Written;
                }
                retired
            }
            DataPath::Behind(tiles) => {
                let retired = tiles.retire(&mut self.lanes)?;
                if fired && (tiles.retired == tiles.queued || stored(&self.lanes)) {
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
            DataPath::Ahead(_) | DataPath::Behind(_) | DataPath::Written => None,
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

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_buffers::smart::{SmartBuffer1d, SmartBuffer2d};
    use roccc_testutil::XorShift64;

    enum Smart {
        One(SmartBuffer1d),
        Two(SmartBuffer2d),
    }

    /// The reference feed: the scan's address generator, a smart buffer
    /// and a BRAM read port, word by word.
    struct Reference {
        addrs: Peekable<Box<dyn Iterator<Item = i64>>>,
        buffer: Smart,
        window: Vec<i64>,
        staged: bool,
        bram: Option<BramModel>,
    }

    impl Reference {
        fn new(scan: &WindowScan, memory: Option<Vec<i64>>) -> Self {
            let (addrs, buffer): (Box<dyn Iterator<Item = i64>>, _) = match scan.dims[..] {
                [d] => (
                    Box::new(AddressGen1d::new(d)),
                    Smart::One(SmartBuffer1d::new(d.extent, d.step as usize, d.start)),
                ),
                [r, c] => (
                    Box::new(AddressGen2d::new(r, c, scan.row_width)),
                    Smart::Two(SmartBuffer2d::new(
                        r.extent,
                        c.extent,
                        r.step as usize,
                        c.step as usize,
                        r.start,
                        r.bound,
                        c.start,
                        c.bound,
                        scan.row_width,
                    )),
                ),
                _ => unreachable!(),
            };
            Reference {
                addrs: addrs.peekable(),
                buffer,
                window: vec![0; scan.dims.iter().map(|d| d.extent).product()],
                staged: false,
                bram: memory.map(BramModel::new),
            }
        }

        fn push(&mut self, addr: i64, v: i64) {
            match &mut self.buffer {
                Smart::One(b) => b.push(addr, v),
                Smart::Two(b) => b.push_flat(addr, v),
            }
        }

        fn land(&mut self, bus: usize, mut pull: impl FnMut() -> Option<(usize, i64)>) -> bool {
            let mut arrived = false;
            if let Some(bram) = &mut self.bram {
                let beat: Vec<_> = bram.clock_all().collect();
                for (addr, v) in beat {
                    self.push(addr as i64, v);
                    arrived = true;
                }
            } else {
                for _ in 0..bus {
                    let Some((addr, v)) = pull() else { break };
                    if self.addrs.next_if_eq(&(addr as i64)).is_some() {
                        self.push(addr as i64, v);
                    }
                    arrived = true;
                }
            }
            if !self.staged {
                self.staged = match &mut self.buffer {
                    Smart::One(b) => b.pop_window_into(&mut self.window),
                    Smart::Two(b) => b.pop_window_into(&mut self.window),
                };
            }
            arrived
        }

        fn fire_into(&mut self, port_map: &[(usize, usize)], args: &mut [i64]) {
            assert!(self.staged);
            for &(slot, port) in port_map {
                args[port] = self.window[slot];
            }
            self.staged = false;
        }

        fn fetch(&mut self, bus: usize) {
            if let Some(bram) = &mut self.bram {
                for a in self.addrs.by_ref().take(bus) {
                    bram.issue_read(a as usize);
                }
            }
        }

        fn reads(&self) -> u64 {
            self.bram.as_ref().map_or(0, |b| b.traffic().0)
        }
    }

    /// A random scan of one dimension: start 0–3, 0–8 window positions,
    /// stride 1–4 (some strides exceed the extent), extent 1–6.
    fn random_dim(rng: &mut XorShift64) -> DimScan {
        let start = rng.gen_range(0, 4);
        let step = rng.gen_range(1, 5);
        DimScan {
            start,
            bound: start + rng.gen_range(0, 9) * step - rng.gen_range(0, step),
            step,
            extent: rng.gen_range(1, 7) as usize,
        }
    }

    /// A random 1-D or 2-D window scan whose reads are a random non-empty
    /// subset of the window's slots on shuffled ports among two unused
    /// ones; returns it with the array length its scan needs.
    fn random_scan(rng: &mut XorShift64) -> (WindowScan, usize) {
        let cols = random_dim(rng);
        let (dims, row_width, len) = if rng.gen_bool() {
            (vec![cols], 1, cols.last_touched() + 1)
        } else {
            let rows = random_dim(rng);
            let width = cols.last_touched() + 1 + rng.gen_range(0, 3);
            (
                vec![rows, cols],
                width as usize,
                (rows.last_touched() + 1) * width,
            )
        };
        let slots: usize = dims.iter().map(|d| d.extent).product();
        let mut ports: Vec<usize> = (0..slots + 2).collect();
        for i in (1..ports.len()).rev() {
            ports.swap(i, rng.gen_index(i + 1));
        }
        let mut port_map: Vec<(usize, usize)> = (0..slots)
            .filter(|_| rng.gen_ratio(2, 3))
            .map(|slot| (slot, ports[slot]))
            .collect();
        if port_map.is_empty() {
            port_map.push((slots - 1, ports[0]));
        }
        let scan = WindowScan {
            dims,
            row_width,
            port_map,
        };
        (scan, len.max(1) as usize)
    }

    /// Runs a counter feed and the reference feed side by side over
    /// seeded random scans, BRAM-fed (some BRAMs shorter than the scan,
    /// whose reads past the end give 0) and fed by a caller whose stream
    /// has a random 0..=bus words ready each cycle, at bus widths 1–4.
    /// Each cycle both must land alike and stage alike, and a window fired
    /// (on a random two in three staged cycles) must drive the same words.
    #[test]
    fn counter_feed_stages_and_gathers_like_the_smart_buffers() {
        let mut rng = XorShift64::new(0x5eed_feed);
        for case in 0..600 {
            let (scan, len) = random_scan(&mut rng);
            let bus = rng.gen_range(1, 5) as usize;
            let bram = rng.gen_bool();
            let len = if bram && rng.gen_ratio(1, 4) {
                rng.gen_index(len + 1)
            } else {
                len
            };
            let data: Vec<i64> = (0..len).map(|_| rng.gen_range(-999, 999)).collect();
            let memory = bram.then(|| data.clone());
            let mut dut = WindowFeed::new(&scan, memory.clone());
            let mut reference = Reference::new(&scan, memory);
            let ctx = format!("case {case}: {scan:?} len {len} bus {bus} bram {bram}");

            let nargs = scan.port_map.iter().map(|&(_, p)| p).max().unwrap() + 1;
            let (mut next_dut, mut next_ref) = (0, 0);
            let mut fired = 0;
            let cycles = 3 * dut.layout.words.max(len as u64) + 3 * dut.layout.windows + 8;
            for cycle in 0..cycles {
                let ready = next_dut + rng.gen_index(bus + 1);
                let stream = |next: &mut usize| {
                    let at = *next;
                    (at < ready.min(len)).then(|| {
                        *next += 1;
                        (at, data[at])
                    })
                };
                let arrived = dut.land(bus, || stream(&mut next_dut));
                assert_eq!(
                    arrived,
                    reference.land(bus, || stream(&mut next_ref)),
                    "{ctx}"
                );
                assert_eq!(dut.staged, reference.staged, "{ctx} cycle {cycle}");
                if dut.staged && rng.gen_ratio(2, 3) {
                    let (mut got, mut want) = (vec![7; nargs], vec![7; nargs]);
                    dut.fire(Some(&mut got));
                    reference.fire_into(&scan.port_map, &mut want);
                    assert_eq!(got, want, "{ctx} window {fired}");
                    fired += 1;
                }
                dut.fetch(bus);
                reference.fetch(bus);
                assert_eq!(dut.reads(), reference.reads(), "{ctx} cycle {cycle}");
            }
            let reachable = bram || len as u64 >= dut.layout.words;
            if reachable {
                assert_eq!(fired, dut.layout.windows, "{ctx}");
            }
        }
    }
}
