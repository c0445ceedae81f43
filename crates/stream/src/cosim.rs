//! Whole-pipeline co-simulation.
//!
//! Runs one [`SystemStage`] per pipeline stage (`BatchedSim`, one lane
//! per independent input set) and joins them through the sized
//! [`ChannelFifo`] channels. Each stage steps through the five steps of
//! the single-kernel system simulation every cycle, in pipeline order,
//! with the channels on the caller's side of each step:
//!
//! 1. **land** — external BRAM beats arrive and channel pops (up to
//!    `bus` per cycle) reach consumer windows, which keep the flat
//!    addresses their scan needs and discard the rest; a window is
//!    staged by counting the words landed, and holds the channel's words
//!    over its live span only;
//! 2. **fire** — a stage lane fires when every input window is staged,
//!    the cycle lands on its initiation-interval grid, *and* every
//!    output channel can reserve a full burst (credit-based
//!    backpressure: a full FIFO stalls the producer and the bubble
//!    propagates upstream as starvation; an off-grid cycle counts as
//!    neither);
//! 3. **step** — all lanes of the stage advance one clock. Only a stage
//!    whose plan has feedback, or that both reads a channel and streams
//!    into one (the demo's `threshold`), steps its data path every cycle.
//!    A feed-forward stage that reads only external BRAMs (the head
//!    stage) computes its values ahead by iteration index, and a
//!    feed-forward sink that reads a channel queues its firings and
//!    computes them behind, both in 16-lane tiles (see
//!    `roccc_netlist::system`);
//! 4. **retire** — lanes whose pipeline output is valid push their burst
//!    into the output channels (at the statically derived store
//!    addresses) and external output BRAMs;
//! 5. **fetch** — external input BRAM reads are issued for next cycle.
//!
//! The run ends when every stage has fired all its iterations, every
//! external output is fully written and every channel is drained. If no
//! stage makes progress for longer than the deepest pipeline could
//! possibly hide, the engine reports a deadlock naming the stuck
//! channels — the dynamic counterpart of the static
//! `P003-undersized-fifo` check.

use crate::fifo::ChannelFifo;
use crate::rate::output_addr_gens;
use crate::{CompiledPipeline, CompiledStage, StreamError};
use roccc_netlist::{Launch, SimPlan, SystemStage};
use std::collections::HashMap;

/// Per-stage counters of one co-simulation.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Stage name.
    pub name: String,
    /// Iterations fired, summed over lanes.
    pub fired: u64,
    /// Lane-cycles a stage was ready to fire but an output channel had
    /// no room (backpressure).
    pub stall_cycles: u64,
    /// Lane-cycles a stage could not fire for lack of staged input
    /// (bubbles propagating downstream).
    pub starve_cycles: u64,
}

/// Result of [`run_cosim`].
#[derive(Debug, Clone, Default)]
pub struct CosimRun {
    /// Total clock cycles until the pipeline drained.
    pub cycles: u64,
    /// Per-stage counters.
    pub stages: Vec<StageStats>,
    /// Peak occupancy per channel (max over lanes), parallel to
    /// `CompiledPipeline::channels`.
    pub fifo_peaks: Vec<usize>,
    /// Per lane: external output arrays keyed `stage.array`.
    pub lane_arrays: Vec<HashMap<String, Vec<i64>>>,
    /// Total external output words written (all lanes).
    pub mem_writes: u64,
}

impl CosimRun {
    /// Output words per cycle, averaged over the run and all lanes.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.mem_writes as f64 / self.cycles as f64
    }
}

/// Looks up `stage.array`-qualified data with a bare-name fallback.
fn lookup<'m, T>(map: &'m HashMap<String, T>, stage: &str, name: &str) -> Option<&'m T> {
    map.get(&format!("{stage}.{name}"))
        .or_else(|| map.get(name))
}

/// A copy of the external input array `array` of `stage`, checked against
/// the window's declared size.
fn external_input(
    inputs: &HashMap<String, Vec<i64>>,
    stage: &CompiledStage,
    array: &str,
    len: usize,
) -> Result<Vec<i64>, StreamError> {
    let data = lookup(inputs, &stage.name, array).ok_or_else(|| {
        StreamError::Sim(format!(
            "missing external input array `{}.{array}`",
            stage.name
        ))
    })?;
    if data.len() != len {
        return Err(StreamError::Sim(format!(
            "external input `{}.{array}` has {} elements, expected {len}",
            stage.name,
            data.len()
        )));
    }
    Ok(data.clone())
}

/// The scalar inputs of `stage`, each looked up as `stage.name` or a
/// bare `name`.
fn stage_scalars(stage: &CompiledStage, scalars: &HashMap<String, i64>) -> HashMap<String, i64> {
    stage
        .compiled
        .kernel
        .scalar_inputs
        .iter()
        .filter_map(|(name, _)| lookup(scalars, &stage.name, name).map(|&v| (name.clone(), v)))
        .collect()
}

/// Reserves one `burst` in lane `l` of every `(channel, burst)` when all
/// of them have room for it (credit-based backpressure), and returns
/// whether it did.
fn reserve_bursts(
    fifos: &mut [Vec<ChannelFifo>],
    bursts: impl Iterator<Item = (usize, usize)> + Clone,
    l: usize,
) -> bool {
    if !bursts.clone().all(|(ci, b)| fifos[ci][l].can_reserve(b)) {
        return false;
    }
    for (ci, b) in bursts {
        fifos[ci][l].reserve(b);
    }
    true
}

fn stage_err(stage: &CompiledStage, e: impl std::fmt::Display) -> StreamError {
    StreamError::Sim(format!("stage `{}`: {e}", stage.name))
}

/// Co-simulates the whole pipeline over `lane_inputs.len()` independent
/// lanes. Each lane supplies its own external input arrays (keyed
/// `stage.array`, bare `array` accepted when unambiguous); `scalars`
/// supplies scalar live-ins shared by all lanes.
///
/// # Errors
///
/// [`StreamError::Sim`] on missing/malformed inputs, simulation faults
/// in any stage (e.g. division by zero — faults propagate out of the
/// whole pipeline, not just one stage), detected deadlock, or failure
/// to converge.
pub fn run_cosim(
    cp: &CompiledPipeline,
    lane_inputs: &[HashMap<String, Vec<i64>>],
    scalars: &HashMap<String, i64>,
) -> Result<CosimRun, StreamError> {
    let lanes = lane_inputs.len();
    if lanes == 0 {
        return Err(StreamError::Sim("at least one input lane required".into()));
    }
    let bus = cp.spec.bus_elems.max(1);

    // Compile every stage's netlist once.
    let plans: Vec<SimPlan> = cp
        .stages
        .iter()
        .map(|s| SimPlan::compile(&s.compiled.netlist).map_err(|e| stage_err(s, e)))
        .collect::<Result<_, _>>()?;

    // Per stage, the channel feeding each window and draining each
    // output, if any.
    let mut chan_in: Vec<Vec<Option<usize>>> = Vec::with_capacity(cp.stages.len());
    let mut chan_out: Vec<Vec<Option<usize>>> = Vec::with_capacity(cp.stages.len());
    let mut stages = Vec::with_capacity(cp.stages.len());
    for (si, (stage, plan)) in cp.stages.iter().zip(&plans).enumerate() {
        let kernel = &stage.compiled.kernel;
        let ins: Vec<Option<usize>> = kernel
            .windows
            .iter()
            .map(|w| {
                cp.channels
                    .iter()
                    .position(|c| c.to_stage == si && c.to_array == w.array)
            })
            .collect();
        let outs: Vec<Option<usize>> = kernel
            .outputs
            .iter()
            .map(|o| {
                cp.channels
                    .iter()
                    .position(|c| c.from_stage == si && c.from_array == o.array)
            })
            .collect();
        // A channel streams one burst per firing.
        for (o, chan) in kernel.outputs.iter().zip(&outs) {
            if chan.is_some() {
                output_addr_gens(kernel, o).map_err(StreamError::Sim)?;
            }
        }
        let memories = lane_inputs
            .iter()
            .map(|inputs| {
                kernel
                    .windows
                    .iter()
                    .zip(&ins)
                    .map(|(w, chan)| match chan {
                        Some(_) => Ok(None),
                        None => external_input(inputs, stage, &w.array, w.dims.iter().product())
                            .map(Some),
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let streamed: Vec<bool> = outs.iter().map(Option::is_some).collect();
        let scalars = stage_scalars(stage, scalars);
        stages.push(
            SystemStage::new(kernel, plan, memories, &streamed, &scalars, bus)
                .map_err(|e| stage_err(stage, e.0))?,
        );
        chan_in.push(ins);
        chan_out.push(outs);
    }

    // Per-channel, per-lane FIFOs.
    let mut fifos: Vec<Vec<ChannelFifo>> = cp
        .channels
        .iter()
        .map(|c| {
            (0..lanes)
                .map(|_| ChannelFifo::new(c.depth, c.len, c.write_mask.clone()))
                .collect()
        })
        .collect();

    let mut stats: Vec<StageStats> = cp
        .stages
        .iter()
        .map(|s| StageStats {
            name: s.name.clone(),
            ..StageStats::default()
        })
        .collect();

    let max_latency = plans
        .iter()
        .map(|p| u64::from(p.latency()))
        .max()
        .unwrap_or(0);
    let max_ii = plans.iter().map(SimPlan::ii).max().unwrap_or(1);
    let safety: u64 = cp
        .stages
        .iter()
        .zip(&plans)
        .map(|(s, p)| 16 * s.compiled.kernel.total_iterations() * p.ii() + 4096)
        .sum::<u64>()
        .saturating_mul(lanes as u64)
        + cp.channels.iter().map(|c| c.len as u64).sum::<u64>() / bus as u64;

    let mut cycles = 0u64;
    let mut idle_streak = 0u64;
    loop {
        // Done when everything fired, retired, and every channel drained.
        if stages.iter().all(SystemStage::done) && fifos.iter().flatten().all(ChannelFifo::drained)
        {
            break;
        }
        cycles += 1;
        if cycles > safety {
            return Err(StreamError::Sim(format!(
                "pipeline did not converge after {cycles} cycles"
            )));
        }

        let mut progress = false;
        for (si, stage) in stages.iter_mut().enumerate() {
            // 1. Land external beats and channel pops. A landing external
            // beat counts as progress: deep smart buffers (e.g. a 5x5
            // window at one word per beat) legitimately spend hundreds of
            // cycles filling before the first firing, and that must not
            // read as a deadlock. Unneeded addresses are popped and
            // discarded so the producer can always finish its stream.
            progress |= stage.land(|l, w| {
                let chan = chan_in[si][w].expect("a caller-fed window reads a channel");
                fifos[chan][l].pop()
            });

            // 2. Fire the lanes that are ready and have output credit.
            for l in 0..lanes {
                match stage.launch_state(l) {
                    Launch::Finished | Launch::OffGrid => {}
                    Launch::Starved => stats[si].starve_cycles += 1,
                    Launch::Ready => {
                        let outs = chan_out[si].iter().flatten();
                        let bursts = outs.map(|&ci| (ci, cp.channels[ci].burst));
                        if reserve_bursts(&mut fifos, bursts, l) {
                            stage.fire(l);
                            stats[si].fired += 1;
                            progress = true;
                        } else {
                            stats[si].stall_cycles += 1;
                        }
                    }
                }
            }

            // 3.–5. Step, retire into channels and BRAMs, fetch.
            progress |= stage
                .step(|l, o, addr, v| {
                    let chan = chan_out[si][o].expect("a streamed output feeds a channel");
                    fifos[chan][l].push(addr, v);
                })
                .map_err(|e| stage_err(&cp.stages[si], e.0))?;
        }

        if progress {
            idle_streak = 0;
        } else {
            idle_streak += 1;
            // A lane may wait up to II - 1 cycles for its launch grid.
            if idle_streak > max_latency + 16 + (max_ii - 1) {
                let mut stuck = String::new();
                for (ci, c) in cp.channels.iter().enumerate() {
                    for (l, f) in fifos[ci].iter().enumerate() {
                        if !f.drained() {
                            use std::fmt::Write as _;
                            let _ = write!(
                                stuck,
                                " [{}.{} -> {}.{} lane {l}: occupancy {}/{} read_ptr {}]",
                                cp.stages[c.from_stage].name,
                                c.from_array,
                                cp.stages[c.to_stage].name,
                                c.to_array,
                                f.occupancy(),
                                c.depth,
                                f.read_ptr(),
                            );
                        }
                    }
                }
                return Err(StreamError::Sim(format!(
                    "deadlock after {cycles} cycles: no stage made progress for {idle_streak} \
                     cycles; stuck channels:{stuck}"
                )));
            }
        }
    }

    // Collect external outputs.
    let mut lane_arrays = Vec::with_capacity(lanes);
    let mut mem_writes = 0u64;
    for l in 0..lanes {
        let mut arrays: HashMap<String, Vec<i64>> = HashMap::new();
        for (stage, st) in cp.stages.iter().zip(&stages) {
            mem_writes += st.merge_outputs(l, &format!("{}.", stage.name), &mut arrays);
        }
        lane_arrays.push(arrays);
    }

    Ok(CosimRun {
        cycles,
        stages: stats,
        fifo_peaks: fifos
            .iter()
            .map(|per_lane| per_lane.iter().map(ChannelFifo::peak).max().unwrap_or(0))
            .collect(),
        lane_arrays,
        mem_writes,
    })
}

/// The composed single-kernel golden reference: runs every stage through
/// the cycle-accurate `run_system` simulation in pipeline order, feeding
/// each bound input from the producer's finished output array. Returns,
/// per lane, **all** stage output arrays keyed `stage.array` (the
/// co-simulation only materializes the external ones).
///
/// # Errors
///
/// [`StreamError::Sim`] when any stage's system simulation fails.
pub fn chain_golden(
    cp: &CompiledPipeline,
    lane_inputs: &[HashMap<String, Vec<i64>>],
    scalars: &HashMap<String, i64>,
) -> Result<Vec<HashMap<String, Vec<i64>>>, StreamError> {
    let mut out = Vec::with_capacity(lane_inputs.len());
    for inputs in lane_inputs {
        let mut produced: HashMap<String, Vec<i64>> = HashMap::new();
        for (si, stage) in cp.stages.iter().enumerate() {
            let kernel = &stage.compiled.kernel;
            let mut arrays: HashMap<String, Vec<i64>> = HashMap::new();
            for w in &kernel.windows {
                let chan = cp
                    .channels
                    .iter()
                    .find(|c| c.to_stage == si && c.to_array == w.array);
                let data = match chan {
                    Some(c) => {
                        let key = format!("{}.{}", cp.stages[c.from_stage].name, c.from_array);
                        produced
                            .get(&key)
                            .ok_or_else(|| {
                                StreamError::Sim(format!("golden chain: `{key}` not produced"))
                            })?
                            .clone()
                    }
                    None => external_input(inputs, stage, &w.array, w.dims.iter().product())?,
                };
                arrays.insert(w.array.clone(), data);
            }
            let run = stage
                .compiled
                .run_with_bus(&arrays, &stage_scalars(stage, scalars), cp.spec.bus_elems)
                .map_err(|e| stage_err(stage, e))?;
            for o in &kernel.outputs {
                let size: usize = o.dims.iter().product();
                let mut data = run.arrays.get(&o.array).cloned().unwrap_or_default();
                data.resize(size, 0);
                produced.insert(format!("{}.{}", stage.name, o.array), data);
            }
        }
        out.push(produced);
    }
    Ok(out)
}
