//! Whole-pipeline co-simulation.
//!
//! Drives every stage's compiled data path (`BatchedSim`, one lane per
//! independent input set) through the sized [`ChannelFifo`] channels,
//! cycle by cycle:
//!
//! 1. **land** — external BRAM reads arrive in the smart buffers;
//!    channel pops (up to `bus` per cycle) feed consumer smart buffers,
//!    discarding flat addresses outside the window scan;
//! 2. **fire** — a stage lane fires when every input window is staged
//!    *and* every output channel can reserve a full burst
//!    (credit-based backpressure: a full FIFO stalls the producer and
//!    the bubble propagates upstream as starvation);
//! 3. **step** — all lanes of the stage advance one clock;
//! 4. **retire** — lanes whose pipeline output is valid push their burst
//!    into the output channels (at the statically derived store
//!    addresses) and external output BRAMs;
//! 5. **fetch** — external input BRAM reads are issued for next cycle.
//!
//! Input windows and external outputs are the single-kernel system
//! simulation's own [`WindowFeed`], [`BramFeed`] and [`OutputLane`], so
//! windows stage identically in both drivers.
//!
//! The run ends when every stage has fired all its iterations, every
//! external output is fully written and every channel is drained. If no
//! stage makes progress for longer than the deepest pipeline could
//! possibly hide, the engine reports a deadlock naming the stuck
//! channels — the dynamic counterpart of the static
//! `P003-undersized-fifo` check.

use crate::fifo::ChannelFifo;
use crate::rate::output_addr_gens;
use crate::{CompiledPipeline, StreamError};
use roccc_buffers::addr::OutputAddressGen;
use roccc_netlist::{BatchedSim, BramFeed, OutputLane, SimPlan, SystemError, WindowFeed};
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

/// An input window fed from a channel.
struct FifoInLane {
    chan: usize,
    feed: WindowFeed,
}

/// An output array streamed into a channel.
struct ChanOutLane {
    chan: usize,
    /// `(data-path output port, store address generator)` per write.
    ports: Vec<(usize, OutputAddressGen)>,
    remaining: u64,
}

/// All per-lane state of one stage.
struct StageLane {
    ext_in: Vec<BramFeed>,
    fifo_in: Vec<FifoInLane>,
    chan_out: Vec<ChanOutLane>,
    ext_out: Vec<OutputLane>,
    fired: u64,
}

/// Looks up `stage.array`-qualified data with a bare-name fallback.
fn lookup<'m, T>(map: &'m HashMap<String, T>, stage: &str, name: &str) -> Option<&'m T> {
    map.get(&format!("{stage}.{name}"))
        .or_else(|| map.get(name))
}

fn sim_err(e: SystemError) -> StreamError {
    StreamError::Sim(e.0)
}

/// Builds one stage's per-lane plumbing.
fn build_stage_lane(
    cp: &CompiledPipeline,
    si: usize,
    inputs: &HashMap<String, Vec<i64>>,
) -> Result<StageLane, StreamError> {
    let stage = &cp.stages[si];
    let kernel = &stage.compiled.kernel;
    let mut ext_in = Vec::new();
    let mut fifo_in = Vec::new();
    for w in &kernel.windows {
        let chan = cp
            .channels
            .iter()
            .position(|c| c.to_stage == si && c.to_array == w.array);
        let feed = WindowFeed::new(kernel, w).map_err(sim_err)?;
        match chan {
            Some(chan) => fifo_in.push(FifoInLane { chan, feed }),
            None => {
                let data = lookup(inputs, &stage.name, &w.array).ok_or_else(|| {
                    StreamError::Sim(format!(
                        "missing external input array `{}.{}`",
                        stage.name, w.array
                    ))
                })?;
                let want: usize = w.dims.iter().product();
                if data.len() != want {
                    return Err(StreamError::Sim(format!(
                        "external input `{}.{}` has {} elements, expected {want}",
                        stage.name,
                        w.array,
                        data.len()
                    )));
                }
                ext_in.push(BramFeed::new(feed, data));
            }
        }
    }

    let out_ports = kernel.output_ports();
    let mut chan_out = Vec::new();
    let mut ext_out = Vec::new();
    for o in &kernel.outputs {
        let chan = cp
            .channels
            .iter()
            .position(|c| c.from_stage == si && c.from_array == o.array);
        match chan {
            Some(ci) => {
                let gens = output_addr_gens(kernel, o).map_err(StreamError::Sim)?;
                let mut pg = Vec::new();
                for (wr, gen) in o.writes.iter().zip(gens) {
                    let port = out_ports
                        .iter()
                        .position(|(n, _)| n == &wr.scalar)
                        .ok_or_else(|| {
                            StreamError::Sim(format!("no output port for `{}`", wr.scalar))
                        })?;
                    pg.push((port, gen));
                }
                let remaining = kernel.total_iterations();
                chan_out.push(ChanOutLane {
                    chan: ci,
                    ports: pg,
                    remaining,
                });
            }
            None => ext_out.extend(OutputLane::for_output(kernel, o).map_err(sim_err)?),
        }
    }

    Ok(StageLane {
        ext_in,
        fifo_in,
        chan_out,
        ext_out,
        fired: 0,
    })
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
        .map(|s| {
            SimPlan::compile(&s.compiled.netlist)
                .map_err(|e| StreamError::Sim(format!("stage `{}`: {e}", s.name)))
        })
        .collect::<Result<_, _>>()?;
    let mut sims: Vec<BatchedSim> = plans.iter().map(|p| BatchedSim::new(p, lanes)).collect();

    // Per-stage constant scalar inputs.
    let mut const_inputs: Vec<Vec<(usize, i64)>> = Vec::new();
    for stage in &cp.stages {
        let kernel = &stage.compiled.kernel;
        let ports = kernel.input_ports();
        let mut consts = Vec::new();
        for (name, _) in &kernel.scalar_inputs {
            let v = *lookup(scalars, &stage.name, name).ok_or_else(|| {
                StreamError::Sim(format!("missing scalar input `{}.{name}`", stage.name))
            })?;
            let port = ports
                .iter()
                .position(|(n, _)| n == name)
                .expect("scalar input is a port");
            consts.push((port, v));
        }
        const_inputs.push(consts);
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

    // Per-stage, per-lane plumbing.
    let mut stage_lanes: Vec<Vec<StageLane>> = Vec::new();
    for si in 0..cp.stages.len() {
        let mut per_lane = Vec::with_capacity(lanes);
        for inputs in lane_inputs {
            per_lane.push(build_stage_lane(cp, si, inputs)?);
        }
        stage_lanes.push(per_lane);
    }

    let mut stats: Vec<StageStats> = cp
        .stages
        .iter()
        .map(|s| StageStats {
            name: s.name.clone(),
            ..StageStats::default()
        })
        .collect();

    let totals: Vec<u64> = cp
        .stages
        .iter()
        .map(|s| s.compiled.kernel.total_iterations())
        .collect();
    let max_latency = plans.iter().map(|p| p.latency()).max().unwrap_or(0) as u64;
    let safety: u64 = totals
        .iter()
        .map(|t| 16 * t + 4096)
        .sum::<u64>()
        .saturating_mul(lanes as u64)
        + cp.channels.iter().map(|c| c.len as u64).sum::<u64>() / bus as u64;

    let mut cycles = 0u64;
    let mut idle_streak = 0u64;
    // Scratch buffers reused every cycle.
    let mut args_rows: Vec<Vec<i64>> = plans
        .iter()
        .map(|p| vec![0i64; p.num_inputs() * lanes])
        .collect();
    let mut valid: Vec<bool> = vec![false; lanes];

    loop {
        // Done when everything fired, retired, and every channel drained.
        let all_done = stage_lanes.iter().enumerate().all(|(si, per_lane)| {
            per_lane.iter().all(|sl| {
                sl.fired >= totals[si]
                    && sl.ext_out.iter().all(|o| o.remaining() == 0)
                    && sl.chan_out.iter().all(|o| o.remaining == 0)
            })
        }) && fifos.iter().flatten().all(ChannelFifo::drained);
        if all_done {
            break;
        }
        cycles += 1;
        if cycles > safety {
            return Err(StreamError::Sim(format!(
                "pipeline did not converge after {cycles} cycles"
            )));
        }

        let mut progress = false;
        for si in 0..cp.stages.len() {
            let num_inputs = plans[si].num_inputs();
            let args = &mut args_rows[si];
            args.fill(0);
            for l in 0..lanes {
                let sl = &mut stage_lanes[si][l];

                // 1. Land external beats and channel pops. A landing
                // external beat counts as progress: deep smart buffers
                // (e.g. a 5x5 window at one word per beat) legitimately
                // spend hundreds of cycles filling before the first
                // firing, and that must not read as a deadlock.
                for lane in &mut sl.ext_in {
                    progress |= lane.land();
                }
                for lane in &mut sl.fifo_in {
                    let fifo = &mut fifos[lane.chan][l];
                    for _ in 0..bus {
                        let Some((addr, v)) = fifo.pop() else { break };
                        progress = true;
                        // Unneeded addresses are popped and discarded so
                        // the producer can always finish its stream.
                        lane.feed.offer(addr as i64, v);
                    }
                    lane.feed.stage();
                }

                // 2. Fire decision (inputs staged + output credit).
                let work_left = sl.fired < totals[si];
                let inputs_ready = sl.ext_in.iter().all(|x| x.feed.is_staged())
                    && sl.fifo_in.iter().all(|x| x.feed.is_staged())
                    && (!sl.ext_in.is_empty() || !sl.fifo_in.is_empty());
                let credit = sl
                    .chan_out
                    .iter()
                    .all(|o| fifos[o.chan][l].can_reserve(o.ports.len()));
                valid[l] = false;
                if work_left {
                    if !inputs_ready {
                        stats[si].starve_cycles += 1;
                    } else if !credit {
                        stats[si].stall_cycles += 1;
                    } else {
                        let row = &mut args[l * num_inputs..(l + 1) * num_inputs];
                        for lane in &mut sl.ext_in {
                            lane.feed.fire_into(row);
                        }
                        for lane in &mut sl.fifo_in {
                            lane.feed.fire_into(row);
                        }
                        for (port, v) in &const_inputs[si] {
                            row[*port] = *v;
                        }
                        for o in &sl.chan_out {
                            fifos[o.chan][l].reserve(o.ports.len());
                        }
                        sl.fired += 1;
                        stats[si].fired += 1;
                        valid[l] = true;
                        progress = true;
                    }
                }
            }

            // 3. Step all lanes of this stage one clock.
            sims[si]
                .step_lanes(args, &valid)
                .map_err(|e| StreamError::Sim(format!("stage `{}`: {e}", cp.stages[si].name)))?;

            // 4. Retire valid lanes.
            for l in 0..lanes {
                if !sims[si].lane_out_valid(l) {
                    continue;
                }
                let sl = &mut stage_lanes[si][l];
                for o in &mut sl.chan_out {
                    if o.remaining == 0 {
                        continue;
                    }
                    for (port, gen) in &mut o.ports {
                        let addr = gen
                            .next()
                            .ok_or_else(|| StreamError::Sim("output address underflow".into()))?;
                        fifos[o.chan][l].push(addr as usize, sims[si].output_lane(*port, l));
                    }
                    o.remaining -= 1;
                    progress = true;
                }
                for o in &mut sl.ext_out {
                    progress |= o
                        .retire(|port| sims[si].output_lane(port, l))
                        .map_err(sim_err)?;
                }
            }

            // 5. Issue next external reads.
            for sl in &mut stage_lanes[si] {
                for lane in &mut sl.ext_in {
                    lane.fetch(bus);
                }
            }
        }

        if progress {
            idle_streak = 0;
        } else {
            idle_streak += 1;
            if idle_streak > max_latency + 16 {
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
        for (stage, per_lane) in cp.stages.iter().zip(&stage_lanes) {
            for o in &per_lane[l].ext_out {
                let key = format!("{}.{}", stage.name, o.array);
                mem_writes += o.merge_into(&mut arrays, &key);
            }
        }
        lane_arrays.push(arrays);
    }

    Ok(CosimRun {
        cycles,
        stages: stats,
        fifo_peaks: cp
            .channels
            .iter()
            .enumerate()
            .map(|(ci, _)| fifos[ci].iter().map(ChannelFifo::peak).max().unwrap_or(0))
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
                    None => lookup(inputs, &stage.name, &w.array)
                        .ok_or_else(|| {
                            StreamError::Sim(format!(
                                "missing external input array `{}.{}`",
                                stage.name, w.array
                            ))
                        })?
                        .clone(),
                };
                arrays.insert(w.array.clone(), data);
            }
            let mut stage_scalars = HashMap::new();
            for (name, _) in &kernel.scalar_inputs {
                let v = *lookup(scalars, &stage.name, name).ok_or_else(|| {
                    StreamError::Sim(format!("missing scalar input `{}.{name}`", stage.name))
                })?;
                stage_scalars.insert(name.clone(), v);
            }
            let run = stage
                .compiled
                .run_with_bus(&arrays, &stage_scalars, cp.spec.bus_elems.max(1))
                .map_err(|e| StreamError::Sim(format!("stage `{}`: {e}", stage.name)))?;
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
