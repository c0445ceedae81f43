//! `compile-table1`: C → VHDL latency of the nine Table 1 kernels under
//! the `default` and `full` option sets, one thread, closed loop.
//!
//! Each round compiles all 18 programs in a seeded order. Latency is the
//! geometric mean of the per-program medians: the mix is multimodal
//! (0.2 ms to 6 ms per program), so a pooled median jumps between modes.

use super::{done, full, shuffle, Compiler, Measured, Scaled, Workload};
use crate::gauge::Gauge;
use roccc::{CompileOptions, Compiled, Interpreter, NetlistSim, Verdict};
use roccc_cparse::CType;
use roccc_testutil::XorShift64;
use std::collections::HashMap;
use std::time::Instant;

struct Program {
    label: String,
    source: String,
    func: &'static str,
    opts: CompileOptions,
    reference: Compiled,
    vhdl: String,
}

pub struct CompileTable1 {
    rng: XorShift64,
    programs: Vec<Program>,
}

impl CompileTable1 {
    /// Compiles the 18 reference outputs every timed compile must match.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut programs = Vec::new();
        for b in roccc_ipcores::benchmarks() {
            for (set, opts) in [("default", b.opts.clone()), ("full", full(&b.opts))] {
                let reference = roccc::compile(&b.source, b.func, &opts)
                    .map_err(|e| format!("{} {set}: {e}", b.name))?;
                let vhdl = reference.to_vhdl();
                programs.push(Program {
                    label: format!("{}.{set}", b.name),
                    source: b.source.clone(),
                    func: b.func,
                    opts,
                    reference,
                    vhdl,
                });
            }
        }
        Ok(CompileTable1 {
            rng: XorShift64::new(seed),
            programs,
        })
    }
}

impl Workload for CompileTable1 {
    fn measure(&mut self, compiler: &Compiler, seconds: f64, gauge: &mut Gauge) -> Measured {
        let mut m = Measured::default();
        let mut order: Vec<usize> = (0..self.programs.len()).collect();

        // Warm-up round, untimed.
        for p in &self.programs {
            let out = compiler.compile_vhdl(&p.source, p.func, &p.opts);
            check(&mut Measured::default(), p, &out);
        }

        let mut times = Scaled::new(self.programs.len());
        let start = Instant::now();
        while !done(start, seconds, m.attempted as usize) {
            shuffle(&mut self.rng, &mut order);
            for &i in &order {
                let p = &self.programs[i];
                gauge.tick();
                let t0 = Instant::now();
                let out = compiler.compile_vhdl(&p.source, p.func, &p.opts);
                times.push(i, t0.elapsed().as_secs_f64() * 1e3, gauge);
                m.attempted += 1;
                check(&mut m, p, &out);
            }
        }

        let compiles = m.attempted as f64;
        times.fill(&mut m, compiles);
        for (i, p) in self.programs.iter().enumerate() {
            m.extras
                .push((format!("{}.compile_ms", p.label), times.median(i), "ms"));
        }

        // Output checks: every reference output simulated against the
        // golden-model interpreter, and every `full` certificate EQUAL.
        let mut rng = XorShift64::new(0x7ab1e1);
        for p in &self.programs {
            if let Err(e) = differential(&p.reference, &p.source, p.func, &mut rng) {
                m.note(format!("{}: {e}", p.label));
            }
            if p.opts.prove {
                match p.reference.certificate.as_ref().map(|c| c.verdict) {
                    Some(Verdict::Equal) => {}
                    other => m.note(format!("{}: certificate {other:?}", p.label)),
                }
            }
        }
        m
    }
}

/// Counts a timed compile as failed unless it reproduced the reference
/// VHDL byte for byte.
fn check(m: &mut Measured, p: &Program, out: &Result<(Compiled, String), roccc::CompileError>) {
    let error = match out {
        Ok((_, vhdl)) if *vhdl == p.vhdl => return,
        Ok(_) => format!("{}: VHDL differs from the reference", p.label),
        Err(e) => format!("{}: {e}", p.label),
    };
    m.failed += 1;
    m.note(error);
}

/// Simulates `hw` on random inputs and compares with the cparse
/// interpreter running the original C: the netlist alone for
/// straight-line kernels, the whole system for loop kernels.
pub fn differential(
    hw: &Compiled,
    source: &str,
    func: &str,
    rng: &mut XorShift64,
) -> Result<(), String> {
    let prog = roccc_cparse::frontend(source).map_err(|e| e.to_string())?;
    if hw.kernel.dims.is_empty() {
        let args_list: Vec<Vec<i64>> = (0..64)
            .map(|_| {
                hw.netlist
                    .inputs
                    .iter()
                    .map(|(_, t)| rng.sample_int(*t))
                    .collect()
            })
            .collect();
        let outs = NetlistSim::new(&hw.netlist)
            .run_stream(&args_list)
            .map_err(|e| e.to_string())?;
        for (args, hw_out) in args_list.iter().zip(&outs) {
            let golden = Interpreter::new(&prog)
                .call(func, args, &mut HashMap::new())
                .map_err(|e| e.to_string())?;
            for ((name, _, _), v) in hw.netlist.outputs.iter().zip(hw_out) {
                if golden.outputs.get(name.as_str()) != Some(v) {
                    return Err(format!("output {name} differs for args {args:?}"));
                }
            }
        }
        return Ok(());
    }

    let f = prog.function(func).ok_or("function missing")?;
    let mut inputs: HashMap<String, Vec<i64>> = HashMap::new();
    let mut golden_arrays: HashMap<String, Vec<i64>> = HashMap::new();
    for p in &f.params {
        if let CType::Array(t, dims) = &p.ty {
            let n: usize = dims.iter().product();
            let is_input = hw.kernel.windows.iter().any(|w| w.array == p.name);
            let data: Vec<i64> = if is_input {
                let data: Vec<i64> = (0..n).map(|_| rng.sample_int(*t)).collect();
                inputs.insert(p.name.clone(), data.clone());
                data
            } else {
                vec![0; n]
            };
            golden_arrays.insert(p.name.clone(), data);
        }
    }
    let run = hw
        .run(&inputs, &HashMap::new())
        .map_err(|e| e.to_string())?;
    let golden = Interpreter::new(&prog)
        .call(func, &[], &mut golden_arrays)
        .map_err(|e| e.to_string())?;
    for o in &hw.kernel.outputs {
        if run.arrays.get(&o.array) != golden_arrays.get(&o.array) {
            return Err(format!("output array {} differs", o.array));
        }
    }
    for name in &hw.kernel.live_out {
        if run.scalars.get(name) != golden.outputs.values().next() {
            return Err(format!("live-out {name} differs"));
        }
    }
    Ok(())
}
