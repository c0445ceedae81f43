//! `simulate-system`: cycle-accurate simulation of compiled hardware,
//! with no compile in the timed region.
//!
//! The set-up compiles fir, dct and wavelet under the `full` options and
//! the `wavelet | threshold | encode` pipeline, draws seeded input arrays
//! (Table 1 sizes; wavelet is 64×64) and computes their expected outputs
//! with the golden-model interpreter and `chain_golden`. One op is one
//! `Compiled::run` (the system driver over `CompiledSim`) or one
//! `run_cosim` (the stream co-simulator over `BatchedSim`).

use super::{full, shuffle, Compiler, Measured, Scaled, Workload};
use crate::gauge::Gauge;
use roccc::{Compiled, Interpreter};
use roccc_cparse::CType;
use roccc_stream::{chain_golden, compile_pipeline, parse_spec, run_cosim, CompiledPipeline};
use roccc_testutil::XorShift64;
use std::collections::HashMap;
use std::time::Instant;

type Arrays = HashMap<String, Vec<i64>>;

/// Input sets drawn per kernel; rounds cycle through them.
const POOL: usize = 4;
const KERNELS: [&str; 3] = ["fir", "dct", "wavelet"];

struct Kernel {
    name: &'static str,
    hw: Compiled,
    /// `(inputs, expected outputs)` per input set.
    cases: Vec<(Arrays, Arrays)>,
}

pub struct SimulateSystem {
    rng: XorShift64,
    kernels: Vec<Kernel>,
    pipeline: CompiledPipeline,
    scalars: HashMap<String, i64>,
    /// `(external inputs, expected external outputs)` per input set.
    pipeline_cases: Vec<(Arrays, Arrays)>,
}

impl SimulateSystem {
    /// Compiles the kernels (through `compiler`) and the pipeline, and
    /// computes the expected outputs of every input set.
    pub fn setup(seed: u64, compiler: &Compiler) -> Result<Self, String> {
        let mut rng = XorShift64::new(seed);
        let mut kernels = Vec::new();
        for b in roccc_ipcores::benchmarks() {
            if !KERNELS.contains(&b.name) {
                continue;
            }
            let (hw, _) = compiler
                .compile_vhdl(&b.source, b.func, &full(&b.opts))
                .map_err(|e| format!("{}: {e}", b.name))?;
            let prog = roccc_cparse::frontend(&b.source).map_err(|e| e.to_string())?;
            let f = prog.function(b.func).ok_or("kernel function missing")?;
            let mut cases = Vec::new();
            for _ in 0..POOL {
                let mut inputs = Arrays::new();
                let mut golden = Arrays::new();
                for p in &f.params {
                    if let CType::Array(t, dims) = &p.ty {
                        let n: usize = dims.iter().product();
                        let data: Vec<i64> = if hw.kernel.windows.iter().any(|w| w.array == p.name)
                        {
                            let data: Vec<i64> = (0..n).map(|_| rng.sample_int(*t)).collect();
                            inputs.insert(p.name.clone(), data.clone());
                            data
                        } else {
                            vec![0; n]
                        };
                        golden.insert(p.name.clone(), data);
                    }
                }
                Interpreter::new(&prog)
                    .call(b.func, &[], &mut golden)
                    .map_err(|e| e.to_string())?;
                let expected = hw
                    .kernel
                    .outputs
                    .iter()
                    .map(|o| (o.array.clone(), golden[&o.array].clone()))
                    .collect();
                cases.push((inputs, expected));
            }
            kernels.push(Kernel {
                name: b.name,
                hw,
                cases,
            });
        }

        let spec = parse_spec(&roccc_ipcores::kernels::wavelet_pipeline_spec())
            .map_err(|e| e.to_string())?;
        let pipeline = compile_pipeline(
            &roccc_ipcores::kernels::wavelet_pipeline_source(),
            &spec,
            &full(&roccc::CompileOptions::default()),
        )
        .map_err(|e| e.to_string())?;
        let mut scalars = HashMap::new();
        for st in &pipeline.stages {
            for (name, _) in &st.compiled.kernel.scalar_inputs {
                scalars.insert(format!("{}.{name}", st.name), 1);
            }
        }
        let mut pipeline_cases = Vec::new();
        for _ in 0..POOL {
            let mut inputs = Arrays::new();
            for (si, st) in pipeline.stages.iter().enumerate() {
                for w in &st.compiled.kernel.windows {
                    let fed = pipeline
                        .channels
                        .iter()
                        .any(|ch| ch.to_stage == si && ch.to_array == w.array);
                    if !fed {
                        let n: usize = w.dims.iter().product();
                        inputs.insert(
                            format!("{}.{}", st.name, w.array),
                            (0..n).map(|_| rng.sample_int(w.elem)).collect(),
                        );
                    }
                }
            }
            let golden = chain_golden(&pipeline, std::slice::from_ref(&inputs), &scalars)
                .map_err(|e| e.to_string())?
                .remove(0);
            pipeline_cases.push((inputs, golden));
        }
        Ok(SimulateSystem {
            rng,
            kernels,
            pipeline,
            scalars,
            pipeline_cases,
        })
    }

    /// Runs op `class` (a kernel index, or the pipeline) on input set
    /// `case`; returns the simulated cycles and whether the outputs were
    /// right.
    fn run(&self, class: usize, case: usize) -> Result<(u64, bool), String> {
        if let Some(k) = self.kernels.get(class) {
            let (inputs, expected) = &k.cases[case];
            let run =
                k.hw.run(inputs, &HashMap::new())
                    .map_err(|e| e.to_string())?;
            let ok = expected.iter().all(|(a, v)| run.arrays.get(a) == Some(v));
            return Ok((run.cycles, ok));
        }
        let (inputs, golden) = &self.pipeline_cases[case];
        let run = run_cosim(&self.pipeline, std::slice::from_ref(inputs), &self.scalars)
            .map_err(|e| e.to_string())?;
        let lane = &run.lane_arrays[0];
        let ok = !lane.is_empty() && lane.iter().all(|(key, v)| golden.get(key) == Some(v));
        Ok((run.cycles, ok))
    }
}

impl Workload for SimulateSystem {
    fn measure(&mut self, _compiler: &Compiler, seconds: f64, gauge: &mut Gauge) -> Measured {
        let mut m = Measured::default();
        let classes = self.kernels.len() + 1;
        let name = |c: usize| self.kernels.get(c).map_or("pipeline", |k| k.name);

        // Warm-up round, untimed.
        for c in 0..classes {
            let _ = self.run(c, 0);
        }

        let mut times = Scaled::new(classes);
        let mut cycles = vec![0u64; classes];
        let mut order: Vec<usize> = (0..classes).collect();
        let mut total_cycles = 0u64;
        let mut round = 0;
        let start = Instant::now();
        while !super::done(start, seconds, round) {
            shuffle(&mut self.rng, &mut order);
            for &c in &order {
                gauge.tick();
                let t0 = Instant::now();
                let out = self.run(c, round % POOL);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                m.attempted += 1;
                match out {
                    Ok((n, true)) => {
                        times.push(c, ms, gauge);
                        total_cycles += n;
                        cycles[c] = n;
                    }
                    Ok((_, false)) => {
                        m.failed += 1;
                        m.note(format!("{}: outputs differ from the golden model", name(c)));
                    }
                    Err(e) => {
                        m.failed += 1;
                        m.note(format!("{}: {e}", name(c)));
                    }
                }
            }
            round += 1;
        }

        times.fill(&mut m, total_cycles as f64);
        for (c, &n) in cycles.iter().enumerate() {
            m.extras
                .push((format!("{}.run_ms", name(c)), times.median(c), "ms"));
            m.extras
                .push((format!("{}.cycles", name(c)), n as f64, "count"));
        }
        if let Ok(run) = run_cosim(
            &self.pipeline,
            std::slice::from_ref(&self.pipeline_cases[0].0),
            &self.scalars,
        ) {
            let sum =
                |f: fn(&roccc_stream::StageStats) -> u64| run.stages.iter().map(f).sum::<u64>();
            m.extras.push((
                "stream.stall_cycles".into(),
                sum(|s| s.stall_cycles) as f64,
                "count",
            ));
            m.extras.push((
                "stream.starve_cycles".into(),
                sum(|s| s.starve_cycles) as f64,
                "count",
            ));
        }
        m
    }
}
