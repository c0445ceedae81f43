//! In-memory spans for the traced run, per-layer aggregation, the Chrome
//! trace-event writer and the replica drift guard.
//!
//! A span records its wall time and its *self* time: its duration minus
//! the durations of the spans opened directly inside it on the same
//! thread. Spans are kept in memory and written out only when the run
//! ends.

use crate::json;
use roccc::hash::Fnv64;
use roccc::{CompileError, CompileOptions, Compiled, Verdict};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `hlir.transform`.
    pub name: &'static str,
    /// Small per-thread number (Chrome trace `tid`).
    pub tid: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Wall duration.
    pub dur_ns: u64,
    /// Duration minus the direct child spans.
    pub self_ns: u64,
}

/// What one distinct `(function, options)` pair compiled to, recorded by
/// its first traced compile.
#[derive(Debug, Clone)]
pub struct KeyRecord {
    /// The source of the first compile of this pair.
    pub source: String,
    /// Kernel function.
    pub func: String,
    /// Options.
    pub opts: CompileOptions,
    /// The artifact summary, or the error message.
    pub outcome: Result<Artifact, String>,
}

/// Size and quality figures of one successful compile.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// FNV-1a hash of the VHDL text.
    pub vhdl_hash: u64,
    /// VHDL length in bytes.
    pub vhdl_bytes: u64,
    /// Certificate verdict, when the compile proved.
    pub verdict: Option<Verdict>,
    /// AST statements of the kernel function after the hlir transforms.
    pub stmts_out: u64,
    /// SSA IR instructions after optimisation.
    pub instrs: u64,
    /// Data-path operations.
    pub ops: u64,
    /// Netlist cells.
    pub cells: u64,
    /// Proof obligations discharged by the SAT fallback.
    pub sat_obligations: u64,
    /// Rewrite steps spent by the prover.
    pub rewrite_steps: u64,
    /// Mapped slices (Virtex-II model).
    pub slices: u64,
    /// Mapped maximum clock frequency.
    pub fmax_mhz: f64,
}

/// Span and compile recorder shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// `(ok, wall ns)` of every traced compile.
    compiles: Mutex<Vec<(bool, u64)>>,
    keys: Mutex<BTreeMap<(String, Vec<u8>), KeyRecord>>,
}

thread_local! {
    /// Per open span on this thread: the time its children took so far.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            compiles: Mutex::new(Vec::new()),
            keys: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        OPEN.with(|o| o.borrow_mut().push(0));
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let children = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let children = o.pop().expect("span stack balanced");
            if let Some(parent) = o.last_mut() {
                *parent += dur_ns;
            }
            children
        });
        let span = Span {
            name,
            tid: TID.with(|t| *t),
            start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            self_ns: dur_ns.saturating_sub(children),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Records one finished traced compile and, the first time its
    /// `(function, options)` pair is seen, what it produced.
    pub fn record_compile(
        &self,
        source: &str,
        func: &str,
        opts: &CompileOptions,
        dur_ns: u64,
        result: &Result<(Compiled, String), CompileError>,
    ) {
        self.compiles
            .lock()
            .expect("compile list poisoned")
            .push((result.is_ok(), dur_ns));
        let key = (func.to_string(), opts.canonical_bytes());
        if self
            .keys
            .lock()
            .expect("key map poisoned")
            .contains_key(&key)
        {
            return;
        }
        let outcome = match result {
            Ok((c, vhdl)) => Ok(artifact(c, func, vhdl)),
            Err(e) => Err(e.to_string()),
        };
        self.keys
            .lock()
            .expect("key map poisoned")
            .entry(key)
            .or_insert_with(|| KeyRecord {
                source: source.to_string(),
                func: func.to_string(),
                opts: opts.clone(),
                outcome,
            });
    }

    /// Every span closed so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Every distinct compile, in key order.
    pub fn keys(&self) -> Vec<KeyRecord> {
        self.keys
            .lock()
            .expect("key map poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of traced compiles so far.
    pub fn compile_count(&self) -> usize {
        self.compiles.lock().expect("compile list poisoned").len()
    }

    /// Per-layer metrics: self time per traced compile for every pass,
    /// the failure-path shares, and the artifact counts summed over the
    /// distinct compiles.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let compiles = self.compiles.lock().expect("compile list poisoned").clone();
        let n = compiles.len().max(1) as f64;
        let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
        for s in self.spans.lock().expect("span list poisoned").iter() {
            *self_ns.entry(s.name).or_default() += s.self_ns;
        }
        let mut out: Vec<(&'static str, f64)> = crate::PASSES
            .iter()
            .map(|&(span, metric)| {
                (
                    metric,
                    self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6 / n,
                )
            })
            .collect();
        let total: u64 = compiles.iter().map(|c| c.1).sum();
        let err: u64 = compiles.iter().filter(|c| !c.0).map(|c| c.1).sum();
        out.push(("compile.err_share", err as f64 / total.max(1) as f64));

        let keys = self.keys();
        let ok: Vec<&Artifact> = keys
            .iter()
            .filter_map(|k| k.outcome.as_ref().ok())
            .collect();
        out.push((
            "compile.useful_ratio",
            ok.len() as f64 / keys.len().max(1) as f64,
        ));
        let sum = |f: fn(&Artifact) -> u64| ok.iter().map(|a| f(a)).sum::<u64>() as f64;
        out.push(("hlir.stmts_out", sum(|a| a.stmts_out)));
        out.push(("suifvm.instrs", sum(|a| a.instrs)));
        out.push(("datapath.ops", sum(|a| a.ops)));
        out.push(("netlist.cells", sum(|a| a.cells)));
        out.push(("vhdl.bytes", sum(|a| a.vhdl_bytes)));
        out.push(("prove.sat_obligations", sum(|a| a.sat_obligations)));
        out.push(("prove.rewrite_steps", sum(|a| a.rewrite_steps)));
        out.push(("area_slices", sum(|a| a.slices)));
        let fmax: Vec<f64> = ok
            .iter()
            .map(|a| a.fmax_mhz)
            .filter(|f| f.is_finite())
            .collect();
        out.push(("fmax_geomean_mhz", crate::geomean(&fmax)));
        out
    }

    /// The drift guard: recompiles every distinct pair with
    /// `roccc::compile` and lists each difference from what the traced
    /// replica produced (VHDL bytes, certificate verdict, or the error
    /// message of a failing compile).
    pub fn drift_check(&self) -> Vec<String> {
        let mut drift = Vec::new();
        for k in self.keys() {
            let reference = roccc::compile(&k.source, &k.func, &k.opts)
                .map(|c| {
                    let vhdl = c.to_vhdl();
                    (fnv(&vhdl), c.certificate.as_ref().map(|c| c.verdict))
                })
                .map_err(|e| e.to_string());
            let replica = k
                .outcome
                .as_ref()
                .map(|a| (a.vhdl_hash, a.verdict))
                .map_err(Clone::clone);
            if reference != replica {
                drift.push(format!(
                    "{} {:?}: roccc::compile gave {reference:?}, replica gave {replica:?}",
                    k.func, k.opts
                ));
            }
        }
        drift
    }

    /// The spans as Chrome trace-event JSON (opens in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        s.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
            json::quote(process)
        ));
        for sp in self.spans.lock().expect("span list poisoned").iter() {
            s.push_str(&format!(
                ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"self_us\":{:.3}}}}}",
                json::quote(sp.name),
                json::quote(sp.name.split('.').next().unwrap_or(sp.name)),
                sp.tid,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns as f64 / 1e3,
                sp.self_ns as f64 / 1e3
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}

/// FNV-1a hash of a string.
pub fn fnv(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(s.as_bytes());
    h.finish()
}

fn artifact(c: &Compiled, func: &str, vhdl: &str) -> Artifact {
    let stmts_out = c.program.function(func).map_or(0, |f| count_stmts(&f.body));
    let (sat_obligations, rewrite_steps) = c.certificate.as_ref().map_or((0, 0), |cert| {
        (cert.status_counts().2 as u64, cert.rewrite_steps)
    });
    let mapped = roccc_synth::map_netlist(&c.netlist, &roccc_synth::VirtexII::default());
    Artifact {
        vhdl_hash: fnv(vhdl),
        vhdl_bytes: vhdl.len() as u64,
        verdict: c.certificate.as_ref().map(|c| c.verdict),
        stmts_out,
        instrs: c.ir.instr_count() as u64,
        ops: c.datapath.ops.len() as u64,
        cells: c.netlist.cells.len() as u64,
        sat_obligations,
        rewrite_steps,
        slices: mapped.slices,
        fmax_mhz: mapped.fmax_mhz,
    }
}

/// Statements in `b`, counting nested blocks and loop headers.
pub fn count_stmts(b: &roccc_cparse::ast::Block) -> u64 {
    use roccc_cparse::ast::StmtKind;
    b.stmts
        .iter()
        .map(|s| {
            1 + match &s.kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => count_stmts(then_blk) + else_blk.as_ref().map_or(0, count_stmts),
                StmtKind::For {
                    init, step, body, ..
                } => u64::from(init.is_some()) + u64::from(step.is_some()) + count_stmts(body),
                StmtKind::While { body, .. } | StmtKind::Block(body) => count_stmts(body),
                _ => 0,
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(inner.self_ns >= 20_000_000);
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert!(outer.self_ns < inner.dur_ns);
        let chrome = t.chrome_trace("test");
        let doc = json::parse(&chrome).expect("chrome trace is JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(json::Json::as_array)
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn statement_count_walks_nested_blocks() {
        let p = roccc_cparse::frontend(
            "void f(int A[4], int B[4]) { int i; for (i = 0; i < 4; i++) { if (A[i] > 0) { B[i] = 1; } else { B[i] = 2; } } }",
        )
        .unwrap();
        // decl, for (+ init + step), if, two assignments
        assert_eq!(count_stmts(&p.function("f").unwrap().body), 7);
    }
}
