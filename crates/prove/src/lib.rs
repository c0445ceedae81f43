//! # roccc-prove — per-compile translation validation
//!
//! The compile pipeline is verified *structurally* after every phase
//! (`roccc-verify`), but structural invariants cannot say whether the
//! netlist still *computes the same function* as the IR it was lowered
//! from. This crate closes that gap with a word-level symbolic
//! equivalence check run per compile:
//!
//! 1. [`eval_ir`](eval_ir::eval_ir) executes one steady-state window of
//!    the SSA IR symbolically, producing a bit-vector term per output
//!    port and per feedback next-state;
//! 2. [`eval_nl`](eval_nl::eval_nl) executes one II-period of the
//!    netlist over the *same* symbolic leaves, tracking pipeline timing
//!    through leaf lags;
//! 3. each *obligation* (output value, next-state value, reset value,
//!    valid-grid timing) is discharged by the normalizing rewriter
//!    ([`rewrite::equal_mod`]) — constant folding, AC canonicalization,
//!    shift/mask algebra, width-change absorption via interval analysis
//!    and the compiler's `suifvm::range` facts — and residual obligations
//!    fall back to an in-tree CDCL SAT core ([`blast::sat_equal`]) under
//!    a conflict budget, with an honest `Unknown` when it runs out.
//!
//! A refutation is only ever reported after its counterexample has been
//! **replayed** concretely: the candidate input window is run from reset
//! through both `IrMachine` and the compiled netlist engine
//! (`SimPlan::run_batch_lanes` at one lane), and the divergence must
//! reproduce. The result is a [`Certificate`] with a per-obligation audit
//! trail, rendered as stable JSON (`roccc-prove-v1`) and re-checkable
//! from the artifact alone by `roccc_verify::verify_certificate` (the
//! `E0xx` diagnostic family).

#![warn(missing_docs)]

pub mod blast;
pub mod eval_ir;
pub mod eval_nl;
pub mod rewrite;
pub mod sat;
pub mod term;

use std::collections::HashMap;
use std::fmt;

use roccc_cparse::types::IntType;
use roccc_netlist::cells::Netlist;
use roccc_netlist::plan::SimPlan;
use roccc_suifvm::interp::IrMachine;
use roccc_suifvm::ir::FunctionIr;
use roccc_verify::{CertificateView, CounterexampleView, Diagnostic, ObligationView};

use blast::SatOutcome;
use rewrite::{equal_mod, NormCache};
use term::{LagSet, TermId, TermStore};

/// Schema tag stamped on every certificate (kept in lockstep with
/// [`roccc_verify::PROVE_SCHEMA`]).
pub const PROVE_SCHEMA: &str = roccc_verify::PROVE_SCHEMA;

// ---------------------------------------------------------------------------
// Certificate model
// ---------------------------------------------------------------------------

/// Overall equivalence verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every obligation proved: the netlist computes the IR function.
    Equal,
    /// At least one obligation refuted (with a replayed counterexample
    /// for value obligations).
    Refuted,
    /// No refutation, but at least one obligation exhausted its budget.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Equal => write!(f, "equal"),
            Verdict::Refuted => write!(f, "refuted"),
            Verdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// What a proof obligation is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObKind {
    /// An output port computes the IR output (mod its width).
    Output,
    /// A feedback register's next state matches the IR `SNX` value.
    NextState,
    /// A feedback register resets to the IR slot's initial value.
    Init,
    /// An output/next-state cone is timed as one steady-state window
    /// (uniform leaf lags at the expected depth).
    ValidGrid,
}

impl fmt::Display for ObKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObKind::Output => write!(f, "output"),
            ObKind::NextState => write!(f, "next-state"),
            ObKind::Init => write!(f, "init"),
            ObKind::ValidGrid => write!(f, "valid-grid"),
        }
    }
}

/// How an obligation was discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObStatus {
    /// Closed by the normalizing rewriter alone.
    ProvedRewrite,
    /// Closed by the rewriter, relying on a compiler range fact to elide
    /// a width change (trusts `suifvm::range`, re-checked by `W005`).
    ProvedRange,
    /// Closed by the CDCL SAT fallback (UNSAT of the difference).
    ProvedSat,
    /// Concretely refuted; the counterexample replays under the compiled
    /// netlist engine.
    Refuted,
    /// Not decided within budget.
    Unknown,
}

impl fmt::Display for ObStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObStatus::ProvedRewrite => write!(f, "proved-rewrite"),
            ObStatus::ProvedRange => write!(f, "proved-range"),
            ObStatus::ProvedSat => write!(f, "proved-sat"),
            ObStatus::Refuted => write!(f, "refuted"),
            ObStatus::Unknown => write!(f, "unknown"),
        }
    }
}

/// SAT-solver effort spent on one obligation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatSummary {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Branching decisions.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Clauses learned.
    pub learned: u64,
    /// CNF variables.
    pub vars: usize,
    /// CNF clauses.
    pub clauses: usize,
}

/// One discharged (or not) proof obligation.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Obligation name, e.g. `output C` or `next sum`.
    pub name: String,
    /// What the obligation is about.
    pub kind: ObKind,
    /// How it was discharged.
    pub status: ObStatus,
    /// Observed uniform cone lag (grid obligations) or the expected
    /// pipeline depth (value obligations).
    pub lag: Option<u32>,
    /// Term-store rewrite steps consumed while discharging.
    pub rewrite_steps: u64,
    /// SAT effort, when the fallback ran.
    pub sat: Option<SatSummary>,
    /// Human-readable detail.
    pub detail: String,
}

/// A concrete, replayable witness of inequivalence.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Input windows fed from reset (parallel to `f.inputs` each).
    pub windows: Vec<Vec<i64>>,
    /// Output port that diverges.
    pub port: String,
    /// Index of the diverging output window.
    pub window: usize,
    /// Value the IR produces there.
    pub ir_value: i64,
    /// Value the netlist produces there.
    pub nl_value: i64,
}

/// The full translation-validation certificate for one compile.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Schema tag ([`PROVE_SCHEMA`]).
    pub schema: String,
    /// Kernel name.
    pub kernel: String,
    /// Overall verdict.
    pub verdict: Verdict,
    /// Netlist pipeline depth the grid obligations were checked against.
    pub latency: u32,
    /// Netlist initiation interval.
    pub ii: u32,
    /// Hash-consed term count — the certificate's symbolic footprint.
    pub terms: usize,
    /// Total rewrite steps across all obligations.
    pub rewrite_steps: u64,
    /// Every obligation, in a stable order (grids, inits, outputs, next
    /// states).
    pub obligations: Vec<Obligation>,
    /// Witness backing a `Refuted` verdict.
    pub counterexample: Option<Counterexample>,
}

impl Certificate {
    /// `(rewrite, range, sat, refuted, unknown)` obligation counts.
    pub fn status_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for o in &self.obligations {
            match o.status {
                ObStatus::ProvedRewrite => c.0 += 1,
                ObStatus::ProvedRange => c.1 += 1,
                ObStatus::ProvedSat => c.2 += 1,
                ObStatus::Refuted => c.3 += 1,
                ObStatus::Unknown => c.4 += 1,
            }
        }
        c
    }

    /// True when every obligation closed without the SAT fallback.
    pub fn rewrite_only(&self) -> bool {
        self.obligations
            .iter()
            .all(|o| matches!(o.status, ObStatus::ProvedRewrite | ObStatus::ProvedRange))
    }
}

/// Knobs for the prover.
#[derive(Debug, Clone)]
pub struct ProveOptions {
    /// CDCL conflict budget per obligation before `Unknown`.
    pub sat_conflict_budget: u64,
    /// Random input windows for the differential pre-pass and replay.
    pub replay_windows: usize,
    /// PRNG seed for sampling (deterministic certificates).
    pub seed: u64,
}

impl Default for ProveOptions {
    fn default() -> Self {
        ProveOptions {
            sat_conflict_budget: 50_000,
            replay_windows: 24,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

/// Minimal xorshift64* PRNG (the prover must stay dependency-free).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Samples a raw 64-bit argument word: mostly values inside the
    /// port's range (edges included), occasionally a full-width word to
    /// stress the wrap semantics on both sides.
    fn sample(&mut self, ty: IntType) -> i64 {
        match self.next() % 8 {
            0 => 0,
            1 => 1,
            2 => ty.max_value(),
            3 => ty.min_value(),
            4 => self.next() as i64, // raw full-width word
            _ => {
                let lo = ty.min_value() as i128;
                let span = ty.max_value() as i128 - lo + 1;
                (lo + (self.next() as i128).rem_euclid(span)) as i64
            }
        }
    }

    fn window(&mut self, f: &FunctionIr) -> Vec<i64> {
        f.inputs.iter().map(|&(_, ty)| self.sample(ty)).collect()
    }
}

// ---------------------------------------------------------------------------
// Replay oracle
// ---------------------------------------------------------------------------

/// Runs `windows` from reset through both machines. Returns the first
/// divergence as `(port, window, ir, nl)`; `None` when none reproduced
/// (including when either side faults — a faulting window constrains
/// nothing, and state is no longer comparable past it).
fn replay(f: &FunctionIr, nl: &Netlist, windows: &[Vec<i64>]) -> Option<(usize, usize, i64, i64)> {
    let plan = SimPlan::compile(nl).ok()?;
    let mut nl_out = Vec::new();
    plan.run_batch_lanes(&windows.concat(), windows.len(), 1, &mut nl_out)
        .ok()?;
    let n_out = plan.num_outputs();
    let mut m = IrMachine::new(f);
    for (w, win) in windows.iter().enumerate() {
        let ir_out = match m.run(win) {
            Ok(v) => v,
            Err(_) => return None,
        };
        let nl_row = &nl_out[w * n_out..(w + 1) * n_out];
        for (p, (&iv, &nv)) in ir_out.iter().zip(nl_row).enumerate() {
            if iv != nv {
                return Some((p, w, iv, nv));
            }
        }
    }
    None
}

/// Public differential oracle for soundness harnesses: replays `windows`
/// from reset through both the IR interpreter and the compiled netlist
/// simulator, returning the first divergence as
/// `(port, window, ir_value, nl_value)`. `None` means no divergence
/// reproduced (including when either side faults — a faulting window
/// constrains nothing).
pub fn differential_replay(
    f: &FunctionIr,
    nl: &Netlist,
    windows: &[Vec<i64>],
) -> Option<(usize, usize, i64, i64)> {
    replay(f, nl, windows)
}

// ---------------------------------------------------------------------------
// The prover
// ---------------------------------------------------------------------------

/// Per-obligation discharge machinery shared across obligations.
struct Prover<'a> {
    f: &'a FunctionIr,
    nl: &'a Netlist,
    store: TermStore,
    norm: NormCache,
    opts: &'a ProveOptions,
    rng: Rng,
    fb_init: Vec<i64>,
}

impl<'a> Prover<'a> {
    /// Attempts the cheap concrete path on a candidate leaf assignment:
    /// replays the window (plus noise windows) from reset and keeps the
    /// divergence only when it reproduces.
    fn confirm(&mut self, vars: Vec<i64>) -> Option<Counterexample> {
        let mut windows = vec![vars];
        for _ in 0..3 {
            windows.push(self.rng.window(self.f));
        }
        let (p, w, iv, nv) = replay(self.f, self.nl, &windows)?;
        windows.truncate(w + 1);
        Some(Counterexample {
            windows,
            port: self.f.outputs[p].0.as_str().to_string(),
            window: w,
            ir_value: iv,
            nl_value: nv,
        })
    }

    /// Discharges one value obligation `l ≡ r (mod 2^bits)`.
    #[allow(clippy::too_many_arguments)]
    fn discharge(
        &mut self,
        name: String,
        kind: ObKind,
        l: TermId,
        r: TermId,
        bits: u8,
        range_assisted: bool,
        lag: Option<u32>,
    ) -> (Obligation, Option<Counterexample>) {
        let steps0 = self.store.steps;

        // Tier 1 — normalizing rewriter.
        if equal_mod(&mut self.store, l, r, bits, &mut self.norm) {
            let status = if range_assisted {
                ObStatus::ProvedRange
            } else {
                ObStatus::ProvedRewrite
            };
            return (
                Obligation {
                    name,
                    kind,
                    status,
                    lag,
                    rewrite_steps: self.store.steps - steps0,
                    sat: None,
                    detail: if range_assisted {
                        "normal forms coincide (range-fact assisted)".into()
                    } else {
                        "normal forms coincide".into()
                    },
                },
                None,
            );
        }

        // Tier 2 — concrete probes over random leaf assignments; any
        // divergence is only a candidate until it replays from reset.
        let cmp_ty = IntType::signed(bits.max(1));
        for _ in 0..64 {
            let vars = self.rng.window(self.f);
            let mut cache = HashMap::new();
            let lv = self.store.eval(l, &vars, &self.fb_init, &mut cache);
            let rv = self.store.eval(r, &vars, &self.fb_init, &mut cache);
            if cmp_ty.wrap(lv) != cmp_ty.wrap(rv) {
                if let Some(cex) = self.confirm(vars) {
                    return (
                        Obligation {
                            name,
                            kind,
                            status: ObStatus::Refuted,
                            lag,
                            rewrite_steps: self.store.steps - steps0,
                            sat: None,
                            detail: format!(
                                "concrete probe diverges and replays ({} != {})",
                                cex.ir_value, cex.nl_value
                            ),
                        },
                        Some(cex),
                    );
                }
            }
        }

        // Tier 3 — CDCL SAT fallback on the bit-blasted difference.
        let (outcome, stats, vars_n, clauses) =
            blast::sat_equal(&self.store, l, r, bits, self.opts.sat_conflict_budget);
        let sat = Some(SatSummary {
            conflicts: stats.conflicts,
            decisions: stats.decisions,
            propagations: stats.propagations,
            learned: stats.learned,
            vars: vars_n,
            clauses,
        });
        let steps = self.store.steps - steps0;
        match outcome {
            SatOutcome::Equal => (
                Obligation {
                    name,
                    kind,
                    status: ObStatus::ProvedSat,
                    lag,
                    rewrite_steps: steps,
                    sat,
                    detail: "difference UNSAT".into(),
                },
                None,
            ),
            SatOutcome::Candidate(var_model, _fb_model) => {
                let mut vars = vec![0i64; self.f.inputs.len()];
                for (&(p, _), &v) in &var_model {
                    if let Some(slot) = vars.get_mut(p as usize) {
                        *slot = v;
                    }
                }
                match self.confirm(vars) {
                    Some(cex) => (
                        Obligation {
                            name,
                            kind,
                            status: ObStatus::Refuted,
                            lag,
                            rewrite_steps: steps,
                            sat,
                            detail: format!(
                                "SAT model replays ({} != {})",
                                cex.ir_value, cex.nl_value
                            ),
                        },
                        Some(cex),
                    ),
                    None => (
                        Obligation {
                            name,
                            kind,
                            status: ObStatus::Unknown,
                            lag,
                            rewrite_steps: steps,
                            sat,
                            detail: "SAT model did not replay from reset \
                                     (abstraction or unreachable state)"
                                .into(),
                        },
                        None,
                    ),
                }
            }
            SatOutcome::Unknown => (
                Obligation {
                    name,
                    kind,
                    status: ObStatus::Unknown,
                    lag,
                    rewrite_steps: steps,
                    sat,
                    detail: format!("SAT budget exhausted ({} conflicts)", stats.conflicts),
                },
                None,
            ),
        }
    }
}

/// A grid (timing) obligation from an observed lag set.
fn grid_obligation(name: String, observed: LagSet, expected: u32) -> Obligation {
    let (status, lag, detail) = match observed {
        LagSet::Empty => (
            ObStatus::ProvedRewrite,
            None,
            "constant cone (timing-neutral)".to_string(),
        ),
        LagSet::Uniform(l) if l == expected => (
            ObStatus::ProvedRewrite,
            Some(l),
            format!("cone uniform at lag {l}"),
        ),
        LagSet::Uniform(l) => (
            ObStatus::Refuted,
            Some(l),
            format!("cone uniform at lag {l}, expected {expected}"),
        ),
        LagSet::Mixed => (
            ObStatus::Refuted,
            None,
            format!("mixed leaf lags in a cone expected uniform at {expected}"),
        ),
    };
    Obligation {
        name,
        kind: ObKind::ValidGrid,
        status,
        lag,
        rewrite_steps: 0,
        sat: None,
        detail,
    }
}

/// Proves (or refutes) that `nl` implements `f`, producing a
/// [`Certificate`]. Never panics on malformed inputs — modeling failures
/// surface as `Unknown` obligations, and the differential pre-pass can
/// still refute what the symbolic engine cannot model.
pub fn prove(f: &FunctionIr, nl: &Netlist, kernel: &str, opts: &ProveOptions) -> Certificate {
    let var_tys: Vec<IntType> = f.inputs.iter().map(|&(_, ty)| ty).collect();
    let fb_tys: Vec<IntType> = f.feedback.iter().map(|s| s.ty).collect();
    let mut store = TermStore::new(var_tys, fb_tys);
    let fb_init: Vec<i64> = f.feedback.iter().map(|s| s.ty.wrap(s.init)).collect();

    let mut obligations: Vec<Obligation> = Vec::new();
    let mut counterexample: Option<Counterexample> = None;

    // Differential pre-pass: random windows from reset through both
    // machines. A divergence here is already a replayed counterexample.
    let mut rng = Rng::new(opts.seed);
    let pre_windows: Vec<Vec<i64>> = (0..opts.replay_windows.max(1))
        .map(|_| rng.window(f))
        .collect();
    let pre_diverged = replay(f, nl, &pre_windows).map(|(p, w, iv, nv)| {
        let mut windows = pre_windows.clone();
        windows.truncate(w + 1);
        counterexample = Some(Counterexample {
            windows,
            port: f.outputs[p].0.as_str().to_string(),
            window: w,
            ir_value: iv,
            nl_value: nv,
        });
        (p, iv, nv)
    });

    // Symbolic window of both sides.
    let symbols = eval_ir::eval_ir(&mut store, f)
        .and_then(|ir| eval_nl::eval_nl(&mut store, nl, f).map(|nls| (ir, nls)));

    match symbols {
        Err(e) => {
            obligations.push(Obligation {
                name: "symbolic-model".into(),
                kind: ObKind::ValidGrid,
                status: ObStatus::Unknown,
                lag: None,
                rewrite_steps: 0,
                sat: None,
                detail: format!("symbolic evaluation failed: {e}"),
            });
            // The differential witness still refutes concretely.
            if let Some((p, iv, nv)) = pre_diverged {
                obligations.push(Obligation {
                    name: format!("output {}", f.outputs[p].0),
                    kind: ObKind::Output,
                    status: ObStatus::Refuted,
                    lag: None,
                    rewrite_steps: 0,
                    sat: None,
                    detail: format!("differential replay diverges ({iv} != {nv})"),
                });
            }
        }
        Ok((ir, nls)) => {
            let mut lag_cache = HashMap::new();
            let mut strip_cache = HashMap::new();

            // Valid-grid obligations: every output cone must be uniform
            // at the plan latency, every next-state cone at its gate.
            for (k, &t) in nls.outputs.iter().enumerate() {
                let name = format!("grid {}", f.outputs[k].0);
                obligations.push(grid_obligation(
                    name,
                    store.lags(t, &mut lag_cache),
                    nl.latency,
                ));
            }
            for (s, &t) in nls.next_state.iter().enumerate() {
                let name = format!("grid next {}", f.feedback[s].name);
                obligations.push(grid_obligation(
                    name,
                    store.lags(t, &mut lag_cache),
                    nls.gate_stages[s],
                ));
            }

            // Reset-state obligations: both machines must start equal.
            for (s, &(ni, ii_)) in nls.init_vals.iter().enumerate() {
                let ok = ni == ii_;
                obligations.push(Obligation {
                    name: format!("init {}", f.feedback[s].name),
                    kind: ObKind::Init,
                    status: if ok {
                        ObStatus::ProvedRewrite
                    } else {
                        ObStatus::Refuted
                    },
                    lag: None,
                    rewrite_steps: 0,
                    sat: None,
                    detail: if ok {
                        format!("both reset to {ni}")
                    } else {
                        format!("netlist resets to {ni}, IR slot to {ii_}")
                    },
                });
            }

            let mut prover = Prover {
                f,
                nl,
                store,
                norm: NormCache::new(),
                opts,
                rng,
                fb_init,
            };

            // Value obligations, lag-stripped into window-relative form.
            if ir.outputs.len() != nls.outputs.len() {
                obligations.push(Obligation {
                    name: "outputs".into(),
                    kind: ObKind::ValidGrid,
                    status: ObStatus::Refuted,
                    lag: None,
                    rewrite_steps: 0,
                    sat: None,
                    detail: format!(
                        "IR has {} output ports, netlist {}",
                        ir.outputs.len(),
                        nls.outputs.len()
                    ),
                });
            }
            for (k, (&it, &nt)) in ir.outputs.iter().zip(nls.outputs.iter()).enumerate() {
                let range_assisted = prover.store.cone_intersects(nt, &nls.fact_elided);
                let stripped = prover.store.strip_lags(nt, &mut strip_cache);
                let bits = f.outputs[k].1.bits;
                let (ob, cex) = prover.discharge(
                    format!("output {}", f.outputs[k].0),
                    ObKind::Output,
                    it,
                    stripped,
                    bits,
                    range_assisted,
                    Some(nl.latency),
                );
                obligations.push(ob);
                if counterexample.is_none() {
                    counterexample = cex;
                }
            }
            for (s, (&it, &nt)) in ir.next_state.iter().zip(nls.next_state.iter()).enumerate() {
                let range_assisted = prover.store.cone_intersects(nt, &nls.fact_elided);
                let stripped = prover.store.strip_lags(nt, &mut strip_cache);
                let bits = f.feedback[s].ty.bits;
                let (ob, cex) = prover.discharge(
                    format!("next {}", f.feedback[s].name),
                    ObKind::NextState,
                    it,
                    stripped,
                    bits,
                    range_assisted,
                    Some(nls.gate_stages[s]),
                );
                obligations.push(ob);
                if counterexample.is_none() {
                    counterexample = cex;
                }
            }

            // Overlay the differential witness: concrete evidence beats a
            // symbolic "proof" (which would indicate a prover bug).
            if let Some((p, iv, nv)) = pre_diverged {
                let name = format!("output {}", f.outputs[p].0);
                match obligations.iter_mut().find(|o| o.name == name) {
                    Some(o) if o.status != ObStatus::Refuted => {
                        o.status = ObStatus::Refuted;
                        o.detail = format!("differential replay diverges ({iv} != {nv})");
                    }
                    _ => {}
                }
            }

            store = prover.store;
        }
    }

    let terms = store.len();
    let rewrite_steps = store.steps;

    let any_refuted = obligations.iter().any(|o| o.status == ObStatus::Refuted);
    let any_unknown = obligations.iter().any(|o| o.status == ObStatus::Unknown);
    let verdict = if any_refuted {
        Verdict::Refuted
    } else if any_unknown {
        Verdict::Unknown
    } else {
        Verdict::Equal
    };
    if verdict != Verdict::Refuted {
        counterexample = None;
    }

    Certificate {
        schema: PROVE_SCHEMA.to_string(),
        kernel: kernel.to_string(),
        verdict,
        latency: nl.latency,
        ii: nl.ii.max(1),
        terms,
        rewrite_steps,
        obligations,
        counterexample,
    }
}

// ---------------------------------------------------------------------------
// Re-checking
// ---------------------------------------------------------------------------

/// Re-checks `cert` against the artifacts it talks about. Returns
/// human-readable problems (empty = certificate is credible). The heavy
/// part is re-replaying the counterexample; structural consistency is
/// `roccc_verify::verify_certificate`'s job.
pub fn check_certificate(cert: &Certificate, f: &FunctionIr, nl: &Netlist) -> Vec<String> {
    let mut problems = Vec::new();
    if cert.schema != PROVE_SCHEMA {
        problems.push(format!("schema '{}' is not {PROVE_SCHEMA}", cert.schema));
    }
    if cert.latency != nl.latency {
        problems.push(format!(
            "certificate latency {} != netlist latency {}",
            cert.latency, nl.latency
        ));
    }
    if cert.ii != nl.ii.max(1) {
        problems.push(format!(
            "certificate II {} != netlist II {}",
            cert.ii,
            nl.ii.max(1)
        ));
    }
    if let Some(cex) = &cert.counterexample {
        match replay(f, nl, &cex.windows) {
            Some(_) => {}
            None => problems.push(format!(
                "counterexample for '{}' does not diverge under replay",
                cex.port
            )),
        }
    }
    problems
}

/// True when the certificate's counterexample (if any) reproduces.
pub fn replay_counterexample(cert: &Certificate, f: &FunctionIr, nl: &Netlist) -> Option<bool> {
    cert.counterexample
        .as_ref()
        .map(|cex| replay(f, nl, &cex.windows).is_some())
}

/// Maps a certificate into the plain-data view `roccc-verify` checks.
/// `replay_diverged` carries the replay result when one was run.
pub fn certificate_view(cert: &Certificate, replay_diverged: Option<bool>) -> CertificateView {
    CertificateView {
        schema: cert.schema.clone(),
        kernel: cert.kernel.clone(),
        verdict: cert.verdict.to_string(),
        obligations: cert
            .obligations
            .iter()
            .map(|o| ObligationView {
                name: o.name.clone(),
                kind: o.kind.to_string(),
                status: o.status.to_string(),
                detail: o.detail.clone(),
            })
            .collect(),
        counterexample: cert.counterexample.as_ref().map(|c| CounterexampleView {
            windows: c.windows.len(),
            port: c.port.clone(),
            window: c.window,
            ir_value: c.ir_value,
            nl_value: c.nl_value,
            replay_diverged,
        }),
    }
}

/// One-call path from certificate to `E0xx` diagnostics: replays the
/// counterexample against the artifacts, then runs the structural checks.
pub fn verify_certificate_diags(
    cert: &Certificate,
    f: &FunctionIr,
    nl: &Netlist,
) -> Vec<Diagnostic> {
    let replayed = replay_counterexample(cert, f, nl);
    roccc_verify::verify_certificate(&certificate_view(cert, replayed))
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the stable `roccc-prove-v1` JSON document.
pub fn certificate_json(cert: &Certificate) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"schema\": \"{}\",\n",
        json_escape(&cert.schema)
    ));
    s.push_str(&format!(
        "  \"kernel\": \"{}\",\n",
        json_escape(&cert.kernel)
    ));
    s.push_str(&format!("  \"verdict\": \"{}\",\n", cert.verdict));
    s.push_str(&format!("  \"latency\": {},\n", cert.latency));
    s.push_str(&format!("  \"ii\": {},\n", cert.ii));
    s.push_str(&format!("  \"terms\": {},\n", cert.terms));
    s.push_str(&format!("  \"rewrite_steps\": {},\n", cert.rewrite_steps));
    s.push_str("  \"obligations\": [\n");
    for (i, o) in cert.obligations.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"name\": \"{}\", ", json_escape(&o.name)));
        s.push_str(&format!("\"kind\": \"{}\", ", o.kind));
        s.push_str(&format!("\"status\": \"{}\", ", o.status));
        match o.lag {
            Some(l) => s.push_str(&format!("\"lag\": {l}, ")),
            None => s.push_str("\"lag\": null, "),
        }
        s.push_str(&format!("\"rewrite_steps\": {}, ", o.rewrite_steps));
        match &o.sat {
            Some(ss) => s.push_str(&format!(
                "\"sat\": {{\"conflicts\": {}, \"decisions\": {}, \"propagations\": {}, \
                 \"learned\": {}, \"vars\": {}, \"clauses\": {}}}, ",
                ss.conflicts, ss.decisions, ss.propagations, ss.learned, ss.vars, ss.clauses
            )),
            None => s.push_str("\"sat\": null, "),
        }
        s.push_str(&format!("\"detail\": \"{}\"}}", json_escape(&o.detail)));
        s.push_str(if i + 1 == cert.obligations.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    s.push_str("  ],\n");
    match &cert.counterexample {
        Some(c) => {
            s.push_str("  \"counterexample\": {\n");
            s.push_str(&format!("    \"port\": \"{}\",\n", json_escape(&c.port)));
            s.push_str(&format!("    \"window\": {},\n", c.window));
            s.push_str(&format!("    \"ir_value\": {},\n", c.ir_value));
            s.push_str(&format!("    \"nl_value\": {},\n", c.nl_value));
            s.push_str("    \"windows\": [");
            for (i, w) in c.windows.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push('[');
                for (j, v) in w.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&v.to_string());
                }
                s.push(']');
            }
            s.push_str("]\n  }\n");
        }
        None => s.push_str("  \"counterexample\": null\n"),
    }
    s.push_str("}\n");
    s
}

/// Human-readable certificate summary.
pub fn certificate_report(cert: &Certificate) -> String {
    let (rw, rg, sat, refuted, unknown) = cert.status_counts();
    let mut s = String::new();
    s.push_str(&format!(
        "prove: {} — {} (latency {}, II {})\n",
        cert.kernel,
        cert.verdict.to_string().to_uppercase(),
        cert.latency,
        cert.ii
    ));
    s.push_str(&format!(
        "  {} obligations: {rw} rewrite, {rg} range, {sat} sat, {refuted} refuted, \
         {unknown} unknown; {} terms, {} rewrite steps\n",
        cert.obligations.len(),
        cert.terms,
        cert.rewrite_steps
    ));
    for o in &cert.obligations {
        let lag = match o.lag {
            Some(l) => format!(" @{l}"),
            None => String::new(),
        };
        s.push_str(&format!(
            "  {} [{}]{}: {} — {}\n",
            o.name, o.kind, lag, o.status, o.detail
        ));
    }
    if let Some(c) = &cert.counterexample {
        s.push_str(&format!(
            "  counterexample: port {} window {}: ir={} nl={} ({} input window{})\n",
            c.port,
            c.window,
            c.ir_value,
            c.nl_value,
            c.windows.len(),
            if c.windows.len() == 1 { "" } else { "s" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cert_with(statuses: &[ObStatus]) -> Certificate {
        Certificate {
            schema: PROVE_SCHEMA.into(),
            kernel: "k".into(),
            verdict: Verdict::Equal,
            latency: 3,
            ii: 1,
            terms: 10,
            rewrite_steps: 5,
            obligations: statuses
                .iter()
                .map(|&st| Obligation {
                    name: "output o".into(),
                    kind: ObKind::Output,
                    status: st,
                    lag: Some(3),
                    rewrite_steps: 1,
                    sat: None,
                    detail: "d".into(),
                })
                .collect(),
            counterexample: None,
        }
    }

    #[test]
    fn status_counts_and_rewrite_only() {
        let c = cert_with(&[ObStatus::ProvedRewrite, ObStatus::ProvedRange]);
        assert_eq!(c.status_counts(), (1, 1, 0, 0, 0));
        assert!(c.rewrite_only());
        let c = cert_with(&[ObStatus::ProvedRewrite, ObStatus::ProvedSat]);
        assert!(!c.rewrite_only());
    }

    #[test]
    fn json_is_schema_stable() {
        let mut c = cert_with(&[ObStatus::ProvedRewrite]);
        c.counterexample = Some(Counterexample {
            windows: vec![vec![1, 2]],
            port: "o".into(),
            window: 0,
            ir_value: 7,
            nl_value: 8,
        });
        let j = certificate_json(&c);
        assert!(j.contains("\"schema\": \"roccc-prove-v1\""));
        assert!(j.contains("\"verdict\": \"equal\""));
        assert!(j.contains("\"status\": \"proved-rewrite\""));
        assert!(j.contains("\"windows\": [[1, 2]]"));
    }

    #[test]
    fn view_round_trips_vocabulary() {
        let c = cert_with(&[ObStatus::ProvedSat, ObStatus::Unknown]);
        let v = certificate_view(&c, None);
        assert_eq!(v.obligations[0].status, "proved-sat");
        assert_eq!(v.obligations[1].status, "unknown");
        assert_eq!(v.obligations[0].kind, "output");
        assert_eq!(v.verdict, "equal");
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next(), b.next());
        }
    }
}
