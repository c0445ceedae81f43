//! Translation-validation certificate verification — the `E0xx` family.
//!
//! `roccc-prove` certifies that the compiled netlist is observationally
//! equivalent to the optimized SSA IR: per output port (and per feedback
//! slot) it records an *obligation* discharged by rewriting, range facts,
//! or the SAT fallback — or refuted with a concrete counterexample that
//! was replayed through the compiled netlist engine, or left honestly
//! unknown. This module re-checks a certificate *structurally*, from the
//! artifact alone:
//!
//! * `E001` — a value obligation is refuted: the netlist disagrees with
//!   the IR on a concrete, replayable input window (error);
//! * `E002` — valid-grid divergence: an output or next-state cone is not
//!   timed as one steady-state window (mixed or mis-placed lags, a
//!   latency/II mismatch, or differing reset state), or a proved grid
//!   obligation records a lag its netlist cone does not have when the
//!   timing is re-derived from the netlist (error);
//! * `E003` — an obligation could not be proved or refuted within budget
//!   (warning — the certificate is honest about `Unknown`);
//! * `E004` — the certificate itself is malformed: unknown schema or
//!   status strings, a verdict inconsistent with its obligations, a
//!   refutation without a counterexample, or a counterexample that failed
//!   to reproduce under replay (error).
//!
//! The checks run over a plain-data [`CertificateView`] so this crate
//! stays independent of `roccc-prove`; the prove crate populates the view
//! from its certificate (attaching the replay result), and `roccc` gates
//! the findings under the usual [`crate::VerifyLevel`] rules.

use crate::diag::{Diagnostic, Loc, Phase, Severity};

/// The stable schema tag a well-formed certificate must carry.
pub const PROVE_SCHEMA: &str = "roccc-prove-v1";

/// The lags a netlist cone's cells sit at: how many register stages
/// after the window's launch each of its values is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LagSet {
    /// No input or feedback state in the cone (constant) — timing-neutral.
    Empty,
    /// Every value of the cone sits at the same lag.
    Uniform(u32),
    /// Values at differing lags meet in the cone — a valid-grid divergence.
    Mixed,
}

impl LagSet {
    /// True when a proved grid obligation that records `lag` agrees with
    /// this re-derived set. A recorded lag must be the set's uniform lag.
    /// No lag claims a cone whose value is constant, which timing alone
    /// can neither confirm nor refute unless the cells sit at mixed lags:
    /// a value constant only because delayed and undelayed copies of one
    /// input cancel is no constant in hardware, so a mixed cone never
    /// agrees.
    pub fn agrees_with(self, lag: Option<u32>) -> bool {
        match lag {
            Some(l) => self == LagSet::Uniform(l),
            None => self != LagSet::Mixed,
        }
    }
}

impl std::fmt::Display for LagSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LagSet::Empty => write!(f, "constant"),
            LagSet::Uniform(l) => write!(f, "uniform at lag {l}"),
            LagSet::Mixed => write!(f, "mixed"),
        }
    }
}

/// One proof obligation, as the checks need it.
#[derive(Debug, Clone)]
pub struct ObligationView {
    /// Obligation name, e.g. `output C` or `next sum`.
    pub name: String,
    /// Obligation kind: `output`, `next-state`, `init`, or `valid-grid`.
    pub kind: String,
    /// Discharge status: `proved-rewrite`, `proved-range`, `proved-sat`,
    /// `refuted`, or `unknown`.
    pub status: String,
    /// Human-readable detail (lag sets, SAT budget, …).
    pub detail: String,
    /// The lag the certificate records (grid obligations: the cone's
    /// uniform lag; value obligations: the expected depth).
    pub lag: Option<u32>,
    /// For grid obligations, the cone's lag set as re-derived from the
    /// netlist; `None` when no re-derivation was run.
    pub rederived: Option<LagSet>,
}

/// A counterexample as recorded in a certificate.
#[derive(Debug, Clone)]
pub struct CounterexampleView {
    /// Input windows fed from reset.
    pub windows: usize,
    /// Output port (or feedback slot) that diverges.
    pub port: String,
    /// Index of the diverging output window.
    pub window: usize,
    /// IR value at the divergence.
    pub ir_value: i64,
    /// Netlist value at the divergence.
    pub nl_value: i64,
    /// `Some(result)` when the counterexample has been re-replayed from
    /// the artifacts; `None` when no replay was attempted.
    pub replay_diverged: Option<bool>,
}

/// Plain-data image of a `roccc-prove` certificate.
#[derive(Debug, Clone)]
pub struct CertificateView {
    /// Schema tag (must equal [`PROVE_SCHEMA`]).
    pub schema: String,
    /// Kernel the certificate is about.
    pub kernel: String,
    /// Overall verdict: `equal`, `refuted`, or `unknown`.
    pub verdict: String,
    /// All obligations.
    pub obligations: Vec<ObligationView>,
    /// The counterexample backing a refuted verdict, if any.
    pub counterexample: Option<CounterexampleView>,
}

fn err(code: &'static str, msg: String) -> Diagnostic {
    Diagnostic::error(Phase::Prove, code, Loc::None, msg)
}

fn warn(code: &'static str, msg: String) -> Diagnostic {
    Diagnostic::warning(Phase::Prove, code, Loc::None, msg)
}

const KINDS: [&str; 4] = ["output", "next-state", "init", "valid-grid"];
const STATUSES: [&str; 5] = [
    "proved-rewrite",
    "proved-range",
    "proved-sat",
    "refuted",
    "unknown",
];
const VERDICTS: [&str; 3] = ["equal", "refuted", "unknown"];

/// `E002` for every proved grid obligation whose recorded lag disagrees
/// with the cone's lag set as re-derived from the netlist
/// ([`ObligationView::rederived`]); obligations with no re-derived set
/// are not compared. Part of [`verify_certificate`].
pub fn verify_grid_lags(view: &CertificateView) -> Vec<Diagnostic> {
    view.obligations
        .iter()
        .filter(|o| o.kind == "valid-grid" && o.status.starts_with("proved"))
        .filter_map(|o| {
            let set = o.rederived.filter(|set| !set.agrees_with(o.lag))?;
            Some(err(
                "E002-grid-divergence",
                format!(
                    "{}: certificate records lag {}, but the netlist cone is {set}",
                    o.name,
                    o.lag.map_or("none".to_string(), |l| l.to_string())
                ),
            ))
        })
        .collect()
}

/// Runs every certificate check. Returns all findings (empty = clean);
/// severities follow the registry in the module docs.
pub fn verify_certificate(view: &CertificateView) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // E004 — schema/verdict/status vocabulary.
    if view.schema != PROVE_SCHEMA {
        out.push(err(
            "E004-malformed-certificate",
            format!(
                "unknown certificate schema '{}' (want {PROVE_SCHEMA})",
                view.schema
            ),
        ));
    }
    if !VERDICTS.contains(&view.verdict.as_str()) {
        out.push(err(
            "E004-malformed-certificate",
            format!("unknown verdict '{}'", view.verdict),
        ));
    }
    if view.obligations.is_empty() {
        out.push(err(
            "E004-malformed-certificate",
            format!("certificate for '{}' carries no obligations", view.kernel),
        ));
    }
    for o in &view.obligations {
        if !KINDS.contains(&o.kind.as_str()) {
            out.push(err(
                "E004-malformed-certificate",
                format!("obligation '{}' has unknown kind '{}'", o.name, o.kind),
            ));
        }
        if !STATUSES.contains(&o.status.as_str()) {
            out.push(err(
                "E004-malformed-certificate",
                format!("obligation '{}' has unknown status '{}'", o.name, o.status),
            ));
        }
    }

    // E004 — verdict must match the obligation statuses.
    let any_refuted = view.obligations.iter().any(|o| o.status == "refuted");
    let any_unknown = view.obligations.iter().any(|o| o.status == "unknown");
    let consistent = match view.verdict.as_str() {
        "equal" => !any_refuted && !any_unknown,
        "refuted" => any_refuted,
        "unknown" => !any_refuted && any_unknown,
        _ => true, // vocabulary error already reported
    };
    if !consistent {
        out.push(err(
            "E004-malformed-certificate",
            format!(
                "verdict '{}' inconsistent with obligations ({} refuted, {} unknown)",
                view.verdict,
                view.obligations
                    .iter()
                    .filter(|o| o.status == "refuted")
                    .count(),
                view.obligations
                    .iter()
                    .filter(|o| o.status == "unknown")
                    .count()
            ),
        ));
    }
    if view.verdict == "equal" && view.counterexample.is_some() {
        out.push(err(
            "E004-malformed-certificate",
            "verdict 'equal' but a counterexample is attached".into(),
        ));
    }

    // E001 / E002 — refutations, split by obligation kind.
    for o in view.obligations.iter().filter(|o| o.status == "refuted") {
        if o.kind == "valid-grid" || o.kind == "init" {
            out.push(err(
                "E002-grid-divergence",
                format!("{}: {}", o.name, o.detail),
            ));
        } else {
            match &view.counterexample {
                Some(cex) => out.push(err(
                    "E001-output-mismatch",
                    format!(
                        "{}: IR = {} but netlist = {} on '{}' at window {} \
                         ({} replayed input window{})",
                        o.name,
                        cex.ir_value,
                        cex.nl_value,
                        cex.port,
                        cex.window,
                        cex.windows,
                        if cex.windows == 1 { "" } else { "s" }
                    ),
                )),
                None => out.push(err(
                    "E004-malformed-certificate",
                    format!("obligation '{}' refuted without a counterexample", o.name),
                )),
            }
        }
    }

    out.extend(verify_grid_lags(view));

    // E004 — a recorded counterexample must replay.
    if let Some(cex) = &view.counterexample {
        if cex.replay_diverged == Some(false) {
            out.push(err(
                "E004-malformed-certificate",
                format!(
                    "counterexample for '{}' does not diverge under compiled-netlist replay",
                    cex.port
                ),
            ));
        }
    }

    // E003 — honest Unknowns surface as warnings.
    for o in view.obligations.iter().filter(|o| o.status == "unknown") {
        out.push(warn(
            "E003-unproven-obligation",
            format!("{}: {}", o.name, o.detail),
        ));
    }

    out
}

/// Severity of a known `E0xx` code (`None` for foreign codes) — the
/// registry row, kept next to the checks that emit each code.
pub fn prove_code_severity(code: &str) -> Option<Severity> {
    match code {
        "E001-output-mismatch" | "E002-grid-divergence" | "E004-malformed-certificate" => {
            Some(Severity::Error)
        }
        "E003-unproven-obligation" => Some(Severity::Warning),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ob(name: &str, kind: &str, status: &str) -> ObligationView {
        ObligationView {
            name: name.into(),
            kind: kind.into(),
            status: status.into(),
            detail: "d".into(),
            lag: None,
            rederived: None,
        }
    }

    fn clean() -> CertificateView {
        CertificateView {
            schema: PROVE_SCHEMA.into(),
            kernel: "fir".into(),
            verdict: "equal".into(),
            obligations: vec![
                ob("output C", "output", "proved-rewrite"),
                ob("grid C", "valid-grid", "proved-rewrite"),
            ],
            counterexample: None,
        }
    }

    fn codes(v: &CertificateView) -> Vec<&'static str> {
        verify_certificate(v).iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_certificate_has_no_findings() {
        assert!(codes(&clean()).is_empty());
    }

    #[test]
    fn bad_schema_is_e004() {
        let mut v = clean();
        v.schema = "roccc-prove-v0".into();
        assert!(codes(&v).contains(&"E004-malformed-certificate"));
    }

    #[test]
    fn refuted_output_with_cex_is_e001() {
        let mut v = clean();
        v.verdict = "refuted".into();
        v.obligations[0].status = "refuted".into();
        v.counterexample = Some(CounterexampleView {
            windows: 1,
            port: "C".into(),
            window: 0,
            ir_value: 3,
            nl_value: 4,
            replay_diverged: Some(true),
        });
        let c = codes(&v);
        assert!(c.contains(&"E001-output-mismatch"));
        assert!(!c.contains(&"E004-malformed-certificate"));
    }

    #[test]
    fn refuted_without_cex_is_e004() {
        let mut v = clean();
        v.verdict = "refuted".into();
        v.obligations[0].status = "refuted".into();
        assert!(codes(&v).contains(&"E004-malformed-certificate"));
    }

    #[test]
    fn grid_refutation_is_e002() {
        let mut v = clean();
        v.verdict = "refuted".into();
        v.obligations[1].status = "refuted".into();
        assert!(codes(&v).contains(&"E002-grid-divergence"));
    }

    #[test]
    fn grid_lag_differing_from_the_netlist_is_e002() {
        let mut v = clean();
        v.obligations[1].lag = Some(3);
        v.obligations[1].rederived = Some(LagSet::Uniform(3));
        assert!(codes(&v).is_empty());
        for set in [LagSet::Uniform(2), LagSet::Mixed, LagSet::Empty] {
            v.obligations[1].rederived = Some(set);
            assert_eq!(codes(&v), ["E002-grid-divergence"], "{set}");
        }
        // No recorded lag claims a constant cone: timing cannot refute it
        // unless the cone is mixed.
        v.obligations[1].lag = None;
        for set in [LagSet::Uniform(2), LagSet::Empty] {
            v.obligations[1].rederived = Some(set);
            assert!(codes(&v).is_empty(), "{set}");
        }
        v.obligations[1].rederived = Some(LagSet::Mixed);
        assert_eq!(codes(&v), ["E002-grid-divergence"]);
    }

    #[test]
    fn unknown_is_e003_warning() {
        let mut v = clean();
        v.verdict = "unknown".into();
        v.obligations[0].status = "unknown".into();
        let d = verify_certificate(&v);
        let w: Vec<_> = d
            .iter()
            .filter(|d| d.code == "E003-unproven-obligation")
            .collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].severity, Severity::Warning);
    }

    #[test]
    fn inconsistent_verdict_is_e004() {
        let mut v = clean();
        v.obligations[0].status = "unknown".into(); // verdict still 'equal'
        assert!(codes(&v).contains(&"E004-malformed-certificate"));
    }

    #[test]
    fn non_replaying_cex_is_e004() {
        let mut v = clean();
        v.verdict = "refuted".into();
        v.obligations[0].status = "refuted".into();
        v.counterexample = Some(CounterexampleView {
            windows: 1,
            port: "C".into(),
            window: 0,
            ir_value: 3,
            nl_value: 4,
            replay_diverged: Some(false),
        });
        assert!(codes(&v).contains(&"E004-malformed-certificate"));
    }

    #[test]
    fn severity_registry_matches() {
        assert_eq!(
            prove_code_severity("E001-output-mismatch"),
            Some(Severity::Error)
        );
        assert_eq!(
            prove_code_severity("E002-grid-divergence"),
            Some(Severity::Error)
        );
        assert_eq!(
            prove_code_severity("E003-unproven-obligation"),
            Some(Severity::Warning)
        );
        assert_eq!(
            prove_code_severity("E004-malformed-certificate"),
            Some(Severity::Error)
        );
        assert_eq!(prove_code_severity("X999-nope"), None);
    }
}
