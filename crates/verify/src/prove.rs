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
//!   timed as one steady-state window (mixed or mis-placed leaf lags, a
//!   latency/II mismatch, or differing reset state) (error);
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
