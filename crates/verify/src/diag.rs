//! The shared diagnostic vocabulary.
//!
//! Every check in this crate (and the VHDL linter in `roccc-vhdl`) emits
//! [`Diagnostic`] values with a stable, greppable code such as
//! `S004-multiple-def` or `N003-comb-loop`, so the CLI, the compile
//! daemon and CI can report findings from every phase uniformly.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong; fatal only under
    /// [`VerifyLevel::Deny`].
    Warning,
    /// A broken invariant: the artifact must not be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The compiler phase whose invariants a diagnostic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// CFG/SSA invariants over the SUIFvm IR.
    SuifVm,
    /// Data-path graph invariants (cycles, stages, widths).
    Datapath,
    /// Word-level netlist invariants (drivers, loops, widths).
    Netlist,
    /// Structural lint over the generated VHDL text.
    Vhdl,
    /// Multi-kernel streaming pipeline invariants (port bindings, rate
    /// balance, FIFO sizing) checked by `verify_pipeline` (`P0xx`).
    Stream,
    /// Dependence-graph / MinII invariants and transform legality
    /// re-checks from `verify_deps` (`L0xx`).
    Deps,
    /// Modulo-schedule legality re-derived from the schedule artifact by
    /// `verify_schedule` (`M0xx`): MRT resource conflicts, recurrence
    /// slack, achieved-vs-minimum II, prologue/epilogue coverage.
    Schedule,
    /// Translation-validation certificates from `roccc-prove`, re-checked
    /// structurally by `verify_certificate` (`E0xx`): refuted output
    /// equivalence, valid-grid divergence, unproven obligations, and
    /// malformed certificates.
    Prove,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::SuifVm => write!(f, "suifvm"),
            Phase::Datapath => write!(f, "datapath"),
            Phase::Netlist => write!(f, "netlist"),
            Phase::Vhdl => write!(f, "vhdl"),
            Phase::Stream => write!(f, "stream"),
            Phase::Deps => write!(f, "deps"),
            Phase::Schedule => write!(f, "schedule"),
            Phase::Prove => write!(f, "prove"),
        }
    }
}

/// Where in the offending artifact a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// No structural anchor (whole-artifact findings).
    None,
    /// A basic block of the IR.
    Block(u32),
    /// A data-path operation.
    Op(u32),
    /// A netlist cell.
    Cell(u32),
    /// A byte range of the original C source.
    Span {
        /// Start byte offset (inclusive).
        start: usize,
        /// End byte offset (exclusive).
        end: usize,
    },
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::None => Ok(()),
            Loc::Block(b) => write!(f, "bb{b}"),
            Loc::Op(o) => write!(f, "op{o}"),
            Loc::Cell(c) => write!(f, "n{c}"),
            Loc::Span { start, end } => write!(f, "bytes {start}..{end}"),
        }
    }
}

/// One verifier or lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Warning or error.
    pub severity: Severity,
    /// Which phase's invariant was checked.
    pub phase: Phase,
    /// Stable code (`<letter><number>-<slug>`), e.g. `S004-multiple-def`.
    pub code: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// Anchor in the offending artifact.
    pub loc: Loc,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(phase: Phase, code: &'static str, loc: Loc, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            phase,
            code,
            message: message.into(),
            loc,
        }
    }

    /// A warning-severity finding.
    pub fn warning(phase: Phase, code: &'static str, loc: Loc, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            phase,
            code,
            message: message.into(),
            loc,
        }
    }

    /// Renders the diagnostic for terminal output. With `source`, a
    /// [`Loc::Span`] anchor is resolved to `line:col` of the original C
    /// text; other anchors print their structural name.
    pub fn render(&self, source: Option<&str>) -> String {
        let anchor = match (self.loc, source) {
            (Loc::None, _) => String::new(),
            (Loc::Span { start, .. }, Some(src)) => {
                let (line, col) = line_col(src, start);
                format!(" at {line}:{col}")
            }
            (loc, _) => format!(" at {loc}"),
        };
        format!(
            "{}[{}] {}: {}{anchor}",
            self.severity, self.code, self.phase, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(None))
    }
}

/// 1-based `(line, column)` of a byte offset in `source`.
fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let upto = &source[..offset.min(source.len())];
    let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = upto.bytes().rev().take_while(|&b| b != b'\n').count() + 1;
    (line, col)
}

/// How strictly the compile pipeline applies the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyLevel {
    /// Skip the verifier entirely.
    Off,
    /// Run every check; error-severity findings abort the compile,
    /// warnings are collected and surfaced.
    Warn,
    /// Run every check; any finding (warning included) aborts.
    Deny,
}

impl VerifyLevel {
    /// Whether `findings` abort a compile at this level: never under
    /// `Off`, on an error-severity finding under `Warn`, on any finding
    /// under `Deny`.
    pub fn is_fatal(&self, findings: &[Diagnostic]) -> bool {
        match self {
            VerifyLevel::Off => false,
            VerifyLevel::Warn => findings.iter().any(|d| d.severity == Severity::Error),
            VerifyLevel::Deny => !findings.is_empty(),
        }
    }
}

impl Default for VerifyLevel {
    /// `Warn` in debug builds (tests get the verifier for free), `Off`
    /// in release builds (production compiles opt in via `--verify`).
    fn default() -> Self {
        if cfg!(debug_assertions) {
            VerifyLevel::Warn
        } else {
            VerifyLevel::Off
        }
    }
}

impl fmt::Display for VerifyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyLevel::Off => write!(f, "off"),
            VerifyLevel::Warn => write!(f, "warn"),
            VerifyLevel::Deny => write!(f, "deny"),
        }
    }
}

impl std::str::FromStr for VerifyLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyLevel::Off),
            "warn" => Ok(VerifyLevel::Warn),
            "deny" => Ok(VerifyLevel::Deny),
            other => Err(format!("unknown verify level `{other}` (off|warn|deny)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_code_phase_and_anchor() {
        let d = Diagnostic::error(Phase::Datapath, "D001-comb-cycle", Loc::Op(7), "cycle");
        assert_eq!(
            d.to_string(),
            "error[D001-comb-cycle] datapath: cycle at op7"
        );
        let w = Diagnostic::warning(Phase::Netlist, "N007-dead-cell", Loc::Cell(3), "dead");
        assert_eq!(w.to_string(), "warning[N007-dead-cell] netlist: dead at n3");
    }

    #[test]
    fn span_renders_line_col_with_source() {
        let d = Diagnostic::error(
            Phase::SuifVm,
            "S001-bad-edge",
            Loc::Span { start: 10, end: 12 },
            "oops",
        );
        let src = "void f() {\n  int x;\n}";
        assert!(d.render(Some(src)).ends_with("at 1:11"));
        // Without source, the raw byte range is printed.
        assert!(d.render(None).ends_with("bytes 10..12"));
    }

    #[test]
    fn verify_level_gates_findings_by_severity() {
        let w = Diagnostic::warning(Phase::Netlist, "N007-dead-cell", Loc::Cell(3), "dead");
        let e = Diagnostic::error(Phase::Datapath, "D001-comb-cycle", Loc::Op(7), "cycle");
        let (warned, failed) = ([w.clone()], [w, e]);
        assert!(!VerifyLevel::Off.is_fatal(&failed));
        assert!(!VerifyLevel::Warn.is_fatal(&warned));
        assert!(VerifyLevel::Warn.is_fatal(&failed));
        assert!(VerifyLevel::Deny.is_fatal(&warned));
        assert!(!VerifyLevel::Deny.is_fatal(&[]));
    }

    #[test]
    fn verify_level_parses() {
        assert_eq!("off".parse::<VerifyLevel>().unwrap(), VerifyLevel::Off);
        assert_eq!("warn".parse::<VerifyLevel>().unwrap(), VerifyLevel::Warn);
        assert_eq!("deny".parse::<VerifyLevel>().unwrap(), VerifyLevel::Deny);
        assert!("strict".parse::<VerifyLevel>().is_err());
    }

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
    }
}
