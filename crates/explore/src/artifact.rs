//! Stable artifacts: the JSON frontier document and the human table,
//! declared once in [`ARTIFACTS`].
//!
//! The JSON rendering is deterministic byte-for-byte for a given sweep
//! result: field order is fixed, floats use fixed-precision formatting,
//! and nothing wall-clock-dependent is included. Two runs of the same
//! sweep (even across memo hits) must produce identical bytes — a
//! property the test suite pins.

use crate::engine::{CandidateReport, ExploreResult, Status};
use roccc::artifact::{Artifact, Table};
use std::fmt::Write as _;

/// The kind `roccc --explore` prints by default.
pub const TABLE: &str = "table";

/// Every artifact kind of a sweep.
pub const ARTIFACTS: Table<ExploreResult> = &[
    Artifact::new("json", "roccc-explore-v1 JSON", |r| Ok(render_json(r))),
    Artifact::new(TABLE, "a row per candidate", |r| Ok(render_table(r))),
];

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_u64_list(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn json_opt<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

fn candidate_json(r: &CandidateReport) -> String {
    let mut s = String::new();
    let c = &r.candidate;
    let _ = write!(
        s,
        "{{\"id\":{},\"unroll\":{},\"strip\":{},\"scalar_opt\":{},\"key\":\"{:016x}\",\"status\":\"{}\"",
        c.id,
        c.unroll,
        c.strip,
        c.optimize,
        r.key,
        r.status.as_str()
    );
    match &r.metrics {
        Some(m) => {
            let _ = write!(
                s,
                ",\"metrics\":{{\"est_slices\":{},\"est_cycles\":{},\"min_ii\":{},\"achieved_ii\":{}",
                m.est_slices, m.est_cycles, m.min_ii, m.achieved_ii
            );
            match m.proof {
                Some(v) => {
                    let _ = write!(s, ",\"proof\":\"{v}\"");
                }
                None => s.push_str(",\"proof\":null"),
            }
            if matches!(r.status, Status::Scored | Status::MemoHit) {
                let _ = write!(
                    s,
                    ",\"luts\":{},\"ffs\":{},\"slices\":{},\"mult_blocks\":{},\"fmax_mhz\":{:.1},\"clock_ns\":{:.3},\"cycles\":{},\"outputs\":{},\"iterations\":{}",
                    m.luts,
                    m.ffs,
                    m.slices,
                    m.mult_blocks,
                    m.fmax_mhz,
                    m.clock_ns,
                    m.cycles,
                    m.outputs,
                    m.iterations
                );
            }
            s.push('}');
        }
        None => s.push_str(",\"metrics\":null"),
    }
    let diags: Vec<String> = r
        .diagnostics
        .iter()
        .map(|d| format!("\"{}\"", json_escape(d)))
        .collect();
    let _ = write!(s, ",\"diagnostics\":[{}]", diags.join(","));
    match &r.error {
        Some(e) => {
            let _ = write!(s, ",\"error\":\"{}\"", json_escape(e));
        }
        None => s.push_str(",\"error\":null"),
    }
    s.push('}');
    s
}

/// Renders the sweep result as the stable `roccc-explore-v1` JSON
/// document.
pub fn render_json(result: &ExploreResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"roccc-explore-v1\",");
    let _ = writeln!(s, "  \"function\": \"{}\",", json_escape(&result.function));
    let _ = writeln!(
        s,
        "  \"space\": {{\"unroll_factors\":{},\"strip_widths\":{},\"scalar_opt_both\":{},\"budget_slices\":{},\"beam\":{}}},",
        json_u64_list(&result.space.unroll_factors),
        json_u64_list(&result.space.strip_widths),
        result.space.scalar_opt_both,
        json_opt(&result.budget_slices),
        json_opt(&result.beam),
    );
    let st = &result.stats;
    let _ = writeln!(
        s,
        "  \"stats\": {{\"candidates\":{},\"scored\":{},\"memo_hits\":{},\"pruned_budget\":{},\"pruned_beam\":{},\"skipped\":{}}},",
        st.candidates, st.scored, st.memo_hits, st.pruned_budget, st.pruned_beam, st.skipped
    );
    s.push_str("  \"candidates\": [\n");
    for (i, r) in result.reports.iter().enumerate() {
        let comma = if i + 1 == result.reports.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(s, "    {}{}", candidate_json(r), comma);
    }
    s.push_str("  ],\n");
    s.push_str("  \"frontier\": [\n");
    for (i, &idx) in result.frontier.iter().enumerate() {
        let r = &result.reports[idx];
        let m = r.metrics.as_ref().expect("frontier entries carry metrics");
        let comma = if i + 1 == result.frontier.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            s,
            "    {{\"id\":{},\"unroll\":{},\"strip\":{},\"scalar_opt\":{},\"slices\":{},\"cycles\":{},\"clock_ns\":{:.3},\"fmax_mhz\":{:.1},\"ii\":{}}}{}",
            r.candidate.id,
            r.candidate.unroll,
            r.candidate.strip,
            r.candidate.optimize,
            m.slices,
            m.cycles,
            m.clock_ns,
            m.fmax_mhz,
            m.achieved_ii,
            comma
        );
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Renders the sweep result as a human-readable table: one row per
/// candidate, frontier members starred.
pub fn render_table(result: &ExploreResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "design-space exploration: {} ({} candidates)",
        result.function, result.stats.candidates
    );
    let _ = writeln!(
        s,
        "{:>2} {:<14} {:>9} {:>9} {:>7} {:>3} {:>8} {:>8} {:>9}  notes",
        "", "config", "est.slice", "slices", "cycles", "ii", "clock ns", "Fmax MHz", "status"
    );
    for (i, r) in result.reports.iter().enumerate() {
        let star = if result.frontier.contains(&i) {
            "*"
        } else {
            " "
        };
        let (est, slices, cycles, ii, clock, fmax) = match &r.metrics {
            Some(m) if matches!(r.status, Status::Scored | Status::MemoHit) => (
                m.est_slices.to_string(),
                m.slices.to_string(),
                m.cycles.to_string(),
                m.achieved_ii.to_string(),
                format!("{:.2}", m.clock_ns),
                format!("{:.0}", m.fmax_mhz),
            ),
            Some(m) => (
                m.est_slices.to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ),
            None => (
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ),
        };
        let mut notes = String::new();
        if let Some(e) = &r.error {
            notes.push_str(&e.replace('\n', " "));
        }
        if let Some(v) = r.metrics.as_ref().and_then(|m| m.proof) {
            if !notes.is_empty() {
                notes.push_str("; ");
            }
            let _ = write!(notes, "proof {v}");
        }
        if !r.diagnostics.is_empty() {
            if !notes.is_empty() {
                notes.push_str("; ");
            }
            let _ = write!(notes, "{} verify finding(s)", r.diagnostics.len());
        }
        let _ = writeln!(
            s,
            "{star:>2} {:<14} {est:>9} {slices:>9} {cycles:>7} {ii:>3} {clock:>8} {fmax:>8} {:>9}  {notes}",
            r.candidate.label(),
            r.status.as_str(),
        );
    }
    let st = &result.stats;
    let _ = writeln!(
        s,
        "frontier: {} point(s) | scored {} memo-hit {} pruned {}+{} skipped {}",
        result.frontier.len(),
        st.scored,
        st.memo_hits,
        st.pruned_budget,
        st.pruned_beam,
        st.skipped
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
