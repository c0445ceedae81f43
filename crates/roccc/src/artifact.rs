//! Artifact kinds and the one table that declares a compile's.
//!
//! An artifact is one rendering of a result, asked for by kind: `roccc
//! --emit <kind>` or an `emit <kind>` protocol line. [`ARTIFACTS`]
//! declares every kind of a single-kernel compile; `roccc-explore` and
//! `roccc-stream` declare a sweep's and a pipeline's with the same
//! [`Artifact`] record. The `roccc --help` rows, the `--emit` errors and
//! the serve daemon's allow-lists and errors are rendered from these
//! tables, so adding an artifact takes one entry.

use crate::{CompileOptions, Compiled};
use roccc_synth::{fast_estimate, map_netlist, VirtexII};
use std::fmt::Write as _;

/// One declared artifact kind over results of type `T`.
#[derive(Debug)]
pub struct Artifact<T: 'static> {
    /// The kind's name on every surface.
    pub kind: &'static str,
    /// One line of help, as `roccc --help` shows it.
    pub help: &'static str,
    /// The compile option `(key, value)` the kind needs. The CLI applies
    /// it when that option is at its default.
    pub implies: Option<(&'static str, &'static str)>,
    /// Only a local run renders it: the wire protocol carries no input
    /// data, so the daemon refuses it.
    pub local_only: bool,
    /// Renders the artifact; the error says what the result lacks.
    pub render: fn(&T) -> Result<String, String>,
}

impl<T> Artifact<T> {
    /// A kind the daemon serves too, implying no option.
    pub const fn new(
        kind: &'static str,
        help: &'static str,
        render: fn(&T) -> Result<String, String>,
    ) -> Self {
        Artifact {
            kind,
            help,
            implies: None,
            local_only: false,
            render,
        }
    }

    /// This kind, implying option `key` at `value`.
    pub const fn implying(self, key: &'static str, value: &'static str) -> Self {
        Artifact {
            implies: Some((key, value)),
            ..self
        }
    }

    /// This kind, rendered by a local run only.
    pub const fn local(self) -> Self {
        Artifact {
            local_only: true,
            ..self
        }
    }

    /// Applies [`Artifact::implies`] to `opts` unless the option was set.
    pub fn imply(&self, opts: &mut CompileOptions) {
        let Some((key, value)) = self.implies else {
            return;
        };
        if opts.non_default().iter().all(|(k, _)| *k != key) {
            opts.set(key, Some(value)).expect("implied option");
        }
    }
}

/// A table of artifact kinds over results of type `T`.
pub type Table<T> = &'static [Artifact<T>];

/// The kinds of `table` a local run (`local`) or the daemon accepts.
pub fn kinds<T>(table: Table<T>, local: bool) -> impl Iterator<Item = &'static str> {
    table
        .iter()
        .filter(move |a| local || !a.local_only)
        .map(|a| a.kind)
}

/// The entry named `kind` among the [`kinds`] a surface accepts.
pub fn find<T>(table: Table<T>, kind: &str, local: bool) -> Option<&'static Artifact<T>> {
    table
        .iter()
        .find(|a| a.kind == kind && (local || !a.local_only))
}

/// [`find`], or the [`unknown`] error naming every accepted kind.
///
/// # Errors
///
/// When `kind` is not accepted.
pub fn lookup<T>(
    table: Table<T>,
    kind: &str,
    local: bool,
    verb: &str,
) -> Result<&'static Artifact<T>, String> {
    find(table, kind, local).ok_or_else(|| unknown(verb, kind, kinds(table, local)))
}

/// ``unknown {verb}emit `kind` (a|b|c)``: the error for a `kind` outside
/// `accepted`, where `verb` is empty for a compile and `explore ` or
/// `pipeline ` for the other requests.
pub fn unknown<'a>(verb: &str, kind: &str, accepted: impl Iterator<Item = &'a str>) -> String {
    let accepted: Vec<&str> = accepted.collect();
    format!("unknown {verb}emit `{kind}` ({})", accepted.join("|"))
}

/// One `roccc --help` row: the kind, then its help.
pub fn help_row(kind: &str, help: &str) -> String {
    format!("    {kind:<14} {help}\n")
}

/// The `roccc --help` rows of `table`, each with the option it implies
/// and whether only a local run renders it.
pub fn help_rows<T>(table: Table<T>) -> String {
    let mut s = String::new();
    for a in table {
        s.push_str(&help_row(a.kind, a.help));
        if let Some((key, value)) = a.implies {
            s.push_str(&help_row("", &format!("(implies --{key} {value})")));
        }
        if a.local_only {
            s.push_str(&help_row("", "(local only)"));
        }
    }
    s
}

/// The kind of the compile summary, the default artifact.
pub const STATS: &str = "stats";
/// The kind of the RTL VHDL, which the daemon renders once per compile.
pub const VHDL: &str = "vhdl";

/// Every artifact kind of a single-kernel compile.
pub const ARTIFACTS: Table<Compiled> = &[
    Artifact::new(STATS, "loop nest, data path, II, area, clock", stats),
    Artifact::new(VHDL, "RTL VHDL, a component per node", |c| Ok(c.to_vhdl())),
    Artifact::new("dot", "the data path as a DOT graph", |c| Ok(c.to_dot())),
    Artifact::new("ir", "the optimized SSA IR", |c| Ok(c.ir.dump())),
    Artifact::new("c", "the rewritten kernel and data-path C", |c| {
        Ok(format!(
            "// Figure 3(b)-style rewritten kernel:\n{}\n// Exported data-path function:\n{}",
            c.kernel.rewritten.to_c(),
            c.kernel.dp_func.to_c()
        ))
    }),
    Artifact::new("ranges", "value ranges, widths", |c| Ok(c.range_report())),
    Artifact::new("deps", "dependences, MinII bounds", |c| Ok(c.deps_report())),
    Artifact::new("deps-json", "roccc-deps-v1 JSON", |c| Ok(c.deps_json())),
    Artifact::new("schedule", "the modulo schedule", |c: &Compiled| {
        match &c.schedule {
            Some(s) => Ok(s.report(&c.kernel.name)),
            None => Ok("no schedule (compile with pipeline-ii)\n".to_string()),
        }
    })
    .implying("pipeline-ii", "auto"),
    Artifact::new(
        "schedule-json",
        "roccc-schedule-v1 JSON",
        |c: &Compiled| match &c.schedule {
            Some(s) => Ok(s.to_json(&c.kernel.name)),
            None => Err("no schedule artifact (compile with pipeline-ii)".to_string()),
        },
    )
    .implying("pipeline-ii", "auto"),
    Artifact::new(
        "prove",
        "the equivalence verdict and audit",
        |c: &Compiled| match &c.certificate {
            Some(cert) => Ok(roccc_prove::certificate_report(cert)),
            None => Ok("no certificate (compile with prove)\n".to_string()),
        },
    )
    .implying("prove", "on"),
    Artifact::new("prove-json", "roccc-prove-v1 JSON", |c: &Compiled| {
        c.prove_json()
            .ok_or_else(|| "no proof certificate (compile with prove)".to_string())
    })
    .implying("prove", "on"),
    Artifact::new("table-row", "kernel LUT FF slices MHz, as Table 1", |c| {
        let r = map_netlist(&c.netlist, &VirtexII::default());
        let name = &c.kernel.name;
        Ok(format!(
            "{name} {} {} {} {:.1}\n",
            r.luts, r.ffs, r.slices, r.fmax_mhz
        ))
    }),
];

/// The `stats` artifact: what the kernel is, the data path it became,
/// its initiation interval, and its area and clock on Virtex-II.
fn stats(c: &Compiled) -> Result<String, String> {
    let model = VirtexII::default();
    let fast = fast_estimate(&c.datapath, &model);
    let full = map_netlist(&c.netlist, &model);
    let (soft, hard) = c.datapath.node_census();
    let (k, d, dp) = (&c.kernel, &c.deps, &c.datapath);
    let dims: Vec<String> = k
        .dims
        .iter()
        .map(|n| format!("{}: {}..{} step {}", n.var, n.start, n.bound, n.step))
        .collect();
    let windows: Vec<String> = k
        .windows
        .iter()
        .map(|w| format!("{}{:?}", w.array, w.extent()))
        .collect();
    let feedback: Vec<&String> = k.feedback.iter().map(|f| &f.name).collect();
    let mut s = format!(
        "kernel           : {}\n\
         loop nest        : {dims:?} ({} iterations)\n\
         windows          : {windows:?}\n\
         feedback         : {feedback:?}\n\
         data path        : {} ops, {soft} soft + {hard} hard nodes, {} stages\n\
         outputs per cycle: {}\n\
         min II           : {} (rec {}, res {}), body latency {} cycle(s)\n",
        k.name,
        k.total_iterations(),
        dp.ops.len(),
        dp.num_stages,
        dp.throughput_per_cycle(),
        d.min_ii,
        d.rec_mii,
        d.res_mii,
        d.body_latency
    );
    if let Some(sched) = &c.schedule {
        let how = match sched.fallback {
            Some(_) => "latch-pipeline fallback",
            None => "modulo-scheduled",
        };
        let _ = writeln!(s, "achieved II      : {} ({how})", sched.ii);
    }
    let _ = write!(
        s,
        "estimate (fast)  : {} LUT, {} FF, {} slices\n\
         mapped (full)    : {} LUT, {} FF, {} slices, Fmax {:.0} MHz\n",
        fast.luts, fast.ffs, fast.slices, full.luts, full.ffs, full.slices, full.fmax_mhz
    );
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_implications_parse() {
        let mut names: Vec<&str> = kinds(ARTIFACTS, true).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len());
        for a in ARTIFACTS {
            let mut opts = CompileOptions::default();
            a.imply(&mut opts);
            assert_eq!(opts == CompileOptions::default(), a.implies.is_none());
        }
    }

    #[test]
    fn an_option_set_by_hand_is_not_overridden() {
        let mut opts = CompileOptions {
            pipeline_ii: Some(3),
            ..CompileOptions::default()
        };
        find(ARTIFACTS, "schedule", false).unwrap().imply(&mut opts);
        assert_eq!(opts.pipeline_ii, Some(3));
        let err = lookup(ARTIFACTS, "bogus", false, "").unwrap_err();
        assert!(
            err.starts_with("unknown emit `bogus` (stats|vhdl|"),
            "{err}"
        );
    }
}
