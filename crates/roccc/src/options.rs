//! Compile options and the one table that declares them.
//!
//! [`CompileOptions`] holds the per-kernel choices that drive the
//! compiler. Every surface that names an option is derived from
//! [`OPTIONS`]: the cache key ([`CompileOptions::canonical_bytes`]), the
//! serve wire protocol ([`crate::proto`]), the `roccc` command line and
//! its `--help` ([`apply_cli_arg`], [`cli_help`]), and the `stage
//! key=value` overrides of a pipeline description. Adding an option
//! takes a struct field and one table entry.
//!
//! An option is spelled by its key and a value: `--key <value>` on the
//! command line, a `key value` protocol line, a `key=value` stage
//! override. A *switch* is a valueless spelling that stands for one
//! value (`--no-opt` is `optimize off`); on the command line a name that
//! is a switch never takes a value.

use crate::VerifyLevel;

/// How to treat loops before kernel extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnrollStrategy {
    /// Leave loops iterative: one pipeline iteration per loop iteration.
    #[default]
    Keep,
    /// Fully unroll constant-bound loops (straight-line data path,
    /// the paper's DCT-style 8-outputs-per-clock configuration).
    Full,
    /// Partially unroll by the given factor.
    Partial(u64),
}

/// Compilation options.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Target clock period for the pipeliner, in nanoseconds
    /// (default 7.0 ns ≈ 143 MHz, a typical Virtex-II -5 target).
    pub target_period_ns: f64,
    /// Loop unrolling strategy.
    pub unroll: UnrollStrategy,
    /// Strip-mine width: `Some(w)` (w ≥ 2) strip-mines every innermost
    /// counted loop by `w` and fully unrolls the strip, so each remaining
    /// iteration computes one whole strip fed from one smart-buffer line
    /// (the paper's §2 strip-mining, with the strip matched to the memory
    /// bus width). Applied before [`CompileOptions::unroll`]; `None` (and
    /// widths < 2) leave loops untouched.
    pub stripmine: Option<u64>,
    /// Run the SSA-level scalar optimizations.
    pub optimize: bool,
    /// Run backward bit-width narrowing.
    pub narrow: bool,
    /// Run the forward value-range / known-bits analysis and let the
    /// narrowing pass combine its proven intervals with backward demand
    /// (`hw_bits = demand.min(range_bits)`), fold range-proven constants,
    /// and stamp every data-path op with its range for the `W0xx`
    /// soundness checks. Off by default: it is a strictly-more-aggressive
    /// mode and changes the emitted hardware.
    pub range_narrow: bool,
    /// Apply loop fusion before extraction.
    pub fuse: bool,
    /// Modulo-schedule the pipelined loop body: `None` (default) keeps
    /// plain latch pipelining; `Some(0)` schedules at MinII ("auto");
    /// `Some(n)` starts the scheduler at initiation interval `n`. When
    /// the scheduler cannot beat the body latency it falls back to latch
    /// pipelining and records the reason in [`crate::Compiled::schedule`].
    pub pipeline_ii: Option<u64>,
    /// How strictly the phase-indexed static verifier (`roccc-verify`)
    /// gates the pipeline. Defaults to [`VerifyLevel::Warn`] in debug
    /// builds (tests get the verifier for free) and [`VerifyLevel::Off`]
    /// in release builds.
    pub verify: VerifyLevel,
    /// Run the per-compile translation validator (`roccc-prove`): a
    /// symbolic equivalence check of the emitted netlist against the
    /// optimized SSA IR, producing a [`crate::Compiled::certificate`]. Its
    /// findings surface through the `E0xx` diagnostic family and are
    /// gated at least at [`VerifyLevel::Warn`] even when
    /// [`CompileOptions::verify`] is `Off`.
    pub prove: bool,
    /// Restrict verifier findings to the listed diagnostic families
    /// (comma-separated code letters, e.g. `"S,D,W,E"`). `None` keeps
    /// every family. Orthogonal to [`CompileOptions::verify`], which
    /// decides how the surviving findings gate the compile.
    pub verify_families: Option<String>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            target_period_ns: 7.0,
            unroll: UnrollStrategy::Keep,
            stripmine: None,
            optimize: true,
            narrow: true,
            range_narrow: false,
            fuse: false,
            pipeline_ii: None,
            verify: VerifyLevel::default(),
            prove: false,
            verify_families: None,
        }
    }
}

impl CompileOptions {
    /// Canonical byte encoding of the options, stable across runs and
    /// platforms. Two option sets encode identically iff they compile
    /// identically, which makes this the options half of a
    /// content-addressed cache key (the `roccc-serve` artifact cache
    /// hashes `(source, function, canonical_bytes)`). It concatenates
    /// each [`OptionDef::encode`] in table order.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(20);
        for o in OPTIONS {
            (o.encode)(self, &mut v);
        }
        v
    }

    /// True when diagnostic family `family` (a code letter such as `'S'`
    /// or `'E'`) passes the [`CompileOptions::verify_families`] filter.
    pub fn family_enabled(&self, family: char) -> bool {
        match &self.verify_families {
            None => true,
            Some(list) => list.split(',').any(|f| {
                f.trim()
                    .chars()
                    .next()
                    .is_some_and(|c| c.eq_ignore_ascii_case(&family))
            }),
        }
    }

    /// Sets one option from outside input: the option keyed `name` to
    /// `Some(value)`, or, with `None`, the switch `name`.
    ///
    /// # Errors
    ///
    /// A message naming the option when `name` is unknown, a key lacks
    /// its value, or the value does not parse.
    pub fn set(&mut self, name: &str, value: Option<&str>) -> Result<(), String> {
        let (opt, value) = lookup(name, value)?;
        (opt.parse)(self, value)
            .map_err(|want| format!("option `{}` expects {want}, got `{value}`", opt.key))
    }

    /// `(key, value)` of every option whose value differs from the
    /// default, in table order: the spellings that rebuild `self` from
    /// [`CompileOptions::default`] through [`CompileOptions::set`].
    pub fn non_default(&self) -> Vec<(&'static str, String)> {
        let default = CompileOptions::default();
        OPTIONS
            .iter()
            .filter_map(|o| {
                let value = (o.format)(self)?;
                ((o.format)(&default).as_ref() != Some(&value)).then_some((o.key, value))
            })
            .collect()
    }
}

/// One declared compile option.
#[derive(Debug)]
pub struct OptionDef {
    /// The option's key on every surface.
    pub key: &'static str,
    /// Valueless spellings and the value each stands for.
    pub switches: &'static [(&'static str, &'static str)],
    /// Value syntax, as help shows it.
    pub syntax: &'static str,
    /// Help text; `\n` breaks lines.
    pub help: &'static str,
    /// A valid value that differs from the default (for docs and tests).
    pub example: &'static str,
    /// Parses a value into the field. The only validator of outside
    /// input; the error says what was expected.
    pub parse: fn(&mut CompileOptions, &str) -> Result<(), &'static str>,
    /// The spelling of the field's value, `None` when it has none (no
    /// schedule requested, no family filter).
    pub format: fn(&CompileOptions) -> Option<String>,
    /// Appends the field's canonical bytes.
    pub encode: fn(&CompileOptions, &mut Vec<u8>),
}

/// Every compile option, in canonical-bytes order.
pub const OPTIONS: &[OptionDef] = &[
    OptionDef {
        key: "period",
        switches: &[],
        syntax: "<ns>",
        help: "target clock period in ns",
        example: "5",
        parse: |o, v| match v.parse::<f64>() {
            Ok(ns) if ns.is_finite() && ns > 0.0 => {
                o.target_period_ns = ns;
                Ok(())
            }
            _ => Err("a positive number of ns"),
        },
        format: |o| Some(o.target_period_ns.to_string()),
        // f64 periods with the same bit pattern pipeline identically.
        encode: |o, b| b.extend_from_slice(&o.target_period_ns.to_bits().to_le_bytes()),
    },
    OptionDef {
        key: "unroll",
        switches: &[],
        syntax: "<keep|full|n>",
        help: "keep loops, unroll them fully, or by factor n",
        example: "4",
        parse: |o, v| {
            o.unroll = match v {
                "keep" => UnrollStrategy::Keep,
                "full" => UnrollStrategy::Full,
                n => UnrollStrategy::Partial(n.parse().map_err(|_| "keep, full or a factor")?),
            };
            Ok(())
        },
        format: |o| {
            Some(match o.unroll {
                UnrollStrategy::Keep => "keep".to_string(),
                UnrollStrategy::Full => "full".to_string(),
                UnrollStrategy::Partial(k) => k.to_string(),
            })
        },
        encode: |o, b| match o.unroll {
            UnrollStrategy::Keep => b.push(0),
            UnrollStrategy::Full => b.push(1),
            UnrollStrategy::Partial(k) => {
                b.push(2);
                b.extend_from_slice(&k.to_le_bytes());
            }
        },
    },
    OptionDef {
        key: "stripmine",
        switches: &[],
        syntax: "<off|w>",
        help: "strip-mine width w; the strip is fully\nunrolled and w drives the smart-buffer bus",
        example: "4",
        parse: |o, v| {
            o.stripmine = match v {
                "off" => None,
                w => Some(w.parse().map_err(|_| "off or a width")?),
            };
            Ok(())
        },
        format: |o| Some(o.stripmine.map_or("off".to_string(), |w| w.to_string())),
        // Strip-mining is part of the key: two configurations differing
        // only in strip width compile to different hardware, and the
        // serve cache / DSE memo must never alias them.
        encode: |o, b| encode_opt_u64(o.stripmine, b),
    },
    OptionDef {
        key: "optimize",
        switches: &[("no-opt", "off")],
        syntax: "<on|off>",
        help: "SSA-level scalar optimizations",
        example: "off",
        parse: |o, v| parse_bool(v).map(|b| o.optimize = b),
        format: |o| Some(on_off(o.optimize)),
        encode: |o, b| b.push(u8::from(o.optimize)),
    },
    OptionDef {
        key: "narrow",
        switches: &[("no-narrow", "off")],
        syntax: "<on|off>",
        help: "backward bit-width narrowing",
        example: "off",
        parse: |o, v| parse_bool(v).map(|b| o.narrow = b),
        format: |o| Some(on_off(o.narrow)),
        encode: |o, b| b.push(u8::from(o.narrow)),
    },
    OptionDef {
        key: "fuse",
        switches: &[("fuse", "on")],
        syntax: "<on|off>",
        help: "run loop fusion before extraction",
        example: "on",
        parse: |o, v| parse_bool(v).map(|b| o.fuse = b),
        format: |o| Some(on_off(o.fuse)),
        encode: |o, b| b.push(u8::from(o.fuse)),
    },
    OptionDef {
        key: "range-narrow",
        switches: &[("range-narrow", "on")],
        syntax: "<on|off>",
        help:
            "run the forward value-range analysis and let\nproven intervals narrow widths further",
        example: "on",
        parse: |o, v| parse_bool(v).map(|b| o.range_narrow = b),
        format: |o| Some(on_off(o.range_narrow)),
        encode: |o, b| b.push(u8::from(o.range_narrow)),
    },
    OptionDef {
        key: "verify",
        switches: &[("verify", "warn"), ("deny-warnings", "deny")],
        syntax: "<off|warn|deny>",
        help: "static verifier gate: `warn` (--verify) fails on\n\
               errors and prints warnings; `deny`\n\
               (--deny-warnings) fails on any finding,\n\
               VHDL lint included",
        example: "deny",
        parse: |o, v| {
            v.parse()
                .map(|l| o.verify = l)
                .map_err(|_| "off, warn or deny")
        },
        format: |o| Some(o.verify.to_string()),
        encode: |o, b| {
            b.push(match o.verify {
                VerifyLevel::Off => 0,
                VerifyLevel::Warn => 1,
                VerifyLevel::Deny => 2,
            })
        },
    },
    OptionDef {
        key: "pipeline-ii",
        switches: &[],
        syntax: "<auto|n>",
        help: "modulo-schedule the loop body at initiation\n\
               interval n; `auto` searches upward from the\n\
               MinII lower bound",
        example: "auto",
        parse: |o, v| {
            o.pipeline_ii = Some(match v {
                "auto" => 0,
                n => n.parse().map_err(|_| "auto or an interval")?,
            });
            Ok(())
        },
        format: |o| match o.pipeline_ii? {
            0 => Some("auto".to_string()),
            n => Some(n.to_string()),
        },
        // Modulo scheduling changes the emitted hardware (op slots, II),
        // so the schedule request is part of the cache key.
        encode: |o, b| encode_opt_u64(o.pipeline_ii, b),
    },
    OptionDef {
        key: "prove",
        switches: &[("prove", "on")],
        syntax: "<on|off>",
        help: "translation-validate the netlist against the\n\
               SSA IR (symbolic equivalence certificate;\n\
               E-codes)",
        example: "on",
        parse: |o, v| parse_bool(v).map(|b| o.prove = b),
        format: |o| Some(on_off(o.prove)),
        // The prove flag and family filter don't change the hardware,
        // but they change the artifact set (certificate, findings) the
        // serve cache stores, so they must not alias.
        encode: |o, b| b.push(u8::from(o.prove)),
    },
    OptionDef {
        key: "verify-families",
        switches: &[],
        syntax: "<csv>",
        help: "report only these diagnostic families\n(letters from S,D,N,W,L,M,P,V,E)",
        example: "S,E",
        parse: |o, v| {
            let letter = |f: &str| {
                let mut c = f.trim().chars();
                c.next()
                    .is_some_and(|c| "SDNWLMPVE".contains(c.to_ascii_uppercase()))
                    && c.next().is_none()
            };
            if !v.split(',').all(letter) {
                return Err("comma-separated family letters from S,D,N,W,L,M,P,V,E");
            }
            o.verify_families = Some(v.to_string());
            Ok(())
        },
        format: |o| o.verify_families.clone(),
        encode: |o, b| match &o.verify_families {
            None => b.push(0),
            Some(fam) => {
                b.push(1);
                b.extend_from_slice(&(fam.len() as u64).to_le_bytes());
                b.extend_from_slice(fam.as_bytes());
            }
        },
    },
];

fn parse_bool(v: &str) -> Result<bool, &'static str> {
    match v {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        _ => Err("on or off"),
    }
}

fn on_off(b: bool) -> String {
    if b { "on" } else { "off" }.to_string()
}

fn encode_opt_u64(v: Option<u64>, b: &mut Vec<u8>) {
    match v {
        None => b.push(0),
        Some(n) => {
            b.push(1);
            b.extend_from_slice(&n.to_le_bytes());
        }
    }
}

/// The option and value that `name` (a key with `Some` value, or a
/// switch) spells.
fn lookup<'a>(name: &str, value: Option<&'a str>) -> Result<(&'static OptionDef, &'a str), String> {
    let keyed = OPTIONS.iter().find(|o| o.key == name);
    match value {
        Some(v) => keyed.map(|o| (o, v)),
        None => OPTIONS.iter().find_map(|o| {
            let (_, v) = o.switches.iter().find(|(s, _)| *s == name)?;
            Some((o, *v))
        }),
    }
    .ok_or_else(|| match keyed {
        Some(o) => format!("option `{name}` needs a value {}", o.syntax),
        None => format!("unknown option `{name}`"),
    })
}

fn is_switch(name: &str) -> bool {
    OPTIONS
        .iter()
        .any(|o| o.switches.iter().any(|(s, _)| *s == name))
}

/// Applies one command-line argument to `opts`: a `--switch`, or
/// `--key` taking its value from `rest`. `Ok(false)` when `arg` names
/// no compile option.
///
/// # Errors
///
/// A message when the value is missing or does not parse.
pub fn apply_cli_arg(
    opts: &mut CompileOptions,
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Result<bool, String> {
    let name = arg.strip_prefix("--").unwrap_or_default();
    let value = if is_switch(name) {
        None
    } else if OPTIONS.iter().any(|o| o.key == name) {
        rest.next()
    } else {
        return Ok(false);
    };
    opts.set(name, value.as_deref()).map(|()| true)
}

/// Column where help text starts in [`cli_help`] rows.
const HELP_COLUMN: usize = 25;
/// Width of a `--help` line.
const HELP_WIDTH: usize = 78;

/// The compile-option rows of `roccc --help`, then the keys as the
/// protocol and pipeline descriptions spell them.
pub fn cli_help() -> String {
    let default = CompileOptions::default();
    let indent = " ".repeat(HELP_COLUMN);
    let mut s = String::new();
    for o in OPTIONS {
        let mut names: Vec<String> = o.switches.iter().map(|(n, _)| format!("--{n}")).collect();
        if !is_switch(o.key) {
            names.insert(0, format!("--{} {}", o.key, o.syntax));
        }
        let names = names.join(", ");
        let mut lines: Vec<String> = o.help.lines().map(str::to_string).collect();
        if let Some(d) = (o.format)(&default) {
            let d = format!("(default {d})");
            match lines.last_mut() {
                Some(l) if HELP_COLUMN + l.len() + d.len() < HELP_WIDTH => *l = format!("{l} {d}"),
                _ => lines.push(d),
            }
        }
        // Names too wide for their column push the help to the next line.
        let mut lead = if names.len() + 3 > HELP_COLUMN {
            format!("  {names}\n{indent}")
        } else {
            format!("  {names:<w$} ", w = HELP_COLUMN - 3)
        };
        for line in lines {
            s.push_str(&lead);
            s.push_str(&line);
            s.push('\n');
            lead.clone_from(&indent);
        }
    }
    s.push_str("\nkeys (`key value` protocol lines, `key=value` pipeline stage overrides):\n");
    let mut line = String::new();
    for o in OPTIONS {
        let item = format!("{} {},", o.key, o.syntax);
        if 2 + line.len() + item.len() >= HELP_WIDTH {
            s.push_str(&format!("  {}\n", line.trim_end()));
            line.clear();
        }
        line.push_str(&item);
        line.push(' ');
    }
    s.push_str(&format!("  {}\n", line.trim_end().trim_end_matches(',')));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_switches_are_unique() {
        let mut names: Vec<&str> = OPTIONS.iter().map(|o| o.key).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OPTIONS.len());
        let mut switches: Vec<&str> = OPTIONS
            .iter()
            .flat_map(|o| o.switches.iter().map(|(s, _)| *s))
            .collect();
        let n = switches.len();
        switches.sort_unstable();
        switches.dedup();
        assert_eq!(switches.len(), n);
    }

    #[test]
    fn missing_values_and_unknown_names_are_errors() {
        let mut o = CompileOptions::default();
        assert!(o.set("period", None).unwrap_err().contains("needs a value"));
        assert!(o.set("no-opt", Some("on")).unwrap_err().contains("unknown"));
        assert!(o.set("bogus", None).unwrap_err().contains("unknown"));
    }
}
