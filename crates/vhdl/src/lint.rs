//! A structural linter for the generated VHDL.
//!
//! Not a general VHDL front end — a checker for the specific shape this
//! crate emits, used by the test-suite to catch unbound signals, missing
//! entities and unbalanced constructs without an external simulator.
//! Findings are reported as `roccc-verify` [`Diagnostic`] values
//! (phase `vhdl`, codes `V001`–`V006`, warning severity) so the CLI and
//! the compile daemon surface them uniformly with the IR/data-path/
//! netlist verifier.

use roccc_verify::{Diagnostic, Loc, Phase};
use std::collections::{BTreeMap, BTreeSet};

fn warn(code: &'static str, msg: String) -> Diagnostic {
    Diagnostic::warning(Phase::Vhdl, code, Loc::None, msg)
}

#[derive(Debug, Default)]
struct EntityInfo {
    in_ports: BTreeSet<String>,
    out_ports: BTreeSet<String>,
    signals: BTreeSet<String>,
    assigned: BTreeSet<String>,
    instances: Vec<(String, Vec<String>)>, // (entity, formals)
    /// Every port and signal name, lowercased.
    declared: BTreeSet<String>,
    /// Names declared more than once, lowercased.
    duplicates: BTreeSet<String>,
}

impl EntityInfo {
    /// Records a port or signal declaration; VHDL identifiers are
    /// case-insensitive, so `A` and `a` name the same object.
    fn declare(&mut self, name: &str) {
        let key = name.to_lowercase();
        if self.declared.contains(&key) {
            self.duplicates.insert(key);
        } else {
            self.declared.insert(key);
        }
    }
}

/// Checks the generated VHDL text. Returns all findings (empty = clean),
/// in one order for a given text: the count check, then entity by
/// entity in name order — its `V001`, `V002` and `V006` findings sorted
/// by name, then its instance findings in text order.
///
/// * `V001-unbound-signal` — an assignment target that is neither a
///   declared signal nor an output port;
/// * `V002-undriven-output` — an output port no statement drives;
/// * `V003-unknown-entity` — an instantiation of an entity the file does
///   not define;
/// * `V004-unmapped-input` — an instance leaving a data input port of
///   its entity unmapped;
/// * `V005-arch-mismatch` — entity/architecture count imbalance;
/// * `V006-duplicate-declaration` — a port or signal name declared twice
///   in one entity, compared case-insensitively.
pub fn lint(text: &str) -> Vec<Diagnostic> {
    let mut errors = Vec::new();
    let mut entities: BTreeMap<String, EntityInfo> = BTreeMap::new();
    let mut current: Option<String> = None;
    let mut entity_count = 0usize;
    let mut arch_count = 0usize;
    let mut in_port_section = false;

    for raw in text.lines() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("entity ") {
            if let Some(name) = rest.strip_suffix(" is") {
                entities.entry(name.to_string()).or_default();
                current = Some(name.to_string());
                entity_count += 1;
            }
        } else if line.starts_with("architecture rtl of ") {
            arch_count += 1;
            let name = line
                .trim_start_matches("architecture rtl of ")
                .trim_end_matches(" is");
            current = Some(name.to_string());
        } else if line.starts_with("port (") {
            in_port_section = true;
        } else if in_port_section && line.starts_with(");") {
            in_port_section = false;
        } else if in_port_section {
            // `name : in  type;`
            if let Some((name, rest)) = line.split_once(':') {
                let name = name.trim().to_string();
                let dir_in = rest.trim_start().starts_with("in ");
                if let Some(cur) = &current {
                    let info = entities.get_mut(cur).expect("current exists");
                    info.declare(&name);
                    if dir_in {
                        info.in_ports.insert(name);
                    } else {
                        info.out_ports.insert(name);
                    }
                }
            }
        } else if line.starts_with("signal ") {
            if let Some(cur) = &current {
                if let Some(rest) = line.strip_prefix("signal ") {
                    if let Some((name, _)) = rest.split_once(':') {
                        let info = entities.get_mut(cur).expect("current exists");
                        info.declare(name.trim());
                        info.signals.insert(name.trim().to_string());
                    }
                }
            }
        } else if line.contains("<=") && !line.starts_with("--") {
            if let Some(cur) = &current {
                let target = line.split("<=").next().unwrap_or("").trim().to_string();
                if !target.is_empty() {
                    entities
                        .get_mut(cur)
                        .expect("current exists")
                        .assigned
                        .insert(target);
                }
            }
        } else if line.contains(": entity work.") {
            if let Some(cur) = &current {
                let after = line.split(": entity work.").nth(1).unwrap_or("");
                let ent = after.split_whitespace().next().unwrap_or("").to_string();
                let formals: Vec<String> = after
                    .split('(')
                    .nth(1)
                    .unwrap_or("")
                    .split(',')
                    .filter_map(|assoc| assoc.split("=>").next())
                    .map(|f| f.trim().to_string())
                    .filter(|f| !f.is_empty())
                    .collect();
                entities
                    .get_mut(cur)
                    .expect("current exists")
                    .instances
                    .push((ent, formals));
            }
        }
    }

    if entity_count != arch_count {
        errors.push(warn(
            "V005-arch-mismatch",
            format!("{entity_count} entities but {arch_count} architectures"),
        ));
    }

    for (name, info) in &entities {
        // Every assignment target must be a signal or output port.
        for t in &info.assigned {
            if !info.signals.contains(t) && !info.out_ports.contains(t) {
                errors.push(warn(
                    "V001-unbound-signal",
                    format!("entity {name}: assignment to undeclared `{t}`"),
                ));
            }
        }
        // Every output port must be driven.
        for p in &info.out_ports {
            if !info.assigned.contains(p)
                && !info
                    .instances
                    .iter()
                    .any(|(_, formals)| formals.contains(p))
            {
                // Outputs may also be driven via an instance actual; the
                // formals list only covers formals, so scan actuals too —
                // conservatively skip this check when instances exist.
                if info.instances.is_empty() {
                    errors.push(warn(
                        "V002-undriven-output",
                        format!("entity {name}: output `{p}` never driven"),
                    ));
                }
            }
        }
        for d in &info.duplicates {
            errors.push(warn(
                "V006-duplicate-declaration",
                format!("entity {name}: `{d}` declared more than once"),
            ));
        }
        // Instantiated entities must exist and all their in-ports be mapped.
        for (ent, formals) in &info.instances {
            match entities.get(ent) {
                None => errors.push(warn(
                    "V003-unknown-entity",
                    format!("entity {name}: instance of unknown entity `{ent}`"),
                )),
                Some(callee) => {
                    for p in &callee.in_ports {
                        if p == "clk" || p == "start" || p == "din_valid" || p == "ivalid" {
                            continue; // control pins optionally tied at board level
                        }
                        if !formals.contains(p) {
                            errors.push(warn(
                                "V004-unmapped-input",
                                format!(
                                    "entity {name}: instance of `{ent}` leaves input `{p}` unmapped"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{Entity, PortDir, VhdlType, VhdlWriter};
    use roccc_verify::Severity;

    /// The text of one entity built by `build`.
    fn entity(name: &str, build: impl FnOnce(&mut Entity<'_>)) -> String {
        let mut w = VhdlWriter::default();
        let mut e = w.entity(name);
        build(&mut e);
        e.end();
        w.finish()
    }

    #[test]
    fn clean_entity_passes() {
        let text = entity("ok", |e| {
            e.port("a", PortDir::In, VhdlType::Unsigned(8));
            e.port("y", PortDir::Out, VhdlType::Unsigned(8));
            e.assign("y", "a");
        });
        assert!(lint(&text).is_empty());
    }

    #[test]
    fn undriven_output_flagged() {
        let text = entity("bad", |e| e.port("y", PortDir::Out, VhdlType::Unsigned(8)));
        let errs = lint(&text);
        assert!(
            errs.iter().any(|e| e.code == "V002-undriven-output"),
            "{errs:?}"
        );
    }

    #[test]
    fn assignment_to_undeclared_flagged() {
        let text = entity("bad2", |e| e.assign("ghost", "to_unsigned(0, 4)"));
        let errs = lint(&text);
        assert!(
            errs.iter().any(|e| e.code == "V001-unbound-signal"),
            "{errs:?}"
        );
    }

    #[test]
    fn unknown_instance_flagged() {
        let text = entity("top", |e| {
            e.signal("x", VhdlType::Unsigned(4));
            e.instance("u1", "missing", |m| m.map("a", "x"));
        });
        let errs = lint(&text);
        assert!(
            errs.iter().any(|e| e.code == "V003-unknown-entity"),
            "{errs:?}"
        );
    }

    #[test]
    fn findings_come_out_in_the_same_order_every_call() {
        let text = "entity b is\nport (\n  p : out unsigned(7 downto 0);\n  \
                    q : out unsigned(7 downto 0);\n);\nend entity;\n\
                    architecture rtl of b is\nbegin\n  h <= 1;\nend architecture;\n\
                    entity a is\nport (\n  x : in  unsigned(7 downto 0);\n  \
                    z : out unsigned(7 downto 0);\n  y : out unsigned(7 downto 0);\n);\n\
                    end entity;\narchitecture rtl of a is\nbegin\n  g2 <= x;\n  \
                    g1 <= x;\nend architecture;\n";
        let first = lint(text);
        let listed: Vec<(&str, &str)> =
            first.iter().map(|d| (d.code, d.message.as_str())).collect();
        assert_eq!(
            listed,
            [
                (
                    "V001-unbound-signal",
                    "entity a: assignment to undeclared `g1`"
                ),
                (
                    "V001-unbound-signal",
                    "entity a: assignment to undeclared `g2`"
                ),
                ("V002-undriven-output", "entity a: output `y` never driven"),
                ("V002-undriven-output", "entity a: output `z` never driven"),
                (
                    "V001-unbound-signal",
                    "entity b: assignment to undeclared `h`"
                ),
                ("V002-undriven-output", "entity b: output `p` never driven"),
                ("V002-undriven-output", "entity b: output `q` never driven"),
            ]
        );
        for _ in 0..50 {
            assert_eq!(lint(text), first);
        }
    }

    /// What the generator emitted for `void f(int A, int a, int* o) {
    /// *o = A - a; }` before it made case-colliding C names unique.
    const CASE_COLLISION: &str = "\
entity f_dp_node_1 is
  port (
    i_a : in  signed(31 downto 0);
    i_a : in  signed(31 downto 0);
    o_op1 : out signed(31 downto 0)
  );
end entity f_dp_node_1;

architecture rtl of f_dp_node_1 is
  signal w0 : signed(31 downto 0);
  signal w1 : signed(31 downto 0);
begin
  w0 <= i_a - i_a;
  w1 <= w0;
  o_op1 <= w1;
end architecture rtl;

entity f_dp is
  port (
    clk : in  std_logic;
    ivalid : in  std_logic;
    ovalid : out std_logic;
    in_a : in  signed(31 downto 0);
    in_a : in  signed(31 downto 0);
    out_o : out signed(31 downto 0)
  );
end entity f_dp;

architecture rtl of f_dp is
  signal op1_s0 : signed(31 downto 0);
  signal valid_s0 : std_logic;
  signal ovalid_r : std_logic;
  signal out_o_r : signed(31 downto 0);
begin
  valid_s0 <= ivalid;
  ovalid <= ovalid_r;
  u_node_1: entity work.f_dp_node_1 port map (i_a => in_a, i_a => in_a, o_op1 => op1_s0);
  out_o <= out_o_r;
  pipeline: process(clk)
  begin
    if rising_edge(clk) then
      ovalid_r <= valid_s0;
      out_o_r <= op1_s0;
    end if;
  end process pipeline;
end architecture rtl;
";

    #[test]
    fn ports_declared_twice_are_flagged() {
        let listed: Vec<(&str, String)> = lint(CASE_COLLISION)
            .into_iter()
            .map(|d| (d.code, d.message))
            .collect();
        assert_eq!(
            listed,
            [
                (
                    "V006-duplicate-declaration",
                    "entity f_dp: `in_a` declared more than once".to_string()
                ),
                (
                    "V006-duplicate-declaration",
                    "entity f_dp_node_1: `i_a` declared more than once".to_string()
                ),
            ]
        );
    }

    #[test]
    fn declarations_compare_case_insensitively() {
        let text = entity("e", |e| {
            e.port("X", PortDir::In, VhdlType::Unsigned(8));
            e.port("y", PortDir::Out, VhdlType::Unsigned(8));
            e.signal("x", VhdlType::Unsigned(8));
            e.signal("Y", VhdlType::Unsigned(8));
            e.signal("z", VhdlType::Unsigned(8));
            e.assign("y", "z");
        });
        let listed: Vec<String> = lint(&text)
            .into_iter()
            .filter(|d| d.code == "V006-duplicate-declaration")
            .map(|d| d.message)
            .collect();
        assert_eq!(
            listed,
            [
                "entity e: `x` declared more than once",
                "entity e: `y` declared more than once"
            ]
        );
    }

    #[test]
    fn findings_are_vhdl_phase_warnings() {
        let text = entity("bad", |e| e.port("y", PortDir::Out, VhdlType::Unsigned(8)));
        for d in lint(&text) {
            assert_eq!(d.phase, Phase::Vhdl);
            assert_eq!(d.severity, Severity::Warning);
            assert!(d.code.starts_with('V'), "{}", d.code);
        }
    }
}
