//! A structural linter for the generated VHDL.
//!
//! Not a general VHDL front end — a checker for the specific shape this
//! crate emits, used by the test-suite to catch unbound signals, missing
//! entities and unbalanced constructs without an external simulator.
//! Findings are reported as `roccc-verify` [`Diagnostic`] values
//! (phase `vhdl`, codes `V001`–`V005`, warning severity) so the CLI and
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
}

/// Checks the generated VHDL text. Returns all findings (empty = clean),
/// in one order for a given text: the count check, then entity by
/// entity in name order — its `V001` and `V002` findings sorted by name,
/// then its instance findings in text order.
///
/// * `V001-unbound-signal` — an assignment target that is neither a
///   declared signal nor an output port;
/// * `V002-undriven-output` — an output port no statement drives;
/// * `V003-unknown-entity` — an instantiation of an entity the file does
///   not define;
/// * `V004-unmapped-input` — an instance leaving a data input port of
///   its entity unmapped;
/// * `V005-arch-mismatch` — entity/architecture count imbalance.
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
                        entities
                            .get_mut(cur)
                            .expect("current exists")
                            .signals
                            .insert(name.trim().to_string());
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
    use crate::ast::{Entity, Port, PortDir, Signal, Stmt, VhdlType};
    use roccc_verify::Severity;

    #[test]
    fn clean_entity_passes() {
        let mut e = Entity::new("ok");
        e.ports.push(Port {
            name: "a".into(),
            dir: PortDir::In,
            ty: VhdlType::Unsigned(8),
        });
        e.ports.push(Port {
            name: "y".into(),
            dir: PortDir::Out,
            ty: VhdlType::Unsigned(8),
        });
        e.stmts.push(Stmt::Assign {
            target: "y".into(),
            expr: "a".into(),
        });
        assert!(lint(&e.render()).is_empty());
    }

    #[test]
    fn undriven_output_flagged() {
        let mut e = Entity::new("bad");
        e.ports.push(Port {
            name: "y".into(),
            dir: PortDir::Out,
            ty: VhdlType::Unsigned(8),
        });
        let errs = lint(&e.render());
        assert!(
            errs.iter().any(|e| e.code == "V002-undriven-output"),
            "{errs:?}"
        );
    }

    #[test]
    fn assignment_to_undeclared_flagged() {
        let mut e = Entity::new("bad2");
        e.stmts.push(Stmt::Assign {
            target: "ghost".into(),
            expr: "to_unsigned(0, 4)".into(),
        });
        let errs = lint(&e.render());
        assert!(
            errs.iter().any(|e| e.code == "V001-unbound-signal"),
            "{errs:?}"
        );
    }

    #[test]
    fn unknown_instance_flagged() {
        let mut e = Entity::new("top");
        e.signals.push(Signal {
            name: "x".into(),
            ty: VhdlType::Unsigned(4),
        });
        e.stmts.push(Stmt::Instance {
            label: "u1".into(),
            entity: "missing".into(),
            map: vec![("a".into(), "x".into())],
        });
        let errs = lint(&e.render());
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

    #[test]
    fn findings_are_vhdl_phase_warnings() {
        let mut e = Entity::new("bad");
        e.ports.push(Port {
            name: "y".into(),
            dir: PortDir::Out,
            ty: VhdlType::Unsigned(8),
        });
        for d in lint(&e.render()) {
            assert_eq!(d.phase, Phase::Vhdl);
            assert_eq!(d.severity, Severity::Warning);
            assert!(d.code.starts_with('V'), "{}", d.code);
        }
    }
}
