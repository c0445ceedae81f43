//! Netlist-phase checks: drivers, combinational loops, widths, liveness.
//!
//! The word-level netlist is one step from VHDL: every wire must have
//! exactly one driver, every register a data input, and every cycle must
//! be split by a register edge — a combinational loop would synthesize
//! to a ring oscillator, not the paper's pipelined data path.

use crate::diag::{Diagnostic, Loc, Phase};
use roccc_netlist::cells::N002_MISSING_REF;
use roccc_netlist::{CellId, CellKind, Netlist};

fn err(code: &'static str, cell: u32, msg: String) -> Diagnostic {
    Diagnostic::error(Phase::Netlist, code, Loc::Cell(cell), msg)
}

/// Runs every netlist-phase check over `nl` and returns the findings
/// (empty = clean).
///
/// First come the structural violations of [`Netlist::violations`], the
/// checks `Netlist::verify` runs on every compile, as errors under their
/// own codes (`N001`, `N002`, `N004`; see the constants in
/// [`roccc_netlist::cells`]). A broken reference (`N002`) ends the walk
/// there. Then:
///
/// * `N003-comb-loop` — a cycle through combinational cells only, with
///   no register on any edge to split it;
/// * `N005-width-mismatch` — a register latching a wire of a different
///   width or signedness than its own (feedback latches are closed
///   through an explicit `CVT`, so any residual mismatch is a lowering
///   bug; output registers may truncate and are exempt, as are
///   balancing registers fed directly by another register — the `LPR`
///   read of a feedback latch is narrowed at its consumers, not at the
///   latch);
/// * `N006-width-bounds` — a wire width of 0 or above 64 bits (the
///   simulator's word size);
/// * `N007-dead-cell` (warning) — a cell that no output port or
///   feedback register transitively reads (unused input-port cells are
///   exempt: every port is instantiated by convention);
/// * `N008-duplicate-port` — two input or output ports sharing a name;
/// * `W005-cell-wraps-range` — a cell annotated as wrap-free (its wire
///   carries an exact value inside a proven range) but too narrow to
///   hold every value of that range, or annotated with an empty range.
///   Only emitted when range narrowing stamped annotations.
pub fn verify_netlist(nl: &Netlist) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = nl
        .violations()
        .into_iter()
        .map(|v| Diagnostic::structural(Phase::Netlist, v))
        .collect();
    // Everything below indexes through the references.
    if out.iter().any(|d| d.code == N002_MISSING_REF) {
        return out;
    }
    let n = nl.cells.len();

    // --- Combinational loops --------------------------------------------
    // DFS over combinational edges only; registers cut every legal cycle.
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        stack.push((root, 0));
        state[root] = 1;
        while let Some(&mut (cell, ref mut edge)) = stack.last_mut() {
            let srcs = match &nl.cells[cell].kind {
                CellKind::Op { srcs, .. } => srcs.as_slice(),
                _ => &[],
            };
            if *edge < srcs.len() {
                let next = srcs[*edge].0 as usize;
                *edge += 1;
                if matches!(nl.cells[next].kind, CellKind::Reg { .. }) {
                    continue;
                }
                match state[next] {
                    0 => {
                        state[next] = 1;
                        stack.push((next, 0));
                    }
                    1 => out.push(err(
                        "N003-comb-loop",
                        cell as u32,
                        format!(
                            "cell n{cell} closes a combinational loop through n{next} with no \
                             register to split it"
                        ),
                    )),
                    _ => {}
                }
            } else {
                state[cell] = 2;
                stack.pop();
            }
        }
    }

    // --- Widths -----------------------------------------------------------
    let output_regs: std::collections::HashSet<u32> =
        nl.outputs.iter().map(|(_, _, net)| net.0).collect();
    for (i, c) in nl.cells.iter().enumerate() {
        if c.width == 0 || c.width > 64 {
            out.push(err(
                "N006-width-bounds",
                i as u32,
                format!("cell n{i} is {} bits wide, outside 1..=64", c.width),
            ));
        }
        if let CellKind::Reg {
            d: Some(d),
            stage_gate,
            ..
        } = &c.kind
        {
            if output_regs.contains(&(i as u32)) {
                continue; // output registers may truncate to the port type
            }
            let src = &nl.cells[d.0 as usize];
            let lenient = stage_gate.is_none() && matches!(src.kind, CellKind::Reg { .. });
            if !lenient && (src.width != c.width || src.signed != c.signed) {
                out.push(err(
                    "N005-width-mismatch",
                    i as u32,
                    format!(
                        "register n{i} ({}) latches {d} ({}); lowering should have \
                         inserted a CVT",
                        c.ty(),
                        src.ty()
                    ),
                ));
            }
        }
    }

    // --- Range annotations (wrap-freedom of narrowed cells) --------------
    // An annotation asserts the cell's wire carries an exact value inside
    // the range; a width too small to hold the whole range would wrap it.
    // Silent when the compile ran without range narrowing (no
    // annotations).
    for (i, c) in nl.cells.iter().enumerate() {
        let Some(r) = nl.range_of(CellId(i as u32)) else {
            continue;
        };
        if r.lo > r.hi {
            out.push(err(
                "W005-cell-wraps-range",
                i as u32,
                format!("cell n{i} annotated with empty range [{}, {}]", r.lo, r.hi),
            ));
        } else if c.width < r.bits(c.signed).max(1) {
            out.push(err(
                "W005-cell-wraps-range",
                i as u32,
                format!(
                    "cell n{i} is {} bits wide but its wrap-free range [{}, {}] needs {} \
                     bits ({})",
                    c.width,
                    r.lo,
                    r.hi,
                    r.bits(c.signed),
                    if c.signed { "signed" } else { "unsigned" },
                ),
            ));
        }
    }

    // --- Liveness ---------------------------------------------------------
    let mut live = vec![false; n];
    let mut work: Vec<usize> = nl
        .outputs
        .iter()
        .map(|(_, _, net)| net.0 as usize)
        .chain(nl.feedback_regs.iter().map(|(_, net)| net.0 as usize))
        .collect();
    for &w in &work {
        live[w] = true;
    }
    while let Some(c) = work.pop() {
        let push = |work: &mut Vec<usize>, live: &mut Vec<bool>, s: CellId| {
            if !live[s.0 as usize] {
                live[s.0 as usize] = true;
                work.push(s.0 as usize);
            }
        };
        match &nl.cells[c].kind {
            CellKind::Op { srcs, .. } => {
                for s in srcs {
                    push(&mut work, &mut live, *s);
                }
            }
            CellKind::Reg { d: Some(d), .. } => push(&mut work, &mut live, *d),
            _ => {}
        }
    }
    for (i, c) in nl.cells.iter().enumerate() {
        if !live[i] && !matches!(c.kind, CellKind::Input(_)) {
            out.push(Diagnostic::warning(
                Phase::Netlist,
                "N007-dead-cell",
                Loc::Cell(i as u32),
                format!("cell n{i} is never read by an output or feedback register"),
            ));
        }
    }

    // --- Port names --------------------------------------------------------
    let mut seen = std::collections::HashSet::new();
    for (name, _) in &nl.inputs {
        if !seen.insert(name.as_str()) {
            out.push(Diagnostic::error(
                Phase::Netlist,
                "N008-duplicate-port",
                Loc::None,
                format!("two input ports named `{name}`"),
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for (name, _, _) in &nl.outputs {
        if !seen.insert(name.as_str()) {
            out.push(Diagnostic::error(
                Phase::Netlist,
                "N008-duplicate-port",
                Loc::None,
                format!("two output ports named `{name}`"),
            ));
        }
    }

    out
}

// The corrupt fixtures below build cells by hand.
#[cfg(test)]
use roccc_suifvm::ir::Opcode;

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_cparse::parser::parse;
    use roccc_datapath::{build_datapath, narrow_widths, pipeline_datapath, DefaultDelayModel};
    use roccc_netlist::{netlist_from_datapath, Cell};
    use roccc_suifvm::{lower_function, optimize, to_ssa};

    fn nl_of(src: &str, func: &str, period: f64) -> Netlist {
        let prog = parse(src).unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function(func).unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let mut dp = build_datapath(&ir).unwrap();
        pipeline_datapath(&mut dp, period, &DefaultDelayModel);
        narrow_widths(&mut dp);
        netlist_from_datapath(&dp)
    }

    const DEEP: &str = "void f(int a, int b, int* o) { *o = (a * b) * (a + b) * 3 + a; }";

    #[test]
    fn clean_netlist_passes() {
        assert_eq!(verify_netlist(&nl_of(DEEP, "f", 4.0)), vec![]);
        assert_eq!(verify_netlist(&nl_of(DEEP, "f", 1000.0)), vec![]);
    }

    #[test]
    fn ranged_netlist_passes_and_catches_wrapping_annotation() {
        // Build with range annotations (inputs pinned so narrowing bites).
        let prog = parse("void f(int a, int b, int* o) { *o = (a + b < 12) ? a : b; }").unwrap();
        roccc_cparse::sema::check(&prog).unwrap();
        let f = prog.function("f").unwrap();
        let mut ir = lower_function(&prog, f, &[]).unwrap();
        to_ssa(&mut ir);
        optimize(&mut ir);
        let ranges = roccc_suifvm::range::analyze_with_inputs(&ir, &[Some((0, 7)), Some((0, 7))]);
        let mut dp = roccc_datapath::build_datapath_ranged(&ir, Some(&ranges)).unwrap();
        pipeline_datapath(&mut dp, 1000.0, &DefaultDelayModel);
        narrow_widths(&mut dp);
        let nl = netlist_from_datapath(&dp);
        assert!(
            nl.ranges.iter().any(|r| r.is_some()),
            "expected wrap-free annotations"
        );
        assert_eq!(verify_netlist(&nl), vec![]);

        // Corrupt fixture: shrink an annotated multi-bit cell below its
        // range — the wire can no longer hold every value it claims.
        let mut bad = nl.clone();
        let i = bad
            .cells
            .iter()
            .zip(&bad.ranges)
            .position(|(c, r)| r.is_some_and(|r| r.bits(c.signed).max(1) > 1))
            .expect("an annotated cell needing more than one bit");
        bad.cells[i].width = 1;
        let diags = verify_netlist(&bad);
        assert!(
            diags.iter().any(|d| d.code == "W005-cell-wraps-range"),
            "{diags:?}"
        );
    }

    #[test]
    fn undriven_register_is_reported() {
        let mut nl = nl_of(DEEP, "f", 4.0);
        nl.add(Cell {
            kind: CellKind::Reg {
                d: None,
                init: 0,
                stage_gate: None,
            },
            width: 8,
            signed: false,
        });
        let diags = verify_netlist(&nl);
        assert!(
            diags.iter().any(|d| d.code == "N001-undriven-reg"),
            "{diags:?}"
        );
    }

    #[test]
    fn comb_loop_is_reported() {
        let mut nl = nl_of(DEEP, "f", 1000.0);
        // Two mutually-referencing combinational cells.
        let a = CellId(nl.cells.len() as u32);
        let b = CellId(nl.cells.len() as u32 + 1);
        nl.add(Cell {
            kind: CellKind::Op {
                op: Opcode::Not,
                srcs: vec![b].into(),
                imm: 0,
            },
            width: 8,
            signed: false,
        });
        nl.add(Cell {
            kind: CellKind::Op {
                op: Opcode::Not,
                srcs: vec![a].into(),
                imm: 0,
            },
            width: 8,
            signed: false,
        });
        let diags = verify_netlist(&nl);
        assert!(
            diags.iter().any(|d| d.code == "N003-comb-loop"),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "N004-comb-order"),
            "{diags:?}"
        );
    }

    #[test]
    fn register_width_mismatch_is_reported() {
        let mut nl = nl_of(DEEP, "f", 4.0);
        // Find a balancing register that is neither an output register nor
        // fed by another register, and skew its width.
        let outs: std::collections::HashSet<usize> = nl
            .outputs
            .iter()
            .map(|(_, _, net)| net.0 as usize)
            .collect();
        let victim = nl
            .cells
            .iter()
            .enumerate()
            .position(|(i, c)| match &c.kind {
                CellKind::Reg {
                    d: Some(d),
                    stage_gate: None,
                    ..
                } => {
                    !outs.contains(&i)
                        && !matches!(nl.cells[d.0 as usize].kind, CellKind::Reg { .. })
                }
                _ => false,
            })
            .expect("pipelined netlist has balancing registers");
        nl.cells[victim].width += 5;
        let diags = verify_netlist(&nl);
        assert!(
            diags.iter().any(|d| d.code == "N005-width-mismatch"),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_cell_is_a_warning() {
        let mut nl = nl_of(DEEP, "f", 1000.0);
        let x = nl.constant(7);
        nl.add(Cell {
            kind: CellKind::Op {
                op: Opcode::Not,
                srcs: vec![x].into(),
                imm: 0,
            },
            width: 4,
            signed: false,
        });
        let diags = verify_netlist(&nl);
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "N007-dead-cell")
            .collect();
        assert_eq!(dead.len(), 2, "{diags:?}");
        assert!(dead.iter().all(|d| d.severity == crate::Severity::Warning));
    }

    #[test]
    fn duplicate_output_port_is_reported() {
        let mut nl = nl_of(DEEP, "f", 1000.0);
        let dup = nl.outputs[0];
        nl.outputs.push(dup);
        let diags = verify_netlist(&nl);
        assert!(
            diags.iter().any(|d| d.code == "N008-duplicate-port"),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_ref_is_reported() {
        let mut nl = nl_of(DEEP, "f", 1000.0);
        nl.add(Cell {
            kind: CellKind::Op {
                op: Opcode::Not,
                srcs: vec![CellId(9999)].into(),
                imm: 0,
            },
            width: 4,
            signed: false,
        });
        let diags = verify_netlist(&nl);
        assert!(
            diags.iter().any(|d| d.code == "N002-missing-ref"),
            "{diags:?}"
        );
    }
}
