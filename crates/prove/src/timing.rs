//! The timing half of translation validation: when each netlist value is
//! computed, apart from what it is.
//!
//! [`cell_lags`] is one integer dataflow over the cells in index order.
//! A cell's [`LagSet`] counts the register stages between the launch of a
//! window and the cycle the cell computes that window's value: an input
//! port is read at lag 0, a gateless register delays its driver by one,
//! a gated feedback register is read at its gate stage, and an operation
//! sits at the join of its sources (a cone whose sources disagree is
//! `Mixed`). Constants and dangling registers are timing-neutral.
//!
//! An output port is correctly timed exactly when its cone is uniform at
//! the plan latency, and a feedback next-state cone when it is uniform at
//! the register's gate stage; [`grid_cones`] lists those cones with the
//! lag each must sit at. The prover turns them into valid-grid
//! obligations, and the certificate checker re-derives them from the
//! netlist alone.

use roccc_netlist::cells::{CellKind, Netlist};
use roccc_suifvm::ir::FunctionIr;

pub use roccc_verify::LagSet;

/// The lattice join: equal lags stay uniform, constants are neutral.
fn join(a: LagSet, b: LagSet) -> LagSet {
    match (a, b) {
        (LagSet::Empty, x) | (x, LagSet::Empty) => x,
        (LagSet::Uniform(x), LagSet::Uniform(y)) if x == y => a,
        _ => LagSet::Mixed,
    }
}

/// `s` one register stage later.
fn delayed(s: LagSet) -> LagSet {
    match s {
        LagSet::Uniform(l) => LagSet::Uniform(l + 1),
        other => other,
    }
}

/// The lag set of every cell of `nl`, indexed like `nl.cells`.
///
/// Only registers may reference a later cell, so each pass resolves at
/// least the next unresolved cell; the passes are bounded anyway. A cell
/// left unresolved (a combinational cycle) is `Mixed`: it has no single
/// timing.
pub fn cell_lags(nl: &Netlist) -> Vec<LagSet> {
    let mut lags: Vec<Option<LagSet>> = vec![None; nl.cells.len()];
    let at = |lags: &[Option<LagSet>], c: roccc_netlist::cells::CellId| -> Option<LagSet> {
        lags.get(c.0 as usize).copied().flatten()
    };
    for _ in 0..nl.cells.len() + 2 {
        let mut done = true;
        let mut progress = false;
        for (ci, cell) in nl.cells.iter().enumerate() {
            if lags[ci].is_some() {
                continue;
            }
            let set = match &cell.kind {
                CellKind::Const(_) => Some(LagSet::Empty),
                CellKind::Input(_) => Some(LagSet::Uniform(0)),
                CellKind::Reg {
                    stage_gate: Some(g),
                    ..
                } => Some(LagSet::Uniform(*g)),
                CellKind::Reg { d: None, .. } => Some(LagSet::Empty),
                CellKind::Reg { d: Some(d), .. } => at(&lags, *d).map(delayed),
                CellKind::Op { srcs, .. } => srcs
                    .iter()
                    .try_fold(LagSet::Empty, |acc, &s| at(&lags, s).map(|l| join(acc, l))),
            };
            match set {
                Some(s) => {
                    lags[ci] = Some(s);
                    progress = true;
                }
                None => done = false,
            }
        }
        if done || !progress {
            break;
        }
    }
    lags.into_iter()
        .map(|l| l.unwrap_or(LagSet::Mixed))
        .collect()
}

/// One valid-grid cone: the obligation it becomes, its lag set and the
/// lag it must sit at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridCone {
    /// Obligation name: `grid <output>` or `grid next <slot>`.
    pub name: String,
    /// The cone's lag set.
    pub lags: LagSet,
    /// The lag a correctly timed cone sits at.
    pub expected: u32,
}

/// The grid cones of `nl` against `f`, from its [`cell_lags`]: every output port (at the plan
/// latency), then every feedback slot of `f` (at its register's gate
/// stage), in slot order; one cone each, so they line up with the value
/// terms. A slot with no feedback register in `nl` has no timing: its
/// cone is `Mixed`, expected at 0.
pub fn grid_cones(f: &FunctionIr, nl: &Netlist, lags: &[LagSet]) -> Vec<GridCone> {
    let set = |c: roccc_netlist::cells::CellId| lags.get(c.0 as usize).copied();
    let mut out = Vec::with_capacity(nl.outputs.len() + f.feedback.len());
    for (k, &(name, _, cid)) in nl.outputs.iter().enumerate() {
        let name = f.outputs.get(k).map_or(name, |o| o.0);
        out.push(GridCone {
            name: format!("grid {name}"),
            lags: set(cid).unwrap_or(LagSet::Mixed),
            expected: nl.latency,
        });
    }
    for slot in &f.feedback {
        let reg = nl
            .feedback_regs
            .iter()
            .find(|(n, _)| *n == slot.name)
            .and_then(|&(_, cid)| nl.cells.get(cid.0 as usize))
            .and_then(|c| match c.kind {
                CellKind::Reg { d, stage_gate, .. } => Some((d, stage_gate)),
                _ => None,
            });
        let (lags, expected) = match reg {
            Some((d, gate)) => (d.and_then(set).unwrap_or(LagSet::Mixed), gate.unwrap_or(0)),
            None => (LagSet::Mixed, 0),
        };
        out.push(GridCone {
            name: format!("grid next {}", slot.name),
            lags,
            expected,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc_netlist::cells::{Cell, CellId};
    use roccc_suifvm::ir::Opcode;

    fn cell(kind: CellKind) -> Cell {
        Cell {
            kind,
            width: 32,
            signed: true,
        }
    }

    fn reg(d: Option<u32>, stage_gate: Option<u32>) -> Cell {
        cell(CellKind::Reg {
            d: d.map(CellId),
            init: 0,
            stage_gate,
        })
    }

    fn add(a: u32, b: u32) -> Cell {
        cell(CellKind::Op {
            op: Opcode::Add,
            srcs: [CellId(a), CellId(b)].into(),
            imm: 0,
        })
    }

    fn netlist(cells: Vec<Cell>) -> Netlist {
        let mut nl = Netlist::new();
        for c in cells {
            nl.add(c);
        }
        nl
    }

    #[test]
    fn registers_delay_and_operations_join() {
        let nl = netlist(vec![
            cell(CellKind::Input(0)), // 0: lag 0
            reg(Some(0), None),       // 1: lag 1
            reg(Some(1), None),       // 2: lag 2
            add(1, 1),                // 3: lag 1
            add(0, 2),                // 4: mixed
            cell(CellKind::Const(5)), // 5: constant
            add(5, 2),                // 6: constants are neutral
            reg(Some(5), None),       // 7: a delayed constant
            reg(Some(4), None),       // 8: a delayed mix stays mixed
            reg(None, None),          // 9: dangling
        ]);
        use LagSet::*;
        assert_eq!(
            cell_lags(&nl),
            [
                Uniform(0),
                Uniform(1),
                Uniform(2),
                Uniform(1),
                Mixed,
                Empty,
                Uniform(2),
                Empty,
                Mixed,
                Empty
            ]
        );
    }

    #[test]
    fn gated_registers_sit_at_their_gate_and_forward_references_resolve() {
        let nl = netlist(vec![
            reg(Some(3), Some(2)), // 0: feedback register read at stage 2
            reg(Some(2), None),    // 1: driver defined later
            cell(CellKind::Input(0)),
            add(0, 1), // 3: lags 2 and 1 meet
        ]);
        use LagSet::*;
        assert_eq!(cell_lags(&nl), [Uniform(2), Uniform(1), Uniform(0), Mixed]);
        let nl = netlist(vec![
            reg(Some(3), Some(1)),
            reg(Some(2), None),
            cell(CellKind::Input(0)),
            add(0, 1),
        ]);
        assert_eq!(
            cell_lags(&nl),
            [Uniform(1), Uniform(1), Uniform(0), Uniform(1)]
        );
    }

    #[test]
    fn every_feedback_slot_has_one_cone() {
        use roccc_cparse::IntType;
        use roccc_suifvm::ir::FeedbackSlot;
        let mut f = FunctionIr::new("k");
        for name in ["a", "b"] {
            f.feedback.push(FeedbackSlot {
                name: name.into(),
                ty: IntType::signed(32),
                init: 0,
            });
        }
        let mut nl = netlist(vec![
            cell(CellKind::Input(0)),
            reg(Some(0), Some(0)),
            reg(Some(0), Some(0)),
        ]);
        // Both registers carry slot `a`'s name; slot `b` has none.
        nl.feedback_regs = vec![("a".into(), CellId(1)), ("a".into(), CellId(2))];
        let cones = grid_cones(&f, &nl, &cell_lags(&nl));
        let next: Vec<_> = cones
            .iter()
            .map(|c| (c.name.as_str(), c.lags, c.expected))
            .collect();
        assert_eq!(
            next,
            [
                ("grid next a", LagSet::Uniform(0), 0),
                ("grid next b", LagSet::Mixed, 0)
            ]
        );
    }

    #[test]
    fn a_combinational_cycle_is_mixed() {
        let nl = netlist(vec![cell(CellKind::Input(0)), add(0, 2), add(0, 1)]);
        assert_eq!(
            cell_lags(&nl),
            [LagSet::Uniform(0), LagSet::Mixed, LagSet::Mixed]
        );
    }
}
