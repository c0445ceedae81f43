//! Word-level netlist cells.
//!
//! The RTL level below the data-path graph: every operation becomes a
//! combinational cell, every stage crossing a register, every lookup table
//! a ROM. This is the representation the synthesis estimator
//! (`roccc-synth`) maps to Virtex-II resources and the cycle-accurate
//! simulator executes.

use roccc_cparse::inline_vec::InlineVec;
use roccc_cparse::intern::Symbol;
use roccc_cparse::types::IntType;
use roccc_suifvm::ir::{LutTable, Opcode, Violation};
use roccc_suifvm::range::ValueRange;
use std::fmt;

/// Identifies a cell (and its output net).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Inline source-net list of a combinational cell (at most three).
pub type CellSrcs = InlineVec<CellId, 3>;

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a cell does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellKind {
    /// Constant driver.
    Const(i64),
    /// External input port `k` (combinational from the environment).
    Input(usize),
    /// Combinational operation (`Opcode` subset: arithmetic/logic/mux/LUT).
    Op {
        /// Operation.
        op: Opcode,
        /// Input nets (inline; at most three).
        srcs: CellSrcs,
        /// ROM index for `Lut`.
        imm: i64,
    },
    /// Clocked register. `d` may be connected after creation
    /// ([`Netlist::connect_reg`]) to close feedback cycles.
    Reg {
        /// Data input net.
        d: Option<CellId>,
        /// Power-on value.
        init: i64,
        /// When `Some(s)`, the register only latches on cycles where a
        /// valid iteration occupies pipeline stage `s` (feedback latches).
        /// `None` latches every cycle (pipeline balancing registers).
        stage_gate: Option<u32>,
    },
}

/// A cell with its output net type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Behaviour.
    pub kind: CellKind,
    /// Output width in bits.
    pub width: u8,
    /// Signed interpretation of the output net.
    pub signed: bool,
}

impl Cell {
    /// The output net's type.
    pub fn ty(&self) -> IntType {
        IntType {
            signed: self.signed,
            bits: self.width.max(1),
        }
    }
}

/// A word-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// All cells; combinational sources of a cell always precede it.
    pub cells: Vec<Cell>,
    /// Input ports `(name, type)`; `CellKind::Input(k)` refers to these.
    pub inputs: Vec<(Symbol, IntType)>,
    /// Output ports `(name, type, net)`.
    pub outputs: Vec<(Symbol, IntType, CellId)>,
    /// ROMs referenced by `Lut` cells.
    pub roms: Vec<LutTable>,
    /// Pipeline depth in clock cycles from input to output port.
    pub latency: u32,
    /// Initiation interval: valid iterations may only be presented on
    /// cycles that are multiples of `ii` (1 = every cycle, the latch
    /// pipeline; >1 = a modulo schedule sharing multiplier blocks across
    /// congruence classes). Simulators reject misaligned launches.
    pub ii: u32,
    /// Nets that are feedback registers, with their slot names.
    pub feedback_regs: Vec<(Symbol, CellId)>,
    /// Wrap-free proven value ranges, parallel to `cells`: `ranges[i]` is
    /// `Some(r)` only when cell `i`'s wire provably carries the exact
    /// (pre-wrap) value of the computation it implements and that value
    /// lies in `r`. Stamped by `netlist_from_datapath` from the data
    /// path's range annotations; checked by `W005` in `roccc-verify`.
    pub ranges: Vec<Option<ValueRange>>,
}

impl Netlist {
    /// Creates an empty netlist (initiation interval 1).
    pub fn new() -> Self {
        Netlist {
            ii: 1,
            ..Self::default()
        }
    }

    /// The effective initiation interval (treats an unset 0 as 1).
    pub fn effective_ii(&self) -> u64 {
        u64::from(self.ii.max(1))
    }

    /// Adds a cell, returning its id.
    pub fn add(&mut self, cell: Cell) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(cell);
        self.ranges.push(None);
        id
    }

    /// Annotates `c` with a wrap-free proven range.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn set_range(&mut self, c: CellId, r: ValueRange) {
        self.ranges[c.0 as usize] = Some(r);
    }

    /// The wrap-free proven range of `c`, if annotated.
    pub fn range_of(&self, c: CellId) -> Option<&ValueRange> {
        self.ranges.get(c.0 as usize).and_then(|o| o.as_ref())
    }

    /// Adds a constant.
    pub fn constant(&mut self, value: i64) -> CellId {
        let ty = IntType {
            signed: value < 0,
            bits: IntType::width_for(value, value < 0),
        };
        self.add(Cell {
            kind: CellKind::Const(value),
            width: ty.bits,
            signed: ty.signed,
        })
    }

    /// Connects a register's data input after the fact.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a register cell.
    pub fn connect_reg(&mut self, reg: CellId, d: CellId) {
        match &mut self.cells[reg.0 as usize].kind {
            CellKind::Reg { d: slot, .. } => *slot = Some(d),
            other => panic!("connect_reg on non-register cell {other:?}"),
        }
    }

    /// Census: `(combinational ops, registers, constants+inputs)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut comb = 0;
        let mut regs = 0;
        let mut other = 0;
        for c in &self.cells {
            match c.kind {
                CellKind::Op { .. } => comb += 1,
                CellKind::Reg { .. } => regs += 1,
                _ => other += 1,
            }
        }
        (comb, regs, other)
    }

    /// Total register bits.
    pub fn register_bits(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Reg { .. }))
            .map(|c| c.width as u64)
            .sum()
    }

    /// Every structural violation of the netlist. The references come
    /// first (`N002`); when any of them fails, they are all there is.
    /// Otherwise, cell by cell, undriven registers (`N001`) and
    /// combinational cells reading later combinational cells (`N004`).
    pub fn violations(&self) -> Vec<Violation> {
        let (mut refs, mut order) = (Vec::new(), Vec::new());
        let n = self.cells.len();
        for (i, c) in self.cells.iter().enumerate() {
            let at = |code, message| Violation::at(code, i as u32, message);
            match &c.kind {
                CellKind::Op { op, srcs, imm } => {
                    for s in srcs {
                        match self.cells.get(s.0 as usize) {
                            None => refs.push(at(
                                N002_MISSING_REF,
                                format!("cell n{i} ({op}) reads missing cell {s}"),
                            )),
                            Some(src)
                                if s.0 as usize >= i
                                    && !matches!(src.kind, CellKind::Reg { .. }) =>
                            {
                                order.push(at(
                                    N004_COMB_ORDER,
                                    format!("cell n{i} ({op}) reads later combinational cell {s}"),
                                ))
                            }
                            Some(_) => {}
                        }
                    }
                    if *op == Opcode::Lut && (*imm < 0 || *imm as usize >= self.roms.len()) {
                        refs.push(at(
                            N002_MISSING_REF,
                            format!("cell n{i} references ROM {imm} of {}", self.roms.len()),
                        ));
                    }
                }
                CellKind::Reg { d: None, .. } => order.push(at(
                    N001_UNDRIVEN_REG,
                    format!("register n{i} has no data input"),
                )),
                CellKind::Reg { d: Some(d), .. } if d.0 as usize >= n => refs.push(at(
                    N002_MISSING_REF,
                    format!("register n{i} driven by missing cell {d}"),
                )),
                CellKind::Input(k) if *k >= self.inputs.len() => refs.push(at(
                    N002_MISSING_REF,
                    format!("cell n{i} reads missing input port {k}"),
                )),
                _ => {}
            }
        }
        for (name, _, net) in &self.outputs {
            if net.0 as usize >= n {
                refs.push(Violation::global(
                    N002_MISSING_REF,
                    format!("output {name} driven by missing net {net}"),
                ));
            }
        }
        for (name, net) in &self.feedback_regs {
            match self.cells.get(net.0 as usize) {
                None => refs.push(Violation::global(
                    N002_MISSING_REF,
                    format!("feedback register {name} is missing net {net}"),
                )),
                Some(c) if !matches!(c.kind, CellKind::Reg { .. }) => refs.push(Violation::at(
                    N002_MISSING_REF,
                    net.0,
                    format!("feedback net {name} ({net}) is not a register"),
                )),
                Some(_) => {}
            }
        }
        if refs.is_empty() {
            order
        } else {
            refs
        }
    }

    /// Checks the structural invariants ([`Netlist::violations`]) and
    /// returns the first violation's message.
    ///
    /// # Errors
    ///
    /// The message of the first violation, when there is one.
    pub fn verify(&self) -> Result<(), String> {
        Violation::first(self.violations())
    }
}

/// A register whose data input was never connected (an undriven wire
/// after synthesis).
pub const N001_UNDRIVEN_REG: &str = "N001-undriven-reg";
/// A cell, ROM, input port, output net or feedback register index out of
/// range, or a feedback net that is not a register. In this
/// representation a net has exactly one driver by construction, so the
/// multiply-driven failure mode becomes a reference to a driver that
/// does not exist.
pub const N002_MISSING_REF: &str = "N002-missing-ref";
/// A combinational cell reading a later combinational cell (registers
/// are the only legal backward edges).
pub const N004_COMB_ORDER: &str = "N004-comb-order";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_census() {
        let mut nl = Netlist::new();
        nl.inputs.push(("a".into(), IntType::unsigned(8)));
        let a = nl.add(Cell {
            kind: CellKind::Input(0),
            width: 8,
            signed: false,
        });
        let one = nl.constant(1);
        let sum = nl.add(Cell {
            kind: CellKind::Op {
                op: Opcode::Add,
                srcs: [a, one].into(),
                imm: 0,
            },
            width: 9,
            signed: false,
        });
        let reg = nl.add(Cell {
            kind: CellKind::Reg {
                d: Some(sum),
                init: 0,
                stage_gate: None,
            },
            width: 9,
            signed: false,
        });
        nl.outputs.push(("o".into(), IntType::unsigned(9), reg));
        nl.verify().unwrap();
        assert_eq!(nl.census(), (1, 1, 2));
        assert_eq!(nl.register_bits(), 9);
    }

    #[test]
    fn verify_catches_unconnected_reg() {
        let mut nl = Netlist::new();
        nl.add(Cell {
            kind: CellKind::Reg {
                d: None,
                init: 0,
                stage_gate: None,
            },
            width: 4,
            signed: false,
        });
        assert!(nl.verify().is_err());
    }

    #[test]
    fn verify_allows_backward_reg_reference() {
        // Feedback: reg → add → reg.d
        let mut nl = Netlist::new();
        nl.inputs.push(("x".into(), IntType::unsigned(8)));
        let reg = nl.add(Cell {
            kind: CellKind::Reg {
                d: None,
                init: 0,
                stage_gate: Some(0),
            },
            width: 8,
            signed: false,
        });
        let x = nl.add(Cell {
            kind: CellKind::Input(0),
            width: 8,
            signed: false,
        });
        let sum = nl.add(Cell {
            kind: CellKind::Op {
                op: Opcode::Add,
                srcs: [reg, x].into(),
                imm: 0,
            },
            width: 8,
            signed: false,
        });
        nl.connect_reg(reg, sum);
        nl.verify().unwrap();
    }

    #[test]
    fn verify_catches_forward_comb_reference() {
        let mut nl = Netlist::new();
        nl.inputs.push(("x".into(), IntType::unsigned(8)));
        let bogus = CellId(5);
        nl.add(Cell {
            kind: CellKind::Op {
                op: Opcode::Not,
                srcs: [bogus].into(),
                imm: 0,
            },
            width: 8,
            signed: false,
        });
        assert!(nl.verify().is_err());
    }
}
