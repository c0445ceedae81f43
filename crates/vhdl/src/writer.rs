//! A streaming VHDL'93 writer.
//!
//! Only the subset the ROCCC generator needs: entities with std_logic /
//! signed / unsigned ports, architectures with signal declarations, ROM
//! constant tables, concurrent assignments, clocked processes, component
//! instantiations and comments. Everything is written straight into one
//! output `String`: the entity header, ports and declarations go to the
//! output as they are declared, and the architecture body collects in
//! one reused scratch buffer that is appended after `begin` when the
//! entity ends. Names and expressions are anything `Display`, so the
//! generator formats fragments in place instead of building a string
//! for each.

use std::fmt::{self, Display, Write as _};

/// Direction of an entity port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Input port.
    In,
    /// Output port.
    Out,
}

/// A VHDL scalar/vector type; `Display` renders the type name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VhdlType {
    /// `std_logic`.
    StdLogic,
    /// `signed(w-1 downto 0)`.
    Signed(u8),
    /// `unsigned(w-1 downto 0)`.
    Unsigned(u8),
}

impl VhdlType {
    /// Builds the type for a width/signedness pair (width 1 Boolean nets
    /// still use vectors so resize rules stay uniform).
    pub fn vector(signed: bool, bits: u8) -> Self {
        if signed {
            VhdlType::Signed(bits.max(1))
        } else {
            VhdlType::Unsigned(bits.max(1))
        }
    }

    /// Width in bits.
    pub fn bits(&self) -> u8 {
        match self {
            VhdlType::StdLogic => 1,
            VhdlType::Signed(w) | VhdlType::Unsigned(w) => *w,
        }
    }
}

impl Display for VhdlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VhdlType::StdLogic => f.write_str("std_logic"),
            VhdlType::Signed(w) => write!(f, "signed({} downto 0)", w.saturating_sub(1)),
            VhdlType::Unsigned(w) => write!(f, "unsigned({} downto 0)", w.saturating_sub(1)),
        }
    }
}

/// A `Display` adapter around a formatting closure.
pub(crate) struct Fmt<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result>(pub(crate) F);

impl<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result> Display for Fmt<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.0)(f)
    }
}

/// A constant of a vector type: `to_signed(c, w)` / `to_unsigned(c, w)`.
pub(crate) struct Lit {
    /// The value.
    pub(crate) value: i64,
    /// Element type (a `std_logic` constant renders as `'0'`/`'1'`).
    pub(crate) ty: VhdlType,
}

impl Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            VhdlType::Signed(w) => write!(f, "to_signed({}, {w})", self.value),
            VhdlType::Unsigned(w) => write!(f, "to_unsigned({}, {w})", self.value),
            VhdlType::StdLogic => f.write_str(if self.value != 0 { "'1'" } else { "'0'" }),
        }
    }
}

/// Expression `expr` of type `from`, cast to a `(signed?, bits)` vector
/// with two's-complement semantics (`bits` is raised to at least 1).
pub(crate) struct Cast<E> {
    /// The expression.
    pub(crate) expr: E,
    /// Its type.
    pub(crate) from: VhdlType,
    /// Target signedness.
    pub(crate) signed: bool,
    /// Target width.
    pub(crate) bits: u8,
}

impl<E: Display> Display for Cast<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (e, bits) = (&self.expr, self.bits.max(1));
        match (self.from, self.signed) {
            (VhdlType::Signed(w), true) | (VhdlType::Unsigned(w), false) if w == bits => {
                write!(f, "{e}")
            }
            (VhdlType::Signed(_), true) | (VhdlType::Unsigned(_), false) => {
                write!(f, "resize({e}, {bits})")
            }
            (VhdlType::Unsigned(_), true) => write!(f, "signed(resize({e}, {bits}))"),
            (VhdlType::Signed(_), false) => write!(f, "unsigned(resize({e}, {bits}))"),
            (VhdlType::StdLogic, _) => write!(f, "to_unsigned(0, {bits}) -- std_logic cast of {e}"),
        }
    }
}

/// One VHDL source text under construction.
#[derive(Debug, Default)]
pub struct VhdlWriter {
    out: String,
    /// Architecture body of the open entity.
    body: String,
    /// Name of the open entity.
    name: String,
}

impl VhdlWriter {
    /// An empty text with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        VhdlWriter {
            out: String::with_capacity(bytes),
            ..Default::default()
        }
    }

    /// Writes the standard library header.
    pub fn header(&mut self) {
        self.out
            .push_str("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n");
    }

    /// Opens entity `name`; declare its ports first, then its signals and
    /// constants, and write body statements at any point before
    /// [`Entity::end`].
    pub fn entity(&mut self, name: impl Display) -> Entity<'_> {
        self.name.clear();
        let _ = write!(self.name, "{name}");
        let _ = writeln!(self.out, "entity {} is", self.name);
        self.body.clear();
        Entity {
            w: self,
            ports: 0,
            declaring: false,
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }
}

/// An open entity + `rtl` architecture pair of a [`VhdlWriter`].
#[must_use = "an entity is only complete once `end` is called"]
pub struct Entity<'w> {
    w: &'w mut VhdlWriter,
    /// Ports written so far.
    ports: usize,
    /// Whether the entity header is closed and the architecture's
    /// declarative part open.
    declaring: bool,
}

impl Entity<'_> {
    /// Declares a port. Ports precede every declaration.
    pub fn port(&mut self, name: impl Display, dir: PortDir, ty: VhdlType) {
        debug_assert!(!self.declaring, "port after a declaration");
        let out = &mut self.w.out;
        out.push_str(if self.ports == 0 { "  port (\n" } else { ";\n" });
        let dir = match dir {
            PortDir::In => "in ",
            PortDir::Out => "out",
        };
        let _ = write!(out, "    {name} : {dir} {ty}");
        self.ports += 1;
    }

    /// Closes the entity header and opens the architecture's declarative
    /// part, once.
    fn declare(&mut self) -> &mut String {
        if !self.declaring {
            self.declaring = true;
            let w = &mut *self.w;
            if self.ports > 0 {
                w.out.push_str("\n  );\n");
            }
            let _ = write!(
                w.out,
                "end entity {0};\n\narchitecture rtl of {0} is\n",
                w.name
            );
        }
        &mut self.w.out
    }

    /// Declares a signal.
    pub fn signal(&mut self, name: impl Display, ty: VhdlType) {
        let _ = writeln!(self.declare(), "  signal {name} : {ty};");
    }

    /// Declares a ROM table `name` of `ty` elements: a `{name}_t` array
    /// type and a constant holding `values`.
    pub fn rom(&mut self, name: &str, ty: VhdlType, values: impl ExactSizeIterator<Item = i64>) {
        let out = self.declare();
        let _ = writeln!(
            out,
            "  type {name}_t is array (0 to {}) of {ty};",
            values.len().saturating_sub(1)
        );
        let _ = write!(out, "  constant {name} : {name}_t := (");
        for (i, value) in values.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", Lit { value, ty });
        }
        out.push_str(");\n");
    }

    /// `target <= expr;`
    pub fn assign(&mut self, target: impl Display, expr: impl Display) {
        let _ = writeln!(self.w.body, "  {target} <= {expr};");
    }

    /// A comment line in the body.
    pub fn comment(&mut self, text: impl Display) {
        let _ = writeln!(self.w.body, "  -- {text}");
    }

    /// A process latching on the rising clock edge, under clock enable
    /// `enable` (a signal tested for `'1'`) when given; `latches` writes
    /// its assignments.
    pub fn process(
        &mut self,
        label: impl Display,
        enable: Option<&dyn Display>,
        latches: impl FnOnce(&mut Latches<'_>),
    ) {
        let body = &mut self.w.body;
        let _ = write!(
            body,
            "  {label}: process(clk)\n  begin\n    if rising_edge(clk) then\n"
        );
        let indent = match enable {
            Some(en) => {
                let _ = writeln!(body, "      if {en} = '1' then");
                "        "
            }
            None => "      ",
        };
        latches(&mut Latches { body, indent });
        if enable.is_some() {
            body.push_str("      end if;\n");
        }
        let _ = write!(body, "    end if;\n  end process {label};\n");
    }

    /// `label: entity work.entity port map (...);` with `map` writing the
    /// associations.
    pub fn instance(
        &mut self,
        label: impl Display,
        entity: impl Display,
        map: impl FnOnce(&mut PortMap<'_>),
    ) {
        let body = &mut self.w.body;
        let _ = write!(body, "  {label}: entity work.{entity} port map (");
        map(&mut PortMap { body, first: true });
        body.push_str(");\n");
    }

    /// Writes the architecture body and closes the entity.
    pub fn end(mut self) {
        self.declare();
        let w = self.w;
        w.out.push_str("begin\n");
        w.out.push_str(&w.body);
        w.out.push_str("end architecture rtl;\n\n");
    }
}

/// The assignments of one clocked process.
pub struct Latches<'b> {
    body: &'b mut String,
    indent: &'static str,
}

impl Latches<'_> {
    /// `target <= expr;` on each enabled edge.
    pub fn latch(&mut self, target: impl Display, expr: impl Display) {
        let _ = writeln!(self.body, "{}{target} <= {expr};", self.indent);
    }
}

/// The associations of one instance's port map.
pub struct PortMap<'b> {
    body: &'b mut String,
    first: bool,
}

impl PortMap<'_> {
    /// `formal => actual`.
    pub fn map(&mut self, formal: impl Display, actual: impl Display) {
        if !self.first {
            self.body.push_str(", ");
        }
        self.first = false;
        let _ = write!(self.body, "{formal} => {actual}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(build: impl FnOnce(&mut VhdlWriter)) -> String {
        let mut w = VhdlWriter::default();
        build(&mut w);
        w.finish()
    }

    #[test]
    fn type_display() {
        assert_eq!(VhdlType::Signed(8).to_string(), "signed(7 downto 0)");
        assert_eq!(VhdlType::Unsigned(1).to_string(), "unsigned(0 downto 0)");
        assert_eq!(VhdlType::StdLogic.to_string(), "std_logic");
        assert_eq!(VhdlType::vector(true, 12).bits(), 12);
        assert_eq!(VhdlType::vector(false, 0), VhdlType::Unsigned(1));
    }

    #[test]
    fn ports_are_separated_by_semicolons_but_the_last() {
        let t = text(|w| {
            let mut e = w.entity("acc");
            e.port("clk", PortDir::In, VhdlType::StdLogic);
            e.port("d", PortDir::In, VhdlType::Signed(32));
            e.port("q", PortDir::Out, VhdlType::Signed(32));
            e.assign("q", "d");
            e.end();
        });
        assert_eq!(
            t,
            "entity acc is\n  port (\n    clk : in  std_logic;\n    \
             d : in  signed(31 downto 0);\n    q : out signed(31 downto 0)\n  );\n\
             end entity acc;\n\narchitecture rtl of acc is\nbegin\n  q <= d;\n\
             end architecture rtl;\n\n"
        );
    }

    #[test]
    fn entity_without_ports_has_no_port_clause() {
        let t = text(|w| {
            let mut e = w.entity("empty");
            e.comment("nothing");
            e.end();
        });
        assert_eq!(
            t,
            "entity empty is\nend entity empty;\n\narchitecture rtl of empty is\n\
             begin\n  -- nothing\nend architecture rtl;\n\n"
        );
    }

    #[test]
    fn body_written_before_a_declaration_lands_after_begin() {
        let t = text(|w| {
            let mut e = w.entity("e");
            e.port("y", PortDir::Out, VhdlType::Unsigned(4));
            e.assign("y", "s");
            e.signal("s", VhdlType::Unsigned(4));
            e.end();
        });
        let (decls, body) = t.split_once("begin\n").unwrap();
        assert!(
            decls.ends_with("  signal s : unsigned(3 downto 0);\n"),
            "{t}"
        );
        assert_eq!(body, "  y <= s;\nend architecture rtl;\n\n");
    }

    #[test]
    fn process_with_and_without_enable() {
        let t = text(|w| {
            let mut e = w.entity("p");
            e.process("latch", Some(&"en"), |p| p.latch("r", "d"));
            e.process("pipeline", None, |p| {
                p.latch("a", "b");
                p.latch("c", "d");
            });
            e.end();
        });
        let body = t.split_once("begin\n").unwrap().1;
        assert_eq!(
            body,
            "  latch: process(clk)\n  begin\n    if rising_edge(clk) then\n\
             \x20     if en = '1' then\n        r <= d;\n      end if;\n    end if;\n\
             \x20 end process latch;\n\
             \x20 pipeline: process(clk)\n  begin\n    if rising_edge(clk) then\n\
             \x20     a <= b;\n      c <= d;\n    end if;\n  end process pipeline;\n\
             end architecture rtl;\n\n"
        );
    }

    #[test]
    fn instance_maps_are_comma_separated() {
        let t = text(|w| {
            let mut e = w.entity("top");
            e.instance("u1", "leaf", |m| {
                m.map("a", "x");
                m.map("y", format_args!("op{}_s{}", 3, 1));
            });
            e.instance("u2", "none", |_| {});
            e.end();
        });
        assert!(
            t.contains("  u1: entity work.leaf port map (a => x, y => op3_s1);\n"),
            "{t}"
        );
        assert!(t.contains("  u2: entity work.none port map ();\n"), "{t}");
    }

    #[test]
    fn rom_tables_write_every_element() {
        let t = text(|w| {
            let mut e = w.entity("rom");
            e.rom("table", VhdlType::Unsigned(16), [1, 2, 3].into_iter());
            e.rom(
                "neg",
                VhdlType::Signed(64),
                [-1, i64::MIN, i64::MAX, 0].into_iter(),
            );
            e.rom("bits", VhdlType::StdLogic, [0, 5].into_iter());
            e.end();
        });
        assert!(t.contains(
            "  type table_t is array (0 to 2) of unsigned(15 downto 0);\n  constant table : \
             table_t := (to_unsigned(1, 16), to_unsigned(2, 16), to_unsigned(3, 16));\n"
        ));
        assert!(
            t.contains(
                "neg_t := (to_signed(-1, 64), to_signed(-9223372036854775808, 64), \
                 to_signed(9223372036854775807, 64), to_signed(0, 64));"
            ),
            "{t}"
        );
        assert!(t.contains("bits_t := ('0', '1');"), "{t}");
    }

    #[test]
    fn entities_reuse_the_body_buffer() {
        let t = text(|w| {
            w.header();
            for n in ["a", "b"] {
                let mut e = w.entity(n);
                e.port("y", PortDir::Out, VhdlType::StdLogic);
                e.assign(
                    "y",
                    Lit {
                        value: 1,
                        ty: VhdlType::StdLogic,
                    },
                );
                e.end();
            }
        });
        assert!(t.starts_with("library ieee;\n"));
        assert_eq!(t.matches("  y <= '1';\n").count(), 2, "{t}");
        assert!(crate::lint::lint(&t).is_empty());
    }
}
