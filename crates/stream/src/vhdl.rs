//! Pipeline top-level VHDL emission.
//!
//! Each stage already has a complete single-kernel VHDL text (per-node
//! entities, `{func}_dp` top, smart-buffer and controller shells). The
//! pipeline emission concatenates those stage texts — entity names are
//! prefixed by the kernel function name, so they never collide — and
//! appends:
//!
//! * one behavioral FIFO entity per channel, with the derived depth and
//!   element width baked in (§4.1's "pre-existing parameterized FSMs"
//!   style, like the smart-buffer shell);
//! * a `{name}_pipeline` top entity instantiating every `{func}_dp`
//!   data path and every FIFO, with channel-fed window taps wired to the
//!   FIFO read side, producer output scalars to the FIFO write side, and
//!   unbound ports exported as pipeline-level I/O.
//!
//! The result passes the structural `roccc_vhdl::lint` checks: every
//! instance input is mapped (`V004`), every assignment target is
//! declared (`V001`) and entity/architecture counts balance (`V005`).

use crate::{Channel, CompiledPipeline};
use roccc_cparse::types::IntType;
use roccc_vhdl::writer::{Entity, PortDir, VhdlType, VhdlWriter};
use roccc_vhdl::{write_vhdl, Names};
use std::fmt::Display;

/// Lowercases `s` and replaces everything outside `[a-z0-9]` with `_`
/// so spec-derived names are legal VHDL identifiers.
fn sanitize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'p');
    }
    out
}

/// The element type a channel carries: its producer's output array's.
fn channel_elem(cp: &CompiledPipeline, c: &Channel) -> IntType {
    cp.stages[c.from_stage]
        .compiled
        .kernel
        .outputs
        .iter()
        .find(|o| o.array == c.from_array)
        .map(|o| o.elem)
        .unwrap_or(IntType {
            signed: true,
            bits: 32,
        })
}

/// Behavioral FIFO shell with the channel's depth and width baked in.
fn fifo_entity(w: &mut VhdlWriter, name: impl Display, elem: IntType, c: &Channel) {
    let data = VhdlType::vector(elem.signed, elem.bits);
    let mut e = w.entity(name);
    for p in ["clk", "we", "re"] {
        e.port(p, PortDir::In, VhdlType::StdLogic);
    }
    e.port("din", PortDir::In, data);
    e.port("dout", PortDir::Out, data);
    for p in ["empty", "full"] {
        e.port(p, PortDir::Out, VhdlType::StdLogic);
    }
    e.comment(format_args!(
        "behavioral FIFO shell: depth {} over a {}-element stream, \
         burst {}; the level counter nets re-decrements at synthesis",
        c.depth, c.len, c.burst
    ));
    e.signal("head", data);
    e.signal("level", VhdlType::Unsigned(16));
    e.process("store", Some(&"we"), |p| {
        p.latch("head", "din");
        p.latch("level", "level + 1");
    });
    e.assign("dout", "head");
    e.assign("empty", "'1' when level = to_unsigned(0, 16) else '0'");
    e.assign(
        "full",
        format_args!("'1' when level >= to_unsigned({}, 16) else '0'", c.depth),
    );
    e.end();
}

/// Generates the whole-pipeline VHDL: every stage's single-kernel text,
/// the per-channel FIFO entities, and the structural top level wiring
/// them together.
pub fn generate_pipeline_vhdl(cp: &CompiledPipeline) -> String {
    let mut w = VhdlWriter::default();
    for st in &cp.stages {
        write_vhdl(&mut w, &st.compiled.kernel, &st.compiled.datapath);
    }

    let pname = sanitize(&cp.spec.name);
    w.header();

    // One FIFO entity per channel, width from the producer's element type.
    for (i, c) in cp.channels.iter().enumerate() {
        fifo_entity(
            &mut w,
            format_args!("{pname}_fifo{i}"),
            channel_elem(cp, c),
            c,
        );
    }

    top_level(&mut w, cp, &pname);
    w.finish()
}

/// The `{name}_pipeline` structural top.
fn top_level(w: &mut VhdlWriter, cp: &CompiledPipeline, pname: &str) {
    let mut e = w.entity(format_args!("{pname}_pipeline"));
    e.port("clk", PortDir::In, VhdlType::StdLogic);
    e.port("ivalid", PortDir::In, VhdlType::StdLogic);
    e.port("ovalid", PortDir::Out, VhdlType::StdLogic);
    e.comment(format_args!(
        "process network `{}`: {} stage(s), {} channel(s)",
        cp.spec.name,
        cp.stages.len(),
        cp.channels.len()
    ));

    // Stage instances. Unbound stage ports become pipeline-level ports,
    // declared as they are found.
    let mut exported: Vec<String> = Vec::new();
    for (si, st) in cp.stages.iter().enumerate() {
        let sn = sanitize(&st.name);
        let kernel = &st.compiled.kernel;
        let dp = &st.compiled.datapath;
        let names = Names::new(dp);

        // Incoming channels feeding this stage, keyed by consumed array.
        let incoming: Vec<(usize, &Channel)> = cp
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.to_stage == si)
            .collect();

        // Stage input valid: external ivalid, or all feed channels non-empty.
        let iv_expr = if incoming.is_empty() {
            "ivalid".to_string()
        } else {
            let terms: Vec<String> = incoming
                .iter()
                .map(|(i, _)| format!("not ch{i}_empty"))
                .collect();
            terms.join(" and ")
        };
        e.assign(format_args!("{sn}_ivalid"), iv_expr);

        // Every data-path input port: channel-fed window taps read the
        // channel data bus; everything else becomes pipeline-level I/O.
        let mut actuals = Vec::with_capacity(dp.inputs.len() + dp.outputs.len());
        for ((n, t), id) in dp.inputs.iter().zip(&names.inputs) {
            let window = kernel
                .windows
                .iter()
                .find(|w| w.reads.iter().any(|r| r.scalar == *n));
            actuals.push(match window {
                Some(w) => match incoming.iter().find(|(_, c)| c.to_array == w.array) {
                    Some((i, _)) => format!("ch{i}_dout"),
                    None => {
                        let port = format!("in_{sn}_{}", sanitize(&w.array));
                        external(&mut e, &mut exported, port, PortDir::In, w.elem)
                    }
                },
                None => {
                    let port = format!("in_{sn}_{}", sanitize(id));
                    external(&mut e, &mut exported, port, PortDir::In, *t)
                }
            });
        }

        // Every output port: channel-bound scalars drive the channel data
        // bus (bursts serialize behaviorally), the rest exports.
        let mut chan_driven: Vec<usize> = Vec::new();
        for (out, id) in dp.outputs.iter().zip(&names.outputs) {
            let channel = kernel
                .outputs
                .iter()
                .find(|o| o.writes.iter().any(|w| w.scalar == out.name))
                .and_then(|o| {
                    cp.channels
                        .iter()
                        .position(|c| c.from_stage == si && c.from_array == o.array)
                });
            actuals.push(match channel {
                // Later burst elements of the same channel: open actual;
                // the behavioral serializer in the FIFO shell multiplexes
                // the burst.
                Some(i) if chan_driven.contains(&i) => "open".to_string(),
                Some(i) => {
                    chan_driven.push(i);
                    format!("ch{i}_din")
                }
                None => {
                    let port = format!("out_{sn}_{}", sanitize(id));
                    external(&mut e, &mut exported, port, PortDir::Out, out.ty)
                }
            });
        }

        e.instance(format_args!("u_{sn}"), &names.dp, |m| {
            m.map("clk", "clk");
            m.map("ivalid", format_args!("{sn}_ivalid"));
            m.map("ovalid", format_args!("{sn}_ovalid"));
            let formals = names.inputs.iter().map(|n| ("in", n));
            let formals = formals.chain(names.outputs.iter().map(|n| ("out", n)));
            for ((dir, n), actual) in formals.zip(&actuals) {
                m.map(format_args!("{dir}_{n}"), actual);
            }
        });
    }

    // Channel plumbing signals.
    for (i, c) in cp.channels.iter().enumerate() {
        let elem = channel_elem(cp, c);
        let data = VhdlType::vector(elem.signed, elem.bits);
        e.signal(format_args!("ch{i}_din"), data);
        e.signal(format_args!("ch{i}_dout"), data);
        for suffix in ["re", "empty", "full"] {
            e.signal(format_args!("ch{i}_{suffix}"), VhdlType::StdLogic);
        }
    }

    // Per-stage valid and start signals.
    for st in &cp.stages {
        let sn = sanitize(&st.name);
        e.signal(format_args!("{sn}_ovalid"), VhdlType::StdLogic);
        e.signal(format_args!("{sn}_ivalid"), VhdlType::StdLogic);
    }

    // FIFO instances and read strobes.
    for (i, c) in cp.channels.iter().enumerate() {
        let prod = sanitize(&cp.stages[c.from_stage].name);
        e.assign(format_args!("ch{i}_re"), format_args!("not ch{i}_empty"));
        e.instance(
            format_args!("u_fifo{i}"),
            format_args!("{pname}_fifo{i}"),
            |m| {
                m.map("clk", "clk");
                m.map("we", format_args!("{prod}_ovalid"));
                for bus in ["din", "re", "dout", "empty", "full"] {
                    m.map(bus, format_args!("ch{i}_{bus}"));
                }
            },
        );
    }

    let last = sanitize(&cp.stages.last().expect("non-empty pipeline").name);
    e.assign("ovalid", format_args!("{last}_ovalid"));
    e.end();
}

/// Declares pipeline-level port `port` unless `exported` already holds
/// it, and returns it as an instance actual.
fn external(
    e: &mut Entity<'_>,
    exported: &mut Vec<String>,
    port: String,
    dir: PortDir,
    ty: IntType,
) -> String {
    if !exported.contains(&port) {
        e.port(&port, dir, VhdlType::vector(ty.signed, ty.bits));
        exported.push(port.clone());
    }
    port
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_pipeline, parse_spec};
    use roccc::CompileOptions;

    const TWO_STAGE: &str = "void scale(int16 A[32], int16 B[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
      void offset(int16 B[32], int16 C[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { C[i] = B[i] + 100; } }";

    fn pipeline_text() -> String {
        let spec = parse_spec("name demo\npipeline scale | offset").unwrap();
        let cp = compile_pipeline(TWO_STAGE, &spec, &CompileOptions::default()).unwrap();
        generate_pipeline_vhdl(&cp)
    }

    #[test]
    fn emits_stage_fifo_and_top_entities() {
        let text = pipeline_text();
        assert!(text.contains("entity scale_dp is"), "{text}");
        assert!(text.contains("entity offset_dp is"));
        assert!(text.contains("entity demo_fifo0 is"));
        assert!(text.contains("entity demo_pipeline is"));
        assert!(text.contains("u_scale: entity work.scale_dp"));
        assert!(text.contains("u_fifo0: entity work.demo_fifo0"));
        // The unbound edges surface as pipeline ports.
        assert!(text.contains("in_scale_a"));
        assert!(text.contains("out_offset_"));
    }

    #[test]
    fn pipeline_text_is_lint_clean() {
        let text = pipeline_text();
        let findings = roccc_vhdl::lint::lint(&text);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn channel_feeds_consumer_window_taps() {
        let text = pipeline_text();
        // The offset stage's window taps read the channel data bus, not a
        // pipeline-level port.
        assert!(text.contains("in_b0 => ch0_dout"), "{text}");
        assert!(!text.contains("in_offset_b"), "bound input must not export");
    }

    #[test]
    fn sanitize_makes_identifiers() {
        assert_eq!(sanitize("Wavelet Demo"), "wavelet_demo");
        assert_eq!(sanitize("3stage"), "p3stage");
        assert_eq!(sanitize("a-b"), "a_b");
    }
}
