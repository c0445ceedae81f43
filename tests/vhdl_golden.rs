//! Golden pin of the generated VHDL text.
//!
//! Pins the byte length and FNV-1a-64 hash of every VHDL output below, so
//! a change to the generator that is meant to keep the text must keep
//! every byte:
//!
//! * the nine Table 1 kernels under the default options and under the
//!   `full` set (`--range-narrow --pipeline-ii auto --prove`);
//! * every candidate of the fir, dct and wavelet sweep over unroll
//!   {1,2,3,4,6,8} × strip-mine {0,2,4,8} under `full` that compiles;
//! * the `wavelet | threshold | encode` pipeline under both option sets.
//!
//! Every pinned output must also be free of lint findings.
//!
//! When a change is meant to alter the text, run
//! `cargo test --test vhdl_golden -- --nocapture` and copy the printed
//! table over `PINS`.

use roccc_suite::explore::Space;
use roccc_suite::ipcores::benchmarks;
use roccc_suite::ipcores::kernels::{wavelet_pipeline_source, wavelet_pipeline_spec};
use roccc_suite::roccc::hash::Fnv64;
use roccc_suite::roccc::{compile, CompileOptions};
use roccc_suite::stream::{compile_pipeline, generate_pipeline_vhdl, parse_spec};
use roccc_suite::vhdl::lint::lint;
use std::sync::OnceLock;

/// `(label, byte length, FNV-1a-64 hash)` of each pinned output.
const PINS: &[(&str, usize, u64)] = &[
    ("bit_correlator.default", 4753, 0xc5767eafb1cd743e),
    ("bit_correlator.full", 4753, 0x1e28bbea0876e300),
    ("mul_acc.default", 5575, 0x1f641c012fd6274b),
    ("mul_acc.full", 5575, 0xd9ebb63b433d8eda),
    ("udiv.default", 34546, 0xc45ba0a500c7099c),
    ("udiv.full", 34255, 0x1ff58c19f0a31bb7),
    ("square_root.default", 65737, 0xffdddeb485d27b86),
    ("square_root.full", 65278, 0x1f671bacff434b6e),
    ("cos.default", 25422, 0xc06c6493e7f51374),
    ("cos.full", 25434, 0x7e0a9102e6156b79),
    ("arbitrary_lut.default", 25804, 0xb38e3856a5f45ac6),
    ("arbitrary_lut.full", 25804, 0xb38e3856a5f45ac6),
    ("fir.default", 6849, 0xdde3432a026e2f24),
    ("fir.full", 6849, 0xdde3432a026e2f24),
    ("dct.default", 19818, 0x4ee3d0e523e35985),
    ("dct.full", 20358, 0x71ecd857fefeba9b),
    ("wavelet.default", 16623, 0x9299efbc553d317e),
    ("wavelet.full", 16947, 0xf2f5746f4ee818bb),
    ("fir.full.u1s0", 6849, 0xdde3432a026e2f24),
    ("fir.full.u1s2", 10728, 0xb95d4db5ac0d81cf),
    ("fir.full.u1s4", 18364, 0x71c84b29bae5cf89),
    ("fir.full.u2s0", 10728, 0xb95d4db5ac0d81cf),
    ("fir.full.u2s2", 18364, 0x71c84b29bae5cf89),
    ("fir.full.u4s0", 18364, 0x71c84b29bae5cf89),
    ("dct.full.u1s0", 20358, 0x71ecd857fefeba9b),
    ("wavelet.full.u1s0", 16947, 0xf2f5746f4ee818bb),
    ("pipeline.default", 30305, 0x394e4c1e3227bf98),
    ("pipeline.full", 30685, 0xc0a72740bcaed089),
];

fn full(base: &CompileOptions) -> CompileOptions {
    CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        prove: true,
        ..base.clone()
    }
}

/// Every pinned `(label, VHDL text)`, in `PINS` order.
fn outputs() -> &'static [(String, String)] {
    static OUTPUTS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    OUTPUTS.get_or_init(|| {
        let mut out = Vec::new();
        let benches = benchmarks();
        for b in &benches {
            for (set, opts) in [("default", b.opts.clone()), ("full", full(&b.opts))] {
                let hw = compile(&b.source, b.func, &opts)
                    .unwrap_or_else(|e| panic!("{} {set}: {e}", b.name));
                out.push((format!("{}.{set}", b.name), hw.to_vhdl()));
            }
        }
        let space = Space::new(&[1, 2, 3, 4, 6, 8], &[0, 2, 4, 8], false);
        for b in benches
            .iter()
            .filter(|b| ["fir", "dct", "wavelet"].contains(&b.name))
        {
            let base = full(&b.opts);
            for c in space.candidates(&base) {
                if let Ok(hw) = compile(&b.source, b.func, &c.options(&base)) {
                    out.push((
                        format!("{}.full.u{}s{}", b.name, c.unroll, c.strip),
                        hw.to_vhdl(),
                    ));
                }
            }
        }
        let spec = parse_spec(&wavelet_pipeline_spec()).expect("pipeline spec");
        let source = wavelet_pipeline_source();
        for (set, opts) in [
            ("default", CompileOptions::default()),
            ("full", full(&CompileOptions::default())),
        ] {
            let cp = compile_pipeline(&source, &spec, &opts)
                .unwrap_or_else(|e| panic!("pipeline {set}: {e}"));
            out.push((format!("pipeline.{set}"), generate_pipeline_vhdl(&cp)));
        }
        out
    })
}

fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

#[test]
fn vhdl_is_byte_identical_to_the_pins() {
    let got: Vec<(&str, usize, u64)> = outputs()
        .iter()
        .map(|(label, text)| (label.as_str(), text.len(), fnv(text)))
        .collect();
    if got != PINS {
        for (label, len, hash) in &got {
            println!("    (\"{label}\", {len}, {hash:#018x}),");
        }
        for (i, (g, p)) in got.iter().zip(PINS).enumerate() {
            assert_eq!(g, p, "pin {i} moved");
        }
        panic!("{} outputs, {} pins", got.len(), PINS.len());
    }
}

#[test]
fn every_pinned_output_is_lint_clean() {
    for (label, text) in outputs() {
        let findings = lint(text);
        assert!(findings.is_empty(), "{label}: {findings:?}");
    }
}
