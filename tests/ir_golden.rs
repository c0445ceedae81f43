//! Golden pin of the optimized SSA IR (`--emit ir`).
//!
//! Pins the byte length and FNV-1a-64 hash of `Compiled::ir.dump()` for
//! every compile below, so a change to the lowering, SSA construction or
//! scalar optimizer that is meant to keep the IR must keep every byte:
//!
//! * the nine Table 1 kernels under the default options and under the
//!   `full` set (`--range-narrow --pipeline-ii auto --prove`);
//! * every candidate of the fir, dct and wavelet sweep over unroll
//!   {1,2,3,4,6,8} × strip-mine {0,2,4,8} under `full` that compiles;
//! * 64 seeded `gen_kernel_source` kernels under both option sets.
//!
//! When a change is meant to alter the IR, run
//! `cargo test --test ir_golden -- --nocapture` and copy the printed
//! table over `PINS`.

use roccc_suite::explore::Space;
use roccc_suite::ipcores::benchmarks;
use roccc_suite::roccc::hash::Fnv64;
use roccc_suite::roccc::{compile, CompileOptions};
use roccc_suite::testrand::exprgen::gen_kernel_source;
use roccc_suite::testrand::XorShift64;

/// `(label, byte length, FNV-1a-64 hash)` of each pinned IR dump.
const PINS: &[(&str, usize, u64)] = &[
    ("bit_correlator.default", 1173, 0x5940fe61b56e34bd),
    ("bit_correlator.full", 1173, 0x5940fe61b56e34bd),
    ("mul_acc.default", 391, 0x04c5e0ce22e99339),
    ("mul_acc.full", 391, 0x04c5e0ce22e99339),
    ("udiv.default", 3949, 0x7b2cb9c87b2afb7d),
    ("udiv.full", 3949, 0x7b2cb9c87b2afb7d),
    ("square_root.default", 8842, 0xe8f398c7d3705320),
    ("square_root.full", 8842, 0xe8f398c7d3705320),
    ("cos.default", 107, 0xe0666cfac0595fc3),
    ("cos.full", 107, 0xe0666cfac0595fc3),
    ("arbitrary_lut.default", 109, 0xc9c728cd093fb842),
    ("arbitrary_lut.full", 109, 0xc9c728cd093fb842),
    ("fir.default", 881, 0xd7daaa431c2b1135),
    ("fir.full", 881, 0xd7daaa431c2b1135),
    ("dct.default", 3125, 0x43359f69332f4d12),
    ("dct.full", 3125, 0x43359f69332f4d12),
    ("wavelet.default", 3390, 0xf3f5ed597c55e17f),
    ("wavelet.full", 3390, 0xf3f5ed597c55e17f),
    ("fir.full.u1s0", 881, 0xd7daaa431c2b1135),
    ("fir.full.u1s2", 1486, 0xb32b67c16efa739e),
    ("fir.full.u1s4", 2744, 0x2b7fd96fa2edab93),
    ("fir.full.u2s0", 1486, 0xb32b67c16efa739e),
    ("fir.full.u2s2", 2744, 0x2b7fd96fa2edab93),
    ("fir.full.u4s0", 2744, 0x2b7fd96fa2edab93),
    ("dct.full.u1s0", 3125, 0x43359f69332f4d12),
    ("wavelet.full.u1s0", 3390, 0xf3f5ed597c55e17f),
    ("gen0.default", 86, 0x9ac32222e41230d1),
    ("gen0.full", 86, 0x9ac32222e41230d1),
    ("gen1.default", 189, 0xab5d8a09583acb6f),
    ("gen1.full", 189, 0xab5d8a09583acb6f),
    ("gen2.default", 88, 0x8d6b7b18e6ef2f35),
    ("gen2.full", 88, 0x8d6b7b18e6ef2f35),
    ("gen3.default", 405, 0x0f7d2c8111f8e5e4),
    ("gen3.full", 405, 0x0f7d2c8111f8e5e4),
    ("gen4.default", 316, 0x4307ee3727e922c1),
    ("gen4.full", 316, 0x4307ee3727e922c1),
    ("gen5.default", 87, 0x2de247b3775c0c3a),
    ("gen5.full", 87, 0x2de247b3775c0c3a),
    ("gen6.default", 160, 0x3c4123706021ce87),
    ("gen6.full", 160, 0x3c4123706021ce87),
    ("gen7.default", 396, 0x5aeebb4192d9e7d1),
    ("gen7.full", 243, 0x652acf3a9e5dc9ec),
    ("gen8.default", 341, 0xa8dc32aadc57bba6),
    ("gen8.full", 341, 0xa8dc32aadc57bba6),
    ("gen9.default", 86, 0x1ab9cf905d8d2881),
    ("gen9.full", 86, 0x1ab9cf905d8d2881),
    ("gen10.default", 86, 0x9ac32222e41230d1),
    ("gen10.full", 86, 0x9ac32222e41230d1),
    ("gen11.default", 355, 0x6718e454388c41ac),
    ("gen11.full", 355, 0x6718e454388c41ac),
    ("gen12.default", 399, 0x41891214a4e82862),
    ("gen12.full", 399, 0x41891214a4e82862),
    ("gen13.default", 133, 0x3023b8f687a32684),
    ("gen13.full", 133, 0x3023b8f687a32684),
    ("gen14.default", 449, 0x65d9f355d1d48665),
    ("gen14.full", 449, 0x65d9f355d1d48665),
    ("gen15.default", 161, 0x6d3efeb895b3315b),
    ("gen15.full", 161, 0x6d3efeb895b3315b),
    ("gen16.default", 86, 0x1ab9cf905d8d2881),
    ("gen16.full", 86, 0x1ab9cf905d8d2881),
    ("gen17.default", 88, 0x8511b3b0e8a68a9a),
    ("gen17.full", 88, 0x8511b3b0e8a68a9a),
    ("gen18.default", 288, 0xbe43733b8f50e64f),
    ("gen18.full", 288, 0xbe43733b8f50e64f),
    ("gen19.default", 365, 0x336e29f784418e87),
    ("gen19.full", 365, 0x336e29f784418e87),
    ("gen20.default", 292, 0x89fac692d6eb30c3),
    ("gen20.full", 87, 0x9934b0a57833cf8c),
    ("gen21.default", 133, 0x3023b8f687a32684),
    ("gen21.full", 133, 0x3023b8f687a32684),
    ("gen22.default", 400, 0x0c58bb9a7fd95e98),
    ("gen22.full", 400, 0x0c58bb9a7fd95e98),
    ("gen23.default", 320, 0x1297d64e62738943),
    ("gen23.full", 320, 0x1297d64e62738943),
    ("gen24.default", 556, 0xa4d48c5b2ef43c9b),
    ("gen24.full", 556, 0xa4d48c5b2ef43c9b),
    ("gen25.default", 89, 0xb483881bcb047ea8),
    ("gen25.full", 89, 0xb483881bcb047ea8),
    ("gen26.default", 136, 0x5a4fa0a7e686b1f5),
    ("gen26.full", 136, 0x5a4fa0a7e686b1f5),
    ("gen27.default", 161, 0xca0840ae072aa937),
    ("gen27.full", 161, 0xca0840ae072aa937),
    ("gen28.default", 86, 0x9ac32222e41230d1),
    ("gen28.full", 86, 0x9ac32222e41230d1),
    ("gen29.default", 89, 0xd5a51f2be4a823d6),
    ("gen29.full", 89, 0xd5a51f2be4a823d6),
    ("gen30.default", 346, 0x18e429c3f5392622),
    ("gen30.full", 346, 0x18e429c3f5392622),
    ("gen31.default", 89, 0xd5a51f2be4a823d6),
    ("gen31.full", 89, 0xd5a51f2be4a823d6),
    ("gen32.default", 86, 0x1ab9cf905d8d2881),
    ("gen32.full", 86, 0x1ab9cf905d8d2881),
    ("gen33.default", 400, 0x6068f6d243668fb5),
    ("gen33.full", 400, 0x6068f6d243668fb5),
    ("gen34.default", 382, 0xfc4c47fda627b21d),
    ("gen34.full", 382, 0xfc4c47fda627b21d),
    ("gen35.default", 133, 0x3023b8f687a32684),
    ("gen35.full", 133, 0x3023b8f687a32684),
    ("gen36.default", 639, 0x9cfe2077bfb4e761),
    ("gen36.full", 639, 0x9cfe2077bfb4e761),
    ("gen37.default", 86, 0x50b071f349d64eb9),
    ("gen37.full", 86, 0x50b071f349d64eb9),
    ("gen38.default", 432, 0xbfc3f0a6e1b8ddc8),
    ("gen38.full", 432, 0xbfc3f0a6e1b8ddc8),
    ("gen39.default", 86, 0x1ab9cf905d8d2881),
    ("gen39.full", 86, 0x1ab9cf905d8d2881),
    ("gen40.default", 427, 0x1c40a61a093537f4),
    ("gen40.full", 427, 0x1c40a61a093537f4),
    ("gen41.default", 248, 0x26782e04dfa73489),
    ("gen41.full", 248, 0x26782e04dfa73489),
    ("gen42.default", 273, 0x40892f0db501a9fb),
    ("gen42.full", 273, 0x40892f0db501a9fb),
    ("gen43.default", 532, 0xee21be2e3a88e657),
    ("gen43.full", 532, 0xee21be2e3a88e657),
    ("gen44.default", 89, 0xa623f439148024d2),
    ("gen44.full", 89, 0xa623f439148024d2),
    ("gen45.default", 293, 0x91f4879e9fa239eb),
    ("gen45.full", 87, 0x0669684abd311bae),
    ("gen46.default", 806, 0x9871dc0d47caeca9),
    ("gen46.full", 480, 0xa123a31abb6d078b),
    ("gen47.default", 292, 0x28ffa772ac255d37),
    ("gen47.full", 292, 0x28ffa772ac255d37),
    ("gen48.default", 268, 0x44f2b4ecd4748404),
    ("gen48.full", 268, 0x44f2b4ecd4748404),
    ("gen49.default", 262, 0x43879c4bfe60a36a),
    ("gen49.full", 262, 0x43879c4bfe60a36a),
    ("gen50.default", 295, 0xe8c7b5a1e857b893),
    ("gen50.full", 295, 0xe8c7b5a1e857b893),
    ("gen51.default", 88, 0x2737acd6e0bddc9d),
    ("gen51.full", 88, 0x2737acd6e0bddc9d),
    ("gen52.default", 668, 0xf57e6dec08f912c7),
    ("gen52.full", 609, 0xf0bd8a6002f7bc4d),
    ("gen53.default", 243, 0x31191ca2f1548f47),
    ("gen53.full", 243, 0x31191ca2f1548f47),
    ("gen54.default", 86, 0x1ab9cf905d8d2881),
    ("gen54.full", 86, 0x1ab9cf905d8d2881),
    ("gen55.default", 292, 0x253778c9f65bb5c2),
    ("gen55.full", 87, 0xe3e1c356c939218d),
    ("gen56.default", 294, 0xe04cf5242ca6d6df),
    ("gen56.full", 294, 0xe04cf5242ca6d6df),
    ("gen57.default", 88, 0x233ca3a25cb8c2b9),
    ("gen57.full", 88, 0x233ca3a25cb8c2b9),
    ("gen58.default", 89, 0x84a51d2ef4dfd283),
    ("gen58.full", 89, 0x84a51d2ef4dfd283),
    ("gen59.default", 291, 0xb43b5d35fede59be),
    ("gen59.full", 87, 0xbb9e9a4bf3ddbef2),
    ("gen60.default", 86, 0x50b071f349d64eb9),
    ("gen60.full", 86, 0x50b071f349d64eb9),
    ("gen61.default", 133, 0x0a417cd5cae03cc2),
    ("gen61.full", 133, 0x0a417cd5cae03cc2),
    ("gen62.default", 504, 0xd174071b376e03ad),
    ("gen62.full", 504, 0xd174071b376e03ad),
    ("gen63.default", 556, 0xbf4703c448200b11),
    ("gen63.full", 556, 0xbf4703c448200b11),
];

fn full(base: &CompileOptions) -> CompileOptions {
    CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        prove: true,
        ..base.clone()
    }
}

/// Every pinned `(label, IR dump)`, in `PINS` order.
fn outputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let benches = benchmarks();
    for b in &benches {
        for (set, opts) in [("default", b.opts.clone()), ("full", full(&b.opts))] {
            let c = compile(&b.source, b.func, &opts)
                .unwrap_or_else(|e| panic!("{} {set}: {e}", b.name));
            out.push((format!("{}.{set}", b.name), c.ir.dump()));
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
                    hw.ir.dump(),
                ));
            }
        }
    }
    for case in 0..64u64 {
        let mut rng = XorShift64::new(0x1e0 + case);
        let src = gen_kernel_source(&mut rng, 4);
        let base = CompileOptions::default();
        for (set, opts) in [("default", base.clone()), ("full", full(&base))] {
            if let Ok(c) = compile(&src, "k", &opts) {
                out.push((format!("gen{case}.{set}"), c.ir.dump()));
            }
        }
    }
    out
}

fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

#[test]
fn ir_is_byte_identical_to_the_pins() {
    let got: Vec<(String, usize, u64)> = outputs()
        .into_iter()
        .map(|(label, text)| (label, text.len(), fnv(&text)))
        .collect();
    let got: Vec<(&str, usize, u64)> = got.iter().map(|(l, n, h)| (l.as_str(), *n, *h)).collect();
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
