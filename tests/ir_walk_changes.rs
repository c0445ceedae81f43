//! Kernels whose optimized IR (`--emit ir`) changed when the scalar
//! optimizer went from a five-pass fixpoint loop to dominator-tree walks.
//!
//! The walks keep every pin of `tests/ir_golden.rs`. A differential of
//! the two optimizers over 13 820 generated kernels found these nine,
//! all from a generator of if/else kernels with mixed integer widths
//! and `* 2^k`, `/ 2^k`, `% 2^k`, where they disagree. An `LDC` of
//! another type that a later fixpoint round deletes shadows a dominating
//! constant in the value-number table (see `Walk::block` in
//! `crates/suifvm/src/opt.rs`). The fixpoint merged the duplicate once
//! the shadowing constant was gone; the walks keep it. So the IR holds
//! one duplicate `LDC` (in typed1439 and typed2784 also the shift or mask
//! that reads it, a duplicate of a dominating one), or in typed1673 keeps
//! the other of two equal constants. The outputs are unchanged, which
//! `outputs_match_the_golden_model` checks. Under `full` the range fold
//! and its re-optimization remove the extra constant in typed1439 and
//! typed2784.
//!
//! `PINS` pins the walks' IR beside a record of the fixpoint
//! optimizer's. A change meant to alter this IR runs
//! `cargo test --test ir_walk_changes -- --nocapture` and copies the
//! printed table over `PINS`.

use roccc_suite::cparse::{frontend, Interpreter};
use roccc_suite::roccc::hash::Fnv64;
use roccc_suite::roccc::{compile, CompileOptions};
use roccc_suite::suifvm::IrMachine;
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

/// `(label, byte length, FNV-1a-64 hash)` of `Compiled::ir.dump()` as
/// the walks emit it; each comment records the fixpoint optimizer's.
const PINS: &[(&str, usize, u64)] = &[
    ("typed196.default", 1744, 0x9bf72b310b36e3d9), // fixpoint: 1721, 0x6efa8e792af6014d
    ("typed196.full", 1744, 0x9bf72b310b36e3d9),    // fixpoint: 1721, 0x6efa8e792af6014d
    ("typed441.default", 1030, 0xcf1f75d588bcd96e), // fixpoint: 1008, 0x05bbe8f621716ab1
    ("typed441.full", 1030, 0xcf1f75d588bcd96e),    // fixpoint: 1008, 0x05bbe8f621716ab1
    ("typed961.default", 1055, 0x96e11f646ac05de9), // fixpoint: 1033, 0x18937de80f02dbef
    ("typed961.full", 1055, 0x96e11f646ac05de9),    // fixpoint: 1033, 0x18937de80f02dbef
    ("typed1341.default", 1380, 0xe0f877d8aa3bb1cd), // fixpoint: 1357, 0x9ee541207d849676
    ("typed1341.full", 1380, 0xe0f877d8aa3bb1cd),   // fixpoint: 1357, 0x9ee541207d849676
    ("typed1439.default", 2154, 0x6a6bb453198421ec), // fixpoint: 2098, 0x23373ad3c4d5b90f
    ("typed1439.full", 1713, 0xc37269aad9a2b2fd),   // fixpoint: same
    ("typed1673.default", 1252, 0x7c172f1bec240e80), // fixpoint: 1252, 0xbc56f348b65e9fb2
    ("typed1673.full", 1097, 0xdbfd161e9c9f401a),   // fixpoint: 1097, 0x3b47d775382507cc
    ("typed2300.default", 1361, 0xc1dd5058596c3cbf), // fixpoint: 1339, 0x2eb8ee6ceba57747
    ("typed2300.full", 1361, 0xc1dd5058596c3cbf),   // fixpoint: 1339, 0x2eb8ee6ceba57747
    ("typed2784.default", 1264, 0xf6cc39085fa1e1f8), // fixpoint: 1212, 0x3691990c02dd560a
    ("typed2784.full", 1103, 0x8db3ecf281198cc7),   // fixpoint: same
    ("typed2866.default", 1238, 0xf7f0e371738ab24d), // fixpoint: 1214, 0xca51321b719cbe11
    ("typed2866.full", 1238, 0xf7f0e371738ab24d),   // fixpoint: 1214, 0xca51321b719cbe11
];

/// The kernels, each compiled as `k` under the default and `full` sets.
const SOURCES: &[(&str, &str)] = &[
    (
        "typed196",
        "void k(int a, int b, int c, uint16 u, int* o, uint16* p) {
  uint5 x = ((-((-62))) << 7);
  uint5 y = (u / 16) + ((a << 6));
  if (((((-9) == c) + b)) + x * 4) { y = (((72) + c) != (a - (76))); }
  if ((((98) * (71)) - (-(b)))) { x = ((~((a ? (-33) : (19))))) * 16; } else { x = (u % 16) + (((a ? b : (10)) >> 2)); }
  *o = x + y * 2 + (u % 4) + ((((-86) <= c) != ((34) | c)));
  *p = y - x;
}",
    ),
    (
        "typed441",
        "void k(int a, int b, int c, uint16 u, int* o, uint16* p) {
  uint4 x = ((-44) << 5);
  int12 y = ((-26)) + x * 4;
  if ((u % 16) + ((c ? (-86) : a))) { x = (((-33) == (-69))) * 8; } else { y = (u / 8) + (((-29) < c)); }
  *o = x + y * 2 + (u / 4) + ((a ^ b));
  *p = y - x;
}",
    ),
    (
        "typed961",
        "void k(int a, int b, int c, uint16 u, int* o, int8* p) {
  int12 x = (87);
  uint16 y = ((b < c) >> 0);
  if ((c) * 16) { x = ((a ? (72) : (-43)) != (c ^ (-3))); } else { y = ((((-35) < b) <= c)) + x * 4; }
  *o = x + y * 2 + (u / 16) + ((-86));
  *p = y - x;
}",
    ),
    (
        "typed1341",
        "void k(int a, int b, int c, uint16 u, int* o, uint8* p) {
  uint4 x = (c) * 16;
  uint8 y = (a) * 16;
  if (((a >> 6)) * 16) { x = ((-34)) * 4; if ((u / 8) + (((76) <= b))) { y = (u / 16) + (((-7) * c)); } else { y = ((a <= (35))) + x * 4; } } else { y = ((-34)) * 4; x = (u / 16) + (((-7) * c)); }
  *o = x + y * 2 + (u / 4) + (((92) < (-15)));
  *p = y - x;
}",
    ),
    (
        "typed1439",
        "void k(int a, int b, int c, uint16 u, int* o, uint8* p) {
  uint32 x = ((-8) >> 7);
  uint4 y = (u / 16) + (((a ? (b ^ (97)) : (c ^ c)) ? ((a - (21)) << 2) : (-60)));
  if (((-((-((~(a))))))) * 4) { y = ((c - ((b ? (44) : b) - (~((49)))))) + x * 4 * 8; } else { if ((u / 16) + ((((54) == ((98) ^ (66))) <= (((72) < (10)) == ((89) == a))))) { x = ((((-95) ? (48) : (1)) - (95)) != ((c + (82)) <= (c & (66)))) * 4; } }
  *o = x + y * 2 + ((a == (~((-(c)))))) + x * 4;
  *p = y - x;
}",
    ),
    (
        "typed1673",
        "void k(int a, int b, int c, uint16 u, int* o, int8* p) {
  uint5 x = ((-87)) * 16;
  uint5 y = (u % 16) + ((-((((-40) << 0) != c))));
  if ((((-5) - (-69)) == (((-80) != (-32)) < ((26) * b)))) { y = ((23)) + x * 4 * 8; } else { if ((a) + x * 4) { x = (u / 4) + ((61)) * 4; } }
  *o = x + y * 2 + (c) + x * 4;
  *p = y - x;
}",
    ),
    (
        "typed2300",
        "void k(int a, int b, int c, uint16 u, int* o, int* p) {
  uint5 x = ((-3) << 7);
  uint5 y = a;
  if (((-34) + ((a < (-81)) * ((65) & (-26))))) { y = ((((~(c)) < (a <= c)) | ((a <= a) != (c >> 1)))) + x * 4 * 8; } else { if (((a & (22)) ^ (((35) ^ c) ? (-76) : (a ^ a)))) { x = (((-6) ? ((1) < ((-29) - (26))) : (((86) ? (-19) : a) - ((23) ^ b)))) + x * 4 * 4; } }
  *o = x + y * 2 + (b) * 8;
  *p = y - x;
}",
    ),
    (
        "typed2784",
        "void k(int a, int b, int c, uint16 u, int* o, uint16* p) {
  int16 x = (-((31)));
  uint8 y = (u % 4) + ((c ^ (53)));
  if (((c <= (-50))) + x * 4) { y = ((a <= (74))) + x * 4 * 8; } else { if ((c - a)) { x = (b) + x * 4 * 4; } }
  *o = x + y * 2 + (u % 4) + (c);
  *p = y - x;
}",
    ),
    (
        "typed2866",
        "void k(int a, int b, int c, uint16 u, int* o, int16* p) {
  int16 x = (((15) ^ (26)) ? (a == (95)) : (-(b)));
  int16 y = ((-31)) + x * 4;
  if ((a) * 16) { x = ((((-62) >> 3) & (54))) * 4; if (((a & ((-96) | (-19)))) + x * 4) { y = a; } else { y = (((a != (-20)) ? ((-95) < a) : ((-56) & a))) * 16; } } else { y = ((((-62) >> 3) & (54))) * 4; x = a; }
  *o = x + y * 2 + (u % 8) + (c);
  *p = y - x;
}",
    ),
];

fn option_sets() -> [(&'static str, CompileOptions); 2] {
    let base = CompileOptions::default();
    let full = CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        prove: true,
        ..base.clone()
    };
    [("default", base), ("full", full)]
}

fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

#[test]
fn ir_is_byte_identical_to_the_pins() {
    let mut got = Vec::new();
    for (label, src) in SOURCES {
        for (set, opts) in option_sets() {
            let c = compile(src, "k", &opts).unwrap_or_else(|e| panic!("{label} {set}: {e}"));
            let text = c.ir.dump();
            got.push((format!("{label}.{set}"), text.len(), fnv(&text)));
        }
    }
    let got: Vec<(&str, usize, u64)> = got.iter().map(|(l, n, h)| (l.as_str(), *n, *h)).collect();
    if got != PINS {
        for (label, len, hash) in &got {
            println!("    (\"{label}\", {len}, {hash:#018x}),");
        }
        assert_eq!(got, PINS);
    }
}

#[test]
fn outputs_match_the_golden_model() {
    let mut rng = XorShift64::new(0x1c0);
    for (label, src) in SOURCES {
        let prog = frontend(src).unwrap();
        for (set, opts) in option_sets() {
            let c = compile(src, "k", &opts).unwrap();
            let mut m = IrMachine::new(&c.ir);
            for _ in 0..16 {
                let args: Vec<i64> =
                    c.ir.inputs
                        .iter()
                        .map(|(_, t)| t.wrap(rng.gen_range(-(1 << 20), (1 << 20) - 1)))
                        .collect();
                let got = m.run(&args).unwrap();
                let golden = Interpreter::new(&prog)
                    .call("k", &args, &mut HashMap::new())
                    .unwrap();
                let want: Vec<i64> =
                    c.ir.outputs
                        .iter()
                        .map(|(name, _)| golden.outputs[name.as_str()])
                        .collect();
                assert_eq!(got, want, "{label} {set}: inputs {args:?}");
            }
        }
    }
}
