//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! * **D1** — mux/pipe hard nodes (if-else) vs. the §5 algorithm-level
//!   rewrite that multiplies by the `nd` flag;
//! * **D2** — pipeline target-period sweep (area/Fmax trade-off);
//! * **D3** — bit-width narrowing on/off;
//! * **D4** — smart-buffer reuse vs. naive re-fetch;
//! * **D5** — multiplier style LUT vs. embedded MULT18x18;
//! * **D6** — bit-manipulation macros (the paper's future work).
//!
//! The sections are independent, so each one compiles and simulates its
//! kernels on its own scoped thread; the report prints in order once all
//! are done.
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use roccc_suite::ipcores;
use roccc_suite::roccc::{self, compile_with_model, CompileOptions};
use roccc_suite::synth::{map_netlist, MultiplierStyle, ResourceReport, VirtexII};
use std::collections::HashMap;
use std::fmt::Write;

fn main() {
    let sections: [fn() -> String; 6] = [
        d1_mux_vs_multiply,
        d2_period_sweep,
        d3_narrowing,
        d4_smart_buffer,
        d5_multiplier_style,
        d6_bit_macros,
    ];
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = sections.iter().map(|f| s.spawn(f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ablation section panicked"))
            .collect::<Vec<String>>()
    });
    for r in reports {
        print!("{r}");
    }
}

/// Formats a resource report on one line.
fn fmt_report(r: &ResourceReport) -> String {
    format!(
        "{:>6} LUT {:>6} FF {:>5} slices {:>7.1} MHz",
        r.luts, r.ffs, r.slices, r.fmax_mhz
    )
}

fn d1_mux_vs_multiply() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== D1: if-else (mux/pipe hard nodes) vs multiply-by-flag =="
    );
    let _ = writeln!(
        out,
        "   (§5: the authors found the multiply form better overall)"
    );
    let model = VirtexII::with_mult_style(MultiplierStyle::Block);
    let opts = CompileOptions {
        target_period_ns: 4.2,
        ..CompileOptions::default()
    };
    for (label, src) in [
        ("if-else ", ipcores::kernels::mul_acc_source()),
        ("multiply", ipcores::kernels::mul_acc_multiply_source()),
    ] {
        let hw = compile_with_model(&src, "mul_acc", &opts, &model).expect("compiles");
        let rep = map_netlist(&hw.netlist, &model);
        let (soft, hard) = hw.datapath.node_census();
        let _ = writeln!(
            out,
            "  {label}: {} | {soft} soft + {hard} hard nodes",
            fmt_report(&rep)
        );
    }
    out
}

fn d2_period_sweep() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== D2: pipeline target-period sweep (5-tap FIR data path) =="
    );
    let model = VirtexII::default();
    let src = ipcores::kernels::fir_source();
    for period in [20.0, 10.0, 7.0, 5.0, 3.5] {
        let opts = CompileOptions {
            target_period_ns: period,
            ..CompileOptions::default()
        };
        let hw = compile_with_model(&src, "fir", &opts, &model).expect("compiles");
        let rep = map_netlist(&hw.netlist, &model);
        let _ = writeln!(
            out,
            "  target {period:>5.1} ns: {} | {} stages",
            fmt_report(&rep),
            hw.datapath.num_stages
        );
    }
    out
}

fn d3_narrowing() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== D3: bit-width narrowing on/off ==");
    let model = VirtexII::default();
    for b in ipcores::benchmarks() {
        if b.lut_row {
            continue;
        }
        let on = compile_with_model(&b.source, b.func, &b.opts, &model);
        let off = compile_with_model(
            &b.source,
            b.func,
            &CompileOptions {
                narrow: false,
                ..b.opts.clone()
            },
            &model,
        );
        if let (Ok(on), Ok(off)) = (on, off) {
            let r_on = map_netlist(&on.netlist, &model);
            let r_off = map_netlist(&off.netlist, &model);
            let _ = writeln!(
                out,
                "  {:<14} narrowed {:>5} slices / unnarrowed {:>5} slices ({:.0}% saved)",
                b.name,
                r_on.slices,
                r_off.slices,
                100.0 * (1.0 - r_on.slices as f64 / r_off.slices.max(1) as f64)
            );
        }
    }
    out
}

fn d4_smart_buffer() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== D4: smart-buffer reuse vs naive re-fetch (FIR window scan) =="
    );
    let src = ipcores::kernels::fir_source();
    let hw = roccc::compile(&src, "fir", &CompileOptions::default()).expect("compiles");
    let mut arrays = HashMap::new();
    arrays.insert("A".to_string(), (0..128).collect::<Vec<i64>>());
    let run = hw.run(&arrays, &HashMap::new()).expect("runs");
    let window: u64 = hw.kernel.windows[0].reads.len() as u64;
    let naive = run.fired * window;
    let _ = writeln!(
        out,
        "  memory reads: smart buffer {} vs naive {} ({}x reuse), {} outputs in {} cycles",
        run.mem_reads,
        naive,
        naive / run.mem_reads.max(1),
        run.mem_writes,
        run.cycles
    );
    out
}

fn d5_multiplier_style() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== D5: multiplier style LUT vs MULT18x18 (12×12 variable multiply) =="
    );
    let src = "void mul12(int12 a, int12 b, int24* p) { *p = a * b; }";
    for (label, style) in [
        ("LUT fabric", MultiplierStyle::Lut),
        ("MULT18x18 ", MultiplierStyle::Block),
    ] {
        let model = VirtexII::with_mult_style(style);
        let hw =
            compile_with_model(src, "mul12", &CompileOptions::default(), &model).expect("compiles");
        let rep = map_netlist(&hw.netlist, &model);
        let _ = writeln!(
            out,
            "  {label}: {} | {} MULT blocks",
            fmt_report(&rep),
            rep.mult_blocks
        );
    }
    out
}

/// The paper's §4.2.1 future work: "We are working on supporting bit
/// manipulation macros, which are the lack of high-level languages."
/// This repo implements them (`ROCCC_bits` / `ROCCC_cat`); the ablation
/// shows they recover most of the udiv area gap caused by 32-bit C
/// temporaries.
fn d6_bit_macros() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== D6: bit-manipulation macros (the paper's future work) =="
    );
    let model = VirtexII::default();
    let opts = CompileOptions {
        target_period_ns: 3.7,
        ..CompileOptions::default()
    };
    let baseline = map_netlist(&ipcores::baselines::udiv(), &model);
    let _ = writeln!(out, "  hand-built divider     : {}", fmt_report(&baseline));
    for (label, src) in [
        ("plain C (int temps)    ", ipcores::kernels::udiv_source()),
        (
            "ROCCC_bits/cat + widths",
            ipcores::kernels::udiv_bits_source(),
        ),
    ] {
        let hw = compile_with_model(&src, "udiv", &opts, &model).expect("compiles");
        let rep = map_netlist(&hw.netlist, &model);
        let _ = writeln!(out, "  {label}: {}", fmt_report(&rep));
    }
    out
}
