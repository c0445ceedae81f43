//! Regenerates the paper's Table 1: compiles all nine kernels, scores the
//! compiler output and the IP-style baselines with the shared Virtex-II
//! model, and prints the comparison alongside the published numbers,
//! then the throughput and fast-estimator sections.
//!
//! ```sh
//! cargo run --release --example table1
//! ```

use roccc_suite::{ipcores, synth};

fn main() {
    println!("Reproduction of Table 1 (DATE 2005, \"Optimized Generation of");
    println!("Data-path from C Codes for FPGAs\") — all numbers from the shared");
    println!("Virtex-II xc2v2000-style synthesis model.\n");

    // Rows compile and simulate concurrently (one scoped thread each).
    let rows = ipcores::run_table1();
    println!("{}", ipcores::render_table(&rows));

    println!("\nThroughput (outputs per clock once the pipeline is full):");
    for r in &rows {
        if r.outputs_per_cycle > 1 {
            println!(
                "  {:<14} {} outputs/cycle (the Xilinx IP produces 1) — the paper: \
                 \"though ROCCC-generated DCT runs at a lower speed, the overall \
                 throughput of ROCCC-generated circuit is higher\"",
                r.name, r.outputs_per_cycle
            );
        }
    }

    println!("\nFast-estimator ablation (paper §2: <1 ms, ~5% accuracy):");
    for r in &rows {
        let err = synth::estimate_error_pct(&r.roccc_fast, &r.roccc);
        println!(
            "  {:<14} fast {:>5} slices vs full {:>5} slices ({:>5.1}% error)",
            r.name, r.roccc_fast.slices, r.roccc.slices, err
        );
    }
}
