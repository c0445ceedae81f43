//! Translation-validation bench: certification cost and discharge mix on
//! every Table 1 kernel.
//!
//! ```text
//! cargo run --release -p roccc-bench --bin bench_prove -- [--out PATH]
//! ```
//!
//! Each kernel is compiled once (without proving) and the prover is then
//! timed on the resulting IR/netlist pair: wall time, how each obligation
//! was discharged (normalizing rewriter vs. range facts vs. the SAT
//! fallback), total rewrite steps, the symbolic footprint in hash-consed
//! terms, and the rendered certificate size. The table is written to
//! `BENCH_prove.json` so the rewriter's coverage — how much of the proof
//! closes without touching SAT — is tracked PR over PR.

use roccc::compile;
use roccc_ipcores::benchmarks;
use roccc_prove::{certificate_json, prove, ProveOptions, Verdict};
use std::fmt::Write as _;
use std::time::Instant;

fn parse_out() -> String {
    let mut out = "BENCH_prove.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--help" | "-h" => {
                eprintln!("usage: bench_prove [--out PATH]");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    out
}

struct Row {
    name: &'static str,
    verdict: &'static str,
    wall_ms: f64,
    obligations: usize,
    proved_rewrite: usize,
    proved_range: usize,
    proved_sat: usize,
    refuted: usize,
    unknown: usize,
    rewrite_steps: u64,
    terms: usize,
    cert_bytes: usize,
}

fn main() {
    let out = parse_out();

    let mut rows = Vec::new();
    for b in benchmarks() {
        let c = compile(&b.source, b.func, &b.opts).expect("benchmark compiles");
        let t0 = Instant::now();
        let cert = prove(&c.ir, &c.netlist, b.name, &ProveOptions::default());
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (rw, rg, sat, refuted, unknown) = cert.status_counts();
        let verdict = match cert.verdict {
            Verdict::Equal => "equal",
            Verdict::Refuted => "refuted",
            Verdict::Unknown => "unknown",
        };
        println!(
            "{:16} {:8} {:8.2} ms   {:2} obligation(s): {} rewrite, {} range, {} sat   {} step(s), {} term(s)",
            b.name,
            verdict,
            wall_ms,
            cert.obligations.len(),
            rw,
            rg,
            sat,
            cert.rewrite_steps,
            cert.terms
        );
        rows.push(Row {
            name: b.name,
            verdict,
            wall_ms,
            obligations: cert.obligations.len(),
            proved_rewrite: rw,
            proved_range: rg,
            proved_sat: sat,
            refuted,
            unknown,
            rewrite_steps: cert.rewrite_steps,
            terms: cert.terms,
            cert_bytes: certificate_json(&cert).len(),
        });
    }

    // The bench JSON schema is bespoke to this harness, like
    // BENCH_ii.json: hand-written, deterministic field order.
    let mut s = String::new();
    s.push_str("{\n  \"benchmark\": \"prove\",\n  \"unit\": \"ms\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"kernel\": \"{}\", \"verdict\": \"{}\", \"wall_ms\": {:.3}, \
             \"obligations\": {}, \"proved_rewrite\": {}, \"proved_range\": {}, \
             \"proved_sat\": {}, \"refuted\": {}, \"unknown\": {}, \
             \"rewrite_steps\": {}, \"terms\": {}, \"cert_bytes\": {}}}",
            r.name,
            r.verdict,
            r.wall_ms,
            r.obligations,
            r.proved_rewrite,
            r.proved_range,
            r.proved_sat,
            r.refuted,
            r.unknown,
            r.rewrite_steps,
            r.terms,
            r.cert_bytes
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&out, &s).expect("write bench json");

    // Every Table 1 kernel must certify EQUAL with nothing left unknown,
    // and close entirely in the normalizing rewriter — no SAT calls at all.
    assert_eq!(rows.len(), 9, "Table 1 has nine kernels");
    for r in &rows {
        assert_eq!(
            r.verdict, "equal",
            "{}: Table 1 kernel must certify EQUAL",
            r.name
        );
        assert_eq!(r.unknown, 0, "{}: residual unknown obligations", r.name);
        assert_eq!(
            r.proved_sat, 0,
            "{}: must close rewrite-only, but {} obligation(s) needed SAT",
            r.name, r.proved_sat
        );
    }

    let rewrite_only = rows.iter().filter(|r| r.proved_sat == 0).count();
    println!(
        "\n{rewrite_only}/{} kernels close without the SAT fallback; wrote {out}",
        rows.len()
    );
}
