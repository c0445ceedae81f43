//! Differential tests for the `roccc-stream` process-network layer:
//! whole-pipeline co-simulation must be bit-exact against manually
//! chained single-kernel system simulations, across lane counts, under
//! backpressure, and through fault propagation — plus negative fixtures
//! for every `P0xx` composition diagnostic.

use roccc_suite::ipcores::kernels;
use roccc_suite::roccc::{CompileOptions, Verdict, VerifyLevel};
use roccc_suite::stream::{
    chain_golden, compile_pipeline, parse_spec, pipeline_cache_key, run_cosim, stage_rates,
    stats_report, StreamError,
};
use roccc_suite::testrand::XorShift64;
use std::collections::HashMap;

const TWO_STAGE: &str = "void scale(int16 A[32], int16 B[32]) { int i;
    for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
  void offset(int16 B[32], int16 C[32]) { int i;
    for (i = 0; i < 32; i = i + 1) { C[i] = B[i] + 100; } }";

/// Builds `n` pseudo-random input lanes for a single external array.
fn lanes_for(array: &str, len: usize, n: usize, seed: u64) -> Vec<HashMap<String, Vec<i64>>> {
    let mut rng = XorShift64::new(seed);
    (0..n)
        .map(|_| {
            let data: Vec<i64> = (0..len).map(|_| rng.gen_range(-100, 100)).collect();
            HashMap::from([(array.to_string(), data)])
        })
        .collect()
}

/// Runs cosim and golden over the same lanes and compares every external
/// output array of the last stage, for every lane.
fn assert_bit_exact(
    source: &str,
    spec_text: &str,
    lane_inputs: &[HashMap<String, Vec<i64>>],
    check_key: &str,
) {
    let spec = parse_spec(spec_text).unwrap();
    let cp = compile_pipeline(source, &spec, &CompileOptions::default()).unwrap();
    let scalars = HashMap::new();
    let run = run_cosim(&cp, lane_inputs, &scalars).unwrap();
    let golden = chain_golden(&cp, lane_inputs, &scalars).unwrap();
    assert_eq!(run.lane_arrays.len(), lane_inputs.len());
    for (l, (got, want)) in run.lane_arrays.iter().zip(&golden).enumerate() {
        assert_eq!(
            got.get(check_key),
            want.get(check_key),
            "lane {l} diverges on `{check_key}`"
        );
    }
    // Every stage actually fired all its iterations.
    for (st, cs) in run.stages.iter().zip(&cp.stages) {
        assert_eq!(
            st.fired,
            cs.compiled.kernel.total_iterations() * lane_inputs.len() as u64,
            "stage `{}` fired the wrong number of times",
            st.name
        );
    }
}

#[test]
fn two_stage_cosim_is_bit_exact() {
    for lanes in [1usize, 8, 64] {
        let inputs = lanes_for("A", 32, lanes, 7 + lanes as u64);
        assert_bit_exact(TWO_STAGE, "pipeline scale | offset", &inputs, "offset.C");
    }
}

#[test]
fn three_stage_pipeline_is_bit_exact() {
    let src = "void scale(int16 A[32], int16 B[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
      void offset(int16 B[32], int16 C[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { C[i] = B[i] + 100; } }
      void half(int16 C[32], int16 D[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { D[i] = C[i] >> 1; } }";
    for lanes in [1usize, 8] {
        let inputs = lanes_for("A", 32, lanes, 11 + lanes as u64);
        assert_bit_exact(src, "pipeline scale | offset | half", &inputs, "half.D");
    }
}

#[test]
fn wavelet_threshold_encode_pipeline_is_bit_exact() {
    // The image pipeline from the paper's wavelet engine: out-of-order
    // interleaved row writes, stride-2 2-D windows, unwritten borders
    // committing as zeros — all three must survive the FIFO crossing.
    let src = kernels::wavelet_pipeline_source();
    let spec_text = kernels::wavelet_pipeline_spec();
    let inputs = lanes_for("X", 64 * 64, 1, 23);
    assert_bit_exact(&src, &spec_text, &inputs, "encode.E");
}

#[test]
fn min_depth_fifo_stalls_but_stays_bit_exact() {
    // Clamp the wavelet channel to its deadlock-free minimum: the
    // 4-element bursts against a one-word-per-cycle drain must
    // backpressure the producer, yet the output stays bit-exact.
    let src = kernels::wavelet_pipeline_source();
    let spec = parse_spec(&kernels::wavelet_pipeline_spec()).unwrap();
    let cp = compile_pipeline(&src, &spec, &CompileOptions::default()).unwrap();
    let min_depth = cp.channels[0].min_depth;
    assert!(min_depth > 4, "reorder span exceeds one burst");
    let clamped = parse_spec(&format!(
        "{}fifo threshold.Y depth={min_depth}\n",
        kernels::wavelet_pipeline_spec()
    ))
    .unwrap();
    let cp = compile_pipeline(&src, &clamped, &CompileOptions::default()).unwrap();
    let inputs = lanes_for("X", 64 * 64, 1, 31);
    let scalars = HashMap::new();
    let run = run_cosim(&cp, &inputs, &scalars).unwrap();
    let golden = chain_golden(&cp, &inputs, &scalars).unwrap();
    for (got, want) in run.lane_arrays.iter().zip(&golden) {
        assert_eq!(got.get("encode.E"), want.get("encode.E"));
    }
    let wavelet = &run.stages[0];
    assert!(
        wavelet.stall_cycles > 0,
        "a minimum-depth FIFO must backpressure the producer: {wavelet:?}"
    );
    // Consumers see bubbles while the producer refills.
    assert!(run.stages[1].starve_cycles > 0, "{:?}", run.stages[1]);
    assert!(run.fifo_peaks[0] <= min_depth, "{:?}", run.fifo_peaks);
}

#[test]
fn undersized_fifo_deadlocks_dynamically_under_verify_off() {
    // Statically this is P003 (fatal under the default level); with the
    // verifier off, the co-simulation must catch it dynamically instead
    // of spinning forever.
    let src = kernels::wavelet_pipeline_source();
    let spec =
        parse_spec("pipeline wavelet | threshold | encode\nfifo threshold.Y depth=1\n").unwrap();
    let base = CompileOptions {
        verify: VerifyLevel::Off,
        ..CompileOptions::default()
    };
    let cp = compile_pipeline(&src, &spec, &base).unwrap();
    assert!(cp.channels[0].min_depth > 1, "wavelet needs reorder room");
    let inputs = lanes_for("X", 64 * 64, 1, 5);
    let err = run_cosim(&cp, &inputs, &HashMap::new()).unwrap_err();
    match err {
        StreamError::Sim(msg) => {
            assert!(msg.contains("deadlock"), "{msg}");
            assert!(msg.contains("wavelet.Y"), "names the stuck channel: {msg}");
        }
        other => panic!("expected Sim(deadlock), got {other}"),
    }
}

#[test]
fn faults_propagate_out_of_the_whole_pipeline() {
    let src = "void scale(int16 A[8], int16 B[8]) { int i;
        for (i = 0; i < 8; i = i + 1) { B[i] = A[i] - A[i]; } }
      void divide(int16 B[8], int16 C[8]) { int i;
        for (i = 0; i < 8; i = i + 1) { C[i] = 100 / B[i]; } }";
    let spec = parse_spec("pipeline scale | divide").unwrap();
    let cp = compile_pipeline(src, &spec, &CompileOptions::default()).unwrap();
    // scale zeroes its stream, so divide faults on its first firing.
    let inputs = lanes_for("A", 8, 2, 3);
    let err = run_cosim(&cp, &inputs, &HashMap::new()).unwrap_err();
    match err {
        StreamError::Sim(msg) => {
            assert!(msg.contains("divide"), "{msg}");
            assert!(msg.contains("division by zero"), "{msg}");
        }
        other => panic!("expected Sim fault, got {other}"),
    }
}

// ---- negative fixtures: one per P-code ---------------------------------

fn expect_pcode(source: &str, spec_text: &str, code: &str) {
    let spec = parse_spec(spec_text).unwrap();
    let base = CompileOptions {
        verify: VerifyLevel::Deny,
        ..CompileOptions::default()
    };
    match compile_pipeline(source, &spec, &base) {
        Err(StreamError::Verify(diags)) => {
            assert!(
                diags.iter().any(|d| d.code == code),
                "expected {code}, got {diags:?}"
            );
        }
        Err(other) => panic!("expected Verify({code}), got {other}"),
        Ok(_) => panic!("expected Verify({code}), pipeline compiled clean"),
    }
}

#[test]
fn p001_dangling_port_fixture() {
    expect_pcode(
        TWO_STAGE,
        "pipeline scale | offset\nbind scale.B -> offset.Nope",
        "P001-dangling-port",
    );
}

#[test]
fn p002_rate_mismatch_fixture() {
    let src = "void scale(int16 A[32], int16 B[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
      void shrink(int16 B[16], int16 C[16]) { int i;
        for (i = 0; i < 16; i = i + 1) { C[i] = B[i] + 1; } }";
    expect_pcode(src, "pipeline scale | shrink", "P002-rate-mismatch");
}

#[test]
fn p003_undersized_fifo_fixture() {
    expect_pcode(
        TWO_STAGE,
        "pipeline scale | offset\nfifo offset.B depth=0",
        "P003-undersized-fifo",
    );
}

#[test]
fn p004_duplicate_driver_fixture() {
    let src = "void a1(int16 A[32], int16 B[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
      void a2(int16 A[32], int16 Q[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { Q[i] = A[i] * 5; } }
      void sink(int16 B[32], int16 C[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { C[i] = B[i] + 1; } }";
    expect_pcode(
        src,
        "pipeline a1 | a2 | sink\nbind a1.B -> sink.B\nbind a2.Q -> sink.B",
        "P004-duplicate-driver",
    );
}

#[test]
fn p006_pipeline_cycle_fixture() {
    // Feed the tail's output back into the head: scale -> offset is
    // auto-derived, the explicit bind closes the loop. A Kahn network
    // with finite FIFOs and no initial tokens cannot fire a cycle.
    expect_pcode(
        TWO_STAGE,
        "pipeline scale | offset\nbind offset.C -> scale.A",
        "P006-pipeline-cycle",
    );
}

#[test]
fn p007_width_truncation_fixture() {
    // int16 producer into an int8 consumer window: a lossy crossing.
    let src = "void wide(int16 A[32], int16 B[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { B[i] = A[i] * 3; } }
      void narrow(int8 B[32], int8 C[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { C[i] = B[i] + 1; } }";
    expect_pcode(src, "pipeline wide | narrow", "P007-width-truncation");
}

#[test]
fn p005_nonstatic_rate_is_a_warning_not_fatal_under_warn() {
    // Data-dependent store index: rates cannot be derived statically, so
    // the channel takes the whole-array fallback and P005 is collected
    // as a warning under the default `Warn` level.
    let src = "void gather(int16 A[32], int16 B[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { B[A[i] & 31] = A[i]; } }
      void sink(int16 B[32], int16 C[32]) { int i;
        for (i = 0; i < 32; i = i + 1) { C[i] = B[i] + 1; } }";
    let spec = parse_spec("pipeline gather | sink").unwrap();
    match compile_pipeline(src, &spec, &CompileOptions::default()) {
        Ok(cp) => {
            assert!(
                cp.diagnostics
                    .iter()
                    .any(|d| d.code == "P005-nonstatic-rate"),
                "{:?}",
                cp.diagnostics
            );
            let c = &cp.channels[0];
            assert!(!c.static_rates);
            assert_eq!(c.min_depth, c.len, "conservative whole-array fallback");
        }
        // Data-dependent stores may be rejected earlier by kernel
        // extraction; the fixture then degrades to a spec error, which
        // still must not panic.
        Err(StreamError::Stage { .. }) => {}
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn pipeline_cache_key_never_aliases_kernel_keys() {
    let base = CompileOptions::default();
    let spec = parse_spec("pipeline scale | offset").unwrap();
    let pk = pipeline_cache_key(TWO_STAGE, &spec, &base).unwrap();
    for func in ["scale", "offset"] {
        assert_ne!(
            pk,
            roccc_suite::roccc::hash::cache_key(TWO_STAGE, func, &base),
            "pipeline key aliases the `{func}` kernel key"
        );
    }
}

/// A stage can ask for a modulo schedule and a proof certificate: the
/// spec's keys are the compile-option table's.
#[test]
fn stage_overrides_schedule_and_prove_a_stage() {
    let text = "pipeline scale | offset\nstage offset pipeline-ii=auto prove=on";
    let spec = parse_spec(text).unwrap();
    let cp = compile_pipeline(TWO_STAGE, &spec, &CompileOptions::default()).unwrap();
    let (scale, offset) = (&cp.stages[0].compiled, &cp.stages[1].compiled);
    assert!(scale.schedule.is_none() && scale.certificate.is_none());
    assert!(offset.schedule.is_some(), "offset has no schedule");
    let cert = offset
        .certificate
        .as_ref()
        .expect("offset has no certificate");
    assert_eq!(cert.verdict, Verdict::Equal, "{cert:?}");
    // The scheduled stage still streams bit-exact.
    assert_bit_exact(TWO_STAGE, text, &lanes_for("A", 32, 2, 11), "offset.C");
}

/// A stage scheduled at II 2 launches on its own II grid inside the
/// network: the co-simulation stays bit-exact on one and three lanes,
/// every stage fires all its iterations, the grid's off cycles count as
/// neither stall nor starve, and the stats report prints the real II.
#[test]
fn stage_at_ii_two_cosimulates_on_its_launch_grid() {
    let text = format!(
        "{}stage wavelet pipeline-ii=2\n",
        kernels::wavelet_pipeline_spec()
    );
    let spec = parse_spec(&text).unwrap();
    let src = kernels::wavelet_pipeline_source();
    let cp = compile_pipeline(&src, &spec, &CompileOptions::default()).unwrap();
    let sched = cp.stages[0]
        .compiled
        .schedule
        .as_ref()
        .expect("wavelet schedule");
    assert_eq!(sched.ii, 2);
    assert_eq!(sched.fallback, None);
    let report = stats_report(&cp);
    let row = report
        .lines()
        .find(|l| l.trim_start().starts_with("wavelet "))
        .expect("wavelet row");
    assert_eq!(row.split_whitespace().nth(3), Some("2"), "II column: {row}");

    let scalars = HashMap::new();
    for lanes in [1u64, 3] {
        let inputs = lanes_for("X", 64 * 64, lanes as usize, 41);
        let run = run_cosim(&cp, &inputs, &scalars).unwrap();
        let golden = chain_golden(&cp, &inputs, &scalars).unwrap();
        for (l, (got, want)) in run.lane_arrays.iter().zip(&golden).enumerate() {
            assert_eq!(got.get("encode.E"), want.get("encode.E"), "lane {l}");
        }
        let fired: Vec<u64> = run.stages.iter().map(|s| s.fired).collect();
        assert_eq!(fired, [841 * lanes, 4096 * lanes, 4096 * lanes]);
        let w = &run.stages[0];
        assert!(
            w.fired + w.stall_cycles + w.starve_cycles <= run.cycles.div_ceil(2) * lanes,
            "wavelet counted off-grid cycles: {w:?} in {} cycles",
            run.cycles
        );
    }
}

/// A window whose index variable is not a loop of the kernel has no
/// scan: rate extraction refuses it with the system driver's error
/// instead of assuming the scan starts at 0.
#[test]
fn unknown_window_index_var_fails_rate_extraction() {
    let spec = parse_spec("pipeline scale | offset").unwrap();
    let pipeline = compile_pipeline(TWO_STAGE, &spec, &CompileOptions::default()).unwrap();
    let mut kernel = pipeline.stages[1].compiled.kernel.clone();
    for read in &mut kernel.windows[0].reads {
        read.index[0].var = Some("x".into());
    }
    match stage_rates(&kernel, 1) {
        Err(StreamError::Spec(msg)) => assert_eq!(msg, "window index var `x` unknown"),
        other => panic!("expected a spec error, got {other:?}"),
    }
}
