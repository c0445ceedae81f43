//! Integration tests for the `roccc-serve` compile daemon: concurrent
//! clients must observe byte-identical artifacts to a direct in-process
//! `compile()`, the content-addressed cache must hit/miss exactly as the
//! request mix dictates (single-flight makes the counters deterministic),
//! and the robustness paths — wall-clock timeout, admission-control
//! backpressure, compiler panics — must all answer with clean protocol
//! replies instead of taking the server down.

use roccc_suite::ipcores::benchmarks;
use roccc_suite::roccc::artifact::{self, ARTIFACTS};
use roccc_suite::roccc::proto::{read_response, roundtrip, write_request, Request, Response};
use roccc_suite::roccc::CompileOptions;
use roccc_suite::serve::{start, CompileFn, ServerConfig};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const IO_TIMEOUT: Option<Duration> = Some(Duration::from_secs(120));

fn compile_req(source: &str, function: &str, opts: &CompileOptions, emit: &str) -> Request {
    Request::Compile {
        source: source.to_string(),
        function: function.to_string(),
        opts: opts.clone(),
        emit: emit.to_string(),
    }
}

fn expect_ok(resp: Response) -> (Vec<u8>, bool) {
    match resp {
        Response::Ok { payload, cached } => (payload, cached),
        other => panic!("expected ok, got {other:?}"),
    }
}

/// ≥8 concurrent clients over a shared kernel mix: every reply must be
/// byte-identical to a direct `roccc::compile(...)` + `to_vhdl()`, no
/// request may be dropped or rejected, and the hit/miss counters must
/// come out exact (misses == distinct cache keys, because the winner of
/// a single-flight race publishes to the cache before waiters re-check).
#[test]
fn concurrent_clients_get_byte_identical_artifacts() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 2;

    let kernels: Vec<_> = benchmarks().into_iter().take(4).collect();
    let expected: Vec<Vec<u8>> = kernels
        .iter()
        .map(|b| {
            roccc::compile(&b.source, b.func, &b.opts)
                .expect("table kernel compiles directly")
                .to_vhdl()
                .into_bytes()
        })
        .collect();

    let handle = start(ServerConfig {
        workers: THREADS,
        queue_cap: 64,
        timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let kernels = &kernels;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (k, b) in kernels.iter().enumerate() {
                        let req = compile_req(&b.source, b.func, &b.opts, "vhdl");
                        let resp = roundtrip(addr, &req, IO_TIMEOUT)
                            .unwrap_or_else(|e| panic!("client {t} round {round}: {e}"));
                        let (payload, _cached) = expect_ok(resp);
                        assert_eq!(
                            payload, expected[k],
                            "client {t} round {round}: artifact for `{}` differs from a \
                             direct compile",
                            b.name
                        );
                    }
                }
            });
        }
    });

    let m = handle.metrics();
    let total = (THREADS * ROUNDS * kernels.len()) as u64;
    assert_eq!(m.requests.get(), total, "one request per roundtrip");
    assert_eq!(
        m.cache_misses.get(),
        kernels.len() as u64,
        "single flight: exactly one compile per distinct key"
    );
    assert_eq!(
        m.cache_hits.get() + m.cache_misses.get(),
        total,
        "every compile request either hit or missed"
    );
    assert_eq!(m.busy_rejections.get(), 0, "no client saw backpressure");
    assert_eq!(m.errors.get(), 0);
    assert_eq!(m.timeouts.get(), 0);
    handle.shutdown();
}

/// Different artifact kinds from the same cached entry must also match
/// their direct-compile renderings byte for byte.
#[test]
fn cached_artifacts_match_direct_renderings() {
    let b = &benchmarks()[0];
    let direct = roccc::compile(&b.source, b.func, &b.opts).expect("compiles");

    let handle = start(ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    let (vhdl, cached) = expect_ok(
        roundtrip(
            addr,
            &compile_req(&b.source, b.func, &b.opts, "vhdl"),
            IO_TIMEOUT,
        )
        .unwrap(),
    );
    assert!(!cached, "first request is a cold compile");
    assert_eq!(vhdl, direct.to_vhdl().into_bytes());

    let (dot, cached) = expect_ok(
        roundtrip(
            addr,
            &compile_req(&b.source, b.func, &b.opts, "dot"),
            IO_TIMEOUT,
        )
        .unwrap(),
    );
    assert!(cached, "second request for the same key is served cached");
    assert_eq!(dot, direct.to_dot().into_bytes());

    let (ir, _) = expect_ok(
        roundtrip(
            addr,
            &compile_req(&b.source, b.func, &b.opts, "ir"),
            IO_TIMEOUT,
        )
        .unwrap(),
    );
    assert_eq!(ir, direct.ir.dump().into_bytes());

    let (deps, _) = expect_ok(
        roundtrip(
            addr,
            &compile_req(&b.source, b.func, &b.opts, "deps"),
            IO_TIMEOUT,
        )
        .unwrap(),
    );
    assert_eq!(deps, direct.deps_report().into_bytes());

    let (deps_json, _) = expect_ok(
        roundtrip(
            addr,
            &compile_req(&b.source, b.func, &b.opts, "deps-json"),
            IO_TIMEOUT,
        )
        .unwrap(),
    );
    assert_eq!(deps_json, direct.deps_json().into_bytes());
    handle.shutdown();
}

/// A synthetic "huge" kernel: `n` chained straight-line statements. At
/// a few thousand statements the real compiler takes well over 40 ms in
/// both debug and release builds, which makes a 40 ms server budget a
/// deterministic timeout.
fn huge_kernel(n: usize) -> String {
    let mut s = String::with_capacity(n * 40);
    s.push_str("void huge(int a, int* out) {\n  int x0 = a * 3 + 1;\n");
    for i in 1..n {
        s.push_str(&format!(
            "  int x{i} = x{} * 3 + x{} + {};\n",
            i - 1,
            i.saturating_sub(2),
            i % 97
        ));
    }
    s.push_str(&format!("  *out = x{};\n}}\n", n - 1));
    s
}

/// A compile that blows the wall-clock budget gets a clean `timeout`
/// reply (not a hang, not a dead worker) and the server keeps serving.
#[test]
fn huge_kernel_times_out_cleanly() {
    let handle = start(ServerConfig {
        timeout: Duration::from_millis(40),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    let source = huge_kernel(4000);
    let resp = roundtrip(
        addr,
        &compile_req(&source, "huge", &CompileOptions::default(), "vhdl"),
        IO_TIMEOUT,
    )
    .expect("roundtrip succeeds at the protocol level");
    match resp {
        Response::Timeout(msg) => {
            assert!(msg.contains("wall-clock"), "explains the budget: {msg}")
        }
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(handle.metrics().timeouts.get() >= 1);

    // The worker survived the abandoned compile.
    let (pong, _) = expect_ok(roundtrip(addr, &Request::Ping, IO_TIMEOUT).unwrap());
    assert_eq!(pong, b"pong\n");
    handle.shutdown();
}

/// A gate the injected compiler blocks on until the test opens it.
#[derive(Default)]
struct Gate {
    state: Mutex<(usize, bool)>, // (compiles entered, open?)
    cv: Condvar,
}

impl Gate {
    fn enter_and_wait(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn wait_for_entries(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        while st.0 < n {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// With one worker and a one-slot queue, a third concurrent request is
/// answered `busy` by admission control instead of queueing unboundedly;
/// the admitted request still completes once the compiler unblocks.
#[test]
fn full_admission_queue_answers_busy() {
    let gate = Arc::new(Gate::default());
    let compiler: CompileFn = {
        let gate = Arc::clone(&gate);
        Arc::new(move |source, function, opts| {
            gate.enter_and_wait();
            roccc::compile_timed(source, function, opts)
        })
    };

    let handle = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        timeout: Duration::from_secs(120),
        compiler: Some(compiler),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    // Admitted request: the single worker picks it up and its compile
    // blocks on the gate.
    let b = &benchmarks()[0];
    let admitted = {
        let req = compile_req(&b.source, b.func, &b.opts, "vhdl");
        std::thread::spawn(move || roundtrip(addr, &req, IO_TIMEOUT))
    };
    gate.wait_for_entries(1);

    // With the worker pinned, probes either fill the one queue slot (the
    // read then times out client-side and we drop the connection, which
    // keeps occupying the slot) or bounce off admission control with
    // `busy`. Within two probes the second outcome is guaranteed.
    let probe_timeout = Some(Duration::from_millis(300));
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let rejected = loop {
        match roundtrip(addr, &Request::Ping, probe_timeout) {
            Ok(Response::Busy) => break true,
            Ok(other) => panic!("worker is pinned, yet a probe got {other:?}"),
            Err(_) if std::time::Instant::now() > deadline => break false,
            Err(_queued_probe_timed_out) => {}
        }
    };
    assert!(rejected, "no probe ever saw `busy` with a full queue");
    assert!(handle.metrics().busy_rejections.get() >= 1);

    gate.open();
    let resp = admitted
        .join()
        .expect("client thread")
        .expect("admitted roundtrip");
    let (payload, _) = expect_ok(resp);
    assert!(
        !payload.is_empty(),
        "admitted request completed after the gate opened"
    );
    handle.shutdown();
}

/// A panicking compile is isolated by `catch_unwind`: the client gets an
/// error reply naming the panic, the panic counter increments, and the
/// server goes on serving other requests from the same worker pool.
#[test]
fn compiler_panic_is_isolated() {
    let compiler: CompileFn = Arc::new(|source, function, opts| {
        if function == "boom" {
            panic!("injected test panic");
        }
        roccc::compile_timed(source, function, opts)
    });

    let handle = start(ServerConfig {
        workers: 2,
        compiler: Some(compiler),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    let resp = roundtrip(
        addr,
        &compile_req("void boom() {}", "boom", &CompileOptions::default(), "vhdl"),
        IO_TIMEOUT,
    )
    .expect("protocol roundtrip");
    match resp {
        Response::Err(msg) => {
            assert!(msg.contains("panicked"), "reply names the panic: {msg}");
            assert!(
                msg.contains("injected test panic"),
                "payload forwarded: {msg}"
            );
        }
        other => panic!("expected err, got {other:?}"),
    }
    assert_eq!(handle.metrics().panics.get(), 1);

    // The pool survived; a real kernel still compiles.
    let b = &benchmarks()[0];
    let (payload, _) = expect_ok(
        roundtrip(
            addr,
            &compile_req(&b.source, b.func, &b.opts, "vhdl"),
            IO_TIMEOUT,
        )
        .unwrap(),
    );
    assert!(!payload.is_empty());
    handle.shutdown();
}

/// The `pipeline` protocol verb: artifacts match a direct in-process
/// `compile_pipeline` rendering byte for byte, a repeated request hits
/// the dedicated pipeline cache, and bad emits / bad specs are rejected
/// without compiling.
#[test]
fn pipeline_verb_compiles_and_caches() {
    let source = "void scale(int A[16], int B[16]) {\n\
                  \x20 for (int i = 0; i < 16; i = i + 1) { B[i] = A[i] * 3; }\n\
                  }\n\
                  void offset(int B[16], int C[16]) {\n\
                  \x20 for (int i = 0; i < 16; i = i + 1) { C[i] = B[i] + 7; }\n\
                  }\n";
    let spec_text = "name duo\npipeline scale | offset\n";
    let opts = CompileOptions::default();

    let spec = roccc_suite::stream::parse_spec(spec_text).expect("spec parses");
    let direct = roccc_suite::stream::compile_pipeline(source, &spec, &opts)
        .expect("pipeline compiles directly");
    let direct_stats = roccc_suite::stream::stats_report(&direct);
    let direct_vhdl = roccc_suite::stream::generate_pipeline_vhdl(&direct);

    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    let req = |emit: &str| Request::Pipeline {
        source: source.to_string(),
        pipeline: spec_text.to_string(),
        opts: opts.clone(),
        emit: emit.to_string(),
    };

    let (stats, cached) = expect_ok(roundtrip(addr, &req("stats"), IO_TIMEOUT).unwrap());
    assert!(!cached, "first pipeline request is a cold compile");
    assert_eq!(stats, direct_stats.clone().into_bytes());

    // A different emit of the same topology is served from the pipeline
    // cache: both artifacts were rendered when the compile landed.
    let (vhdl, cached) = expect_ok(roundtrip(addr, &req("vhdl"), IO_TIMEOUT).unwrap());
    assert!(cached, "same topology, different emit: cache hit");
    assert_eq!(vhdl, direct_vhdl.into_bytes());

    let m = handle.metrics();
    assert_eq!(m.pipeline_requests.get(), 2);
    assert_eq!(m.pipeline_cache_hits.get(), 1);

    // A FIFO override changes the topology hash, so it must recompile
    // rather than alias the cached entry.
    let resp = roundtrip(
        addr,
        &Request::Pipeline {
            source: source.to_string(),
            pipeline: format!("{spec_text}fifo offset.B depth=64\n"),
            opts: opts.clone(),
            emit: "stats".to_string(),
        },
        IO_TIMEOUT,
    )
    .unwrap();
    let (overridden, cached) = expect_ok(resp);
    assert!(!cached, "a FIFO override is a distinct cache key");
    assert!(
        String::from_utf8(overridden).unwrap().contains("depth 64"),
        "override visible in the stats artifact"
    );

    // Bad emit and unparseable spec are rejected without compiling.
    match roundtrip(addr, &req("dot"), IO_TIMEOUT).unwrap() {
        Response::Err(msg) => assert!(msg.contains("stats|vhdl"), "{msg}"),
        other => panic!("expected err, got {other:?}"),
    }
    let bad_spec = Request::Pipeline {
        source: source.to_string(),
        pipeline: "stage ghost unroll=2\n".to_string(),
        opts: opts.clone(),
        emit: "stats".to_string(),
    };
    match roundtrip(addr, &bad_spec, IO_TIMEOUT).unwrap() {
        Response::Err(msg) => assert!(msg.contains("pipeline spec"), "{msg}"),
        other => panic!("expected err, got {other:?}"),
    }
    handle.shutdown();
}

/// The `explore` protocol verb: a sweep returns the stable JSON artifact
/// with a non-empty frontier, the explore counters account every
/// candidate, and a repeat of the same sweep is served from the daemon's
/// process-wide DSE memo (zero new compiles).
#[test]
fn explore_verb_sweeps_and_memoizes() {
    let handle = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    let fir = roccc_suite::ipcores::kernels::fir_source();
    let req = Request::Explore {
        source: fir.clone(),
        function: "fir".to_string(),
        opts: CompileOptions::default(),
        unroll_factors: vec![1, 2],
        strip_widths: vec![0, 2],
        scalar_opt_both: false,
        budget_slices: None,
        beam: None,
        emit: "json".to_string(),
    };

    let (payload, cached) = expect_ok(roundtrip(addr, &req, IO_TIMEOUT).expect("roundtrip"));
    assert!(!cached);
    let text = String::from_utf8(payload).expect("json artifact is utf-8");
    assert!(text.contains("\"schema\": \"roccc-explore-v1\""));
    assert!(
        !text.contains("\"frontier\": [\n  ]"),
        "frontier is non-empty:\n{text}"
    );

    let m = handle.metrics();
    assert_eq!(m.explore_requests.get(), 1);
    assert_eq!(m.explore_candidates.get(), 4, "1,2 x 0,2 = 4 candidates");
    assert_eq!(m.explore_memo_hits.get(), 0, "cold memo on the first sweep");

    // The same sweep again: statuses flip to `memo-hit` but the frontier
    // (and every metric) is unchanged, and nothing recompiles.
    let (payload2, _) = expect_ok(roundtrip(addr, &req, IO_TIMEOUT).expect("roundtrip"));
    let text2 = String::from_utf8(payload2).unwrap();
    let frontier_of = |t: &str| {
        t[t.find("\"frontier\"")
            .expect("artifact has a frontier section")..]
            .to_string()
    };
    assert_eq!(
        frontier_of(&text),
        frontier_of(&text2),
        "memo hits change no metrics"
    );
    assert!(text2.contains("\"status\":\"memo-hit\""), "{text2}");
    assert!(
        !text2.contains("\"status\":\"scored\""),
        "nothing recompiled:\n{text2}"
    );
    assert_eq!(m.explore_candidates.get(), 8);
    assert_eq!(
        m.explore_memo_hits.get() + m.explore_skipped.get() / 2 + m.explore_pruned.get() / 2,
        4,
        "the repeat sweep was served entirely from the memo"
    );

    // A bogus emit is rejected without running the sweep.
    let bad = Request::Explore {
        emit: "vhdl".to_string(),
        source: fir,
        function: "fir".to_string(),
        opts: CompileOptions::default(),
        unroll_factors: vec![1],
        strip_widths: vec![0],
        scalar_opt_both: false,
        budget_slices: None,
        beam: None,
    };
    match roundtrip(addr, &bad, IO_TIMEOUT).expect("roundtrip") {
        Response::Err(msg) => assert!(msg.contains("json|table"), "{msg}"),
        other => panic!("expected err, got {other:?}"),
    }
    assert_eq!(
        m.explore_requests.get(),
        3,
        "rejected requests still counted"
    );
    handle.shutdown();
}

/// A malformed compile request larger than a client's 8 KiB write buffer
/// leaves in several writes. The daemon reads it through `end` before it
/// answers, so the client finishes sending (no broken pipe) and reads a
/// clean `err` reply; the daemon keeps serving.
#[test]
fn malformed_request_in_several_writes_gets_err() {
    let handle = start(ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();

    let mut good = Vec::new();
    let req = compile_req(
        &huge_kernel(1000),
        "huge",
        &CompileOptions::default(),
        "vhdl",
    );
    write_request(&mut good, &req).unwrap();
    let head = b"compile\n";
    assert!(good.starts_with(head));
    // The first option line is bad: everything after it is unread when
    // the request is rejected.
    let bad = [&head[..], b"period NaN\n", &good[head.len()..]].concat();
    assert!(bad.len() > 3 * 8192, "request spans several writes");

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(IO_TIMEOUT).unwrap();
    stream.set_write_timeout(IO_TIMEOUT).unwrap();
    let mut w = stream.try_clone().unwrap();
    for chunk in bad.chunks(4096) {
        w.write_all(chunk)
            .expect("daemon still reading the request");
        w.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    match read_response(&mut BufReader::new(stream)).expect("reply arrives") {
        Response::Err(msg) => assert!(msg.contains("period"), "names the bad line: {msg}"),
        other => panic!("expected err, got {other:?}"),
    }
    assert!(handle.metrics().errors.get() >= 1);

    let (pong, _) = expect_ok(roundtrip(addr, &Request::Ping, IO_TIMEOUT).unwrap());
    assert_eq!(pong, b"pong\n");
    handle.shutdown();
}

/// An unknown compile `emit` is refused before compiling, with an error
/// that names every accepted kind.
#[test]
fn unknown_compile_emit_names_every_accepted_kind() {
    let handle = start(ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    let req = compile_req(
        "void k(int a, int* o) { *o = a + 1; }",
        "k",
        &CompileOptions::default(),
        "bogus",
    );
    match roundtrip(addr, &req, IO_TIMEOUT).expect("roundtrip") {
        Response::Err(msg) => {
            assert!(msg.contains("unknown emit `bogus`"), "{msg}");
            for kind in artifact::kinds(ARTIFACTS, false) {
                assert!(msg.contains(kind), "`{kind}` missing from: {msg}");
            }
            assert!(
                msg.contains("prove-json") && msg.contains("table-row"),
                "{msg}"
            );
        }
        other => panic!("expected err, got {other:?}"),
    }
    handle.shutdown();
}

/// Every compile artifact kind renders the same bytes in process as the
/// daemon serves, on fir and udiv under default and full options; an
/// absent artifact is the same error. `stats` differs only by the
/// daemon's service lines after the shared summary.
#[test]
fn local_renders_match_daemon_payloads_for_every_kind() {
    use roccc_suite::ipcores::kernels::{fir_source, udiv_source};
    let full = CompileOptions {
        range_narrow: true,
        pipeline_ii: Some(0),
        prove: true,
        ..CompileOptions::default()
    };
    let handle = start(ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    for (source, function) in [(fir_source(), "fir"), (udiv_source(), "udiv")] {
        for (set, opts) in [
            ("default", CompileOptions::default()),
            ("full", full.clone()),
        ] {
            let hw = roccc::compile(&source, function, &opts).expect("compiles");
            for art in ARTIFACTS {
                let label = format!("{function} {set} {}", art.kind);
                let req = compile_req(&source, function, &opts, art.kind);
                let served = match roundtrip(addr, &req, IO_TIMEOUT).expect("roundtrip") {
                    Response::Ok { payload, .. } => Ok(String::from_utf8(payload).unwrap()),
                    Response::Err(msg) => Err(msg),
                    other => panic!("{label}: {other:?}"),
                };
                let local = (art.render)(&hw);
                if art.kind != artifact::STATS {
                    assert_eq!(local, served, "{label}");
                    continue;
                }
                let (local, served) = (local.unwrap(), served.unwrap());
                let service = served
                    .strip_prefix(&local)
                    .unwrap_or_else(|| panic!("{label}: {served}\nlacks\n{local}"));
                for line in service.lines() {
                    assert!(
                        [
                            "verify           :",
                            "vhdl lint        :",
                            "compile time     :",
                            "  "
                        ]
                        .iter()
                        .any(|p| line.starts_with(p)),
                        "{label}: not a service line: {line}"
                    );
                }
            }
        }
    }
    handle.shutdown();
}

/// The CLI renders every compile kind locally through the same table,
/// `table-row` included, and refuses an unknown kind naming them all.
#[test]
fn cli_renders_every_kind_locally() {
    let source = roccc_suite::ipcores::kernels::fir_source();
    let path = std::env::temp_dir().join(format!("cli_kinds_{}.c", std::process::id()));
    std::fs::write(&path, &source).unwrap();
    let cli = |emit: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_roccc"))
            .arg(&path)
            .args(["--function", "fir", "--emit", emit])
            .output()
            .unwrap()
    };
    for art in ARTIFACTS {
        let mut opts = CompileOptions::default();
        art.imply(&mut opts);
        let hw = roccc::compile(&source, "fir", &opts).expect("compiles");
        let out = cli(art.kind);
        assert!(out.status.success(), "{}: {out:?}", art.kind);
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            (art.render)(&hw).unwrap(),
            "{}",
            art.kind
        );
    }
    let out = cli("bogus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    for kind in artifact::kinds(ARTIFACTS, true).chain(["timings"]) {
        assert!(stderr.contains(kind), "`{kind}` missing from: {stderr}");
    }
    std::fs::remove_file(&path).unwrap();
}
