//! The compile daemon: TCP accept loop, bounded admission queue, worker
//! pool, single-flight compile deduplication, watchdog-enforced
//! wall-clock timeouts, and `catch_unwind` panic isolation.
//!
//! Threading model:
//!
//! * one **acceptor** thread owns the listener. A full admission queue is
//!   answered inline with `busy` and the connection dropped — clients see
//!   backpressure instead of unbounded queueing;
//! * `workers` **worker** threads pop connections and serve one request
//!   each. Cache hits are answered in the worker; misses hand the actual
//!   compile to a detached **compile** thread and wait on a channel;
//! * one **watchdog** thread tracks every in-flight compile's deadline
//!   and posts a timeout outcome to the waiting worker when it expires.
//!   The detached compile keeps running after a timeout reply; if it
//!   eventually succeeds it still populates the cache, so a retry of the
//!   same request hits;
//! * compile panics are caught in the compile thread (`catch_unwind`),
//!   counted, and reported as an error reply — a poisoned kernel cannot
//!   take a worker down.

use crate::cache::{CacheEntry, DiskStore, ShardedLru};
use crate::metrics::Metrics;
use roccc::artifact::{self, Artifact};
use roccc::hash::cache_key;
use roccc::proto::{self, Request, Response};
use roccc::{CompileError, CompileOptions, Compiled, PhaseTimings};
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The pluggable compile function (timed). The default is
/// [`roccc::compile_timed`]; tests inject failure modes.
pub type CompileFn = Arc<
    dyn Fn(&str, &str, &CompileOptions) -> Result<(Compiled, PhaseTimings), CompileError>
        + Send
        + Sync,
>;

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Admission queue capacity; further connections get `busy`.
    pub queue_cap: usize,
    /// In-memory cache capacity (entries).
    pub cache_cap: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Per-request wall-clock compile budget.
    pub timeout: Duration,
    /// Optional on-disk artifact store directory.
    pub disk_dir: Option<PathBuf>,
    /// Compiler override (None = `roccc::compile_timed`).
    pub compiler: Option<CompileFn>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            cache_cap: 256,
            cache_shards: 8,
            timeout: Duration::from_secs(30),
            disk_dir: None,
            compiler: None,
        }
    }
}

/// Outcome of a miss, delivered to the waiting worker by either the
/// compile thread or the watchdog — whichever speaks first.
enum Outcome {
    Done(Arc<CacheEntry>),
    Failed(String),
    Panicked(String),
    TimedOut,
}

/// Deadline registry serviced by the watchdog thread.
#[derive(Default)]
struct WatchdogState {
    pending: Vec<(Instant, SyncSender<Outcome>)>,
    stop: bool,
}

struct Watchdog {
    state: Mutex<WatchdogState>,
    cv: Condvar,
}

impl Watchdog {
    fn register(&self, deadline: Instant, tx: SyncSender<Outcome>) {
        let mut st = self.state.lock().expect("watchdog poisoned");
        st.pending.push((deadline, tx));
        self.cv.notify_one();
    }

    fn run(&self) {
        let mut st = self.state.lock().expect("watchdog poisoned");
        loop {
            if st.stop {
                return;
            }
            let now = Instant::now();
            // Fire everything due; `try_send` loses gracefully to a
            // compile that finished in the same instant.
            st.pending.retain(|(deadline, tx)| {
                if *deadline <= now {
                    let _ = tx.try_send(Outcome::TimedOut);
                    false
                } else {
                    true
                }
            });
            let wait = st
                .pending
                .iter()
                .map(|(d, _)| d.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_secs(3600));
            let (guard, _) = self.cv.wait_timeout(st, wait).expect("watchdog poisoned");
            st = guard;
        }
    }

    fn stop(&self) {
        self.state.lock().expect("watchdog poisoned").stop = true;
        self.cv.notify_all();
    }
}

struct Shared {
    cfg: ServerConfig,
    compiler: CompileFn,
    cache: ShardedLru,
    disk: Option<DiskStore>,
    metrics: Arc<Metrics>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    inflight: Mutex<HashSet<u64>>,
    inflight_cv: Condvar,
    watchdog: Watchdog,
    stop: AtomicBool,
    /// Process-wide DSE memo: repeated explore sweeps (or sweeps whose
    /// spaces overlap) reuse fully-scored candidates by content hash.
    explore_memo: roccc_explore::Memo,
    /// Bounded cache of compiled pipelines, keyed by
    /// [`roccc_stream::pipeline_cache_key`]. The key space is
    /// domain-separated from single-kernel compile keys, and the entries
    /// are kept apart from [`Shared::cache`] so a burst of pipeline
    /// requests cannot evict hot single-kernel artifacts (or vice versa).
    pipeline_cache: ShardedLru<PipelineEntry>,
}

/// One cached pipeline compile: every kind the daemon serves, rendered
/// once when the compile lands.
struct PipelineEntry(Vec<(&'static str, Result<String, String>)>);

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or send the `shutdown` protocol command
/// and then [`ServerHandle::join`]).
pub struct ServerHandle {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Requests shutdown and joins all service threads. Detached compile
    /// threads (from timed-out requests) are not waited for.
    pub fn shutdown(self) {
        request_stop(&self.shared, self.local_addr);
        self.join();
    }

    /// Joins the service threads (acceptor, workers, watchdog); returns
    /// once a shutdown has been requested and drained.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn request_stop(shared: &Shared, addr: std::net::SocketAddr) {
    shared.stop.store(true, Ordering::SeqCst);
    shared.watchdog.stop();
    shared.queue_cv.notify_all();
    // Unblock the acceptor with a throwaway connection.
    let _ = TcpStream::connect(addr);
}

/// Starts the service and returns once the listener is bound.
///
/// # Errors
///
/// Propagates bind/configuration I/O errors (e.g. a bad `addr` or an
/// unwritable disk-store directory).
pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let local_addr = listener.local_addr()?;
    let disk = match &cfg.disk_dir {
        Some(dir) => Some(DiskStore::open(dir)?),
        None => None,
    };
    let compiler: CompileFn = cfg
        .compiler
        .clone()
        .unwrap_or_else(|| Arc::new(roccc::compile_timed));
    let shared = Arc::new(Shared {
        cache: ShardedLru::new(cfg.cache_cap, cfg.cache_shards),
        disk,
        metrics: Arc::new(Metrics::default()),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        inflight: Mutex::new(HashSet::new()),
        inflight_cv: Condvar::new(),
        watchdog: Watchdog {
            state: Mutex::new(WatchdogState::default()),
            cv: Condvar::new(),
        },
        stop: AtomicBool::new(false),
        explore_memo: roccc_explore::Memo::new(),
        // Pipelines are far rarer than kernel compiles: one shard.
        pipeline_cache: ShardedLru::new(cfg.cache_cap.max(1).div_ceil(4), 1),
        compiler,
        cfg,
    });

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("roccc-serve-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &shared))?,
        );
    }
    for i in 0..shared.cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("roccc-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("roccc-serve-watchdog".to_string())
                .spawn(move || shared.watchdog.run())?,
        );
    }

    Ok(ServerHandle {
        local_addr,
        shared,
        threads,
    })
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let mut queue = shared.queue.lock().expect("queue poisoned");
        if queue.len() >= shared.cfg.queue_cap {
            drop(queue);
            shared.metrics.busy_rejections.inc();
            let mut s = stream;
            let _ = proto::write_response(&mut s, &Response::Busy);
            continue;
        }
        queue.push_back(stream);
        shared.queue_cv.notify_one();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue poisoned");
            }
        };
        handle_connection(shared, stream);
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // A stalled or dead client must not pin a worker forever.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);

    let req = match proto::read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            // `read_request` has already drained a malformed request
            // through its `end` (bounded), so a client that was still
            // sending it reads this reply instead of a broken pipe.
            shared.metrics.errors.inc();
            let _ = proto::write_response(&mut writer, &Response::Err(e.to_string()));
            return;
        }
    };
    shared.metrics.requests.inc();

    let resp = match req {
        Request::Ping => Response::Ok {
            payload: b"pong\n".to_vec(),
            cached: false,
        },
        Request::Metrics => Response::Ok {
            payload: shared.metrics.render().into_bytes(),
            cached: false,
        },
        Request::Shutdown => {
            let addr = reader
                .get_ref()
                .local_addr()
                .expect("connected socket has a local addr");
            let _ = proto::write_response(
                &mut writer,
                &Response::Ok {
                    payload: b"bye\n".to_vec(),
                    cached: false,
                },
            );
            request_stop(shared, addr);
            return;
        }
        Request::Compile {
            source,
            function,
            opts,
            emit,
        } => handle_compile(shared, &source, &function, &opts, &emit),
        Request::Pipeline {
            source,
            pipeline,
            opts,
            emit,
        } => handle_pipeline(shared, &source, &pipeline, &opts, &emit),
        Request::Explore {
            source,
            function,
            opts,
            unroll_factors,
            strip_widths,
            scalar_opt_both,
            budget_slices,
            beam,
            emit,
        } => handle_explore(
            shared,
            &source,
            &function,
            &opts,
            &unroll_factors,
            &strip_widths,
            scalar_opt_both,
            budget_slices,
            beam,
            &emit,
        ),
    };
    if matches!(resp, Response::Err(_)) {
        shared.metrics.errors.inc();
    }
    let _ = proto::write_response(&mut writer, &resp);
}

/// The payload of `art` from a cached entry: the VHDL as rendered when
/// the compile landed, `stats` with the daemon's service lines (verify
/// findings, VHDL lint, compile time), any other kind from the table.
fn payload(entry: &CacheEntry, art: &Artifact<Compiled>) -> Result<String, String> {
    if art.kind == artifact::VHDL {
        return Ok(entry.vhdl.clone());
    }
    let mut s = (art.render)(&entry.compiled)?;
    if art.kind == artifact::STATS {
        let _ = writeln!(s, "verify           : {} finding(s)", entry.verify.len());
        for d in &entry.verify {
            let _ = writeln!(s, "  {d}");
        }
        let _ = writeln!(s, "vhdl lint        : {} warning(s)", entry.lint.len());
        for w in &entry.lint {
            let _ = writeln!(s, "  {w}");
        }
        let t = &entry.timings;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let phases: Vec<String> = PhaseTimings::PHASES
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{p} {:.3}", ms(t.get(i))))
            .collect();
        let total = ms(t.total());
        let _ = writeln!(
            s,
            "compile time     : {total:.3} ms ({})",
            phases.join(" / ")
        );
    }
    Ok(s)
}

/// An `ok` reply carrying a rendered artifact, or the render's error.
fn reply(text: Result<String, String>, cached: bool) -> Response {
    match text {
        Ok(text) => Response::Ok {
            payload: text.into_bytes(),
            cached,
        },
        Err(e) => Response::Err(e),
    }
}

/// The message of a caught panic's payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string())
}

fn handle_compile(
    shared: &Arc<Shared>,
    source: &str,
    function: &str,
    opts: &CompileOptions,
    emit: &str,
) -> Response {
    let start = Instant::now();
    let deadline = start + shared.cfg.timeout;
    let key = cache_key(source, function, opts);

    // Validate the artifact kind up front so a bogus `emit` never costs
    // a compile.
    let art = match artifact::lookup(artifact::ARTIFACTS, emit, false, "") {
        Ok(art) => art,
        Err(e) => return Response::Err(e),
    };

    loop {
        // Fast path: in-memory cache.
        if let Some(entry) = shared.cache.get(key) {
            shared.metrics.cache_hits.inc();
            let resp = reply(payload(&entry, art), true);
            shared.metrics.request_latency.observe(start.elapsed());
            return resp;
        }

        // Second chance: the on-disk artifact store (survives restarts).
        if let Some(disk) = &shared.disk {
            if let Some(payload) = disk.get(key, emit) {
                shared.metrics.disk_hits.inc();
                shared.metrics.request_latency.observe(start.elapsed());
                return Response::Ok {
                    payload,
                    cached: true,
                };
            }
        }

        // Single flight: if another worker is compiling this key, wait
        // for it (bounded by our own deadline) and re-check the cache.
        let mut inflight = shared.inflight.lock().expect("inflight poisoned");
        if !inflight.contains(&key) {
            // A twin may have finished between the cache probe above and
            // this lock; it inserts before clearing its mark, so probe
            // again under the lock before starting a second compile.
            if shared.cache.get(key).is_some() {
                continue;
            }
            inflight.insert(key);
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            shared.metrics.timeouts.inc();
            return Response::Timeout(format!(
                "compile exceeded the {:?} wall-clock budget (waiting on an identical in-flight compile)",
                shared.cfg.timeout
            ));
        }
        let (_guard, _res) = shared
            .inflight_cv
            .wait_timeout(inflight, deadline - now)
            .expect("inflight poisoned");
        // Loop: re-check cache (the winner inserts before clearing the
        // in-flight mark, so a completed twin is a guaranteed hit).
    }

    // We own the compile. Run it on a detached thread so the watchdog
    // can give up on it without killing the worker.
    shared.metrics.cache_misses.inc();
    let (tx, rx) = sync_channel::<Outcome>(2);
    shared.watchdog.register(deadline, tx.clone());
    spawn_compile(shared, key, source, function, opts, tx);

    let outcome = rx.recv().unwrap_or(Outcome::Failed(
        "compile thread vanished without a result".to_string(),
    ));
    let resp = match outcome {
        Outcome::Done(entry) => {
            let text = payload(&entry, art);
            if let (Some(disk), Ok(text)) = (&shared.disk, &text) {
                disk.put(key, emit, text.as_bytes());
            }
            reply(text, false)
        }
        Outcome::Failed(msg) => Response::Err(msg),
        Outcome::Panicked(msg) => Response::Err(format!("compiler panicked: {msg}")),
        Outcome::TimedOut => {
            shared.metrics.timeouts.inc();
            Response::Timeout(format!(
                "compile exceeded the {:?} wall-clock budget",
                shared.cfg.timeout
            ))
        }
    };
    shared.metrics.request_latency.observe(start.elapsed());
    resp
}

/// Runs a design-space exploration sweep inline on the worker. The
/// engine already fans out over its own bounded `thread::scope` pool and
/// skip-reports per-candidate failures, so the worker only has to guard
/// against panics and account the sweep's counters.
#[allow(clippy::too_many_arguments)]
fn handle_explore(
    shared: &Arc<Shared>,
    source: &str,
    function: &str,
    opts: &CompileOptions,
    unroll_factors: &[u64],
    strip_widths: &[u64],
    scalar_opt_both: bool,
    budget_slices: Option<u64>,
    beam: Option<usize>,
    emit: &str,
) -> Response {
    let start = Instant::now();
    shared.metrics.explore_requests.inc();
    let art = match artifact::lookup(roccc_explore::ARTIFACTS, emit, false, "explore ") {
        Ok(art) => art,
        Err(e) => return Response::Err(e),
    };

    let space = roccc_explore::Space::new(unroll_factors, strip_widths, scalar_opt_both);
    let cfg = roccc_explore::ExploreConfig {
        workers: shared.cfg.workers.max(1),
        budget_slices,
        beam,
        compiler: Some(Arc::clone(&shared.compiler)),
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        roccc_explore::explore(source, function, opts, &space, &cfg, &shared.explore_memo)
    }));
    let resp = match result {
        Ok(result) => {
            let st = &result.stats;
            shared.metrics.explore_candidates.add(st.candidates as u64);
            shared.metrics.explore_memo_hits.add(st.memo_hits as u64);
            shared
                .metrics
                .explore_pruned
                .add((st.pruned_budget + st.pruned_beam) as u64);
            shared.metrics.explore_skipped.add(st.skipped as u64);
            reply((art.render)(&result), false)
        }
        Err(panic) => {
            shared.metrics.panics.inc();
            Response::Err(format!("explore panicked: {}", panic_message(&*panic)))
        }
    };
    shared.metrics.request_latency.observe(start.elapsed());
    resp
}

/// Compiles a streaming pipeline inline on the worker. A pipeline is a
/// handful of ordinary kernel compiles plus plain-data composition
/// checks, so it reuses the worker's panic isolation rather than the
/// detached-thread watchdog machinery; every served artifact is rendered
/// once and cached under the topology-hashed key.
fn handle_pipeline(
    shared: &Arc<Shared>,
    source: &str,
    pipeline: &str,
    opts: &CompileOptions,
    emit: &str,
) -> Response {
    let start = Instant::now();
    shared.metrics.pipeline_requests.inc();
    let art = match artifact::lookup(roccc_stream::ARTIFACTS, emit, false, "pipeline ") {
        Ok(art) => art,
        Err(e) => return Response::Err(e),
    };
    let spec = match roccc_stream::parse_spec(pipeline) {
        Ok(s) => s,
        Err(e) => return Response::Err(e.to_string()),
    };
    let key = match roccc_stream::pipeline_cache_key(source, &spec, opts) {
        Ok(k) => k,
        Err(e) => return Response::Err(e.to_string()),
    };

    let served = |entry: &PipelineEntry| {
        let found = entry.0.iter().find(|(kind, _)| *kind == art.kind);
        found.expect("every served kind is rendered").1.clone()
    };

    if let Some(entry) = shared.pipeline_cache.get(key) {
        shared.metrics.pipeline_cache_hits.inc();
        shared.metrics.request_latency.observe(start.elapsed());
        return reply(served(&entry), true);
    }

    let result = catch_unwind(AssertUnwindSafe(|| {
        roccc_stream::compile_pipeline(source, &spec, opts)
    }));
    let resp = match result {
        Ok(Ok(cp)) => {
            shared
                .metrics
                .verify_findings
                .add(cp.diagnostics.len() as u64);
            let entry = Arc::new(PipelineEntry(
                roccc_stream::ARTIFACTS
                    .iter()
                    .filter(|a| !a.local_only)
                    .map(|a| (a.kind, (a.render)(&cp)))
                    .collect(),
            ));
            shared.pipeline_cache.insert(key, Arc::clone(&entry));
            reply(served(&entry), false)
        }
        Ok(Err(e)) => Response::Err(e.to_string()),
        Err(panic) => {
            shared.metrics.panics.inc();
            Response::Err(format!(
                "pipeline compile panicked: {}",
                panic_message(&*panic)
            ))
        }
    };
    shared.metrics.request_latency.observe(start.elapsed());
    resp
}

/// Runs the compile on a detached thread. On success the entry is
/// published to the cache *before* the in-flight mark is cleared, so
/// single-flight waiters always find it.
fn spawn_compile(
    shared: &Arc<Shared>,
    key: u64,
    source: &str,
    function: &str,
    opts: &CompileOptions,
    tx: SyncSender<Outcome>,
) {
    // The detached thread may outlive the request (timeout path), so it
    // owns its inputs and an Arc of the shared state.
    let source = source.to_string();
    let function = function.to_string();
    let opts = opts.clone();
    let shared = Arc::clone(shared);
    let builder = std::thread::Builder::new().name(format!("roccc-compile-{key:08x}"));
    let spawned = builder.spawn({
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let (compiled, mut timings) = (shared.compiler)(&source, &function, &opts)?;
                // Render VHDL once per compile; it feeds both the artifact
                // cache and the lint findings, and charges the vhdl phase.
                let t0 = Instant::now();
                let vhdl = compiled.to_vhdl();
                timings.vhdl += t0.elapsed();
                let lint = roccc_vhdl::lint::lint(&vhdl);
                // Always re-verify the artifacts on a real compile so the
                // daemon surfaces findings even for clients that did not
                // ask for a verify level.
                let verify = roccc::verify_compiled(&compiled);
                Ok::<CacheEntry, CompileError>(CacheEntry {
                    compiled,
                    vhdl,
                    lint,
                    verify,
                    timings,
                })
            }));
            let outcome = match result {
                Ok(Ok(entry)) => {
                    shared.metrics.observe_phases(&entry.timings);
                    shared
                        .metrics
                        .verify_findings
                        .add((entry.verify.len() + entry.lint.len()) as u64);
                    shared
                        .metrics
                        .width_bits_saved
                        .add(roccc::width_bits_saved(&entry.compiled.datapath));
                    let deps = &entry.compiled.deps;
                    shared
                        .metrics
                        .deps_carried_edges
                        .add(deps.edges.iter().filter(|e| e.carried).count() as u64);
                    shared
                        .metrics
                        .deps_recurrences
                        .add(deps.recurrences.len() as u64);
                    shared.metrics.deps_min_ii.add(deps.min_ii);
                    if let Some(sched) = &entry.compiled.schedule {
                        shared.metrics.schedule_ii.add(sched.ii);
                        if sched.fallback.is_some() {
                            shared.metrics.schedule_fallback.inc();
                        }
                    }
                    if let Some(cert) = &entry.compiled.certificate {
                        match cert.verdict {
                            roccc::Verdict::Equal => shared.metrics.prove_proved.inc(),
                            roccc::Verdict::Refuted => shared.metrics.prove_refuted.inc(),
                            roccc::Verdict::Unknown => shared.metrics.prove_unknown.inc(),
                        }
                    }
                    let entry = Arc::new(entry);
                    shared.cache.insert(key, Arc::clone(&entry));
                    shared.clear_inflight(key);
                    Outcome::Done(entry)
                }
                Ok(Err(e)) => {
                    shared.clear_inflight(key);
                    Outcome::Failed(e.to_string())
                }
                Err(panic) => {
                    shared.metrics.panics.inc();
                    shared.clear_inflight(key);
                    Outcome::Panicked(panic_message(&*panic))
                }
            };
            // The worker may already have timed out and gone; that's fine.
            let _ = tx.try_send(outcome);
        }
    });
    if let Err(e) = spawned {
        shared.clear_inflight(key);
        let _ = tx.try_send(Outcome::Failed(format!("cannot spawn compile thread: {e}")));
    }
}

impl Shared {
    /// Removes the single-flight mark for `key` and wakes waiters.
    fn clear_inflight(&self, key: u64) {
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        inflight.remove(&key);
        drop(inflight);
        self.inflight_cv.notify_all();
    }
}
