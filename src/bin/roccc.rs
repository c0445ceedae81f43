//! Command-line driver for the ROCCC reproduction.
//!
//! ```text
//! roccc <input.c> --function <name> [options]
//! ```
//!
//! `roccc --help` lists every flag. Its compile-option rows are rendered
//! from [`roccc::options::OPTIONS`], the table that also defines the
//! serve protocol's option lines and a pipeline stage's overrides. Beside
//! one compile, `roccc` runs a design-space sweep (`--explore`), a
//! multi-kernel streaming pipeline (`--pipeline <file>`), or sends the
//! request to a running `roccc-serve` daemon (`--connect <host:port>`).
//!
//! `--emit <kind>` picks the artifact. The kinds of each mode, their
//! help rows and the unknown-kind error come from one table per result:
//! [`roccc::artifact::ARTIFACTS`] for a compile, `roccc_explore::ARTIFACTS`
//! for a sweep and `roccc_stream::ARTIFACTS` for a pipeline. The daemon
//! renders through the same tables, so a local and a served artifact are
//! the same bytes; only the daemon's `stats` adds its service lines. The
//! one CLI-only kind is `timings`, which needs the instrumented compile.
//!
//! On `--emit vhdl`, structural lint findings from `roccc-vhdl` are
//! reported as warnings on stderr; the exit code stays 0 unless
//! `--deny-warnings` is in effect. Verifier findings print with source
//! spans where available and make the exit code nonzero on error.

use roccc::artifact::{self, Artifact, ARTIFACTS};
use roccc::proto::{self, Request, Response};
use roccc::{compile, compile_with_area_budget, options, CompileOptions, VerifyLevel};
use roccc_explore::ExploreResult;
use roccc_stream::CompiledPipeline;
use std::process::ExitCode;
use std::time::Duration;

/// The CLI-only compile kind: it needs the instrumented compile, which
/// no [`Artifact`] render has.
const TIMINGS: &str = "timings";

const USAGE: &str = "usage: roccc <input.c> --function <name> [options]

options:
  --function, -f <name>  kernel function to compile (required)
  --budget <slices>      pick the unroll factor by area budget
  --emit <kind>          the artifact to print (default stats):
{compile kinds}  -o <file>              write output to a file instead of stdout
  --help, -h             print this help

compile options:
{compile options}
design-space exploration (--emit default table):
  --explore              sweep unroll x strip-mine x scalar-opt and
                         report the (slices, cycles, clock) Pareto
                         frontier; infeasible configs are skip-reported
  --unroll-factors <csv> unroll factors to sweep (default 1,2,4)
  --strip-widths <csv>   strip-mine widths to sweep, 0 = none
                         (default 0,2,4)
  --scalar-both          sweep scalar optimization both on and off
  --budget-slices <n>    prune candidates whose fast area estimate
                         exceeds n slices before mapping/simulation
  --beam <n>             fully score at most the n most promising
                         estimates (omit for exhaustive search)
  --emit <kind>          one of:
{explore kinds}
streaming pipelines (--emit default stats):
  --pipeline <file>      compile the multi-kernel pipeline described in
                         <file> (stages are C functions in <input.c>)
  --emit <kind>          one of:
{pipeline kinds}
client mode (requires a running roccc-serve daemon; --explore and
--pipeline work over --connect too; the daemon refuses local-only kinds):
  --connect <host:port>  send the compile to the server
  --metrics              (with --connect) print the server metrics
  --shutdown             (with --connect) stop the server
";

/// The `roccc --help` text, its kind rows and compile options rendered
/// from their tables.
fn usage() -> String {
    let compile_kinds = artifact::help_rows(ARTIFACTS)
        + &artifact::help_row(TIMINGS, "per-phase compile wall-clock breakdown")
        + &artifact::help_row("", "(local only)");
    USAGE
        .replace("{compile kinds}", &compile_kinds)
        .replace("{compile options}", &options::cli_help())
        .replace(
            "{explore kinds}",
            &artifact::help_rows(roccc_explore::ARTIFACTS),
        )
        .replace(
            "{pipeline kinds}",
            &artifact::help_rows(roccc_stream::ARTIFACTS),
        )
}

struct Args {
    input: Option<String>,
    function: Option<String>,
    pipeline: Option<String>,
    opts: CompileOptions,
    budget: Option<u64>,
    emit: Option<String>,
    output: Option<String>,
    connect: Option<String>,
    metrics: bool,
    shutdown: bool,
    explore: bool,
    unroll_factors: Vec<u64>,
    strip_widths: Vec<u64>,
    scalar_both: bool,
    budget_slices: Option<u64>,
    beam: Option<usize>,
    help: bool,
}

/// Parses a comma-separated list of unsigned integers.
fn parse_csv_u64(flag: &str, v: &str) -> Result<Vec<u64>, String> {
    v.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("{flag} expects comma-separated numbers, got `{p}`"))
        })
        .collect()
}

/// The number following `flag` on the command line.
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args
        .next()
        .ok_or_else(|| format!("{flag} needs a number"))?;
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got `{v}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut a = Args {
        input: None,
        function: None,
        pipeline: None,
        opts: CompileOptions::default(),
        budget: None,
        emit: None,
        output: None,
        connect: None,
        metrics: false,
        shutdown: false,
        explore: false,
        unroll_factors: vec![1, 2, 4],
        strip_widths: vec![0, 2, 4],
        scalar_both: false,
        budget_slices: None,
        beam: None,
        help: false,
    };

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--function" | "-f" => a.function = Some(args.next().ok_or("--function needs a name")?),
            "--pipeline" => a.pipeline = Some(args.next().ok_or("--pipeline needs a file")?),
            "--budget" => a.budget = Some(number(&mut args, "--budget")?),
            "--emit" => a.emit = Some(args.next().ok_or("--emit needs a kind (try --help)")?),
            "-o" => a.output = Some(args.next().ok_or("-o needs a path")?),
            "--explore" => a.explore = true,
            "--unroll-factors" => {
                let v = args.next().ok_or("--unroll-factors needs a CSV list")?;
                a.unroll_factors = parse_csv_u64("--unroll-factors", &v)?;
            }
            "--strip-widths" => {
                let v = args.next().ok_or("--strip-widths needs a CSV list")?;
                a.strip_widths = parse_csv_u64("--strip-widths", &v)?;
            }
            "--scalar-both" => a.scalar_both = true,
            "--budget-slices" => a.budget_slices = Some(number(&mut args, "--budget-slices")?),
            "--beam" => a.beam = Some(number(&mut args, "--beam")?),
            "--connect" => a.connect = Some(args.next().ok_or("--connect needs host:port")?),
            "--metrics" => a.metrics = true,
            "--shutdown" => a.shutdown = true,
            // --deny-warnings is the stricter request; don't relax it.
            "--verify" if a.opts.verify == VerifyLevel::Deny => {}
            "--help" | "-h" => a.help = true,
            other if options::apply_cli_arg(&mut a.opts, other, &mut args)? => {}
            other if a.input.is_none() && !other.starts_with('-') => {
                a.input = Some(other.to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if a.help {
        // Skip the required-argument checks: `roccc --help` alone is valid.
        return Ok(a);
    }
    if (a.metrics || a.shutdown) && a.connect.is_none() {
        return Err("--metrics/--shutdown require --connect (try --help)".to_string());
    }
    if a.explore && a.budget.is_some() {
        return Err(
            "--explore and --budget are mutually exclusive (use --budget-slices)".to_string(),
        );
    }
    if a.pipeline.is_some() && (a.explore || a.budget.is_some()) {
        return Err("--pipeline does not combine with --explore or --budget".to_string());
    }
    let control = a.metrics || a.shutdown;
    if !control && a.input.is_none() {
        return Err("missing input file (try --help)".to_string());
    }
    if !control && a.function.is_none() && a.pipeline.is_none() {
        return Err("missing --function (try --help)".to_string());
    }
    Ok(a)
}

/// The `timings` artifact: one instrumented compile (VHDL rendering
/// charged too) and the per-phase wall-clock breakdown, formatted like
/// the serve daemon's stats line but one row per phase.
fn render_timings(source: &str, function: &str, args: &Args) -> Result<String, String> {
    if args.budget.is_some() {
        return Err(
            "--emit timings does not combine with --budget (the budget search \
             compiles several candidates; time one configuration at a time)"
                .to_string(),
        );
    }
    let (hw, mut timings) =
        roccc::compile_timed(source, function, &args.opts).map_err(|e| render_error(&e, source))?;
    for d in &hw.diagnostics {
        eprintln!("{}", d.render(Some(source)));
    }
    let v0 = std::time::Instant::now();
    let vhdl = hw.to_vhdl();
    timings.vhdl = v0.elapsed();

    let total = timings.total().as_secs_f64().max(1e-12);
    let mut s = format!(
        "kernel           : {}\nvhdl artifact    : {} bytes\n",
        hw.kernel.name,
        vhdl.len()
    );
    for (i, phase) in roccc::PhaseTimings::PHASES.iter().enumerate() {
        let d = timings.get(i).as_secs_f64();
        s.push_str(&format!(
            "{phase:<17}: {:>9.3} ms  ({:>5.1}%)\n",
            d * 1e3,
            d / total * 100.0
        ));
    }
    s.push_str(&format!("total            : {:>9.3} ms\n", total * 1e3));
    Ok(s)
}

/// Writes `text` to `-o file` or stdout.
fn deliver(output: &Option<String>, text: &str) -> Result<(), String> {
    match output {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Local design-space exploration: sweep the configured space and emit
/// the frontier artifact. An empty frontier (every candidate failed or
/// was pruned away) is an error.
fn run_explore(
    args: &Args,
    source: &str,
    function: &str,
    art: &Artifact<ExploreResult>,
) -> Result<(), String> {
    let space =
        roccc_explore::Space::new(&args.unroll_factors, &args.strip_widths, args.scalar_both);
    let cfg = roccc_explore::ExploreConfig {
        workers: 0, // one per candidate, capped
        budget_slices: args.budget_slices,
        beam: args.beam,
        compiler: None,
    };
    let memo = roccc_explore::Memo::new();
    let result = roccc_explore::explore(source, function, &args.opts, &space, &cfg, &memo);
    deliver(&args.output, &(art.render)(&result)?)?;
    if result.frontier.is_empty() {
        return Err(format!(
            "exploration produced an empty frontier: {} candidate(s), {} skipped, {} pruned",
            result.stats.candidates,
            result.stats.skipped,
            result.stats.pruned_budget + result.stats.pruned_beam
        ));
    }
    Ok(())
}

/// Local `--pipeline` mode: compile the process network and emit the
/// artifact `art` (stats, VHDL, or a co-simulation report checked
/// against chained single-kernel golden runs).
fn run_pipeline(
    args: &Args,
    source: &str,
    spec_text: &str,
    art: &Artifact<CompiledPipeline>,
) -> Result<(), String> {
    let spec = roccc_stream::parse_spec(spec_text).map_err(|e| e.to_string())?;
    let cp =
        roccc_stream::compile_pipeline(source, &spec, &args.opts).map_err(|e| e.to_string())?;
    // Non-fatal composition findings (warn level) go to stderr.
    for d in &cp.diagnostics {
        eprintln!("{d}");
    }
    let text = (art.render)(&cp)?;
    if art.kind == roccc_stream::VHDL {
        lint_gate(&text, &args.opts)?;
    }
    deliver(&args.output, &text)
}

/// Ships `req` to the daemon and delivers the reply.
fn send(args: &Args, req: &Request) -> Result<(), String> {
    let addr = args.connect.as_deref().expect("client mode");
    let io_timeout = Some(Duration::from_secs(120));
    match proto::roundtrip(addr, req, io_timeout).map_err(|e| e.to_string())? {
        Response::Ok { payload, cached } => {
            if cached && !args.metrics && !args.shutdown {
                eprintln!("(served from cache)");
            }
            deliver(&args.output, &String::from_utf8_lossy(&payload))
        }
        Response::Err(msg) => Err(format!("server error: {msg}")),
        Response::Timeout(msg) => Err(format!("server timeout: {msg}")),
        Response::Busy => Err("server busy: admission queue full, retry later".to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = parse_args()?;
    if args.help {
        print!("{}", usage());
        return Ok(());
    }
    if args.metrics {
        return send(&args, &Request::Metrics);
    }
    if args.shutdown {
        return send(&args, &Request::Shutdown);
    }
    let input = args.input.as_deref().expect("parse_args checked input");
    let source = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    // A client asks for what the daemon serves: no local-only kind.
    let local = args.connect.is_none();
    if !local && args.budget.is_some() {
        return Err("--budget is not supported in --connect mode".to_string());
    }
    if let Some(spec_path) = &args.pipeline {
        let kind = args.emit.as_deref().unwrap_or(roccc_stream::STATS);
        let art = artifact::lookup(roccc_stream::ARTIFACTS, kind, local, "pipeline ")?;
        let pipeline = std::fs::read_to_string(spec_path)
            .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
        if local {
            return run_pipeline(&args, &source, &pipeline, art);
        }
        let req = Request::Pipeline {
            source,
            pipeline,
            opts: args.opts.clone(),
            emit: art.kind.to_string(),
        };
        return send(&args, &req);
    }
    let function = args
        .function
        .clone()
        .expect("parse_args checked --function");
    if args.explore {
        let kind = args.emit.as_deref().unwrap_or(roccc_explore::TABLE);
        let art = artifact::lookup(roccc_explore::ARTIFACTS, kind, local, "explore ")?;
        if local {
            return run_explore(&args, &source, &function, art);
        }
        let req = Request::Explore {
            source,
            function,
            opts: args.opts.clone(),
            unroll_factors: args.unroll_factors.clone(),
            strip_widths: args.strip_widths.clone(),
            scalar_opt_both: args.scalar_both,
            budget_slices: args.budget_slices,
            beam: args.beam,
            emit: art.kind.to_string(),
        };
        return send(&args, &req);
    }
    let kind = args.emit.as_deref().unwrap_or(artifact::STATS);
    if local && kind == TIMINGS {
        return render_timings(&source, &function, &args)
            .and_then(|text| deliver(&args.output, &text));
    }
    let art = artifact::find(ARTIFACTS, kind, local).ok_or_else(|| {
        let cli_only = local.then_some(TIMINGS);
        artifact::unknown("", kind, artifact::kinds(ARTIFACTS, local).chain(cli_only))
    })?;
    // Asking for the schedule (proof) artifact means "schedule at MinII"
    // ("prove") unless that option was set.
    art.imply(&mut args.opts);
    if !local {
        let req = Request::Compile {
            source,
            function,
            opts: args.opts.clone(),
            emit: art.kind.to_string(),
        };
        return send(&args, &req);
    }

    let (hw, factor) = match args.budget {
        Some(budget) => compile_with_area_budget(&source, &function, &args.opts, budget)
            .map(|b| (b.compiled, Some(b.factor)))
            .map_err(|e| e.to_string())?,
        None => (
            compile(&source, &function, &args.opts).map_err(|e| render_error(&e, &source))?,
            None,
        ),
    };
    // Non-fatal verifier findings (collected under --verify) print with
    // source spans resolved against the input file.
    for d in &hw.diagnostics {
        eprintln!("{}", d.render(Some(&source)));
    }
    let mut text = (art.render)(&hw)?;
    match (art.kind, factor) {
        (artifact::VHDL, _) => lint_gate(&text, &args.opts)?,
        (artifact::STATS, Some(f)) => {
            let at = text.find('\n').map_or(0, |i| i + 1);
            text.insert_str(
                at,
                &format!("unroll factor    : {f} (area-budget driven)\n"),
            );
        }
        _ => {}
    }
    deliver(&args.output, &text)
}

/// Lints generated VHDL: findings are warnings (stderr) and the artifact
/// is still emitted, except under --deny-warnings, where any finding
/// fails the run.
fn lint_gate(text: &str, opts: &CompileOptions) -> Result<(), String> {
    let findings = roccc_vhdl::lint::lint(text);
    for d in &findings {
        eprintln!("{d}");
    }
    if opts.verify == VerifyLevel::Deny && !findings.is_empty() {
        return Err(format!(
            "error: --deny-warnings set and the VHDL lint reported {} finding(s)",
            findings.len()
        ));
    }
    Ok(())
}

fn render_error(e: &roccc::CompileError, source: &str) -> String {
    match e {
        roccc::CompileError::Front(c) => c.render(source),
        roccc::CompileError::Verify(diags) => {
            let mut s = format!("verification failed with {} finding(s):", diags.len());
            for d in diags {
                s.push_str("\n  ");
                s.push_str(&d.render(Some(source)));
            }
            s
        }
        other => other.to_string(),
    }
}
