//! Compile options across every surface.
//!
//! `CompileOptions::canonical_bytes` is the options half of every
//! content-addressed key: the serve daemon's disk cache and the explore
//! memo both hash it. The pinned bytes below were recorded before the
//! option surfaces were derived from `roccc::options::OPTIONS` and must
//! never change, or existing caches silently stop hitting (or, worse,
//! alias). The other tests check that the command line, the serve
//! protocol and a pipeline stage spell every option alike, that the
//! spellings accepted before the table still parse, that each surface
//! rejects a bad period, and that an artifact a compile lacks names the
//! option to compile with by its key.

use roccc_suite::roccc::artifact::ARTIFACTS;
use roccc_suite::roccc::hash::cache_key;
use roccc_suite::roccc::options::{apply_cli_arg, OPTIONS};
use roccc_suite::roccc::proto::{read_request, roundtrip, write_request, Request, Response};
use roccc_suite::roccc::{CompileOptions, UnrollStrategy, VerifyLevel};
use roccc_suite::serve::{start, ServerConfig};
use roccc_suite::stream::{parse_spec, StreamError};
use std::io::Cursor;
use std::time::Duration;

/// The base options with one edit applied. `VerifyLevel::default()`
/// depends on the build profile, so the base pins it to `Off` (the
/// release default).
fn with(edit: impl FnOnce(&mut CompileOptions)) -> CompileOptions {
    let mut o = CompileOptions {
        verify: VerifyLevel::Off,
        ..CompileOptions::default()
    };
    edit(&mut o);
    o
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn canonical_bytes_are_pinned_over_an_option_grid() {
    // The default, then each field at each non-default value type, then
    // every field non-default at once.
    let grid: Vec<(&str, CompileOptions, &str)> = vec![
        (
            "default",
            with(|_| {}),
            "0000000000001c4000000101000000000000",
        ),
        (
            "period 5.25",
            with(|o| o.target_period_ns = 5.25),
            "000000000000154000000101000000000000",
        ),
        (
            "period 1000",
            with(|o| o.target_period_ns = 1000.0),
            "0000000000408f4000000101000000000000",
        ),
        (
            "unroll partial 1",
            with(|o| o.unroll = UnrollStrategy::Partial(1)),
            "0000000000001c40020100000000000000000101000000000000",
        ),
        (
            "unroll partial 4",
            with(|o| o.unroll = UnrollStrategy::Partial(4)),
            "0000000000001c40020400000000000000000101000000000000",
        ),
        (
            "unroll full",
            with(|o| o.unroll = UnrollStrategy::Full),
            "0000000000001c4001000101000000000000",
        ),
        (
            "stripmine 4",
            with(|o| o.stripmine = Some(4)),
            "0000000000001c40000104000000000000000101000000000000",
        ),
        (
            "stripmine 0",
            with(|o| o.stripmine = Some(0)),
            "0000000000001c40000100000000000000000101000000000000",
        ),
        (
            "optimize off",
            with(|o| o.optimize = false),
            "0000000000001c4000000001000000000000",
        ),
        (
            "narrow off",
            with(|o| o.narrow = false),
            "0000000000001c4000000100000000000000",
        ),
        (
            "range-narrow on",
            with(|o| o.range_narrow = true),
            "0000000000001c4000000101000100000000",
        ),
        (
            "fuse on",
            with(|o| o.fuse = true),
            "0000000000001c4000000101010000000000",
        ),
        (
            "pipeline-ii auto",
            with(|o| o.pipeline_ii = Some(0)),
            "0000000000001c40000001010000000100000000000000000000",
        ),
        (
            "pipeline-ii 3",
            with(|o| o.pipeline_ii = Some(3)),
            "0000000000001c40000001010000000103000000000000000000",
        ),
        (
            "verify warn",
            with(|o| o.verify = VerifyLevel::Warn),
            "0000000000001c4000000101000001000000",
        ),
        (
            "verify deny",
            with(|o| o.verify = VerifyLevel::Deny),
            "0000000000001c4000000101000002000000",
        ),
        (
            "prove on",
            with(|o| o.prove = true),
            "0000000000001c4000000101000000000100",
        ),
        (
            "families S,D,E",
            with(|o| o.verify_families = Some("S,D,E".into())),
            "0000000000001c40000001010000000000010500000000000000532c442c45",
        ),
        (
            "families empty",
            with(|o| o.verify_families = Some(String::new())),
            "0000000000001c40000001010000000000010000000000000000",
        ),
        (
            "all non-default",
            CompileOptions {
                target_period_ns: 3.5,
                unroll: UnrollStrategy::Partial(8),
                stripmine: Some(2),
                optimize: false,
                narrow: false,
                range_narrow: true,
                fuse: true,
                pipeline_ii: Some(2),
                verify: VerifyLevel::Deny,
                prove: true,
                verify_families: Some("W,E".into()),
            },
            "0000000000000c40020800000000000000010200000000000000000001010201020000000000\
             000001010300000000000000572c45",
        ),
    ];
    for (label, opts, want) in grid {
        assert_eq!(hex(&opts.canonical_bytes()), want, "{label}: {opts:?}");
    }
}

/// Options from command-line arguments, as `roccc` parses them.
fn from_cli(args: &[&str]) -> Result<CompileOptions, String> {
    let mut opts = CompileOptions::default();
    let mut rest = args.iter().map(|a| a.to_string());
    while let Some(arg) = rest.next() {
        assert!(
            apply_cli_arg(&mut opts, &arg, &mut rest)?,
            "`{arg}` is no option"
        );
    }
    Ok(opts)
}

/// Options from `key value` protocol lines of a compile request.
fn from_proto(lines: &str) -> Result<CompileOptions, String> {
    let text = format!("compile\nfunction f\n{lines}\nsource void f() {{}}\nend\n");
    match read_request(&mut Cursor::new(text.into_bytes())) {
        Ok(Request::Compile { opts, .. }) => Ok(opts),
        Ok(other) => panic!("expected compile, got {other:?}"),
        Err(e) => Err(e.to_string()),
    }
}

/// Options from the `key=value` overrides of a pipeline stage.
fn from_spec(overrides: &str) -> Result<CompileOptions, StreamError> {
    let spec = parse_spec(&format!("pipeline f\nstage f {overrides}\n"))?;
    spec.stages[0].apply(&CompileOptions::default())
}

#[test]
fn every_option_spells_alike_on_every_surface() {
    let default = CompileOptions::default();
    for opt in OPTIONS {
        let mut want = default.clone();
        want.set(opt.key, Some(opt.example)).unwrap();
        assert_ne!(want, default, "{}: example is the default", opt.key);

        // On the command line a key that is also a switch takes no value,
        // so the example must be one of its switches.
        let switch = opt.switches.iter().find(|(_, v)| *v == opt.example);
        let cli = match switch {
            Some((s, _)) => vec![format!("--{s}")],
            None if opt.switches.iter().any(|(s, _)| *s == opt.key) => {
                panic!("{}: example has no command-line spelling", opt.key)
            }
            None => vec![format!("--{}", opt.key), opt.example.to_string()],
        };
        let cli: Vec<&str> = cli.iter().map(String::as_str).collect();
        assert_eq!(from_cli(&cli).unwrap(), want, "{}: command line", opt.key);
        let line = format!("{} {}", opt.key, opt.example);
        assert_eq!(from_proto(&line).unwrap(), want, "{}: protocol", opt.key);
        let stage = format!("{}={}", opt.key, opt.example);
        assert_eq!(from_spec(&stage).unwrap(), want, "{}: stage", opt.key);

        // The protocol writes exactly the non-default options back.
        assert_eq!(want.non_default(), vec![(opt.key, opt.example.to_string())]);
        let req = Request::Compile {
            source: "void f() {}".into(),
            function: "f".into(),
            opts: want.clone(),
            emit: "stats".into(),
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        assert_eq!(
            read_request(&mut Cursor::new(buf)).unwrap(),
            req,
            "{}",
            opt.key
        );

        assert_ne!(
            cache_key("void f() {}", "f", &want),
            cache_key("void f() {}", "f", &default),
            "{}: cache key",
            opt.key
        );
    }
}

#[test]
fn spellings_accepted_before_the_table_still_parse() {
    let d = CompileOptions::default;
    let cli = [
        (
            &["--no-opt"][..],
            CompileOptions {
                optimize: false,
                ..d()
            },
        ),
        (
            &["--no-narrow"][..],
            CompileOptions {
                narrow: false,
                ..d()
            },
        ),
        (
            &["--verify"][..],
            CompileOptions {
                verify: VerifyLevel::Warn,
                ..d()
            },
        ),
        (
            &["--deny-warnings"][..],
            CompileOptions {
                verify: VerifyLevel::Deny,
                ..d()
            },
        ),
        (
            &["--unroll", "full"][..],
            CompileOptions {
                unroll: UnrollStrategy::Full,
                ..d()
            },
        ),
    ];
    for (args, want) in cli {
        assert_eq!(from_cli(args).unwrap(), want, "{args:?}");
    }
    let proto = [
        (
            "no-opt",
            CompileOptions {
                optimize: false,
                ..d()
            },
        ),
        (
            "pipeline-ii auto",
            CompileOptions {
                pipeline_ii: Some(0),
                ..d()
            },
        ),
    ];
    for (line, want) in proto {
        assert_eq!(from_proto(line).unwrap(), want, "{line}");
    }
    let spec = [
        (
            "optimize=off",
            CompileOptions {
                optimize: false,
                ..d()
            },
        ),
        ("unroll=keep", d()),
        ("stripmine=off", d()),
    ];
    for (overrides, want) in spec {
        assert_eq!(from_spec(overrides).unwrap(), want, "{overrides}");
    }
}

#[test]
fn cli_rejects_bad_periods() {
    for bad in ["NaN", "0", "-1"] {
        // Argument errors are reported before the input is read.
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_roccc"))
            .args(["missing.c", "--function", "f", "--period", bad])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--period {bad} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("positive number of ns"), "{stderr}");
    }
}

#[test]
fn daemon_rejects_bad_periods() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    for bad in [f64::NAN, 0.0, -1.0] {
        let req = Request::Compile {
            source: "void f(int a, int* o) { *o = a + 1; }".into(),
            function: "f".into(),
            opts: CompileOptions {
                target_period_ns: bad,
                ..CompileOptions::default()
            },
            emit: "stats".into(),
        };
        match roundtrip(handle.local_addr(), &req, Some(Duration::from_secs(60))).unwrap() {
            Response::Err(msg) => assert!(msg.contains("positive number of ns"), "{msg}"),
            other => panic!("period {bad} accepted: {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn spec_rejects_bad_periods() {
    for bad in ["NaN", "inf", "-inf", "0", "-0", "-1", "ns", ""] {
        let err = from_spec(&format!("period={bad}")).unwrap_err();
        assert!(matches!(err, StreamError::Spec(_)), "{err:?}");
        assert!(err.to_string().contains("positive number of ns"), "{err}");
    }
}

/// A default compile has no schedule, range analysis or certificate;
/// each artifact that needs one says "compile with <key>", and the key
/// must be an option the table parses.
#[test]
fn absent_artifacts_name_an_option_key() {
    let source = roccc_suite::ipcores::kernels::fir_source();
    let hw = roccc_suite::roccc::compile(&source, "fir", &CompileOptions::default()).unwrap();
    let mut named = Vec::new();
    for art in ARTIFACTS {
        let report = (art.render)(&hw).unwrap_or_else(|e| e);
        let Some((_, rest)) = report.split_once("compile with ") else {
            continue;
        };
        let key = rest.split(')').next().unwrap().to_string();
        let def = OPTIONS
            .iter()
            .find(|d| d.key == key)
            .unwrap_or_else(|| panic!("`{}` names `{key}`, which no option is", art.kind));
        (def.parse)(&mut CompileOptions::default(), def.example)
            .unwrap_or_else(|e| panic!("`{}`: {key} {}: {e}", art.kind, def.example));
        named.push(format!("{} {key}", art.kind));
    }
    for want in ["schedule pipeline-ii", "ranges range-narrow"] {
        assert!(named.iter().any(|n| n == want), "`{want}` not in {named:?}");
    }
}
