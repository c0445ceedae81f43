//! Wire protocol shared by the `roccc-serve` compile daemon and the
//! `roccc --connect` client mode.
//!
//! The protocol is a small newline-delimited exchange over a TCP stream,
//! one request per connection. A request is a command line followed by
//! `key value` lines and a terminating `end` line; multi-line values
//! (the C source) are backslash-escaped onto a single line:
//!
//! ```text
//! compile
//! function fir
//! emit vhdl
//! period 7
//! unroll 4
//! source void fir(int A[21], ...) { ... }\n  ...
//! end
//! ```
//!
//! Compile-option lines take their keys, switches and values from
//! [`crate::options::OPTIONS`] (`roccc --help` lists them); a request
//! writes only the options that differ from their defaults.
//!
//! Responses are a single header line, then for payload-carrying statuses
//! exactly `len` raw bytes and a trailing newline:
//!
//! ```text
//! ok <len> cached=<0|1>\n<len bytes>\n
//! err <len>\n<len bytes>\n
//! timeout <len>\n<len bytes>\n
//! busy\n
//! ```
//!
//! `busy` is the admission-control backpressure reply: the server's
//! bounded queue is full and the request was never enqueued — clients
//! should back off and retry.

use crate::CompileOptions;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Hard cap on any single protocol line (16 MiB) so a malicious or
/// broken peer cannot make the server buffer unbounded input.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Hard cap on a response payload (64 MiB).
pub const MAX_PAYLOAD_BYTES: usize = 64 * 1024 * 1024;

/// Hard cap on what [`read_request`] reads past a malformed line while
/// looking for the request's `end` (64 MiB).
pub const MAX_DRAIN_BYTES: usize = 64 * 1024 * 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile `function` from `source` under `opts` and return the
    /// artifact selected by `emit` (`stats|vhdl|dot|ir|c|table-row`).
    Compile {
        /// C source text.
        source: String,
        /// Kernel function name.
        function: String,
        /// Compilation options.
        opts: CompileOptions,
        /// Requested artifact kind.
        emit: String,
    },
    /// Run a design-space exploration sweep over `function`: every
    /// combination of `unroll_factors` × `strip_widths` (0 = no
    /// strip-mining) × scalar-optimization settings, under the base
    /// `opts`, returning the Pareto frontier rendered as `emit`
    /// (`json|table`).
    Explore {
        /// C source text.
        source: String,
        /// Kernel function name.
        function: String,
        /// Base compilation options shared by every candidate.
        opts: CompileOptions,
        /// Unroll factors to sweep (1 = keep the loop).
        unroll_factors: Vec<u64>,
        /// Strip-mine widths to sweep (0 = no strip-mining).
        strip_widths: Vec<u64>,
        /// Sweep scalar optimization both on and off (otherwise the base
        /// `opts.optimize` setting is used for every candidate).
        scalar_opt_both: bool,
        /// Area budget in slices: candidates estimated above it are pruned.
        budget_slices: Option<u64>,
        /// Beam width: keep only the best `beam` estimates for full scoring.
        beam: Option<usize>,
        /// Requested artifact kind.
        emit: String,
    },
    /// Compile a multi-kernel streaming pipeline: `pipeline` is the
    /// pipeline-description text (the `--pipeline` file format) naming
    /// kernels defined in `source`; the reply is the artifact selected
    /// by `emit` (`stats|vhdl`). Co-simulation stays client-side: it
    /// needs lane input data, which the wire protocol does not carry.
    Pipeline {
        /// C source text holding every stage kernel.
        source: String,
        /// Pipeline-description text (stages, bindings, FIFO overrides).
        pipeline: String,
        /// Base compilation options shared by every stage.
        opts: CompileOptions,
        /// Requested artifact kind.
        emit: String,
    },
    /// Fetch the Prometheus-style metrics text.
    Metrics,
    /// Liveness probe; the server answers `ok` with payload `pong`.
    Ping,
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; `cached` reports whether the artifact came from the
    /// content-addressed cache.
    Ok {
        /// Rendered artifact bytes.
        payload: Vec<u8>,
        /// True when served from cache (memory or disk) without compiling.
        cached: bool,
    },
    /// Compilation or protocol error (message in `payload` spirit).
    Err(String),
    /// The request exceeded the server's wall-clock budget.
    Timeout(String),
    /// Admission queue full; retry later.
    Busy,
}

/// Protocol-level failure (I/O or malformed peer).
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying socket error.
    Io(io::Error),
    /// The peer sent something outside the protocol.
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed protocol data: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn malformed(m: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(m.into())
}

/// Escapes a value onto one protocol line (`\` → `\\`, LF → `\n`,
/// CR → `\r`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// Returns [`ProtoError::Malformed`] on a dangling or unknown escape.
pub fn unescape(s: &str) -> Result<String, ProtoError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(malformed(format!("unknown escape `\\{other}`"))),
            None => return Err(malformed("dangling backslash")),
        }
    }
    Ok(out)
}

/// Serializes `req` onto `w` (does not flush).
///
/// # Errors
///
/// Propagates write errors.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    match req {
        Request::Metrics => writeln!(w, "metrics\nend"),
        Request::Ping => writeln!(w, "ping\nend"),
        Request::Shutdown => writeln!(w, "shutdown\nend"),
        Request::Compile {
            source,
            function,
            opts,
            emit,
        } => {
            writeln!(w, "compile")?;
            writeln!(w, "function {}", escape(function))?;
            writeln!(w, "emit {}", escape(emit))?;
            write_opts(w, opts)?;
            writeln!(w, "source {}", escape(source))?;
            writeln!(w, "end")
        }
        Request::Pipeline {
            source,
            pipeline,
            opts,
            emit,
        } => {
            writeln!(w, "pipeline")?;
            writeln!(w, "emit {}", escape(emit))?;
            write_opts(w, opts)?;
            writeln!(w, "spec {}", escape(pipeline))?;
            writeln!(w, "source {}", escape(source))?;
            writeln!(w, "end")
        }
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
        } => {
            writeln!(w, "explore")?;
            writeln!(w, "function {}", escape(function))?;
            writeln!(w, "emit {}", escape(emit))?;
            write_opts(w, opts)?;
            writeln!(w, "factors {}", csv(unroll_factors))?;
            writeln!(w, "strips {}", csv(strip_widths))?;
            if *scalar_opt_both {
                writeln!(w, "scalar-both")?;
            }
            if let Some(b) = budget_slices {
                writeln!(w, "budget {b}")?;
            }
            if let Some(b) = beam {
                writeln!(w, "beam {b}")?;
            }
            writeln!(w, "source {}", escape(source))?;
            writeln!(w, "end")
        }
    }
}

fn csv(values: &[u64]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_csv(value: &str) -> Result<Vec<u64>, ProtoError> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| malformed(format!("bad list element `{v}`")))
        })
        .collect()
}

/// Writes one `key value` line per option that differs from its default
/// (the keys and values of [`crate::options::OPTIONS`]).
fn write_opts<W: Write>(w: &mut W, opts: &CompileOptions) -> io::Result<()> {
    for (key, value) in opts.non_default() {
        writeln!(w, "{key} {}", escape(&value))?;
    }
    Ok(())
}

/// Applies one option line to `opts`: `key value`, or a bare switch.
fn apply_opt(opts: &mut CompileOptions, key: &str, value: &str) -> Result<(), ProtoError> {
    let value = unescape(value)?;
    opts.set(key, Some(value.as_str()).filter(|v| !v.is_empty()))
        .map_err(malformed)
}

fn read_line_capped<R: BufRead>(r: &mut R) -> Result<String, ProtoError> {
    let mut line = String::new();
    // read_line appends, so a loop is not needed; cap afterwards.
    let n = r.read_line(&mut line)?;
    if n == 0 {
        return Err(malformed("peer closed mid-message"));
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(malformed("protocol line exceeds 16 MiB"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Line reader over one request that remembers whether the last line
/// it returned was the `end` terminator.
struct RequestLines<'a, R> {
    r: &'a mut R,
    at_end: bool,
}

impl<R: BufRead> RequestLines<'_, R> {
    fn next(&mut self) -> Result<String, ProtoError> {
        let line = read_line_capped(self.r)?;
        self.at_end = line == "end";
        Ok(line)
    }
}

/// Reads and discards the rest of a malformed request through its `end`
/// line, so the peer has finished writing before it reads the error (a
/// peer still writing into a closed socket gets a broken pipe instead).
/// Stops early at end of stream, on an I/O error such as the socket's
/// read timeout, at a line over [`MAX_LINE_BYTES`], or after
/// [`MAX_DRAIN_BYTES`] in all.
fn drain_to_end<R: BufRead>(r: &mut R) {
    let mut left = MAX_DRAIN_BYTES as u64;
    let mut line = Vec::new();
    while left > 0 {
        line.clear();
        let cap = left.min(MAX_LINE_BYTES as u64 + 1);
        match r.by_ref().take(cap).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(n) => left -= n as u64,
        }
        // No newline: the line hit a cap, or the stream ended mid-line.
        let Some(body) = line.strip_suffix(b"\n") else {
            return;
        };
        if body.strip_suffix(b"\r").unwrap_or(body) == b"end" {
            return;
        }
    }
}

/// Reads one request from `r`. A malformed request is still read through
/// its `end` line (bounded, see [`MAX_DRAIN_BYTES`]) before the error is
/// returned, so a reply to it reaches a peer that is still sending.
///
/// # Errors
///
/// [`ProtoError`] on I/O failure or a message outside the protocol.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ProtoError> {
    let mut lines = RequestLines { r, at_end: false };
    let req = parse_request(&mut lines);
    if matches!(req, Err(ProtoError::Malformed(_))) && !lines.at_end {
        drain_to_end(lines.r);
    }
    req
}

fn parse_request<R: BufRead>(lines: &mut RequestLines<'_, R>) -> Result<Request, ProtoError> {
    let cmd = lines.next()?;
    match cmd.as_str() {
        "metrics" | "ping" | "shutdown" => {
            let end = lines.next()?;
            if end != "end" {
                return Err(malformed(format!("expected `end`, got `{end}`")));
            }
            Ok(match cmd.as_str() {
                "metrics" => Request::Metrics,
                "ping" => Request::Ping,
                _ => Request::Shutdown,
            })
        }
        "compile" => {
            let mut source = None;
            let mut function = None;
            let mut emit = "stats".to_string();
            let mut opts = CompileOptions::default();
            loop {
                let line = lines.next()?;
                if line == "end" {
                    break;
                }
                let (key, value) = line.split_once(' ').unwrap_or((&line, ""));
                match key {
                    "function" => function = Some(unescape(value)?),
                    "emit" => emit = unescape(value)?,
                    "source" => source = Some(unescape(value)?),
                    other => apply_opt(&mut opts, other, value)?,
                }
            }
            Ok(Request::Compile {
                source: source.ok_or_else(|| malformed("compile without source"))?,
                function: function.ok_or_else(|| malformed("compile without function"))?,
                opts,
                emit,
            })
        }
        "pipeline" => {
            let mut source = None;
            let mut pipeline = None;
            let mut emit = "stats".to_string();
            let mut opts = CompileOptions::default();
            loop {
                let line = lines.next()?;
                if line == "end" {
                    break;
                }
                let (key, value) = line.split_once(' ').unwrap_or((&line, ""));
                match key {
                    "emit" => emit = unescape(value)?,
                    "spec" => pipeline = Some(unescape(value)?),
                    "source" => source = Some(unescape(value)?),
                    other => apply_opt(&mut opts, other, value)?,
                }
            }
            Ok(Request::Pipeline {
                source: source.ok_or_else(|| malformed("pipeline without source"))?,
                pipeline: pipeline.ok_or_else(|| malformed("pipeline without spec"))?,
                opts,
                emit,
            })
        }
        "explore" => {
            let mut source = None;
            let mut function = None;
            let mut emit = "json".to_string();
            let mut opts = CompileOptions::default();
            let mut unroll_factors = vec![1];
            let mut strip_widths = vec![0];
            let mut scalar_opt_both = false;
            let mut budget_slices = None;
            let mut beam = None;
            loop {
                let line = lines.next()?;
                if line == "end" {
                    break;
                }
                let (key, value) = line.split_once(' ').unwrap_or((&line, ""));
                match key {
                    "function" => function = Some(unescape(value)?),
                    "emit" => emit = unescape(value)?,
                    "source" => source = Some(unescape(value)?),
                    "factors" => unroll_factors = parse_csv(value)?,
                    "strips" => strip_widths = parse_csv(value)?,
                    "scalar-both" => scalar_opt_both = true,
                    "budget" => {
                        budget_slices = Some(
                            value
                                .parse()
                                .map_err(|_| malformed(format!("bad budget `{value}`")))?,
                        );
                    }
                    "beam" => {
                        beam = Some(
                            value
                                .parse()
                                .map_err(|_| malformed(format!("bad beam `{value}`")))?,
                        );
                    }
                    other => apply_opt(&mut opts, other, value)?,
                }
            }
            Ok(Request::Explore {
                source: source.ok_or_else(|| malformed("explore without source"))?,
                function: function.ok_or_else(|| malformed("explore without function"))?,
                opts,
                unroll_factors,
                strip_widths,
                scalar_opt_both,
                budget_slices,
                beam,
                emit,
            })
        }
        other => Err(malformed(format!("unknown command `{other}`"))),
    }
}

/// Serializes `resp` onto `w` and flushes.
///
/// # Errors
///
/// Propagates write errors.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    match resp {
        Response::Ok { payload, cached } => {
            writeln!(w, "ok {} cached={}", payload.len(), u8::from(*cached))?;
            w.write_all(payload)?;
            writeln!(w)?;
        }
        Response::Err(msg) => {
            writeln!(w, "err {}", msg.len())?;
            w.write_all(msg.as_bytes())?;
            writeln!(w)?;
        }
        Response::Timeout(msg) => {
            writeln!(w, "timeout {}", msg.len())?;
            w.write_all(msg.as_bytes())?;
            writeln!(w)?;
        }
        Response::Busy => writeln!(w, "busy")?,
    }
    w.flush()
}

fn read_payload<R: BufRead>(r: &mut R, len: usize) -> Result<Vec<u8>, ProtoError> {
    if len > MAX_PAYLOAD_BYTES {
        return Err(malformed("payload exceeds 64 MiB"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)?;
    if nl[0] != b'\n' {
        return Err(malformed("payload not newline-terminated"));
    }
    Ok(buf)
}

/// Reads one response from `r`.
///
/// # Errors
///
/// [`ProtoError`] on I/O failure or a malformed header.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<Response, ProtoError> {
    let header = read_line_capped(r)?;
    let mut parts = header.split(' ');
    let status = parts.next().unwrap_or("");
    match status {
        "busy" => Ok(Response::Busy),
        "ok" => {
            let len: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| malformed("ok header without length"))?;
            let cached = parts.next() == Some("cached=1");
            let payload = read_payload(r, len)?;
            Ok(Response::Ok { payload, cached })
        }
        "err" | "timeout" => {
            let len: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| malformed("error header without length"))?;
            let text = String::from_utf8_lossy(&read_payload(r, len)?).into_owned();
            Ok(if status == "err" {
                Response::Err(text)
            } else {
                Response::Timeout(text)
            })
        }
        other => Err(malformed(format!("unknown response status `{other}`"))),
    }
}

/// Client helper: connect to `addr`, send `req`, read the reply.
/// `io_timeout` bounds each socket read/write (None = block forever).
///
/// # Errors
///
/// [`ProtoError`] on connect/send/receive failure.
pub fn roundtrip(
    addr: impl ToSocketAddrs,
    req: &Request,
    io_timeout: Option<Duration>,
) -> Result<Response, ProtoError> {
    let stream = TcpStream::connect(addr)?;
    // One small request and one reply per connection: Nagle only hurts.
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)?;
    // Nagle is off, so each unbuffered write would leave as a segment of
    // its own; buffer the request and send it in one go.
    let mut writer = BufWriter::new(stream.try_clone()?);
    write_request(&mut writer, req)?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UnrollStrategy, VerifyLevel};
    use std::io::Cursor;

    #[test]
    fn escape_roundtrips() {
        let samples = [
            "plain",
            "two\nlines\r\nand\\backslash",
            "",
            "\\n literal",
            "trailing\\",
        ];
        for s in samples {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
        }
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn compile_request_roundtrips_with_options() {
        let req = Request::Compile {
            source: "void f(int* o) {\n  *o = 1;\n}".to_string(),
            function: "f".to_string(),
            opts: CompileOptions {
                target_period_ns: 5.25,
                unroll: UnrollStrategy::Partial(4),
                stripmine: Some(8),
                optimize: false,
                narrow: false,
                range_narrow: true,
                fuse: true,
                pipeline_ii: Some(0),
                verify: VerifyLevel::Deny,
                prove: true,
                verify_families: Some("S,D,E".to_string()),
            },
            emit: "vhdl".to_string(),
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let got = read_request(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, req);
    }

    #[test]
    fn explore_request_roundtrips() {
        let req = Request::Explore {
            source: "void f(int A[8], int B[8]) {\n}".to_string(),
            function: "f".to_string(),
            opts: CompileOptions {
                target_period_ns: 10.0,
                verify: VerifyLevel::Warn,
                ..CompileOptions::default()
            },
            unroll_factors: vec![1, 2, 4],
            strip_widths: vec![0, 4],
            scalar_opt_both: true,
            budget_slices: Some(600),
            beam: Some(6),
            emit: "json".to_string(),
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        assert_eq!(read_request(&mut Cursor::new(buf)).unwrap(), req);

        // Defaults: omitted sweep fields fall back to the trivial space.
        let minimal = b"explore\nfunction f\nsource void f() {}\nend\n".to_vec();
        match read_request(&mut Cursor::new(minimal)).unwrap() {
            Request::Explore {
                unroll_factors,
                strip_widths,
                scalar_opt_both,
                budget_slices,
                beam,
                emit,
                ..
            } => {
                assert_eq!(unroll_factors, vec![1]);
                assert_eq!(strip_widths, vec![0]);
                assert!(!scalar_opt_both);
                assert_eq!(budget_slices, None);
                assert_eq!(beam, None);
                assert_eq!(emit, "json");
            }
            other => panic!("expected explore, got {other:?}"),
        }
        assert!(read_request(&mut Cursor::new(
            b"explore\nfunction f\nfactors 1,banana\nsource x\nend\n".to_vec()
        ))
        .is_err());
    }

    #[test]
    fn pipeline_request_roundtrips() {
        let req = Request::Pipeline {
            source: "void a(int X[8], int Y[8]) {\n}\nvoid b(int Y[8], int Z[8]) {\n}".to_string(),
            pipeline: "name demo\npipeline a | b\nfifo b.Y depth=9\n".to_string(),
            opts: CompileOptions {
                target_period_ns: 8.0,
                verify: VerifyLevel::Deny,
                ..CompileOptions::default()
            },
            emit: "vhdl".to_string(),
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        assert_eq!(read_request(&mut Cursor::new(buf)).unwrap(), req);

        // The spec line is mandatory; emit defaults to stats.
        assert!(read_request(&mut Cursor::new(
            b"pipeline\nsource void a() {}\nend\n".to_vec()
        ))
        .is_err());
        match read_request(&mut Cursor::new(
            b"pipeline\nspec pipeline a\nsource void a() {}\nend\n".to_vec(),
        ))
        .unwrap()
        {
            Request::Pipeline { emit, .. } => assert_eq!(emit, "stats"),
            other => panic!("expected pipeline, got {other:?}"),
        }
    }

    #[test]
    fn control_requests_roundtrip() {
        for req in [Request::Metrics, Request::Ping, Request::Shutdown] {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).unwrap();
            assert_eq!(read_request(&mut Cursor::new(buf)).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = [
            Response::Ok {
                payload: b"library ieee;\nend rtl;\n".to_vec(),
                cached: true,
            },
            Response::Ok {
                payload: Vec::new(),
                cached: false,
            },
            Response::Err("parse error: line 3".to_string()),
            Response::Timeout("deadline 250ms exceeded".to_string()),
            Response::Busy,
        ];
        for resp in cases {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).unwrap();
            assert_eq!(read_response(&mut Cursor::new(buf)).unwrap(), resp);
        }
    }

    #[test]
    fn option_values_are_validated_like_the_command_line() {
        // An unknown family letter would silently drop every finding.
        for bad in [
            "verify-families Q",
            "verify-families S,Q",
            "period NaN",
            "period 0",
            "period -1",
        ] {
            let req = format!("compile\nfunction f\n{bad}\nsource x\nend\n");
            match read_request(&mut Cursor::new(req.into_bytes())) {
                Err(ProtoError::Malformed(_)) => {}
                other => panic!("`{bad}` accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_request_is_read_through_its_end() {
        // Each malformed request is consumed through its own `end`, so
        // the next request on the stream parses cleanly.
        let stream = "compile\nperiod NaN\nsource x\nfunction f\nend\n\
                      ping\nbogus\nend\n\
                      nonsense\nwith a body\nend\r\n\
                      compile\nend\n\
                      metrics\nend\n";
        let mut r = Cursor::new(stream.as_bytes().to_vec());
        for _ in 0..4 {
            assert!(matches!(
                read_request(&mut r),
                Err(ProtoError::Malformed(_))
            ));
        }
        assert_eq!(read_request(&mut r).unwrap(), Request::Metrics);
        // A request cut off before its `end` drains to end of stream.
        let cut = b"compile\nunroll banana\nsource x";
        let mut r = Cursor::new(cut.to_vec());
        assert!(read_request(&mut r).is_err());
        assert_eq!(r.position(), cut.len() as u64);
    }

    #[test]
    fn malformed_input_is_rejected_not_panicked() {
        for bad in [
            "nonsense\nend\n",
            "compile\nend\n",
            "compile\nunroll banana\nsource x\nfunction f\nend\n",
        ] {
            assert!(read_request(&mut Cursor::new(bad.as_bytes().to_vec())).is_err());
        }
        assert!(read_response(&mut Cursor::new(b"ok notanumber\n".to_vec())).is_err());
        assert!(read_response(&mut Cursor::new(b"wat\n".to_vec())).is_err());
    }
}
