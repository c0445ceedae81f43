//! The pipeline-description language.
//!
//! A pipeline file names the stages (C functions in the accompanying
//! source), the streams between them, and the tuning knobs:
//!
//! ```text
//! # three-stage image pipeline
//! name     wavelet_pipe
//! pipeline wavelet | threshold | encode
//! stage    threshold verify=deny
//! bind     wavelet.Y -> threshold.D
//! fifo     threshold.D depth=72
//! bus      2
//! ```
//!
//! * `pipeline` (required, once) — `|`-separated stage list, one stage
//!   per C function, producers left of consumers;
//! * `stage <name> k=v ...` — per-stage [`CompileOptions`] overrides on
//!   top of the base options; every key and value comes from
//!   [`roccc::options::OPTIONS`] (`roccc --help` lists them), e.g.
//!   `unroll=4 pipeline-ii=auto prove=on`;
//! * `bind a.X -> b.Y` — stream stage `a`'s output array `X` into stage
//!   `b`'s input window `Y`. When a consumer has no explicit bind and
//!   both sides of a consecutive stage pair have exactly one port, the
//!   bind is derived automatically;
//! * `fifo b.Y depth=N` — override the derived FIFO depth of the channel
//!   feeding `b.Y` (the undersized-FIFO verifier still checks it);
//! * `bus N` — words per memory beat for external arrays and channel
//!   pops (default 1);
//! * `name` — pipeline name (defaults to the joined stage names);
//! * `#` starts a comment.

use crate::StreamError;
use roccc::CompileOptions;

/// Per-stage entry of a parsed pipeline description.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Stage name == C function name compiled for this stage.
    pub name: String,
    /// `(key, value)` option overrides, applied onto the base
    /// [`CompileOptions`] by [`StageSpec::apply`].
    pub overrides: Vec<(String, String)>,
}

impl StageSpec {
    /// Applies the overrides onto `base`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Spec`] on an unknown key or unparsable value.
    pub fn apply(&self, base: &CompileOptions) -> Result<CompileOptions, StreamError> {
        let mut o = base.clone();
        for (k, v) in &self.overrides {
            o.set(k, Some(v))
                .map_err(|e| StreamError::Spec(format!("stage `{}`: {e}", self.name)))?;
        }
        Ok(o)
    }
}

/// One explicit `producer.array -> consumer.array` binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindSpec {
    /// Producer stage name.
    pub from_stage: String,
    /// Producer output array.
    pub from_array: String,
    /// Consumer stage name.
    pub to_stage: String,
    /// Consumer input window array.
    pub to_array: String,
}

/// A `fifo` depth override for the channel feeding one consumer port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoSpec {
    /// Consumer stage name.
    pub stage: String,
    /// Consumer input window array.
    pub array: String,
    /// Forced FIFO depth in elements.
    pub depth: usize,
}

/// A parsed pipeline description (see the module docs for the syntax).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineSpec {
    /// Pipeline name.
    pub name: String,
    /// Stages in declaration order (producers before consumers).
    pub stages: Vec<StageSpec>,
    /// Explicit port bindings.
    pub binds: Vec<BindSpec>,
    /// FIFO depth overrides.
    pub fifos: Vec<FifoSpec>,
    /// Words per memory beat (external arrays and channel pops).
    pub bus_elems: usize,
}

/// Splits `a.X` into `("a", "X")`.
fn split_port(tok: &str, line: usize) -> Result<(String, String), StreamError> {
    match tok.split_once('.') {
        Some((s, a)) if !s.is_empty() && !a.is_empty() => Ok((s.to_string(), a.to_string())),
        _ => Err(StreamError::Spec(format!(
            "line {line}: `{tok}` is not a `stage.array` port"
        ))),
    }
}

/// Parses a pipeline description.
///
/// # Errors
///
/// [`StreamError::Spec`] with a line number on any malformed directive,
/// duplicate stage, or missing `pipeline` line.
pub fn parse_spec(text: &str) -> Result<PipelineSpec, StreamError> {
    let mut spec = PipelineSpec {
        bus_elems: 1,
        ..PipelineSpec::default()
    };
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match verb {
            "name" => {
                spec.name = rest.to_string();
            }
            "pipeline" => {
                if !spec.stages.is_empty() {
                    return Err(StreamError::Spec(format!(
                        "line {line_no}: duplicate `pipeline` directive"
                    )));
                }
                for part in rest.split('|') {
                    let name = part.trim();
                    if name.is_empty() {
                        return Err(StreamError::Spec(format!(
                            "line {line_no}: empty stage name in pipeline list"
                        )));
                    }
                    if spec.stages.iter().any(|s| s.name == name) {
                        return Err(StreamError::Spec(format!(
                            "line {line_no}: stage `{name}` listed twice (each stage \
                             runs one kernel instance)"
                        )));
                    }
                    spec.stages.push(StageSpec {
                        name: name.to_string(),
                        overrides: Vec::new(),
                    });
                }
            }
            "stage" => {
                let mut toks = rest.split_whitespace();
                let name = toks.next().ok_or_else(|| {
                    StreamError::Spec(format!("line {line_no}: `stage` needs a stage name"))
                })?;
                let stage = spec
                    .stages
                    .iter_mut()
                    .find(|s| s.name == name)
                    .ok_or_else(|| {
                        StreamError::Spec(format!(
                            "line {line_no}: stage `{name}` is not in the pipeline list \
                             (declare `pipeline` first)"
                        ))
                    })?;
                for t in toks {
                    let (k, v) = t.split_once('=').ok_or_else(|| {
                        StreamError::Spec(format!("line {line_no}: `{t}` is not `key=value`"))
                    })?;
                    stage.overrides.push((k.to_string(), v.to_string()));
                }
                // Validate eagerly: every key parses independently of the
                // base options, so a bad override fails here at its line
                // instead of later inside `compile_pipeline`.
                stage
                    .apply(&CompileOptions::default())
                    .map_err(|e| StreamError::Spec(format!("line {line_no}: {e}")))?;
            }
            "bind" => {
                let (lhs, rhs) = rest.split_once("->").ok_or_else(|| {
                    StreamError::Spec(format!("line {line_no}: `bind` needs `from.X -> to.Y`"))
                })?;
                let (from_stage, from_array) = split_port(lhs.trim(), line_no)?;
                let (to_stage, to_array) = split_port(rhs.trim(), line_no)?;
                spec.binds.push(BindSpec {
                    from_stage,
                    from_array,
                    to_stage,
                    to_array,
                });
            }
            "fifo" => {
                let mut toks = rest.split_whitespace();
                let port = toks.next().ok_or_else(|| {
                    StreamError::Spec(format!("line {line_no}: `fifo` needs a `stage.array`"))
                })?;
                let (stage, array) = split_port(port, line_no)?;
                let depth_tok = toks.next().unwrap_or("");
                let depth = depth_tok
                    .strip_prefix("depth=")
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| {
                        StreamError::Spec(format!(
                            "line {line_no}: `fifo` needs `depth=<elements>`"
                        ))
                    })?;
                spec.fifos.push(FifoSpec {
                    stage,
                    array,
                    depth,
                });
            }
            "bus" => {
                spec.bus_elems = rest.parse().map_err(|_| {
                    StreamError::Spec(format!("line {line_no}: `bus` needs a word count"))
                })?;
                if spec.bus_elems == 0 {
                    return Err(StreamError::Spec(format!(
                        "line {line_no}: `bus` must be at least 1"
                    )));
                }
            }
            other => {
                return Err(StreamError::Spec(format!(
                    "line {line_no}: unknown directive `{other}`"
                )));
            }
        }
    }
    if spec.stages.is_empty() {
        return Err(StreamError::Spec(
            "pipeline description has no `pipeline` directive".into(),
        ));
    }
    if spec.name.is_empty() {
        spec.name = spec
            .stages
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join("_");
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roccc::{UnrollStrategy, VerifyLevel};

    #[test]
    fn parses_full_description() {
        let spec = parse_spec(
            "# demo\n\
             name  wp\n\
             pipeline wavelet | threshold | encode  # stages\n\
             stage threshold verify=deny unroll=2\n\
             bind  wavelet.Y -> threshold.D\n\
             fifo  threshold.D depth=72\n\
             bus   2\n",
        )
        .unwrap();
        assert_eq!(spec.name, "wp");
        assert_eq!(
            spec.stages
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            vec!["wavelet", "threshold", "encode"]
        );
        assert_eq!(spec.binds.len(), 1);
        assert_eq!(spec.binds[0].from_array, "Y");
        assert_eq!(spec.fifos[0].depth, 72);
        assert_eq!(spec.bus_elems, 2);
        let opts = spec.stages[1].apply(&CompileOptions::default()).unwrap();
        assert_eq!(opts.verify, VerifyLevel::Deny);
        assert_eq!(opts.unroll, UnrollStrategy::Partial(2));
    }

    #[test]
    fn default_name_joins_stages() {
        let spec = parse_spec("pipeline a | b\n").unwrap();
        assert_eq!(spec.name, "a_b");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_spec("").is_err());
        assert!(parse_spec("pipeline a | | b").is_err());
        assert!(parse_spec("pipeline a | a").is_err());
        assert!(parse_spec("pipeline a\nstage b verify=deny").is_err());
        assert!(parse_spec("pipeline a\nbind a -> b").is_err());
        assert!(parse_spec("pipeline a\nfifo a.X deep=3").is_err());
        assert!(parse_spec("pipeline a\nbus 0").is_err());
        assert!(parse_spec("pipeline a\nflow a.X").is_err());
        assert!(parse_spec("pipeline a\npipeline b").is_err());
    }

    #[test]
    fn stage_override_errors_name_the_stage() {
        let err = parse_spec("pipeline a\nstage a verify=very").unwrap_err();
        assert!(matches!(err, StreamError::Spec(_)));
        assert!(err.to_string().contains("stage `a`"), "{err}");
        // Unknown keys are caught at parse time too (eager validation)...
        let err = parse_spec("pipeline a\nstage a bogus=1").unwrap_err();
        assert!(err.to_string().contains("unknown option"), "{err}");
        // ...and `apply` reports them itself for hand-built specs.
        let stage = StageSpec {
            name: "a".into(),
            overrides: vec![("bogus".into(), "1".into())],
        };
        let err = stage.apply(&CompileOptions::default()).unwrap_err();
        assert!(err.to_string().contains("unknown option"), "{err}");
    }
}
