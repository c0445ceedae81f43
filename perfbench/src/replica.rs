//! The traced compile: `roccc::compile_with_model_timed` rebuilt from
//! the crates' public functions, with a span around every pass, followed
//! by VHDL rendering.
//!
//! It must stay step-for-step equal to the library pipeline: the drift
//! guard ([`crate::trace::Tracer::drift_check`]) compares every traced
//! compile with `roccc::compile` and fails the run on any difference.

use crate::trace::Tracer;
use roccc::{
    CompileError, CompileOptions, Compiled, Diagnostic, Severity, UnrollStrategy, VerifyLevel,
};
use roccc_cparse::ast::{Function, Item, Program};
use roccc_datapath::{DefaultDelayModel, DelayModel};
use std::time::Instant;

/// Compiles `func` of `source` like `roccc::compile` and renders its
/// VHDL, timing every pass as a span of `t`. The whole compile is the
/// root span `compile`; its outcome is recorded with
/// [`Tracer::record_compile`].
///
/// # Errors
///
/// Exactly the errors `roccc::compile` returns for the same input.
pub fn compile_traced(
    t: &Tracer,
    source: &str,
    func: &str,
    opts: &CompileOptions,
) -> Result<(Compiled, String), CompileError> {
    let t0 = Instant::now();
    let result = t.span("compile", || compile_spans(t, source, func, opts));
    t.record_compile(source, func, opts, t0.elapsed().as_nanos() as u64, &result);
    result
}

fn compile_spans(
    t: &Tracer,
    source: &str,
    func: &str,
    opts: &CompileOptions,
) -> Result<(Compiled, String), CompileError> {
    let model: &dyn DelayModel = &DefaultDelayModel;
    let program = t.span("cparse.frontend", || roccc_cparse::frontend(source))?;
    let program = t.span("hlir.transform", || transform_program(&program, func, opts))?;
    let kernel = t.span("hlir.extract", || {
        roccc_hlir::extract::extract_kernel(&program, func)
    })?;

    let mut ir = t.span("suifvm.lower", || {
        let mut items: Vec<Item> = program
            .items
            .iter()
            .filter(|i| matches!(i, Item::Global(_)))
            .cloned()
            .collect();
        items.push(Item::Function(kernel.dp_func.clone()));
        roccc_suifvm::lower_function(&Program { items }, &kernel.dp_func, &kernel.feedback)
    })?;
    t.span("suifvm.ssa", || roccc_suifvm::to_ssa(&mut ir));
    t.span("suifvm.opt", || {
        if opts.optimize {
            roccc_suifvm::optimize(&mut ir);
        }
        roccc_suifvm::verify_ssa(&ir)
    })
    .map_err(CompileError::Backend)?;
    let mut diagnostics = Vec::new();
    let verify = opts.verify != VerifyLevel::Off;
    if verify {
        t.span("verify.ir", || {
            gate(
                opts,
                opts.verify,
                roccc_verify::verify_ir(&ir),
                &mut diagnostics,
            )
        })?;
    }

    let mut ranges = None;
    if opts.range_narrow {
        let map = t.span("suifvm.range", || {
            let input_ranges = roccc_suifvm::input_seed_ranges(&kernel.dims, &ir);
            let mut map = roccc_suifvm::analyze_with_inputs(&ir, &input_ranges);
            if roccc_suifvm::fold_constant_ranges(&mut ir, &map) {
                if opts.optimize {
                    roccc_suifvm::optimize(&mut ir);
                }
                roccc_suifvm::verify_ssa(&ir).map_err(CompileError::Backend)?;
                map = roccc_suifvm::analyze_with_inputs(&ir, &input_ranges);
            }
            Ok::<_, CompileError>(map)
        })?;
        if verify {
            t.span("verify.ranges", || {
                gate(
                    opts,
                    opts.verify,
                    roccc_verify::verify_ranges(&ir, &map),
                    &mut diagnostics,
                )
            })?;
        }
        ranges = Some(map);
    }

    let mut deps = t.span("suifvm.deps", || {
        let budget = model.resource_budget();
        roccc_suifvm::analyze_deps(
            &kernel,
            &ir,
            opts.target_period_ns,
            &|op, w| model.delay_ns(op, w, false),
            &roccc_suifvm::Resources {
                mult_blocks_avail: budget.mult_blocks,
                ..roccc_suifvm::Resources::unlimited()
            },
        )
    });

    let mut datapath = t.span("datapath.build", || {
        roccc_datapath::build_datapath_ranged(&ir, ranges.as_ref())
    })?;
    t.span("datapath.pipeline", || {
        roccc_datapath::pipeline_datapath(&mut datapath, opts.target_period_ns, model)
    });
    if opts.narrow {
        t.span("datapath.narrow", || {
            roccc_datapath::narrow_widths(&mut datapath)
        });
    }
    deps.body_latency = datapath.num_stages;
    if verify {
        t.span("verify.deps", || {
            gate(
                opts,
                opts.verify,
                roccc_verify::verify_deps(&deps, &kernel, &ir),
                &mut diagnostics,
            )
        })?;
    }
    let mut schedule = None;
    if let Some(target) = opts.pipeline_ii {
        let s = t.span("schedule.modulo", || {
            let s = roccc_schedule::modulo_schedule(&datapath, &deps, target, model);
            if s.fallback.is_none() {
                roccc_datapath::apply_modulo_schedule(&mut datapath, &s.slots, s.ii as u32, model)
                    .map_err(CompileError::Backend)?;
            }
            Ok::<_, CompileError>(s)
        })?;
        if verify {
            t.span("verify.schedule", || {
                gate(
                    opts,
                    opts.verify,
                    roccc_verify::verify_schedule(&s, &datapath, &deps),
                    &mut diagnostics,
                )
            })?;
        }
        schedule = Some(s);
    }
    t.span("datapath.verify", || datapath.verify())
        .map_err(CompileError::Backend)?;
    if verify {
        t.span("verify.datapath", || {
            gate(
                opts,
                opts.verify,
                roccc_verify::verify_datapath(&datapath),
                &mut diagnostics,
            )
        })?;
    }

    let netlist = t.span("netlist.build", || {
        roccc_netlist::netlist_from_datapath(&datapath)
    });
    t.span("netlist.verify", || netlist.verify())
        .map_err(CompileError::Backend)?;
    if verify {
        t.span("verify.netlist", || {
            gate(
                opts,
                opts.verify,
                roccc_verify::verify_netlist(&netlist),
                &mut diagnostics,
            )
        })?;
    }
    let mut certificate = None;
    if opts.prove && opts.family_enabled('E') {
        let cert = t.span("prove.prove", || {
            roccc_prove::prove(&ir, &netlist, func, &roccc_prove::ProveOptions::default())
        });
        let findings = t.span("prove.check", || {
            roccc_prove::verify_certificate_diags(&cert, &ir, &netlist)
        });
        certificate = Some(cert);
        let level = if verify {
            opts.verify
        } else {
            VerifyLevel::Warn
        };
        gate(opts, level, findings, &mut diagnostics)?;
    }

    let compiled = Compiled {
        kernel,
        ir,
        datapath,
        netlist,
        program,
        ranges,
        deps,
        schedule,
        diagnostics,
        certificate,
    };
    let vhdl = t.span("vhdl.render", || compiled.to_vhdl());
    Ok((compiled, vhdl))
}

/// The library's family filter plus level gate: fatal findings become a
/// [`CompileError::Verify`], the rest are collected.
fn gate(
    opts: &CompileOptions,
    level: VerifyLevel,
    findings: Vec<Diagnostic>,
    collected: &mut Vec<Diagnostic>,
) -> Result<(), CompileError> {
    let findings: Vec<Diagnostic> = findings
        .into_iter()
        .filter(|d| d.code.chars().next().is_none_or(|c| opts.family_enabled(c)))
        .collect();
    if findings.is_empty() {
        return Ok(());
    }
    let fatal = match level {
        VerifyLevel::Off => false,
        VerifyLevel::Warn => findings.iter().any(|d| d.severity == Severity::Error),
        VerifyLevel::Deny => true,
    };
    if fatal {
        Err(CompileError::Verify(findings))
    } else {
        collected.extend(findings);
        Ok(())
    }
}

/// The library's option-selected loop transforms, applied to `func` only.
fn transform_program(
    program: &Program,
    func: &str,
    opts: &CompileOptions,
) -> Result<Program, CompileError> {
    let map_fn = |f: &Function| -> Result<Function, CompileError> {
        if f.name != func {
            return Ok(f.clone());
        }
        let mut f = f.clone();
        if opts.fuse {
            f = roccc_hlir::fusion::fuse_function(&f);
        }
        if let Some(w) = opts.stripmine {
            if w >= 2 {
                f = roccc_hlir::stripmine::stripmine_unroll_function_checked(&f, w)?;
                f = roccc_hlir::fold::fold_function(&f);
            }
        }
        match opts.unroll {
            UnrollStrategy::Keep => {}
            UnrollStrategy::Full => {
                f = roccc_hlir::unroll::fully_unroll_function(&f);
                f = roccc_hlir::fold::fold_function(&f);
            }
            UnrollStrategy::Partial(k) => {
                f = roccc_hlir::unroll::partially_unroll_function_checked(&f, k)?;
                f = roccc_hlir::fold::fold_function(&f);
            }
        }
        Ok(f)
    };
    let items = program
        .items
        .iter()
        .map(|i| {
            Ok(match i {
                Item::Function(f) => Item::Function(map_fn(f)?),
                g => g.clone(),
            })
        })
        .collect::<Result<_, CompileError>>()?;
    Ok(Program { items })
}
