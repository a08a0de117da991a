//! Outside-in benchmark of the omega-shm workspace.
//!
//! ```text
//! omega-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! omega-benchmark compare <A.json|dir> <B.json|dir>
//! omega-benchmark list
//! omega-benchmark manifest
//! ```
//!
//! A run prints every metric by name and unit, writes a result file (and,
//! with `--trace 1`, the spans) under `benchmark/out/`, and ends stdout
//! with the contract's one-line result object. See `README.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod catalog;
mod compare;
mod harness;
mod host;
mod json;
mod report;
mod spans;
mod stats;
mod unit_costs;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use harness::Ctx;

const USAGE: &str = "usage: omega-benchmark --workload <name> [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--smoke]\n       omega-benchmark compare <A> <B> | list | manifest";

/// Parsed `--workload …` arguments.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: String,
    ctx: Ctx,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 11,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => {
                ctx.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                ctx.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or("--seconds takes a number in (0, 120]")?;
            }
            "--trace" => {
                ctx.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => ctx.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "no workload {workload}; one of {}",
            names.join(", ")
        ));
    }
    Ok(RunArgs { workload, ctx })
}

fn run(args: &RunArgs) -> ExitCode {
    let RunArgs { workload, ctx } = args;
    let header = host::RunHeader::start();
    let mut recorder = spans::Recorder::default();
    let mut measured = workloads::run(workload, ctx, &mut recorder)
        .expect("parse_run admits only catalogued workloads");
    measured.set("harness.host_steal_share", header.steal_share());

    let report = report::build(workload, ctx, &measured, &header);
    println!(
        "# {workload} seed={} seconds={} trace={} smoke={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.smoke
    );
    for (kind, count) in &measured.counts {
        println!("# {kind}={count}");
    }
    print!("{}", report.table);
    if ctx.trace {
        for (layer, ms) in spans::self_ms_by_layer(recorder.spans()) {
            println!("# span self time: {layer:<10} {ms:>12.3} ms");
        }
    }
    for problem in &measured.problems {
        println!("# FAILED CHECK: {problem}");
    }

    let out = report::out_dir();
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(
                report::result_path(workload, ctx.trace),
                report.file.render() + "\n",
            )
        })
        .and_then(|()| {
            if ctx.trace {
                recorder.write_jsonl(&out.join(format!("{workload}.trace.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(err) = written {
        eprintln!("could not write under {}: {err}", out.display());
        return ExitCode::from(2);
    }
    println!("{}", report.line);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn list() {
    println!("workloads");
    for w in &catalog::WORKLOADS {
        println!("  {:<15} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload; bound = share of the baseline it may worsen by)");
    for m in &catalog::END_TO_END {
        println!(
            "  {:<15} {:<6} {:<6} bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.clock
        );
    }
    println!("per-layer metrics (--trace 1; 0 where a workload cannot observe one)");
    for m in catalog::PER_LAYER {
        let guard = match m.guard {
            Some(catalog::Bound::Relative(share)) => {
                format!(" [compare bound {:.0}%]", share * 100.0)
            }
            Some(catalog::Bound::Absolute(amount)) => format!(" [compare bound +{amount}]"),
            None => String::new(),
        };
        println!(
            "  {:<40} {:<6} {:<6} {}{guard}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            let code = compare::main(Path::new(&args[1]), Path::new(&args[2]));
            ExitCode::from(u8::try_from(code).unwrap_or(2))
        }
        Some("list") if args.len() == 1 => {
            list();
            ExitCode::SUCCESS
        }
        Some("manifest") if args.len() == 1 => {
            print!("{}", catalog::manifest());
            ExitCode::SUCCESS
        }
        _ => match parse_run(&args) {
            Ok(run_args) => run(&run_args),
            Err(err) => {
                eprintln!("{err}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_run(&args(
            "--workload elect-wide --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed.workload, "elect-wide");
        assert_eq!(
            parsed.ctx,
            Ctx {
                seed: 7,
                seconds: 12.0,
                trace: true,
                smoke: false
            }
        );
        let defaults = parse_run(&args("--workload coop-failover --smoke")).unwrap();
        assert_eq!(
            (defaults.ctx.seed, defaults.ctx.trace, defaults.ctx.smoke),
            (11, false, true)
        );
        assert_eq!(defaults.ctx.seconds, catalog::RUN_SECONDS as f64);
    }

    #[test]
    fn bad_command_lines_are_refused_with_a_reason() {
        for bad in [
            "",
            "--workload nope",
            "--workload elect-small --trace 2",
            "--workload elect-small --seed x",
            "--workload elect-small --seconds 0",
            "--workload elect-small --seed",
            "--workload elect-small --bogus",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
