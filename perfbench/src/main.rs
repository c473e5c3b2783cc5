//! `perfbench`: the end-to-end and per-layer benchmark of the engine.
//!
//! ```text
//! perfbench --workload <batch-closure|serve-mixed|genome-reads>
//!           --seed <n> --seconds <n> --trace <0|1>
//!           [--size full|tiny] [--corrupt-oracle]
//! ```
//!
//! Inputs are generated from `--seed` alone; `--seconds` sets how many
//! operation cycles the run measures. With `--trace 0` the run prints the
//! end-to-end metrics, with `--trace 1` the per-layer ones (and writes its
//! spans to `.perfbench/`). The last line of standard output is one JSON
//! object. `--size tiny` shrinks every input for the smoke test, and
//! `--corrupt-oracle` spoils one expected answer to show the checks bite.
//! The benchmark reads and writes only below the current directory.

mod batch_closure;
mod genome_reads;
mod metrics;
mod serve_mixed;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Cycles measured by a `--size tiny` run, whatever `--seconds` says.
const TINY_CYCLES: usize = 3;
/// A run's loop stops after this many times `--seconds`, so a slow host or
/// a slow commit cannot stretch a run without bound.
const LOOP_CAP: f64 = 1.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    corrupt: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut corrupt = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                };
            }
            "--corrupt-oracle" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        corrupt,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (build, cycles_per_second): (fn(u64, Size, usize) -> workload::Spec, f64) =
        match args.workload.as_str() {
            "batch-closure" => (batch_closure::spec, batch_closure::CYCLES_PER_SECOND),
            "serve-mixed" => (serve_mixed::spec, serve_mixed::CYCLES_PER_SECOND),
            "genome-reads" => (genome_reads::spec, genome_reads::CYCLES_PER_SECOND),
            other => {
                eprintln!("perfbench: unknown workload {other}");
                return ExitCode::from(2);
            }
        };
    let cycles = match args.size {
        Size::Full => ((args.seconds as f64 * cycles_per_second).round() as usize).max(1),
        Size::Tiny => TINY_CYCLES,
    };
    let mut spec = build(args.seed, args.size, cycles);
    if args.corrupt {
        if let workload::Op::Query { expect, .. } = &mut spec.warm_query {
            expect.digest ^= 1;
        }
    }

    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let trace_out = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# workload={} seed={} cycles={cycles} size={:?} trace={}",
        args.workload,
        args.seed,
        args.size,
        u8::from(args.trace)
    );
    let cap = Duration::from_secs_f64(LOOP_CAP * args.seconds.max(1) as f64);
    let result = workload::run(&spec, args.trace, cap, &work, &trace_out);
    let _ = std::fs::remove_dir_all(&work);
    let catalogue = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    match result.and_then(|report| report.render(catalogue)) {
        Ok(text) => {
            if args.trace {
                println!("# spans written to {}", trace_out.display());
            }
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
