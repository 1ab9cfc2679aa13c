//! End-to-end and per-layer benchmark of the treu workspace.
//!
//! ```text
//! perfbench --workload <run-registry|verify-sharded|replay-zipf>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench worker      # a verify-sharded worker process (spawned by the pool)
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! correctness, operation counts and metrics. See README.md.

#![forbid(unsafe_code)]

mod common;
mod golden;
mod procstat;
mod registry;
mod replay;
mod report;
mod spans;
mod verify;

use std::process::exit;

use common::Ctx;

const USAGE: &str = "usage: perfbench --workload <run-registry|verify-sharded|replay-zipf> \
                     --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["run-registry", "verify-sharded", "replay-zipf"];

struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|&s| s > 0).ok_or_else(bad)?)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// The body of a `verify-sharded` worker: the pool spawns
/// `current_exe worker`, which is this binary.
fn worker() {
    // Injected faults panic by design and the worker's supervisor catches
    // them; the default per-panic message is noise on the pipe's stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let reg = treu::full_registry();
    let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
    if let Err(e) = treu::core::svc::worker_loop(&reg, stdin.lock(), stdout.lock()) {
        eprintln!("worker: {e}");
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        worker();
        return;
    }
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let result = Ctx::new(opts.workload, opts.seed, opts.seconds, opts.traced).and_then(|ctx| {
        match ctx.workload {
            "run-registry" => registry::run(&ctx),
            "verify-sharded" => verify::run(&ctx),
            _ => replay::run(&ctx),
        }
    });
    match result {
        Ok(outcome) => println!("{}", outcome.render(opts.traced)),
        Err(e) => {
            eprintln!("{}: {e}", opts.workload);
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args("--workload replay-zipf --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((o.workload, o.seed, o.seconds, o.traced), ("replay-zipf", 7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload replay-zipf --seed x --seconds 1",
            "--workload replay-zipf --seed 1 --seconds 0",
            "--workload replay-zipf --seed 1 --seconds 1 --trace 2",
            "--workload replay-zipf --seconds 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
