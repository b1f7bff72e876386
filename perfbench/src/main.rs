//! The repository benchmark: the paper pipeline and `rlb-serve`, measured
//! end to end (`--trace 0`) and per layer (`--trace 1`). See `README.md`
//! in this directory for the workloads and every metric.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds `rlb-serve` and this program from source and passes
//! `--serve-bin`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Failed output checks are
//! listed on standard error and make the exit code 1.

mod outcome;
mod pipeline;
#[cfg(test)]
mod selftest;
mod serve;

use pipeline::Expect;
use std::path::PathBuf;
use std::process::ExitCode;

/// Concurrent client sessions of `serve-mixed` (writer and reader).
const SERVE_SESSIONS: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["established-roster", "new-apriori", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: want one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Host facts, printed with every run so its numbers can be read later.
/// `busy` is the most threads the workload keeps computing at once; above
/// the core count the run is marked oversubscribed.
fn host_facts(busy: usize) -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown", str::trim);
    let nproc = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            cpu_list_len(list.trim())
        })
        .map_or("unknown".to_string(), |n| n.to_string());
    let threads = rlb_util::par::thread_count();
    let over = if busy > parallelism {
        " (oversubscribed)"
    } else {
        ""
    };
    format!(
        "host: commit {}, cpu {model:?}, nproc {nproc}, available_parallelism {parallelism}, \
         RLB_THREADS resolved {threads}, busy threads {busy}{over}",
        commit()
    )
}

/// The number of CPUs in a kernel CPU list such as `0-3,6`.
fn cpu_list_len(list: &str) -> Option<usize> {
    list.split(',').try_fold(0, |n, range| {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        Some(n + hi.checked_sub(lo)? + 1)
    })
}

/// The checked-out commit, read from `.git` in the working directory (the
/// repository root): `unknown` outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(format!(".git/{path}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    read(reference)
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rlb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Each serve session keeps one request in flight, and a request runs
    // on RLB_THREADS workers. On serve-mixed that is one worker, set here
    // while the process has a single thread; the rlb-serve child inherits
    // it, and the traced replay runs on it too.
    let sessions = if args.workload == "serve-mixed" {
        std::env::set_var("RLB_THREADS", serve::SERVER_THREADS.to_string());
        SERVE_SESSIONS
    } else {
        1
    };
    let busy = sessions * rlb_util::par::thread_count();
    eprintln!("{}", host_facts(busy));
    let expect = if args.seed == 0 {
        Expect::PaperVerdicts
    } else {
        Expect::Anything
    };
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("established-roster", false) => pipeline::established(
            &pipeline::established_inputs(args.seed),
            args.seconds,
            expect,
        ),
        ("established-roster", true) => {
            pipeline::established_traced(&pipeline::established_inputs(args.seed), expect)
        }
        ("new-apriori", false) => {
            pipeline::new_apriori(&pipeline::new_inputs(args.seed), args.seconds, expect)
        }
        ("new-apriori", true) => {
            pipeline::new_apriori_traced(&pipeline::new_inputs(args.seed), expect)
        }
        _ => {
            let Some(bin) = &args.serve_bin else {
                eprintln!("rlb-perfbench: serve-mixed needs --serve-bin <rlb-serve binary>");
                return ExitCode::from(2);
            };
            serve::serve_mixed(
                &serve::base_profile(args.seed),
                serve::SHAPE,
                serve::Launch::Binary(bin),
                args.trace,
                args.seconds,
            )
        }
    };
    // Nothing in this program goes through the experiment runner's result
    // cache; a hit would mean a timing measured JSON decoding instead.
    let cache_hits = rlb_obs::snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "cache.hit")
        .map_or(0, |(_, n)| *n);
    outcome.check(cache_hits == 0, || {
        format!("{cache_hits} result-cache hits")
    });
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    match outcome.result_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rlb-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
