//! `perfbench` — the end-to-end and per-layer benchmark of the DOT stack.
//!
//! ```text
//! perfbench run --serve <dot-serve> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench fleet --out <dir>
//! ```
//!
//! `run` generates the tenant fleet, then either drives the
//! workload through the `dot-serve` binary (`--trace 0`, the end-to-end
//! metrics) or replays the same inputs through each layer in-process
//! (`--trace 1`, the per-layer metrics). The last line of standard output
//! is the JSON result. `fleet` writes the fleet fixture alone. See
//! README.md.

mod bench;
mod checks;
mod daemon;
mod fleet;
mod inputs;
mod replay;
mod rng;
mod stats;
mod trace;

use bench::{Run, Stream, Tally, WORKLOADS};
use dot_serve::registry::RegistrySnapshot;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let command = it.next().ok_or("missing command (run | fleet)")?;
        let mut flags = Vec::new();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.push((name.to_owned(), value));
        }
        Ok(Args { command, flags })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a number"))
    }
}

fn fleet_fixture(dir: &std::path::Path) -> Result<String, String> {
    fleet::build(dir, &fleet::plan()).map_err(|e| format!("building the fleet: {e}"))
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.get("workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = args.number("seed")?;
    let seconds: f64 = args.number("seconds")?;
    let traced = match args.get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let serve = PathBuf::from(args.get("serve")?);
    let work = WorkDir(
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id())),
    );
    let work = &work.0;
    let _ = std::fs::remove_dir_all(work);
    {
        let fixture = fleet_fixture(&work.join("fleet"))?;
        let snapshot: RegistrySnapshot =
            serde_json::from_str(&fixture).map_err(|e| format!("fixture: {e}"))?;
        let run = Run {
            workload,
            seed,
            seconds,
            serve,
            work: work.clone(),
            fixture,
            snapshot,
        };
        let stream = Stream::of(&run);
        let mut tally = Tally::default();
        let metrics = if traced {
            trace::run(&run, &stream, &mut tally).map_err(|e| format!("traced run: {e}"))?
        } else {
            let measured =
                bench::run(&run, &stream, &mut tally).map_err(|e| format!("run: {e}"))?;
            println!(
                "perfbench: {} seed {seed}: {} rounds, {} requests; per round: triggers {} applied {} waves {} migration_makespan_s {}",
                run.workload,
                measured.rounds.len(),
                measured.rounds.iter().map(|r| r.latencies.len()).sum::<usize>(),
                measured.triggers,
                measured.applied,
                measured.waves,
                measured.makespan_s
            );
            bench::end_to_end(&measured)
        };
        Ok(stats::result_line(tally.attempted, tally.failed, &metrics))
    }
}

/// The run's scratch directory, removed however the run ends (an error,
/// or a panic unwinding past it).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse().and_then(|args| match args.command.as_str() {
        "run" => run(&args),
        "fleet" => {
            let out = PathBuf::from(args.get("out")?);
            fleet_fixture(&out)?;
            Ok(format!(
                "wrote {}",
                out.join(dot_serve::registry::STATE_FILE).display()
            ))
        }
        other => Err(format!("unknown command {other:?} (run | fleet)")),
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
