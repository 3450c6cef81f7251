//! The end-to-end run: rounds of one workload's request stream against a
//! real `dot-serve`, each on a fresh copy of the fleet, checked and timed.

use crate::checks;
use crate::daemon::{Client, Daemon};
use crate::inputs::{self, ProvisionItem};
use crate::replay::{self, Replay};
use crate::stats::{exact_sum, median, metric, quantile, Metric};
use dot_core::controller::{ControlEvent, TraceStep};
use dot_core::toc::{estimate_toc, CacheStats};
use dot_serve::framing::parse_response;
use dot_serve::protocol::{Request, Response, ResponseFrame, TenantId};
use dot_serve::registry::{RegistrySnapshot, STATE_FILE};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Observe ticks per tenant in one `observe-steady` round: enough that a
/// round's requests outlast its daemon's start and stop several times.
pub const STEADY_PASSES: usize = 200;
/// Observe ticks per tenant in one `observe-drift` round.
pub const DRIFT_TICKS: usize = 24;

pub const WORKLOADS: [&str; 3] = ["provision-sweep", "observe-steady", "observe-drift"];

/// The run's inputs and where it works.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub serve: PathBuf,
    pub work: PathBuf,
    pub fixture: String,
    pub snapshot: RegistrySnapshot,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: failed: {reason}");
            }
        }
    }
}

/// A workload's request stream and everything its answers are checked
/// against.
pub enum Stream {
    Sweep {
        items: Vec<ProvisionItem>,
    },
    Observe {
        requests: Vec<(TenantId, TraceStep)>,
        replay: Replay,
    },
}

impl Stream {
    pub fn of(run: &Run) -> Stream {
        let tenants: Vec<TenantId> = run.snapshot.tenants.iter().map(|t| t.tenant).collect();
        let requests = match run.workload.as_str() {
            "provision-sweep" => {
                return Stream::Sweep {
                    items: inputs::provision_sweep(run.seed),
                }
            }
            "observe-steady" => inputs::steady(run.seed, &tenants, STEADY_PASSES),
            _ => inputs::drift(run.seed, &tenants, DRIFT_TICKS),
        };
        let replay = replay::expected(&run.snapshot, &requests);
        Stream::Observe { requests, replay }
    }

    pub fn requests(&self) -> Vec<Request> {
        match self {
            Stream::Sweep { items } => items
                .iter()
                .map(|item| Request::Provision {
                    problem: item.problem.clone(),
                    solver: item.solver.clone(),
                })
                .collect(),
            Stream::Observe { requests, .. } => requests
                .iter()
                .map(|(tenant, step)| Request::Observe {
                    tenant: *tenant,
                    step: step.clone(),
                })
                .collect(),
        }
    }
}

/// Fleet totals as `Stats` reports them.
#[derive(Debug, PartialEq)]
pub struct Totals {
    pub tenants: usize,
    pub ticks: u64,
    pub triggers: usize,
    pub applications: usize,
}

fn stats_of(response: &Response) -> Result<(Totals, CacheStats), String> {
    match response {
        Response::Stats {
            tenants,
            ticks,
            triggers,
            applications,
            cache,
        } => Ok((
            Totals {
                tenants: *tenants,
                ticks: *ticks,
                triggers: *triggers,
                applications: *applications,
            },
            *cache,
        )),
        other => Err(format!("Stats answered {other:?}")),
    }
}

fn expect_totals(what: &str, got: &Response, want: &Totals) -> Result<(), String> {
    let (totals, _) = stats_of(got)?;
    if &totals == want {
        Ok(())
    } else {
        Err(format!(
            "{what} Stats {totals:?}, the streamed events give {want:?}"
        ))
    }
}

/// A fresh copy of the fixture for round `k`.
fn state_dir(run: &Run, k: usize) -> io::Result<PathBuf> {
    let dir = run.work.join(format!("state-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(STATE_FILE), &run.fixture)?;
    Ok(dir)
}

/// What one measured round leaves behind.
pub struct Round {
    pub setup_s: f64,
    pub measured_s: f64,
    /// Seconds from the first byte sent to the terminal frame read, per
    /// request.
    pub latencies: Vec<f64>,
    pub frames: Vec<Vec<ResponseFrame>>,
    pub rss_mib: f64,
    /// The shared TOC cache's counters at the end of the round.
    pub cache: Option<CacheStats>,
    /// Raw bytes of every response frame, per request.
    pub response_bytes: Vec<usize>,
}

/// Start a daemon on a fresh fixture copy, run the stream once, and read
/// its peak RSS and final `Stats`. Returns the daemon (still running) so
/// the caller can check durability.
fn measure_round(
    run: &Run,
    k: usize,
    lines: &[String],
    tally: &mut Tally,
    initial: &Totals,
) -> io::Result<(Round, Daemon, Response, PathBuf)> {
    let state = state_dir(run, k)?;
    let (mut daemon, setup_s, stats) = Daemon::start(&run.serve, &state)?;
    tally.op(expect_totals("restored", &stats, initial));
    let mut raw: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    let mut latencies = Vec::with_capacity(lines.len());
    let started = Instant::now();
    for (line, out) in lines.iter().zip(raw.iter_mut()) {
        latencies.push(daemon.client.exchange(line, out)?);
    }
    let measured_s = started.elapsed().as_secs_f64();
    let rss_mib = daemon.peak_rss_mib()?;
    let mut final_stats = daemon.client.call(&Request::Stats)?;
    let final_stats = final_stats
        .pop()
        .map(|f| f.response)
        .ok_or_else(|| io::Error::other("Stats answered nothing"))?;
    let cache = stats_of(&final_stats).ok().map(|(_, c)| c);
    let response_bytes = raw
        .iter()
        .map(|r| r.iter().map(String::len).sum())
        .collect();
    let frames = raw
        .iter()
        .map(|r| {
            r.iter()
                .filter_map(|l| parse_response(l.trim()).ok())
                .collect()
        })
        .collect();
    Ok((
        Round {
            setup_s,
            measured_s,
            latencies,
            frames,
            rss_mib,
            cache,
            response_bytes,
        },
        daemon,
        final_stats,
        state,
    ))
}

/// The sweep's answers of one round, as comparable text (wall-clock
/// provenance zeroed), for the rounds after the first.
fn canonical(frames: &[ResponseFrame]) -> String {
    match frames {
        [ResponseFrame {
            response: Response::Provisioned { recommendation },
            ..
        }] => {
            let mut rec = recommendation.as_ref().clone();
            rec.provenance.elapsed_ms = 0;
            serde_json::to_string(&rec).expect("recommendations encode")
        }
        other => format!("{other:?}"),
    }
}

/// Check a sweep round. The first round gets every check (on two
/// threads: the `es` enumerations dominate); later rounds must repeat the
/// first round's answers exactly.
struct SweepChecker {
    first: Option<Vec<String>>,
    objective_cents: f64,
}

impl SweepChecker {
    fn check(&mut self, items: &[ProvisionItem], round: &Round, tally: &mut Tally) {
        if let Some(first) = &self.first {
            for (i, frames) in round.frames.iter().enumerate() {
                let got = canonical(frames);
                tally.op(if got == first[i] {
                    Ok(())
                } else {
                    Err(format!("provision {} changed answer between rounds", i + 1))
                });
            }
            return;
        }
        let check = |i: usize| {
            checks::provisioned(&round.frames[i], i as u64 + 1).and_then(|rec| {
                let r = items[i].problem.resolve().map_err(|e| e.to_string())?;
                let optimum = (items[i].solver.as_deref() == Some("es"))
                    .then(|| checks::enumerated_optimum(&r, rec.provenance.final_sla));
                checks::recommendation(&r, rec, optimum).map(|()| rec.estimate.objective_cents)
            })
        };
        let mut results: Vec<(usize, Result<f64, String>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    s.spawn(move || {
                        (t..items.len())
                            .step_by(2)
                            .map(|i| (i, check(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("check threads do not panic"))
                .collect()
        });
        results.sort_by_key(|(i, _)| *i);
        let mut objectives = Vec::new();
        for (_, result) in results {
            if let Ok(objective) = &result {
                objectives.push(*objective);
            }
            tally.op(result.map(|_| ()));
        }
        self.objective_cents = exact_sum(objectives);
        self.first = Some(round.frames.iter().map(|f| canonical(f)).collect());
    }
}

/// Check an observe round against the replay and the stream properties.
fn check_observe(
    run: &Run,
    requests: &[(TenantId, TraceStep)],
    replay: &Replay,
    round: &Round,
    final_stats: &Response,
    tally: &mut Tally,
) -> BTreeMap<TenantId, usize> {
    let steady = run.workload == "observe-steady";
    let streamed: Vec<(TenantId, Vec<ControlEvent>)> = requests
        .iter()
        .zip(&round.frames)
        .map(|((tenant, _), frames)| {
            let events = frames
                .iter()
                .filter_map(|f| match &f.response {
                    Response::Event { event, .. } => Some(event.clone()),
                    _ => None,
                })
                .collect();
            (*tenant, events)
        })
        .collect();
    let tenants: Vec<(TenantId, u64, Option<u64>)> = run
        .snapshot
        .tenants
        .iter()
        .map(|t| {
            (
                t.tenant,
                t.controller.cooldown_ticks,
                t.checkpoint.last_trigger,
            )
        })
        .collect();
    let mut broken: BTreeMap<usize, String> = checks::stream_properties(&tenants, &streamed)
        .into_iter()
        .collect();
    let mut applied: BTreeMap<TenantId, usize> = run
        .snapshot
        .tenants
        .iter()
        .map(|t| (t.tenant, t.applications))
        .collect();
    let mut triggers: usize = run.snapshot.tenants.iter().map(|t| t.triggers).sum();
    let mut ticks: u64 = run.snapshot.tenants.iter().map(|t| t.checkpoint.tick).sum();
    for (i, (tenant, events)) in streamed.iter().enumerate() {
        for event in events {
            match event {
                ControlEvent::Observed { .. } => ticks += 1,
                ControlEvent::Triggered { .. } => {
                    triggers += 1;
                    if steady {
                        broken
                            .entry(i)
                            .or_insert(format!("steady tenant {tenant} triggered"));
                    }
                }
                ControlEvent::Applied { .. } => {
                    *applied.get_mut(tenant).expect("fleet tenant") += 1
                }
                _ => {}
            }
        }
    }
    for (i, frames) in round.frames.iter().enumerate() {
        let check = checks::observed(frames, i as u64 + 1, &replay.expect[i]);
        tally.op(check.and(broken.remove(&i).map_or(Ok(()), Err)));
    }
    let want = Totals {
        tenants: run.snapshot.tenants.len(),
        ticks,
        triggers,
        applications: applied.values().sum(),
    };
    tally.op(expect_totals("final", final_stats, &want));
    applied
}

/// The objective (cents) of the layouts a stopped daemon left in `state`,
/// each under its tenant's baseline workload: what the fleet's deployed
/// layouts cost by DOT's measure. Each persisted layout must be the one
/// the replay deployed.
fn persisted_objective(state: &Path, replay: &Replay, tally: &mut Tally) -> io::Result<f64> {
    let text = std::fs::read_to_string(state.join(STATE_FILE))?;
    let snapshot: RegistrySnapshot = serde_json::from_str(&text)
        .map_err(|e| io::Error::other(format!("persisted state: {e}")))?;
    tally.op(if snapshot.tenants.len() == replay.models.len() {
        Ok(())
    } else {
        Err(format!(
            "{} tenants persisted, {} attached",
            snapshot.tenants.len(),
            replay.models.len()
        ))
    });
    let mut objectives = Vec::new();
    for t in &snapshot.tenants {
        let deployed = &t.checkpoint.deployed;
        tally.op(match replay.models.get(&t.tenant) {
            Some(model) if model.controller.deployed() == deployed => Ok(()),
            _ => Err(format!(
                "tenant {} persisted a layout the replay did not deploy",
                t.tenant
            )),
        });
        let r = t
            .problem
            .resolve()
            .map_err(|e| io::Error::other(e.to_string()))?;
        objectives.push(estimate_toc(&checks::problem(&r, r.sla), deployed).objective_cents);
    }
    Ok(exact_sum(objectives))
}

/// Restart the daemon that was killed with `kill -9` on its state
/// directory and detach every tenant: each must come back with as many
/// applications as the stream acknowledged.
fn check_durability(
    run: &Run,
    state: &Path,
    applied: &BTreeMap<TenantId, usize>,
    tally: &mut Tally,
) -> io::Result<()> {
    let (mut daemon, _, _) = Daemon::start(&run.serve, state)?;
    for (tenant, want) in applied {
        let answer = daemon
            .client
            .call(&Request::DetachTenant { tenant: *tenant })?;
        tally.op(match answer.as_slice() {
            [ResponseFrame {
                response: Response::Detached { summary },
                ..
            }] if summary.applications == *want => Ok(()),
            other => Err(format!(
                "tenant {tenant} came back from kill -9 as {other:?}, {want} applications were acknowledged"
            )),
        });
    }
    daemon.kill();
    Ok(())
}

/// What a whole run measured.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub objective_cents: f64,
    /// The decisions of one round, which must repeat exactly in every run:
    /// replans triggered, plans applied, transfer waves and the summed
    /// migration makespan of the `Planned` events (seconds).
    pub triggers: usize,
    pub applied: usize,
    pub waves: usize,
    pub makespan_s: f64,
}

/// Run whole rounds until `seconds` of measured time have passed.
pub fn run(run: &Run, stream: &Stream, tally: &mut Tally) -> io::Result<Measured> {
    let lines: Vec<String> = stream
        .requests()
        .iter()
        .enumerate()
        .map(|(i, r)| Client::encode(i as u64 + 1, r))
        .collect();
    let initial = Totals {
        tenants: run.snapshot.tenants.len(),
        ticks: run.snapshot.tenants.iter().map(|t| t.checkpoint.tick).sum(),
        triggers: run.snapshot.tenants.iter().map(|t| t.triggers).sum(),
        applications: run.snapshot.tenants.iter().map(|t| t.applications).sum(),
    };
    let mut sweep = SweepChecker {
        first: None,
        objective_cents: 0.0,
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    let mut objective_cents = 0.0;
    while rounds.is_empty() || measured < run.seconds {
        let k = rounds.len();
        let (round, mut daemon, final_stats, state) =
            measure_round(run, k, &lines, tally, &initial)?;
        measured += round.measured_s;
        let last = measured >= run.seconds;
        match stream {
            Stream::Sweep { items } => {
                drop(daemon);
                tally.op(expect_totals("final", &final_stats, &initial));
                sweep.check(items, &round, tally);
                objective_cents = sweep.objective_cents;
            }
            Stream::Observe { requests, replay } => {
                let applied = check_observe(run, requests, replay, &round, &final_stats, tally);
                // The drift daemon is killed mid-life, as a crash would;
                // the steady one flushes its fleet on a graceful stop.
                let drift = run.workload == "observe-drift";
                if drift {
                    daemon.kill();
                } else {
                    daemon.shutdown()?;
                }
                if last {
                    objective_cents = persisted_objective(&state, replay, tally)?;
                }
                if drift {
                    check_durability(run, &state, &applied, tally)?;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&state);
        rounds.push(round);
    }
    // The daemon streamed exactly the replay's events (checked above).
    let events: Vec<&ControlEvent> = match stream {
        Stream::Sweep { .. } => Vec::new(),
        Stream::Observe { replay, .. } => replay.expect.iter().flat_map(|e| &e.events).collect(),
    };
    let count = |f: fn(&ControlEvent) -> bool| events.iter().filter(|e| f(e)).count();
    let planned = events.iter().filter_map(|e| match e {
        ControlEvent::Planned {
            waves,
            makespan_seconds,
            ..
        } => Some((*waves, *makespan_seconds)),
        _ => None,
    });
    Ok(Measured {
        rounds,
        objective_cents,
        triggers: count(|e| matches!(e, ControlEvent::Triggered { .. })),
        applied: count(|e| matches!(e, ControlEvent::Applied { .. })),
        waves: planned.clone().map(|(w, _)| w).sum(),
        makespan_s: exact_sum(planned.map(|(_, m)| m).collect()),
    })
}

/// One round's p50 and p95 latency (µs) and throughput.
fn per_round(round: &Round) -> (f64, f64, f64) {
    let lat: Vec<f64> = round.latencies.iter().map(|s| s * 1e6).collect();
    (
        quantile(&lat, 0.5),
        quantile(&lat, 0.95),
        lat.len() as f64 / round.measured_s,
    )
}

/// Which quarter of a run's rounds latency and throughput are read from:
/// the lower quartile over rounds of each round's p50 and p95, and the
/// upper quartile of its throughput. Load from outside the benchmark on a
/// shared host only ever adds time to a round, and it comes and goes
/// within a run, so the rounds it disturbed least are the steadiest
/// estimate of the daemon's own speed; a median over rounds moves with
/// the share of the run such load happened to fill. A change that slows
/// every request slows these rounds as much as any.
const FAST_QUARTER: f64 = 0.25;

/// The end-to-end metrics of a run: latency and throughput from the
/// run's faster rounds ([`FAST_QUARTER`]), set-up time and memory as
/// medians over its rounds.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let w: Vec<(f64, f64, f64)> = m.rounds.iter().map(per_round).collect();
    let pick =
        |f: fn(&(f64, f64, f64)) -> f64, q: f64| quantile(&w.iter().map(f).collect::<Vec<_>>(), q);
    let setups: Vec<f64> = m.rounds.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = m.rounds.iter().map(|r| r.rss_mib).collect();
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("ops_per_s", pick(|w| w.2, 1.0 - FAST_QUARTER), "1/s"),
        metric("request_p50_us", pick(|w| w.0, FAST_QUARTER), "us"),
        metric("request_p95_us", pick(|w| w.1, FAST_QUARTER), "us"),
        metric("daemon_peak_rss_mib", median(&rss), "MiB"),
        metric("objective_cents", m.objective_cents, "cents"),
    ]
}
