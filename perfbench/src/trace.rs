//! The traced run: the same generated inputs, timed layer by layer.
//!
//! One untraced round through the daemon gives the wire-side figures
//! (`request_p50_us`, frames and bytes per request, the shared cache's
//! counters). Then the workload's stream is replayed in-process, timing
//! each call into a layer's public functions: the framing and JSON
//! codecs, `ProblemSpec::resolve`, the registry, the advisor and its
//! profiler, constraints and TOC estimation, the planner and executor, the
//! controller, and the scheduled replan. Layers the workload does not
//! reach are timed on a probe: the first requests of the seed's sweep for
//! the provisioning layers, the seed's drift stream for the apply and
//! replan layers. The table printed before the result names each metric's
//! source.

use crate::bench::{self, Run, Stream, Tally, DRIFT_TICKS};
use crate::checks;
use crate::daemon::Client;
use crate::inputs::{self, ProvisionItem};
use crate::replay;
use crate::stats::{exact_sum, metric, quantile, Metric};
use dot_core::advisor::Advisor;
use dot_core::constraints;
use dot_core::controller::{expand_trace, ControlEvent, TraceStep};
use dot_core::problem::Problem;
use dot_core::replan::ReplanOptions;
use dot_core::toc::{estimate_toc, CachedEstimator, ProblemDelta};
use dot_dbms::{exec, planner};
use dot_profiler::{profile_workload, ProfileSource};
use dot_serve::framing::{parse_request, write_frame};
use dot_serve::protocol::{ProblemSpec, TenantId};
use dot_serve::registry::{Registry, RegistryConfig, RegistrySnapshot, STATE_FILE};
use dot_workloads::SlaSpec;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: name, unit, and the scale from seconds (`0`
/// for counts, which are recorded as they are).
pub const LAYERS: [(&str, &str, f64); 38] = [
    ("framing.decode_us", "us", 1e6),
    ("framing.encode_us", "us", 1e6),
    ("framing.response_frames", "count", 0.0),
    ("framing.response_bytes", "B", 0.0),
    ("json.snapshot_decode_ms", "ms", 1e3),
    ("json.snapshot_encode_ms", "ms", 1e3),
    ("registry.snapshot_bytes", "B", 0.0),
    ("protocol.resolve_us", "us", 1e6),
    ("registry.open_s", "s", 1.0),
    ("registry.open_quarter_s", "s", 1.0),
    ("registry.provision_ms", "ms", 1e3),
    ("registry.observe_quiet_us", "us", 1e6),
    ("registry.observe_apply_us", "us", 1e6),
    ("registry.observe_apply_nopersist_us", "us", 1e6),
    ("server.unattributed_us", "us", 1e6),
    ("advisor.build_ms", "ms", 1e3),
    ("advisor.recommend_ms", "ms", 1e3),
    ("advisor.layouts_investigated", "count", 0.0),
    ("advisor.layouts_pruned", "count", 0.0),
    ("profiler.profile_ms", "ms", 1e3),
    ("constraints.derive_ms", "ms", 1e3),
    ("toc.estimate_us", "us", 1e6),
    ("toc.apply_delta_us", "us", 1e6),
    ("toc.cache_hits", "count", 0.0),
    ("toc.cache_misses", "count", 0.0),
    ("toc.cache_hit_ratio", "ratio", 0.0),
    ("dbms.plan_workload_us", "us", 1e6),
    ("dbms.simulate_workload_ms", "ms", 1e3),
    ("controller.expand_trace_us", "us", 1e6),
    ("controller.observe_quiet_us", "us", 1e6),
    ("controller.observe_trigger_ms", "ms", 1e3),
    ("controller.triggers", "count", 0.0),
    ("controller.applied", "count", 0.0),
    ("replan.scheduled_ms", "ms", 1e3),
    ("replan.steps", "count", 0.0),
    ("replan.waves", "count", 0.0),
    ("replan.makespan_s", "s", 1.0),
    ("request_p50_us", "us", 1e6),
];

/// Metrics reported as the total over the stream rather than the p50 of
/// a distribution of calls.
const TOTALS: [&str; 9] = [
    "toc.cache_hits",
    "toc.cache_misses",
    "toc.cache_hit_ratio",
    "controller.triggers",
    "controller.applied",
    "replan.steps",
    "replan.waves",
    "replan.makespan_s",
    "registry.snapshot_bytes",
];

/// Samples per metric, in the metric's own unit.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn scale(name: &str) -> f64 {
        LAYERS
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, s)| *s)
            .expect("every recorded metric is listed in LAYERS")
    }

    /// Time `f` as one call of the layer behind `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let secs = start.elapsed().as_secs_f64();
        self.put(name, secs * Self::scale(name));
        out
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn has(&self, name: &str) -> bool {
        self.0.get(name).is_some_and(|v| !v.is_empty())
    }

    fn p50(&self, name: &str) -> f64 {
        quantile(self.0.get(name).map_or(&[][..], |v| v), 0.5)
    }
}

/// Time every provisioning layer on `items`.
fn provision_layers(s: &mut Samples, items: &[ProvisionItem]) {
    let cache = Arc::new(CachedEstimator::new());
    let registry = Registry::new(RegistryConfig::default());
    for item in items {
        let resolved = s.time("protocol.resolve_us", || item.problem.resolve());
        let resolved = resolved.expect("sweep problems resolve");
        let solver = item.solver.as_deref().unwrap_or("dot");
        let advisor = s.time("advisor.build_ms", || {
            Advisor::builder(&resolved.schema, &resolved.pool, &resolved.workload)
                .sla(resolved.sla)
                .refinements(resolved.refinements)
                .toc_cache(Arc::clone(&cache))
                .build()
        });
        let advisor = advisor.expect("sweep problems are feasible");
        let rec = s.time("advisor.recommend_ms", || advisor.recommend(solver));
        let rec = rec.expect("sweep problems are feasible");
        s.put(
            "advisor.layouts_investigated",
            rec.provenance.layouts_investigated as f64,
        );
        s.put(
            "advisor.layouts_pruned",
            rec.provenance.layouts_pruned as f64,
        );
        let answer = s.time("registry.provision_ms", || {
            registry.provision(&item.problem, item.solver.as_deref())
        });
        assert!(
            answer.is_ok(),
            "the in-process registry solves what the daemon solved"
        );
        let r = &resolved;
        let problem = checks::problem(r, r.sla);
        s.time("profiler.profile_ms", || {
            profile_workload(
                &r.workload,
                &r.schema,
                &r.pool,
                &problem.cfg,
                ProfileSource::Estimate,
            )
        });
        s.time("constraints.derive_ms", || constraints::derive(&problem));
        s.time("toc.estimate_us", || estimate_toc(&problem, &rec.layout));
        s.time("dbms.plan_workload_us", || {
            planner::plan_workload(
                &r.workload.queries,
                &r.schema,
                &rec.layout,
                &r.pool,
                &problem.cfg,
            )
        });
        s.time("dbms.simulate_workload_ms", || {
            exec::simulate_workload(
                &r.workload.queries,
                &r.schema,
                &rec.layout,
                &r.pool,
                &problem.cfg,
                1,
            )
        });
    }
}

/// A registry opened on a fresh copy of `fixture` in `dir`.
fn open_copy(dir: &Path, fixture: &str) -> io::Result<Registry> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(STATE_FILE), fixture)?;
    Registry::open(RegistryConfig {
        state_dir: Some(dir.to_path_buf()),
        ..RegistryConfig::default()
    })
}

/// The same tenants without persistence: attached with the fixture's
/// deployed layouts and controller knobs (tick 0, as the fixture is).
fn unpersisted(snapshot: &RegistrySnapshot) -> Registry {
    let registry = Registry::new(RegistryConfig::default());
    for t in &snapshot.tenants {
        let (id, _) = registry
            .attach(
                Some(t.name.clone()),
                &t.problem,
                Some(t.checkpoint.deployed.clone()),
                Some(t.controller.clone()),
            )
            .expect("fixture tenants attach");
        assert_eq!(id, t.tenant, "attach order reproduces the fixture's ids");
    }
    registry
}

/// Time every observe-path layer on `requests`: the registry with and
/// without persistence, and the offline controller, delta and replan.
fn observe_layers(
    s: &mut Samples,
    run: &Run,
    requests: &[(TenantId, TraceStep)],
    registry_step: &mut Vec<f64>,
) -> io::Result<()> {
    let persisted = open_copy(&run.work.join("traced-registry"), &run.fixture)?;
    let plain = unpersisted(&run.snapshot);
    let mut models = replay::reopen_all(&run.snapshot);
    let cache = Arc::new(CachedEstimator::new());
    // Per tenant: the baseline problem's estimate of the deployed layout,
    // the anchor `apply_delta` re-targets.
    let mut anchors = BTreeMap::new();
    let (mut triggers, mut applied) = (0.0, 0.0);
    for (tenant, step) in requests {
        let mut events = Vec::new();
        let start = Instant::now();
        let answer = persisted.observe(*tenant, step, &mut |e| {
            events.push(e.clone());
            Ok(())
        });
        let secs = start.elapsed().as_secs_f64();
        assert!(answer.is_ok(), "generated steps tick without error");
        registry_step.push(secs * 1e6);
        let applies = events
            .iter()
            .any(|e| matches!(e, ControlEvent::Applied { .. }));
        let triggered = events
            .iter()
            .any(|e| matches!(e, ControlEvent::Triggered { .. }));
        if applies {
            s.put("registry.observe_apply_us", secs * 1e6);
        } else if !triggered {
            s.put("registry.observe_quiet_us", secs * 1e6);
        }
        let start = Instant::now();
        let answer = plain.observe(*tenant, step, &mut |_| Ok(()));
        let secs = start.elapsed().as_secs_f64();
        assert!(answer.is_ok(), "generated steps tick without error");
        if applies {
            s.put("registry.observe_apply_nopersist_us", secs * 1e6);
        }

        let model = models.get_mut(tenant).expect("stream tenants exist");
        let p = &model.problem;
        let trace = s.time("controller.expand_trace_us", || {
            expand_trace(&p.schema, &p.workload, std::slice::from_ref(step))
        });
        let observed = trace.expect("generated steps are valid").remove(0);
        let deployed = model.controller.deployed().clone();
        let (cfg, sla) = (checks::engine(p), SlaSpec::relative(p.sla));
        let anchor = anchors.entry(*tenant).or_insert_with(|| {
            let p = Problem::new(&p.schema, &p.pool, &p.workload, sla, cfg);
            (
                p.workload.clone(),
                estimate_toc(&p, &deployed),
                deployed.clone(),
            )
        });
        if anchor.2 == deployed {
            let anchor_problem = Problem::new(&p.schema, &p.pool, &anchor.0, sla, cfg);
            let observed_problem = Problem::new(&p.schema, &p.pool, &observed, sla, cfg);
            if let Some(delta) = ProblemDelta::between(&anchor_problem, &observed_problem) {
                s.time("toc.apply_delta_us", || anchor.1.apply_delta(&delta));
            }
        }
        let start = Instant::now();
        let outcome = model.controller.observe(&observed);
        let secs = start.elapsed().as_secs_f64();
        let outcome = outcome.expect("generated steps tick without error");
        // The plan's counts are the controller's own, from its log.
        for event in model.controller.drain_events() {
            if let ControlEvent::Planned {
                moves,
                waves,
                makespan_seconds,
                ..
            } = event
            {
                s.put("replan.steps", moves as f64);
                s.put("replan.waves", waves as f64);
                s.put("replan.makespan_s", makespan_seconds);
            }
        }
        if outcome.triggered() {
            triggers += 1.0;
            s.put("controller.observe_trigger_ms", secs * 1e3);
            // The replan timed on its own, on the session the controller
            // opens for it.
            let mut builder = Advisor::builder(&p.schema, &p.pool, &observed)
                .sla(p.sla)
                .refinements(p.refinements)
                .toc_cache(Arc::clone(&cache));
            if let Some(engine) = p.engine {
                builder = builder.engine(engine);
            }
            let advisor = builder
                .build()
                .expect("triggered observations open a session");
            let options = ReplanOptions {
                budget: model.controller.config().budget,
                sla_during_migration: None,
            };
            let solver = model.controller.config().solver.clone();
            let rec = s.time("replan.scheduled_ms", || {
                advisor.replan_scheduled(&deployed, &solver, &options)
            });
            rec.expect("the controller's replan succeeded on the same inputs");
        } else {
            s.put("controller.observe_quiet_us", secs * 1e6);
        }
        if model.controller.deployed() != &deployed {
            applied += 1.0;
        }
    }
    s.put("controller.triggers", triggers);
    s.put("controller.applied", applied);
    Ok(())
}

/// Run the traced invocation and return the per-layer metrics.
pub fn run(run: &Run, stream: &Stream, tally: &mut Tally) -> io::Result<Vec<Metric>> {
    let mut own = Samples::default();

    // One untraced round through the daemon, with every check.
    let wire = bench::run(
        &Run {
            seconds: 0.0,
            workload: run.workload.clone(),
            seed: run.seed,
            serve: run.serve.clone(),
            work: run.work.clone(),
            fixture: run.fixture.clone(),
            snapshot: run.snapshot.clone(),
        },
        stream,
        tally,
    )?;
    let round = &wire.rounds[0];
    own.put("request_p50_us", quantile(&round.latencies, 0.5) * 1e6);
    for (frames, bytes) in round.frames.iter().zip(&round.response_bytes) {
        own.put("framing.response_frames", frames.len() as f64);
        own.put("framing.response_bytes", *bytes as f64);
        for frame in frames {
            own.time("framing.encode_us", || {
                let mut buf = Vec::new();
                write_frame(&mut buf, frame).expect("writing to a Vec cannot fail");
                buf
            });
        }
    }
    if let Some(cache) = round.cache {
        own.put("toc.cache_hits", cache.hits as f64);
        own.put("toc.cache_misses", cache.misses as f64);
        own.put("toc.cache_hit_ratio", cache.hit_rate());
    }
    for (i, request) in stream.requests().iter().enumerate() {
        let line = Client::encode(i as u64 + 1, request);
        let _ = own.time("framing.decode_us", || parse_request(line.trim()));
    }

    // The fixture: codec and restore at a quarter of the fleet and at all
    // of it.
    own.put("registry.snapshot_bytes", run.fixture.len() as f64);
    for _ in 0..5 {
        let snapshot: RegistrySnapshot = own.time("json.snapshot_decode_ms", || {
            serde_json::from_str(&run.fixture).expect("the fixture decodes")
        });
        let _ = own.time("json.snapshot_encode_ms", || {
            serde_json::to_string(&snapshot)
        });
    }
    let mut quarter = run.snapshot.clone();
    quarter.tenants.truncate(run.snapshot.tenants.len() / 4);
    let quarter = serde_json::to_string(&quarter).expect("snapshot encodes");
    for (name, text) in [
        ("registry.open_quarter_s", &quarter),
        ("registry.open_s", &run.fixture),
    ] {
        for k in 0..3 {
            let dir = run.work.join(format!("open-{k}"));
            let start = Instant::now();
            let registry = open_copy(&dir, text)?;
            own.put(name, start.elapsed().as_secs_f64());
            drop(registry);
        }
    }

    // The workload's own stream, in-process.
    let mut registry_step = Vec::new();
    match stream {
        Stream::Sweep { items } => {
            provision_layers(&mut own, items);
            registry_step = own
                .0
                .get("registry.provision_ms")
                .cloned()
                .unwrap_or_default();
            registry_step.iter_mut().for_each(|v| *v *= 1e3);
        }
        Stream::Observe { requests, .. } => {
            observe_layers(&mut own, run, requests, &mut registry_step)?;
        }
    }
    for spec in run.snapshot.tenants.iter().map(|t| &t.problem) {
        let _ = own.time("protocol.resolve_us", || ProblemSpec::resolve(spec));
    }

    // Probes for the layers this workload does not reach.
    let mut probe = Samples::default();
    if !own.has("advisor.recommend_ms") {
        let items = inputs::provision_sweep(run.seed);
        provision_layers(&mut probe, &items[..16.min(items.len())]);
    }
    if !own.has("replan.scheduled_ms") || !own.has("registry.observe_apply_us") {
        let tenants: Vec<TenantId> = run.snapshot.tenants.iter().map(|t| t.tenant).collect();
        let drift = inputs::drift(run.seed, &tenants, DRIFT_TICKS);
        observe_layers(&mut probe, run, &drift, &mut Vec::new())?;
    }

    // Wire p50 minus the blocking in-process steps of a request.
    let blocking = own.p50("framing.decode_us")
        + quantile(&registry_step, 0.5)
        + own.p50("framing.encode_us") * own.p50("framing.response_frames");
    own.put(
        "server.unattributed_us",
        own.p50("request_p50_us") - blocking,
    );

    println!(
        "{:<38} {:>6} {:>14} {:>14} {:>8}  source",
        "per-layer metric", "", "value", "p90", "samples"
    );
    let mut metrics = Vec::new();
    for (name, unit, _) in LAYERS {
        let (samples, source) = if own.has(name) {
            (&own.0[name], run.workload.as_str())
        } else if probe.has(name) {
            (&probe.0[name], "probe")
        } else {
            (&Vec::new(), "none")
        };
        let total = TOTALS.contains(&name);
        let value = if total {
            exact_sum(samples.clone())
        } else {
            quantile(samples, 0.5)
        };
        let p90 = if total {
            "-".to_owned()
        } else {
            format!("{:.4}", quantile(samples, 0.9))
        };
        println!(
            "{name:<38} {:>6} {value:>14.4} {p90:>14} {:>8}  {source}",
            if total { "total" } else { "p50" },
            samples.len()
        );
        if name != "request_p50_us" {
            metrics.push(metric(name, value, unit));
        }
    }
    Ok(metrics)
}
