//! The offline model the observe workloads are checked against: every
//! tenant of the fixture reopened in-process the way `Registry::open`
//! restores it, then fed the same steps through `Controller::observe`.

use dot_core::controller::{expand_trace, ControlEvent, Controller, TraceStep};
use dot_core::toc::CachedEstimator;
use dot_serve::protocol::{ResolvedProblem, ScheduleSummary, TenantId};
use dot_serve::registry::{RegistrySnapshot, TenantSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One reopened tenant.
pub struct Model {
    pub controller: Controller,
    /// The tenant's problem; its workload is the baseline steps drift from.
    pub problem: ResolvedProblem,
}

/// Reopen one tenant from its snapshot, step for step as the registry's
/// restore does.
pub fn reopen(snap: &TenantSnapshot, cache: &Arc<CachedEstimator>) -> Model {
    let resolved = snap.problem.resolve().expect("fixture problems resolve");
    let mut controller = Controller::new(
        &resolved.schema,
        &resolved.pool,
        &resolved.workload,
        snap.checkpoint.deployed.clone(),
        resolved.sla,
        snap.controller.clone(),
    )
    .expect("fixture controllers open")
    .with_toc_cache(Arc::clone(cache))
    .with_refinements(resolved.refinements);
    if let Some(engine) = resolved.engine {
        controller = controller.with_engine(engine);
    }
    Model {
        controller: controller
            .with_checkpoint(&snap.checkpoint)
            .expect("fixture checkpoints resume"),
        problem: resolved,
    }
}

pub fn reopen_all(snapshot: &RegistrySnapshot) -> BTreeMap<TenantId, Model> {
    let cache = Arc::new(CachedEstimator::new());
    snapshot
        .tenants
        .iter()
        .map(|snap| (snap.tenant, reopen(snap, &cache)))
        .collect()
}

/// Feed one step to a model and return the events it logged.
pub fn step(model: &mut Model, step: &TraceStep) -> Vec<ControlEvent> {
    let trace = expand_trace(
        &model.problem.schema,
        &model.problem.workload,
        std::slice::from_ref(step),
    )
    .expect("generated steps are valid");
    for observed in &trace {
        // A failed tick still logs its events; the daemon streams them and
        // then an error frame, which the frame check counts as a failure.
        let _ = model.controller.observe(observed);
    }
    model.controller.drain_events()
}

/// What the daemon must answer to one `Observe` request.
pub struct Expect {
    pub tenant: TenantId,
    pub events: Vec<ControlEvent>,
    /// The `ObserveDone` counters after the request.
    pub ticks: u64,
    pub triggers: usize,
    pub applications: usize,
    pub schedule: Option<ScheduleSummary>,
}

/// Per-tenant state of the offline replay at the end of a stream.
pub struct Replay {
    pub expect: Vec<Expect>,
    pub models: BTreeMap<TenantId, Model>,
}

/// The expected answer to every request of a stream, in stream order, and
/// the models as the stream leaves them.
pub fn expected(snapshot: &RegistrySnapshot, stream: &[(TenantId, TraceStep)]) -> Replay {
    let mut models = reopen_all(snapshot);
    let mut counters: BTreeMap<TenantId, (usize, usize, Option<ScheduleSummary>)> = snapshot
        .tenants
        .iter()
        .map(|t| (t.tenant, (t.triggers, t.applications, None)))
        .collect();
    let expect = stream
        .iter()
        .map(|(tenant, s)| {
            let model = models.get_mut(tenant).expect("stream tenants exist");
            let events = step(model, s);
            let c = counters.get_mut(tenant).expect("stream tenants exist");
            for event in &events {
                match event {
                    ControlEvent::Triggered { .. } => c.0 += 1,
                    ControlEvent::Applied { .. } => c.1 += 1,
                    ControlEvent::Planned {
                        waves,
                        makespan_seconds,
                        ..
                    } => {
                        c.2 = Some(ScheduleSummary {
                            waves: *waves,
                            makespan_seconds: *makespan_seconds,
                        })
                    }
                    _ => {}
                }
            }
            Expect {
                tenant: *tenant,
                events,
                ticks: model.controller.ticks(),
                triggers: c.0,
                applications: c.1,
                schedule: c.2,
            }
        })
        .collect();
    Replay { expect, models }
}
