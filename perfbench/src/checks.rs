//! Independent checks of the daemon's answers. Each returns `Err` with a
//! reason; the runner counts an operation with any failed check as failed.

use crate::replay::Expect;
use dot_core::advisor::{presets, Recommendation};
use dot_core::constraints;
use dot_core::controller::ControlEvent;
use dot_core::problem::Problem;
use dot_core::replan::MigrationDecision;
use dot_core::toc::estimate_toc;
use dot_dbms::{EngineConfig, Layout, Schema};
use dot_serve::protocol::{ResolvedProblem, Response, ResponseFrame, TenantId};
use dot_storage::{ClassId, StoragePool};
use dot_workloads::SlaSpec;
use std::collections::BTreeMap;

type Check = Result<(), String>;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
}

/// GB per class of `layout`, summed from the schema's object sizes.
fn space(schema: &Schema, pool: &StoragePool, layout: &Layout) -> Vec<f64> {
    let mut gb = vec![0.0; pool.len()];
    for (object, class) in schema.objects().iter().zip(layout.assignment()) {
        gb[class.0] += object.size_gb;
    }
    gb
}

/// Whether every class of `layout` stays under its capacity.
fn fits(schema: &Schema, pool: &StoragePool, layout: &Layout) -> bool {
    space(schema, pool, layout)
        .iter()
        .zip(pool.classes())
        .all(|(gb, class)| *gb < class.capacity_gb)
}

/// The engine a problem runs under: the one its spec names, or the
/// workload metric's default (as the daemon picks it).
pub fn engine(r: &ResolvedProblem) -> EngineConfig {
    r.engine
        .unwrap_or_else(|| presets::engine(None, &r.workload).expect("preset engines resolve"))
}

/// `r` as a [`Problem`] under the relative SLA `sla`.
pub fn problem(r: &ResolvedProblem, sla: f64) -> Problem<'_> {
    Problem::new(
        &r.schema,
        &r.pool,
        &r.workload,
        SlaSpec::relative(sla),
        engine(r),
    )
}

/// The lowest objective of any layout of an enumerable problem that fits
/// and meets the SLA `sla`, found by walking all `M^N` layouts through
/// `toc::estimate_toc`.
pub fn enumerated_optimum(r: &ResolvedProblem, sla: f64) -> f64 {
    let problem = problem(r, sla);
    let reference = estimate_toc(&problem, &problem.premium_layout());
    let cons = constraints::from_reference(&problem, reference, SlaSpec::relative(sla));
    let (n, m) = (r.schema.object_count(), r.pool.len());
    let mut digits = vec![0usize; n];
    let mut best = f64::INFINITY;
    loop {
        let layout = Layout::from_assignment(digits.iter().map(|&d| ClassId(d)).collect());
        if fits(&r.schema, &r.pool, &layout) {
            let est = estimate_toc(&problem, &layout);
            if cons.performance_satisfied(&est) {
                best = best.min(est.objective_cents);
            }
        }
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            digits[i] += 1;
            if digits[i] < m {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}

/// Placement, capacity, bill and all-premium checks of one
/// recommendation, and for `es` the enumeration check against `optimum`.
pub fn recommendation(r: &ResolvedProblem, rec: &Recommendation, optimum: Option<f64>) -> Check {
    let (schema, pool) = (&r.schema, &r.pool);
    let layout = &rec.layout;
    if layout.assignment().len() != schema.object_count() {
        return Err(format!(
            "layout places {} of {} objects",
            layout.assignment().len(),
            schema.object_count()
        ));
    }
    if let Some(c) = layout.assignment().iter().find(|c| c.0 >= pool.len()) {
        return Err(format!("class {} is not in the pool", c.0));
    }
    for ((object, class), (name, class_name)) in schema
        .objects()
        .iter()
        .zip(layout.assignment())
        .zip(&rec.placements)
    {
        if &object.name != name || &pool.classes()[class.0].name != class_name {
            return Err(format!(
                "placement {name}->{class_name} disagrees with the layout"
            ));
        }
    }
    let gb = space(schema, pool, layout);
    let mut total = 0.0;
    for (class, used) in pool.classes().iter().zip(&gb) {
        if *used >= class.capacity_gb {
            return Err(format!(
                "{} holds {used} GB of {} GB",
                class.name, class.capacity_gb
            ));
        }
        if *used > 0.0 {
            let line = rec
                .bill
                .iter()
                .find(|b| b.class == class.name)
                .ok_or_else(|| format!("no bill line for {}", class.name))?;
            let cents = used * class.price_cents_per_gb_hour;
            if !close(line.gb, *used) || !close(line.cents_per_hour, cents) {
                return Err(format!(
                    "bill line {} says {} GB / {} c/h, the sizes give {used} GB / {cents} c/h",
                    class.name, line.gb, line.cents_per_hour
                ));
            }
            total += cents;
        }
    }
    if rec.bill.len() != gb.iter().filter(|g| **g > 0.0).count() {
        return Err("the bill lists an unused class".to_owned());
    }
    if !close(total, rec.estimate.layout_cost_cents_per_hour) {
        return Err(format!(
            "bill sums to {total} c/h, layout_cost_cents_per_hour is {}",
            rec.estimate.layout_cost_cents_per_hour
        ));
    }
    let problem = problem(r, rec.provenance.final_sla);
    let premium = estimate_toc(&problem, &problem.premium_layout());
    if rec.estimate.objective_cents > premium.objective_cents * (1.0 + 1e-9) {
        return Err(format!(
            "objective {} is above the all-premium layout's {}",
            rec.estimate.objective_cents, premium.objective_cents
        ));
    }
    if let Some(optimum) = optimum {
        if rec.estimate.objective_cents > optimum * (1.0 + 1e-9) {
            return Err(format!(
                "es answered {} but enumeration finds a feasible layout at {optimum}",
                rec.estimate.objective_cents
            ));
        }
    }
    Ok(())
}

/// The frames of one `Provision` request: exactly one `Provisioned`.
pub fn provisioned(frames: &[ResponseFrame], id: u64) -> Result<&Recommendation, String> {
    match frames {
        [ResponseFrame {
            id: got,
            response: Response::Provisioned { recommendation },
        }] if *got == id => Ok(recommendation),
        other => Err(format!("provision {id} answered {other:?}")),
    }
}

/// The frames of one `Observe` request against the offline replay.
pub fn observed(frames: &[ResponseFrame], id: u64, expect: &Expect) -> Check {
    let (done, events) = frames
        .split_last()
        .ok_or_else(|| format!("observe {id} answered nothing"))?;
    if let Some(f) = frames.iter().find(|f| f.id != id) {
        return Err(format!("observe {id} got a frame for id {}", f.id));
    }
    let got: Vec<&ControlEvent> = events
        .iter()
        .map(|f| match &f.response {
            Response::Event { tenant, event } if *tenant == expect.tenant => Ok(event),
            other => Err(format!("observe {id}: unexpected frame {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    if got.len() != expect.events.len() || got.iter().zip(&expect.events).any(|(a, b)| *a != b) {
        return Err(format!(
            "tenant {} streamed {got:?}, the offline replay logged {:?}",
            expect.tenant, expect.events
        ));
    }
    match &done.response {
        Response::ObserveDone {
            tenant,
            ticks,
            triggers,
            applications,
            schedule,
        } if *tenant == expect.tenant
            && *ticks == expect.ticks
            && *triggers == expect.triggers
            && *applications == expect.applications
            && *schedule == expect.schedule =>
        {
            Ok(())
        }
        other => Err(format!(
            "observe {id}: terminal frame {other:?} disagrees with the replay"
        )),
    }
}

/// Stream-level properties of one round: no tenant triggers within its
/// cool-down of its previous trigger, and every `Applied` follows a
/// `Migrate` or `Partial` plan of the same tick moving the same bytes.
/// Returns the indices of the requests that broke one, with the reason.
pub fn stream_properties(
    tenants: &[(TenantId, u64, Option<u64>)],
    requests: &[(TenantId, Vec<ControlEvent>)],
) -> Vec<(usize, String)> {
    let mut last: BTreeMap<TenantId, (u64, Option<u64>)> = tenants
        .iter()
        .map(|&(t, cd, last)| (t, (cd, last)))
        .collect();
    let mut plan: BTreeMap<TenantId, (u64, bool, f64)> = BTreeMap::new();
    let mut broken = Vec::new();
    for (i, (tenant, events)) in requests.iter().enumerate() {
        for event in events {
            match event {
                ControlEvent::Triggered { tick, .. } => {
                    let (cooldown, prev) = last.get_mut(tenant).expect("stream tenants exist");
                    if let Some(p) = *prev {
                        if tick - p < *cooldown {
                            broken.push((i, format!("tenant {tenant} triggered at {tick}, {p} was {cooldown} ticks ago at most")));
                        }
                    }
                    *prev = Some(*tick);
                }
                ControlEvent::Planned {
                    tick,
                    decision,
                    total_bytes,
                    ..
                } => {
                    let moves = matches!(
                        decision,
                        MigrationDecision::Migrate | MigrationDecision::Partial { .. }
                    );
                    plan.insert(*tenant, (*tick, moves, *total_bytes));
                }
                ControlEvent::Applied {
                    tick, bytes_moved, ..
                } => match plan.get(tenant) {
                    Some(&(t, true, bytes)) if t == *tick && bytes == *bytes_moved => {}
                    other => broken.push((
                        i,
                        format!("tenant {tenant} applied at {tick} after plan {other:?}"),
                    )),
                },
                _ => {}
            }
        }
    }
    broken
}
