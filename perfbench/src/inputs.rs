//! The request streams of the three workloads, each a pure function of the
//! seed (and, for the observe workloads, of the fleet's tenant ids). The
//! seed sets the order of the requests and the steady jitter; the problems
//! themselves come from [`fleet::FIXTURE_SEED`].

use crate::fleet;
use crate::rng::Rng;
use dot_core::controller::TraceStep;
use dot_core::traces;
use dot_serve::protocol::{PoolSpec, ProblemSpec, TenantId};

/// One `Provision` request of the sweep.
#[derive(Clone)]
pub struct ProvisionItem {
    pub problem: ProblemSpec,
    /// `None` asks for the daemon's default (`dot`).
    pub solver: Option<String>,
}

/// The SLAs of each (database, pool) pair's variants in one sweep round.
const SWEEP_SLAS: [f64; 6] = [0.25, 0.35, 0.45, 0.55, 0.65, 0.75];

/// The sweep: every (database, size, pool) triple of [`fleet::combos`]
/// in one
/// variant per [`SWEEP_SLAS`] entry, solved with `dot`; the second and
/// fifth variants run on an inline, repriced copy of the pool. The TPC-H
/// subset on `box1` and `box2` (3^8 = 6561 layouts) is also solved with
/// `es` in its four preset-pool variants. Every request's size is moved as
/// [`fleet::database`] does, so no two requests share a TOC problem and
/// one round's estimates outgrow the daemon's default 65,536-entry cache.
/// The order is a shuffle by `seed`.
pub fn provision_sweep(seed: u64) -> Vec<ProvisionItem> {
    let mut rng = Rng::new(fleet::FIXTURE_SEED, "provision-sweep");
    let mut items = Vec::new();
    for (preset, size, pool) in fleet::combos() {
        for (v, sla) in SWEEP_SLAS.iter().enumerate() {
            let inline = v == 1 || v == 4;
            let problem = ProblemSpec {
                pool: if inline {
                    fleet::repriced(fleet::preset_pool(pool), &mut rng)
                } else {
                    PoolSpec::Name(pool.to_owned())
                },
                database: fleet::database(preset, size, &mut rng),
                sla: *sla,
                engine: None,
                refinements: None,
            };
            if !inline && preset.starts_with("tpch-subset") && pool != "full" {
                items.push(ProvisionItem {
                    problem: problem.clone(),
                    solver: Some("es".to_owned()),
                });
            }
            items.push(ProvisionItem {
                problem,
                solver: None,
            });
        }
    }
    Rng::new(seed, "provision-sweep order").shuffle(&mut items);
    items
}

fn single(step: &TraceStep) -> impl Iterator<Item = TraceStep> + '_ {
    let one = TraceStep {
        repeat: None,
        ..step.clone()
    };
    std::iter::repeat_n(one, step.repeat.unwrap_or(1))
}

/// Round-robin a per-tenant script into one request stream: tick `k` of
/// every tenant (in a seeded order fixed for the stream) before tick
/// `k + 1` of any.
fn interleave(
    rng: &mut Rng,
    tenants: &[TenantId],
    scripts: Vec<Vec<TraceStep>>,
) -> Vec<(TenantId, TraceStep)> {
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    rng.shuffle(&mut order);
    let ticks = scripts.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for k in 0..ticks {
        for &i in &order {
            if let Some(step) = scripts[i].get(k) {
                out.push((tenants[i], step.clone()));
            }
        }
    }
    out
}

/// Observe ticks of `observe-steady`: `passes` single-tick steps per
/// tenant, each a seeded read/write jitter in `[-0.02, 0.02]`, well below
/// the drift threshold.
pub fn steady(seed: u64, tenants: &[TenantId], passes: usize) -> Vec<(TenantId, TraceStep)> {
    let mut rng = Rng::new(seed, "observe-steady");
    let scripts = tenants
        .iter()
        .map(|_| {
            (0..passes)
                .map(|_| {
                    let shift = rng.range(-0.02, 0.02);
                    TraceStep {
                        shift: (shift != 0.0).then_some(shift),
                        scale: None,
                        phase: None,
                        repeat: None,
                    }
                })
                .collect()
        })
        .collect();
    interleave(&mut rng, tenants, scripts)
}

/// Observe ticks of `observe-drift`: `ticks` single-tick steps per tenant
/// from the `dot_core::traces` generators. Tenants come in groups of
/// eight that cycle through three shapes: a diurnal read/write cycle, a
/// flash crowd, and a diurnal base trace staggered across the group by
/// `correlated_fleet`. Scripts shorter than `ticks` repeat; the seed sets
/// the order in which tenants take their turn.
pub fn drift(seed: u64, tenants: &[TenantId], ticks: usize) -> Vec<(TenantId, TraceStep)> {
    let mut rng = Rng::new(seed, "observe-drift");
    let mut scripts: Vec<Vec<TraceStep>> = Vec::new();
    for (g, group) in tenants.chunks(8).enumerate() {
        let sign = if g % 2 == 0 { -1.0 } else { 1.0 };
        let period = [6, 8, 10, 12][g % 4];
        let diurnal = || traces::diurnal(sign * 0.45, period, 1);
        let per_tenant = match g % 3 {
            0 => vec![diurnal(); group.len()],
            1 => vec![traces::flash_crowd(4.0, 2 + g % 3, 2, 3); group.len()],
            _ => traces::correlated_fleet(group.len(), 1, &diurnal().expect("in range"))
                .map(|fleet| fleet.into_iter().map(Ok).collect())
                .expect("generator parameters are in range"),
        };
        for script in per_tenant {
            let script = script.expect("generator parameters are in range");
            let flat: Vec<TraceStep> = script.iter().flat_map(single).collect();
            scripts.push(flat.iter().cycle().take(ticks).cloned().collect());
        }
    }
    interleave(&mut rng, tenants, scripts)
}
