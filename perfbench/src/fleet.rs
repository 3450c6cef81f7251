//! The persisted tenant fleet every workload starts from.
//!
//! The fleet is drawn from [`FIXTURE_SEED`], attached through the daemon's
//! own [`Registry`] (so every baseline layout is provisioned by the same
//! code path a client's `AttachTenant` takes) and flushed to
//! `registry.json` exactly as a gracefully stopped `dot-serve` leaves it.
//! The one edit afterwards zeroes each tenant's wall-clock `elapsed_ms`,
//! so the fixture is the same file on every run.

use crate::rng::Rng;
use dot_core::controller::ControllerConfig;
use dot_serve::protocol::{DbSpec, PoolSpec, ProblemSpec};
use dot_serve::registry::{Registry, RegistryConfig, RegistrySnapshot, STATE_FILE};
use dot_storage::{catalog, StoragePool};
use std::io;
use std::path::Path;

/// Tenants in the fleet.
pub const TENANTS: usize = 96;

/// The seed the problems are drawn from: the fleet's and the sweep's sizes
/// and prices. It is fixed, not the run's `--seed`, so the quantities DOT
/// decides (objectives, triggers, plans, makespans) are the same in every
/// run and a change to them shows exactly; the run's seed sets the order
/// of the requests and the steady jitter.
pub const FIXTURE_SEED: u64 = 1;

/// One tenant as the fixture attaches it.
#[derive(Clone)]
pub struct TenantPlan {
    pub name: String,
    pub problem: ProblemSpec,
    pub controller: ControllerConfig,
}

/// The catalog the fleet and the sweep draw from: TPC-H original and
/// modified and the TPC-H subset at scale factors 1, 3, 10 and 30, and
/// TPC-C at 10, 30, 100 and 300 warehouses, each on each of the three
/// built-in pools — 48 (database preset, size, pool) triples. The preset
/// carries a `{}` where the size goes.
pub fn combos() -> Vec<(&'static str, f64, &'static str)> {
    let mut databases = Vec::new();
    for sf in [1.0, 3.0, 10.0, 30.0] {
        databases.push(("tpch:{}:original", sf));
        databases.push(("tpch:{}:modified", sf));
        databases.push(("tpch-subset:{}", sf));
    }
    for wh in [10.0, 30.0, 100.0, 300.0] {
        databases.push(("tpcc:{}", wh));
    }
    databases
        .into_iter()
        .flat_map(|(db, size)| ["box1", "box2", "full"].map(|pool| (db, size, pool)))
        .collect()
}

/// A database preset at `size` scaled by a drawn factor within 0.1%, so
/// problems of the same preset and size still differ in bytes and bills
/// and do not share TOC cache entries.
pub fn database(preset: &str, size: f64, rng: &mut Rng) -> DbSpec {
    let factor = 1.0 + rng.range(-1.0, 1.0) / 1000.0;
    let size = (size * factor * 1e4).round() / 1e4;
    DbSpec::Preset(preset.replace("{}", &size.to_string()))
}

pub fn preset_pool(name: &str) -> StoragePool {
    match name {
        "box1" => catalog::box1(),
        "box2" => catalog::box2(),
        _ => catalog::full_pool(),
    }
}

/// An operator's own catalog: `base` with its class prices scaled by a
/// fixed factor per class, each jittered by up to 3% by `rng`
/// (capacities unchanged).
pub fn repriced(base: StoragePool, rng: &mut Rng) -> PoolSpec {
    const FACTORS: [f64; 5] = [1.3, 0.8, 1.1, 0.9, 1.2];
    let mut pool = base;
    let prices: Vec<(String, f64)> = pool
        .classes()
        .iter()
        .map(|c| (c.name.clone(), c.price_cents_per_gb_hour))
        .collect();
    for (i, (name, price)) in prices.into_iter().enumerate() {
        pool.set_price(
            &name,
            price * FACTORS[i % FACTORS.len()] * rng.range(0.97, 1.03),
        );
    }
    PoolSpec::Custom(pool)
}

/// The fleet: every triple of [`combos`] twice, once at SLA 0.4 and once
/// at 0.65, one tenant in five on an inline, repriced copy of its pool,
/// and cool-downs cycling through 2, 3 and 4 ticks, with sizes and prices
/// drawn from [`FIXTURE_SEED`].
pub fn plan() -> Vec<TenantPlan> {
    let mut rng = Rng::new(FIXTURE_SEED, "fleet");
    let combos = combos();
    (0..TENANTS)
        .map(|i| {
            let (preset, size, pool) = combos[i % combos.len()];
            let database = database(preset, size, &mut rng);
            let pool = if i % 5 == 4 {
                repriced(preset_pool(pool), &mut rng)
            } else {
                PoolSpec::Name(pool.to_owned())
            };
            TenantPlan {
                name: format!("t{i:03}"),
                problem: ProblemSpec {
                    pool,
                    database,
                    sla: [0.4, 0.65][i / combos.len()],
                    engine: None,
                    refinements: None,
                },
                controller: ControllerConfig {
                    cooldown_ticks: 2 + (i % 3) as u64,
                    ..ControllerConfig::default()
                },
            }
        })
        .collect()
}

/// Attach `plans` through a persisting [`Registry`] in `dir`, flush it as
/// a graceful shutdown does, and return the fixture's text.
pub fn build(dir: &Path, plans: &[TenantPlan]) -> io::Result<String> {
    let _ = std::fs::remove_dir_all(dir);
    let registry = Registry::open(RegistryConfig {
        state_dir: Some(dir.to_path_buf()),
        ..RegistryConfig::default()
    })?;
    for plan in plans {
        registry
            .attach(
                Some(plan.name.clone()),
                &plan.problem,
                None,
                Some(plan.controller.clone()),
            )
            .map_err(|e| io::Error::other(format!("attach {}: {e}", plan.name)))?;
    }
    registry.flush_all();
    drop(registry);
    let path = dir.join(STATE_FILE);
    let mut snapshot: RegistrySnapshot = serde_json::from_str(&std::fs::read_to_string(&path)?)
        .map_err(|e| io::Error::other(format!("fixture: {e}")))?;
    for tenant in &mut snapshot.tenants {
        tenant.elapsed_ms = 0;
    }
    let text = serde_json::to_string(&snapshot).map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(&path, &text)?;
    Ok(text)
}
