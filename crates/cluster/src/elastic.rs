//! Elastic (cloud) scaling simulation.
//!
//! The paper repeatedly motivates cloud deployment: "Dynamic scalable
//! Cloud cluster would be able to meet the demand of large data streams
//! realtime processing by adding additional nodes to the processing
//! cluster when needed" (§I, §III-A, §IV). This module simulates that
//! policy loop on top of the DES: the offered load varies over time, a
//! controller watches the achieved/offered ratio over monitoring epochs,
//! and scales the engine pool up (provisioning new engines round-robin
//! over nodes) or down when capacity is wasted.
//!
//! The simulation is epoch-based: each epoch runs the steady-state DES at
//! the current pool size and offered rate — appropriate because the DES
//! reaches steady state in seconds while scaling decisions happen on
//! minutes, so within-epoch transients are negligible.

use crate::placement::Placement;
use crate::sim::{ClusterSim, SimConfig};
use crate::spec::{ClusterSpec, CostModel};

/// Autoscaler policy knobs.
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Scale up when achieved/offered throughput falls below this.
    pub scale_up_below: f64,
    /// Scale down when the pool could lose an engine and still keep the
    /// achieved/offered ratio above `scale_up_below` with this margin.
    pub scale_down_margin: f64,
    /// Engines added per scale-up decision.
    pub step_up: usize,
    /// Engines removed per scale-down decision.
    pub step_down: usize,
    /// Hard bounds on the pool size.
    pub min_engines: usize,
    /// Upper bound (cloud quota).
    pub max_engines: usize,
    /// Epochs to hold after a scaling action before considering the next
    /// one. Without this hysteresis, offered load sitting at a capacity
    /// boundary (or a noisy capacity measurement straddling it) flips
    /// `+step_up`/`-step_down` on consecutive epochs forever. A scale-up
    /// that directly follows a scale-up is exempt: demand still outrunning
    /// a pool that just grew is a ramp, not a flap, and holding it costs
    /// an epoch of unmet load per step.
    pub cooldown_epochs: usize,
}

impl Default for ElasticPolicy {
    /// Defaults shared by the DES simulation and the live autoscaler
    /// (`spca-engine`'s `ElasticSupervisor` builds its policy from this
    /// same `Default`, so the two loops stay calibrated against each
    /// other).
    fn default() -> Self {
        ElasticPolicy {
            scale_up_below: 0.95,
            scale_down_margin: 1.3,
            step_up: 2,
            step_down: 1,
            min_engines: 1,
            max_engines: 40,
            cooldown_epochs: 1,
        }
    }
}

impl ElasticPolicy {
    /// The scaling decision for one monitoring epoch: `+n` to add engines,
    /// `-n` to remove, `0` to hold. Pure and shared: `simulate_elastic`
    /// drives it with DES capacities, the live autoscaler with measured
    /// throughput — same thresholds, same hysteresis, by construction.
    ///
    /// `capacity` estimates sustainable throughput at a pool size (only
    /// consulted for the current and candidate-smaller pools);
    /// `epochs_since_action` is how many epochs ago the last nonzero
    /// action happened (pass `cooldown_epochs` or more when none has),
    /// and `last_action` is that action (0 when none has).
    pub fn decide(
        &self,
        offered: f64,
        engines: usize,
        mut capacity: impl FnMut(usize) -> f64,
        epochs_since_action: usize,
        last_action: i64,
    ) -> i64 {
        let cooling = epochs_since_action < self.cooldown_epochs;
        let achieved = capacity(engines).min(offered);
        let satisfaction = if offered > 0.0 {
            achieved / offered
        } else {
            1.0
        };
        if satisfaction < self.scale_up_below && engines < self.max_engines {
            if cooling && last_action <= 0 {
                return 0;
            }
            let next = (engines + self.step_up).min(self.max_engines);
            return (next - engines) as i64;
        }
        if engines > self.min_engines && !cooling {
            let smaller = engines.saturating_sub(self.step_down).max(self.min_engines);
            if capacity(smaller) >= offered * self.scale_up_below * self.scale_down_margin {
                return -((engines - smaller) as i64);
            }
        }
        0
    }
}

/// One monitoring epoch's outcome.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Offered load this epoch (tuples/s).
    pub offered: f64,
    /// Engines in the pool during the epoch.
    pub engines: usize,
    /// Achieved throughput (tuples/s), capped by capacity.
    pub achieved: f64,
    /// Achieved / offered.
    pub satisfaction: f64,
    /// Scaling action taken *after* this epoch: +n, -n, or 0.
    pub action: i64,
}

/// Simulates the autoscaler against a time-varying offered load.
///
/// `offered_load` gives the demand (tuples/s) per epoch. Returns one
/// report per epoch. The pool starts at `policy.min_engines`.
pub fn simulate_elastic(
    spec: &ClusterSpec,
    cost: &CostModel,
    base_cfg: &SimConfig,
    offered_load: &[f64],
    policy: &ElasticPolicy,
) -> Vec<EpochReport> {
    let mut engines = policy.min_engines.max(1);
    let mut reports = Vec::with_capacity(offered_load.len());

    // Capacity at a pool size is load-independent under the saturated DES;
    // memoize it.
    let mut capacity_cache: std::collections::HashMap<usize, f64> =
        std::collections::HashMap::new();
    let mut capacity = |n: usize| -> f64 {
        *capacity_cache.entry(n).or_insert_with(|| {
            let placement = Placement::round_robin(n, spec.n_nodes);
            ClusterSim::new(spec.clone(), cost.clone(), placement, base_cfg.clone())
                .run()
                .throughput
        })
    };

    // Free to act on the first epoch; afterwards the cooldown counts up
    // from every nonzero action.
    let mut since_action = policy.cooldown_epochs;
    let mut last_action = 0;

    for &offered in offered_load {
        let cap = capacity(engines);
        let achieved = cap.min(offered);
        let satisfaction = if offered > 0.0 {
            achieved / offered
        } else {
            1.0
        };

        // Decide the action for the next epoch.
        let action = policy.decide(offered, engines, &mut capacity, since_action, last_action);
        engines = (engines as i64 + action) as usize;
        if action != 0 {
            since_action = 0;
            last_action = action;
        } else {
            since_action = since_action.saturating_add(1);
        }

        reports.push(EpochReport {
            offered,
            engines: (engines as i64 - action) as usize,
            achieved,
            satisfaction,
            action,
        });
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ClusterSpec, CostModel, SimConfig) {
        (
            ClusterSpec::paper(),
            CostModel::paper(),
            SimConfig {
                duration: 6.0,
                warmup: 1.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn scales_up_under_rising_load() {
        let (spec, cost, cfg) = setup();
        // Demand ramps well past a single engine's ~900 tuples/s.
        let load: Vec<f64> = (0..12).map(|i| 500.0 + 1000.0 * i as f64).collect();
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        let first = reports.first().unwrap();
        let last = reports.last().unwrap();
        assert_eq!(first.engines, 1);
        assert!(last.engines > 4, "pool never grew: {:?}", last);
        // Once scaled, late epochs should be mostly satisfied.
        assert!(
            last.satisfaction > 0.8,
            "late satisfaction {:?}",
            last.satisfaction
        );
    }

    #[test]
    fn scales_down_when_load_drops() {
        let (spec, cost, cfg) = setup();
        let mut load = vec![9000.0; 8];
        load.extend(vec![500.0; 8]);
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        let peak = reports.iter().map(|r| r.engines).max().unwrap();
        let final_size = reports.last().unwrap().engines;
        assert!(peak >= 6, "never scaled up: peak {peak}");
        assert!(
            final_size < peak,
            "never scaled down: {final_size} vs peak {peak}"
        );
    }

    #[test]
    fn respects_quota() {
        let (spec, cost, cfg) = setup();
        let load = vec![1e9; 6]; // impossible demand
        let policy = ElasticPolicy {
            max_engines: 5,
            ..Default::default()
        };
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &policy);
        assert!(reports.iter().all(|r| r.engines <= 5));
    }

    #[test]
    fn stable_load_stabilizes_pool() {
        let (spec, cost, cfg) = setup();
        let load = vec![4000.0; 14];
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        // After convergence the pool stops oscillating.
        let tail: Vec<usize> = reports.iter().rev().take(4).map(|r| r.engines).collect();
        assert!(
            tail.windows(2)
                .all(|w| (w[0] as i64 - w[1] as i64).abs() <= 1),
            "oscillating pool: {tail:?}"
        );
        assert!(reports.last().unwrap().satisfaction > 0.9);
    }

    /// Drives [`ElasticPolicy::decide`] through an epoch loop against a
    /// per-epoch capacity estimate, mirroring `simulate_elastic`'s
    /// bookkeeping without the DES. Returns the action sequence.
    fn drive_policy(policy: &ElasticPolicy, caps: &[f64], offered: f64) -> Vec<i64> {
        let mut engines = policy.min_engines.max(1);
        let mut since_action = policy.cooldown_epochs;
        let mut last_action = 0;
        caps.iter()
            .map(|&per_engine| {
                let action = policy.decide(
                    offered,
                    engines,
                    |n| per_engine * n as f64,
                    since_action,
                    last_action,
                );
                engines = (engines as i64 + action) as usize;
                if action != 0 {
                    since_action = 0;
                    last_action = action;
                } else {
                    since_action = since_action.saturating_add(1);
                }
                action
            })
            .collect()
    }

    #[test]
    fn cooldown_prevents_consecutive_epoch_flapping() {
        // A noisy capacity estimate straddling the boundary: low epochs
        // make the pool look starved (scale up), high epochs make the
        // shrunk pool look sufficient (scale down). Without a cooldown the
        // policy acts on consecutive epochs, flipping forever.
        let caps: Vec<f64> = (0..20)
            .map(|e| if e % 2 == 0 { 900.0 } else { 1300.0 })
            .collect();
        let offered = 2000.0;

        let no_cooldown = ElasticPolicy {
            cooldown_epochs: 0,
            ..Default::default()
        };
        let flappy = drive_policy(&no_cooldown, &caps, offered);
        assert!(
            flappy
                .windows(2)
                .any(|w| w[0] != 0 && w[1] != 0 && w[0].signum() != w[1].signum()),
            "expected consecutive opposite actions without cooldown: {flappy:?}"
        );

        // The default policy (cooldown_epochs >= 1) never acts on two
        // consecutive epochs, so +up/-down flips cannot alternate back to
        // back — and it acts strictly less often overall.
        let policy = ElasticPolicy::default();
        assert!(policy.cooldown_epochs >= 1, "default cooldown must be >= 1");
        let damped = drive_policy(&policy, &caps, offered);
        assert!(
            damped.windows(2).all(|w| w[0] == 0 || w[1] == 0),
            "cooldown violated: {damped:?}"
        );
        let acts = |v: &[i64]| v.iter().filter(|&&a| a != 0).count();
        assert!(
            acts(&damped) < acts(&flappy),
            "cooldown did not reduce churn: {} vs {}",
            acts(&damped),
            acts(&flappy)
        );
    }

    #[test]
    fn simulate_elastic_honors_the_cooldown() {
        let (spec, cost, cfg) = setup();
        // Load swinging across the pool's capacity boundary every epoch.
        let load: Vec<f64> = (0..16)
            .map(|e| if e % 2 == 0 { 6000.0 } else { 1200.0 })
            .collect();
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        assert!(
            reports
                .windows(2)
                .all(|w| w[0].action == 0 || w[1].action == 0),
            "consecutive-epoch actions despite cooldown: {:?}",
            reports.iter().map(|r| r.action).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_load_is_fine() {
        let (spec, cost, cfg) = setup();
        let reports = simulate_elastic(&spec, &cost, &cfg, &[0.0, 0.0], &ElasticPolicy::default());
        assert!(reports.iter().all(|r| r.satisfaction == 1.0));
    }
}
