//! The high-level experiment API used by examples and benches.

use zng_platforms::{PlatformKind, RunResult, SimConfig, Simulation};
use zng_sim::parallel_map;
use zng_types::Result;
use zng_workloads::{MultiApp, TraceParams};

/// A reusable experiment context: a simulation configuration plus trace
/// parameters.
///
/// # Examples
///
/// ```
/// use zng::{Experiment, PlatformKind};
///
/// let mut exp = Experiment::quick();
/// let zng = exp.run(PlatformKind::Zng, &["betw"])?;
/// let base = exp.run(PlatformKind::ZngBase, &["betw"])?;
/// assert!(zng.ipc > 0.0 && base.ipc > 0.0);
/// # Ok::<(), zng_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: SimConfig,
    params: TraceParams,
}

impl Experiment {
    /// The benchmark-scale experiment (scaled flash geometry, full trace
    /// volume): what the figure benches use.
    pub fn standard() -> Experiment {
        Experiment {
            cfg: SimConfig::scaled(),
            params: TraceParams::default(),
        }
    }

    /// A fast configuration for examples and doctests (seconds, not
    /// minutes).
    pub fn quick() -> Experiment {
        Experiment {
            cfg: SimConfig::scaled(),
            params: TraceParams {
                total_warps: 32,
                mem_ops_per_warp: 60,
                footprint_pages: 256,
                seed: 42,
            },
        }
    }

    /// Overrides the simulation configuration.
    pub fn with_config(mut self, cfg: SimConfig) -> Experiment {
        self.cfg = cfg;
        self
    }

    /// Overrides the trace parameters.
    pub fn with_params(mut self, params: TraceParams) -> Experiment {
        self.params = params;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Experiment {
        self.params.seed = seed;
        self
    }

    /// The current simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable access to the configuration (sweeps).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// The current trace parameters.
    pub fn params(&self) -> &TraceParams {
        &self.params
    }

    /// Builds the mix named by `workloads` under this experiment's
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown workload names.
    pub fn mix(&self, workloads: &[&str]) -> Result<MultiApp> {
        MultiApp::from_names(workloads, &self.params)
    }

    /// Runs `workloads` co-scheduled on `platform`.
    ///
    /// # Errors
    ///
    /// Propagates configuration, workload and simulation errors.
    pub fn run(&mut self, platform: PlatformKind, workloads: &[&str]) -> Result<RunResult> {
        let mix = self.mix(workloads)?;
        self.run_mix(platform, &mix)
    }

    /// Runs a pre-built mix on `platform` (a fresh platform instance per
    /// call, so runs are independent).
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation errors.
    pub fn run_mix(&mut self, platform: PlatformKind, mix: &MultiApp) -> Result<RunResult> {
        let mut sim = Simulation::new(platform, &self.cfg)?;
        sim.run(mix)
    }

    /// Runs the same mix across several platforms, one scoped worker
    /// thread per run (runs share no state, so they fan out freely);
    /// results come back in the order `platforms` lists them, identical
    /// to the sequential harness.
    ///
    /// # Errors
    ///
    /// Propagates the first failing run's error.
    pub fn run_platforms(
        &mut self,
        platforms: &[PlatformKind],
        workloads: &[&str],
    ) -> Result<Vec<RunResult>> {
        let mix = self.mix(workloads)?;
        let cfg = &self.cfg;
        parallel_map(platforms.to_vec(), |p| {
            Simulation::new(p, cfg).and_then(|mut sim| sim.run(&mix))
        })
        .into_iter()
        .collect()
    }
}

impl Default for Experiment {
    fn default() -> Experiment {
        Experiment::standard()
    }
}

/// Geometric mean of positive values (the paper's cross-workload
/// aggregate); 0.0 for an empty slice.
///
/// # Examples
///
/// ```
/// assert!((zng::geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quick_experiment_runs_two_platforms() {
        let mut exp = Experiment::quick();
        let rs = exp
            .run_platforms(&[PlatformKind::Ideal, PlatformKind::Zng], &["betw"])
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.ipc > 0.0));
    }

    #[test]
    fn builder_overrides() {
        let exp = Experiment::quick().with_seed(7);
        assert_eq!(exp.params().seed, 7);
        let mut cfg = SimConfig::tiny();
        cfg.group_size = 2;
        let exp = exp.with_config(cfg);
        assert_eq!(exp.config().group_size, 2);
    }

    #[test]
    fn unknown_workload_surfaces() {
        let mut exp = Experiment::quick();
        assert!(exp.run(PlatformKind::Ideal, &["nope"]).is_err());
    }
}
