//! Multi-application workload mixes (paper §V-A).
//!
//! The paper stresses the memory subsystem by co-running a read-intensive
//! graph workload with a write-intensive scientific workload. The
//! standard eight mixes here follow that recipe; `betw-back` is the pair
//! the paper singles out for the GC study (Fig. 17) and the scalability
//! sweep (Fig. 15a).

use zng_gpu::WarpTrace;
use zng_types::ids::AppId;
use zng_types::Result;

use crate::generator::{generate, TraceParams};
use crate::table2::{by_name, WorkloadSpec};

/// A co-running application set.
#[derive(Debug, Clone)]
pub struct MultiApp {
    /// Mix name, e.g. `"betw-back"`.
    pub name: String,
    /// Per-app spec and traces, in app-id order.
    pub apps: Vec<(WorkloadSpec, AppId, Vec<WarpTrace>)>,
}

impl MultiApp {
    /// Builds a mix from workload names (app ids assigned in order).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown workload names, and
    /// [`zng_types::Error::InvalidConfig`] when `params` has zero warps,
    /// ops or footprint.
    pub fn from_names(names: &[&str], params: &TraceParams) -> Result<MultiApp> {
        params.validate()?;
        let mut apps = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let spec = by_name(name)?;
            let app = AppId(i as u16);
            let traces = generate(&spec, app, params);
            apps.push((spec, app, traces));
        }
        Ok(MultiApp {
            name: names.join("-"),
            apps,
        })
    }

    /// Total warps across all apps.
    pub fn total_warps(&self) -> usize {
        self.apps.iter().map(|(_, _, t)| t.len()).sum()
    }
}

/// The eight standard read×write mixes used by Figs. 10–14.
pub fn standard_mix_names() -> [[&'static str; 2]; 8] {
    [
        ["betw", "back"],
        ["bfs1", "gaus"],
        ["bfs2", "gaus"],
        ["bfs3", "FDT"],
        ["bfs6", "gaus"],
        ["gc1", "gram"],
        ["pr", "back"],
        ["sssp3", "FDT"],
    ]
}

/// Builds all standard mixes under `params`.
///
/// # Errors
///
/// Propagates unknown-workload errors (impossible for the built-in set).
pub fn mixes(params: &TraceParams) -> Result<Vec<MultiApp>> {
    standard_mix_names()
        .iter()
        .map(|pair| MultiApp::from_names(pair, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_mixes_build() {
        let all = mixes(&TraceParams::tiny()).unwrap();
        assert_eq!(all.len(), 8);
        for m in &all {
            assert_eq!(m.apps.len(), 2);
            assert_eq!(m.total_warps(), 2 * TraceParams::tiny().total_warps);
            // Read-intensive first, write-intensive second.
            assert!(m.apps[0].0.read_ratio > 0.8, "{}", m.name);
            assert!(m.apps[1].0.read_ratio < 0.8, "{}", m.name);
        }
    }

    #[test]
    fn mix_names_join_with_dash() {
        let m = MultiApp::from_names(&["betw", "back"], &TraceParams::tiny()).unwrap();
        assert_eq!(m.name, "betw-back");
        assert_eq!(m.apps[0].1, AppId(0));
        assert_eq!(m.apps[1].1, AppId(1));
    }

    #[test]
    fn unknown_workload_propagates() {
        assert!(MultiApp::from_names(&["betw", "bogus"], &TraceParams::tiny()).is_err());
    }

    #[test]
    fn zero_trace_counts_are_rejected() {
        for what in [
            "trace.total_warps",
            "trace.mem_ops_per_warp",
            "trace.footprint_pages",
        ] {
            let mut params = TraceParams::tiny();
            match what {
                "trace.total_warps" => params.total_warps = 0,
                "trace.mem_ops_per_warp" => params.mem_ops_per_warp = 0,
                _ => params.footprint_pages = 0,
            }
            match MultiApp::from_names(&["betw"], &params) {
                Err(zng_types::Error::InvalidConfig { what: got, .. }) => assert_eq!(got, what),
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn n_way_corun_supported() {
        // The Fig. 15a scalability sweep co-runs up to 8 instances.
        let names = ["betw"; 8];
        let m = MultiApp::from_names(&names, &TraceParams::tiny()).unwrap();
        assert_eq!(m.apps.len(), 8);
        // Distinct app ids -> distinct address windows.
        let ids: std::collections::HashSet<u16> = m.apps.iter().map(|(_, a, _)| a.raw()).collect();
        assert_eq!(ids.len(), 8);
    }
}
