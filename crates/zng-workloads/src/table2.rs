//! The paper's Table II: 16 GPU benchmarks with read ratios and kernel
//! counts.

use zng_types::{Error, Result};

/// Source benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// GraphBIG graph analysis.
    GraphBig,
    /// Rodinia heterogeneous-computing suite.
    Rodinia,
    /// PolyBench polyhedral kernels.
    Polybench,
}

/// Access-pattern family, which drives trace synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Irregular, pointer-chasing graph traversal (Zipf-reused pages).
    Graph,
    /// Regular, strided scientific sweeps with write-heavy phases.
    Scientific,
}

/// One Table II row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name as the paper prints it.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// Fraction of memory operations that are reads.
    pub read_ratio: f64,
    /// Number of GPU kernels the application launches.
    pub kernels: u32,
    /// Pattern family for synthesis.
    pub class: Class,
}

/// All 16 Table II workloads, in the paper's order.
pub fn table2() -> &'static [WorkloadSpec] {
    use Class::*;
    use Suite::*;
    const T: &[WorkloadSpec] = &[
        WorkloadSpec {
            name: "betw",
            suite: GraphBig,
            read_ratio: 0.98,
            kernels: 11,
            class: Graph,
        },
        WorkloadSpec {
            name: "bfs1",
            suite: GraphBig,
            read_ratio: 0.95,
            kernels: 7,
            class: Graph,
        },
        WorkloadSpec {
            name: "bfs2",
            suite: GraphBig,
            read_ratio: 0.99,
            kernels: 9,
            class: Graph,
        },
        WorkloadSpec {
            name: "bfs3",
            suite: GraphBig,
            read_ratio: 0.88,
            kernels: 10,
            class: Graph,
        },
        WorkloadSpec {
            name: "bfs4",
            suite: GraphBig,
            read_ratio: 0.97,
            kernels: 12,
            class: Graph,
        },
        WorkloadSpec {
            name: "bfs5",
            suite: GraphBig,
            read_ratio: 0.99,
            kernels: 6,
            class: Graph,
        },
        WorkloadSpec {
            name: "bfs6",
            suite: GraphBig,
            read_ratio: 0.97,
            kernels: 7,
            class: Graph,
        },
        WorkloadSpec {
            name: "gc1",
            suite: GraphBig,
            read_ratio: 0.98,
            kernels: 8,
            class: Graph,
        },
        WorkloadSpec {
            name: "gc2",
            suite: GraphBig,
            read_ratio: 0.99,
            kernels: 10,
            class: Graph,
        },
        WorkloadSpec {
            name: "sssp3",
            suite: GraphBig,
            read_ratio: 0.98,
            kernels: 8,
            class: Graph,
        },
        WorkloadSpec {
            name: "deg",
            suite: GraphBig,
            read_ratio: 1.0,
            kernels: 1,
            class: Graph,
        },
        WorkloadSpec {
            name: "pr",
            suite: GraphBig,
            read_ratio: 0.99,
            kernels: 53,
            class: Graph,
        },
        WorkloadSpec {
            name: "back",
            suite: Rodinia,
            read_ratio: 0.57,
            kernels: 1,
            class: Scientific,
        },
        WorkloadSpec {
            name: "gaus",
            suite: Rodinia,
            read_ratio: 0.66,
            kernels: 3,
            class: Scientific,
        },
        WorkloadSpec {
            name: "FDT",
            suite: Polybench,
            read_ratio: 0.73,
            kernels: 1,
            class: Scientific,
        },
        WorkloadSpec {
            name: "gram",
            suite: Polybench,
            read_ratio: 0.75,
            kernels: 3,
            class: Scientific,
        },
    ];
    T
}

/// Looks up a workload by its paper name.
///
/// # Errors
///
/// Returns [`Error::UnknownWorkload`] for an unrecognised name.
///
/// # Examples
///
/// ```
/// let betw = zng_workloads::by_name("betw")?;
/// assert_eq!(betw.kernels, 11);
/// # Ok::<(), zng_types::Error>(())
/// ```
pub fn by_name(name: &str) -> Result<WorkloadSpec> {
    table2()
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| Error::UnknownWorkload(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_workloads() {
        assert_eq!(table2().len(), 16);
    }

    #[test]
    fn read_ratios_match_paper() {
        assert!((by_name("betw").unwrap().read_ratio - 0.98).abs() < 1e-9);
        assert!((by_name("back").unwrap().read_ratio - 0.57).abs() < 1e-9);
        assert!((by_name("deg").unwrap().read_ratio - 1.0).abs() < 1e-9);
        assert_eq!(by_name("pr").unwrap().kernels, 53);
    }

    #[test]
    fn write_intensive_set_is_the_scientific_four() {
        let wi: Vec<&str> = table2()
            .iter()
            .filter(|w| w.read_ratio < 0.8)
            .map(|w| w.name)
            .collect();
        assert_eq!(wi, vec!["back", "gaus", "FDT", "gram"]);
    }

    #[test]
    fn graph_class_is_graphbig() {
        for w in table2() {
            match w.suite {
                Suite::GraphBig => assert_eq!(w.class, Class::Graph),
                _ => assert_eq!(w.class, Class::Scientific),
            }
        }
    }

    #[test]
    fn unknown_name_errors() {
        assert!(by_name("nope").is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = table2().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }
}
