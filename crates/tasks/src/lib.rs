//! The CN task library.
//!
//! The centerpiece is the paper's guiding example ([`transclosure`]):
//! parallel Floyd all-pairs shortest path with row-wise decomposition,
//! implemented as the three CN tasks of Section 2 — `TaskSplit`, `TCTask`
//! (workers, coordinating over the CN API; a tuple-space variant included)
//! and `TCJoin` — packaged under the paper's jar names (`tasksplit.jar`,
//! `tctask.jar`, `taskjoin.jar`).
//!
//! Alongside it: sequential and shared-memory [`floyd`] baselines, seeded
//! [`graphgen`] workload generators, and two further domain workloads the
//! examples and benches use — [`montecarlo`] π estimation and distributed
//! [`wordcount`] and [`matmul`].

pub mod floyd;
pub mod graphgen;
pub mod matmul;
pub mod matrix;
pub mod montecarlo;
pub mod transclosure;
pub mod wordcount;

pub use cn_core::TaskError;
pub use floyd::{floyd_parallel, floyd_sequential};
pub use graphgen::{layered_dag, random_digraph, ring_graph};
pub use matrix::{row_blocks, Matrix, INF};
pub use transclosure::{
    publish_tc_archives, run_transitive_closure, seed_input, seed_transitive_closure, TcOptions,
};

/// Publish every archive in this library (transitive closure, Monte-Carlo,
/// word count, matmul) into a registry — used by the examples and the
/// pipeline so generated clients find their classes.
pub fn publish_all_archives(registry: &cn_core::ArchiveRegistry) {
    transclosure::publish_tc_archives(registry);
    montecarlo::publish_pi_archive(registry);
    wordcount::publish_wc_archive(registry);
    matmul::publish_mm_archive(registry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_all_registers_every_jar() {
        let reg = cn_core::ArchiveRegistry::new();
        publish_all_archives(&reg);
        for jar in [
            "tasksplit.jar",
            "tctask.jar",
            "taskjoin.jar",
            "montecarlo.jar",
            "wordcount.jar",
            "matmul.jar",
        ] {
            assert!(reg.contains(jar), "{jar} missing");
        }
    }
}
