//! # Computational Neighborhood (CN)
//!
//! A full Rust reproduction of *“A Model-Driven Approach to Job/Task
//! Composition in Cluster Computing”* (Mehta, Kanitkar, Läufer,
//! Thiruvathukal; IPDPS 2007).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`xml`] / [`xpath`] / [`xslt`] — the XML substrate the generative tool
//!   chain runs on (built from scratch; no offline XML crates exist).
//! * [`model`] — UML activity-diagram models with tagged values and XMI 1.2
//!   import/export (paper Figures 3, 4, 5, 7).
//! * [`cnx`] — the CNX compositional language (paper Figure 2).
//! * [`cluster`] — the deterministic simulated cluster substrate standing in
//!   for the paper's Ethernet cluster of PCs.
//! * [`core`] — the CN runtime: CN API factory, Job/Task, JobManager,
//!   TaskManager, CNServer, messaging, tuple spaces.
//! * [`tasks`] — the task library, including the paper's guiding example
//!   (parallel Floyd transitive closure: `TaskSplit`, `TCTask`, `TCJoin`).
//! * [`transform`] — the XMI2CNX, CNX2Rust and CNX2Java stylesheets and the
//!   six-step pipeline of Figure 6; `examples/generated/fig2_client.rs` is
//!   the Rust client CNX2Rust writes for Figure 2.
//! * [`graph`] — shared graph algorithms (deterministic cycle search).
//! * [`analysis`] — the cross-layer lint engine behind `cnctl lint`: coded,
//!   spanned diagnostics over CNX descriptors and activity models.
//! * [`check`] — the deterministic concurrency checker behind `cnctl check`:
//!   controlled-scheduler exploration of the runtime's real concurrency
//!   surfaces, with lock-order analysis and replayable counterexamples.
//! * [`observe`] — the observability subsystem: metrics registry, span
//!   tracing with logical clocks, flight recorder, and the exporters behind
//!   `cnctl trace` / `cnctl stats`.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the complete model → XMI → CNX → execute
//! flow on a 5-worker transitive-closure job.

pub use cn_analysis as analysis;
pub use cn_check as check;
pub use cn_cluster as cluster;
pub use cn_cnx as cnx;
pub use cn_core as core;
pub use cn_graph as graph;
pub use cn_model as model;
pub use cn_observe as observe;
pub use cn_portal as portal;
pub use cn_tasks as tasks;
pub use cn_transform as transform;
pub use cn_wire as wire;
pub use cn_xml as xml;
pub use cn_xpath as xpath;
pub use cn_xslt as xslt;

#[cfg(test)]
mod docs_sync {
    use std::path::Path;

    /// The backticked names of a DESIGN.md table row's last column.
    fn modules_of(row: &str) -> Vec<&str> {
        let last = row.trim_end().trim_end_matches('|').rsplit('|').next().unwrap_or("");
        last.split('`').skip(1).step_by(2).collect()
    }

    /// DESIGN.md §3 and the tree must not drift apart: every directory
    /// under `crates/` has a row, the facade has one, and every module a
    /// row names exists as `src/<m>.rs` or `src/<m>/`.
    #[test]
    fn design_md_crate_inventory_matches_the_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
        let mut packages = vec![(root.to_path_buf(), "root `computational-neighborhood`".into())];
        for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
            let dir = entry.expect("dir entry").path();
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("read manifest");
            let name = manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
                .expect("package name");
            packages.push((dir, format!("`{name}`")));
        }
        for (dir, label) in packages {
            let rows: Vec<&str> =
                design.lines().filter(|l| l.starts_with(&format!("| {label} |"))).collect();
            assert_eq!(rows.len(), 1, "expected exactly one DESIGN.md §3 row for {label}");
            let modules = modules_of(rows[0]);
            assert!(!modules.is_empty(), "the row for {label} names no module");
            for m in modules {
                let src = dir.join("src");
                assert!(
                    src.join(format!("{m}.rs")).is_file() || src.join(m).is_dir(),
                    "DESIGN.md §3 names module `{m}` of {label}, which does not exist"
                );
            }
        }
    }
}
