//! Inputs made from the seed, and the reference output each must produce.

use std::sync::Arc;
use std::time::Duration;

use cn_portal::{compile_submission, CompiledJob, JobRunner, SimRunner};

/// Workers in the paper's Figure-3 model (7 tasks with split and join).
pub const FIG3_WORKERS: usize = 5;
/// The wider model: 9 tasks. Wider ones do not repeat on this system (see
/// README.md): from 9 workers up a job's run time spreads over more than
/// one 20 ms journal-poll tick and the median flips between ticks.
pub const WIDE_WORKERS: usize = 7;
/// Model sizes the compile workload draws from.
pub const STORM_WORKERS: std::ops::RangeInclusive<usize> = 10..=30;

/// SplitMix64: the whole of the benchmark's randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The transitive-closure activity model with `workers` parallel rows,
/// exported as the XMI a modelling tool would upload.
pub fn xmi(workers: usize) -> String {
    cn_xml::write_document(
        &cn_model::export_xmi(&cn_transform::figure2_model(workers)),
        &cn_xml::WriteOptions::xmi(),
    )
}

/// One submission body with what the portal must answer for it.
#[derive(Clone)]
pub struct Body {
    pub bytes: Arc<Vec<u8>>,
    /// The journal `GET /jobs/<id>/journal` must stream, byte for byte.
    pub journal: Arc<String>,
    /// Task count known from the generator (`workers + 2`), not from the
    /// compiler under test.
    pub tasks: usize,
}

pub fn compile(body: &[u8]) -> Result<CompiledJob, String> {
    compile_submission(body).map_err(|e| format!("compile reference body: {e}"))
}

/// The reference run: the same body on a fresh in-process simulated
/// neighborhood with the portal's digraph seed. DESIGN.md §8/§13 make the
/// canonical journal of a wire run and a portal run identical to it.
pub fn sim_runner(digraph_seed: u64) -> SimRunner {
    SimRunner { nodes: 3, timeout: Duration::from_secs(60), digraph_seed }
}

pub fn executed_body(text: String, workers: usize, digraph_seed: u64) -> Result<Body, String> {
    let outcome = sim_runner(digraph_seed)
        .run(&compile(text.as_bytes())?)
        .map_err(|e| format!("reference run: {e}"))?;
    if outcome.tasks != workers + 2 {
        return Err(format!("reference run had {} tasks, want {}", outcome.tasks, workers + 2));
    }
    Ok(Body {
        bytes: Arc::new(text.into_bytes()),
        journal: Arc::new(outcome.journal),
        tasks: workers + 2,
    })
}

/// The recorder of one reference run (what `SimRunner` does, keeping the
/// recorder instead of its journal), for timing the journal export.
pub fn sim_recorder(job: &CompiledJob, digraph_seed: u64) -> Result<cn_observe::Recorder, String> {
    use cn_core::{execute_descriptor_seeded, DynamicArgs, Neighborhood, NeighborhoodConfig};
    let rec = cn_observe::Recorder::new();
    let nb = Neighborhood::deploy_with(
        cn_cluster::NodeSpec::fleet(3, 8192, 16),
        NeighborhoodConfig { recorder: rec.clone(), ..NeighborhoodConfig::default() },
    );
    cn_tasks::publish_all_archives(nb.registry());
    let result = execute_descriptor_seeded(
        &nb,
        &job.descriptor,
        &DynamicArgs::new(),
        Duration::from_secs(60),
        |job| cn_portal::seed_transitive_closure(job, digraph_seed),
    );
    nb.shutdown();
    result.map(|_| rec).map_err(|e| format!("reference run: {e}"))
}

/// The journal the stub portal hands back for every job: 16 KiB of
/// journal-shaped lines, the same in parent and child.
pub fn canned_journal() -> String {
    let mut out = String::with_capacity(16 * 1024);
    let mut i = 0u32;
    while out.len() < 16 * 1024 {
        out.push_str(&format!(
            "{{\"cat\":\"task\",\"name\":\"tctask{i}\",\"start\":{},\"end\":{}}}\n",
            i * 3,
            i * 3 + 2
        ));
        i += 1;
    }
    out
}

/// How the journal of a job the cluster failed begins: such a job still
/// answers `200`, with the error in band.
pub const JOB_ERROR_PREFIX: &[u8] = b"{\"error\"";

/// Why a streamed journal does not count as a correct answer.
pub fn journal_fault(got: &[u8], want: &str) -> Option<String> {
    if got == want.as_bytes() {
        return None;
    }
    let text = String::from_utf8_lossy(got);
    Some(if got.starts_with(JOB_ERROR_PREFIX) {
        format!("job failed: {}", text.trim_end())
    } else {
        let at = got.iter().zip(want.as_bytes()).take_while(|(a, b)| a == b).count();
        format!(
            "journal differs from the reference at byte {at} ({} vs {} bytes)",
            got.len(),
            want.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(21)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|v| *v < 21));
    }

    #[test]
    fn journal_fault_names_errors_and_mismatches() {
        let want = "{\"a\":1}\n{\"b\":2}\n";
        assert_eq!(journal_fault(want.as_bytes(), want), None);
        let failed = journal_fault(b"{\"error\":\"execution: no willing TaskManager\"}\n", want);
        assert!(failed.unwrap().starts_with("job failed: {\"error\""));
        let differs = journal_fault(b"{\"a\":1}\n{\"b\":3}\n", want).unwrap();
        assert!(differs.contains("at byte 13"), "{differs}");
        let short = journal_fault(b"{\"a\":1}\n", want).unwrap();
        assert!(short.contains("at byte 8 (8 vs 16 bytes)"), "{short}");
        assert!(journal_fault(b"", want).is_some());
    }

    #[test]
    fn canned_journal_is_stable_and_about_16k() {
        let j = canned_journal();
        assert_eq!(j, canned_journal());
        assert!((16 * 1024..17 * 1024).contains(&j.len()));
        assert!(!j.starts_with("{\"error\""));
    }

    #[test]
    fn reference_run_is_deterministic_and_counts_tasks() {
        let a = executed_body(xmi(2), 2, 5).unwrap();
        let b = executed_body(xmi(2), 2, 5).unwrap();
        assert_eq!(a.journal, b.journal);
        assert_eq!(a.tasks, 4);
        assert!(executed_body(xmi(2), 3, 5).err().unwrap().contains("want 5"));
    }
}
