//! Per-job tuple-space registry, shared by every server and client in a
//! neighborhood (the simulated analogue of a cluster-wide tuple-space
//! service).

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use cn_observe::{Counter, Recorder};
use cn_sync::Mutex;

use crate::message::JobId;
use crate::tuplespace::TupleSpace;

/// Lazily creates one [`TupleSpace`] per job. The registry does not keep a
/// space alive: its holders do — the client's job handle and each task a
/// TaskManager was assigned — and the last of them to go frees it, so a
/// later job with the same id (client job ids restart per process) starts
/// with an empty space.
#[derive(Debug, Default)]
pub struct SpaceRegistry {
    spaces: Mutex<HashMap<JobId, Weak<TupleSpace>>>,
    /// Neighborhood-wide `space.out` / `space.rd` / `space.in` counters,
    /// shared by every job's space. `None` for standalone registries.
    counters: Option<(Counter, Counter, Counter)>,
}

impl SpaceRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry whose spaces report tuple-space operation counts into the
    /// recorder's metrics registry (`space.out`, `space.rd`, `space.in`).
    pub fn with_recorder(rec: &Recorder) -> Self {
        let m = rec.metrics();
        Self {
            spaces: Mutex::named("spaces.registry", HashMap::new()),
            counters: Some((m.counter("space.out"), m.counter("space.rd"), m.counter("space.in"))),
        }
    }

    /// The job's space while anything holds it, else a new one (and the
    /// entries of spaces nothing holds any more go).
    pub fn get_or_create(&self, job: JobId) -> Arc<TupleSpace> {
        let mut spaces = self.spaces.lock();
        if let Some(space) = spaces.get(&job).and_then(Weak::upgrade) {
            return space;
        }
        spaces.retain(|_, space| space.strong_count() > 0);
        let space = Arc::new(match &self.counters {
            Some((o, r, i)) => TupleSpace::with_counters(o.clone(), r.clone(), i.clone()),
            None => TupleSpace::new(),
        });
        spaces.insert(job, Arc::downgrade(&space));
        space
    }

    /// Spaces something still holds.
    pub fn len(&self) -> usize {
        self.spaces.lock().values().filter(|space| space.strong_count() > 0).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuplespace::Field;

    #[test]
    fn same_job_same_space() {
        let reg = SpaceRegistry::new();
        let a = reg.get_or_create(JobId(1));
        let b = reg.get_or_create(JobId(1));
        a.out(vec![Field::I(1)]);
        assert_eq!(b.len(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn different_jobs_isolated() {
        let reg = SpaceRegistry::new();
        let a = reg.get_or_create(JobId(1));
        let b = reg.get_or_create(JobId(2));
        a.out(vec![Field::I(1)]);
        assert!(b.is_empty());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn recorder_backed_registry_counts_ops_across_jobs() {
        let rec = cn_observe::Recorder::new();
        let reg = SpaceRegistry::with_recorder(&rec);
        let a = reg.get_or_create(JobId(1));
        let b = reg.get_or_create(JobId(2));
        a.out(vec![Field::I(1)]);
        b.out(vec![Field::I(2)]);
        let _ = a.try_rd(&vec![None]);
        let _ = b.try_in(&vec![None]);
        assert_eq!(rec.metrics().counter("space.out").get(), 2);
        assert_eq!(rec.metrics().counter("space.rd").get(), 1);
        assert_eq!(rec.metrics().counter("space.in").get(), 1);
    }

    #[test]
    fn a_space_goes_with_its_last_holder() {
        let reg = SpaceRegistry::new();
        let client = reg.get_or_create(JobId(1));
        let task = reg.get_or_create(JobId(1));
        client.out(vec![Field::I(1)]);
        drop(client);
        assert_eq!((reg.len(), task.len()), (1, 1), "a holder is left");
        drop(task);
        assert!(reg.is_empty());
        // The dead entry goes as the next space is made...
        let _other = reg.get_or_create(JobId(2));
        assert_eq!(reg.spaces.lock().len(), 1);
        // ...and a later job with the same id starts empty.
        assert!(reg.get_or_create(JobId(1)).is_empty());
    }
}
