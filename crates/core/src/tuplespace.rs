//! Tuple-space coordination.
//!
//! "CN also supports communication via tuple spaces" (paper Section 2,
//! parenthetical). This is the classic Linda model: `out` deposits a tuple,
//! `rd` copies a matching tuple, `in` removes one; both blocking and
//! non-blocking forms are provided. One space exists per job and is
//! reachable from every task via [`crate::TaskContext::tuplespace`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cn_observe::Counter;
use cn_sync::{Condvar, Mutex};

/// One field of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    I(i64),
    F(f64),
    S(String),
    B(Vec<u8>),
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::S(v.to_string())
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F(v)
    }
}

/// A tuple: a non-empty sequence of fields.
pub type Tuple = Vec<Field>;

/// A match pattern: `Some(field)` matches exactly, `None` is a wildcard.
pub type Pattern = Vec<Option<Field>>;

/// Build a pattern from exact fields (no wildcards).
pub fn exact(fields: &[Field]) -> Pattern {
    fields.iter().cloned().map(Some).collect()
}

fn matches(tuple: &Tuple, pattern: &Pattern) -> bool {
    tuple.len() == pattern.len()
        && tuple.iter().zip(pattern).all(|(f, p)| match p {
            Some(want) => f == want,
            None => true,
        })
}

/// A Linda-style tuple space.
///
/// Tuples are bucketed by arity: a pattern can only match tuples of its own
/// length, so `rd`/`in` scan one bucket instead of the whole space, and an
/// `out` of an N-tuple wakes only waiters blocked on arity-N patterns
/// (matrix-row traffic no longer wakes barrier waiters, and vice versa).
#[derive(Debug)]
pub struct TupleSpace {
    buckets: Mutex<HashMap<usize, VecDeque<Tuple>>>,
    /// One condvar per arity, created on first wait or deposit for that
    /// arity. All condvars pair with the `buckets` mutex.
    arity_cvs: Mutex<HashMap<usize, Arc<Condvar>>>,
    /// Operation counters (`out` / `rd`-family / `in`-family). Standalone
    /// atomics by default; [`TupleSpace::with_counters`] shares them with a
    /// metrics registry.
    out_ops: Counter,
    rd_ops: Counter,
    in_ops: Counter,
}

impl Default for TupleSpace {
    fn default() -> Self {
        Self::with_counters(Counter::standalone(), Counter::standalone(), Counter::standalone())
    }
}

impl TupleSpace {
    pub fn new() -> Self {
        Self::default()
    }

    /// A space whose operation counters are shared (e.g. registry-backed).
    pub fn with_counters(out_ops: Counter, rd_ops: Counter, in_ops: Counter) -> Self {
        Self {
            buckets: Mutex::named("ts.buckets", HashMap::new()),
            arity_cvs: Mutex::named("ts.arity_cvs", HashMap::new()),
            out_ops,
            rd_ops,
            in_ops,
        }
    }

    /// The wakeup channel for one arity. Taken *before* the bucket lock —
    /// never while holding it — so lock order is always cvs → buckets.
    fn cv_for(&self, arity: usize) -> Arc<Condvar> {
        Arc::clone(
            self.arity_cvs
                .lock()
                .entry(arity)
                .or_insert_with(|| Arc::new(Condvar::named("ts.arity_cv"))),
        )
    }

    /// Deposit a tuple (`out` in Linda terms).
    pub fn out(&self, tuple: Tuple) {
        assert!(!tuple.is_empty(), "tuples must be non-empty");
        self.out_ops.inc();
        let arity = tuple.len();
        let cv = self.cv_for(arity);
        self.buckets.lock().entry(arity).or_default().push_back(tuple);
        cv.notify_all();
    }

    /// Non-blocking read: copy a matching tuple if present.
    pub fn try_rd(&self, pattern: &Pattern) -> Option<Tuple> {
        self.rd_ops.inc();
        let buckets = self.buckets.lock();
        buckets.get(&pattern.len())?.iter().find(|t| matches(t, pattern)).cloned()
    }

    /// Non-blocking take: remove and return a matching tuple if present.
    pub fn try_in(&self, pattern: &Pattern) -> Option<Tuple> {
        self.in_ops.inc();
        let mut buckets = self.buckets.lock();
        let bucket = buckets.get_mut(&pattern.len())?;
        let pos = bucket.iter().position(|t| matches(t, pattern))?;
        bucket.remove(pos)
    }

    /// Blocking read with timeout.
    pub fn rd(&self, pattern: &Pattern, timeout: Duration) -> Option<Tuple> {
        self.rd_ops.inc();
        let arity = pattern.len();
        let cv = self.cv_for(arity);
        let deadline = Instant::now() + timeout;
        let mut buckets = self.buckets.lock();
        loop {
            let hit =
                buckets.get(&arity).and_then(|b| b.iter().find(|t| matches(t, pattern)).cloned());
            if hit.is_some() {
                return hit;
            }
            if Instant::now() >= deadline {
                return None;
            }
            if cv.wait_until(&mut buckets, deadline).timed_out() {
                return buckets
                    .get(&arity)
                    .and_then(|b| b.iter().find(|t| matches(t, pattern)).cloned());
            }
        }
    }

    /// Blocking take with timeout.
    pub fn take(&self, pattern: &Pattern, timeout: Duration) -> Option<Tuple> {
        self.in_ops.inc();
        let arity = pattern.len();
        let cv = self.cv_for(arity);
        let deadline = Instant::now() + timeout;
        let mut buckets = self.buckets.lock();
        loop {
            if let Some(bucket) = buckets.get_mut(&arity) {
                if let Some(pos) = bucket.iter().position(|t| matches(t, pattern)) {
                    return bucket.remove(pos);
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            if cv.wait_until(&mut buckets, deadline).timed_out() {
                let bucket = buckets.get_mut(&arity)?;
                let pos = bucket.iter().position(|t| matches(t, pattern))?;
                return bucket.remove(pos);
            }
        }
    }

    /// Number of tuples currently in the space.
    pub fn len(&self) -> usize {
        self.buckets.lock().values().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn out_rd_in_basics() {
        let ts = TupleSpace::new();
        ts.out(vec![Field::S("row".into()), Field::I(3), Field::B(vec![1, 2])]);
        let pat: Pattern = vec![Some(Field::S("row".into())), Some(Field::I(3)), None];
        let copy = ts.try_rd(&pat).unwrap();
        assert_eq!(copy[2], Field::B(vec![1, 2]));
        assert_eq!(ts.len(), 1, "rd does not remove");
        let taken = ts.try_in(&pat).unwrap();
        assert_eq!(taken, copy);
        assert!(ts.is_empty());
        assert!(ts.try_in(&pat).is_none());
    }

    #[test]
    fn wildcards_match_any_value() {
        let ts = TupleSpace::new();
        ts.out(vec![Field::S("k".into()), Field::I(1)]);
        ts.out(vec![Field::S("k".into()), Field::I(2)]);
        let pat: Pattern = vec![Some(Field::S("k".into())), None];
        assert!(ts.try_rd(&pat).is_some());
        // Arity must match exactly.
        let wrong_arity: Pattern = vec![Some(Field::S("k".into()))];
        assert!(ts.try_rd(&wrong_arity).is_none());
    }

    #[test]
    fn blocking_take_wakes_on_out() {
        let ts = Arc::new(TupleSpace::new());
        let producer = {
            let ts = ts.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ts.out(vec![Field::I(42)]);
            })
        };
        let got = ts.take(&vec![None], Duration::from_secs(2)).unwrap();
        assert_eq!(got, vec![Field::I(42)]);
        producer.join().unwrap();
    }

    #[test]
    fn take_times_out() {
        let ts = TupleSpace::new();
        let start = Instant::now();
        assert!(ts.take(&vec![None], Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn no_tuple_taken_twice() {
        // N producers deposit one tuple each; N consumers each take exactly
        // one; nothing is lost or duplicated.
        let ts = Arc::new(TupleSpace::new());
        let n = 16;
        let producers: Vec<_> = (0..n)
            .map(|i| {
                let ts = ts.clone();
                std::thread::spawn(move || ts.out(vec![Field::I(i as i64)]))
            })
            .collect();
        let consumers: Vec<_> = (0..n)
            .map(|_| {
                let ts = ts.clone();
                std::thread::spawn(move || {
                    let t = ts.take(&vec![None], Duration::from_secs(5)).expect("a tuple");
                    match t[0] {
                        Field::I(v) => v,
                        _ => unreachable!(),
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut seen: Vec<i64> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
        assert!(ts.is_empty());
    }

    #[test]
    fn arity_buckets_stay_disjoint() {
        let ts = TupleSpace::new();
        ts.out(vec![Field::I(1)]);
        ts.out(vec![Field::I(1), Field::I(2)]);
        assert_eq!(ts.len(), 2);
        assert!(ts.try_in(&vec![None, None]).is_some());
        assert!(ts.try_in(&vec![None]).is_some());
        assert!(ts.is_empty());
    }

    #[test]
    fn waiter_survives_traffic_of_other_arities() {
        // A take blocked on a 2-field pattern must see the 2-tuple even
        // while 1-tuples are being deposited concurrently.
        let ts = Arc::new(TupleSpace::new());
        let producer = {
            let ts = ts.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    ts.out(vec![Field::I(i)]);
                }
                std::thread::sleep(Duration::from_millis(10));
                ts.out(vec![Field::S("pair".into()), Field::I(7)]);
            })
        };
        let got = ts
            .take(&vec![Some(Field::S("pair".into())), None], Duration::from_secs(2))
            .expect("2-tuple arrives");
        assert_eq!(got[1], Field::I(7));
        assert_eq!(ts.len(), 50, "unrelated 1-tuples untouched");
        producer.join().unwrap();
    }

    #[test]
    fn field_conversions() {
        assert_eq!(Field::from(5i64), Field::I(5));
        assert_eq!(Field::from("x"), Field::S("x".into()));
        assert_eq!(Field::from(2.5), Field::F(2.5));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_tuple_rejected() {
        TupleSpace::new().out(vec![]);
    }
}
