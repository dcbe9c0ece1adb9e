//! Property test: the hashed timer wheel is behaviorally identical to a
//! naive sorted-list timer model over arbitrary insert/cancel/advance
//! sequences — same firing order, same cancel results, same emptiness,
//! same next deadline. The wheel's slot hashing, multi-revolution rounds
//! and slot-local cancels are all invisible at this interface, and this
//! test is what pins that.

use cn_reactor::{TimerId, TimerWheel};
use proptest::prelude::*;

/// The reference implementation: every armed timer in one flat list.
#[derive(Debug, Default)]
struct NaiveTimers {
    /// (seq, deadline, token, tag) — seq doubles as insertion order, which
    /// breaks deadline ties exactly like the wheel's monotonic ids do.
    live: Vec<(u64, u64, u64, u64)>,
    now: u64,
    next_seq: u64,
}

impl NaiveTimers {
    fn insert(&mut self, delay: u64, token: u64, tag: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push((seq, self.now.saturating_add(delay.max(1)), token, tag));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let before = self.live.len();
        self.live.retain(|e| e.0 != seq);
        self.live.len() != before
    }

    /// Everything due by `now`, in (deadline, insertion) order.
    fn advance(&mut self, now: u64) -> Vec<(u64, u64, u64)> {
        if now <= self.now {
            return Vec::new();
        }
        self.now = now;
        let mut due: Vec<_> = self.live.iter().copied().filter(|e| e.1 <= now).collect();
        self.live.retain(|e| e.1 > now);
        due.sort_by_key(|e| (e.1, e.0));
        due.into_iter().map(|(_, deadline, token, tag)| (deadline, token, tag)).collect()
    }

    fn next_deadline(&self) -> Option<u64> {
        self.live.iter().map(|e| e.1).min()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert { delay: u64, token: u64, tag: u64 },
    Cancel { pick: usize },
    Advance { dt: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest's `prop_oneof!` is uniform; repeating the
    // insert arm weights the mix toward armed timers.
    let insert = || {
        (0u64..40, 0u64..8, 0u64..4).prop_map(|(delay, token, tag)| Op::Insert {
            delay,
            token,
            tag,
        })
    };
    let advance = || (0u64..24).prop_map(|dt| Op::Advance { dt });
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (0usize..64).prop_map(|pick| Op::Cancel { pick }),
        advance(),
        advance(),
    ]
}

proptest! {
    #[test]
    fn wheel_matches_sorted_list_model(
        slots_pow in 2u32..7, // 4..=64 slots, so delays span multiple revolutions
        ops in proptest::collection::vec(op_strategy(), 0..64),
    ) {
        let mut wheel = TimerWheel::new(1 << slots_pow);
        let mut model = NaiveTimers::default();
        // Every id either implementation ever issued, in issue order, so a
        // Cancel op can name fired/cancelled timers too (must agree: false).
        let mut issued: Vec<(TimerId, u64)> = Vec::new();
        let mut fired = Vec::new();

        for op in ops {
            match op {
                Op::Insert { delay, token, tag } => {
                    issued.push((wheel.insert(delay, token, tag), model.insert(delay, token, tag)));
                }
                Op::Cancel { pick } => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, seq) = issued[pick % issued.len()];
                    prop_assert_eq!(wheel.cancel(id), model.cancel(seq));
                }
                Op::Advance { dt } => {
                    let to = wheel.now() + dt;
                    let expect = model.advance(to);
                    fired.clear();
                    wheel.advance(to, &mut fired);
                    let got: Vec<_> =
                        fired.iter().map(|e| (e.deadline, e.token, e.tag)).collect();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(wheel.is_empty(), model.live.is_empty());
            prop_assert_eq!(wheel.next_deadline(), model.next_deadline());
        }

        // Drain both past every possible deadline: nothing may linger.
        let horizon = wheel.now() + 128;
        let expect = model.advance(horizon);
        fired.clear();
        wheel.advance(horizon, &mut fired);
        let got: Vec<_> = fired.iter().map(|e| (e.deadline, e.token, e.tag)).collect();
        prop_assert_eq!(got, expect);
        prop_assert!(wheel.is_empty());
        prop_assert_eq!(wheel.next_deadline(), None);
    }
}
