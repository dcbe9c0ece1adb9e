//! Hashed timer wheel: O(1) insert, slot-bucketed expiry and cancel.
//!
//! Deadlines are abstract ticks (the shard maps one tick to a fixed wall
//! duration), which keeps the wheel clock-free — the proptest model and
//! the `cn-check` scenario drive it with a virtual clock. Entries whose
//! deadline lies beyond one wheel revolution stay in their slot and ride
//! additional `rounds`. A [`TimerId`] names its slot, so `cancel` searches
//! that one slot and removes the entry: a cancelled timer leaves nothing
//! behind, however far off its deadline was.

/// Handle for cancelling one armed timer. Ids are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    id: u64,
    slot: usize,
}

#[derive(Debug, Clone)]
struct Entry {
    id: u64,
    deadline: u64,
    /// Caller context carried back on expiry (the reactor stores the
    /// handler token here).
    token: u64,
    /// Caller-defined discriminator so one handler can arm several kinds
    /// of timer (connect deadline vs. backoff vs. read deadline).
    tag: u64,
}

/// One expired timer, in firing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired {
    pub id: TimerId,
    pub token: u64,
    pub tag: u64,
    pub deadline: u64,
}

pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    /// The tick up to which the wheel has fully expired (everything with
    /// `deadline <= now` has fired or been cancelled).
    now: u64,
    next_id: u64,
    /// Armed entry count.
    live: usize,
}

impl TimerWheel {
    /// `slots` buckets one revolution; more slots means fewer stale-round
    /// entries touched per tick. Must be a power of two.
    pub fn new(slots: usize) -> TimerWheel {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        TimerWheel { slots: (0..slots).map(|_| Vec::new()).collect(), now: 0, next_id: 1, live: 0 }
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Arm a timer `delay` ticks from now (a zero delay fires on the next
    /// `advance`). Returns the handle for [`cancel`](Self::cancel).
    pub fn insert(&mut self, delay: u64, token: u64, tag: u64) -> TimerId {
        let deadline = self.now.saturating_add(delay.max(1));
        let id = self.next_id;
        self.next_id += 1;
        let slot = (deadline as usize) & (self.slots.len() - 1);
        self.slots[slot].push(Entry { id, deadline, token, tag });
        self.live += 1;
        TimerId { id, slot }
    }

    /// Cancel an armed timer. False if it already fired or was cancelled.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let entries = &mut self.slots[id.slot];
        match entries.iter().position(|e| e.id == id.id) {
            Some(i) => {
                entries.swap_remove(i);
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// Advance the clock to `now`, appending everything that expired (in
    /// deadline order, insertion order within a tick) to `fired`.
    pub fn advance(&mut self, now: u64, fired: &mut Vec<Expired>) {
        if now <= self.now {
            return;
        }
        let mask = self.slots.len() - 1;
        let span = (now - self.now).min(self.slots.len() as u64);
        let start = fired.len();
        if span == self.slots.len() as u64 {
            // A full revolution (or more): every slot is due for a scan.
            for slot in 0..self.slots.len() {
                self.expire_slot(slot, now, fired);
            }
        } else {
            for tick in self.now + 1..=now {
                self.expire_slot((tick as usize) & mask, now, fired);
            }
        }
        self.now = now;
        fired[start..].sort_by_key(|e| (e.deadline, e.id.id));
    }

    fn expire_slot(&mut self, slot: usize, now: u64, fired: &mut Vec<Expired>) {
        let entries = &mut self.slots[slot];
        let mut i = 0;
        while i < entries.len() {
            if entries[i].deadline <= now {
                let e = entries.swap_remove(i);
                self.live -= 1;
                fired.push(Expired {
                    id: TimerId { id: e.id, slot },
                    token: e.token,
                    tag: e.tag,
                    deadline: e.deadline,
                });
            } else {
                // Not this revolution; stays for a later pass.
                i += 1;
            }
        }
    }

    /// The earliest live deadline, if any — what bounds the shard's
    /// `epoll_wait` timeout.
    pub fn next_deadline(&self) -> Option<u64> {
        self.slots.iter().flatten().map(|e| e.deadline).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new(8);
        let _a = w.insert(3, 10, 0);
        let _b = w.insert(1, 20, 0);
        let _c = w.insert(2, 30, 0);
        let mut fired = Vec::new();
        w.advance(5, &mut fired);
        let tokens: Vec<u64> = fired.iter().map(|e| e.token).collect();
        assert_eq!(tokens, vec![20, 30, 10]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_suppresses_expiry_exactly_once() {
        let mut w = TimerWheel::new(8);
        let a = w.insert(2, 1, 0);
        let b = w.insert(2, 2, 0);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel");
        let mut fired = Vec::new();
        w.advance(10, &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 2);
        assert!(!w.cancel(b), "cancel after fire");
    }

    #[test]
    fn long_delays_survive_wheel_revolutions() {
        let mut w = TimerWheel::new(4);
        let _ = w.insert(11, 7, 9);
        let mut fired = Vec::new();
        w.advance(10, &mut fired);
        assert!(fired.is_empty(), "{fired:?}");
        assert_eq!(w.next_deadline(), Some(11));
        w.advance(11, &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].token, fired[0].tag), (7, 9));
    }

    #[test]
    fn advance_far_past_everything_fires_everything() {
        let mut w = TimerWheel::new(8);
        for i in 0..20 {
            w.insert(i + 1, i, 0);
        }
        let mut fired = Vec::new();
        w.advance(1_000_000, &mut fired);
        assert_eq!(fired.len(), 20);
        let tokens: Vec<u64> = fired.iter().map(|e| e.token).collect();
        assert_eq!(tokens, (0..20).collect::<Vec<u64>>());
    }
}
