//! A point-in-time view of the fabric's `net.*` counters. The counters
//! themselves are [`cn_observe::Counter`]s held by the network, in the
//! recorder's registry beside every other runtime metric.

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub multicasts: u64,
}

impl MetricsSnapshot {
    /// Fraction of sent messages that were lost.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.dropped as f64 / self.sent as f64
        }
    }

    /// Counter-wise difference (for measuring a window of activity).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            sent: self.sent - earlier.sent,
            delivered: self.delivered - earlier.delivered,
            dropped: self.dropped - earlier.dropped,
            multicasts: self.multicasts - earlier.multicasts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_rate() {
        let s = MetricsSnapshot { sent: 10, delivered: 7, dropped: 3, multicasts: 0 };
        assert!((s.loss_rate() - 0.3).abs() < 1e-9);
        assert_eq!(MetricsSnapshot::default().loss_rate(), 0.0);
    }

    #[test]
    fn delta() {
        let a = MetricsSnapshot { sent: 5, delivered: 4, dropped: 1, multicasts: 2 };
        let b = MetricsSnapshot { sent: 9, delivered: 7, dropped: 2, multicasts: 2 };
        let d = b.delta_since(&a);
        assert_eq!(d, MetricsSnapshot { sent: 4, delivered: 3, dropped: 1, multicasts: 0 });
    }
}
