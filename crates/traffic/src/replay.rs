//! Trace replay: issue an explicit list of transactions.

use socsim::{Cycle, SlaveId, TrafficSource, Transaction};
use std::collections::VecDeque;

/// Replays a fixed `(cycle, words)` trace as a traffic source.
///
/// Used by the Figure 5 reproduction, where the paper compares two
/// hand-written request traces that differ only in phase, and by tests
/// that need exact request patterns.
///
/// ```
/// use traffic_gen::ReplaySource;
/// use socsim::{TrafficSource, Cycle};
///
/// let mut source = ReplaySource::new(0, &[(2, 4), (10, 1)]);
/// assert!(source.poll(Cycle::new(0)).is_none());
/// assert_eq!(source.poll(Cycle::new(2)).unwrap().words(), 4);
/// assert_eq!(source.poll(Cycle::new(10)).unwrap().words(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReplaySource {
    queue: VecDeque<Transaction>,
}

impl ReplaySource {
    /// Creates a replay of `trace`, a list of `(arrival_cycle, words)`
    /// pairs addressed to `slave`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival cycle or contains a
    /// zero-word entry.
    pub fn new(slave: usize, trace: &[(u64, u32)]) -> Self {
        let mut queue = VecDeque::with_capacity(trace.len());
        let mut last = 0u64;
        for &(cycle, words) in trace {
            assert!(cycle >= last, "replay trace must be sorted by cycle");
            last = cycle;
            queue.push_back(Transaction::new(SlaveId::new(slave), words, Cycle::new(cycle)));
        }
        ReplaySource { queue }
    }

    /// A periodic trace: `count` messages of `words` words every
    /// `period` cycles starting at `phase` — the building block of the
    /// paper's Figure 5 request traces.
    pub fn periodic(slave: usize, phase: u64, period: u64, words: u32, count: usize) -> Self {
        let trace: Vec<(u64, u32)> =
            (0..count as u64).map(|k| (phase + k * period, words)).collect();
        ReplaySource::new(slave, &trace)
    }

    /// Transactions not yet emitted.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl TrafficSource for ReplaySource {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        if self.queue.front()?.issued_at() <= now {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// The next queued arrival stamp, or [`Cycle::NEVER`] once the
    /// trace is exhausted — a replay is pure data, so its horizon is
    /// exact and the event kernel can jump the gaps between
    /// entries.
    fn next_event(&self, now: Cycle) -> Cycle {
        self.queue.front().map_or(Cycle::NEVER, |t| t.issued_at().max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_in_order_at_stamped_cycles() {
        let mut source = ReplaySource::new(0, &[(0, 1), (0, 2), (5, 3)]);
        assert_eq!(source.poll(Cycle::new(0)).unwrap().words(), 1);
        assert_eq!(source.poll(Cycle::new(1)).unwrap().words(), 2);
        assert!(source.poll(Cycle::new(2)).is_none());
        assert_eq!(source.poll(Cycle::new(7)).unwrap().words(), 3);
        assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn periodic_builder_matches_manual_trace() {
        let mut a = ReplaySource::periodic(0, 3, 10, 2, 3);
        let mut b = ReplaySource::new(0, &[(3, 2), (13, 2), (23, 2)]);
        for c in 0..30 {
            let (ta, tb) = (a.poll(Cycle::new(c)), b.poll(Cycle::new(c)));
            assert_eq!(ta, tb, "divergence at cycle {c}");
        }
    }

    #[test]
    fn horizon_tracks_the_queue_head() {
        let mut source = ReplaySource::new(0, &[(4, 1), (9, 2)]);
        assert_eq!(source.next_event(Cycle::new(0)), Cycle::new(4));
        assert!(source.poll(Cycle::new(4)).is_some());
        assert_eq!(source.next_event(Cycle::new(5)), Cycle::new(9));
        assert!(source.poll(Cycle::new(9)).is_some());
        assert_eq!(source.next_event(Cycle::new(10)), Cycle::NEVER, "trace exhausted");
        // A stale stamp (emission delayed by backlog) clamps to now.
        let late = ReplaySource::new(0, &[(3, 1)]);
        assert_eq!(late.next_event(Cycle::new(8)), Cycle::new(8));
    }

    #[test]
    #[should_panic(expected = "sorted by cycle")]
    fn unsorted_trace_rejected() {
        let _ = ReplaySource::new(0, &[(5, 1), (2, 1)]);
    }
}
