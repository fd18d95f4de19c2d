//! Deficit-weighted round-robin arbitration.
//!
//! The paper positions LOTTERYBUS against the traffic-scheduling
//! literature for high-speed switches (its refs \[13\]–\[15\]); deficit
//! round robin is the classic representative of that family, so it is
//! included as an additional weighted baseline. Each master has a
//! *quantum* proportional to its weight; masters are visited in cyclic
//! order and may transfer as long as their accumulated deficit counter
//! covers the words, earning deterministic (not probabilistic)
//! proportional bandwidth — at the cost of round-robin's positional
//! latency rather than the lottery's immediate probabilistic service.

use crate::error::ArbiterConfigError;
use socsim::{Arbiter, Cycle, Grant, MasterId, RequestMap, MAX_MASTERS};

/// Deficit-weighted round-robin bus arbiter.
///
/// On each visit a pending master's deficit grows by its quantum; it is
/// granted `min(deficit, pending)` words and its deficit shrinks by the
/// granted amount. Idle masters forfeit their deficit, keeping the
/// discipline work-conserving.
///
/// ```
/// use arbiters::DeficitRoundRobinArbiter;
/// use socsim::{Arbiter, RequestMap, MasterId, Cycle};
///
/// # fn main() -> Result<(), arbiters::ArbiterConfigError> {
/// let mut arb = DeficitRoundRobinArbiter::new(&[1, 3], 4)?;
/// let mut map = RequestMap::new(2);
/// map.set_pending(MasterId::new(0), 100);
/// map.set_pending(MasterId::new(1), 100);
/// // Over a full round, grants are proportional to the weights.
/// let grant = arb.arbitrate(&map, Cycle::ZERO).expect("someone pending");
/// assert!(grant.max_words >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeficitRoundRobinArbiter {
    /// Words added to a master's deficit per visit.
    quanta: Vec<u32>,
    deficit: Vec<u32>,
    next: usize,
}

impl DeficitRoundRobinArbiter {
    /// Creates a DRR arbiter where master *i*'s quantum is
    /// `weights[i] * quantum_unit` words per round.
    ///
    /// # Errors
    ///
    /// Returns an error if there are no masters, too many masters, or a
    /// master's weight is zero (it would never be served while others
    /// pend).
    pub fn new(weights: &[u32], quantum_unit: u32) -> Result<Self, ArbiterConfigError> {
        if weights.is_empty() {
            return Err(ArbiterConfigError::NoMasters);
        }
        if weights.len() > MAX_MASTERS {
            return Err(ArbiterConfigError::TooManyMasters {
                got: weights.len(),
                max: MAX_MASTERS,
            });
        }
        if let Some(idle) = weights.iter().position(|&w| w == 0) {
            return Err(ArbiterConfigError::UnservedMaster(idle));
        }
        let quanta: Vec<u32> = weights.iter().map(|&w| w * quantum_unit.max(1)).collect();
        Ok(DeficitRoundRobinArbiter { deficit: vec![0; quanta.len()], quanta, next: 0 })
    }

    /// The per-round quantum of `master` in words.
    pub fn quantum(&self, master: MasterId) -> u32 {
        self.quanta[master.index()]
    }
}

impl Arbiter for DeficitRoundRobinArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        if requests.is_empty() {
            return None;
        }
        let n = self.quanta.len();
        // At most one full round: the first pending master visited is
        // served; skipped idle masters forfeit their deficit.
        for _ in 0..n {
            let m = MasterId::new(self.next);
            // The pointer always advances: each master is visited once
            // per round and receives one quantum's worth of service
            // (plus any carried deficit from a partially-served head).
            self.next = (self.next + 1) % n;
            if requests.is_pending(m) {
                self.deficit[m.index()] =
                    self.deficit[m.index()].saturating_add(self.quanta[m.index()]);
                let words = self.deficit[m.index()].min(requests.pending_words(m));
                self.deficit[m.index()] -= words;
                return Some(Grant { master: m, max_words: words });
            }
            // Idle masters forfeit their accumulated deficit.
            self.deficit[m.index()] = 0;
        }
        None
    }

    fn name(&self) -> &str {
        "deficit-rr"
    }

    /// An empty arbitration returns before touching the pointer or any
    /// deficit, so idle spans change nothing: never pins the horizon.
    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturated(n: usize) -> RequestMap {
        let mut map = RequestMap::new(n);
        for i in 0..n {
            map.set_pending(MasterId::new(i), 1000);
        }
        map
    }

    #[test]
    fn grants_are_weight_proportional_over_rounds() {
        let mut arb = DeficitRoundRobinArbiter::new(&[1, 2, 3], 8).expect("valid");
        let map = saturated(3);
        let mut words = [0u64; 3];
        for k in 0..600 {
            let g = arb.arbitrate(&map, Cycle::new(k)).expect("grant");
            words[g.master.index()] += u64::from(g.max_words);
        }
        let total: u64 = words.iter().sum();
        for (i, &w) in words.iter().enumerate() {
            let share = w as f64 / total as f64;
            let entitled = (i + 1) as f64 / 6.0;
            assert!((share - entitled).abs() < 0.02, "master {i}: {share:.3} vs {entitled:.3}");
        }
    }

    #[test]
    fn idle_masters_forfeit_deficit() {
        let mut arb = DeficitRoundRobinArbiter::new(&[1, 1], 4).expect("valid");
        // Master 1 alone for many rounds…
        let mut map = RequestMap::new(2);
        map.set_pending(MasterId::new(1), 1000);
        for k in 0..50 {
            assert_eq!(arb.arbitrate(&map, Cycle::new(k)).unwrap().master, MasterId::new(1));
        }
        // …then master 0 wakes up: it must not have hoarded deficit.
        map.set_pending(MasterId::new(0), 1000);
        let g = (0..2)
            .map(|k| arb.arbitrate(&map, Cycle::new(100 + k)).unwrap())
            .find(|g| g.master == MasterId::new(0))
            .expect("master 0 served within a round");
        assert!(g.max_words <= 8, "no hoarded deficit: {}", g.max_words);
    }

    #[test]
    fn small_transactions_do_not_leak_bandwidth() {
        // A master with tiny transactions still gets only its share.
        let mut arb = DeficitRoundRobinArbiter::new(&[1, 1], 2).expect("valid");
        let mut map = RequestMap::new(2);
        map.set_pending(MasterId::new(0), 1); // single-word messages
        map.set_pending(MasterId::new(1), 1000);
        let mut words = [0u64; 2];
        for k in 0..400 {
            let g = arb.arbitrate(&map, Cycle::new(k)).expect("grant");
            words[g.master.index()] += u64::from(g.max_words);
        }
        assert!(words[1] > words[0], "bulk master must not be penalized: {words:?}");
    }

    #[test]
    fn validation() {
        assert_eq!(
            DeficitRoundRobinArbiter::new(&[], 4).unwrap_err(),
            ArbiterConfigError::NoMasters
        );
        assert_eq!(
            DeficitRoundRobinArbiter::new(&[1, 0], 4).unwrap_err(),
            ArbiterConfigError::UnservedMaster(1)
        );
    }

    #[test]
    fn empty_map_grants_nothing() {
        let mut arb = DeficitRoundRobinArbiter::new(&[2, 2], 4).expect("valid");
        assert!(arb.arbitrate(&RequestMap::new(2), Cycle::ZERO).is_none());
    }
}
