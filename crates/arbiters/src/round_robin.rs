//! Round-robin burst arbitration (paper §2, "round-robin access").

use crate::error::ArbiterConfigError;
use socsim::{Arbiter, Cycle, Grant, MasterId, RequestMap, MAX_MASTERS};

/// Round-robin bus arbiter: pending masters are granted whole bursts in
/// cyclic order starting after the most recently granted master.
///
/// Round-robin treats all masters equally — it can neither prioritize
/// latency-critical traffic nor allocate asymmetric bandwidth shares,
/// which is exactly the gap LOTTERYBUS fills; it is included as a
/// fairness baseline.
///
/// ```
/// use arbiters::RoundRobinArbiter;
/// use socsim::{Arbiter, RequestMap, MasterId, Cycle};
///
/// # fn main() -> Result<(), arbiters::ArbiterConfigError> {
/// let mut arb = RoundRobinArbiter::new(3)?;
/// let mut map = RequestMap::new(3);
/// map.set_pending(MasterId::new(0), 4);
/// map.set_pending(MasterId::new(2), 4);
/// assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(0));
/// assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(2));
/// assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    masters: usize,
    last: usize,
}

impl RoundRobinArbiter {
    /// Creates a round-robin arbiter for `masters` masters.
    ///
    /// # Errors
    ///
    /// Returns an error if `masters` is zero or exceeds [`MAX_MASTERS`].
    pub fn new(masters: usize) -> Result<Self, ArbiterConfigError> {
        if masters == 0 {
            return Err(ArbiterConfigError::NoMasters);
        }
        if masters > MAX_MASTERS {
            return Err(ArbiterConfigError::TooManyMasters { got: masters, max: MAX_MASTERS });
        }
        Ok(RoundRobinArbiter { masters, last: masters - 1 })
    }

    /// Number of masters this arbiter serves.
    pub fn masters(&self) -> usize {
        self.masters
    }
}

impl Arbiter for RoundRobinArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        for k in 1..=self.masters {
            let candidate = MasterId::new((self.last + k) % self.masters);
            if requests.is_pending(candidate) {
                self.last = candidate.index();
                return Some(Grant::whole_burst(candidate));
            }
        }
        None
    }

    fn name(&self) -> &str {
        "round-robin"
    }

    /// An empty arbitration scans without moving `last`, so idle spans
    /// change nothing: never pins the fast-forward horizon.
    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_through_pending_masters() {
        let mut arb = RoundRobinArbiter::new(4).expect("valid");
        let mut map = RequestMap::new(4);
        for m in [0, 1, 3] {
            map.set_pending(MasterId::new(m), 2);
        }
        let order: Vec<usize> = (0..6)
            .map(|_| arb.arbitrate(&map, Cycle::ZERO).expect("grant").master.index())
            .collect();
        assert_eq!(order, vec![0, 1, 3, 0, 1, 3]);
    }

    #[test]
    fn equal_shares_under_saturation() {
        let mut arb = RoundRobinArbiter::new(3).expect("valid");
        let mut map = RequestMap::new(3);
        for m in 0..3 {
            map.set_pending(MasterId::new(m), 1);
        }
        let mut wins = [0u32; 3];
        for _ in 0..300 {
            wins[arb.arbitrate(&map, Cycle::ZERO).expect("grant").master.index()] += 1;
        }
        assert_eq!(wins, [100, 100, 100]);
    }

    #[test]
    fn idle_when_no_requests() {
        let mut arb = RoundRobinArbiter::new(2).expect("valid");
        assert!(arb.arbitrate(&RequestMap::new(2), Cycle::ZERO).is_none());
    }

    #[test]
    fn zero_masters_rejected() {
        assert_eq!(RoundRobinArbiter::new(0).unwrap_err(), ArbiterConfigError::NoMasters);
    }
}
