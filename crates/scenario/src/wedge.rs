//! Deterministic arbiter outages (`fault arbiter-wedge`).
//!
//! Every built-in arbiter is work-conserving — with any master
//! pending, *some* master is granted — so a healthy scenario can
//! never trip [`arbiters::FailoverArbiter`] organically. The wedge is
//! the scenario subsystem's way to script that failure: inside each
//! window the wrapped arbiter's decision logic is down and no grant
//! is issued, which starves pending masters and (with failover
//! configured) deterministically fires the fallback.

use arbiters::kind::ArbiterKind;
use socsim::{Arbiter, Cycle, Grant, RequestMap};

/// Wraps an arbiter and suppresses every grant inside the configured
/// windows, delegating untouched otherwise.
///
/// The wrapper is kernel-safe: while a window is open (or upcoming)
/// [`Arbiter::next_event`] refuses to report a horizon past the
/// window start, so the event kernel can never skip over a
/// span in which the inner arbiter would have been frozen. Outside
/// windows, skips map one-to-one onto inner [`Arbiter::skip_idle`]
/// replays, exactly as without the wrapper.
pub struct WedgingArbiter {
    windows: Vec<(u64, u64)>,
    inner: ArbiterKind,
}

impl WedgingArbiter {
    /// Wraps `inner`, wedging it for every `[from, until)` window.
    pub fn new(windows: Vec<(u64, u64)>, inner: ArbiterKind) -> Self {
        WedgingArbiter { windows, inner }
    }

    fn wedged(&self, cycle: u64) -> bool {
        self.windows.iter().any(|&(from, until)| cycle >= from && cycle < until)
    }

    /// Start of the earliest window that has not yet closed at
    /// `cycle`, if any.
    fn next_window_start(&self, cycle: u64) -> Option<u64> {
        self.windows.iter().filter(|&&(_, until)| until > cycle).map(|&(from, _)| from).min()
    }
}

impl Arbiter for WedgingArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        if self.wedged(now.index()) {
            // The decision logic is down: no grant, and the inner
            // arbiter's state is frozen (it never sees the cycle).
            return None;
        }
        self.inner.arbitrate(requests, now)
    }

    fn name(&self) -> &str {
        "wedged"
    }

    fn failovers(&self) -> u64 {
        self.inner.failovers()
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        let cycle = now.index();
        let inner = self.inner.next_event(now);
        match self.next_window_start(cycle) {
            // Inside a window: deny all skipping so the frozen span is
            // stepped cycle by cycle in both kernels.
            Some(from) if from <= cycle => now,
            // A window is coming: let the kernel skip at most up to it.
            Some(from) => inner.min(Cycle::new(from)),
            None => inner,
        }
    }

    fn skip_idle(&mut self, delta: u64) {
        // next_event() guarantees a skipped span never overlaps a
        // window, so the whole span replays onto the inner arbiter.
        self.inner.skip_idle(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbiters::RoundRobinArbiter;
    use socsim::MasterId;

    fn rr(masters: usize) -> ArbiterKind {
        RoundRobinArbiter::new(masters).expect("valid").into()
    }

    fn pending(masters: usize) -> RequestMap {
        let mut map = RequestMap::new(masters);
        for m in 0..masters {
            map.set_pending(MasterId::new(m), 4);
        }
        map
    }

    #[test]
    fn grants_are_suppressed_exactly_inside_the_window() {
        let mut arb = WedgingArbiter::new(vec![(10, 20)], rr(2));
        let map = pending(2);
        for c in 0..30u64 {
            let grant = arb.arbitrate(&map, Cycle::new(c));
            if (10..20).contains(&c) {
                assert!(grant.is_none(), "cycle {c} should be wedged");
            } else {
                assert!(grant.is_some(), "cycle {c} should grant");
            }
        }
    }

    #[test]
    fn inner_state_freezes_during_the_wedge() {
        // Round-robin must resume exactly where it left off: the
        // wedged cycles never reach the inner arbiter.
        let mut wedged = WedgingArbiter::new(vec![(3, 100)], rr(3));
        let mut plain = rr(3);
        let map = pending(3);
        let mut wedged_grants = Vec::new();
        let mut plain_grants = Vec::new();
        for c in 0..6u64 {
            if let Some(g) = wedged.arbitrate(&map, Cycle::new(c)) {
                wedged_grants.push(g.master);
            }
        }
        for c in 100..103u64 {
            if let Some(g) = wedged.arbitrate(&map, Cycle::new(c)) {
                wedged_grants.push(g.master);
            }
        }
        for c in 0..6u64 {
            if let Some(g) = plain.arbitrate(&map, Cycle::new(c)) {
                plain_grants.push(g.master);
            }
        }
        assert_eq!(wedged_grants, plain_grants);
    }

    #[test]
    fn horizon_never_skips_into_or_across_a_window() {
        let arb = WedgingArbiter::new(vec![(50, 60)], rr(2));
        // Before the window: may skip at most to the window start.
        assert!(arb.next_event(Cycle::new(10)).index() <= 50);
        // Inside: pinned to now.
        assert_eq!(arb.next_event(Cycle::new(55)), Cycle::new(55));
        // After: unconstrained (delegates to the inner arbiter).
        assert_eq!(arb.next_event(Cycle::new(60)), rr(2).next_event(Cycle::new(60)));
    }

    #[test]
    fn skips_outside_windows_replay_onto_the_inner_arbiter() {
        let mut skipped = WedgingArbiter::new(vec![(50, 60)], rr(3));
        let mut stepped = WedgingArbiter::new(vec![(50, 60)], rr(3));
        let empty = RequestMap::new(3);
        for c in 0..7u64 {
            assert!(stepped.arbitrate(&empty, Cycle::new(c)).is_none());
        }
        skipped.skip_idle(7);
        let map = pending(3);
        for c in 7..10u64 {
            assert_eq!(
                skipped.arbitrate(&map, Cycle::new(c)).map(|g| g.master),
                stepped.arbitrate(&map, Cycle::new(c)).map(|g| g.master),
            );
        }
    }
}
