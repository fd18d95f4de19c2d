//! The arbitration interface between the bus and a protocol implementation.

use crate::cycle::Cycle;
use crate::ids::MasterId;
use crate::request::RequestMap;

/// The outcome of one arbitration decision: which master owns the bus next
/// and for at most how many words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The master granted ownership of the bus.
    pub master: MasterId,
    /// Upper bound on the number of words this grant may transfer.
    ///
    /// The bus additionally caps every grant by its configured maximum
    /// burst size and by the words remaining in the granted master's head
    /// transaction. Use [`Grant::whole_burst`] for protocols that delegate
    /// the cap entirely to the bus (priority, round-robin, lottery) and
    /// [`Grant::single_word`] for slot-based protocols (TDMA).
    pub max_words: u32,
}

impl Grant {
    /// A grant limited only by the bus's burst size and the master's need.
    pub fn whole_burst(master: MasterId) -> Self {
        Grant { master, max_words: u32::MAX }
    }

    /// A grant for exactly one bus word (one TDMA slot).
    pub fn single_word(master: MasterId) -> Self {
        Grant { master, max_words: 1 }
    }
}

/// A bus arbitration protocol.
///
/// The bus calls [`Arbiter::arbitrate`] exactly once per cycle in which the
/// bus is not occupied by an in-flight burst, passing the current request
/// map. Returning `None` leaves the bus idle for that cycle (e.g. a TDMA
/// slot whose owner is idle and no other master requests, or a token-ring
/// hop cycle).
///
/// Implementations must only grant masters whose request line is asserted;
/// the bus enforces this with a debug assertion.
pub trait Arbiter {
    /// Decides bus ownership for the cycle `now`.
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant>;

    /// A short human-readable protocol name, e.g. `"static-priority"`.
    fn name(&self) -> &str;

    /// Number of times this arbiter replaced a misbehaving primary with
    /// a backup policy. Only failover wrappers report nonzero values;
    /// plain protocols keep the default.
    fn failovers(&self) -> u64 {
        0
    }

    /// The earliest cycle `>= now` at which an [`Arbiter::arbitrate`]
    /// call with an **empty** request map would do something that
    /// [`Arbiter::skip_idle`] cannot replicate (e.g. a periodic ticket
    /// re-evaluation keyed on the cycle index).
    ///
    /// The event kernel never skips past this horizon. Returning
    /// `now` means "never skip over my idle decisions" — the safe
    /// default for protocols the kernel knows nothing about — while
    /// protocols whose idle behaviour is pure or a simple function of
    /// the number of skipped cycles return [`Cycle::NEVER`] and
    /// implement [`Arbiter::skip_idle`].
    fn next_event(&self, now: Cycle) -> Cycle {
        now
    }

    /// Replicates the state change of `delta` consecutive
    /// [`Arbiter::arbitrate`] calls with an empty request map, without
    /// performing them.
    ///
    /// Called by the event kernel when it jumps over `delta`
    /// cycles in which the bus was idle and no master requested. The
    /// default is a no-op, correct for every protocol that ignores
    /// empty maps (and, combined with the conservative
    /// [`Arbiter::next_event`] default, never reached for protocols
    /// that don't opt in).
    fn skip_idle(&mut self, delta: u64) {
        let _ = delta;
    }

    /// The slot wheel of a TDMA-style protocol, for the event kernel's
    /// arithmetic wheel walk, or `None` for protocols without one.
    ///
    /// A `Some` return promises that, while **every** master stays
    /// pending, the grant sequence from the current position is exactly
    /// the wheel sequence (slot reclaim never fires), each grant is a
    /// [`Grant::single_word`], and [`Arbiter::advance_wheel`] replays
    /// that many decisions. The default keeps every protocol on the
    /// per-decision path.
    fn wheel_walk(&self) -> Option<WheelWalk<'_>> {
        None
    }

    /// Replays `cycles` all-pending decisions along the wheel published
    /// by [`Arbiter::wheel_walk`], completing an arithmetic walk. Only
    /// called on arbiters that returned a walk.
    fn advance_wheel(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// A borrowed view of a TDMA wheel for arithmetic batching: the
/// current position plus, per master, the sorted wheel indices it owns.
/// Lets the event kernel compute occurrence counts and offsets in
/// O(log slots) without arbitrating single cycles.
pub struct WheelWalk<'a> {
    position: usize,
    len: usize,
    slots: &'a [u32],
    starts: &'a [u32],
}

impl<'a> WheelWalk<'a> {
    /// Builds a walk view starting at wheel index `position` of a
    /// `len`-slot wheel: master `m` owns the ascending wheel indices
    /// `slots[starts[m]..starts[m + 1]]`, every one `< len`.
    pub fn new(position: usize, len: usize, slots: &'a [u32], starts: &'a [u32]) -> Self {
        debug_assert!(position < len);
        WheelWalk { position, len, slots, starts }
    }

    /// The ascending wheel indices `master` owns.
    fn owned(&self, master: usize) -> &'a [u32] {
        &self.slots[self.starts[master] as usize..self.starts[master + 1] as usize]
    }

    /// Cycle offset (0-based, counted from the current position) of the
    /// `k`-th (1-based) grant to `master`, or `None` if the master owns
    /// no wheel slots.
    pub fn occurrence_offset(&self, master: usize, k: u64) -> Option<u64> {
        let pos = self.owned(master);
        let t = pos.len() as u64;
        if t == 0 || k == 0 {
            return None;
        }
        let idx0 = pos.partition_point(|&q| (q as usize) < self.position) as u64;
        let a = idx0 + (k - 1);
        let lap = a / t;
        let w = (a % t) as usize;
        Some(lap * self.len as u64 + pos[w] as u64 - self.position as u64)
    }

    /// Number of masters the wheel serves.
    pub fn masters(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of grants `master` receives in the next `window` cycles.
    pub fn count_in(&self, master: usize, window: u64) -> u64 {
        let pos = self.owned(master);
        let t = pos.len() as u64;
        if t == 0 || window == 0 {
            return 0;
        }
        let len = self.len;
        let laps = window / len as u64;
        let rem = (window % len as u64) as usize;
        let below = |bound: usize| pos.partition_point(|&q| (q as usize) < bound);
        let partial = if self.position + rem <= len {
            below(self.position + rem) - below(self.position)
        } else {
            (below(len) - below(self.position)) + below(self.position + rem - len)
        };
        laps * t + partial as u64
    }
}

impl<A: Arbiter + ?Sized> Arbiter for Box<A> {
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        (**self).arbitrate(requests, now)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn failovers(&self) -> u64 {
        (**self).failovers()
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        (**self).next_event(now)
    }

    fn skip_idle(&mut self, delta: u64) {
        (**self).skip_idle(delta)
    }

    fn wheel_walk(&self) -> Option<WheelWalk<'_>> {
        (**self).wheel_walk()
    }

    fn advance_wheel(&mut self, cycles: u64) {
        (**self).advance_wheel(cycles)
    }
}

/// Conversion into the arbiter slot of a [`crate::SystemBuilder`].
///
/// [`crate::SystemBuilder::arbiter`] accepts `impl IntoArbiter<A>`
/// rather than `A` directly so that passing `Box<Concrete>` to a
/// builder whose arbiter slot is the default `Box<dyn Arbiter>` keeps
/// compiling: the unsizing step happens through the second impl below
/// instead of a coercion the inference engine would otherwise pin to
/// `Box<Concrete>` before seeing the builder's annotated type.
pub trait IntoArbiter<A> {
    /// Converts `self` into the builder's arbiter type.
    fn into_arbiter(self) -> A;
}

impl<A: Arbiter> IntoArbiter<A> for A {
    fn into_arbiter(self) -> A {
        self
    }
}

impl<T: Arbiter + 'static> IntoArbiter<Box<dyn Arbiter>> for Box<T> {
    fn into_arbiter(self) -> Box<dyn Arbiter> {
        self
    }
}

/// The simplest possible arbiter: always grants the lowest-indexed pending
/// master a whole burst.
///
/// Useful as a deterministic placeholder in tests and doc examples; it is
/// equivalent to a static-priority arbiter in which lower master indices
/// have higher priority.
#[derive(Debug, Clone)]
pub struct FixedOrderArbiter {
    masters: usize,
}

impl FixedOrderArbiter {
    /// Creates a fixed-order arbiter for `masters` masters.
    pub fn new(masters: usize) -> Self {
        FixedOrderArbiter { masters }
    }

    /// Number of masters this arbiter serves.
    pub fn masters(&self) -> usize {
        self.masters
    }
}

impl Arbiter for FixedOrderArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        requests.iter_pending().next().map(Grant::whole_burst)
    }

    fn name(&self) -> &str {
        "fixed-order"
    }

    // Stateless: idle decisions neither observe the cycle index nor
    // mutate anything, so the event kernel may skip them freely.
    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_order_prefers_lowest_index() {
        let mut arb = FixedOrderArbiter::new(4);
        let mut map = RequestMap::new(4);
        map.set_pending(MasterId::new(3), 1);
        map.set_pending(MasterId::new(1), 1);
        let grant = arb.arbitrate(&map, Cycle::ZERO).expect("grant");
        assert_eq!(grant.master, MasterId::new(1));
        assert_eq!(grant.max_words, u32::MAX);
    }

    #[test]
    fn fixed_order_idles_on_empty_map() {
        let mut arb = FixedOrderArbiter::new(2);
        let map = RequestMap::new(2);
        assert!(arb.arbitrate(&map, Cycle::ZERO).is_none());
    }

    #[test]
    fn grant_constructors() {
        let m = MasterId::new(2);
        assert_eq!(Grant::whole_burst(m).max_words, u32::MAX);
        assert_eq!(Grant::single_word(m).max_words, 1);
    }

    #[test]
    fn boxed_arbiter_delegates() {
        let mut arb: Box<dyn Arbiter> = Box::new(FixedOrderArbiter::new(2));
        let mut map = RequestMap::new(2);
        map.set_pending(MasterId::new(0), 1);
        assert!(arb.arbitrate(&map, Cycle::ZERO).is_some());
        assert_eq!(arb.name(), "fixed-order");
        assert_eq!(arb.next_event(Cycle::new(9)), Cycle::NEVER, "box forwards next_event");
        arb.skip_idle(1_000);
        assert!(arb.arbitrate(&map, Cycle::new(1_000)).is_some());
    }

    #[test]
    fn default_horizon_is_conservative() {
        // An arbiter that doesn't opt into fast-forward must pin the
        // horizon to `now` so the kernel never skips its idle calls.
        struct Opaque;
        impl Arbiter for Opaque {
            fn arbitrate(&mut self, _r: &RequestMap, _now: Cycle) -> Option<Grant> {
                None
            }
            fn name(&self) -> &str {
                "opaque"
            }
        }
        let arb = Opaque;
        assert_eq!(arb.next_event(Cycle::new(42)), Cycle::new(42));
    }
}
