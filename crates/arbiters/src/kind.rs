//! Enum dispatch over the built-in arbitration protocols.
//!
//! The bus consults its arbiter once per non-busy cycle — the hottest
//! virtual call in the simulator. [`ArbiterKind`] closes the protocol
//! set over the built-ins so `System::step` resolves `arbitrate`
//! statically (and can inline the round-robin scan or the lottery LUT
//! lookup), while [`ArbiterKind::Custom`] keeps arbitrary user
//! protocols pluggable at the old `Box<dyn Arbiter>` cost.
//!
//! Every variant defers to the wrapped protocol for *all* trait
//! methods, so wrapping never changes simulation results — the
//! `kernel_equivalence` differential tests pin this byte-for-byte.
//!
//! ```
//! use arbiters::{ArbiterKind, RoundRobinArbiter};
//! use socsim::{Arbiter, Cycle, MasterId, RequestMap};
//!
//! # fn main() -> Result<(), arbiters::ArbiterConfigError> {
//! let mut arb = ArbiterKind::from(RoundRobinArbiter::new(2)?);
//! let mut map = RequestMap::new(2);
//! map.set_pending(MasterId::new(1), 4);
//! assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(1));
//! assert_eq!(arb.name(), "round-robin");
//! # Ok(())
//! # }
//! ```

use crate::deficit_rr::DeficitRoundRobinArbiter;
use crate::failover::FailoverArbiter;
use crate::round_robin::RoundRobinArbiter;
use crate::static_priority::StaticPriorityArbiter;
use crate::tdma::TdmaArbiter;
use crate::token_ring::TokenRingArbiter;
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter};
use socsim::arbiter::FixedOrderArbiter;
use socsim::{Arbiter, Cycle, Grant, RequestMap, WheelWalk};
use std::fmt;

/// A closed enum over every built-in protocol, plus an open escape
/// hatch. See the module docs for why.
//
// The dynamic-lottery variant carries its decision cache inline, which
// makes it much larger than the rest. A `System` holds exactly one
// `ArbiterKind` (never collections of them), so the footprint is
// irrelevant, while keeping the state inline spares the saturated
// arbitration loop a pointer chase.
#[allow(clippy::large_enum_variant)]
pub enum ArbiterKind {
    /// Lowest-index-wins placeholder ([`socsim::arbiter::FixedOrderArbiter`]).
    FixedOrder(FixedOrderArbiter),
    /// Fixed priority order ([`StaticPriorityArbiter`]).
    StaticPriority(StaticPriorityArbiter),
    /// Single-level round-robin ([`RoundRobinArbiter`]).
    RoundRobin(RoundRobinArbiter),
    /// Weighted deficit round-robin ([`DeficitRoundRobinArbiter`]).
    DeficitRoundRobin(DeficitRoundRobinArbiter),
    /// Two-level TDMA ([`TdmaArbiter`]).
    Tdma(TdmaArbiter),
    /// Token ring ([`TokenRingArbiter`]).
    TokenRing(TokenRingArbiter),
    /// Static lottery with a precomputed LUT ([`StaticLotteryArbiter`]).
    StaticLottery(StaticLotteryArbiter),
    /// Dynamic lottery with run-time tickets ([`DynamicLotteryArbiter`]).
    DynamicLottery(DynamicLotteryArbiter),
    /// Failover wrapper around any primary ([`FailoverArbiter`]).
    Failover(FailoverArbiter),
    /// Any other [`Arbiter`], dispatched virtually.
    Custom(Box<dyn Arbiter>),
}

impl fmt::Debug for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ArbiterKind").field(&self.name()).finish()
    }
}

/// Expands one delegating match over every variant.
macro_rules! for_each_kind {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            ArbiterKind::FixedOrder($inner) => $body,
            ArbiterKind::StaticPriority($inner) => $body,
            ArbiterKind::RoundRobin($inner) => $body,
            ArbiterKind::DeficitRoundRobin($inner) => $body,
            ArbiterKind::Tdma($inner) => $body,
            ArbiterKind::TokenRing($inner) => $body,
            ArbiterKind::StaticLottery($inner) => $body,
            ArbiterKind::DynamicLottery($inner) => $body,
            ArbiterKind::Failover($inner) => $body,
            ArbiterKind::Custom($inner) => $body,
        }
    };
}

impl Arbiter for ArbiterKind {
    #[inline]
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        for_each_kind!(self, inner => inner.arbitrate(requests, now))
    }

    fn name(&self) -> &str {
        for_each_kind!(self, inner => inner.name())
    }

    fn failovers(&self) -> u64 {
        for_each_kind!(self, inner => inner.failovers())
    }

    #[inline]
    fn next_event(&self, now: Cycle) -> Cycle {
        for_each_kind!(self, inner => inner.next_event(now))
    }

    #[inline]
    fn skip_idle(&mut self, delta: u64) {
        for_each_kind!(self, inner => inner.skip_idle(delta))
    }

    #[inline]
    fn wheel_walk(&self) -> Option<WheelWalk<'_>> {
        for_each_kind!(self, inner => inner.wheel_walk())
    }

    #[inline]
    fn advance_wheel(&mut self, cycles: u64) {
        for_each_kind!(self, inner => inner.advance_wheel(cycles))
    }
}

macro_rules! kind_from {
    ($($ty:ty => $variant:ident),* $(,)?) => {
        $(impl From<$ty> for ArbiterKind {
            fn from(arbiter: $ty) -> Self {
                ArbiterKind::$variant(arbiter)
            }
        })*
    };
}

kind_from! {
    FixedOrderArbiter => FixedOrder,
    StaticPriorityArbiter => StaticPriority,
    RoundRobinArbiter => RoundRobin,
    DeficitRoundRobinArbiter => DeficitRoundRobin,
    TdmaArbiter => Tdma,
    TokenRingArbiter => TokenRing,
    StaticLotteryArbiter => StaticLottery,
    DynamicLotteryArbiter => DynamicLottery,
    FailoverArbiter => Failover,
    Box<dyn Arbiter> => Custom,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdma::WheelLayout;
    use lotterybus::TicketAssignment;
    use socsim::MasterId;

    fn map_with(masters: usize, pending: &[usize]) -> RequestMap {
        let mut map = RequestMap::new(masters);
        for &m in pending {
            map.set_pending(MasterId::new(m), 8);
        }
        map
    }

    fn builtins(seed: u32) -> Vec<ArbiterKind> {
        let tickets = || TicketAssignment::new(vec![1, 2, 3, 4]).expect("valid");
        vec![
            ArbiterKind::from(FixedOrderArbiter::new(4)),
            ArbiterKind::from(StaticPriorityArbiter::new(vec![1, 2, 3, 4]).expect("valid")),
            ArbiterKind::from(RoundRobinArbiter::new(4).expect("valid")),
            ArbiterKind::from(DeficitRoundRobinArbiter::new(&[1, 2, 3, 4], 8).expect("valid")),
            ArbiterKind::from(
                TdmaArbiter::new(&[1, 2, 3, 4], WheelLayout::Contiguous).expect("valid"),
            ),
            ArbiterKind::from(TokenRingArbiter::new(4).expect("valid")),
            ArbiterKind::from(StaticLotteryArbiter::with_seed(tickets(), seed).expect("valid")),
            ArbiterKind::from(DynamicLotteryArbiter::with_seed(tickets(), seed).expect("valid")),
        ]
    }

    #[test]
    fn every_builtin_matches_its_boxed_copy_decision_for_decision() {
        // The enum wrapper and a `Custom(Box<dyn Arbiter>)` copy of the
        // same protocol must stay in lockstep over a busy schedule —
        // the devirtualized path cannot change a single grant.
        let seed = 0xACE1;
        for (enum_arb, boxed_src) in builtins(seed).into_iter().zip(builtins(seed)) {
            let mut direct = enum_arb;
            let mut boxed = ArbiterKind::Custom(Box::new(boxed_src));
            assert_eq!(direct.name(), boxed.name());
            for c in 0..2_000u64 {
                let pending: &[usize] = match c % 4 {
                    0 => &[0, 1, 2, 3],
                    1 => &[1, 3],
                    2 => &[2],
                    _ => &[],
                };
                let map = map_with(4, pending);
                assert_eq!(
                    direct.arbitrate(&map, Cycle::new(c)),
                    boxed.arbitrate(&map, Cycle::new(c)),
                    "{} diverged at cycle {c}",
                    direct.name()
                );
                assert_eq!(direct.next_event(Cycle::new(c)), boxed.next_event(Cycle::new(c)));
            }
        }
    }

    #[test]
    fn failover_variant_reports_failovers() {
        let primary: Box<dyn Arbiter> = Box::new(FixedOrderArbiter::new(2));
        let kind = ArbiterKind::from(FailoverArbiter::new(primary, 2).expect("valid"));
        assert_eq!(kind.failovers(), 0);
        assert!(kind.name().starts_with("failover("));
    }
}
