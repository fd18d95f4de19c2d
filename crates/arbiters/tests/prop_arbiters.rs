//! Property-based tests for the baseline arbiters.

use arbiters::{
    RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter, TokenRingArbiter, WheelLayout,
};
use proptest::prelude::*;
use socsim::{Arbiter, Cycle, MasterId, RequestMap};

fn map_from_mask(n: usize, mask: u32) -> RequestMap {
    let mut map = RequestMap::new(n);
    for i in 0..n {
        if (mask >> i) & 1 == 1 {
            map.set_pending(MasterId::new(i), 4);
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn priority_arbiter_is_deterministic_and_maximal(
        priorities in prop::collection::vec(0u32..1000, 2..8)
            .prop_filter("unique", |p| {
                let mut s = p.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            }),
        mask in 1u32..256,
    ) {
        let n = priorities.len();
        let mask = mask & ((1 << n) - 1);
        prop_assume!(mask != 0);
        let mut arbiter = StaticPriorityArbiter::new(priorities.clone()).unwrap();
        let map = map_from_mask(n, mask);
        let first = arbiter.arbitrate(&map, Cycle::ZERO).unwrap().master;
        let second = arbiter.arbitrate(&map, Cycle::new(1)).unwrap().master;
        prop_assert_eq!(first, second, "static priority has no state");
        for i in 0..n {
            if map.is_pending(MasterId::new(i)) {
                prop_assert!(priorities[first.index()] >= priorities[i]);
            }
        }
    }

    #[test]
    fn tdma_wheel_layouts_preserve_slot_counts(
        slots in prop::collection::vec(1u32..8, 2..8),
    ) {
        for layout in [WheelLayout::Contiguous, WheelLayout::Interleaved] {
            let arbiter = TdmaArbiter::new(&slots, layout).unwrap();
            let mut counts = vec![0u32; slots.len()];
            for owner in arbiter.wheel() {
                counts[owner.index()] += 1;
            }
            prop_assert_eq!(&counts, &slots, "{:?}", layout);
        }
    }

    #[test]
    fn tdma_never_grants_idle_masters_and_never_stalls_with_demand(
        slots in prop::collection::vec(1u32..5, 2..6),
        masks in prop::collection::vec(1u32..64, 10..60),
    ) {
        let n = slots.len();
        let mut arbiter = TdmaArbiter::new(&slots, WheelLayout::Contiguous).unwrap();
        for (k, mask) in masks.into_iter().enumerate() {
            let mask = mask & ((1 << n) - 1);
            let map = map_from_mask(n, mask);
            match arbiter.arbitrate(&map, Cycle::new(k as u64)) {
                Some(grant) => prop_assert!(map.is_pending(grant.master)),
                // The two-level protocol is work-conserving: a slot is
                // only wasted when nobody requests.
                None => prop_assert!(map.is_empty()),
            }
        }
    }

    #[test]
    fn round_robin_never_serves_anyone_twice_before_everyone_pending(
        n in 2usize..8,
        start_mask in 1u32..255,
    ) {
        let mask = (start_mask & ((1 << n) - 1)).max(1);
        let map = map_from_mask(n, mask);
        let pending = map.pending_count();
        let mut arbiter = RoundRobinArbiter::new(n).unwrap();
        let mut seen = Vec::new();
        for k in 0..pending {
            let winner = arbiter.arbitrate(&map, Cycle::new(k as u64)).unwrap().master;
            prop_assert!(!seen.contains(&winner), "repeat before full round");
            seen.push(winner);
        }
    }

    #[test]
    fn token_ring_serves_within_one_lap(
        n in 2usize..10,
        target in 0usize..10,
    ) {
        let target = target % n;
        let mut arbiter = TokenRingArbiter::new(n).unwrap();
        let map = map_from_mask(n, 1 << target);
        let mut served = false;
        for k in 0..n as u64 {
            if let Some(grant) = arbiter.arbitrate(&map, Cycle::new(k)) {
                prop_assert_eq!(grant.master, MasterId::new(target));
                served = true;
                break;
            }
        }
        prop_assert!(served, "token must reach the sole requester within one lap");
    }
}

/// The arithmetic wheel walk must agree with decision-by-decision
/// stepping: under an all-pending map, `count_in` / `occurrence_offset`
/// predict exactly the grants `arbitrate` produces, and
/// `advance_wheel` leaves the arbiter in the state stepping would —
/// from every starting wheel position, for both layouts.
#[test]
fn tdma_wheel_walk_predicts_stepping_exactly() {
    for slots in [&[1u32, 2, 3][..], &[2, 2][..], &[3, 1, 1, 2][..]] {
        let masters = slots.len();
        let total: u32 = slots.iter().sum();
        let mut map = RequestMap::new(masters);
        for m in 0..masters {
            map.set_pending(MasterId::new(m), u32::MAX);
        }
        let window = 2 * u64::from(total) + 3;
        for layout in [WheelLayout::Contiguous, WheelLayout::Interleaved] {
            for start in 0..total as usize {
                let mut stepped = TdmaArbiter::new(slots, layout).expect("valid");
                stepped.set_position(start);
                let mut advanced = stepped.clone();
                let walk = advanced.wheel_walk().expect("tdma publishes a walk");
                assert_eq!(walk.masters(), masters);
                let counts: Vec<u64> = (0..masters).map(|m| walk.count_in(m, window)).collect();
                let offsets: Vec<Vec<u64>> = (0..masters)
                    .map(|m| {
                        (1..=counts[m])
                            .map(|k| walk.occurrence_offset(m, k).expect("has slots"))
                            .collect()
                    })
                    .collect();
                let mut observed = vec![Vec::new(); masters];
                for c in 0..window {
                    let grant = stepped
                        .arbitrate(&map, Cycle::new(c))
                        .expect("all pending: every cycle grants");
                    assert_eq!(grant.max_words, 1, "wheel grants are single words");
                    observed[grant.master.index()].push(c);
                }
                for m in 0..masters {
                    assert_eq!(counts[m], observed[m].len() as u64, "count_in, master {m}");
                    assert_eq!(offsets[m], observed[m], "occurrence offsets, master {m}");
                }
                advanced.advance_wheel(window);
                assert_eq!(stepped.position(), advanced.position(), "start {start}");
                // Both arbiters decide identically from here on, reclaim
                // included (a sparse map exercises the second level).
                let sparse = map_from_mask(masters, 0b10);
                for c in 0..20u64 {
                    let map = if c % 3 == 0 { &sparse } else { &map };
                    assert_eq!(
                        stepped.arbitrate(map, Cycle::new(window + c)),
                        advanced.arbitrate(map, Cycle::new(window + c)),
                        "advance_wheel left different state (start {start}, cycle {c})"
                    );
                }
            }
        }
    }
}
