//! Property-based tests for the traffic generators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socsim::{Cycle, SlaveId, TrafficSource, Transaction};
use traffic_gen::{GeneratorSpec, ReplaySource, SizeDist, StochasticSource, TrafficClass};

fn drain(source: &mut dyn TrafficSource, cycles: u64) -> Vec<(u64, u64, u32)> {
    (0..cycles)
        .filter_map(|c| source.poll(Cycle::new(c)).map(|t| (c, t.issued_at().index(), t.words())))
        .collect()
}

/// The reference Bernoulli generator: one `gen_bool` draw per poll,
/// the arrival's size draws right after a hit, stamped at the polled
/// cycle. `StochasticSource` must produce exactly this stream while
/// drawing ahead.
struct PerPollBernoulli {
    rng: StdRng,
    rate: f64,
    size: SizeDist,
}

impl PerPollBernoulli {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        if self.rate > 0.0 && self.rng.gen_bool(self.rate.min(1.0)) {
            Some(Transaction::new(SlaveId::new(0), self.size.sample(&mut self.rng), now))
        } else {
            None
        }
    }
}

/// `(poll cycle, issued_at, words)` for one emission.
type Emission = (u64, u64, u32);

fn emission(now: Cycle, t: Transaction) -> Emission {
    (now.index(), t.issued_at().index(), t.words())
}

fn rate_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        // Below one hit per look-ahead window: the checkpoint path.
        Just(1e-7),
        Just(1.0),
        0.0f64..1.0,
        0.0005f64..0.02,
    ]
}

fn size_strategy() -> impl Strategy<Value = SizeDist> {
    prop_oneof![
        (1u32..64).prop_map(SizeDist::fixed),
        (1u32..32, 0u32..32).prop_map(|(lo, extra)| SizeDist::uniform(lo, lo + extra)),
        (1u32..8, 9u32..64, 0.05f64..0.95).prop_map(|(s, l, p)| SizeDist::bimodal(s, l, p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn empirical_load_tracks_the_spec_estimate(
        size in size_strategy(),
        rate in 0.001f64..0.05,
        seed in 0u64..1_000_000,
    ) {
        let spec = GeneratorSpec::poisson(rate, size);
        let mut source = StochasticSource::new(spec, seed);
        let cycles = 300_000u64;
        let words: u64 = drain(&mut source, cycles).iter().map(|&(_, _, w)| u64::from(w)).sum();
        let measured = words as f64 / cycles as f64;
        let predicted = spec.offered_load();
        prop_assert!(
            (measured - predicted).abs() < predicted * 0.2 + 0.002,
            "measured {:.4} vs predicted {:.4}", measured, predicted,
        );
    }

    #[test]
    fn stamps_never_postdate_emission(
        size in size_strategy(),
        burst in 1u32..6,
        gap in 0u64..5,
        off in 1u64..200,
        phase in 0u64..50,
        seed in 0u64..1_000_000,
    ) {
        let spec = GeneratorSpec::bursty(1, burst, gap, off, off * 2, phase, size);
        let mut source = StochasticSource::new(spec, seed);
        for (poll_cycle, stamp, words) in drain(&mut source, 5_000) {
            prop_assert!(stamp <= poll_cycle, "stamp {} after poll {}", stamp, poll_cycle);
            prop_assert!(words >= 1);
        }
    }

    #[test]
    fn periodic_arrival_count_is_exact(
        period in 1u64..100,
        phase in 0u64..100,
        seed in 0u64..1_000_000,
    ) {
        let spec = GeneratorSpec::periodic(period, phase, SizeDist::fixed(1));
        let mut source = StochasticSource::new(spec, seed);
        let horizon = 10_000u64;
        let got = drain(&mut source, horizon).len() as u64;
        let expected = if phase >= horizon { 0 } else { (horizon - 1 - phase) / period + 1 };
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn replay_round_trips_any_sorted_trace(
        mut trace in prop::collection::vec((0u64..5_000, 1u32..32), 0..50),
    ) {
        trace.sort_by_key(|&(c, _)| c);
        let mut source = ReplaySource::new(0, &trace);
        let emitted = drain(&mut source, 6_000);
        prop_assert_eq!(emitted.len(), trace.len());
        for (k, &(cycle, words)) in trace.iter().enumerate() {
            prop_assert_eq!(emitted[k].1, cycle, "stamp preserved");
            prop_assert_eq!(emitted[k].2, words, "size preserved");
        }
        prop_assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn every_class_builds_for_any_weights(
        weights in prop::collection::vec(1u32..6, 1..6),
        block in 1u32..32,
    ) {
        for class in TrafficClass::all() {
            let specs = class.specs_with_frame(&weights, block);
            prop_assert_eq!(specs.len(), weights.len(), "{}", class);
            for spec in &specs {
                prop_assert!(spec.offered_load() > 0.0, "{}", class);
                prop_assert!(spec.offered_load() <= 1.0 + 1e-9, "{}", class);
            }
        }
    }

    #[test]
    fn lookahead_bernoulli_reproduces_the_per_poll_stream(
        rate in rate_strategy(),
        size in size_strategy(),
        seed in 0u64..1_000_000,
        first_poll in 0u64..10_000,
    ) {
        let cycles = 20_000u64;
        let end = first_poll + cycles;
        let mut reference = PerPollBernoulli { rng: StdRng::seed_from_u64(seed), rate, size };
        let want: Vec<Emission> = (first_poll..end)
            .filter_map(|c| reference.poll(Cycle::new(c)).map(|t| emission(Cycle::new(c), t)))
            .collect();
        let spec = GeneratorSpec::poisson(rate, size);

        // Polled every cycle, as the multichannel bus does: the horizon
        // announced before each poll is never in the past, and every
        // emission lands exactly on it.
        let mut every = StochasticSource::new(spec, seed);
        let mut got = Vec::new();
        for c in first_poll..end {
            let now = Cycle::new(c);
            let horizon = every.next_event(now);
            prop_assert!(horizon >= now, "horizon {} before now {}", horizon, c);
            if let Some(t) = every.poll(now) {
                prop_assert_eq!(horizon, now, "emission at {} skipped by the horizon", c);
                got.push(emission(now, t));
            }
        }
        prop_assert_eq!(&got, &want);

        // Polled only at its horizons, as the event kernel does: a live
        // source not yet polled reports `now` (a zero rate, never), and
        // skipping to each announced horizon loses nothing.
        let mut skipping = StochasticSource::new(spec, seed);
        let unpolled = if rate > 0.0 { Cycle::new(first_poll) } else { Cycle::NEVER };
        prop_assert_eq!(skipping.next_event(Cycle::new(first_poll)), unpolled);
        let mut got = Vec::new();
        let mut c = first_poll;
        while c < end {
            let now = Cycle::new(c);
            if let Some(t) = skipping.poll(now) {
                got.push(emission(now, t));
            }
            let horizon = skipping.next_event(now + 1);
            prop_assert!(horizon > now, "horizon {} not after the poll at {}", horizon, c);
            c = horizon.index();
        }
        prop_assert_eq!(&got, &want);
    }
}
