//! The stochastic traffic source driven by a [`GeneratorSpec`].

use crate::spec::{ArrivalSpec, GeneratorSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socsim::{Cycle, SlaveId, TrafficSource, Transaction};
use std::collections::VecDeque;

/// A deterministic (seeded) stochastic traffic source.
///
/// Internally the source keeps a small queue of generated-but-not-yet-due
/// messages so that bursty arrival processes can stamp several messages
/// with their true arrival cycles while the bus interface consumes them
/// one per cycle. A Bernoulli process draws its per-cycle coin flips
/// ahead of time, up to the next hit, so it can announce that arrival
/// as its [`TrafficSource::next_event`] horizon.
///
/// ```
/// use traffic_gen::{GeneratorSpec, SizeDist, StochasticSource};
/// use socsim::{TrafficSource, Cycle};
///
/// let spec = GeneratorSpec::periodic(10, 0, SizeDist::fixed(4));
/// let mut source = StochasticSource::new(spec, 1);
/// assert!(source.poll(Cycle::new(0)).is_some());
/// assert!(source.poll(Cycle::new(1)).is_none());
/// assert!(source.poll(Cycle::new(10)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct StochasticSource {
    spec: GeneratorSpec,
    rng: StdRng,
    /// Messages stamped with their arrival cycle, awaiting emission.
    pending: VecDeque<Transaction>,
    /// Next arrival event: for the periodic / on–off processes the next
    /// scheduled arrival, for Bernoulli the next drawn hit (when `hit`)
    /// or the scan checkpoint where drawing resumes.
    next_event: u64,
    /// Whether the arrival schedule is anchored. Periodic and on–off
    /// schedules are absolute; a Bernoulli source anchors its draws at
    /// its first poll.
    armed: bool,
    /// Bernoulli: whether `next_event` is a drawn hit whose size draws
    /// are still to come.
    hit: bool,
}

impl StochasticSource {
    /// How many cycles past the polled cycle a Bernoulli source draws
    /// ahead before it reports a checkpoint horizon instead of a hit.
    /// Bounds the work of one poll at tiny rates; any value gives the
    /// same stream.
    pub const LOOKAHEAD: u64 = 4096;

    /// Creates the source described by `spec`, seeded with `seed`.
    pub fn new(spec: GeneratorSpec, seed: u64) -> Self {
        let (next_event, armed) = match spec.arrival {
            ArrivalSpec::Periodic { phase, .. } => (phase, true),
            ArrivalSpec::Bernoulli { rate } if rate > 0.0 => (0, false),
            // A zero rate never draws: anchored at "never".
            ArrivalSpec::Bernoulli { .. } => (u64::MAX, true),
            ArrivalSpec::OnOff { phase, .. } => (phase, true),
        };
        StochasticSource {
            spec,
            rng: StdRng::seed_from_u64(seed),
            pending: VecDeque::new(),
            next_event,
            armed,
            hit: false,
        }
    }

    /// The spec this source realizes.
    pub fn spec(&self) -> &GeneratorSpec {
        &self.spec
    }

    fn push_message(&mut self, arrival: u64) {
        let words = self.spec.size.sample(&mut self.rng);
        self.pending.push_back(Transaction::new(
            SlaveId::new(self.spec.slave),
            words,
            Cycle::new(arrival),
        ));
    }

    /// Takes the per-cycle Bernoulli draws for cycles `from..limit` in
    /// order and stops at the first hit, which becomes the next event;
    /// without one, `limit` becomes a checkpoint where drawing resumes.
    fn scan(&mut self, from: u64, limit: u64, p: f64) {
        self.hit = false;
        self.next_event = limit;
        for cycle in from..limit {
            if self.rng.gen_bool(p) {
                self.hit = true;
                self.next_event = cycle;
                return;
            }
        }
    }

    fn generate_arrivals(&mut self, now: u64) {
        match self.spec.arrival {
            ArrivalSpec::Periodic { period, jitter, .. } => {
                while self.next_event <= now {
                    let offset = if jitter == 0 { 0 } else { self.rng.gen_range(0..=jitter) };
                    self.push_message(self.next_event + offset);
                    self.next_event += period;
                }
            }
            ArrivalSpec::Bernoulli { rate } => {
                if !self.armed {
                    self.armed = true;
                    self.next_event = now;
                }
                while self.next_event <= now {
                    let from = if self.hit {
                        let at = self.next_event;
                        self.push_message(at);
                        at + 1
                    } else {
                        self.next_event
                    };
                    self.scan(from, now.saturating_add(Self::LOOKAHEAD), rate.min(1.0));
                }
            }
            ArrivalSpec::OnOff { burst_min, burst_max, intra_gap, off_min, off_max, .. } => {
                while self.next_event <= now {
                    let start = self.next_event;
                    let messages = self.rng.gen_range(burst_min..=burst_max);
                    for k in 0..u64::from(messages) {
                        self.push_message(start + k * intra_gap);
                    }
                    let burst_span = u64::from(messages.saturating_sub(1)) * intra_gap + 1;
                    let off = self.rng.gen_range(off_min..=off_max);
                    self.next_event = start + burst_span + off;
                }
            }
        }
    }
}

impl TrafficSource for StochasticSource {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        self.generate_arrivals(now.index());
        // Messages stamped in the future (jitter / intra-burst gaps) wait
        // in the queue until due. Arrival stamps within one process are
        // non-decreasing except for jitter; a linear scan of the short
        // queue finds the earliest due message.
        let due = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, t)| t.issued_at() <= now)
            .min_by_key(|(_, t)| t.issued_at())
            .map(|(i, _)| i)?;
        self.pending.remove(due)
    }

    /// The earliest cycle at which a poll could emit a message or draw
    /// from the RNG (see [`socsim::fastforward`]): the earlier of the
    /// next arrival event and the earliest already-generated message
    /// waiting in the queue (jitter and intra-burst stamps can sit in
    /// the future).
    ///
    /// * Periodic and on–off processes mutate state only once their
    ///   next scheduled arrival comes due.
    /// * A Bernoulli process takes the same per-cycle draw stream as
    ///   drawing once per polled cycle, but ahead of time: its first
    ///   poll anchors draw `k` to cycle `first_poll + k`, so until then
    ///   the horizon is `now`. After that it is the next hit — drawn,
    ///   its size draws still to come — or, when no hit lies within
    ///   the look-ahead window, the checkpoint where drawing resumes. A
    ///   zero rate never draws nor emits.
    fn next_event(&self, now: Cycle) -> Cycle {
        if !self.armed {
            return now;
        }
        let arrival = Cycle::new(self.next_event);
        let pending = self.pending.iter().map(Transaction::issued_at).min();
        pending.map_or(arrival, |p| p.min(arrival)).max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::SizeDist;

    fn drain(source: &mut StochasticSource, cycles: u64) -> Vec<(u64, u32)> {
        (0..cycles).filter_map(|c| source.poll(Cycle::new(c)).map(|t| (c, t.words()))).collect()
    }

    #[test]
    fn periodic_arrivals_hit_the_grid() {
        let spec = GeneratorSpec::periodic(25, 5, SizeDist::fixed(3));
        let mut source = StochasticSource::new(spec, 9);
        let got = drain(&mut source, 100);
        assert_eq!(got, vec![(5, 3), (30, 3), (55, 3), (80, 3)]);
    }

    #[test]
    fn jitter_delays_but_preserves_count() {
        let spec = GeneratorSpec::periodic_jittered(20, 0, 5, SizeDist::fixed(1));
        let mut source = StochasticSource::new(spec, 10);
        let got = drain(&mut source, 200);
        assert_eq!(got.len(), 10);
        for (k, &(cycle, _)) in got.iter().enumerate() {
            let grid = k as u64 * 20;
            assert!(
                (grid..=grid + 5).contains(&cycle),
                "arrival {k} at {cycle} outside jitter window"
            );
        }
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let spec = GeneratorSpec::poisson(0.1, SizeDist::fixed(1));
        let mut source = StochasticSource::new(spec, 11);
        let got = drain(&mut source, 50_000);
        let rate = got.len() as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bursts_emit_every_message_with_true_stamps() {
        // Bursts of exactly 3 messages, 2 cycles apart, 50-cycle gaps.
        let spec = GeneratorSpec::bursty(3, 3, 2, 50, 50, 10, SizeDist::fixed(4));
        let mut source = StochasticSource::new(spec, 12);
        let mut stamps = Vec::new();
        for c in 0..120u64 {
            if let Some(t) = source.poll(Cycle::new(c)) {
                stamps.push(t.issued_at().index());
            }
        }
        assert_eq!(stamps, vec![10, 12, 14, 65, 67, 69]);
    }

    #[test]
    fn back_to_back_burst_messages_queue_up() {
        // intra_gap 0: all 4 messages arrive at once, drained 1/cycle.
        let spec = GeneratorSpec::bursty(4, 4, 0, 1000, 1000, 0, SizeDist::fixed(2));
        let mut source = StochasticSource::new(spec, 13);
        let got = drain(&mut source, 10);
        assert_eq!(got.iter().map(|&(c, _)| c).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // All four carry the burst-start stamp for latency accounting.
        let spec2 = GeneratorSpec::bursty(4, 4, 0, 1000, 1000, 0, SizeDist::fixed(2));
        let mut source2 = StochasticSource::new(spec2, 13);
        for c in 0..4u64 {
            let t = source2.poll(Cycle::new(c)).expect("queued message");
            assert_eq!(t.issued_at().index(), 0);
        }
    }

    #[test]
    fn horizon_is_exact_for_deterministic_processes() {
        // Whenever a poll emits, the horizon computed just before must
        // have been exactly that cycle — the event kernel's "time
        // never jumps past an event" invariant, checked per cycle.
        let specs = [
            GeneratorSpec::periodic(25, 5, SizeDist::fixed(3)),
            GeneratorSpec::periodic_jittered(20, 0, 5, SizeDist::fixed(1)),
            GeneratorSpec::bursty(2, 4, 3, 40, 80, 7, SizeDist::uniform(1, 8)),
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let mut source = StochasticSource::new(spec, 31 + i as u64);
            for c in 0..2_000u64 {
                let h = source.next_event(Cycle::new(c));
                let emitted = source.poll(Cycle::new(c)).is_some();
                assert!(h >= Cycle::new(c), "spec {i}: horizon in the past at {c}");
                if emitted {
                    assert_eq!(h, Cycle::new(c), "spec {i}: emission at {c} was skippable");
                }
            }
        }
    }

    #[test]
    fn bernoulli_horizon_pins_every_cycle() {
        let live = StochasticSource::new(GeneratorSpec::poisson(0.01, SizeDist::fixed(1)), 3);
        assert_eq!(live.next_event(Cycle::new(42)), Cycle::new(42));
        let dead = StochasticSource::new(GeneratorSpec::poisson(0.0, SizeDist::fixed(1)), 3);
        assert_eq!(dead.next_event(Cycle::new(42)), Cycle::NEVER);
    }

    #[test]
    fn seeded_sources_are_reproducible() {
        let spec = GeneratorSpec::poisson(0.05, SizeDist::uniform(1, 16));
        let a = drain(&mut StochasticSource::new(spec, 77), 10_000);
        let b = drain(&mut StochasticSource::new(spec, 77), 10_000);
        let c = drain(&mut StochasticSource::new(spec, 78), 10_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empirical_load_matches_spec_estimate() {
        let spec = GeneratorSpec::bursty(2, 6, 4, 100, 300, 0, SizeDist::uniform(8, 24));
        let mut source = StochasticSource::new(spec, 21);
        let cycles = 200_000u64;
        let words: u64 = drain(&mut source, cycles).iter().map(|&(_, w)| u64::from(w)).sum();
        let load = words as f64 / cycles as f64;
        let predicted = spec.offered_load();
        assert!(
            (load - predicted).abs() < predicted * 0.15,
            "load {load:.3} vs predicted {predicted:.3}"
        );
    }
}
