//! Closed-form waiting times: reduced-rate Pollaczek–Khinchine for the
//! fair protocols, Cobham's formula for static priority, and the TDMA
//! slot-alignment term.
//!
//! All formulas treat arrivals as memoryless (Bernoulli) at the
//! modelled rate and predict the simulator's latency metric
//! `cycles_per_word = Σ (completion − issue) / Σ words`, i.e. the mean
//! per-message sojourn divided by the mean message size.

use crate::model::{Protocol, Scratch, SystemModel, EPS};

/// `ln(100)` — the exponential-tail factor taking a mean waiting time
/// to its 99th percentile.
const LN_100: f64 = 4.605_170_185_988_092;

/// Fills `scratch.preds[..n].{cycles_per_word, p99_latency}` from the
/// granted cycle allocations stashed in `scratch.alloc[..n]`.
pub(crate) fn fill(model: &SystemModel, scratch: &mut Scratch, n: usize) {
    match model.protocol {
        Protocol::StaticPriority => priority(model, scratch, n),
        _ => reduced_rate(model, scratch, n),
    }
}

/// Reduced-rate M/G/1: master *i* sees a private server running at the
/// rate its competitors' granted allocations leave behind,
/// `rᵢ = 1 − Σ_{j≠i} cⱼ`. Its service times stretch by `1/rᵢ` and the
/// Pollaczek–Khinchine mean wait applies to the stretched moments:
/// `Wᵢ = λᵢ E[s²] / (2 (1 − λᵢ E[s]))`. For two-level TDMA an extra
/// slot-alignment wait is added (see [`tdma_slot_wait`]).
fn reduced_rate(model: &SystemModel, scratch: &mut Scratch, n: usize) {
    let granted: f64 = scratch.alloc[..n].iter().sum();
    let tdma = model.protocol == Protocol::Tdma2Level;
    let frame = if tdma { tdma_frame(model) } else { 0.0 };
    for i in 0..n {
        let m = &model.masters[i];
        let rate = 1.0 - (granted - scratch.alloc[i]);
        let extra = if tdma { tdma_slot_wait(model, frame, i) } else { 0.0 };
        let (cpw, p99) = mg1(m.lambda, m.mean_tenure, m.tenure_sq, m.mean_words, rate, extra);
        let pred = &mut scratch.preds[i];
        pred.cycles_per_word = cpw;
        pred.p99_latency = p99;
        if cpw.is_none() {
            pred.stable = false;
        }
    }
}

/// One master's reduced-rate M/G/1 sojourn: returns
/// `(cycles_per_word, p99)` or `(None, None)` when the queue is
/// unstable at the residual rate.
fn mg1(
    lambda: f64,
    mean_tenure: f64,
    tenure_sq: f64,
    mean_words: f64,
    rate: f64,
    extra_wait: f64,
) -> (Option<f64>, Option<f64>) {
    if rate <= EPS {
        return (None, None);
    }
    let s = mean_tenure / rate;
    let s_sq = tenure_sq / (rate * rate);
    let rho = lambda * s;
    if rho >= 1.0 - EPS {
        return (None, None);
    }
    let wait = lambda * s_sq / (2.0 * (1.0 - rho)) + extra_wait;
    (Some((wait + s) / mean_words), Some(s + LN_100 * wait))
}

/// The TDMA frame length `F = Σ block · weight` in cycles.
fn tdma_frame(model: &SystemModel) -> f64 {
    let block = f64::from(model.tdma_block);
    model.masters.iter().map(|m| block * f64::from(m.weight)).sum()
}

/// Mean cycles a random arrival waits for its reserved TDMA block:
/// with a frame of `F` cycles and an own block of `b`, a uniformly
/// placed arrival outside the block waits `(F − b)² / (2F)` on
/// average. The second-level round-robin reclaims unclaimed slots, so
/// this is an upper-bound flavour of the alignment penalty; the
/// validation grid measures how tight it is.
fn tdma_slot_wait(model: &SystemModel, frame: f64, i: usize) -> f64 {
    let block = f64::from(model.tdma_block);
    if frame <= EPS {
        return 0.0;
    }
    let own = block * f64::from(model.masters[i].weight);
    let foreign = (frame - own).max(0.0);
    foreign * foreign / (2.0 * frame)
}

/// Cobham's mean waits for non-preemptive M/G/1 priority queueing:
/// `Wₖ = R / ((1 − σₖ₋₁)(1 − σₖ))` with residual service
/// `R = Σⱼ λⱼ E[tⱼ²] / 2` over *all* classes (weight-independent, so
/// `SystemModel::prepare` computes it) and `σₖ` the demand of
/// classes at priority ≥ k. Classes are ordered by descending weight,
/// ties broken by lower index (the simulator's tie-break). A class
/// whose cumulative demand reaches capacity is unstable: its latency —
/// and every lower class's — is unbounded.
fn priority(model: &SystemModel, scratch: &mut Scratch, n: usize) {
    let residual = scratch.residual;
    let mut order = [0usize; crate::MAX_MASTERS];
    for (i, slot) in order.iter_mut().take(n).enumerate() {
        *slot = i;
    }
    order[..n]
        .sort_by(|&a, &b| model.masters[b].weight.cmp(&model.masters[a].weight).then(a.cmp(&b)));
    let mut sigma_above = 0.0;
    for &i in &order[..n] {
        let m = &model.masters[i];
        let sigma_incl = sigma_above + m.demand();
        let pred = &mut scratch.preds[i];
        if sigma_incl >= 1.0 - EPS {
            pred.cycles_per_word = None;
            pred.p99_latency = None;
            pred.stable = false;
        } else {
            let wait = residual / ((1.0 - sigma_above) * (1.0 - sigma_incl));
            pred.cycles_per_word = Some((wait + m.mean_tenure) / m.mean_words);
            pred.p99_latency = Some(m.mean_tenure + LN_100 * wait);
        }
        sigma_above = sigma_incl;
    }
}

#[cfg(test)]
mod tests {
    use crate::{MasterModel, Protocol, SystemModel};
    use traffic_gen::SizeDist;

    fn master(lambda: f64, weight: u32) -> MasterModel {
        MasterModel::new(lambda, SizeDist::fixed(16), weight, 0, 16)
    }

    #[test]
    fn an_uncontended_master_transfers_at_one_cycle_per_word() {
        let model = SystemModel::new(Protocol::RoundRobin, vec![master(0.0001, 1)]);
        let p = model.predict();
        let cpw = p.masters[0].cycles_per_word.expect("stable");
        // λ E[t²] / 2(1−ρ) ≈ 0.0128 wait on a 16-cycle service.
        assert!(cpw < 1.01, "cycles/word {cpw}");
        let p99 = p.masters[0].p99_latency.expect("stable");
        assert!((16.0..17.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn latency_rises_with_competitor_load() {
        let mut last = 0.0;
        for competitor_load in [0.01, 0.02, 0.03, 0.04] {
            let model = SystemModel::new(
                Protocol::LotteryStatic,
                vec![master(0.005, 1), master(competitor_load, 1)],
            );
            let cpw = model.predict().masters[0].cycles_per_word.expect("stable");
            assert!(cpw > last, "cycles/word must rise: {cpw} after {last}");
            last = cpw;
        }
    }

    #[test]
    fn priority_wait_orders_by_weight() {
        let model = SystemModel::new(
            Protocol::StaticPriority,
            vec![master(0.01, 1), master(0.01, 2), master(0.01, 3)],
        );
        let p = model.predict();
        let cpw: Vec<f64> = p.masters.iter().map(|m| m.cycles_per_word.expect("stable")).collect();
        assert!(cpw[2] < cpw[1] && cpw[1] < cpw[0], "latencies {cpw:?}");
    }

    #[test]
    fn priority_saturation_unbounds_lower_classes_only() {
        // Demands: 0.64 + 0.64 > 1 — the top class stays finite.
        let model =
            SystemModel::new(Protocol::StaticPriority, vec![master(0.04, 1), master(0.04, 2)]);
        let p = model.predict();
        assert!(p.masters[1].cycles_per_word.is_some());
        assert!(p.masters[0].cycles_per_word.is_none());
    }

    #[test]
    fn tdma_pays_a_slot_alignment_penalty_over_lottery() {
        let masters = vec![master(0.002, 1), master(0.002, 2), master(0.002, 3)];
        let tdma = SystemModel::new(Protocol::Tdma2Level, masters.clone()).predict();
        let lottery = SystemModel::new(Protocol::LotteryStatic, masters).predict();
        for (t, l) in tdma.masters.iter().zip(&lottery.masters) {
            assert!(
                t.cycles_per_word.expect("stable") > l.cycles_per_word.expect("stable"),
                "TDMA should wait for its block"
            );
        }
    }
}
