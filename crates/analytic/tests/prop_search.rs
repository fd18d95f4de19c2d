//! Bitwise equivalence of the incremental design-space scan with a
//! naive reference.
//!
//! The reference below is the scan at its simplest: every design point
//! runs the full [`SystemModel::evaluate`], and every feasible point is
//! offered to a short list that recomputes the shape signature of each
//! candidate it compares against. [`analytic::search`] prepares each
//! (burst, load-scale) cell once, evaluates weight-free cells once,
//! re-evaluates DRR only when the burst-clamped weights change, and
//! rejects points below a full short list's worst margin without
//! computing a shape. None of that may change a bit of the report:
//! `scanned`, `feasible` and every candidate field are compared exactly,
//! floats by `f64::to_bits`.
//!
//! The drawn spaces cover all six protocols, one to six masters, loads
//! straddling saturation (including within 10⁻⁶ of capacity, where the
//! weight-free test flips), zero load, masters whose demand is below
//! the model's `EPS`, several bursts and load scales, and short lists
//! of 0, 1 and 8 candidates.

use analytic::{
    search, Candidate, MasterModel, Prediction, Protocol, Scratch, SearchSpace, SlaTarget,
    SystemModel, TargetKind, TrafficInput,
};
use proptest::prelude::*;
use socsim::BusConfig;
use traffic_gen::SizeDist;

/// What the reference scan reports: `(scanned, feasible, candidates)`.
type Report = (u64, u64, Vec<Candidate>);

/// The scan without any reuse: one full `evaluate` per design point.
fn reference(space: &SearchSpace, targets: &[SlaTarget], top: usize) -> Report {
    let n = space.traffic.len();
    let mut scratch = Scratch::new();
    let (mut scanned, mut feasible) = (0u64, 0u64);
    let mut shortlist = Vec::new();
    for &burst in &space.bursts {
        let bus = BusConfig { max_burst: burst, ..space.bus };
        for &scale in &space.load_scales {
            let masters = space
                .traffic
                .iter()
                .map(|t| {
                    let stall = t.stall.unwrap_or_else(|| bus.per_grant_overhead());
                    let m = MasterModel::new(t.lambda, t.size, 1, stall, burst);
                    MasterModel { lambda: m.lambda * scale, ..m }
                })
                .collect();
            let mut model = SystemModel::new(space.protocol, masters)
                .with_tdma_block(space.tdma_block)
                .with_drr_quantum(space.drr_quantum);
            model.max_burst = burst;
            let mut weights = vec![1u32; n];
            loop {
                for (m, &w) in model.masters.iter_mut().zip(&weights) {
                    m.weight = w;
                }
                model.evaluate(&mut scratch);
                let margin = targets
                    .iter()
                    .map(|t| t.slack(&scratch.preds[t.master]))
                    .fold(f64::INFINITY, f64::min);
                scanned += 1;
                if margin >= 0.0 {
                    feasible += 1;
                    let cand = Candidate {
                        weights: weights.clone(),
                        burst,
                        load_scale: scale,
                        margin,
                        predicted: scratch.preds[..n].to_vec(),
                    };
                    offer(&mut shortlist, top, space, cand);
                }
                let mut digit = 0;
                while digit < n {
                    weights[digit] += 1;
                    if weights[digit] <= space.max_tickets {
                        break;
                    }
                    weights[digit] = 1;
                    digit += 1;
                }
                if digit == n {
                    break;
                }
            }
        }
    }
    shortlist.sort_by(|a, b| b.margin.partial_cmp(&a.margin).expect("finite margins"));
    (scanned, feasible, shortlist)
}

/// The dedup shape of a weight vector in a cell with burst `burst`.
fn shape(space: &SearchSpace, burst: u32, weights: &[u32]) -> Vec<u32> {
    match space.protocol {
        Protocol::Tdma2Level => weights.to_vec(),
        Protocol::RoundRobin => vec![1; weights.len()],
        Protocol::StaticPriority => {
            weights.iter().map(|&x| weights.iter().filter(|&&w| w < x).count() as u32).collect()
        }
        _ => {
            let eff = |w: u32| match space.protocol {
                Protocol::DeficitRoundRobin => {
                    w.saturating_mul(space.drr_quantum.max(1)).min(burst.max(1))
                }
                _ => w,
            };
            let g = weights.iter().fold(0u32, |g, &w| gcd(g, eff(w))).max(1);
            weights.iter().map(|&w| eff(w) / g).collect()
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The short list's offer rule, recomputing every shape it compares.
fn offer(shortlist: &mut Vec<Candidate>, top: usize, space: &SearchSpace, cand: Candidate) {
    if top == 0 {
        return;
    }
    let sig = shape(space, cand.burst, &cand.weights);
    if let Some(existing) = shortlist.iter_mut().find(|c| {
        c.burst == cand.burst
            && c.load_scale == cand.load_scale
            && shape(space, c.burst, &c.weights) == sig
    }) {
        let sum: u32 = cand.weights.iter().sum();
        let existing_sum: u32 = existing.weights.iter().sum();
        if cand.margin > existing.margin + f64::EPSILON
            || (cand.margin >= existing.margin - f64::EPSILON && sum < existing_sum)
        {
            *existing = cand;
        }
        return;
    }
    if shortlist.len() >= top {
        let (worst_idx, worst) = shortlist
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.margin.partial_cmp(&b.1.margin).expect("finite"))
            .expect("non-empty");
        if cand.margin <= worst.margin {
            return;
        }
        shortlist.swap_remove(worst_idx);
    }
    shortlist.push(cand);
}

fn same_option(a: Option<f64>, b: Option<f64>) -> bool {
    a.map(f64::to_bits) == b.map(f64::to_bits)
}

fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    a.share.to_bits() == b.share.to_bits()
        && a.demand.to_bits() == b.demand.to_bits()
        && a.stable == b.stable
        && same_option(a.cycles_per_word, b.cycles_per_word)
        && same_option(a.p99_latency, b.p99_latency)
}

fn same_candidate(a: &Candidate, b: &Candidate) -> bool {
    a.weights == b.weights
        && a.burst == b.burst
        && a.load_scale.to_bits() == b.load_scale.to_bits()
        && a.margin.to_bits() == b.margin.to_bits()
        && a.predicted.len() == b.predicted.len()
        && a.predicted.iter().zip(&b.predicted).all(|(x, y)| same_prediction(x, y))
}

/// Total cycle demand the drawn loads are scaled to, at the first burst
/// and load scale 1.0: idle, light, around the weight-free headroom
/// (`1 − 10⁻⁶`), around the saturation threshold (`1 − EPS`, 1.0), and
/// overloaded.
const DEMANDS: [f64; 12] = [
    0.0,
    0.3,
    0.8,
    1.0 - 1e-6 - 1e-12,
    1.0 - 1e-6,
    1.0 - 1e-6 + 1e-12,
    1.0 - 1e-9,
    1.0 - 1e-12,
    1.0,
    1.0 + 1e-12,
    1.5,
    4.0,
];

/// How one master's load is drawn relative to the others.
#[derive(Debug, Clone, Copy)]
enum LoadKind {
    /// Takes a share of the total demand proportional to its draw.
    Share(f64),
    /// Offers nothing.
    Idle,
    /// Demand below the model's `EPS`, so the water fill skips it.
    Tiny,
}

#[derive(Debug, Clone)]
struct MasterDraw {
    load: LoadKind,
    size: SizeDist,
    stall: Option<u32>,
}

fn master_draw() -> impl Strategy<Value = MasterDraw> {
    let load = prop_oneof![
        (0.05..1.0f64).prop_map(LoadKind::Share),
        (0.05..1.0f64).prop_map(LoadKind::Share),
        (0.05..1.0f64).prop_map(LoadKind::Share),
        Just(LoadKind::Idle),
        Just(LoadKind::Tiny),
    ];
    let size = prop_oneof![
        (1..40u32).prop_map(SizeDist::fixed),
        (1..8u32, 9..70u32, 0.05..0.9f64).prop_map(|(a, b, p)| SizeDist::bimodal(a, b, p)),
    ];
    let stall = prop_oneof![Just(None), (0..5u32).prop_map(Some)];
    (load, size, stall).prop_map(|(load, size, stall)| MasterDraw { load, size, stall })
}

/// A target kind plus where among the masters it lands (a fraction of
/// the master count, resolved once the count is known).
fn target_draw() -> impl Strategy<Value = (f64, TargetKind)> {
    let kind = prop_oneof![
        (0.0..0.6f64).prop_map(TargetKind::MinShare),
        (0.05..1.0f64).prop_map(TargetKind::MaxShare),
        (1.0..40.0f64).prop_map(TargetKind::MaxCyclesPerWord),
        (5.0..3000.0f64).prop_map(TargetKind::MaxP99),
    ];
    (0.0..1.0f64, kind)
}

/// Builds the space: loads scaled so the first cell's total demand is
/// `demand`, tickets capped so the grid stays small.
fn space_of(
    protocol: Protocol,
    draws: &[MasterDraw],
    demand: f64,
    bursts: Vec<u32>,
    load_scales: Vec<f64>,
    knobs: (u32, u32, u32),
) -> SearchSpace {
    let bus = BusConfig::default();
    let burst0 = bursts[0];
    let tenure = |d: &MasterDraw| {
        let stall = d.stall.unwrap_or_else(|| bus.per_grant_overhead());
        MasterModel::new(0.0, d.size, 1, stall, burst0).mean_tenure
    };
    let total: f64 =
        draws.iter().map(|d| if let LoadKind::Share(s) = d.load { s } else { 0.0 }).sum();
    let traffic = draws
        .iter()
        .map(|d| {
            let lambda = match d.load {
                LoadKind::Share(s) if total > 0.0 => demand * s / total / tenure(d),
                LoadKind::Share(_) | LoadKind::Idle => 0.0,
                LoadKind::Tiny => 1e-12,
            };
            TrafficInput { lambda, size: d.size, stall: d.stall }
        })
        .collect();
    let mut space = SearchSpace::new(protocol, bus, traffic);
    let (max_tickets, drr_quantum, tdma_block) = knobs;
    // At most a few thousand points per cell, whatever the master count.
    let cap = [0, 24, 16, 9, 6, 4, 3][draws.len()];
    space.max_tickets = max_tickets.min(cap);
    space.drr_quantum = drr_quantum;
    space.tdma_block = tdma_block;
    space.bursts = bursts;
    space.load_scales = load_scales;
    space
}

/// Resolves drawn targets onto `n` masters.
fn targets_of(draws: Vec<(f64, TargetKind)>, n: usize) -> Vec<SlaTarget> {
    draws
        .into_iter()
        .map(|(at, kind)| SlaTarget { master: ((at * n as f64) as usize).min(n - 1), kind })
        .collect()
}

/// Runs both scans over `space` and compares their reports bit for bit.
fn check(space: &SearchSpace, targets: &[SlaTarget], top: usize) -> Result<(), TestCaseError> {
    let report = search(space, targets, top).expect("valid space");
    let (scanned, feasible, candidates) = reference(space, targets, top);
    prop_assert_eq!(report.scanned, scanned, "scanned differs for {:?}", space);
    prop_assert_eq!(report.feasible, feasible, "feasible differs for {:?}", space);
    prop_assert!(report.evaluated <= report.scanned);
    prop_assert_eq!(report.candidates.len(), candidates.len(), "short list {:?}", space);
    for (got, want) in report.candidates.iter().zip(&candidates) {
        prop_assert!(
            same_candidate(got, want),
            "candidate differs for {:?} top {}:\n  incremental {:?}\n  reference   {:?}",
            space,
            top,
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn incremental_search_matches_the_naive_reference(
        (protocol, draws, demand) in (
            prop::sample::select(Protocol::ALL.to_vec()),
            prop::collection::vec(master_draw(), 1..=6),
            prop::sample::select(DEMANDS.to_vec()),
        ),
        targets in prop::collection::vec(target_draw(), 1..4),
        bursts in prop::collection::vec(prop::sample::select(vec![1u32, 4, 8, 16, 64]), 1..=3),
        load_scales in prop::collection::vec(
            prop::sample::select(vec![0.0, 0.5, 1.0, 1.0 + 1e-7, 2.0]),
            1..=3,
        ),
        knobs in (1..30u32, 1..17u32, 1..8u32),
        top in prop::sample::select(vec![0usize, 1, 8]),
    ) {
        let targets = targets_of(targets, draws.len());
        let space = space_of(protocol, &draws, demand, bursts, load_scales, knobs);
        check(&space, &targets, top)?;
    }

    /// Short lists of every length over the protocols whose shapes fold
    /// many weight vectors together at identical margins (priority
    /// ranks, clamped DRR quanta), so same-shape replacements and
    /// worst-candidate evictions happen often.
    #[test]
    fn short_list_churn_matches_the_naive_reference(
        (protocol, draws, demand) in (
            prop::sample::select(vec![
                Protocol::StaticPriority,
                Protocol::DeficitRoundRobin,
                Protocol::LotteryStatic,
            ]),
            prop::collection::vec(master_draw(), 2..=4),
            prop::sample::select(DEMANDS.to_vec()),
        ),
        targets in prop::collection::vec(target_draw(), 1..3),
        burst in prop::sample::select(vec![4u32, 8, 16]),
        knobs in (4..10u32, 1..9u32),
        top in 1..=8usize,
    ) {
        let targets = targets_of(targets, draws.len());
        let (max_tickets, drr_quantum) = knobs;
        let knobs = (max_tickets, drr_quantum, 1);
        let space = space_of(protocol, &draws, demand, vec![burst], vec![1.0], knobs);
        check(&space, &targets, top)?;
    }
}

/// The reuse paths must fire on the cells they were built for, or the
/// property above would only ever exercise the per-point pass.
#[test]
fn reuse_fires_where_weights_cannot_matter() {
    let traffic = vec![TrafficInput { lambda: 0.01, size: SizeDist::fixed(16), stall: None }; 4];
    for protocol in [Protocol::LotteryStatic, Protocol::DeficitRoundRobin, Protocol::RoundRobin] {
        let mut space = SearchSpace::new(protocol, BusConfig::default(), traffic.clone());
        space.max_tickets = 6;
        let targets = [SlaTarget { master: 0, kind: TargetKind::MinShare(0.1) }];
        let report = search(&space, &targets, 8).expect("valid space");
        assert_eq!(report.weight_free_cells, 1, "{protocol}");
        assert_eq!(report.evaluated, 1, "{protocol}");
        assert_eq!(report.scanned, 1296, "{protocol}");
    }
    // The same loads on a TDMA bus still depend on the frame layout.
    let mut space = SearchSpace::new(Protocol::Tdma2Level, BusConfig::default(), traffic);
    space.max_tickets = 6;
    let report = search(&space, &[], 1).expect("valid space");
    assert_eq!(report.weight_free_cells, 0);
    assert_eq!(report.evaluated, report.scanned);
}
