//! Property tests for [`Fleet`], which runs its lanes under the event
//! kernel.
//!
//! Random heterogeneous lane packs — protocol, master count, ticket
//! spread, seeds, and traffic shapes all drawn independently per lane —
//! must be *lane-exact*: every lane's statistics identical to the same
//! system run solo through the cycle kernel. Two structural properties
//! ride along: a one-lane fleet degenerates to the solo cycle-kernel
//! run, and lane order is irrelevant (lanes never interact, so packing
//! order changes nothing).

use lotterybus_repro::arbiters::{
    ArbiterKind, DeficitRoundRobinArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
    WheelLayout,
};
use lotterybus_repro::lottery::{StaticLotteryArbiter, TicketAssignment};
use lotterybus_repro::socsim::{BusConfig, BusStats, Fleet, Kernel, LaneBuilder, SystemBuilder};
use lotterybus_repro::traffic::{GeneratorSpec, SaturateSource, SizeDist, SourceKind};
use proptest::prelude::*;

const WARMUP: u64 = 200;
const MEASURE: u64 = 3_000;

/// One randomized master's traffic shape.
#[derive(Debug, Clone, Copy)]
enum SourceShape {
    Periodic { period: u64, phase: u64, words: u32 },
    Poisson { rate_millis: u32, words: u32 },
    Saturate { words: u32 },
}

impl SourceShape {
    fn build(self, seed: u64) -> SourceKind {
        match self {
            SourceShape::Periodic { period, phase, words } => {
                GeneratorSpec::periodic(period, phase, SizeDist::fixed(words)).build_kind(seed)
            }
            SourceShape::Poisson { rate_millis, words } => {
                GeneratorSpec::poisson(f64::from(rate_millis) / 1000.0, SizeDist::fixed(words))
                    .build_kind(seed)
            }
            SourceShape::Saturate { words } => SourceKind::from(SaturateSource::new(0, words)),
        }
    }
}

fn source_shape() -> impl Strategy<Value = SourceShape> {
    prop_oneof![
        (10u64..200, 0u64..50, 1u32..24).prop_map(|(period, phase, words)| SourceShape::Periodic {
            period,
            phase,
            words
        }),
        (1u32..200, 1u32..24)
            .prop_map(|(rate_millis, words)| SourceShape::Poisson { rate_millis, words }),
        (1u32..24).prop_map(|words| SourceShape::Saturate { words }),
    ]
}

/// Everything needed to build one lane twice: once into a fleet, once
/// as a solo cycle-kernel system. Master count is `tickets.len()`.
#[derive(Debug, Clone)]
struct LaneRecipe {
    protocol: usize,
    tickets: Vec<u32>,
    seed: u64,
    shapes: Vec<SourceShape>,
}

impl LaneRecipe {
    fn arbiter(&self) -> ArbiterKind {
        let masters = self.tickets.len();
        match self.protocol {
            0 => StaticLotteryArbiter::with_seed(
                TicketAssignment::new(self.tickets.clone()).expect("tickets are nonzero"),
                self.seed as u32 | 1,
            )
            .expect("small LUT fits")
            .into(),
            1 => RoundRobinArbiter::new(masters).expect("valid").into(),
            // Priorities must be unique; the offset keeps the random
            // ticket spread (< 16) while de-duplicating across masters.
            2 => {
                let priorities =
                    self.tickets.iter().enumerate().map(|(i, &t)| t + 16 * i as u32).collect();
                StaticPriorityArbiter::new(priorities).expect("valid").into()
            }
            3 => DeficitRoundRobinArbiter::new(&self.tickets, 8).expect("valid").into(),
            _ => TdmaArbiter::new(&self.tickets, WheelLayout::Interleaved).expect("valid").into(),
        }
    }

    fn master_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_add(i as u64 * 0x9E37_79B9)
    }

    fn lane(&self) -> LaneBuilder<ArbiterKind, SourceKind> {
        let mut lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(BusConfig::default());
        for (i, shape) in self.shapes.iter().enumerate() {
            lane = lane.master(format!("M{}", i + 1), shape.build(self.master_seed(i)));
        }
        lane.arbiter(self.arbiter())
    }

    fn solo(&self) -> BusStats {
        let mut builder: SystemBuilder<ArbiterKind, SourceKind> =
            SystemBuilder::new(BusConfig::default()).kernel(Kernel::Cycle);
        for (i, shape) in self.shapes.iter().enumerate() {
            builder = builder.master(format!("M{}", i + 1), shape.build(self.master_seed(i)));
        }
        let mut system = builder.arbiter(self.arbiter()).build().expect("valid random system");
        system.warm_up(WARMUP);
        system.run(MEASURE);
        system.stats().clone()
    }
}

fn lane_recipe() -> impl Strategy<Value = LaneRecipe> {
    // The vendored proptest has no flat-map: draw tickets and shapes at
    // the maximum width and truncate both to the drawn master count.
    (
        0usize..5,
        1usize..=4,
        0u64..u64::MAX,
        proptest::collection::vec(1u32..9, 4usize..=4),
        proptest::collection::vec(source_shape(), 4usize..=4),
    )
        .prop_map(|(protocol, masters, seed, mut tickets, mut shapes)| {
            tickets.truncate(masters);
            shapes.truncate(masters);
            LaneRecipe { protocol, tickets, seed, shapes }
        })
}

fn run_pack(recipes: &[LaneRecipe]) -> Vec<BusStats> {
    let mut fleet =
        Fleet::build(recipes.iter().map(LaneRecipe::lane).collect()).expect("valid lanes");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    (0..fleet.len()).map(|i| fleet.stats(i).clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Heterogeneous random packs: every lane equals its solo run.
    #[test]
    fn random_lane_packs_are_lane_exact(
        recipes in proptest::collection::vec(lane_recipe(), 2..6),
    ) {
        let packed = run_pack(&recipes);
        for (i, (recipe, lane_stats)) in recipes.iter().zip(&packed).enumerate() {
            let solo = recipe.solo();
            prop_assert_eq!(
                lane_stats, &solo,
                "lane {} ({:?} protocol {}) diverged from its solo cycle-kernel run",
                i, recipe.shapes, recipe.protocol
            );
        }
    }

    /// A fleet of one lane equals its solo cycle-kernel run.
    #[test]
    fn single_lane_fleet_degenerates_to_scalar(recipe in lane_recipe()) {
        let packed = run_pack(std::slice::from_ref(&recipe));
        prop_assert_eq!(&packed[0], &recipe.solo());
    }

    /// Lane order is irrelevant: shuffling the pack permutes the
    /// outputs and changes nothing else.
    #[test]
    fn lane_order_is_irrelevant(
        recipes in proptest::collection::vec(lane_recipe(), 2..6),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let perm = permutation(recipes.len(), shuffle_seed);
        let in_order = run_pack(&recipes);
        let shuffled_recipes: Vec<LaneRecipe> =
            perm.iter().map(|&i| recipes[i].clone()).collect();
        let shuffled = run_pack(&shuffled_recipes);
        for (j, &i) in perm.iter().enumerate() {
            prop_assert_eq!(
                &shuffled[j], &in_order[i],
                "lane moved from slot {} to slot {} and changed its result", i, j
            );
        }
    }
}

/// Fisher–Yates permutation of `0..n` from a splitmix-stepped seed
/// (the vendored proptest has no shuffle strategy).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        indices.swap(i, j);
    }
    indices
}
