//! The four workloads: seeded input generation, the item each one
//! times, and the exactness check each item's output must pass.
//!
//! An item is one call into a public entry point of the program:
//! `experiments::fleet::run_systems_fleet` for the two sweeps,
//! `scenario::run_scenario` for the scenario library and
//! `lotterybus_cli::search_cmd::run_search_command` for design search.
//! Kernels are always chosen by name through `Kernel::parse`, and
//! arbiters by protocol name, so renaming an enum variant does not
//! touch the benchmark.

use crate::util::{Json, Rng};
use analytic::{Protocol, SystemModel};
use arbiters::{
    ArbiterKind, DeficitRoundRobinArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
    WheelLayout,
};
use experiments::common::{permutations, run_system};
use experiments::fleet::{run_systems_fleet, FleetJob};
use experiments::RunSettings;
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter, TicketAssignment};
use scenario::{run_scenario, Expectation, Outcome, Scenario};
use socsim::{BusConfig, BusStats, Kernel, MasterId};
use std::path::{Path, PathBuf};
use traffic_gen::{ArrivalSpec, GeneratorSpec, SizeDist, TrafficClass};

/// The six arbitration protocols every sweep covers.
pub const PROTOCOLS: [&str; 6] =
    ["static-priority", "round-robin", "deficit-rr", "tdma", "lottery-static", "lottery-dynamic"];

/// TDMA slots per weight unit, matching the paper-class frame.
const TDMA_BLOCK: u32 = 6;

/// Seed of the sweeps' model-accuracy runs.
const ACCURACY_SEED: u64 = 0xC0FFEE;

/// Deficit round-robin quantum unit in words.
const DRR_QUANTUM: u32 = 8;

/// The library scenarios whose SLA block is feasible: `search`
/// confirms at least one candidate for each at the library's own seed.
/// `arbiter-handoff-tdma` scans feasible points too, but its sim-only
/// starvation SLA rejects every TDMA candidate, so it is not a
/// feasible query.
pub const SEARCH_QUERIES: [&str; 10] = [
    "atm-burst",
    "baseline-fairness",
    "bridge-congestion",
    "degraded-mode",
    "grant-glitches",
    "lottery-no-starvation",
    "mixed-criticality",
    "multi-tenant-isolation",
    "search-tuned",
    "token-fairness",
];

/// The middle budget, used by the traced run's search probe.
pub const SEARCH_POINTS: u64 = 250_000;

/// The kernel named `name`.
///
/// # Panics
///
/// Panics if the simulator does not know the name.
pub fn kernel(name: &str) -> Kernel {
    Kernel::parse(name).unwrap_or_else(|| panic!("the simulator has no kernel named {name:?}"))
}

/// Builds the arbiter of `protocol` for weights `weights` (tickets,
/// priorities, TDMA slot blocks or DRR quanta).
///
/// # Panics
///
/// Panics on an unknown protocol or invalid weights.
pub fn arbiter(protocol: &str, weights: &[u32], seed: u64) -> ArbiterKind {
    let tickets = || TicketAssignment::new(weights.to_vec()).expect("valid tickets");
    let seed = seed as u32 | 1;
    match protocol {
        "static-priority" => StaticPriorityArbiter::new(weights.to_vec()).expect("valid").into(),
        "round-robin" => RoundRobinArbiter::new(weights.len()).expect("valid").into(),
        "deficit-rr" => DeficitRoundRobinArbiter::new(weights, DRR_QUANTUM).expect("valid").into(),
        "tdma" => {
            let slots: Vec<u32> = weights.iter().map(|w| w * TDMA_BLOCK).collect();
            TdmaArbiter::new(&slots, WheelLayout::Contiguous).expect("valid").into()
        }
        "lottery-static" => StaticLotteryArbiter::with_seed(tickets(), seed).expect("valid").into(),
        "lottery-dynamic" => {
            DynamicLotteryArbiter::with_seed(tickets(), seed).expect("valid").into()
        }
        other => panic!("unknown protocol {other:?}"),
    }
}

/// One simulated system of a sweep: per-master traffic and an arbiter
/// given by protocol name and weights.
#[derive(Debug, Clone)]
pub struct SystemDef {
    /// Per-master traffic.
    pub specs: Vec<GeneratorSpec>,
    /// Protocol name (one of [`PROTOCOLS`]).
    pub protocol: &'static str,
    /// Tickets, priorities or slot weights.
    pub weights: Vec<u32>,
    /// Paper class, when the system comes from one.
    pub class: Option<TrafficClass>,
}

impl SystemDef {
    /// The fleet job of this system.
    pub fn job(&self, settings: &RunSettings) -> FleetJob {
        (self.specs.clone(), arbiter(self.protocol, &self.weights, settings.seed))
    }

    /// Whether every source is a catch-up arrival process (periodic or
    /// on-off), the traffic on which tenure batching is exact.
    pub fn catch_up_only(&self) -> bool {
        self.specs.iter().all(|s| !matches!(s.arrival, ArrivalSpec::Bernoulli { .. }))
    }

    /// Largest absolute difference between the analytic model's share
    /// prediction and the simulated share of any master.
    pub fn model_share_err(&self, bus: &BusConfig, stats: &BusStats) -> f64 {
        let protocol = Protocol::parse(self.protocol).expect("analytic model covers the protocol");
        let model = SystemModel::from_specs(protocol, &self.specs, &self.weights, bus)
            .with_tdma_block(TDMA_BLOCK)
            .with_drr_quantum(DRR_QUANTUM);
        model
            .predict()
            .masters
            .iter()
            .enumerate()
            .map(|(i, p)| (p.share - stats.bandwidth_fraction(MasterId::new(i))).abs())
            .fold(0.0, f64::max)
    }
}

/// A workload's timed call, split so that input preparation stays
/// outside the timer.
pub trait Workload {
    /// What one item consumes.
    type In;
    /// What one item returns; equal inputs must give equal outputs.
    type Out: PartialEq;
    /// Workload name.
    fn name(&self) -> &'static str;
    /// Span name of the timed call.
    fn span(&self) -> &'static str;
    /// Number of distinct items; the run cycles through them.
    fn kinds(&self) -> usize;
    /// Human-readable name of item `k`.
    fn label(&self, k: usize) -> String;
    /// Prepares item `k` (untimed).
    fn prepare(&self, k: usize) -> Self::In;
    /// The timed call into the program.
    fn call(&self, input: Self::In) -> Result<Self::Out, String>;
    /// Checks the first output of item `k` against the reference
    /// (untimed). Returns the first mismatch found.
    fn verify(&self, k: usize, out: &Self::Out) -> Result<(), String>;
    /// Simulated bus cycles the item ran, summed over systems.
    fn cycles(&self, k: usize, out: &Self::Out) -> u64;
    /// The analytic model's share error on this item, if the item's
    /// systems have a model prediction.
    fn model_err(&self, k: usize, out: &Self::Out) -> Option<f64>;
}

/// One sweep item: a list of systems run as one fleet call.
#[derive(Debug, Clone)]
pub struct SweepItem {
    /// Human-readable label.
    pub label: String,
    /// The systems, one fleet lane each.
    pub systems: Vec<SystemDef>,
    /// Lanes checked against a scalar cycle-kernel run.
    pub check_lanes: Vec<usize>,
}

/// A sweep workload: items of `run_systems_fleet` calls.
pub struct Sweep {
    /// `sweep-saturated` or `paper-classes`.
    pub name: &'static str,
    /// Window, seed and bus of every item.
    pub settings: RunSettings,
    /// The distinct items.
    pub items: Vec<SweepItem>,
}

/// Run settings for a sweep under the kernel named `cycle`.
fn sweep_settings(seed: u64, warmup: u64, measure: u64, bus: BusConfig) -> RunSettings {
    RunSettings {
        warmup,
        measure,
        seed,
        bus,
        jobs: 1,
        metrics_window: None,
        kernel: kernel("cycle"),
    }
}

/// Four masters, each offering 0.2625 of the bus in on-off bursts of
/// six messages, of 16, 32, 48 and 64 words: 1.05 in all, so the bus
/// never idles once queues form and no source polls between bursts.
/// Fixed sizes keep every run's backlogs, and so its memory, alike.
pub fn saturating_specs() -> Vec<GeneratorSpec> {
    (0..4u64)
        .map(|i| {
            let words = 16 * (i + 1);
            let period = (6.0 * words as f64 / 0.2625).round() as u64;
            GeneratorSpec::bursty(
                6,
                6,
                0,
                period - 1,
                period - 1,
                period * i / 4,
                SizeDist::fixed(words as u32),
            )
        })
        .collect()
}

/// Lanes per sweep item: the 24 permutations of the 1:2:3:4 weights.
pub const PERMUTATIONS: usize = 24;

/// The sweep items of one traffic mix: one per protocol, each a fleet
/// call over every weight permutation, with `checks` seeded lanes
/// checked against the scalar cycle kernel.
fn sweep_items(
    label: &str,
    specs: impl Fn(&[u32]) -> Vec<GeneratorSpec>,
    class: Option<TrafficClass>,
    checks: usize,
    rng: &mut Rng,
) -> Vec<SweepItem> {
    PROTOCOLS
        .iter()
        .map(|&protocol| {
            let systems = permutations(4)
                .into_iter()
                .map(|weights| SystemDef { specs: specs(&weights), protocol, weights, class })
                .collect();
            let check_lanes = rng.permutation(PERMUTATIONS).into_iter().take(checks).collect();
            SweepItem { label: format!("{label}/{protocol}"), systems, check_lanes }
        })
        .collect()
}

impl Sweep {
    /// `sweep-saturated`: one item per protocol, each a sweep over
    /// every permutation of the 1:2:3:4 weights with saturating traffic.
    pub fn saturated(seed: u64) -> Sweep {
        let bus = BusConfig { max_burst: 64, ..BusConfig::new() };
        let settings = sweep_settings(seed, 5_000, 100_000, bus);
        let mut rng = Rng::new(seed, 11);
        let specs = saturating_specs();
        let items = sweep_items("saturated", |_| specs.clone(), None, 2, &mut rng);
        Sweep { name: "sweep-saturated", settings, items }
    }

    /// `paper-classes`: one item per traffic class and protocol, each a
    /// sweep over every weight permutation (the class's load split
    /// follows the same weights as the arbiter).
    pub fn paper_classes(seed: u64) -> Sweep {
        let settings = sweep_settings(seed, 2_000, 20_000, BusConfig::new());
        let mut rng = Rng::new(seed, 12);
        let items = TrafficClass::all()
            .into_iter()
            .flat_map(|class| {
                sweep_items(&class.to_string(), |w| class.specs(w), Some(class), 1, &mut rng)
            })
            .collect();
        Sweep { name: "paper-classes", settings, items }
    }

    /// Builds every item's fleet jobs once, as a timed call would.
    pub fn build_all_jobs(&self) {
        for item in &self.items {
            std::hint::black_box(self.prepare_item(item));
        }
    }

    fn prepare_item(&self, item: &SweepItem) -> Vec<FleetJob> {
        item.systems.iter().map(|s| s.job(&self.settings)).collect()
    }
}

impl Workload for Sweep {
    type In = Vec<FleetJob>;
    type Out = Vec<BusStats>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn span(&self) -> &'static str {
        "experiments.run_systems_fleet"
    }

    fn kinds(&self) -> usize {
        self.items.len()
    }

    fn label(&self, k: usize) -> String {
        self.items[k].label.clone()
    }

    fn prepare(&self, k: usize) -> Vec<FleetJob> {
        self.prepare_item(&self.items[k])
    }

    fn call(&self, jobs: Vec<FleetJob>) -> Result<Vec<BusStats>, String> {
        Ok(run_systems_fleet(jobs, &self.settings))
    }

    fn verify(&self, k: usize, out: &Vec<BusStats>) -> Result<(), String> {
        let item = &self.items[k];
        if out.len() != item.systems.len() {
            return Err(format!(
                "{}: {} lanes returned for {}",
                item.label,
                out.len(),
                item.systems.len()
            ));
        }
        for &lane in &item.check_lanes {
            let sys = &item.systems[lane];
            let reference = run_system(
                &sys.specs,
                arbiter(sys.protocol, &sys.weights, self.settings.seed),
                &self.settings.with_kernel(kernel("cycle")),
            );
            if reference != out[lane] {
                return Err(format!(
                    "{} lane {lane} ({:?}): fleet stats differ from the cycle kernel",
                    item.label, sys.weights
                ));
            }
        }
        Ok(())
    }

    fn cycles(&self, k: usize, _: &Vec<BusStats>) -> u64 {
        self.items[k].systems.len() as u64 * (self.settings.warmup + self.settings.measure)
    }

    /// The model's share error on the item's lane with the unpermuted
    /// 1:2:3:4 weights, simulated over a
    /// long window at a fixed seed: the item's own short window puts
    /// enough sampling noise into the shares to drown the model's
    /// error, and a fixed seed makes the figure move only when the
    /// model or the simulator does.
    fn model_err(&self, k: usize, _: &Vec<BusStats>) -> Option<f64> {
        let settings = RunSettings { measure: 200_000, seed: ACCURACY_SEED, ..self.settings };
        self.items[k]
            .systems
            .iter()
            .filter(|sys| sys.weights == [1, 2, 3, 4])
            .map(|sys| {
                let stats = run_system(
                    &sys.specs,
                    arbiter(sys.protocol, &sys.weights, settings.seed),
                    &settings,
                );
                sys.model_share_err(&settings.bus, &stats)
            })
            .reduce(f64::max)
    }
}

/// Reads the library's `.scenario` files in name order.
pub fn read_library(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let name = p.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            std::fs::read_to_string(p)
                .map(|text| (name, text))
                .map_err(|e| format!("cannot read {}: {e}", p.display()))
        })
        .collect()
}

/// One scenario instance of the library workload.
pub struct ScenarioItem {
    /// The parsed scenario (seed possibly re-drawn).
    pub scenario: Scenario,
    /// Whether this is the library's own seed, where `expect` holds.
    pub library_seed: bool,
}

/// `scenario-library`: every library scenario at its own seed and at
/// seed-derived seeds, run under the kernel named `tlm`.
pub struct Library {
    /// The distinct items.
    pub items: Vec<ScenarioItem>,
    kernel: Kernel,
}

/// Seed-derived variants per library scenario, besides its own seed.
const LIBRARY_VARIANTS: usize = 2;

impl Library {
    /// Parses the library in `dir` and derives the seeded variants.
    pub fn load(dir: &Path, seed: u64) -> Result<Library, String> {
        let mut rng = Rng::new(seed, 13);
        let mut items = Vec::new();
        for (name, text) in read_library(dir)? {
            let sc = Scenario::parse(&text).map_err(|e| format!("{name}: {e}"))?;
            for v in 0..=LIBRARY_VARIANTS {
                let mut scenario = sc.clone();
                if v > 0 {
                    scenario.seed = rng.next_u64() >> 16;
                }
                items.push(ScenarioItem { scenario, library_seed: v == 0 });
            }
        }
        if items.is_empty() {
            return Err(format!("no .scenario files in {}", dir.display()));
        }
        Ok(Library { items, kernel: kernel("tlm") })
    }
}

/// Whole-run bandwidth share per master from a verdict's phases.
pub fn whole_run_shares(outcome: &Outcome) -> Vec<f64> {
    let total: u64 = outcome.phases.iter().map(|p| p.cycles).sum();
    let n = outcome.phases.first().map_or(0, |p| p.shares.len());
    (0..n)
        .map(|i| {
            let words: f64 = outcome.phases.iter().map(|p| p.shares[i] * p.cycles as f64).sum();
            if total == 0 {
                0.0
            } else {
                words / total as f64
            }
        })
        .collect()
}

/// The analytic model of a scenario at its base load: each master a
/// Bernoulli stream at its long-run rate, stalled by its slave's wait
/// states (the mapping the `search` command scans).
pub fn scenario_model(sc: &Scenario) -> Option<SystemModel> {
    let protocol = Protocol::parse(sc.arbiter.keyword())?;
    let bus = BusConfig { max_burst: sc.burst, ..BusConfig::new() };
    let masters = sc
        .masters
        .iter()
        .map(|m| {
            let wait = sc.slaves.get(m.slave).map_or(0, |s| s.wait);
            analytic::MasterModel::new(
                (m.load / f64::from(m.size)).min(1.0),
                SizeDist::fixed(m.size),
                m.weight,
                bus.grant_stall(wait),
                sc.burst,
            )
        })
        .collect();
    Some(SystemModel::new(protocol, masters).with_tdma_block(sc.tdma_block))
}

impl Workload for Library {
    type In = usize;
    type Out = Outcome;

    fn name(&self) -> &'static str {
        "scenario-library"
    }

    fn span(&self) -> &'static str {
        "scenario.run_scenario"
    }

    fn kinds(&self) -> usize {
        self.items.len()
    }

    fn label(&self, k: usize) -> String {
        let item = &self.items[k];
        format!("{}@{}", item.scenario.name, item.scenario.seed)
    }

    fn prepare(&self, k: usize) -> usize {
        k
    }

    fn call(&self, k: usize) -> Result<Outcome, String> {
        run_scenario(&self.items[k].scenario, self.kernel)
    }

    fn verify(&self, k: usize, out: &Outcome) -> Result<(), String> {
        let item = &self.items[k];
        let name = &item.scenario.name;
        let reference = run_scenario(&item.scenario, kernel("cycle"))?;
        if reference.to_json().render() != out.to_json().render() {
            return Err(format!(
                "{name} seed {}: verdict differs from the cycle kernel",
                item.scenario.seed
            ));
        }
        if item.library_seed && !out.as_expected() {
            let expected = if out.expected == Expectation::Pass { "pass" } else { "fail" };
            return Err(format!("{name}: verdict does not match `expect = {expected}`"));
        }
        Ok(())
    }

    fn cycles(&self, k: usize, _: &Outcome) -> u64 {
        self.items[k].scenario.total_cycles()
    }

    fn model_err(&self, k: usize, out: &Outcome) -> Option<f64> {
        let item = &self.items[k];
        if !item.library_seed {
            return None;
        }
        let predicted = scenario_model(&item.scenario)?.predict();
        Some(
            predicted
                .masters
                .iter()
                .zip(whole_run_shares(out))
                .map(|(p, m)| (p.share - m).abs())
                .fold(0.0, f64::max),
        )
    }
}

/// One design-search query.
pub struct Query {
    /// Scenario name.
    pub name: String,
    /// Where the query file was written.
    pub path: PathBuf,
    /// The parsed scenario.
    pub scenario: Scenario,
}

/// `design-search`: `search` over the feasible library queries.
pub struct Search {
    /// The distinct items.
    pub queries: Vec<Query>,
}

/// What one search call reported.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOut {
    /// The command's stdout payload.
    pub stdout: String,
    /// Whether the command reported success.
    pub ok: bool,
}

impl SearchOut {
    fn json(&self) -> Result<Json, String> {
        Json::parse(&self.stdout)
    }
}

impl Search {
    /// Reads the queries from the library in `dir` and writes them to
    /// `work` for the command to read, unless an identical copy is
    /// already there.
    pub fn load(dir: &Path, work: &Path) -> Result<Search, String> {
        std::fs::create_dir_all(work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        let mut queries = Vec::new();
        for name in SEARCH_QUERIES {
            let source = dir.join(format!("{name}.scenario"));
            let text = std::fs::read_to_string(&source)
                .map_err(|e| format!("cannot read {}: {e}", source.display()))?;
            let scenario = Scenario::parse(&text).map_err(|e| format!("{name}: {e}"))?;
            let path = work.join(format!("{name}.scenario"));
            if std::fs::read_to_string(&path).ok().as_deref() != Some(text.as_str()) {
                std::fs::write(&path, &text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            queries.push(Query { name: name.to_owned(), path, scenario });
        }
        Ok(Search { queries })
    }

    /// Query index and point budget of item `k`: one item per query,
    /// with budgets spread evenly over 150k to 350k design points.
    fn item(&self, k: usize) -> (usize, u64) {
        (k, 150_000 + 200_000 * k as u64 / self.queries.len() as u64)
    }

    /// Runs the search command on query `q` over `points` design points
    /// with the kernel named `kernel_name` for confirmation.
    pub fn run(&self, q: usize, points: u64, kernel_name: &str) -> Result<SearchOut, String> {
        let args: Vec<String> = vec![
            self.queries[q].path.to_string_lossy().into_owned(),
            "--points".into(),
            points.to_string(),
            "--kernel".into(),
            kernel_name.into(),
        ];
        lotterybus_cli::search_cmd::run_search_command(&args)
            .map(|(stdout, ok)| SearchOut { stdout, ok })
            .map_err(|e| e.message().to_owned())
    }
}

impl Workload for Search {
    type In = usize;
    type Out = SearchOut;

    fn name(&self) -> &'static str {
        "design-search"
    }

    fn span(&self) -> &'static str {
        "cli.run_search_command"
    }

    fn kinds(&self) -> usize {
        self.queries.len()
    }

    fn label(&self, k: usize) -> String {
        let (q, points) = self.item(k);
        format!("{}@{points}", self.queries[q].name)
    }

    fn prepare(&self, k: usize) -> usize {
        k
    }

    fn call(&self, k: usize) -> Result<SearchOut, String> {
        let (q, points) = self.item(k);
        self.run(q, points, "cycle")
    }

    fn verify(&self, k: usize, out: &SearchOut) -> Result<(), String> {
        let (q, points) = self.item(k);
        let name = &self.label(k);
        let json = out.json().map_err(|e| format!("{name}: unreadable search output: {e}"))?;
        let confirmed = json.get("confirmed").and_then(Json::num).unwrap_or(0.0);
        if !out.ok || confirmed < 1.0 {
            return Err(format!("{name}: feasible query confirmed no candidate"));
        }
        let other = self.run(q, points, "tlm")?;
        if other != *out {
            return Err(format!("{name}: search output depends on the confirmation kernel"));
        }
        Ok(())
    }

    fn cycles(&self, k: usize, out: &SearchOut) -> u64 {
        let simulated = out.json().ok().and_then(|j| j.get("simulated").and_then(Json::num));
        simulated.unwrap_or(0.0) as u64 * self.queries[self.item(k).0].scenario.total_cycles()
    }

    fn model_err(&self, _: usize, out: &SearchOut) -> Option<f64> {
        let json = out.json().ok()?;
        json.get("candidates")?
            .arr()
            .iter()
            .filter(|c| c.get("confirmed") == Some(&Json::Bool(true)))
            .filter_map(|c| c.get("share_error").and_then(Json::num))
            .reduce(f64::max)
    }
}
