//! The traced run's layer measurements.
//!
//! Every function here calls a layer's public functions from the
//! benchmark's side, inside [`Tracer`] spans, and derives per-layer
//! metrics from those spans. The simulator ladder runs the same
//! systems rung by rung — cycle kernel, idle skip, tenure batching, a
//! one-lane fleet, lane packing, worker threads — and checks that every
//! rung's statistics equal the cycle rung's; a mismatch is a failure.

use crate::trace::Tracer;
use crate::util::{median, quantile, quartiles, Rng};
use crate::workloads::{
    arbiter, kernel, scenario_model, Library, Search, Sweep, SystemDef, PERMUTATIONS, PROTOCOLS,
    SEARCH_POINTS,
};
use analytic::{search, Scratch, SearchSpace, SlaTarget, TargetKind, TrafficInput};
use arbiters::ArbiterKind;
use experiments::fleet::run_systems_fleet;
use experiments::RunSettings;
use scenario::{build_arbiter, run_scenario, PhasedSource, Scenario, SlaKind};
use socsim::fleet::{Fleet, LaneBuilder};
use socsim::{
    Arbiter, BusConfig, BusStats, Cycle, FaultConfig, MasterId, RequestMap, Slave, SlaveId, System,
    SystemBuilder, TrafficSource,
};
use std::hint::black_box;
use std::time::Instant;
use traffic_gen::{GeneratorSpec, SaturateSource, SizeDist, SourceKind, TrafficClass};

/// Repetitions of every timed probe; medians and quartiles are over
/// these.
pub const REPS: u64 = 5;

/// Shortest wall time of one repetition; shorter work is repeated
/// within the repetition until it reaches this.
const MIN_REP_SECS: f64 = 0.2;

/// Per-layer results of the traced run.
#[derive(Default)]
pub struct Layers {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable detail lines.
    pub lines: Vec<String>,
    /// Checks made.
    pub attempted: u64,
    /// Failed checks, described.
    pub failures: Vec<String>,
}

impl Layers {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Median over repetitions of span `name`'s cost per unit, with
    /// the quartiles reported in a detail line.
    fn per_unit(
        &mut self,
        t: &Tracer,
        name: &str,
        metric: &str,
        scale: f64,
        unit: &'static str,
    ) -> f64 {
        let reps: Vec<f64> =
            (0..REPS).filter_map(|rep| t.ns_per_unit(name, rep)).map(|v| v * scale).collect();
        let (q1, m, q3) = quartiles(&reps);
        self.lines
            .push(format!("{metric} {m:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, {} reps)", reps.len()));
        self.metric(metric, m, unit);
        m
    }
}

/// Shortest wall time of one repetition of a micro-probe (one call
/// into a layer in a tight loop).
const MIN_PROBE_SECS: f64 = 0.05;

/// Runs `pass` at least once and until [`MIN_REP_SECS`] have passed.
fn repeat_for_min(pass: impl FnMut(usize)) {
    repeat_for(MIN_REP_SECS, pass)
}

/// Runs `pass` at least once and until `secs` have passed.
fn repeat_for(secs: f64, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < secs {
        pass(i);
        i += 1;
    }
}

/// The systems the ladder runs: seeded lanes of every sweep item (one
/// protocol's permutations each), about 24 in all and at least one per
/// item, so every protocol and class appears.
pub fn ladder_systems(sweep: &Sweep, seed: u64) -> Vec<SystemDef> {
    let mut rng = Rng::new(seed, 21);
    let per_item = (PERMUTATIONS / sweep.items.len()).max(1);
    let mut systems = Vec::new();
    for item in &sweep.items {
        let picks = rng.permutation(item.systems.len());
        systems.extend(picks.into_iter().take(per_item).map(|i| item.systems[i].clone()));
    }
    systems
}

/// Window of the ladder's runs.
fn ladder_settings(sweep: &Sweep) -> RunSettings {
    RunSettings { warmup: 2_000, measure: 20_000, ..sweep.settings }
}

/// Builds the scalar system of `def` the way `run_systems_fleet` builds
/// its lane (master names, per-master seeds, bus).
fn build_system(
    def: &SystemDef,
    settings: &RunSettings,
    kernel_name: &str,
) -> System<ArbiterKind, SourceKind> {
    let mut builder = SystemBuilder::new(settings.bus).kernel(kernel(kernel_name));
    for (i, spec) in def.specs.iter().enumerate() {
        builder = builder.master(
            format!("C{}", i + 1),
            spec.build_kind(settings.seed.wrapping_add(i as u64 * 0x9E37_79B9)),
        );
    }
    builder
        .arbiter(arbiter(def.protocol, &def.weights, settings.seed))
        .build()
        .expect("valid system")
}

fn build_lane(def: &SystemDef, settings: &RunSettings) -> LaneBuilder<ArbiterKind, SourceKind> {
    let mut lane = LaneBuilder::new(settings.bus);
    for (i, spec) in def.specs.iter().enumerate() {
        lane = lane.master(
            format!("C{}", i + 1),
            spec.build_kind(settings.seed.wrapping_add(i as u64 * 0x9E37_79B9)),
        );
    }
    lane.arbiter(arbiter(def.protocol, &def.weights, settings.seed))
}

/// The simulator ladder over `systems`. The tenure-batching rung runs
/// only on the systems whose sources all catch up (periodic, on-off),
/// where it is exact.
pub fn ladder(t: &mut Tracer, out: &mut Layers, sweep: &Sweep, systems: &[SystemDef]) {
    let settings = ladder_settings(sweep);
    let cycles = settings.warmup + settings.measure;
    let mut reference: Vec<BusStats> = Vec::new();
    // Cycle-rung cost on the systems the tlm rung also runs, per rep.
    let mut catch_up_base = vec![(0u64, 0u64); REPS as usize];

    for rung in ["cycle", "fast", "tlm"] {
        let run_name = match rung {
            "cycle" => "sim.run.cycle",
            "fast" => "sim.run.fast",
            _ => "sim.run.tlm",
        };
        for rep in 0..REPS {
            repeat_for_min(|_| {
                for (i, def) in systems.iter().enumerate() {
                    if rung == "tlm" && !def.catch_up_only() {
                        continue;
                    }
                    let mut system =
                        t.span("sim.build", rep, |_| (build_system(def, &settings, rung), 1));
                    t.span(run_name, rep, |_| {
                        system.warm_up(settings.warmup);
                        system.run(settings.measure);
                        ((), cycles)
                    });
                    if rung == "cycle" && def.catch_up_only() {
                        let span = t.spans().last().expect("just recorded");
                        let base = &mut catch_up_base[rep as usize];
                        *base = (base.0 + span.dur_ns(), base.1 + span.count);
                    }
                    let stats = system.stats();
                    if reference.len() < systems.len() {
                        reference.push(stats.clone());
                    } else {
                        out.check(*stats == reference[i], || {
                            format!(
                                "rung {rung}: system {i} ({}) differs from the cycle rung",
                                def.protocol
                            )
                        });
                    }
                }
            });
        }
    }

    for rep in 0..REPS {
        repeat_for_min(|_| {
            for (i, def) in systems.iter().enumerate() {
                let mut fleet = t.span("sim.fleet_build", rep, |_| {
                    (Fleet::build(vec![build_lane(def, &settings)]).expect("valid lane"), 1)
                });
                t.span("sim.run.fleet1", rep, |_| {
                    fleet.warm_up(settings.warmup);
                    fleet.run(settings.measure);
                    ((), cycles)
                });
                out.check(*fleet.stats(0) == reference[i], || {
                    format!(
                        "rung fleet1: system {i} ({}) differs from the cycle rung",
                        def.protocol
                    )
                });
            }
        });
    }

    let lane_cycles = cycles * systems.len() as u64;
    for rep in 0..REPS {
        repeat_for_min(|_| {
            let jobs = systems.iter().map(|d| d.job(&settings)).collect();
            let stats = t
                .span("sim.rung.batch", rep, |_| (run_systems_fleet(jobs, &settings), lane_cycles));
            out.check(stats == reference, || "rung batch: lanes differ from the cycle rung".into());
        });
    }

    let workers = crate::util::nproc();
    let chunk = systems.len().div_ceil(workers);
    let chunks: Vec<&[SystemDef]> = systems.chunks(chunk).collect();
    let pool = |jobs: usize| {
        let s = settings.with_jobs(jobs);
        let parts = experiments::runner::map(&s, &chunks, |_, part: &&[SystemDef]| {
            run_systems_fleet(part.iter().map(|d| d.job(&s)).collect(), &s)
        });
        parts.into_iter().flatten().collect::<Vec<BusStats>>()
    };
    for rep in 0..REPS {
        repeat_for_min(|_| {
            let one = t.span("experiments.pool.jobs1", rep, |_| (pool(1), lane_cycles));
            let many = t.span("experiments.pool.jobsN", rep, |_| (pool(workers), lane_cycles));
            out.check(one == reference && many == reference, || {
                "rung pool: lanes differ from the cycle rung".into()
            });
        });
    }

    let tlm_systems = systems.iter().filter(|d| d.catch_up_only()).count();
    out.lines.push(format!(
        "ladder: {} systems of {} ({} with catch-up sources run the tlm rung), {} cycles each",
        systems.len(),
        sweep.name,
        tlm_systems,
        cycles
    ));
    let base = out.per_unit(t, "sim.run.cycle", "sim.ns_per_cycle.cycle", 1.0, "ns");
    for (span, metric) in [
        ("sim.run.fast", "sim.ns_per_cycle.fast"),
        ("sim.run.tlm", "sim.ns_per_cycle.tlm"),
        ("sim.run.fleet1", "sim.ns_per_cycle.fleet1"),
        ("sim.rung.batch", "sim.ns_per_cycle.batch"),
    ] {
        let v = out.per_unit(t, span, metric, 1.0, "ns");
        if span == "sim.run.tlm" {
            let subset: Vec<f64> = catch_up_base
                .iter()
                .filter(|b| b.1 > 0)
                .map(|&(ns, c)| ns as f64 / c as f64)
                .collect();
            out.lines.push(format!(
                "  {metric}: {:.2}x the cycle rung on the same systems",
                median(&subset) / v
            ));
        } else {
            out.lines.push(format!("  {metric}: {:.2}x the cycle rung", base / v));
        }
    }
    let speedups: Vec<f64> = (0..REPS)
        .filter_map(|rep| {
            Some(
                t.ns_per_unit("experiments.pool.jobs1", rep)?
                    / t.ns_per_unit("experiments.pool.jobsN", rep)?,
            )
        })
        .collect();
    let (q1, m, q3) = quartiles(&speedups);
    out.lines.push(format!(
        "experiments.pool_speedup {m:.4} (q1 {q1:.4}, q3 {q3:.4}) jobs={workers} vs jobs=1, {} chunks",
        chunks.len()
    ));
    out.metric("experiments.pool_speedup", m, "x");

    let total: u64 = reference.iter().map(|s| s.cycles).sum();
    let busy: u64 = reference.iter().map(|s| s.busy_cycles + s.stall_cycles).sum();
    let grants: u64 = reference.iter().map(|s| s.grants).sum();
    out.metric("sim.idle_frac", (total - busy) as f64 / total as f64, "ratio");
    out.metric("sim.cycles_per_grant", total as f64 / grants.max(1) as f64, "cycles");
}

/// The scenario's system assembled from the scenario crate's public
/// parts, with or without windowed metrics.
fn scenario_system(
    sc: &Scenario,
    metrics: bool,
) -> Result<System<ArbiterKind, PhasedSource>, String> {
    let config = BusConfig { max_burst: sc.burst, ..BusConfig::new() };
    let mut builder: SystemBuilder<ArbiterKind, PhasedSource> = SystemBuilder::new(config);
    for (i, s) in sc.slaves.iter().enumerate() {
        builder = builder.slave(Slave::with_wait_states(SlaveId::new(i), s.name.clone(), s.wait));
    }
    for (i, m) in sc.masters.iter().enumerate() {
        builder = builder.master(m.name.clone(), PhasedSource::build(i, m, &sc.phases, sc.seed));
    }
    if sc.fault.is_active() {
        builder = builder.faults(FaultConfig { seed: sc.seed, ..sc.fault });
    }
    if let Some(retry) = sc.retry {
        builder = builder.retry_policy(retry);
    }
    if let Some(timeout) = sc.timeout {
        builder = builder.timeout(timeout);
    }
    if metrics {
        builder = builder.metrics_window(sc.metrics_window);
    }
    builder.kernel(kernel("fast")).arbiter(build_arbiter(sc)?).build().map_err(|e| e.to_string())
}

/// Metrics on versus off over the library's systems, on the fastest
/// kernel that is exact for them (idle skip).
pub fn metrics_overhead(t: &mut Tracer, out: &mut Layers, lib: &Library) {
    let scenarios: Vec<&Scenario> =
        lib.items.iter().filter(|i| i.library_seed).map(|i| &i.scenario).collect();
    let mut reference: Vec<Option<BusStats>> = vec![None; scenarios.len()];
    for rep in 0..REPS {
        repeat_for_min(|_| {
            for (on, name) in [(false, "sim.run.metrics_off"), (true, "sim.run.metrics_on")] {
                for (i, sc) in scenarios.iter().enumerate() {
                    let built = t.span("sim.build", rep, |_| (scenario_system(sc, on), 1));
                    let mut system = match built {
                        Ok(s) => s,
                        Err(e) => {
                            out.check(false, || format!("{}: {e}", sc.name));
                            continue;
                        }
                    };
                    t.span(name, rep, |_| {
                        for phase in &sc.phases {
                            system.run(phase.duration);
                        }
                        ((), sc.total_cycles())
                    });
                    let stats = system.stats();
                    match &reference[i] {
                        None => reference[i] = Some(stats.clone()),
                        Some(r) => out.check(stats == r, || {
                            format!("{}: statistics change when metrics are on", sc.name)
                        }),
                    }
                }
            }
        });
    }
    let overheads: Vec<f64> = (0..REPS)
        .filter_map(|rep| {
            let on = t.ns_per_unit("sim.run.metrics_on", rep)?;
            let off = t.ns_per_unit("sim.run.metrics_off", rep)?;
            Some((on / off - 1.0) * 100.0)
        })
        .collect();
    let (q1, m, q3) = quartiles(&overheads);
    out.lines.push(format!(
        "sim.metrics_overhead_pct {m:.3} (q1 {q1:.3}, q3 {q3:.3}) over {} library systems, kernel fast",
        scenarios.len()
    ));
    out.metric("sim.metrics_overhead_pct", m, "%");
}

/// `|log2(t/c)|` of two latency figures; a master that completes
/// under one kernel but not the other scores 64.
fn log2_err(t: Option<f64>, c: Option<f64>) -> Option<f64> {
    match (t, c) {
        (Some(t), Some(c)) if t > 0.0 && c > 0.0 => Some((t / c).log2().abs()),
        (None, None) => None,
        (Some(a), Some(b)) if a == b => Some(0.0),
        _ => Some(64.0),
    }
}

/// The TLM accuracy ledger: the tenure-batching kernel against the
/// cycle kernel on the paper classes, per class.
pub fn tlm_ledger(out: &mut Layers, classes: &Sweep, seed: u64) {
    let settings = RunSettings { warmup: 2_000, measure: 50_000, ..classes.settings };
    let systems = ladder_systems(classes, seed);
    let mut all_lat = Vec::new();
    let mut worst_share = 0.0f64;
    for class in TrafficClass::all() {
        let mut share = 0.0f64;
        let mut lat = Vec::new();
        for def in systems.iter().filter(|d| d.class == Some(class)) {
            let run = |name: &str| {
                let mut s = build_system(def, &settings, name);
                s.warm_up(settings.warmup);
                s.run(settings.measure);
                s.stats().clone()
            };
            let (c, tl) = (run("cycle"), run("tlm"));
            for i in 0..def.specs.len() {
                let id = MasterId::new(i);
                share = share.max((tl.bandwidth_fraction(id) - c.bandwidth_fraction(id)).abs());
                let (mt, mc) = (tl.master(id), c.master(id));
                lat.extend(log2_err(mt.cycles_per_word(), mc.cycles_per_word()));
                for q in [0.5, 0.99] {
                    let f = |m: &socsim::MasterStats| m.latency_quantile(q).map(|v| v as f64);
                    lat.extend(log2_err(f(mt), f(mc)));
                }
            }
        }
        let lat99 = if lat.is_empty() { 0.0 } else { quantile(&lat, 0.99) };
        out.lines.push(format!(
            "tlm ledger {class}: share err {share:.5}, p99 |log2(t/c)| {lat99:.4} over {} latency figures",
            lat.len()
        ));
        out.metric(format!("sim.tlm_share_err.{class}"), share, "ratio");
        out.metric(format!("sim.tlm_latency_log2_err.{class}"), lat99, "log2");
        worst_share = worst_share.max(share);
        all_lat.extend(lat);
    }
    out.metric("sim.tlm_share_err", worst_share, "ratio");
    out.metric("sim.tlm_latency_log2_err", quantile(&all_lat, 0.99), "log2");
}

/// Polls four sources of one kind through a one-word-per-cycle port
/// model for `cycles` cycles. Returns (polls, arrivals).
fn poll_loop(sources: &mut [SourceKind], cycles: u64) -> (u64, u64) {
    let mut backlog = [0usize; 4];
    let mut words_left = 0u64;
    let mut next = 0usize;
    let mut arrivals = 0u64;
    for now in 0..cycles {
        let cycle = Cycle::new(now);
        for (j, source) in sources.iter_mut().enumerate() {
            if let Some(tx) = source.poll_with_backlog(cycle, backlog[j]) {
                black_box(tx.words());
                backlog[j] += 1;
                arrivals += 1;
            }
        }
        if words_left > 0 {
            words_left -= 1;
        } else if let Some(j) = (0..4).map(|k| (next + k) % 4).find(|&j| backlog[j] > 0) {
            backlog[j] -= 1;
            words_left = 15;
            next = j + 1;
        }
    }
    (cycles * sources.len() as u64, arrivals)
}

/// Per-poll cost of each arrival-process kind, on the paper classes'
/// sources (T1 Bernoulli, T4 periodic, T2 on-off) and the saturating
/// probe source.
pub fn traffic_probe(t: &mut Tracer, out: &mut Layers, seed: u64) {
    const CYCLES: u64 = 50_000;
    let weights = [1u32, 2, 3, 4];
    let kinds: [(&str, &str, Option<TrafficClass>); 4] = [
        ("bernoulli", "traffic.poll.bernoulli", Some(TrafficClass::T1)),
        ("saturate", "traffic.poll.saturate", None),
        ("periodic", "traffic.poll.periodic", Some(TrafficClass::T4)),
        ("bursty", "traffic.poll.bursty", Some(TrafficClass::T2)),
    ];
    let (mut polls, mut arrivals) = (0u64, 0u64);
    for (kind, span, class) in kinds {
        let specs: Vec<GeneratorSpec> = class.map(|c| c.specs(&weights)).unwrap_or_default();
        for rep in 0..REPS {
            repeat_for(MIN_PROBE_SECS, |_| {
                let mut sources: Vec<SourceKind> = match class {
                    Some(_) => specs
                        .iter()
                        .enumerate()
                        .map(|(i, s)| s.build_kind(seed ^ i as u64))
                        .collect(),
                    None => (0..4).map(|_| SourceKind::from(SaturateSource::new(0, 16))).collect(),
                };
                let (p, a) = t.span(span, rep, |_| {
                    let r = poll_loop(&mut sources, CYCLES);
                    (r, r.0)
                });
                if class.is_some() {
                    polls += p;
                    arrivals += a;
                }
            });
        }
        out.per_unit(t, span, &format!("traffic.poll_ns.{kind}"), 1.0, "ns");
    }
    out.metric("traffic.arrivals_per_poll", arrivals as f64 / polls.max(1) as f64, "ratio");
}

/// Per-decision cost of every protocol over a seeded request stream.
pub fn decide_probe(t: &mut Tracer, out: &mut Layers, seed: u64) {
    const DECISIONS: u64 = 1 << 16;
    let mut rng = Rng::new(seed, 31);
    let maps: Vec<RequestMap> = (0..4096)
        .map(|_| {
            let mut map = RequestMap::new(4);
            let bits = rng.range(1, 15);
            for m in 0..4 {
                if bits >> m & 1 == 1 {
                    map.set_pending(MasterId::new(m), rng.range(1, 64) as u32);
                }
            }
            map
        })
        .collect();
    for protocol in PROTOCOLS {
        let (span, metric) = match protocol {
            "static-priority" => {
                ("arbiters.arbitrate.static-priority", "arbiters.decide_ns.static-priority")
            }
            "round-robin" => ("arbiters.arbitrate.round-robin", "arbiters.decide_ns.round-robin"),
            "deficit-rr" => ("arbiters.arbitrate.deficit-rr", "arbiters.decide_ns.deficit-rr"),
            "tdma" => ("arbiters.arbitrate.tdma", "arbiters.decide_ns.tdma"),
            "lottery-static" => ("core.arbitrate.lottery-static", "core.decide_ns.lottery-static"),
            _ => ("core.arbitrate.lottery-dynamic", "core.decide_ns.lottery-dynamic"),
        };
        for rep in 0..REPS {
            repeat_for(MIN_PROBE_SECS, |_| {
                let mut arb = arbiter(protocol, &[1, 2, 3, 4], seed);
                t.span(span, rep, |_| {
                    for i in 0..DECISIONS {
                        black_box(arb.arbitrate(&maps[(i & 4095) as usize], Cycle::new(i)));
                    }
                    ((), DECISIONS)
                });
            });
        }
        out.per_unit(t, span, metric, 1.0, "ns");
    }
}

/// Parse, run and verdict rendering over the library at its own seeds.
/// `run` is false when the traced item pass already timed the runs.
pub fn scenario_probe(
    t: &mut Tracer,
    out: &mut Layers,
    texts: &[(String, String)],
    lib: &Library,
    run: bool,
) {
    for rep in 0..REPS {
        for (name, text) in texts {
            let parsed = t.span("scenario.parse", rep, |_| (Scenario::parse(text), 1));
            out.check(parsed.is_ok(), || format!("{name}: library scenario does not parse"));
        }
    }
    let seeds: Vec<usize> = (0..lib.items.len()).filter(|&k| lib.items[k].library_seed).collect();
    for rep in 0..REPS {
        for &k in &seeds {
            let sc = &lib.items[k].scenario;
            let outcome = if run {
                t.span("scenario.run_scenario", k as u64, |_| (run_scenario(sc, kernel("tlm")), 1))
            } else {
                run_scenario(sc, kernel("tlm"))
            };
            match outcome {
                Ok(o) => {
                    let json = t.span("scenario.to_json", rep, |_| (o.to_json().render(), 1));
                    black_box(json);
                }
                Err(e) => out.check(false, || format!("{}: {e}", sc.name)),
            }
        }
    }
    let per_call = |name: &str, scale: f64| median(&t.self_ns_of(name, None)) * scale;
    out.metric("scenario.parse_us", per_call("scenario.parse", 1e-3), "us");
    out.metric("scenario.run_ms", per_call("scenario.run_scenario", 1e-6), "ms");
    out.metric("scenario.verdict_us", per_call("scenario.to_json", 1e-3), "us");
}

/// The search command's analytic scan, rebuilt from the query's
/// scenario: the same Bernoulli mapping, auto-dimensioned ticket grid
/// and whole-run SLA targets.
fn scan_of(sc: &Scenario) -> Option<(SearchSpace, Vec<SlaTarget>)> {
    let protocol = analytic::Protocol::parse(sc.arbiter.keyword())?;
    let bus = BusConfig { max_burst: sc.burst, ..BusConfig::new() };
    let traffic = sc
        .masters
        .iter()
        .map(|m| TrafficInput {
            lambda: (m.load / f64::from(m.size)).min(1.0),
            size: SizeDist::fixed(m.size),
            stall: Some(bus.grant_stall(sc.slaves.get(m.slave).map_or(0, |s| s.wait))),
        })
        .collect();
    let mut space = SearchSpace::new(protocol, bus, traffic);
    space.tdma_block = sc.tdma_block;
    space.max_tickets = 1;
    space.dimension_for(SEARCH_POINTS);
    let index = |name: &str| sc.master_index(name);
    let mut targets = Vec::new();
    for sla in sc.slas.iter().filter(|s| s.phase.is_none()) {
        match &sla.kind {
            SlaKind::Bandwidth { master, min, max } => {
                let m = index(master)?;
                targets.extend(min.map(|b| SlaTarget { master: m, kind: TargetKind::MinShare(b) }));
                targets.extend(max.map(|b| SlaTarget { master: m, kind: TargetKind::MaxShare(b) }));
            }
            SlaKind::LatencyMaster { master, p99 } => targets
                .push(SlaTarget { master: index(master)?, kind: TargetKind::MaxP99(*p99 as f64) }),
            SlaKind::LatencyBus { p99 } => targets.extend(
                (0..sc.masters.len())
                    .map(|m| SlaTarget { master: m, kind: TargetKind::MaxP99(*p99 as f64) }),
            ),
            _ => {}
        }
    }
    Some((space, targets))
}

/// Tags of the search probe's spans, apart from the item pass's.
const PROBE_TAG: u64 = 1 << 32;

/// Analytic scan and evaluation cost on the design-search queries at
/// the middle point budget, and the confirmation time left over in
/// each search call.
pub fn search_probe(t: &mut Tracer, out: &mut Layers, queries: &Search) {
    for (k, q) in queries.queries.iter().enumerate() {
        let Some((space, targets)) = scan_of(&q.scenario) else {
            out.check(false, || format!("{}: no analytic model for the query", q.name));
            continue;
        };
        let tag = PROBE_TAG + k as u64;
        let mut reference = None;
        for _ in 0..3 {
            let res = t.span("cli.run_search_command", tag, |_| {
                (queries.run(k, SEARCH_POINTS, "cycle"), 1)
            });
            reference = res.ok().and_then(|o| crate::util::Json::parse(&o.stdout).ok());
        }
        let mut last = None;
        for _ in 0..3 {
            last = Some(t.span("analytic.search", tag, |_| {
                let r = search(&space, &targets, 8);
                let points = r.as_ref().map_or(0, |r| r.scanned);
                (r, points)
            }));
        }
        let same = match (last, reference) {
            (Some(Ok(r)), Some(j)) => {
                j.get("points").and_then(|v| v.num()) == Some(r.scanned as f64)
                    && j.get("feasible").and_then(|v| v.num()) == Some(r.feasible as f64)
            }
            _ => false,
        };
        out.check(same, || format!("{}: the rebuilt scan differs from the command's", q.name));
    }
    let models: Vec<_> =
        queries.queries.iter().filter_map(|q| scenario_model(&q.scenario)).collect();
    let mut scratch = Scratch::new();
    for rep in 0..REPS {
        repeat_for(MIN_PROBE_SECS, |_| {
            t.span("analytic.evaluate", rep, |_| {
                for model in &models {
                    for _ in 0..2_000 {
                        black_box(model.evaluate(black_box(&mut scratch)));
                    }
                }
                ((), 2_000 * models.len() as u64)
            });
        });
    }
    out.per_unit(t, "analytic.evaluate", "analytic.eval_ns", 1.0, "ns");
    let mut searches = Vec::new();
    let mut confirms = Vec::new();
    for tag in (0..queries.queries.len() as u64).map(|k| PROBE_TAG + k) {
        let scan = median(&t.self_ns_of("analytic.search", Some(tag)));
        let call = median(&t.self_ns_of("cli.run_search_command", Some(tag)));
        searches.push(scan * 1e-6);
        confirms.push((call - scan) * 1e-6);
    }
    out.metric("analytic.search_ms", median(&searches), "ms");
    out.metric("cli.confirm_ms", median(&confirms), "ms");
}
