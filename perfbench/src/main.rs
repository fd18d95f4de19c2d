//! End-to-end and per-layer benchmark of the LOTTERYBUS simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--work-dir <dir>] [--rustc <version>] [--commit <sha>]
//! ```
//!
//! Run from the repository root (it reads `scenarios/`). Workloads:
//! `sweep-saturated`, `paper-classes`, `scenario-library` and
//! `design-search`. Load is a closed loop with one client: the next
//! item starts when the previous one returns. Every item's output is
//! checked outside the timed region — against the cycle kernel on the
//! first run of each input, and against that first output on every
//! repeat — and each mismatch, error or panic counts as a failed item.
//!
//! Times are the benchmark thread's CPU time, which leaves out the
//! time the host gives other guests, scaled to a reference host speed
//! by a fixed calibration loop timed between items (see
//! [`util::calibrate`]): the shared host's speed otherwise moves by up
//! to 2x for seconds at a time. `item_p50_ms` and `item_p90_ms` are
//! quantiles of these times over all items; `sim_mcycles_per_s` is the
//! simulated cycles of one call per input over the sum of each input's
//! median time.
//!
//! With `--trace 0` the last line is a JSON result with the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics of the
//! traced run, derived from spans recorded around every call into a
//! layer (see `layers`). Earlier lines are a human-readable report.

mod layers;
mod trace;
mod util;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use util::{median, quantile, Rng};
use workloads::{Library, Search, Sweep, Workload};

/// Set-up repetitions per run, spread evenly over the timed region;
/// `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// Fewest items a run measures, so that at least ten lie beyond p90.
const MIN_ITEMS: u64 = 100;

/// Wall-clock ceiling of the timed loop, whatever `MIN_ITEMS` asks.
const MAX_LOOP_SECS: f64 = 120.0;

/// Item time between two host-speed calibrations.
const CAL_EVERY_S: f64 = 0.01;

/// Failure descriptions kept for the report.
const MAX_FAILURE_LINES: usize = 20;

/// The library directory, relative to the repository root.
const LIBRARY_DIR: &str = "scenarios";

const WORKLOADS: [&str; 4] =
    ["sweep-saturated", "paper-classes", "scenario-library", "design-search"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            // Any integer names a seed; negative ones wrap.
            "--seed" => args.seed = value.parse::<i128>().map_err(|_| bad("an integer"))? as u64,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The item order: a fresh seeded permutation of all inputs per cycle.
struct Order {
    rng: Rng,
    kinds: usize,
    cycle: Vec<usize>,
}

impl Order {
    fn new(seed: u64, kinds: usize) -> Self {
        Order { rng: Rng::new(seed, 1), kinds, cycle: Vec::new() }
    }

    fn next(&mut self) -> usize {
        if self.cycle.is_empty() {
            self.cycle = self.rng.permutation(self.kinds);
        }
        self.cycle.pop().expect("refilled")
    }
}

/// First output of every input, and what the checks found.
struct State<O> {
    firsts: Vec<Option<O>>,
    model_errs: Vec<f64>,
    failures: Vec<String>,
}

impl<O> State<O> {
    fn new(kinds: usize) -> Self {
        State {
            firsts: (0..kinds).map(|_| None).collect(),
            model_errs: Vec::new(),
            failures: Vec::new(),
        }
    }
}

/// One pass of timed items.
#[derive(Default)]
struct Pass {
    item_ms: Vec<f64>,
    kinds: Vec<usize>,
    item_cycles: Vec<u64>,
    /// [`util::calibrate`] times: one before the first item, and one
    /// after every item that ends [`CAL_EVERY_S`] of item time.
    cal_ms: Vec<f64>,
    /// Per item, the index in `cal_ms` of the calibration before it.
    item_cal: Vec<usize>,
    attempted: u64,
    failed: u64,
    cycles: u64,
    timed_s: f64,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".into())
}

/// Runs one item, times it into `pass`, and checks its output: the first
/// output of an input against the reference, every later one against
/// the first. A mismatch, error or panic counts as a failed item.
fn item<W: Workload>(
    w: &W,
    k: usize,
    state: &mut State<W::Out>,
    pass: &mut Pass,
    tracer: Option<&mut Tracer>,
) {
    let input = w.prepare(k);
    let call = |input| {
        catch_unwind(AssertUnwindSafe(|| w.call(input))).unwrap_or_else(|p| Err(panic_text(p)))
    };
    let start = util::thread_cpu_s();
    let result = match tracer {
        Some(t) => t.span(w.span(), k as u64, |_| {
            let r = call(input);
            let count = r.as_ref().map_or(0, |o| w.cycles(k, o));
            (r, count)
        }),
        None => call(input),
    };
    let secs = util::thread_cpu_s() - start;
    let cycles = result.as_ref().map_or(0, |out| w.cycles(k, out));
    pass.attempted += 1;
    pass.item_ms.push(secs * 1e3);
    pass.kinds.push(k);
    pass.item_cycles.push(cycles);
    pass.timed_s += secs;
    pass.cycles += cycles;
    let failure = match result {
        Err(e) => Some(e),
        Ok(out) => match &state.firsts[k] {
            Some(first) => (*first != out)
                .then(|| "output differs from the first run of the same input".into()),
            None => {
                let verdict = catch_unwind(AssertUnwindSafe(|| w.verify(k, &out)))
                    .unwrap_or_else(|p| Err(panic_text(p)));
                state.model_errs.extend(w.model_err(k, &out));
                state.firsts[k] = Some(out);
                verdict.err()
            }
        },
    };
    if let Some(e) = failure {
        pass.failed += 1;
        if state.failures.len() < MAX_FAILURE_LINES {
            state.failures.push(format!("{} item {k}: {e}", w.name()));
        }
    }
}

/// Runs items in seeded order until `secs` of item time and
/// `min_items` items are done, always finishing the current cycle
/// through the inputs so that every input runs equally often. Times
/// [`util::calibrate`] before the first item and after every
/// [`CAL_EVERY_S`] of item time, and calls `between` after every item
/// but the last, all outside the items' timer.
fn timed_pass<W: Workload>(
    w: &W,
    state: &mut State<W::Out>,
    seed: u64,
    secs: f64,
    min_items: u64,
    between: &mut dyn FnMut(&Pass) -> Result<(), String>,
) -> Result<Pass, String> {
    let mut order = Order::new(seed, w.kinds());
    let mut pass = Pass::default();
    let wall = Instant::now();
    let mut cal_at = 0.0;
    pass.cal_ms.push(util::calibrate());
    loop {
        pass.item_cal.push(pass.cal_ms.len() - 1);
        item(w, order.next(), state, &mut pass, None);
        let done = pass.timed_s >= secs && pass.attempted >= min_items;
        let last =
            (done && order.cycle.is_empty()) || wall.elapsed().as_secs_f64() >= MAX_LOOP_SECS;
        if last || pass.timed_s - cal_at >= CAL_EVERY_S {
            pass.cal_ms.push(util::calibrate());
            cal_at = pass.timed_s;
        }
        if last {
            return Ok(pass);
        }
        between(&pass)?;
    }
}

/// Item `i`'s time in ms at the reference host speed: its time scaled
/// by [`util::CAL_REF_MS`] over the mean of the calibrations
/// just before and just after it.
fn ref_ms(pass: &Pass, i: usize) -> f64 {
    let c = pass.item_cal[i];
    pass.item_ms[i] * util::CAL_REF_MS / ((pass.cal_ms[c] + pass.cal_ms[c + 1]) / 2.0)
}

/// Each input's latency in a pass, indexed by input: the median of its
/// repeats' times at the reference host speed ([`ref_ms`]), with the
/// cycles one call of it simulates. An input that never ran reads NaN.
fn input_latencies(pass: &Pass, kinds: usize) -> Vec<(f64, u64)> {
    let mut repeats = vec![(Vec::new(), 0u64); kinds];
    for (i, (&k, &cycles)) in pass.kinds.iter().zip(&pass.item_cycles).enumerate() {
        repeats[k].0.push(ref_ms(pass, i));
        repeats[k].1 = repeats[k].1.max(cycles);
    }
    repeats.into_iter().map(|(ms, cycles)| (median(&ms), cycles)).collect()
}

/// Replays the inputs of `kinds` twice, alternating an untraced call
/// and a traced call of each input. Returns (untraced, traced).
fn paired_pass<W: Workload>(
    w: &W,
    state: &mut State<W::Out>,
    kinds: &[usize],
    t: &mut Tracer,
) -> (Pass, Pass) {
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    for &k in kinds {
        item(w, k, state, &mut plain, None);
        item(w, k, state, &mut traced, Some(&mut *t));
    }
    (plain, traced)
}

/// Builds the workload once and adds the set-up time in seconds, at
/// the reference host speed of a calibration just before, to `times`.
fn setup<W>(make: &impl Fn() -> Result<W, String>, times: &mut Vec<f64>) -> Result<W, String> {
    let cal = util::calibrate();
    let start = util::thread_cpu_s();
    let w = make()?;
    times.push((util::thread_cpu_s() - start) * util::CAL_REF_MS / cal);
    Ok(w)
}

/// Metrics and counts of one run, printed as the result line.
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn untraced<W: Workload>(
    args: &Args,
    make: impl Fn() -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let w = setup(&make, &mut setup_times)?;
    let mut state = State::new(w.kinds());
    // The other set-ups run between items, one per equal share of the
    // timed region, so that their median samples the whole run.
    let spacing = args.seconds / SETUP_REPS as f64;
    let pass = timed_pass(&w, &mut state, args.seed, args.seconds, MIN_ITEMS, &mut |p| {
        if setup_times.len() < SETUP_REPS && p.timed_s >= spacing * setup_times.len() as f64 {
            setup(&make, &mut setup_times)?;
        }
        Ok(())
    })?;
    while setup_times.len() < SETUP_REPS {
        setup(&make, &mut setup_times)?;
    }
    let inputs = input_latencies(&pass, w.kinds());
    if inputs.iter().any(|(ms, _)| !ms.is_finite()) {
        return Err("the run ended before every input ran".into());
    }
    let input_ms: Vec<f64> = inputs.iter().map(|(ms, _)| *ms).collect();
    let item_ms: Vec<f64> = (0..pass.item_ms.len()).map(|i| ref_ms(&pass, i)).collect();
    let p50 = quantile(&item_ms, 0.5);
    let p90 = quantile(&item_ms, 0.9);
    let one_each_ms: f64 = input_ms.iter().sum();
    let one_each_cycles: u64 = inputs.iter().map(|(_, c)| c).sum();
    let mcps = one_each_cycles as f64 / one_each_ms / 1e3;
    let pass_frac = 1.0 - pass.failed as f64 / pass.attempted as f64;
    if state.model_errs.is_empty() {
        return Err("no item produced an analytic comparison".into());
    }
    let model_err = state.model_errs.iter().copied().fold(0.0, f64::max);
    let rss = util::peak_rss_mb();
    let (q1, setup_s, q3) = util::quartiles(&setup_times);
    let (cal_q1, cal_med, cal_q3) = util::quartiles(&pass.cal_ms);
    println!(
        "host speed: calibration loop median {cal_med:.4} ms (q1 {cal_q1:.4}, q3 {cal_q3:.4}) over {} calls, {} ms at the reference speed every time below is scaled to",
        pass.cal_ms.len(),
        util::CAL_REF_MS
    );
    println!("setup_s {setup_s:.6} s (median of {SETUP_REPS}, q1 {q1:.6}, q3 {q3:.6})");
    println!(
        "items {} in {:.3} s of item time ({} distinct inputs)",
        pass.attempted,
        pass.timed_s,
        w.kinds()
    );
    println!("item_p50_ms {p50:.4} ms, item_p90_ms {p90:.4} ms (n={})", pass.attempted);
    println!(
        "  unscaled, over all {} items: p50 {:.4} ms, p90 {:.4} ms, {:.4} Mcycles/s",
        pass.attempted,
        quantile(&pass.item_ms, 0.5),
        quantile(&pass.item_ms, 0.9),
        pass.cycles as f64 / pass.timed_s / 1e6
    );
    let mut by_input: Vec<(f64, usize)> = input_ms.iter().copied().zip(0..).collect();
    by_input.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (ms, k) in by_input.iter().take(5) {
        let n = pass.kinds.iter().filter(|&&j| j == *k).count();
        println!("  slow input {}: median {ms:.3} ms of {n} repeats", w.label(*k));
    }
    println!(
        "sim_mcycles_per_s {mcps:.4} ({one_each_cycles} cycles, one call per input, in {one_each_ms:.3} ms)"
    );
    println!("failed_frac {:.6} ({}/{})", 1.0 - pass_frac, pass.failed, pass.attempted);
    println!("model_share_err {model_err:.6}");
    println!("peak_rss_mb {rss:.3}");
    Ok(Outcome {
        metrics: vec![
            ("setup_s".into(), setup_s, "s"),
            ("sim_mcycles_per_s".into(), mcps, "Mcycles/s"),
            ("item_p50_ms".into(), p50, "ms"),
            ("item_p90_ms".into(), p90, "ms"),
            ("pass_frac".into(), pass_frac, "ratio"),
            ("peak_rss_mb".into(), rss, "MB"),
            ("model_share_err".into(), model_err, "ratio"),
        ],
        attempted: pass.attempted,
        failed: pass.failed,
        failures: state.failures,
    })
}

/// Inputs of every layer probe, generated from the run's seed.
struct Inputs {
    saturated: Sweep,
    classes: Sweep,
    texts: Vec<(String, String)>,
    library: Library,
    search: Search,
}

fn traced<W: Workload>(args: &Args, w: &W, inputs: &Inputs) -> Result<Outcome, String> {
    let mut state = State::new(w.kinds());
    let warm = timed_pass(w, &mut state, args.seed, args.seconds / 3.0, 1, &mut |_| Ok(()))?;
    let mut t = Tracer::new();
    let (untraced, traced) = paired_pass(w, &mut state, &warm.kinds, &mut t);
    let overhead = (traced.timed_s / untraced.timed_s - 1.0) * 100.0;

    let mut out = layers::Layers::default();
    let ladder_sweep = match w.name() {
        "paper-classes" => &inputs.classes,
        _ => &inputs.saturated,
    };
    let systems = layers::ladder_systems(ladder_sweep, args.seed);
    layers::ladder(&mut t, &mut out, ladder_sweep, &systems);
    layers::metrics_overhead(&mut t, &mut out, &inputs.library);
    layers::tlm_ledger(&mut out, &inputs.classes, args.seed);
    layers::traffic_probe(&mut t, &mut out, args.seed);
    layers::decide_probe(&mut t, &mut out, args.seed);
    layers::scenario_probe(
        &mut t,
        &mut out,
        &inputs.texts,
        &inputs.library,
        w.name() != "scenario-library",
    );
    layers::search_probe(&mut t, &mut out, &inputs.search);

    let batch = t.self_ns_of("experiments.run_systems_fleet", None);
    let batch_ms = if batch.is_empty() {
        median(&t.named("sim.rung.batch").map(|s| s.dur_ns() as f64).collect::<Vec<_>>())
    } else {
        median(&batch)
    } * 1e-6;
    let builds: Vec<&trace::Span> =
        t.named("sim.build").chain(t.named("sim.fleet_build")).collect();
    let build_us =
        builds.iter().map(|s| s.dur_ns() as f64).sum::<f64>() / builds.len().max(1) as f64 * 1e-3;
    out.metrics.insert(0, ("experiments.batch_ms".into(), batch_ms, "ms"));
    out.metrics.push(("sim.build_us".into(), build_us, "us"));
    out.metrics.push(("bench.trace_overhead_pct".into(), overhead, "%"));

    let path = args.work_dir.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
    t.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans {} written to {}", t.spans().len(), path.display());
    println!(
        "items {} untraced + {} traced; bench.trace_overhead_pct {overhead:.3}",
        untraced.attempted, traced.attempted
    );
    for line in &out.lines {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name} {value:.6} {unit}");
    }
    let mut failures = state.failures;
    failures.extend(out.failures.iter().take(MAX_FAILURE_LINES).cloned());
    Ok(Outcome {
        metrics: out.metrics,
        attempted: warm.attempted + untraced.attempted + traced.attempted + out.attempted,
        failed: warm.failed + untraced.failed + traced.failed + out.failures.len() as u64,
        failures,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let dir = Path::new(LIBRARY_DIR);
    let seed = args.seed;
    let work = args.work_dir.join("queries");
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    if !args.trace {
        return match args.workload.as_str() {
            "sweep-saturated" => untraced(args, || {
                let s = Sweep::saturated(seed);
                s.build_all_jobs();
                Ok(s)
            }),
            "paper-classes" => untraced(args, || {
                let s = Sweep::paper_classes(seed);
                s.build_all_jobs();
                Ok(s)
            }),
            "scenario-library" => untraced(args, || Library::load(dir, seed)),
            _ => untraced(args, || Search::load(dir, &work)),
        };
    }
    let inputs = Inputs {
        saturated: Sweep::saturated(seed),
        classes: Sweep::paper_classes(seed),
        texts: workloads::read_library(dir)?,
        library: Library::load(dir, seed)?,
        search: Search::load(dir, &work)?,
    };
    match args.workload.as_str() {
        "sweep-saturated" => traced(args, &inputs.saturated, &inputs),
        "paper-classes" => traced(args, &inputs.classes, &inputs),
        "scenario-library" => traced(args, &inputs.library, &inputs),
        _ => traced(args, &inputs.search, &inputs),
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workers = if args.trace { util::nproc() } else { 1 };
    println!(
        "provenance {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"worker_threads\":{workers},\"rustc\":{},\"commit\":{},\"profile\":\"release\",\"load\":\"closed loop, 1 client\"}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        util::nproc(),
        json_string(&args.rustc),
        json_string(&args.commit),
    );
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    if let Some((name, _, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        std::process::exit(1);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}:{{\"value\":{value},\"unit\":{}}}", json_string(name), json_string(unit))
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A workload whose output is deliberately perturbed on one call.
    struct Perturbed<'a, W: Workload> {
        inner: &'a W,
        on_call: usize,
        calls: Cell<usize>,
        perturb: fn(&mut W::Out),
    }

    impl<W: Workload> Workload for Perturbed<'_, W> {
        type In = W::In;
        type Out = W::Out;
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn span(&self) -> &'static str {
            self.inner.span()
        }
        fn kinds(&self) -> usize {
            self.inner.kinds()
        }
        fn label(&self, k: usize) -> String {
            self.inner.label(k)
        }
        fn prepare(&self, k: usize) -> W::In {
            self.inner.prepare(k)
        }
        fn call(&self, input: W::In) -> Result<W::Out, String> {
            let mut out = self.inner.call(input)?;
            if self.calls.replace(self.calls.get() + 1) == self.on_call {
                (self.perturb)(&mut out);
            }
            Ok(out)
        }
        fn verify(&self, k: usize, out: &W::Out) -> Result<(), String> {
            self.inner.verify(k, out)
        }
        fn cycles(&self, k: usize, out: &W::Out) -> u64 {
            self.inner.cycles(k, out)
        }
        fn model_err(&self, k: usize, out: &W::Out) -> Option<f64> {
            self.inner.model_err(k, out)
        }
    }

    fn tiny_sweep() -> Sweep {
        let mut sweep = Sweep::saturated(7);
        sweep.settings.warmup = 200;
        sweep.settings.measure = 2_000;
        sweep
    }

    /// Runs item 0 twice and returns the failed count and messages.
    fn twice<W: Workload>(w: &W) -> (u64, Vec<String>) {
        let mut state = State::new(w.kinds());
        let mut pass = Pass::default();
        item(w, 0, &mut state, &mut pass, None);
        item(w, 0, &mut state, &mut pass, None);
        assert_eq!(pass.attempted, 2);
        (pass.failed, state.failures)
    }

    /// Adds one grant to every lane's statistics.
    const BUMP_GRANTS: fn(&mut Vec<socsim::BusStats>) =
        |out| out.iter_mut().for_each(|stats| stats.grants += 1);

    #[test]
    fn exact_sweep_outputs_pass() {
        let sweep = tiny_sweep();
        assert_eq!(twice(&sweep).0, 0);
    }

    #[test]
    fn perturbed_first_output_fails_the_cycle_kernel_check() {
        let sweep = tiny_sweep();
        let w = Perturbed { inner: &sweep, on_call: 0, calls: Cell::new(0), perturb: BUMP_GRANTS };
        let (failed, failures) = twice(&w);
        assert_eq!(failed, 2, "{failures:?}");
        assert!(failures[0].contains("cycle kernel"), "{failures:?}");
        assert!(failures[1].contains("differs from the first run"), "{failures:?}");
    }

    #[test]
    fn perturbed_repeat_is_counted() {
        let sweep = tiny_sweep();
        let w = Perturbed { inner: &sweep, on_call: 1, calls: Cell::new(0), perturb: BUMP_GRANTS };
        let (failed, failures) = twice(&w);
        assert_eq!(failed, 1, "{failures:?}");
        assert!(failures[0].contains("differs from the first run"), "{failures:?}");
    }

    #[test]
    fn panics_are_counted_as_failures() {
        let sweep = tiny_sweep();
        let w = Perturbed {
            inner: &sweep,
            on_call: 0,
            calls: Cell::new(0),
            perturb: |_| panic!("deliberate"),
        };
        let (failed, failures) = twice(&w);
        assert_eq!(failed, 1, "{failures:?}");
        assert!(failures[0].contains("deliberate"), "{failures:?}");
    }

    #[test]
    fn input_latency_is_the_median_repeat_at_reference_speed() {
        let slow = 2.0 * util::CAL_REF_MS;
        let pass = Pass {
            item_ms: vec![10.0, 40.0, 12.0, 44.0, 11.0],
            kinds: vec![0, 1, 0, 1, 0],
            item_cycles: vec![100, 200, 100, 200, 100],
            // Items 0-1 run at the reference speed, 3-4 at half of it and
            // item 2 in between.
            cal_ms: vec![util::CAL_REF_MS, util::CAL_REF_MS, slow, slow],
            item_cal: vec![0, 0, 1, 2, 2],
            ..Pass::default()
        };
        assert_eq!(ref_ms(&pass, 0), 10.0);
        assert_eq!(ref_ms(&pass, 3), 22.0);
        let inputs = input_latencies(&pass, 3);
        // Input 0 at reference speed: 10, 12 * 2/3 and 5.5.
        assert_eq!(inputs[0], (8.0, 100));
        assert_eq!(inputs[1], (31.0, 200));
        assert!(inputs[2].0.is_nan());
    }

    #[test]
    fn perturbed_verdict_fails_the_cycle_kernel_check() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(LIBRARY_DIR);
        let lib = Library::load(&dir, 7).expect("library loads");
        assert_eq!(twice(&lib).0, 0);
        let w = Perturbed {
            inner: &lib,
            on_call: 0,
            calls: Cell::new(0),
            perturb: |o: &mut scenario::Outcome| o.completed += 1,
        };
        let (failed, failures) = twice(&w);
        assert!(failed >= 1);
        assert!(failures[0].contains("cycle kernel"), "{failures:?}");
    }
}
