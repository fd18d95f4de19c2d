//! System assembly and the top-level simulation loop.

use crate::arbiter::{Arbiter, IntoArbiter};
use crate::bus::Bus;
use crate::config::BusConfig;
use crate::cycle::Cycle;
use crate::error::BuildSystemError;
use crate::fastforward::Kernel;
use crate::fault::{FaultConfig, FaultEvent, RetryPolicy};
use crate::ids::MasterId;
use crate::master::MasterPort;
use crate::metrics::BusMetrics;
use crate::profile::{PhaseProfiler, SimPhase};
use crate::request::{RequestMap, Transaction, MAX_MASTERS};
use crate::slave::Slave;
use crate::stats::BusStats;
use crate::trace::{BusTrace, TraceSink};

/// A source of communication transactions for one master — the
/// simulator-side stand-in for the component's computation.
///
/// The system polls every source exactly once per cycle, *before*
/// arbitration, so a transaction returned for cycle `c` can be granted in
/// cycle `c`. A source that needs to issue several transactions in the
/// same cycle should keep an internal backlog and emit them on successive
/// polls with the original `issued_at` stamp — latency accounting uses the
/// transaction's own timestamp, not the poll cycle.
pub trait TrafficSource {
    /// Returns the transaction (if any) this component issues at `now`.
    fn poll(&mut self, now: Cycle) -> Option<Transaction>;

    /// Like [`TrafficSource::poll`], but additionally told how many
    /// transactions the component's bus interface still has outstanding.
    /// Sources modelling components that process one request at a time
    /// (e.g. the ATM switch's output ports) override this to hold new
    /// work back; the default ignores the backlog.
    fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
        let _ = backlog;
        self.poll(now)
    }

    /// The fast-forward horizon of this source (see
    /// [`crate::fastforward`]): the earliest cycle `>= now` at which a
    /// poll could return a transaction or mutate internal state, or
    /// [`Cycle::NEVER`] if the source is permanently silent.
    ///
    /// The default returns `now`, which forbids the kernel from ever
    /// skipping past a poll — always correct, never fast. Deterministic
    /// sources whose poll is a pure no-op until a known cycle override
    /// this to unlock fast-forwarding.
    fn next_event(&self, now: Cycle) -> Cycle {
        now
    }

    /// Whether polling this source is a guaranteed no-op while its master
    /// still has work queued.
    ///
    /// Returning `true` is a contract with the event kernel's tenure
    /// batching ([`Kernel::Event`]): whenever the port's
    /// backlog is `>= 1`, [`TrafficSource::poll_with_backlog`] returns
    /// `None` **without mutating any internal state**, and
    /// [`TrafficSource::next_event`] returns its argument unchanged (the
    /// conservative every-cycle default). Under that contract a kernel
    /// may elide the per-cycle poll for the whole stretch a backlog is
    /// known to persist — every elided poll is a provable no-op, so
    /// states and statistics stay byte-identical to polling every cycle.
    ///
    /// The default is `false`, which is always correct: the source is
    /// polled every cycle. Only stateless backlog-gated sources (e.g.
    /// `SaturateSource` in the `traffic-gen` crate) should override this.
    fn pure_while_backlogged(&self) -> bool {
        false
    }
}

impl<T: TrafficSource + ?Sized> TrafficSource for Box<T> {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        (**self).poll(now)
    }

    fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
        (**self).poll_with_backlog(now, backlog)
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        (**self).next_event(now)
    }

    fn pure_while_backlogged(&self) -> bool {
        (**self).pure_while_backlogged()
    }
}

/// Conversion into the source slot of a [`SystemBuilder`]; the traffic
/// twin of [`crate::arbiter::IntoArbiter`]. Lets `Box<Concrete>` flow
/// into a builder whose source slot is the default
/// `Box<dyn TrafficSource>` without an unsize coercion the inference
/// engine can miss.
pub trait IntoSource<S> {
    /// Converts `self` into the builder's source type.
    fn into_source(self) -> S;
}

impl<S: TrafficSource> IntoSource<S> for S {
    fn into_source(self) -> S {
        self
    }
}

impl<T: TrafficSource + 'static> IntoSource<Box<dyn TrafficSource>> for Box<T> {
    fn into_source(self) -> Box<dyn TrafficSource> {
        self
    }
}

/// A traffic source that never issues anything (an idle master).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SilentSource;

impl TrafficSource for SilentSource {
    fn poll(&mut self, _now: Cycle) -> Option<Transaction> {
        None
    }

    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

/// Builder for a [`System`].
///
/// The builder (and the [`System`] it produces) is generic over the
/// arbiter type `A` and the traffic-source type `S`, both defaulting to
/// the boxed trait objects every existing call site uses. Passing
/// concrete types — or the dispatch enums `ArbiterKind` /
/// `SourceKind` from the `arbiters` and `traffic-gen` crates — lets the
/// compiler resolve the two hottest per-cycle calls (source poll,
/// arbitration) statically instead of through a vtable.
///
/// ```
/// use socsim::{SystemBuilder, BusConfig};
/// use socsim::arbiter::FixedOrderArbiter;
/// use socsim::system::SilentSource;
///
/// # fn main() -> Result<(), socsim::BuildSystemError> {
/// // Boxed (the default type parameters)…
/// let builder: SystemBuilder = SystemBuilder::new(BusConfig::default());
/// let system = builder
///     .master("cpu", Box::new(SilentSource))
///     .arbiter(Box::new(FixedOrderArbiter::new(1)))
///     .build()?;
/// assert_eq!(system.masters(), 1);
/// // …or fully devirtualized with concrete types.
/// let system = SystemBuilder::new(BusConfig::default())
///     .master("cpu", SilentSource)
///     .arbiter(FixedOrderArbiter::new(1))
///     .build()?;
/// assert_eq!(system.masters(), 1);
/// # Ok(())
/// # }
/// ```
pub struct SystemBuilder<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    config: BusConfig,
    names: Vec<String>,
    sources: Vec<S>,
    slaves: Vec<Slave>,
    arbiter: Option<A>,
    trace_capacity: usize,
    trace_sink: Option<Box<dyn TraceSink>>,
    faults: Option<FaultConfig>,
    retry: Option<RetryPolicy>,
    timeout: Option<u64>,
    metrics_window: Option<u64>,
    profiling: bool,
    kernel: Kernel,
}

impl<A: Arbiter, S: TrafficSource> std::fmt::Debug for SystemBuilder<A, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("config", &self.config)
            .field("masters", &self.names)
            .field("slaves", &self.slaves)
            .field("has_arbiter", &self.arbiter.is_some())
            .finish()
    }
}

impl<A: Arbiter, S: TrafficSource> SystemBuilder<A, S> {
    /// Starts building a system around a bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        SystemBuilder {
            config,
            names: Vec::new(),
            sources: Vec::new(),
            slaves: Vec::new(),
            arbiter: None,
            trace_capacity: 0,
            trace_sink: None,
            faults: None,
            retry: None,
            timeout: None,
            metrics_window: None,
            profiling: false,
            kernel: Kernel::Cycle,
        }
    }

    /// Adds a master named `name` driven by `source`. Masters receive
    /// dense [`MasterId`]s in the order they are added.
    pub fn master(mut self, name: impl Into<String>, source: impl IntoSource<S>) -> Self {
        self.names.push(name.into());
        self.sources.push(source.into_source());
        self
    }

    /// Registers a slave (only needed for nonzero wait states).
    pub fn slave(mut self, slave: Slave) -> Self {
        self.slaves.push(slave);
        self
    }

    /// Sets the arbitration protocol.
    pub fn arbiter(mut self, arbiter: impl IntoArbiter<A>) -> Self {
        self.arbiter = Some(arbiter.into_arbiter());
        self
    }

    /// Enables bus tracing, buffering at most `capacity` events in
    /// memory. Overflow is counted (see [`BusTrace::is_truncated`])
    /// rather than silently discarded; attach a streaming sink via
    /// [`SystemBuilder::trace_sink`] to capture unbounded runs.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Attaches a streaming trace sink (JSONL writer, ring, VCD bridge —
    /// see [`crate::trace`]) that observes every bus event with no
    /// capacity limit, independently of the in-memory buffer.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Enables the metrics registry (see [`crate::metrics`]): windowed
    /// counters, gauges and latency histograms sampled every `window`
    /// cycles into a time-series. Off by default; when off the kernel
    /// pays one branch per cycle.
    pub fn metrics_window(mut self, window: u64) -> Self {
        self.metrics_window = Some(window);
        self
    }

    /// Enables wall-clock phase profiling of the cycle kernel (see
    /// [`crate::profile`]). Off by default; profiling never affects
    /// simulated behaviour, only wall-clock reporting.
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Selects the simulation kernel for [`System::run`] (see
    /// [`Kernel`]): the cycle-accurate reference or the exact event
    /// kernel. Results — statistics, metrics time-series, traces, fault
    /// logs — are identical under both; only wall-clock time changes.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Attaches a seeded fault-injection plan (see [`crate::fault`]).
    pub fn faults(mut self, config: FaultConfig) -> Self {
        self.faults = Some(config);
        self
    }

    /// Sets the recovery policy applied when an injected slave error
    /// hits a transaction. Without a policy the first error aborts.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Arms the transaction watchdog: a transaction wedged at the head
    /// of a master's queue for `cycles` cycles without progress is
    /// aborted and counted.
    pub fn timeout(mut self, cycles: u64) -> Self {
        self.timeout = Some(cycles);
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns an error if no master was added, too many masters were
    /// added, no arbiter was set, or the bus, fault, retry, timeout or
    /// metrics configuration is invalid.
    pub fn build(self) -> Result<System<A, S>, BuildSystemError> {
        if self.names.is_empty() {
            return Err(BuildSystemError::NoMasters);
        }
        if self.metrics_window == Some(0) {
            return Err(BuildSystemError::InvalidMetricsWindow(0));
        }
        if self.names.len() > MAX_MASTERS {
            return Err(BuildSystemError::TooManyMasters {
                got: self.names.len(),
                max: MAX_MASTERS,
            });
        }
        self.config.validate().map_err(BuildSystemError::InvalidConfig)?;
        let fault_layer = crate::fault::build_fault_layer(self.faults, self.retry, self.timeout)?;
        let arbiter = self.arbiter.ok_or(BuildSystemError::NoArbiter)?;
        let masters: Vec<MasterPort> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| MasterPort::new(MasterId::new(i), name.clone()))
            .collect();
        let n = masters.len();
        let zero_stall = self.config.per_grant_overhead() == 0
            && self.slaves.iter().all(|s| self.config.grant_stall(s.wait_states()) == 0);
        let mut trace = if self.trace_capacity > 0 {
            BusTrace::enabled(self.trace_capacity)
        } else {
            BusTrace::disabled()
        };
        if let Some(sink) = self.trace_sink {
            trace = trace.with_sink(sink);
        }
        Ok(System {
            bus: match fault_layer {
                Some(layer) => Bus::with_faults(self.config, layer),
                None => Bus::new(self.config),
            },
            masters,
            poll_horizon: vec![Cycle::ZERO; n],
            pure_backlog: self.sources.iter().map(TrafficSource::pure_while_backlogged).collect(),
            sources: self.sources,
            slaves: self.slaves,
            zero_stall,
            scratch: RequestMap::new(1),
            arbiter,
            stats: BusStats::new(n),
            trace,
            metrics: self.metrics_window.map(|w| BusMetrics::new(w, n)),
            profiler: if self.profiling {
                PhaseProfiler::enabled()
            } else {
                PhaseProfiler::disabled()
            },
            now: Cycle::ZERO,
            failover_baseline: 0,
            kernel: self.kernel,
        })
    }
}

/// A complete single-bus system: masters with traffic sources, slaves,
/// an arbiter and the shared bus, plus statistics collection.
///
/// Generic over the arbiter and source types; see [`SystemBuilder`].
pub struct System<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    bus: Bus,
    masters: Vec<MasterPort>,
    sources: Vec<S>,
    /// Per-source poll horizon: the earliest cycle at which source `i`
    /// must be polled again ([`TrafficSource::next_event`] computed
    /// after its last actual poll). Busy cycles skip the poll (and its
    /// dispatch) for every source whose horizon is still in the future.
    poll_horizon: Vec<Cycle>,
    /// Cached [`TrafficSource::pure_while_backlogged`] per source, so
    /// the batch legality scan costs one load instead of a dispatch.
    pure_backlog: Vec<bool>,
    slaves: Vec<Slave>,
    /// Whether every grant pays a zero setup stall (no arbitration
    /// overhead, no wait states on any slave) — a precondition of the
    /// arithmetic TDMA wheel walk.
    zero_stall: bool,
    /// Request map the event kernel's fused arbitration loop rebuilds
    /// in place.
    scratch: RequestMap,
    arbiter: A,
    stats: BusStats,
    trace: BusTrace,
    metrics: Option<BusMetrics>,
    profiler: PhaseProfiler,
    now: Cycle,
    /// Arbiter failover count at the last statistics reset, so
    /// steady-state windows report only their own failovers.
    failover_baseline: u64,
    /// Which kernel [`System::run`] uses.
    kernel: Kernel,
}

impl<A: Arbiter, S: TrafficSource> std::fmt::Debug for System<A, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("masters", &self.masters.len())
            .field("arbiter", &self.arbiter.name())
            .finish()
    }
}

impl<A: Arbiter, S: TrafficSource> System<A, S> {
    /// Number of masters on the bus.
    pub fn masters(&self) -> usize {
        self.masters.len()
    }

    /// The current simulation time (the next cycle to be simulated).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The master port for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn master(&self, id: MasterId) -> &MasterPort {
        &self.masters[id.index()]
    }

    /// The bus (for configuration inspection).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The arbiter, for protocols with runtime knobs (e.g. dynamic
    /// lottery-ticket updates).
    pub fn arbiter_mut(&mut self) -> &mut A {
        &mut self.arbiter
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// The recorded bus trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &BusTrace {
        &self.trace
    }

    /// The recorded fault trace (empty unless fault injection was
    /// configured).
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.bus.fault_events()
    }

    /// The metrics registry's time-series, or `None` when metrics were
    /// not enabled via [`SystemBuilder::metrics_window`]. Call
    /// [`System::flush_metrics`] first if the run length is not a
    /// multiple of the window and the tail matters.
    pub fn metrics(&self) -> Option<&BusMetrics> {
        self.metrics.as_ref()
    }

    /// Closes a partial metrics window at the current cycle, if any
    /// cycles elapsed since the last boundary. No-op without metrics.
    pub fn flush_metrics(&mut self) {
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.flush(self.now, &self.stats, &self.masters);
        }
    }

    /// The wall-clock phase profiler (disabled unless enabled via
    /// [`SystemBuilder::profiling`]).
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Completes the streaming trace sink, if one is attached: flushes
    /// buffered output (and, for VCD, writes the closing timestamp) and
    /// surfaces any I/O error latched during the run.
    ///
    /// # Errors
    ///
    /// Returns any I/O error the sink latched while recording.
    pub fn finish_trace(&mut self) -> std::io::Result<()> {
        self.trace.finish_sink()
    }

    /// Clears accumulated statistics, e.g. after a warm-up period, so
    /// that subsequent measurements reflect steady state only. The
    /// metrics time-series and profiler are reset along with the
    /// aggregate counters.
    pub fn reset_stats(&mut self) {
        self.stats = BusStats::new(self.masters.len());
        self.failover_baseline = self.arbiter.failovers();
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.reset(self.now);
        }
        self.profiler.reset();
    }

    /// Simulates one bus cycle: polls every traffic source, then steps
    /// the bus/arbiter, then updates statistics and (when enabled) the
    /// metrics registry.
    ///
    /// The poll phase is *horizon-aware*: after each actual poll the
    /// source's [`TrafficSource::next_event`] horizon (from the cycle
    /// after the poll) is cached, and while that horizon lies in the
    /// future the poll — a provable no-op by the horizon contract — is
    /// skipped with one integer compare. This applies the fast-forward
    /// kernel's per-source reasoning inside *busy* cycles, where the bus
    /// itself pins simulated time. Sources that keep the conservative
    /// default (`next_event == now`) are polled every cycle, unchanged.
    pub fn step(&mut self) {
        let now = self.now;
        let mut lap = self.profiler.start();
        let polls =
            self.masters.iter_mut().zip(self.sources.iter_mut()).zip(self.poll_horizon.iter_mut());
        for ((port, source), horizon) in polls {
            if *horizon > now {
                continue;
            }
            if let Some(txn) = source.poll_with_backlog(now, port.backlog_transactions()) {
                port.enqueue(txn);
            }
            *horizon = source.next_event(now + 1);
        }
        self.profiler.lap(SimPhase::Poll, &mut lap);
        let completed = self.bus.step(
            &mut self.arbiter,
            &mut self.masters,
            &self.slaves,
            now,
            0,
            &mut self.stats,
            &mut self.trace,
        );
        self.profiler.lap(SimPhase::Bus, &mut lap);
        self.stats.record_cycle();
        self.stats.failovers = self.arbiter.failovers() - self.failover_baseline;
        if let Some(metrics) = self.metrics.as_mut() {
            if let Some((_, done)) = completed {
                metrics.note_completion(done.latency());
            }
            metrics.end_cycle(now, &self.stats, &self.masters);
        }
        self.profiler.lap(SimPhase::Accounting, &mut lap);
        self.now += 1;
    }

    /// The kernel [`System::run`] uses.
    pub fn run_kernel(&self) -> Kernel {
        self.kernel
    }

    /// Whether the attached fault plan draws per-cycle master stalls,
    /// which changes which port horizon applies (see
    /// [`MasterPort::next_event_under_stall_faults`]).
    fn stall_faults_active(&self) -> bool {
        self.bus
            .faults
            .as_ref()
            .and_then(|layer| layer.plan.as_ref())
            .is_some_and(|plan| plan.config().master_stall_rate > 0.0)
    }

    /// The event horizon of the whole system at the current cycle: the
    /// earliest cycle `>= now` at which any component does something the
    /// skip path cannot replicate (see [`crate::fastforward`]). Returns
    /// `now` whenever the bus is busy or any request line is live —
    /// i.e. whenever nothing may be skipped — and [`Cycle::NEVER`] when
    /// nothing is scheduled at all.
    pub fn idle_horizon(&self) -> Cycle {
        use crate::fastforward::fold_horizon;
        let now = self.now;
        if self.bus.is_busy() {
            return now;
        }
        let stall_faults = self.stall_faults_active();
        let mut horizon = Cycle::NEVER;
        for port in &self.masters {
            let h = if stall_faults {
                port.next_event_under_stall_faults(now)
            } else {
                port.next_event(now)
            };
            horizon = fold_horizon(horizon, h, now);
            if horizon == now {
                return now;
            }
        }
        for source in &self.sources {
            horizon = fold_horizon(horizon, source.next_event(now), now);
            if horizon == now {
                return now;
            }
        }
        fold_horizon(horizon, self.arbiter.next_event(now), now)
    }

    /// Jumps simulation time from `now` to `target`, replicating the
    /// skipped idle cycles' accounting arithmetically: the cycle
    /// counter, per-cycle idle trace events, the arbiter's empty-map
    /// decision state, metrics window closes/gauge samples, and
    /// profiler laps. Callers must have established (via
    /// [`System::idle_horizon`]) that nothing else happens in
    /// `now..target`.
    fn skip_to(&mut self, target: Cycle) {
        let now = self.now;
        let delta = target - now;
        let mut lap = self.profiler.start();
        self.trace.record_idle_span(now, delta);
        self.arbiter.skip_idle(delta);
        self.finish_batch(target, delta);
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.skip_cycles(now, delta, &self.stats, &self.masters);
        }
        self.profiler.lap_span(SimPhase::Accounting, delta, &mut lap);
    }

    /// Whether the event kernel may batch cycles the bus is busy in.
    /// Fault machinery draws per-cycle state in [`System::step`]'s
    /// prepass (master-stall lotteries, watchdog arming on waiting
    /// masters) and windowed metrics sample gauges at every busy cycle
    /// boundary; neither survives batching, so the event kernel keeps
    /// only its idle skip when either is active.
    fn tenure_batching_allowed(&self) -> bool {
        self.bus.faults.is_none() && self.metrics.is_none()
    }

    /// The end of the window, starting at `now` and capped at `end`, in
    /// which every elided source poll is a provable no-op, or `None`
    /// when a poll is due at `now` that must really run.
    ///
    /// A source whose cached poll horizon lies in the future has
    /// nothing to poll before it, so the horizon bounds the window. A
    /// source due now may only be elided when its poll is a no-op by
    /// contract: [`TrafficSource::pure_while_backlogged`] with a
    /// nonempty backlog. That backlog persists for the whole window —
    /// the owner's head transaction pops only in the bus phase of its
    /// completion cycle, after that cycle's polls, and non-owners
    /// transfer nothing.
    #[inline]
    fn elision_window(&self, now: Cycle, end: Cycle) -> Option<Cycle> {
        let mut limit = end;
        let scan = self.masters.iter().zip(&self.poll_horizon).zip(&self.pure_backlog);
        for ((port, &cached), &pure) in scan {
            if cached > now {
                limit = limit.min(cached);
            } else if !(pure && port.backlog_transactions() > 0) {
                return None;
            }
        }
        (limit > now).then_some(limit)
    }

    /// Batches the interior of the tenure in flight up to `limit`, the
    /// end of the elision window. Elided sources keep their (due)
    /// cached horizons: their `next_event` is the identity while
    /// backlogged, so per-cycle stepping would leave them due too, and
    /// they are re-polled at the next unskipped cycle either way.
    #[inline(never)]
    fn skip_tenure(&mut self, limit: Cycle) {
        let now = self.now;
        let mut lap = self.profiler.start();
        let consumed = self.bus.skip_tenure(
            &mut self.masters,
            now,
            limit - now,
            &mut self.stats,
            &mut self.trace,
        );
        debug_assert!(consumed > 0, "a busy bus has a stall or word left");
        self.profiler.lap_span(SimPhase::Bus, consumed, &mut lap);
        self.finish_batch(now + consumed, consumed);
    }

    /// Serves back-to-back tenures of an idle, untraced bus without the
    /// per-cycle poll/step machinery: each decision runs unchanged, and
    /// the tenure it starts — the grant cycle's own stall payment or
    /// first word included — is replayed arithmetically, until the
    /// elision window closes at `limit`. Exact because the elided
    /// pieces are the ones [`System::elision_window`] proves elidable
    /// and the accounting is the bus engine's own.
    ///
    /// With every master pending on a zero-stall bus whose arbiter
    /// publishes a wheel ([`Arbiter::wheel_walk`]), the window is
    /// resolved by the arithmetic wheel walk instead.
    ///
    /// Always consumes at least one cycle.
    #[inline(never)]
    fn serve_tenures(&mut self, mut limit: Cycle) {
        let now = self.now;
        let mut lap = self.profiler.start();
        self.scratch.reset_for(self.masters.len());
        let mut all_pending = true;
        for port in &self.masters {
            if port.is_requesting() {
                self.scratch.set_pending(port.id(), port.pending_words());
            } else {
                all_pending = false;
            }
        }
        if all_pending && self.zero_stall {
            if let Some(walk) = self.arbiter.wheel_walk() {
                if walk.masters() == self.masters.len() {
                    self.walk_wheel(now, limit, lap);
                    return;
                }
            }
        }
        // The window holds for every cycle in `[now, limit)`: bounded
        // sources never come due before `limit`, and elided due polls
        // stay no-ops as long as their backlog survives — which only
        // the granted master's completion can change, so only its entry
        // is re-validated (and its scratch slot refreshed) between
        // tenures. Elided polls enqueue nothing and non-owners transfer
        // nothing.
        let mut cursor = now;
        loop {
            if self.scratch.pending_count() >= 2 {
                self.stats.record_contended_arbitration();
            }
            let Some(grant) = self.arbiter.arbitrate(&self.scratch, cursor) else {
                // An idle decision consumes exactly one cycle; tracing
                // is off on this path. Hand the idle bus back to the
                // horizon machinery.
                cursor += 1;
                break;
            };
            debug_assert!(
                self.scratch.is_pending(grant.master),
                "arbiter `{}` granted idle master {}",
                self.arbiter.name(),
                grant.master
            );
            debug_assert!(grant.max_words > 0, "arbiter granted zero words");
            let winner = grant.master;
            let port = &mut self.masters[winner.index()];
            let words = grant.max_words.min(self.bus.config().max_burst).min(port.pending_words());
            self.stats.record_grant(winner);
            port.note_grant(cursor);
            let stall =
                self.bus.grant_stall(&self.slaves, port.head_slave().expect("pending head"));
            let consumed = if stall == 0 && u64::from(words) <= limit - cursor {
                // A stall-free burst that fits the window leaves the bus
                // idle again: record it without a round trip through the
                // bus state machine.
                Bus::record_burst(port, cursor, words, &mut self.stats, &mut self.trace);
                u64::from(words)
            } else {
                // Arm the whole tenure including the grant cycle's own
                // work: paying `stall` in one go records the same stall
                // cycles as the stepped 1 + (stall - 1) split.
                self.bus.arm(winner, words, stall);
                self.bus.skip_tenure(
                    &mut self.masters,
                    cursor,
                    limit - cursor,
                    &mut self.stats,
                    &mut self.trace,
                )
            };
            debug_assert!(consumed > 0, "a served tenure consumes cycles");
            cursor += consumed;
            if cursor >= limit || self.bus.is_busy() {
                // Window exhausted, possibly mid-tenure (the busy path
                // resumes it).
                break;
            }
            // The winner's completion may have drained the backlog that
            // made its due poll elidable. Such a poll is simply *run*,
            // exactly as the stepped poll phase would at `cursor`, so
            // back-to-back tenures keep fusing across refills.
            let wi = winner.index();
            let port = &mut self.masters[wi];
            let pure = self.pure_backlog[wi];
            if self.poll_horizon[wi] <= cursor && !(pure && port.backlog_transactions() > 0) {
                let source = &mut self.sources[wi];
                if let Some(txn) = source.poll_with_backlog(cursor, port.backlog_transactions()) {
                    port.enqueue(txn);
                }
                self.poll_horizon[wi] = source.next_event(cursor + 1);
                // Fusing on needs the window's proof for this master: an
                // elidable poll, or no poll due inside the window
                // (shrinking it to the fresh horizon).
                if !(pure && port.backlog_transactions() > 0) {
                    if self.poll_horizon[wi] > cursor {
                        limit = limit.min(self.poll_horizon[wi]);
                    } else {
                        break;
                    }
                }
            }
            if port.is_requesting() {
                self.scratch.set_pending(winner, port.pending_words());
            } else {
                self.scratch.clear_pending(winner);
            }
        }
        self.profiler.lap_span(SimPhase::Bus, cursor - now, &mut lap);
        self.finish_batch(cursor, cursor - now);
    }

    /// Resolves a window of an all-pending, zero-stall wheel protocol
    /// arithmetically: with every master pending, the grant sequence
    /// from the current wheel position is exactly the wheel sequence
    /// (the owner is always pending, so slot reclaim never fires), every
    /// grant moves one word with no setup stall, and every cycle is busy
    /// and contended. The walk is cut one cycle past the first
    /// head-transaction completion, so at most one completion per
    /// master occurs, each on its final granted cycle — the per-cycle
    /// path's bookkeeping exactly.
    fn walk_wheel(&mut self, now: Cycle, limit: Cycle, mut lap: Option<std::time::Instant>) {
        let walk = self.arbiter.wheel_walk().expect("caller checked the wheel");
        let mut span = limit - now;
        for (m, port) in self.masters.iter().enumerate() {
            if let Some(offset) = walk.occurrence_offset(m, u64::from(port.pending_words())) {
                span = span.min(offset + 1);
            }
        }
        for (m, port) in self.masters.iter_mut().enumerate() {
            let granted = walk.count_in(m, span);
            if granted == 0 {
                continue;
            }
            let id = MasterId::new(m);
            // The span ends by the earliest completion, so `granted`
            // never exceeds the head's remaining words (a u32).
            let first = now + walk.occurrence_offset(m, 1).expect("granted > 0");
            let last = now + walk.occurrence_offset(m, granted).expect("granted > 0");
            self.stats.record_grants(id, granted);
            self.stats.record_words(id, granted as u32);
            port.note_grant(first);
            if let Some(done) = port.transfer(granted as u32, last) {
                self.stats.record_completion(id, &done);
            }
        }
        if self.masters.len() >= 2 {
            self.stats.record_contended_arbitrations(span);
        }
        self.arbiter.advance_wheel(span);
        self.profiler.lap_span(SimPhase::Bus, span, &mut lap);
        self.finish_batch(now + span, span);
    }

    /// Closes a batch of `cycles` cycles ending at `to`: the cycle
    /// counters, the failover count and the clock.
    fn finish_batch(&mut self, to: Cycle, cycles: u64) {
        self.stats.record_cycles(cycles);
        self.stats.failovers = self.arbiter.failovers() - self.failover_baseline;
        self.now = to;
    }

    /// Simulates `cycles` bus cycles and returns the statistics so far.
    ///
    /// Under the default cycle kernel this is `cycles` calls to
    /// [`System::step`]. Under [`Kernel::Event`] the run instead takes,
    /// at every point, the largest exact move available: an idle jump to
    /// the next event horizon (see [`crate::fastforward`]), a batch of
    /// the tenure in flight, or — on an idle, untraced bus — a fused run
    /// of back-to-back tenures; it steps a single cycle only when none
    /// applies. Every move leaves exactly the state per-cycle stepping
    /// would.
    pub fn run(&mut self, cycles: u64) -> &BusStats {
        let end = self.now + cycles;
        match self.kernel {
            Kernel::Cycle => {
                for _ in 0..cycles {
                    self.step();
                }
            }
            Kernel::Event => {
                let batching = self.tenure_batching_allowed();
                let fused = batching && !self.trace.is_enabled();
                while self.now < end {
                    let target = self.idle_horizon().min(end);
                    if target > self.now {
                        self.skip_to(target);
                        continue;
                    }
                    let window = if batching { self.elision_window(self.now, end) } else { None };
                    match window {
                        Some(limit) if self.bus.is_busy() => self.skip_tenure(limit),
                        Some(limit) if fused => self.serve_tenures(limit),
                        _ => self.step(),
                    }
                }
            }
        }
        &self.stats
    }

    /// Runs `cycles` warm-up cycles and then discards the statistics, so
    /// a following [`System::run`] measures steady-state behaviour.
    pub fn warm_up(&mut self, cycles: u64) {
        self.run(cycles);
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::FixedOrderArbiter;
    use crate::ids::SlaveId;

    struct OneShot(Option<Transaction>);
    impl TrafficSource for OneShot {
        fn poll(&mut self, _now: Cycle) -> Option<Transaction> {
            self.0.take()
        }
    }

    fn one_shot(words: u32) -> Box<dyn TrafficSource> {
        Box::new(OneShot(Some(Transaction::new(SlaveId::new(0), words, Cycle::ZERO))))
    }

    #[test]
    fn build_validates_inputs() {
        let builder: SystemBuilder = SystemBuilder::new(BusConfig::default());
        let err = builder.build().unwrap_err();
        assert_eq!(err, BuildSystemError::NoMasters);

        let builder: SystemBuilder = SystemBuilder::new(BusConfig::default());
        let err = builder.master("m", Box::new(SilentSource)).build().unwrap_err();
        assert_eq!(err, BuildSystemError::NoArbiter);

        let bad = BusConfig { max_burst: 0, ..BusConfig::default() };
        let err = SystemBuilder::new(bad)
            .master("m", SilentSource)
            .arbiter(FixedOrderArbiter::new(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildSystemError::InvalidConfig(_)));
    }

    #[test]
    fn end_to_end_single_master() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("m0", one_shot(5))
            .arbiter(FixedOrderArbiter::new(1))
            .trace_capacity(64)
            .build()
            .expect("valid system");
        let stats = system.run(10);
        assert_eq!(stats.master(MasterId::new(0)).words, 5);
        assert_eq!(stats.master(MasterId::new(0)).transactions, 1);
        assert_eq!(stats.cycles, 10);
        assert_eq!(system.trace().render_owners(0..6), "00000.");
    }

    #[test]
    fn warm_up_discards_statistics() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("m0", one_shot(5))
            .arbiter(FixedOrderArbiter::new(1))
            .build()
            .expect("valid system");
        system.warm_up(10);
        assert_eq!(system.stats().cycles, 0);
        let stats = system.run(5);
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.master(MasterId::new(0)).words, 0); // already done
    }

    #[test]
    fn exactly_max_masters_is_accepted_and_one_more_rejected() {
        let build = |n: usize| {
            let mut builder = SystemBuilder::new(BusConfig::default());
            for i in 0..n {
                builder = builder.master(format!("m{i}"), SilentSource);
            }
            builder.arbiter(FixedOrderArbiter::new(n)).build()
        };
        assert!(build(MAX_MASTERS).is_ok());
        assert!(matches!(
            build(MAX_MASTERS + 1).unwrap_err(),
            BuildSystemError::TooManyMasters { got, max }
                if got == MAX_MASTERS + 1 && max == MAX_MASTERS
        ));
    }

    #[test]
    fn full_width_system_serves_every_master() {
        let mut builder = SystemBuilder::new(BusConfig::default());
        for i in 0..MAX_MASTERS {
            builder = builder.master(format!("m{i}"), one_shot(2));
        }
        let mut system =
            builder.arbiter(FixedOrderArbiter::new(MAX_MASTERS)).build().expect("valid system");
        system.run(2 * MAX_MASTERS as u64 + 4);
        for i in 0..MAX_MASTERS {
            assert_eq!(system.stats().master(MasterId::new(i)).transactions, 1, "master {i}");
        }
    }

    /// A deterministic source issuing `words` every `period` cycles,
    /// with an exact fast-forward horizon.
    struct EveryN {
        period: u64,
        words: u32,
    }

    impl TrafficSource for EveryN {
        fn poll(&mut self, now: Cycle) -> Option<Transaction> {
            now.index()
                .is_multiple_of(self.period)
                .then(|| Transaction::new(SlaveId::new(0), self.words, now))
        }

        fn next_event(&self, now: Cycle) -> Cycle {
            let rem = now.index() % self.period;
            if rem == 0 {
                now
            } else {
                Cycle::new(now.index() + self.period - rem)
            }
        }
    }

    /// Forwards to a fixed-order arbiter while counting skipped idle
    /// cycles through a shared handle, so tests can prove the fast
    /// kernel actually jumped.
    struct SpyArbiter {
        inner: FixedOrderArbiter,
        skipped: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Arbiter for SpyArbiter {
        fn arbitrate(
            &mut self,
            map: &crate::request::RequestMap,
            now: Cycle,
        ) -> Option<crate::arbiter::Grant> {
            self.inner.arbitrate(map, now)
        }

        fn name(&self) -> &str {
            "spy"
        }

        fn next_event(&self, now: Cycle) -> Cycle {
            self.inner.next_event(now)
        }

        fn skip_idle(&mut self, delta: u64) {
            self.skipped.fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
            self.inner.skip_idle(delta);
        }
    }

    #[test]
    fn event_kernel_idle_skip_is_cycle_exact_and_actually_skips() {
        let run = |fast: bool| {
            let skipped = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let spy = SpyArbiter {
                inner: FixedOrderArbiter::new(2),
                skipped: std::sync::Arc::clone(&skipped),
            };
            let mut system = SystemBuilder::new(BusConfig::default())
                .master("a", EveryN { period: 50, words: 4 })
                .master("b", EveryN { period: 70, words: 2 })
                .arbiter(spy)
                .trace_capacity(4096)
                .metrics_window(32)
                .kernel(if fast { Kernel::Event } else { Kernel::Cycle })
                .build()
                .expect("valid system");
            system.run(1_000);
            system.flush_metrics();
            (
                system.stats().clone(),
                system.trace().clone(),
                system.metrics().expect("metrics on").samples().to_vec(),
                system.now(),
                skipped.load(std::sync::atomic::Ordering::Relaxed),
            )
        };
        let (slow_stats, slow_trace, slow_metrics, slow_now, slow_skipped) = run(false);
        let (fast_stats, fast_trace, fast_metrics, fast_now, fast_skipped) = run(true);
        assert_eq!(slow_stats, fast_stats);
        assert_eq!(slow_trace, fast_trace);
        assert_eq!(slow_metrics, fast_metrics);
        assert_eq!(slow_now, fast_now);
        assert_eq!(slow_skipped, 0, "cycle kernel never skips");
        assert!(fast_skipped > 500, "event kernel jumped the idle gaps, got {fast_skipped}");
    }

    #[test]
    fn event_kernel_never_jumps_past_the_run_end() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("quiet", SilentSource)
            .arbiter(FixedOrderArbiter::new(1))
            .kernel(Kernel::Event)
            .build()
            .expect("valid system");
        assert_eq!(system.run_kernel(), Kernel::Event);
        assert_eq!(system.idle_horizon(), Cycle::NEVER, "nothing scheduled");
        system.run(10_000);
        assert_eq!(system.now(), Cycle::new(10_000), "end clamps the jump");
        assert_eq!(system.stats().cycles, 10_000);
        assert_eq!(system.stats().bus_utilization(), 0.0);
    }

    /// Counts how many times [`System::step`] reaches the bus by spying
    /// on arbitrations: the event kernel must arbitrate exactly as often
    /// as the cycle kernel (once per tenure + once per unskipped idle
    /// cycle) while *stepping* far fewer cycles.
    fn run_kernel_matrix(kernel: Kernel) -> (BusStats, BusTrace, Cycle, u64) {
        let skipped = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let spy = SpyArbiter {
            inner: FixedOrderArbiter::new(2),
            skipped: std::sync::Arc::clone(&skipped),
        };
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("a", EveryN { period: 50, words: 4 })
            .master("b", EveryN { period: 70, words: 2 })
            .arbiter(spy)
            .trace_capacity(4096)
            .kernel(kernel)
            .build()
            .expect("valid system");
        system.run(1_000);
        (
            system.stats().clone(),
            system.trace().clone(),
            system.now(),
            skipped.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    #[test]
    fn event_kernel_is_byte_exact_for_horizon_announcing_sources() {
        let (cycle_stats, cycle_trace, cycle_now, _) = run_kernel_matrix(Kernel::Cycle);
        let (event_stats, event_trace, event_now, skipped) = run_kernel_matrix(Kernel::Event);
        assert_eq!(cycle_stats, event_stats);
        assert_eq!(cycle_trace, event_trace);
        assert_eq!(cycle_now, event_now);
        assert!(skipped > 500, "the event kernel skips idle gaps, got {skipped}");
    }

    #[test]
    fn event_kernel_batches_tenures_with_overhead() {
        // With arbitration overhead the tenure interior is long enough
        // that batching is observable: the run must finish with the same
        // results as the cycle kernel while the profiler (disabled) and
        // stats stay identical.
        let run = |kernel: Kernel| {
            let cfg = BusConfig { arbitration_overhead: 4, ..BusConfig::default() };
            let mut system = SystemBuilder::new(cfg)
                .master("a", EveryN { period: 40, words: 8 })
                .master("b", EveryN { period: 90, words: 8 })
                .arbiter(FixedOrderArbiter::new(2))
                .trace_capacity(8192)
                .kernel(kernel)
                .build()
                .expect("valid system");
            system.run(2_000);
            (system.stats().clone(), system.trace().clone())
        };
        assert_eq!(run(Kernel::Cycle), run(Kernel::Event));
    }

    #[test]
    fn event_kernel_stays_exact_under_faults_and_metrics() {
        // Fault injection and windowed metrics disable tenure batching;
        // the idle skip alone must keep the run byte-exact against the
        // cycle kernel.
        let run = |kernel: Kernel| {
            let mut system = SystemBuilder::new(BusConfig::default())
                .master("a", EveryN { period: 30, words: 6 })
                .arbiter(FixedOrderArbiter::new(1))
                .trace_capacity(4096)
                .metrics_window(64)
                .faults(FaultConfig { seed: 9, slave_error_rate: 0.05, ..FaultConfig::default() })
                .retry_policy(RetryPolicy::exponential(2, 4))
                .timeout(200)
                .kernel(kernel)
                .build()
                .expect("valid system");
            system.run(3_000);
            system.flush_metrics();
            (
                system.stats().clone(),
                system.trace().clone(),
                system.fault_events().to_vec(),
                system.metrics().expect("metrics on").samples().to_vec(),
            )
        };
        assert_eq!(run(Kernel::Cycle), run(Kernel::Event));
    }

    /// A deterministic pseudo-random source: issues a `words`-word
    /// transaction whenever a cheap hash of the cycle clears
    /// `threshold`. Must be polled every cycle, so it pins the event
    /// kernel to stepping whenever it is due.
    struct HashSource {
        seed: u64,
        threshold: u64,
        words: u32,
    }

    impl TrafficSource for HashSource {
        fn poll(&mut self, now: Cycle) -> Option<Transaction> {
            let mut z = now.index().wrapping_add(self.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 31;
            (z % 1000 < self.threshold).then(|| Transaction::new(SlaveId::new(0), self.words, now))
        }
    }

    /// A saturate-style source upholding the pure-while-backlogged
    /// contract, so the event kernel batches and fuses its tenures.
    struct Saturating {
        words: u32,
    }

    impl TrafficSource for Saturating {
        fn poll(&mut self, now: Cycle) -> Option<Transaction> {
            Some(Transaction::new(SlaveId::new(0), self.words, now))
        }

        fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
            (backlog == 0).then(|| Transaction::new(SlaveId::new(0), self.words, now))
        }

        fn pure_while_backlogged(&self) -> bool {
            true
        }
    }

    /// `masters` masters (saturating or hashed), a slave with
    /// `wait_states`, optional arbitration overhead, tracing and metrics.
    fn mixed_system(
        kernel: Kernel,
        saturated: bool,
        wait_states: u32,
        overhead: u32,
        observed: bool,
    ) -> System {
        let cfg = BusConfig { arbitration_overhead: overhead, ..BusConfig::default() };
        let mut builder: SystemBuilder = SystemBuilder::new(cfg)
            .slave(Slave::with_wait_states(SlaveId::new(0), "s0", wait_states))
            .kernel(kernel);
        for m in 0..4u64 {
            let source: Box<dyn TrafficSource> = if saturated && m != 2 {
                Box::new(Saturating { words: 3 + 5 * m as u32 })
            } else {
                Box::new(HashSource { seed: m * 7 + 1, threshold: 90, words: 8 })
            };
            builder = builder.master(format!("m{m}"), source);
        }
        if observed {
            builder = builder.trace_capacity(1 << 14).metrics_window(128);
        }
        builder.arbiter(Box::new(FixedOrderArbiter::new(4))).build().expect("valid system")
    }

    #[test]
    fn event_kernel_matches_cycle_kernel_at_every_slice_boundary() {
        // Odd slice lengths land run ends mid-tenure and mid-stall;
        // exactness must survive every resume, on the fused untraced
        // path (no observers), the batched traced path, and with
        // per-grant stalls from wait states or arbitration overhead.
        for (saturated, wait_states, overhead, observed) in [
            (true, 0, 0, false),
            (true, 1, 0, false),
            (true, 0, 3, false),
            (true, 2, 1, true),
            (false, 0, 0, false),
            (false, 1, 2, true),
        ] {
            let mut cycle = mixed_system(Kernel::Cycle, saturated, wait_states, overhead, observed);
            let mut event = mixed_system(Kernel::Event, saturated, wait_states, overhead, observed);
            for slice in [1u64, 5, 63, 2, 640, 9, 3000, 17, 1000] {
                cycle.run(slice);
                event.run(slice);
                cycle.flush_metrics();
                event.flush_metrics();
                let shape = (saturated, wait_states, overhead, observed);
                assert_eq!(cycle.stats(), event.stats(), "{shape:?} stats after {slice}");
                assert_eq!(cycle.trace(), event.trace(), "{shape:?} trace after {slice}");
                assert_eq!(
                    cycle.metrics().map(BusMetrics::samples),
                    event.metrics().map(BusMetrics::samples),
                    "{shape:?} metrics after {slice}"
                );
                for m in 0..4 {
                    let id = MasterId::new(m);
                    assert_eq!(cycle.master(id).backlog_words(), event.master(id).backlog_words());
                    assert_eq!(
                        cycle.master(id).issued_transactions(),
                        event.master(id).issued_transactions()
                    );
                }
            }
        }
    }

    #[test]
    fn two_masters_share_in_fixed_order() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("a", one_shot(3))
            .master("b", one_shot(3))
            .arbiter(FixedOrderArbiter::new(2))
            .trace_capacity(64)
            .build()
            .expect("valid system");
        system.run(8);
        assert_eq!(system.trace().render_owners(0..7), "000111.");
        let b = system.stats().master(MasterId::new(1));
        // b issued at 0, finished after cycle 5 => latency 6 over 3 words.
        assert_eq!(b.cycles_per_word(), Some(2.0));
    }
}
