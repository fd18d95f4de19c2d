//! Batches of independent experiment systems run under the event kernel.
//!
//! [`run_systems_fleet`] takes a list of independent experiment points
//! and runs each through [`common::run_system`] under
//! [`Kernel::Event`], in order, on the calling thread. The event kernel
//! is exact, so every point's statistics equal its cycle-kernel run.
//! Callers that want worker threads fan out over
//! [`crate::runner::map`] themselves.

use crate::common::{self, RunSettings};
use arbiters::ArbiterKind;
use socsim::{BusStats, Kernel};
use traffic_gen::GeneratorSpec;

/// One independent experiment point: the per-master traffic specs and
/// the arbiter.
pub type FleetJob = (Vec<GeneratorSpec>, ArbiterKind);

/// Runs every job through the settings' warm-up and measurement windows
/// under [`Kernel::Event`], whatever `settings.kernel` says, and returns
/// the steady-state statistics in input order. Byte-identical to calling
/// [`common::run_system`] on each job under either kernel.
///
/// # Panics
///
/// Panics if any system cannot be built (experiment definitions are
/// statically valid, like [`common::run_system`]'s).
pub fn run_systems_fleet(jobs: Vec<FleetJob>, settings: &RunSettings) -> Vec<BusStats> {
    let settings = settings.with_kernel(Kernel::Event);
    jobs.into_iter()
        .map(|(specs, arbiter)| common::run_system(&specs, arbiter, &settings))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_gen::classes::saturating_specs;
    use traffic_gen::SizeDist;

    #[test]
    fn batch_matches_cycle_kernel_runs_byte_for_byte() {
        let settings = RunSettings { warmup: 1_000, measure: 8_000, ..RunSettings::quick() };
        let sparse = vec![GeneratorSpec::poisson(0.01, SizeDist::fixed(8)); 2];
        let rr2 = || ArbiterKind::from(arbiters::RoundRobinArbiter::new(2).expect("valid"));
        let mut jobs: Vec<FleetJob> = (0..5)
            .map(|p| (saturating_specs(4), common::protocol_arbiter(p, settings.seed)))
            .collect();
        jobs.push((sparse.clone(), rr2()));
        let batch = run_systems_fleet(jobs, &settings);
        for (p, stats) in batch.iter().take(5).enumerate() {
            let solo = common::run_system(
                &saturating_specs(4),
                common::protocol_arbiter(p, settings.seed),
                &settings,
            );
            assert_eq!(*stats, solo, "protocol {p} diverged from its cycle-kernel run");
        }
        assert_eq!(batch[5], common::run_system(&sparse, rr2(), &settings));
    }
}
