//! Independent systems run side by side under the event kernel.
//!
//! [`Fleet`] is a thin shell over [`System`]: each lane is an ordinary
//! system built with [`Kernel::Event`] and run in order on the calling
//! thread, so every lane's results are exactly its solo run's.

use crate::arbiter::Arbiter;
use crate::error::BuildSystemError;
use crate::fastforward::Kernel;
use crate::stats::BusStats;
use crate::system::{System, SystemBuilder, TrafficSource};

/// Builder for one fleet lane: a [`SystemBuilder`] whose kernel
/// [`Fleet::build`] sets to [`Kernel::Event`].
pub type LaneBuilder<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> = SystemBuilder<A, S>;

/// Independent systems advanced together by [`Fleet::run`].
pub struct Fleet<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    lanes: Vec<System<A, S>>,
}

impl<A: Arbiter, S: TrafficSource> Fleet<A, S> {
    /// Builds every lane under the event kernel, in order.
    ///
    /// # Errors
    ///
    /// Returns the first lane's [`SystemBuilder::build`] error.
    pub fn build(lanes: Vec<LaneBuilder<A, S>>) -> Result<Self, BuildSystemError> {
        let lanes = lanes.into_iter().map(|lane| lane.kernel(Kernel::Event).build());
        Ok(Fleet { lanes: lanes.collect::<Result<_, _>>()? })
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the fleet has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Accumulated statistics of lane `lane`.
    pub fn stats(&self, lane: usize) -> &BusStats {
        self.lanes[lane].stats()
    }

    /// The system of lane `lane`, for inspection beyond statistics.
    pub fn lane_mut(&mut self, lane: usize) -> &mut System<A, S> {
        &mut self.lanes[lane]
    }

    /// Runs `cycles` warm-up cycles on every lane, then discards the
    /// statistics ([`System::warm_up`]).
    pub fn warm_up(&mut self, cycles: u64) {
        self.lanes.iter_mut().for_each(|lane| lane.warm_up(cycles));
    }

    /// Advances every lane by `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        self.lanes.iter_mut().for_each(|lane| _ = lane.run(cycles));
    }
}
