//! Scenario plans: running a set of scenarios with dependencies.
//!
//! A plan is simply every scenario passed to one invocation. `after`
//! lines turn the set into a DAG: a dependent scenario runs only once
//! its parent has run and the declared condition holds ("degraded-mode
//! checks run only after failover fired"). Scenarios at the same
//! dependency depth run in parallel through the job pool, and the
//! report lists every scenario in input order regardless of execution
//! order, so plan output is deterministic for a fixed input.

use crate::model::{DepCondition, Scenario};
use crate::run::{run_scenario, Outcome};
use experiments::json::Json;
use socsim::pool::parallel_map;
use socsim::Kernel;

/// What happened to one scenario of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutcome {
    /// The scenario ran to a verdict.
    Ran(Outcome),
    /// The scenario was skipped (unmet dependency condition).
    Skipped {
        /// Why it did not run.
        reason: String,
    },
}

/// The result of executing a whole plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// One entry per scenario, in input order.
    pub entries: Vec<(String, PlanOutcome)>,
}

impl PlanReport {
    /// Whether every executed scenario's verdict matched its `expect`
    /// line. Skipped scenarios don't count against the plan — their
    /// reason is recorded in the report.
    pub fn all_as_expected(&self) -> bool {
        self.entries.iter().all(|(_, outcome)| match outcome {
            PlanOutcome::Ran(o) => o.as_expected(),
            PlanOutcome::Skipped { .. } => true,
        })
    }

    /// Serializes the report as deterministic JSON (scenarios in
    /// input order; no wall-clock or kernel information).
    pub fn to_json(&self) -> Json {
        let mut ran = 0u64;
        let mut passed = 0u64;
        let mut skipped = 0u64;
        let mut scenarios = Vec::with_capacity(self.entries.len());
        for (name, outcome) in &self.entries {
            match outcome {
                PlanOutcome::Ran(o) => {
                    ran += 1;
                    if o.passed {
                        passed += 1;
                    }
                    scenarios
                        .push(Json::obj().field("status", "ran").field("outcome", o.to_json()));
                }
                PlanOutcome::Skipped { reason } => {
                    skipped += 1;
                    scenarios.push(
                        Json::obj()
                            .field("status", "skipped")
                            .field("name", name.as_str())
                            .field("reason", reason.as_str()),
                    );
                }
            }
        }
        Json::obj()
            .field("scenarios", Json::Arr(scenarios))
            .field("ran", ran)
            .field("passed", passed)
            .field("failed", ran - passed)
            .field("skipped", skipped)
            .field("all_as_expected", self.all_as_expected())
    }
}

/// Dependency depth of every scenario, with cycle and unknown-parent
/// detection. Depth 0 scenarios have no parent.
fn depths(scenarios: &[Scenario]) -> Result<Vec<usize>, String> {
    let index_of = |name: &str| scenarios.iter().position(|s| s.name == name);
    for (i, sc) in scenarios.iter().enumerate() {
        if scenarios.iter().skip(i + 1).any(|o| o.name == sc.name) {
            return Err(format!("plan contains two scenarios named `{}`", sc.name));
        }
    }
    let mut depth = vec![usize::MAX; scenarios.len()];
    for start in 0..scenarios.len() {
        if depth[start] != usize::MAX {
            continue;
        }
        // Walk the parent chain, marking the path to detect cycles.
        let mut path = Vec::new();
        let mut cur = start;
        let d = loop {
            if depth[cur] != usize::MAX {
                break depth[cur] + 1;
            }
            if path.contains(&cur) {
                return Err(format!("dependency cycle through scenario `{}`", scenarios[cur].name));
            }
            path.push(cur);
            match &scenarios[cur].after {
                None => break 0,
                Some(dep) => {
                    cur = index_of(&dep.parent).ok_or_else(|| {
                        format!(
                            "scenario `{}` depends on unknown scenario `{}`",
                            scenarios[cur].name, dep.parent
                        )
                    })?;
                }
            }
        };
        // Unwind: the deepest path element got depth d-... assign in
        // reverse order.
        for (offset, &i) in path.iter().rev().enumerate() {
            depth[i] = d + offset;
        }
    }
    Ok(depth)
}

/// Whether the dependency condition holds given the parent's outcome,
/// or the skip reason if it doesn't.
fn condition_met(
    child: &Scenario,
    condition: DepCondition,
    parent: &PlanOutcome,
) -> Result<(), String> {
    let dep = child.after.as_ref().expect("caller checked");
    match parent {
        PlanOutcome::Skipped { .. } => Err(format!("parent `{}` was skipped", dep.parent)),
        PlanOutcome::Ran(o) => {
            let met = match condition {
                DepCondition::Passed => o.passed,
                DepCondition::Failed => !o.passed,
                DepCondition::FailoverFired => o.failovers >= 1,
            };
            if met {
                Ok(())
            } else {
                Err(format!("parent `{}` did not satisfy `{}`", dep.parent, condition.keyword()))
            }
        }
    }
}

/// Executes a plan: validates the dependency DAG, runs scenarios
/// level by level (parallel within a level, `jobs = 0` = all cores),
/// and reports every scenario in input order.
pub fn run_plan(scenarios: &[Scenario], kernel: Kernel, jobs: usize) -> Result<PlanReport, String> {
    if scenarios.is_empty() {
        return Err("plan contains no scenarios".to_owned());
    }
    let depth = depths(scenarios)?;
    let max_depth = *depth.iter().max().expect("non-empty");
    let mut slots: Vec<Option<PlanOutcome>> = vec![None; scenarios.len()];
    for level in 0..=max_depth {
        let mut runnable = Vec::new();
        for (i, sc) in scenarios.iter().enumerate() {
            if depth[i] != level {
                continue;
            }
            match &sc.after {
                None => runnable.push(i),
                Some(dep) => {
                    let parent_idx =
                        scenarios.iter().position(|s| s.name == dep.parent).expect("validated");
                    let parent = slots[parent_idx].as_ref().expect("parent level already ran");
                    match condition_met(sc, dep.condition, parent) {
                        Ok(()) => runnable.push(i),
                        Err(reason) => slots[i] = Some(PlanOutcome::Skipped { reason }),
                    }
                }
            }
        }
        let results =
            parallel_map(jobs, &runnable, |_worker, &i| run_scenario(&scenarios[i], kernel));
        for (&i, result) in runnable.iter().zip(results) {
            slots[i] = Some(PlanOutcome::Ran(result?));
        }
    }
    let entries = scenarios
        .iter()
        .zip(slots)
        .map(|(sc, slot)| (sc.name.clone(), slot.expect("every level filled")))
        .collect();
    Ok(PlanReport { entries })
}
