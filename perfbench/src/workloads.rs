//! The three workloads: their inputs, set-up and planning calls.
//!
//! Every input is drawn from the run's `--seed`; the same seed always
//! yields the same DAGs, machines, streams and fault plans.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear::dag::generator::LayeredDagSpec;
use spear::nn::{Mlp, Precision};
use spear::{
    execute_multi_under_faults, execute_under_faults, ArrivalProcess, ArrivalStreamSpec,
    ClusterSpec, Dag, FaultPlan, FaultProfile, FaultyRun, FeatureConfig, JobQueue, JobSource,
    MachineProfile, MctsConfig, MctsScheduler, PolicyNetwork, Schedule, SearchStats, SpearError,
    SyntheticTraceSpec, Trace,
};

use crate::check::{jct_ratio, lower_bound, total_capacity, Violation};

/// The committed trained policy the Spear workloads plan with.
pub const POLICY_PATH: &str = "results/policy_quick.json";

/// Fault-replay knobs: 10% failures and stragglers, with a retry budget
/// deep enough (0.1^9 per task) that no replay runs out of retries.
fn fault_profile() -> FaultProfile {
    FaultProfile {
        max_retries: 8,
        ..FaultProfile::with_rate(0.1)
    }
}

/// The `mcts-hetero` fault plan is the same for every seed: today every
/// replay on a multi-machine cluster fails at its first dispatch,
/// whatever the inputs, and a fixed plan keeps that share exact.
const HETERO_FAULT_SEED: u64 = 0x5EED_FA17;

/// Spear-sim100: DAGs in the pool (more than a run plans).
const SIM_POOL: usize = 48;
/// Mcts-hetero: DAGs in the pool, their size, the machines of each DAG's
/// own cluster, and the budget.
const HETERO_POOL: usize = 64;
const HETERO_TASKS: usize = 500;
const HETERO_MACHINES: usize = 4;
const HETERO_BUDGET: (u64, u64) = (20, 4);
/// Hive-stream: trace jobs, jobs per stream, Poisson mean gap, budget.
/// Short streams keep the tail of per-job JCT short: the planner
/// minimizes the stream's makespan, not each job's completion.
const TRACE_JOBS: usize = 600;
const STREAM_JOBS: usize = 3;
const STREAM_MEAN_GAP: f64 = 200.0;
const STREAM_BUDGET: (u64, u64) = (10, 4);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Spear (f64 inference) on 100-task paper-simulation DAGs.
    SpearSim100,
    /// Pure MCTS on large DAGs over a multi-machine cluster.
    MctsHetero,
    /// Spear (f32 inference) on a Poisson stream of Hive-trace jobs.
    HiveStream,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SpearSim100,
        Workload::MctsHetero,
        Workload::HiveStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpearSim100 => "spear-sim100",
            Workload::MctsHetero => "mcts-hetero",
            Workload::HiveStream => "hive-stream",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's planner runs the policy network.
    pub fn precision(self) -> Option<Precision> {
        match self {
            Workload::SpearSim100 => Some(Precision::Exact),
            Workload::MctsHetero => None,
            Workload::HiveStream => Some(Precision::Fast),
        }
    }
}

/// One planning input: a single DAG, or a job stream planned as one
/// continuous episode.
pub enum Input {
    /// One job arriving at slot 0.
    Job(Dag),
    /// A stream of jobs over one union DAG.
    Stream(JobQueue),
}

/// One job of an input, with the benchmark's own lower bound.
pub struct Job {
    /// Slot the job arrives at.
    pub arrival: u64,
    /// Its first task in the planned DAG, and its task count.
    pub first: usize,
    pub len: usize,
    /// Lower bound on its completion time alone on the cluster.
    pub bound: f64,
}

/// A planning input with the bookkeeping the checks need.
pub struct Item {
    pub input: Input,
    /// The cluster the input is planned on.
    pub spec: ClusterSpec,
    /// Arrival slot of each task's job (empty for single jobs).
    pub arrivals: Vec<u64>,
    pub jobs: Vec<Job>,
}

impl Item {
    fn job(dag: Dag, spec: ClusterSpec) -> Item {
        let bound = lower_bound(&dag, &total_capacity(&spec));
        let len = dag.len();
        Item {
            input: Input::Job(dag),
            spec,
            arrivals: Vec::new(),
            jobs: vec![Job {
                arrival: 0,
                first: 0,
                len,
                bound,
            }],
        }
    }

    /// A stream, with job boundaries taken from the generated list (jobs
    /// in arrival order, ties in generation order) rather than from the
    /// queue, so a queue that reorders jobs shows up as a check failure.
    fn stream(mut stream: Vec<(u64, Dag)>, spec: ClusterSpec) -> Result<Item, SpearError> {
        let capacity = total_capacity(&spec);
        stream.sort_by_key(|&(arrival, _)| arrival);
        let mut jobs = Vec::with_capacity(stream.len());
        let mut arrivals = Vec::new();
        for (arrival, dag) in &stream {
            jobs.push(Job {
                arrival: *arrival,
                first: arrivals.len(),
                len: dag.len(),
                bound: lower_bound(dag, &capacity),
            });
            arrivals.extend(std::iter::repeat_n(*arrival, dag.len()));
        }
        Ok(Item {
            input: Input::Stream(JobQueue::new(stream)?),
            spec,
            arrivals,
            jobs,
        })
    }

    /// The DAG the planner schedules (the union DAG of a stream).
    pub fn dag(&self) -> &Dag {
        match &self.input {
            Input::Job(dag) => dag,
            Input::Stream(queue) => queue.union_dag(),
        }
    }

    /// Tasks placed by one plan of this input, counted from the input.
    pub fn tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.len).sum()
    }

    /// Plans the input with `scheduler`.
    pub fn plan(
        &self,
        scheduler: &mut MctsScheduler,
    ) -> Result<(Schedule, SearchStats), SpearError> {
        match &self.input {
            Input::Job(dag) => scheduler.schedule_with_stats(dag, &self.spec),
            Input::Stream(queue) => scheduler.schedule_multi_with_stats(queue, &self.spec),
        }
    }

    /// Re-executes a planned schedule under `plan`.
    pub fn replay(&self, planned: &Schedule, plan: &FaultPlan) -> Result<FaultyRun, SpearError> {
        match &self.input {
            Input::Job(dag) => execute_under_faults(dag, &self.spec, planned, plan),
            Input::Stream(queue) => {
                Ok(execute_multi_under_faults(queue, &self.spec, planned, plan, None)?.run)
            }
        }
    }

    /// `(completion - arrival) / bound` for every job of a checked plan.
    pub fn job_ratios(&self, schedule: &Schedule) -> Result<Vec<f64>, Violation> {
        let placements = schedule.placements();
        self.jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                let completion = placements[job.first..job.first + job.len]
                    .iter()
                    .map(|p| p.finish)
                    .max()
                    .unwrap_or(job.arrival);
                jct_ratio(j, job.arrival, completion, job.bound)
            })
            .collect()
    }
}

/// A workload's planner: one MCTS configuration and, for Spear, the
/// policy it searches with.
pub struct Planner {
    config: MctsConfig,
    policy: Option<PolicyNetwork>,
}

impl Planner {
    /// The policy the planner searches with (Spear workloads only).
    pub fn policy(&self) -> Option<&PolicyNetwork> {
        self.policy.as_ref()
    }

    /// The scheduler for plan number `plan`. Each plan gets its own search
    /// seed, drawn from the run's seed: with one seed for all, the luck of
    /// that seed would move every plan of a run the same way.
    pub fn build(&self, plan: u64) -> MctsScheduler {
        let config = MctsConfig {
            seed: self.config.seed ^ plan.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..self.config.clone()
        };
        match &self.policy {
            Some(policy) => MctsScheduler::drl(config, policy.clone()),
            None => MctsScheduler::pure(config),
        }
    }
}

/// Everything a workload builds before its first plan, except the
/// scheduler of that plan, which `setup` returns beside it.
pub struct Setup {
    pub items: Vec<Item>,
    pub planner: Planner,
    /// The fault plan each planned schedule is replayed under, if any.
    pub faults: Option<FaultPlan>,
}

/// Per-layer split of one set-up, in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub dag_ms: f64,
    pub trace_ms: f64,
    pub policy_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Loads the committed policy network.
fn load_policy() -> Result<PolicyNetwork, String> {
    let net =
        Mlp::load_from_path(POLICY_PATH).map_err(|e| format!("cannot load {POLICY_PATH}: {e}"))?;
    let features = FeatureConfig::paper(2);
    if net.config().input != features.input_dim() || net.config().output != features.action_dim() {
        return Err(format!(
            "{POLICY_PATH} does not fit the paper featurization"
        ));
    }
    Ok(PolicyNetwork::from_parts(features, net))
}

fn mcts_config(budget: (u64, u64), precision: Precision, seed: u64) -> MctsConfig {
    MctsConfig {
        initial_budget: budget.0,
        min_budget: budget.1,
        nn_precision: precision,
        seed,
        ..MctsConfig::default()
    }
}

/// Layered paper-simulation DAGs of `tasks` tasks.
fn layered(count: usize, tasks: usize, seed: u64) -> Vec<Dag> {
    let spec = LayeredDagSpec {
        num_tasks: tasks,
        ..LayeredDagSpec::paper_simulation()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| spec.generate(&mut rng)).collect()
}

/// Builds the workload's inputs, its planner and the scheduler of plan
/// number `plan` (for f32 inference that snapshots the network), and
/// records the per-layer split.
pub fn setup(
    workload: Workload,
    seed: u64,
    plan: u64,
    times: &mut SetupTimes,
) -> Result<(Setup, MctsScheduler), String> {
    let err = |e: SpearError| e.to_string();
    match workload {
        Workload::SpearSim100 => {
            let t = Instant::now();
            let dags = layered(SIM_POOL, 100, seed);
            times.dag_ms = ms_since(t);
            let t = Instant::now();
            let planner = Planner {
                // The paper's Spear budget: 100 at the root, decaying to 50.
                config: mcts_config((100, 50), Precision::Exact, seed),
                policy: Some(load_policy()?),
            };
            let scheduler = planner.build(plan);
            times.policy_ms = ms_since(t);
            let items = dags
                .into_iter()
                .map(|d| Item::job(d, ClusterSpec::unit(2)))
                .collect();
            Ok((
                Setup {
                    items,
                    planner,
                    faults: None,
                },
                scheduler,
            ))
        }
        Workload::MctsHetero => {
            let t = Instant::now();
            let dags = layered(HETERO_POOL, HETERO_TASKS, seed);
            times.dag_ms = ms_since(t);
            // Every DAG gets its own machine set, so one run averages over
            // many clusters instead of riding on one draw.
            let t = Instant::now();
            let profile = MachineProfile::sweep(HETERO_MACHINES);
            let machines = (0..HETERO_POOL as u64)
                .map(|k| profile.generate(seed.wrapping_mul(HETERO_POOL as u64).wrapping_add(k)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let faults = fault_profile().plan(HETERO_FAULT_SEED);
            times.trace_ms = ms_since(t);
            let items = dags
                .into_iter()
                .zip(machines)
                .map(|(d, m)| Ok(Item::job(d, ClusterSpec::hetero(m)?)))
                .collect::<Result<Vec<_>, spear::ClusterError>>()
                .map_err(|e| e.to_string())?;
            let planner = Planner {
                config: mcts_config(HETERO_BUDGET, Precision::Exact, seed),
                policy: None,
            };
            let scheduler = planner.build(plan);
            Ok((
                Setup {
                    items,
                    planner,
                    faults: Some(faults),
                },
                scheduler,
            ))
        }
        Workload::HiveStream => {
            let t = Instant::now();
            let trace = SyntheticTraceSpec {
                num_jobs: TRACE_JOBS,
                ..SyntheticTraceSpec::paper()
            }
            .generate(seed);
            // Consecutive trace slices, so no two streams share a job.
            let streams = trace
                .jobs
                .chunks_exact(STREAM_JOBS)
                .enumerate()
                .map(|(k, jobs)| {
                    ArrivalStreamSpec {
                        jobs: STREAM_JOBS,
                        process: ArrivalProcess::Poisson {
                            mean_gap: STREAM_MEAN_GAP,
                        },
                        source: JobSource::Trace(Trace {
                            jobs: jobs.to_vec(),
                        }),
                    }
                    .generate(seed.wrapping_add(k as u64))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let faults = fault_profile().plan(seed);
            times.trace_ms = ms_since(t);
            let t = Instant::now();
            let items = streams
                .into_iter()
                .map(|s| Item::stream(s, ClusterSpec::unit(2)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            times.dag_ms = ms_since(t);
            let t = Instant::now();
            let planner = Planner {
                config: mcts_config(STREAM_BUDGET, Precision::Fast, seed),
                policy: Some(load_policy()?),
            };
            let scheduler = planner.build(plan);
            times.policy_ms = ms_since(t);
            Ok((
                Setup {
                    items,
                    planner,
                    faults: Some(faults),
                },
                scheduler,
            ))
        }
    }
}
