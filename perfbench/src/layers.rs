//! Per-layer timings for the traced run.
//!
//! The program has no spans of its own, so the traced run times calls
//! into each crate's public functions from here: it walks every planned
//! schedule back through the simulator and times the calls the search
//! makes at each visited state. Nothing here runs inside a timed plan.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spear::dag::analysis::GraphFeatures;
use spear::nn::{ForwardScratch, InferScratch, InferenceEngine, Precision};
use spear::rl::StateView;
use spear::{Action, CpScheduler, PolicyNetwork, Schedule, Scheduler, SearchStats, SimState};

use crate::check::check_schedule;
use crate::stats::{mean, median};
use crate::workloads::{Input, Item, SetupTimes, Workload};

/// Visited states per plan that get the heavier probes (featurize,
/// forward passes, rollouts).
const SAMPLED_STATES: usize = 48;
/// Repeats of each side-effect-free call, to lift it above timer cost.
const REPEATS: u32 = 4;

/// A running sum of per-call nanoseconds.
#[derive(Default)]
struct Calls {
    ns: f64,
    count: u64,
}

impl Calls {
    fn add(&mut self, ns: f64, count: u64) {
        self.ns += ns;
        self.count += count;
    }

    fn per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns / self.count as f64
        }
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// The network a Spear workload plans with, in the precision it infers at.
enum Net {
    Exact(PolicyNetwork),
    Fast(PolicyNetwork, InferenceEngine),
}

impl Net {
    fn policy(&self) -> &PolicyNetwork {
        match self {
            Net::Exact(p) | Net::Fast(p, _) => p,
        }
    }
}

/// Accumulated per-layer measurements of one traced run. A layer the
/// workload does not use reports 0.
pub struct Layers {
    /// `None` on pure MCTS, which runs no network.
    net: Option<Net>,
    legal: Calls,
    legal_actions: Calls,
    apply: Calls,
    process: Calls,
    rollout_step: Calls,
    featurize: Calls,
    forward_f64: Calls,
    forward_f32: Calls,
    stats: SearchStats,
    plans: u64,
    plan_s: Vec<f64>,
    greedy_ms: Vec<f64>,
    cp_ms: Vec<f64>,
    cp_ratios: Vec<f64>,
    judge_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    pub realized_vs_planned: Vec<f64>,
    probe_s: f64,
    probes: u64,
    rng: SmallRng,
}

impl Layers {
    /// Probes with the workload's own policy, if it plans with one.
    pub fn new(workload: Workload, policy: Option<&PolicyNetwork>, seed: u64) -> Layers {
        let net = policy.map(|p| match workload.precision() {
            Some(Precision::Fast) => Net::Fast(p.clone(), p.inference_engine()),
            _ => Net::Exact(p.clone()),
        });
        Layers {
            net,
            legal: Calls::default(),
            legal_actions: Calls::default(),
            apply: Calls::default(),
            process: Calls::default(),
            rollout_step: Calls::default(),
            featurize: Calls::default(),
            forward_f64: Calls::default(),
            forward_f32: Calls::default(),
            stats: SearchStats::default(),
            plans: 0,
            plan_s: Vec::new(),
            greedy_ms: Vec::new(),
            cp_ms: Vec::new(),
            cp_ratios: Vec::new(),
            judge_ms: Vec::new(),
            replay_ms: Vec::new(),
            realized_vs_planned: Vec::new(),
            probe_s: 0.0,
            probes: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Records one timed plan: its wall time and the search's counters.
    pub fn record_plan(&mut self, stats: &SearchStats, plan_s: f64) {
        self.plans += 1;
        self.plan_s.push(plan_s);
        self.stats = self.stats.merged(*stats);
        self.stats.elapsed_seconds = 0.0;
    }

    /// Probes one planned input. Returns an error when a reference
    /// planner's schedule or the program's own judges fail the input.
    pub fn observe(&mut self, item: &Item, planned: &Schedule) -> Result<(), String> {
        let t = Instant::now();
        self.walk(item, planned)?;
        self.references(item, planned)?;
        self.probe_s += t.elapsed().as_secs_f64();
        self.probes += 1;
        Ok(())
    }

    /// Replays `planned` action by action from the initial state, timing
    /// the simulator calls at every visited state and the policy calls
    /// at a sample of them.
    fn walk(&mut self, item: &Item, planned: &Schedule) -> Result<(), String> {
        let (dag, spec) = (item.dag(), &item.spec);
        let mut state = match &item.input {
            Input::Job(dag) => SimState::new(dag, spec),
            Input::Stream(queue) => SimState::new_multi(queue, spec),
        }
        .map_err(|e| e.to_string())?;
        let mut order: Vec<_> = planned.placements().to_vec();
        order.sort_by_key(|p| (p.start, p.task));
        let hetero = spec.machines().is_some();
        let graph = GraphFeatures::compute(dag);
        let featurizer = self.net.as_ref().map(|n| n.policy().featurizer().clone());
        let every = (2 * dag.len() / SAMPLED_STATES).max(1);
        let (mut legal, mut ready, mut view) = (Vec::new(), Vec::new(), StateView::default());
        let (mut fwd, mut inf) = (ForwardScratch::default(), InferScratch::new());
        let mut next = 0;
        let mut visited = 0usize;
        while !state.is_terminal(dag) {
            let t = Instant::now();
            for _ in 0..REPEATS {
                state.legal_actions_into(dag, &mut legal);
                black_box(&legal);
            }
            self.legal.add(ns_since(t), u64::from(REPEATS));
            self.legal_actions.add(legal.len() as f64, 1);
            if visited.is_multiple_of(every) {
                if let (Some(net), Some(featurizer)) = (&self.net, &featurizer) {
                    let t = Instant::now();
                    featurizer.featurize_into(dag, spec, &state, &graph, &mut ready, &mut view);
                    self.featurize.add(ns_since(t), 1);
                    let t = Instant::now();
                    match net {
                        Net::Exact(policy) => {
                            for _ in 0..REPEATS {
                                black_box(policy.net().forward_one_into(&view.features, &mut fwd));
                            }
                            self.forward_f64.add(ns_since(t), u64::from(REPEATS));
                        }
                        Net::Fast(_, engine) => {
                            for _ in 0..REPEATS {
                                black_box(engine.forward_one(&view.features, &mut inf));
                            }
                            self.forward_f32.add(ns_since(t), u64::from(REPEATS));
                        }
                    }
                }
                self.rollout(dag, &state, &mut legal);
                state.legal_actions_into(dag, &mut legal);
            }
            visited += 1;
            let action = match order.get(next) {
                Some(p) if p.start == state.clock() => {
                    next += 1;
                    if hetero {
                        Action::Place(p.task, p.machine)
                    } else {
                        Action::Schedule(p.task)
                    }
                }
                _ => Action::Process,
            };
            if !legal.contains(&action) {
                return Err(format!(
                    "walking the plan: {action} is not legal at slot {}",
                    state.clock()
                ));
            }
            let t = Instant::now();
            state.apply_legal(dag, action);
            let ns = ns_since(t);
            match action {
                Action::Process => self.process.add(ns, 1),
                _ => self.apply.add(ns, 1),
            }
        }
        if next != order.len() {
            return Err("walking the plan: the episode ended early".to_owned());
        }
        Ok(())
    }

    /// A work-conserving random rollout from `from` to the end of the
    /// episode, as pure MCTS runs them: a uniform pick among the tasks
    /// that can start, `Process` only when none can.
    fn rollout(&mut self, dag: &spear::Dag, from: &SimState, legal: &mut Vec<Action>) {
        let mut state = from.clone();
        let t = Instant::now();
        let mut steps = 0;
        while !state.is_terminal(dag) {
            state.legal_actions_into(dag, legal);
            let starts = legal.iter().filter(|&&a| a != Action::Process).count();
            let action = if starts == 0 {
                Action::Process
            } else {
                *legal
                    .iter()
                    .filter(|&&a| a != Action::Process)
                    .nth(self.rng.gen_range(0..starts))
                    .expect("counted above")
            };
            state.apply_legal(dag, action);
            steps += 1;
        }
        self.rollout_step.add(ns_since(t), steps as u64);
    }

    /// Times the greedy estimate, the CP reference planner and the
    /// program's own judges on this input.
    fn references(&mut self, item: &Item, planned: &Schedule) -> Result<(), String> {
        let spec = &item.spec;
        let t = Instant::now();
        let cp = match &item.input {
            Input::Job(dag) => {
                black_box(spear::sched::greedy_makespan_estimate(dag, spec))
                    .map_err(|e| e.to_string())?;
                self.greedy_ms.push(ms_since(t));
                let t = Instant::now();
                let cp = CpScheduler::new().schedule(dag, spec);
                self.cp_ms.push(ms_since(t));
                cp
            }
            Input::Stream(queue) => {
                black_box(spear::sched::greedy_makespan_estimate_multi(queue, spec))
                    .map_err(|e| e.to_string())?;
                self.greedy_ms.push(ms_since(t));
                let t = Instant::now();
                let cp = CpScheduler::new().schedule_multi(queue, spec);
                self.cp_ms.push(ms_since(t));
                cp
            }
        }
        .map_err(|e| format!("cp: {e}"))?;
        check_schedule(item.dag(), spec, &item.arrivals, &cp).map_err(|v| format!("cp: {v}"))?;
        self.cp_ratios
            .extend(item.job_ratios(&cp).map_err(|v| format!("cp: {v}"))?);
        let t = Instant::now();
        let verdict = match &item.input {
            Input::Job(dag) => spear::diffcheck::check_schedule(dag, spec, planned),
            Input::Stream(queue) => spear::diffcheck::check_multi_schedule(queue, spec, planned),
        };
        self.judge_ms.push(ms_since(t));
        if !verdict.all_ok() {
            return Err(format!(
                "the program's judges reject the plan: {}",
                verdict.summary()
            ));
        }
        Ok(())
    }

    /// The per-layer metrics, as `(name, value, unit)`; the set-up
    /// timings are medians over the run's set-ups.
    pub fn metrics(&self, setups: &[SetupTimes]) -> Vec<(&'static str, f64, &'static str)> {
        let setup_ms =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        let s = &self.stats;
        let plan_total: f64 = self.plan_s.iter().sum();
        let per_s = |count: u64| count as f64 / plan_total;
        let consulted = s.cache_hits + s.cache_misses;
        let policy_calls = s.inference_skips + s.cache_hits + s.policy_inferences;
        let share = |part: f64, whole: u64| if whole == 0 { 0.0 } else { part / whole as f64 };
        // Only the workload's own precision is probed; the other reads 0.
        let forward_ns = self.forward_f64.per_call() + self.forward_f32.per_call();
        let nn_ns = s.policy_inferences as f64 * (self.featurize.per_call() + forward_ns);
        vec![
            ("dag.generate_ms", setup_ms(|t| t.dag_ms), "ms"),
            ("trace.stream_ms", setup_ms(|t| t.trace_ms), "ms"),
            ("rl.policy_load_ms", setup_ms(|t| t.policy_ms), "ms"),
            ("cluster.legal_ns", self.legal.per_call(), "ns"),
            (
                "cluster.legal_actions_mean",
                self.legal_actions.per_call(),
                "count",
            ),
            ("cluster.apply_ns", self.apply.per_call(), "ns"),
            ("cluster.process_ns", self.process.per_call(), "ns"),
            (
                "cluster.rollout_step_ns",
                self.rollout_step.per_call(),
                "ns",
            ),
            ("rl.featurize_ns", self.featurize.per_call(), "ns"),
            ("nn.forward_f64_ns", self.forward_f64.per_call(), "ns"),
            ("nn.forward_f32_ns", self.forward_f32.per_call(), "ns"),
            ("mcts.iterations_per_s", per_s(s.iterations), "1/s"),
            ("mcts.rollout_steps_per_s", per_s(s.rollout_steps), "1/s"),
            (
                "mcts.cache_hit_rate",
                share(s.cache_hits as f64, consulted),
                "ratio",
            ),
            (
                "mcts.inference_skip_ratio",
                share(s.inference_skips as f64, policy_calls),
                "ratio",
            ),
            (
                "mcts.tree_nodes",
                share(s.tree_nodes as f64, self.plans),
                "count",
            ),
            (
                "mcts.est_cluster_share",
                s.rollout_steps as f64 * self.rollout_step.per_call() * 1e-9 / plan_total,
                "ratio",
            ),
            ("mcts.est_nn_share", nn_ns * 1e-9 / plan_total, "ratio"),
            ("sched.greedy_estimate_ms", mean(&self.greedy_ms), "ms"),
            ("sched.cp_plan_ms", mean(&self.cp_ms), "ms"),
            ("sched.cp_jct_vs_lb", mean(&self.cp_ratios), "ratio"),
            ("cluster.fault_replay_ms", mean(&self.replay_ms), "ms"),
            (
                "cluster.fault_realized_vs_planned",
                mean(&self.realized_vs_planned),
                "ratio",
            ),
            ("core.judge_ms", mean(&self.judge_ms), "ms"),
            ("trace.plan_s_p50", median(&self.plan_s), "s"),
            (
                "trace.overhead_ratio",
                share(self.probe_s, self.probes) / share(plan_total, self.plans),
                "ratio",
            ),
        ]
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
