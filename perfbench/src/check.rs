//! The benchmark's own schedule checks and lower bound.
//!
//! Nothing here calls the program's judges (`Schedule::validate`,
//! `spear::diffcheck`) or its simulator: every property is re-derived from
//! the inputs with plain slot arithmetic, so a judge bug that accepts a
//! broken schedule cannot also hide it from the benchmark.

use std::fmt;

use spear::{ClusterSpec, Dag, FaultyRun, MachineSet, Placement, Schedule, TaskId, TransferMode};

/// Slack for floating-point demand sums against a capacity.
const CAPACITY_SLACK: f64 = 1e-9;

/// One broken property of a planned schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The task has no placement.
    Missing(usize),
    /// The task is placed more than once.
    Duplicate(usize),
    /// A placement names a task the DAG does not have.
    UnknownTask(usize),
    /// `finish - start` differs from the task's runtime.
    Duration(usize),
    /// The reported makespan is not the latest finish.
    Makespan { reported: u64, latest: u64 },
    /// A placement names a machine the cluster does not have.
    Machine { task: usize, machine: u32 },
    /// A child starts before its parent finishes.
    Precedence { parent: usize, child: usize },
    /// A child starts before its parent's output reached its machine.
    Transfer { parent: usize, child: usize },
    /// The tasks running on `machine` during `slot` exceed its capacity in
    /// resource `dim`.
    Capacity { machine: u32, slot: u64, dim: usize },
    /// A task starts before its job arrives.
    BeforeArrival {
        task: usize,
        arrival: u64,
        start: u64,
    },
    /// A job finished faster than its lower bound allows.
    BelowBound { job: usize, ratio: f64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Per-machine capacities; a single-box cluster is one machine.
fn machine_capacities(spec: &ClusterSpec) -> Vec<Vec<f64>> {
    match spec.machines() {
        Some(set) => set
            .capacities()
            .iter()
            .map(|c| c.as_slice().to_vec())
            .collect(),
        None => vec![spec.capacity().as_slice().to_vec()],
    }
}

/// Slots the output of `parent` takes to reach `dst` from `src`.
fn transfer_slots(set: &MachineSet, parent: usize, child: usize, src: u32, dst: u32) -> u64 {
    if src == dst {
        return 0;
    }
    let bytes = set.edge_bytes(parent, child);
    let up = |bw: u64| bytes.div_ceil(bw);
    match set.mode() {
        TransferMode::Direct => up(set.bandwidth(src, dst)),
        TransferMode::ViaMaster => up(set.bandwidth(src, src)) + up(set.bandwidth(dst, dst)),
    }
}

/// Index of each task's placement; an error unless every task is placed
/// exactly once.
fn index_placements(n: usize, placements: &[Placement]) -> Result<Vec<usize>, Violation> {
    let mut slot_of: Vec<Option<usize>> = vec![None; n];
    for (i, p) in placements.iter().enumerate() {
        let t = p.task.index();
        if t >= n {
            return Err(Violation::UnknownTask(t));
        }
        if slot_of[t].is_some() {
            return Err(Violation::Duplicate(t));
        }
        slot_of[t] = Some(i);
    }
    slot_of
        .iter()
        .enumerate()
        .map(|(t, s)| s.ok_or(Violation::Missing(t)))
        .collect()
}

/// Arrivals, machine indices, precedence and transfer gating of placements
/// indexed by task (`place[t]`).
fn check_order(
    dag: &Dag,
    spec: &ClusterSpec,
    arrivals: &[u64],
    place: &[&Placement],
) -> Result<(), Violation> {
    for (t, &arrival) in arrivals.iter().enumerate() {
        let start = place[t].start;
        if start < arrival {
            return Err(Violation::BeforeArrival {
                task: t,
                arrival,
                start,
            });
        }
    }
    let machines = machine_capacities(spec).len();
    for (t, p) in place.iter().enumerate() {
        if p.machine as usize >= machines {
            return Err(Violation::Machine {
                task: t,
                machine: p.machine,
            });
        }
    }
    for (child, c) in place.iter().enumerate() {
        for parent in dag.parents(TaskId::new(child)) {
            let p = place[parent.index()];
            if c.start < p.finish {
                return Err(Violation::Precedence {
                    parent: parent.index(),
                    child,
                });
            }
            if let Some(set) = spec.machines() {
                let delay = transfer_slots(set, parent.index(), child, p.machine, c.machine);
                if c.start < p.finish + delay {
                    return Err(Violation::Transfer {
                        parent: parent.index(),
                        child,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Per-slot capacity on every machine: each `(task, machine, start, end)`
/// adds the task's demand to every slot in `[start, end)` of its machine.
fn check_capacity(
    dag: &Dag,
    spec: &ClusterSpec,
    busy: impl Iterator<Item = (TaskId, u32, u64, u64)> + Clone,
) -> Result<(), Violation> {
    let dims = dag.dims();
    let slots = busy.clone().map(|(_, _, _, end)| end).max().unwrap_or(0) as usize;
    for (m, cap) in machine_capacities(spec).iter().enumerate() {
        let mut load = vec![0.0f64; slots * dims];
        for (task, machine, start, end) in busy.clone() {
            if machine as usize != m {
                continue;
            }
            let demand = dag.task(task).demand().as_slice();
            for slot in start..end {
                let row = &mut load[slot as usize * dims..(slot as usize + 1) * dims];
                for (l, d) in row.iter_mut().zip(demand) {
                    *l += d;
                }
            }
        }
        for (i, &l) in load.iter().enumerate() {
            if l > cap[i % dims] + CAPACITY_SLACK {
                return Err(Violation::Capacity {
                    machine: m as u32,
                    slot: (i / dims) as u64,
                    dim: i % dims,
                });
            }
        }
    }
    Ok(())
}

/// Checks a planned schedule of `dag` on `spec`. `arrivals` holds the
/// arrival slot of each task's job (empty: every job arrives at 0).
pub fn check_schedule(
    dag: &Dag,
    spec: &ClusterSpec,
    arrivals: &[u64],
    schedule: &Schedule,
) -> Result<(), Violation> {
    let placements = schedule.placements();
    let place: Vec<&Placement> = index_placements(dag.len(), placements)?
        .into_iter()
        .map(|i| &placements[i])
        .collect();
    let mut latest = 0;
    for (t, p) in place.iter().enumerate() {
        if p.finish < p.start || p.finish - p.start != dag.task(TaskId::new(t)).runtime() {
            return Err(Violation::Duration(t));
        }
        latest = latest.max(p.finish);
    }
    if latest != schedule.makespan() {
        return Err(Violation::Makespan {
            reported: schedule.makespan(),
            latest,
        });
    }
    check_order(dag, spec, arrivals, &place)?;
    check_capacity(
        dag,
        spec,
        place.iter().map(|p| (p.task, p.machine, p.start, p.finish)),
    )
}

/// Checks the realized run of a plan under faults: every task finally
/// runs once, for at least its runtime (stragglers run longer), after its
/// job arrives and after its parents' final attempts; and no slot holds
/// more than a machine's capacity, counting the slots that failed attempts
/// held. `FailedRun` does not record its machine, so on a multi-machine
/// cluster failed attempts are left out of the capacity check.
pub fn check_replay(
    dag: &Dag,
    spec: &ClusterSpec,
    arrivals: &[u64],
    run: &FaultyRun,
) -> Result<(), Violation> {
    let placements = run.schedule.placements();
    let place: Vec<&Placement> = index_placements(dag.len(), placements)?
        .into_iter()
        .map(|i| &placements[i])
        .collect();
    for (t, p) in place.iter().enumerate() {
        if p.finish < p.start || p.finish - p.start < dag.task(TaskId::new(t)).runtime() {
            return Err(Violation::Duration(t));
        }
    }
    check_order(dag, spec, arrivals, &place)?;
    let failed = run
        .failed_runs
        .iter()
        .filter(|_| spec.machines().is_none())
        .map(|f| (f.task, 0, f.start, f.end));
    check_capacity(
        dag,
        spec,
        place
            .iter()
            .map(|p| (p.task, p.machine, p.start, p.finish))
            .chain(failed),
    )
}

/// The total capacity per resource: the sum over machines.
pub fn total_capacity(spec: &ClusterSpec) -> Vec<f64> {
    let caps = machine_capacities(spec);
    (0..spec.dims())
        .map(|r| caps.iter().map(|c| c[r]).sum())
        .collect()
}

/// A lower bound on the time any schedule needs to run `dag` alone on a
/// cluster of the given total capacity: the longer of the critical path
/// (sum of runtimes along the longest chain) and, for every resource, the
/// work (runtime × demand summed over tasks) divided by the capacity.
pub fn lower_bound(dag: &Dag, capacity: &[f64]) -> f64 {
    let n = dag.len();
    // Longest path by Kahn's algorithm over parent counts.
    let mut waiting: Vec<usize> = (0..n).map(|t| dag.parents(TaskId::new(t)).len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&t| waiting[t] == 0).collect();
    let mut finish = vec![0u64; n];
    let mut start = vec![0u64; n];
    let mut done = 0;
    while let Some(t) = queue.pop() {
        done += 1;
        finish[t] = start[t] + dag.task(TaskId::new(t)).runtime();
        for c in dag.children(TaskId::new(t)) {
            let c = c.index();
            start[c] = start[c].max(finish[t]);
            waiting[c] -= 1;
            if waiting[c] == 0 {
                queue.push(c);
            }
        }
    }
    assert_eq!(done, n, "a DAG has no cycle");
    let mut bound = finish.iter().copied().max().unwrap_or(0) as f64;
    for (r, &cap) in capacity.iter().enumerate() {
        let work: f64 = dag
            .tasks()
            .iter()
            .map(|task| task.runtime() as f64 * task.demand().as_slice()[r])
            .sum();
        bound = bound.max(work / cap);
    }
    bound
}

/// `(completion - arrival) / lower bound` of one job; an error if the job
/// beat its bound, which no correct schedule can.
pub fn jct_ratio(job: usize, arrival: u64, completion: u64, bound: f64) -> Result<f64, Violation> {
    let ratio = (completion - arrival) as f64 / bound;
    if ratio < 1.0 - 1e-12 {
        return Err(Violation::BelowBound { job, ratio });
    }
    Ok(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear::{DagBuilder, FailedRun, ResourceVec, Task};

    /// a(2) -> b(3), a -> c(1); demands [0.5, 0.2], [0.6, 0.3], [0.5, 0.9].
    fn tiny() -> Dag {
        let mut b = DagBuilder::new(2);
        let a = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.5, 0.2])));
        let x = b.add_task(Task::new(3, ResourceVec::from_slice(&[0.6, 0.3])));
        let c = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.5, 0.9])));
        b.add_edge(a, x).unwrap();
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    fn place(task: usize, start: u64, runtime: u64, machine: u32) -> Placement {
        Placement {
            task: TaskId::new(task),
            start,
            finish: start + runtime,
            machine,
        }
    }

    fn schedule(placements: Vec<Placement>) -> Schedule {
        let makespan = placements.iter().map(|p| p.finish).max().unwrap_or(0);
        Schedule::from_placements(placements, makespan)
    }

    /// A valid single-box plan: a at 0, b at 2, c after b at 5 (b and c
    /// together would need 1.1 of the first resource).
    fn good() -> Vec<Placement> {
        vec![place(0, 0, 2, 0), place(1, 2, 3, 0), place(2, 5, 1, 0)]
    }

    /// Two unit machines with bandwidth 1 byte/slot everywhere.
    fn two_machines() -> ClusterSpec {
        let set = MachineSet::uniform(2, ResourceVec::splat(2, 1.0), 1, TransferMode::Direct, 3, 4)
            .unwrap();
        ClusterSpec::hetero(set).unwrap()
    }

    #[test]
    fn accepts_a_valid_plan() {
        let spec = ClusterSpec::unit(2);
        assert_eq!(
            check_schedule(&tiny(), &spec, &[], &schedule(good())),
            Ok(())
        );
    }

    #[test]
    fn rejects_a_missing_task() {
        let mut p = good();
        p.pop();
        let r = check_schedule(&tiny(), &ClusterSpec::unit(2), &[], &schedule(p));
        assert_eq!(r, Err(Violation::Missing(2)));
    }

    #[test]
    fn rejects_a_task_placed_twice() {
        let mut p = good();
        p.push(place(2, 7, 1, 0));
        let r = check_schedule(&tiny(), &ClusterSpec::unit(2), &[], &schedule(p));
        assert_eq!(r, Err(Violation::Duplicate(2)));
    }

    #[test]
    fn rejects_a_wrong_duration_and_makespan() {
        let mut p = good();
        p[2].finish += 1;
        let r = check_schedule(&tiny(), &ClusterSpec::unit(2), &[], &schedule(p));
        assert_eq!(r, Err(Violation::Duration(2)));
        let lying = Schedule::from_placements(good(), 9);
        let r = check_schedule(&tiny(), &ClusterSpec::unit(2), &[], &lying);
        assert_eq!(
            r,
            Err(Violation::Makespan {
                reported: 9,
                latest: 6
            })
        );
    }

    #[test]
    fn rejects_a_precedence_break() {
        let mut p = good();
        p[1] = place(1, 1, 3, 0);
        let r = check_schedule(&tiny(), &ClusterSpec::unit(2), &[], &schedule(p));
        assert_eq!(
            r,
            Err(Violation::Precedence {
                parent: 0,
                child: 1
            })
        );
    }

    #[test]
    fn rejects_an_overfull_slot() {
        // b over [2,5) and c over [4,5): slot 4 carries 0.6 + 0.5 = 1.1
        // of the first resource.
        let mut p = good();
        p[2] = place(2, 4, 1, 0);
        let r = check_schedule(&tiny(), &ClusterSpec::unit(2), &[], &schedule(p));
        assert_eq!(
            r,
            Err(Violation::Capacity {
                machine: 0,
                slot: 4,
                dim: 0
            })
        );
    }

    #[test]
    fn capacity_is_per_machine() {
        // On two machines b and c may overlap if they sit apart, once the
        // output of a has crossed the link (at most 4 bytes at 1/slot).
        let spec = two_machines();
        let ok = vec![place(0, 0, 2, 0), place(1, 2, 3, 0), place(2, 6, 1, 1)];
        assert_eq!(check_schedule(&tiny(), &spec, &[], &schedule(ok)), Ok(()));
        let packed = vec![place(0, 0, 2, 1), place(1, 2, 3, 1), place(2, 5, 1, 1)];
        assert_eq!(
            check_schedule(&tiny(), &spec, &[], &schedule(packed.clone())),
            Ok(()),
            "sequential on one machine is fine"
        );
        let mut clash = packed;
        clash[2] = place(2, 4, 1, 1);
        let r = check_schedule(&tiny(), &spec, &[], &schedule(clash));
        assert_eq!(
            r,
            Err(Violation::Capacity {
                machine: 1,
                slot: 4,
                dim: 0
            })
        );
    }

    #[test]
    fn rejects_an_unknown_machine() {
        let mut p = good();
        p[2].machine = 2;
        let r = check_schedule(&tiny(), &two_machines(), &[], &schedule(p));
        assert_eq!(
            r,
            Err(Violation::Machine {
                task: 2,
                machine: 2
            })
        );
    }

    #[test]
    fn rejects_a_start_before_the_transfer_lands() {
        let spec = two_machines();
        let set = spec.machines().unwrap();
        let delay = set.edge_bytes(0, 2).div_ceil(set.bandwidth(0, 1));
        assert!(delay >= 1, "edge payloads are at least one byte");
        // c on machine 1 right when a finishes: its input is still in
        // flight. Starting `delay` slots later is fine.
        let early = vec![place(0, 0, 2, 0), place(1, 2, 3, 0), place(2, 2, 1, 1)];
        let r = check_schedule(&tiny(), &spec, &[], &schedule(early));
        assert_eq!(
            r,
            Err(Violation::Transfer {
                parent: 0,
                child: 2
            })
        );
        let landed = vec![
            place(0, 0, 2, 0),
            place(1, 2, 3, 0),
            place(2, 2 + delay, 1, 1),
        ];
        assert_eq!(
            check_schedule(&tiny(), &spec, &[], &schedule(landed)),
            Ok(())
        );
    }

    #[test]
    fn via_master_pays_both_uplinks() {
        let mut set = MachineSet::uniform(
            2,
            ResourceVec::splat(1, 1.0),
            1,
            TransferMode::ViaMaster,
            5,
            9,
        )
        .unwrap();
        set.set_bandwidth(0, 0, 2);
        set.set_bandwidth(1, 1, 3);
        let bytes = set.edge_bytes(0, 1);
        let want = bytes.div_ceil(2) + bytes.div_ceil(3);
        assert_eq!(transfer_slots(&set, 0, 1, 0, 1), want);
        assert_eq!(transfer_slots(&set, 0, 1, 1, 1), 0);
    }

    #[test]
    fn rejects_a_start_before_arrival() {
        // Task 1 and 2 belong to a job arriving at slot 3.
        let arrivals = [0, 3, 3];
        let r = check_schedule(&tiny(), &ClusterSpec::unit(2), &arrivals, &schedule(good()));
        assert_eq!(
            r,
            Err(Violation::BeforeArrival {
                task: 1,
                arrival: 3,
                start: 2
            })
        );
        let ok = [0, 2, 5];
        assert_eq!(
            check_schedule(&tiny(), &ClusterSpec::unit(2), &ok, &schedule(good())),
            Ok(())
        );
    }

    fn run(placements: Vec<Placement>, failed_runs: Vec<FailedRun>) -> FaultyRun {
        let schedule = schedule(placements);
        FaultyRun {
            makespan: schedule.makespan(),
            schedule,
            failures: failed_runs.len() as u64,
            failed_runs,
            attempts: vec![1; 3],
            straggles: 0,
        }
    }

    #[test]
    fn replay_accepts_stragglers_and_failed_attempts() {
        // b straggles to 5 slots; c fails once over [7, 8), then runs.
        let ok = run(
            vec![place(0, 0, 2, 0), place(1, 2, 5, 0), place(2, 8, 1, 0)],
            vec![FailedRun {
                task: TaskId::new(2),
                start: 7,
                end: 8,
                attempt: 0,
            }],
        );
        assert_eq!(
            check_replay(&tiny(), &ClusterSpec::unit(2), &[], &ok),
            Ok(())
        );
    }

    #[test]
    fn replay_rejects_a_short_run_and_an_early_child() {
        let short = run(
            vec![place(0, 0, 1, 0), place(1, 2, 3, 0), place(2, 5, 1, 0)],
            vec![],
        );
        let r = check_replay(&tiny(), &ClusterSpec::unit(2), &[], &short);
        assert_eq!(r, Err(Violation::Duration(0)));
        // a straggles to [0, 3): b may not start at 2.
        let early = run(
            vec![place(0, 0, 3, 0), place(1, 2, 3, 0), place(2, 5, 1, 0)],
            vec![],
        );
        let r = check_replay(&tiny(), &ClusterSpec::unit(2), &[], &early);
        assert_eq!(
            r,
            Err(Violation::Precedence {
                parent: 0,
                child: 1
            })
        );
    }

    #[test]
    fn replay_counts_the_slots_a_failed_attempt_held() {
        // c failed over [3, 4) while b ran: 0.6 + 0.5 > 1 in slot 3.
        let overfull = run(
            vec![place(0, 0, 2, 0), place(1, 2, 3, 0), place(2, 5, 1, 0)],
            vec![FailedRun {
                task: TaskId::new(2),
                start: 3,
                end: 4,
                attempt: 0,
            }],
        );
        let r = check_replay(&tiny(), &ClusterSpec::unit(2), &[], &overfull);
        assert_eq!(
            r,
            Err(Violation::Capacity {
                machine: 0,
                slot: 3,
                dim: 0
            })
        );
    }

    #[test]
    fn lower_bound_of_the_tiny_dag_by_hand() {
        // Critical path a -> b = 2 + 3 = 5. Work: resource 0 is
        // 2*0.5 + 3*0.6 + 1*0.5 = 3.3, resource 1 is 2*0.2 + 3*0.3 +
        // 1*0.9 = 2.2. On unit capacity the path dominates; at capacity
        // 0.5 resource 0 gives 6.6.
        let dag = tiny();
        assert_eq!(lower_bound(&dag, &[1.0, 1.0]), 5.0);
        assert!((lower_bound(&dag, &[0.5, 0.5]) - 6.6).abs() < 1e-12);
        assert!((lower_bound(&dag, &[1.0, 0.4]) - 5.5).abs() < 1e-12);
        // The valid plan above finishes at 6: ratio 6/5.
        assert_eq!(jct_ratio(0, 0, 6, 5.0), Ok(1.2));
        assert!(jct_ratio(0, 0, 4, 5.0).is_err());
        assert_eq!(jct_ratio(0, 10, 15, 5.0), Ok(1.0));
    }

    #[test]
    fn total_capacity_sums_machines() {
        assert_eq!(total_capacity(&two_machines()), vec![2.0, 2.0]);
        assert_eq!(total_capacity(&ClusterSpec::unit(2)), vec![1.0, 1.0]);
    }
}
