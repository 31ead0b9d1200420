//! End-to-end benchmark of the Spear scheduler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spear-sim100 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload in this (single-threaded) process from the root of
//! the repository, checks every plan with the benchmark's own validator
//! and lower bound, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use check::{check_replay, check_schedule};
use layers::Layers;
use spear::MctsScheduler;
use workloads::{setup, Setup, SetupTimes, Workload};

/// A run sets its workload up again from scratch once this many seconds
/// have passed since the last set-up, before the next round; `setup_s` is
/// the median of all its set-ups. Spreading them over the whole run
/// samples the host's speed the way the plans do: eleven set-ups back to
/// back before the first plan spread 0.11-0.20 between runs.
const SETUP_EVERY_S: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the workload's set-up and the scheduler of plan number `plan`,
/// and records how long that took.
fn timed_setup(
    args: &Args,
    plan: u64,
    setup_s: &mut Vec<f64>,
    split: &mut Vec<SetupTimes>,
) -> Result<(Setup, MctsScheduler), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let built = setup(args.workload, args.seed, plan, &mut times)?;
    setup_s.push(t.elapsed().as_secs_f64());
    split.push(times);
    Ok(built)
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let (mut setup_s, mut split) = (Vec::new(), Vec::new());
    let (setup, scheduler) = timed_setup(args, 0, &mut setup_s, &mut split)?;
    let mut layers = if args.trace {
        Some(Layers::new(w, setup.planner.policy(), args.seed))
    } else {
        None
    };
    let (mut built, mut scheduler) = (Some(setup), Some(scheduler));
    let mut last_setup = Instant::now();

    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut fault_errors: Vec<String> = Vec::new();
    let mut plan_s = Vec::new();
    let (mut rates, mut ratios) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut round = 0usize;
    // Whole rounds only, the first an untimed warm-up: plan, check the
    // plan, and (where the workload has a fault plan) replay it.
    while round < 2 || started.elapsed().as_secs_f64() < args.seconds {
        if round > 0 {
            // Drop the last scheduler first, so its memory is reused.
            drop(scheduler.take());
            if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
                // Set up again from scratch: the same seed gives the same
                // inputs, and the old set-up goes first, so the peak RSS
                // still holds one.
                drop(built.take());
                let (b, s) = timed_setup(args, round as u64, &mut setup_s, &mut split)?;
                (built, scheduler) = (Some(b), Some(s));
                last_setup = Instant::now();
            } else {
                let planner = &built.as_ref().expect("a set-up").planner;
                scheduler = Some(planner.build(round as u64));
            }
        }
        let Setup { items, faults, .. } = built.as_ref().expect("a set-up");
        let item = &items[round % items.len()];
        let ops = if faults.is_some() { 3 } else { 2 };
        attempted += ops;
        let t = Instant::now();
        let planned = item.plan(scheduler.as_mut().expect("a scheduler per round"));
        let secs = t.elapsed().as_secs_f64();
        let (schedule, stats) = match planned {
            Ok(p) => p,
            Err(e) => {
                eprintln!("plan failed: {e}");
                failed += ops;
                round += 1;
                continue;
            }
        };
        if round > 0 {
            plan_s.push(secs);
            rates.push(item.tasks() as f64 / secs);
            if let Some(l) = layers.as_mut() {
                l.record_plan(&stats, secs);
            }
        }
        match check_schedule(item.dag(), &item.spec, &item.arrivals, &schedule)
            .and_then(|()| item.job_ratios(&schedule))
        {
            Ok(r) => ratios.extend(r),
            Err(v) => {
                eprintln!("round {round}: invalid plan: {v}");
                correct = false;
            }
        }
        if let Some(plan) = faults {
            let t = Instant::now();
            let replayed = item.replay(&schedule, plan);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match replayed {
                Ok(run) => {
                    if let Err(v) = check_replay(item.dag(), &item.spec, &item.arrivals, &run) {
                        eprintln!("round {round}: invalid fault replay: {v}");
                        correct = false;
                    }
                    if let Some(l) = layers.as_mut() {
                        l.replay_ms.push(ms);
                        l.realized_vs_planned
                            .push(run.makespan as f64 / schedule.makespan() as f64);
                    }
                }
                Err(e) => {
                    failed += 1;
                    fault_errors.push(e.to_string());
                    if let Some(l) = layers.as_mut() {
                        l.replay_ms.push(ms);
                    }
                }
            }
        }
        if let Some(l) = layers.as_mut() {
            if let Err(e) = l.observe(item, &schedule) {
                eprintln!("round {round}: {e}");
                correct = false;
            }
        }
        round += 1;
    }

    if !fault_errors.is_empty() {
        fault_errors.sort();
        fault_errors.dedup();
        println!(
            "{} of {} fault replays failed: {}",
            failed,
            round,
            fault_errors.join(" | ")
        );
    }
    let metrics = match layers {
        Some(l) => l.metrics(&split),
        None => vec![
            ("plan_s_p50", stats::median(&plan_s), "s"),
            ("tasks_per_s", stats::median(&rates), "1/s"),
            ("jct_vs_lb", stats::mean(&ratios), "ratio"),
            ("setup_s", stats::median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
    };
    println!(
        "{}: {} rounds ({} timed plans, {} set-ups) in {:.1} s, seed {}, host_cores {}",
        w.name(),
        round,
        plan_s.len(),
        setup_s.len(),
        started.elapsed().as_secs_f64(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <spear-sim100|mcts-hetero|hive-stream> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
