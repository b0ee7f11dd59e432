//! End-to-end benchmark of the jmst crates.
//!
//! ```sh
//! cargo run --release --offline --manifest-path jmsbench/Cargo.toml -- \
//!     --workload openloop_1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run executes all three workloads through the crates' public
//! API, so every run reports every metric. Each workload repeats a unit
//! of work (an open-loop window, a fan-out round, an audit pass) a fixed
//! minimum number of times, one unit of each workload in turn; the named
//! workload is the primary one and keeps repeating its unit until
//! `--seconds` have been spent on it. Outputs are checked against ground
//! truth from the generators; any mismatch counts as failed operations
//! and makes the exit code non-zero.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! minimum schedule twice, untraced and then traced, prints the per-layer
//! metrics derived from the traced run's spans plus the CPU time tracing
//! cost, and writes the spans to `.bench_out/spans-<workload>.tsv`.

mod audit;
mod clock;
mod fanout;
mod openloop;
mod spans;
mod stats;
mod tempdir;

use spans::{Span, Tracer, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the benchmark writes goes under this directory of the
/// checkout.
const OUT_DIR: &str = ".bench_out";
/// Set-ups per untraced run; `setup_s` is the median of their CPU time.
const SETUP_REPEATS: usize = 5;
/// One open-loop window: long enough that the ~1 s start-up sweep is a
/// minority of the sends, short enough to repeat.
const WINDOW: Duration = Duration::from_millis(3_200);
/// Units of work (open-loop windows, fan-out rounds, audit passes) a pass
/// runs at least, per workload in [`Workload::ALL`] order: as a companion
/// and as the primary workload. Latencies come from the less stolen half
/// of the windows and the fan-out rate is a median over rounds, so there
/// are enough of them to leave out the ones a busy host disturbed.
const MIN_UNITS: [(usize, usize); 3] = [(4, 5), (3, 3), (4, 1)];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("jmsbench: {message}");
            eprintln!(
                "usage: jmsbench --workload <openloop_1m|topic_fanout|trace_audit> \
                 --seed <n> --seconds <1-600> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(result) => {
            result.print();
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("jmsbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds {seconds} outside 1..=600"));
        }
        let trace = match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other} is not 0 or 1")),
        };
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// How many times a pass repeats one workload's unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reps {
    min: usize,
    /// Keep repeating until this much time has been spent on the
    /// workload's units.
    until: Option<Duration>,
}

impl Reps {
    /// Whether another unit is due after `done` units that took `spent`.
    fn more(self, done: usize, spent: Duration) -> bool {
        done < self.min || self.until.is_some_and(|limit| spent < limit)
    }
}

/// The work of one pass, per workload in [`Workload::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Schedule([Reps; 3]);

impl Schedule {
    /// The minimum repetitions that keep each workload's metrics steady;
    /// the primary workload also repeats for `seconds`.
    fn for_primary(primary: Workload, seconds: u64) -> Schedule {
        Schedule(Workload::ALL.map(|w| {
            let (companion, primary_min) = MIN_UNITS[w as usize];
            Reps {
                min: if w == primary { primary_min } else { companion },
                until: (w == primary).then(|| Duration::from_secs(seconds)),
            }
        }))
    }

    fn reps(&self, workload: Workload) -> Reps {
        self.0[workload as usize]
    }
}

/// Every workload's generated inputs.
struct Inputs {
    seed: u64,
    openloop: openloop::Inputs,
    fanout: fanout::Rig,
    audit: audit::Generated,
    audit_sizing: audit::Sizing,
    analyzer: jmst_core::Analyzer,
}

fn setup(seed: u64, primary: Workload, tracer: &Arc<Tracer>) -> Inputs {
    let mut rec = tracer.recorder(Workload::OpenLoop);
    let root = rec.begin("bench.setup", 0);
    let openloop = openloop::setup(seed, &mut rec, root.id());
    rec.end(root, 1);

    let mut rec = tracer.recorder(Workload::Fanout);
    let root = rec.begin("bench.setup", 0);
    let fanout = fanout::setup(seed, &mut rec, root.id());
    rec.end(root, 1);

    let mut rec = tracer.recorder(Workload::Audit);
    let root = rec.begin("bench.setup", 0);
    let audit_sizing = if primary == Workload::Audit {
        audit::PRIMARY
    } else {
        audit::COMPANION
    };
    let audit = audit::generate(seed, audit_sizing.messages);
    let analyzer = audit::analyzer(&mut rec, root.id());
    rec.end(root, 1);
    Inputs {
        seed,
        openloop,
        fanout,
        audit,
        audit_sizing,
        analyzer,
    }
}

/// What one pass over the three workloads produced.
struct PassOutcome {
    openloop: Vec<openloop::Outcome>,
    peak_rss_mb: f64,
    fanout: Vec<fanout::Round>,
    audit: Vec<audit::Pass>,
    /// Process CPU seconds spent in each workload's run phase.
    cpu_s: BTreeMap<Workload, f64>,
    /// Wall seconds of each workload's run phase.
    wall_s: BTreeMap<Workload, f64>,
}

impl PassOutcome {
    /// Process CPU seconds per unit of work (window, round or pass).
    fn cpu_per_unit(&self, workload: Workload) -> f64 {
        let units = match workload {
            Workload::OpenLoop => self.openloop.len(),
            Workload::Fanout => self.fanout.len(),
            Workload::Audit => self.audit.len(),
        };
        self.cpu_s[&workload] / units as f64
    }
}

/// Runs the schedule's units of work round robin, one unit of each
/// workload that still has work in turn, so that every workload's units
/// are spread over the whole pass rather than over one stretch of it: a
/// shared host runs the core faster or slower for spells of seconds, and
/// spreading the units averages those spells out of each workload's
/// figures alike.
fn run_pass(
    inputs: Inputs,
    schedule: Schedule,
    tracer: &Arc<Tracer>,
) -> std::io::Result<PassOutcome> {
    let mut cpu_s: BTreeMap<Workload, f64> = Workload::ALL.map(|w| (w, 0.0)).into();
    let mut wall_s: BTreeMap<Workload, f64> = Workload::ALL.map(|w| (w, 0.0)).into();
    let mut recs = Workload::ALL.map(|w| tracer.recorder(w));
    let mut windows = Vec::new();
    let mut clients = Some(inputs.openloop);
    let mut rig = inputs.fanout;
    let mut rounds = Vec::new();
    let mut passes = Vec::new();
    loop {
        let mut ran = false;
        for workload in Workload::ALL {
            let done = match workload {
                Workload::OpenLoop => windows.len(),
                Workload::Fanout => rounds.len(),
                Workload::Audit => passes.len(),
            };
            let spent = Duration::from_secs_f64(wall_s[&workload]);
            if !schedule.reps(workload).more(done, spent) {
                continue;
            }
            ran = true;
            let rec = &mut recs[workload as usize];
            let cpu = cpu_seconds()?;
            let started = Instant::now();
            let root = rec.begin("bench.run", 0);
            match workload {
                Workload::OpenLoop => {
                    // Each window consumes its clients; later windows
                    // rebuild the same population.
                    let specs = clients
                        .take()
                        .unwrap_or_else(|| openloop::setup(inputs.seed, rec, root.id()));
                    windows.push(openloop::run(specs, WINDOW, tracer, root.id()));
                }
                Workload::Fanout => {
                    let first = rounds.is_empty();
                    rounds.push(fanout::round(&mut rig, tracer, rec, root.id(), first));
                }
                Workload::Audit => passes.push(audit::pass(
                    &inputs.audit,
                    &inputs.analyzer,
                    inputs.audit_sizing,
                    Path::new(OUT_DIR),
                    rec,
                    root.id(),
                )?),
            }
            rec.end(root, 1);
            *wall_s.get_mut(&workload).expect("every workload") += started.elapsed().as_secs_f64();
            *cpu_s.get_mut(&workload).expect("every workload") += cpu_seconds()? - cpu;
        }
        if !ran {
            break;
        }
    }
    drop(recs);
    rig.close();

    Ok(PassOutcome {
        openloop: windows,
        peak_rss_mb: peak_rss_mb()?,
        fanout: rounds,
        audit: passes,
        cpu_s,
        wall_s,
    })
}

/// The benchmark's result line and its human-readable report.
struct BenchResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    report: Vec<String>,
}

impl BenchResult {
    fn print(&self) {
        for line in &self.report {
            eprintln!("{line}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn bench(args: &Args) -> std::io::Result<BenchResult> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // A traced run does its schedule twice, untraced and traced, so it
    // keeps to the minimum units rather than filling `--seconds` twice.
    let seconds = if args.trace { 0 } else { args.seconds };
    let schedule = Schedule::for_primary(args.workload, seconds);
    let mut report = vec![format!(
        "jmsbench: primary {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];

    let quiet = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let setups = if args.trace { 1 } else { SETUP_REPEATS };
    for _ in 0..setups {
        // Drop the previous set-up first so each one starts from the
        // same memory state.
        drop(inputs.take());
        // Set-up runs on this thread alone; its CPU time leaves out
        // whatever the host stole meanwhile.
        let start = clock::thread_cpu();
        inputs = Some(setup(args.seed, args.workload, &quiet));
        setup_s.push((clock::thread_cpu() - start).as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let untraced = run_pass(inputs, schedule, &quiet)?;

    let mut checks = Checks::default();
    checks.threads(nproc, &mut report);
    checks.pass(&untraced, &mut report);

    let metrics = if args.trace {
        let tracer = Tracer::new(true);
        let traced_inputs = setup(args.seed, args.workload, &tracer);
        let traced = run_pass(traced_inputs, schedule, &tracer)?;
        checks.pass(&traced, &mut report);
        let spans = tracer.take();
        std::fs::create_dir_all(OUT_DIR)?;
        let path = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.workload.name()));
        spans::write_tsv(&path, &spans)?;
        report.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        let metrics = per_layer(&spans, &untraced, &traced, &mut checks);
        // The start-up sweep should account for the open-loop tail.
        let sweep_s = metrics
            .iter()
            .find(|(name, ..)| name == "reactor.spawn_to_first_send_s")
            .map_or(f64::NAN, |(_, value, _)| *value);
        let p99_s = window_percentile(&traced, |o| &o.send_lag_ns, 9_900) / 1e6;
        report.push(format!(
            "reactor.spawn_to_first_send_s {sweep_s:.3} s is {:.0}% of send_lag_p99 {p99_s:.3} s",
            100.0 * sweep_s / p99_s
        ));
        metrics
    } else {
        end_to_end(&setup_s, &untraced, &mut checks)
    };
    for (name, value, unit) in &metrics {
        report.push(format!("  {name:<40} {value:>16.4} {unit}"));
    }
    for problem in &checks.problems {
        report.push(format!("CHECK FAILED: {problem}"));
    }
    Ok(BenchResult {
        correct: checks.problems.is_empty(),
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
        report,
    })
}

/// Output checks and the attempted/failed tally.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, failed_ops: u64, problem: impl FnOnce() -> String) {
        if !ok {
            self.failed += failed_ops.max(1);
            self.problems.push(problem());
        }
    }

    fn threads(&mut self, nproc: usize, report: &mut Vec<String>) {
        for (workload, busy) in [
            (Workload::OpenLoop, openloop::BUSY_THREADS),
            (Workload::Fanout, fanout::BUSY_THREADS),
            (Workload::Audit, audit::BUSY_THREADS),
        ] {
            report.push(format!(
                "{}: {busy} busy threads (nproc {nproc})",
                workload.name()
            ));
            self.require(busy <= nproc, 0, || {
                format!(
                    "{} uses {busy} busy threads, more than nproc {nproc}",
                    workload.name()
                )
            });
        }
    }

    fn pass(&mut self, pass: &PassOutcome, report: &mut Vec<String>) {
        for workload in Workload::ALL {
            report.push(format!(
                "{}: {:.2} s wall, {:.2} s CPU",
                workload.name(),
                pass.wall_s[&workload],
                pass.cpu_s[&workload]
            ));
        }
        for (i, o) in pass.openloop.iter().enumerate() {
            self.attempted += o.sends + o.retries + o.aborted;
            self.failed += o.retries + o.aborted;
            report.push(format!(
                "openloop_1m window {i}: {:?}, {:.1}% CPU stolen, {} sends, {} received, \
                 {} retries, {} aborted, first send {:?} after the engine started, settle {:?}",
                o.window,
                100.0 * o.steal_share,
                o.sends,
                o.received,
                o.retries,
                o.aborted,
                o.spawn_to_first_send,
                o.settle
            ));
            report.push(format!("  send lag {}", tail_summary(&o.send_lag_ns)));
            report.push(format!("  delivery {}", tail_summary(&o.delivery_ns)));
            self.require(o.sends > 0, 1, || {
                format!("openloop_1m window {i} made no sends")
            });
            self.require(o.received == o.sends, o.received.abs_diff(o.sends), || {
                format!(
                    "openloop_1m window {i} received {} of {} sends",
                    o.received, o.sends
                )
            });
            self.require(o.unstamped == 0, o.unstamped, || {
                format!(
                    "openloop_1m window {i}: {} unstamped deliveries",
                    o.unstamped
                )
            });
            self.require(o.aborted == 0, 0, || {
                format!("openloop_1m window {i}: {} clients aborted", o.aborted)
            });
            self.require(o.delivery_ns.len() as u64 == o.received, 0, || {
                format!(
                    "openloop_1m window {i}: {} latency samples for {} deliveries",
                    o.delivery_ns.len(),
                    o.received
                )
            });
            for (what, samples) in [("send lag", &o.send_lag_ns), ("delivery", &o.delivery_ns)] {
                self.require(stats::supports(samples.len() as u64, 9_900), 0, || {
                    format!(
                        "openloop_1m window {i}: {} {what} samples cannot support p99",
                        samples.len()
                    )
                });
            }
        }

        for (i, round) in pass.fanout.iter().enumerate() {
            self.attempted += fanout::MESSAGES as u64 + round.expected;
            self.failed += round.publish_failures;
            report.push(format!(
                "topic_fanout round {i}: {} deliveries of {} expected in {:?}, {:.1}% CPU stolen, \
                 {} receive calls, {} non-empty",
                round.deliveries,
                round.expected,
                round.elapsed,
                100.0 * round.steal_share,
                round.receive_calls,
                round.receive_hits
            ));
            self.require(!round.timed_out, 1, || {
                format!("topic_fanout round {i} timed out draining")
            });
            self.require(round.mismatched == 0, round.mismatched, || {
                format!(
                    "topic_fanout round {i}: per-subscriber counts off by {}",
                    round.mismatched
                )
            });
            self.require(round.publish_failures == 0, 0, || {
                format!(
                    "topic_fanout round {i}: {} publishes failed",
                    round.publish_failures
                )
            });
            self.require(
                round.selector_mismatches == 0,
                round.selector_mismatches,
                || {
                    format!(
                        "topic_fanout round {i}: {} selectors disagree with their plain predicates",
                        round.selector_mismatches
                    )
                },
            );
        }

        for (i, audit) in pass.audit.iter().enumerate() {
            self.attempted += audit.events as u64;
            self.failed += audit.damaged;
            report.push(format!(
                "trace_audit pass {i}: {} events, CPU (at reference speed): record {}, \
                 resume {}, analyze {}; {} probes, median {:.2?}; journal {} bytes",
                audit.events,
                timed_list(&[audit.record]),
                timed_list(&audit.resume),
                timed_list(&audit.analyze),
                audit.probes.0,
                audit.probes.1,
                audit.journal_bytes
            ));
            for problem in &audit.problems {
                self.require(false, 1, || format!("trace_audit pass {i}: {problem}"));
            }
            self.require(audit.damaged == 0, 0, || {
                format!("trace_audit pass {i}: {} damaged frames", audit.damaged)
            });
        }
    }
}

/// `[1.2s (1.0s), …]`: CPU times, each with its time at the reference
/// host speed.
fn timed_list(times: &[clock::Timed]) -> String {
    let parts: Vec<String> = times
        .iter()
        .map(|t| format!("{:.1?} ({:.1?})", t.cpu, t.at_reference))
        .collect();
    format!("[{}]", parts.join(", "))
}

/// `p50 …, p99 …, p99.9 … (n=…)`: the median, p99 and the highest
/// percentile the sample count supports.
fn tail_summary(samples_ns: &[u64]) -> String {
    let n = samples_ns.len() as u64;
    let Some(top) = stats::highest_supported(n) else {
        return format!("n={n}: too few samples for any percentile");
    };
    let sorted = sorted_us(samples_ns);
    let mut shown = vec![5_000, 9_900, top];
    shown.retain(|&bp| bp <= top);
    shown.dedup();
    let parts: Vec<String> = shown
        .iter()
        .map(|&bp| {
            format!(
                "{} {:.1} us",
                stats::percentile_label(bp),
                stats::quantile_sorted(&sorted, bp)
            )
        })
        .collect();
    format!("{} (n={n})", parts.join(", "))
}

fn sorted_us(samples_ns: &[u64]) -> Vec<f64> {
    stats::sorted(samples_ns.iter().map(|&ns| ns as f64 / 1_000.0).collect())
}

/// A latency percentile of the open-loop windows: the median, over the
/// less stolen half of the windows, of each window's exact percentile,
/// so a window disturbed by the rest of the machine does not move the
/// figure.
fn window_percentile(
    pass: &PassOutcome,
    samples: fn(&openloop::Outcome) -> &Vec<u64>,
    bp: u64,
) -> f64 {
    let values: Vec<f64> = clock::least_stolen(&pass.openloop, |o| o.steal_share)
        .into_iter()
        .map(|o| sorted_us(samples(o)))
        .filter(|sorted| !sorted.is_empty())
        .map(|sorted| stats::quantile_sorted(&sorted, bp))
        .collect();
    if values.is_empty() {
        f64::NAN
    } else {
        stats::median(&values)
    }
}

fn end_to_end(
    setup_s: &[f64],
    pass: &PassOutcome,
    checks: &mut Checks,
) -> Vec<(String, f64, &'static str)> {
    let sends: u64 = pass.openloop.iter().map(|o| o.sends).sum();
    let window_s: f64 = pass.openloop.iter().map(|o| o.window.as_secs_f64()).sum();
    let metrics = vec![
        ("setup_s", stats::median(setup_s), "s"),
        (
            "send_lag_p99_us",
            window_percentile(pass, |o| &o.send_lag_ns, 9_900),
            "us",
        ),
        (
            "delivery_p99_us",
            window_percentile(pass, |o| &o.delivery_ns, 9_900),
            "us",
        ),
        ("achieved_msgs_per_s", sends as f64 / window_s, "msg/s"),
        ("peak_rss_mb", pass.peak_rss_mb, "MB"),
        ("deliveries_per_s", fanout_rate(pass), "1/s"),
        (
            "record_events_per_s",
            cpu_rate(pass, |p| std::slice::from_ref(&p.record)),
            "1/s",
        ),
        ("resume_events_per_s", cpu_rate(pass, |p| &p.resume), "1/s"),
        (
            "analyze_events_per_s",
            cpu_rate(pass, |p| &p.analyze),
            "1/s",
        ),
    ];
    finish_metrics(metrics, checks)
}

/// Deliveries per second of the fan-out rounds: the median over rounds,
/// each round's wall time less the share of it the host stole. Both
/// threads of a round are busy throughout, so a stolen share of the
/// machine's CPU time stretches the round by about that share; the
/// median keeps a round that caught the core in an unusually fast or
/// slow spell from moving the figure.
fn fanout_rate(pass: &PassOutcome) -> f64 {
    let rates: Vec<f64> = pass
        .fanout
        .iter()
        .map(|r| r.deliveries as f64 / (r.elapsed.as_secs_f64() * (1.0 - r.steal_share)))
        .collect();
    if rates.is_empty() {
        f64::NAN
    } else {
        stats::median(&rates)
    }
}

/// An audit phase's rate over every time it ran in the pass: events
/// handled per second of the auditing thread's CPU time, scaled to the
/// reference host speed. The CPU clock leaves out time the host stole,
/// the scaling the spells in which a shared host slows the core down.
fn cpu_rate(pass: &PassOutcome, times: fn(&audit::Pass) -> &[clock::Timed]) -> f64 {
    let (events, secs) = pass.audit.iter().fold((0.0, 0.0), |(events, secs), p| {
        let times = times(p);
        (
            events + (p.events * times.len()) as f64,
            secs + times
                .iter()
                .map(|t| t.at_reference.as_secs_f64())
                .sum::<f64>(),
        )
    });
    events / secs
}

/// Rejects non-finite or non-positive end-to-end values: every metric
/// is a time, a rate or a size that a correct run makes positive.
fn finish_metrics<N: Into<String>>(
    metrics: Vec<(N, f64, &'static str)>,
    checks: &mut Checks,
) -> Vec<(String, f64, &'static str)> {
    metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let name = name.into();
            checks.require(value.is_finite(), 0, || format!("metric {name} is {value}"));
            let value = if value.is_finite() { value } else { 0.0 };
            (name, value, unit)
        })
        .collect()
}

/// The layers each workload's spans are expected to cover.
const LAYERS: [(Workload, &[&str]); 3] = [
    (
        Workload::OpenLoop,
        &["bench", "sim", "load", "reactor", "broker"],
    ),
    (Workload::Fanout, &["bench", "broker", "api"]),
    (
        Workload::Audit,
        &["bench", "harness", "store", "core", "props"],
    ),
];

fn per_layer(
    spans: &[Span],
    untraced: &PassOutcome,
    traced: &PassOutcome,
    checks: &mut Checks,
) -> Vec<(String, f64, &'static str)> {
    let named = |workload: Workload, name: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .collect()
    };
    let secs = |s: &[&Span]| s.iter().map(|s| s.nanos() as f64 * 1e-9).sum::<f64>();
    let median_s = |s: &[&Span]| {
        if s.is_empty() {
            f64::NAN
        } else {
            stats::median(
                &s.iter()
                    .map(|s| s.nanos() as f64 * 1e-9)
                    .collect::<Vec<_>>(),
            )
        }
    };
    let mean_us = |s: &[&Span]| secs(s) * 1e6 / s.len() as f64;
    let per_item_ns = |s: &[&Span]| secs(s) * 1e9 / s.iter().map(|s| s.items).sum::<u64>() as f64;
    let pct_us = |s: &[&Span], bp| {
        let sorted = stats::sorted(s.iter().map(|s| s.nanos() as f64 / 1e3).collect());
        if sorted.is_empty() {
            f64::NAN
        } else {
            stats::quantile_sorted(&sorted, bp)
        }
    };

    use Workload::{Audit, Fanout, OpenLoop};
    let queue_send = named(OpenLoop, "broker.queue_send");
    let publish = named(Fanout, "broker.publish");
    let (calls, hits) = traced.fanout.iter().fold((0, 0), |(c, h), r| {
        (c + r.receive_calls, h + r.receive_hits)
    });
    let receive_p50_us = {
        let sorted = stats::sorted(
            traced
                .fanout
                .iter()
                .flat_map(|r| r.receive_batch_ns.iter().map(|&ns| f64::from(ns) / 1e3))
                .collect(),
        );
        if sorted.is_empty() {
            f64::NAN
        } else {
            stats::quantile_sorted(&sorted, 5_000)
        }
    };
    let first_audit = traced.audit.first();
    let metrics = vec![
        (
            "sim.client_specs_s",
            median_s(&named(OpenLoop, "sim.client_specs")),
            "s",
        ),
        (
            "reactor.spawn_to_first_send_s",
            median_s(&named(OpenLoop, "reactor.spawn_to_first_send")),
            "s",
        ),
        (
            "load.send_lag_p50_us",
            window_percentile(untraced, |o| &o.send_lag_ns, 5_000),
            "us",
        ),
        (
            "load.delivery_p50_us",
            window_percentile(untraced, |o| &o.delivery_ns, 5_000),
            "us",
        ),
        ("broker.queue_send_us_p50", pct_us(&queue_send, 5_000), "us"),
        ("broker.queue_send_us_p99", pct_us(&queue_send, 9_900), "us"),
        (
            "load.retries",
            traced.openloop.iter().map(|o| o.retries).sum::<u64>() as f64,
            "count",
        ),
        (
            "load.aborted",
            traced.openloop.iter().map(|o| o.aborted).sum::<u64>() as f64,
            "count",
        ),
        (
            "load.drain_settle_s",
            median_s(&named(OpenLoop, "load.drain_settle")),
            "s",
        ),
        (
            "broker.subscribe_us",
            mean_us(&named(Fanout, "broker.subscribe")),
            "us",
        ),
        ("broker.publish_us_p50", pct_us(&publish, 5_000), "us"),
        ("broker.publish_us_p99", pct_us(&publish, 9_900), "us"),
        ("broker.receive_batch_us_p50", receive_p50_us, "us"),
        (
            "broker.receive_batch_hit_ratio",
            hits as f64 / calls as f64,
            "ratio",
        ),
        (
            "api.selector_eval_ns",
            per_item_ns(&named(Fanout, "api.selector_eval")),
            "ns",
        ),
        (
            "harness.frame_encode_us",
            mean_us(&named(Audit, "harness.frame_encode")),
            "us",
        ),
        (
            "harness.frame_decode_us",
            mean_us(&named(Audit, "harness.frame_decode")),
            "us",
        ),
        (
            "store.journal_append_us",
            mean_us(&named(Audit, "store.journal_append")),
            "us",
        ),
        (
            "store.journal_bytes_per_event",
            first_audit.map_or(f64::NAN, |p| p.journal_bytes as f64 / p.events as f64),
            "B",
        ),
        (
            "store.journal_salvage_us_per_event",
            per_item_ns(&named(Audit, "store.journal_salvage")) / 1e3,
            "us",
        ),
        (
            "core.partition_s",
            median_s(&named(Audit, "core.partition")),
            "s",
        ),
        (
            "store.trace_sort_s",
            median_s(&named(Audit, "store.trace_sort")),
            "s",
        ),
        (
            "core.observe_ns",
            per_item_ns(&named(Audit, "core.observe")),
            "ns",
        ),
        (
            "core.finish_ms",
            median_s(&named(Audit, "core.finish")) * 1e3,
            "ms",
        ),
        (
            "core.state_bytes",
            first_audit.map_or(f64::NAN, |p| p.state_bytes as f64),
            "B",
        ),
        (
            "props.compile_us",
            secs(&named(Audit, "props.compile")) * 1e6,
            "us",
        ),
    ];
    let self_times = spans::self_times(spans);
    let mut extra = Vec::new();
    for (workload, layers) in LAYERS {
        for layer in layers {
            let value = self_times
                .get(&(workload, *layer))
                .copied()
                .unwrap_or(f64::NAN);
            extra.push((format!("self_s.{}.{layer}", workload.name()), value, "s"));
        }
        extra.push((
            format!("trace_overhead_cpu_s.{}", workload.name()),
            traced.cpu_per_unit(workload) - untraced.cpu_per_unit(workload),
            "s",
        ));
    }
    for workload in [Fanout, Audit] {
        let reactor = spans
            .iter()
            .filter(|s| s.workload == workload && s.layer() == "reactor")
            .count();
        checks.require(reactor == 0, 0, || {
            format!("{} recorded {reactor} reactor spans", workload.name())
        });
    }
    let mut out = finish_metrics(metrics, checks);
    out.extend(finish_metrics(extra, checks));
    out
}

/// Process CPU time (user + system, all threads so far), in seconds.
fn cpu_seconds() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in clock ticks of 1/100 s.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| std::io::Error::other("malformed /proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| std::io::Error::other("malformed /proc/self/stat"))
    };
    Ok(ticks(11)? + ticks(12)?)
}

/// Peak resident set size of the process so far, in MB.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse("--workload trace_audit --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            args,
            Args {
                workload: Workload::Audit,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload openloop_1m --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload openloop_1m --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload openloop_1m --seed 1 --seconds 5").is_err());
        assert!(parse("--workload openloop_1m --seed x --seconds 5 --trace 0").is_err());
    }

    #[test]
    fn primary_workload_repeats_for_the_window() {
        let s = Schedule::for_primary(Workload::Fanout, 10);
        let ten = Some(Duration::from_secs(10));
        assert_eq!(s.reps(Workload::Fanout), Reps { min: 3, until: ten });
        assert_eq!(
            s.reps(Workload::OpenLoop),
            Reps {
                min: 4,
                until: None
            }
        );
        assert_eq!(
            s.reps(Workload::Audit),
            Reps {
                min: 4,
                until: None
            }
        );
        let spent = Duration::from_secs(3);
        assert!(s.reps(Workload::Audit).more(3, spent));
        assert!(!s.reps(Workload::Audit).more(4, spent));
        assert!(s.reps(Workload::Fanout).more(5, spent));
        assert!(!s.reps(Workload::Fanout).more(5, Duration::from_secs(10)));
    }
}
