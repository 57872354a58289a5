//! End-to-end benchmark of the MQP drivers, with a traced per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <market-tcp|fig3-threaded|catalog-threaded|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's world and spawns its driver several
//! times (`setup_s` is the median), warms up, offers load for
//! `--seconds`, drains, shuts the driver down, and checks every outcome
//! against ground truth computed from the seeded data. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the same timed run additionally samples per-thread CPU,
//! then the same inputs are replayed through a single-thread traced
//! host (see `trace.rs`) and the last line carries the per-layer
//! metrics. `--workload all` runs the three in turn, each in a process
//! of its own that prints its own report and JSON line. The exit code is non-zero on any
//! correctness mismatch.

mod disk;
mod live;
mod loadgen;
mod measure;
mod trace;
mod worlds;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mqp_catalog::durable::{DurableCatalog, SharedDisk};
use mqp_catalog::CatalogEntry;

use crate::live::{Live, Teardown};
use crate::loadgen::{run_phase, tally, Limit, Phase, Tally};
use crate::measure::{median, quantile, Cpu};
use crate::worlds::{Driver, Workload, World, NAMES};

/// A drain that sees no outcome for this long gives up on the rest.
const DRAIN: Duration = Duration::from_secs(20);
/// A run whose generator ran later than this at p99 is flagged and not
/// kept: it fell behind its schedule, so its latencies would measure the
/// generator, not the system. (On two cores shared with 250 peer threads
/// the open-loop generator's wake-ups run 2–8 ms late at p99; open-loop
/// latency is timed from the due time, so that lateness is counted.)
const LATE_BOUND_MS: f64 = 20.0;

/// Long-list Figure-3 queries per run replayed at the program's default
/// policy, to reproduce the deferment defect.
const DEFECT_SAMPLE: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| e.to_string())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Correct completions per chunk for `latency_p99_ms`: enough for ten
/// samples beyond the 99th percentile.
const P99_CHUNK: usize = 1000;

/// The 99th percentile of each run of `P99_CHUNK` consecutive samples
/// (completion order), and the median of those. A stall of the machine
/// that lands in one chunk moves the result less than a pooled p99.
fn chunked_p99(samples: &[f64]) -> f64 {
    if samples.len() < 2 * P99_CHUNK {
        return quantile(samples, 0.99);
    }
    let p99s: Vec<f64> = samples
        .chunks_exact(P99_CHUNK)
        .map(|c| quantile(c, 0.99))
        .collect();
    median(&p99s)
}

/// One metric value with its unit, in output order.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Everything the timed run measured.
struct Timed {
    setups_s: Vec<f64>,
    phase: Phase,
    tally: Tally,
    cpu: Cpu,
    gen_cpu: Cpu,
    peer_cpu: Cpu,
    transport: live::Transport,
    teardown: Teardown,
    problems: Vec<String>,
}

fn timed_run(wl: &Workload, seconds: u64, sample_threads: bool) -> Timed {
    let mut setups_s = Vec::with_capacity(wl.setups);
    let mut problems = Vec::new();
    let mut kept: Option<(Live, World)> = None;
    for k in 0..wl.setups {
        let t = Instant::now();
        let fresh = Workload::new(wl.name, wl.seed).expect("known workload");
        let mut world = fresh.world();
        let live = Live::spawn(fresh.driver, std::mem::take(&mut world.peers));
        setups_s.push(t.elapsed().as_secs_f64());
        if k + 1 < wl.setups {
            if !live.shutdown().balanced {
                problems.push("transport accounting identity broken after a set-up".into());
            }
        } else {
            kept = Some((live, world));
        }
    }
    let (mut live, world) = kept.expect("at least one set-up");

    let warm = run_phase(&mut live, wl, 0, Limit::Count(wl.warmup), DRAIN);
    let warm_tally = tally(wl, &warm);
    problems.extend(warm_tally.mismatches.iter().map(|m| format!("warm-up {m}")));

    let prefix = match wl.driver {
        Driver::Tcp => "mqp-tcp-",
        Driver::Threaded => "mqp-worker-",
    };
    let tasks0 = sample_threads.then(measure::task_cpu);
    let cpu0 = measure::process_cpu();
    let gen0 = measure::thread_cpu();
    let tr0 = live.transport();
    let until = Instant::now() + Duration::from_secs(seconds);
    let phase = run_phase(&mut live, wl, warm.submitted, Limit::Until(until), DRAIN);
    let tr1 = live.transport();
    let gen_cpu = measure::thread_cpu().since(&gen0);
    let cpu = measure::process_cpu().since(&cpu0);
    let peer_cpu = tasks0
        .map(|t0| measure::threads_cpu_delta(&t0, &measure::task_cpu(), prefix))
        .unwrap_or_default();

    let teardown = live.shutdown();
    if !teardown.balanced {
        problems.push("SocketStats::balances(0) is false after shutdown".into());
    }
    if let Some((disk, _)) = &world.disk {
        problems.extend(check_recovery(wl, disk, warm.submitted + phase.submitted));
    }
    let tally = tally(wl, &phase);
    Timed {
        setups_s,
        tally,
        cpu,
        gen_cpu,
        peer_cpu,
        transport: live::Transport {
            frames: tr1.frames - tr0.frames,
            bytes: tr1.bytes - tr0.bytes,
        },
        teardown,
        problems,
        phase,
    }
}

/// Recovers the durable meta catalog from its disk and checks that it
/// holds every registration the generator sent.
fn check_recovery(wl: &Workload, disk: &SharedDisk, sent: u64) -> Vec<String> {
    let catalog = match DurableCatalog::new(disk.clone()).recover() {
        Ok((c, _)) => c,
        Err(e) => return vec![format!("durable meta catalog failed to recover: {e}")],
    };
    let by_server: HashMap<(&str, &str), &CatalogEntry> = catalog
        .entries()
        .iter()
        .map(|r| ((r.server.as_str(), r.level.name()), &**r))
        .collect();
    let mut lost = Vec::new();
    for idx in 0..sent {
        let q = wl.query(idx);
        let Some(e) = q.reg else { continue };
        let kept = by_server
            .get(&(e.server.as_str(), e.level.name()))
            .is_some_and(|r| r.area.covers(&e.area));
        if !kept {
            lost.push(format!(
                "{}: registration of {} lost in recovery",
                q.label, e.server
            ));
        }
    }
    lost
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = if args.workload == "all" {
        run_each(&args)
    } else {
        run(&args.workload, &args)
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Runs every workload, each in a process of its own so that its
/// `rss_peak_mb` and thread CPU are its own, and returns whether every
/// one passed its checks. Every workload runs even after one fails.
fn run_each(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return false;
        }
    };
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let trace = if args.trace { "1" } else { "0" };
    let mut ok = true;
    for name in NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", trace])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    ok
}

/// Runs one workload, prints its report and JSON line, and returns
/// whether every check passed.
fn run(name: &str, args: &Args) -> bool {
    let wl = Workload::new(name, args.seed).expect("validated workload");
    let t = timed_run(&wl, args.seconds, args.trace);

    let attempted = t.tally.attempted.max(1);
    let per_q = |v: f64| v / attempted as f64;
    let window_s = (t.phase.end - t.phase.start).as_secs_f64();
    let verdicts: Vec<bool> = t.phase.done.iter().map(|d| d.verdict.is_ok()).collect();
    let latencies: Vec<f64> = t
        .phase
        .done
        .iter()
        .filter(|d| d.verdict.is_ok())
        .map(|d| d.latency_ms)
        .collect();
    // Rates per one-second slice of the window, reported as medians.
    let (mut slice_qps, mut slice_cpu) = (Vec::new(), Vec::new());
    for w in t.phase.slices.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let secs = (b.at - a.at).as_secs_f64();
        let completed = (b.end_done - a.end_done) as f64;
        let ok = verdicts[a.end_done..b.end_done]
            .iter()
            .filter(|v| **v)
            .count();
        slice_qps.push(ok as f64 / secs);
        slice_cpu.push(b.cpu.since(&a.cpu).total_ms() / completed.max(1.0));
    }
    let ok_frac = t.tally.ok as f64 / attempted as f64;
    let late_p99 = quantile(&t.phase.late_ms, 0.99);

    println!(
        "workload {} seed {} driver {:?} discipline {:?} window {:.3}s",
        wl.name, wl.seed, wl.driver, wl.discipline, window_s
    );
    println!(
        "attempted {} ok {} failed {} latency samples {}",
        t.tally.attempted,
        t.tally.ok,
        t.tally.failed(),
        latencies.len()
    );
    for (kind, n) in &t.tally.by_kind {
        println!("  outcome {kind}: {n}");
    }
    for example in t.tally.examples.values() {
        println!("  e.g. {example}");
    }

    let mut e2e = Metrics(Vec::new());
    e2e.put("setup_s", median(&t.setups_s), "s");
    e2e.put("qps", median(&slice_qps), "1/s");
    e2e.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
    e2e.put("latency_p99_ms", chunked_p99(&latencies), "ms");
    e2e.put("cpu_ms_per_query", median(&slice_cpu), "ms");
    e2e.put("ok_frac", ok_frac, "fraction");
    e2e.put(
        "frames_per_query",
        per_q(t.transport.frames as f64),
        "count",
    );
    e2e.put(
        "wire_bytes_per_query",
        per_q(t.transport.bytes as f64),
        "bytes",
    );
    e2e.put("rss_peak_mb", measure::rss_peak_mb(), "MiB");
    for (n, v, u) in &e2e.0 {
        println!("  {n:<24} {v:>14.4} {u}");
    }
    println!("  {:<24} {:>14.4} fraction", "fail_frac", 1.0 - ok_frac);
    println!(
        "  {:<24} {:>14.4} ms (pooled over the window)",
        "latency_p99_ms",
        quantile(&latencies, 0.99)
    );
    println!(
        "  window: {} slices (ok q/s {:.1} .. {:.1}); {:.1} ok q/s and {:.4} ms cpu/query overall; process cpu user {:.1} ms sys {:.1} ms; loadgen late p99 {late_p99:.3} ms",
        slice_qps.len(),
        quantile(&slice_qps, 0.0),
        quantile(&slice_qps, 1.0),
        t.tally.ok as f64 / window_s,
        per_q(t.cpu.total_ms()),
        t.cpu.user_ms,
        t.cpu.sys_ms
    );

    let mut problems = t.problems.clone();
    problems.extend(t.tally.mismatches.iter().cloned());
    // The timed Figure-3 stream runs with deferment off; the first long
    // lists of its window are replayed at the default policy, where the
    // deferment defect strands them.
    let mut defect_frac = 0.0;
    if wl.has_defer_defect() {
        let long: Vec<u64> = (t.phase.first..t.phase.first + t.phase.submitted)
            .filter(|&i| worlds::fig3_long(wl.seed, i))
            .take(DEFECT_SAMPLE)
            .collect();
        let r = trace::reproduce_defect(&wl, &long);
        defect_frac = r.stuck as f64 / r.tried.max(1) as f64;
        println!(
            "known defect at the default Policy::defer_bytes ({} bytes): {} of {} long-list queries end defer-stuck",
            mqp_core::Policy::default().defer_bytes,
            r.stuck,
            r.tried
        );
        if let Some(e) = &r.example {
            println!("  e.g. {e}");
        }
        problems.extend(r.problems);
    }
    if late_p99 > LATE_BOUND_MS {
        problems.push(format!(
            "FLAGGED: generator late p99 {late_p99:.3} ms exceeds {LATE_BOUND_MS} ms; run not kept"
        ));
    }

    let metrics = if args.trace {
        let mut layer = Metrics(Vec::new());
        let report = trace::traced_run(&wl, &t.phase, per_q(t.peer_cpu.total_ms()));
        problems.extend(report.problems.iter().cloned());
        let gen = per_q(t.gen_cpu.total_ms());
        layer.put("loadgen.late_p99_ms", late_p99, "ms");
        layer.put("loadgen.cpu_ms_per_query", gen, "ms");
        let (tcp, thr) = match wl.driver {
            Driver::Tcp => (t.peer_cpu, Cpu::default()),
            Driver::Threaded => (Cpu::default(), t.peer_cpu),
        };
        let (tcp_wait, thr_wait) = match wl.driver {
            Driver::Tcp => (report.wait_ms_p50, 0.0),
            Driver::Threaded => (0.0, report.wait_ms_p50),
        };
        layer.put("tcp.peer_user_ms_per_query", per_q(tcp.user_ms), "ms");
        layer.put("tcp.peer_sys_ms_per_query", per_q(tcp.sys_ms), "ms");
        layer.put("tcp.wait_ms_p50", tcp_wait, "ms");
        layer.put("tcp.connects", t.teardown.connects as f64, "count");
        layer.put("tcp.dropped_frames", t.teardown.dropped as f64, "count");
        layer.put("threaded.peer_user_ms_per_query", per_q(thr.user_ms), "ms");
        layer.put("threaded.peer_sys_ms_per_query", per_q(thr.sys_ms), "ms");
        layer.put("threaded.wait_ms_p50", thr_wait, "ms");
        for (n, v, u) in report.metrics {
            layer.put(&n, v, u);
        }
        layer.put(
            "processor.default_policy_stuck_frac",
            defect_frac,
            "fraction",
        );
        println!("per-layer (traced run over {} queries):", report.queries);
        for (n, v, u) in &layer.0 {
            println!("  {n:<36} {v:>14.4} {u}");
        }
        for line in &report.notes {
            println!("{line}");
        }
        layer
    } else {
        e2e
    };

    let correct = problems.is_empty();
    for p in problems.iter().take(20) {
        eprintln!("MISMATCH {p}");
    }
    if problems.len() > 20 {
        eprintln!("... and {} more", problems.len() - 20);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.tally.attempted,
        t.tally.failed(),
        metrics.json()
    );
    correct
}
