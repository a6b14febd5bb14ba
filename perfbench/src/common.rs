//! Shared plumbing: the command line, the host-shape guard, sample
//! statistics, `Stats` deltas, set-up timing and the result line.

use std::time::{Duration, Instant};

use ss_core::{Runtime, RuntimeBuilder, Stats};

/// Passes measured even when `--seconds` runs out first, so every
/// reported percentile has samples behind it.
pub const MIN_PASSES: usize = 20;

/// Times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rustc: String,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut rustc = String::from("unknown");
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value after {flag}"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--rustc" => rustc = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: f64 = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            rustc,
        })
    }
}

/// The host's default runtime shape: `available_parallelism() - 1`
/// delegates plus the program thread. Refuses a shape that would run
/// more threads than cores, so numbers never silently come from an
/// oversubscribed host.
pub fn host_delegates() -> Result<usize, String> {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let delegates = cpus.saturating_sub(1).max(1);
    if 1 + delegates > cpus {
        return Err(format!(
            "host has {cpus} CPU(s); program thread + {delegates} delegate(s) would oversubscribe it"
        ));
    }
    Ok(delegates)
}

/// The runtime every workload measures on.
pub fn default_shape(delegates: usize) -> RuntimeBuilder {
    Runtime::builder().delegate_threads(delegates)
}

/// Builds a runtime with its threads placed (see [`crate::placement`]).
pub fn build(b: RuntimeBuilder) -> Runtime {
    crate::placement::Placement::get().build(b)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 if empty.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5)
}

/// A windowed tail percentile that bursts of host contention do not drag
/// along: the samples, in time order, are cut into short windows with two
/// samples beyond `q` each (20 for p90, 40 for p95), and the median of the
/// windows' percentiles is returned. With fewer than three windows it is
/// the plain percentile.
pub fn windowed_pct(samples: &[f64], q: f64) -> f64 {
    let block = (2.0 / (1.0 - q)).round() as usize;
    let blocks: Vec<f64> = samples.chunks_exact(block).map(|c| pct(c, q)).collect();
    if blocks.len() < 3 {
        pct(samples, q)
    } else {
        median(&blocks)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never exercised).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Counter movement between two [`Runtime::stats`] snapshots.
#[derive(Default, Clone, Copy)]
pub struct Delta {
    pub delegations: u64,
    pub inline_executions: u64,
    pub sync_objects: u64,
    pub isolation_epochs: u64,
    pub reductions: u64,
    pub futures_resolved: u64,
    pub tasks_inline: u64,
    pub tasks_boxed: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_invalidations: u64,
    pub ops_cancelled: u64,
    pub isolation: Duration,
    pub reduction: Duration,
}

impl Delta {
    pub fn between(a: &Stats, b: &Stats) -> Delta {
        Delta {
            delegations: b.delegations - a.delegations,
            inline_executions: b.inline_executions - a.inline_executions,
            sync_objects: b.sync_objects - a.sync_objects,
            isolation_epochs: b.isolation_epochs - a.isolation_epochs,
            reductions: b.reductions - a.reductions,
            futures_resolved: b.futures_resolved - a.futures_resolved,
            tasks_inline: b.tasks_inline - a.tasks_inline,
            tasks_boxed: b.tasks_boxed - a.tasks_boxed,
            memo_hits: b.memo_hits - a.memo_hits,
            memo_misses: b.memo_misses - a.memo_misses,
            memo_invalidations: b.memo_invalidations - a.memo_invalidations,
            ops_cancelled: b.ops_cancelled - a.ops_cancelled,
            isolation: b.isolation.saturating_sub(a.isolation),
            reduction: b.reduction.saturating_sub(a.reduction),
        }
    }

    pub fn add(&mut self, o: &Delta) {
        self.delegations += o.delegations;
        self.inline_executions += o.inline_executions;
        self.sync_objects += o.sync_objects;
        self.isolation_epochs += o.isolation_epochs;
        self.reductions += o.reductions;
        self.futures_resolved += o.futures_resolved;
        self.tasks_inline += o.tasks_inline;
        self.tasks_boxed += o.tasks_boxed;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.memo_invalidations += o.memo_invalidations;
        self.ops_cancelled += o.ops_cancelled;
        self.isolation += o.isolation;
        self.reduction += o.reduction;
    }

    /// Operations that went through a public delegation call: queued to
    /// a delegate, run inline, or answered from the memo table.
    pub fn ops(&self) -> u64 {
        self.delegations + self.inline_executions + self.memo_hits
    }
}

/// One set-up's phase times (`setup.*` per-layer metrics).
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub gen: Duration,
    pub build: Duration,
    pub warm: Duration,
    pub total: Duration,
}

/// Runs `once` [`SETUP_REPS`] times, keeps the last state and reports
/// the median total and median phase times over the quiet set-ups (the
/// hypervisor's `steal` count did not move), or over all of them when
/// fewer than half were quiet.
pub fn repeat_setup<S>(mut once: impl FnMut() -> (S, SetupTimes)) -> (S, SetupTimes) {
    let mut all = Vec::new();
    let mut quiet = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let steal = steal_ticks();
        let (s, t) = once();
        state = Some(s);
        if steal_ticks() == steal {
            quiet.push(t);
        }
        all.push(t);
    }
    println!("set-ups: {}, {} of them quiet", all.len(), quiet.len());
    if 2 * quiet.len() > all.len() {
        all = quiet;
    }
    let med = |f: fn(&SetupTimes) -> Duration| {
        Duration::from_secs_f64(median(
            &all.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>(),
        ))
    };
    let times = SetupTimes {
        gen: med(|t| t.gen),
        build: med(|t| t.build),
        warm: med(|t| t.warm),
        total: med(|t| t.total),
    };
    (state.expect("at least one set-up"), times)
}

/// Times one phase of set-up.
pub fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *slot += t0.elapsed();
    r
}

/// Hypervisor steal time so far, summed over the host's CPUs, in ticks
/// of 10 ms (the `steal` column of `/proc/stat`); 0 where the host does
/// not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Runs `pass` until `seconds` have elapsed (and at least
/// [`MIN_PASSES`] times). Returns, per pass, whether it was quiet: the
/// hypervisor's `steal` count did not move while it ran.
pub fn for_duration(seconds: f64, mut pass: impl FnMut(usize)) -> Vec<bool> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut quiet = Vec::new();
    let mut steal = steal_ticks();
    while quiet.len() < MIN_PASSES || Instant::now() < deadline {
        pass(quiet.len());
        let now = steal_ticks();
        quiet.push(now == steal);
        steal = now;
    }
    quiet
}

/// Named metric values in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// One human-readable line per metric, then the JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics.0 {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        println!(
            "failed_share {:.6} ({} failed of {} attempted)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        let body: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// End-to-end metrics every workload reports.
pub struct EndToEnd {
    pub setup: SetupTimes,
    pub pass_ms: Vec<f64>,
    pub seq_ms: Vec<f64>,
    pub ops_per_pass: Vec<f64>,
    /// Per-pass reply-latency percentiles (µs); the metrics are their
    /// medians over passes.
    pub reply_p50: Vec<f64>,
    pub reply_p95: Vec<f64>,
}

impl EndToEnd {
    pub fn new(setup: SetupTimes) -> EndToEnd {
        EndToEnd {
            setup,
            pass_ms: Vec::new(),
            seq_ms: Vec::new(),
            ops_per_pass: Vec::new(),
            reply_p50: Vec::new(),
            reply_p95: Vec::new(),
        }
    }

    /// Keeps only the quiet passes (see [`for_duration`]), unless fewer
    /// than [`MIN_PASSES`] were quiet. `quiet` has one flag per pass,
    /// and every pass was recorded here.
    pub fn keep_quiet(&mut self, quiet: &[bool]) {
        assert_eq!(quiet.len(), self.pass_ms.len(), "one flag per pass");
        let n = quiet.iter().filter(|&&q| q).count();
        println!("samples: {} SS passes, {n} of them quiet", quiet.len());
        if n < MIN_PASSES {
            println!("fewer than {MIN_PASSES} quiet passes: every pass is used");
            return;
        }
        for v in [
            &mut self.pass_ms,
            &mut self.seq_ms,
            &mut self.ops_per_pass,
            &mut self.reply_p50,
            &mut self.reply_p95,
        ] {
            if v.len() == quiet.len() {
                let mut q = quiet.iter();
                v.retain(|_| *q.next().unwrap());
            }
        }
    }

    /// For workloads without futures: reply latencies (µs, in time
    /// order) of the calls that hand a result back.
    pub fn set_replies(&mut self, us: &[f64]) {
        self.reply_p50 = vec![median(us)];
        self.reply_p95 = vec![windowed_pct(us, 0.95)];
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        println!(
            "samples used: {} SS passes, {} seq passes",
            self.pass_ms.len(),
            self.seq_ms.len()
        );
        m.put("setup_s", self.setup.total.as_secs_f64(), "s");
        m.put("pass_ms.p50", median(&self.pass_ms), "ms");
        m.put("pass_ms.p90", windowed_pct(&self.pass_ms, 0.9), "ms");
        let rates: Vec<f64> = self
            .pass_ms
            .iter()
            .zip(&self.ops_per_pass)
            .map(|(t, ops)| ops / (t / 1e3))
            .collect();
        m.put("ops_per_s", median(&rates), "1/s");
        // Printed, not gated: both sides at their fastest decile, and
        // still too host-bound on the short sequential bases of
        // `txn-fine` and `kv-mixed` for a bound (see NOTES.md).
        println!(
            "speedup_vs_seq {:.6} x",
            ratio(pct(&self.seq_ms, 0.1), pct(&self.pass_ms, 0.1))
        );
        m.put("reply_us.p50", median(&self.reply_p50), "us");
        m.put("reply_us.p95", median(&self.reply_p95), "us");
        m.put("rss_mb", peak_rss_mb(), "MB");
        m
    }
}

/// Set-up metrics shared by every traced run.
pub fn put_setup_layers(m: &mut Metrics, s: &SetupTimes) {
    m.put("setup.gen_ms", ms(s.gen), "ms");
    m.put("setup.build_ms", ms(s.build), "ms");
    m.put("setup.warm_ms", ms(s.warm), "ms");
}

/// Spans and counter deltas collected around the public calls a traced
/// pass makes, summed over every traced pass of a run.
#[derive(Default)]
pub struct Spans {
    pub passes: u64,
    pub wall: Duration,
    /// Time inside `Writable::{delegate, delegate_with, delegate_memo}`.
    pub submit: Duration,
    pub submit_ops: u64,
    /// `end_isolation` time per pass (ms) and per epoch (µs).
    pub barrier_ms: Vec<f64>,
    pub barrier_epoch_us: Vec<f64>,
    /// `SsFuture::wait` time (µs), and how many futures were already
    /// `is_ready()` when waited.
    pub wait_us: Vec<f64>,
    pub ready_at_wait: u64,
    /// `delegate_memo` calls that came back as memo hits (ns each).
    pub memo_hit_ns: Vec<f64>,
    /// `Writable::call` reclaims inside an isolation epoch (µs each).
    pub reclaim_us: Vec<f64>,
    pub delta: Delta,
}

impl Spans {
    /// Puts every per-layer metric the spans measure. Layers a workload
    /// does not reach (or reaches only inside a kernel's own calls)
    /// read 0.
    pub fn put_layers(&self, m: &mut Metrics) {
        let passes = self.passes.max(1) as f64;
        let d = &self.delta;
        m.put(
            "submit.ns_per_op",
            ratio(self.submit.as_nanos() as f64, self.submit_ops as f64),
            "ns",
        );
        m.put(
            "submit.busy_share",
            ratio(self.submit.as_secs_f64(), self.wall.as_secs_f64()),
            "share",
        );
        m.put(
            "task.boxed_share",
            ratio(
                d.tasks_boxed as f64,
                (d.tasks_boxed + d.tasks_inline) as f64,
            ),
            "share",
        );
        m.put("barrier.wait_ms", median(&self.barrier_ms), "ms");
        m.put(
            "barrier.us_per_epoch.p50",
            median(&self.barrier_epoch_us),
            "us",
        );
        m.put(
            "barrier.epochs",
            d.isolation_epochs as f64 / passes,
            "count",
        );
        m.put("future.wait_us.p50", median(&self.wait_us), "us");
        m.put(
            "future.ready_at_wait",
            ratio(self.ready_at_wait as f64, self.wait_us.len() as f64),
            "share",
        );
        m.put(
            "memo.hit_ratio",
            ratio(d.memo_hits as f64, (d.memo_hits + d.memo_misses) as f64),
            "share",
        );
        m.put("memo.hit_ns", median(&self.memo_hit_ns), "ns");
        m.put(
            "memo.invalidations",
            d.memo_invalidations as f64 / passes,
            "count",
        );
        m.put("reclaim.us.p50", median(&self.reclaim_us), "us");
        m.put("reclaim.count", d.sync_objects as f64 / passes, "count");
        m.put("reduce.ms", ms(d.reduction) / passes, "ms");
        m.put("reduce.count", d.reductions as f64 / passes, "count");
        m.put(
            "isolation_share",
            ratio(d.isolation.as_secs_f64(), self.wall.as_secs_f64()),
            "share",
        );
        m.put("delegate.ops_cancelled", d.ops_cancelled as f64, "count");
    }
}
