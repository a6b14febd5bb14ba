//! `kv-mixed`: replies beside writes on one submit path.
//!
//! 64 long-lived shard `Writable`s. Shards 0..48 hold hot counters: skewed writes
//! (`delegate`), reads (`delegate_with`) and periodic `call` reclaims of
//! the shard written last. Shards 48..64 hold a read-mostly catalogue:
//! memoized reads (`delegate_memo`) and rare writes that invalidate them.
//! The program thread is one closed-loop client: it keeps at most
//! [`WINDOW`] futures outstanding and waits the oldest first. A pass
//! runs [`EPOCHS`] isolation epochs of [`OPS_PER_EPOCH`] operations on
//! the store the previous passes left behind.
//!
//! The key stream comes from the seed. Its read/update mix and key skew
//! are YCSB's core workload A (Cooper et al., SoCC 2010): half reads,
//! half updates, scrambled-Zipfian keys with constant 0.99. The other
//! constants below choose which runtime layers the traffic reaches
//! (`NOTES.md` lists which numbers are sourced and which are not).
//!
//! A plain sequential shadow of the store replays each pass first (that
//! replay is the `speedup_vs_seq` base); it gives every expected reply
//! and the store after the pass, and the SS pass is checked against
//! both.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rand::RngExt;
use ss_core::{fingerprint_of, Runtime, SsFuture, Writable};
use ss_workloads::rng::{rng, Zipf};

use crate::common::*;

const SHARDS: usize = 64;
/// Shards 0..48 hold counters, 48..64 the catalogue: three quarters of
/// the keys take the plain half of the traffic, one quarter the
/// memoized half.
const COUNTER_SHARDS: usize = 48;
const SLOTS: usize = 64;
const EPOCHS: usize = 32;
const OPS_PER_EPOCH: usize = 1024;
/// Outstanding futures the client allows before it waits the oldest.
const WINDOW: usize = 8;
/// One `call` reclaim every this many operations.
const RECLAIM_EVERY: usize = 128;
/// Zipf constant of the key popularity (YCSB's default).
const SKEW: f64 = 0.99;
/// Memo table capacity the runtime is built with: four times the
/// catalogue's 16 x 64 = 1,024 keys, so the table is a quarter full
/// and a publication is rarely dropped for want of a free slot.
const MEMO_CAPACITY: usize = 4096;

#[derive(Clone, Copy)]
enum Op {
    Write { shard: u8, slot: u8, val: u64 },
    Read { shard: u8, slot: u8 },
    MemoRead { shard: u8, slot: u8 },
    Reclaim { shard: u8 },
}

/// One pass's operations.
pub struct Plan {
    epochs: Vec<Vec<Op>>,
    ops: u64,
}

#[inline]
fn fold(cell: u64, val: u64) -> u64 {
    cell.wrapping_mul(31).wrapping_add(val)
}

fn checksum(cells: &[u64]) -> u64 {
    cells.iter().fold(0u64, |acc, &c| {
        acc.rotate_left(7) ^ c.wrapping_mul(0x9E37_79B9)
    })
}

impl Plan {
    pub fn generate(seed: u64) -> Plan {
        let mut r = rng(seed, 0x4B56);
        // Popularity rank -> key, shuffled so hot keys land on many shards.
        let shuffled = |n: usize, r: &mut rand::rngs::StdRng| {
            let mut v: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                v.swap(i, r.random_range(0..=i));
            }
            v
        };
        let counters = shuffled(COUNTER_SHARDS * SLOTS, &mut r);
        let catalogue = shuffled((SHARDS - COUNTER_SHARDS) * SLOTS, &mut r);
        let zc = Zipf::new(counters.len(), SKEW);
        let zk = Zipf::new(catalogue.len(), SKEW);
        let counter = |r: &mut rand::rngs::StdRng| {
            let k = counters[zc.sample(r)];
            ((k % COUNTER_SHARDS) as u8, (k / COUNTER_SHARDS) as u8)
        };
        let entry = |r: &mut rand::rngs::StdRng| {
            let k = catalogue[zk.sample(r)];
            let n = SHARDS - COUNTER_SHARDS;
            ((COUNTER_SHARDS + k % n) as u8, (k / n) as u8)
        };
        let mut last_write = 0u8;
        let mut epochs = Vec::with_capacity(EPOCHS);
        for _ in 0..EPOCHS {
            let mut ops = Vec::with_capacity(OPS_PER_EPOCH);
            for i in 0..OPS_PER_EPOCH {
                let op = if i % RECLAIM_EVERY == RECLAIM_EVERY - 1 {
                    Op::Reclaim { shard: last_write }
                } else {
                    // YCSB workload A: 50% updates (48 counter + 2
                    // catalogue), 50% reads (25 plain + 25 memoized).
                    match r.random_range(0..100u32) {
                        0..=47 => {
                            let (shard, slot) = counter(&mut r);
                            last_write = shard;
                            Op::Write {
                                shard,
                                slot,
                                val: r.random_range(1..1_000_000u64),
                            }
                        }
                        48..=49 => {
                            let (shard, slot) = entry(&mut r);
                            Op::Write {
                                shard,
                                slot,
                                val: r.random_range(1..1_000_000u64),
                            }
                        }
                        50..=74 => {
                            let (shard, slot) = counter(&mut r);
                            Op::Read { shard, slot }
                        }
                        _ => {
                            let (shard, slot) = entry(&mut r);
                            Op::MemoRead { shard, slot }
                        }
                    }
                };
                ops.push(op);
            }
            epochs.push(ops);
        }
        Plan {
            epochs,
            ops: (EPOCHS * OPS_PER_EPOCH) as u64,
        }
    }

    /// The sequential shadow: applies the plan to a flat shard-major
    /// `store` in program order and returns every reply in submission
    /// order.
    pub fn apply(&self, store: &mut [u64]) -> Vec<u64> {
        let mut replies = Vec::with_capacity(self.ops as usize / 2);
        for op in self.epochs.iter().flatten() {
            match *op {
                Op::Write { shard, slot, val } => {
                    let c = &mut store[shard as usize * SLOTS + slot as usize];
                    *c = fold(*c, val);
                }
                Op::Read { shard, slot } | Op::MemoRead { shard, slot } => {
                    replies.push(store[shard as usize * SLOTS + slot as usize]);
                }
                Op::Reclaim { shard } => {
                    let s = shard as usize * SLOTS;
                    replies.push(checksum(&store[s..s + SLOTS]));
                }
            }
        }
        replies
    }
}

struct Shard {
    cells: Vec<u64>,
}

/// Counts from one SS pass.
#[derive(Default)]
struct PassCounts {
    failed: u64,
    /// `delegate_with` + `delegate_memo` calls (futures handed out).
    futures: u64,
}

struct Client<'a> {
    expected: &'a [u64],
    next_reply: usize,
    window: VecDeque<(SsFuture<u64>, usize, Instant)>,
    counts: PassCounts,
    reply_us: &'a mut Vec<f64>,
}

impl Client<'_> {
    fn check(&mut self, got: Option<u64>, idx: usize) {
        if got != Some(self.expected[idx]) {
            self.counts.failed += 1;
        }
    }

    fn wait_oldest(&mut self, spans: &mut Option<&mut Spans>) {
        let Some((f, idx, t_submit)) = self.window.pop_front() else {
            return;
        };
        let got = match spans.as_deref_mut() {
            Some(sp) => {
                sp.ready_at_wait += u64::from(f.is_ready());
                let t0 = Instant::now();
                let r = f.wait();
                sp.wait_us.push(t0.elapsed().as_secs_f64() * 1e6);
                r
            }
            None => f.wait(),
        };
        self.reply_us.push(t_submit.elapsed().as_secs_f64() * 1e6);
        self.check(got.ok(), idx);
    }

    fn push(
        &mut self,
        f: ss_core::SsResult<SsFuture<u64>>,
        t_submit: Instant,
        spans: &mut Option<&mut Spans>,
    ) {
        let idx = self.next_reply;
        self.next_reply += 1;
        self.counts.futures += 1;
        match f {
            Ok(f) => {
                self.window.push_back((f, idx, t_submit));
                if self.window.len() > WINDOW {
                    self.wait_oldest(spans);
                }
            }
            Err(_) => self.counts.failed += 1,
        }
    }
}

fn new_shards(rt: &Runtime) -> Vec<Writable<Shard>> {
    (0..SHARDS)
        .map(|_| {
            Writable::new(
                rt,
                Shard {
                    cells: vec![0; SLOTS],
                },
            )
        })
        .collect()
}

/// One pass; checks every reply against `expected` and appends reply
/// latencies to `reply_us`.
fn ss_pass(
    plan: &Plan,
    shards: &[Writable<Shard>],
    rt: &Runtime,
    expected: &[u64],
    reply_us: &mut Vec<f64>,
    mut spans: Option<&mut Spans>,
) -> PassCounts {
    let mut c = Client {
        expected,
        next_reply: 0,
        window: VecDeque::with_capacity(WINDOW + 1),
        counts: PassCounts::default(),
        reply_us,
    };
    let mut submit = Duration::ZERO;
    let mut submits = 0u64;
    let mut barrier = Duration::ZERO;
    for epoch in &plan.epochs {
        if rt.begin_isolation().is_err() {
            c.counts.failed += 1;
        }
        for op in epoch {
            let t0 = Instant::now();
            match *op {
                Op::Write { shard, slot, val } => {
                    let slot = slot as usize;
                    let r = shards[shard as usize]
                        .delegate(move |s: &mut Shard| s.cells[slot] = fold(s.cells[slot], val));
                    if spans.is_some() {
                        submit += t0.elapsed();
                        submits += 1;
                    }
                    c.counts.failed += u64::from(r.is_err());
                }
                Op::Read { shard, slot } => {
                    let slot = slot as usize;
                    let f =
                        shards[shard as usize].delegate_with(move |s: &mut Shard| s.cells[slot]);
                    if spans.is_some() {
                        submit += t0.elapsed();
                        submits += 1;
                    }
                    c.push(f, t0, &mut spans);
                }
                Op::MemoRead { shard, slot } => {
                    let fp = fingerprint_of(&u64::from(slot));
                    let slot = slot as usize;
                    let f = shards[shard as usize]
                        .delegate_memo(fp, move |s: &mut Shard| s.cells[slot]);
                    if let Some(sp) = spans.as_deref_mut() {
                        let d = t0.elapsed();
                        submit += d;
                        submits += 1;
                        if f.as_ref().is_ok_and(|f| f.was_memo_hit()) {
                            sp.memo_hit_ns.push(d.as_nanos() as f64);
                        }
                    }
                    c.push(f, t0, &mut spans);
                }
                Op::Reclaim { shard } => {
                    let idx = c.next_reply;
                    c.next_reply += 1;
                    let got = shards[shard as usize].call(|s| checksum(&s.cells));
                    if let Some(sp) = spans.as_deref_mut() {
                        sp.reclaim_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    c.check(got.ok(), idx);
                }
            }
        }
        while !c.window.is_empty() {
            c.wait_oldest(&mut spans);
        }
        let t0 = Instant::now();
        if rt.end_isolation().is_err() {
            c.counts.failed += 1;
        }
        if let Some(sp) = spans.as_deref_mut() {
            let d = t0.elapsed();
            sp.barrier_epoch_us.push(d.as_secs_f64() * 1e6);
            barrier += d;
        }
    }
    if let Some(sp) = spans {
        sp.submit += submit;
        sp.submit_ops += submits;
        sp.barrier_ms.push(ms(barrier));
    }
    c.counts
}

/// Reads the whole store back (in an aggregation epoch).
fn read_store(shards: &[Writable<Shard>]) -> Option<Vec<u64>> {
    let mut store = Vec::with_capacity(SHARDS * SLOTS);
    for s in shards {
        store.extend(s.call(|s| s.cells.clone()).ok()?);
    }
    Some(store)
}

struct State {
    plan: Plan,
    rt: Runtime,
    shards: Vec<Writable<Shard>>,
    /// The sequential shadow of `shards`.
    shadow: Vec<u64>,
    warm_ok: bool,
}

impl State {
    /// Replays the next pass on the shadow (returning its replies and
    /// run time), then runs it on the shards and checks both.
    fn pass(&mut self, reply_us: &mut Vec<f64>, spans: Option<&mut Spans>) -> Pass {
        let t0 = Instant::now();
        let expected = self.plan.apply(&mut self.shadow);
        let seq = t0.elapsed();
        let t0 = Instant::now();
        let counts = ss_pass(
            &self.plan,
            &self.shards,
            &self.rt,
            &expected,
            reply_us,
            spans,
        );
        let wall = t0.elapsed();
        let store_ok = read_store(&self.shards).as_deref() == Some(&self.shadow[..]);
        Pass {
            seq,
            wall,
            counts,
            store_ok,
        }
    }
}

struct Pass {
    seq: Duration,
    wall: Duration,
    counts: PassCounts,
    store_ok: bool,
}

fn setup(seed: u64, delegates: usize) -> (State, SetupTimes) {
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let plan = timed(&mut t.gen, || Plan::generate(seed));
    let (rt, shards) = timed(&mut t.build, || {
        let rt = build(default_shape(delegates).memo_capacity(MEMO_CAPACITY));
        let shards = new_shards(&rt);
        (rt, shards)
    });
    let mut st = State {
        plan,
        rt,
        shards,
        shadow: vec![0; SHARDS * SLOTS],
        warm_ok: false,
    };
    let warm = timed(&mut t.warm, || st.pass(&mut Vec::new(), None));
    t.total = t0.elapsed();
    st.warm_ok = warm.store_ok && warm.counts.failed == 0;
    (st, t)
}

pub fn run(args: &Args, delegates: usize) -> Outcome {
    let (mut st, setup_times) = repeat_setup(|| setup(args.seed, delegates));
    let mut correct = st.warm_ok;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut futures = 0u64;
    let mut e2e = EndToEnd::new(setup_times);
    let mut spans = Spans::default();
    let mut traced_ms = Vec::new();
    let mut replies = Vec::new();
    let stats0 = st.rt.stats();

    let quiet = for_duration(args.seconds, |i| {
        let traced = args.trace && i % 2 == 1;
        let before = st.rt.stats();
        replies.clear();
        let p = st.pass(&mut replies, traced.then_some(&mut spans));
        let wall = p.wall;
        let d = Delta::between(&before, &st.rt.stats());
        attempted += st.plan.ops;
        futures += p.counts.futures;
        failed += p.counts.failed;
        correct &= p.store_ok;
        if traced {
            spans.passes += 1;
            spans.wall += wall;
            spans.delta.add(&d);
            traced_ms.push(ms(wall));
        } else {
            e2e.pass_ms.push(ms(wall));
            e2e.ops_per_pass.push(st.plan.ops as f64);
            e2e.seq_ms.push(ms(p.seq));
            e2e.reply_p50.push(median(&replies));
            e2e.reply_p95.push(pct(&replies, 0.95));
        }
    });
    // Conservation law: every future that reached a queue (all but memo
    // hits, which are born ready) resolved or was cancelled — and none
    // may be cancelled.
    let d = Delta::between(&stats0, &st.rt.stats());
    let submitted = futures - d.memo_hits;
    correct &= d.futures_resolved + d.ops_cancelled == submitted && d.ops_cancelled == 0;
    correct &= failed == 0;

    let metrics = if args.trace {
        let mut m = Metrics::default();
        put_setup_layers(&mut m, &setup_times);
        spans.put_layers(&mut m);
        m.put(
            "trace.overhead",
            ratio(median(&traced_ms), median(&e2e.pass_ms)),
            "x",
        );
        drop(st);
        correct &= crate::reference::put_all(&mut m, args.seed, delegates);
        m
    } else {
        e2e.keep_quiet(&quiet);
        e2e.metrics()
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}
