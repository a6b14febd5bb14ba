//! `txn-fine`: the `txn_kv` operation stream, one epoch per pass.
//!
//! Untimed set-up cuts the stream to a fixed amount of work; every
//! untraced pass (and every ladder rung) is the program's own
//! `ss_apps::txn_kv::ss` on it: 64 bank `Writable`s, one `delegate` per
//! `(transaction, bank)` touched, each capturing a `Vec<u32>` plus a
//! `u64`. A traced pass issues the same operations from this file
//! ([`traced_pass`]), so it can time the `delegate` calls and the
//! `end_isolation` barrier separately. Every pass's store is checked
//! against `txn_kv::seq`, the kernel's own sequential oracle.

use std::time::{Duration, Instant};

use ss_apps::txn_kv::{self, BANKS};
use ss_core::{Runtime, Writable};
use ss_workloads::scale::{self, Scale};
use ss_workloads::transactions::{transactions, Transaction};

use crate::common::*;

/// Delegations per pass. The scale-S generator's stream length varies
/// with the seed (33k–42k delegations), so the stream is cut to a fixed
/// amount of work and `pass_ms` compares across seeds.
pub const OPS: u64 = 40_960;

/// The seeded transaction stream: scale-S parameters, cut after
/// [`OPS`] delegations.
pub struct Stream {
    pub txs: Vec<Transaction>,
    pub items: u32,
    /// Delegations one pass issues (distinct banks per transaction).
    pub ops: u64,
}

impl Stream {
    pub fn generate(seed: u64) -> Stream {
        let mut params = scale::freqmine(Scale::S);
        params.seed = seed;
        params.count *= 2;
        let mut txs = transactions(&params);
        let mut ops = 0;
        let mut keep = 0;
        for tx in &txs {
            let mut seen = [false; BANKS];
            let banks = tx
                .iter()
                .filter(|&&i| !std::mem::replace(&mut seen[i as usize % BANKS], true))
                .count() as u64;
            if ops + banks > OPS {
                break;
            }
            ops += banks;
            keep += 1;
        }
        txs.truncate(keep);
        Stream {
            txs,
            items: params.items,
            ops,
        }
    }
}

/// `txn_kv`'s per-cell fold (`cell * 31 + txid + 1`); the traced pass's
/// result is compared with `txn_kv::seq`, so a drift here fails it.
#[inline]
fn fold(cell: u64, txid: u64) -> u64 {
    cell.wrapping_mul(31).wrapping_add(txid + 1)
}

struct Bank {
    cells: Vec<u64>,
}

/// One traced pass, operation for operation as `txn_kv::ss` issues it:
/// create the banks, delegate the stream in one isolation epoch, read
/// the store back, timing the `delegate` calls and the barrier into
/// `spans`. Returns the store and the number of calls that returned an
/// error.
fn traced_pass(s: &Stream, rt: &Runtime, sp: &mut Spans) -> (Vec<u64>, u64) {
    let mut failed = 0u64;
    let per_bank = s.items as usize / BANKS + 1;
    let banks: Vec<Writable<Bank>> = (0..BANKS)
        .map(|_| {
            Writable::new(
                rt,
                Bank {
                    cells: vec![0; per_bank],
                },
            )
        })
        .collect();
    if rt.begin_isolation().is_err() {
        failed += 1;
    }
    let mut submit = Duration::ZERO;
    let mut touched: Vec<Vec<u32>> = vec![Vec::new(); BANKS];
    for (txid, tx) in s.txs.iter().enumerate() {
        for &item in tx {
            touched[item as usize % BANKS].push(item);
        }
        for (b, bank_items) in touched.iter_mut().enumerate() {
            if bank_items.is_empty() {
                continue;
            }
            let batch = std::mem::take(bank_items);
            let txid = txid as u64;
            let op = move |bank: &mut Bank| {
                for item in &batch {
                    let slot = *item as usize / BANKS;
                    bank.cells[slot] = fold(bank.cells[slot], txid);
                }
            };
            let t0 = Instant::now();
            let r = banks[b].delegate(op);
            submit += t0.elapsed();
            failed += u64::from(r.is_err());
        }
    }
    let t_end = Instant::now();
    if rt.end_isolation().is_err() {
        failed += 1;
    }
    let barrier = t_end.elapsed();
    sp.submit += submit;
    sp.submit_ops += s.ops;
    sp.barrier_ms.push(ms(barrier));
    sp.barrier_epoch_us.push(barrier.as_secs_f64() * 1e6);

    let mut kv = vec![0u64; s.items as usize];
    for (b, bank) in banks.iter().enumerate() {
        let r = bank.call(|state| {
            for (slot, &v) in state.cells.iter().enumerate() {
                let item = slot * BANKS + b;
                if item < s.items as usize {
                    kv[item] = v;
                }
            }
        });
        failed += u64::from(r.is_err());
    }
    (kv, failed)
}

/// Set-up state of one run.
struct State {
    stream: Stream,
    rt: Runtime,
    warm_ok: bool,
}

fn setup(seed: u64, delegates: usize) -> (State, SetupTimes) {
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let stream = timed(&mut t.gen, || Stream::generate(seed));
    let rt = timed(&mut t.build, || build(default_shape(delegates)));
    let kv = timed(&mut t.warm, || txn_kv::ss(&stream.txs, stream.items, &rt));
    t.total = t0.elapsed();
    let warm_ok = kv == txn_kv::seq(&stream.txs, stream.items);
    (
        State {
            stream,
            rt,
            warm_ok,
        },
        t,
    )
}

/// `txn_kv::seq` calls per seq sample: one call is about 0.1 ms, so a
/// sample lasts about 5 ms.
const SEQ_CALLS: usize = 48;

pub fn run(args: &Args, delegates: usize) -> Outcome {
    let (st, setup_times) = repeat_setup(|| setup(args.seed, delegates));
    let oracle = txn_kv::seq(&st.stream.txs, st.stream.items);
    let mut correct = st.warm_ok;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut e2e = EndToEnd::new(setup_times);
    let mut spans = Spans::default();
    let mut traced_ms = Vec::new();
    let stats0 = st.rt.stats();

    let quiet = for_duration(args.seconds, |i| {
        let traced = args.trace && i % 2 == 1;
        let before = st.rt.stats();
        let t0 = Instant::now();
        // `txn_kv::ss` panics on an `SsError`, which ends the run without
        // a result; a wrong store fails every operation of the pass.
        let (kv, f) = if traced {
            traced_pass(&st.stream, &st.rt, &mut spans)
        } else {
            (txn_kv::ss(&st.stream.txs, st.stream.items, &st.rt), 0)
        };
        let wall = t0.elapsed();
        let d = Delta::between(&before, &st.rt.stats());
        attempted += st.stream.ops;
        failed += if kv == oracle { f } else { st.stream.ops };
        correct &= kv == oracle;
        if traced {
            spans.passes += 1;
            spans.wall += wall;
            spans.delta.add(&d);
            traced_ms.push(ms(wall));
        } else {
            e2e.pass_ms.push(ms(wall));
            e2e.ops_per_pass.push(st.stream.ops as f64);
            let t0 = Instant::now();
            for _ in 0..SEQ_CALLS {
                let kv = txn_kv::seq(&st.stream.txs, st.stream.items);
                correct &= std::hint::black_box(kv).len() == oracle.len();
            }
            e2e.seq_ms.push(ms(t0.elapsed()) / SEQ_CALLS as f64);
        }
    });
    // Conservation law: every submitted future resolved or cancelled;
    // this workload submits none, and nothing may be cancelled.
    let d = Delta::between(&stats0, &st.rt.stats());
    correct &= d.futures_resolved + d.ops_cancelled == 0 && d.ops_cancelled == 0;
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
        // No futures: the pass result is the one reply.
        let us: Vec<f64> = e2e.pass_ms.iter().map(|t| t * 1e3).collect();
        e2e.set_replies(&us);
        e2e.metrics()
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// ns per operation of one ladder rung: the median of `passes` passes
/// of `txn_kv::ss` on the stream on `rt`, each checked against `oracle`.
pub fn rung_ns(s: &Stream, rt: &Runtime, oracle: &[u64], passes: usize) -> (f64, bool) {
    let mut ok = true;
    let mut t = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t0 = Instant::now();
        let kv = txn_kv::ss(&s.txs, s.items, rt);
        t.push(t0.elapsed().as_secs_f64() * 1e9 / s.ops as f64);
        ok &= kv == oracle;
    }
    (median(&t), ok)
}
