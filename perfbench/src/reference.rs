//! Reference phases of a traced run: the Figure 4 numbers per kernel
//! (`apps.*`) and the per-operation ladder on the `txn-fine` stream
//! (`ladder.*`). Reported, not gated.

use std::time::Instant;

use ss_apps::txn_kv;
use ss_core::{AuditMode, ExecutionMode, Runtime};

use crate::apps::Inputs;
use crate::common::*;
use crate::placement::Placement;
use crate::txn::{self, Stream};

/// Repetitions per reference timing (medians are reported).
const REPS: usize = 5;

/// CP thread count: the host's CPUs, the same cores SS runs on.
fn cp_threads(delegates: usize) -> usize {
    delegates + 1
}

fn median_ms(mut f: impl FnMut() -> bool, ok: &mut bool) -> f64 {
    let mut t = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        *ok &= f();
        t.push(ms(t0.elapsed()));
    }
    median(&t)
}

/// Puts `apps.*` and `ladder.*`; returns whether every output matched
/// its sequential oracle.
pub fn put_all(m: &mut Metrics, seed: u64, delegates: usize) -> bool {
    let mut ok = true;
    let apps = Inputs::generate(seed);
    let stream = Stream::generate(seed);
    let oracle_kv = txn_kv::seq(&stream.txs, stream.items);
    let oracle_fp = txn_kv::fingerprint(&oracle_kv);
    let cp = cp_threads(delegates);

    // seq and CP with no runtime alive, CP on every CPU.
    Placement::get().unpin();
    let mut rows = Vec::new();
    for k in crate::apps::KERNELS {
        let want = apps.seq_fp(k);
        let seq = median_ms(|| apps.seq_fp(k) == want, &mut ok);
        let cpm = median_ms(|| apps.cp_fp(k, cp) == want, &mut ok);
        rows.push((k, want, seq, cpm));
    }
    let txn_seq = median_ms(
        || txn_kv::fingerprint(&txn_kv::seq(&stream.txs, stream.items)) == oracle_fp,
        &mut ok,
    );
    let txn_cp = median_ms(
        || txn_kv::fingerprint(&txn_kv::cp(&stream.txs, stream.items, cp)) == oracle_fp,
        &mut ok,
    );

    // SS on the default shape.
    let rt = build(default_shape(delegates));
    for (k, want, seq, cpm) in rows {
        let ss = median_ms(|| apps.ss_fp(k, &rt) == want, &mut ok);
        put_kernel(m, k, ss, seq, cpm);
    }
    let txn_ss = median_ms(
        || txn_kv::fingerprint(&txn_kv::ss(&stream.txs, stream.items, &rt)) == oracle_fp,
        &mut ok,
    );
    put_kernel(m, "txn_kv", txn_ss, txn_seq, txn_cp);

    // Ladder: the same stream, one layer added per rung.
    m.put("ladder.seq_ns", txn_seq * 1e6 / stream.ops as f64, "ns");
    let rungs = [
        (
            "ladder.serial_ns",
            Runtime::builder().mode(ExecutionMode::Serial),
        ),
        ("ladder.inline_ns", Runtime::builder().delegate_threads(0)),
        ("ladder.handoff_ns", default_shape(delegates)),
        (
            "ladder.audit_ns",
            default_shape(delegates).audit(AuditMode::Full),
        ),
    ];
    drop(rt);
    for (name, builder) in rungs {
        let rt = build(builder);
        txn_kv::ss(&stream.txs, stream.items, &rt); // warm-up
        let (ns, rung_ok) = txn::rung_ns(&stream, &rt, &oracle_kv, REPS);
        ok &= rung_ok;
        m.put(name, ns, "ns");
    }
    ok
}

fn put_kernel(m: &mut Metrics, k: &str, ss: f64, seq: f64, cp: f64) {
    m.put(format!("apps.{k}.ss_ms"), ss, "ms");
    m.put(format!("apps.{k}.seq_ms"), seq, "ms");
    m.put(format!("apps.{k}.cp_ms"), cp, "ms");
    m.put(format!("apps.{k}.ss_over_cp"), ratio(ss, cp), "x");
}
