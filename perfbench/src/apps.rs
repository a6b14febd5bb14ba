//! `apps-coarse`: four light `ss-apps` kernels at scale S, back to back.
//!
//! Each kernel issues a few hundred operations or fewer per pass, of
//! 10–100 µs each, so the pass is carried by the kernels' work,
//! reductions and epoch barriers rather than by per-operation cost.
//! Every SS pass is fingerprint-checked against the `seq` oracle, which
//! set-up computes untimed.

use std::time::{Duration, Instant};

use ss_apps::{blackscholes, histogram, reverse_index, vfs_stat};
use ss_core::{ReadOnly, Runtime};
use ss_workloads::bitmap::{self, Bitmap};
use ss_workloads::options::{self, OptionData};
use ss_workloads::scale::{self, Scale};
use ss_workloads::vfs::Vfs;

use crate::common::*;

pub const KERNELS: [&str; 4] = ["histogram", "blackscholes", "reverse_index", "vfs_stat"];

/// The seeded inputs, wrapped once at load time as the kernels expect.
pub struct Inputs {
    img: ReadOnly<Bitmap>,
    opts: ReadOnly<Vec<OptionData>>,
    tree: Vfs,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let (w, h) = scale::histogram(Scale::S);
        let mut html = scale::reverse_index(Scale::S);
        html.seed = seed;
        Inputs {
            img: ReadOnly::new(bitmap::bitmap(w, h, seed)),
            opts: ReadOnly::new(options::options(scale::blackscholes(Scale::S), seed)),
            tree: ss_workloads::html::tree(&html),
        }
    }

    pub fn seq_fp(&self, k: &str) -> u64 {
        match k {
            "histogram" => histogram::fingerprint(&histogram::seq(&self.img)),
            "blackscholes" => blackscholes::fingerprint(&blackscholes::seq(&self.opts)),
            "reverse_index" => reverse_index::fingerprint(&reverse_index::seq(&self.tree)),
            "vfs_stat" => vfs_stat::fingerprint(&vfs_stat::seq(&self.tree)),
            _ => unreachable!("unknown kernel {k}"),
        }
    }

    pub fn cp_fp(&self, k: &str, threads: usize) -> u64 {
        match k {
            "histogram" => histogram::fingerprint(&histogram::cp(&self.img, threads)),
            "blackscholes" => blackscholes::fingerprint(&blackscholes::cp(&self.opts, threads)),
            "reverse_index" => reverse_index::fingerprint(&reverse_index::cp(&self.tree, threads)),
            "vfs_stat" => vfs_stat::fingerprint(&vfs_stat::cp(&self.tree, threads)),
            _ => unreachable!("unknown kernel {k}"),
        }
    }

    pub fn ss_fp(&self, k: &str, rt: &Runtime) -> u64 {
        match k {
            "histogram" => histogram::fingerprint(&histogram::ss(&self.img, rt)),
            "blackscholes" => blackscholes::fingerprint(&blackscholes::ss(&self.opts, rt)),
            "reverse_index" => reverse_index::fingerprint(&reverse_index::ss(&self.tree, rt)),
            "vfs_stat" => vfs_stat::fingerprint(&vfs_stat::ss(&self.tree, rt)),
            _ => unreachable!("unknown kernel {k}"),
        }
    }
}

/// The kernels' SS results of one pass, fingerprinted after the timer
/// stops, the operations each kernel made (from `Stats` deltas) and the
/// pass's wall time.
fn ss_pass(inp: &Inputs, rt: &Runtime) -> ([u64; 4], [u64; 4], Duration) {
    let mut ops = [0u64; 4];
    let mut s = rt.stats();
    let t0 = Instant::now();
    let mut count = |k: usize| {
        let now = rt.stats();
        ops[k] = Delta::between(&s, &now).ops();
        s = now;
    };
    let h = histogram::ss(&inp.img, rt);
    count(0);
    let b = blackscholes::ss(&inp.opts, rt);
    count(1);
    let r = reverse_index::ss(&inp.tree, rt);
    count(2);
    let v = vfs_stat::ss(&inp.tree, rt);
    count(3);
    let wall = t0.elapsed();
    let fps = [
        histogram::fingerprint(&h),
        blackscholes::fingerprint(&b),
        reverse_index::fingerprint(&r),
        vfs_stat::fingerprint(&v),
    ];
    (fps, ops, wall)
}

fn seq_pass(inp: &Inputs) -> [u64; 4] {
    let h = histogram::seq(&inp.img);
    let b = blackscholes::seq(&inp.opts);
    let r = reverse_index::seq(&inp.tree);
    let v = vfs_stat::seq(&inp.tree);
    [
        histogram::fingerprint(&h),
        blackscholes::fingerprint(&b),
        reverse_index::fingerprint(&r),
        vfs_stat::fingerprint(&v),
    ]
}

struct State {
    inp: Inputs,
    rt: Runtime,
    warm_ok: bool,
}

fn setup(seed: u64, delegates: usize) -> (State, SetupTimes) {
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let inp = timed(&mut t.gen, || Inputs::generate(seed));
    let rt = timed(&mut t.build, || build(default_shape(delegates)));
    let (fps, _, _) = timed(&mut t.warm, || ss_pass(&inp, &rt));
    t.total = t0.elapsed();
    let warm_ok = fps == seq_pass(&inp);
    (State { inp, rt, warm_ok }, t)
}

pub fn run(args: &Args, delegates: usize) -> Outcome {
    let (st, setup_times) = repeat_setup(|| setup(args.seed, delegates));
    let oracle = seq_pass(&st.inp);
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
        let (fps, ops, wall) = ss_pass(&st.inp, &st.rt);
        let d = Delta::between(&before, &st.rt.stats());
        // A kernel whose output is wrong fails every operation it made.
        let bad: u64 = (0..4)
            .filter(|&k| fps[k] != oracle[k])
            .map(|k| ops[k])
            .sum();
        attempted += d.ops();
        failed += bad;
        correct &= fps == oracle;
        if traced {
            spans.passes += 1;
            spans.wall += wall;
            spans.delta.add(&d);
            traced_ms.push(ms(wall));
        } else {
            e2e.pass_ms.push(ms(wall));
            e2e.ops_per_pass.push(d.ops() as f64);
            let t0 = Instant::now();
            let seq = seq_pass(&st.inp);
            e2e.seq_ms.push(ms(t0.elapsed()));
            correct &= seq == oracle;
        }
    });
    let d = Delta::between(&stats0, &st.rt.stats());
    correct &= d.ops_cancelled == 0 && failed == 0;

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
        // The kernels hand back no futures: the pass is the one reply.
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
