//! The serialization-sets benchmark.
//!
//! ```text
//! perfbench --workload <txn-fine|apps-coarse|kv-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--rustc <version>]
//! ```
//!
//! Runs one seeded workload on the host's default runtime shape and
//! prints one line per metric, then a JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` interleaves traced and
//! untraced passes and reports the per-layer metrics, the Figure 4
//! reference numbers and the per-operation ladder. See `NOTES.md`.

mod apps;
mod common;
mod kv;
mod placement;
mod reference;
mod txn;

fn main() {
    let args = match common::Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let delegates = match common::host_delegates() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    };
    let cpus = delegates + 1;
    println!(
        "host cpus={cpus} delegates={delegates} pinned={} rustc=\"{}\" workload={} seed={} seconds={} trace={}",
        placement::Placement::get().pinned(),
        args.rustc,
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    );
    let outcome = match args.workload.as_str() {
        "txn-fine" => txn::run(&args, delegates),
        "apps-coarse" => apps::run(&args, delegates),
        "kv-mixed" => kv::run(&args, delegates),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    outcome.print();
}
