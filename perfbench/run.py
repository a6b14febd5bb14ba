#!/usr/bin/env python3
"""Build and run the serialization-sets benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload and passes its output through; the last line is the JSON
result. Exits non-zero, without a result, when the build or the run
fails or the result line is malformed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("txn-fine", "apps-coarse", "kv-mixed")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, cwd, env, timeout, capture):
    """Runs `cmd` to completion; kills and reaps it on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE if capture else sys.stderr
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout}s")
    return proc.returncode, (out.decode() if capture else "")


def main():
    args = sys.argv[1:]
    flags = dict(zip(args[::2], args[1::2]))
    if len(args) % 2 or set(flags) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    if flags["--workload"] not in WORKLOADS:
        fail(f"unknown workload {flags['--workload']!r}; choose from {WORKLOADS}")

    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    if not (root / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no repository sources next to {manifest}; run from a full checkout")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)

    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        root, env, BUILD_TIMEOUT_S, capture=False,
    )
    if code != 0:
        fail(f"cargo build failed with exit code {code}")
    _, rustc = run(["rustc", "--version"], root, env, 60, capture=True)

    binary = target / "release" / "perfbench"
    code, out = run([str(binary), *args, "--rustc", rustc.strip()], root, env, RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code != 0:
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a JSON result: {lines[-1]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    print(json.dumps(result))
    sys.exit(0)


if __name__ == "__main__":
    main()
