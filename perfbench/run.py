#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <local-batch|cluster-batch|serve-cc> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build) and run with the same arguments;
its last line of standard output is the JSON result. With --trace 1 the
benchmark's spans are written to <target dir>/perfbench/spans-<workload>-<seed>.jsonl.
The exit code is the binary's: non-zero when the build fails or any output
check fails. The binary runs in a process group of its own, so cluster
worker processes it spawns are killed with it on a timeout.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def flag(args, name):
    """Value following `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: build exceeded {BUILD_TIMEOUT_S} s")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    if flag(args, "--trace") == "1":
        spans = target / "perfbench" / f"spans-{flag(args, '--workload')}-{flag(args, '--seed')}.jsonl"
        args += ["--spans", str(spans)]
    proc = subprocess.Popen([str(target / "release" / "perfbench"), *args],
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    # Whatever is left of the group (stray workers) goes with it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if code is None:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
