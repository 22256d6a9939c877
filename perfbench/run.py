#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>] [--workload <name>]

Configures and builds perfbench/ (the efd libraries from src/ plus the
harness) as a Release build under .bench_build/perfbench at the repository
root, or under $CARGO_TARGET_DIR/perfbench when that is set, then runs the
harness with the given arguments. The harness prints its result as the last
line of stdout; build output goes to stderr. Exits non-zero, without a
result line, when the build fails or the harness does not finish.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run(cmd, timeout, **kwargs) -> int:
    """Run cmd to completion; kill it after `timeout` seconds or when this
    script is interrupted or terminated."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"run.py: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def build(out: Path) -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "efd_perfbench", "-j", jobs],
    ]
    if (out / "CMakeCache.txt").exists():
        steps = steps[1:]
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    return True


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    cmd = [str(out / "efd_perfbench"), *sys.argv[1:], "--trace-dir", str(out / "traces")]
    return run(cmd, RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
