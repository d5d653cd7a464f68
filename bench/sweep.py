"""Run the benchmark over several seeds into one result set.

    python3 bench/sweep.py SET_DIR --seeds 1-10

Runs ``run.py`` untraced once per (workload, seed) for every workload of
``BENCHMARK.json``, one process at a time, for its ``run_seconds``, and
writes each run's result file into SET_DIR for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_dir", type=Path)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            command = [sys.executable, str(BENCH / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", "0", "--out", str(args.set_dir)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            last = done.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0]}",
                  flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
