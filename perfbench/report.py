"""Run every workload once and print its end-to-end metrics as a table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload is one run.py run in its own process, in an order set by the
seed.  Prints wall_s, setup_s, peak_rss_mb and fail_rate with their units,
the raw (not rescaled) median pass time, then the sha256 of each workload's
stdout and written files.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    args = parser.parse_args()
    names = sorted(WORKLOADS)
    random.Random(args.seed).shuffle(names)
    rows, hashes = [], []
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"{name}: run.py exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace0.json").read_text())
        rows.append((name, m["wall_s"], m["setup_s"], m["peak_rss_mb"],
                     result["failed"] / result["attempted"], result["attempted"],
                     record["raw"]["wall_raw_s"]))
        last = record["passes"][-1]
        hashes.append((name, "stdout", last["stdout_sha256"]))
        hashes += [(name, f, h) for f, h in last["files_sha256"].items()]
    print(f"{'workload':<30} {'wall_s [s]':>11} {'setup_s [s]':>12} "
          f"{'peak_rss_mb [MB]':>17} {'fail_rate [ratio]':>18} {'passes':>7} "
          f"{'wall_raw_s [s]':>15}")
    for name, wall, setup, rss, fail_rate, n, raw in rows:
        print(f"{name:<30} {wall:11.4f} {setup:12.4f} {rss:17.1f} {fail_rate:18.4g} {n:7d} "
              f"{raw:15.4f}")
    print()
    for name, what, digest in hashes:
        print(f"sha256 {name} {what} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
