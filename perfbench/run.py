"""stokeslab benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh child process
(perfbench/child.py) that imports the checkout's ``src/stokeslab``, with
``STOKESLAB_THREADS`` unset and BLAS capped at one thread.  With ``--trace 0``
the run also starts fresh interpreters that only import ``stokeslab.cli``,
to time set-up.  The seed picks where among those the workload child runs;
the workloads themselves are fixed grids.

The reported ``wall_s`` and ``setup_s`` are rescaled to a reference CPU
speed that is sampled while they run (see speed.py); the raw wall times are
printed beside them and kept in the record.

Human-readable lines come first; the last line of stdout is the JSON result.
The full record (machine info, every pass, output hashes, spans) is written
to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import TIME_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREADS = "1"
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0
PROBE = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
from speed import SpeedSampler
del sys.path[0]
sampler = SpeedSampler("python")
with sampler.running():
    start = time.perf_counter()
    import stokeslab.cli
    end = time.perf_counter()
print(end - start, sampler.scaled(start, end), stokeslab.__file__)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_rate": "ratio"}
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_LAYERS},
    "mesh.n_elements": "count",
    "formulations.elements_per_s": "1/s",
    "formulations.calls": "count",
    "linalg.triplets_in": "count",
    "linalg.nnz": "count",
    "linalg.dup_ratio": "ratio",
    "linalg.lu_fill": "ratio",
    "linalg.pivot_ratio": "ratio",
    "linalg.residual": "ratio",
    "analysis.eig_n": "count",
    "vtk_io.bytes": "bytes",
    "cases.callable_calls": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STOKESLAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run(cmd, deadline) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[:2]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def setup_probe(deadline) -> tuple:
    """Seconds for a fresh interpreter to import stokeslab.cli: raw, and
    rescaled to the reference speed."""
    raw, scaled, module_file = _run([sys.executable, "-c", PROBE], deadline).split()
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"stokeslab imported from {module_file}, not {SRC}")
    return float(raw), float(scaled)


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256() -> str:
    """One hash over the library's sources, to identify code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _median_with_misses(passes, key) -> float:
    """Median pass time where a failed pass counts as never finishing; if
    most passes failed, the total time of the measured passes."""
    times = [p[key] if not p["problems"] else float("inf") for p in passes]
    median = statistics.median(times)
    return median if median != float("inf") else sum(p[key] for p in passes)


def end_to_end(record, setup) -> dict:
    """The gated metrics; ``setup`` holds (raw, scaled) seconds per probe."""
    measured = [p for p in record["passes"] if p["kind"] == "measured"]
    return {
        "wall_s": _median_with_misses(measured, "scaled_s"),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        # the peak through the warm-up and the first full pass: later passes
        # only add allocator fragmentation, which varies with their number
        "peak_rss_mb": measured[0]["maxrss_mb"],
        "pass_rate": sum(not p["problems"] for p in measured) / len(measured),
    }


def raw_times(record, setup) -> dict:
    """Medians of the raw wall times behind wall_s and setup_s."""
    measured = [p for p in record["passes"] if p["kind"] == "measured"]
    return {"wall_raw_s": _median_with_misses(measured, "wall_s"),
            "setup_raw_s": statistics.median(raw for raw, _ in setup)}


def per_layer(record) -> dict:
    traced = [p for p in record["passes"] if p["kind"] == "traced"]
    untraced = [p for p in record["passes"] if p["kind"] == "untraced"]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stokeslab" / "cli.py").is_file():
        print(f"error: {SRC / 'stokeslab'} not found; run from a stokeslab checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    tmp = OUT / f"tmp-{os.getpid()}"
    child = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--tmp", str(tmp), "--src", str(SRC)]
    n_probes = 0 if args.trace else SETUP_PROBES
    child_slot = random.Random(args.seed).randrange(n_probes + 1)
    setup, record = [], None
    try:
        for slot in range(n_probes + 1):
            if slot == child_slot:
                record = json.loads(_run(child, deadline).splitlines()[-1])
            if slot < n_probes:
                setup.append(setup_probe(deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, git_commit=git_commit(),
                  source_sha256=source_sha256(),
                  setup_probes_s=[{"raw": r, "scaled": sc} for r, sc in setup])
    attempted = sum(p["kind"] != "warmup" for p in record["passes"])
    failed = sum(bool(p["problems"]) for p in record["passes"] if p["kind"] != "warmup")
    if args.trace:
        metrics, units = per_layer(record), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(record, setup), END_TO_END_UNITS
        record["raw"] = raw_times(record, setup)
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  commit {record['git_commit']}")
    print("info " + json.dumps(record["info"], sort_keys=True))
    for p in record["passes"]:
        status = "ok" if not p["problems"] else "FAILED: " + "; ".join(p["problems"])
        scaled = f"  scaled {p['scaled_s']:9.4f} s" if p["scaled_s"] is not None else ""
        print(f"pass {p['kind']:<9} {p['wall_s']:9.4f} s{scaled}  {status}")
    last = record["passes"][-1]
    print(f"sha256 stdout {last['stdout_sha256']}")
    for name, digest in last["files_sha256"].items():
        print(f"sha256 {name} {digest}")
    print(f"fail_rate = {failed / attempted:.4g} ratio ({failed} of {attempted} passes)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in record.get("raw", {}).items():
        print(f"{name} = {value:.6g} s (not rescaled)")
    if args.trace and record["absent"]:
        print("absent layers (reported as 0): " + ", ".join(record["absent"]))
    for error in sorted({e for p in record["passes"] for e in p.get("hook_errors", ())}):
        print(f"count hook failed, its counts are incomplete: {error}")
    print(f"record {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
