"""Run one workload's passes in this (fresh) process and print a JSON record.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS thread cap already in the environment.  Each pass calls
``stokeslab.cli.main(argv)`` in-process, the way the command line does,
with stdout captured; passes run back to back (a closed loop, one caller).

    python3 perfbench/child.py --workload NAME --seconds S --trace 0|1 \
        --tmp DIR --src SRC
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from speed import SpeedSampler
from workloads import WORKLOADS


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pass(cli, workload, tmp: Path, kind: str, tracer=None) -> dict:
    """One call of cli.main, timed, then checked and hashed (untimed).
    A warm-up pass runs the small-grid command and is not checked.
    A measured pass also runs under the speed sampler, which gives its
    time rescaled to the reference CPU speed (``scaled_s``)."""
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    warmup = kind == "warmup"
    argv = [a.replace("{tmp}", str(tmp))
            for a in (workload.warmup_argv if warmup else workload.argv)]
    out, err = io.StringIO(), io.StringIO()
    code, problems = None, []
    sampler = SpeedSampler(workload.reference) if kind == "measured" else None
    gc.collect()
    with (tracer.installed() if tracer else
          sampler.running() if sampler else nullcontext()):
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crashing pass is a failed pass, not a failed run
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        end = time.perf_counter()
    wall_s = end - start
    stdout = out.getvalue()
    if code != 0 and not problems:
        problems.append(f"exit code {code}: {err.getvalue().strip()}")
    if not problems and not warmup:
        try:
            problems += workload.check(stdout, tmp, workload.expect)
        except Exception as exc:  # unparseable output fails the pass
            problems.append(f"output check raised {exc!r}")
    record = {
        "kind": kind,
        "wall_s": wall_s,
        "scaled_s": sampler.scaled(start, end) if sampler else None,
        "samples": len(sampler.samples) if sampler else 0,
        "sampled_s": sampler.sampled_s(start, end) if sampler else 0.0,
        "exit_code": code,
        "problems": problems,
        # ru_maxrss so far: after the first full pass, that pass's peak
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout_sha256": _sha256(stdout.encode()),
        "files_sha256": {p.name: _sha256(p.read_bytes())
                         for p in sorted(tmp.rglob("*")) if p.is_file()},
    }
    if tracer:
        record.update(tracer.take_pass(wall_s))
    return record


def measure(cli, workload, seconds: float, tmp: Path, trace: bool) -> list:
    """A small-grid warm-up pass, so that lazy imports and first-call set-up
    are done before timing, then measured passes (untraced/traced pairs when
    tracing) while the next one is expected to end within ``seconds``.
    At least two measured passes, or one untraced/traced pair, always run,
    so that a long pass in a slow phase of the host is not the whole run."""
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    passes = [run_pass(cli, workload, tmp, "warmup")]
    kinds = ("untraced", "traced") if trace else ("measured",)
    min_rounds = 1 if trace else 2
    start = time.perf_counter()
    while True:
        for kind in kinds:
            passes.append(run_pass(cli, workload, tmp, kind,
                                   tracer if kind == "traced" else None))
        elapsed = time.perf_counter() - start
        rounds = (len(passes) - 1) // len(kinds)
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return passes


def machine_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "STOKESLAB_THREADS": os.environ.get("STOKESLAB_THREADS"),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()

    import stokeslab
    import stokeslab.cli as cli
    if Path(stokeslab.__file__).resolve().parent.parent != args.src.resolve():
        print(f"stokeslab imported from {stokeslab.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    passes = measure(cli, workload, args.seconds, args.tmp, bool(args.trace))
    record = {
        "info": machine_info(),
        "argv": list(workload.argv),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        from spans import Tracer
        record["absent"] = Tracer().absent()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
