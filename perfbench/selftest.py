"""Self-test of the benchmark itself (not of stokeslab).

    python3 perfbench/selftest.py [WORKLOAD ...]

1. A wrong expected value makes every pass fail, and the run goes on to
   the next pass instead of stopping (checked in-process on a small grid).
   The speed rescaling charges each stretch of work at the speed its
   samples saw and leaves the samples' own time out (synthetic samples).
2. Two traced runs of each named workload (default: all four) report
   identical per-layer counts and identical output hashes, and in every
   traced pass the layers' self times add up to the pass's wall time,
   with the unattributed remainder printed, and no count hook failed.

Prints one PASS/FAIL line per check; exits 1 if any check failed.
Takes about three minutes for all four workloads.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import BOOKKEEPING  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = ("linalg.nnz", "linalg.triplets_in", "linalg.lu_fill", "analysis.eig_n",
          "cases.callable_calls", "formulations.calls", "vtk_io.bytes",
          "mesh.n_elements")
SEEDS = (101, 102)


def report(ok: bool, message: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {message}")
    return ok


def wrong_expectation_fails_passes() -> bool:
    sys.path.insert(0, str(run.SRC))
    import stokeslab.cli as cli
    from child import measure
    cavity = WORKLOADS["cavity-q4-svm"]
    small = dataclasses.replace(
        cavity,
        argv=tuple(a.replace("80x80", "12x12") for a in cavity.argv),
        expect={**cavity.expect, "n_nodes": 13 * 13, "vortex_y": 0.25},
    )
    tmp = run.OUT / "selftest-tmp"
    try:
        passes = measure(cli, small, 0.5, tmp, trace=False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    measured = [p for p in passes if p["kind"] == "measured"]
    all_failed = all(any("vortex_y" in s for s in p["problems"]) for p in measured)
    metrics = run.end_to_end({"passes": passes}, [(1.0, 1.0)])
    return report(len(measured) >= 2 and all_failed and metrics["pass_rate"] == 0,
                  f"wrong vortex_y expectation: {len(measured)} measured passes "
                  f"ran, all failed, pass_rate {metrics['pass_rate']}")


def rescaling_is_exact() -> bool:
    """Synthetic samples, 1 ms each, one a second over 3.001 s: 2.997 s of
    work.  At half the reference speed it reads half as long; at reference
    speed with one sample hit by an interrupt (10x slow) it reads as is."""
    sampler = SpeedSampler("bulk")
    ref = sampler.ref_s
    ok = True
    for kernel_s, want in (([2 * ref] * 4, 2.997 / 2), ([ref, 10 * ref, ref, ref], 2.997)):
        sampler.samples = [(t, t + 0.001, k) for t, k in zip((0.0, 1.0, 2.0, 3.0), kernel_s)]
        scaled, sampled = sampler.scaled(0.0, 3.001), sampler.sampled_s(0.0, 3.001)
        ok &= report(abs(scaled - want) < 1e-9 and abs(sampled - 0.004) < 1e-9,
                     f"speed rescaling: kernel times {[round(k / ref) for k in kernel_s]} x "
                     f"reference, {scaled:.4f} s (want {want:.4f}), samples "
                     f"{sampled:.4f} s (want 0.004)")
    return ok


def traced_run(name: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=180)
    return json.loads((run.OUT / f"{name}-seed{seed}-trace1.json").read_text())


def traced_runs_agree(name: str) -> bool:
    first, second = (traced_run(name, seed) for seed in SEEDS)
    ok = True
    diff = {k: (first["metrics"][k], second["metrics"][k]) for k in COUNTS
            if first["metrics"][k] != second["metrics"][k]}
    ok &= report(not diff, f"{name}: per-layer counts repeat exactly {diff or ''}")
    hashes = {(p["stdout_sha256"], tuple(p["files_sha256"].items()))
              for r in (first, second) for p in r["passes"] if p["kind"] != "warmup"}
    ok &= report(len(hashes) == 1, f"{name}: outputs byte-identical across passes "
                                   f"and runs ({len(hashes)} distinct)")
    for r in (first, second):
        for p in r["passes"]:
            if p["kind"] != "traced":
                continue
            layers = p["layers"]
            self_sum = sum(layers[k] for k in (*run.TIME_LAYERS, BOOKKEEPING))
            rest = layers["trace.unattributed_s"]
            ok &= report(
                min(layers[k] for k in run.TIME_LAYERS) >= -1e-9
                and 0 <= rest <= max(1e-3, 0.01 * p["wall_s"])
                and not p["hook_errors"],
                f"{name} seed {r['seed']}: self times {self_sum:.4f} s + "
                f"unattributed {rest:.2e} s = wall {p['wall_s']:.4f} s")
    return ok


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    ok = wrong_expectation_fails_passes()
    ok &= rescaling_is_exact()
    for name in names:
        ok &= traced_runs_agree(name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
