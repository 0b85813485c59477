"""Golden gate: byte-level record of a fixed list of CLI runs.

    python scripts/golden.py SRC OUT.json          # record the runs of SRC
    python scripts/golden.py --compare A.json B.json

Each command runs as `python -m stokeslab.cli ...` in a fresh child process
and a fresh working directory, with PYTHONPATH=SRC (the directory that holds
the `stokeslab` package) and BLAS capped at one thread.  The record holds,
per command, the exit code and the sha256 of stdout and of every file the
run wrote.  `--compare` prints every command whose record differs and exits
1 if there is any.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# "{tmp}" is the run's working directory, "{src}" the SRC argument.
COMMANDS = [
    # the four benchmark workloads
    "run --case cavity --formulation svm --mesh grid:Q4:80x80 "
    "--out {tmp}/field.vtk --csv {tmp}/summary.csv",
    "run --case patch3d --formulation svm --mesh grid:B8:16x16x16",
    "eigen --element q4-enriched --n 16",
    "convergence --case bodyforce --formulation svm --element q4 --levels 8,16,32,64",
    # every kind, scheme and verb on small problems
    "run --case cavity --formulation wvm --mesh grid:T3:12x12 --csv {tmp}/t3.csv",
    "run --case bodyforce --formulation enriched --mesh grid:T3:10x10",
    "run --case patch3d --formulation svm --mesh grid:TET4:3x3x3",
    "run --case patch3d --formulation enriched --mesh grid:TET4:3x3x3",
    "run --case cavity --formulation wvm --mesh grid:B8:4x4x2 --out {tmp}/b8.vtk",
    "run --case patch --formulation enriched --mesh grid:Q4:10x10 --pivot-rtol 0",
    "run --case patch --formulation galerkin --mesh grid:Q4:6x6",
    "run --case patch --formulation galerkin --mesh {src}/stokeslab/data/wct_square.mesh",
    "eigen --element b8-enriched --n 3 --csv {tmp}/eig.csv",
    "convergence --case bodyforce --formulation wvm --element t3 --levels 4,8,16",
    "mesh-info --mesh grid:TET4:4x3x2",
    "mesh-info --mesh {src}/stokeslab/data/wct_square.mesh",
    # constraint folding and dof layout on paths the runs above miss
    "run --case bodyforce --formulation galerkin --mesh grid:Q4:8x8 --bp-epsilon 0.1 --nu 0.7",
    "run --case patch --formulation svm --mesh {src}/stokeslab/data/wct_square.mesh",
    "eigen --element t3-svm --n 6",
    "eigen --element q4-wvm --n 6",
    "eigen --element q4 --n 6",
    # an enriched system with the Brezzi-Pitkaranta term through LU
    "run --case bodyforce --formulation enriched --mesh grid:Q4:6x6 --bp-epsilon 0.08",
    # tensor-kind volumes through element_volumes
    "mesh-info --mesh grid:Q4:5x3",
    "mesh-info --mesh grid:B8:2x3x4",
    # a usage error: refused with exit 2
    "run --case cavity --formulation svm --mesh grid:Q4:4x4 --pivot-rtol nan",
]

_ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **_ONE_THREAD)
    out = {}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            argv = command.format(tmp=tmp, src=src).split()
            proc = subprocess.run([sys.executable, "-m", "stokeslab.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)
            files = {p.name: _sha(p.read_bytes()) for p in sorted(Path(tmp).iterdir())}
        out[command] = {"exit": proc.returncode, "stdout": _sha(proc.stdout),
                        "files": files}
        print(f"exit {proc.returncode}  {command}", file=sys.stderr)
    return out


def compare(a: dict, b: dict) -> list:
    return [f"{command}\n  {a.get(command)}\n  {b.get(command)}"
            for command in dict.fromkeys([*a, *b]) if a.get(command) != b.get(command)]


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        diffs = compare(a, b)
        print("\n".join(diffs) or f"identical: {len(a)} commands")
        return 1 if diffs else 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    Path(argv[1]).write_text(json.dumps(record(src), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
