"""Golden gate: byte-level record of a fixed list of CLI runs.

    python scripts/golden.py SRC OUT.json          # record the runs of SRC
    python scripts/golden.py --compare A.json B.json

Each command runs as `python -m stokeslab.cli ...` in a fresh child process
and a fresh working directory, with PYTHONPATH=SRC (the directory that holds
the `stokeslab` package) and BLAS capped at one thread.  The record holds,
per command, the exit code, the stdout text and its sha256, the stderr
text (with SRC and the working directory written as {src} and {tmp}), and
the sha256 and the text of every file the run wrote.  `--compare` prints
every command whose record differs, with both stderr texts where they
differ, and exits 1 if there is any.  Where both records hold the text of
a moved stdout or file, it prints the largest relative change among its
numbers of size >= 1e-8, the largest absolute change among the smaller
ones, and the largest normwise change: the largest change in a field over
the largest |value| of that field.  A field is one section
(POINTS, CELLS, CELL_TYPES or a named point field) of a VTK file.  In any
other text it is the value of one `key = value` line, or one CSV column,
named by its header or else by its index; the lines that are neither make
up the field `text`.  These replace the two records; records without the
text compare by hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
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
    # the 3-D spectrum with a stabilization C, summed over three components
    "eigen --element b8-svm --n 3",
    "convergence --case bodyforce --formulation wvm --element t3 --levels 4,8,16",
    "convergence --case bodyforce --formulation wvm --element q4 --levels 4,8,16 "
    "--csv {tmp}/conv.csv",
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
    # the condensed enriched coupling with non-zero lid data, through LU
    "run --case cavity --formulation enriched --mesh grid:TET4:4x4x2",
    # a 3-D svm Schur-CG solve whose velocity components have different free nodes
    "run --case cavity --formulation svm --mesh grid:B8:6x6x3",
    # the 3-D Schur-CG at a size where the preconditioner sets the iteration count
    "run --case cavity --formulation svm --mesh grid:B8:8x8x8",
    # B8 Galerkin and Brezzi-Pitkaranta blocks, with errors at roundoff level
    "run --case patch3d --formulation galerkin --mesh grid:B8:3x3x3 --bp-epsilon 0.1",
    # tensor-kind volumes through element_volumes
    "mesh-info --mesh grid:Q4:5x3",
    "mesh-info --mesh grid:B8:2x3x4",
    # extreme nu: a term of the assembled system overflows, refused with exit 1
    "run --case patch --formulation svm --mesh grid:Q4:4x4 --nu 1e308",
    "run --case patch --formulation enriched --mesh grid:T3:4x4 --nu 1e200",
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
            files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
        stderr = proc.stderr.decode().replace(str(src), "{src}").replace(tmp, "{tmp}")
        out[command] = {"exit": proc.returncode, "stdout": _sha(proc.stdout), "stderr": stderr,
                        "files": {name: _sha(data) for name, data in files.items()},
                        "text": proc.stdout.decode(),
                        "file_text": {name: data.decode() for name, data in files.items()}}
        print(f"exit {proc.returncode}  {command}", file=sys.stderr)
    return out


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
_SMALL = 1e-8
_KEY = re.compile(r"#?\s*(\w+) = (.*)")
_VTK_SECTIONS = ("POINTS", "CELLS", "CELL_TYPES", "VECTORS", "SCALARS")


def _fields(text: str) -> dict:
    """The numbers of each field of a text, by name: of each section of a
    legacy VTK file (its data lines only); else of the value of each
    `key = value` line, by its key, of each CSV column, by its header (a
    row with no number) or else its index, and of every other line, as
    the field `text`."""
    if not text.startswith("# vtk DataFile"):
        fields, header = {}, []
        for line in text.splitlines():
            key, cells = _KEY.fullmatch(line), line.split(",")
            if key:
                parts = {key[1]: key[2]}
            elif len(cells) == 1:
                parts = {"text": line}
            elif not any(_NUMBER.fullmatch(cell) for cell in cells):
                header = cells
                continue
            else:
                parts = {header[i] if i < len(header) else str(i): cell
                         for i, cell in enumerate(cells)}
            for name, part in parts.items():
                fields.setdefault(name, []).extend(_NUMBER.findall(part))
        return fields
    fields, name = {}, None
    for line in text.splitlines():
        head = line.split()
        if head and head[0] in _VTK_SECTIONS:
            name = head[1] if head[0] in ("VECTORS", "SCALARS") else head[0]
            fields[name] = []
        elif name is not None and not line[:1].isalpha():
            fields[name] += _NUMBER.findall(line)
    return fields


def _nan_largest(change):
    """The sort key of a (change, ...) tuple that ranks a NaN change above all."""
    return change[0] != change[0], change[0]


def text_change(a: str, b: str) -> str:
    """The largest change between the numbers in two texts (stdouts or files)
    that differ only in their numbers."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return "text differs beyond its numbers"
    numbers = list(zip(_NUMBER.findall(a), _NUMBER.findall(b)))
    pairs = [(float(x), float(y)) for x, y in numbers if x != y]
    big = [(abs(x - y) / max(abs(x), abs(y)), x, y) for x, y in pairs
           if max(abs(x), abs(y)) >= _SMALL]
    small = [(abs(x - y), x, y) for x, y in pairs if max(abs(x), abs(y)) < _SMALL]
    parts = [f"{len(pairs)} of {len(numbers)} printed numbers moved"]
    for what, changes in (("relative", big), (f"absolute (|v| < {_SMALL:g})", small)):
        if changes:
            change, x, y = max(changes, key=_nan_largest)
            parts.append(f"largest {what} change {change:.2e} ({x!r} -> {y!r})")
    fields_a, fields_b, normwise = _fields(a), _fields(b), []
    for name, xs in fields_a.items():
        field = [(float(x), float(y)) for x, y in zip(xs, fields_b[name])]
        scale = max((max(abs(x), abs(y)) for x, y in field), default=0.0)
        normwise += [(abs(x - y) / scale, name) for x, y in field if x != y]
    if normwise:
        change, name = max(normwise, key=_nan_largest)
        parts.append(f"largest normwise change {change:.2e} (of field {name})")
    return "; ".join(parts)


def _hashes(record):
    return record and {k: v for k, v in record.items() if k not in ("text", "file_text")}


def compare(a: dict, b: dict) -> list:
    diffs = []
    for command in dict.fromkeys([*a, *b]):
        ra, rb = a.get(command), b.get(command)
        if _hashes(ra) == _hashes(rb):
            continue
        if ra is None or rb is None or "text" not in ra or "text" not in rb:
            diffs.append(f"{command}\n  {_hashes(ra)}\n  {_hashes(rb)}")
            continue
        lines = [command]
        if ra["exit"] != rb["exit"]:
            lines.append(f"  exit {ra['exit']} -> {rb['exit']}")
        if ra["stdout"] != rb["stdout"]:
            lines.append(f"  stdout: {text_change(ra['text'], rb['text'])}")
        if ra.get("stderr") != rb.get("stderr"):
            lines.append(f"  stderr: {ra.get('stderr')!r} -> {rb.get('stderr')!r}")
        for name in sorted({*ra["files"], *rb["files"]}):
            if ra["files"].get(name) != rb["files"].get(name):
                ta, tb = (r.get("file_text", {}).get(name) for r in (ra, rb))
                change = "hash differs" if ta is None or tb is None else text_change(ta, tb)
                lines.append(f"  file {name}: {change}")
        diffs.append("\n".join(lines))
    return diffs


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        diffs = compare(a, b)
        print("\n".join(diffs + [f"moved: {len(diffs)} of {len(b)} commands"])
              if diffs else f"identical: {len(a)} commands")
        return 1 if diffs else 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    Path(argv[1]).write_text(json.dumps(record(src), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
