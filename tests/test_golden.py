"""The change report of scripts/golden.py --compare."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stokeslab.kinds import ElementKind
from stokeslab.mesh import generate_grid
from stokeslab.vtk_io import write_vtk

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _vtk_text(tmp_path, pressure):
    mesh = generate_grid(ElementKind.Q4, 1)
    velocity = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    path = tmp_path / "field.vtk"
    write_vtk(path, mesh, {"velocity": velocity, "pressure": np.asarray(pressure)})
    return path.read_text()


def test_normwise_change_is_taken_over_the_field_of_the_vtk_file(tmp_path):
    # an entry nine orders below the field's max moves by 1e-4 of itself,
    # but by 2.3e-13 of the field
    a = _vtk_text(tmp_path, [1121.0, 2.6e-6, -3.0, 0.5])
    b = _vtk_text(tmp_path, [1121.0, 2.6e-6 * (1 + 1e-4), -3.0, 0.5])
    report = golden.text_change(a, b)
    assert report.startswith("1 of ")
    assert "largest relative change 1.00e-04" in report
    assert report.endswith("largest normwise change 2.32e-13 (of field pressure)")


def test_normwise_change_of_a_text_is_taken_over_the_whole_text():
    # a text with no `key = value` line and no CSV row is one field
    report = golden.text_change("n 6561\nr 0.5\n", "n 6561\nr 0.25\n")
    assert report.endswith("largest normwise change 3.81e-05 (of field text)")


@pytest.mark.parametrize("a, b, field", [
    ("n = 6561\nr = 0.5\n", "n = 6561\nr = 0.25\n", "r"),
    ("# n = 6561\nsolved in 9 steps\nr = 0.5\n",
     "# n = 6561\nsolved in 9 steps\nr = 0.25\n", "r"),
    ("n,r\n6561,0.5\n", "n,r\n6561,0.25\n", "r"),
    ("6561,0.5\n", "6561,0.25\n", "1"),
], ids=["keys", "keys-and-text", "csv-header", "csv-index"])
def test_normwise_change_is_taken_per_key_and_per_csv_column(a, b, field):
    # each field has its own scale, so a count beside a value does not
    # shrink the value's change (over the whole text: 3.81e-05)
    report = golden.text_change(a, b)
    assert report.endswith(f"largest normwise change 5.00e-01 (of field {field})")


def test_texts_that_differ_beyond_their_numbers_have_no_figure():
    assert golden.text_change("a = 1\n", "b = 1\n") == "text differs beyond its numbers"


def test_a_changed_stderr_is_reported():
    record = {"exit": 1, "stdout": golden._sha(b""), "files": {}, "text": "", "file_text": {},
              "stderr": "numerical failure: Factor is exactly singular\n"}
    moved = dict(record, stderr="numerical failure: the assembled svm system is not finite\n")
    assert golden.compare({"run": record}, {"run": dict(record)}) == []
    assert golden.compare({"run": record}, {"run": moved}) == [
        "run\n  stderr: 'numerical failure: Factor is exactly singular\\n'"
        " -> 'numerical failure: the assembled svm system is not finite\\n'"]


def test_the_record_holds_the_stderr_text(monkeypatch, capsys):
    command = "run --case cavity --formulation svm --mesh grid:Q4:4x4 --pivot-rtol nan"
    monkeypatch.setattr(golden, "COMMANDS", [command])
    run = golden.record(Path(__file__).resolve().parents[1] / "src")[command]
    assert run["exit"] == 2
    assert run["stderr"] == "error: pivot_rtol must be >= 0, got nan\n"
