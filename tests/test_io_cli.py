"""Serialization round-trips and in-process CLI runs.

The printed CLI lines for the 3 x 3 worked family and the 7-vertex degree
sequence are pinned to the documented outputs; everything else is checked
by parsing the printed numbers rather than matching float formatting.
"""

import csv
import json

import numpy as np
import pytest

from spectral_optim.cli import main
from spectral_optim.io import (
    family_from_dict,
    family_to_dict,
    load_family,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_family,
    save_matrix,
    write_trace_csv,
)
from spectral_optim.optimize import TraceRow
from spectral_optim.rows import (
    Ellipsoid,
    FiniteSet,
    GraphDegreeSet,
    HalfspacePoly,
    L1Ball,
    ProductFamily,
)
from spectral_optim import demo


def _mixed_family() -> ProductFamily:
    return ProductFamily((
        FiniteSet(np.array([[1.0, 0.0, 2.0], [0.5, 0.5, 0.0]])),
        GraphDegreeSet(3, 2, "at_least"),
        L1Ball(np.array([1.0, 2.0, 3.0]), 0.75),
    ))


def _wide_family() -> ProductFamily:
    return ProductFamily((
        HalfspacePoly(np.array([[1.0, 1.0], [2.0, 0.5]])),
        Ellipsoid(np.array([2.0, 3.0]), 0.5, np.array([1.0, 2.0])),
    ))


# ------------------------------------------------------------- serialization

def test_family_round_trip_covers_every_variant(tmp_path):
    for fam in (_mixed_family(), _wide_family()):
        path = tmp_path / "family.json"
        save_family(fam, path)
        back = load_family(path)
        assert back.d == fam.d
        for orig, loaded in zip(fam.sets, back.sets):
            assert type(orig) is type(loaded)
            if isinstance(orig, FiniteSet):
                np.testing.assert_array_equal(loaded.rows, orig.rows)
            elif isinstance(orig, GraphDegreeSet):
                assert (loaded.n, loaded.sense) == (orig.n, orig.sense)
            elif isinstance(orig, L1Ball):
                np.testing.assert_array_equal(loaded.center, orig.center)
                assert loaded.radius == orig.radius
            elif isinstance(orig, HalfspacePoly):
                np.testing.assert_array_equal(loaded.normals, orig.normals)
            else:
                np.testing.assert_array_equal(loaded.center, orig.center)
                np.testing.assert_array_equal(loaded.axes, orig.axes)
                assert loaded.radius == orig.radius


def test_family_dict_errors():
    obj = family_to_dict(_mixed_family())
    obj["d"] = 2
    with pytest.raises(ValueError, match="declares d=2"):
        family_from_dict(obj)
    with pytest.raises(ValueError, match="unknown row set type"):
        family_from_dict({"d": 1, "sets": [{"type": "fuzzy"}]})


def test_matrix_round_trip(tmp_path):
    A = np.array([[0.0, 2.5], [1.25, 0.0]])
    path = tmp_path / "matrix.json"
    save_matrix(A, path)
    np.testing.assert_array_equal(load_matrix(path), A)
    obj = matrix_to_dict(A)
    assert obj["d"] == 2
    obj["d"] = 3
    with pytest.raises(ValueError, match="shape"):
        matrix_from_dict(obj)


def test_trace_csv_columns_and_inf_encoding(tmp_path):
    rows = [
        TraceRow(1, 2.0, float("inf"), 0.5, (0, 2), 0.001),
        TraceRow(2, 2.5, 3.0, 1.0, (), 0.002),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["iter", "rho", "s_bound", "t_bound", "rows_changed", "time_s"]
    assert parsed[1][0] == "1"
    assert parsed[1][1] == "2.0"
    assert parsed[1][2] == "inf" and float(parsed[1][2]) == float("inf")
    assert parsed[1][4] == "0;2"
    assert parsed[2][4] == ""


# ----------------------------------------------------------------------- CLI

def _family_file(tmp_path):
    path = tmp_path / "cycling.json"
    save_family(demo.cycling_family(), path)
    return str(path)


def test_cli_optimize_pins_the_worked_example(tmp_path, capsys):
    fam = _family_file(tmp_path)
    trace = tmp_path / "trace.csv"
    out = tmp_path / "best.json"
    code = main(["optimize", "--family", fam,
                 "--trace", str(trace), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rho = 12, status = optimal, iters = 3"
    assert lines[1] == "bounds: t = 1.22449, s = 12"
    np.testing.assert_array_equal(load_matrix(out),
                                  [[12.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
    with open(trace, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert len(parsed) == 4
    assert [r[4] for r in parsed[1:]] == ["0", "1;2", ""]


def test_cli_optimize_min_direction(tmp_path, capsys):
    code = main(["optimize", "--family", _family_file(tmp_path),
                 "--direction", "min"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "rho = 4, status = optimal, iters = 1"


def test_cli_graph_pins_the_degree_example(tmp_path, capsys):
    out = tmp_path / "adj.json"
    code = main(["graph", "--degrees", "3,2,3,2,4,1,1", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rho = 3.21432"
    grid = np.array([[int(x) for x in line.split()] for line in lines[1:]])
    assert grid.shape == (7, 7)
    assert set(grid.ravel()) <= {0, 1}
    np.testing.assert_array_equal(grid.sum(axis=1), [3, 2, 3, 2, 4, 1, 1])
    np.testing.assert_array_equal(load_matrix(out), grid)


def test_cli_stabilize_stable_input_is_free(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    save_matrix(np.array([[0.5]]), path)
    code = main(["stabilize", "--matrix", str(path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r = 0"
    assert float(lines[1].split("=")[1]) == pytest.approx(0.5, abs=1e-9)


def test_cli_stabilize_scalar(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    save_matrix(np.array([[2.0]]), path)
    out = tmp_path / "stable.json"
    code = main(["stabilize", "--matrix", str(path), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    r = float(lines[0].split("=")[1])
    assert r == pytest.approx(1.0, abs=3e-6)
    rho = float(lines[1].split("=")[1])
    assert rho <= 1.0 + 1e-6
    X = load_matrix(out)
    assert abs(X[0, 0] - 2.0) <= r + 1e-12


def test_cli_bench_writes_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(["bench", "--dims", "3,4", "--sizes", "2", "--trials", "2",
                 "--seed", "3", "--threads", "1", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "# seed: 3" in out
    assert "# density interval: (0.09, 0.15)" in out
    text = csv_path.read_text()
    assert "d,N,mean_iters,mean_time_s,trials,seed,fail" in text
    data_lines = [l for l in text.splitlines()
                  if l and not l.startswith("#") and not l.startswith("d,")]
    assert [l.split(",")[:2] for l in data_lines] == [["3", "2"], ["4", "2"]]


def test_cli_demo_cycling(capsys):
    code = main(["demo-cycling"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status = cycle-detected" in out
    assert "upper bound s = 12.5" in out
    assert "rho = 12, iters = 4" in out


def test_cli_errors_exit_2_with_diagnostic(tmp_path, capsys):
    code = main(["optimize", "--family", str(tmp_path / "missing.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "rows": [[1, 2], [3, 4], [5, 6]]}))
    code = main(["stabilize", "--matrix", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    code = main(["graph", "--degrees", "0,1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj["sets"][0].pop("rows"), "sets[0] (finite): missing key 'rows'"),
    (lambda obj: obj["sets"][1].pop("n"), "sets[1] (graph): missing key 'n'"),
    (lambda obj: obj["sets"][2].pop("radius"), "sets[2] (l1ball): missing key 'radius'"),
    (lambda obj: obj["sets"][2].pop("type"), "sets[2]: missing key 'type'"),
    (lambda obj: obj["sets"].__setitem__(1, [1, 2]),
     "sets[1]: expected a JSON object, got list"),
    (lambda obj: obj.pop("sets"), "family file: missing key 'sets'"),
])
def test_cli_names_the_missing_key_of_a_family_file(tmp_path, capsys, edit, message):
    obj = family_to_dict(_mixed_family())
    edit(obj)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(obj))
    assert main(["optimize", "--family", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_names_the_missing_key_of_a_matrix_file(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"d": 2}))
    assert main(["stabilize", "--matrix", str(path)]) == 2
    assert capsys.readouterr().err == "error: matrix file: missing key 'rows'\n"


def test_cli_method_choices_are_canonical_names():
    import argparse

    from spectral_optim.cli import _build_parser
    from spectral_optim.optimize import OptimizerConfig

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("optimize", "bench"):
        method = next(a for a in sub.choices[command]._actions if a.dest == "method")
        assert method.choices
        for choice in method.choices:
            assert OptimizerConfig(method=choice).method == choice


def test_cli_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit):
        main(["optimize", "--family", "x.json", "--method", "newton"])
