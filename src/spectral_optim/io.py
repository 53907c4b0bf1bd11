"""JSON serialization for families and matrices, CSV output for traces.

Family files are JSON objects ``{"d": d, "sets": [descriptor, ...]}`` with
one descriptor per row set:

* ``{"type": "finite", "rows": [[...], ...]}``
* ``{"type": "graph", "n": n, "sense": "at_most" | "at_least"}``
* ``{"type": "l1ball", "center": [...], "radius": r}``
* ``{"type": "poly", "normals": [[...], ...]}``
* ``{"type": "ellipsoid", "center": [...], "radius": r, "axes": [...]}``

Matrices are ``{"d": d, "rows": [[...], ...]}``.  Non-finite values are
encoded as the string ``"inf"`` on output and accepted on input.  A file
missing a required key is rejected with a ``ValueError`` that names the key
and, for a row set, its index and type.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .rows import (
    Ellipsoid,
    FiniteSet,
    GraphDegreeSet,
    HalfspacePoly,
    L1Ball,
    ProductFamily,
    RowSet,
)

__all__ = [
    "family_to_dict",
    "family_from_dict",
    "save_family",
    "load_family",
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
    "write_trace_csv",
]


def _encode_num(x: float):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _encode_array(a: np.ndarray):
    return [[_encode_num(x) for x in row] for row in np.asarray(a, dtype=float)]


def _decode_array(rows) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


def _set_to_dict(rs: RowSet) -> dict:
    if isinstance(rs, FiniteSet):
        return {"type": "finite", "rows": _encode_array(rs.rows)}
    if isinstance(rs, GraphDegreeSet):
        return {"type": "graph", "n": rs.n, "sense": rs.sense}
    if isinstance(rs, L1Ball):
        return {"type": "l1ball",
                "center": [_encode_num(x) for x in rs.center],
                "radius": _encode_num(rs.radius)}
    if isinstance(rs, HalfspacePoly):
        return {"type": "poly", "normals": _encode_array(rs.normals)}
    if isinstance(rs, Ellipsoid):
        return {"type": "ellipsoid",
                "center": [_encode_num(x) for x in rs.center],
                "radius": _encode_num(rs.radius),
                "axes": [_encode_num(x) for x in rs.axes]}
    raise ValueError(f"cannot serialize row set of type {type(rs).__name__}")


def _field(obj, key: str, where: str):
    """``obj[key]``, or a ValueError saying which object lacks it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return obj[key]


def _set_from_dict(obj: dict, d: int, index: int) -> RowSet:
    kind = _field(obj, "type", f"sets[{index}]")
    where = f"sets[{index}] ({kind})"

    def get(key):
        return _field(obj, key, where)

    if kind == "finite":
        return FiniteSet(_decode_array(get("rows")))
    if kind == "graph":
        return GraphDegreeSet(d, get("n"), str(obj.get("sense", "at_most")))
    if kind == "l1ball":
        return L1Ball(np.array([float(x) for x in get("center")]),
                      float(get("radius")))
    if kind == "poly":
        return HalfspacePoly(_decode_array(get("normals")))
    if kind == "ellipsoid":
        return Ellipsoid(np.array([float(x) for x in get("center")]),
                         float(get("radius")),
                         np.array([float(x) for x in get("axes")]))
    raise ValueError(f"sets[{index}]: unknown row set type {kind!r}")


def family_to_dict(family: ProductFamily) -> dict:
    return {"d": family.d, "sets": [_set_to_dict(rs) for rs in family.sets]}


def family_from_dict(obj: dict) -> ProductFamily:
    d = int(_field(obj, "d", "family file"))
    sets = _field(obj, "sets", "family file")
    if len(sets) != d:
        raise ValueError(f"family file declares d={d} but has {len(sets)} sets")
    return ProductFamily(tuple(_set_from_dict(s, d, i) for i, s in enumerate(sets)))


def save_family(family: ProductFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_dict(family), fh, indent=2)
        fh.write("\n")


def load_family(path) -> ProductFamily:
    with open(path, encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))


def matrix_to_dict(A) -> dict:
    A = np.asarray(A, dtype=float)
    return {"d": A.shape[0], "rows": _encode_array(A)}


def matrix_from_dict(obj: dict) -> np.ndarray:
    A = _decode_array(_field(obj, "rows", "matrix file"))
    d = int(obj.get("d", A.shape[0]))
    if A.shape != (d, d):
        raise ValueError(f"matrix file declares d={d} but rows have shape {A.shape}")
    return A


def save_matrix(A, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(A), fh, indent=2)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))


def write_trace_csv(trace, path) -> None:
    """One CSV row per outer iteration; changed rows are ';'-joined indices,
    then come the pass's eigen path (``TraceRow.eigen_path``), its time in
    the eigen stage and in the row oracle (``eigen_s``, ``oracle_s``), its
    power steps (``power_iters``) and its matrix squarings (``squarings``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "rho", "s_bound", "t_bound", "rows_changed", "time_s",
                    "eigen_path", "eigen_s", "oracle_s", "power_iters", "squarings"])
        for row in trace:
            w.writerow([
                row.iteration,
                repr(float(row.rho)),
                repr(float(row.s_bound)),
                repr(float(row.t_bound)),
                ";".join(str(i) for i in row.rows_changed),
                repr(float(row.time_s)),
                row.eigen_path,
                repr(float(row.eigen_s)),
                repr(float(row.oracle_s)),
                int(row.power_iters),
                int(row.squarings),
            ])
