"""
Serialization of results: JSON artifacts (schema SCHEMA), CSV tables, field dumps.

Matrices travel as flat row-major arrays next to their shape metadata; every
artifact embeds the resolved configuration and root seed that produced it so
a saved artifact can be re-run bit-for-bit.
"""

import csv
import json
from pathlib import Path

import numpy as np

SCHEMA = 1


def matrix_record(mat, n_dim, r=None, u=None):
    """Row-major JSON record of an L x L (or rectangular) matrix."""
    mat = np.asarray(mat, dtype=float)
    return {
        "schema": SCHEMA,
        "kind": "matrix",
        "N": int(n_dim),
        "L": int(mat.shape[0]),
        "r": None if r is None else float(r),
        "u": None if u is None else [float(x) for x in u],
        "shape": list(mat.shape),
        "data": mat.ravel(order="C").tolist(),
    }


def matrix_from_record(rec):
    return np.array(rec["data"], dtype=float).reshape(rec["shape"])


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True)
    return path


def _plain(obj):
    """``obj`` with NumPy values as Python ones and each NaN as None: ``json``
    writes a float NaN as the bare token ``NaN``, which is not JSON."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    return None if isinstance(obj, float) and obj != obj else obj


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def save_field(realization, base_path):
    """Flat float64 binary plus a JSON sidecar describing the grid."""
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    bin_path = base.with_suffix(".bin")
    realization.values.astype(np.float64).ravel(order="C").tofile(bin_path)
    sidecar = {
        "schema": SCHEMA,
        "kind": "field",
        "n": int(realization.n),
        "extent": float(realization.extent),
        "h": float(realization.spacing),
        "seed": int(realization.seed),
        "model": realization.model_name,
        "periodic": bool(realization.periodic),
        "dtype": "float64",
        "order": "C",
    }
    write_json(base.with_suffix(".json"), sidecar)
    return bin_path


def load_field(base_path):
    from .fieldsim import FieldRealization

    base = Path(base_path)
    with open(base.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    values = np.fromfile(base.with_suffix(".bin"), dtype=np.float64)
    n = sidecar["n"]
    return FieldRealization(
        values=values.reshape(n, n),
        spacing=sidecar["h"],
        extent=sidecar["extent"],
        seed=sidecar["seed"],
        model_name=sidecar["model"],
        periodic=sidecar.get("periodic", True),
    )
