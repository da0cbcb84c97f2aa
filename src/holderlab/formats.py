"""The one renderer of every CSV and JSON file the package writes.

Floats are rendered with ``%.17g``, which round-trips doubles exactly;
JSON objects are dumped with sorted keys, two-space indent and a
trailing newline.  Both writers create the parent directory on first
write, so a run that stops before writing leaves no directory behind.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_json"]


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _make_parent(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_csv(path, header, rows) -> Path:
    """Write a header row, then each row; float cells as ``%.17g``, others via str."""
    path = _make_parent(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                    for row in rows)
    return path


def write_json(path, payload) -> Path:
    """Write payload as sorted-key, two-space-indented JSON with a trailing newline."""
    path = _make_parent(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path
