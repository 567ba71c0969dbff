"""Cloud file parsing and serialization.

The JSON form is {"dim": d, "points": [[...], ...], "label": optional}.
Coordinates may be [numerator, denominator] pairs, decimal or fraction
strings, or integers, all of which parse exactly to rationals; plain JSON
floats are accepted but force float mode for the whole cloud.  Rational
coordinates round-trip losslessly as [numerator, denominator] pairs.

The alternative XYZ form is plain text, one point per line with
whitespace-separated coordinates; numeric tokens parse exactly when they are
decimal or fraction literals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .geometry import PointCloud, is_exact


def _parse_coord(value):
    if isinstance(value, bool):
        raise ValueError("booleans are not coordinates")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"coordinate {value!r} is not finite")
        return value
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, (list, tuple)) and len(value) == 2 \
                and all(isinstance(v, int) for v in value):
            return Fraction(value[0], value[1])
    except ZeroDivisionError:
        raise ValueError(f"coordinate {value!r} has a zero denominator") from None
    raise ValueError(f"cannot parse coordinate {value!r}")


def parse_cloud_text(text: str, label: str | None = None) -> PointCloud:
    """Parse either the JSON document form or whitespace XYZ text."""
    stripped = text.strip()
    if stripped.startswith("{"):
        doc = json.loads(stripped)
        if not isinstance(doc, dict) or "points" not in doc:
            raise ValueError("cloud JSON must be an object with a 'points' array")
        raw_points = doc["points"]
        dim = doc.get("dim")
        label = doc.get("label", label)
    else:
        raw_points = [line.split() for line in stripped.splitlines() if line.strip()]
        dim = None
    if not isinstance(raw_points, list) or not all(isinstance(r, list) for r in raw_points):
        raise ValueError("cloud 'points' must be a list of coordinate lists")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int)):
        raise ValueError(f"cloud 'dim' must be an integer, not {dim!r}")
    if not raw_points:
        raise ValueError("cloud file contains no points")
    points = [tuple(_parse_coord(c) for c in row) for row in raw_points]
    if dim is None:
        dim = len(points[0])
    if any(not is_exact(c) for p in points for c in p):
        try:
            points = [tuple(float(c) for c in p) for p in points]
        except OverflowError:
            raise ValueError("a float cloud has an exact coordinate past the float range") \
                from None
    return PointCloud(dim=dim, points=tuple(points), label=label)


def load_cloud(path: str | Path) -> PointCloud:
    p = Path(path)
    return parse_cloud_text(p.read_text(encoding="utf-8"), label=p.stem)


def cloud_to_json(cloud: PointCloud) -> dict:
    points = []
    for p in cloud.points:
        row = []
        for c in p:
            if is_exact(c):
                f = Fraction(c)
                row.append([f.numerator, f.denominator])
            else:
                row.append(float(c))
        points.append(row)
    doc = {"dim": cloud.dim, "points": points}
    if cloud.label is not None:
        doc["label"] = cloud.label
    return doc


def save_cloud(cloud: PointCloud, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cloud_to_json(cloud), sort_keys=True, indent=2)
                          + "\n", encoding="utf-8")
