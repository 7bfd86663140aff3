"""Instance generation and the instance file format.

`generate` draws every class: 'random', and the degenerate classes whose
objects share one slope, one start point or one end point.  All randomness
flows through `random.Random` (Mersenne Twister) seeded from GenParams, so
instances reproduce bit-for-bit across platforms.  Files are JSON with
coordinates serialized as decimal strings (repr of the float), so a
write/read round trip is lossless.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from random import Random

from .geometry import MovingInstance, Point2, Trajectory

__all__ = [
    "GenParams",
    "GenerationError",
    "FormatError",
    "generate",
    "read_instance",
    "write_instance",
    "instance_to_json",
    "instance_from_json",
]

INSTANCE_FORMAT = "kdc-instance"
INSTANCE_VERSION = 1
CLASSES = ("random", "same_slope", "same_start", "same_end")
# Width and height of the square every instance is drawn in.
CANVAS = (100.0, 100.0)
_RETRY_CAP = 10_000


class GenerationError(RuntimeError):
    """Resampling failed to place a trajectory inside the canvas."""


class FormatError(ValueError):
    """Instance file with an unknown schema or malformed fields."""


@dataclass(frozen=True)
class GenParams:
    n: int
    m: int
    seed: int = 0
    len_min: float = 25.0
    len_max: float = 50.0
    instance_class: str = "random"

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be nonnegative")
        diag = math.hypot(*CANVAS)
        if not (0 < self.len_min <= self.len_max <= diag):
            raise ValueError(
                f"need 0 < len_min <= len_max <= canvas diagonal, got "
                f"[{self.len_min}, {self.len_max}] on {CANVAS}"
            )
        if self.instance_class not in CLASSES:
            raise ValueError(f"unknown instance class {self.instance_class!r}")


def _inside(x: float, y: float) -> bool:
    return 0.0 <= x <= CANVAS[0] and 0.0 <= y <= CANVAS[1]


def _sample_trajectory(rng: Random, params: GenParams, direction=None, start=None, end=None):
    """One trajectory with the stated distributions, resampling whole draws
    until the free endpoint lands inside the canvas."""
    w, h = CANVAS
    for _ in range(_RETRY_CAP):
        length = rng.uniform(params.len_min, params.len_max)
        ang = direction if direction is not None else rng.uniform(0.0, 2.0 * math.pi)
        dx, dy = length * math.cos(ang), length * math.sin(ang)
        if end is not None:
            sx, sy = end[0] - dx, end[1] - dy
            if _inside(sx, sy):
                return Trajectory(Point2(sx, sy), Point2(end[0], end[1]))
            continue
        sx, sy = start if start is not None else (rng.uniform(0.0, w), rng.uniform(0.0, h))
        ex, ey = sx + dx, sy + dy
        if _inside(ex, ey):
            return Trajectory(Point2(sx, sy), Point2(ex, ey))
    raise GenerationError(
        f"could not place a trajectory after {_RETRY_CAP} draws (params {params})"
    )


def generate(params: GenParams) -> MovingInstance:
    """Stations uniform on the canvas, then the class's shared draw (a slope,
    a start point or an end point; nothing for 'random'), then the objects:
    starts uniform on the canvas, directions uniform on the circle, lengths
    uniform in [len_min, len_max], each resampled until it fits."""
    rng = Random(params.seed)
    w, h = CANVAS
    stations = tuple(Point2(rng.uniform(0.0, w), rng.uniform(0.0, h)) for _ in range(params.m))
    klass = params.instance_class
    shared = {}
    if klass == "same_slope":
        shared["direction"] = rng.uniform(0.0, 2.0 * math.pi)
    elif klass != "random":
        key = "start" if klass == "same_start" else "end"
        shared[key] = (rng.uniform(0.0, w), rng.uniform(0.0, h))
    objects = tuple(_sample_trajectory(rng, params, **shared) for _ in range(params.n))
    return MovingInstance(
        stations,
        objects,
        canvas=CANVAS,
        metadata={"class": klass, "seed": params.seed,
                  "n": params.n, "m": params.m,
                  "len_min": params.len_min, "len_max": params.len_max},
    )


def _num(value: float) -> str:
    return repr(float(value))


def instance_to_json(instance: MovingInstance) -> str:
    doc = {
        "format": INSTANCE_FORMAT,
        "version": INSTANCE_VERSION,
        "canvas": [_num(c) for c in instance.canvas] if instance.canvas else None,
        "stations": [[_num(s.x), _num(s.y)] for s in instance.stations],
        "objects": [
            {
                "start": [_num(o.start.x), _num(o.start.y)],
                "end": [_num(o.end.x), _num(o.end.y)],
            }
            for o in instance.objects
        ],
        "metadata": instance.metadata,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def parse_json(text: str):
    """The JSON document in `text`.  Raises FormatError when the text is not
    JSON or holds an integer longer than Python converts (4300 digits by
    default), which `json` reports as a plain ValueError."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None


def _number(value) -> float:
    """A coordinate or canvas entry: an ASCII JSON-number string, as
    `instance_to_json` writes it, or a JSON number, never a bool."""
    if type(value) not in (str, int, float) or type(value) is str and not re.fullmatch(
            r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?", value):
        raise FormatError(f"{value!r} is not a number")
    return float(value)


def _point(value) -> Point2:
    """A point: a list of exactly two numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise FormatError(f"point {value!r} is not a list of two numbers")
    return Point2(_number(value[0]), _number(value[1]))


def instance_from_json(text: str) -> MovingInstance:
    doc = parse_json(text)
    if not isinstance(doc, dict) or doc.get("format") != INSTANCE_FORMAT:
        raise FormatError("not a kdc-instance file")
    if doc.get("version") != INSTANCE_VERSION:
        raise FormatError(f"unsupported schema version {doc.get('version')!r}")
    canvas, metadata = doc.get("canvas"), doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError("metadata is not an object")
    if not (canvas is None or isinstance(canvas, list) and len(canvas) == 2):
        raise FormatError("canvas is neither null nor two numbers")
    try:
        canvas = None if canvas is None else tuple(map(_number, canvas))
        stations = tuple(map(_point, doc["stations"]))
        objects = tuple(Trajectory(_point(o["start"]), _point(o["end"])) for o in doc["objects"])
        instance = MovingInstance(stations, objects, canvas=canvas, metadata=metadata)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed instance fields: {exc}") from None
    _check_magnitude(instance)
    return instance


def _check_magnitude(instance: MovingInstance) -> None:
    """Raise FormatError when coordinates are so large that squared
    distances or their sums overflow a double (`Point2` already rejects
    coordinates that are not finite).

    With every coordinate in [-M, M], a coordinate difference is at most 2M
    in magnitude, so a squared-distance polynomial a*t**2 + b*t + c
    (`geometry.squared_distance_poly`) has 0 <= a, c <= 8 M**2 and
    |b| <= 16 M**2, and Horner's rule at t in [0, 1] keeps every term below
    32 M**2.  The solver adds up at most max(2m, 4) of them: an objective
    sums one support per station, the envelope and the min-max loop
    subtract one objective from another, and a handover difference adds
    four.  So every coefficient, term and value stays below
    32 max(2m, 4) M**2, and M <= sqrt(DBL_MAX / (128 max(m, 2))) leaves a
    factor of 2 for rounding.  That allows M up to about 2.4e152 at m = 25.
    """
    coords = [v for p in instance.stations for v in (p.x, p.y)]
    coords += [v for o in instance.objects for v in (o.start.x, o.start.y, o.end.x, o.end.y)]
    largest = max(map(abs, coords), default=0.0)
    limit = math.sqrt(sys.float_info.max / (128 * max(instance.m, 2)))
    if largest > limit:
        raise FormatError(f"coordinate magnitude {largest!r} is above {limit:.3g}, "
                          f"where squared distances overflow")


def write_instance(path, instance: MovingInstance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))


def read_instance(path) -> MovingInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
