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
from dataclasses import dataclass
from random import Random

from .geometry import MovingInstance, Point2, Trajectory

__all__ = [
    "GenParams",
    "GenerationError",
    "FormatError",
    "gen_random",
    "gen_degenerate",
    "generate",
    "read_instance",
    "write_instance",
    "instance_to_json",
    "instance_from_json",
]

INSTANCE_FORMAT = "kdc-instance"
INSTANCE_VERSION = 1
CLASSES = ("random", "same_slope", "same_start", "same_end")
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
    canvas: tuple[float, float] = (100.0, 100.0)
    len_min: float = 25.0
    len_max: float = 50.0
    instance_class: str = "random"

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be nonnegative")
        diag = math.hypot(*self.canvas)
        if not (0 < self.len_min <= self.len_max <= diag):
            raise ValueError(
                f"need 0 < len_min <= len_max <= canvas diagonal, got "
                f"[{self.len_min}, {self.len_max}] on {self.canvas}"
            )
        if self.instance_class not in CLASSES:
            raise ValueError(f"unknown instance class {self.instance_class!r}")


def _inside(x: float, y: float, canvas) -> bool:
    return 0.0 <= x <= canvas[0] and 0.0 <= y <= canvas[1]


def _sample_trajectory(rng: Random, params: GenParams, direction=None, start=None, end=None):
    """One trajectory with the stated distributions, resampling whole draws
    until the free endpoint lands inside the canvas."""
    w, h = params.canvas
    for _ in range(_RETRY_CAP):
        length = rng.uniform(params.len_min, params.len_max)
        ang = direction if direction is not None else rng.uniform(0.0, 2.0 * math.pi)
        dx, dy = length * math.cos(ang), length * math.sin(ang)
        if end is not None:
            sx, sy = end[0] - dx, end[1] - dy
            if _inside(sx, sy, params.canvas):
                return Trajectory(Point2(sx, sy), Point2(end[0], end[1]))
            continue
        sx, sy = start if start is not None else (rng.uniform(0.0, w), rng.uniform(0.0, h))
        ex, ey = sx + dx, sy + dy
        if _inside(ex, ey, params.canvas):
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
    w, h = params.canvas
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
        canvas=params.canvas,
        metadata={"class": klass, "seed": params.seed,
                  "n": params.n, "m": params.m,
                  "len_min": params.len_min, "len_max": params.len_max},
    )


def gen_random(params: GenParams) -> MovingInstance:
    """`generate` for the 'random' class."""
    if params.instance_class != "random":
        raise ValueError("gen_random requires instance_class 'random'")
    return generate(params)


def gen_degenerate(params: GenParams) -> MovingInstance:
    """`generate` for the structured classes: one shared slope, one shared
    start point, or one shared end point per instance."""
    if params.instance_class == "random":
        raise ValueError("gen_degenerate requires a degenerate instance_class")
    return generate(params)


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


def instance_from_json(text: str) -> MovingInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != INSTANCE_FORMAT:
        raise FormatError("not a kdc-instance file")
    if doc.get("version") != INSTANCE_VERSION:
        raise FormatError(f"unsupported schema version {doc.get('version')!r}")
    try:
        canvas = tuple(float(c) for c in doc["canvas"]) if doc.get("canvas") else None
        stations = tuple(Point2(float(x), float(y)) for x, y in doc["stations"])
        objects = tuple(
            Trajectory(
                Point2(float(o["start"][0]), float(o["start"][1])),
                Point2(float(o["end"][0]), float(o["end"][1])),
            )
            for o in doc["objects"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed instance fields: {exc}") from None
    return MovingInstance(stations, objects, canvas=canvas, metadata=doc.get("metadata", {}))


def write_instance(path, instance: MovingInstance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))


def read_instance(path) -> MovingInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
