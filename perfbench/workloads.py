"""Workload definitions: which instances are generated and how each is solved.

A workload is a fixed list of generated instances times a fixed list of
solve recipes.  The instance seeds are the named ones (full-size `fix`
seeds 0..2 and 0..4, desk-size seeds 0..2 of every class), so the known
heavy tail of `fix` seed 1 is always in `exact_full`.

The benchmark's `--seed` picks one of the eight symmetries of the square
(swap the axes, negate x, negate y) and applies it to every instance.
These maps are exact in binary floating point and in rationals, so every
squared distance, and with it every step of the solver, is the same as
for the untransformed instance: the seed changes the input files, never
the work, and the seed-to-seed spread of a metric is run-to-run noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

ALL_FLAGS = "nodup+impext+partext"
NO_FLAGS = "none"


@dataclass(frozen=True)
class Recipe:
    """How one instance is solved.

    `role` is "measured" for solves that count in the timing metrics and
    "reference" for the float twin of an exact-arithmetic solve, which is
    only used by the cross-check.
    """

    algorithm: str  # exact | nn | fixed_nn
    flags: str
    arith: str  # float | exact
    time_limit: float = 600.0
    role: str = "measured"


@dataclass(frozen=True)
class InstanceSpec:
    n: int
    m: int
    instance_class: str
    seed: int

    @property
    def name(self) -> str:
        return f"{self.instance_class}_n{self.n}_m{self.m}_s{self.seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[InstanceSpec, ...]
    recipes: tuple[Recipe, ...]
    min_passes: int = 1  # passes a run makes even when --seconds is shorter
    check_repeats: int = 1  # back-to-back timed checks per result and pass

    def solves(self):
        """(instance index, recipe) pairs in run order."""
        return [(i, r) for i in range(len(self.instances)) for r in self.recipes]


CLASSES = ("random", "same_slope", "same_start", "same_end")


def workload(name: str, toy: bool = False) -> Workload:
    """The named workload; `toy` shrinks every instance for the self-test."""
    if name == "exact_full":
        n, m = (30, 4) if toy else (500, 25)
        return Workload(
            name,
            "full-size fix instances solved exactly; the stationary branch and "
            "bound dominates and seed 1 is the capped heavy tail",
            tuple(InstanceSpec(n, m, "random", s) for s in range(3)),
            (Recipe("exact", ALL_FLAGS, "float", time_limit=30.0),),
            check_repeats=3,
        )
    if name == "heuristic_full":
        n, m = (30, 4) if toy else (500, 25)
        return Workload(
            name,
            "full-size fix instances solved by nn with all flags and by fixed_nn; "
            "the branch and bound is bypassed and kinetic extension dominates",
            tuple(InstanceSpec(n, m, "random", s) for s in range(2 if toy else 3)),
            (Recipe("nn", ALL_FLAGS, "float"), Recipe("fixed_nn", NO_FLAGS, "float")),
            min_passes=2,
        )
    if name == "exact_arith":
        n, m = (10, 3) if toy else (40, 6)
        return Workload(
            name,
            "all four instance classes solved in exact arithmetic, with a float "
            "solve of each as the cross-check reference",
            tuple(
                InstanceSpec(n, m, cls, s)
                for cls in CLASSES
                for s in range(1 if toy else 2)
            ),
            (
                Recipe("exact", ALL_FLAGS, "exact", time_limit=60.0),
                Recipe("exact", ALL_FLAGS, "float", time_limit=60.0, role="reference"),
            ),
            min_passes=2,
            check_repeats=5,
        )
    raise KeyError(name)


WORKLOAD_NAMES = ("exact_full", "heuristic_full", "exact_arith")


def symmetry(api, instance, element: int):
    """Image of the instance under symmetry `element` (0..7) of the square:
    bit 2 swaps the axes, bit 0 negates x, bit 1 negates y."""
    geo = api.geometry
    swap, sx, sy = element & 4, -1 if element & 1 else 1, -1 if element & 2 else 1

    def image(p):
        x, y = (p.y, p.x) if swap else (p.x, p.y)
        return geo.Point2(sx * x, sy * y)

    canvas = instance.canvas
    if swap and canvas is not None:
        canvas = (canvas[1], canvas[0])
    return geo.MovingInstance(
        tuple(image(s) for s in instance.stations),
        tuple(geo.Trajectory(image(o.start), image(o.end)) for o in instance.objects),
        canvas,
        dict(instance.metadata, symmetry=element),
    )


def make_inputs(api, wl: Workload, seed: int):
    """Generate, transform and JSON round-trip every instance of the workload.

    Returns (ids, instances, generate_s, roundtrip_s); the solver only ever
    sees the instances parsed back from their instance files.
    """
    element = seed % 8
    ids, out = [], []
    gen_s = rt_s = 0.0
    for spec in wl.instances:
        t0 = time.perf_counter()
        inst = api.instances.generate(
            api.instances.GenParams(
                n=spec.n, m=spec.m, seed=spec.seed, instance_class=spec.instance_class
            )
        )
        inst = symmetry(api, inst, element)
        ident = f"{spec.name}_g{element}"
        inst.metadata["id"] = ident
        t1 = time.perf_counter()
        inst = api.instances.instance_from_json(api.instances.instance_to_json(inst))
        t2 = time.perf_counter()
        gen_s += t1 - t0
        rt_s += t2 - t1
        ids.append(ident)
        out.append(inst)
    return ids, out, gen_s, rt_s
