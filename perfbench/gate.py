"""Correctness gate: every solve's result is checked before it is counted.

A solve fails when its result does not pass `verify_result` after the
JSON round trip, when `lower > upper`, when an exact solve that stopped
on the gap reports a gap above the target, or when the certified
intervals of the exact-arithmetic and float solves of one instance do not
overlap.
"""

from __future__ import annotations

# Relative slack for the float/exact interval overlap: the two runs round
# differently in the last bits, and the package's float tolerance is 1e-9.
OVERLAP_REL_TOL = 1e-9


def result_problems(doc: dict, algorithm: str, target_gap: float) -> list[str]:
    """Gate checks on one round-tripped result document beyond verify_result."""
    problems = []
    lower, upper = doc["lower"], doc["upper"]
    if not lower <= upper:
        problems.append(f"lower {lower!r} > upper {upper!r}")
    if algorithm == "exact" and doc["stats"]["stop_reason"] == "gap":
        gap = doc["gap"]
        if gap is None or gap > target_gap:
            problems.append(f"stopped on gap but gap {gap!r} > target {target_gap!r}")
    return problems


def overlap_problems(exact_doc: dict, float_doc: dict) -> list[str]:
    """The certified [lower, upper] of both arithmetic modes must overlap."""
    lo = max(exact_doc["lower"], float_doc["lower"])
    hi = min(exact_doc["upper"], float_doc["upper"])
    if lo > hi * (1.0 + OVERLAP_REL_TOL):
        return [
            f"exact [{exact_doc['lower']!r}, {exact_doc['upper']!r}] and float "
            f"[{float_doc['lower']!r}, {float_doc['upper']!r}] do not overlap"
        ]
    return []


def apply_cross_checks(records: list) -> None:
    """Add overlap problems to each exact-arithmetic record whose float twin
    (same instance, same algorithm and flags) disagrees."""
    floats = {
        (r.instance, r.recipe.algorithm, r.recipe.flags): r
        for r in records
        if r.recipe.arith == "float" and r.doc is not None
    }
    for r in records:
        if r.recipe.arith != "exact" or r.doc is None:
            continue
        twin = floats.get((r.instance, r.recipe.algorithm, r.recipe.flags))
        if twin is None:
            r.problems.append("no float twin to cross-check against")
            continue
        r.problems.extend(overlap_problems(r.doc, twin.doc))
