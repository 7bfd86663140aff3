"""The names the benchmark's tracer (`perfbench/tracer.py`) wraps by name.

The tracer times the layers by replacing module attributes, so a refactor
that renames or unbinds one of these breaks the benchmark without breaking
any other test.
"""

import json
import sys
from collections import Counter

import pytest

from kdcover import certificate, cli, envelope, kinetic, minmax
from kdcover.exactarith import QuadraticNumber
from kdcover.instances import GenParams, generate
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import SolverConfig, solve_minmax
from kdcover.static_cover import BranchBoundBackend

TRACED = [
    (minmax, name) for name in (
        "extend", "iter_extend", "merge_lower_envelope", "merge_partial",
        "enumerate_candidates", "solve_exact", "nn_heuristic", "quadratic_roots",
        "compare_event_times",
    )
] + [
    (module, name) for module in (kinetic, envelope)
    for name in ("quadratic_roots", "compare_event_times")
] + [(kinetic, "dedup_improve"), (QuadraticNumber, "compare")]


@pytest.mark.parametrize("owner, name", TRACED,
                         ids=[f"{owner.__name__}.{name}" for owner, name in TRACED])
def test_traced_name_is_bound_and_callable(owner, name):
    assert callable(getattr(owner, name, None))


def test_every_traced_minmax_name_is_looked_up_when_called(monkeypatch):
    """The tracer binds its wrappers over these `minmax` globals after the
    module is imported, so both solvers must look each one up when they run
    it: a name bound earlier, as a default argument is, escapes the
    wrapper and its counts."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("enumerate_candidates", "solve_exact", "nn_heuristic", "extend", "iter_extend",
             "merge_partial", "merge_lower_envelope")
    for name in names:
        monkeypatch.setattr(minmax, name, counted(name, getattr(minmax, name)))
    # Seed 2 improves once, so the exact run merges a cut extension.
    inst = generate(GenParams(n=30, m=4, seed=2))
    flags = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
    solve_minmax(inst, SolverConfig(flags=flags))
    solve_minmax(inst, SolverConfig(static_backend="nn", flags=flags))
    minmax.fixed_nn_baseline(inst)
    assert {name: calls[name] for name in names if not calls[name]} == {}


def test_event_roots_go_through_the_kinetic_module_global(monkeypatch):
    """`geometry.roots_calls` counts through the `quadratic_roots` bound in
    `kinetic`, so support changes and handovers must both look it up there."""
    callers = Counter()
    roots = kinetic.quadratic_roots

    def counted(*args):
        callers[sys._getframe(2).f_code.co_name] += 1
        return roots(*args)

    monkeypatch.setattr(kinetic, "quadratic_roots", counted)
    inst = generate(GenParams(n=30, m=4, seed=0))
    flags = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
    assignment = minmax.nn_heuristic(inst, 0.0).assignment
    kinetic.extend(assignment, 0.0, "forward", 1.0, flags, inst)
    assert callers["support_change_after"] > 0
    assert callers["handover_after"] > 0


def test_verify_result_takes_doc_instance_samples_positionally():
    """The benchmark calls verify_result(doc, instance, samples).  The
    feasibility check is analytic and takes no sample count, so the third
    argument is ignored, but it must still be accepted."""
    inst = generate(GenParams(n=8, m=2, seed=0))
    res = solve_minmax(inst, SolverConfig())
    doc = json.loads(cli.result_to_json("inst", "exact", ImprovementFlags(), {}, res))
    assert cli.verify_result(doc, inst, 50) == []


def test_cli_binds_the_certificate_writer_and_checker():
    """The benchmark reaches the writer and checker through `cli`; they are
    the `certificate` functions, not second copies."""
    assert cli.result_to_json is certificate.result_to_json
    assert cli.verify_result is certificate.verify_result


# Candidate disks at the given time, one per station and distinct
# distance: every pair on a random instance, one per station where all
# objects start at one point.
PINNED_CANDIDATES = [("random", 0.5, 240), ("same_start", 0.0, 6)]


@pytest.mark.parametrize("klass, t, count", PINNED_CANDIDATES)
def test_len_of_the_candidates_counts_the_candidate_disks(klass, t, count):
    """The tracer counts candidates with `len` of what `enumerate_candidates`
    returns."""
    inst = generate(GenParams(n=40, m=6, seed=0, instance_class=klass))
    cands = minmax.enumerate_candidates(inst, t)
    assert len(cands) == sum(len(v) for v in cands.values) == count


class DelegatingBackend:
    """A plain object with only a `solve` that delegates, as the tracer's
    backend wrapper is."""

    def __init__(self, inner):
        self.solve = inner.solve


def test_a_delegating_backend_object_solves_as_the_default():
    inst = generate(GenParams(n=30, m=4, seed=1))
    ref = solve_minmax(inst, SolverConfig())
    got = solve_minmax(inst, SolverConfig(backend=DelegatingBackend(BranchBoundBackend())))
    assert (got.upper, got.lower, got.iterations) == (ref.upper, ref.lower, ref.iterations)
    assert got.timeline == ref.timeline
