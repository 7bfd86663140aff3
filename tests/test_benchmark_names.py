"""The names the benchmark's tracer (`perfbench/tracer.py`) wraps by name.

The tracer times the layers by replacing module attributes, so a refactor
that renames or unbinds one of these breaks the benchmark without breaking
any other test.
"""

import json

import pytest

from kdcover import cli, envelope, kinetic, minmax
from kdcover.exactarith import QuadraticNumber
from kdcover.instances import GenParams, generate
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import SolverConfig, solve_minmax

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


def test_verify_result_takes_doc_instance_samples_positionally():
    inst = generate(GenParams(n=8, m=2, seed=0))
    res = solve_minmax(inst, SolverConfig())
    doc = json.loads(cli.result_to_json("inst", "exact", ImprovementFlags(), {}, res))
    assert cli.verify_result(doc, inst, 50) == []
