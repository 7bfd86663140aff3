"""A fingerprint of the solver's results on the desk solves, to check that a
change leaves every result bit-identical: run it on two checkouts and
compare the digests.

The desk solves are 192: n=40, m=6 instances of the four classes, seeds
0-5; `exact` and `nn` with all flags, `exact` with none, and `fixed_nn`;
each in float and in exact arithmetic.  Prints the solve count, a sha256
prefix over each result's upper, lower and iterations and each segment's
(t_start, t_end, assignment, supports, poly) reprs, and the CPU seconds.

Usage: python scripts/desk_digest.py
"""

import hashlib
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kdcover.instances import CLASSES, GenParams, generate
from kdcover.kinetic import ImprovementFlags
from kdcover.minmax import SolverConfig, fixed_nn_baseline, solve_minmax

ALL_FLAGS = ImprovementFlags(no_dup=True, imp_ext=True, part_ext=True)
NO_FLAGS = ImprovementFlags()
RECIPES = (("exact", ALL_FLAGS), ("nn", ALL_FLAGS), ("exact", NO_FLAGS), ("fixed_nn", NO_FLAGS))

# (instance class, seed, algorithm, flags, exact arithmetic) of each solve
DESK_SOLVES = [(klass, seed, algorithm, flags, exact)
               for klass, seed, (algorithm, flags), exact
               in product(CLASSES, range(6), RECIPES, (False, True))]


def solve(klass, seed, algorithm, flags, exact):
    inst = generate(GenParams(n=40, m=6, seed=seed, instance_class=klass))
    if algorithm == "fixed_nn":  # takes no flags
        return fixed_nn_baseline(inst, exact_arithmetic=exact)
    config = SolverConfig(static_backend=algorithm, flags=flags, exact_arithmetic=exact)
    return solve_minmax(inst, config)


def digest(solves) -> str:
    """The first 16 hex digits of a sha256 over the solves' results."""
    h = hashlib.sha256()
    for case in solves:
        result = solve(*case)
        h.update(repr((result.upper, result.lower, result.iterations)).encode())
        for seg in result.timeline.segments:
            h.update(repr((seg.t_start, seg.t_end, seg.assignment, seg.supports,
                           seg.poly)).encode())
    return h.hexdigest()[:16]


def main() -> None:
    cpu = time.process_time()
    value = digest(DESK_SOLVES)
    print(f"solves: {len(DESK_SOLVES)}")
    print(f"digest: {value}")
    print(f"cpu_s: {time.process_time() - cpu:.2f}")


if __name__ == "__main__":
    main()
