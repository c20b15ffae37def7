"""The paper's sufficient facet conditions for a hypograph cut.

A reference for the tests and the acceptance suite: the solver never reads
these conditions, so they live beside the tests that check cuts against them
(and against the affine rank of the tight points, ``conftest.tight_face_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from robustmax import SetFunction
from robustmax.core import TOL

from conftest import scaled_min


@dataclass(frozen=True)
class FacetDiagnostics:
    """Outcome of the sufficient facet conditions for one cut.

    ``witnesses[j]`` is the swap partner found outside the generating set for
    the in-set element j.
    """

    cond_i: bool
    cond_ii: bool
    witnesses: dict


def facet_check(fns: Sequence[SetFunction], alphas: Sequence[float],
                subset: Iterable[int], scenario_index: int) -> FacetDiagnostics:
    """Check the sufficient conditions for the cut of (subset, scenario) to be
    facet defining for the reduced hypograph formulation.

    Condition (i): every in-set element j has a witness k outside the set with
    zero pair marginal, and the cut's function attains the scaled minimum at
    the set itself and at the swapped set.  Condition (ii): the cut's index is
    the (smallest) scaled argmin at the set and its function attains the
    scaled minimum at every one-element extension.  When both hold, the
    standard n+1 tight affinely independent points exist.
    """
    if len(fns) != len(alphas):
        raise ValueError("need one alpha per set function")
    gen = frozenset(subset)
    n = fns[0].ground_size
    i = scenario_index
    fi, ai = fns[i], alphas[i]
    outside = [j for j in range(n) if j not in gen]
    # scaled values compare up to TOL times the largest one, at N
    slack = TOL * max(fn.value(range(n)) / a for fn, a in zip(fns, alphas))

    def attains(subset_) -> bool:
        return fi.value(subset_) / ai <= scaled_min(fns, alphas, subset_) + slack

    witnesses: dict = {}
    cond_i = attains(gen)
    for j in sorted(gen):
        found = None
        for k in outside:
            if fi.marginal(j, frozenset([k])) / ai > slack:
                continue
            swap = (gen - {j}) | {k}
            if attains(swap) and attains(gen | {k}):
                found = k
                break
        if found is None:
            cond_i = False
        else:
            witnesses[j] = found

    values_at_gen = [fn.value(gen) / a for fn, a in zip(fns, alphas)]
    argmin = min(range(len(fns)), key=lambda t: (values_at_gen[t], t))
    cond_ii = argmin == i
    if cond_ii:
        for j in outside:
            if not attains(gen | {j}):
                cond_ii = False
                break
    return FacetDiagnostics(cond_i=cond_i, cond_ii=cond_ii, witnesses=witnesses)
