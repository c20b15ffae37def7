"""Independent reference for water instances: the exact assignment MILP.

For scenario i, source s and node v, y[i, s, v] says that the event from s
in scenario i is credited to a sensor at v; it needs x[v], and each event
is credited at most once.  So

    maximize   eta
    subject to y[i, s, v] <= x[v]                                for all i, s, v
               sum_v y[i, s, v] <= 1                              for all i, s
               eta <= sum_{s, v} p_s saved_i[v, s] y[i, s, v] / alpha_i   for all i
               costs . x <= budget,  x binary,  0 <= y <= 1

Given a binary x, each (i, s) block of y is best put on a chosen node with
the largest saving, so the y part is an assignment LP with integral optima
and eta is the worst scaled expected saving: the robust optimum.  The
value returned is computed at the MILP's x, rounded, so that HiGHS's
feasibility tolerances do not enter it.  The model shares no code with the
solver beyond the instance's ``saved`` arrays.  It is solved by
``scipy.optimize.milp`` (HiGHS), imported inside the call, so scipy stays a
test-only instrument.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from robustmax.water import Instance, reduction_matrix


def reference_eta(instance: Instance, alphas: Sequence[float]) -> float:
    """The robust optimum of ``instance`` with scenario i scaled by ``alphas[i]``."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix, hstack, vstack

    net = instance.network
    n, k, m = net.node_count, len(net.sources), len(instance.scenarios)
    probs = np.asarray(net.source_probabilities, dtype=float)
    saved = reduction_matrix(net, instance.scenarios)  # (m, n, k)
    y_count = m * k * n  # y[i, s, v] is column i * k * n + s * n + v
    cols = n + y_count + 1  # x, then y, then eta

    # y[i, s, v] - x[v] <= 0
    rows = np.arange(y_count)
    link = hstack([coo_matrix((-np.ones(y_count), (rows, rows % n)), shape=(y_count, n)),
                   coo_matrix((np.ones(y_count), (rows, rows)), shape=(y_count, y_count)),
                   coo_matrix((y_count, 1))])
    # sum_v y[i, s, v] <= 1
    once = hstack([coo_matrix((m * k, n)),
                   coo_matrix((np.ones(y_count), (rows // n, rows)), shape=(m * k, y_count)),
                   coo_matrix((m * k, 1))])
    # eta - sum_{s, v} p_s saved_i[v, s] y[i, s, v] / alpha_i <= 0
    weight = (saved.transpose(0, 2, 1) * probs[None, :, None]
              / np.asarray(alphas, dtype=float)[:, None, None]).ravel()
    worst = hstack([coo_matrix((m, n)),
                    coo_matrix((-weight, (rows // (k * n), rows)), shape=(m, y_count)),
                    coo_matrix(np.ones((m, 1)))])
    knapsack = coo_matrix(np.concatenate([net.sensor_costs, np.zeros(y_count + 1)])[None])
    constraints = LinearConstraint(vstack([link, once, worst, knapsack]).tocsr(), -np.inf,
                                   np.concatenate([np.zeros(y_count), np.ones(m * k),
                                                   np.zeros(m), [net.budget]]))
    objective = np.zeros(cols)
    objective[-1] = -1.0
    integrality = np.zeros(cols)
    integrality[:n] = 1
    upper = np.concatenate([np.ones(n + y_count), [np.inf]])
    result = milp(objective, constraints=constraints, integrality=integrality,
                  bounds=Bounds(np.zeros(cols), upper),
                  options={"mip_rel_gap": 0.0})
    if not result.success:
        raise RuntimeError(f"reference MILP failed: {result.message}")
    # the value at the rounded x, free of the MILP's feasibility tolerances
    chosen = result.x[:n] > 0.5
    assert np.asarray(net.sensor_costs) @ chosen <= net.budget
    if not chosen.any():
        return 0.0
    return float(min(probs @ saved[i][chosen].max(axis=0) / alphas[i] for i in range(m)))
