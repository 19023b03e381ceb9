"""Cold-start reference for ``mdp._policy_iteration``: exact policy
iteration from the reward-greedy policy, with no value-iteration sweeps
before it.  The warm-started solver must return the same picks and the same
values (``test_mdp.py``)."""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from omegadp.mdp import MdpArrays


def policy_iteration(A: MdpArrays, lam):
    """Optimal discounted values, and per state the first row within 1e-12
    of the optimal one-step value."""
    if not (0 <= lam < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    eye = sparse.identity(A.n_states, format="csr")
    pick = A.first_best(A.R)
    while True:
        v = spsolve((eye - lam * A.P[pick]).tocsc(), A.R[pick])
        q = A.R + lam * (A.P @ v)
        best = A.state_max(q)
        better = best > q[pick] + 1e-12 * max(1.0, np.max(np.abs(best)))
        if not better.any():
            return v, A.first_best(q)
        pick = np.where(better, A.first_best(q), pick)
