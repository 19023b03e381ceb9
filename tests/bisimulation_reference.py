"""Round-based reference for ``reduction._bisimulation``.

Every round codes every active state as one row: its block, then the set
of its moves ``block[dst] * 2L + tail``, ``tail = mark * L + letter``,
ascending and padded with -1.  ``np.unique`` numbers the distinct rows, and
those are the blocks of the next round.  The rounds stop when no block
splits.  Their number is the depth of the longest distinguishing suffix,
and each round passes over every edge and state.
"""

import numpy as np


def bisimulation_by_rounds(n, E, active):
    """Block ids of the coarsest bisimulation that refines the ``active``
    states, every other state a block of its own."""
    L = max(len(E.letters), 1)
    tail = E.acc.astype(np.int64) * L + E.let
    block = np.where(active, 0, n + np.arange(n)).astype(np.int64)
    act = np.flatnonzero(active)
    n_blocks = 1 if len(act) else 0
    while len(act):
        codes = block[E.dst] * (2 * L) + tail
        order = np.lexsort((codes, E.src))
        src, codes = E.src[order], codes[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (codes[1:] != codes[:-1])
        src, codes = src[keep], codes[keep]
        at = np.arange(len(src)) - np.searchsorted(src, src)
        rows = np.full((n, 2 + (at.max() if len(at) else 0)), -1,
                       dtype=np.int64)
        rows[:, 0] = block
        rows[src, at + 1] = codes
        _, new = np.unique(rows[act], axis=0, return_inverse=True)
        if new.max() + 1 == n_blocks:
            break
        block[act] = new.reshape(-1)
        n_blocks = new.max() + 1
    return block


def lowest_members(block):
    """Per state, the lowest state of its block: equal for two labellings
    exactly when they put the same states together."""
    lowest = {}
    return np.array([lowest.setdefault(b, q)
                     for q, b in enumerate(np.asarray(block).tolist())])
