"""Tabular lexicographic Q-learning on automaton-product MDPs.

Three action-value tables are trained from simulated episodes.  The
satisfaction table rewards accepting transitions with 1 - zeta and discounts
only there, so its fixed point estimates the probability of seeing accepting
transitions forever rather than a time-discounted proxy that would trade
probability for speed.  The reward table learns the environment's discounted
return, bootstrapped through the lexicographically greedy action.  A
recurrence table (zeta-discounted proximity of the next accepting
transition) breaks ties in the satisfaction phase, so the final policy keeps
making progress toward accepting transitions instead of stalling on a
value-equivalent loop.

The tables are lists over the rows of the product's ``MdpArrays``
(``P.arrays``), the form the exact solver reads, and one greedy rule picks
from them both while training and for the returned strategy.  Learning
names rows by their index alone: it tests ``STUCK`` by the rows' mask and
reads successors and rewards from the arrays of the rows' stored
transitions, so it builds no dict form of the product and no action.  The
returned strategy holds the rows it picks.  It is switching: follow the
reward-greedy policy for a computed horizon, then the satisfaction-greedy
policy forever, mirroring the structure of the exact solver.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .automata import check_time
from .mdp import Mdp, Strategy, switch_horizon

_ARROW = {"N": "^", "S": "v", "E": ">", "W": "<"}


class LexQTables:
    """Learned action values, one entry per row of ``P.arrays``.

    Row ``k`` is an action of state ``arrays.state[k]``; ``sat``, ``rec``
    and ``disc`` hold its satisfaction, recurrence and reward values and
    ``updates`` the number of updates it has had.  A row never updated
    keeps its initial value: ``sat_init`` in ``sat``, 0 in the others.
    """

    def __init__(self, P: Mdp, sat_init=0.0):
        self.arrays = P.arrays
        n = self.arrays.state.size
        self.sat = [sat_init] * n
        self.rec = [0.0] * n
        self.disc = [0.0] * n
        self.updates = [0] * n

    @property
    def visits(self):
        """(state, action) -> update count of every updated row, in row
        order."""
        A, rows = self.arrays, np.flatnonzero(self.updates)
        return {(s, a): self.updates[k] for k, s, a in zip(
            rows.tolist(), A.state[rows].tolist(), A.names(rows))}


def lex_q_learn(P: Mdp, episodes, steps=1000, lam=0.99, zeta=0.99,
                tau_lex=0.01, eps=0.01, explore=(1.0, 0.05), alpha_power=0.7,
                alpha_floor=0.2, optimism=0.0, seed=0, value_cap=None,
                tables=None):
    """Train lexicographic Q-tables by episodic simulation of the product.

    Episodes restart at the product's initial state and run for ``steps``
    steps or until they enter a state whose only action is the rejecting
    self-loop ``STUCK``; such a state is bootstrapped with 0 and never
    updated.  The behavior policy alternates by episode between the
    satisfaction-greedy and the lexicographically greedy choice, so both
    the accepting tour and the reward-chasing route get followed and
    corrected on-policy; whenever the greedy action has no learned route to
    an accepting transition (recurrence value zero) the agent wanders
    randomly instead of stalling, which grows the known tour outward from
    every accepting transition it stumbles on.  ``explore`` is the epsilon
    of the epsilon-greedy wrapper, either a constant or a (start, end) pair
    interpolated linearly over the episodes.  Learning rates adapt per
    row: while a row has only ever produced one successor it is treated as
    deterministic and updated with rate 1 (asynchronous value iteration);
    once a second successor shows up the satisfaction and recurrence tables
    fall back to a decaying rate (robust to stochastic outcomes such as the
    zapper) and the reward table keeps at least ``alpha_floor`` so large
    discounted values still relax.  Untried actions carry a satisfaction
    value of ``optimism``; the pessimistic default is important because the
    satisfaction update passes values through non-accepting transitions
    unchanged, so an optimistic init would survive forever on any
    non-accepting loop (a crash sink would keep looking safe no matter how
    often it is observed); for the same reason a ``STUCK`` state bootstraps
    0 whatever ``optimism`` is.

    The tables are rows of ``P.arrays``, updated in place.  Passing a
    previous run's ``tables`` continues training from them, which allows
    staged schedules (broad exploration first, polish after); they must
    come from the same product, and tables with another row count raise
    ValueError.  The tables keep every update made, also when training
    stops with an error.  Returns (tables, strategy) where the strategy
    switches from reward-greedy to satisfaction-greedy after
    switch_horizon(lam, eps, r_max) steps.

    Raises RuntimeError when any table value escapes ``value_cap`` (by
    default a bound no legitimate fixed point can exceed), with the episode,
    step, and table values in the message.
    """
    if not (0 <= lam < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    if not (0 < zeta < 1):
        raise ValueError("satisfaction discount must lie in (0, 1)")
    if tau_lex < 0 or eps <= 0 or episodes < 1 or steps < 1:
        raise ValueError("bad hyperparameters")
    if isinstance(explore, (int, float)):
        explore = (float(explore), float(explore))
    if value_cap is None:
        value_cap = 2.0 + P.r_max / (1 - lam)
    A = P.arrays
    n_rows = A.state.size
    if tables is None:
        tables = LexQTables(P, sat_init=optimism)
    elif len(tables.sat) != n_rows:
        raise ValueError(f"the tables have {len(tables.sat)} rows, the "
                         f"product {n_rows}")
    sat, rec, disc, updates = tables.sat, tables.rec, tables.disc, \
        tables.updates
    # the arrays are read in place: an item of a memoryview is a Python
    # number, so no list of the rows or of the stored transitions is made
    first, stuck, acc, ptr, target, prob, pay = map(memoryview, (
        A.first, A.stuck, A.acc, A.P.indptr, A.P.indices, A.P.data,
        A.reward))
    rng = random.Random(seed)
    rand, randrange = rng.random, rng.randrange
    first_succ = [None] * n_rows
    stochastic = [False] * n_rows

    def greedy_at(s):
        """The greedy rule at ``s``: (the best q_sat, the sat-greedy row,
        its q_rec, the lex-greedy row, its q_disc).  Both picks keep the
        rows within tau_lex of the best q_sat; among them the sat-greedy
        row has the highest q_rec and the lex-greedy row the highest
        q_disc, the first in row order on ties.  The filter keeps an action
        whose value still carries optimistic initialization from crowding
        out a well-explored one that makes progress."""
        lo, hi = first[s], first[s + 1]
        if hi - lo == 1:
            return sat[lo], lo, rec[lo], lo, disc[lo]
        top = max(sat[lo:hi])
        floor = top - tau_lex
        best_r = best_d = None
        pick_r = pick_d = lo
        for k in range(lo, hi):
            if sat[k] < floor:
                continue
            v = rec[k]
            if best_r is None or v > best_r + 1e-12:
                best_r, pick_r = v, k
            v = disc[k]
            if best_d is None or v > best_d + 1e-12:
                best_d, pick_d = v, k
        return top, pick_r, best_r, pick_d, best_d

    for ep in range(episodes):
        check_time("Q-learning")
        frac = ep / (episodes - 1) if episodes > 1 else 1.0
        eps_explore = explore[0] + (explore[1] - explore[0]) * frac
        sat_phase = ep % 2 == 0
        s = P.initial
        # the greedy picks at s, valid while no update has touched s
        here = None
        for step in range(steps):
            lo = first[s]
            if stuck[lo]:
                break
            k = -1
            if rand() >= eps_explore:
                if here is None:
                    here = greedy_at(s)
                if sat_phase:
                    k, v = here[1], here[2]
                else:
                    k = here[3]
                    v = rec[k]
                if v <= 0.0:
                    # no known route to an accepting transition from here,
                    # so greedy would stall; wander until one is found
                    k = -1
            if k < 0:
                k = lo + randrange(first[s + 1] - lo)
            # the successor by the row's stored transitions, in order
            u = rand()
            for j in range(ptr[k], ptr[k + 1]):
                u -= prob[j]
                if u <= 0:
                    break
            t, r = target[j], pay[j]
            n = updates[k] = updates[k] + 1
            prior = first_succ[k]
            if prior is None:
                first_succ[k] = t
            elif prior != t:
                stochastic[k] = True
            if stochastic[k]:
                alpha = n ** -alpha_power
                alpha_d = max(alpha, alpha_floor)
            else:
                alpha = alpha_d = 1.0
            if not stuck[first[t]]:
                there = greedy_at(t)
                boot_sat, boot_rec, boot_disc = there[0], there[2], there[4]
            else:
                there = None
                boot_sat = boot_rec = boot_disc = 0.0
            if acc[k]:
                tgt_sat = (1 - zeta) + zeta * boot_sat
                tgt_rec = 1.0
            else:
                tgt_sat = boot_sat
                tgt_rec = zeta * boot_rec
            tgt_disc = r + lam * boot_disc
            old = sat[k]
            vs = sat[k] = old + alpha * (tgt_sat - old)
            old = rec[k]
            vr = rec[k] = old + alpha * (tgt_rec - old)
            old = disc[k]
            vd = disc[k] = old + alpha_d * (tgt_disc - old)
            if not (abs(vs) <= value_cap and abs(vr) <= value_cap
                    and abs(vd) <= value_cap) or not (
                    math.isfinite(vs) and math.isfinite(vr)
                    and math.isfinite(vd)):
                raise RuntimeError(
                    f"q-learning diverged at episode {ep}, step {step}, "
                    f"state {s}, action {A.names([k])[0]!r}: q_sat={vs}, "
                    f"q_rec={vr}, q_disc={vd} exceed cap {value_cap}")
            # the update changed s's rows, so picks made at t before it
            # are stale only on a self-loop
            here = there if t != s else None
            s = t
    _, k_sat, _, k_lex, _ = zip(*map(greedy_at, range(P.n_states)))
    strategy = Strategy(
        "switching",
        first=Strategy("positional", rows=np.array(k_lex), arrays=A),
        second=Strategy("finite-memory", rows=np.array(k_sat), arrays=A),
        switch_step=switch_horizon(lam, eps, P.r_max))
    return tables, strategy


def policy_arrows(P: Mdp, strategy, cell_of):
    """Group the rows a strategy plays on ``P`` into per-mode arrow grids.

    ``strategy`` plays rows of ``P.arrays`` at its states (a positional or
    finite-memory one), ``cell_of`` maps a product state to a grid cell (or
    None to skip it), and the automaton component of the state becomes the
    memory-mode label.  ``STUCK`` moves nowhere on the grid and draws no
    arrow.  Only the rows drawn are named.
    """
    A, rows = P.arrays, strategy.rows
    drawn = [x for x in np.flatnonzero(rows >= 0).tolist()
             if not A.stuck[rows[x]] and cell_of(x) is not None]
    arrows = {}
    for x, (act, _) in zip(drawn, A.names(rows[drawn])):
        arrows.setdefault(P.pairs[x][1], {})[cell_of(x)] = act[1]
    return arrows


def render_policy(grid, arrows):
    """ASCII rendering of a grid policy, one map per memory mode.

    ``arrows`` maps a memory-mode label to a cell -> direction dict; an
    empty mapping renders the bare map.  Walls are drawn from the grid
    geometry, the zapper door as 'z', features by their letters, and policy
    moves as ^ v < > overriding the cell character.
    """
    features = {grid.home: "H", grid.clean_lab: "C", grid.dirty_lab: "D",
                grid.decon1: "1", grid.decon2: "2"}
    h, w = grid.height, grid.width
    modes = sorted(arrows, key=str) if arrows else [None]
    blocks = []
    for mode in modes:
        cellmap = arrows.get(mode, {}) if arrows else {}
        lines = []
        for r in range(2 * h + 1):
            line = []
            for c in range(2 * w + 1):
                if r % 2 == 0 and c % 2 == 0:
                    line.append("+")
                elif r % 2 == 0:
                    x, yb = (c - 1) // 2, h - r // 2
                    edge = frozenset({(x, yb - 1), (x, yb)})
                    if yb in (0, h):
                        line.append("-")
                    elif edge == grid.zapper:
                        line.append("z")
                    else:
                        line.append("-" if edge in grid.walls else " ")
                elif c % 2 == 0:
                    xb, y = c // 2, h - 1 - (r - 1) // 2
                    edge = frozenset({(xb - 1, y), (xb, y)})
                    if xb in (0, w):
                        line.append("|")
                    elif edge == grid.zapper:
                        line.append("z")
                    else:
                        line.append("|" if edge in grid.walls else " ")
                else:
                    cell = ((c - 1) // 2, h - 1 - (r - 1) // 2)
                    if cell in cellmap:
                        line.append(_ARROW[cellmap[cell]])
                    elif cell in features:
                        line.append(features[cell])
                    elif cell in grid.dirty_area:
                        line.append("~")
                    else:
                        line.append(" ")
            lines.append("".join(line).rstrip())
        block = "\n".join(lines)
        if mode is not None:
            block = f"mode {mode}\n{block}"
        blocks.append(block)
    return "\n\n".join(blocks)
