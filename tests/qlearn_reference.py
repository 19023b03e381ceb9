"""Reference version of lexicographic Q-learning: the tables are
``(state, action)``-keyed dicts with greedy rules of their own, trained on
flat per-row lists and written back into the dicts in first-update order.
The library's learner, whose tables are rows of ``P.arrays``, must give
every row the same values and update counts and the same strategy
(``test_qlearn.py``)."""

import math
import random
from dataclasses import dataclass, field

import numpy as np

from omegadp.automata import check_time
from omegadp.mdp import STUCK, Strategy, switch_horizon


@dataclass
class LexQTables:
    """Learned action-value tables keyed by (product state, action)."""

    q_sat: dict = field(default_factory=dict)
    q_rec: dict = field(default_factory=dict)
    q_disc: dict = field(default_factory=dict)
    visits: dict = field(default_factory=dict)
    zeta: float = 0.99
    lam: float = 0.99
    tau_lex: float = 0.01
    sat_init: float = 0.0

    def sat(self, s, a):
        return self.q_sat.get((s, a), self.sat_init)

    def rec(self, s, a):
        return self.q_rec.get((s, a), 0.0)

    def disc(self, s, a):
        return self.q_disc.get((s, a), 0.0)

    def sat_max(self, P, s):
        return max(self.sat(s, a) for a in P.actions[s])

    def lex_greedy(self, P, s):
        """Best reward among actions whose satisfaction value is within
        tau_lex of the state's best."""
        top = self.sat_max(P, s)
        best, pick = None, None
        for a in P.actions[s]:
            if self.sat(s, a) < top - self.tau_lex:
                continue
            v = self.disc(s, a)
            if best is None or v > best + 1e-12:
                best, pick = v, a
        return pick

    def sat_greedy(self, P, s):
        """Satisfaction-first choice: near-maximal q_sat, recurrence
        tie-break.  The filter reuses tau_lex so that an action whose value
        still carries optimistic initialization does not crowd out a
        well-explored one that actually makes progress."""
        top = self.sat_max(P, s)
        best, pick = None, None
        for a in P.actions[s]:
            if self.sat(s, a) < top - self.tau_lex:
                continue
            v = self.rec(s, a)
            if best is None or v > best + 1e-12:
                best, pick = v, a
        return pick


def lex_q_learn(P, episodes, steps=1000, lam=0.99, zeta=0.99,
                tau_lex=0.01, eps=0.01, explore=(1.0, 0.05), alpha_power=0.7,
                alpha_floor=0.2, optimism=0.0, seed=0, value_cap=None,
                tables=None):
    """``omegadp.qlearn.lex_q_learn`` as it was with dict tables."""
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
    rng = random.Random(seed)
    if tables is not None:
        tab = tables
        tab.zeta, tab.lam, tab.tau_lex = zeta, lam, tau_lex
    else:
        tab = LexQTables(zeta=zeta, lam=lam, tau_lex=tau_lex,
                         sat_init=optimism)
    # The tables live in flat lists while training, one row per (state,
    # action) pair: state s owns rows base[s] .. base[s + 1] - 1 in the
    # order of P.actions[s].  Rows updated here are written back to the
    # dicts in first-update order, so the dicts end up as if updated in
    # place.
    actions, trans, acc_pairs, reward = P.actions, P.trans, P.acc, P.reward
    n_states = P.n_states
    base = [0] * (n_states + 1)
    for s in range(n_states):
        base[s + 1] = base[s] + len(actions[s])
    n_rows = base[n_states]
    sat, rec, disc = [tab.sat_init] * n_rows, [0.0] * n_rows, [0.0] * n_rows
    visits = [0] * n_rows
    for table, row_values in ((tab.q_sat, sat), (tab.q_rec, rec),
                              (tab.q_disc, disc), (tab.visits, visits)):
        for (s, a), v in table.items():
            if 0 <= s < n_states and a in actions[s]:
                row_values[base[s] + actions[s].index(a)] = v
    tau = tab.tau_lex
    rand, randrange = rng.random, rng.randrange
    updated = {}  # row -> (state, action), in first-update order
    row_trans = [None] * n_rows
    row_acc = [None] * n_rows
    first_succ = [None] * n_rows
    stochastic = [False] * n_rows

    def greedy_at(s):
        """One pass for what ``LexQTables.sat_max``, ``sat_greedy`` and
        ``lex_greedy`` give at ``s``, with rows for actions: (top,
        sat-greedy row, its q_rec, lex-greedy row, its q_disc)."""
        lo, hi = base[s], base[s + 1]
        if hi - lo == 1:
            return sat[lo], lo, rec[lo], lo, disc[lo]
        top = max(sat[lo:hi])
        floor = top - tau
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

    try:
        for ep in range(episodes):
            check_time("Q-learning")
            frac = ep / (episodes - 1) if episodes > 1 else 1.0
            eps_explore = explore[0] + (explore[1] - explore[0]) * frac
            sat_phase = ep % 2 == 0
            s = P.initial
            # the greedy picks at s, valid while no update has touched s
            here = None
            for step in range(steps):
                acts = actions[s]
                if acts[0] == STUCK:
                    break
                lo = base[s]
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
                        # no known route to an accepting transition from
                        # here, so greedy would stall; wander until one is
                        # found
                        k = -1
                if k < 0:
                    k = lo + randrange(len(acts))
                a = acts[k - lo]
                dist = row_trans[k]
                if dist is None:
                    key = (s, a)
                    dist = row_trans[k] = trans[key]
                    row_acc[k] = key in acc_pairs
                    updated[k] = key
                u = rand()
                t = None
                for t, p in dist:
                    u -= p
                    if u <= 0:
                        break
                r = reward(s, a, t)
                n = visits[k] = visits[k] + 1
                first = first_succ[k]
                if first is None:
                    first_succ[k] = t
                elif first != t:
                    stochastic[k] = True
                if stochastic[k]:
                    alpha = n ** -alpha_power
                    alpha_d = max(alpha, alpha_floor)
                else:
                    alpha = alpha_d = 1.0
                if actions[t][0] != STUCK:
                    there = greedy_at(t)
                    boot_sat, boot_rec, boot_disc = there[0], there[2], \
                        there[4]
                else:
                    there = None
                    boot_sat = boot_rec = boot_disc = 0.0
                if row_acc[k]:
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
                        f"state {s}, action {a!r}: q_sat={vs}, q_rec={vr}, "
                        f"q_disc={vd} exceed cap {value_cap}")
                # the update changed s's rows, so picks made at t before it
                # are stale only on a self-loop
                here = there if t != s else None
                s = t
    finally:
        for k, key in updated.items():
            tab.q_sat[key] = sat[k]
            tab.q_rec[key] = rec[k]
            tab.q_disc[key] = disc[k]
            tab.visits[key] = visits[k]
    # the flat rows are those of P.arrays: both follow P.actions' order
    _, k_sat, _, k_lex, _ = zip(*map(greedy_at, range(n_states)))
    strategy = Strategy(
        "switching",
        first=Strategy("positional", rows=np.array(k_lex), arrays=P.arrays),
        second=Strategy("finite-memory", rows=np.array(k_sat),
                        arrays=P.arrays),
        switch_step=switch_horizon(lam, eps, P.r_max))
    return tab, strategy
