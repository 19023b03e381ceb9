"""Markov decision processes, automaton products, and lexicographic solving.

The central pipeline target: label-generating MDPs are multiplied with a
good-for-MDPs Buchi automaton, the almost-sure winning region for the Buchi
objective is computed qualitatively, and discounted rewards are optimized
inside that region.  The returned strategy follows the discounted optimum for
a computed number of steps and then switches to an almost-sure strategy, so
it satisfies the acceptance condition with probability one while losing at
most epsilon of discounted value.

One model class, ``Mdp``, serves every stage: an ODP (``odp.Odp``) is an
``Mdp`` with guards and promises on its actions, and the compiled processes
and products are ``Mdp`` objects whose ``pairs`` say what each state stands
for in the model they were compiled from; a product's ``acc`` holds its
accepting actions.  ``model_to_doc`` and ``model_from_doc`` are the one
JSON codec of all of them.  A ``Strategy`` is the rows of a model that it
plays, one per state, or a switch between two such strategies after a fixed
number of steps; it walks memory nodes by ``start``, ``row`` (the row played,
or ``action``, its name) and ``step``, as the value check and the ODP
translation do.

A model has one form, the rows ``MdpArrays`` (``Mdp.arrays``), set when it
is made: one CSR row per (state, action) pair in the state's action order,
with a reward per stored transition, the rows' expected rewards and an
accepting-row mask.  A hand-written model is checked and built into rows
from dicts of tuples; the compilations of an ODP copy their input's rows
(``MdpArrays.lifted``), and a product is built straight into rows, one
breadth-first batch of states at a time.  The dicts ``actions``,
``trans``, ``rewards`` and ``acc`` are read-only views of the rows, and
the actions that name a compiled model's rows and a solver's strategy's
picks are made only if something reads them, so compiling, solving,
checking and learning never build them.

On the arrays, maximal end components come from strongly connected
components (the graph layer of ``automata``) refined until stable,
qualitative regions and strategies from attractors over the rows in row
order, and the discounted optimum from exact policy iteration with sparse
direct solves, started from the greedy policy of a few value-iteration
sweeps.  ``strategy_value_check`` evaluates a strategy object on the
Markov chain it induces, independently of the solvers, by two sparse
direct solves; its recurrent classes come from the same graph layer.
``scipy.sparse.linalg`` is imported inside the functions that use it:
loading it costs more than importing the rest of the library.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .automata import Alphabet, Automaton, Explorer, _components, \
    _letter_groups, _spans, check_time, explore, label_from_names, \
    label_to_names, view


class NoValidStrategy(Exception):
    """No strategy satisfies the acceptance condition almost surely."""

    def __init__(self, sat_prob):
        super().__init__(f"best satisfaction probability is {sat_prob}")
        self.sat_prob = sat_prob


class Mdp:
    """Finite MDP with an optional state labeling and optional rewards.

    The constructor takes the model as dicts: ``actions`` maps a state to
    its ordered action tuple and ``trans`` maps (state, action) to a tuple
    of (target, probability) pairs; ``rewards`` maps (state, action,
    target) to a real, and ``acc`` holds the accepting (state, action)
    pairs of an automaton product.  Ties in all solvers are broken toward
    the action that comes first in the state's action tuple.  An action is
    any hashable value, at most once per state: a name for a plain MDP, a
    (guard, name, promise) triple for an ODP (``odp.Odp``), an (action,
    automaton successor) pair for a product.  A model compiled from another
    one records in ``pairs[i]`` what its state ``i`` stands for there.

    The model is held once, as the rows ``arrays`` (``MdpArrays``): the
    constructor checks the dicts and builds them, :meth:`from_arrays` takes
    them as they are.  ``actions``, ``trans``, ``rewards`` (the transitions
    that pay) and ``acc`` are read-only views of the rows, made on first
    read and kept.
    """

    def __init__(self, n_states, initial, actions, trans, alphabet=None,
                 labels=None, rewards=None, pairs=None, acc=()):
        if not (0 <= initial < n_states):
            raise ValueError(f"initial state {initial} out of range")
        labels = tuple(labels) if labels is not None else None
        if labels is not None and len(labels) != n_states:
            raise ValueError("label vector length mismatch")
        arrays = MdpArrays.of(n_states, actions, trans, rewards or {},
                              frozenset(acc))
        self._set(arrays, initial, alphabet, labels, pairs)

    @classmethod
    def from_arrays(cls, A: "MdpArrays", initial, alphabet=None, labels=None,
                    pairs=None) -> "Mdp":
        """The model whose rows are ``A``, unchecked: the arrays' maker
        vouches for them."""
        M = cls.__new__(cls)
        M._set(A, initial, alphabet, labels, pairs)
        return M

    def _set(self, arrays, initial, alphabet, labels, pairs):
        self.arrays, self.n_states = arrays, arrays.n_states
        self.initial, self.alphabet = initial, alphabet
        self.labels = tuple(labels) if labels is not None else None
        self.pairs = tuple(pairs) if pairs is not None else None

    @view
    def actions(self):
        A = self.arrays
        first, action = A.first.tolist(), A.action
        return MappingProxyType({s: tuple(action[first[s]:first[s + 1]])
                                 for s in range(A.n_states)})

    @view
    def trans(self):
        """(state, action) to its (target, probability) pairs in stored
        order."""
        A = self.arrays
        ptr = A.P.indptr.tolist()
        moves = list(zip(A.P.indices.tolist(), A.P.data.tolist()))
        return MappingProxyType({(s, a): tuple(moves[ptr[k]:ptr[k + 1]])
                                 for k, (s, a) in enumerate(
                                     zip(A.state.tolist(), A.action))})

    @view
    def rewards(self):
        """The transitions that pay, keyed by (state, action, target)."""
        A = self.arrays
        paid = np.flatnonzero(A.reward)
        state, action = A.state.tolist(), A.action
        pay = zip(A.entry_row[paid].tolist(), A.P.indices[paid].tolist(),
                  A.reward[paid].tolist())
        return MappingProxyType({(state[k], action[k], t): r
                                 for k, t, r in pay})

    @view
    def acc(self):
        rows = np.flatnonzero(self.arrays.acc)
        return frozenset(zip(self.arrays.state[rows].tolist(),
                             self.arrays.names(rows)))

    @property
    def r_max(self):
        return float(np.max(np.abs(self.arrays.reward), initial=0.0))

    def reward(self, s, a, t):
        return self.rewards.get((s, a, t), 0.0)


#: The only product action at a state where the automaton has no move on
#: the state's letter.  Its automaton part is never an automaton state, so it
#: cannot collide with an (mdp action, automaton successor) pair.
STUCK = (None, None)


def product_with_nba(M: Mdp, C: Automaton) -> Mdp:
    """MDP times automaton; the automaton move is folded into the action.

    States are reachable (mdp state, automaton state) pairs, the letter is
    read off the MDP state, and an action is an (mdp action, automaton
    successor) pair.  ``acc`` holds the (state, action) pairs whose
    underlying automaton transition is accepting.  A pair state where the
    automaton has no move on the state's letter has the single action
    ``STUCK``: a probability-one self-loop that is never accepting and pays
    nothing, so the product stays a total MDP and such a state is a
    rejecting end component.

    The product is built as its ``MdpArrays``, from the rows of ``M.arrays``
    and the automaton's edges.  A state's rows are its MDP state's rows in
    action order, each once per automaton successor, in ascending order.
    States are numbered by :func:`~omegadp.automata.explore` from the start
    pair, in the order the rows reach them.
    """
    if M.labels is None:
        raise ValueError("the MDP must be labeled")
    if M.alphabet is not None and C.alphabet.ap != M.alphabet.ap:
        raise ValueError("alphabet mismatch between MDP and automaton")
    A, e, nq = M.arrays, C.edges, C.n_states
    L = len(e.letters)
    index = {a: i for i, a in enumerate(e.letters)}
    letter = np.array([index.get(a, -1) for a in M.labels], dtype=np.int64)
    g_first, g_count = _letter_groups(e, nq)
    m_ptr = A.P.indptr

    def expand(lo, batch):
        # batch holds the keys m * nq + q of pairs
        m, q = batch // nq, batch % nq
        group = q * L + letter[m]
        fan = np.where(letter[m] >= 0, g_count[group], 0)
        width = np.maximum(fan, 1)
        n_rows = np.where(fan > 0, (A.first[m + 1] - A.first[m]) * fan, 1)
        # per row: its state in the batch and its place among the state's
        # rows; the MDP row is the major and the automaton edge the minor
        # index, and a STUCK row stands in for an automaton without a move
        own, pos = _spans(n_rows)
        stuck = fan[own] == 0
        mrow = A.first[m][own] + pos // width[own]
        moves = np.flatnonzero(~stuck)
        edge = g_first[group[own[moves]]] + pos[moves] % width[own[moves]]
        q2 = np.full(len(own), -1, dtype=np.int32)
        q2[moves] = e.dst[edge]
        acc = np.zeros(len(own), dtype=bool)
        acc[moves] = e.acc[edge]
        # per stored transition: the MDP row's, or the STUCK self-loop
        size = np.where(stuck, 1, m_ptr[mrow + 1] - m_ptr[mrow])
        row, off = _spans(size)
        entry = m_ptr[mrow][row] + off
        loop = stuck[row]
        reached = np.where(loop, batch[own[row]],
                           A.P.indices[entry].astype(np.int64) * nq + q2[row])
        return reached, (
            n_rows, mrow, q2, stuck, np.where(stuck, 0.0, A.R[mrow]), acc,
            size, np.where(loop, 1.0, A.P.data[entry]),
            np.where(loop, 0.0, A.reward[entry]))

    keys, _, (n_rows, mrow, q2, stuck, R, acc, size, prob, reward, dst) = \
        explore(np.array([M.initial * nq + C.initial]), expand,
                "product construction")
    P = sparse.csr_matrix(
        (prob, dst, np.concatenate([[0], np.cumsum(size)])),
        shape=(len(R), len(keys)))
    first = np.concatenate([[0], np.cumsum(n_rows)])
    arrays = MdpArrays(first, P, R, acc, reward, base=A, succ=q2, stuck=stuck,
                       row=np.where(stuck, -1, mrow).astype(np.int32))
    ms = (keys // nq).tolist()
    return Mdp.from_arrays(arrays, 0, alphabet=M.alphabet,
                           labels=[M.labels[s] for s in ms],
                           pairs=zip(ms, (keys % nq).tolist()))


class MdpArrays:
    """One CSR row per (state, action) pair: the form every solver reads.

    Rows are ordered by state and, within a state, by the state's action
    tuple, so "first row" means "first action" in every tie-break.  The rows
    of state ``s`` are ``first[s]:first[s + 1]``; row ``k`` is an action of
    state ``state[k]``, moves by row ``k`` of ``P``, pays ``R[k]`` in
    expectation, is accepting when ``acc[k]`` is set and is ``STUCK`` when
    ``stuck[k]`` is.  The stored transition ``j`` (entry ``j`` of
    ``P.data``) pays ``reward[j]``.  This is the one form of a model:
    ``of`` checks and builds it from the dicts that :class:`Mdp` takes,
    and every other model is made from the rows of another.

    A model built from dicts keeps its actions in ``action``.  The row ``k``
    of a compiled model, a product or a sub-model is named by ints: its row
    ``row[k]`` in ``base`` (-1 for ``STUCK``) and, in a product, the
    automaton successor ``succ[k]``; ``names`` and ``action`` make its
    actions when read.
    """

    def __init__(self, first, P, R, acc, reward, action=None, base=None,
                 row=None, succ=None, stuck=None):
        counts = np.diff(first)
        if not counts.all():
            raise ValueError(f"state {int(np.argmin(counts))} has no actions")
        if not np.diff(P.indptr).all():
            raise ValueError("an action has an empty distribution")
        self.n_states = len(counts)
        self.first = first
        self.state = np.repeat(np.arange(self.n_states), counts)
        self.P, self.R, self.acc, self.reward = P, R, acc, reward
        self.base, self.row, self.succ, self.stuck = base, row, succ, stuck
        if action is not None:
            self.action = action

    @classmethod
    def of(cls, n, actions, trans, rewards, acc):
        """The rows of the dict form that :class:`Mdp` takes.  Raises
        ValueError unless every state has distinct actions, each with a
        probability distribution over the states, and every action,
        transition, reward and accepting pair belongs to a state, an action
        and a successor of the model."""
        for s in actions:
            if s not in range(n):
                raise ValueError(f"actions given for {s!r}, not a state")
        reward = rewards.get
        first, action, expect, is_acc, stuck = [0], [], [], [], []
        indices, data, pay, indptr = [], [], [], [0]
        for s in range(n):
            acts = tuple(actions.get(s, ()))
            if not acts:
                raise ValueError(f"state {s} has no actions")
            for i, a in enumerate(acts):
                if a in acts[:i]:
                    raise ValueError(f"state {s} has action {a!r} twice")
                dist = trans.get((s, a))
                if not dist:
                    raise ValueError(f"missing distribution for ({s}, {a})")
                total = sum(p for _, p in dist)
                if abs(total - 1.0) > 1e-12:
                    raise ValueError(
                        f"distribution of ({s}, {a}) sums to {total}")
                r = 0.0
                for t, p in dist:
                    # a NaN fails both comparisons, so it is rejected here
                    if not (0 <= t < n) or not (0 <= p <= 1):
                        raise ValueError(f"bad transition ({s}, {a}) -> {t}")
                    x = reward((s, a, t), 0.0)
                    indices.append(t)
                    data.append(p)
                    pay.append(x)
                    r += p * x
                indptr.append(len(indices))
                action.append(a)
                expect.append(r)
                is_acc.append((s, a) in acc)
                stuck.append(a == STUCK)
            first.append(len(action))
        for what, keys in (("distribution", trans), ("accepting mark", acc)):
            for s, a in keys:
                if a not in actions.get(s, ()):
                    raise ValueError(f"{what} given for ({s}, {a}), "
                                     f"not an action")
        for s, a, t in rewards:
            if all(u != t for u, _ in trans.get((s, a), ())):
                raise ValueError(f"reward given for ({s}, {a}) -> {t}, "
                                 f"not a transition")
        P = sparse.csr_matrix((np.array(data, dtype=float),
                               np.array(indices, dtype=np.int64),
                               np.array(indptr, dtype=np.int64)),
                              shape=(len(action), n))
        return cls(np.array(first, dtype=np.int64), P, np.array(expect),
                   np.array(is_acc, dtype=bool), np.array(pay, dtype=float),
                   action=action, stuck=np.array(stuck, dtype=bool))

    def names(self, rows):
        """The actions of the rows ``rows``, a list or array of indices."""
        if self.base is None:
            return [self.action[k] for k in rows]
        out = self.base.names(self.row[rows])
        if self.succ is None:
            return out
        return [STUCK if q < 0 else (a, q)
                for a, q in zip(out, self.succ[rows].tolist())]

    @cached_property
    def action(self):
        """Every row's action, made on first read."""
        return self.names(np.arange(self.state.size))

    @cached_property
    def entry_row(self):
        """The row of each stored transition."""
        return np.repeat(np.arange(self.state.size), np.diff(self.P.indptr))

    @cached_property
    def into(self):
        """State-by-row incidence: row ``t`` lists the rows that may enter
        ``t``."""
        ones = np.ones(self.P.nnz, dtype=bool)
        return sparse.csr_matrix((ones, (self.P.indices, self.entry_row)),
                                 shape=(self.n_states, self.state.size))

    def row_any(self, entry):
        """Per row: does one of its stored transitions satisfy ``entry``?"""
        return np.logical_or.reduceat(entry, self.P.indptr[:-1])

    def stays(self, inside):
        """Rows of the states in ``inside`` whose targets all lie in it."""
        return inside[self.state] & ~self.row_any(~inside[self.P.indices])

    def state_max(self, q):
        return np.maximum.reduceat(q, self.first[:-1])

    def first_row(self, rows):
        """Per state, its first row in the mask ``rows``, else
        ``len(rows)``."""
        return np.minimum.reduceat(
            np.where(rows, np.arange(rows.size), rows.size), self.first[:-1])

    def first_best(self, q, best=None, tol=1e-12):
        """Per state, its first row within ``tol`` of the state's maximum,
        ``best`` when the caller has it."""
        if best is None:
            best = self.state_max(q)
        return self.first_row(q >= best[self.state] - tol)

    def lifted(self, first, rows, dst, n_states):
        """The model on ``n_states`` states whose state ``s`` has the rows
        ``first[s]:first[s + 1]``: row ``i`` is row ``rows[i]`` of this one,
        with its probabilities, rewards and mark, and its stored
        transitions, in order, go to the states ``dst``."""
        rows = np.asarray(rows, dtype=np.int64)
        size = np.diff(self.P.indptr)[rows]
        indptr = np.concatenate([[0], np.cumsum(size)])
        seg, off = _spans(size)
        entries = self.P.indptr[rows][seg] + off
        P = sparse.csr_matrix(
            (self.P.data[entries], np.asarray(dst, dtype=np.int64), indptr),
            shape=(len(rows), n_states))
        return MdpArrays(np.asarray(first, dtype=np.int64), P, self.R[rows],
                         self.acc[rows], self.reward[entries], base=self,
                         row=rows, stuck=self.stuck[rows])

    def restrict(self, keep):
        """The sub-model on the states in ``keep`` with the rows that stay in
        it, and the kept states' ids in this model (the index remap)."""
        kept = self.stays(keep)
        states = np.flatnonzero(keep)
        remap = np.full(self.n_states, -1, dtype=np.int64)
        remap[states] = np.arange(states.size)
        rows = np.flatnonzero(kept)
        first = np.zeros(states.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(remap[self.state[rows]], minlength=states.size),
                  out=first[1:])
        dst = remap[self.P.indices[kept[self.entry_row]]]
        return self.lifted(first, rows, dst, states.size), states


def _mask(n, members):
    out = np.zeros(n, dtype=bool)
    out[list(members)] = True
    return out


def _mecs(A: MdpArrays, within):
    """Maximal end components inside the state mask ``within``.

    Refines strongly connected components until nothing changes (Chatterjee
    and Henzinger, SODA 2011): a row that may leave its state's component is
    dropped, so a state without rows left has no successor and drops out as
    a singleton.  Returns the component label of every state and the mask of
    inner rows; a state lies in a MEC exactly when it keeps an inner row.
    """
    src, dst = A.state[A.entry_row], A.P.indices
    inner = within[A.state]
    while True:
        check_time("end component decomposition")
        live = inner[A.entry_row]
        label = _components(A.n_states, src[live], dst[live])
        refined = inner & ~A.row_any(label[dst] != label[src])
        if np.array_equal(refined, inner):
            return label, inner
        inner = refined


def mec_decomposition(M: Mdp, within=None):
    """Maximal end components as (state set, set of (state, action)) pairs,
    ordered by their least state."""
    A = M.arrays
    keep = (np.ones(A.n_states, dtype=bool) if within is None
            else _mask(A.n_states, within))
    label, inner = _mecs(A, keep)
    found, label, rows = {}, label.tolist(), np.flatnonzero(inner)
    for s, a in zip(A.state[rows].tolist(), A.names(rows)):
        states, pairs = found.setdefault(label[s], (set(), set()))
        states.add(s)
        pairs.add((s, a))
    return sorted(found.values(), key=lambda mec: min(mec[0]))


def _accepting_mecs(A: MdpArrays):
    """States of the MECs with an accepting inner row, and the inner rows."""
    label, inner = _mecs(A, np.ones(A.n_states, dtype=bool))
    accepting = np.zeros(A.n_states, dtype=bool)
    accepting[label[A.state[inner & A.acc]]] = True
    return accepting[label], inner


def accepting_mecs(P: Mdp):
    """Union of states of MECs that contain an accepting action."""
    return set(np.flatnonzero(_accepting_mecs(P.arrays)[0]).tolist())


def _attractor(A: MdpArrays, goal, allowed):
    """States that reach ``goal`` with positive probability along ``allowed``
    rows, and the row each of them plays.

    Works backward one layer at a time; a state plays its first allowed row,
    in row order, that enters the previous layer.  The pick is -1 for goal
    states and for states left out.
    """
    covered = goal.copy()
    pick = np.full(A.n_states, -1, dtype=np.int64)
    frontier = np.flatnonzero(goal)
    while frontier.size:
        rows = np.unique(A.into[frontier].indices)
        rows = rows[allowed[rows] & ~covered[A.state[rows]]]
        frontier, at = np.unique(A.state[rows], return_index=True)
        pick[frontier] = rows[at]
        covered[frontier] = True
    return covered, pick


def _prob1(A: MdpArrays, target):
    """States that can reach ``target`` with probability one (max)."""
    region = np.ones(A.n_states, dtype=bool)
    while True:
        inside, _ = _attractor(A, target & region, A.stays(region))
        if np.array_equal(inside, region):
            return region
        region = inside


def buchi_value(P: Mdp):
    """Maximal probability of visiting accepting actions of the product
    ``P`` infinitely often."""
    values, _ = max_reach_prob(P, accepting_mecs(P))
    return values[P.initial]


def max_reach_prob(M: Mdp, target):
    """Value vector and positional strategy maximizing P(reach target)."""
    A = M.arrays
    tgt = _mask(A.n_states, target)
    can_reach, _ = _attractor(A, tgt, np.ones(A.state.size, dtype=bool))
    sure = _prob1(A, tgt)
    free = can_reach & ~sure & ~tgt
    v = sure.astype(float)
    while True:
        check_time("reachability value iteration")
        new = np.where(free, A.state_max(A.P @ v), v)
        residual = np.max(np.abs(new - v), initial=0.0)
        v = new
        if residual <= 1e-12:
            break
    # inside the sure region a value-greedy choice can cycle without ever
    # progressing, so pick actions along the qualitative backward closure
    _, pick = _attractor(A, tgt & sure, A.stays(sure))
    pick = np.where(pick >= 0, pick, A.first_best(A.P @ v))
    return v.tolist(), Strategy("positional", rows=pick, arrays=A)


class Strategy:
    """Positional, finite-memory or switching decision rule.

    A positional or finite-memory strategy is the rows it plays: ``rows[s]``
    is the row of ``arrays`` that state ``s`` plays, or -1 where it plays
    none.  A finite-memory strategy has the single memory value 0, so it
    plays as a positional one; its ``choices`` (its actions by name, made on
    read) are keyed by (state, 0) and a positional one's by state.  A
    switching strategy follows ``first`` for ``switch_step`` steps and then
    ``second`` forever; its ``arrays`` are theirs.

    A play is a walk over memory nodes: ``(s,)``, and for a switching
    strategy ``(s, k)`` with ``k`` the step count saturating at
    ``switch_step``.
    """

    def __init__(self, kind, rows=None, arrays=None, first=None, second=None,
                 switch_step=0):
        self.kind, self.rows, self.switch_step = kind, rows, switch_step
        self.first, self.second = first, second
        self.arrays = arrays if first is None else first.arrays
        if second is not None and second.arrays is not self.arrays:
            raise ValueError("the two strategies play rows of two models")

    @cached_property
    def choices(self):
        states = np.flatnonzero(self.rows >= 0)
        keys = states.tolist() if self.kind == "positional" \
            else [(s, 0) for s in states.tolist()]
        return dict(zip(keys, self.arrays.names(self.rows[states])))

    def start(self, s):
        """The memory node of a play starting in state ``s``."""
        return (s, 0) if self.kind == "switching" else (s,)

    def row(self, node):
        """The row of ``arrays`` played at the memory node ``node``."""
        part = self if self.kind != "switching" else (
            self.first if node[1] < self.switch_step else self.second)
        k = int(part.rows[node[0]])
        if k < 0:
            raise KeyError(node)
        return k

    def action(self, node):
        """The action played at the memory node ``node``."""
        return self.arrays.names([self.row(node)])[0]

    def step(self, node, t):
        """The memory node after the play moves from ``node`` to state
        ``t``."""
        if self.kind != "switching":
            return (t,)
        return (t, min(node[1] + 1, self.switch_step))


def _almost_sure(A: MdpArrays):
    """Accepting-MEC states, the almost-sure Buchi region and its strategy.

    A state of an accepting MEC plays its first accepting inner row if it
    has one and otherwise the attractor over inner rows toward such states:
    the play stays in the component and the accepting transition recurs
    almost surely.  Every other region state plays the attractor over the
    rows that stay in the region, which reaches an accepting MEC with
    probability one.
    """
    goal, inner = _accepting_mecs(A)
    region = _prob1(A, goal)
    owner = A.first_row(inner & A.acc)
    seeds = owner < A.state.size
    allowed = np.where(goal[A.state], inner, A.stays(region))
    _, pick = _attractor(A, seeds, allowed)
    pick = np.where(seeds, owner, pick)
    return goal, region, Strategy(
        "finite-memory", rows=np.where(region, pick, -1), arrays=A)


def almost_sure_buchi_region(P: Mdp):
    """Winning region and strategy for "accepting action infinitely often".

    The strategy reaches an accepting MEC with probability one; inside the
    MEC it steers toward a state owning an accepting inner action and plays
    that action there.
    """
    _, region, strategy = _almost_sure(P.arrays)
    return set(np.flatnonzero(region).tolist()), strategy


#: The warm start of :func:`_policy_iteration`: value-iteration sweeps run in
#: blocks of ``_SWEEPS``, at most ``_MAX_SWEEPS`` of them in all.
_SWEEPS = 4
_MAX_SWEEPS = 400


def _warm_start(A: MdpArrays, lam):
    """The greedy picks of value iteration from v = 0, taken after each
    block of sweeps, once a block leaves them unchanged or the sweeps reach
    ``_MAX_SWEEPS``."""
    v = np.zeros(A.n_states)
    pick = None
    for _ in range(_MAX_SWEEPS // _SWEEPS):
        check_time("policy iteration")
        for _ in range(_SWEEPS):
            q = A.R + lam * (A.P @ v)
            v = A.state_max(q)
        last, pick = pick, A.first_best(q, v)
        if np.array_equal(pick, last):
            break
    return pick


def _policy_iteration(A: MdpArrays, lam):
    """Optimal discounted values, and per state the first row within 1e-12
    of the optimal one-step value.

    Modified policy iteration (Puterman & Shin 1978; Puterman, *MDPs*,
    §6.5): value-iteration sweeps pick the first policy (``_warm_start``),
    then exact policy iteration improves it, one sparse direct solve per
    policy, switching a state's action only on a clear gain.  Exact policy
    iteration reaches an optimal policy from any first policy, so where the
    sweeps stop changes only how many solves it takes: the values are the
    optimum's, up to the rounding of the last solve.
    """
    from scipy.sparse.linalg import spsolve
    eye = sparse.identity(A.n_states, format="csr")
    pick = _warm_start(A, lam)
    while True:
        check_time("policy iteration")
        v = spsolve((eye - lam * A.P[pick]).tocsc(), A.R[pick])
        q = A.R + lam * (A.P @ v)
        best = A.state_max(q)
        # switch only on a clear gain, so rounding cannot make it cycle
        better = best > q[pick] + 1e-12 * max(1.0, np.max(np.abs(best)))
        greedy = A.first_best(q, best)
        if not better.any():
            return v, greedy
        pick = np.where(better, greedy, pick)


def discounted_vi(M: Mdp, lam):
    """Optimal discounted values and a positional strategy attaining them.

    Value-iteration sweeps from v = 0 choose a first policy and exact policy
    iteration finishes from it (``_policy_iteration``), so the values are
    those of an optimal policy, solved exactly, however early the sweeps
    stop.  At each state the strategy plays the first action whose one-step
    value is within 1e-12 of the maximum.
    """
    if not (0 <= lam < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    A = M.arrays
    v, pick = _policy_iteration(A, lam)
    return v.tolist(), Strategy("positional", rows=pick, arrays=A)


def switch_horizon(lam, eps, r_max):
    """Steps after which abandoning the reward costs at most eps."""
    if lam == 0 or r_max == 0:
        return 0
    return max(0, math.ceil(math.log(eps * (1 - lam) / (2 * r_max), lam)))


def lexicographic_solve(P: Mdp, lam, eps):
    """Maximize discounted reward among almost-surely accepting strategies.

    Raises NoValidStrategy (with the best satisfaction probability attached)
    when the initial state lies outside the almost-sure winning region, and
    ValueError unless 0 <= lam < 1 and eps > 0.
    """
    if not (0 <= lam < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    A = P.arrays
    goal, region, sure = _almost_sure(A)
    if not region[P.initial]:
        v, _ = max_reach_prob(P, np.flatnonzero(goal).tolist())
        raise NoValidStrategy(v[P.initial])
    sub, states = A.restrict(region)
    values, pick = _policy_iteration(sub, lam)
    d_star = float(values[np.searchsorted(states, P.initial)])
    t_switch = switch_horizon(lam, eps, P.r_max)
    # the restricted picks as rows of the product
    rows = np.full(A.n_states, -1, dtype=np.int64)
    rows[states] = sub.row[pick]
    strategy = Strategy("switching", first=Strategy(
        "positional", rows=rows, arrays=A), second=sure, switch_step=t_switch)
    return 1.0, d_star, strategy


def strategy_value_check(P: Mdp, strategy: Strategy, lam,
                         max_chain=500_000):
    """Satisfaction probability and discounted value of the induced chain.

    Explores the Markov chain that ``strategy`` induces from the initial
    state, at most ``max_chain`` nodes (CapacityError beyond).  Satisfaction
    is the probability of absorption into a bottom SCC with an accepting
    transition, and the value solves (I - lam P) v = r; both are sparse
    direct solves on the chain.  The chain's moves and rewards are read from
    the rows of ``P.arrays`` that the strategy plays (``Strategy.row``), so
    the check names no action and builds no dict form of ``P``.  Raises
    ValueError unless 0 <= lam < 1 and the strategy plays rows of
    ``P.arrays``.
    """
    from scipy.sparse.linalg import spsolve

    if not (0 <= lam < 1):
        raise ValueError("discount factor must lie in [0, 1)")
    A = P.arrays
    if strategy.arrays is not A:
        raise ValueError("the strategy plays rows of another model")
    ptr, targets, probs = (A.P.indptr.tolist(), A.P.indices.tolist(),
                           A.P.data.tolist())
    src, dst, prob, played = [], [], [], []
    found = Explorer(strategy.start(P.initial), budget=max_chain,
                     what="value check")
    for i, node in found:
        k = strategy.row(node)
        played.append(k)
        for j in range(ptr[k], ptr[k + 1]):
            src.append(i)
            dst.append(found.intern(strategy.step(node, targets[j])))
            prob.append(probs[j])
    n = len(found)
    G = sparse.csr_matrix((prob, (src, dst)), shape=(n, n))
    G.eliminate_zeros()
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(G.indptr))
    comp = _components(n, rows, G.indices)
    # every node moves somewhere, so a component that no transition leaves
    # is a recurrent class
    n_comp = int(comp.max()) + 1
    left = np.zeros(n_comp, dtype=bool)
    left[comp[rows][comp[rows] != comp[G.indices]]] = True
    has_acc = np.zeros(n_comp, dtype=bool)
    has_acc[comp[A.acc[played]]] = True
    sat = (~left & has_acc)[comp].astype(float)
    transient = np.flatnonzero(left[comp])
    if transient.size:
        T = G[transient]
        sat[transient] = spsolve(
            (sparse.identity(transient.size, format="csc")
             - T[:, transient]).tocsc(), T @ sat)
    v = spsolve((sparse.identity(n, format="csc") - lam * G).tocsc(),
                A.R[played])
    return float(sat[0]), float(v[0])


def model_to_doc(M: Mdp, encode_action) -> dict:
    """The JSON document of a model; ``encode_action(a)`` gives the keys
    that name the action ``a``.

    The document of an MDP has four keys:

    - ``ap``: the atomic proposition names, in the alphabet's order;
    - ``states``: ``{"id": i, "label": [names]}`` for the states
      ``i = 0..n-1``, with ``label`` (the propositions true at ``i``) only
      in a labeled model;
    - ``initial``: the initial state's id;
    - ``actions``: one entry per state and action, in the state's action
      order: ``{"state": s, "name": a, "successors": [{"target": t,
      "prob": p}, ...], "reward": {"t": r, ...}}``, with ``reward`` only
      when a successor pays.

    The document of an ODP (``odp.odp_to_json``) adds ``guard`` and
    ``promise`` after ``name`` in each action entry (a schema state, or
    ``null`` for the trivial guard or promise), and the top-level keys
    ``lookback`` and ``lookahead`` when the process has the schema:
    ``{"kind": "DFA" | "UCA", "states": n, "transitions": [{"from": q,
    "letter": [names], "to": [q', ...], "marked": [q', ...]}, ...],
    "final": [q, ...]}``, with ``marked`` (the targets of marked
    transitions) and ``final`` only when nonempty.
    """
    ap = list(M.alphabet.ap) if M.alphabet is not None else []
    states = []
    for s in range(M.n_states):
        entry = {"id": s}
        if M.labels is not None:
            entry["label"] = label_to_names(M.labels[s], ap)
        states.append(entry)
    actions = []
    for s in range(M.n_states):
        for a in M.actions[s]:
            dist = M.trans[(s, a)]
            entry = {"state": s, **encode_action(a),
                     "successors": [{"target": t, "prob": p}
                                    for t, p in dist]}
            rs = {str(t): M.reward(s, a, t) for t, _ in dist
                  if M.reward(s, a, t)}
            if rs:
                entry["reward"] = rs
            actions.append(entry)
    return {"ap": ap, "states": states, "initial": M.initial,
            "actions": actions}


def model_from_doc(doc: dict, decode_action, model=Mdp, **fields):
    """The model of type ``model`` that the document ``doc`` (see
    ``model_to_doc``) describes; ``decode_action(entry)`` gives the action
    of an action entry, and ``fields`` go to the constructor as they are.

    Without ``ap`` the propositions are the names the labels use, sorted.
    Raises ValueError unless the state ids are exactly ``0..n-1``.
    """
    states = doc["states"]
    n = len(states)
    ids = [st["id"] for st in states]
    if len(set(ids)) != n or not all(i in range(n) for i in ids):
        raise ValueError(f"state ids must be 0..{n - 1}, each once")
    ap = doc.get("ap")
    if ap is None:
        ap = sorted({name for st in states for name in st.get("label", [])})
    labels = None
    if any("label" in st for st in states):
        labels = [0] * n
        for st in states:
            labels[st["id"]] = label_from_names(st.get("label", []), ap)
    actions, trans, rewards = {}, {}, {}
    for entry in doc["actions"]:
        s, a = entry["state"], decode_action(entry)
        actions.setdefault(s, []).append(a)
        trans[(s, a)] = tuple((x["target"], x["prob"])
                              for x in entry["successors"])
        for t, r in entry.get("reward", {}).items():
            rewards[(s, a, int(t))] = r
    return model(n, doc["initial"], actions, trans,
                 alphabet=Alphabet(tuple(ap)) if ap else None,
                 labels=labels, rewards=rewards, **fields)


def strategy_to_doc(strategy: Strategy) -> dict:
    """The JSON document of a strategy: its ``kind`` and its choices in
    state order, or the two strategies and the switching step."""
    doc = {"kind": strategy.kind}
    if strategy.kind == "positional":
        doc["choices"] = [{"state": s, "action": a}
                          for s, a in sorted(strategy.choices.items())]
    elif strategy.kind == "finite-memory":
        doc["choices"] = [{"state": s, "memory": m, "action": a}
                          for (s, m), a in sorted(strategy.choices.items())]
    else:
        doc["switch_step"] = strategy.switch_step
        doc["first"] = strategy_to_doc(strategy.first)
        doc["second"] = strategy_to_doc(strategy.second)
    return doc


def strategy_to_json(strategy: Strategy) -> str:
    return json.dumps(strategy_to_doc(strategy), indent=2)
