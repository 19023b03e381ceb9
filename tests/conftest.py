import itertools
import random
import sys

import pytest

from omegadp.automata import Alphabet, Automaton, LassoWord


def untagged(A):
    """``A`` without its tags: a collection whose fresh initial state the
    complement does not pin."""
    return Automaton.from_edges(A.kind, A.alphabet, A.n_states, A.initial,
                                A.edges)


def all_lassos(n_letters, max_prefix, max_cycle):
    """Every lasso word with bounded prefix and cycle lengths."""
    out = []
    for pl in range(max_prefix + 1):
        for cl in range(1, max_cycle + 1):
            for p in itertools.product(range(n_letters), repeat=pl):
                for c in itertools.product(range(n_letters), repeat=cl):
                    out.append(LassoWord(p, c))
    return out


def random_uca(rng, n_states, n_ap=1, p_edge=0.5, p_reject=0.3):
    ab = Alphabet(tuple("abcd"[:n_ap]))
    delta, gamma = {}, set()
    for q in range(n_states):
        for a in ab.letters():
            ts = tuple(sorted(t for t in range(n_states) if rng.random() < p_edge))
            if ts:
                delta[(q, a)] = ts
                for t in ts:
                    if rng.random() < p_reject:
                        gamma.add((q, a, t))
    return Automaton("UCA", ab, n_states, 0, delta, gamma)


def random_nba(rng, n_states, n_ap=1, p_edge=0.5, p_accept=0.3):
    return random_uca(rng, n_states, n_ap, p_edge, p_accept).reinterpret("NBA")


def gf_b_schema():
    """Schema whose state 0 accepts exactly the words with infinitely
    many b's."""
    ab = Alphabet(("b",))
    return Automaton("UCA", ab, 2, None,
                     {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,)},
                     {(1, 0, 1)})


def example2_odp():
    """Freely choose the next letter; reward 1 for a; promise infinitely
    many b's on every step."""
    from omegadp.odp import Odp
    ab = Alphabet(("b",))
    acts = {s: ((None, "a", 0), (None, "b", 0)) for s in (0, 1)}
    trans = {}
    rewards = {}
    for s in (0, 1):
        trans[(s, (None, "a", 0))] = ((0, 1.0),)
        trans[(s, (None, "b", 0))] = ((1, 1.0),)
        rewards[(s, (None, "a", 0), 0)] = 1.0
    return Odp(2, 0, acts, trans, ab, (0, 1), lookahead=gf_b_schema(),
               rewards=rewards)


def random_dfa_schema(rng, n_states, n_ap=1):
    """Deterministic, possibly incomplete schema with a nonempty final set."""
    ab = Alphabet(tuple("abcd"[:n_ap]))
    delta = {}
    for q in range(n_states):
        for a in ab.letters():
            if rng.random() < 0.8:
                delta[(q, a)] = (rng.randrange(n_states),)
    final = {q for q in range(n_states) if rng.random() < 0.5}
    if not final:
        final = {rng.randrange(n_states)}
    return Automaton("DFA", ab, n_states, None, delta, (),
                     final_states=final)


def random_uca_schema(rng, n_states, n_ap=1):
    A = random_uca(rng, n_states, n_ap)
    return Automaton("UCA", A.alphabet, A.n_states, None, A.delta, A.gamma)


def random_odp(rng, n_states, lookback=None, lookahead=None, n_ap=1,
               p_reward=0.5):
    """Random decision process; every state keeps one unguarded action."""
    from omegadp.odp import Odp
    ab = Alphabet(tuple("abcd"[:n_ap]))
    actions, trans, rewards, labels = {}, {}, {}, []
    for s in range(n_states):
        labels.append(rng.choice(ab.letters()))
        acts = []
        for k in range(rng.randint(1, 2)):
            beta = None
            if lookback is not None and k > 0:
                beta = rng.randrange(lookback.n_states)
            alpha = None
            if lookahead is not None and rng.random() < 0.5:
                alpha = rng.randrange(lookahead.n_states)
            act = (beta, f"a{k}", alpha)
            acts.append(act)
            support = rng.sample(range(n_states), rng.randint(1, min(2, n_states)))
            trans[(s, act)] = tuple((t, 1.0 / len(support)) for t in support)
            for t in support:
                if rng.random() < p_reward:
                    rewards[(s, act, t)] = rng.randint(1, 4) * 0.5
        actions[s] = tuple(acts)
    return Odp(n_states, 0, actions, trans, ab, labels,
               lookback=lookback, lookahead=lookahead, rewards=rewards)


def clock_expired_inside(name):
    """A clock that reads 0 except inside the function ``name`` and
    anything it calls, where every deadline has passed."""
    def clock():
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name == name:
                return 1e9
            frame = frame.f_back
        return 0.0
    return clock


@pytest.fixture
def rng():
    return random.Random(12345)
