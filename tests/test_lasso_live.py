"""The limit-deterministic signature path signs only the live states, which
it finds with its own fixpoints; these tests hold that cut against the
emptiness layer of ``automata`` and against the frozen reference."""

import random

import numpy as np
import pytest

import signature_reference as reference
from omegadp import automata, lasso_bulk
from omegadp.automata import Alphabet, Automaton, \
    is_strongly_limit_deterministic
from omegadp.complement import complement_uca
from omegadp.lasso_bulk import nba_signature

from conftest import random_uca


def oracle_corpus(seed, per_size=80):
    """The complements of the benchmark's ``oracle`` corpus: ``per_size``
    random UCAs of each size 1..4 on two propositions, in an order from the
    seed."""
    rng = random.Random(seed)
    sizes = [n for n in (1, 2, 3, 4) for _ in range(per_size)]
    rng.shuffle(sizes)
    return [complement_uca(random_uca(rng, n, n_ap=2)) for n in sizes]


@pytest.mark.parametrize("seed", [1, 2])
def test_live_states_are_the_nonempty_states(seed):
    # two independent emptiness computations: the signature module's
    # nested fixpoint and the strongly connected components of automata
    for C in oracle_corpus(seed):
        live = lasso_bulk._live_states(C.n_states, C.edges)
        assert set(np.flatnonzero(live).tolist()) == \
            automata.nonempty_states(C)


def test_signatures_use_no_emptiness_routine(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the signature called the emptiness layer")

    rng = random.Random(5)
    complements = [complement_uca(random_uca(rng, rng.randint(1, 4), n_ap=2))
                   for _ in range(20)]
    for name in ("_nonempty", "_components", "nonempty_states"):
        monkeypatch.setattr(automata, name, forbidden)
    for C in complements:
        assert np.array_equal(nba_signature(C, 5),
                              reference.nba_signature(C, 5))


def test_signature_partition_is_the_graph_layers():
    # 200 random UCAs: their complements, and the UCAs read as NBAs
    rng = random.Random(200)
    flags = set()
    for _ in range(200):
        U = random_uca(rng, rng.randint(1, 4), n_ap=2)
        for A in (complement_uca(U), U.reinterpret("NBA")):
            flag, in1 = automata._first_phase(A, lasso_bulk._reaching)
            want, (q1, _) = is_strongly_limit_deterministic(A)
            assert flag == want
            assert set(np.flatnonzero(in1).tolist()) == q1
            flags.add(flag)
    assert flags == {False, True}


def test_signatures_use_no_graph_search(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the signature called the graph layer")

    # bound 4: the reference is too slow at the benchmark's bound 6
    complements = oracle_corpus(1)
    for name in ("_reached", "_Graph"):
        monkeypatch.setattr(automata, name, forbidden)
    for C in complements:
        assert np.array_equal(nba_signature(C, 4),
                              reference.nba_signature(C, 4))


def nba(n, delta, gamma):
    return Automaton("NBA", Alphabet(("b",)), n, 0, delta, gamma)


# Hand-built limit-deterministic NBAs on the letters 0 and 1, with the
# states the cut must keep.  State 1 is always "infinitely many 1s".
GF1 = {(1, 0): (1,), (1, 1): (1,)}
CASES = {
    # the initial state reaches a marked edge but no marked cycle
    "dead initial state": (
        nba(5, {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (2,), (1, 1): (3,),
                (2, 0): (1,), (3, 1): (4,)}, {(3, 1, 4)}),
        set()),
    # state 0 jumps to the live state 1 and to the dead state 2
    "dead jump target": (
        nba(3, {(0, 0): (0,), (0, 1): (0, 1, 2), **GF1, (2, 0): (2,),
                (2, 1): (2,)}, {(1, 1, 1)}),
        {0, 1}),
    # state 3 is in part one but only jumps to the dead state 2
    "dead part-one state": (
        nba(4, {(0, 0): (3,), (0, 1): (0, 1), **GF1, (2, 0): (2,),
                (3, 0): (2, 3), (3, 1): (3,)}, {(1, 1, 1)}),
        {0, 1}),
    # deterministic; state 3 is live but unreachable, 2 and 4 are dead
    "no part one": (
        nba(5, {(0, 0): (1,), (0, 1): (2,), **GF1, (2, 0): (2,),
                (2, 1): (4,), (3, 1): (3,), (4, 0): (4,)},
            {(1, 1, 1), (3, 1, 3)}),
        {0, 1, 3}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hand_built_cuts_match_the_reference(case):
    A, live = CASES[case]
    flag, (q1, _) = is_strongly_limit_deterministic(A)
    assert flag and (case == "no part one") == (not q1)
    assert set(np.flatnonzero(
        lasso_bulk._live_states(A.n_states, A.edges)).tolist()) == live
    for bound in range(1, 7):
        sig = nba_signature(A, bound)
        assert np.array_equal(sig, reference.nba_signature(A, bound))
    # at bound 6 some word is accepted exactly when the initial state lives
    assert sig.any() == (0 in live)


def test_limit_deterministic_batches_of_one_word(monkeypatch):
    # a budget below one word's working set: every representative is its
    # own batch, and every tile of the output one bit
    monkeypatch.setattr(lasso_bulk, "_BUDGET", 1)
    rng = random.Random(11)
    for _ in range(8):
        C = complement_uca(random_uca(rng, rng.randint(1, 3), n_ap=2))
        assert np.array_equal(nba_signature(C, 4),
                              reference.nba_signature(C, 4))
