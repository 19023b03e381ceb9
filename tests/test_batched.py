"""The batched rank construction, the array reduction stages and the
batched intersection build exactly the automata of the dict-based
reference versions in ``dict_reference.py``: same states, initial state,
transitions, accepting transitions, phase partition and blocked count; the
emptiness check finds the same states."""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

import dict_reference as ref
from omegadp import automata
from omegadp import complement as complement_module
from omegadp import reduction
from omegadp.automata import Alphabet, Automaton, time_limit
from omegadp.complement import CapacityError, ComplementOptions, complement_uca
from omegadp.hoa import parse_hoa
from conftest import random_nba, random_uca
from test_acceptance import random_collection

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
STAGES = ("prune_empty", "lump_final", "merge_lang_final",
          "drop_dominated_jumps", "lump_all")


def shape(A):
    return (A.n_states, A.initial, A.delta, A.gamma, A.tags.get("parts"))


def assert_same_complement(U, opts):
    mine = complement_uca(U, opts)
    theirs = ref.complement_general(U, opts)
    assert shape(mine) == shape(theirs)
    assert mine.tags["stats"]["blocked_transitions"] \
        == theirs.tags["stats"]["blocked_transitions"]
    return theirs


def assert_same_stages(C):
    """Each array stage against its dict version, on the reference chain."""
    for name in STAGES:
        theirs = getattr(ref, name)(C)
        assert shape(getattr(reduction, name)(C)) == shape(theirs), name
        C = theirs


def seventy_state_uca():
    """70 states, but every reachable subset has at most two of them."""
    n = 70
    delta, gamma = {}, set()
    for q in range(n):
        delta[(q, 0)] = ((q + 1) % n,)
        delta[(q, 1)] = tuple(sorted({q, (q + 35) % n}))
        if q % 2 == 0:
            gamma.add((q, 1, q))
        if q % 7 == 0:
            gamma.add((q, 0, (q + 1) % n))
    return Automaton("UCA", Alphabet(("a",)), n, 0, delta, gamma)


def fixture(name):
    return parse_hoa((FIXTURES / f"{name}.hoa").read_text()).reinterpret("UCA")


@pytest.mark.parametrize("odd_entry", [True, False])
def test_random_ucas_match_the_reference(odd_entry):
    rng = random.Random(2024)
    for k in range(200):
        U = random_uca(rng, rng.randint(1, 5))
        C = assert_same_complement(
            U, ComplementOptions(special=False, odd_entry=odd_entry))
        if k % 4 == 0:
            assert_same_stages(C)


def test_pinned_collections_match_the_reference():
    rng = random.Random(99)
    for _ in range(40):
        col = random_collection(rng)
        assert col.tags.get("collection_initial") is not None
        assert_same_stages(
            assert_same_complement(col, ComplementOptions(special=False)))


@pytest.mark.parametrize("name", ["reduce_01", "reduce_02", "reduce_03",
                                  "reduce_04"])
def test_fixtures_match_the_reference(name):
    assert_same_stages(
        assert_same_complement(fixture(name), ComplementOptions(special=False)))


def test_no_cap_on_the_number_of_uca_states():
    U = seventy_state_uca()
    for odd_entry in (True, False):
        C = assert_same_complement(
            U, ComplementOptions(special=False, odd_entry=odd_entry))
        assert C.n_states > 400
    assert_same_stages(C)


def test_state_budget_is_exact_inside_a_batch():
    U = seventy_state_uca()
    for budget in (1, 2, 3, 71, 200, 404):
        errors = []
        for build in (complement_uca, ref.complement_general):
            with pytest.raises(CapacityError) as exc:
                build(U, ComplementOptions(special=False, max_states=budget))
            errors.append(exc.value.states_built)
        assert errors == [budget, budget]


def test_deadline_is_checked_in_every_batch(monkeypatch):
    monkeypatch.setattr(complement_module, "_CHUNK", 16)
    U = random_uca(random.Random(0), 5)
    calls = []

    def clock():
        calls.append(1)
        return 0.0

    monkeypatch.setattr(automata.time, "monotonic", clock)
    with time_limit(1.0):
        C = complement_uca(U, ComplementOptions(special=False))
    subsets = len(C.tags["parts"][0])
    # far more batches of ranking states than subset states
    assert C.n_states - subsets > 40 * subsets
    assert len(calls) >= subsets + (C.n_states - subsets) / 16


def test_intersection_matches_the_dict_reference():
    rng = random.Random(11)
    for _ in range(200):
        n_ap = rng.randint(1, 2)
        U = random_uca(rng, rng.randint(1, 3), n_ap=n_ap)
        pairs = [(complement_uca(U), U.reinterpret("NBA")),
                 (random_nba(rng, rng.randint(1, 5), n_ap=n_ap),
                  random_nba(rng, rng.randint(1, 5), n_ap=n_ap))]
        for A, B in pairs:
            mine, theirs = automata.intersect_nba(A, B), ref.intersect_nba(A, B)
            assert (mine.n_states, mine.delta, mine.gamma) \
                == (theirs.n_states, theirs.delta, theirs.gamma)
            assert automata.nonempty_states(mine) \
                == ref.nonempty_states(theirs)


def test_intersection_deadline_expires_between_batches(monkeypatch):
    rng = random.Random(5)
    U = random_uca(rng, 3, n_ap=2)
    A, B = complement_uca(U), U.reinterpret("NBA")
    calls = []

    def clock():
        # entering the limit and the first batch see time 0; the second
        # batch sees the deadline passed
        calls.append(1)
        return 0.0 if len(calls) <= 2 else 100.0

    monkeypatch.setattr(automata.time, "monotonic", clock)
    assert ref.intersect_nba(A, B).n_states > 1
    with time_limit(1.0), pytest.raises(
            TimeoutError, match="^intersection exceeded its deadline$"):
        automata.intersect_nba(A, B)
    assert len(calls) == 3


def test_reduce_05_complement_is_pinned():
    """The generic complement of ``reduce_05``, edge for edge."""
    C = complement_uca(fixture("reduce_05"), ComplementOptions(special=False))
    E = C.edges
    assert (C.n_states, len(E), int(E.acc.sum()),
            C.tags["stats"]["blocked_transitions"]) == (246_080, 1_156_709,
                                                        613_723, 1_311_537)
    digest = hashlib.sha256()
    for column in (E.src, E.let, E.dst):
        digest.update(np.asarray(column, dtype=np.int64).tobytes())
    digest.update(np.asarray(E.acc, dtype=np.uint8).tobytes())
    assert digest.hexdigest() == \
        "3fae463fb0f0907716848351ba8ec7d5a3753a6c3b50e9ba47440773428f50a1"


def held_tight(g, big):
    """Tightness by a table of the ranks held, one row per ranking."""
    alive = g < big
    r = np.where(alive, g, -1)
    top = r.max(axis=1)
    held = np.zeros(top.shape + (big,), dtype=bool)
    ha, ht, hs = np.nonzero(alive)
    held[ha, hs, r[ha, ht, hs]] = True
    return alive.any(axis=1) & (top % 2 == 1) \
        & (held[:, :, 1::2].sum(axis=2) == (top + 1) // 2)


@pytest.mark.parametrize("n", [1, 3, 10, 63, 64, 65, 100, 130])
def test_tightness_by_odd_rank_masks(n):
    rng = np.random.default_rng(n)
    L, m, big = 3, 400, 2 * n
    g = rng.integers(0, big + 1, size=(L, n, m)).astype(np.int16)
    # mostly tight rankings, some with one odd rank moved away or an even
    # rank on top, so both answers occur at every size
    for a in range(L):
        for s in range(m):
            k = rng.integers(1, n + 1)
            who = rng.permutation(n)
            g[a, who[:k], s] = np.arange(1, 2 * k, 2)
            g[a, who[k:], s] = rng.choice([big, *range(2 * k)], n - k)
            if s % 3 == 1:
                g[a, who[rng.integers(k)], s] -= 1
            elif s % 3 == 2 and k < n:
                g[a, who[k], s] = 2 * k
    top = np.where(g < big, g, -1).max(axis=1)
    expect = held_tight(g, big)
    assert 0 < expect.sum() < expect.size
    if n > 64:
        assert top.max() >= 129
    got = complement_module._tight(g, top, complement_module._odd_rank_masks(n))
    assert np.array_equal(got, expect)
