import random
import tracemalloc

import numpy as np
import pytest

import signature_reference as reference
from omegadp import lasso_bulk
from omegadp.automata import (
    Alphabet, Automaton, is_strongly_limit_deterministic, lasso_member_nba,
    lasso_member_uca)
from omegadp.complement import complement_uca
from omegadp.lasso_bulk import (
    bounded_lassos, dsa_signature, mismatches, nba_signature, uca_signature)
from omegadp.streett import StreettDsa, determinize_uca, lasso_member_dsa

from conftest import random_nba, random_uca


def test_bounded_lassos_count_and_order():
    words = bounded_lassos(range(2), 3)
    # cycle length 1: 2 cycles x (1 + 2 + 4) prefixes, length 2: 4 x 3,
    # length 3: 8 x 1
    assert len(words) == 2 * 7 + 4 * 3 + 8 * 1
    assert words[0].prefix == () and words[0].cycle == (0,)
    assert len(set(words)) == len(words)
    # signature order: all of the first cycle's prefixes come first
    heads = [w.cycle for w in words[:7]]
    assert heads == [(0,)] * 7


def test_nba_signature_matches_single_word_checker(rng):
    words = bounded_lassos(range(4), 4)
    for _ in range(25):
        A = random_nba(rng, rng.randint(1, 4), n_ap=2)
        sig = nba_signature(A, 4)
        ref = np.array([lasso_member_nba(A, w) for w in words])
        assert np.array_equal(sig, ref)


def test_uca_signature_matches_single_word_checker(rng):
    words = bounded_lassos(range(4), 4)
    for _ in range(25):
        A = random_uca(rng, rng.randint(1, 4), n_ap=2)
        sig = uca_signature(A, 4)
        ref = np.array([lasso_member_uca(A, w) for w in words])
        assert np.array_equal(sig, ref)


def test_limit_deterministic_path_matches_on_complements(rng):
    words = bounded_lassos(range(4), 4)
    for _ in range(10):
        A = random_uca(rng, rng.randint(1, 3), n_ap=2)
        C = complement_uca(A)
        sig = nba_signature(C, 4)
        ref = np.array([lasso_member_nba(C, w) for w in words])
        assert np.array_equal(sig, ref)


def test_dsa_signature_matches_single_word_checker(rng):
    words = bounded_lassos(range(4), 4)
    for _ in range(10):
        A = random_uca(rng, rng.randint(1, 3), n_ap=2)
        D = determinize_uca(A)
        sig = dsa_signature(D, 4)
        ref = np.array([lasso_member_dsa(D, w) for w in words])
        assert np.array_equal(sig, ref)


def chain_into_cycle(n, jump=True, missing=()):
    """A chain of ``n`` states, then a hub, then a cycle of 7 (coprime to
    every cycle length up to 6) whose one accepting edge leaves the cycle's
    first state on letter 1.

    With ``jump`` the hub loops on itself and also jumps to the cycle, so
    chain and hub are part one and the first winning jump lies ``n`` steps
    from the start; without it the automaton is deterministic and starts
    in part two.  ``missing`` lists cycle moves ``(j, letter)`` left out,
    which send runs to the sink.
    """
    hub, cyc = n, [n + 1 + j for j in range(7)]
    delta = {}
    for a in (0, 1):
        for i in range(n):
            delta[(i, a)] = (i + 1,)
        delta[(hub, a)] = (hub, cyc[0]) if jump else (cyc[0],)
        for j in range(7):
            if (j, a) not in missing:
                delta[(cyc[j], a)] = (cyc[(j + 1) % 7],)
    return Automaton("NBA", Alphabet(("b",)), n + 8, 0, delta,
                     {(cyc[0], 1, cyc[1])})


def chain_into_cycle_dsa(n):
    """A chain of ``n`` states into a cycle of 7 as a Streett automaton
    with ``chain_into_cycle``'s language: pair ``x`` collapses on every
    cycle edge and is unstable only on the edge from the cycle's first
    state on letter 1; pair ``y`` collapses on the chain's last edges, so
    a loop window that still overlaps the chain rejects."""
    cyc = [n + j for j in range(7)]
    delta = {}
    for a in (0, 1):
        for i in range(n - 1):
            delta[(i, a)] = i + 1
        delta[(n - 1, a)] = cyc[0]
        for j in range(7):
            delta[(cyc[j], a)] = cyc[(j + 1) % 7]
    pairs = {"x": ({(c, a) for c in cyc for a in (0, 1)}, {(cyc[0], 1)}),
             "y": ({(n - 1, 0), (n - 1, 1)}, set())}
    return StreettDsa(Alphabet(("b",)), n + 7, 0, delta, pairs)


def test_signatures_match_the_doubling_reference(rng):
    bound = 6
    for _ in range(60):
        A = random_uca(rng, rng.randint(1, 4), n_ap=2)
        C = complement_uca(A)
        assert np.array_equal(nba_signature(C, bound),
                              reference.nba_signature(C, bound))
        D = determinize_uca(A)
        assert np.array_equal(dsa_signature(D, bound),
                              reference.dsa_signature(D, bound))
    # n = 9 and 17 put the chain's end one step past a doubling window
    # that is a round short; 1, 2, 8 and 16 sit at the window edges
    hand = [chain_into_cycle(n) for n in (1, 2, 8, 9, 16, 17)]
    hand.append(chain_into_cycle(9, jump=False))
    hand.append(chain_into_cycle(9, missing={(3, 0)}))
    for A in hand:
        flag, (q1, q2) = is_strongly_limit_deterministic(A)
        assert flag and len(q2) == (A.n_states if 0 in q2 else 7)
        sig = nba_signature(A, bound)
        assert sig.any() and not sig.all()
        assert np.array_equal(sig, reference.nba_signature(A, bound))
    for n in (1, 2, 8, 9, 16, 17):
        D = chain_into_cycle_dsa(n)
        sig = dsa_signature(D, bound)
        assert sig.any() and not sig.all()
        assert np.array_equal(sig, reference.dsa_signature(D, bound))


def test_signatures_match_the_frozen_generic_reference():
    rng = random.Random(2024)
    for i in range(200):
        n_ap, bound = 1 + i % 2, 4 + i % 3
        A = random_nba(rng, rng.randint(1, 8), n_ap=n_ap)
        assert np.array_equal(nba_signature(A, bound),
                              reference.nba_signature(A, bound))
        U = random_uca(rng, rng.randint(1, 8), n_ap=n_ap)
        assert np.array_equal(
            uca_signature(U, bound),
            ~reference.nba_signature(U.reinterpret("NBA"), bound))


def test_generic_signature_of_an_automaton_split_into_chunks(monkeypatch):
    # 45 states on 4 letters: the rotation classes of the cycle words up to
    # length 6 do not fit in one slice of the budget
    monkeypatch.setattr(lasso_bulk, "_BUDGET", 1 << 22)
    A = random_nba(random.Random(0), 45, n_ap=2, p_edge=0.03, p_accept=0.05)
    assert not is_strongly_limit_deterministic(A)[0]
    reps, _ = lasso_bulk._cycle_batch(4, 6)
    assert lasso_bulk._BUDGET // (4 * 45 * (8 * 45 + 6)) < len(reps)
    sig = nba_signature(A, 6)
    assert sig.any() and not sig.all()
    assert np.array_equal(sig, reference.nba_signature(A, 6))


@pytest.mark.parametrize("cells", [1, 40, 300])
def test_generic_signature_with_few_kept_words(monkeypatch, cells):
    # tiny working arrays of that many float32 cells: few or no word
    # levels are kept, so the words are extended letter by letter in many
    # small chunks
    monkeypatch.setattr(lasso_bulk, "_BUDGET", 4 * cells)
    rng = random.Random(cells)
    tested = 0
    while tested < 4:
        A = random_nba(rng, rng.randint(1, 5), n_ap=2)
        if is_strongly_limit_deterministic(A)[0]:
            continue
        assert np.array_equal(nba_signature(A, 5),
                              reference.nba_signature(A, 5))
        tested += 1


def test_deterministic_automaton_uses_fast_path():
    # GF(letter 1) as a two-state DBA; fully deterministic automata take
    # the limit-deterministic route with an empty first part
    ab = Alphabet(("b",))
    A = Automaton("DBA", ab, 2, 0,
                  {(0, 0): (0,), (0, 1): (1,), (1, 0): (0,), (1, 1): (1,)},
                  {(0, 1, 1), (1, 1, 1)})
    sig = nba_signature(A.reinterpret("NBA"), 5)
    words = bounded_lassos(range(2), 5)
    for w, got in zip(words, sig):
        assert got == (1 in w.cycle)


def test_mismatches_reports_differing_words(rng):
    A = random_nba(rng, 3, n_ap=1)
    sig = nba_signature(A, 3)
    flipped = sig.copy()
    flipped[5] ^= True
    bad = mismatches(sig, flipped, range(2), 3)
    assert bad == [bounded_lassos(range(2), 3)[5]]
    assert mismatches(sig, sig, range(2), 3) == []


def test_mismatches_stop_at_the_limit_across_slices(monkeypatch):
    monkeypatch.setattr(lasso_bulk, "_BUDGET", 4 * 17)
    words = bounded_lassos(range(2), 3)
    sig = np.zeros(len(words), dtype=bool)
    sig[[2, 3, 9, 17, 30]] = True
    assert mismatches(sig, ~sig, range(2), 3, limit=len(words)) == words
    assert mismatches(np.zeros_like(sig), sig, range(2), 3, limit=4) == \
        [words[i] for i in (2, 3, 9, 17)]


@pytest.mark.parametrize("n_letters", [1, 2, 3, 4])
def test_signature_positions_decode_to_the_enumeration(n_letters):
    letters = "abcd"[:n_letters]
    for bound in range(1, 6):
        words = bounded_lassos(letters, bound)
        assert [lasso_bulk._lasso_at(i, letters, bound)
                for i in range(len(words))] == words


def test_least_rotations_are_the_reference_representatives():
    for n_letters in range(1, 5):
        for cl in range(1, 6):
            reps, _, _ = reference._rotation_classes(n_letters, cl)
            codes = reps @ n_letters ** np.arange(cl - 1, -1, -1)
            assert np.array_equal(
                lasso_bulk._least_rotations(n_letters, cl), codes)


def test_cycle_layout_is_built_once_per_letters_and_bound(rng):
    lasso_bulk._cycle_batch.cache_clear()
    A = random_nba(rng, 3, n_ap=2)
    first = nba_signature(A, 5)
    assert np.array_equal(nba_signature(A, 5), first)
    info = lasso_bulk._cycle_batch.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_cycle_layout_is_read_only():
    code, (start, length, W, words) = lasso_bulk._cycle_batch(4, 5)
    assert isinstance(start, tuple) and isinstance(words, tuple)
    for a in (code, length, W, *words):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def _layout_by_formula(n_letters, bound):
    """``_cycle_batch`` computed in int64 over all representatives at once:
    lengths by search in ``start``, padded letters by one ``np.where`` and
    the rotated codes by ``_rotate``."""
    L = n_letters
    codes = [lasso_bulk._least_rotations(L, cl) for cl in range(1, bound + 1)]
    code = np.concatenate(codes)
    start = np.cumsum([0] + [len(c) for c in codes])
    phase = np.arange(bound + 1)[:, None]
    length = np.searchsorted(start, np.arange(len(code)), side="right")
    W = np.where(phase < length, code // L ** np.maximum(
        length - 1 - phase, 0) % L, L)
    words = [lasso_bulk._rotate(code[start[cl - 1]:start[cl]], phase[:cl],
                                L, cl) for cl in range(1, bound + 1)]
    return code, start, length, W, words


@pytest.mark.parametrize("n_letters", [2, 4])
def test_cycle_layout_matches_its_formulas(n_letters):
    for bound in range(1, 8):
        code, start, length, W, words = _layout_by_formula(n_letters, bound)
        got, (start2, length2, W2, words2) = lasso_bulk._cycle_batch(
            n_letters, bound)
        assert np.array_equal(got, code)
        assert start2 == tuple(start)
        assert np.array_equal(length2, length) and length2.dtype == np.uint8
        assert np.array_equal(W2, W) and W2.dtype == np.uint8
        assert len(words2) == bound
        for cl, (a, b) in enumerate(zip(words2, words), 1):
            assert a.dtype == np.min_scalar_type(n_letters ** cl - 1)
            assert np.array_equal(a, b)


def test_signatures_on_a_wide_alphabet():
    # 8 propositions: 256 letters, so the padding letter 256 needs uint16
    rng = random.Random(8)
    ab = Alphabet(tuple("abcdefgh"))
    delta, gamma = {}, set()
    for q in range(3):
        for a in ab.letters():
            ts = tuple(t for t in range(3) if rng.random() < 0.5)
            if ts:
                delta[(q, a)] = ts
                gamma.update((q, a, t) for t in ts if rng.random() < 0.3)
    A = Automaton("NBA", ab, 3, 0, delta, gamma)
    C = complement_uca(A.reinterpret("UCA"))
    assert lasso_bulk._cycle_batch(256, 2)[1][2].dtype == np.uint16
    sigs = [nba_signature(X, 2) for X in (A, C)]
    assert np.array_equal(sigs[1], ~sigs[0])
    sample = random.Random(1).sample(range(len(sigs[0])), 300)
    for X, sig in zip((A, C), sigs):
        assert sig.any() and not sig.all()
        for i in sample:
            w = lasso_bulk._lasso_at(i, ab.letters(), 2)
            assert sig[i] == lasso_member_nba(X, w), (i, w)


@pytest.mark.parametrize("bound", [0, -2])
def test_signatures_reject_a_bound_below_one(bound):
    U = random_uca(random.Random(3), 2, n_ap=1)
    D = determinize_uca(U)
    for sign, A in ((nba_signature, U.reinterpret("NBA")),
                    (nba_signature, complement_uca(U)),
                    (uca_signature, U), (dsa_signature, D)):
        with pytest.raises(ValueError,
                           match=f"bound must be at least 1, got {bound}$"):
            sign(A, bound)


def test_signatures_stay_in_their_working_set():
    # the largest complement and determinisation of a fixed corpus of
    # random UCAs: one call's traced peak, output included, at bound 6
    rng = random.Random(7)
    corpus = [random_uca(rng, 1 + i % 4, n_ap=2) for i in range(80)]
    C = max((complement_uca(A) for A in corpus), key=lambda C: C.n_states)
    D = max((determinize_uca(A) for A in corpus), key=lambda D: D.n_states)
    U = max(corpus, key=lambda A: A.n_states)
    for sign, A in ((nba_signature, C), (dsa_signature, D),
                    (uca_signature, U)):
        sign(A, 6)  # the rotation classes are built once per process
        tracemalloc.start()
        try:
            sign(A, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20, (sign.__name__, peak)
