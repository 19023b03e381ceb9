import itertools

import pytest

from omegadp.automata import (
    TOP,
    Alphabet,
    Automaton,
    LassoWord,
    instantiate,
    lasso_member_uca,
)
from omegadp.collect import build_collection


def suffix_lasso(w, t):
    """Base-letter projection of the word from position t on."""
    base = lambda letters: tuple(a for (a, _) in letters)
    if t < len(w.prefix):
        return LassoWord(base(w.prefix[t:]), base(w.cycle))
    k = (t - len(w.prefix)) % len(w.cycle)
    return LassoWord((), base(w.cycle[k:] + w.cycle[:k]))


def promises_hold(schema, w):
    """Every promise made along the word holds from the step it is made."""
    horizon = len(w.prefix) + len(w.cycle)
    for t in range(horizon):
        _, p = (w.prefix + w.cycle)[t]
        if p is not TOP and not lasso_member_uca(instantiate(schema, p),
                                                 suffix_lasso(w, t)):
            return False
    return True


def gfb_schema():
    # accepts from state 0 exactly the words with infinitely many b's
    ab = Alphabet(("b",))
    delta = {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,)}
    gamma = {(1, 0, 1)}
    return Automaton("UCA", ab, 2, None, delta, gamma)


def small_promise_lassos(letters, max_prefix, max_cycle):
    for pl in range(max_prefix + 1):
        for cl in range(1, max_cycle + 1):
            for p in itertools.product(letters, repeat=pl):
                for c in itertools.product(letters, repeat=cl):
                    yield LassoWord(p, c)


def test_collection_language_matches_promise_semantics():
    schema = gfb_schema()
    col = build_collection(schema)
    letters = col.alphabet.letters()
    for w in small_promise_lassos(letters, 1, 2):
        assert lasso_member_uca(col, w) == promises_hold(schema, w), w


def test_trivial_promise_forever_is_accepted():
    schema = gfb_schema()
    col = build_collection(schema)
    assert lasso_member_uca(col, LassoWord((), ((0, TOP),)))


def test_fresh_state_structure():
    schema = gfb_schema()
    col = build_collection(schema)
    fresh = col.tags["collection_initial"]
    assert fresh == schema.n_states
    assert col.initial == fresh
    # the fresh state loops on every letter and nothing enters it
    for a in col.alphabet.letters():
        assert fresh in col.successors(fresh, a)
    for (q, _), targets in col.delta.items():
        assert q == fresh or fresh not in targets


def test_promise_vocabulary_restriction():
    schema = gfb_schema()
    col = build_collection(schema,
                           letters=[(a, p) for a in (0, 1) for p in (0, TOP)])
    assert col.alphabet.promises == (TOP, 0)
    assert col.alphabet.size == 4
    # a letter subset keeps exactly the full collection's moves on it
    letters = ((0, TOP), (1, 0))
    sub = build_collection(schema, letters=letters)
    full = build_collection(schema)
    assert sub.alphabet.promises == (TOP, 0)
    assert sub.alphabet.letters() == list(letters)
    assert sub.delta == {k: v for k, v in full.delta.items()
                         if k[1] in letters}
    assert sub.gamma == {g for g in full.gamma if g[1] in letters}


def test_default_vocabulary_sizes():
    # the trivial promise and one promise per schema state
    col = build_collection(gfb_schema())
    assert col.alphabet.promises == (TOP, 0, 1)
    assert col.alphabet.size == 6


def test_rejects_bad_inputs():
    schema = gfb_schema()
    # a promise is TOP or a schema state, and nothing else
    for bad in (5, -1, True, 1.0, "0", None, frozenset({0}), frozenset()):
        with pytest.raises(ValueError, match="not TOP or a schema state"):
            build_collection(schema, letters=((0, TOP), (0, bad)))
    with pytest.raises(ValueError):
        build_collection(schema.reinterpret("NBA"))
