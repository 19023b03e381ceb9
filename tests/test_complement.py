import time

import numpy as np
import pytest

from omegadp import complement as complement_module
from omegadp import reduction
from omegadp.automata import (
    Alphabet,
    Automaton,
    Explorer,
    LassoWord,
    is_strongly_limit_deterministic,
    lasso_member_nba,
    lasso_member_uca,
    time_limit,
)
from omegadp.collect import build_collection
from omegadp.complement import (
    CapacityError,
    ComplementOptions,
    complement_special,
    complement_uca,
    detect_shape,
)
from conftest import all_lassos, random_uca, untagged
from test_acceptance import safety_collection, shape_fixtures


def assert_same_language(U, C, lassos):
    for w in lassos:
        assert lasso_member_uca(U, w) == lasso_member_nba(C, w), w


def test_infinitely_many_bs():
    ab = Alphabet(("b",))
    delta = {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,)}
    gamma = {(1, 0, 1)}
    U = Automaton("UCA", ab, 2, 0, delta, gamma)
    C = complement_uca(U)
    assert_same_language(U, C, all_lassos(2, 3, 3))
    assert is_strongly_limit_deterministic(C)[0]


def test_random_language_equivalence(rng):
    lassos = all_lassos(2, 2, 4)
    for _ in range(15):
        U = random_uca(rng, rng.randint(1, 4))
        C = complement_uca(U, ComplementOptions(special=False))
        assert_same_language(U, C, lassos)


def test_output_is_strongly_limit_deterministic(rng):
    for _ in range(15):
        U = random_uca(rng, rng.randint(1, 4))
        C = complement_uca(U, ComplementOptions(special=False))
        ok, (q1, q2) = is_strongly_limit_deterministic(C)
        assert ok
        final = C.tags["final"]
        # every accepting transition lies inside the declared second part
        for (q, a, t) in C.gamma:
            assert final[q] and final[t]


def test_odd_entry_restriction_preserves_language(rng):
    lassos = all_lassos(2, 2, 3)
    for _ in range(8):
        U = random_uca(rng, rng.randint(1, 3))
        C_odd = complement_uca(U, ComplementOptions(odd_entry=True, special=False))
        C_all = complement_uca(U, ComplementOptions(odd_entry=False, special=False))
        assert C_odd.n_states <= C_all.n_states
        assert_same_language(U, C_odd, lassos)
        assert_same_language(U, C_all, lassos)


def gfb_collection():
    ab = Alphabet(("b",))
    delta = {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,)}
    gamma = {(1, 0, 1)}
    schema = Automaton("UCA", ab, 2, None, delta, gamma)
    return build_collection(schema)


def test_pinning_on_collection_automata():
    col = gfb_collection()
    pinned = complement_uca(col, ComplementOptions(special=False))
    free = complement_uca(untagged(col), ComplementOptions(special=False))
    assert pinned.n_states <= free.n_states
    letters = col.alphabet.letters()
    lassos = [LassoWord((), (a,)) for a in letters]
    lassos += [LassoWord((a,), (b,)) for a in letters for b in letters]
    lassos += [LassoWord((), (a, b)) for a in letters for b in letters]
    for w in lassos:
        expect = lasso_member_uca(col, w)
        assert lasso_member_nba(pinned, w) == expect
        assert lasso_member_nba(free, w) == expect


def test_pin_refused_with_incoming_transitions():
    ab = Alphabet(("a",))
    delta = {(0, 0): (1,), (1, 0): (0,)}
    U = Automaton("UCA", ab, 2, 0, delta, {(0, 0, 1)},
                  tags={"collection_initial": 1})
    with pytest.raises(ValueError, match="cannot pin state 1"):
        complement_uca(U, ComplementOptions(special=False))
    complement_uca(untagged(U), ComplementOptions(special=False))


def test_detect_reachability_shape():
    U = reachability_uca()
    assert detect_shape(U) == "reachability"
    C = complement_uca(U)
    assert C.tags["construction"] == "special-reachability"
    general = complement_uca(U, ComplementOptions(special=False))
    assert C.n_states <= general.n_states
    assert_same_language(U, C, all_lassos(2, 3, 4))
    assert is_strongly_limit_deterministic(C)[0]


def test_detect_safety_shape_on_adjusted_collection():
    col = safety_collection()
    assert detect_shape(col) == "safety"
    C = complement_uca(col)
    assert C.tags["construction"] == "special-safety"
    general = complement_uca(col, ComplementOptions(special=False))
    assert C.n_states <= general.n_states
    letters = col.alphabet.letters()
    lassos = [LassoWord(p, (c,)) for c in letters for p in [()] + [(a,) for a in letters]]
    lassos += [LassoWord((), (a, b)) for a in letters for b in letters]
    for w in lassos:
        expect = lasso_member_uca(col, w)
        assert lasso_member_nba(C, w) == expect
        assert lasso_member_nba(general, w) == expect
    assert is_strongly_limit_deterministic(C)[0]


def test_special_shape_mismatch_is_rejected():
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)}, {(0, 0, 0)})
    with pytest.raises(ValueError):
        complement_special(U, "reachability")


def test_capacity_budget():
    ab = Alphabet(("a", "b"))
    U = random_uca_for_budget()
    with pytest.raises(CapacityError) as exc:
        complement_uca(U, ComplementOptions(max_states=3, special=False))
    assert exc.value.states_built == 3
    # the special constructions stop exactly at their budget too
    for shape, V in (("reachability", reachability_uca()),
                     ("safety", safety_collection())):
        assert complement_special(V, shape).n_states > 3
        for k in (1, 2, 3):
            with pytest.raises(CapacityError) as exc:
                complement_special(V, shape, ComplementOptions(max_states=k))
            assert exc.value.states_built == k
    # the exploration helper under them numbers keys in first-seen order
    # while the frontier it is reading grows, and stops at its budget
    found = Explorer("a")
    seen = []
    for i, key in found:
        seen.append((i, key))
        if len(key) < 3:
            found.intern(key + "b")
            found.intern(key + "a")
        assert found.intern("a") == 0
    assert found.keys == ["a", "ab", "aa", "abb", "aba", "aab", "aaa"]
    assert seen == list(enumerate(found.keys))
    assert found.ids == {key: i for i, key in enumerate(found.keys)}
    counter = Explorer(0, budget=3)
    with pytest.raises(CapacityError) as exc:
        for _, k in counter:
            counter.intern(k + 1)
    assert exc.value.states_built == 3
    assert counter.keys == [0, 1, 2]


def test_an_exploration_over_its_budget_names_itself():
    walk = Explorer(0, budget=3, what="counting")
    with pytest.raises(CapacityError, match="^counting: state budget of 3 "
                       "exceeded$") as exc:
        for _, k in walk:
            walk.intern(k + 1)
    assert exc.value.states_built == 3


def test_interning_over_the_budget_names_the_construction():
    U = random_uca_for_budget()
    budget = complement_uca(U, ComplementOptions(special=False)).n_states - 1
    with pytest.raises(CapacityError, match="^complement construction: "
                       f"state budget of {budget} exceeded$") as exc:
        complement_uca(U, ComplementOptions(special=False, max_states=budget))
    assert exc.traceback[-1].name == "intern"
    assert exc.value.states_built == budget


def test_entry_rankings_over_the_budget_name_the_construction():
    """Nine states, every move to every state: the full subset's 7,087,261
    entry rankings are counted over the budget before any is built."""
    U = Automaton("UCA", Alphabet(("a",)), 9, 0,
                  {(q, a): tuple(range(9)) for q in range(9) for a in (0, 1)},
                  set())
    with pytest.raises(CapacityError, match="^complement construction: "
                       "state budget of 100 exceeded$") as exc:
        complement_uca(U, ComplementOptions(special=False, max_states=100))
    assert exc.traceback[-1].name == "entry_table"


def reachability_uca():
    ab = Alphabet(("a",))
    delta = {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,), (1, 1): (1,)}
    gamma = {(0, 0, 1), (1, 0, 1), (1, 1, 1)}
    return Automaton("UCA", ab, 2, 0, delta, gamma)


def random_uca_for_budget():
    ab = Alphabet(("a",))
    delta = {(q, a): (0, 1, 2) for q in range(3) for a in (0, 1)}
    gamma = {(0, 0, 1), (1, 1, 2), (2, 0, 0)}
    return Automaton("UCA", ab, 3, 0, delta, gamma)


def test_deadline_abort():
    U = random_uca_for_budget()
    with time_limit(-1), pytest.raises(TimeoutError,
                                       match="complement construction"):
        complement_uca(U, ComplementOptions(special=False))


@pytest.mark.parametrize("index", [0, 1])
def test_special_constructions_honour_the_deadline(index):
    U = shape_fixtures()[index]
    assert complement_uca(U).tags["construction"].startswith("special-")
    with time_limit(-1), pytest.raises(TimeoutError,
                                       match="complement construction"):
        complement_uca(U)


def test_stats_reported():
    """Only the blocked count, which the automaton cannot give."""
    U = random_uca_for_budget()
    C = complement_uca(U, ComplementOptions(special=False))
    assert list(C.tags["stats"]) == ["blocked_transitions"]
    assert C.tags["stats"]["blocked_transitions"] > 0
    for V in shape_fixtures():
        assert complement_uca(V).tags["stats"] == {"blocked_transitions": 0}


def dicts_built(A):
    """Which of the dict views ``delta`` and ``gamma`` of ``A`` were made,
    read from the instance so that nothing makes them."""
    return [name for name in ("delta", "gamma") if name in vars(A)]


@pytest.mark.parametrize("construction", ["rank", "special-reachability",
                                          "special-safety"])
def test_no_dicts_are_built_on_either_side(construction):
    """Every construction reads its input's edge arrays and emits edge
    arrays."""
    U = {"rank": random_uca_for_budget(),
         "special-reachability": reachability_uca(),
         "special-safety": safety_collection()}[construction]
    C = complement_uca(U)
    assert C.tags["construction"] == construction
    assert dicts_built(U) == dicts_built(C) == []
    # a view is made when it is read, and kept
    assert U.delta is U.delta and dicts_built(U) == ["delta"]


def test_requires_instantiated_uca():
    ab = Alphabet(("a",))
    nba = Automaton("NBA", ab, 1, 0, {(0, 0): (0,)}, {(0, 0, 0)})
    with pytest.raises(ValueError):
        complement_uca(nba)
    schema = Automaton("UCA", ab, 1, None, {(0, 0): (0,)}, {(0, 0, 0)})
    with pytest.raises(ValueError):
        complement_uca(schema)


def test_entry_ranking_count_is_the_number_built():
    for m in range(1, 7):
        for odd_only in (True, False):
            for pin in (None, m - 1):
                built = complement_module._tight_rankings(m, odd_only, pin)
                assert complement_module._n_tight_rankings(
                    m, odd_only, pin is not None) == len(built)
    # odd entry rankings of m states are the ordered set partitions
    assert complement_module._n_tight_rankings(10, True, False) == 102_247_563


def test_entry_rankings_over_budget_fail_before_they_are_built(monkeypatch):
    """Nine states, every move to every state: the entry rankings of the
    full subset alone (7,087,261 of them) exceed the budget."""
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 9, 0,
                  {(q, a): tuple(range(9)) for q in range(9) for a in (0, 1)},
                  set())
    sizes = []
    real = complement_module._tight_rankings

    def tight_rankings(m, odd_only, pin):
        sizes.append(m)
        return real(m, odd_only, pin)

    monkeypatch.setattr(complement_module, "_tight_rankings", tight_rankings)
    t0 = time.monotonic()
    with time_limit(0.5), pytest.raises(CapacityError) as exc:
        complement_uca(U, ComplementOptions(special=False, max_states=100))
    assert time.monotonic() - t0 < 0.5
    assert exc.value.states_built == 100
    assert sizes == []


def test_entry_ranking_build_honours_the_deadline():
    # the builder itself, not the memo, whose kept table would skip the build
    with time_limit(-1), pytest.raises(TimeoutError,
                                       match="complement construction"):
        complement_module._tight_rankings(5, True, None)


def test_entry_rankings_are_built_once_per_process(monkeypatch):
    """Two constructions jump into a subset of two states, unpinned, and
    share one read-only table."""
    got = []
    real = complement_module._kept_rankings

    def kept_rankings(m, odd_only, pin):
        got.append(((m, odd_only, pin), real(m, odd_only, pin)))
        return got[-1][1]

    monkeypatch.setattr(complement_module, "_kept_rankings", kept_rankings)
    ab = Alphabet(("p",))
    delta = {(q, a): (0, 1) for q in range(2) for a in (0, 1)}
    for gamma in ({(0, 1, 0)}, {(1, 0, 1), (0, 0, 1)}):
        U = Automaton("UCA", ab, 2, 0, delta, gamma)
        complement_uca(U, ComplementOptions(special=False))
    tables = [table for key, table in got if key == (2, True, None)]
    assert len(tables) == 2 and tables[0] is tables[1]
    assert not tables[0].flags.writeable
    with pytest.raises(ValueError):
        tables[0][0, 0] = 7


def test_large_entry_rankings_last_one_construction(monkeypatch):
    """Seven states, every move to every state: the full subset's entry
    rankings (47,293 rows of 7 cells) are over the memo's bound, so each
    construction builds them once for itself and the memo keeps nothing,
    also when the construction then runs over its state budget."""
    built = []
    real = complement_module._tight_rankings

    def tight_rankings(m, odd_only, pin):
        built.append(m)
        return real(m, odd_only, pin)

    monkeypatch.setattr(complement_module, "_tight_rankings", tight_rankings)
    complement_module._kept_rankings.cache_clear()
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 7, 0,
                  {(q, a): tuple(range(7)) for q in range(7) for a in (0, 1)},
                  set())
    # the complement has 47,295 states: the table passes the count check,
    # then interning its rows runs one state over the budget
    for _ in range(2):
        with pytest.raises(CapacityError):
            complement_uca(U, ComplementOptions(special=False,
                                                max_states=47_294))
    assert built == [7, 7]
    assert complement_module._kept_rankings.cache_info().currsize == 0


def test_no_jump_enters_a_ranking_without_a_move(rng):
    """An entry ranking that every letter blocks is neither built nor
    jumped to; its blocked updates still count, once."""
    for _ in range(30):
        U = random_uca(rng, rng.randint(1, 5))
        C = complement_uca(U, ComplementOptions(special=False))
        E, final = C.edges, C.tags["final"]
        jumps = ~final[E.src] & final[E.dst]
        moves = np.bincount(E.src, minlength=C.n_states)
        assert (moves[E.dst[jumps]] > 0).all()
    # one state, a rejecting self-loop on letter 0 and none on letter 1:
    # the entry ranking (1) of {0} goes on letter 1 and blocks on letter 0
    ab = Alphabet(("p",))
    U = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)}, {(0, 0, 0)})
    C = complement_uca(U, ComplementOptions(special=False))
    assert C.n_states == 2 and C.tags["stats"]["blocked_transitions"] == 1
    # every letter blocks it when both self-loops reject: only the subset
    # is built, and the entry's two blocked updates count
    U = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)},
                  {(0, 0, 0), (0, 1, 0)})
    C = complement_uca(U, ComplementOptions(special=False))
    assert C.n_states == 1 and C.tags["stats"]["blocked_transitions"] == 2


def test_the_ranking_update_leaves_its_rows_unchanged():
    """A batch of one ranking state is one row of the stored table; the
    update must not write its placeholder for absent states into it."""
    U = Automaton("UCA", Alphabet(("p",)), 3, 0,
                  {(0, 0): (0, 1), (0, 1): (2,), (1, 0): (1,), (2, 1): (0, 2)},
                  {(0, 0, 1), (2, 1, 2)})
    E, n = U.edges, U.n_states
    mv = complement_module._Moves(
        n, len(E.letters), *complement_module._move_groups(E, n),
        complement_module._odd_rank_masks(n), None)
    rows = np.zeros((3, 2 * n + 1), dtype=np.int16)
    rows[:, :n] = [[1, -1, -1], [-1, 1, 3], [3, 1, -1]]
    before = rows.copy()
    for lo in range(3):
        complement_module._ranking_update(rows[lo:lo + 1], mv)
    complement_module._ranking_update(rows, mv)
    assert np.array_equal(rows, before)


def test_a_pointwise_larger_entry_ranking_can_accept_less():
    """Entry rankings f <= f' of one subset, yet L(f) is not included in
    L(f'): f' = (1, 3) blocks on letter 0, where f = (1, 1) goes on.  So
    the pointwise-maximal entry rankings alone do not give the language."""
    ab = Alphabet(("p",))
    U = Automaton("UCA", ab, 2, 0, {(0, 1): (0, 1), (1, 0): (0, 1)}, set())
    C = complement_uca(U, ComplementOptions(special=False))
    entries = complement_module._tight_rankings(2, True, None)
    assert entries.tolist() == [[1, 1], [1, 3], [3, 1]]
    # the start subset {0} jumps on letter 1 to subset {0, 1} and to its
    # entry rankings, interned in the order listed
    targets = C.successors(C.initial, 1)
    sub, f, f2, _ = targets
    assert np.flatnonzero(~C.tags["final"]).tolist() == [C.initial, sub]
    assert C.successors(f2, 0) == ()
    assert C.successors(f, 0) != ()
    T, mark = reduction._successor_table(C.n_states, C.edges)
    fails = reduction._inclusion_fails(T, mark, np.array([f, f2]),
                                       np.array([f2, f]))
    assert fails.tolist() == [True, False]
