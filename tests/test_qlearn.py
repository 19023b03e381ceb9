import pytest

from omegadp.automata import Alphabet
from omegadp.mdp import (
    STUCK,
    Strategy,
    discounted_vi,
    product_with_nba,
    strategy_value_check,
)
from omegadp.odp import Odp, remove_lookahead, remove_lookback
from omegadp.qlearn import LexQTables, lex_q_learn, policy_arrows, \
    render_policy

import qlearn_reference
from conftest import example2_odp


def compile_product(D):
    M, N = remove_lookahead(remove_lookback(D))
    return product_with_nba(M, N)


def chain_odp():
    """Two rooms, no promises; staying right pays better."""
    ab = Alphabet(("b",))
    left, right = (None, "left", None), (None, "right", None)
    acts = {s: (left, right) for s in (0, 1)}
    trans = {(s, left): ((0, 1.0),) for s in (0, 1)}
    trans.update({(s, right): ((1, 1.0),) for s in (0, 1)})
    rewards = {(s, right, 1): 1.0 for s in (0, 1)}
    return Odp(2, 0, acts, trans, ab, (0, 1), rewards=rewards)


def test_hyperparameter_validation():
    P = compile_product(chain_odp())
    with pytest.raises(ValueError):
        lex_q_learn(P, episodes=1, lam=1.0)
    with pytest.raises(ValueError):
        lex_q_learn(P, episodes=1, zeta=0.0)
    with pytest.raises(ValueError):
        lex_q_learn(P, episodes=0)


def test_trivial_promises_degenerate_to_q_learning():
    D = chain_odp()
    P = compile_product(D)
    tab, sigma = lex_q_learn(P, episodes=500, steps=200, lam=0.9, zeta=0.5,
                             seed=3)
    # with no promises every transition checks out, so q_sat goes flat
    values = [v for v, n in zip(tab.sat, tab.updates) if n]
    assert max(values) - min(values) < 0.05
    sat, disc = strategy_value_check(P, sigma, 0.9)
    v, _ = discounted_vi(P, 0.9)
    assert sat == pytest.approx(1.0)
    assert disc == pytest.approx(v[P.initial], abs=0.05)


def test_example2_learning():
    lam = 0.99
    P = compile_product(example2_odp())
    tab, sigma = lex_q_learn(P, episodes=400, steps=250, lam=lam, zeta=0.8,
                             seed=7)
    sat, disc = strategy_value_check(P, sigma, lam)
    assert sat == pytest.approx(1.0)
    assert disc >= 1.0 / (1.0 - lam) - 0.05


def row_keys(P):
    A = P.arrays
    return list(zip(A.state.tolist(), A.action))


def assert_matches_reference(P, got, want):
    """Every row's values and update count, and the strategy if there is
    one, agree exactly with the reference run's."""
    (tab, sigma), (ref, ref_sigma) = got, want
    for k, (s, a) in enumerate(row_keys(P)):
        assert (tab.sat[k], tab.rec[k], tab.disc[k], tab.updates[k]) == (
            ref.sat(s, a), ref.rec(s, a), ref.disc(s, a),
            ref.visits.get((s, a), 0)), (s, a)
    if sigma is not None:
        assert sigma.switch_step == ref_sigma.switch_step
        assert sigma.first.choices == ref_sigma.first.choices
        assert sigma.second.choices == ref_sigma.second.choices


def both_learners(P, **kw):
    return (lex_q_learn(P, **kw), qlearn_reference.lex_q_learn(P, **kw))


def test_rows_match_the_dict_reference():
    P = compile_product(example2_odp())
    for seed in range(5):
        for optimism in (0.0, 1.0):
            assert_matches_reference(P, *both_learners(
                P, episodes=40, steps=60, seed=seed, optimism=optimism))
    chain = compile_product(chain_odp())
    assert_matches_reference(chain, *both_learners(
        chain, episodes=100, steps=50, lam=0.9, zeta=0.5, seed=3))


def test_staged_rows_match_the_dict_reference():
    P = compile_product(example2_odp())
    (tab, _), (ref, _) = both_learners(P, episodes=20, steps=50, seed=2,
                                       optimism=1.0)
    got = lex_q_learn(P, episodes=20, steps=50, seed=3, explore=0.2,
                      tables=tab)
    want = qlearn_reference.lex_q_learn(P, episodes=20, steps=50, seed=3,
                                        explore=0.2, tables=ref)
    assert_matches_reference(P, got, want)


def test_diverged_rows_match_the_dict_reference():
    P = compile_product(example2_odp())
    tab, ref = LexQTables(P), qlearn_reference.LexQTables()
    for learn, tables in ((lex_q_learn, tab),
                          (qlearn_reference.lex_q_learn, ref)):
        with pytest.raises(RuntimeError, match="diverged"):
            learn(P, episodes=5, steps=100, value_cap=1e-9, tables=tables)
    assert_matches_reference(P, (tab, None), (ref, None))


def test_strategy_is_greedy_in_the_returned_tables():
    P = compile_product(example2_odp())
    for optimism in (0.0, 1.0):
        tab, sigma = lex_q_learn(P, episodes=30, steps=40, seed=5,
                                 optimism=optimism)
        # the reference's greedy rules, read over the same values
        ref = qlearn_reference.LexQTables()
        for k, key in enumerate(row_keys(P)):
            ref.q_sat[key], ref.q_rec[key], ref.q_disc[key] = \
                tab.sat[k], tab.rec[k], tab.disc[k]
        for s in range(P.n_states):
            assert sigma.first.choices[s] == ref.lex_greedy(P, s)
            assert sigma.second.choices[(s, 0)] == ref.sat_greedy(P, s)


def test_divergence_guard():
    P = compile_product(example2_odp())
    with pytest.raises(RuntimeError, match="diverged"):
        lex_q_learn(P, episodes=5, steps=100, value_cap=1e-9)
    # the update that broke the cap is in the tables handed in
    tab = LexQTables(P)
    with pytest.raises(RuntimeError, match="diverged"):
        lex_q_learn(P, episodes=5, steps=100, value_cap=1e-9, tables=tab)
    assert any(max(abs(tab.sat[k]), abs(tab.rec[k]), abs(tab.disc[k]))
               > 1e-9 for k, n in enumerate(tab.updates) if n)


def test_tables_of_another_product_are_refused():
    P = compile_product(example2_odp())
    with pytest.raises(ValueError, match="rows"):
        lex_q_learn(P, episodes=1, tables=LexQTables(
            compile_product(chain_odp())))


def test_staged_training_continues_the_tables():
    P = compile_product(example2_odp())
    tab, _ = lex_q_learn(P, episodes=20, steps=50, seed=2)
    before = dict(tab.visits)
    steps = sum(before.values())
    tab2, _ = lex_q_learn(P, episodes=20, steps=50, seed=3, tables=tab)
    assert tab2 is tab
    # counts go on from the first stage; the pairs come in row order
    assert list(tab.visits) == [k for k in row_keys(P) if k in tab.visits]
    assert all(tab.visits[k] >= n for k, n in before.items())
    assert sum(tab.visits.values()) > steps
    assert len(tab.sat) == len(tab.rec) == len(tab.disc) \
        == len(tab.updates) == len(P.arrays.action)


def test_full_exploration_covers_reachable_states():
    P = compile_product(example2_odp())
    tab, _ = lex_q_learn(P, episodes=200, steps=100, explore=1.0, seed=1)
    reachable = {P.initial}
    stack = [P.initial]
    while stack:
        s = stack.pop()
        for a in P.actions.get(s, ()):
            for t, p in P.trans[(s, a)]:
                if p > 0 and t not in reachable:
                    reachable.add(t)
                    stack.append(t)
    visited = {s for s, _ in tab.visits}
    assert visited == {s for s in reachable if P.actions[s] != (STUCK,)}


def test_render_policy_bare_and_arrows():
    from omegadp.biolab import default_grid
    grid = default_grid()
    bare = render_policy(grid, {})
    assert bare == render_policy(grid, {})
    assert "H" in bare and "C" in bare and "D" in bare and "z" in bare
    assert "~" in bare and "^" not in bare
    arrows = {0: {(1, 1): "N", (1, 2): "E"}, 1: {(1, 1): "S"}}
    out = render_policy(grid, arrows)
    assert out.count("mode") == 2
    assert "^" in out and ">" in out and "v" in out
    assert "H" not in out  # the home cell is covered by arrows in both modes


def test_policy_arrows_groups_by_automaton_state():
    D = chain_odp()
    P = compile_product(D)
    # every state's first row
    first = Strategy("positional", rows=P.arrays.first[:-1],
                     arrays=P.arrays)
    cells = {0: (0, 0), 1: (1, 0)}
    arrows = policy_arrows(P, first, lambda x: cells[P.pairs[x][0]])
    assert arrows
    for mode, grid in arrows.items():
        for cell, direction in grid.items():
            assert cell in ((0, 0), (1, 0))
            assert direction in ("left", "right")
