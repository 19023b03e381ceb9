import hashlib

import pytest

from omegadp.automata import LassoWord, instantiate, lasso_member_uca
from omegadp.biolab import (DIRTY_PROMISE, HOME_PROMISE, SINCE_GUARD,
                            BiolabGrid,
                            build_biolab, default_grid, guard_schema,
                            lookahead_schema)
from omegadp.mdp import strategy_to_json, strategy_value_check
from omegadp.odp import solve_odp
from omegadp.qlearn import lex_q_learn

CLEAN, DIRTY, DECON, HOME = 1, 2, 4, 8


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_biolab(f1=2.0, f2=1.0)
    with pytest.raises(ValueError):
        build_biolab(rho=1.5, f2=2.0)
    with pytest.raises(ValueError):
        build_biolab(xi=0.0)
    with pytest.raises(ValueError):
        build_biolab(p_slip=1.5)
    with pytest.raises(ValueError):
        build_biolab(p_zap=-0.1)


def test_map_geometry():
    g = default_grid()
    assert (g.width, g.height) == (12, 9)
    assert g.home == (1, 1)
    assert g.clean_lab == (6, 3)
    assert g.dirty_lab == (5, 3)
    assert g.decon1 == (0, 4)
    assert g.decon2 == (4, 1)
    assert g.zapper == frozenset({(7, 2), (7, 3)})
    assert (5, 3) in g.dirty_area and (6, 3) not in g.dirty_area
    assert (0, 6) in g.dirty_area and (0, 5) not in g.dirty_area
    # the south boundary of the lab band has doors at x = 1, 7, 10 only
    assert g.move((1, 2), "N") == (1, 3)
    assert g.move((2, 2), "N") == (2, 2)
    assert g.move((10, 2), "N") == (10, 3)
    # the zapper boundary is not a wall, the zap is probabilistic
    assert g.move((7, 2), "N") == (7, 3)
    # vertical room walls have doors at y = 1 and y = 7
    assert g.move((2, 1), "E") == (3, 1)
    assert g.move((2, 2), "E") == (2, 2)
    assert g.move((2, 7), "E") == (3, 7)


def test_labels():
    g = default_grid()
    assert g.label(g.clean_lab) == CLEAN
    assert g.label(g.dirty_lab) == DIRTY
    assert g.label(g.decon1) == DECON
    assert g.label(g.decon2) == DECON
    assert g.label(g.home) == HOME
    assert g.label((2, 2)) == 0


def test_home_promise_language():
    A = instantiate(lookahead_schema(), HOME_PROMISE)
    assert lasso_member_uca(A, LassoWord((), (CLEAN, DIRTY)))
    assert lasso_member_uca(A, LassoWord((0, 0), (CLEAN, 0, DIRTY)))
    # never visiting a lab breaks the recurrence conjuncts
    assert not lasso_member_uca(A, LassoWord((), (0,)))
    assert not lasso_member_uca(A, LassoWord((), (CLEAN,)))
    assert not lasso_member_uca(A, LassoWord((), (DIRTY,)))
    # returning home infinitely often breaks the last conjunct
    assert not lasso_member_uca(A, LassoWord((), (CLEAN, DIRTY, HOME)))
    # finitely many returns in the prefix are fine
    assert lasso_member_uca(A, LassoWord((HOME, HOME), (CLEAN, DIRTY)))


def test_dirty_promise_language():
    A = instantiate(lookahead_schema(), DIRTY_PROMISE)
    assert lasso_member_uca(A, LassoWord((DECON,), (CLEAN,)))
    assert lasso_member_uca(A, LassoWord((0, DECON, CLEAN), (0,)))
    assert not lasso_member_uca(A, LassoWord((), (CLEAN,)))
    assert not lasso_member_uca(A, LassoWord((0, CLEAN), (DECON,)))
    # never entering the clean lab releases the obligation
    assert lasso_member_uca(A, LassoWord((), (0, DIRTY)))


def test_guard_prefixes():
    B = guard_schema()

    def run(q, word):
        for letter in word:
            succ = B.successors(q, letter)
            q = succ[0]
        return q in B.final_states

    assert run(SINCE_GUARD, [CLEAN])
    assert run(SINCE_GUARD, [CLEAN, 0, 0])
    assert not run(SINCE_GUARD, [CLEAN, DIRTY])
    assert not run(SINCE_GUARD, [CLEAN, DIRTY, 0])
    assert run(SINCE_GUARD, [CLEAN, DIRTY, CLEAN])
    assert not run(SINCE_GUARD, [0])
    assert run(0, [DIRTY, DIRTY])


def _reachable_odp_states(sigma):
    """ODP states visited with positive probability under the strategy."""
    P, inner = sigma.product, sigma.inner
    seen = set()
    start = inner.start(P.initial)
    visited = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        x = node[0]
        seen.add(sigma.odp_state_of[x])
        for t, p in P.trans[(x, inner.action(node))]:
            nxt = inner.step(node, t)
            if p > 0 and nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
    return seen


def test_optimal_routes():
    lam, eps = 0.99, 0.01
    D = build_biolab()
    value, sigma = solve_odp(D, lam, eps)
    sat, disc = strategy_value_check(sigma.product, sigma.inner, lam)
    assert sat == pytest.approx(1.0, abs=1e-9)
    assert disc >= value - eps
    keys = {D.keys[s] for s in _reachable_odp_states(sigma)}
    # a zapped robot keeps no promise, so the optimum never risks the door
    assert "wreck" not in keys
    assert all(z == 0 for _, z in keys)

    D0 = build_biolab(p_zap=0.0)
    value0, sigma0 = solve_odp(D0, lam, eps)
    sat0, disc0 = strategy_value_check(sigma0.product, sigma0.inner, lam)
    assert sat0 == pytest.approx(1.0, abs=1e-9)
    assert disc0 >= value0 - eps
    # with the zapper off the shorter route through its door pays better
    keys0 = {D0.keys[s] for s in _reachable_odp_states(sigma0)}
    assert any(z == 1 for _, z in keys0)
    assert value0 > value


def test_lab_strategies_are_pinned():
    # sha256 of the strategies' JSON as written when product rows were
    # named by action tuples and strategies held dicts of them
    def digest(strategy):
        return hashlib.sha256(strategy_to_json(strategy).encode()).hexdigest()

    _, sigma = solve_odp(build_biolab(), 0.99, 0.01)
    assert digest(sigma.inner) == ("150168e50ea6bbcf5721a8b8da346d3c"
                                   "addd5f59fb62e917b58d7145ff7eff9f")
    _, learned = lex_q_learn(sigma.product, episodes=200, steps=1000,
                             lam=0.99, seed=1)
    assert digest(learned) == ("92eacb38d197ca130981950abc5ce77a"
                               "a3121a8162f20b983a0cf35d7cb6cba7")


def test_scaled_grid_geometry():
    g = default_grid()
    one = g.scaled(1)
    assert (one.walls, one.zapper, one.dirty_area) \
        == (g.walls, g.zapper, g.dirty_area)
    two = g.scaled(2)
    assert (two.width, two.height) == (24, 18)
    assert (two.home, two.clean_lab, two.dirty_lab) == ((2, 2), (12, 6),
                                                        (10, 6))
    # the zapper boundary between (7, 2) and (7, 3): door at offset 1
    assert two.zapper == frozenset({(15, 5), (15, 6)})
    assert frozenset({(14, 5), (14, 6)}) in two.walls
    # a wall blocks the whole block boundary, a block's inside is open
    assert two.move((4, 5), "N") == (4, 5) and two.move((5, 5), "N") == (5, 5)
    assert two.move((4, 4), "N") == (4, 5)
    assert {(0, 12), (1, 12), (0, 13), (1, 13)} <= two.dirty_area
    with pytest.raises(ValueError):
        g.scaled(0)


def test_scaled_lab_values():
    lam, eps = 0.99, 0.01
    D = build_biolab(grid=default_grid().scaled(1))
    assert D.n_states == build_biolab().n_states == 217
    assert solve_odp(D, lam, eps)[0] == 14.016667725703476
    D2 = build_biolab(grid=default_grid().scaled(2))
    assert D2.n_states == 865
    assert solve_odp(D2, lam, eps)[0] == pytest.approx(6.2710118843844915,
                                                       abs=1e-9)


# a ring of one-cell corridors through the dirty area, a decontamination
# station and the clean lab; home hangs off it, and the zapper leads into
# a dead end
SLIP_MAP = """\
+-+-+-+-+
|C     2|
+ +-+-+ +
|1 D ~  |
+z+-+-+ +
|     |H|
+-+-+-+-+
"""


def test_slip_model_is_solved_and_checked():
    D = build_biolab(p_slip=0.2, grid=BiolabGrid.parse(SLIP_MAP))
    # a move goes its way with 1 - p_slip and slips to either side with
    # half of p_slip each
    s = D.state_of[((3, 1), 0)]
    assert dict(D.trans[(s, (None, "W", None))]) == pytest.approx(
        {D.state_of[((2, 1), 0)]: 0.8, D.state_of[((3, 2), 0)]: 0.1,
         D.state_of[((3, 0), 0)]: 0.1})
    value, sigma = solve_odp(D, 0.99, 0.01)
    sat, disc = strategy_value_check(sigma.product, sigma.inner, 0.99)
    assert abs(sat - 1.0) <= 1e-9
    assert disc >= value - 0.01
