import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from omegadp import automata
from omegadp.automata import Alphabet, Automaton, CapacityError, time_limit
from omegadp.biolab import build_biolab
from omegadp.cli import random_mdp, uniform_chain
from omegadp.complement import ComplementOptions, complement_uca
from omegadp.mdp import (
    STUCK,
    Mdp,
    MdpArrays,
    NoValidStrategy,
    Strategy,
    _almost_sure,
    _policy_iteration,
    accepting_mecs,
    almost_sure_buchi_region,
    discounted_vi,
    lexicographic_solve,
    max_reach_prob,
    mec_decomposition,
    model_from_doc,
    model_to_doc,
    product_with_nba,
    strategy_to_json,
    strategy_value_check,
    switch_horizon,
)
from omegadp import odp
from omegadp.odp import remove_lookahead, remove_lookback, solve_odp
from omegadp.qlearn import lex_q_learn

import policy_reference
from conftest import clock_expired_inside, random_nba, random_uca
from test_acceptance import lookahead_guesser_nba

LAB_D_STAR = 14.016667725703476


def coin_gadget():
    return Mdp(3, 0, {0: ("flip",), 1: ("stay",), 2: ("stay",)},
               {(0, "flip"): ((1, .5), (2, .5)),
                (1, "stay"): ((1, 1.0),),
                (2, "stay"): ((2, 1.0),)})


def free_letter_mdp():
    """Choose the next letter from {a, b}; reward 1 for a, 0 for b."""
    ab = Alphabet(("b",))
    return Mdp(2, 0,
               {0: ("a", "b"), 1: ("a", "b")},
               {(0, "a"): ((0, 1.0),), (0, "b"): ((1, 1.0),),
                (1, "a"): ((0, 1.0),), (1, "b"): ((1, 1.0),)},
               alphabet=ab, labels=(0, 1),
               rewards={(0, "a", 0): 1.0, (1, "a", 0): 1.0})


def infinitely_many_b_nba():
    ab = Alphabet(("b",))
    U = Automaton("UCA", ab, 2, 0,
                  {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,)},
                  {(1, 0, 1)})
    return complement_uca(U, ComplementOptions(special=False))


def test_validation():
    with pytest.raises(ValueError):
        Mdp(1, 0, {0: ()}, {})
    with pytest.raises(ValueError):
        Mdp(1, 0, {0: ("a",)}, {(0, "a"): ((0, 0.5),)})
    with pytest.raises(ValueError):
        Mdp(1, 0, {0: ("a",)}, {(0, "a"): ((3, 1.0),)})
    # rows made without the dict checks refuse an actionless state too
    with pytest.raises(ValueError, match="no actions"):
        MdpArrays(np.array([0, 0]), scipy.sparse.csr_matrix((0, 1)),
                  np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0))


def test_validation_rejects_a_nan_probability():
    with pytest.raises(ValueError, match="bad transition"):
        Mdp(1, 0, {0: ("a",)}, {(0, "a"): ((0, math.nan),)})
    with pytest.raises(ValueError, match="bad transition"):
        Mdp(2, 0, {0: ("a",), 1: ("a",)},
            {(0, "a"): ((0, math.nan), (1, 1.0)), (1, "a"): ((1, 1.0),)})


def mdp_doc(M):
    """The JSON document of an MDP whose actions are named by themselves,
    read back from its text."""
    return json.loads(json.dumps(model_to_doc(M, lambda a: {"name": a})))


def mdp_of_doc(doc):
    return model_from_doc(doc, lambda entry: entry["name"])


def test_json_rejects_an_initial_state_out_of_range():
    M = Mdp(2, 0, {0: ("a",), 1: ("a",)},
            {(0, "a"): ((1, 1.0),), (1, "a"): ((1, 1.0),)})
    doc = mdp_doc(M)
    doc["initial"] = 7
    with pytest.raises(ValueError, match="initial state 7 out of range"):
        mdp_of_doc(doc)


def two_state_chain(**kwargs):
    return Mdp(2, 0, {0: ("a",), 1: ("a",)},
               {(0, "a"): ((1, 1.0),), (1, "a"): ((1, 1.0),)}, **kwargs)


def test_validation_rejects_what_names_nothing_real():
    loop = {(0, "a"): ((1, 1.0),), (1, "a"): ((1, 1.0),)}
    with pytest.raises(ValueError, match="actions given for 7"):
        Mdp(2, 0, {0: ("a",), 1: ("a",), 7: ("b",)},
            {**loop, (7, "b"): ((0, 1.0),)})
    with pytest.raises(ValueError, match="not an action"):
        Mdp(2, 0, {0: ("a",), 1: ("a",)}, {**loop, (0, "zz"): ((0, 1.0),)})
    with pytest.raises(ValueError, match="accepting mark given for"):
        Mdp(2, 0, {0: ("a",), 1: ("a",)}, loop, acc={(1, "zz")})
    # a reward on no action would also raise r_max, which sets the
    # switching horizon and the Q-learning value cap
    with pytest.raises(ValueError, match="not a transition"):
        two_state_chain(rewards={(0, "zz", 0): 5.0})
    with pytest.raises(ValueError, match="not a transition"):
        two_state_chain(rewards={(0, "a", 0): 1.0})
    assert two_state_chain(rewards={(0, "a", 1): 1.0}).r_max == 1.0


@pytest.mark.parametrize("ids", [[0, -1], [0, 0], [0, 5], [1, 2]])
def test_json_state_ids_must_be_each_state_once(ids):
    M = two_state_chain(alphabet=Alphabet(("b",)), labels=(0, 1))
    doc = mdp_doc(M)
    for st, i in zip(doc["states"], ids):
        st["id"] = i
    with pytest.raises(ValueError, match="state ids must be 0..1"):
        mdp_of_doc(doc)
    # an unlabeled model is read without the labels, but the ids still count
    doc = mdp_doc(two_state_chain())
    for st, i in zip(doc["states"], ids):
        st["id"] = i
    with pytest.raises(ValueError, match="state ids must be 0..1"):
        mdp_of_doc(doc)


def test_json_rejects_an_action_of_no_state():
    doc = mdp_doc(two_state_chain())
    doc["actions"].append({"state": 5, "name": "a",
                           "successors": [{"target": 0, "prob": 1.0}]})
    with pytest.raises(ValueError, match="actions given for 5"):
        mdp_of_doc(doc)


def test_a_repeated_action_is_refused():
    # a row is named by its index, so each name may stand for one row only
    with pytest.raises(ValueError, match="state 0 has action 'a' twice"):
        Mdp(1, 0, {0: ("a", "a")}, {(0, "a"): ((0, 1.0),)})


def test_json_refuses_a_repeated_action():
    doc = mdp_doc(two_state_chain())
    doc["actions"].append({"state": 0, "name": "a",
                           "successors": [{"target": 0, "prob": 1.0}]})
    with pytest.raises(ValueError, match="state 0 has action 'a' twice"):
        mdp_of_doc(doc)


def test_json_key_order():
    M = two_state_chain(alphabet=Alphabet(("b",)), labels=(0, 1),
                        rewards={(0, "a", 1): 2.0})
    doc = mdp_doc(M)
    assert list(doc) == ["ap", "states", "initial", "actions"]
    assert list(doc["states"][1]) == ["id", "label"]
    assert list(doc["actions"][0]) == ["state", "name", "successors",
                                       "reward"]
    assert doc["actions"][0]["reward"] == {"1": 2.0}
    assert "label" not in mdp_doc(two_state_chain())[
        "states"][0]


def test_strategy_memory_nodes():
    P = two_state_loop()
    first, second = staying_then_cycling(P, 0).first, \
        staying_then_cycling(P, 0).second
    assert first.start(0) == (0,)
    assert first.action((1,)) == "back" and first.step((1,), 0) == (0,)
    # the second strategy's one memory value leaves only the state
    assert second.start(1) == (1,)
    assert second.action((0,)) == "go" and second.step((0,), 1) == (1,)
    assert second.row((1,)) == 2 and second.choices == {(0, 0): "go",
                                                        (1, 0): "back"}
    sigma = staying_then_cycling(P, 2)
    node = sigma.start(P.initial)
    walk = [node]
    for _ in range(4):
        (t, _), = P.trans[(node[0], sigma.action(node))]
        node = sigma.step(node, t)
        walk.append(node)
    # two steps of "stay", then "go" and "back" with the count saturated
    assert walk == [(0, 0), (0, 1), (0, 2), (1, 2), (0, 2)]


def test_strategy_plays_no_row_where_it_has_none():
    P = two_state_loop()
    sigma = strategy_of(P, "positional", {1: "back"})
    assert sigma.choices == {1: "back"}
    with pytest.raises(KeyError):
        sigma.row((0,))


def test_reachability_values():
    M = coin_gadget()
    v, sigma = max_reach_prob(M, {1})
    assert v == pytest.approx([0.5, 1.0, 0.0])
    assert sigma.choices[0] == "flip"
    v, _ = max_reach_prob(M, {0, 1, 2})
    assert v == pytest.approx([1.0, 1.0, 1.0])
    v, _ = max_reach_prob(M, set())
    assert v == pytest.approx([0.0, 0.0, 0.0])


def brute_force_mecs(M):
    components = []
    for r in range(1, M.n_states + 1):
        for states in itertools.combinations(range(M.n_states), r):
            S = set(states)
            inner = {(s, a) for s in S for a in M.actions[s]
                     if all(t in S for t, _ in M.trans[(s, a)])}
            if not all(any(x == s for x, _ in inner) for s in S):
                continue
            adj = {s: set() for s in S}
            for s, a in inner:
                adj[s] |= {t for t, _ in M.trans[(s, a)]}
            connected = True
            for s in S:
                seen, stack = {s}, [s]
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                if not S <= seen:
                    connected = False
                    break
            if connected:
                components.append(frozenset(S))
    return sorted((S for S in components
                   if not any(S < T for T in components)), key=min)


def with_rewards(rng, M):
    """``M`` with every transition paying 0 to 3, drawn in row order."""
    pay = {(s, a, t): float(rng.randint(0, 3))
           for (s, a), dist in M.trans.items() for t, _ in dist}
    return Mdp(M.n_states, M.initial, M.actions, M.trans,
               alphabet=M.alphabet, labels=M.labels, rewards=pay)


def test_mec_decomposition_matches_brute_force(rng):
    for _ in range(60):
        M = random_mdp(rng, rng.randint(1, 5))
        got = sorted((frozenset(s) for s, _ in mec_decomposition(M)), key=min)
        assert got == brute_force_mecs(M)


def test_mec_disjoint_and_closed(rng):
    M = random_mdp(rng, 8)
    seen = set()
    for states, inner in mec_decomposition(M):
        assert not (states & seen)
        seen |= states
        for s, a in inner:
            assert s in states
            assert all(t in states for t, _ in M.trans[(s, a)])


def test_product_with_deterministic_automaton():
    M = free_letter_mdp()
    dba = Automaton("NBA", M.alphabet, 1, 0, {(0, 0): (0,), (0, 1): (0,)},
                    {(0, 1, 0)})
    P = product_with_nba(M, dba)
    for s in range(P.n_states):
        assert len(P.actions[s]) == 2
    v, _ = max_reach_prob(P, accepting_mecs(P))
    assert v[P.initial] == pytest.approx(1.0)


def test_product_transition_soundness():
    M = free_letter_mdp()
    # eventually always b: state 1 has no move on a, so the product has
    # states without an automaton move
    C = Automaton("NBA", M.alphabet, 2, 0,
                  {(0, 0): (0,), (0, 1): (0, 1), (1, 1): (1,)}, {(1, 1, 1)})
    P = product_with_nba(M, C)
    stuck = 0
    for src in range(P.n_states):
        s, q = P.pairs[src]
        if C.successors(q, M.labels[s]):
            assert STUCK not in P.actions[src]
            continue
        # no automaton move: only the rejecting, rewardless self-loop
        stuck += 1
        assert P.actions[src] == (STUCK,)
        assert P.trans[(src, STUCK)] == ((src, 1.0),)
        assert (src, STUCK) not in P.acc
        assert P.reward(src, STUCK, src) == 0.0
    assert stuck > 0
    for (src, (a, q2)), dist in P.trans.items():
        if (a, q2) == STUCK:
            continue
        s, q = P.pairs[src]
        assert q2 in C.successors(q, M.labels[s])
        for dst, p in dist:
            t, qt = P.pairs[dst]
            assert qt == q2
            assert dict(M.trans[(s, a)])[t] == p


def checked(P):
    """``P`` made again from its dict views, which the constructor checks
    as it checks a hand-written model."""
    return Mdp(P.n_states, P.initial, P.actions, P.trans, P.alphabet,
               P.labels, P.rewards, P.pairs, P.acc)


def test_products_are_total_mdps(rng):
    stuck = 0
    for _ in range(100):
        n_ap = rng.randint(1, 2)
        if rng.random() < 0.5:
            C = random_nba(rng, rng.randint(1, 3), n_ap=n_ap)
        else:
            C = complement_uca(random_uca(rng, rng.randint(1, 3), n_ap=n_ap))
        M = random_mdp(rng, rng.randint(1, 6), alphabet=C.alphabet)
        P = product_with_nba(M, C)
        checked(P)
        stuck += sum(P.actions[s] == (STUCK,) for s in range(P.n_states))
    assert stuck > 0
    N = lookahead_guesser_nba()
    P = product_with_nba(uniform_chain(N.alphabet), N)
    checked(P)
    assert any(P.actions[s] == (STUCK,) for s in range(P.n_states))


def test_discounted_vi_basics():
    M = Mdp(1, 0, {0: ("a",)}, {(0, "a"): ((0, 1.0),)},
            rewards={(0, "a", 0): 1.0})
    v, _ = discounted_vi(M, 0.5)
    assert v[0] == pytest.approx(2.0, abs=1e-7)
    M0 = Mdp(1, 0, {0: ("a",)}, {(0, "a"): ((0, 1.0),)})
    v, _ = discounted_vi(M0, 0.9)
    assert v[0] == 0.0
    with pytest.raises(ValueError):
        discounted_vi(M, 1.0)


def exact_policy_values(M, choices, lam):
    """Values of a positional strategy by a dense linear solve."""
    n = M.n_states
    P, r = np.zeros((n, n)), np.zeros(n)
    for s in range(n):
        a = choices[s]
        for t, p in M.trans[(s, a)]:
            P[s, t] += p
            r[s] += p * M.reward(s, a, t)
    return np.linalg.solve(np.eye(n) - lam * P, r)


def test_discounted_vi_matches_policy_enumeration(rng):
    for _ in range(40):
        M = with_rewards(rng, random_mdp(rng, rng.randint(1, 5),
                                         n_actions=3))
        lam = rng.choice((0.0, 0.5, 0.9, 0.99))
        policies = itertools.product(
            *(M.actions[s] for s in range(M.n_states)))
        best = np.max([exact_policy_values(M, dict(enumerate(pol)), lam)
                       for pol in policies], axis=0)
        v, sigma = discounted_vi(M, lam)
        np.testing.assert_allclose(v, best, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            exact_policy_values(M, sigma.choices, lam), best, rtol=0,
            atol=1e-9)


def test_discounted_vi_returns_the_first_of_tied_actions():
    # both moves from state 0 pay 1 and lead to a state paying 1 forever
    for names in (("left", "right"), ("right", "left")):
        M = Mdp(3, 0, {0: names, 1: ("stay",), 2: ("stay",)},
                {(0, "left"): ((1, 1.0),), (0, "right"): ((2, 1.0),),
                 (1, "stay"): ((1, 1.0),), (2, "stay"): ((2, 1.0),)},
                rewards={(0, "left", 1): 1.0, (0, "right", 2): 1.0,
                         (1, "stay", 1): 1.0, (2, "stay", 2): 1.0})
        v, sigma = discounted_vi(M, 0.9)
        assert v[0] == pytest.approx(10.0, abs=1e-9)
        assert sigma.choices[0] == names[0]


def test_warm_start_matches_the_cold_start_reference(rng):
    for _ in range(200):
        M = with_rewards(rng, random_mdp(rng, rng.randint(1, 10),
                                         n_actions=3))
        for lam in (0.0, 0.5, 0.9, 0.99):
            v, pick = _policy_iteration(M.arrays, lam)
            ref_v, ref_pick = policy_reference.policy_iteration(M.arrays, lam)
            assert pick.tolist() == ref_pick.tolist()
            np.testing.assert_allclose(v, ref_v, rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=1)
def lab_product():
    M, N = remove_lookahead(remove_lookback(build_biolab()))
    return product_with_nba(M, N)


def test_warm_start_matches_the_cold_start_reference_on_the_lab():
    A = lab_product().arrays
    sub, _ = A.restrict(_almost_sure(A)[1])
    v, pick = _policy_iteration(sub, 0.99)
    ref_v, ref_pick = policy_reference.policy_iteration(sub, 0.99)
    assert pick.tolist() == ref_pick.tolist()
    np.testing.assert_allclose(v, ref_v, rtol=0, atol=1e-12)


def counted_spsolve(monkeypatch):
    """Count the calls of ``spsolve`` that the solvers make."""
    calls = []
    solve = scipy.sparse.linalg.spsolve

    def spsolve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", spsolve)
    return calls


def test_lab_solve_needs_few_factorisations(monkeypatch):
    # the cold start from the reward-greedy policy needed 40
    calls = counted_spsolve(monkeypatch)
    _, value, _ = lexicographic_solve(lab_product(), 0.99, 0.01)
    assert abs(value - LAB_D_STAR) <= 1e-12
    assert 1 <= len(calls) <= 8


def test_deadline_passes_during_the_sweeps(monkeypatch):
    calls = counted_spsolve(monkeypatch)
    monkeypatch.setattr(automata.time, "monotonic",
                        clock_expired_inside("_warm_start"))
    with time_limit(10.0), pytest.raises(
            TimeoutError, match="^policy iteration exceeded its deadline$"):
        lexicographic_solve(lab_product(), 0.99, 0.01)
    assert calls == []


def test_arrays_reject_rows_that_are_not_distributions():
    for dist, message in ((((0, 0.6), (1, 0.6)), "^distribution of"),
                          (((0, 1.5), (1, -0.5)), "^bad transition"),
                          (((0, math.nan), (1, 1.0)), "^bad transition")):
        with pytest.raises(ValueError, match=message + r" \(0, a\)"):
            Mdp(2, 0, {0: ("a",), 1: ("b",)},
                {(0, "a"): dist, (1, "b"): ((1, 1.0),)})
    # rounding within 1e-12 is accepted
    M = Mdp(2, 0, {0: ("a",), 1: ("b",)},
            {(0, "a"): ((0, 0.5), (1, 0.5 + 1e-13)), (1, "b"): ((1, 1.0),)})
    assert discounted_vi(M, 0.9)[0] == [0.0, 0.0]


def test_product_rejects_a_row_that_is_not_a_distribution():
    # no model reaches the product with a row that is not a distribution
    with pytest.raises(ValueError, match=r"^distribution of \(0, a\)"):
        Mdp(2, 0, {0: ("a",), 1: ("b",)},
            {(0, "a"): ((0, 0.6), (1, 0.6)), (1, "b"): ((1, 1.0),)},
            alphabet=Alphabet(("b",)), labels=[0, 1])


def test_solving_and_learning_build_no_dict_form_of_the_product(
        monkeypatch):
    made, compiled, named = [], [], []
    of, names = MdpArrays.of.__func__, MdpArrays.names

    def arrays_of(cls, n, *dicts):
        made.append(n)
        return of(cls, n, *dicts)

    def names_of(A, rows):
        named.append(A)
        return names(A, rows)

    def recorded(stage):
        def run(*args):
            out = stage(*args)
            compiled.append(out[0] if isinstance(out, tuple) else out)
            return out
        return run

    monkeypatch.setattr(MdpArrays, "of", classmethod(arrays_of))
    monkeypatch.setattr(MdpArrays, "names", names_of)
    for stage in ("remove_lookback", "remove_lookahead", "product_with_nba"):
        monkeypatch.setattr(odp, stage, recorded(getattr(odp, stage)))
    D = build_biolab()
    value, sigma = solve_odp(D, 0.99, 0.01)
    P = sigma.product
    sat, _ = strategy_value_check(P, sigma.inner, 0.99)
    assert value == LAB_D_STAR and sat == pytest.approx(1.0, abs=1e-9)
    lex_q_learn(P, episodes=2, steps=100)
    # solving, checking and learning read rows by their index alone: only
    # the promise compilation names rows, those of the guard compilation,
    # which name the process's own
    assert named == [compiled[0].arrays, D.arrays]
    # only the process's own dicts were made into rows: the compilations
    # copied rows and the product was built as rows, and none of the
    # models from the process to the product built a dict view
    assert made == [D.n_states] and compiled[-1] is P and len(compiled) == 3
    for M in [D] + compiled:
        assert not {"actions", "trans", "rewards", "acc"} & set(vars(M))
    # playing the strategy on the lab walks the product's rows as well, and
    # names one row per step, the one shown to the process
    rng = random.Random(3)
    memory, s = sigma.initial_memory(), D.initial
    for _ in range(200):
        act = sigma.choose(memory)
        t = rng.choice([t for t, p in D.trans[(s, act)] if p > 0])
        memory, s = sigma.advance(memory, t), t
    with pytest.raises(ValueError, match="is not a successor"):
        sigma.advance(memory, D.n_states)
    assert sum(A is P.arrays for A in named) == 201
    assert "action" not in vars(P.arrays)
    assert not {"trans", "rewards"} & set(vars(P))


def test_almost_sure_region_trivial_cases():
    M = free_letter_mdp()
    C = infinitely_many_b_nba()
    P = product_with_nba(M, C)
    region, _ = almost_sure_buchi_region(P)
    assert P.initial in region
    # without accepting marks nothing is winning
    stripped = product_with_nba(
        M, Automaton("NBA", M.alphabet, 1, 0,
                     {(0, 0): (0,), (0, 1): (0,)}, ()))
    region, _ = almost_sure_buchi_region(stripped)
    assert region == set()


def test_lexicographic_free_letter_example():
    M = free_letter_mdp()
    P = product_with_nba(M, infinitely_many_b_nba())
    lam, eps = 0.5, 0.01
    sat, value, sigma = lexicographic_solve(P, lam, eps)
    assert sat == 1.0
    assert value == pytest.approx(1.0 / (1 - lam), abs=1e-6)
    assert sigma.kind == "switching"
    sat2, value2 = strategy_value_check(P, sigma, lam)
    assert sat2 == pytest.approx(1.0)
    assert value2 >= value - eps


def test_lexicographic_trivial_promise_is_plain_vi():
    M = free_letter_mdp()
    universal = Automaton("NBA", M.alphabet, 1, 0,
                          {(0, 0): (0,), (0, 1): (0,)},
                          {(0, 0, 0), (0, 1, 0)})
    P = product_with_nba(M, universal)
    sat, value, _ = lexicographic_solve(P, 0.5, 0.01)
    v, _ = discounted_vi(P, 0.5)
    assert sat == 1.0
    assert value == pytest.approx(v[P.initial])


def test_no_valid_strategy():
    # the only accepting transitions lie behind a coin that may exile us
    ab = Alphabet(("b",))
    M = Mdp(3, 0, {0: ("try",), 1: ("loop",), 2: ("loop",)},
            {(0, "try"): ((1, .5), (2, .5)),
             (1, "loop"): ((1, 1.0),), (2, "loop"): ((2, 1.0),)},
            alphabet=ab, labels=(1, 1, 0))
    C = infinitely_many_b_nba()
    P = product_with_nba(M, C)
    with pytest.raises(NoValidStrategy) as exc:
        lexicographic_solve(P, 0.5, 0.01)
    assert exc.value.sat_prob == pytest.approx(0.5)
    # a bad discount is refused before the winning region is sought
    for lam in (1.0, 1.5, -0.5):
        with pytest.raises(ValueError, match="discount factor"):
            lexicographic_solve(P, lam, 0.01)


def test_risky_reward_action_is_deleted():
    # action "risk" pays well but may fall out of the winning region
    ab = Alphabet(("b",))
    M = Mdp(2, 0, {0: ("safe", "risk"), 1: ("stay",)},
            {(0, "safe"): ((0, 1.0),),
             (0, "risk"): ((0, .5), (1, .5)),
             (1, "stay"): ((1, 1.0),)},
            alphabet=ab, labels=(1, 0),
            rewards={(0, "risk", 0): 10.0, (0, "risk", 1): 10.0,
                     (0, "safe", 0): 1.0})
    C = infinitely_many_b_nba()
    P = product_with_nba(M, C)
    lam = 0.5
    sat, value, _ = lexicographic_solve(P, lam, 0.01)
    assert sat == 1.0
    # only "safe" remains: geometric value of constant reward 1
    assert value == pytest.approx(1.0 / (1 - lam), abs=1e-6)


def test_switch_horizon_guarantee():
    assert switch_horizon(0.5, 0.01, 1.0) == 9
    assert switch_horizon(0.0, 0.01, 1.0) == 0
    assert switch_horizon(0.9, 0.01, 0.0) == 0


def test_json_round_trip():
    M = free_letter_mdp()
    N = mdp_of_doc(mdp_doc(M))
    assert N.n_states == M.n_states
    assert N.initial == M.initial
    assert N.actions == M.actions
    assert N.trans == M.trans
    assert N.labels == M.labels
    assert N.rewards == M.rewards
    assert N.alphabet.ap == M.alphabet.ap


def test_strategy_json():
    M = free_letter_mdp()
    P = product_with_nba(M, infinitely_many_b_nba())
    _, _, sigma = lexicographic_solve(P, 0.5, 0.01)
    doc = json.loads(strategy_to_json(sigma))
    assert doc["kind"] == "switching"
    assert doc["switch_step"] == sigma.switch_step
    assert doc["first"]["kind"] == "positional"
    assert doc["second"]["kind"] == "finite-memory"
    assert all("memory" in c for c in doc["second"]["choices"])


def two_state_loop():
    """State 0 may "stay" (paying 1) or "go" to state 1, whose accepting
    move "back" pays 2."""
    return Mdp(
        2, 0, {0: ("stay", "go"), 1: ("back",)},
        {(0, "stay"): ((0, 1.0),), (0, "go"): ((1, 1.0),),
         (1, "back"): ((0, 1.0),)},
        acc={(1, "back")}, pairs=[(0, 0), (1, 0)],
        rewards={(0, "stay", 0): 1.0, (1, "back", 0): 2.0})


def strategy_of(P, kind, choices):
    """The ``kind`` strategy that plays at each state ``s`` of ``choices``
    the row of ``P.arrays`` whose action is ``choices[s]``."""
    A = P.arrays
    rows = np.full(A.n_states, -1, dtype=np.int64)
    for s, a in choices.items():
        rows[s] = A.action.index(a, A.first[s], A.first[s + 1])
    return Strategy(kind, rows=rows, arrays=A)


def staying_then_cycling(P, k):
    """On ``two_state_loop()``: "stay" for k steps, then "go" and "back"."""
    first = strategy_of(P, "positional", {0: "stay", 1: "back"})
    second = strategy_of(P, "finite-memory", {0: "go", 1: "back"})
    return Strategy("switching", first=first, second=second, switch_step=k)


def test_value_check_of_a_switching_strategy():
    P = two_state_loop()
    lam = 0.9
    for k in (0, 1, 5, 40):
        sat, value = strategy_value_check(P, staying_then_cycling(P, k),
                                          lam)
        # k steps paying 1, then "go"/"back" forever: 2 on every second step
        expect = ((1 - lam ** k) / (1 - lam)
                  + 2 * lam ** (k + 1) / (1 - lam ** 2))
        assert sat == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(expect, abs=1e-9)
    # staying forever pays 1 per step but never accepts
    sat, value = strategy_value_check(
        P, staying_then_cycling(P, 0).first, lam)
    assert sat == 0.0
    assert value == pytest.approx(1 / (1 - lam), abs=1e-9)
    for lam in (1.0, 1.5, -0.5):
        with pytest.raises(ValueError, match="discount factor"):
            strategy_value_check(P, staying_then_cycling(P, 1), lam)


def test_value_check_of_a_partly_accepting_chain():
    # retry with 1/2, win with 1/8, lose with 3/8: absorbed in the
    # accepting loop with probability (1/8) / (1/2) = 1/4
    P = Mdp(
        3, 0, {0: ("flip",), 1: ("loop",), 2: ("loop",)},
        {(0, "flip"): ((0, .5), (1, .125), (2, .375)),
         (1, "loop"): ((1, 1.0),), (2, "loop"): ((2, 1.0),)},
        acc={(1, "loop")}, pairs=[(0, 0), (1, 0), (2, 0)],
        rewards={(1, "loop", 1): 1.0})
    lam = 0.5
    sigma = strategy_of(P, "positional", {0: "flip", 1: "loop", 2: "loop"})
    sat, value = strategy_value_check(P, sigma, lam)
    assert sat == pytest.approx(0.25, abs=1e-12)
    # v0 = lam (v0 / 2 + v1 / 8) with v1 = 1 / (1 - lam) = 2
    assert value == pytest.approx(lam * 2 / 8 / (1 - lam / 2), abs=1e-12)


def test_value_check_budget():
    P = two_state_loop()
    # nodes (0, 0..10) and (1, 10)
    sat, _ = strategy_value_check(P, staying_then_cycling(P, 10), 0.9,
                                  max_chain=12)
    assert sat == pytest.approx(1.0)
    with pytest.raises(CapacityError, match="budget"):
        strategy_value_check(P, staying_then_cycling(P, 10), 0.9,
                             max_chain=11)


def test_value_check_refuses_another_models_strategy():
    M = free_letter_mdp()
    P = product_with_nba(M, infinitely_many_b_nba())
    _, _, sigma = lexicographic_solve(P, 0.5, 0.01)
    # a second build of the same product has equal rows in other arrays
    Q = product_with_nba(M, infinitely_many_b_nba())
    with pytest.raises(ValueError, match="another model"):
        strategy_value_check(Q, sigma, 0.5)
    with pytest.raises(ValueError, match="another model"):
        strategy_value_check(Q, sigma.second, 0.5)
    with pytest.raises(ValueError, match="two models"):
        Strategy("switching", first=sigma.first,
                 second=lexicographic_solve(Q, 0.5, 0.01)[2].second)


def solved_strategies(count=200, seed=2024):
    """``strategy_to_json`` of the lexicographic solutions of random
    products, None where no strategy is valid."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        C = random_nba(rng, rng.randint(2, 3), n_ap=1)
        M = with_rewards(rng, random_mdp(rng, rng.randint(4, 8),
                                         C.alphabet, n_actions=3))
        try:
            _, _, sigma = lexicographic_solve(product_with_nba(M, C), 0.9,
                                              0.01)
        except NoValidStrategy:
            out.append(None)
            continue
        out.append(strategy_to_json(sigma))
    return out


def run_python(code, **env):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "tests")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_strategies_do_not_depend_on_string_hashing():
    code = ("import json, test_mdp; "
            "print(json.dumps(test_mdp.solved_strategies()))")
    runs = [json.loads(run_python(code, PYTHONHASHSEED=str(seed)))
            for seed in (1, 2, 3)]
    assert sum(s is not None for s in runs[0]) >= 100
    for other in runs[1:]:
        differ = [i for i, (a, b) in enumerate(zip(runs[0], other)) if a != b]
        assert not differ, f"{len(differ)} products differ, e.g. {differ[:5]}"


def test_import_leaves_the_solver_submodules_unloaded():
    # they load where they are used; importing them costs more than the
    # rest of the library's imports
    code = ("import sys, omegadp\n"
            "from omegadp import automata, biolab, cli, collect, complement, "
            "hoa, lasso_bulk, mdp, odp, qlearn, reduction, streett\n"
            "print(sorted(m for m in ('scipy.sparse.linalg', "
            "'scipy.sparse.csgraph') if m in sys.modules))")
    assert run_python(code).strip() == "[]"
