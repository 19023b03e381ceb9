import pytest

from omegadp.automata import Alphabet, Automaton, LassoWord, lasso_member_uca
from omegadp.complement import CapacityError, ComplementOptions, complement_uca
from omegadp.mdp import Mdp, buchi_value, product_with_nba
from omegadp.streett import (
    StreettDsa,
    _validate_tree,
    determinize_uca,
    initial_tree,
    lasso_member_dsa,
    sigma_successor,
    streett_mdp_max_prob,
)
from conftest import all_lassos, random_uca


def test_no_rejecting_transitions_accepts_everything():
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)}, ())
    D = determinize_uca(U)
    assert D.n_states == 1
    assert D.pairs == {}
    for w in all_lassos(2, 2, 3):
        assert lasso_member_dsa(D, w)


def test_all_rejecting_rejects_everything():
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)},
                  {(0, 0, 0), (0, 1, 0)})
    D = determinize_uca(U)
    # the root is always stable and collapses at every step
    for (coll, unst) in D.pairs.values():
        assert coll and not unst
    for w in all_lassos(2, 2, 3):
        assert not lasso_member_dsa(D, w)


def test_agreement_with_lasso_oracle(rng):
    lassos = all_lassos(2, 2, 4)
    for _ in range(25):
        U = random_uca(rng, rng.randint(1, 3))
        D = determinize_uca(U)
        for tree in D.trees:
            _validate_tree(tree)
        for w in lassos:
            assert lasso_member_dsa(D, w) == lasso_member_uca(U, w), w


def test_reachable_trees_satisfy_invariants(rng):
    U = random_uca(rng, 3)
    D = determinize_uca(U)
    for tree in D.trees:
        _validate_tree(tree)


def test_successor_flags_without_marks():
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 2, 0,
                  {(0, 0): (0, 1), (0, 1): (1,), (1, 0): (1,), (1, 1): (1,)},
                  ())
    tree = initial_tree(U)
    for a in (0, 1, 0):
        tree, flags = sigma_successor(tree, U, a)
        assert () in flags["stable"]
        assert not flags["collapsing"]
        assert not flags["spawned"]


def test_state_budget():
    ab = Alphabet(("a",))
    delta = {(q, a): (0, 1, 2) for q in range(3) for a in (0, 1)}
    U = Automaton("UCA", ab, 3, 0, delta, {(0, 0, 1), (1, 1, 2)})
    with pytest.raises(CapacityError) as exc:
        determinize_uca(U, max_states=1)
    assert exc.value.states_built == 1


def test_degenerate_pair_reduces_to_mec_reachability():
    # a pair that never collapses constrains nothing, so every run wins
    ab = Alphabet(("a",))
    D = StreettDsa(ab, 1, 0, {(0, 0): 0, (0, 1): 0},
                   pairs={(): (set(), {(0, 1)})})
    M = Mdp(2, 0, {0: ("x",), 1: ("x",)},
            {(0, "x"): ((1, 1.0),), (1, "x"): ((1, 1.0),)},
            alphabet=ab, labels=(0, 1))
    value, _ = streett_mdp_max_prob(M, D)
    assert value == pytest.approx(1.0)


def test_rank_complement_agrees_with_determinization(rng):
    lassos = all_lassos(2, 2, 4)
    for _ in range(10):
        U = random_uca(rng, rng.randint(1, 3))
        C = complement_uca(U, ComplementOptions(special=False))
        D = determinize_uca(U)
        from omegadp.automata import lasso_member_nba
        for w in lassos:
            assert lasso_member_nba(C, w) == lasso_member_dsa(D, w), w


def coin_mdp(ab):
    return Mdp(2, 0, {0: ("flip",), 1: ("flip",)},
               {(0, "flip"): ((0, .5), (1, .5)),
                (1, "flip"): ((0, .5), (1, .5))},
               alphabet=ab, labels=(1, 0))


def product_and_semantic_values(C, U, M):
    """The value of the product of ``M`` with ``C`` and the maximal
    probability that a trace of ``M`` lies in L(U), on the Streett
    determinisation of ``U``."""
    return (buchi_value(product_with_nba(M, C)),
            streett_mdp_max_prob(M, determinize_uca(U))[0])


def test_value_gap_detects_non_gfm_automaton():
    # guesses the next letter when entering the accepting phase: accepts
    # every word but cannot be used blindly in a product
    ab = Alphabet(("p",))
    delta = {(0, 0): (0, 1, 2), (0, 1): (0, 1, 2),
             (1, 1): (3,), (2, 0): (3,),
             (3, 0): (3,), (3, 1): (3,)}
    C = Automaton("NBA", ab, 4, 0, delta, {(3, 0, 3), (3, 1, 3)})
    from omegadp.automata import is_strongly_limit_deterministic
    assert is_strongly_limit_deterministic(C)[0]
    universal = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)}, ())
    # a good-for-MDPs automaton of the language would give equal values
    assert product_and_semantic_values(C, universal, coin_mdp(ab)) \
        == pytest.approx((0.5, 1.0))


def test_value_agreement_on_random_pairs(rng):
    for _ in range(8):
        U = random_uca(rng, rng.randint(1, 3))
        C = complement_uca(U, ComplementOptions(special=False))
        actions = {}
        trans = {}
        labels = []
        n = rng.randint(2, 4)
        for s in range(n):
            labels.append(rng.choice(U.alphabet.letters()))
            names = tuple(f"a{k}" for k in range(rng.randint(1, 2)))
            actions[s] = names
            for a in names:
                support = rng.sample(range(n), rng.randint(1, 2))
                trans[(s, a)] = tuple((t, 1.0 / len(support))
                                      for t in support)
        M = Mdp(n, 0, actions, trans, alphabet=U.alphabet, labels=labels)
        got, ref = product_and_semantic_values(C, U, M)
        assert abs(got - ref) <= 1e-7, (got, ref)
