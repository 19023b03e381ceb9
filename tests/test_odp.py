import json
import math
import random

import numpy as np
import pytest

from omegadp.automata import TOP, Alphabet, Automaton, lasso_member_nba
from omegadp.biolab import build_biolab
from omegadp.complement import CapacityError, complement_uca
from omegadp.lasso_bulk import bounded_lassos
from omegadp.mdp import (
    Mdp,
    NoValidStrategy,
    _mask,
    _prob1,
    discounted_vi,
    mec_decomposition,
    strategy_value_check,
)
from omegadp.odp import (
    Odp,
    odp_from_json,
    odp_to_json,
    remove_lookahead,
    remove_lookback,
    solve_odp,
    validate_run,
)
from omegadp.streett import determinize_uca
from omegadp.collect import build_collection
from conftest import (example2_odp, gf_b_schema, random_dfa_schema,
                      random_odp, random_uca_schema)


def after_c_guard_odp():
    """Guarded coin: the rewarded action needs the previous letter to
    contain c."""
    ab = Alphabet(("c",))
    # guard schema: state 1 accepts prefixes whose last letter contains c
    guard = Automaton("DFA", ab, 2, None,
                      {(0, 0): (0,), (0, 1): (1,),
                       (1, 0): (0,), (1, 1): (1,)},
                      (), final_states={1})
    acts = {}
    trans = {}
    rewards = {}
    for s in (0, 1):
        plain = (None, "move", None)
        bonus = (0, "cash", None)
        acts[s] = (plain, bonus)
        trans[(s, plain)] = ((0, 0.5), (1, 0.5))
        trans[(s, bonus)] = ((0, 0.5), (1, 0.5))
        rewards[(s, bonus, 0)] = 1.0
        rewards[(s, bonus, 1)] = 1.0
    return Odp(2, 0, acts, trans, ab, (0, 1), lookback=guard,
               rewards=rewards)


def test_validation():
    ab = Alphabet(("b",))
    with pytest.raises(ValueError):
        Odp(1, 0, {0: ()}, {}, ab, (0,))
    with pytest.raises(ValueError):
        # promise without a lookahead schema
        Odp(1, 0, {0: ((None, "x", 0),)},
            {(0, (None, "x", 0)): ((0, 1.0),)}, ab, (0,))
    with pytest.raises(ValueError):
        # lookback schema without final states
        guard = Automaton("DFA", ab, 1, None, {(0, 0): (0,)}, ())
        Odp(1, 0, {0: ((0, "x", None),)},
            {(0, (0, "x", None)): ((0, 1.0),)}, ab, (0,), lookback=guard)
    # a guard or promise is None or a schema state, not a float or a bool
    schema = gf_b_schema()
    for bad in (1.5, 0.0, True, False, -1, 2):
        act = (None, "x", bad)
        with pytest.raises(ValueError, match="bad promise state"):
            Odp(1, 0, {0: (act,)}, {(0, act): ((0, 1.0),)}, ab, (0,),
                lookahead=schema)


def test_json_rejects_a_guard_or_promise_that_is_no_schema_state():
    for D, key in ((after_c_guard_odp(), "guard"), (example2_odp(), "promise")):
        doc = json.loads(odp_to_json(D))
        entry = next(e for e in doc["actions"] if e[key] is not None)
        for bad in (1.5, True, [0, 1], "x", {"state": 0}, -1, 7):
            entry[key] = bad
            with pytest.raises(ValueError, match=key):
                odp_from_json(json.dumps(doc))


def test_json_writes_probabilities_and_rewards_as_floats():
    """A model keeps its probabilities and rewards as float rows, so one
    written with integers is written with floats, and a reward of 0 is not
    written; the text then reads back to itself."""
    go, stay = (None, "go", None), (None, "stay", None)
    D = Odp(2, 0, {0: (go, stay), 1: (go,)},
            {(0, go): ((1, 1),), (0, stay): ((0, 1),), (1, go): ((0, 1),)},
            Alphabet(("p",)), (1, 0), rewards={(0, go, 1): 2, (0, stay, 0): 0})
    text = odp_to_json(D)
    assert json.dumps(json.loads(text), separators=(",", ":")) == (
        '{"ap":["p"],"states":[{"id":0,"label":["p"]},{"id":1,"label":[]}],'
        '"initial":0,"actions":['
        '{"state":0,"name":"go","guard":null,"promise":null,'
        '"successors":[{"target":1,"prob":1.0}],"reward":{"1":2.0}},'
        '{"state":0,"name":"stay","guard":null,"promise":null,'
        '"successors":[{"target":0,"prob":1.0}]},'
        '{"state":1,"name":"go","guard":null,"promise":null,'
        '"successors":[{"target":0,"prob":1.0}]}]}')
    assert odp_to_json(odp_from_json(text)) == text


def test_json_refuses_a_repeated_action():
    doc = json.loads(odp_to_json(example2_odp()))
    entry = dict(doc["actions"][0])
    doc["actions"].append(entry)
    with pytest.raises(ValueError, match=f"state {entry['state']} has "
                       f"action .* twice"):
        odp_from_json(json.dumps(doc))


def test_json_without_ap_takes_the_label_names_sorted():
    """As in an MDP document, and the schemas read their letters by those
    names."""
    for D in (example2_odp(), after_c_guard_odp()):
        text = odp_to_json(D)
        doc = json.loads(text)
        del doc["ap"]
        assert odp_to_json(odp_from_json(json.dumps(doc))) == text


def test_json_names_an_undeclared_proposition():
    for D, key in ((example2_odp(), "states"), (after_c_guard_odp(),
                                                  "lookback")):
        doc = json.loads(odp_to_json(D))
        if key == "states":
            doc["states"][1]["label"] = ["q"]
        else:
            doc["lookback"]["transitions"][0]["letter"] = ["q"]
        with pytest.raises(ValueError,
                           match="^proposition 'q' is not declared$"):
            odp_from_json(json.dumps(doc))


def test_trivial_lookback_is_identity():
    D = example2_odp()
    assert remove_lookback(D) is D


def test_guard_enabling_matches_prefix_replay(rng):
    """Compiled availability equals direct DFA evaluation of each prefix."""
    D = after_c_guard_odp()
    compiled = remove_lookback(D)
    guard = D.lookback
    for _ in range(200):
        # walk the compiled process and the raw label prefix side by side
        state = 0
        prefix = [D.labels[compiled.pairs[state][0]]]
        for _ in range(rng.randint(1, 50)):
            s = compiled.pairs[state][0]
            # direct oracle: run the guard DFA from its guard state over
            # the full prefix and test finality
            cur = {0}
            for letter in prefix:
                cur = {t for q in cur for t in guard.successors(q, letter)}
            should = bool(cur & guard.final_states)
            names = [act for act in compiled.actions[state]]
            assert ((0, "cash", None) in names) == should
            act = rng.choice(names)
            targets = [t for t, _ in compiled.trans[(state, act)]]
            state = rng.choice(targets)
            prefix.append(D.labels[compiled.pairs[state][0]])


def test_lookback_deadlock_is_rejected():
    ab = Alphabet(("c",))
    guard = Automaton("DFA", ab, 1, None, {(0, 1): (0,)}, (),
                      final_states={0})
    act = (0, "only", None)
    D = Odp(1, 0, {0: (act,)}, {(0, act): ((0, 1.0),)}, ab, (0,),
            lookback=guard)
    with pytest.raises(ValueError, match="deadlocked"):
        remove_lookback(D)


def test_tracker_budget():
    D = after_c_guard_odp()
    with pytest.raises(CapacityError):
        remove_lookback(D, max_trackers=1)
    assert remove_lookback(D, max_trackers=2).n_states == 2
    lab = build_biolab()
    for k in (1, 2, 3):
        with pytest.raises(CapacityError) as exc:
            remove_lookback(lab, max_trackers=k)
        assert exc.value.states_built == k


def test_random_lookbacks_match_finite_horizon_oracle(rng):
    lam = 0.5
    for _ in range(15):
        schema = random_dfa_schema(rng, rng.randint(2, 3))
        D = random_odp(rng, rng.randint(2, 4), lookback=schema)
        value = compiled_value(D, lam)
        oracle = finite_horizon_value(D, lam)
        assert value == pytest.approx(oracle, abs=1e-5)


def compiled_value(D, lam):
    M = remove_lookback(D)
    v, _ = discounted_vi(M, lam)
    return v[M.initial]


def finite_horizon_value(D, lam, tol=1e-6):
    """Depth-limited expectimax on the guarded process itself."""
    B = D.lookback
    r_max = max((abs(r) for r in D.rewards.values()), default=0.0)
    if r_max == 0:
        horizon = 1
    else:
        horizon = math.ceil(math.log(tol * (1 - lam) / r_max, lam)) + 1

    def advance(sets, letter):
        return tuple(frozenset(t for q in ss for t in B.successors(q, letter))
                     for ss in sets)

    memo = {}

    def best(h, s, sets):
        if h == 0:
            return 0.0
        key = (h, s, sets)
        if key in memo:
            return memo[key]
        out = None
        for act in D.actions[s]:
            beta = act[0]
            if beta is not None and not (sets[beta] & B.final_states):
                continue
            total = 0.0
            for t, p in D.trans[(s, act)]:
                nxt = advance(sets, D.labels[t])
                total += p * (D.reward(s, act, t) + lam * best(h - 1, t, nxt))
            if out is None or total > out:
                out = total
        memo[key] = out if out is not None else 0.0
        return memo[key]

    start = advance(tuple(frozenset((p,)) for p in range(B.n_states)),
                    D.labels[D.initial])
    return best(horizon, D.initial, start)


def test_trivial_promises_reduce_to_plain_vi(rng):
    for _ in range(5):
        D = random_odp(rng, rng.randint(2, 4))
        lam = 0.5
        value, sigma = solve_odp(D, lam, 0.01)
        v, _ = discounted_vi(D, lam)
        assert value == pytest.approx(v[D.initial])
        sat, got = strategy_value_check(sigma.product, sigma.inner, lam)
        assert sat == pytest.approx(1.0)
        assert got >= value - 0.01


def test_example2_end_to_end():
    D = example2_odp()
    lam, eps = 0.5, 2.0 ** -10
    value, sigma = solve_odp(D, lam, eps)
    assert value == pytest.approx(2.0, abs=1e-6)
    sat, got = strategy_value_check(sigma.product, sigma.inner, lam)
    assert sat == pytest.approx(1.0)
    assert got >= 2.0 - eps


def example2_with_free_a():
    """Example 2 where action a promises nothing: the process never emits
    the letter (0, 0)."""
    D = example2_odp()
    a, free_a = (None, "a", 0), (None, "a", None)
    return Odp(
        D.n_states, D.initial,
        {s: tuple(free_a if act == a else act for act in acts)
         for s, acts in D.actions.items()},
        {(s, free_a if act == a else act): dist
         for (s, act), dist in D.trans.items()},
        D.alphabet, D.labels, lookahead=D.lookahead,
        rewards={(s, free_a if act == a else act, t): r
                 for (s, act, t), r in D.rewards.items()})


def test_equal_processes_get_equal_checking_nbas():
    # each call builds its own automaton, and equal processes give equal ones
    _, N1 = remove_lookahead(example2_odp())
    _, N2 = remove_lookahead(example2_odp())
    assert N1 is not N2
    assert N1.alphabet == N2.alphabet and N1.n_states == N2.n_states
    for col in ("src", "let", "dst", "acc"):
        assert np.array_equal(getattr(N1.edges, col), getattr(N2.edges, col))
    assert np.array_equal(N1.tags["final"], N2.tags["final"])


def test_checking_nba_reads_exactly_the_emitted_letters():
    M, N = remove_lookahead(example2_odp())
    assert set(N.alphabet.letters()) == set(M.labels) \
        == {(0, TOP), (0, 0), (1, 0)}
    M, N = remove_lookahead(example2_with_free_a())
    assert set(N.alphabet.letters()) == set(M.labels) == {(0, TOP), (1, 0)}


def test_emitted_letter_nba_agrees_with_the_full_vocabulary(rng):
    for _ in range(12):
        schema = random_uca_schema(rng, 2)
        D = random_odp(rng, rng.randint(2, 3), lookahead=schema)
        M, N = remove_lookahead(D)
        full = complement_uca(build_collection(schema))
        assert full.alphabet.size == 6
        letters = N.alphabet.letters()
        assert set(letters) == set(M.labels)
        for w in bounded_lassos(letters, 4):
            assert lasso_member_nba(N, w) == lasso_member_nba(full, w), w


def test_strategy_translation_walk(rng):
    D = example2_odp()
    _, sigma = solve_odp(D, 0.5, 0.01)
    memory = sigma.initial_memory()
    s = D.initial
    played = []
    for _ in range(60):
        act = sigma.choose(memory)
        assert act in D.actions[s]
        targets = [t for t, p in D.trans[(s, act)] if p > 0]
        t = rng.choice(targets)
        memory = sigma.advance(memory, t)
        played.append(act)
        s = t
    # after the switch the strategy must keep making b's happen
    assert any(a[1] == "b" for a in played[20:])


def streett_lex_value(M, D, lam):
    """Reference solver: product with the deterministic Streett automaton,
    accepting-component analysis, then VI inside the safe region.

    Returns None when no strategy wins almost surely.
    """
    ids, pairs = {}, []

    def intern(s, d):
        if (s, d) not in ids:
            ids[(s, d)] = len(ids)
            pairs.append((s, d))
        return ids[(s, d)]

    intern(M.initial, D.initial)
    actions, trans, rewards = {}, {}, {}
    i = 0
    while i < len(pairs):
        s, d = pairs[i]
        src = ids[(s, d)]
        i += 1
        d2 = D.delta[(d, M.labels[s])]
        actions[src] = M.actions[s]
        for a in M.actions[s]:
            dist = []
            for t, p in M.trans[(s, a)]:
                dst = intern(t, d2)
                dist.append((dst, p))
                r = M.reward(s, a, t)
                if r:
                    rewards[(src, a, dst)] = r
            trans[(src, a)] = tuple(dist)
    prod = Mdp(len(pairs), 0, actions, trans, rewards=rewards)
    dsa_of = [(d, M.labels[s]) for s, d in pairs]
    streett = list(D.pairs.values())

    def accepting(states):
        taken = {dsa_of[x] for x in states}
        violated = [(c, u) for c, u in streett if taken & c and not taken & u]
        if not violated:
            return True
        bad = set()
        for c, _ in violated:
            bad |= c
        keep = {x for x in states if dsa_of[x] not in bad}
        return any(accepting(sub)
                   for sub, _ in mec_decomposition(prod, within=keep))

    goal = set()
    for states, _ in mec_decomposition(prod):
        if accepting(states):
            goal |= states
    region = _prob1(prod.arrays, _mask(prod.n_states, goal))
    region = set(np.flatnonzero(region).tolist())
    if 0 not in region:
        return None
    sub_actions, sub_trans, sub_rewards = {}, {}, {}
    order = sorted(region)
    remap = {s: i for i, s in enumerate(order)}
    for s in order:
        acts = [a for a in actions[s]
                if all(t in region for t, _ in trans[(s, a)])]
        sub_actions[remap[s]] = tuple(acts)
        for a in acts:
            sub_trans[(remap[s], a)] = tuple((remap[t], p)
                                             for t, p in trans[(s, a)])
            for t, _ in trans[(s, a)]:
                r = rewards.get((s, a, t), 0.0)
                if r:
                    sub_rewards[(remap[s], a, remap[t])] = r
    sub = Mdp(len(order), remap[0], sub_actions, sub_trans,
              rewards=sub_rewards)
    v, _ = discounted_vi(sub, lam)
    return v[sub.initial]


def test_pipeline_agrees_with_streett_oracle(rng):
    lam = 0.5
    for _ in range(12):
        schema = random_uca_schema(rng, 2)
        D = random_odp(rng, rng.randint(2, 3), lookahead=schema)
        M, _ = remove_lookahead(D)
        dsa = determinize_uca(build_collection(D.lookahead))
        oracle = streett_lex_value(M, dsa, lam)
        try:
            value, sigma = solve_odp(D, lam, 1e-3)
        except NoValidStrategy:
            assert oracle is None
            continue
        assert oracle is not None
        assert value == pytest.approx(oracle, abs=1e-6)
        sat, got = strategy_value_check(sigma.product, sigma.inner, lam)
        assert sat == pytest.approx(1.0)
        assert got >= value - 1e-3


def test_lab_value_matches_the_streett_oracle():
    # the lab's d* through the checking NBA against the product with the
    # history-tree Streett automaton of the same collection
    D = build_biolab()
    value, _ = solve_odp(D, 0.99, 0.01)
    M, _ = remove_lookahead(remove_lookback(D))
    dsa = determinize_uca(build_collection(D.lookahead,
                                           letters=frozenset(M.labels)))
    assert abs(streett_lex_value(M, dsa, 0.99) - value) <= 1e-9


def test_validate_run_basics():
    D = example2_odp()
    a, b = (None, "a", 0), (None, "b", 0)
    # alternate a and b forever: infinitely many b's, promise kept
    assert validate_run(D, [0, 1], [b, a], 0)
    # only a's: the promise is broken
    assert not validate_run(D, [0], [a], 0)
    with pytest.raises(ValueError):
        validate_run(D, [0, 1], [b], 0)
    with pytest.raises(ValueError):
        validate_run(D, [0], [b], 0)  # b cannot loop at state 0


def test_validate_run_checks_guards():
    D = after_c_guard_odp()
    cash, move = (0, "cash", None), (None, "move", None)
    # state 1 carries the c label, so cash is enabled right after it
    assert validate_run(D, [0, 1], [move, cash], 0)
    # cash at the start: the one-letter prefix has no c
    assert not validate_run(D, [0, 1], [cash, move], 0)


def test_validate_run_agrees_with_tracker(rng):
    for _ in range(20):
        schema = random_dfa_schema(rng, 2)
        D = random_odp(rng, 3, lookback=schema)
        try:
            compiled = remove_lookback(D)
        except ValueError:
            continue
        # sample a lasso in the compiled process; it must validate
        state = 0
        states, actions = [], []
        seen = {}
        while state not in seen:
            seen[state] = len(states)
            act = rng.choice(compiled.actions[state])
            states.append(compiled.pairs[state][0])
            actions.append(act)
            state = rng.choice([t for t, _ in compiled.trans[(state, act)]])
        # the repeated compiled state carries the tracker, so the guards
        # replay periodically and the whole lasso must validate
        assert validate_run(D, states, actions, seen[state])


def test_json_rejects_a_nan_probability():
    doc = json.loads(odp_to_json(example2_odp()))
    doc["actions"][0]["successors"][0]["prob"] = math.nan
    text = json.dumps(doc)
    assert '"prob": NaN' in text
    with pytest.raises(ValueError, match="bad transition"):
        odp_from_json(text)


def random_processes(rng, count):
    for i in range(count):
        n_ap = rng.randint(1, 2)
        lookback = random_dfa_schema(rng, rng.randint(2, 3), n_ap) \
            if i % 2 else None
        lookahead = random_uca_schema(rng, rng.randint(1, 3), n_ap) \
            if i % 3 else None
        yield random_odp(rng, rng.randint(1, 5), lookback=lookback,
                         lookahead=lookahead, n_ap=n_ap)


def test_json_round_trip(rng):
    for D in (example2_odp(), after_c_guard_odp(),
              *random_processes(rng, 50)):
        text = odp_to_json(D)
        E = odp_from_json(text)
        assert odp_to_json(E) == text
        assert E.n_states == D.n_states
        assert E.initial == D.initial
        assert E.actions == D.actions
        assert E.trans == D.trans
        assert E.labels == D.labels
        assert E.rewards == D.rewards
        for mine, theirs in ((D.lookback, E.lookback),
                             (D.lookahead, E.lookahead)):
            if mine is None:
                assert theirs is None
            else:
                assert theirs.delta == mine.delta
                assert theirs.gamma == mine.gamma
                assert theirs.final_states == mine.final_states


def test_json_key_order():
    doc = json.loads(odp_to_json(after_c_guard_odp()))
    assert list(doc) == ["ap", "states", "initial", "actions", "lookback"]
    assert list(doc["actions"][1]) == ["state", "name", "guard", "promise",
                                       "successors", "reward"]
    assert doc["actions"][1]["reward"] == {"0": 1.0, "1": 1.0}
    assert list(doc["lookback"]) == ["kind", "states", "transitions",
                                     "final"]


def test_json_rejects_a_reward_on_no_transition():
    doc = json.loads(odp_to_json(example2_odp()))
    doc["actions"][1]["reward"] = {"0": 5.0}
    with pytest.raises(ValueError, match="not a transition"):
        odp_from_json(json.dumps(doc))


def test_compiled_processes_are_mdps_that_name_their_origin():
    D = after_c_guard_odp()
    assert isinstance(D, Mdp) and D.pairs is None
    compiled = remove_lookback(D)
    assert isinstance(compiled, Odp) and compiled.lookback is None
    assert [s for s, _ in compiled.pairs] == [0, 1]
    M, _ = remove_lookahead(compiled)
    assert type(M) is Mdp
    assert M.pairs == ((0, TOP), (1, TOP))
