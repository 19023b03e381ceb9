import random

import pytest

from omegadp.automata import TOP, Alphabet, Automaton, LassoWord, \
    canonical_order, lasso_member_nba, renumber
from omegadp.complement import complement_uca
from omegadp.hoa import HoaError, emit_hoa, parse_hoa
from omegadp.odp import remove_lookahead
from conftest import all_lassos, example2_odp, random_nba, untagged
from test_acceptance import random_collection


def test_round_trip_random(rng):
    lassos = all_lassos(4, 2, 2)
    for _ in range(10):
        A = random_nba(rng, rng.randint(1, 4), n_ap=2)
        B = parse_hoa(emit_hoa(A))
        assert B.kind == A.kind
        assert B.alphabet.ap == A.alphabet.ap
        for w in lassos:
            assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def test_emit_is_canonical(rng):
    A = random_nba(rng, 4, n_ap=1)
    text = emit_hoa(A)
    assert emit_hoa(parse_hoa(text)) == text


def test_round_trip_uca_kind():
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)}, {(0, 0, 0)})
    text = emit_hoa(U)
    assert "Fin(0)" in text
    B = parse_hoa(text)
    assert B.kind == "UCA"
    assert (0, 0, 0) in B.gamma and (0, 1, 0) not in B.gamma


def test_round_trip_promise_alphabet():
    ab = Alphabet(("a",), (TOP, 0, frozenset()))
    delta = {(0, (0, TOP)): (0,), (0, (1, 0)): (0, 1), (1, (0, frozenset())): (1,)}
    gamma = {(1, (0, frozenset()), 1)}
    A = Automaton("UCA", ab, 2, 0, delta, gamma)
    B = parse_hoa(emit_hoa(A))
    assert B.alphabet.ap == ("a",)
    assert set(B.alphabet.promises) == set(ab.promises)
    assert any(p is TOP for p in B.alphabet.promises)
    w = LassoWord(((1, 0),), ((0, frozenset()),))
    assert lasso_member_nba(A.reinterpret("NBA"), w)
    assert lasso_member_nba(B.reinterpret("NBA"), w)


def test_round_trip_letter_subset():
    _, N = remove_lookahead(example2_odp())
    assert N.alphabet.subset is not None
    text = emit_hoa(N)
    assert text.count("letter-subset:") == 1
    B = parse_hoa(text)
    assert B.alphabet == N.alphabet
    assert B.alphabet.letters() == N.alphabet.letters()
    C = renumber(N, canonical_order(N))
    assert B.n_states == C.n_states and B.initial == C.initial
    assert B.delta == C.delta
    assert B.gamma == C.gamma
    assert emit_hoa(B) == text
    # a plain alphabet emits no subset line, and an edge label that covers
    # letters outside a subset stands for the subset's letters only
    full = emit_hoa(Automaton("NBA", Alphabet(("a",)), 1, 0,
                              {(0, 0): (0,), (0, 1): (0,)}, {(0, 1, 0)}))
    assert "letter-subset:" not in full
    only_1 = parse_hoa(full.replace("--BODY--", "letter-subset: [1]\n--BODY--"))
    assert only_1.alphabet.letters() == [1]
    assert only_1.delta == {(0, 1): (0,)} and only_1.gamma == {(0, 1, 0)}
    for bad in ("[2]", "[-1]", "1"):
        with pytest.raises(HoaError):
            parse_hoa(full.replace("--BODY--", f"letter-subset: {bad}\n--BODY--"))


def test_parse_label_expressions():
    text = """HOA: v1
States: 2
Start: 0
AP: 2 "a" "b"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0 & !1] 1 {0}
[t] 0
State: 1
[!0 | 1] 1
--END--
"""
    A = parse_hoa(text)
    assert A.n_states == 2
    assert A.successors(0, 1) == (0, 1)       # a & !b
    assert A.successors(0, 3) == (0,)         # a & b matches only [t]
    assert (0, 1, 1) in A.gamma
    assert A.successors(1, 0) == (1,)
    assert A.successors(1, 1) == ()


def test_state_based_acceptance_becomes_transition_based():
    text = """HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[t] 0
--END--
"""
    A = parse_hoa(text)
    assert (0, 0, 0) in A.gamma and (0, 1, 0) in A.gamma


def test_parse_errors_carry_location():
    with pytest.raises(HoaError):
        parse_hoa("HOA: v2\n--BODY--\n--END--\n")
    with pytest.raises(HoaError):
        parse_hoa("HOA: v1\nAcceptance: 2 Inf(0)&Fin(1)\n--BODY--\n--END--\n")
    with pytest.raises(HoaError) as exc:
        parse_hoa('HOA: v1\nAP: 1 "a"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n[5] 0\n--END--\n')
    assert exc.value.line is not None


def test_all_accepting_acceptance():
    text = """HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 0 t
--BODY--
State: 0
[t] 0
--END--
"""
    A = parse_hoa(text)
    assert A.kind == "NBA"
    assert (0, 0, 0) in A.gamma


def test_collection_initial_round_trip():
    col = random_collection(random.Random(99))
    text = emit_hoa(col)
    back = parse_hoa(text)
    assert back.tags == {"collection_initial": 0}
    assert emit_hoa(back) == text
    # pinned: 31 states; without the header the complement pins nothing
    assert complement_uca(back).n_states == 31
    assert complement_uca(untagged(back)).n_states == 87
    assert "collection-initial" not in emit_hoa(untagged(back))


def test_collection_initial_must_name_a_state():
    text = emit_hoa(random_collection(random.Random(99)))
    with pytest.raises(HoaError, match="collection-initial names no state"):
        parse_hoa(text.replace("collection-initial: 0",
                               "collection-initial: 9"))


def test_scanner_reads_comments_quoted_names_and_tight_edges():
    spaced = """HOA: v1
name: "a b"
States: 2
Start: 0
AP: 2 "a a" "c"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0 & !1] 1 {0}
[t] 0
State: 1
[!0 | 1] 1
--END--
"""
    tight = ('HOA: v1 /* first */ name: "a /* not a comment */ b"'
             '/* two\nlines */States: 2 Start: 0 AP: 2 "a a""c"\n'
             'acc-name: Buchi Acceptance: 1 Inf(0) --BODY--\n'
             'State: 0 "a start"[0&!1]1{0}[t]0 /**/State: 1 [!0|1]1 --END--')
    # a comment also ends a plain token with no blank before it
    tighter = tight.replace("Start: 0 ", "Start: 0/* initial */") \
        .replace("[t]0 /**/", "[t]0/**/")
    A = parse_hoa(spaced)
    for B in (parse_hoa(tight), parse_hoa(tighter)):
        assert A.alphabet.ap == B.alphabet.ap == ("a a", "c")
        assert (A.n_states, A.initial, A.delta, A.gamma) \
            == (B.n_states, B.initial, B.delta, B.gamma)
        assert emit_hoa(A) == emit_hoa(B)


@pytest.mark.parametrize("text, message", [
    ("HOA: v1\nStates: 1 /* never\nclosed", "line 2, column 11: "
     "unterminated comment"),
    ('HOA: v1\nAP: 1 "a\n--BODY--\n', "line 2, column 7: "
     "unterminated string"),
    ("HOA: v1\nStates: two\n", "line 2, column 12: expected a number, "
     "got 'two'"),
    ('HOA: v1\nAP: 1 "a"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n'
     '[0] 0 {z}\n', "line 6, column 9: expected a number, got 'z'"),
])
def test_scanner_errors_carry_line_and_column(text, message):
    with pytest.raises(HoaError) as exc:
        parse_hoa(text)
    assert str(exc.value) == message
