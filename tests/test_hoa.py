import random
from pathlib import Path

import pytest

import dict_reference as ref
from omegadp import automata
from omegadp.automata import TOP, Alphabet, Automaton, LassoWord, \
    instantiate, lasso_member_nba
from omegadp.complement import complement_uca
from omegadp.hoa import HoaError, emit_hoa, parse_hoa
from omegadp.odp import remove_lookahead
from omegadp.reduction import run_pipeline
from conftest import all_lassos, example2_odp, random_nba, random_uca, \
    untagged
from test_acceptance import random_collection

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def parsed(A):
    return (A.kind, A.n_states, A.initial, A.alphabet, A.delta, A.gamma,
            A.tags)


def assert_as_reference(A, name=None):
    """``A`` is written as the dict reference writes it, and the text reads
    back as the reference reads it."""
    text = emit_hoa(A, name)
    assert text == ref.emit_hoa(A, name)
    assert parsed(parse_hoa(text)) == parsed(ref.parse_hoa(text))


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
    ab = Alphabet(("a",), (TOP, 0, 1))
    delta = {(0, (0, TOP)): (0,), (0, (1, 0)): (0, 1), (1, (0, 1)): (1,)}
    gamma = {(1, (0, 1), 1)}
    A = Automaton("UCA", ab, 2, 0, delta, gamma)
    B = parse_hoa(emit_hoa(A))
    assert B.alphabet.ap == ("a",)
    assert set(B.alphabet.promises) == set(ab.promises)
    assert any(p is TOP for p in B.alphabet.promises)
    w = LassoWord(((1, 0),), ((0, 1),))
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
    C = ref.renumber(N, ref.canonical_order(N))
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


HEADERS = 'HOA: v1\nStates: 1\nAP: 1 "a"\nAcceptance: 1 Inf(0)\n'


@pytest.mark.parametrize("text, message", [
    ("HOA: v1\nStates: 1 /* never\nclosed", "line 2, column 11: "
     "unterminated comment"),
    ('HOA: v1\nAP: 1 "a\n--BODY--\n', "line 2, column 7: "
     "unterminated string"),
    ("HOA: v1\nStates: two\n", "line 2, column 12: expected a number, "
     "got 'two'"),
    ('HOA: v1\nAP: 1 "a"\nAcceptance: 1 Inf(0)\n--BODY--\nState: 0\n'
     '[0] 0 {z}\n', "line 6, column 9: expected a number, got 'z'"),
    ("HOA: v1\nStates: 2\nStart: 5\nAcceptance: 1 Inf(0)\n--BODY--\n",
     "line 3, column 9: initial state 5 out of range"),
    ('HOA: v1\nStates: 1\nAP: 1 "a"\nAcceptance: 1 Inf(0)\n--BODY--\n'
     'State: 0\n[0] 3\n', "line 7, column 6: state 3 out of range"),
    # headers refused once all are read: at their value or at --BODY--
    ("HOA: v1\nAcceptance: 2 Inf(0)&Fin(1)\n--BODY--\n--END--\n",
     "line 2, column 13: unsupported acceptance condition 'Inf(0)&Fin(1)' "
     "with 2 sets"),
    ('HOA: v1\nStates: 1\nAP: 1 "a"\n--BODY--\n--END--\n',
     "line 4, column 1: missing Acceptance: header"),
    (HEADERS + "collection-initial: 4\n--BODY--\n--END--\n",
     "line 5, column 21: collection-initial names no state"),
    (HEADERS.replace('AP: 1 "a"', "AP: 17 " + " ".join(
        f'"p{i}"' for i in range(17))) + "--BODY--\n--END--\n",
     "line 3, column 5: 17 atomic propositions exceed the cap of 16"),
])
def test_scanner_errors_carry_line_and_column(text, message):
    with pytest.raises(HoaError) as exc:
        parse_hoa(text)
    assert str(exc.value) == message


def test_alphabet_errors_are_located_at_the_body(monkeypatch):
    from omegadp import automata
    monkeypatch.setattr(automata, "MAX_LETTERS", 1)
    with pytest.raises(HoaError) as exc:
        parse_hoa(HEADERS + "--BODY--\n--END--\n")
    assert str(exc.value) == ("line 5, column 1: alphabet has 2 letters, "
                              "exceeding the cap of 1")


def test_emission_and_parsing_match_the_dict_reference():
    for path in sorted(FIXTURES.glob("*.hoa")):
        text = path.read_text()
        A = parse_hoa(text)
        assert parsed(A) == parsed(ref.parse_hoa(text))
        for B in (A, run_pipeline(A)[0]):
            assert_as_reference(B, path.stem)
    rng = random.Random(21)
    for _ in range(300):
        n, n_ap = rng.randint(1, 4), rng.randint(1, 2)
        U = random_uca(rng, n, n_ap)
        for B in (U, random_nba(rng, n, n_ap), complement_uca(U)):
            assert_as_reference(B)
    for _ in range(60):
        C = random_collection(rng)
        assert C.alphabet.promises is not None
        assert "collection_initial" in C.tags
        assert_as_reference(C)
        assert_as_reference(complement_uca(C))
    _, N = remove_lookahead(example2_odp())
    assert N.alphabet.subset is not None
    assert_as_reference(N)


# a vocabulary out of canonical order (state 1, top, state 0), a bit pattern
# beyond it, and a letter subset
VOCAB = '[{"state": 1}, {"top": true}, {"state": 0}]'
PROMISED = """HOA: v1
States: 2
Start: 0
AP: 3 "a" "_prm0" "_prm1"
Acceptance: 1 Inf(0)
promise-vocab: [{"state": 1}, {"top": true}, {"state": 0}]
letter-subset: [0, 3, 5]
--BODY--
State: 0
[t] 1 {0}
[!1 & !2] 0
State: 1
[0] 1
[2] 0 {0}
--END--
"""


@pytest.mark.parametrize("text", [
    # the same edge twice, marked in one copy only
    """HOA: v1
States: 2
Start: 1
AP: 2 "a" "b"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 1
[0 & 1] 1 {0}
[t] 0
[t] 0
State: 1
[!0] 0 {0}
[!0 | 1] 0
--END--
""",
    # state-based marks under co-Buchi acceptance, and a state without edges
    """HOA: v1
States: 4
Start: 0
AP: 1 "a"
acc-name: co-Buchi
Acceptance: 1 Fin(0)
--BODY--
State: 0 {0}
[0] 1
[!0] 2
State: 1 "named"
[t] 1
State: 2 {0}
[0] 0 {0}
[0] 0
--END--
""",
    # every edge accepting, states counted from the body
    """HOA: v1
AP: 1 "a"
Acceptance: 0 t
--BODY--
State: 0
[0] 1
State: 1
[t] 0
[t] 1
--END--
""",
    PROMISED,
    PROMISED.replace("letter-subset: [0, 3, 5]\n", ""),
])
def test_parse_matches_the_dict_reference(text):
    assert parsed(parse_hoa(text)) == parsed(ref.parse_hoa(text))


BAD_VOCAB = ("line 6, column 16: promise-vocab must list distinct "
             '{"top": true} and {"state": n} items')
SETS = PROMISED.replace('{"state": 0}', '{"states": [0, 2]}')


@pytest.mark.parametrize("text, message", [
    # a promise that is a set of states, with and without a letter subset
    (SETS, BAD_VOCAB),
    (SETS.replace("letter-subset: [0, 3, 5]\n", ""), BAD_VOCAB),
    # items of the wrong shape, states that are not schema states, a
    # repeated promise, and a vocabulary that the _prm bits cannot index
    *[(PROMISED.replace(VOCAB, bad), BAD_VOCAB) for bad in (
        '[{"foo": 1}]', '{"a": 1}', '[1]', '[{"top": 1}]',
        '[{"state": -3}]', '[{"state": "x"}]', '[{"state": 1.0}]',
        '[{"state": true}]', '[{"state": 0, "top": true}]',
        '[{"state": 0}, {"state": 0}]')],
    (PROMISED.replace(VOCAB, "[" + ", ".join(
        f'{{"state": {q}}}' for q in range(5)) + "]"),
     "line 6, column 16: promise-vocab header does not match _prm* AP "
     "count"),
    # malformed JSON, located at the character that breaks it
    (PROMISED.replace(VOCAB, "nope"),
     "line 6, column 16: bad JSON: Expecting value"),
    (PROMISED.replace("[0, 3, 5]", "[0, 3"),
     "line 7, column 21: bad JSON: Expecting ',' delimiter"),
    (PROMISED.replace("[0, 3, 5]", "[0, 3.5]"),
     "line 7, column 16: letter-subset must be a list of bit patterns"),
    (PROMISED.replace("[0, 3, 5]", "[0, 7]"),
     "line 7, column 16: letter-subset names a bit pattern beyond the "
     "promise vocabulary"),
])
def test_json_headers_are_checked_where_they_stand(text, message):
    with pytest.raises(HoaError) as exc:
        parse_hoa(text)
    assert str(exc.value) == message


def test_file_to_file_builds_no_dict_automaton(monkeypatch):
    def refuse(self):
        raise AssertionError("a dict view was built")

    for name in ("delta", "gamma"):
        monkeypatch.setattr(automata.Automaton, name, property(refuse))
    A = parse_hoa((FIXTURES / "reduce_05.hoa").read_text())
    R, _ = run_pipeline(A)
    text = emit_hoa(R)
    schema = Automaton.from_edges("UCA", A.alphabet, A.n_states, None,
                                  A.edges)
    copies = (A.reinterpret("UCA"), instantiate(schema, 1))
    for B in (A, R, parse_hoa(text)) + copies:
        assert "transitions=" in repr(B)
        assert not {"delta", "gamma"} & set(vars(B))
    assert all(B.edges is A.edges for B in copies)
