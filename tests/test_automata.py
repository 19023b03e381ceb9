from pathlib import Path

import numpy as np
import pytest

import signature_reference
from omegadp import automata
from omegadp.automata import (
    TOP,
    Alphabet,
    Automaton,
    LassoWord,
    check_time,
    instantiate,
    intersect_nba,
    is_empty,
    is_strongly_limit_deterministic,
    lasso_member_nba,
    lasso_member_uca,
    letter_sort_key,
    nonempty_states,
    time_limit,
)
from omegadp.complement import complement_uca
from omegadp.hoa import emit_hoa, parse_hoa
from omegadp.reduction import run_pipeline
from conftest import all_lassos, random_nba, random_uca

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def cycle_relation_member(A, w):
    """Independent lasso membership check via boolean cycle relations.

    Computes the one-cycle step relations (with and without an accepting
    edge), closes them under composition, and looks for an accepting loop
    reachable from the states after the prefix.
    """
    current = {(A.initial)}
    for a in w.prefix:
        current = {t for q in current for t in A.successors(q, a)}
    n = A.n_states
    # step[q][t] = 0 (no path), 1 (path), 2 (path with accepting edge)
    step = [[0] * n for _ in range(n)]
    for q in range(n):
        frontier = {q: 0}
        for i, a in enumerate(w.cycle):
            nxt = {}
            for s, flag in frontier.items():
                for t in A.successors(s, a):
                    f = flag | (2 if (s, a, t) in A.gamma else 0) | 1
                    nxt[t] = nxt.get(t, 0) | f
            frontier = nxt
        for t, f in frontier.items():
            step[q][t] = f
    # transitive closure over repeated cycles
    closure = [row[:] for row in step]
    changed = True
    while changed:
        changed = False
        for q in range(n):
            for m in range(n):
                if not closure[q][m]:
                    continue
                for t in range(n):
                    if closure[m][t]:
                        f = (closure[q][m] | closure[m][t]) & 2 | 1
                        if closure[q][t] | f != closure[q][t]:
                            closure[q][t] |= f
                            changed = True
    for q in current:
        for m in range(n):
            if (closure[q][m] or q == m) and closure[m][m] & 2:
                return True
    return False


def test_lasso_member_matches_cycle_relations(rng):
    lassos = all_lassos(2, 2, 3)
    for _ in range(30):
        A = random_nba(rng, rng.randint(1, 4))
        for w in lassos:
            assert lasso_member_nba(A, w) == cycle_relation_member(A, w)


def test_uca_membership_is_nba_complement_of_runs():
    ab = Alphabet(("b",))
    delta = {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,)}
    gamma = {(1, 0, 1)}
    U = Automaton("UCA", ab, 2, 0, delta, gamma)
    # accepts exactly the words with infinitely many b's
    assert lasso_member_uca(U, LassoWord((), (1,)))
    assert lasso_member_uca(U, LassoWord((0, 0), (0, 1)))
    assert not lasso_member_uca(U, LassoWord((1,), (0,)))
    assert not lasso_member_uca(U, LassoWord((), (0,)))


def test_dead_runs_neither_accept_nor_reject():
    ab = Alphabet(("a",))
    # only transition: 0 -a-> 0 accepting; reading !a kills the run
    A = Automaton("NBA", ab, 1, 0, {(0, 1): (0,)}, {(0, 1, 0)})
    assert lasso_member_nba(A, LassoWord((), (1,)))
    assert not lasso_member_nba(A, LassoWord((), (0,)))
    assert not lasso_member_nba(A, LassoWord((1,), (0, 1)))
    U = A.reinterpret("UCA")
    # as a UCA the marked loop is rejecting, and dead runs do not reject
    assert not lasso_member_uca(U, LassoWord((), (1,)))
    assert lasso_member_uca(U, LassoWord((), (0,)))


def test_nonempty_states_and_is_empty():
    ab = Alphabet(("a",))
    delta = {(0, 0): (1,), (1, 0): (1,), (2, 0): (2,)}
    gamma = {(2, 0, 2)}
    A = Automaton("NBA", ab, 3, 0, delta, gamma)
    assert nonempty_states(A) == {2}
    assert is_empty(A)
    B = Automaton("NBA", ab, 3, 2, delta, gamma)
    assert not is_empty(B)


def test_intersection_emptiness(rng):
    lassos = all_lassos(2, 3, 3)
    for _ in range(20):
        A = random_nba(rng, rng.randint(1, 3))
        B = random_nba(rng, rng.randint(1, 3))
        P = intersect_nba(A, B)
        both = [lasso_member_nba(A, w) and lasso_member_nba(B, w)
                for w in lassos]
        assert [lasso_member_nba(P, w) for w in lassos] == both
        if any(both):
            assert not is_empty(P)


def test_strongly_limit_deterministic_partition():
    ab = Alphabet(("a",))
    # nondeterministic first part, deterministic accepting second part
    delta = {(0, 0): (0, 1), (0, 1): (0,), (1, 0): (1,), (1, 1): (1,)}
    gamma = {(1, 0, 1), (1, 1, 1)}
    A = Automaton("NBA", ab, 2, 0, delta, gamma)
    flag, (q1, q2) = is_strongly_limit_deterministic(A)
    assert flag
    assert 1 in q2 and 0 in q1

    # two accepting successors on one letter cannot sit in a deterministic part
    delta2 = {(0, 0): (1, 2), (1, 0): (1,), (2, 0): (2,)}
    gamma2 = {(0, 0, 1), (0, 0, 2), (1, 0, 1), (2, 0, 2)}
    B = Automaton("NBA", ab, 3, 0, delta2, gamma2)
    assert not is_strongly_limit_deterministic(B)[0]


def test_limit_determinism_matches_the_fixpoint_reference(rng):
    corpus = []
    for _ in range(60):
        corpus.append(random_nba(rng, rng.randint(1, 5), n_ap=2))
        corpus.append(complement_uca(random_uca(rng, rng.randint(1, 4),
                                                n_ap=2)))
    for name in ("reduce_01", "reduce_02", "reduce_03", "reduce_04"):
        U = parse_hoa((FIXTURES / f"{name}.hoa").read_text()
                      ).reinterpret("UCA")
        corpus.append(complement_uca(U))
        corpus.append(run_pipeline(U)[0])
    flags = set()
    for A in corpus:
        got = is_strongly_limit_deterministic(A)
        assert got == signature_reference.is_strongly_limit_deterministic(A)
        flags.add(got[0])
    assert flags == {False, True}


def test_schema_instantiation():
    ab = Alphabet(("a",))
    schema = Automaton("UCA", ab, 2, None, {(0, 0): (1,), (1, 1): (0,)}, ())
    assert schema.is_schema
    inst = instantiate(schema, 1)
    assert inst.initial == 1
    with pytest.raises(ValueError):
        instantiate(inst, 0)
    with pytest.raises(ValueError):
        instantiate(schema, 5)


def test_renumber_preserves_language(rng):
    # emit_hoa numbers the states breadth-first from the initial state
    lassos = all_lassos(2, 2, 2)
    for _ in range(10):
        A = random_nba(rng, rng.randint(2, 4))
        B = parse_hoa(emit_hoa(A))
        assert B.initial == 0 and B.n_states == A.n_states
        for w in lassos:
            assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def test_letters_come_in_canonical_order():
    plain = Alphabet(("a", "b"))
    promised = Alphabet(("a",), (2, TOP, 0))
    subset = Alphabet(("a",), (TOP, 1, 0), ((1, 0), (0, 1), (1, TOP), (0, 0)))
    assert plain.letters() == [0, 1, 2, 3]
    assert promised.letters() == [(b, p) for b in (0, 1) for p in (TOP, 0, 2)]
    assert subset.letters() == [(0, 0), (0, 1), (1, TOP), (1, 0)]
    for ab in (plain, promised, subset):
        assert ab.letters() == sorted(ab.letters(), key=letter_sort_key)
    # a promise is TOP or a schema state, and nothing else
    for bad in (-1, True, 1.0, "0", None, frozenset(), frozenset({0})):
        with pytest.raises(ValueError, match="bad promise identifier"):
            Alphabet(("a",), (TOP, bad))


def test_time_limit_keeps_the_earliest_deadline_and_restores_it():
    check_time("no limit")
    with time_limit(None):
        check_time("still no limit")
    with time_limit(-1):
        # a later or absent inner limit keeps the expired outer deadline
        for inner in (3600, None):
            with time_limit(inner), pytest.raises(TimeoutError):
                check_time("inner loop")
    with time_limit(3600):
        with pytest.raises(TimeoutError,
                           match="^inner loop exceeded its deadline$"):
            with time_limit(-1):
                check_time("inner loop")
        # the exception left the inner block; the outer deadline is back
        check_time("outer loop")
    check_time("no limit again")


def test_promise_alphabet_letters():
    ab = Alphabet(("a",), (TOP, 0, 1))
    assert ab.size == 6
    letters = ab.letters()
    assert (0, TOP) in letters and (1, 1) in letters
    assert (1, 0)[0] == 1  # the base letter of a promise letter
    assert ab.letter_of(["a"]) == 1
    # an explicit letter subset: canonical order, counted by size
    sub = Alphabet(("a",), (TOP, 0, 1), ((1, 0), (0, TOP), (1, 0)))
    assert sub.letters() == [(0, TOP), (1, 0)] and sub.size == 2
    assert sub == Alphabet(("a",), (TOP, 0, 1), [(0, TOP), (1, 0)])
    assert sub != ab
    assert Alphabet(("a",), subset=(1,)).letters() == [1]
    for bad in ((2, TOP), (0, 2), 0):
        with pytest.raises(ValueError):
            Alphabet(("a",), (TOP, 0, 1), (bad,))
    with pytest.raises(ValueError):
        Alphabet(("a",), subset=(2,))


def test_validation_rejects_bad_structures():
    ab = Alphabet(("a",))
    with pytest.raises(ValueError):
        Automaton("NBA", ab, 1, 0, {(0, 0): (3,)})
    with pytest.raises(ValueError):
        Automaton("NBA", ab, 1, 0, {(0, 0): (0,)}, {(0, 1, 0)})
    with pytest.raises(ValueError):
        Automaton("DBA", ab, 2, 0, {(0, 0): (0, 1)})
    with pytest.raises(ValueError):
        Automaton("FOO", ab, 1, 0, {})
    # a letter outside the alphabet is refused where the edges are made
    with pytest.raises(ValueError, match="2, not a letter of the alphabet"):
        Automaton("NBA", ab, 1, 0, {(0, 2): (0,)})


def test_dict_views_are_read_only_and_kept():
    A = Automaton("NBA", Alphabet(("a",)), 2, 0,
                  {(0, 0): (1, 0, 1), (1, 1): (1,)}, {(1, 1, 1)})
    # the views come from the sorted, merged edges
    assert A.delta == {(0, 0): (0, 1), (1, 1): (1,)}
    assert A.gamma == {(1, 1, 1)} and A.delta is A.delta
    with pytest.raises(AttributeError, match="read-only view"):
        A.delta = {}
    with pytest.raises(TypeError):
        A.delta[(0, 1)] = (0,)


def test_graph_helpers_agree_with_scipy_on_repeated_edges():
    # the CSR is built from the sorted unique (src, dst) keys; the labels
    # and masks are those of scipy's own COO conversion, which merges the
    # repeats that its strong-component search would hang on
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        src = rng.integers(0, n, int(rng.integers(0, 4 * n)))
        dst = rng.integers(0, n, len(src))
        src = np.concatenate([src, src[::2]])
        dst = np.concatenate([dst, dst[::2]])
        G = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
        want = connected_components(G, directed=True, connection="strong")[1]
        assert np.array_equal(automata._components(n, src, dst), want)
        roots = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        reached = np.zeros(n, dtype=bool)
        for r in roots:
            reached[breadth_first_order(G, r, return_predecessors=False)] = True
        assert np.array_equal(automata._reached(n, src, dst, roots), reached)


def canonical(labels):
    """Component labels renamed in order of first appearance."""
    seen = {}
    return [seen.setdefault(x, len(seen)) for x in list(labels)]


def set_reach(n, pairs, roots):
    """The states reachable from ``roots`` along ``pairs``, by a set-based
    search."""
    succ = {}
    for s, d in pairs:
        succ.setdefault(s, set()).add(d)
    seen, todo = set(roots), list(roots)
    while todo:
        for t in succ.get(todo.pop(), ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return [q in seen for q in range(n)]


def random_edges(rng):
    """Edges over 1 to 3 letters: the same (src, dst) pair on several
    letters, self-loops, isolated states, and sometimes no edge at all."""
    n, L = int(rng.integers(1, 40)), int(rng.integers(1, 4))
    m = int(rng.integers(0, 4 * n)) if rng.random() < 0.9 else 0
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    let = rng.integers(0, L, m)
    k = m // 3
    loops = rng.integers(0, n, int(rng.integers(0, n // 4 + 1)))
    src = np.concatenate([src, src[:k], loops])
    dst = np.concatenate([dst, dst[:k], loops])
    let = np.concatenate([let, (let[:k] + 1) % L, rng.integers(0, L, len(loops))])
    acc = rng.random(len(src)) < 0.3
    return n, automata.Edges.normalised(list(range(L)), src, let, dst, acc)


@pytest.mark.parametrize("bits", [2, 5, 16])
def test_graph_layer_matches_tarjan_and_a_set_search(bits, monkeypatch):
    # small slices split the edges of one graph into many, and a row of
    # the reverse graph across several
    monkeypatch.setattr(automata, "_SLICE_BITS", bits)
    monkeypatch.setattr(automata, "_SLICE", 1 << bits)
    rng = np.random.default_rng(bits)
    for _ in range(120):
        n, E = random_edges(rng)
        src, dst = E.src.tolist(), E.dst.tolist()
        pairs = set(zip(src, dst))
        succ = [sorted(t for s, t in pairs if s == q) for q in range(n)]
        order = rng.permutation(len(E))
        for G in (automata._Graph.simple(n, E.src, E.dst),
                  automata._Graph.simple(n, E.src[order], E.dst[order])):
            # each row ascending and without repeats
            assert G.indptr[0] == 0 and G.indptr[n] == G.indptr[n + 1]
            assert [G.indices[G.indptr[q]:G.indptr[q + 1]].tolist()
                    for q in range(n)] == succ
            comp, _ = automata._strongly_connected_components(
                n, succ.__getitem__)
            assert canonical(G.components()) == canonical(comp)
        back = [(d, s) for s, d in pairs]
        for roots in ([], [int(rng.integers(n))],
                      sorted(set(rng.integers(0, n, 4).tolist())),
                      list(range(n))):
            assert automata._reached(n, E.src, E.dst, roots).tolist() \
                == set_reach(n, pairs, roots)
            assert automata._reached(n, E.dst, E.src, roots).tolist() \
                == set_reach(n, back, roots)
            if len(roots) == 1:
                assert G.reached(roots).tolist() == set_reach(n, pairs, roots)


def dict_ids(index, table):
    """The ids a dict interner gives the rows of ``table``, in order of
    first appearance."""
    return [index.setdefault(row.tobytes(), len(index)) for row in table]


def assert_interns_like_a_dict(interner, batches):
    index = {}
    for table in batches:
        got = interner.ids(table)
        assert got.dtype == np.int32
        assert got.tolist() == dict_ids(index, table)
        # each row is stored once, under its id, without its padding
        stored = interner.rows[:len(interner)]
        assert stored.dtype == table.dtype
        assert stored.shape == (len(index), table.shape[1])
        assert [row.tobytes() for row in stored] == list(index)


def test_interner_ids_match_a_dict_when_every_hash_collides():
    rng = np.random.default_rng(3)
    interner = automata.Interner(5, np.int16)
    interner.mult = np.zeros_like(interner.mult)
    pool = rng.integers(-1, 3, size=(120, 5)).astype(np.int16)
    batches = [pool[rng.integers(0, len(pool), int(rng.integers(0, 40)))]
               for _ in range(25)]
    assert_interns_like_a_dict(interner, batches)
    # one slot chain holds every row
    stored = interner.words[:len(interner)]
    assert len(np.unique(interner._slots(stored))) == 1


def test_interner_ids_match_a_dict_on_random_tables():
    rng = np.random.default_rng(4)
    # int16 rows, and int8 rows of widths that fill less than one word,
    # exactly one word, a little more and the 21 entries of a rank row
    for dtype, width in ((np.int16, 1), (np.int16, 3), (np.int16, 21),
                         (np.int8, 1), (np.int8, 7), (np.int8, 8),
                         (np.int8, 9), (np.int8, 21)):
        pool = rng.integers(-1, 4, size=(30_000, width)).astype(dtype)
        # small batches, then batches of more than one probe slice, with
        # repeats inside each batch and across batches
        sizes = [0, 1, 7, 300, automata._PROBE + 1, 3 * automata._PROBE + 5,
                 5, 2_000]
        batches = [pool[rng.integers(0, len(pool), k)] for k in sizes]
        assert any(len(np.unique(b, axis=0)) < len(b) for b in batches)
        assert_interns_like_a_dict(automata.Interner(width, dtype), batches)


def random_key_graph(rng, n, hub):
    """Keys of ``n`` nodes, some beyond 2**31, and each node's successors
    with repeats; node 0 reaches ``hub`` distinct nodes, so its level is
    that wide."""
    keys = rng.permutation(n) * 40_000_000 + rng.integers(0, 9, n)
    succ = [keys[rng.integers(0, n, rng.integers(0, 4))] for _ in range(n)]
    succ[0] = np.concatenate([keys[1:hub + 1], keys[1:4]])
    return keys, dict(zip(keys.tolist(), succ))


@pytest.mark.parametrize("batch", [1, 3, automata._BATCH])
def test_explore_numbers_keys_like_the_explorer(monkeypatch, batch):
    monkeypatch.setattr(automata, "_BATCH", batch)
    rng = np.random.default_rng(5)
    for n, hub in ((1, 0), (40, 3), (3_000, 10),
                   (automata._PROBE + 2_000, automata._PROBE + 5)):
        keys, succ = random_key_graph(rng, n, hub)
        # repeated start keys, the first one the graph's hub
        start = keys[[0, 0, *rng.integers(0, n, 4), 0]]
        ex = automata.Explorer(int(start[0]))
        first = [ex.intern(k) for k in start.tolist()]
        edges = [(i, ex.intern(t)) for i, k in ex for t in succ[k].tolist()]

        def expand(lo, part):
            assert len(part) <= batch
            assert part.tolist() == ex.keys[lo:lo + len(part)]
            reached = [succ[k] for k in part.tolist()]
            src = np.repeat(np.arange(lo, lo + len(part)),
                            [len(r) for r in reached])
            return np.concatenate(reached), (src,)

        got, ids, (src, dst) = automata.explore(start, expand, "test")
        assert got.tolist() == ex.keys
        assert ids.tolist() == first
        assert list(zip(src.tolist(), dst.tolist())) == edges


def wide_automaton(n):
    """An NBA over ``n`` states whose edges join states more than 46,341
    apart, so that ``src * n + dst`` passes 2**31; the live part is two
    cycles through the last states, and the first phase is state 0."""
    rng = np.random.default_rng(6)
    src = np.concatenate([[0, 0, n - 1, n - 2, n - 3, n - 3],
                          rng.integers(0, n, 4_000)])
    dst = np.concatenate([[n - 1, n - 3, n - 2, n - 1, n - 3, 0],
                          rng.integers(0, n, 4_000)])
    let = np.concatenate([[0, 1, 0, 0, 0, 1], rng.integers(0, 2, 4_000)])
    acc = np.concatenate([[False, False, True, False, True, False],
                          rng.random(4_000) < 0.2])
    alphabet = Alphabet(("a",))
    E = automata.Edges.normalised(alphabet.letters(), src, let, dst, acc)
    final = np.ones(n, dtype=bool)
    final[0] = False
    return Automaton.from_edges("NBA", alphabet, n, 0, E,
                                tags={"final": final})


def test_state_ids_beyond_46341_compose_into_int64_keys():
    import dict_reference as ref
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components
    from omegadp.reduction import prune_empty

    n = 50_000
    A = wide_automaton(n)
    E = A.edges
    assert E.src.dtype == np.int32
    assert int(E.src.max()) * n > 2**31
    src, dst = E.src.astype(np.int64), E.dst.astype(np.int64)
    G = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    want = connected_components(G, directed=True, connection="strong")[1]
    assert np.array_equal(automata._components(n, E.src, E.dst), want)
    reached = np.zeros(n, dtype=bool)
    for r in (0, n - 1):
        reached[breadth_first_order(G, r, return_predecessors=False)] = True
    assert np.array_equal(automata._reached(n, E.src, E.dst, [0, n - 1]),
                          reached)
    # the one-row-per-state graph that the strong components read is the
    # canonical CSR of scipy's own conversion, and the reverse graph
    # reaches what scipy's transpose does
    S = automata._Graph.simple(n, E.src, E.dst)
    assert np.array_equal(S.indptr[:n + 1], G.indptr)
    assert np.array_equal(S.indices[:S.indptr[n]], G.indices)
    back = np.zeros(n, dtype=bool)
    for r in (0, n - 1):
        back[breadth_first_order(G.T.tocsr(), r,
                                 return_predecessors=False)] = True
    assert np.array_equal(automata._reached(n, E.dst, E.src, [0, n - 1]),
                          back)

    def shape(B):
        return (B.n_states, B.initial, B.delta, B.gamma,
                B.tags["final"].tolist())

    assert shape(prune_empty(A)) == shape(ref.prune_empty(A))
    # the start triple's successor (n-1, n-1, 0) has key ~5e9
    mine, theirs = intersect_nba(A, A), ref.intersect_nba(A, A)
    assert (mine.n_states, mine.delta, mine.gamma) \
        == (theirs.n_states, theirs.delta, theirs.gamma)
