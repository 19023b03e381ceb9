"""The batched rank construction, the array reduction stages, the batched
intersection and the array-built MDP product build exactly the automata and
products of the dict-based reference versions in ``dict_reference.py``:
same states, initial state, transitions, accepting transitions, phase
partition and blocked count; the emptiness check finds the same states; a
product has the same pairs, labels, arrays, dict fields and JSON bytes."""

import copy
import functools
import hashlib
import importlib.util
import json
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dict_reference as ref
from omegadp import automata
from omegadp import complement as complement_module
from omegadp import mdp, odp, reduction
from omegadp.automata import Alphabet, Automaton, time_limit
from omegadp.biolab import build_biolab
from omegadp.cli import random_mdp, uniform_chain
from omegadp.complement import CapacityError, ComplementOptions, complement_uca
from omegadp.hoa import parse_hoa
from omegadp.mdp import STUCK, model_to_doc
from omegadp.odp import remove_lookahead, remove_lookback
from conftest import random_nba, random_uca
from test_acceptance import lookahead_guesser_nba, random_collection
from test_mdp import free_letter_mdp, infinitely_many_b_nba, with_rewards

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
STAGES = ("prune_empty", "lump_final", "merge_lang_final",
          "drop_dominated_jumps", "lump_all")


def shape(A):
    final = A.tags.get("final")
    return (A.n_states, A.initial, A.delta, A.gamma,
            None if final is None else final.tolist())


def assert_same_complement(U, opts):
    mine = complement_uca(U, opts)
    theirs = ref.complement_general(U, opts)
    assert shape(mine) == shape(theirs)
    assert mine.tags["stats"]["blocked_transitions"] \
        == theirs.tags["stats"]["blocked_transitions"]
    return theirs


def assert_same_stages(C):
    """Each array stage against its dict version, on the reference chain."""
    for name in STAGES:
        theirs = getattr(ref, name)(C)
        assert shape(getattr(reduction, name)(C)) == shape(theirs), name
        C = theirs


def seventy_state_uca(n=70):
    """``n`` states, but every reachable subset has at most two of them:
    they lie on a ring of an even number of states, and state ``n - 1`` is
    unreachable when ``n`` is odd."""
    delta, gamma = {}, set()
    ring = n - n % 2
    for q in range(ring):
        delta[(q, 0)] = ((q + 1) % ring,)
        delta[(q, 1)] = tuple(sorted({q, (q + ring // 2) % ring}))
        if q % 2 == 0:
            gamma.add((q, 1, q))
        if q % 7 == 0:
            gamma.add((q, 0, (q + 1) % ring))
    return Automaton("UCA", Alphabet(("a",)), n, 0, delta, gamma)


def fixture(name):
    return parse_hoa((FIXTURES / f"{name}.hoa").read_text()).reinterpret("UCA")


@pytest.mark.parametrize("odd_entry", [True, False])
def test_random_ucas_match_the_reference(odd_entry):
    rng = random.Random(2024)
    for k in range(200):
        U = random_uca(rng, rng.randint(1, 5))
        C = assert_same_complement(
            U, ComplementOptions(special=False, odd_entry=odd_entry))
        if k % 4 == 0:
            assert_same_stages(C)


def test_pinned_collections_match_the_reference():
    rng = random.Random(99)
    for _ in range(40):
        col = random_collection(rng)
        assert col.tags.get("collection_initial") is not None
        assert_same_stages(
            assert_same_complement(col, ComplementOptions(special=False)))


@pytest.mark.parametrize("name", ["reduce_01", "reduce_02", "reduce_03",
                                  "reduce_04"])
def test_fixtures_match_the_reference(name):
    assert_same_stages(
        assert_same_complement(fixture(name), ComplementOptions(special=False)))


def test_no_cap_on_the_number_of_uca_states():
    U = seventy_state_uca()
    for odd_entry in (True, False):
        C = assert_same_complement(
            U, ComplementOptions(special=False, odd_entry=odd_entry))
        assert C.n_states > 400
    assert_same_stages(C)


@pytest.mark.parametrize("n", [63, 64])
def test_narrow_rank_rows_build_the_int16_complement(n, monkeypatch):
    # 63 states is the last UCA whose rank rows fit int8 (2n <= 127)
    U = seventy_state_uca(n)
    assert complement_module._row_dtype(n) == (np.int8 if n == 63
                                               else np.int16)
    narrow = complement_uca(U, ComplementOptions(special=False))
    monkeypatch.setattr(complement_module, "_row_dtype",
                        lambda n: np.int16)
    wide = complement_uca(U, ComplementOptions(special=False))
    assert narrow.n_states == wide.n_states > 300
    for column in ("src", "let", "dst", "acc"):
        assert np.array_equal(getattr(narrow.edges, column),
                              getattr(wide.edges, column))
    assert np.array_equal(narrow.tags["final"], wide.tags["final"])
    assert narrow.tags["stats"] == wide.tags["stats"]


@pytest.mark.parametrize("name", ["reduce_01", "reduce_03", "reduce_04"])
def test_bisimulation_codes_moves_alike_in_int32_and_int64(name,
                                                           monkeypatch):
    P = reduction.prune_empty(
        complement_uca(fixture(name), ComplementOptions(special=False)))
    narrow = [reduction.lump_final(P), reduction.lump_all(P)]
    monkeypatch.setattr(reduction, "_code_dtype", lambda n, L: np.int64)
    wide = [reduction.lump_final(P), reduction.lump_all(P)]
    assert [phase_digest(B) for B in narrow] \
        == [phase_digest(B) for B in wide]


def dying_uca():
    """Three states; letter 1 kills every run from the initial state."""
    delta = {(0, 0): (0, 1), (1, 0): (2,), (1, 1): (1, 2), (2, 0): (0,),
             (2, 1): (2,)}
    gamma = {(0, 0, 1), (1, 1, 1), (2, 0, 0)}
    return Automaton("UCA", Alphabet(("a",)), 3, 0, delta, gamma)


def test_state_budget_is_exact_inside_a_batch():
    V = complement_uca(dying_uca(), ComplementOptions(special=False))
    E = V.edges
    # the initial subset's expansion makes the subset {0, 1} (state 1), its
    # three entry rankings and then the sink (state 5), whose moves are
    # marked self-loops
    assert V.n_states == 34
    assert E.dst[(E.src == 0) & (E.let == 1)].tolist() == [5]
    assert (E.dst[E.src == 5] == 5).all() and E.acc[E.src == 5].all()
    for U, budgets in ((seventy_state_uca(), (1, 2, 3, 71, 200, 404)),
                       (dying_uca(), range(1, V.n_states))):
        for budget in budgets:
            errors = []
            for build in (complement_uca, ref.complement_general):
                with pytest.raises(CapacityError) as exc:
                    build(U, ComplementOptions(special=False,
                                               max_states=budget))
                errors.append(exc.value.states_built)
            assert errors == [budget, budget]
    exact = complement_uca(dying_uca(), ComplementOptions(
        special=False, max_states=V.n_states))
    assert phase_digest(exact) == phase_digest(V)


def test_deadline_is_checked_in_every_batch(monkeypatch):
    monkeypatch.setattr(complement_module, "_CHUNK", 16)
    U = random_uca(random.Random(0), 5)
    calls = []

    def clock():
        calls.append(1)
        return 0.0

    monkeypatch.setattr(automata.time, "monotonic", clock)
    with time_limit(1.0):
        C = complement_uca(U, ComplementOptions(special=False))
    subsets = int(np.count_nonzero(~C.tags["final"]))
    # far more batches of ranking states than subset states
    assert C.n_states - subsets > 40 * subsets
    assert len(calls) >= subsets + (C.n_states - subsets) / 16


@pytest.mark.parametrize("batch", [automata._BATCH, 3])
def test_intersection_matches_the_dict_reference(monkeypatch, batch):
    monkeypatch.setattr(automata, "_BATCH", batch)
    rng = random.Random(11)
    for _ in range(200):
        n_ap = rng.randint(1, 2)
        U = random_uca(rng, rng.randint(1, 3), n_ap=n_ap)
        pairs = [(complement_uca(U), U.reinterpret("NBA")),
                 (random_nba(rng, rng.randint(1, 5), n_ap=n_ap),
                  random_nba(rng, rng.randint(1, 5), n_ap=n_ap))]
        for A, B in pairs:
            mine, theirs = automata.intersect_nba(A, B), ref.intersect_nba(A, B)
            assert (mine.n_states, mine.delta, mine.gamma) \
                == (theirs.n_states, theirs.delta, theirs.gamma)
            assert automata.nonempty_states(mine) \
                == ref.nonempty_states(theirs)


def test_intersection_deadline_expires_between_batches(monkeypatch):
    rng = random.Random(5)
    U = random_uca(rng, 3, n_ap=2)
    A, B = complement_uca(U), U.reinterpret("NBA")
    calls = []

    def clock():
        # entering the limit and the first batch see time 0; the second
        # batch sees the deadline passed
        calls.append(1)
        return 0.0 if len(calls) <= 2 else 100.0

    monkeypatch.setattr(automata.time, "monotonic", clock)
    assert ref.intersect_nba(A, B).n_states > 1
    with time_limit(1.0), pytest.raises(
            TimeoutError, match="^intersection exceeded its deadline$"):
        automata.intersect_nba(A, B)
    assert len(calls) == 3


@pytest.mark.parametrize("name, sizes, edges", [
    ("reduce_05", (192_199, 1_009_345, 613_723, 1_311_537),
     "0b24eadb58427880c0bef575df6ec34858fc40d598d0bb5a92170ac268cfaa31"),
    ("lab", (4_943, 43_864, 16_306, 85_835),
     "05d5984d0fc10b2e1c8503ce615b7198e259197e06189927793dbc69ab93a18d"),
    ("lab-full", (53_271, 435_102, 157_184, 857_501),
     "ed5cd8c875e1be97c87f1df565eb858d893764c156d2b6a748b0240ef24f2cef"),
])
def test_complement_is_pinned(name, sizes, edges, monkeypatch):
    """The generic complement of ``reduce_05`` and of the lab collections,
    edge for edge: states, edges, marked edges, blocked updates, and a
    digest of the edge arrays."""
    if name == "reduce_05":
        C = complement_uca(fixture(name), ComplementOptions(special=False))
    else:
        C = complement_uca(lab_collection(name, monkeypatch))
    E = C.edges
    assert (C.n_states, len(E), int(E.acc.sum()),
            C.tags["stats"]["blocked_transitions"]) == sizes
    digest = hashlib.sha256()
    for column in (E.src, E.let, E.dst):
        digest.update(np.asarray(column, dtype=np.int64).tobytes())
    digest.update(np.asarray(E.acc, dtype=np.uint8).tobytes())
    assert digest.hexdigest() == edges


def phase_digest(A):
    """sha256 of an automaton's state count, initial state, edges and
    second phase."""
    E = A.edges
    digest = hashlib.sha256()
    digest.update(np.array([A.n_states, A.initial], dtype=np.int64).tobytes())
    for column in (E.src, E.let, E.dst):
        digest.update(np.asarray(column, dtype=np.int64).tobytes())
    digest.update(np.asarray(E.acc, dtype=bool).tobytes())
    digest.update(np.flatnonzero(A.tags["final"]).astype(np.int64).tobytes())
    return digest.hexdigest()


def lab_collection(schema, monkeypatch):
    """The collection automaton that the checking NBA of ``lab`` or
    ``lab-full`` complements."""
    D = build_biolab()
    if schema == "lab":
        work = perfbench_workloads()
        D = work.restrict_promises(D, work.LAB_REDUCED_SCHEMA)
    got = []

    def complement(C):
        got.append(C)
        return complement_uca(C)

    monkeypatch.setattr(odp, "complement_uca", complement)
    remove_lookahead(remove_lookback(D))
    return got[0]


# the outputs of the middle stages, lump final and merge languages, as
# the reduction built them while it numbered its bisimulation rounds by
# sorting and its inclusion search by set algebra
MIDDLE_STAGES = {
    "reduce_05": {
        "lumpd": (5_085, "2056b760fbad5f2b376227e599279b3558d4168cd1e6b7a2915482b9c1d26bbb"),
        "lang": (37, "fee9fbcf882a856c1c40d9ad15a3499dac3bc4f5458ccdeacff701034b0d57d6")},
    "lab": {
        "lumpd": (178, "99e78e183105eea3c276e1793b7db276f7950351ab42b27c0594faa35c78db70"),
        "lang": (22, "1dacd38d9ac301d6085e5c20409dab3d3b546551079975cf68202e1b63983fbf")},
    "lab-full": {
        "lumpd": (935, "7589c3dab2316aba4ed497e60f54d4f8f9cee8ce7c14b40b2fd35259e236fdcb"),
        "lang": (22, "4986483ed930245f3ed0d2b2762da27ce706bb6db7630c50f48d93b8f3f37314")},
}


# the digests were recorded while the complement still built the entry
# rankings that every letter blocks (246,080, 16,561 and 164,979 states):
# dropping them changes neither the pruned nor the reduced automaton
@pytest.mark.parametrize("name, built, pruned, reduced", [
    ("reduce_05", 192_199,
     (87_979, "35c9271f1cbe33fa798c8f4a45a293956711fe29b9ecd6935166ff93b347e5cc"),
     (14, "2ac77de2c9ec0b6836c88cd449bf18456d438bdbea3eb3fc92043edd3fca35be")),
    ("lab", 4_943,
     (525, "3cffc63b3210a44c39a54249b45ab9c7656ac69543b7d5798b0551e5fe3c5287"),
     (20, "83173d7d005a749e93e6a63a3a3e9308bca9f3ef3a9d2e950b2156bc5d884fac")),
    ("lab-full", 53_271,
     (4_034, "4a016b89e5fcde100b6e6a1d8458c504a357134c8549acf139a34d9be0799255"),
     (20, "309a1e20af16f5c94e6b2982fdf560e34cb8e71797de03ac9fde3f50b0c65cf8")),
])
def test_pruned_and_reduced_automata_are_pinned(name, built, pruned, reduced,
                                                monkeypatch):
    if name == "reduce_05":
        C = complement_uca(fixture(name), ComplementOptions(special=False))
    else:
        C = complement_uca(lab_collection(name, monkeypatch))
    assert C.n_states == built
    E, final = C.edges, C.tags["final"]
    jumps = ~final[E.src] & final[E.dst]
    assert (np.bincount(E.src, minlength=C.n_states)[E.dst[jumps]] > 0).all()
    stages = dict(reduction.reduction_stages(C))
    pinned = dict(MIDDLE_STAGES[name], prune=pruned, lumpa=reduced)
    assert {stage: (got.n_states, phase_digest(got))
            for stage, got in stages.items()} == pinned


def stage_digests(A):
    """The phase digest after each stage that numbers rows with an
    ``Interner``, run in pipeline order from ``A``."""
    digests = []
    for name in STAGES[1:]:
        A = getattr(reduction, name)(A)
        digests.append(phase_digest(A))
    return digests


def test_stages_are_the_same_when_every_interner_hash_collides(monkeypatch):
    rng = random.Random(30)
    complements = [complement_uca(fixture(f"reduce_0{i}"),
                                  ComplementOptions(special=False))
                   for i in range(1, 5)] \
        + [complement_uca(random_collection(rng)) for _ in range(40)]
    plain = [stage_digests(C) for C in complements]
    # every Interner built from here on hashes each row to one slot, so
    # only its row comparisons tell rows apart
    monkeypatch.setattr(automata, "_multipliers",
                        lambda n: np.zeros(n, dtype=np.uint64))
    rows = automata.Interner(3, np.int32)
    rows.ids(np.arange(30, dtype=np.int32).reshape(10, 3))
    assert len(np.unique(rows._slots(rows.words[:len(rows)]))) == 1
    assert [stage_digests(C) for C in complements] == plain


def assert_two_phases(A):
    """The mask ``final`` splits ``A`` into two phases: no edge leads from
    the second phase back into the first, and each (state, letter) has at
    most one successor inside its own phase."""
    E, final = A.edges, A.tags["final"]
    assert len(final) == A.n_states
    assert not (final[E.src] & ~final[E.dst]).any()
    inner = final[E.src] == final[E.dst]
    src, let = E.src[inner], E.let[inner]
    assert not ((src[1:] == src[:-1]) & (let[1:] == let[:-1])).any()


@pytest.mark.parametrize("source", ["reduce_01", "reduce_02", "reduce_03",
                                    "reduce_04", "reduce_05", "lab",
                                    "200 random UCAs"])
def test_complement_and_every_stage_keep_two_phases(source, monkeypatch):
    if source == "lab":
        complements = [complement_uca(lab_collection(source, monkeypatch))]
    elif source.startswith("reduce"):
        complements = [complement_uca(fixture(source),
                                      ComplementOptions(special=False))]
    else:
        rng = random.Random(2024)
        complements = (complement_uca(random_uca(rng, rng.randint(1, 5)),
                                      ComplementOptions(special=False))
                       for _ in range(200))
    for C in complements:
        assert_two_phases(C)
        for name in STAGES:
            C = getattr(reduction, name)(C)
            assert_two_phases(C)


def test_reduce_05_complement_and_prune_stay_within_their_memory():
    """The traced peaks (numpy buffers included) on ``reduce_05`` of
    ``complement_uca``, of ``prune_empty`` while the complement's 13.5 MiB
    of edges are alive, and of ``lump_final`` on the pruned automaton once
    the complement is freed.  They measured 23.6, 23.7 and 18.2 MiB; the
    bounds leave about 10 % above each.  With int16 rank rows, int64
    interner slots and a graph build that sorts an int64 key per edge they
    were 40.5, 34.3 and 25.5 MiB."""
    U = fixture("reduce_05")
    reduction._load_graph_routines()
    tracemalloc.start()
    try:
        C = complement_uca(U, ComplementOptions(special=False))
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        P = reduction.prune_empty(C)
        pruned = tracemalloc.get_traced_memory()[1]
        del C
        tracemalloc.reset_peak()
        reduction.lump_final(P)
        lumped = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built <= 26 * 2**20
    assert pruned <= 26 * 2**20
    assert lumped <= 20 * 2**20


def test_one_reduce_05_batch_stays_within_its_working_set(monkeypatch):
    """The traced peak (numpy buffers included) of one 4,096-row
    ``_ranking_update`` call on ``reduce_05``.  It measured 2.4-2.6 MiB; the
    bound leaves room above it.  With a uint64 word per cell of ``g`` for
    the tightness masks, gathered through an intp copy of ``g``, it was
    5.95 MiB."""
    batches = []
    update = complement_module._ranking_update

    def keep(F, mv):
        if len(F) == complement_module._CHUNK and not batches:
            batches.append((F.copy(), mv))
        return update(F, mv)

    monkeypatch.setattr(complement_module, "_ranking_update", keep)
    complement_uca(fixture("reduce_05"), ComplementOptions(special=False))
    (F, mv), = batches
    tracemalloc.start()
    try:
        update(F, mv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def held_tight(g):
    """Tightness by a table of the ranks held, one row per ranking, of
    ``g[t, a, s]``, the rank of UCA state ``t`` in ranking ``s`` after
    letter ``a``; an absent state is -1."""
    alive = g >= 0
    top = g.max(axis=0)
    held = np.zeros(top.shape + (2 * g.shape[0],), dtype=bool)
    ht, ha, hs = np.nonzero(alive)
    held[ha, hs, g[ht, ha, hs]] = True
    return alive.any(axis=0) & (top % 2 == 1) \
        & (held[:, :, 1::2].sum(axis=2) == (top + 1) // 2)


# UCA sizes at the edges of the word widths (8, 16, 32 and 64 odd ranks, and
# one more) and with two or three 64-bit words (100, 130)
WIDTHS = [1, 3, 8, 9, 10, 16, 17, 32, 33, 63, 64, 65, 100, 130]


@pytest.mark.parametrize("n", WIDTHS)
def test_tightness_by_odd_rank_masks(n):
    rng = np.random.default_rng(n)
    L, m = 3, 400
    g = np.full((n, L, m), -1, dtype=complement_module._row_dtype(n))
    # mostly tight rankings, some with one odd rank moved away or an even
    # rank on top, so both answers occur at every size
    for a in range(L):
        for s in range(m):
            k = rng.integers(1, n + 1)
            who = rng.permutation(n)
            g[who[:k], a, s] = np.arange(1, 2 * k, 2)
            g[who[k:], a, s] = rng.choice([-1, *range(2 * k)], n - k)
            if s % 3 == 1:
                g[who[rng.integers(k)], a, s] -= 1
            elif s % 3 == 2 and k < n:
                g[who[k], a, s] = 2 * k
    top = g.max(axis=0)
    expect = held_tight(g)
    assert 0 < expect.sum() < expect.size
    if n > 64:
        assert top.max() >= 129
    upto = complement_module._odd_rank_masks(n)
    # words of the narrowest unsigned dtype that holds min(n, 64) bits
    word = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if np.iinfo(t).bits >= min(n, 64))
    assert upto.dtype == word
    assert len(upto) == -(-n // np.iinfo(word).bits)
    got = complement_module._tight(g, top, upto)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("n", WIDTHS)
def test_ranking_update_by_the_move_list(n):
    """The least incoming rank, the top and the outcomes of
    ``_ranking_update`` on seeded random rows, against a loop over the
    moves that marks an absent state with 2n.  Letter 0 keeps every rank
    (so a tight row stays tight), letter 1 has three random moves out of
    each state, and on letter 2 every state is absent."""
    rng = np.random.default_rng(1000 + n)
    L, m, big = 3, 300, 2 * n
    src, let, dst = list(range(n)), [0] * n, list(range(n))
    acc = [False] * n
    for q in range(n):
        for t in rng.choice(n, min(n, 3), replace=False).tolist():
            src.append(q), let.append(1), dst.append(t)
            acc.append(bool(rng.random() < 0.3))
    E = automata.Edges((0, 1, 2), np.array(src), np.array(let), np.array(dst),
                       np.array(acc))
    mv = complement_module._Moves(
        n, L, *complement_module._move_groups(E, n),
        complement_module._odd_rank_masks(n), None)
    F = np.zeros((m, 2 * n + 1), dtype=complement_module._row_dtype(n))
    F[:, :n] = rng.integers(-1, 2 * n, size=(m, n))
    for row in F[::2]:
        # a tight ranking: odd ranks 1 .. 2k-1 and anything below 2k
        k = rng.integers(1, n + 1)
        who = rng.permutation(n)
        row[who[:k]] = np.arange(1, 2 * k, 2)
        row[who[k:]] = rng.integers(-1, 2 * k, size=n - k)
    F[::7, :n] = -1
    g, top, status = complement_module._ranking_update(F, mv)
    want = np.full((n, L, m), big, dtype=np.int64)
    for q, a, t, rejecting in zip(src, let, dst, acc):
        rank = F[:, q].astype(np.int64)
        brings = np.where(rank < 0, big, rank & -2 if rejecting else rank)
        want[t, a] = np.minimum(want[t, a], brings)
    assert (want[:, 2] == big).all()
    assert np.array_equal(g, np.where(want < big, want, -1))
    assert np.array_equal(top, np.where(want < big, want, -1).max(axis=0))
    assert (top[2] == -1).all()
    tight = held_tight(np.where(want < big, want, -1))
    expect = np.where(tight, complement_module._NEXT,
                      np.where(top >= 0, complement_module._BLOCKED,
                               complement_module._EMPTY))
    assert np.array_equal(status, expect)
    for outcome in (complement_module._NEXT, complement_module._BLOCKED,
                    complement_module._EMPTY):
        assert (status == outcome).any()


def uca_of_size(n):
    """A UCA of ``n`` states; from two states on, its complement has
    ranking states with nonempty ``O`` sets."""
    if n == 1:
        return Automaton("UCA", Alphabet(("a",)), 1, 0,
                         {(0, 0): (0,), (0, 1): (0,)}, {(0, 1, 0)})
    return seventy_state_uca(n)


@pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 16, 17, 63, 64])
def test_packed_rows_decode_to_ranks_o_flags_and_i(n, monkeypatch):
    """A state's row holds its n ranks, the ceil(n / 8) bytes of its ``O``
    mask, one per cell, and ``i``.  Decoded to n ranks, n ``O`` flags and
    ``i``, the rows of a complement are distinct, a subset's flags are
    clear, ``O`` holds only states of rank ``i``, and the module's masks of
    the decoded flags give the stored bytes back; random flags make the
    same round trip."""
    kept = []

    class Kept(automata.Interner):
        def __init__(self, width, dtype):
            super().__init__(width, dtype)
            kept.append(self)

    monkeypatch.setattr(complement_module, "Interner", Kept)
    C = complement_uca(uca_of_size(n), ComplementOptions(special=False))
    rows = kept[0].rows[:C.n_states]
    nb = -(-n // 8)
    assert rows.shape[1] == n + nb + 1
    assert rows.dtype == complement_module._row_dtype(n)
    ranks, stored, i = rows[:, :n], rows[:, n:n + nb].astype(np.uint8), \
        rows[:, n + nb]
    bits = np.unpackbits(stored, axis=1, bitorder="little")
    assert not bits[:, n:].any()
    O = bits[:, :n].astype(bool)
    # a tight ranking of one state is rank 1, so its O is always empty
    assert O.any() or n == 1
    assert len(np.unique(np.column_stack([ranks, O, i]), axis=0)) == len(rows)
    subset = i < 0
    assert not O[subset].any() and (ranks[subset] <= 0).all()
    assert (i[~subset] % 2 == 0).all()
    assert (~O | (ranks == i[:, None])).all()
    mask = complement_module._mask_words(n)

    def stored_bytes(flags):
        words = complement_module._bit_masks(flags.T, mask)
        return np.ascontiguousarray(words.T).view(np.uint8)[:, :nb]

    assert np.array_equal(stored_bytes(O), stored)
    flags = np.random.default_rng(n).random((500, n)) < 0.5
    assert np.array_equal(np.unpackbits(stored_bytes(flags), axis=1,
                                         bitorder="little")[:, :n], flags)


def same_array(x, y):
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


def assert_plain_values(P):
    """The dict fields hold Python ints and floats, not numpy scalars."""
    for (s, (_, q2)), dist in P.trans.items():
        assert type(s) is int and (q2 is None or type(q2) is int)
        assert all(type(t) is int and type(p) is float for t, p in dist)
    for (s, _, t), r in P.rewards.items():
        assert type(s) is int and type(t) is int and type(r) is float
    assert all(type(s) is int for s in P.actions)
    assert all(type(s) is int for s, _ in P.acc)
    assert all(type(m) is int and type(q) is int for m, q in P.pairs)


def assert_same_product(M, C):
    """The product of ``M`` and ``C`` against the dict reference's; returns
    the number of STUCK rows."""
    mine, theirs = mdp.product_with_nba(M, C), ref.product_with_nba(M, C)
    assert (mine.n_states, mine.initial, mine.alphabet, mine.pairs,
            mine.labels) == (theirs.n_states, theirs.initial,
                             theirs.alphabet, theirs.pairs, theirs.labels)
    a, b = mine.arrays, theirs.arrays
    assert a.n_states == b.n_states and a.action == b.action
    assert a.P.shape == b.P.shape
    for x, y in ((a.first, b.first), (a.state, b.state), (a.R, b.R),
                 (a.acc, b.acc), (a.reward, b.reward),
                 (a.P.indptr, b.P.indptr), (a.P.indices, b.P.indices),
                 (a.P.data, b.P.data)):
        assert same_array(x, y)
    # built on first read only
    assert not {"actions", "trans", "rewards", "acc"} & set(vars(mine))
    assert (mine.actions, mine.trans, mine.rewards, mine.acc) \
        == (theirs.actions, theirs.trans, theirs.rewards, theirs.acc)
    assert_plain_values(mine)

    assert doc_text(mine) == doc_text(theirs)
    return a.action.count(STUCK)


def doc_text(P):
    """``json.dumps`` of the product's document; a state's label there is
    its base letter, which is all that the document format names."""
    view = copy.copy(P)
    view.labels = P.labels if P.alphabet.promises is None \
        else tuple(letter[0] for letter in P.labels)
    return json.dumps(model_to_doc(view, lambda pa: {"name": repr(pa)}))


def test_random_products_match_the_dict_reference():
    # the generator of test_mdp.solved_strategies
    rng = random.Random(2024)
    for _ in range(200):
        C = random_nba(rng, rng.randint(2, 3), n_ap=1)
        M = with_rewards(rng, random_mdp(rng, rng.randint(4, 8),
                                         C.alphabet, n_actions=3))
        assert_same_product(M, C)


def test_stuck_products_match_the_dict_reference():
    rng = random.Random(7)
    stuck = assert_same_product(free_letter_mdp(), infinitely_many_b_nba())
    N = lookahead_guesser_nba()
    stuck += assert_same_product(uniform_chain(N.alphabet), N)
    for _ in range(100):
        n_ap = rng.randint(1, 2)
        C = complement_uca(random_uca(rng, rng.randint(1, 3), n_ap=n_ap))
        M = with_rewards(rng, random_mdp(rng, rng.randint(1, 6),
                                         alphabet=C.alphabet))
        stuck += assert_same_product(M, C)
    assert stuck > 20


@functools.cache
def perfbench_workloads():
    """The benchmark's workload module, for the inputs of its lab runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("schema, states, rows", [
    ("lab", 4_649, 23_542), ("lab-full", 4_569, 23_126)])
def test_lab_products_match_the_dict_reference(schema, states, rows):
    D = build_biolab()
    if schema == "lab":
        work = perfbench_workloads()
        D = work.restrict_promises(D, work.LAB_REDUCED_SCHEMA)
    M, N = remove_lookahead(remove_lookback(D))
    assert_same_product(M, N)
    P = mdp.product_with_nba(M, N)
    assert (P.n_states, len(P.arrays.action)) == (states, rows)


def test_product_deadline_is_checked_in_every_batch(monkeypatch):
    monkeypatch.setattr(automata, "_BATCH", 2)
    M, N = free_letter_mdp(), infinitely_many_b_nba()
    calls = []

    def clock():
        calls.append(1)
        return 0.0

    monkeypatch.setattr(automata.time, "monotonic", clock)
    with time_limit(1.0):
        P = mdp.product_with_nba(M, N)
    assert P.pairs == ref.product_with_nba(M, N).pairs
    # entering the limit, then one batch per two states at most
    assert len(calls) >= 1 + P.n_states / 2
