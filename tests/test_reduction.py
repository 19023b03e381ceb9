import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from omegadp import automata
from omegadp.automata import (
    Alphabet,
    Automaton,
    LassoWord,
    check_time,
    lasso_member_nba,
    lasso_member_uca,
)
from omegadp.cli import buchi_value, random_mdp
from omegadp.complement import ComplementOptions, complement_uca
from omegadp import reduction
from omegadp.hoa import emit_hoa, parse_hoa
from omegadp.lasso_bulk import nba_signature, uca_signature
from omegadp.mdp import product_with_nba
from omegadp.reduction import (
    PipelineStats,
    batch_reduce,
    canonical_empty,
    drop_dominated_jumps,
    lump_all,
    lump_final,
    merge_lang_final,
    prune_empty,
    reduce_nba,
    run_pipeline,
)
from omegadp.streett import determinize_uca, streett_mdp_max_prob
from bisimulation_reference import bisimulation_by_rounds, lowest_members
from conftest import all_lassos, clock_expired_inside, random_uca
from test_mdp import run_python

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def stage_counts(stats):
    return [stats.compl, stats.prune, stats.lumpd, stats.lang, stats.lumpa]


def test_pipeline_preserves_language_and_shrinks(rng):
    lassos = all_lassos(2, 2, 4)
    for _ in range(12):
        U = random_uca(rng, rng.randint(1, 4))
        R, stats = run_pipeline(U)
        counts = stage_counts(stats)
        assert all(c is not None for c in counts)
        assert counts == sorted(counts, reverse=True)
        assert stats.lumpa == R.n_states
        assert not stats.timed_out
        for w in lassos:
            assert lasso_member_uca(U, w) == lasso_member_nba(R, w), w


def test_stages_are_idempotent(rng):
    U = random_uca(rng, 3)
    C = prune_empty(complement_uca(U, ComplementOptions(special=False)))
    D = lump_final(C)
    assert lump_final(D).n_states == D.n_states
    G = merge_lang_final(D)
    assert merge_lang_final(G).n_states == G.n_states
    F = lump_all(G)
    assert lump_all(F).n_states == F.n_states


def test_empty_language_collapses_to_canonical_form():
    # every run keeps hitting rejecting transitions, so the language is empty
    ab = Alphabet(("a",))
    U = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)},
                  {(0, 0, 0), (0, 1, 0)})
    R, stats = run_pipeline(U)
    assert R.n_states == 1
    assert R.delta == {}
    e = canonical_empty(ab)
    assert (R.n_states, R.initial, R.delta, set(R.gamma)) == \
        (e.n_states, e.initial, e.delta, set(e.gamma))


def test_merge_redirects_to_lowest_representative():
    # two copies of the same accepting loop reached nondeterministically
    ab = Alphabet(("a",))
    delta = {(0, 0): (1, 2), (1, 0): (1,), (2, 0): (2,),
             (0, 1): (0,), (1, 1): (1,), (2, 1): (2,)}
    gamma = {(1, 0, 1), (2, 0, 2), (1, 1, 1), (2, 1, 2)}
    A = Automaton("NBA", ab, 3, 0, delta, gamma,
                  tags={"final": np.array([False, True, True])})
    B = merge_lang_final(A)
    assert B.n_states == 2
    assert B.successors(0, 0) == (1,)
    for w in all_lassos(2, 2, 3):
        assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def test_merge_keeps_distinct_languages_apart():
    # state 1 accepts a^w, state 2 accepts nothing on letter 1
    ab = Alphabet(("a",))
    delta = {(0, 0): (1, 2), (1, 0): (1,), (2, 0): (2,), (2, 1): (2,)}
    gamma = {(1, 0, 1), (2, 0, 2)}
    A = Automaton("NBA", ab, 3, 0, delta, gamma,
                  tags={"final": np.array([False, True, True])})
    B = merge_lang_final(A)
    assert B.n_states == 3
    for w in all_lassos(2, 2, 3):
        assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def test_equal_languages_get_equal_fingerprints_whatever_their_marks():
    # state 1 loops on a with every edge marked, states 2 and 3 cycle on a
    # with one edge marked: both accept a^w
    ab = Alphabet(("a",))
    delta = {(0, 1): (1, 2), (1, 1): (1,), (2, 1): (3,), (3, 1): (2,)}
    gamma = {(1, 1, 1), (2, 1, 3)}
    A = Automaton("NBA", ab, 4, 0, delta, gamma,
                  tags={"final": np.array([False, True, True, True])})
    E = A.edges
    T, _ = reduction._successor_table(A.n_states, E)
    nonempty = automata._nonempty(E, automata._components(
        A.n_states, E.src, E.dst))
    rows = reduction._phase2_fingerprints(T, nonempty, np.array([1, 2, 3]))
    assert (rows[0] == rows[1]).all() and (rows[1] == rows[2]).all()
    B = merge_lang_final(A)
    assert B.n_states == 2
    assert B.successors(0, 1) == (1,)
    for w in all_lassos(2, 2, 3):
        assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def test_prune_clears_exactly_the_marks_between_components():
    # components {0}, {1, 2} and {3}; every edge is marked
    ab = Alphabet(("a",))
    delta = {(0, 0): (0, 1), (1, 0): (2,), (2, 0): (1,), (2, 1): (3,),
             (3, 0): (3,), (3, 1): (3,)}
    gamma = {(q, a, t) for (q, a), ts in delta.items() for t in ts}
    A = Automaton("NBA", ab, 4, 0, delta, gamma)
    B = prune_empty(A)
    assert (B.n_states, B.initial, B.delta) == (4, 0, A.delta)
    assert B.gamma == gamma - {(0, 0, 1), (2, 1, 3)}
    for w in all_lassos(2, 2, 3):
        assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def test_dominated_jumps_are_dropped_and_the_rest_kept():
    # from 0 on a: to 1 (a^w), to 2 (every word) and to 3 (a copy of 2);
    # on the other letter only to 1
    ab = Alphabet(("a",))
    delta = {(0, 1): (1, 2, 3), (0, 0): (1,), (1, 1): (1,),
             (2, 0): (2,), (2, 1): (2,), (3, 0): (3,), (3, 1): (3,)}
    gamma = {(1, 1, 1), (2, 0, 2), (2, 1, 2), (3, 0, 3), (3, 1, 3)}
    A = Automaton("NBA", ab, 4, 0, delta, gamma,
                  tags={"final": np.array([False, True, True, True])})
    B = drop_dominated_jumps(A)
    assert B.n_states == 3
    assert B.successors(0, 1) == (2,) and B.successors(0, 0) == (1,)
    assert drop_dominated_jumps(B).edges.dst.tolist() == \
        B.edges.dst.tolist()
    for w in all_lassos(2, 2, 3):
        assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def oracle_disagreements(odd_entry, count=100, bound=5):
    """Random UCAs whose reduced complement disagrees with the Streett
    determinisation on the value of one of three random MDPs, or with the
    UCA on a lasso of length at most ``bound``."""
    rng = random.Random(808 + odd_entry)
    bad = []
    for k in range(count):
        U = random_uca(rng, rng.randint(1, 4), n_ap=rng.randint(1, 2))
        R = reduce_nba(complement_uca(
            U, ComplementOptions(special=False, odd_entry=odd_entry)))
        D = determinize_uca(U)
        for _ in range(3):
            M = random_mdp(rng, rng.randint(2, 6), U.alphabet)
            ref, _ = streett_mdp_max_prob(M, D)
            if abs(buchi_value(product_with_nba(M, R)) - ref) > 1e-7:
                bad.append((k, "value"))
        if not np.array_equal(uca_signature(U, bound),
                              nba_signature(R, bound)):
            bad.append((k, "lassos"))
    return bad


@pytest.mark.parametrize("odd_entry", [True, False])
def test_reduced_complements_match_the_oracles(odd_entry):
    assert oracle_disagreements(odd_entry) == []


def test_oracles_catch_a_dropped_jump_that_is_not_dominated(monkeypatch):
    # with the inclusion test reversed, the jump to the larger language goes
    real = reduction._inclusion_fails
    monkeypatch.setattr(reduction, "_inclusion_fails",
                        lambda T, mark, P, R: real(T, mark, R, P))
    assert oracle_disagreements(True)


def test_timeout_reports_partial_stats():
    U = Automaton("UCA", Alphabet(("a",)), 3, 0,
                  {(q, a): (0, 1, 2) for q in range(3) for a in (0, 1)},
                  {(0, 0, 1), (1, 1, 2), (2, 0, 0)})
    R, stats = run_pipeline(U, budget=-1.0)
    assert stats.timed_out
    assert stats.compl is None
    assert stats.row("x")[-1] == "timeout"


def test_timeout_inside_prune_empty_keeps_the_complement(monkeypatch):
    U = random_uca(random.Random(3), 3)
    C = complement_uca(U, ComplementOptions(special=False))
    monkeypatch.setattr(automata.time, "monotonic",
                        clock_expired_inside("prune_empty"))
    R, stats = run_pipeline(U, budget=10.0)
    assert stats.timed_out
    assert stats.compl == C.n_states and stats.prune is None
    # the complement, with its construction stats, is what came out
    assert R.n_states == C.n_states and "stats" in R.tags


def test_timeout_inside_lump_final_keeps_the_pruned_automaton(monkeypatch):
    U = random_uca(random.Random(3), 3)
    pruned = prune_empty(complement_uca(U, ComplementOptions(special=False)))
    assert pruned.n_states > 2
    monkeypatch.setattr(automata.time, "monotonic",
                        clock_expired_inside("lump_final"))
    R, stats = run_pipeline(U, budget=10.0)
    assert stats.timed_out
    assert (stats.compl, stats.prune) == (
        complement_uca(U, ComplementOptions(special=False)).n_states,
        pruned.n_states)
    assert stats.lumpd is None and stats.lang is None and stats.lumpa is None
    assert stats.row("x")[-1] == "timeout"
    # its views pass the checks of the dict constructor
    Automaton(R.kind, R.alphabet, R.n_states, R.initial, R.delta, R.gamma)
    assert (R.n_states, R.initial, R.delta, R.gamma,
            R.tags["final"].tolist()) == \
        (pruned.n_states, pruned.initial, pruned.delta, pruned.gamma,
         pruned.tags["final"].tolist())


def test_timeout_inside_the_inclusion_search_keeps_the_lumped_automaton(
        monkeypatch):
    U = random_uca(random.Random(3), 3)
    lumped = lump_final(prune_empty(
        complement_uca(U, ComplementOptions(special=False))))
    monkeypatch.setattr(automata.time, "monotonic",
                        clock_expired_inside("_inclusion_fails"))
    R, stats = run_pipeline(U, budget=10.0)
    assert stats.timed_out
    assert stats.lumpd == lumped.n_states
    assert stats.lang is None and stats.lumpa is None
    assert (R.n_states, R.delta, R.gamma) == \
        (lumped.n_states, lumped.delta, lumped.gamma)


STAGES = (prune_empty, lump_final, merge_lang_final, drop_dominated_jumps,
          lump_all)


@pytest.mark.parametrize("stage, inside, loop", [
    (lump_final, "_bisimulation", "lumping"),
    (merge_lang_final, "merge_lang_final", "language merging"),
    (drop_dominated_jumps, "drop_dominated_jumps", "jump dominance"),
    (lump_all, "_bisimulation", "lumping"),
])
def test_each_reduction_loop_honours_its_deadline(stage, inside, loop,
                                                  monkeypatch):
    """With the clock expired inside ``inside``, the stage stops at its
    own loop's check, on the input the pipeline gives it."""
    A = complement_uca(parse_hoa((FIXTURES / "reduce_01.hoa").read_text())
                       .reinterpret("UCA"), ComplementOptions(special=False))
    for earlier in STAGES[:STAGES.index(stage)]:
        A = earlier(A)
    monkeypatch.setattr(automata.time, "monotonic",
                        clock_expired_inside(inside))
    with automata.time_limit(10.0), \
            pytest.raises(TimeoutError, match=f"^{loop} exceeded"):
        stage(A)


def two_phase_edges(rng, n1, n2, n_letters):
    """A random two-phase automaton's edges: states ``0 .. n1 - 1`` form a
    nondeterministic first phase, up to three moves per letter into either
    phase, and the others a deterministic second phase, at most one move
    per letter.  Few letters and marks, so that many states are
    bisimilar.  Returns the state count, the edges and the second-phase
    mask."""
    n = n1 + n2
    src, let, dst, acc = [], [], [], []
    for q in range(n):
        for a in range(n_letters):
            if q < n1:
                targets = rng.sample(range(n), rng.randint(0, min(3, n)))
            else:
                targets = [rng.randrange(n1, n)] if rng.random() < 0.8 else []
            for t in targets:
                src.append(q), let.append(a), dst.append(t)
                acc.append(rng.random() < 0.2)
    E = automata.Edges.normalised(tuple(range(n_letters)), src, let, dst,
                                  acc)
    return n, E, np.arange(n) >= n1


def test_bisimulation_matches_the_round_based_reference():
    """On 200 seeded two-phase automata, the lumping of the deterministic
    second phase, of every state and of a random set of states gives the
    partition of the rounds that code every state."""
    rng = random.Random(37)
    merged = 0
    for _ in range(200):
        n, E, final = two_phase_edges(rng, rng.randint(1, 12),
                                      rng.randint(1, 30), rng.randint(1, 3))
        some = np.array([rng.random() < 0.5 for _ in range(n)])
        for active in (final, np.ones(n, dtype=bool), some):
            got = reduction._bisimulation(n, E, active, "lumping")
            assert np.array_equal(
                lowest_members(got),
                lowest_members(bisimulation_by_rounds(n, E, active)))
            merged += n - len(np.unique(got))
    assert merged > 1000


def test_bisimulation_of_two_long_chains():
    """Two copies of a 1,000-state chain whose last state's loop is marked,
    2,000 states: a state is told apart from the state after it only in
    the round that reaches the marked loop, a thousand rounds deep, and
    each state is bisimilar to its copy and to no other state."""
    q = np.arange(2000)
    last = q % 1000 == 999
    E = automata.Edges((0,), q, np.zeros(2000, dtype=int),
                       np.where(last, q, q + 1), last)
    active = np.ones(2000, dtype=bool)
    got = reduction._bisimulation(2000, E, active, "lumping")
    assert np.array_equal(lowest_members(got), q % 1000)
    assert np.array_equal(lowest_members(got), lowest_members(
        bisimulation_by_rounds(2000, E, active)))


def test_stats_row_format():
    stats = PipelineStats(orig=3, compl=6, prune=4, lumpd=4, lang=4, lumpa=4,
                          time=0.25)
    row = stats.row("sample")
    assert row == ["sample", 3, 6, 4, 4, 4, 4, "0.250"]


@pytest.mark.parametrize("name,expect", [
    ("reduce_01", (2, 4, 2, 2, 2, 2)),
    ("reduce_02", (1, 2, 2, 2, 2, 2)),
    ("reduce_03", (3, 6, 4, 4, 4, 3)),
    ("reduce_04", (4, 8, 6, 6, 6, 6)),
    ("reduce_05", (10, 192199, 87979, 5085, 37, 14)),
])
def test_benchmark_fixture_counts(name, expect):
    A = parse_hoa((FIXTURES / f"{name}.hoa").read_text())
    R, stats = run_pipeline(A)
    got = (stats.orig, stats.compl, stats.prune, stats.lumpd, stats.lang,
           stats.lumpa)
    assert got == expect
    lassos = all_lassos(A.alphabet.size, 2, 3) if A.alphabet.size <= 4 \
        else all_lassos(A.alphabet.size, 1, 2)
    for w in lassos:
        assert lasso_member_uca(A.reinterpret("UCA"), w) == \
            lasso_member_nba(R, w), w


def test_batch_reduce_csv(tmp_path, rng):
    indir = tmp_path / "in"
    indir.mkdir()
    from omegadp.hoa import emit_hoa
    for i in range(3):
        U = random_uca(rng, rng.randint(1, 3))
        (indir / f"aut_{i}.hoa").write_text(emit_hoa(U))
    out = tmp_path / "out.csv"
    rows = batch_reduce(indir, out, workers=1)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,orig,compl,prune,lumpd,lang,lumpa,time"
    assert len(lines) == 4
    assert [r[0] for r in rows] == ["aut_0", "aut_1", "aut_2"]


def test_batch_reduce_csv_goes_on_past_a_broken_file(tmp_path, rng):
    indir = tmp_path / "in"
    indir.mkdir()
    from omegadp.hoa import emit_hoa
    for i in range(2):
        U = random_uca(rng, rng.randint(1, 3))
        (indir / f"aut_{i}.hoa").write_text(emit_hoa(U))
    (indir / "broken.hoa").write_text("HOA: v1\ngarbage")
    out = tmp_path / "out.csv"
    rows = batch_reduce(indir, out, workers=1)
    assert [r[0] for r in rows] == ["aut_0", "aut_1", "broken"]
    assert rows[2][7].startswith("error: HoaError")
    assert all(r[7] != "" and not r[7].startswith("error") for r in rows[:2])
    assert len(out.read_text().strip().splitlines()) == 4
    # the reduced automata of the good files, and nothing else, are written
    out_dir = tmp_path / "reduced"
    out_dir.mkdir()
    again = batch_reduce(indir, out, workers=1, out_dir=out_dir)
    assert [r[:7] for r in again] == [r[:7] for r in rows]
    assert sorted(p.name for p in out_dir.iterdir()) == ["aut_0.hoa",
                                                         "aut_1.hoa"]
    for name in ("aut_0", "aut_1"):
        assert parse_hoa((out_dir / f"{name}.hoa").read_text()).kind == "NBA"


def test_run_pipeline_budget_ends_with_the_pipeline():
    A = random_uca(random.Random(5), 2)
    _, stats = run_pipeline(A, budget=-1.0)
    assert stats.timed_out
    # the pipeline's deadline stays in the pipeline: later work has none
    check_time("later work")
    complement_uca(A, ComplementOptions(special=False))


def test_batch_reduce_loads_the_graph_routines_before_any_file(tmp_path,
                                                               rng):
    # a file reduced before the routines are loaded gets an error row; the
    # pool runs first, while the parent process has not loaded them
    from omegadp.hoa import emit_hoa
    for i in range(3):
        U = random_uca(rng, rng.randint(1, 3))
        (tmp_path / f"aut_{i}.hoa").write_text(emit_hoa(U))
    code = f"""if True:
        import sys
        from omegadp import reduction
        real = reduction.run_pipeline

        def loaded_first(A, budget):
            if "scipy.sparse.csgraph" not in sys.modules:
                raise RuntimeError("graph routines loaded inside the clock")
            return real(A, budget)

        reduction.run_pipeline = loaded_first
        assert "scipy.sparse.csgraph" not in sys.modules
        for workers in (2, 1):
            rows = reduction.batch_reduce({str(tmp_path)!r},
                                          {str(tmp_path / "out.csv")!r},
                                          workers=workers)
            print(sum(r[7].startswith("error") for r in rows), len(rows))
    """
    assert run_python(code).split() == ["0", "3", "0", "3"]


def test_untagged_complements_reduce_by_their_found_partition(rng):
    """A complement read back from HOA has no ``final`` tag, so the
    reduction finds the second phase from the strongly limit-deterministic
    partition; it keeps the language."""
    fixtures = [parse_hoa((FIXTURES / f"reduce_0{k}.hoa").read_text())
                .reinterpret("UCA") for k in range(1, 5)]
    randoms = [random_uca(rng, rng.randint(1, 4), n_ap=rng.randint(1, 2))
               for _ in range(40)]
    for U in fixtures + randoms:
        C = complement_uca(U, ComplementOptions(special=False))
        read = parse_hoa(emit_hoa(C))
        assert "final" not in read.tags
        assert np.array_equal(nba_signature(reduce_nba(read), 5),
                              uca_signature(U, 5))
    # an NBA that is not strongly limit deterministic has no such partition
    guess = Automaton("NBA", Alphabet(("a",)), 2, 0,
                      {(0, 0): (0, 1), (1, 0): (1,)}, {(0, 0, 0), (1, 0, 1)})
    with pytest.raises(ValueError, match="not strongly limit deterministic"):
        reduce_nba(guess)
