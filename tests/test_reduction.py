import itertools
import random
import sys
import time
from pathlib import Path

import pytest

from omegadp.automata import (
    Alphabet,
    Automaton,
    LassoWord,
    lasso_member_nba,
    lasso_member_uca,
)
from omegadp.complement import ComplementOptions, complement_uca
from omegadp import reduction
from omegadp.hoa import parse_hoa
from omegadp.reduction import (
    PipelineStats,
    batch_reduce,
    canonical_empty,
    lump_all,
    lump_final,
    merge_lang_final,
    prune_empty,
    run_pipeline,
)
from conftest import all_lassos, random_uca

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
    C = prune_empty(complement_uca(U, ComplementOptions(special="off")))
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
                  tags={"parts": ({0}, {1, 2})})
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
                  tags={"parts": ({0}, {1, 2})})
    B = merge_lang_final(A)
    assert B.n_states == 3
    for w in all_lassos(2, 2, 3):
        assert lasso_member_nba(A, w) == lasso_member_nba(B, w)


def test_timeout_reports_partial_stats():
    U = Automaton("UCA", Alphabet(("a",)), 3, 0,
                  {(q, a): (0, 1, 2) for q in range(3) for a in (0, 1)},
                  {(0, 0, 1), (1, 1, 2), (2, 0, 0)})
    R, stats = run_pipeline(U, budget=-1.0)
    assert stats.timed_out
    assert stats.compl is None
    assert stats.row("x")[-1] == "timeout"


def test_timeout_inside_lump_final_keeps_the_pruned_automaton(monkeypatch):
    def clock():
        # the deadline has passed for lump_final and anything it calls
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name == "lump_final":
                return 1e9
            frame = frame.f_back
        return 0.0

    U = random_uca(random.Random(3), 3)
    pruned = prune_empty(complement_uca(U, ComplementOptions(special="off")))
    assert pruned.n_states > 2
    monkeypatch.setattr(reduction.time, "monotonic", clock)
    R, stats = run_pipeline(U, budget=10.0)
    assert stats.timed_out
    assert (stats.compl, stats.prune) == (
        complement_uca(U, ComplementOptions(special="off")).n_states,
        pruned.n_states)
    assert stats.lumpd is None and stats.lang is None and stats.lumpa is None
    assert stats.row("x")[-1] == "timeout"
    R._validate()
    assert (R.n_states, R.initial, R.delta, R.gamma, R.tags["parts"]) == \
        (pruned.n_states, pruned.initial, pruned.delta, pruned.gamma,
         pruned.tags["parts"])


def test_stats_row_format():
    stats = PipelineStats(orig=3, compl=6, prune=4, lumpd=4, lang=4, lumpa=4,
                          time=0.25)
    row = stats.row("sample")
    assert row == ["sample", 3, 6, 4, 4, 4, 4, "0.250"]


@pytest.mark.parametrize("name,expect", [
    ("reduce_01", (2, 4, 2, 2, 2, 2)),
    ("reduce_02", (1, 2, 2, 2, 2, 2)),
    ("reduce_03", (3, 6, 4, 4, 4, 4)),
    ("reduce_04", (4, 8, 6, 6, 6, 6)),
    ("reduce_05", (10, 246080, 87979, 4161, 2276, 2262)),
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
