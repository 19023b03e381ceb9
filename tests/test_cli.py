import csv
import hashlib
import itertools
import json
import os
import random
import shutil
from pathlib import Path

import pytest

from omegadp import automata
from omegadp.automata import (
    Alphabet, Automaton, is_strongly_limit_deterministic)
from omegadp.biolab import BiolabGrid, build_biolab
from omegadp.cli import main
from omegadp.complement import ComplementOptions, complement_uca
from omegadp.hoa import emit_hoa, parse_hoa
from omegadp.odp import odp_to_json, remove_lookahead, remove_lookback

from conftest import example2_odp, random_uca
from test_acceptance import random_collection, shape_fixtures

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_uca(path, A):
    path.write_text(emit_hoa(A))
    return str(path)


def universal_uca():
    ab = Alphabet(("a",))
    return Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)}, set())


def proposition1_nba():
    """Guess the next letter one step early; not good for MDPs."""
    ab = Alphabet(("a",))
    delta = {(0, 0): (0, 1, 2), (0, 1): (0, 1, 2), (1, 1): (3,),
             (2, 0): (3,), (3, 0): (3,), (3, 1): (3,)}
    return Automaton("NBA", ab, 4, 0, delta, {(3, 0, 3), (3, 1, 3)})


def test_complement_writes_hoa_and_stats(tmp_path, capsys):
    src = write_uca(tmp_path / "in.hoa", universal_uca())
    out = tmp_path / "out.hoa"
    stats = tmp_path / "stats.json"
    code = main(["complement", src, "-o", str(out), "--stats", str(stats)])
    assert code == 0
    C = parse_hoa(out.read_text())
    assert C.kind == "NBA"
    doc = json.loads(stats.read_text())
    assert doc["input_states"] == 1 and doc["states"] == C.n_states


def test_complement_stats_match_the_emitted_automaton(tmp_path):
    U = random_uca(random.Random(7), 3)
    src = write_uca(tmp_path / "in.hoa", U)
    out, stats = tmp_path / "out.hoa", tmp_path / "stats.json"
    assert main(["complement", src, "-o", str(out), "--stats", str(stats)]) == 0
    C = parse_hoa(out.read_text())
    doc = json.loads(stats.read_text())
    assert list(doc) == ["states", "transitions", "accepting_transitions",
                         "blocked_transitions", "wall_time_ms", "input_states"]
    blocked = complement_uca(U).tags["stats"]["blocked_transitions"]
    assert blocked > 0
    assert (doc["states"], doc["transitions"], doc["accepting_transitions"],
            doc["blocked_transitions"], doc["input_states"]) \
        == (C.n_states, len(C.edges), int(C.edges.acc.sum()), blocked, 3)
    assert isinstance(doc["wall_time_ms"], int) and doc["wall_time_ms"] >= 0


def test_complement_flags_are_the_options(tmp_path):
    """``--special off --plain-entry`` on a reachability shaped UCA,
    which ``--special auto`` would give its own construction."""
    src = write_uca(tmp_path / "in.hoa", shape_fixtures()[0])
    out = tmp_path / "out.hoa"
    assert main(["complement", src, "-o", str(out), "--special", "off",
                 "--plain-entry"]) == 0
    opts = ComplementOptions(special=False, odd_entry=False)
    C = complement_uca(parse_hoa(Path(src).read_text()), opts)
    assert C.tags["construction"] == "rank"
    assert out.read_text() == emit_hoa(C)


def test_complement_pins_the_fresh_initial_state_of_a_collection(tmp_path):
    # the collection's fresh initial state travels in the HOA header, so
    # the complement pins it to the maximal rank, as in the library
    col = random_collection(random.Random(99))
    src, out = tmp_path / "col.hoa", tmp_path / "out.hoa"
    src.write_text(emit_hoa(col))
    assert main(["complement", str(src), "-o", str(out)]) == 0
    assert parse_hoa(out.read_text()).n_states == 31


def test_complement_rejects_nba_without_flag(tmp_path, capsys):
    src = tmp_path / "in.hoa"
    src.write_text(emit_hoa(proposition1_nba()))
    assert main(["complement", str(src), "-o", str(tmp_path / "o.hoa")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert main(["complement", str(src), "--as-uca",
                 "-o", str(tmp_path / "o.hoa")]) == 0


def test_parse_error_is_structured(tmp_path, capsys):
    bad = tmp_path / "bad.hoa"
    bad.write_text("not a HOA file")
    assert main(["check", str(bad), "--gfm"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "HoaError"


def test_stats_empty_dir_header_only(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    out = tmp_path / "stats.csv"
    assert main(["stats", str(d), "-o", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows == [["name", "orig", "compl", "prune", "lumpd", "lang",
                     "lumpa", "time"]]


def test_stats_batch_with_summary_and_error_rows(tmp_path, rng, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    for i in range(3):
        write_uca(d / f"u{i}.hoa", random_uca(rng, 2, n_ap=1))
    (d / "broken.hoa").write_text("HOA: v1\ngarbage")
    out = tmp_path / "stats.csv"
    assert main(["stats", str(d), "-o", str(out), "--workers", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BatchErrors" and len(err["files"]) == 1
    rows = list(csv.reader(out.open()))
    names = [r[0] for r in rows]
    assert names[0] == "name"
    assert {"u0", "u1", "u2", "broken"} <= set(names)
    assert names[-3:] == ["mean", "stdev", "max"]
    broken = rows[names.index("broken")]
    assert broken[7].startswith("error:")
    # stage counts never grow along the pipeline
    for r in rows[1:]:
        counts = [float(c) for c in r[2:7] if c not in ("",)]
        if r[0] in ("u0", "u1", "u2"):
            assert counts == sorted(counts, reverse=True)


def test_reduce_writes_reduced_automata(tmp_path, rng):
    d = tmp_path / "in"
    d.mkdir()
    A = random_uca(rng, 2, n_ap=1)
    write_uca(d / "a.hoa", A)
    out_dir = tmp_path / "out"
    assert main(["reduce", str(d), "-o", str(tmp_path / "r.csv"),
                 "--out-dir", str(out_dir)]) == 0
    R = parse_hoa((out_dir / "a.hoa").read_text())
    assert R.kind == "NBA"


def test_solve_example(tmp_path, capsys):
    src = tmp_path / "odp.json"
    src.write_text(odp_to_json(example2_odp()))
    out = tmp_path / "sol.json"
    code = main(["solve", str(src), "--lam", "0.5",
                 "--eps", str(2.0 ** -10), "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(2.0, abs=1e-6)
    assert doc["strategy"]["kind"] == "switching"
    assert len(doc["odp_state_of"]) > 0


def test_check_self_equivalence(tmp_path, rng, capsys):
    A = random_uca(rng, 3, n_ap=1)
    src = write_uca(tmp_path / "a.hoa", A)
    assert main(["check", src, "--against", src, "--bound", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["mismatches"] == []


def test_check_detects_language_difference(tmp_path, capsys):
    ab = Alphabet(("a",))
    empty = Automaton("UCA", ab, 1, 0, {(0, 0): (0,), (0, 1): (0,)},
                      {(0, 0, 0), (0, 1, 0)})
    a_path = write_uca(tmp_path / "all.hoa", universal_uca())
    e_path = write_uca(tmp_path / "none.hoa", empty)
    assert main(["check", a_path, "--against", e_path, "--bound", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["mismatch_count"] == report["words_checked"]


def test_check_rejects_a_bound_below_one(tmp_path, rng, capsys):
    src = write_uca(tmp_path / "a.hoa", random_uca(rng, 2, n_ap=1))
    assert main(["check", src, "--against", src, "--bound", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"] == "lasso bound must be at least 1, got 0"


def test_check_against_the_reduced_complement_of_a_fixture(tmp_path, capsys):
    fixture = FIXTURES / "reduce_03.hoa"
    indir = tmp_path / "in"
    indir.mkdir()
    shutil.copy(fixture, indir)
    out_dir = tmp_path / "out"
    assert main(["reduce", str(indir), "-o", str(tmp_path / "r.csv"),
                 "--out-dir", str(out_dir), "--workers", "1"]) == 0
    reduced = out_dir / "reduce_03.hoa"
    # the HOA file carries no partition, so the check finds it itself
    assert is_strongly_limit_deterministic(
        parse_hoa(reduced.read_text()))[0]
    # the fixture stores its UCA under a Buchi header, and `reduce` reads
    # that structure as a UCA: its Buchi reading is the exact complement
    capsys.readouterr()
    assert main(["check", str(fixture), "--against", str(reduced),
                 "--bound", "6"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["mismatch_count"] == report["words_checked"] == 30948
    uca = write_uca(tmp_path / "uca.hoa",
                    parse_hoa(fixture.read_text()).reinterpret("UCA"))
    assert main(["check", uca, "--against", str(reduced),
                 "--bound", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass" and report["words_checked"] == 30948
    # --as-uca reads the fixture the way `reduce` does
    assert main(["check", str(fixture), "--as-uca", "--against", str(reduced),
                 "--bound", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass" and report["words_checked"] == 30948


def test_check_gfm_passes_on_complement_candidates(tmp_path, rng, capsys):
    A = random_uca(rng, 3, n_ap=1)
    src = write_uca(tmp_path / "a.hoa", A)
    assert main(["check", src, "--gfm", "--mdps", "10", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass" and report["failures"] == 0


def test_check_gfm_fails_on_lookahead_guesser(tmp_path, capsys):
    src = tmp_path / "guess.hoa"
    src.write_text(emit_hoa(proposition1_nba()))
    assert main(["check", str(src), "--gfm", "--mdps", "5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    # on the uniform chain the guess succeeds only half the time
    coin = report["samples"][0]
    assert not coin["agree"]
    assert coin["product_value"] == pytest.approx(0.5, abs=1e-9)
    assert coin["reference_value"] == pytest.approx(1.0, abs=1e-9)


def test_check_gfm_is_deterministic_per_seed(tmp_path, rng, capsys):
    src = write_uca(tmp_path / "a.hoa", random_uca(rng, 2, n_ap=1))
    main(["check", src, "--gfm", "--mdps", "5", "--seed", "3"])
    first = capsys.readouterr().out
    main(["check", src, "--gfm", "--mdps", "5", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_determinize_dump(tmp_path, rng):
    A = random_uca(rng, 2, n_ap=1)
    src = write_uca(tmp_path / "a.hoa", A)
    out = tmp_path / "dsa.json"
    assert main(["determinize", src, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["states"] >= 1
    assert len(doc["delta"]) == doc["states"] * len(doc["letters"])


TINY_MAP = """\
+-+-+-+
|C D 1|
+ +z+ +
|  ~  |
+ + + +
|H 2  |
+-+-+-+
"""


def test_learn_smoke(tmp_path, capsys):
    grid = tmp_path / "map.txt"
    grid.write_text(TINY_MAP)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"episodes": 20, "steps": 50}))
    out = tmp_path / "policy.json"
    code = main(["learn", "--map", str(grid), "--config", str(config),
                 "-o", str(out), "--seed", "1"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "switching"
    text = capsys.readouterr().out
    report = json.loads(text[:text.index("}") + 1])
    assert report["product_states"] > 0
    assert "+" in text and "z" in text
    # sha256 of the maps drawn when the arrows were read off a dict of
    # every state's named action
    render = text[text.index("}") + 1:]
    assert hashlib.sha256(render.encode()).hexdigest() == (
        "e9f1366fb57841c213c27111e03c8df57a672e0ec8d3b161d4d358ad80bd17fd")


def test_tiny_map_nba_reads_exactly_the_emitted_letters():
    # test_learn_smoke has built this map's checking NBA in this process
    D = build_biolab(grid=BiolabGrid.parse(TINY_MAP))
    M, N = remove_lookahead(remove_lookback(D))
    assert set(N.alphabet.letters()) == set(M.labels)


def test_learn_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"episodes": 1, "bogus": 2}))
    assert main(["learn", "--config", str(config), "--no-render"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "bogus" in err["message"]


@pytest.mark.parametrize("argv", [
    ["solve", "{lab}", "--lam", "0.99"],
    ["learn", "--no-render"],
    ["check", "{f05}", "--gfm"],
    ["check", "{f05}", "--against", "{f05}"],
    ["determinize", "{f05}", "--as-uca"],
    ["complement", "{f05}", "--as-uca"],
], ids=["solve", "learn", "check-gfm", "check-against", "determinize",
        "complement"])
def test_every_subcommand_stops_at_its_timeout(argv, tmp_path, capsys,
                                               monkeypatch):
    lab = tmp_path / "lab.json"
    if "{lab}" in argv:
        lab.write_text(odp_to_json(build_biolab()))
    argv = [a.format(lab=lab, f05=FIXTURES / "reduce_05.hoa") for a in argv]
    # a clock that moves on a second at every read: each run passes its
    # deadline at its first check, however fast the machine
    ticks = itertools.count()
    monkeypatch.setattr(automata.time, "monotonic", lambda: float(next(ticks)))
    assert main(argv + ["--timeout", "0.01"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TimeoutError"
    assert err["message"].endswith("exceeded its deadline")
