"""The benchmark's workloads: inputs made from a seed, timed jobs, gates.

Each workload has a ``setup(seed, root)`` that builds its inputs and a
``job(inputs, tracer)`` that runs the timed job and checks every answer.
A job never raises: an exception, a budget overrun or a wrong answer is
counted in ``failed`` and described in ``failures``.

* ``lab``: the lab case study (``build_biolab`` defaults, lambda 0.99,
  eps 0.01) solved with ``solve_odp`` and value-checked, then a fixed-size
  Q-learning phase on the same product.  The promise schema drops the
  "return home finitely often" conjunct, which the optimal strategy keeps
  anyway: d* is unchanged, and one job fits a run (the full schema's
  checking automaton alone takes about 100 s).  ``lab-full`` keeps the whole
  schema for manual runs; it is not one of the timed workloads.
* ``fixtures``: ``parse_hoa`` -> ``run_pipeline`` -> ``emit_hoa`` on
  ``fixtures/reduce_01..05.hoa``.
* ``oracle``: random universal co-Buchi automata (1 to 4 states, 2 atomic
  propositions, equally many of each size, from the test suite's
  ``random_uca``) checked against the independent oracles at lasso bound 6.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from omegadp import automata, biolab, complement, hoa, lasso_bulk, mdp, \
    odp, qlearn, reduction, streett
from omegadp.automata import Automaton, LassoWord

# lab: promise-schema states kept by the reduced schema (state 5, "return
# home finitely often", is dropped) and the learn-phase size
LAB_REDUCED_SCHEMA = (0, 1, 2, 3, 4, 6, 7)
LEARN_EPISODES = 200
LEARN_STEPS = 1000
# fixtures: names, run_pipeline budget and sampled lassos per fixture
FIXTURES = ("reduce_01", "reduce_02", "reduce_03", "reduce_04", "reduce_05")
FIXTURE_BUDGET = 150.0
FIXTURE_LASSOS = 100
# oracle: automata per size (1..4 states) in one job, lasso bound
ORACLE_PER_SIZE = 80
LASSO_BOUND = 6


@dataclass
class JobResult:
    wall_s: float = 0.0
    out_states: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def reference():
    """Reference values recorded when the benchmark was defined."""
    return json.loads(
        (Path(__file__).resolve().parent / "reference.json").read_text())


def _error(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# --- lab ---------------------------------------------------------------------


def restrict_promises(D, keep):
    """The process ``D`` with its promise schema cut down to the states in
    ``keep``; transitions to dropped states (universal branches) vanish and
    promises are renumbered."""
    S = D.lookahead
    new = {q: i for i, q in enumerate(keep)}
    delta = {(new[q], a): tuple(new[t] for t in ts if t in new)
             for (q, a), ts in S.delta.items() if q in new}
    gamma = {(new[q], a, new[t]) for (q, a, t) in S.gamma
             if q in new and t in new}
    schema = Automaton("UCA", S.alphabet, len(keep), None, delta, gamma)

    def act(a):
        return a if a[2] is None else (a[0], a[1], new[a[2]])

    return odp.Odp(
        D.n_states, D.initial,
        {s: tuple(act(a) for a in acts) for s, acts in D.actions.items()},
        {(s, act(a)): dist for (s, a), dist in D.trans.items()},
        D.alphabet, D.labels, lookback=D.lookback, lookahead=schema,
        rewards={(s, act(a), t): r for (s, a, t), r in D.rewards.items()})


def lab_setup(seed, root, keep=LAB_REDUCED_SCHEMA):
    D = biolab.build_biolab()
    if keep is not None:
        D = restrict_promises(D, keep)
    return {"odp": D, "seed": seed, "ref": reference()["lab"]}


def lab_full_setup(seed, root):
    return lab_setup(seed, root, keep=None)


def _checking_nba_states(tracer):
    spans = [s for s in tracer.spans if s["name"] == "odp.remove_lookahead"
             and "counts" in s]
    return spans[-1]["counts"]["states_out"] if spans else 0


def lab_job(inputs, tracer):
    ref = inputs["ref"]
    lam, eps, d_star = ref["lambda"], ref["eps"], ref["d_star"]
    res = JobResult()
    t0 = time.perf_counter()
    try:
        value, sigma = odp.solve_odp(inputs["odp"], lam, eps)
        sat, disc = mdp.strategy_value_check(sigma.product, sigma.inner, lam)
    except Exception as exc:  # a failed job is counted, not fatal
        res.wall_s = time.perf_counter() - t0
        res.check(False, f"lab solve: {_error(exc)}")
        res.check(False, "lab learn: skipped, no product")
        return res
    res.wall_s = time.perf_counter() - t0
    res.out_states = _checking_nba_states(tracer)
    res.check(abs(value - d_star) <= ref["d_star_tol"]
              and abs(sat - 1.0) <= ref["sat_tol"]
              and disc >= d_star - eps,
              f"lab solve: d*={value!r} sat={sat!r} disc={disc!r}, "
              f"expected d*={d_star!r}")
    res.extra.update(d_star=value, sat=sat, disc=disc)

    P = sigma.product
    t0 = time.perf_counter()
    try:
        tables, learned = qlearn.lex_q_learn(
            P, episodes=LEARN_EPISODES, steps=LEARN_STEPS, lam=lam,
            seed=inputs["seed"])
    except Exception as exc:  # a failed job is counted, not fatal
        res.check(False, f"lab learn: {_error(exc)}")
        return res
    learn_s = time.perf_counter() - t0
    steps = sum(tables.visits.values())
    res.extra.update(learn_s=learn_s, learn_steps=steps,
                     learn_steps_per_s=steps / learn_s,
                     dead_ends=sum(1 for s in range(P.n_states)
                                   if not P.actions.get(s)))
    missing = [s for s in range(P.n_states) if P.actions.get(s) and (
        learned.first.choices.get(s) is None
        or learned.second.choices.get((s, 0)) is None)]
    res.check(not missing, f"lab learn: no choice at {len(missing)} states "
                           f"with actions, e.g. {missing[:5]}")
    return res


# --- fixtures ----------------------------------------------------------------


def fixtures_setup(seed, root):
    texts = {name: (Path(root) / "fixtures" / f"{name}.hoa").read_text()
             for name in FIXTURES}
    return {"texts": texts, "seed": seed,
            "ref": reference()["fixtures"]["stage_counts"]}


def sample_lassos(rng, letters, n, max_prefix=3, max_cycle=3):
    return [LassoWord(
        tuple(rng.choice(letters) for _ in range(rng.randint(0, max_prefix))),
        tuple(rng.choice(letters) for _ in range(rng.randint(1, max_cycle))))
        for _ in range(n)]


def fixtures_job(inputs, tracer):
    res = JobResult()
    done = []
    for name, text in inputs["texts"].items():
        t0 = time.perf_counter()
        try:
            A = hoa.parse_hoa(text)
            R, stats = reduction.run_pipeline(A, budget=FIXTURE_BUDGET)
            hoa.emit_hoa(R, name)
        except Exception as exc:  # a failed job is counted, not fatal
            res.check(False, f"{name}: {_error(exc)}")
            continue
        finally:
            res.wall_s += time.perf_counter() - t0
        done.append((name, A, R, stats))
    # gates, outside the timed window
    rng = random.Random(inputs["seed"])
    ref = inputs["ref"]
    for name, A, R, stats in done:
        counts = (stats.orig, stats.compl, stats.prune, stats.lumpd,
                  stats.lang, stats.lumpa)
        res.extra[name] = counts
        if stats.timed_out or None in counts:
            res.check(False, f"{name}: budget exhausted at {counts}")
            continue
        res.out_states += stats.lumpa
        U = A if A.kind == "UCA" else A.reinterpret("UCA")
        words = sample_lassos(rng, A.alphabet.letters(), FIXTURE_LASSOS)
        wrong = [w for w in words if automata.lasso_member_nba(R, w)
                 != automata.lasso_member_uca(U, w)]
        monotone = all(a >= b for a, b in zip(counts[1:], counts[2:]))
        res.check(monotone and not wrong,
                  f"{name}: counts {counts}, language differs on "
                  f"{len(wrong)} of {len(words)} lassos, e.g. {wrong[:2]}")
        if list(counts) != ref[name]:
            res.extra[f"{name}_vs_reference"] = ref[name]
    return res


# --- oracle ------------------------------------------------------------------


def oracle_corpus(seed, per_size=ORACLE_PER_SIZE):
    """``per_size`` automata of each size 1..4, in an order from the seed,
    drawn by the test suite's generator (``tests/conftest.py``)."""
    from conftest import random_uca  # conftest imports pytest; only oracle pays

    rng = random.Random(seed)
    sizes = [n for n in (1, 2, 3, 4) for _ in range(per_size)]
    rng.shuffle(sizes)
    return [random_uca(rng, n, n_ap=2) for n in sizes]


def oracle_setup(seed, root, per_size=ORACLE_PER_SIZE):
    return {"corpus": oracle_corpus(seed, per_size)}


def oracle_job(inputs, tracer):
    res = JobResult()
    for i, A in enumerate(inputs["corpus"]):
        t0 = time.perf_counter()
        try:
            C = complement.complement_uca(A)
            sig_c = lasso_bulk.nba_signature(C, LASSO_BOUND)
            sig_a = lasso_bulk.uca_signature(A, LASSO_BOUND)
            D = streett.determinize_uca(A)
            sig_d = lasso_bulk.dsa_signature(D, LASSO_BOUND)
            empty = automata.is_empty(
                automata.intersect_nba(C, A.reinterpret("NBA")))
        except Exception as exc:  # a failed job is counted, not fatal
            res.check(False, f"automaton {i}: {_error(exc)}")
            continue
        finally:
            res.wall_s += time.perf_counter() - t0
        res.out_states += C.n_states
        agree_c, agree_d = np.array_equal(sig_c, sig_a), \
            np.array_equal(sig_a, sig_d)
        res.check(agree_c and agree_d and empty,
                  f"automaton {i}: complement/uca agree {agree_c}, "
                  f"uca/dsa agree {agree_d}, intersection empty {empty}")
    return res


@dataclass(frozen=True)
class Workload:
    setup: object
    job: object


WORKLOADS = {
    "lab": Workload(lab_setup, lab_job),
    "fixtures": Workload(fixtures_setup, fixtures_job),
    "oracle": Workload(oracle_setup, oracle_job),
    "lab-full": Workload(lab_full_setup, lab_job),
}
