"""Command-line front end for the toolkit.

Subcommands cover the whole pipeline: ``complement`` turns a universal
co-Buchi automaton into a good-for-MDPs Buchi automaton (``--stats`` writes
its state, transition, accepting and blocked transition counts, the input's
state count and the construction's wall time in ms), ``reduce`` and
``stats`` batch the reduction pipeline over a directory of HOA files into a
CSV of per-stage state counts, ``solve`` computes the optimal discounted
value of a decision process with guards and promises, ``learn`` trains the
tabular lexicographic Q-learner on the lab grid world, ``check`` compares
automata by bounded lasso equivalence or by value agreement on random
processes, and ``determinize`` dumps the Streett determinization of a UCA
for debugging.

Reports go to stdout (or the requested output files); failures are reported
as a single JSON object on stderr and a nonzero exit code.  A failed
``check`` verdict also exits nonzero so the command is usable in scripts.
Runs are deterministic for a fixed --seed.  Every subcommand honours
--timeout: ``reduce`` and ``stats`` give each file that many seconds and
write a ``timeout`` row for a file that runs out, and every other subcommand
stops with a ``TimeoutError`` naming the stage that ran out.  Timeouts are
cooperative: the library checks the deadline between batches, rounds and
episodes of its long loops, so a stage may overshoot by the cost of one.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
import time

from .automata import time_limit
from .complement import ComplementOptions, complement_uca
from .hoa import emit_hoa, parse_hoa
from .lasso_bulk import mismatches, nba_signature, uca_signature
from .mdp import (
    Mdp,
    NoValidStrategy,
    buchi_value,
    product_with_nba,
    strategy_to_doc,
    strategy_to_json,
    strategy_value_check,
)
from .odp import compile_product, odp_from_json, solve_odp
from .qlearn import lex_q_learn, policy_arrows, render_policy
from .reduction import batch_reduce
from .streett import determinize_uca, streett_mdp_max_prob

VALUE_TOL = 1e-7


def _read_automaton(path):
    with open(path) as fh:
        return parse_hoa(fh.read())


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _as_uca(A, allow_reinterpret):
    if A.kind == "UCA":
        return A
    if allow_reinterpret:
        return A.reinterpret("UCA")
    raise ValueError(
        f"input is a {A.kind}; pass --as-uca to read its structure as a UCA")


def cmd_complement(args):
    A = _as_uca(_read_automaton(args.input), args.as_uca)
    opts = ComplementOptions(
        odd_entry=not args.plain_entry,
        special=args.special == "auto",
        max_states=args.max_states)
    t0 = time.monotonic()
    C = complement_uca(A, opts)
    wall = time.monotonic() - t0
    _write_text(args.output, emit_hoa(C))
    E = C.edges
    stats = {"states": C.n_states, "transitions": len(E),
             "accepting_transitions": int(E.acc.sum()), **C.tags["stats"],
             "wall_time_ms": int(wall * 1000), "input_states": A.n_states}
    _write_text(args.stats, json.dumps(stats, indent=2))
    return 0


def _summary_rows(rows):
    """Mean, stdev, and max rows over the numeric cells of a stats table."""
    out = []
    for label, agg in (("mean", statistics.fmean),
                       ("stdev", lambda v: statistics.stdev(v)
                        if len(v) > 1 else 0.0),
                       ("max", max)):
        row = [label]
        for col in range(1, 8):
            vals = [float(r[col]) for r in rows
                    if r[col] not in ("", "timeout")]
            row.append(f"{agg(vals):.3f}" if vals else "")
        out.append(row)
    return out


def cmd_batch(args):
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
    rows = batch_reduce(args.input, args.output, args.timeout, args.workers,
                        args.out_dir)
    errors = [{"file": r[0], "message": r[7][len("error: "):]}
              for r in rows if r[7].startswith("error:")]
    good = [r for r in rows if not r[7].startswith("error:")]
    if good:
        with open(args.output, "a", newline="") as fh:
            csv.writer(fh).writerows(_summary_rows(good))
    if errors:
        print(json.dumps({"error": "BatchErrors", "files": errors}),
              file=sys.stderr)
        return 1
    return 0


def cmd_solve(args):
    with open(args.input) as fh:
        D = odp_from_json(fh.read())
    value, sigma = solve_odp(D, args.lam, args.eps)
    doc = {
        "value": value,
        "lam": args.lam,
        "eps": args.eps,
        "strategy": strategy_to_doc(sigma.inner),
        "odp_state_of": list(sigma.odp_state_of),
    }
    _write_text(args.output, json.dumps(doc, indent=2))
    return 0


def cmd_learn(args):
    from .biolab import BiolabGrid, build_biolab, default_grid

    config = {}
    if args.config is not None:
        with open(args.config) as fh:
            config = json.load(fh)
    grid_keys = ("rho", "f1", "f2", "xi", "p_slip", "p_zap")
    train_keys = ("episodes", "steps", "lam", "zeta", "tau_lex", "eps",
                  "explore", "alpha_power", "alpha_floor", "optimism")
    unknown = set(config) - set(grid_keys) - set(train_keys)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if args.map is not None:
        with open(args.map) as fh:
            grid = BiolabGrid.parse(fh.read())
    else:
        grid = default_grid()
    D = build_biolab(grid=grid,
                     **{k: config[k] for k in grid_keys if k in config})
    train = {k: config[k] for k in train_keys if k in config}
    train.setdefault("episodes", 80_000)
    lam = train.get("lam", 0.99)
    P, odp_state_of = compile_product(D)
    _, strategy = lex_q_learn(P, seed=args.seed, **train)
    _write_text(args.output, strategy_to_json(strategy))
    sat, disc = strategy_value_check(P, strategy, lam)
    print(json.dumps({"sat_prob": sat, "disc_value": disc,
                      "product_states": P.n_states,
                      "episodes": train["episodes"]}, indent=2))
    if not args.no_render:
        def cell_of(x):
            key = D.keys[odp_state_of[x]]
            return None if key == "wreck" else key[0]
        print(render_policy(grid, policy_arrows(P, strategy.second, cell_of)))
    return 0


def _signature(A, bound):
    if A.kind == "UCA":
        return uca_signature(A, bound)
    return nba_signature(A.reinterpret("NBA"), bound)


def random_mdp(rng, n, alphabet=None, n_actions=2):
    """Small random MDP, labeled over ``alphabet`` unless it is None; one
    action per state when n_actions is 1."""
    letters = alphabet.letters() if alphabet is not None else None
    actions, trans, labels = {}, {}, []
    for s in range(n):
        if letters is not None:
            labels.append(letters[rng.randrange(len(letters))])
        names = tuple(f"a{k}" for k in range(rng.randint(1, n_actions)))
        actions[s] = names
        for a in names:
            support = rng.sample(range(n), rng.randint(1, min(2, n)))
            trans[(s, a)] = tuple((t, 1.0 / len(support)) for t in support)
    return Mdp(n, 0, actions, trans, alphabet=alphabet,
               labels=labels if letters is not None else None)


def _check_input(args):
    """The automaton to check; ``--as-uca`` reads its structure as a UCA."""
    A = _read_automaton(args.input)
    return _as_uca(A, True) if args.as_uca else A


def _check_against(args):
    A = _check_input(args)
    B = _read_automaton(args.against)
    if A.alphabet.letters() != B.alphabet.letters():
        raise ValueError("the two automata have different alphabets")
    bound = args.bound
    sig_a, sig_b = _signature(A, bound), _signature(B, bound)
    bad = mismatches(sig_a, sig_b, A.alphabet.letters(), bound)
    report = {
        "mode": "lasso-equivalence",
        "bound": bound,
        "words_checked": len(sig_a),
        "mismatch_count": int((sig_a != sig_b).sum()),
        "mismatches": [{"prefix": list(w.prefix), "cycle": list(w.cycle)}
                       for w in bad],
        "verdict": "pass" if not bad else "fail",
    }
    print(json.dumps(report, indent=2))
    return 0 if not bad else 1


def uniform_chain(alphabet):
    """One state per letter, labeled by it, uniformly random successor.

    The next label carries no information, so an automaton that needs to
    guess it cannot do better than chance on this chain.
    """
    letters = alphabet.letters()
    n = len(letters)
    actions = {s: ("a0",) for s in range(n)}
    trans = {(s, "a0"): tuple((t, 1.0 / n) for t in range(n))
             for s in range(n)}
    return Mdp(n, 0, actions, trans, alphabet=alphabet, labels=list(letters))


def _check_gfm(args):
    """Value-agreement check of a good-for-MDPs candidate.

    For a UCA input, its rank-based complement is the candidate and the
    Streett determinization of the input is the reference, compared on
    random MDPs.  For an NBA input the automaton itself is the candidate;
    the reference value on a random Markov chain is one minus the chain's
    probability of the structure's UCA language (the exact complement), so
    the check needs no Buchi determinization.  The first sample is always
    the uniformly random chain over the alphabet, whose unpredictable
    labels defeat any automaton that resolves nondeterminism by lookahead.
    """
    import random

    A = _check_input(args)
    rng = random.Random(args.seed)
    if A.kind == "UCA":
        candidate = complement_uca(A)
        dsa = determinize_uca(A)
        chain_only = False
    else:
        candidate = A.reinterpret("NBA")
        dsa = determinize_uca(A.reinterpret("UCA"))
        chain_only = True
    samples, failures = [], 0
    for i in range(args.mdps):
        if i == 0:
            M = uniform_chain(A.alphabet)
        else:
            M = random_mdp(rng, rng.randint(2, 6), A.alphabet,
                            n_actions=1 if chain_only else 2)
        got = buchi_value(product_with_nba(M, candidate))
        ref, _ = streett_mdp_max_prob(M, dsa)
        if chain_only:
            ref = 1.0 - ref
        ok = abs(got - ref) <= VALUE_TOL
        failures += not ok
        samples.append({"product_value": got, "reference_value": ref,
                        "agree": ok})
    report = {
        "mode": "gfm-value-agreement",
        "mdps": args.mdps,
        "failures": failures,
        "samples": samples,
        "verdict": "pass" if failures == 0 else "fail",
    }
    print(json.dumps(report, indent=2))
    return 0 if failures == 0 else 1


def cmd_check(args):
    if args.against is not None:
        return _check_against(args)
    if args.gfm:
        return _check_gfm(args)
    raise ValueError("pass either --against FILE or --gfm")


def cmd_determinize(args):
    A = _as_uca(_read_automaton(args.input), args.as_uca)
    D = determinize_uca(A, max_states=args.max_states)
    letters = A.alphabet.letters()
    doc = {
        "states": D.n_states,
        "initial": D.initial,
        "letters": [repr(a) for a in letters],
        "delta": [[s, repr(a), D.delta[(s, a)]]
                  for s in range(D.n_states) for a in letters],
        "pairs": {str(name): {
            "collapse": sorted([s, repr(a)] for s, a in coll),
            "unstick": sorted([s, repr(a)] for s, a in unst)}
            for name, (coll, unst) in sorted(D.pairs.items(),
                                             key=lambda kv: str(kv[0]))},
    }
    _write_text(args.output, json.dumps(doc, indent=2))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="omegadp",
        description="Promise collection, GFM complementation, and "
                    "lexicographic MDP solving.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--timeout", type=float, default=600.0,
                        help="cooperative time budget in seconds: per file "
                             "for reduce and stats, for the whole run "
                             "otherwise")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized steps")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("complement", parents=[common],
                       help="UCA to good-for-MDPs NBA")
    p.add_argument("input", help="HOA file holding a UCA")
    p.add_argument("-o", "--output", default=None, help="output HOA path")
    p.add_argument("--stats", default=None, help="stats JSON path")
    p.add_argument("--as-uca", action="store_true",
                   help="read an NBA file structurally as a UCA")
    p.add_argument("--plain-entry", action="store_true",
                   help="disable the odd-rank entry restriction")
    p.add_argument("--special", default="auto", choices=("auto", "off"),
                   help="auto: safety and reachability shaped inputs get "
                        "their smaller constructions; off: always the rank "
                        "construction")
    p.add_argument("--max-states", type=int, default=50_000_000)
    p.set_defaults(func=cmd_complement)

    columns = ("CSV columns: orig, the input's states; compl, the states of "
               "the generic rank complement, which builds no entry ranking "
               "that every letter blocks; prune, lumpd, lang and lumpa, the "
               "states after each reduction stage; time, the seconds taken.")
    for name, help_ in (("reduce", "batch reduce a directory of HOA files"),
                        ("stats", "batch stage statistics without outputs")):
        p = sub.add_parser(name, parents=[common], help=help_,
                           description=columns)
        p.add_argument("input", help="directory of .hoa files")
        p.add_argument("-o", "--output", required=True, help="CSV path")
        p.add_argument("--workers", type=int, default=None,
                       help="worker pool size (default: all cores)")
        if name == "reduce":
            p.add_argument("--out-dir", required=True,
                           help="directory for the reduced automata")
        p.set_defaults(func=cmd_batch, out_dir=None)

    p = sub.add_parser("solve", parents=[common],
                       help="solve a decision process JSON file")
    p.add_argument("input", help="process JSON path")
    p.add_argument("--lam", type=float, required=True,
                   help="reward discount factor")
    p.add_argument("--eps", type=float, default=1e-6,
                   help="strategy suboptimality bound")
    p.add_argument("-o", "--output", default=None,
                   help="value and strategy JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("learn", parents=[common],
                       help="Q-learning on the lab grid world")
    p.add_argument("--map", default=None,
                   help="grid map file (default: the bundled map)")
    p.add_argument("--config", default=None,
                   help="JSON with grid and training parameters")
    p.add_argument("-o", "--output", default=None, help="policy JSON path")
    p.add_argument("--no-render", action="store_true",
                   help="skip the ASCII policy rendering")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("check", parents=[common],
                       help="language or value-agreement checking")
    p.add_argument("input", help="HOA file")
    p.add_argument("--against", default=None,
                   help="second HOA file for lasso equivalence")
    p.add_argument("--bound", type=int, default=6,
                   help="lasso length bound for --against, at least 1; "
                        "time and memory grow with letters^bound")
    p.add_argument("--gfm", action="store_true",
                   help="value-agreement check on random processes")
    p.add_argument("--mdps", type=int, default=20,
                   help="number of random processes for --gfm")
    p.add_argument("--as-uca", action="store_true",
                   help="read the input file's structure as a UCA")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("determinize", parents=[common],
                       help="dump the Streett determinization (debug)")
    p.add_argument("input", help="HOA file holding a UCA")
    p.add_argument("-o", "--output", default=None, help="JSON path")
    p.add_argument("--as-uca", action="store_true",
                   help="read an NBA file structurally as a UCA")
    p.add_argument("--max-states", type=int, default=200_000)
    p.set_defaults(func=cmd_determinize)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # reduce and stats give each file its own budget; a run-wide limit
    # would also reach the worker processes they fork
    per_file = args.subcommand in ("reduce", "stats")
    try:
        with time_limit(None if per_file else args.timeout):
            return args.func(args)
    except Exception as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NoValidStrategy):
            payload["sat_prob"] = exc.sat_prob
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
