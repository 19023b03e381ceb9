"""Collection automata: one UCA that checks every promise made along a run.

Given a UCA schema over the base alphabet, the collection automaton reads
letters paired with promises (a schema state, a set of schema states, or the
trivial promise) and accepts exactly the words whose every promise holds from
the step at which it is made.  A fresh initial state loops while collecting;
entering the schema part of the automaton starts checking one promise.
"""

from __future__ import annotations

from .automata import TOP, Alphabet, Automaton, promise_sort_key

PROMISE_MODES = ("single", "at-most-one", "sets")
FINALITY_MODES = ("default", "safety-adjusted")


def default_promise_vocabulary(schema: Automaton, promise_mode: str):
    states = tuple(range(schema.n_states))
    if promise_mode == "single":
        return states
    if promise_mode == "at-most-one":
        return (TOP,) + states
    if promise_mode == "sets":
        # frozenset() is the trivial promise in set mode
        subsets = [frozenset()]
        for mask in range(1, 1 << schema.n_states):
            subsets.append(frozenset(q for q in states if mask & (1 << q)))
        return tuple(subsets)
    raise ValueError(f"unknown promise mode {promise_mode!r}")


def build_collection(schema: Automaton, promise_mode: str = "at-most-one",
                     finality_mode: str = "default",
                     letters=None) -> Automaton:
    """Build the collection UCA of a lookahead schema.

    By default the alphabet pairs every base letter with every promise of
    the chosen mode's full vocabulary.  ``letters`` restricts it to the given
    (base letter, promise) pairs, useful when only a few of them ever occur,
    and the vocabulary to the promises they carry; the automaton reads those
    letters as the unrestricted one does and has no transition on any other.
    The fresh initial state is recorded in the result's tags as
    ``collection_initial``.
    """
    if schema.kind != "UCA":
        raise ValueError("collection requires a UCA schema")
    if schema.n_states == 0:
        raise ValueError("empty schema")
    if promise_mode not in PROMISE_MODES:
        raise ValueError(f"unknown promise mode {promise_mode!r}")
    if finality_mode not in FINALITY_MODES:
        raise ValueError(f"unknown finality mode {finality_mode!r}")
    if letters is None:
        promises = default_promise_vocabulary(schema, promise_mode)
    else:
        promises = sorted({p for _, p in letters}, key=promise_sort_key)
        for p in promises:
            if p is TOP:
                if promise_mode != "at-most-one":
                    raise ValueError("trivial promise TOP requires at-most-one mode")
            elif isinstance(p, int):
                if promise_mode == "sets":
                    raise ValueError("set mode promises must be frozensets")
                if not (0 <= p < schema.n_states):
                    raise ValueError(f"promise state {p} not in schema")
            elif isinstance(p, frozenset):
                if promise_mode != "sets":
                    raise ValueError(f"set promise {p!r} requires set mode")
                if any(not (0 <= q < schema.n_states) for q in p):
                    raise ValueError(f"promise set {p!r} not within schema")
            else:
                raise ValueError(f"bad promise identifier {p!r}")

    alphabet = Alphabet(schema.alphabet.ap, promises, letters)
    letter_set = set(alphabet.letters())
    fresh = schema.n_states  # q0'
    n_states = schema.n_states + 1
    base_letters = list(range(schema.alphabet.base_count))

    delta = {}
    gamma = set()
    # Schema part: the promise component of the letter is ignored.
    for (q, sigma), targets in schema.delta.items():
        for p in promises:
            if (sigma, p) in letter_set:
                delta[(q, (sigma, p))] = targets
    for (q, sigma, t) in schema.gamma:
        for p in promises:
            if (sigma, p) in letter_set:
                gamma.add((q, (sigma, p), t))
    # Fresh state: loop while collecting; promising q enters the schema at
    # delta(q, sigma), with the non-loop part final unless safety-adjusted.
    for sigma in base_letters:
        for p in promises:
            if (sigma, p) not in letter_set:
                continue
            if p is TOP or p == frozenset():
                entered = ()
            elif isinstance(p, frozenset):
                entered = sorted({t for q in p for t in schema.successors(q, sigma)})
            else:
                entered = schema.successors(p, sigma)
            delta[(fresh, (sigma, p))] = tuple(sorted(set(entered) | {fresh}))
            if finality_mode == "default":
                for t in entered:
                    gamma.add((fresh, (sigma, p), t))
    return Automaton("UCA", alphabet, n_states, fresh, delta, gamma,
                     tags={"collection_initial": fresh,
                           "promise_mode": promise_mode,
                           "finality_mode": finality_mode})
