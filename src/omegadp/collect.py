"""Collection automata: one UCA that checks every promise made along a run.

Given a UCA schema over the base alphabet, the collection automaton reads
letters paired with promises, each a schema state or the trivial promise
``TOP`` (an ODP action promises one lookahead state or nothing), and accepts
exactly the words whose every promise holds from the step at which it is
made.  A fresh initial state loops while collecting; promising state ``q``
on base letter ``a`` also enters the schema at ``delta(q, a)`` by marked
transitions, so the schema part checks one promise at a time.
"""

from __future__ import annotations

from .automata import TOP, Alphabet, Automaton, promise_sort_key


def build_collection(schema: Automaton, letters=None) -> Automaton:
    """Build the collection UCA of a lookahead schema.

    By default the alphabet pairs every base letter with ``TOP`` and every
    schema state.  ``letters`` restricts it to the given (base letter,
    promise) pairs, useful when only a few of them ever occur, and the
    vocabulary to the promises they carry; the automaton reads those letters
    as the unrestricted one does and has no transition on any other.  The
    fresh initial state is recorded in the result's tags as
    ``collection_initial``.
    """
    if schema.kind != "UCA":
        raise ValueError("collection requires a UCA schema")
    if schema.n_states == 0:
        raise ValueError("empty schema")
    if letters is None:
        promises = (TOP,) + tuple(range(schema.n_states))
    else:
        promises = {p for _, p in letters}
        for p in promises:
            if p is not TOP and not (type(p) is int
                                     and 0 <= p < schema.n_states):
                raise ValueError(f"promise {p!r} is not TOP or a schema state")
        promises = sorted(promises, key=promise_sort_key)

    alphabet = Alphabet(schema.alphabet.ap, promises, letters)
    fresh = schema.n_states  # q0'
    delta, gamma = {}, set()
    for letter in alphabet.letters():
        sigma, p = letter
        # Schema part: the promise component of the letter is ignored.
        for q in range(schema.n_states):
            targets = schema.successors(q, sigma)
            delta[(q, letter)] = targets
            gamma.update((q, letter, t) for t in targets
                         if (q, sigma, t) in schema.gamma)
        # Fresh state: loop while collecting; promising p also enters the
        # schema at delta(p, sigma) by marked transitions.
        entered = () if p is TOP else schema.successors(p, sigma)
        delta[(fresh, letter)] = tuple(sorted(set(entered) | {fresh}))
        gamma.update((fresh, letter, t) for t in entered)
    return Automaton("UCA", alphabet, schema.n_states + 1, fresh, delta,
                     gamma, tags={"collection_initial": fresh})
