"""Bulk membership of bounded lasso words.

A signature is a boolean vector holding, for every ultimately periodic word
``prefix . cycle^omega`` with ``len(prefix) + len(cycle) <= bound``, whether
an automaton accepts it.  Two automata agree on all bounded lassos exactly
when their signatures are equal, which turns corpus-level equivalence checks
into array comparisons.  A signature has about ``letters^bound`` bits, and
time and memory grow with it.

The single-word checkers in ``automata`` and ``streett`` build a fresh graph
per word; over the 30948 words at bound 6 on four letters that is far too
slow for large corpora.  Here the work is shared and vectorized.  Every
path analyses one representative ``v`` per rotation class of cycle words
(``_cycle_batch``), since the word ``v[p:] + v[:p]`` is ``v`` read from
phase ``p``, and finds for a slice of representatives the states that
accept each of them at each phase.  ``_sign`` meets those rows with the
prefixes' reach sets (``_prefix_sets``) and writes the bits straight into
one preallocated boolean output, one tile of words and prefixes at a time:
no array of words × states is built.  One working-set budget, ``_BUDGET``
bytes, sizes every temporary: the slices of representatives, prefixes,
tiles and codes, and the word matrices the generic path keeps.

* For nondeterministic automata, the relation and accept matrices of
  every representative come from those of the word one letter shorter,
  ``rel(w·a) = rel(w)·E[a]`` and ``acc(w·a) = acc(w)·E[a] + rel(w)·F[a]``,
  and the accepting-loop test is a batched transitive closure; since
  acceptance ignores a finite prefix, a backward scan of mat-vecs over the
  letters gives the other phases.
* Automata that pass ``is_strongly_limit_deterministic`` (complement
  outputs in particular) get a much cheaper path: inside each part a run
  is a function of its start state, so reading a cycle word is a walk in a
  functional graph instead of a matrix closure.  The check searches by
  ``_reaching`` here.  That path first cuts the automaton to its live
  states, those from which an accepting lasso exists, by its own
  Emerson–Lei fixpoint (``_live_states``).  Neither calls the graph or
  emptiness layer of ``automata``, which the signatures help to check.
  Every other state becomes the sink of its part, and the input automaton
  is not changed.  Fewer than half of the states of a typical complement
  are live.
* Deterministic Streett automata also take the functional path, OR-ing the
  per-pair transition flags, packed into the narrowest unsigned integer
  that holds them, over the eventual loop.

Each representative is padded to ``bound + 1`` letters with a padding
letter, a step that moves no state and sets no flag, so one pass over the
phases serves every length.  The last phase is always padding and holds
the value of phase 0, so "phase ``p + 1``" needs no modulo.  The
representatives' lengths, padded letters and rotated codes depend only on
the letter count and the bound: ``_cycle_batch`` builds them once per pair
and keeps them read-only, each in the narrowest unsigned type that holds
it, and ``_sign`` slices them per chunk.  The step tables have few states
and the arrays of letters that index them many entries, so their rows are
gathered with ``np.take(table, idx, axis=0)``: indexing ``table[idx]``
takes numpy's slow path for such small rows, nine times slower at four
states and a fifth slower at a hundred.

The functional path analyses each cycle word ``w`` of length ``cl`` at
phase 0 only.  One backward scan over ``w`` gives, for every phase ``p``,
the suffix map ``S_p`` (state at phase ``p`` to state at the next phase 0)
and the OR of the step flags along that suffix.  The whole-word map
``g = S_0`` acts on the states alone (plus a sink for missing moves), and
pointer doubling on it finds the OR of the flags over ``g``'s eventual
cycle from every state.  The walk from state ``q`` at phase ``p`` enters the same
cycle as the walk from ``S_p(q)`` at phase 0, so every other phase is one
gather.  For ``k`` words on ``n`` states this costs
O(k·n·(cl + log n)), where doubling the (state, phase) graph directly costs
O(k·n·cl·log(n·cl)).
"""

from __future__ import annotations

import bisect
import functools
import itertools

import numpy as np

from .automata import Automaton, LassoWord, _first_phase, check_time

# working set of one step of every signature path, in bytes: every slice of
# representatives, prefixes, output tiles and word codes, and the word
# matrices the generic path keeps, is cut so that the arrays one step holds
# stay within it
_BUDGET = 1 << 21


def bounded_lassos(letters, bound):
    """All lasso words with ``len(prefix) + len(cycle) <= bound``.

    Ordered by cycle length, then cycle (lexicographic in the given letter
    order), then prefix length, then prefix; every signature in this module
    is aligned with this enumeration.
    """
    letters = list(letters)
    out = []
    for cl in range(1, bound + 1):
        for cycle in itertools.product(letters, repeat=cl):
            for pl in range(bound - cl + 1):
                for prefix in itertools.product(letters, repeat=pl):
                    out.append(LassoWord(prefix, cycle))
    return out


def _layout(n_letters, bound):
    """``(pre, off)``: for cycle length ``cl``, its words go with the
    ``pre[cl - 1]`` prefixes of length at most ``bound - cl`` (the first
    ones when prefixes are listed by length), and its block of the
    signature begins at ``off[cl - 1]``; ``off[bound]`` is the length."""
    pre = [sum(n_letters ** p for p in range(bound - cl + 1))
           for cl in range(1, bound + 1)]
    off = list(itertools.accumulate(
        (n_letters ** cl * n for cl, n in enumerate(pre, 1)), initial=0))
    return pre, off


def _lasso_at(index, letters, bound):
    """The lasso word at position ``index`` of ``bounded_lassos``, by the
    arithmetic of that order."""
    letters, L = list(letters), len(letters)
    pre, off = _layout(L, bound)
    cl = bisect.bisect_right(off, index)
    cycle, rest = divmod(index - off[cl - 1], pre[cl - 1])
    pl = 0
    while rest >= L ** pl:
        rest -= L ** pl
        pl += 1
    prefix, cycle = (np.unravel_index(c, (L,) * n)
                     for c, n in ((rest, pl), (cycle, cl)))
    return LassoWord([letters[i] for i in prefix], [letters[i] for i in cycle])


def mismatches(sig_a, sig_b, letters, bound, limit=10):
    """Lasso words on which two signatures disagree (at most ``limit``),
    searched one slice of positions at a time."""
    # per position: the difference, then two int64 indices
    a, b, step = np.asarray(sig_a), np.asarray(sig_b), max(1, _BUDGET // 17)
    found = itertools.chain.from_iterable(
        lo + np.flatnonzero(a[lo:lo + step] != b[lo:lo + step])
        for lo in range(0, len(a), step))
    return [_lasso_at(int(i), letters, bound)
            for i in itertools.islice(found, limit)]


def _check_bound(bound):
    if bound < 1:
        raise ValueError(f"lasso bound must be at least 1, got {bound}")


def _doubling_steps(domain):
    """Squarings needed for a window covering ``domain`` many steps."""
    return max(1, int(domain - 1).bit_length())


def _suffix_maps(steps, flags):
    """Suffix maps of a batch of cycle words by one backward scan.

    ``steps`` and ``flags`` are ``(cl, k, N)`` arrays: ``steps[p, i]`` is
    the step function that word ``i``'s letter at phase ``p`` induces on
    ``N`` states, and ``flags[p, i]`` that step's flags (bools or packed
    bits).  Both are overwritten and returned as ``(S, F)``: ``S[p, i, q]``
    is the state reached from ``q`` at phase ``p`` when the word's phase 0
    comes round again, and ``F[p, i, q]`` the OR of the flags of those
    steps.  States in ``S`` are flat indices ``i * N + state`` into any
    ``(k, N)`` array, ready for ``np.take``.
    """
    cl, k, N = steps.shape
    S, F = steps, flags
    S += np.arange(0, k * N, N, dtype=np.intp)[:, None]
    for p in range(cl - 2, -1, -1):
        F[p] |= np.take(F[p + 1], S[p])
        S[p] = np.take(S[p + 1], S[p])
    return S, F


def _iterate_or(g, h):
    """Pointer doubling on a whole-word map ``g`` in flat indices (see
    ``_suffix_maps``): returns ``(g^(2^r), h')`` where ``h'[i, q]`` is the
    OR of ``h`` over the first ``2^r >= N`` iterates of ``g`` from ``q``,
    which is every state the walk from ``q`` visits."""
    for _ in range(_doubling_steps(g.shape[1])):
        h = h | np.take(h, g)
        g = np.take(g, g)
    return g, h


def _loop_or(steps, flags):
    """OR of the flags over the eventual loop of every walk: entry
    ``[p, i, q]`` is for word ``i`` read from state ``q`` at phase ``p``.
    The arguments are those of ``_suffix_maps`` and are overwritten.  The
    walk from ``q`` at phase ``p`` ends in the loop of the whole-word map
    from ``S[p, i, q]``."""
    S, F = _suffix_maps(steps, flags)
    g, h = _iterate_or(S[0], F[0])
    return np.take(np.take(h, g), S)


def _rotate(code, p, n_letters, cl):
    """Code of ``v[p:] + v[:p]`` for the word ``v`` of length ``cl`` with
    code ``code`` (its lexicographic index among the words of length
    ``cl``)."""
    tail = n_letters ** (cl - p)
    return code % tail * n_letters ** p + code // tail


def _least_rotations(n_letters, cl):
    """Codes of the words of length ``cl`` that are least among their
    rotations, ascending: one per rotation class, and the first of its
    class in lexicographic order."""
    # int64 codes, their least rotation and three temporaries per code
    total, step = n_letters ** cl, max(1, _BUDGET // 40)
    parts = []
    for lo in range(0, total, step):
        code = np.arange(lo, min(total, lo + step), dtype=np.int64)
        least = code.copy()
        for p in range(1, cl):
            np.minimum(least, _rotate(code, p, n_letters, cl), out=least)
        parts.append(code[least == code])
    return np.concatenate(parts)


def _frozen(a, top):
    """``a`` read-only, in the narrowest unsigned type holding ``top``."""
    a = a.astype(np.min_scalar_type(top), copy=False)
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _cycle_batch(n_letters, bound):
    """``(code, (start, length, W, words))``, built once per ``(n_letters,
    bound)`` and read-only, each array of the narrowest type that holds it:
    the representatives (``_least_rotations``) of every cycle length
    ``1..bound``, in that order, as codes; representative ``i`` has length
    ``length[i]``, which is ``cl`` for ``start[cl - 1] <= i < start[cl]``;
    ``W[p, i]`` is its letter at phase ``p``, and the padding letter
    ``n_letters`` from its length to ``bound``; and ``words[cl - 1][p, j]``
    is the code of representative ``start[cl - 1] + j`` read from phase
    ``p``."""
    L, codes = n_letters, [_least_rotations(n_letters, cl)
                            for cl in range(1, bound + 1)]
    sizes = [len(c) for c in codes]
    start = tuple(itertools.accumulate(sizes, initial=0))
    W = np.full((bound + 1, start[-1]), L, dtype=np.min_scalar_type(L))
    words, phase = [], np.arange(bound + 1)[:, None]
    for cl, c in enumerate(codes, 1):
        rot = np.empty((cl, len(c)), dtype=np.min_scalar_type(L ** cl - 1))
        # per code and phase: its int64 rotation or letter and two temporaries
        step = max(1, _BUDGET // (24 * cl))
        for lo in range(0, len(c), step):
            part, at = c[lo:lo + step], start[cl - 1] + lo
            rot[:, lo:lo + len(part)] = _rotate(part, phase[:cl], L, cl)
            W[:cl, at:at + len(part)] = part // L ** phase[cl - 1::-1] % L
        words.append(_frozen(rot, L ** cl - 1))
    length = np.repeat(np.arange(1, bound + 1), sizes)
    return _frozen(np.concatenate(codes), L ** bound - 1), (
        start, _frozen(length, bound), _frozen(W, L), tuple(words))


def _sign(n_letters, bound, per_rep, reach, verdicts):
    """A signature, written straight into one preallocated boolean array.

    The representatives of ``_cycle_batch`` go in slices of at most
    ``_BUDGET`` bytes at ``per_rep`` bytes each.  ``verdicts(code, length,
    W)`` gets a slice of their codes, lengths and padded letters and
    returns ``good[p, i]``, the states from which the word
    ``v[p:] + v[:p]`` is accepted, ``v`` being representative ``i``.  The
    lasso of that word after prefix ``u`` is accepted when ``good[p, i]``
    meets ``reach[u]``, the states ``u`` reaches (prefixes in signature
    order).  Each block of the output goes out one tile of words and
    prefixes at a time.
    """
    (reps, (start, length, W, rotated)), (pre, off) = \
        _cycle_batch(n_letters, bound), _layout(n_letters, bound)
    out = np.empty(off[-1], dtype=bool)
    chunk = max(1, _BUDGET // per_rep)
    for lo in range(0, len(reps), chunk):
        check_time("lasso signatures")
        hi = min(lo + chunk, len(reps))
        good = verdicts(reps[lo:hi], length[lo:hi], W[:, lo:hi])
        for cl, (s, e) in enumerate(zip(start, start[1:]), 1):
            a, b = max(lo, s), min(hi, e)
            if a >= b:
                continue
            words = rotated[cl - 1][:, a - s:b - s].ravel()
            rows = good[:cl, a - lo:b - lo].reshape(len(words), -1)
            rows, n_pre = rows.astype(np.float32), pre[cl - 1]
            block = out[off[cl - 1]:off[cl]].reshape(-1, n_pre)
            # per prefix its float32 set, per bit the product and its verdict
            tile = max(1, _BUDGET // (4 * rows.shape[1] + 5 * len(words)))
            for u in range(0, n_pre, tile):
                cut = slice(u, min(u + tile, n_pre))
                block[words, cut] = np.matmul(
                    rows, reach[cut].T.astype(np.float32)) > 0
    return out


def _prefix_sets(rel, first, bound):
    """The states that the 0/1 relation ``rel[letter]`` reaches from the
    set ``first`` after every prefix shorter than ``bound``, as boolean rows
    in signature order (by length, then lexicographic), where the rows of
    ``u·a`` for every letter ``a`` are ``1 + L·i ...`` for row ``i`` of
    ``u``."""
    L, m = rel.shape[0], rel.shape[1]
    step = rel.transpose(1, 0, 2).reshape(m, L * m).astype(np.float32)
    out = np.zeros((sum(L ** p for p in range(bound)), m), dtype=bool)
    out[0] = first
    # per row its float32 copy and, per letter, the product and its verdict
    chunk, lo = max(1, _BUDGET // (m * (4 + 5 * L))), 0
    for level in range(bound - 1):
        hi = lo + L ** level
        for a in range(lo, hi, chunk):
            b = min(hi, a + chunk)
            out[1 + L * a:1 + L * b] = (np.matmul(
                out[a:b].astype(np.float32), step) > 0).reshape(-1, m)
        lo = hi
    return out


def nba_signature(A: Automaton, bound: int) -> np.ndarray:
    """Membership of every bounded lasso in the language of an NBA/DBA."""
    _check_bound(bound)
    if A.is_schema:
        raise ValueError("schema has no initial state")
    flag, in1 = _first_phase(A, _reaching)
    if flag:
        return _sig_limit_det(A, bound, in1)
    return _sig_generic(A, bound)


def uca_signature(A: Automaton, bound: int) -> np.ndarray:
    """A UCA accepts exactly the words its NBA reading rejects."""
    if A.kind != "UCA":
        raise ValueError("expected a UCA")
    sig = nba_signature(A.reinterpret("NBA"), bound)
    return np.logical_not(sig, out=sig)


def _word_mats(E, F, longest):
    """Relation and accept matrices of words, by extension one letter at a
    time: ``rel(w·a) = rel(w)·E[a]`` and ``acc(w·a) = acc(w)·E[a] +
    rel(w)·F[a]``, thresholded to 0/1.  Both live in one ``(m, 2m)`` block
    ``[rel | acc]``, which one product with ``[[E, F], [0, E]]`` extends.

    The blocks of every word up to length ``longest`` are kept, level by
    level in lexicographic order, as far as they fit in ``_BUDGET`` bytes.
    Returns ``mats(codes, lengths, W)``, giving the ``rel`` and ``acc``
    stacks of the words named by their lexicographic index among the words
    of their length, with their padded letters ``W`` (see ``_sign``); a
    word longer than the kept ones extends its longest kept prefix.
    """
    L, m = E.shape[0], E.shape[1]
    # letter L, which ends words shorter than the others, is the identity
    step = np.zeros((L + 1, 2 * m, 2 * m), dtype=np.float32)
    step[:L, :m, :m] = step[:L, m:, m:] = E
    step[:L, :m, m:] = F
    step[L] = np.eye(2 * m)
    levels = [np.eye(m, 2 * m, dtype=np.float32)[None]]
    cells = 2 * m * m
    while len(levels) <= longest and \
            4 * (cells + len(levels[-1]) * L * 2 * m * m) <= _BUDGET:
        nxt = np.matmul(levels[-1][:, None], step[:L])
        levels.append(np.minimum(nxt, 1.0, out=nxt).reshape(-1, m, 2 * m))
        cells += nxt.size
    top = len(levels) - 1
    offset = np.cumsum([0] + [len(x) for x in levels[:-1]])
    kept = np.concatenate(levels)

    def mats(codes, lengths, W):
        short = np.minimum(lengths, top)
        x = np.take(kept, offset[short] + codes // np.power(
            L, lengths - short, dtype=np.intp), axis=0)
        for p in range(top, int(lengths.max())):
            x = np.matmul(x, np.take(step, W[p], axis=0))
            np.minimum(x, 1.0, out=x)
        return x[:, :, :m], x[:, :, m:]

    return mats


def _sig_generic(A: Automaton, bound: int) -> np.ndarray:
    """Boolean-matrix signature for any NBA.

    A state ``q`` accepts ``v^omega`` when it reaches, along ``rel(v)``, a
    state on a loop of ``rel(v)`` that passes ``acc(v)``; that takes a
    transitive closure, done only for one representative ``v`` per rotation
    class (see ``_word_mats``).  Since acceptance ignores a finite prefix,
    the word ``v[p:] + v[:p]`` is accepted from the states that letter
    ``v[p]`` takes into those accepting ``v[p + 1:] + v[:p + 1]``: one
    backward scan of boolean mat-vecs over the padded representative (see
    the module docstring) from the states accepting ``v^omega`` gives every
    rotation.
    """
    L, m = len(A.alphabet.letters()), A.n_states
    e = A.edges
    # letter L, the padding, is the identity
    E = np.zeros((L + 1, m, m), dtype=np.float32)
    F = np.zeros((L, m, m), dtype=np.float32)
    E[e.let, e.src, e.dst] = 1.0
    E[L] = np.eye(m)
    F[e.let[e.acc], e.src[e.acc], e.dst[e.acc]] = 1.0
    first = np.zeros(m, dtype=bool)
    first[A.initial] = True
    mats = _word_mats(E[:L], F, bound - 1)
    squarings = _doubling_steps(m + 1)

    def verdicts(code, length, W):
        rel, acc = mats(code, length, W)
        closure = np.minimum(rel + E[L], 1.0)
        for _ in range(squarings):
            closure = np.matmul(closure, closure)
            np.minimum(closure, 1.0, out=closure)
        good = np.matmul(closure, np.matmul(acc, closure)
                         ).diagonal(axis1=1, axis2=2) > 0
        wins = np.empty((bound + 1, len(code), m), dtype=bool)
        wins[0] = wins[bound] = np.matmul(
            closure, good[:, :, None].astype(np.float32))[:, :, 0] > 0
        for p in range(bound - 1, 0, -1):
            wins[p] = np.matmul(np.take(E, W[p], axis=0), wins[
                p + 1, :, :, None].astype(np.float32))[:, :, 0] > 0
        return wins

    # float32 m × m cells per representative: its [rel | acc] block with
    # the step and the product that extend it, or the closure and the
    # products of the squaring and of the loop test; then the verdicts
    return _sign(L, bound, 4 * m * (8 * m + bound),
                 _prefix_sets(E[:L], first, bound), verdicts)


def _reaching(n, src, dst, roots):
    """Mask of the states reached from the states ``roots`` along the edges
    ``src -> dst`` (a breadth-first sweep over all edges per level)."""
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    while True:
        new = seen[src] & ~seen[dst]
        if not new.any():
            return seen
        seen[dst[new]] = True


def _live_states(n, e):
    """Mask of the states from which an accepting lasso exists, by the
    Emerson–Lei fixpoint ``nu Z. mu Y. pre_acc(Z) | pre(Y)``: ``Z`` starts
    as every state and is replaced by the states that can reach a marked
    edge into ``Z`` until that no longer shrinks it.  On a limit-
    deterministic automaton every marked edge lies in part two, so the
    part-two states left are those that reach a cycle through a marked
    edge, and the part-one states those that reach a jump into them."""
    live = np.ones(n, dtype=bool)
    while True:
        nxt = _reaching(n, e.dst, e.src, e.src[e.acc & live[e.dst]])
        if nxt.sum() == live.sum():
            return live
        live = nxt


def _sig_limit_det(A: Automaton, bound: int, in1) -> np.ndarray:
    """Signature via the two-part structure: a run is a deterministic walk
    in part one plus a choice of jump point into the deterministic accepting
    part; ``in1`` masks part one.

    Only the live states (``_live_states``) are kept; every other state of a
    part is that part's sink, which also takes the missing moves.  Both
    parts are then functional graphs and go through the suffix-map scheme
    of the module docstring, for the padded representatives of every cycle
    length at once (``_sign``).  A cycle word is good for part-two
    state ``q`` at phase ``p`` when the flags OR'ed over the eventual loop
    from ``(q, p)`` hold an accepting step; that is the loop from
    ``S_p(q)`` at phase 0, and the padded phase ``bound`` holds it for
    phase 0 again.  A jump at phase ``p`` wins when its target is good at
    phase ``p + 1``, and a part-one state ``q`` at phase ``p`` passes a
    winning jump when the suffix to the next phase 0 does, or any
    whole-word iterate from ``S_p(q)`` does.  Cost O(k·n·(bound + log n))
    per batch of ``k`` cycle words on ``n`` live states.
    """
    L, e, n = len(A.alphabet.letters()), A.edges, A.n_states
    live = _live_states(n, e)
    live1, live2 = live & in1, live & ~in1
    m1, m2 = int(live1.sum()), int(live2.sum())
    ids = np.where(in1, m1, m2)
    ids[live1], ids[live2] = np.arange(m1), np.arange(m2)
    # the step arrays have a padding letter L: the identity, with no flag
    next1 = np.full((L + 1, m1 + 1), m1, dtype=np.intp)
    next2 = np.full((L + 1, m2 + 1), m2, dtype=np.intp)
    next1[L], next2[L] = np.arange(m1 + 1), np.arange(m2 + 1)
    acc2 = np.zeros((L + 1, m2 + 1), dtype=bool)
    kept = live[e.src] & live[e.dst]
    let, src, dst, acc = e.let[kept], ids[e.src[kept]], ids[e.dst[kept]], \
        e.acc[kept]
    from1, to1 = in1[e.src[kept]], in1[e.dst[kept]]
    inner1, inner2, jumps = from1 & to1, ~from1, from1 & ~to1
    next1[let[inner1], src[inner1]] = dst[inner1]
    next2[let[inner2], src[inner2]] = dst[inner2]
    acc2[let[acc], src[acc]] = True
    # Prefixes walk one relation on the part-two states, then the part-one
    # states: a run that has not jumped is in one part-one state, and those
    # that have are in a set of part-two states.
    two = m2 + 1
    rel = np.zeros((L, two + m1 + 1, two + m1 + 1), dtype=bool)
    rel[let[inner2], src[inner2], dst[inner2]] = True
    rel[let[jumps], two + src[jumps], dst[jumps]] = True
    rel[:, two:, two:] = np.eye(m1 + 1, dtype=bool)[next1[:L]]
    first = np.zeros(two + m1 + 1, dtype=bool)
    first[ids[A.initial] + (two if in1[A.initial] else 0)] = True
    jump_t = rel[:, two:, :two].transpose(0, 2, 1).astype(np.float32)

    def verdicts(code, length, W):
        k = W.shape[1]
        # accepting-loop test for the deterministic part, per phase
        good2 = _loop_or(np.take(next2, W, axis=0),
                         np.take(acc2, W, axis=0))
        # a jump at phase p wins when its target is good at phase p+1: one
        # product per letter, on the (phase, word) pairs that read it
        jg = np.zeros((bound + 1, k, m1 + 1), dtype=bool)
        wins, target = jg[:bound].reshape(bound * k, m1 + 1), \
            good2[1:].reshape(bound * k, two)
        letter = W[:bound].ravel()
        for a in range(L):
            sel = np.flatnonzero(letter == a)
            wins[sel] = np.matmul(np.take(target, sel, axis=0).astype(
                np.float32), jump_t[a]) > 0
        # does the part-one walk ever pass a winning jump?
        S1, F1 = _suffix_maps(np.take(next1, W, axis=0), jg)
        _, ever = _iterate_or(S1[0], F1[0])
        hit = F1[:bound] | np.take(ever, S1[:bound])
        return np.concatenate([good2[:bound], hit], axis=2)

    # bytes per representative and phase: its letter, the part-two maps,
    # flags and verdicts with the float32 copy the jump product reads, and
    # the part-one maps, flags, product, verdicts and gathers
    return _sign(L, bound, (bound + 1) * (8 + 16 * two + 18 * (m1 + 1)),
                 _prefix_sets(rel, first, bound), verdicts)


def dsa_signature(D, bound: int) -> np.ndarray:
    """Membership of every bounded lasso in a deterministic Streett
    automaton.

    Each pair's collapse and unstable flags are packed into one unsigned
    integer per transition, of the narrowest type that holds two bits per
    pair, and OR'ed over the eventual loop by the suffix-map scheme of the
    module docstring: doubling on the whole-word map of the ``n`` states,
    then one gather per phase, for the padded representatives of every
    cycle length at once (``_sign``).  Cost O(k·n·(bound + log n)) for
    ``k`` cycle words.
    """
    _check_bound(bound)
    letters = D.alphabet.letters()
    index = {a: i for i, a in enumerate(letters)}
    L, n = len(letters), D.n_states
    names = sorted(D.pairs, key=str)
    if 2 * len(names) > 64:
        raise ValueError("too many Streett pairs for packed flags")
    # the padding letter L moves no state and sets no flag
    nxt = np.zeros((L + 1, n), dtype=np.intp)
    flags = np.zeros((L + 1, n),
                     dtype=np.min_scalar_type((1 << 2 * len(names)) - 1))
    nxt[L] = np.arange(n)
    for a in letters:
        for s in range(n):
            if (s, a) not in D.delta:
                raise ValueError(f"missing transition at ({s}, {a!r})")
            nxt[index[a], s] = D.delta[(s, a)]
    # pair i's collapse set sets bit 2i, its unstable set bit 2i + 1
    for i, name in enumerate(names):
        for bit, edges in enumerate(D.pairs[name], 2 * i):
            for s, a in edges:
                flags[index[a], s] |= 1 << bit
    # a loop rejects when some pair's collapse bit is set and its unstable
    # bit, the next one up, is not
    collapse = sum(1 << (2 * i) for i in range(len(names)))

    def verdicts(code, length, W):
        loop = _loop_or(np.take(nxt, W, axis=0),
                        np.take(flags, W, axis=0))[:bound]
        return (loop & ~(loop >> 1) & collapse) == 0

    # bytes per representative and phase: its letter, then per state the
    # map, the flags, the loop and the three steps of the verdict
    one = np.eye(n, dtype=bool)
    return _sign(L, bound, (bound + 1) * (8 + n * (9 + 5 * flags.itemsize)),
                 _prefix_sets(one[nxt[:L]], one[D.initial], bound), verdicts)
