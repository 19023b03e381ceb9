"""Bulk membership of bounded lasso words.

A signature is a boolean vector holding, for every ultimately periodic word
``prefix . cycle^omega`` with ``len(prefix) + len(cycle) <= bound``, whether
an automaton accepts it.  Two automata agree on all bounded lassos exactly
when their signatures are equal, which turns corpus-level equivalence checks
into array comparisons.

The single-word checkers in ``automata`` and ``streett`` build a fresh graph
per word; over the 30948 words at bound 6 on four letters that is far too
slow for large corpora.  Here the work is shared and vectorized:

* prefix reach sets live on a trie, one boolean mat-vec per node;
* for nondeterministic automata, the relation and accept matrices of
  every cycle word come from those of the word one letter shorter,
  ``rel(w·a) = rel(w)·E[a]`` and ``acc(w·a) = acc(w)·E[a] + rel(w)·F[a]``;
  the accepting-loop test, a batched transitive closure, runs only on one
  representative ``v`` per rotation class, and a word that is ``v``
  rotated by ``r`` is accepted from the states that ``rel(v[r:])`` takes
  into those accepting ``v^omega``, since acceptance ignores a finite
  prefix;
* automata that pass ``is_strongly_limit_deterministic`` (complement
  outputs in particular) get a much cheaper path: inside each part a run
  is a function of its start state, so reading a cycle word is a walk in a
  functional graph instead of a matrix closure.  The check searches by
  ``_reaching`` here.  That path first cuts the automaton to its live
  states, those from which an accepting lasso exists, by its own
  Emerson–Lei fixpoint (``_live_states``).  Neither calls the graph or
  emptiness layer of ``automata``, which the signatures help to check.
  Every other state becomes the sink of its part, and the input automaton
  is not changed.  Fewer than half of the states of a typical complement
  are live;
* deterministic Streett automata also take the functional path, OR-ing the
  per-pair transition flags over the eventual loop.

On both paths the rotation classes of every cycle length go through one
batch (``_cycle_batch``), cut into pieces of at most ``_CELLS`` (generic)
or ``_STEP_CELLS`` (functional) cells.  For the functional path each
representative is padded to ``bound + 1`` letters with a padding letter, a
step that moves no state and sets no flag, so one pass over the phases
serves every length.  The last phase is always padding and holds the
value of phase 0, so "phase ``p + 1``" needs no modulo.

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

import functools
import itertools
import typing

import numpy as np

from .automata import Automaton, LassoWord, _first_phase, check_time


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


def mismatches(sig_a, sig_b, letters, bound, limit=10):
    """Lasso words on which two signatures disagree (at most ``limit``)."""
    idx = np.nonzero(np.asarray(sig_a) != np.asarray(sig_b))[0][:limit]
    if len(idx) == 0:
        return []
    words = bounded_lassos(letters, bound)
    return [words[i] for i in idx]


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


@functools.lru_cache(maxsize=None)
def _rotation_classes(n_letters, cl):
    """Group cycle words by rotation.

    Reading a rotated cycle is the same functional walk at a shifted phase,
    so per-word analyses only need one representative per class.  Returns
    ``(reps, rep_idx, rot)`` where ``reps`` is the array of representative
    words, and word ``j`` read from phase ``p`` equals representative
    ``rep_idx[j]`` read from phase ``(p + rot[j]) % cl``.
    """
    words = list(itertools.product(range(n_letters), repeat=cl))
    rep_pos = {}
    reps = []
    rep_idx = np.empty(len(words), dtype=np.int64)
    rot = np.empty(len(words), dtype=np.int64)
    for j, w in enumerate(words):
        best, shift = min((w[s:] + w[:s], s) for s in range(cl))
        if best not in rep_pos:
            rep_pos[best] = len(reps)
            reps.append(best)
        rep_idx[j] = rep_pos[best]
        rot[j] = (cl - shift) % cl
    return np.array(reps, dtype=np.int64).reshape(len(reps), cl), rep_idx, rot


class _Cycles(typing.NamedTuple):
    """The rotation classes of every cycle length up to ``bound`` as one
    batch (see ``_cycle_batch``)."""

    reps: np.ndarray    # (R, bound + 1) representatives, padded
    length: np.ndarray  # (R,) cycle length of each representative
    code: np.ndarray    # (R,) its index among the words of its length
    rep: np.ndarray     # (W,) representative of each cycle word
    rot: np.ndarray     # (W,) and the rotation that gives the word
    blocks: tuple       # (words, prefix count) of each cycle length


@functools.lru_cache(maxsize=None)
def _cycle_batch(n_letters, bound):
    """The representatives of ``_rotation_classes`` for every cycle length
    ``1..bound``, in that order, padded with the letter ``n_letters`` to
    ``bound + 1`` letters; the padding letter stands for a step that moves
    nothing and sets no flag, so a padded word reads like the word itself,
    and its last phase, always padding, holds the value of phase 0.  The
    ``W`` cycle words of every length are in signature order (by length,
    then lexicographic), and word ``j`` is representative ``rep[j]``
    rotated by ``rot[j]``, as in ``_rotation_classes``.  ``blocks`` holds,
    per cycle length, the slice of its words and the number of prefixes
    they go with: those of length at most ``bound - cl``, which come first
    when the prefixes are listed by length."""
    reps, length, code, rep, rot, blocks = [], [], [], [], [], []
    base = words = 0
    for cl in range(1, bound + 1):
        r, rep_idx, shift = _rotation_classes(n_letters, cl)
        reps.append(np.pad(r, ((0, 0), (0, bound + 1 - cl)),
                           constant_values=n_letters))
        length.append(np.full(len(r), cl))
        code.append(r @ n_letters ** np.arange(cl - 1, -1, -1))
        rep.append(rep_idx + base)
        rot.append(shift)
        blocks.append((slice(words, words + len(rep_idx)),
                       sum(n_letters ** p for p in range(bound - cl + 1))))
        base += len(r)
        words += len(rep_idx)
    return _Cycles(*map(np.concatenate, (reps, length, code, rep, rot)),
                   tuple(blocks))


def nba_signature(A: Automaton, bound: int) -> np.ndarray:
    """Membership of every bounded lasso in the language of an NBA/DBA."""
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
    return ~nba_signature(A.reinterpret("NBA"), bound)


# largest working array of the generic path, in float32 cells
_CELLS = 8_000_000


def _word_mats(E, F, longest):
    """Relation and accept matrices of words, by extension one letter at a
    time: ``rel(w·a) = rel(w)·E[a]`` and ``acc(w·a) = acc(w)·E[a] +
    rel(w)·F[a]``, thresholded to 0/1.  Both live in one ``(m, 2m)`` block
    ``[rel | acc]``, which one product with ``[[E, F], [0, E]]`` extends.

    The blocks of every word up to length ``longest`` are kept, level by
    level in lexicographic order, as far as they fit in ``_CELLS`` cells.
    Returns ``mats(codes, lengths)``, giving the ``rel`` and ``acc`` stacks
    of the words named by their lexicographic index among the words of
    their length; a word longer than the kept ones extends its longest
    kept prefix.
    """
    L, m = E.shape[0], E.shape[1]
    step = np.zeros((L, 2 * m, 2 * m), dtype=np.float32)
    step[:, :m, :m] = step[:, m:, m:] = E
    step[:, :m, m:] = F
    levels = [np.eye(m, 2 * m, dtype=np.float32)[None]]
    cells = 2 * m * m
    while len(levels) <= longest and cells + len(levels[-1]) * L * 2 * m * m \
            <= _CELLS:
        nxt = np.matmul(levels[-1][:, None], step)
        levels.append(np.minimum(nxt, 1.0, out=nxt).reshape(-1, m, 2 * m))
        cells += nxt.size
    top = len(levels) - 1
    offset = np.cumsum([0] + [len(x) for x in levels[:-1]])
    kept = np.concatenate(levels)

    def mats(codes, lengths):
        lengths = np.broadcast_to(lengths, codes.shape)
        short = np.minimum(lengths, top)
        x = kept[offset[short] + codes // L ** (lengths - short)]
        for p in range(top, int(lengths.max(initial=0))):
            letter = codes // L ** np.maximum(lengths - 1 - p, 0) % L
            for a in range(L):
                sel = np.flatnonzero((lengths > p) & (letter == a))
                x[sel] = np.minimum(np.matmul(x[sel], step[a]), 1.0)
        return x[:, :, :m], x[:, :, m:]

    return mats


def _sig_generic(A: Automaton, bound: int) -> np.ndarray:
    """Boolean-matrix signature for any NBA.

    A state ``q`` accepts ``w^omega`` when it reaches, along ``rel(w)``, a
    state on a loop of ``rel(w)`` that passes ``acc(w)``; that takes a
    transitive closure, done only for one representative per rotation
    class.  Word ``j`` is its representative ``v`` rotated by ``r =
    rot[j]``, so ``j^omega = v[r:]·v^omega`` and the states accepting it
    are ``rel(v[r:])`` applied to those accepting ``v^omega``; ``v[r:]`` is
    the prefix of ``j`` of length ``cl - r``, so only words shorter than
    ``bound`` are kept (see ``_word_mats``).  The representatives, and then
    the rotated words, of every cycle length go through ``mats`` together.
    """
    L, m = len(A.alphabet.letters()), A.n_states
    e = A.edges
    E = np.zeros((L, m, m), dtype=np.float32)
    F = np.zeros((L, m, m), dtype=np.float32)
    E[e.let, e.src, e.dst] = 1.0
    F[e.let[e.acc], e.src[e.acc], e.dst[e.acc]] = 1.0
    rows = _prefix_rows(E, A.initial, bound)
    mats = _word_mats(E, F, bound - 1)
    eye = np.eye(m, dtype=np.float32)
    squarings = _doubling_steps(m + 1)
    chunk = max(1, _CELLS // (2 * m * m))
    cyc = _cycle_batch(L, bound)
    pre_rep = np.empty((len(cyc.reps), m), dtype=np.float32)
    for lo in range(0, len(cyc.reps), chunk):
        check_time("lasso signatures")
        rel, acc = mats(cyc.code[lo:lo + chunk], cyc.length[lo:lo + chunk])
        closure = np.minimum(rel + eye, 1.0)
        for _ in range(squarings):
            closure = np.matmul(closure, closure)
            np.minimum(closure, 1.0, out=closure)
        good = np.matmul(closure, np.matmul(acc, closure)
                         ).diagonal(axis1=1, axis2=2) > 0
        pre_rep[lo:lo + chunk] = np.matmul(
            closure, good[:, :, None].astype(np.float32))[:, :, 0] > 0
    pre = pre_rep[cyc.rep]
    count = L ** np.arange(1, bound + 1)
    length = np.repeat(np.arange(1, bound + 1), count)
    code = np.arange(len(pre)) - np.repeat(np.cumsum(count) - count, count)
    moved = np.flatnonzero(cyc.rot)
    for lo in range(0, len(moved), chunk):
        check_time("lasso signatures")
        j = moved[lo:lo + chunk]
        rel, _ = mats(code[j] // L ** cyc.rot[j], length[j] - cyc.rot[j])
        pre[j] = np.matmul(rel, pre[j][:, :, None])[:, :, 0] > 0
    rcat = np.concatenate(rows)
    return np.concatenate([(np.matmul(pre[w], rcat[:pre_n].T) > 0).ravel()
                           for w, pre_n in cyc.blocks])


def _prefix_rows(E, initial, bound):
    """Reach-set row vectors for every prefix, grouped by length."""
    L, m = E.shape[0], E.shape[1]
    step = E.transpose(1, 0, 2).reshape(m, L * m)
    first = np.zeros((1, m), dtype=np.float32)
    first[0, initial] = 1.0
    rows = [first]
    for _ in range(1, bound):
        nxt = np.matmul(rows[-1], step).reshape(-1, m)
        rows.append((nxt > 0).astype(np.float32))
    return rows


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


# largest working set of one batch of the functional paths, in cells
_STEP_CELLS = 1_000_000


def _sig_limit_det(A: Automaton, bound: int, in1) -> np.ndarray:
    """Signature via the two-part structure: a run is a deterministic walk
    in part one plus a choice of jump point into the deterministic accepting
    part; ``in1`` masks part one.

    Only the live states (``_live_states``) are kept; every other state of a
    part is that part's sink, which also takes the missing moves.  Both
    parts are then functional graphs and go through the suffix-map scheme
    of the module docstring, for the padded representatives of every cycle
    length at once (``_cycle_batch``).  A cycle word is good for part-two
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
    # and no jump (rel2 serves only the prefixes, which never read it)
    next1 = np.full((L + 1, m1 + 1), m1, dtype=np.intp)
    next2 = np.full((L + 1, m2 + 1), m2, dtype=np.intp)
    next1[L], next2[L] = np.arange(m1 + 1), np.arange(m2 + 1)
    acc2 = np.zeros((L + 1, m2 + 1), dtype=bool)
    jump = np.zeros((L + 1, m1 + 1, m2 + 1), dtype=np.float32)
    rel2 = np.zeros((L, m2 + 1, m2 + 1), dtype=np.float32)
    kept = live[e.src] & live[e.dst]
    let, src, dst, acc = e.let[kept], ids[e.src[kept]], ids[e.dst[kept]], \
        e.acc[kept]
    from1, to1 = in1[e.src[kept]], in1[e.dst[kept]]
    inner2 = ~from1
    next2[let[inner2], src[inner2]] = dst[inner2]
    rel2[let[inner2], src[inner2], dst[inner2]] = 1.0
    acc2[let[acc], src[acc]] = True
    jumps = from1 & ~to1
    jump[let[jumps], src[jumps], dst[jumps]] = 1.0
    inner1 = from1 & to1
    next1[let[inner1], src[inner1]] = dst[inner1]
    # Prefix walks: the unique part-one state plus the set of part-two
    # states reached by runs that already jumped.
    p1 = [np.array([ids[A.initial] if in1[A.initial] else m1],
                   dtype=np.int64)]
    d0 = np.zeros((1, m2 + 1), dtype=np.float32)
    if not in1[A.initial]:
        d0[0, ids[A.initial]] = 1.0
    dsets = [d0]
    rel2_t = rel2.transpose(1, 0, 2).reshape(m2 + 1, L * (m2 + 1))
    for _ in range(1, bound):
        cur1, curd = p1[-1], dsets[-1]
        p1.append(next1[:L, cur1].T.reshape(-1))
        moved = np.matmul(curd, rel2_t).reshape(-1, L, m2 + 1)
        jumped = jump[:L, cur1, :].transpose(1, 0, 2)
        dsets.append(((moved + jumped) > 0).astype(np.float32
                                                   ).reshape(-1, m2 + 1))
    cyc = _cycle_batch(L, bound)
    good_rep = np.empty((bound, len(cyc.reps), m2 + 1), dtype=bool)
    hit_rep = np.empty((bound, len(cyc.reps), m1 + 1), dtype=bool)
    jumps_t = jump.transpose(2, 0, 1).reshape(m2 + 1, (L + 1) * (m1 + 1))
    chunk = max(1, _STEP_CELLS
                // ((bound + 1) * ((L + 1) * (m1 + 1) + m1 + m2 + 2)))
    phases = np.arange(bound)[:, None]
    for lo in range(0, len(cyc.reps), chunk):
        check_time("lasso signatures")
        W = cyc.reps[lo:lo + chunk].T
        k = W.shape[1]
        # accepting-loop test for the deterministic part, per phase
        good2 = _loop_or(next2[W], acc2[W])
        # a jump at phase p wins when its target is good at phase p+1: one
        # product against the jumps on every letter, then each word's own
        # letter is picked out
        wins = np.matmul(good2[1:].reshape(bound * k, m2 + 1)
                         .astype(np.float32), jumps_t) > 0
        jg = np.zeros((bound + 1, k, m1 + 1), dtype=bool)
        jg[:bound] = wins.reshape(bound, k, L + 1, m1 + 1)[
            phases, np.arange(k), W[:bound]]
        # does the part-one walk ever pass a winning jump?
        S1, F1 = _suffix_maps(next1[W], jg)
        _, ever = _iterate_or(S1[0], F1[0])
        good_rep[:, lo:lo + k] = good2[:bound]
        hit_rep[:, lo:lo + k] = F1[:bound] | np.take(ever, S1[:bound])
    # phase-shift the representative results back onto every word
    at = cyc.rot * len(cyc.reps) + cyc.rep
    good0 = good_rep.reshape(-1, m2 + 1)[at]
    hit0 = hit_rep.reshape(-1, m1 + 1)[at]
    p1cat, dcat = np.concatenate(p1), np.concatenate(dsets)
    return np.concatenate([
        ((np.matmul(good0[w].astype(np.float32), dcat[:pre_n].T) > 0)
         | hit0[w][:, p1cat[:pre_n]]).ravel() for w, pre_n in cyc.blocks])


def dsa_signature(D, bound: int) -> np.ndarray:
    """Membership of every bounded lasso in a deterministic Streett
    automaton.

    Each pair's collapse and unstable flags are packed into one integer per
    transition and OR'ed over the eventual loop by the suffix-map scheme of
    the module docstring: doubling on the whole-word map of the ``n``
    states, then one gather per phase, for the padded representatives of
    every cycle length at once (``_cycle_batch``).  Cost
    O(k·n·(bound + log n)) for ``k`` cycle words.
    """
    letters = D.alphabet.letters()
    index = {a: i for i, a in enumerate(letters)}
    L, n = len(letters), D.n_states
    names = sorted(D.pairs, key=str)
    if 2 * len(names) > 62:
        raise ValueError("too many Streett pairs for packed flags")
    # the padding letter L moves no state and sets no flag (_cycle_batch)
    nxt = np.zeros((L + 1, n), dtype=np.intp)
    flags = np.zeros((L + 1, n), dtype=np.int64)
    nxt[L] = np.arange(n)
    for a in letters:
        ai = index[a]
        for s in range(n):
            if (s, a) not in D.delta:
                raise ValueError(f"missing transition at ({s}, {a!r})")
            nxt[ai, s] = D.delta[(s, a)]
            bits = 0
            for i, name in enumerate(names):
                coll, unst = D.pairs[name]
                if (s, a) in coll:
                    bits |= 1 << (2 * i)
                if (s, a) in unst:
                    bits |= 1 << (2 * i + 1)
            flags[ai, s] = bits
    states = [np.array([D.initial], dtype=np.int64)]
    for _ in range(1, bound):
        states.append(nxt[:L, states[-1]].T.reshape(-1))
    # a loop rejects when some pair's collapse bit is set and its unstable
    # bit, the next one up, is not
    collapse = sum(1 << (2 * i) for i in range(len(names)))
    cyc = _cycle_batch(L, bound)
    reject = np.empty((bound, len(cyc.reps), n), dtype=bool)
    chunk = max(1, _STEP_CELLS // ((bound + 1) * n))
    for lo in range(0, len(cyc.reps), chunk):
        check_time("lasso signatures")
        W = cyc.reps[lo:lo + chunk].T
        loop = _loop_or(nxt[W], flags[W])[:bound]
        reject[:, lo:lo + W.shape[1]] = (loop & ~(loop >> 1) & collapse) != 0
    reject0 = reject.reshape(-1, n)[cyc.rot * len(cyc.reps) + cyc.rep]
    scat = np.concatenate(states)
    return np.concatenate([~reject0[w][:, scat[:pre_n]].ravel()
                           for w, pre_n in cyc.blocks])
