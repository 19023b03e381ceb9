"""Reference versions of the lasso signatures and of the limit-determinism
check: every cycle word's eventual loop is found by doubling the functional
graph on (state, phase) pairs, the generic path multiplies out the relation
of every cycle word on its own, and the deterministic part is the greatest
fixpoint of a re-sweep over all states; rotation classes are found word by
word.  The library's versions (``lasso_bulk``,
``automata.is_strongly_limit_deterministic``) must give exactly the same
results (``test_lasso_bulk.py``)."""

import functools
import itertools

import numpy as np

from omegadp.automata import Automaton


def _doubling_steps(domain):
    """Squarings needed for a window covering ``domain`` many steps."""
    return max(1, int(domain - 1).bit_length())


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


def is_strongly_limit_deterministic(A: Automaton):
    """Check for a partition (Q1, Q2) that is deterministic inside each part,
    closed and fully deterministic on Q2, with every marked transition lying
    inside Q2.

    Returns ``(flag, (Q1, Q2))``; the partition is meaningful only when the
    flag is true.
    """
    letters = A.alphabet.letters()
    # Greatest set closed under successors where every state is deterministic.
    q2 = set(range(A.n_states))
    changed = True
    while changed:
        changed = False
        for q in list(q2):
            ok = True
            for a in letters:
                targets = A.successors(q, a)
                if len(targets) > 1 or any(t not in q2 for t in targets):
                    ok = False
                    break
            if not ok:
                q2.discard(q)
                changed = True
    for (q, a, t) in A.gamma:
        if q not in q2 or t not in q2:
            return False, (set(range(A.n_states)) - q2, q2)
    q1 = set(range(A.n_states)) - q2
    for q in q1:
        for a in letters:
            in_q1 = [t for t in A.successors(q, a) if t in q1]
            if len(in_q1) > 1:
                return False, (q1, q2)
    return True, (q1, q2)


def nba_signature(A: Automaton, bound: int) -> np.ndarray:
    """Membership of every bounded lasso in the language of an NBA/DBA."""
    if A.is_schema:
        raise ValueError("schema has no initial state")
    flag, (q1, q2) = is_strongly_limit_deterministic(A)
    if flag:
        return _sig_limit_det(A, bound, q1, q2)
    return _sig_generic(A, bound)


def _word_block(n_letters, cl):
    """Integer array of all words of length ``cl`` in lexicographic order."""
    words = np.fromiter(
        (l for w in itertools.product(range(n_letters), repeat=cl) for l in w),
        dtype=np.int64, count=cl * n_letters ** cl)
    return words.reshape(-1, cl)


def _sig_generic(A: Automaton, bound: int) -> np.ndarray:
    """Boolean-matrix signature: the relation and accept matrices of every
    cycle word are multiplied out letter by letter, and the accepting-loop
    test is a transitive closure per word."""
    letters = A.alphabet.letters()
    index = {a: i for i, a in enumerate(letters)}
    L, m = len(letters), A.n_states
    E = np.zeros((L, m, m), dtype=np.float32)
    F = np.zeros((L, m, m), dtype=np.float32)
    for (q, a), targets in A.delta.items():
        for t in targets:
            E[index[a], q, t] = 1.0
            if (q, a, t) in A.gamma:
                F[index[a], q, t] = 1.0
    rows = _prefix_rows(E, A.initial, bound, L, m)
    eye = np.eye(m, dtype=np.float32)
    squarings = _doubling_steps(m + 1)
    chunk = max(1, 8_000_000 // max(1, m * m))
    out = []
    for cl in range(1, bound + 1):
        W = _word_block(L, cl)
        rcat = np.concatenate(rows[:bound - cl + 1])
        blocks = np.empty((len(W), len(rcat)), dtype=bool)
        for lo in range(0, len(W), chunk):
            Wc = W[lo:lo + chunk]
            rel = E[Wc[:, 0]]
            acc = F[Wc[:, 0]]
            for p in range(1, cl):
                en, fn = E[Wc[:, p]], F[Wc[:, p]]
                acc = (np.matmul(rel, fn) + np.matmul(acc, en) > 0
                       ).astype(np.float32)
                rel = (np.matmul(rel, en) > 0).astype(np.float32)
            closure = np.minimum(rel + eye, 1.0)
            for _ in range(squarings):
                closure = (np.matmul(closure, closure) > 0).astype(np.float32)
            good = np.matmul(closure, np.matmul(acc, closure)
                             ).diagonal(axis1=1, axis2=2)
            good = (good > 0).astype(np.float32)
            pre = np.matmul(closure, good[:, :, None])[:, :, 0]
            pre = (pre > 0).astype(np.float32)
            blocks[lo:lo + chunk] = np.matmul(rcat, pre.T).T > 0
        out.append(blocks.ravel())
    return np.concatenate(out)


def _prefix_rows(E, initial, bound, L, m):
    """Reach-set row vectors for every prefix, grouped by length."""
    first = np.zeros((1, m), dtype=np.float32)
    first[0, initial] = 1.0
    rows = [first]
    for _ in range(1, bound):
        cur = rows[-1]
        nxt = np.stack([np.matmul(cur, E[a]) for a in range(L)], axis=1)
        rows.append((nxt > 0).astype(np.float32).reshape(-1, m))
    return rows


def _sig_limit_det(A: Automaton, bound: int, q1, q2) -> np.ndarray:
    """Signature via the two-part structure: a run is a deterministic walk
    in part one plus a choice of jump point into the deterministic accepting
    part, so cycle analysis reduces to functional-graph doubling."""
    letters = A.alphabet.letters()
    index = {a: i for i, a in enumerate(letters)}
    L = len(letters)
    ids1 = {q: i for i, q in enumerate(sorted(q1))}
    ids2 = {q: i for i, q in enumerate(sorted(q2))}
    m1, m2 = len(ids1), len(ids2)
    sink1, sink2 = m1, m2
    next1 = np.full((L, m1 + 1), sink1, dtype=np.int64)
    next2 = np.full((L, m2 + 1), sink2, dtype=np.int64)
    acc2 = np.zeros((L, m2 + 1), dtype=bool)
    jump = np.zeros((L, m1 + 1, m2 + 1), dtype=np.float32)
    rel2 = np.zeros((L, m2 + 1, m2 + 1), dtype=np.float32)
    for (q, a), targets in A.delta.items():
        ai = index[a]
        for t in targets:
            if q in ids2:
                next2[ai, ids2[q]] = ids2[t]
                rel2[ai, ids2[q], ids2[t]] = 1.0
                if (q, a, t) in A.gamma:
                    acc2[ai, ids2[q]] = True
            elif t in ids2:
                jump[ai, ids1[q], ids2[t]] = 1.0
            else:
                next1[ai, ids1[q]] = ids1[t]
    # Prefix walks: the unique part-one state plus the set of part-two
    # states reached by runs that already jumped.
    if A.initial in ids1:
        p1 = [np.array([ids1[A.initial]], dtype=np.int64)]
        d0 = np.zeros((1, m2 + 1), dtype=np.float32)
    else:
        p1 = [np.array([sink1], dtype=np.int64)]
        d0 = np.zeros((1, m2 + 1), dtype=np.float32)
        d0[0, ids2[A.initial]] = 1.0
    dsets = [d0]
    for _ in range(1, bound):
        cur1, curd = p1[-1], dsets[-1]
        p1.append(next1[:, cur1].T.reshape(-1))
        moved = np.stack([np.matmul(curd, rel2[a]) for a in range(L)], axis=1)
        jumped = jump[:, cur1, :].transpose(1, 0, 2)
        dsets.append(((moved + jumped) > 0).astype(np.float32
                                                   ).reshape(-1, m2 + 1))
    out = []
    chunk = max(1, 4_000_000 // max(1, (m1 + m2 + 2) * bound))
    for cl in range(1, bound + 1):
        reps, rep_idx, rot = _rotation_classes(L, cl)
        p1cat = np.concatenate(p1[:bound - cl + 1])
        dcat = np.concatenate(dsets[:bound - cl + 1])
        good_rep = np.empty((len(reps), m2 + 1, cl), dtype=bool)
        hit_rep = np.empty((len(reps), m1 + 1, cl), dtype=bool)
        for lo in range(0, len(reps), chunk):
            Wc = reps[lo:lo + chunk]
            k = len(Wc)
            # accepting-cycle test for the deterministic part, per phase
            shift = ((np.arange(cl, dtype=np.int32) + 1) % cl)[None, :, None]
            f2 = next2[Wc].astype(np.int32) * cl + shift
            f2 = f2.transpose(0, 2, 1).reshape(k, -1)
            h2 = acc2[Wc].transpose(0, 2, 1).reshape(k, -1)
            for _ in range(_doubling_steps((m2 + 1) * cl)):
                h2 = h2 | np.take_along_axis(h2, f2, axis=1)
                f2 = np.take_along_axis(f2, f2, axis=1)
            good2 = np.take_along_axis(h2, f2, axis=1)
            good2 = good2.reshape(k, m2 + 1, cl)
            # a jump at phase p wins when its target is good at phase p+1;
            # group words by the phase letter so the product runs on plain
            # matrices instead of a gathered batch
            jg = np.zeros((k, m1 + 1, cl), dtype=bool)
            for p in range(cl):
                tgt = good2[:, :, (p + 1) % cl].astype(np.float32)
                for a in range(L):
                    sel = np.nonzero(Wc[:, p] == a)[0]
                    if len(sel):
                        jg[sel, :, p] = np.matmul(tgt[sel], jump[a].T) > 0
            # does the part-one walk ever pass a winning jump?
            f1 = next1[Wc].astype(np.int32) * cl + shift
            f1 = f1.transpose(0, 2, 1).reshape(k, -1)
            h1 = jg.reshape(k, -1)
            for _ in range(_doubling_steps((m1 + 1) * cl)):
                h1 = h1 | np.take_along_axis(h1, f1, axis=1)
                f1 = np.take_along_axis(f1, f1, axis=1)
            good_rep[lo:lo + chunk] = good2
            hit_rep[lo:lo + chunk] = h1.reshape(k, m1 + 1, cl)
        # phase-shift the representative results back onto every word
        g0 = good_rep[rep_idx, :, rot].astype(np.float32)
        term1 = np.matmul(dcat, g0.T) > 0
        term2 = hit_rep[rep_idx[:, None], p1cat[None, :], rot[:, None]]
        out.append((term1.T | term2).ravel())
    return np.concatenate(out)


def dsa_signature(D, bound: int) -> np.ndarray:
    """Membership of every bounded lasso in a deterministic Streett
    automaton, by doubling the step function and aggregating each pair's
    collapse/unstable flags over the eventual loop."""
    letters = D.alphabet.letters()
    index = {a: i for i, a in enumerate(letters)}
    L, n = len(letters), D.n_states
    names = sorted(D.pairs, key=str)
    if 2 * len(names) > 62:
        raise ValueError("too many Streett pairs for packed flags")
    nxt = np.zeros((L, n), dtype=np.int64)
    flags = np.zeros((L, n), dtype=np.int64)
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
        states.append(nxt[:, states[-1]].T.reshape(-1))
    out = []
    for cl in range(1, bound + 1):
        reps, rep_idx, rot = _rotation_classes(L, cl)
        k = len(reps)
        scat = np.concatenate(states[:bound - cl + 1])
        shift = ((np.arange(cl) + 1) % cl)[None, :, None]
        f = (nxt[reps] * cl + shift).transpose(0, 2, 1).reshape(k, -1)
        b = flags[reps].transpose(0, 2, 1).reshape(k, -1)
        for _ in range(_doubling_steps(n * cl)):
            b = b | np.take_along_axis(b, f, axis=1)
            f = np.take_along_axis(f, f, axis=1)
        loop = np.take_along_axis(b, f, axis=1)
        reject = np.zeros(loop.shape, dtype=bool)
        for i in range(len(names)):
            coll = (loop >> (2 * i)) & 1
            unst = (loop >> (2 * i + 1)) & 1
            reject |= (coll == 1) & (unst == 0)
        accept = ~reject.reshape(k, n, cl)
        out.append(accept[rep_idx[:, None], scat[None, :],
                          rot[:, None]].ravel())
    return np.concatenate(out)
