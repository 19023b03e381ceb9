"""Post-processing pipeline that shrinks a two-phase Buchi automaton.

Stages: remove states with empty language and clear the marks on edges
between strongly connected components, lump bisimilar states of the
deterministic second phase, redirect jumps to one representative per second
phase language and delete the jumps whose target language is included in a
sibling jump's, and finally lump the whole automaton.  Every stage preserves
the language and the two-phase structure that makes the automaton good for
MDPs: the second phase stays deterministic, and every jump that is deleted
has a sibling that accepts at least the same suffixes.

The phase partition travels as the tag ``final``: a bool array with one
entry per state, true on the second (final) phase.  The complement sets it,
and every stage passes on its restriction to the states that stage keeps;
for an automaton without the tag, the stages take the partition that
``is_strongly_limit_deterministic`` finds.

The lumping stages refine a partition in rounds: each round writes a
state's block and coded moves as one row, and an
:class:`~omegadp.automata.Interner` numbers the rows by first appearance.

Language classes are found by exact inclusion checks.  Only states whose
fingerprints agree are compared, so a fingerprint column must depend on
the state's language alone: equal languages, equal fingerprints.  An
``Interner`` numbers the fingerprints, and ``explore`` the inclusion
search's product pairs breadth first.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from .automata import _SLICE, Automaton, Edges, Interner, _components, \
    _first_phase, _Graph, _inner, _nonempty, _reached, _spans, check_time, \
    explore, time_limit
from .complement import ComplementOptions, complement_uca


@dataclass
class PipelineStats:
    """State counts after each stage plus wall time in seconds."""

    orig: int = 0
    compl: int | None = None
    prune: int | None = None
    lumpd: int | None = None
    lang: int | None = None
    lumpa: int | None = None
    time: float = 0.0
    timed_out: bool = False

    def row(self, name):
        def cell(v):
            return "" if v is None else v
        t = "timeout" if self.timed_out else f"{self.time:.3f}"
        return [name, cell(self.orig), cell(self.compl), cell(self.prune),
                cell(self.lumpd), cell(self.lang), cell(self.lumpa), t]


def canonical_empty(alphabet) -> Automaton:
    """The one-state automaton with no transitions (empty language)."""
    return Automaton("NBA", alphabet, 1, 0, {}, (),
                     tags={"final": np.ones(1, dtype=bool)})


def _final_mask(A: Automaton):
    """Mask of the second (final) phase: the ``final`` tag, or else the
    partition that :func:`is_strongly_limit_deterministic` finds."""
    final = A.tags.get("final")
    if final is None:
        flag, in1 = _first_phase(A)
        if not flag:
            raise ValueError("automaton is not strongly limit deterministic")
        final = ~in1
    return final


def _derived(A: Automaton, n, initial, edges: Edges, final) -> Automaton:
    """An automaton over ``A``'s alphabet and tags (without stats), with the
    second-phase mask ``final`` when it is given."""
    tags = dict(A.tags)
    tags.pop("stats", None)
    if final is not None:
        tags["final"] = final
    return Automaton.from_edges(A.kind, A.alphabet, n, initial, edges, tags)


def _renumbered(new_id, col):
    """``new_id[col]``, written over ``col`` a slice at a time."""
    for lo in range(0, len(col), _SLICE):
        part = col[lo:lo + _SLICE]
        part[:] = new_id[part]
    return col


def _restrict(A: Automaton, initial, E: Edges, keep, final,
              comp=None) -> Automaton:
    """``A`` with initial state ``initial`` and edges ``E``, without the
    states outside the mask ``keep``, renumbered densely.  With ``comp``, a
    component label per state, the marks on the kept edges between two
    components are cleared.  The edge columns are restricted one at a
    time."""
    new_id = np.cumsum(keep, dtype=np.int32)
    new_id -= 1
    m = keep[E.src]
    m &= keep[E.dst]
    src = _renumbered(new_id, E.src[m])
    dst = _renumbered(new_id, E.dst[m])
    let, acc = E.let[m], E.acc[m]
    del m
    if comp is not None:
        acc &= _inner(comp[keep], src, dst)
    return _derived(A, int(np.count_nonzero(keep)), int(new_id[initial]),
                    Edges(E.letters, src, let, dst, acc),
                    None if final is None else final[keep])


def prune_empty(A: Automaton) -> Automaton:
    """Restrict to states from which some accepting lasso exists, and clear
    the marks on edges between different strongly connected components.

    A run crosses such an edge at most once, so clearing its mark changes
    no run's acceptance; it only lets the lumping stages merge more.
    """
    check_time("pruning")
    E = A.edges
    G = _Graph.simple(A.n_states, E.src, E.dst)
    comp = G.components()
    live = G.reached([A.initial])
    # the forward arrays are freed before the backward ones are built
    del G
    live &= _nonempty(E, comp)
    if not live[A.initial]:
        return canonical_empty(A.alphabet)
    return _restrict(A, A.initial, E, live, A.tags.get("final"), comp)


def _code_dtype(n, L):
    """The dtype of the block ids and move codes of :func:`_bisimulation`
    over ``n`` states and ``L`` letters: a block id is below 2n, so a move
    code is below (2 * 2n + 1) * L, which int32 holds unless it is large."""
    return np.int32 if (4 * n + 1) * L <= np.iinfo(np.int32).max \
        else np.int64


def _move_groups(act, offset, dst, tail):
    """The states ``act`` grouped by their number k of moves, the entries
    ``offset[q]`` to ``offset[q + 1]`` of the move columns ``dst`` and
    ``tail``: per group ``(sel, states, d, t)``, where ``states = act[sel]``
    and row i of ``d`` and ``t`` holds the moves of ``states[i]``."""
    count = np.diff(offset)[act]
    groups = []
    for k in np.unique(count):
        sel = np.flatnonzero(count == k)
        at = offset[act[sel]][:, None] + np.arange(k)
        groups.append((sel, act[sel], dst.take(at), tail.take(at)))
    return groups


def _bisimulation(n, E: Edges, active, what):
    """Coarsest strong bisimulation that refines ``active`` states only;
    every other state is a block of its own.  Returns block ids.

    A round codes each move of an active state as ``block[dst] * 2L +
    tail``, where ``tail = mark * L + letter``, and the states with the
    same block and the same moves form a block of the next round.  States
    with different numbers of moves never share one, so one
    :class:`Interner` per move count numbers the rows (block, moves) by
    first appearance, after the blocks of the smaller counts."""
    L = max(len(E.letters), 1)
    code = _code_dtype(n, L)
    block = np.where(active, 0, n + np.arange(n, dtype=code))
    act = np.flatnonzero(active)
    src, let, dst, acc = E.src, E.let, E.dst, E.acc
    bounds = np.arange(n + 1, dtype=src.dtype)
    tail = acc.astype(code)
    tail *= L
    tail += let
    # with one move per (source, letter) the edges keep each state's moves
    # in letter order, so the groups are gathered once, before the rounds;
    # otherwise each state's moves are sorted and deduplicated every round
    det = not np.any((src[1:] == src[:-1]) & (let[1:] == let[:-1])
                     & active[src[1:]])
    if det:
        groups = _move_groups(act, np.searchsorted(src, bounds), dst, tail)
        del tail  # the groups hold all the rounds read
    n_blocks = 1 if len(act) else 0
    while True:
        check_time(what)
        if not det:
            move = block[dst] * (2 * L) + tail
            order = np.lexsort((move, src))
            first = np.ones(len(order), dtype=bool)
            first[1:] = (src[order[1:]] != src[order[:-1]]) \
                | (move[order[1:]] != move[order[:-1]])
            kept = order[first]
            groups = _move_groups(act, np.searchsorted(src[kept], bounds),
                                  dst[kept], tail[kept])
        new_block = np.empty(len(act), dtype=code)
        total = 0
        for sel, states, d, t in groups:
            M = np.empty((len(states), d.shape[1] + 1), dtype=code)
            M[:, 0] = block[states]
            np.multiply(block.take(d), 2 * L, out=M[:, 1:])
            M[:, 1:] += t
            rows = Interner(M.shape[1], code)
            new_block[sel] = rows.ids(M)
            new_block[sel] += total
            total += len(rows)
        if total == n_blocks:
            return block
        block[act] = new_block
        n_blocks = total


def _quotient(A: Automaton, block, final) -> Automaton:
    """Collapse each block to its lowest-id member.  A block is in the
    second phase when any member is: a first-phase state bisimilar to a
    second-phase one moves like it, so no edge of the quotient leads from
    the second phase back into the first."""
    E = A.edges
    blocks, first = np.unique(block, return_index=True)
    rep_of = first[np.searchsorted(blocks, block)]
    keep = np.zeros(A.n_states, dtype=bool)
    keep[first] = True
    new_id = np.cumsum(keep) - 1
    m = keep[E.src]
    edges = Edges.normalised(E.letters, new_id[E.src[m]], E.let[m],
                             new_id[rep_of[E.dst[m]]], E.acc[m])
    second = np.zeros(len(first), dtype=bool)
    second[new_id[rep_of[final]]] = True
    return _derived(A, len(first), int(new_id[rep_of[A.initial]]), edges,
                    second)


def lump_final(A: Automaton) -> Automaton:
    """Quotient the deterministic second phase by strong bisimulation."""
    final = _final_mask(A)
    block = _bisimulation(A.n_states, A.edges, final, "lumping")
    return _quotient(A, block, final)


def _successor_table(n, E: Edges):
    """``(T, mark)``: ``T[q, a]`` is the one successor of ``q`` on letter
    index ``a``, -1 if none, -2 if several; ``mark`` flags marked moves."""
    L = len(E.letters)
    T = np.full((n, L), -1, dtype=np.int64)
    mark = np.zeros((n, L), dtype=bool)
    T[E.src, E.let] = E.dst
    mark[E.src, E.let] = E.acc
    several = np.flatnonzero((E.src[1:] == E.src[:-1]) & (E.let[1:] == E.let[:-1]))
    T[E.src[several], E.let[several]] = -2
    return T, mark


def _inclusion_fails(T, mark, P, R):
    """Per pair ``k``: is L(P[k]) not included in L(R[k])?  ``P`` and ``R``
    are states of the deterministic accepting phase with successor table
    ``T`` and marks ``mark``.

    All pairs share one product exploration.  A product state is a pair
    (p, r) where r may be a dead run.  Inclusion fails exactly when, after
    deleting r-accepting edges, some cycle reachable from the start pair
    still carries a p-accepting edge.  :func:`~omegadp.automata.explore`
    numbers the pairs from the start pairs on.
    """
    n, L = T.shape
    base = n + 1  # r == n is the dead run
    T_r = np.vstack([np.where(T < 0, n, T), np.full((1, L), n)])
    mark_r = np.vstack([mark, np.zeros((1, L), dtype=bool)])

    def expand(lo, batch):
        p, r = np.divmod(batch, base)
        P2 = T[p]
        if np.any(P2 == -2):
            raise ValueError("second phase is not deterministic")
        k, a = np.nonzero(P2 >= 0)
        return P2[k, a] * base + T_r[r[k], a], \
            (k + lo, mark_r[r[k], a], mark[p[k], a])

    pairs, starts, (src, cut, acc, dst) = explore(P * base + R, expand,
                                                  "inclusion search")
    src = src.astype(np.int32)
    keep = ~cut
    acc &= keep
    comp = _components(len(pairs), src[keep], dst[keep])
    bad = src[acc & (comp[src] == comp[dst])]
    return _reached(len(pairs), dst, src, bad)[starts]


def _phase2_fingerprints(T, nonempty, states):
    """Language invariants of second-phase states, one row each.

    The first column says whether L(q) is nonempty.  Each other column walks
    the states through a fixed letter sequence and counts its prefixes that
    some word of L(q) starts with.  The second phase is deterministic, so a
    prefix has at most one run from q, and the prefix starts a word of L(q)
    exactly when that run survives into a state with a nonempty language.
    Every column is therefore a property of L(q) alone: states with equal
    languages always get equal fingerprints, however their runs place the
    accepting marks.
    """
    L = T.shape[1]
    seqs = [[a] * (len(states).bit_length() + 2) for a in range(L)]
    if L > 1:
        seqs.append([i % L for i in range(8)])
    columns = [nonempty[states]]
    for seq in seqs:
        cur = states.copy()
        live = nonempty[states]
        count = np.zeros(len(states), dtype=np.int64)
        for a in seq:
            t = T[cur, a]
            if np.any(live & (t == -2)):
                raise ValueError("second phase is not deterministic")
            live &= t >= 0
            cur = np.where(live, t, cur)
            live &= nonempty[cur]
            count += live
        columns.append(count)
    return np.stack(columns, axis=1).astype(np.int64)


def merge_lang_final(A: Automaton) -> Automaton:
    """Redirect every jump into the second phase to one representative per
    language; representatives are the lowest state ids.

    Only edges leaving the first phase are redirected.  Internal second
    phase edges must keep each state's own deterministic structure: a state
    can share its language with another yet reach its accepting edges at
    different points of the run, so splicing their transition functions
    together (as a plain quotient would) can starve or fabricate acceptance
    on words both states agree on.  Class members that are still reachable
    through the second phase survive; the rest are pruned.
    """
    final = _final_mask(A)
    E = A.edges
    n = A.n_states
    T, mark = _successor_table(n, E)
    states = np.flatnonzero(final)
    nonempty = _nonempty(E, _components(n, E.src, E.dst))
    prints = _phase2_fingerprints(T, nonempty, states)
    fingerprint = Interner(prints.shape[1], np.int64).ids(prints)
    # language classes inside each fingerprint group, one class per round:
    # the lowest pending member of a group represents its class, and every
    # other pending member is checked against it in both directions
    redirect = np.arange(n)
    order = np.lexsort((states, fingerprint))
    group, member = fingerprint[order], states[order]
    while len(member):
        check_time("language merging")
        lowest = np.ones(len(member), dtype=bool)
        lowest[1:] = group[1:] != group[:-1]
        rep = member[lowest][np.cumsum(lowest) - 1]
        q, qr = member[~lowest], rep[~lowest]
        if not len(q):
            break
        fails = _inclusion_fails(T, mark, np.concatenate([q, qr]),
                                 np.concatenate([qr, q]))
        same = ~fails[:len(q)] & ~fails[len(q):]
        redirect[q[same]] = qr[same]
        left = ~lowest
        left[left] = ~same
        group, member = group[left], member[left]
    jump = ~final[E.src]
    dst = np.where(jump, redirect[E.dst], E.dst)
    edges = Edges.normalised(E.letters, E.src, E.let, dst, E.acc)
    return _reachable_part(A, int(redirect[A.initial]), edges, final)


def _reachable_part(A: Automaton, initial, E: Edges, final) -> Automaton:
    """``A`` with initial state ``initial`` and edges ``E``, restricted to
    the states reachable from it."""
    return _restrict(A, initial, E,
                     _reached(A.n_states, E.src, E.dst, [initial]), final)


def drop_dominated_jumps(A: Automaton) -> Automaton:
    """Delete each jump into the second phase whose target's language is
    included in the target language of a sibling, a jump that leaves the
    same state on the same letter; of siblings with equal languages the
    lowest id stays.  States no longer reachable are pruned.

    The language stays the same, and so does the value of every MDP
    product: wherever a strategy would take a deleted jump, the sibling's
    deterministic second phase accepts every suffix the deleted target
    accepts.  All sibling pairs share one inclusion check.
    """
    check_time("jump dominance")
    final = _final_mask(A)
    E = A.edges
    n = A.n_states
    jumps = np.flatnonzero(~final[E.src] & final[E.dst])
    # the edges are sorted by (source, letter), so siblings are contiguous
    first = np.ones(len(jumps), dtype=bool)
    first[1:] = (E.src[jumps[1:]] != E.src[jumps[:-1]]) \
        | (E.let[jumps[1:]] != E.let[jumps[:-1]])
    start = np.flatnonzero(first)
    size = np.diff(np.append(start, len(jumps)))
    # every ordered pair (i, j) of sibling jumps with i != j: jump i is
    # repeated once per sibling, and j runs over its group
    i, off = _spans(np.repeat(size, size))
    j = np.repeat(start, size)[i] + off
    i, j = i[i != j], j[i != j]
    if not len(i):
        return A
    q, q2 = E.dst[jumps[i]].astype(np.int64), E.dst[jumps[j]]
    pairs, inverse = np.unique(q * n + q2, return_inverse=True)
    T, mark = _successor_table(n, E)
    P, R = np.divmod(pairs, n)
    included = ~_inclusion_fails(T, mark, P, R)
    # the pair set is symmetric, so every reverse pair is in ``pairs``
    back = included[np.searchsorted(pairs, R * n + P)]
    dominated = (included & (~back | (R < P)))[inverse]
    drop = np.zeros(len(E), dtype=bool)
    drop[jumps[i[dominated]]] = True
    edges = Edges(E.letters, E.src[~drop], E.let[~drop], E.dst[~drop],
                  E.acc[~drop])
    return _reachable_part(A, A.initial, edges, final)


def lump_all(A: Automaton) -> Automaton:
    """Strong bisimulation quotient over the whole automaton."""
    final = _final_mask(A)
    block = _bisimulation(A.n_states, A.edges,
                          np.ones(A.n_states, dtype=bool), "lumping")
    return _quotient(A, block, final)


def reduction_stages(A: Automaton):
    """Prune, lump final, merge languages (and drop dominated jumps) and
    lump all, in turn; yields the name of each stage's ``PipelineStats``
    field and its result."""
    A = prune_empty(A)
    yield "prune", A
    A = lump_final(A)
    yield "lumpd", A
    A = drop_dominated_jumps(merge_lang_final(A))
    yield "lang", A
    yield "lumpa", lump_all(A)


def reduce_nba(A: Automaton) -> Automaton:
    """The result of all four reduction stages."""
    for _, A in reduction_stages(A):
        pass
    return A


def run_pipeline(A: Automaton, budget: float = 600.0):
    """complement -> prune -> lump final -> merge languages and drop
    dominated jumps -> lump all, within ``budget`` seconds.

    ``A`` is read as a UCA (an NBA is reinterpreted structurally).  On budget
    exhaustion the stats cover the completed stages and carry a timeout flag,
    and the result is the last stage's output (None before the complement).
    """
    t0 = time.monotonic()
    if A.kind == "NBA":
        A = A.reinterpret("UCA")
    stats = PipelineStats(orig=A.n_states)
    result = None
    try:
        with time_limit(budget):
            # the generic rank construction: shape special-casing, an
            # optimization for collection automata, would skew the counts
            result = complement_uca(A, ComplementOptions(special=False))
            stats.compl = result.n_states
            for field, result in reduction_stages(result):
                setattr(stats, field, result.n_states)
    except TimeoutError:
        stats.timed_out = True
    stats.time = time.monotonic() - t0
    return result, stats


def _load_graph_routines():
    """Import scipy's graph routines, which the graph layer of
    :mod:`omegadp.automata` loads on first use, so that no file's ``time``
    cell includes loading them."""
    import scipy.sparse.csgraph  # noqa: F401


def _reduce_file(job):
    """Reduce one HOA file and write the result to ``out_dir`` when it is
    set; returns the file's CSV row, an error row if it fails."""
    path, budget, out_dir = job
    from .hoa import emit_hoa, parse_hoa
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        with open(path) as fh:
            A = parse_hoa(fh.read())
        result, stats = run_pipeline(A, budget)
        if out_dir is not None and result is not None:
            with open(os.path.join(out_dir, f"{name}.hoa"), "w") as fh:
                fh.write(emit_hoa(result))
        return stats.row(name)
    except Exception as exc:
        return [name, "", "", "", "", "", "",
                f"error: {type(exc).__name__}: {exc}"]


def batch_reduce(input_dir, output_csv, budget: float = 600.0, workers=None,
                 out_dir=None):
    """Reduce every ``.hoa`` file in a directory into a CSV of stage counts.

    A file that cannot be read or reduced gets a row whose last cell starts
    with ``error:`` and the batch goes on.  With ``out_dir``, each reduced
    automaton is written there as ``<name>.hoa``.  ``workers`` defaults to
    the number of cores.  Returns the rows.
    """
    paths = sorted(
        os.path.join(input_dir, f) for f in os.listdir(input_dir)
        if f.endswith(".hoa"))
    jobs = [(p, budget, out_dir) for p in paths]
    workers = workers or os.cpu_count() or 1
    if workers > 1 and len(jobs) > 1:
        from multiprocessing import Pool
        with Pool(workers, initializer=_load_graph_routines) as pool:
            rows = pool.map(_reduce_file, jobs)
    else:
        _load_graph_routines()
        rows = [_reduce_file(j) for j in jobs]
    with open(output_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "orig", "compl", "prune", "lumpd", "lang",
                         "lumpa", "time"])
        writer.writerows(rows)
    return rows
