"""Rank-based translation of a UCA into a strongly limit-deterministic,
good-for-MDPs Buchi automaton.

The output has two phases: a deterministic subset phase, nondeterministic
jumps into a ranking phase (a tight level ranking, an owing set ``O`` and an
even index ``i``), and a deterministic ranking update whose breakpoints (the
moments ``O`` empties) are the accepting transitions.  The empty subset is a
single canonical accepting sink.

Optimizations: entry rankings can be restricted to odd ranks, and in a
collection automaton (tag ``collection_initial``) the fresh initial state is
pinned to the maximal rank.  Safety and reachability shaped inputs collapse
to subset and breakpoint constructions.

The general construction explores breadth first and numbers states in the
order they are found.  Ranking states are held as int16 rows of one table
(a rank per UCA state, -1 when absent, then the ``O`` flags, then ``i``), so
any number of UCA states works.  The worklist is taken in FIFO batches of
consecutive ranking states (at most ``_CHUNK``); numpy computes the ranking
update of a whole batch on every letter at once, and the successors are then
interned in (state, letter) order, which gives every state the id the
one-at-a-time loop would give it.  A batch goes through three steps, and
the entry rankings of a subset through a fourth:

* Least incoming rank.  The UCA's moves are grouped by (letter, target)
  once per construction, largest group first (:func:`_move_groups`).  One
  gather reads, for every move and ranking, what the move brings (the
  source's rank, or along a rejecting move the even rank at or below it),
  and one elementwise minimum per layer of the groups folds each group
  into its cell, so ``g[letter, target, ranking]`` costs one pass over the
  move list.
* Tightness.  A ranking is tight when its top rank is odd and it holds
  every odd rank below.  Each rank held sets one bit of a mask of odd
  ranks (64 odd ranks per word, as many words as the UCA needs); the OR
  over the targets must equal the mask of all odd ranks up to the top
  (:func:`_tight`).  The ``O`` and ``i`` update and the new rows are then
  computed only for the (ranking, letter) pairs that stay tight.
* Interning.  One :class:`~omegadp.automata.Interner` stores each rank
  row once, in order of first appearance, and finds a row by its 64-bit
  hash in an open-addressing table of ids, a whole batch at once.  A row's
  state id is kept in one int32 array: the rows are numbered in state id
  order, but the subsets and the sink take ids between them, so the new
  rows of a batch are looked up in one call and then numbered in pieces,
  each new subset or sink between the pieces.  A batch of consecutive
  ranking states therefore reads a slice of the interner's rows.  The
  entry rankings of a subset are decided once, when the subset is first
  reached; every later jump into the subset reuses the stored ids.  Their
  table depends only on the subset size and the pin position, and is
  counted in closed form first, so a count above the state budget fails
  before any row is built.  A table of at most ``_KEEP_CELLS`` cells is
  built once per process (``_kept_rankings`` keeps the last 64, 8 MiB at
  most); a larger one lasts one construction.
* Live entries.  Most entry rankings have no move: every letter blocks
  them.  The same kernel (:func:`_ranking_update`) runs over the entry
  tables of all the subsets that one subset expansion reaches first, in
  pieces of at most ``_CHUNK`` rows, and only the entries that some letter
  keeps tight (or sends to the sink) are interned and jumped to.  A dropped
  entry has no successor, so it was never live, and the other states keep
  their order: pruning gives the same automaton as it would with them.

When the exploration ends, the interner, the entry ids and the state ids
are freed, and the int32 edge parts are joined one field at a time.

Input and output are :class:`~omegadp.automata.Edges` (``A.edges``); no
``delta``/``gamma`` dict is built on either side.  The output's tags are
``final`` (a bool array, true on the second phase: every state but the
first-phase subsets), ``construction`` (``rank``, ``special-safety`` or
``special-reachability``) and ``stats``, whose one entry
``blocked_transitions`` counts the ranking updates dropped as not tight or
unpinned: those of the ranking states built, and all the updates of each
entry ranking that is not built because every letter blocks it (counted
once, when its subset is first reached).  The automaton gives its own state
and transition counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .automata import Automaton, CapacityError, Edges, Explorer, Interner, \
    _reserved, check_time


# a batch holds at most _CHUNK ranking states, and at most _CHUNK_CELLS cells
# of successor rows (states x letters x row width) and of incoming moves
# (states x UCA moves)
_CHUNK = 4096
_CHUNK_CELLS = 1 << 22


_KEEP_CELLS = 1 << 16  # int16 cells of the largest table _kept_rankings gets


@dataclass
class ComplementOptions:
    odd_entry: bool = True  # entry rankings use odd ranks only
    special: bool = True  # safety/reachability shapes get own constructions
    max_states: int = 50_000_000  # CapacityError beyond this many states


def _successor_masks(E: Edges, n):
    """``succ[a][q]``: the bitmask of the UCA's successors of state ``q``
    on letter index ``a``."""
    succ = [[0] * n for _ in E.letters]
    for q, a, t in zip(E.src.tolist(), E.let.tolist(), E.dst.tolist()):
        succ[a][q] |= 1 << t
    return succ


def _image(succ, mask):
    """The union of ``succ[q]`` over the states ``q`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= succ[low.bit_length() - 1]
        mask ^= low
    return out


def _tight_rankings(m, odd_only, pin):
    """All tight level rankings of ``m`` states as the rows of a read-only
    int16 array, a column per state, in lexicographic (rank, values) order.

    ``odd_only`` restricts the range to odd ranks; ``pin``, a column or
    None, forces that state to carry the maximal rank.  Other states may
    share the maximum: demanding a unique carrier is too strong, because a
    run that keeps dying and re-entering through rejecting edges can only
    ever hold even ranks, so somebody else must be free to hold the low odd
    ranks that tightness requires, and with a short rank range that
    somebody is the pinned state's own rank.
    """
    blocks = []
    for n in range(1, m + 1):
        top = 2 * n - 1
        values = np.arange(1 if odd_only else 0, top + 1, 2 if odd_only else 1)
        if pin is None:
            blocks.append(_onto_rows(m, values, range(1, top + 1, 2)))
        else:
            # pinned gets top; the rest must cover the odd ranks below it
            rest = _onto_rows(m - 1, values, range(1, top - 1, 2))
            blocks.append(np.insert(rest, pin, top, axis=1))
    table = np.concatenate(blocks)
    table.flags.writeable = False
    return table


_kept_rankings = lru_cache(maxsize=64)(_tight_rankings)


def _n_tight_rankings(m, odd_only, pinned):
    """``len(_tight_rankings(m, odd_only, pin))``, ``pinned`` telling
    whether ``pin`` is a column, without building a row."""
    total = 0
    for n in range(1, m + 1):
        v = n if odd_only else 2 * n
        total += (_n_onto(m - 1, v, n - 1) if pinned else _n_onto(m, v, n))
    return total


def _n_onto(m, v, c):
    """The number of rows of length ``m`` over ``v`` values that hold each
    of ``c`` given values, by inclusion and exclusion."""
    return sum((-1) ** k * comb(c, k) * (v - k) ** m for k in range(c + 1))


def _onto_rows(m, values, must_cover):
    """All rows of length ``m`` over the ascending ``values`` that hold every
    value of ``must_cover``, in lexicographic order, built a column at a
    time; a prefix survives while the columns left can still hold the
    values it misses."""
    values = np.asarray(values, dtype=np.int16)
    v = len(values)
    must_cover = set(must_cover)
    need = np.array([x in must_cover for x in values.tolist()], dtype=bool)
    rows = np.zeros((1, 0), dtype=np.int16)
    held = np.zeros((1, v), dtype=bool)
    for pos in range(m + 1):
        check_time("complement construction")
        ok = (~held[:, need]).sum(axis=1) <= m - pos
        rows, held = rows[ok], held[ok]
        if pos == m:
            return rows
        k = len(rows)
        pick = np.tile(np.arange(v), k)
        rows = np.column_stack([np.repeat(rows, v, axis=0), values[pick]])
        held = np.repeat(held, v, axis=0)
        held[np.arange(k * v), pick] = True


def _resolve_pin(A: Automaton):
    """The state pinned to the maximal rank (tag ``collection_initial``)."""
    pin = A.tags.get("collection_initial")
    if pin is None:
        return None
    E = A.edges
    if ((E.dst == pin) & (E.src != pin)).any():
        raise ValueError(
            f"cannot pin state {pin}: it has incoming transitions")
    return pin


def detect_shape(A: Automaton):
    """Detect the safety / reachability special shapes, if any."""
    if A.is_schema:
        return None
    E, init = A.edges, A.initial
    # reachability: every transition rejecting, except non-rejecting
    # self-loops on the initial state (which must have no other predecessors)
    loop = (E.src == init) & (E.dst == init)
    if E.acc.any() and np.array_equal(E.acc, ~loop) \
            and not (E.acc & (E.dst == init)).any():
        return "reachability"
    # safety: one rejecting sink with complete rejecting self-loops; all other
    # transitions non-rejecting
    sinks = np.unique(E.src[E.acc])
    if len(sinks) == 1:
        z = sinks[0]
        out = E.src == z
        if out.sum() == len(E.letters) and (E.dst[out] == z).all() \
                and E.acc[out].all():
            return "safety"
    return None


def complement_uca(A: Automaton, opts: ComplementOptions | None = None) -> Automaton:
    """Language-equivalent good-for-MDPs NBA for a UCA."""
    if A.kind != "UCA":
        raise ValueError("complement_uca requires a UCA")
    if A.is_schema:
        raise ValueError("instantiate the schema first")
    opts = opts or ComplementOptions()
    shape = detect_shape(A) if opts.special else None
    if shape is not None:
        return complement_special(A, shape, opts)
    return _complement_general(A, opts)


def _post(E: Edges, n):
    """``post[q, a * n + t]``: 1 if the UCA moves from ``q`` to ``t`` on
    letter index ``a``, else 0."""
    post = np.zeros((n, len(E.letters) * n), dtype=np.float32)
    post[E.src, E.let * n + E.dst] = 1
    return post


def _move_groups(E: Edges, n):
    """The moves of the UCA laid out for the least incoming rank.

    The moves into one cell (letter * n + target) form a group, and the
    groups are ordered by size, largest first.  Layer ``d`` holds the
    ``d``-th move, in source order, of every group that has one, so it
    covers a prefix of the groups.  Returns ``(take, sizes, cells)``:
    ``take`` lists the layers one after the other, each move as the row it
    reads of the rows a source brings (row ``q`` its rank, row ``n + q``
    along a rejecting move the even rank at or below it); ``sizes`` are the
    layer lengths; ``cells`` are the groups' cells."""
    cell = E.let * n + E.dst
    order = np.lexsort((E.src, cell))
    reads = (E.src + n * E.acc)[order]
    cells, first, size = np.unique(cell[order], return_index=True,
                                   return_counts=True)
    # largest first, equal sizes in cell order
    by_size = np.argsort(-size, kind="stable")
    cells, first, size = cells[by_size], first[by_size], size[by_size]
    # (one empty layer when there are no moves)
    depth = int(size[0]) if len(size) else 1
    sizes = [int(np.count_nonzero(size > d)) for d in range(depth)]
    take = np.concatenate([reads[first[:k] + d] for d, k in enumerate(sizes)])
    return take.astype(np.intp), sizes, cells.astype(np.intp)


def _odd_rank_masks(n):
    """Masks of odd ranks for rankings of up to ``n`` states, one word per
    64 odd ranks; rank 2j+1 is bit j % 64 of word j // 64.

    ``bits[w, r]`` is the bit that rank ``r`` (0 .. 2n) sets in word ``w``,
    nothing for an even rank; ``upto[w, c]`` is word ``w`` of the mask of
    the ``c`` lowest odd ranks (c = 0 .. n)."""
    words = (n + 63) // 64
    j = np.arange(n)
    bits = np.zeros((words, 2 * n + 1), dtype=np.uint64)
    bits[j // 64, 2 * j + 1] = np.left_shift(np.uint64(1),
                                              (j % 64).astype(np.uint64))
    upto = np.zeros((words, n + 1), dtype=np.uint64)
    upto[:, 1:] = np.bitwise_or.accumulate(bits[:, 1::2], axis=1)
    return bits, upto


def _tight(g, top, masks):
    """Whether each ranking is tight: its largest rank ``top`` is odd and
    it holds every odd rank below ``top``.

    ``g[a, t, s]`` is the rank of UCA state ``t`` in ranking ``s`` after
    letter ``a``, or 2n where ``t`` is absent; ``top[a, s]`` is the largest
    rank held, -1 if none; ``masks`` is ``_odd_rank_masks(n)``.  Per word,
    the OR of the bits of the ranks held must be the mask of every odd rank
    up to ``top``."""
    ok = (top > 0) & ((top & 1) == 1)
    odd_upto = (top + 1) >> 1
    for bits, upto in zip(*masks):
        ok &= np.bitwise_or.reduce(bits.take(g), axis=1) == upto.take(odd_upto)
    return ok


# per (ranking state, letter) outcome of a batched ranking update
_BLOCKED, _EMPTY, _NEXT = 0, 1, 2


class _Moves(NamedTuple):
    """A UCA of ``n`` states over ``L`` letters, laid out for
    :func:`_ranking_update`: its move groups (:func:`_move_groups`), the
    masks of :func:`_odd_rank_masks` and the pinned state, or None."""

    n: int
    L: int
    take: np.ndarray
    sizes: list
    cells: np.ndarray
    masks: tuple
    pinned: int | None


def _ranking_update(F, mv: _Moves):
    """The ranking update of the rank rows ``F`` (one per ranking state) on
    every letter; ``F`` is left as it is.

    Returns ``(g, top, status)``: ``g[a, t, s]`` is the least rank that row
    ``s`` brings to UCA state ``t`` on letter ``a`` (2n where ``t`` is
    absent), ``top[a, s]`` the largest rank held after it (-1 if none) and
    ``status[a, s]`` one of ``_BLOCKED``, ``_EMPTY`` (every run died) and
    ``_NEXT``."""
    n, L, big = mv.n, mv.L, 2 * mv.n
    # what a move brings to its target, per source state and ranking:
    # nothing (big) from an absent source, the source's rank, or along a
    # rejecting move the even rank at or below it (a copy: for one row the
    # transpose is a view of F)
    f = F[:, :n].T.copy()
    f[f < 0] = big
    brings = np.concatenate([f, f & np.int16(-2)])
    # g[a, t, s]: the least rank a run of s brings to t on letter a
    least = brings[mv.take]
    at = mv.sizes[0]
    for k in mv.sizes[1:]:
        np.minimum(least[:k], least[at:at + k], out=least[:k])
        at += k
    g = np.full((L * n, len(F)), big, dtype=np.int16)
    g[mv.cells] = least[:mv.sizes[0]]
    g = g.reshape(L, n, len(F))
    top = np.where(g < big, g, np.int16(-1)).max(axis=1)
    ok = _tight(g, top, mv.masks)
    if mv.pinned is not None:
        # the pinned state never dies and nothing feeds into it, so its
        # rank stays put while everyone else only decreases; a run where it
        # stops carrying the maximum cannot have been pinned at entry and
        # is dropped
        ok &= g[:, mv.pinned] == top
    status = np.where(ok, _NEXT, np.where(top >= 0, _BLOCKED, _EMPTY))
    return g, top, status


def _complement_general(A: Automaton, opts: ComplementOptions) -> Automaton:
    E = A.edges
    letters = E.letters
    L, n = len(letters), A.n_states
    succ = _successor_masks(E, n)
    pinned = _resolve_pin(A)
    W = 2 * n + 1  # rank row: ranks (-1 absent), then O flags, then i
    big = 2 * n  # above every rank
    mv = _Moves(n, L, *_move_groups(E, n), _odd_rank_masks(n), pinned)
    chunk = max(1, min(_CHUNK, _CHUNK_CELLS // max(1, L * W, len(mv.take))))
    post = _post(E, n)

    kinds = bytearray()  # per state id: 1 = subset, 2 = ranking, 0 = empty sink
    subset_ids = {}  # subset mask -> id
    subset_of = {}  # id -> subset mask
    ranks = Interner(W, np.int16)  # the rank rows, in state id order
    state_of = np.empty(1024, dtype=np.int32)  # state id of each rank row
    numbered = 0  # the rank rows that have a state id
    entries = {}  # subset mask -> jump_targets(mask)
    large = {}  # entry-ranking tables too large to keep past this call
    sink = []
    src_parts, let_parts, dst_parts, acc_parts = [], [], [], []
    blocked = 0

    def new_state(kind):
        sid = len(kinds)
        if sid >= opts.max_states:
            raise CapacityError(
                f"state budget of {opts.max_states} exceeded", sid)
        kinds.append(kind)
        return sid

    def get_empty():
        if not sink:
            sink.append(new_state(0))
        return sink[0]

    def intern_subset(S):
        sid = subset_ids.get(S)
        if sid is None:
            sid = subset_ids[S] = new_state(1)
            subset_of[sid] = S
        return sid

    def state_ids(rank):
        """The state ids of the rank rows ``rank`` (ids of ``ranks``); the
        rows up to the last of them that have none get the next state ids,
        in order."""
        nonlocal state_of, numbered
        upto = int(rank.max()) + 1 if len(rank) else 0
        if upto > numbered:
            first, fresh = len(kinds), upto - numbered
            if first + fresh > opts.max_states:
                raise CapacityError(f"state budget of {opts.max_states} "
                                    "exceeded", opts.max_states)
            kinds.extend(bytes([2]) * fresh)
            state_of = _reserved(state_of, upto)
            state_of[numbered:upto] = np.arange(first, first + fresh)
            numbered = upto
        return state_of[rank]

    def entry_table(S2):
        """The rank rows of the entry rankings of subset ``S2``."""
        states = [q for q in range(n) if S2 >> q & 1]
        m = len(states)
        pin = states.index(pinned) if pinned in states else None
        count = _n_tight_rankings(m, opts.odd_entry, pin is not None)
        if count > opts.max_states:
            raise CapacityError(
                f"state budget of {opts.max_states} exceeded",
                opts.max_states)
        key = (m, opts.odd_entry, pin)
        if count * m > _KEEP_CELLS and key not in large:
            large[key] = _tight_rankings(*key)
        ranks = large[key] if key in large else _kept_rankings(*key)
        table = np.zeros((len(ranks), W), dtype=np.int16)
        table[:, :n] = -1
        table[:, states] = ranks
        return table

    def moving(tables):
        """The rows of the tables that some letter does not block, in one
        array, and where each table's rows end in it; one kernel run over
        all the tables, in pieces of ``chunk`` rows."""
        nonlocal blocked
        every = np.concatenate(tables)
        keep = np.empty(len(every), dtype=bool)
        for lo in range(0, len(every), chunk):
            check_time("complement construction")
            status = _ranking_update(every[lo:lo + chunk], mv)[2]
            keep[lo:lo + chunk] = (status != _BLOCKED).any(axis=0)
        blocked += L * (len(keep) - int(np.count_nonzero(keep)))
        return every[keep], \
            np.cumsum(keep)[np.cumsum([len(t) for t in tables]) - 1]

    def add_edges(src, let, dst, acc):
        src_parts.append(np.asarray(src, dtype=np.int32))
        let_parts.append(np.asarray(let, dtype=np.int32))
        dst_parts.append(np.asarray(dst, dtype=np.int32))
        acc_parts.append(np.asarray(acc, dtype=bool))

    def expand_sink(sid):
        add_edges([sid] * L, range(L), [sid] * L, [True] * L)

    def expand_subset(sid):
        S = subset_of[sid]
        images = [_image(succ[li], S) for li in range(L)]
        # the subsets reached for the first time get their entry rankings;
        # states are interned in letter order, each new subset before its
        # entries, the sink where a letter kills every run
        fresh = [S2 for S2 in dict.fromkeys(images) if S2 and S2 not in entries]
        if fresh:
            rows, ends = moving([entry_table(S2) for S2 in fresh])
            kept = dict(zip(fresh, np.split(ranks.ids(rows), ends[:-1])))
        for S2 in images:
            if not S2:
                get_empty()
            elif S2 not in entries:
                sub = intern_subset(S2)
                entries[S2] = np.sort(np.append(state_ids(kept[S2]), sub))
        dst = [entries[S2] if S2 else [get_empty()] for S2 in images]
        fan = [len(d) for d in dst]
        k = sum(fan)
        add_edges(np.full(k, sid), np.repeat(np.arange(L), fan),
                  np.concatenate(dst), np.zeros(k, dtype=bool))

    def expand_ranks(lo, hi):
        """The ranking update of states ``lo .. hi-1`` on every letter."""
        nonlocal blocked
        m = hi - lo
        # ranking states are numbered in the order their rows are interned
        r = int(np.searchsorted(state_of[:numbered], lo))
        F = ranks.rows[r:r + m]
        g, top, status = _ranking_update(F, mv)
        st = status.T.reshape(-1)  # in (state, letter) order
        go = np.flatnonzero(st != _BLOCKED)
        blocked += m * L - len(go)
        nxt = np.flatnonzero(st == _NEXT)
        s, a = np.divmod(nxt, L)
        r = g[a, :, s]
        r[r == big] = -1
        i = F[s, 2 * n]
        # owed to t: some state of O moves to t; O keeps the states owed
        # the even rank i; once it empties (a breakpoint) it refills with
        # the states of the next even rank i2
        owed = (F[:, n:2 * n].astype(np.float32) @ post > 0) \
            .reshape(m * L, n)[nxt]
        owing = (r == i[:, None]) & owed
        still = owing.any(axis=1)
        i2 = (i + 2) % (top[a, s] + 1)
        table = np.empty((len(nxt), W), dtype=np.int16)
        table[:, :n] = r
        table[:, n:2 * n] = np.where(still[:, None], owing, r == i2[:, None])
        table[:, 2 * n] = np.where(still, i, i2)
        mark = np.ones(m * L, dtype=bool)
        mark[nxt] = ~still
        to_empty = st == _EMPTY
        # targets are interned in (state, letter) order, the sink included
        cut = len(nxt)
        if not sink and to_empty.any():
            cut = int(np.searchsorted(nxt, np.argmax(to_empty)))
        rank = ranks.ids(table)
        ids = state_ids(rank[:cut])
        dst = np.empty(m * L, dtype=np.int32)
        if to_empty.any():
            dst[to_empty] = get_empty()
        dst[nxt] = np.concatenate([ids, state_ids(rank[cut:])])
        add_edges(lo + go // L, go % L, dst[go], mark[go])

    start = intern_subset(1 << A.initial)
    wi = 0
    while wi < len(kinds):
        check_time("complement construction")
        kind = kinds[wi]
        if kind == 2:
            limit = min(len(kinds), wi + chunk)
            hi = min((k for k in (kinds.find(0, wi, limit),
                                  kinds.find(1, wi, limit)) if k >= 0),
                     default=limit)
            expand_ranks(wi, hi)
            wi = hi
            continue
        (expand_subset if kind == 1 else expand_sink)(wi)
        wi += 1

    # free the interning before the edges are joined, one field at a time
    ranks = state_of = None
    entries.clear()
    large.clear()
    edges = Edges(letters, *(_joined(p) for p in
                             (src_parts, let_parts, dst_parts, acc_parts)))
    final = np.frombuffer(kinds, dtype=np.uint8) != 1
    return _result(A, len(kinds), start, edges, final, blocked, "rank")


def _joined(parts):
    """The arrays ``parts`` joined into one; the list is emptied, so each
    part is freed as soon as the join no longer needs it."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def _result(A: Automaton, n, start, edges: Edges, final, blocked,
            construction) -> Automaton:
    """The output automaton; ``final`` masks the second phase."""
    return Automaton.from_edges(
        "NBA", A.alphabet, n, start, edges,
        tags={"final": final, "construction": construction,
              "stats": {"blocked_transitions": blocked}})


def complement_special(A: Automaton, shape: str, opts: ComplementOptions | None = None) -> Automaton:
    """Subset (safety) / breakpoint (reachability) special constructions."""
    opts = opts or ComplementOptions()
    actual = detect_shape(A)
    if actual != shape:
        raise ValueError(f"input does not match the {shape} shape (detected {actual})")
    E = A.edges
    L, init = len(E.letters), A.initial
    succ = _successor_masks(E, A.n_states)
    if shape == "safety":
        zbit = 1 << int(E.src[E.acc][0])
    else:
        # the initial state is exempt from ranking when it keeps a
        # non-rejecting self-loop
        exempt = ((E.src == init) & (E.dst == init) & ~E.acc).any()
        ebit = (1 << init) if exempt else 0

    # a state is (kind, payload): kind 1 a first-phase subset, kind 2 a
    # second-phase subset that avoids the rejecting sink (safety) or a
    # subset with its owing set (reachability), and EMPTY the accepting sink
    EMPTY = (0, ())
    found = Explorer((1, 1 << init), budget=opts.max_states,
                     what="complement construction")
    out = []  # (source, letter index, target, marked)
    for sid, (kind, payload) in found:
        if kind == 0:
            out += [(sid, li, sid, True) for li in range(L)]
        elif shape == "safety":
            for li in range(L):
                S2 = _image(succ[li], payload)
                if S2 == 0:
                    targets = [found.intern(EMPTY)]
                else:
                    targets = [found.intern((1, S2))] if kind == 1 else []
                    if not S2 & zbit:
                        targets.append(found.intern((2, S2)))
                # phase 2 marks every move; a run through the sink blocks
                out += [(sid, li, t, kind == 2) for t in targets]
        elif kind == 1:
            for li in range(L):
                S2 = _image(succ[li], payload)
                if S2 == 0:
                    out.append((sid, li, found.intern(EMPTY), False))
                    continue
                out.append((sid, li, found.intern((1, S2)), False))
                if S2 & ebit:
                    # entry ranking: exempt state rank 1, others 0; the
                    # first breakpoint fires immediately (O = empty)
                    out.append((sid, li, found.intern((2, (S2, S2 & ~ebit))),
                                False))
        else:
            S, O = payload
            for li in range(L):
                S2 = _image(succ[li], S)
                if S2 == 0:
                    out.append((sid, li, found.intern(EMPTY), True))
                elif S2 & ebit:  # otherwise no longer tight: blocked
                    O2 = _image(succ[li], O) & S2 & ~ebit
                    # a breakpoint once O empties: it refills with S2
                    tid = found.intern((2, (S2, O2 or S2 & ~ebit)))
                    out.append((sid, li, tid, not O2))

    src, let, dst, acc = np.array(out, dtype=np.int64).reshape(-1, 4).T
    edges = Edges.normalised(E.letters, src, let, dst, acc.astype(bool))
    final = np.array([kind != 1 for kind, _ in found.keys], dtype=bool)
    return _result(A, len(found), 0, edges, final, 0, f"special-{shape}")
