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
order they are found.  Every state is a row of one table, so any number
of UCA states works: a rank per UCA state, -1 when absent, then the
``ceil(n / 8)`` bytes of the ``O`` mask, one per cell, UCA state ``q`` at
bit ``q % 8`` of byte ``q // 8`` (:func:`_mask_words`), then ``i``.  At 10
UCA states a row is 13 int8 cells, two 64-bit words to hash and compare.
The mask is a one-to-one re-encoding of one flag per UCA state, so it
changes no id.  A subset's row gives its members rank 0, an empty mask and
``i = -1``, so a state's kind and the ``final`` mask are read off the
rows; the empty subset's row is the sink.  A row's dtype is the narrowest
signed one that holds 2n, which the ranking update reaches in ``i + 2``
and ``top + 1`` (:func:`_row_dtype`): int8 up to 63 UCA states, int16
above.  A row has the same values, hash and id in either.  The worklist is
taken in FIFO batches of consecutive ranking states (at most ``_CHUNK``);
numpy computes the ranking update of a whole batch on every letter at once,
and the successors are then interned in (state, letter) order, which gives
every state the id the one-at-a-time loop would give it.  A batch goes through
four steps, and the entry rankings of a subset through a fifth:

* Least incoming rank.  The UCA's moves are grouped by (target, letter)
  once per construction, largest group first (:func:`_move_groups`).  One
  gather reads, for every move and ranking, what the move brings (the
  source's rank, or along a rejecting move the even rank at or below it),
  and one elementwise minimum per layer of the groups folds each group
  into its cell, so ``g[target, letter, ranking]`` costs one pass over the
  move list; the successors' ranks are then one gather of columns of
  ``g``, a contiguous row per UCA state.  An absent state is -1 here as in
  the rows: read unsigned it is above every rank, so the minimum is an
  unsigned one, and read signed it is below every rank, so the top rank
  is a plain maximum.
* Tightness.  A ranking is tight when its top rank is odd and it holds
  every odd rank below.  Each odd rank 2j+1 held sets bit j, as 1 shifted
  by the rank's half, of a mask of odd ranks in words of the narrowest
  unsigned dtype that holds ``min(n, 64)`` bits (a byte up to 8 UCA
  states), as many words as the UCA needs; the OR over the targets must
  equal the mask of all odd ranks up to the top (:func:`_tight`).  The
  ``O`` and ``i`` update and the new rows are then computed only for the
  (ranking, letter) pairs that stay tight.
* The ``O`` and ``i`` update, on one mask per successor
  (:func:`_bit_masks`).  ``O`` is owed the UCA states its members move to:
  the OR of one column per byte of ``O`` of the tables of
  :func:`_owed_tables`, built once per construction, a mask per byte
  position, byte value and letter.  The successor keeps in ``O`` the owed
  states of rank ``i``, ``mask(r == i) & owed``; while that is not 0, ``i``
  stays, and otherwise (a breakpoint) ``O`` refills with ``mask(r == i2)``
  for the next even rank ``i2``.  Both selects take one value per
  successor, not one per UCA state.
* Interning.  One :class:`~omegadp.automata.Interner` stores each
  state's row once, in order of first appearance, and finds a row by its
  64-bit hash in an open-addressing table of int32 ids, a whole batch at
  once; its rows grow by half at a time.  It is the one id space: a
  state's id is its row's id, and a batch of consecutive ranking states
  reads a slice of the rows.  A subset reached for the first time is
  interned in one call with its entry rankings, each subset before its
  entries, in letter order; every later jump into the subset reuses the
  stored ids, and the state budget is checked after each call.  The
  entries' table depends only on the subset size and the pin position,
  and is counted in closed form first, so a count above the state budget
  fails before any row is built.  A table of at most ``_KEEP_CELLS`` cells
  is built once per process (``_kept_rankings`` keeps the last 64, 8 MiB
  at most); a larger one lasts one construction.  The sink has none.
* Live entries.  Most entry rankings have no move: every letter blocks
  them.  The same kernel (:func:`_ranking_update`) runs over the entry
  tables of all the subsets that one subset expansion reaches first, in
  pieces of at most ``_CHUNK`` rows, and only the entries that some letter
  keeps tight (or sends to the sink) are interned and jumped to.  A dropped
  entry has no successor, so it was never live, and the other states keep
  their order: pruning gives the same automaton as it would with them.

The states are expanded in id order, so the edges come in the order of
their sources: the construction keeps the number of edges of each state,
and per edge its letter (uint16: an alphabet has at most 2**16 letters),
target and mark.  When the exploration ends, the interner and the entry
ids are freed, the sources are spelled out from the counts, and the other
edge parts are joined one field at a time.

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
    check_time


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
    blocks = [np.empty((0, m), dtype=np.int16)]  # no ranking of no state
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


def _mask_words(n):
    """How the ``O`` mask of a ranking of ``n`` UCA states is held:
    ``(nb, word, nw)``.  A row stores its ``nb = ceil(n / 8)`` bytes, one
    per cell, UCA state ``q`` at bit ``q % 8`` of byte ``q // 8``; the
    update computes on them as ``nw`` little-endian words of the unsigned
    dtype ``word``, the narrowest of 1, 2, 4 and 8 bytes that holds them
    (uint64, as many as needed, past 64 states), zero-padded."""
    nb = -(-n // 8)
    size = next((s for s in (1, 2, 4) if s >= nb), 8)
    return nb, np.dtype(f"<u{size}"), -(-nb // size)


def _bit_masks(flags, mask):
    """``flags[t, k]``, a row per UCA state, as the ``O`` masks of
    ``mask = _mask_words(n)``: ``out[w, k]`` is word ``w`` of column
    ``k``'s mask, the OR of its flags shifted to their bits."""
    _, word, nw = mask
    B = 8 * word.itemsize
    out = np.empty((nw, flags.shape[1]), dtype=word)
    for w in range(nw):
        part = flags[w * B:(w + 1) * B]
        bit = np.arange(len(part), dtype=word)[:, None]
        np.bitwise_or.reduce(np.left_shift(part, bit, dtype=word), axis=0,
                             out=out[w])
    return out


def _owed_tables(E: Edges, n, mask):
    """``owed[w, (j * V + v) * L + a]``: word ``w`` (``mask =
    _mask_words(n)``) of the mask of the UCA states that the states of
    byte ``j`` of an ``O`` mask whose bits are set in the byte value ``v``
    move to on letter index ``a``; ``V = 2 ** min(n, 8)``.  The mask that a
    whole ``O`` is owed on ``a`` is the OR of one column per byte."""
    nb, word, nw = mask
    L, V = len(E.letters), 1 << min(n, 8)
    post = np.zeros((n, L, nw * word.itemsize), dtype=np.uint8)
    np.bitwise_or.at(post, (E.src, E.let, E.dst >> 3),
                     np.left_shift(1, E.dst & 7).astype(np.uint8))
    table = np.zeros((nb, V, L, post.shape[2]), dtype=np.uint8)
    for q in range(n):
        j, t = divmod(q, 8)
        np.bitwise_or(table[j, :1 << t], post[q], out=table[j, 1 << t:2 << t])
    return np.ascontiguousarray(table.reshape(nb * V * L, -1).view(word).T)


def _move_groups(E: Edges, n):
    """The moves of the UCA laid out for the least incoming rank.

    The moves into one cell (target * L + letter) form a group, and the
    groups are ordered by size, largest first.  Layer ``d`` holds the
    ``d``-th move, in source order, of every group that has one, so it
    covers a prefix of the groups.  Returns ``(take, sizes, cells)``:
    ``take`` lists the layers one after the other, each move as the row it
    reads of the rows a source brings (row ``q`` its rank, row ``n + q``
    along a rejecting move the even rank at or below it); ``sizes`` are the
    layer lengths; ``cells`` are the groups' cells."""
    cell = E.dst * len(E.letters) + E.let
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
    """Masks of odd ranks for rankings of up to ``n`` states, in words of
    the narrowest unsigned dtype that holds ``min(n, 64)`` bits (uint8 up to
    8 states, uint64 from 33 on); a word of ``B`` bits holds the odd ranks
    2j+1 with ``j // B`` its index, rank 2j+1 at bit ``j % B``.

    ``upto[w, c]`` is word ``w`` of the mask of the ``c`` lowest odd ranks
    (c = 0 .. n)."""
    word = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if np.iinfo(t).bits >= min(n, 64))
    B = np.iinfo(word).bits
    j = np.arange(n)
    bit = np.zeros((-(-n // B), n + 1), dtype=word)
    bit[j // B, j + 1] = word(1) << (j % B).astype(word)
    return np.bitwise_or.accumulate(bit, axis=1)


def _tight(g, top, upto):
    """Whether each ranking is tight: its largest rank ``top`` is odd and
    it holds every odd rank below ``top``.

    ``g[t, a, s]`` is the rank of UCA state ``t`` in ranking ``s`` after
    letter ``a``, or -1 where ``t`` is absent; ``top[a, s]`` is the
    largest rank held, -1 if none; ``upto`` is ``_odd_rank_masks(n)``.
    Read unsigned, a value ``r`` sets the bit ``(r & 1) << (r >> 1)`` of
    the words' dtype, shifted down by the bits of the words before: an even
    rank sets none, and numpy shifts to 0 an odd rank of another word
    (wrapped below 0, or at or past the width) and -1, whose half is past
    every width.  Per word, the OR over the targets must be the mask of
    every odd rank up to ``top``."""
    ok = (top > 0) & ((top & 1) == 1)
    odd_upto = (top + 1) >> 1
    u = g.view(f"u{g.itemsize}")
    odd, half = u & 1, u >> 1
    B = upto.itemsize * 8
    for w, mask in enumerate(upto):
        shifted = np.left_shift(odd, half - B * w if w else half,
                                dtype=upto.dtype)
        ok &= np.bitwise_or.reduce(shifted, axis=0) == mask.take(odd_upto)
    return ok


# per (ranking state, letter) outcome of a batched ranking update;
# _ranking_update sums the other two, so _BLOCKED must be 0
_BLOCKED, _EMPTY, _NEXT = 0, 1, 2


class _Moves(NamedTuple):
    """A UCA of ``n`` states over ``L`` letters, laid out for
    :func:`_ranking_update`: its move groups (:func:`_move_groups`), the
    masks ``upto`` of :func:`_odd_rank_masks` and the pinned state, or
    None."""

    n: int
    L: int
    take: np.ndarray
    sizes: list
    cells: np.ndarray
    upto: np.ndarray
    pinned: int | None


def _ranking_update(F, mv: _Moves):
    """The ranking update of the rank rows ``F`` (one per ranking state) on
    every letter; ``F`` is left as it is.

    Returns ``(g, top, status)``: ``g[t, a, s]`` is the least rank that row
    ``s`` brings to UCA state ``t`` on letter ``a`` (-1 where ``t`` is
    absent), ``top[a, s]`` the largest rank held after it (-1 if none) and
    ``status[a, s]`` one of ``_BLOCKED``, ``_EMPTY`` (every run died) and
    ``_NEXT``.  The least incoming rank is an unsigned minimum and ``top``
    a plain maximum (see the module docstring)."""
    n, L = mv.n, mv.L
    # what a move brings to its target, per source state and ranking: the
    # source's rank, or along a rejecting move the even rank at or below
    # it; an absent source brings -1 either way (a copy in row order: the
    # rows of brings are gathered)
    f = np.ascontiguousarray(F[:, :n].T)
    brings = np.concatenate([f, (f & -2) | (f < 0)]).view(f"u{f.itemsize}")
    # g[t, a, s]: the least rank a run of s brings to t on letter a
    least = brings[mv.take]
    at = mv.sizes[0]
    for k in mv.sizes[1:]:
        np.minimum(least[:k], least[at:at + k], out=least[:k])
        at += k
    g = np.full((n * L, len(F)), -1, dtype=F.dtype)
    g[mv.cells] = least[:mv.sizes[0]].view(F.dtype)
    g = g.reshape(n, L, len(F))
    top = g.max(axis=0)
    ok = _tight(g, top, mv.upto)
    if mv.pinned is not None:
        # the pinned state never dies and nothing feeds into it, so its
        # rank stays put while everyone else only decreases; a run where it
        # stops carrying the maximum cannot have been pinned at entry and
        # is dropped
        ok &= g[mv.pinned] == top
    # a tight ranking holds a rank, so at most one term is set (int8 sums:
    # np.where would branch on every cell)
    status = _EMPTY * (top < 0).view(np.int8) + _NEXT * ok.view(np.int8)
    return g, top, status


def _row_dtype(n):
    """The narrowest signed dtype of the rank rows of an ``n``-state UCA:
    it holds 2n, which the ranking update reaches in ``i + 2`` and
    ``top + 1``."""
    return np.int8 if 2 * n <= np.iinfo(np.int8).max else np.int16


def _complement_general(A: Automaton, opts: ComplementOptions) -> Automaton:
    E = A.edges
    letters = E.letters
    L, n = len(letters), A.n_states
    row = _row_dtype(n)
    succ = _successor_masks(E, n)
    pinned = _resolve_pin(A)
    mask = _mask_words(n)
    nb, word, nw = mask
    I = n + nb  # a state's row: ranks (-1 absent), the bytes of O, then i
    mv = _Moves(n, L, *_move_groups(E, n), _odd_rank_masks(n), pinned)
    chunk = max(1, min(_CHUNK,
                       _CHUNK_CELLS // max(1, L * (I + 1), len(mv.take))))
    owed = _owed_tables(E, n, mask)
    V = 1 << min(n, 8)  # the values of a byte of O that owed has rows for

    states = Interner(I + 1, row)  # a state's id is the id of its row
    entries = {}  # subset mask -> the ids of the subset and its entries
    large = {}  # entry-ranking tables too large to keep past this call
    # the edges, in the order of their sources: the number of each
    # state's edges, and per edge its letter, target and mark
    deg_parts, let_parts, dst_parts, acc_parts = [], [], [], []
    blocked = 0
    over_budget = (f"complement construction: state budget of "
                   f"{opts.max_states} exceeded")

    def intern(table):
        """The state ids of the rows ``table``."""
        ids = states.ids(table)
        if len(states) > opts.max_states:
            raise CapacityError(over_budget, opts.max_states)
        return ids

    def subset_row(S):
        """The row of subset ``S``: rank 0 on its members, and i = -1."""
        ranks = [0 if S >> q & 1 else -1 for q in range(n)]
        return np.array([ranks + [0] * nb + [-1]], dtype=row)

    def entry_table(S2):
        """The rank rows of the entry rankings of subset ``S2``."""
        members = [q for q in range(n) if S2 >> q & 1]
        m = len(members)
        pin = members.index(pinned) if pinned in members else None
        count = _n_tight_rankings(m, opts.odd_entry, pin is not None)
        if count > opts.max_states:
            raise CapacityError(over_budget, opts.max_states)
        key = (m, opts.odd_entry, pin)
        if count * m > _KEEP_CELLS and key not in large:
            large[key] = _tight_rankings(*key)
        ranks = large[key] if key in large else _kept_rankings(*key)
        table = np.zeros((len(ranks), I + 1), dtype=row)
        table[:, :n] = -1
        table[:, members] = ranks
        return table

    def moving(tables):
        """The rows of each table that some letter does not block; one
        kernel run over all the tables, in pieces of ``chunk`` rows."""
        nonlocal blocked
        every = np.concatenate(tables)
        keep = np.empty(len(every), dtype=bool)
        for lo in range(0, len(every), chunk):
            check_time("complement construction")
            status = _ranking_update(every[lo:lo + chunk], mv)[2]
            keep[lo:lo + chunk] = (status != _BLOCKED).any(axis=0)
        blocked += L * (len(keep) - int(np.count_nonzero(keep)))
        cuts = np.cumsum([len(t) for t in tables])[:-1]
        return [t[k] for t, k in zip(tables, np.split(keep, cuts))]

    def add_edges(deg, let, dst, acc):
        """The edges of the states expanded next: ``deg`` of each."""
        deg_parts.append(np.asarray(deg, dtype=np.int32))
        let_parts.append(np.asarray(let, dtype=np.uint16))
        dst_parts.append(np.asarray(dst, dtype=np.int32))
        acc_parts.append(np.asarray(acc, dtype=bool))

    def expand_subset(sid):
        S = sum(1 << q for q in np.flatnonzero(states.rows[sid, :n] == 0)
                .tolist())
        images = [_image(succ[li], S) for li in range(L)]
        # a subset reached for the first time is interned with the entry
        # rankings that some letter moves, each subset before its entries,
        # in letter order; the empty subset is the sink, with no entries
        fresh = [S2 for S2 in dict.fromkeys(images) if S2 not in entries]
        if fresh:
            kept = moving([entry_table(S2) for S2 in fresh])
            ids = intern(np.concatenate(
                [part for S2, t in zip(fresh, kept)
                 for part in (subset_row(S2), t)]))
            ends = np.cumsum([1 + len(t) for t in kept])[:-1]
            for S2, got in zip(fresh, np.split(ids, ends)):
                entries[S2] = np.sort(got)
        dst = [entries[S2] for S2 in images]
        fan = [len(d) for d in dst]
        k = sum(fan)
        # the sink's moves are its marked self-loops
        add_edges([k], np.repeat(np.arange(L), fan),
                  np.concatenate(dst), np.full(k, S == 0))

    def expand_ranks(lo, hi):
        """The ranking update of states ``lo .. hi-1`` on every letter."""
        nonlocal blocked
        m = hi - lo
        F = states.rows[lo:hi]
        g, top, status = _ranking_update(F, mv)
        st = status.T.reshape(-1)  # in (state, letter) order
        go = np.flatnonzero(st != _BLOCKED)
        blocked += m * L - len(go)
        nxt = np.flatnonzero(st == _NEXT)
        s, a = np.divmod(nxt, L)
        cell = a * m + s  # the successors' cells of the (letter, state) arrays
        r = g.reshape(n, L * m).take(cell, axis=1)  # a row per UCA state
        i = F[:, I].take(s)
        # owed to t: some state of O moves to t, the OR of one column of
        # owed per byte of O; O keeps the states owed the even rank i; once
        # it empties (a breakpoint) it refills with the states of the next
        # even rank i2
        owing = np.zeros((nw, len(nxt)), dtype=word)
        for j in range(nb):
            at = F[:, n + j].astype(np.intp)
            at &= 0xFF
            at += j * V
            at *= L
            at = at.take(s)
            at += a
            owing |= owed.take(at, axis=1)
        owing &= _bit_masks(r == i, mask)
        still = owing.any(axis=0)
        i2 = (i + 2) % (top.reshape(-1).take(cell) + 1)
        table = np.empty((len(nxt), I + 1), dtype=row)
        table[:, :n] = r.T
        O = np.where(still, owing, _bit_masks(r == i2, mask))
        table[:, n:I] = np.ascontiguousarray(O.T).view(np.uint8)[:, :nb]
        table[:, I] = np.where(still, i, i2)
        mark = np.ones(m * L, dtype=bool)
        mark[nxt] = ~still
        to_empty = st == _EMPTY
        # the sink exists already: a ranking state holds the UCA states of
        # the subset its word reaches, a state with a lower id, expanded first
        dst = np.empty(m * L, dtype=np.int32)
        if to_empty.any():
            dst[to_empty] = entries[0][0]
        dst[nxt] = intern(table)
        by, on = np.divmod(go, L)
        add_edges(np.bincount(by, minlength=m), on, dst[go], mark[go])

    intern(subset_row(1 << A.initial))
    wi = 0
    while wi < len(states):
        check_time("complement construction")
        # a subset has i = -1; the ranking states up to the next subset
        # form one batch
        if states.rows[wi, I] < 0:
            expand_subset(wi)
            wi += 1
        else:
            ahead = states.rows[wi:min(len(states), wi + chunk), I]
            hi = wi + int(np.append(ahead < 0, True).argmax())
            expand_ranks(wi, hi)
            wi = hi

    # the subsets but the sink (the empty subset) are the first phase
    final = states.rows[:len(states), I] >= 0
    if 0 in entries:
        final[entries[0][0]] = True
    # free the interning before the edges are joined, one field at a time
    states = None
    entries.clear()
    large.clear()
    src = np.repeat(np.arange(len(final), dtype=np.int32),
                    _joined(deg_parts))
    edges = Edges(letters, src, _joined(let_parts, np.int32),
                  _joined(dst_parts), _joined(acc_parts))
    return _result(A, len(final), edges, final, blocked, "rank")


def _joined(parts, dtype=None):
    """The arrays ``parts`` joined into one, of ``dtype`` if it is given;
    the list is emptied, so each part is freed as soon as the join no
    longer needs it."""
    out = np.concatenate(parts, dtype=dtype)
    parts.clear()
    return out


def _result(A: Automaton, n, edges: Edges, final, blocked,
            construction) -> Automaton:
    """The output automaton, started in state 0; ``final`` masks the
    second phase."""
    return Automaton.from_edges(
        "NBA", A.alphabet, n, 0, edges,
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
    return _result(A, len(found), edges, final, 0, f"special-{shape}")
