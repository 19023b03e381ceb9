"""Omega-automata with transition-based acceptance.

Letters of a plain alphabet are bit patterns over the atomic propositions
(an ``int`` in ``range(2**len(ap))``).  Promise alphabets pair each base
letter with a promise identifier: a schema state id (a nonnegative int) or
the trivial promise ``TOP``.

Acceptance marks sit on transitions.  For an NBA/DBA a marked transition is
accepting; for a UCA it is rejecting.  A DFA carries a final-state set
instead.  Automata need not be complete: a run that cannot continue is
neither accepting (NBA) nor rejecting (UCA).

An automaton holds its transitions in one form, the edge arrays
(``Edges``), set when it is made.  Its dicts ``delta`` and ``gamma`` are
read-only views of them (``view``), made only if something reads them.

This module is also the one graph layer of the library.  Strongly connected
components, reachability and emptiness are computed on edge arrays by
``scipy.sparse.csgraph`` (``_components``, ``_reached``, ``_nonempty``), and
the reduction stages, the MEC decomposition and value check of ``mdp`` and the
checks here all call them; scipy is imported inside them, because loading it
costs more than importing the rest of the library.  Each graph is one set of
int32 CSR arrays (``_Graph``), built a slice of edges at a time, so that no
step holds an int64 key per edge: a search from many roots writes them into
spare slots as the row of one virtual root, and backward reachability builds
the reverse graph from the edges.  ``prune_empty`` shares one graph between
the strong components and the forward search.  Explorations that number
states one key at a time use ``Explorer``.  Its batched twin ``explore``
numbers int64 keys a batch at a time: the product states of
``intersect_nba`` and ``mdp.product_with_nba`` and the pairs of the
reduction's inclusion search.  ``Interner`` is the library's one exact
row-set primitive: ``explore`` numbers its keys with it, the complement
its rank rows, and the reduction the rows of each bisimulation round and
the language fingerprints.  It stores each row zero-padded to whole
64-bit words and hashes and compares it a word at a time.
``lasso_member_nba`` keeps a Python Tarjan of its own: it is the membership
oracle the array constructions are tested against, so it shares no code
with them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable

import numpy as np


class TrivialPromise:
    """Singleton identifier for the trivial (always satisfied) promise."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"

    def __reduce__(self):
        return (TrivialPromise, ())


TOP = TrivialPromise()

MAX_LETTERS = 1 << 16


class CapacityError(RuntimeError):
    """State-count budget exceeded; carries the number of states built."""

    def __init__(self, message, states_built):
        super().__init__(message)
        self.states_built = states_built


# the time.monotonic() instant by which the running work must end, or None
_DEADLINE = ContextVar("deadline", default=None)


@contextmanager
def time_limit(seconds):
    """Run the block under a deadline ``seconds`` from now; ``None`` sets no
    limit.  Nested limits keep the earliest deadline, and the previous one
    is back when the block exits, also on an exception."""
    deadline = _DEADLINE.get()
    if seconds is not None:
        mine = time.monotonic() + seconds
        deadline = mine if deadline is None else min(deadline, mine)
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_time(what):
    """Raise ``TimeoutError`` naming the loop ``what`` once the deadline of
    the enclosing :func:`time_limit` has passed; long loops call it."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(f"{what} exceeded its deadline")


class Explorer:
    """Breadth-first numbering of the hashable keys reachable from
    ``start``, which gets id 0.

    ``intern(key)`` gives a key the next free id the first time it is seen
    and the same id ever after.  Iterating yields ``(id, key)`` in id order
    and also reaches the keys that the loop body interns meanwhile, so each
    key is expanded once and ids follow first-seen order.  Callers index by
    these ids (product ``pairs``, ``keys``, ``odp_state_of``): ``keys[i]``
    is the key of id ``i`` and ``ids`` maps each key to its id, in id order.
    With a ``budget``, interning a key that would get id ``budget`` raises
    :class:`CapacityError` with ``states_built`` equal to the budget.  The
    deadline is checked once per 1,024 new ids, from id 0 on; ``what``
    names the exploration in the timeout message.
    """

    __slots__ = ("ids", "keys", "budget", "what")

    def __init__(self, start, budget=None, what="exploration"):
        self.ids = {}
        self.keys = []
        self.budget = budget
        self.what = what
        self.intern(start)

    def intern(self, key) -> int:
        i = self.ids.get(key)
        if i is None:
            i = len(self.keys)
            if self.budget is not None and i >= self.budget:
                raise CapacityError(f"state budget of {self.budget} exceeded",
                                    i)
            if not i & 1023:
                check_time(self.what)
            self.ids[key] = i
            self.keys.append(key)
        return i

    def __iter__(self):
        # a list iterator reads the length on every step, so it also
        # yields the keys appended after it started
        return enumerate(self.keys)

    def __len__(self):
        return len(self.keys)


# rows of one batch that Interner probes together
_PROBE = 8192
_FREE = np.int32(np.iinfo(np.int32).max)  # an empty slot of an Interner


def _reserved(a, size):
    """``a``, or a copy of it half as long again, or as long as ``size``
    if that is more, when it is shorter than ``size``; the part past
    ``len(a)`` is zero."""
    if len(a) >= size:
        return a
    grown = np.zeros((max(size, len(a) + len(a) // 2),) + a.shape[1:],
                     dtype=a.dtype)
    grown[:len(a)] = a
    return grown


@lru_cache(maxsize=64)
def _multipliers(width):
    """``width`` random odd 64-bit multipliers, the same in every run."""
    mult = np.random.default_rng(0x5EED).integers(
        0, 1 << 64, size=width, dtype=np.uint64) | np.uint64(1)
    mult.flags.writeable = False
    return mult


class Interner:
    """Ids for the rows of integer tables: a row seen for the first time
    gets the next free id, in order of first appearance, and the same id
    ever after, as :class:`Explorer` would give them one row at a time.

    ``rows[i]`` is the row of id ``i < len(self)``, and the ids are int32.
    Each row is stored zero-padded to whole 64-bit words (``words``), and
    ``rows`` is the view of them in the caller's dtype and width.  The
    index is an open-addressing table of int32 ids with linear probing, at
    most half full.  A row's first slot is the top bits of its 64-bit hash:
    the wrapped sum of its words times random odd multipliers (``mult``,
    one per word, from a fixed seed), so a rank row of 21 int8 entries
    costs three multiplies.  A batch is probed in slices of at most
    ``_PROBE`` rows, each slice in a few numpy steps per probe.  A probe
    compares rows word by word and stops only at a slot whose stored row
    equals the row, so a hash collision never merges two rows.  A batch's
    rows are written straight into ``rows``, so packing costs no copy of
    its own, and keys of one int64 column fill their word exactly.
    """

    __slots__ = ("words", "rows", "mult", "table", "shift", "n")

    def __init__(self, width, dtype):
        self.mult = _multipliers(-(-width * np.dtype(dtype).itemsize // 8))
        # only ``rows`` is ever written, so the padding stays zero
        self.words = np.zeros((1024, len(self.mult)), dtype=np.uint64)
        self.rows = self.words.view(dtype)[:, :width]
        # a small exploration's rows then mostly find their row, or a free
        # slot, at the first probe
        self.table = np.full(1 << 14, _FREE, dtype=np.int32)
        self.shift = np.uint64(64 - 14)
        self.n = 0

    def __len__(self):
        return self.n

    def ids(self, table):
        """The ids of the rows of the 2-d array ``table``."""
        if len(table) <= _PROBE:
            return self._slice(table)
        return np.concatenate([self._slice(table[lo:lo + _PROBE])
                               for lo in range(0, len(table), _PROBE)])

    def _slice(self, keys):
        """The ids of the rows ``keys``, at most ``_PROBE`` of them."""
        n, k = self.n, len(keys)
        if not k:
            return np.empty(0, dtype=np.int32)
        if n + k > len(self.words):
            rows = self.rows
            self.words = _reserved(self.words, n + k)
            self.rows = self.words.view(rows.dtype)[:, :rows.shape[1]]
        if 2 * (n + k) > len(self.table):
            self._rehash(2 * (n + k))
        # the slice's rows take the ids n .. n+k-1 while they probe
        self.rows[n:n + k] = keys
        words = self.words[n:n + k]
        mine = np.arange(n, n + k, dtype=np.int32)
        got, where = self._probe(mine, self._slots(words), words)
        new = got == mine
        fresh = int(np.count_nonzero(new))
        if 0 < fresh < k:
            # the rows that found themselves are new: number them densely,
            # in order, and move their rows down
            number = np.cumsum(new) + (n - 1)
            later = got >= n
            got[later] = number[got[later] - n]
            self.table[where[new]] = number[new]
            self.words[n:n + fresh] = words.compress(new, axis=0)
        self.n = n + fresh
        return got

    def _slots(self, words):
        """The first slot of each row of ``words``."""
        mult = self.mult
        h = words[:, 0] * mult[0]
        for j in range(1, len(mult)):
            h += words[:, j] * mult[j]
        h >>= self.shift
        return h.astype(np.intp)

    def _probe(self, ids, at, keys):
        """Probe for the rows of words ``keys``, stored as ``ids``, from the
        slots ``at``: a row whose slot is free claims it, the lowest id
        first, and a row stops at the first slot that holds an equal row,
        its own claim included.  Returns that slot's id and the slot, per
        row."""
        table, words = self.table, self.words
        rounds = []  # per round: the ids met, the slots, the rows that go on
        while True:
            occ = table[at]
            free = occ == _FREE
            if np.count_nonzero(free):
                np.minimum.at(table, at[free], ids[free])
                occ = table[at]
            # take and compress move rows far faster than indexing does
            met = words.take(occ, axis=0)
            on = met[:, 0] != keys[:, 0]
            for j in range(1, keys.shape[1]):
                on |= met[:, j] != keys[:, j]
            if not np.count_nonzero(on):
                break
            rounds.append((occ, at, on))
            ids, keys = ids[on], keys.compress(on, axis=0)
            at = (at[on] + 1) & (len(table) - 1)
        for prev, prev_at, on in reversed(rounds):
            prev[on], prev_at[on] = occ, at
            occ, at = prev, prev_at
        return occ, at

    def _rehash(self, size):
        """A table of at least ``size`` slots, the stored ids placed anew,
        a slice at a time."""
        bits = (size - 1).bit_length()
        self.table = None  # freed before the new one is allocated
        self.table = np.full(1 << bits, _FREE, dtype=np.int32)
        self.shift = np.uint64(64 - bits)
        for lo in range(0, self.n, _PROBE):
            hi = min(self.n, lo + _PROBE)
            keys = self.words[lo:hi]
            self._probe(np.arange(lo, hi, dtype=np.int32), self._slots(keys),
                        keys)


def promise_sort_key(p):
    """Total order on promise identifiers for canonical letter ordering:
    ``TOP`` first, then the schema states."""
    return (0,) if p is TOP else (1, p)


def letter_sort_key(letter):
    if isinstance(letter, int):
        return (letter,)
    base, promise = letter
    return (base,) + promise_sort_key(promise)


def label_to_names(letter: int, ap) -> list:
    """The atomic propositions of ``ap`` that hold in a base letter."""
    return [name for i, name in enumerate(ap) if letter >> i & 1]


def label_from_names(names: Iterable[str], ap) -> int:
    """The base letter in which exactly the propositions ``names`` hold."""
    bits = 0
    for name in names:
        bits |= 1 << ap.index(name)
    return bits


@dataclass(frozen=True)
class Alphabet:
    """Atomic propositions plus an optional promise component.

    ``promises`` is the ordered vocabulary of promise identifiers, each
    ``TOP`` or a schema state (a nonnegative int); ``None`` means a plain
    alphabet whose letters are the ints ``0 .. 2**|ap|-1``.  ``subset``,
    when set, is an explicit tuple of letters (stored in canonical order):
    the alphabet then has those letters and no others.
    """

    ap: tuple
    promises: tuple | None = None
    subset: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "ap", tuple(self.ap))
        if self.promises is not None:
            object.__setattr__(self, "promises", tuple(self.promises))
            for p in self.promises:
                if p is not TOP and not (type(p) is int and p >= 0):
                    raise ValueError(f"bad promise identifier {p!r}")
        if self.subset is not None:
            subset = set(self.subset)
            for letter in subset:
                if not self._is_letter(letter):
                    raise ValueError(f"{letter!r} is not a letter of the alphabet")
            object.__setattr__(self, "subset",
                               tuple(sorted(subset, key=letter_sort_key)))
        if self.size > MAX_LETTERS:
            raise ValueError(
                f"alphabet has {self.size} letters, exceeding the cap of {MAX_LETTERS}"
            )

    def _is_letter(self, letter) -> bool:
        if self.promises is None:
            base = letter
        elif isinstance(letter, tuple) and len(letter) == 2 \
                and letter[1] in self.promises:
            base = letter[0]
        else:
            return False
        return isinstance(base, int) and 0 <= base < self.base_count

    @property
    def base_count(self) -> int:
        return 1 << len(self.ap)

    @property
    def size(self) -> int:
        if self.subset is not None:
            return len(self.subset)
        n = self.base_count
        if self.promises is not None:
            n *= len(self.promises)
        return n

    def letters(self) -> list:
        """The letters in canonical order (``letter_sort_key``): by base
        letter, then by promise (``promise_sort_key``)."""
        if self.subset is not None:
            return list(self.subset)
        base = range(self.base_count)
        if self.promises is None:
            return list(base)
        promises = sorted(self.promises, key=promise_sort_key)
        return [(b, p) for b in base for p in promises]

    def letter_of(self, assignment: Iterable[str]) -> int:
        """Encode a set of true atomic propositions as a base letter."""
        return label_from_names(assignment, self.ap)


@dataclass(frozen=True)
class LassoWord:
    """The ultimately periodic word ``prefix . cycle^omega``."""

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")


class Edges:
    """Transitions as parallel arrays, sorted by (source, letter, target)
    without repeats: edge ``k`` reads ``letters[let[k]]`` from ``src[k]`` to
    ``dst[k]`` and is marked when ``acc[k]``.  ``letters`` is the alphabet
    in canonical order.

    ``src``, ``let`` and ``dst`` are int32.  A key composed of two of them,
    such as ``src * n + dst``, can pass 2**31, so it is formed in int64."""

    __slots__ = ("letters", "src", "let", "dst", "acc")

    def __init__(self, letters, src, let, dst, acc):
        self.letters = letters
        self.src = np.asarray(src, dtype=np.int32)
        self.let = np.asarray(let, dtype=np.int32)
        self.dst = np.asarray(dst, dtype=np.int32)
        self.acc = np.asarray(acc, dtype=bool)

    @classmethod
    def normalised(cls, letters, src, let, dst, acc):
        """Sort the edges and merge repeats; a merged edge is marked when any
        of its copies is."""
        src, let, dst = (np.asarray(c, dtype=np.int32)
                         for c in (src, let, dst))
        acc = np.asarray(acc, dtype=bool)
        order = np.lexsort((dst, let, src))
        src, let, dst, acc = src[order], let[order], dst[order], acc[order]
        first = np.ones(len(src), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (let[1:] != let[:-1]) \
            | (dst[1:] != dst[:-1])
        starts = np.flatnonzero(first)
        if len(starts) < len(src):
            acc = np.logical_or.reduceat(acc, starts)
            src, let, dst = src[starts], let[starts], dst[starts]
        return cls(letters, src, let, dst, acc)

    @classmethod
    def of(cls, kind, alphabet, n_states, delta, gamma) -> "Edges":
        """The edges of the ``delta`` and ``gamma`` that :class:`Automaton`
        takes; raises ValueError unless every transition and mark joins two
        states on a letter of ``alphabet``, at most one per letter from a
        state of a DFA or DBA."""
        letters = alphabet.letters()
        index = {a: i for i, a in enumerate(letters)}
        gamma = frozenset(gamma)
        src, let, dst, acc = [], [], [], []
        for (q, a), targets in delta.items():
            if not targets:
                continue
            if not (0 <= q < n_states):
                raise ValueError(f"transition source {q} out of range")
            li = index.get(a)
            if li is None:
                raise ValueError(f"transition on {a!r}, not a letter of the "
                                 f"alphabet")
            if any(not (0 <= t < n_states) for t in targets):
                raise ValueError(
                    f"transition target out of range at ({q}, {a!r})")
            if kind in ("DFA", "DBA") and len(targets) > 1:
                raise ValueError(
                    f"{kind} state {q} has {len(targets)} successors on {a!r}")
            for t in targets:
                src.append(q)
                let.append(li)
                dst.append(t)
                acc.append((q, a, t) in gamma)
        for (q, a, t) in gamma:
            if t not in delta.get((q, a), ()):
                raise ValueError(
                    f"marked transition ({q}, {a!r}, {t}) is not a transition")
        return cls.normalised(letters, src, let, dst, acc)

    def __len__(self):
        return len(self.src)


class view(cached_property):
    """A read-only attribute made from a model's one transition form the
    first time it is read and kept: the dict forms of :class:`Automaton`
    and :class:`~omegadp.mdp.Mdp`."""

    def __set__(self, obj, value):
        raise AttributeError(f"{self.attrname} is a read-only view")


class Automaton:
    """Shared representation for NBA / UCA / DFA / DBA automata.

    ``initial is None`` marks an automaton schema (instantiate at any state).
    ``tags`` carries construction metadata (e.g. the fresh initial state of a
    collection automaton, or the second-phase mask ``final`` of a complement
    output).

    The transitions are held once, as the :class:`Edges` ``edges``.  The
    constructor checks the dicts it takes and sorts them into edges:
    ``delta`` maps ``(state, letter)`` to its successors and ``gamma`` is
    the set of marked ``(state, letter, target)`` transitions.  The array
    constructions (complement, reduction, HOA parsing, intersection) use
    :meth:`from_edges`.  ``delta`` (to ascending tuples) and ``gamma`` are
    read-only views of the edges, made on first read and kept, for the
    oracles, the JSON writers and an ODP's guard and promise schemas.
    Automata are shared, never mutated: :meth:`reinterpret` and
    :func:`instantiate` return copies with the same edges.
    """

    KINDS = ("NBA", "UCA", "DFA", "DBA")

    def __init__(self, kind, alphabet, n_states, initial, delta, gamma=(),
                 final_states=(), tags=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown automaton kind {kind!r}")
        if initial is not None and not (0 <= initial < n_states):
            raise ValueError(f"initial state {initial} out of range")
        edges = Edges.of(kind, alphabet, n_states, delta, gamma)
        if any(not (0 <= q < n_states) for q in final_states):
            raise ValueError("final state out of range")
        self._set(kind, alphabet, n_states, initial, edges, final_states,
                  tags)

    @classmethod
    def from_edges(cls, kind, alphabet, n_states, initial, edges: Edges,
                   tags=None, final_states=()) -> "Automaton":
        """The automaton with the transitions ``edges``, unchecked: their
        maker vouches for them."""
        A = cls.__new__(cls)
        A._set(kind, alphabet, n_states, initial, edges, final_states, tags)
        return A

    def _set(self, kind, alphabet, n_states, initial, edges, final_states,
             tags):
        self.kind, self.alphabet = kind, alphabet
        self.n_states, self.initial, self.edges = n_states, initial, edges
        self.final_states = frozenset(final_states)
        self.tags = dict(tags) if tags else {}

    @view
    def delta(self):
        e = self.edges
        letters = e.letters
        src, let, dst = e.src.tolist(), e.let.tolist(), e.dst.tolist()
        new = np.ones(len(src) + 1, dtype=bool)
        new[1:-1] = (e.src[1:] != e.src[:-1]) | (e.let[1:] != e.let[:-1])
        bounds = np.flatnonzero(new).tolist()
        return MappingProxyType({(src[lo], letters[let[lo]]): tuple(dst[lo:hi])
                                 for lo, hi in zip(bounds, bounds[1:])})

    @view
    def gamma(self):
        e = self.edges
        marked = np.flatnonzero(e.acc)
        return frozenset(zip(e.src[marked].tolist(),
                             [e.letters[k] for k in e.let[marked].tolist()],
                             e.dst[marked].tolist()))

    @property
    def is_schema(self) -> bool:
        return self.initial is None

    def successors(self, q, letter):
        return self.delta.get((q, letter), ())

    def _copy(self, kind, initial) -> "Automaton":
        """Read as ``kind`` from ``initial``: a copy with the same edges."""
        return Automaton.from_edges(kind, self.alphabet, self.n_states,
                                    initial, self.edges, self.tags,
                                    self.final_states)

    def reinterpret(self, kind) -> "Automaton":
        """Same structure read under a different acceptance semantics."""
        return self._copy(kind, self.initial)

    def __repr__(self):
        return (f"Automaton({self.kind}, states={self.n_states}, "
                f"initial={self.initial}, transitions={len(self.edges)})")


def instantiate(schema: Automaton, q: int) -> Automaton:
    """Pick an initial state for an automaton schema."""
    if not schema.is_schema:
        raise ValueError("automaton already has an initial state")
    if not (0 <= q < schema.n_states):
        raise ValueError(f"unknown state id {q}")
    return schema._copy(schema.kind, q)


def _strongly_connected_components(n_nodes, succ):
    """Iterative Tarjan.  ``succ`` maps a node index to an iterable of nodes.

    Returns a list mapping node -> component id; components are numbered in
    reverse topological order (a component's successors have lower ids).
    """
    index = [None] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    comp = [None] * n_nodes
    stack = []
    next_index = 0
    n_comps = 0
    for root in range(n_nodes):
        if index[root] is not None:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if index[nxt] is None:
                    index[nxt] = low[nxt] = next_index
                    next_index += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(succ(nxt))))
                    advanced = True
                    break
                elif on_stack[nxt]:
                    if index[nxt] < low[node]:
                        low[node] = index[nxt]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == node:
                        break
                n_comps += 1
    return comp, n_comps


def lasso_member_nba(A: Automaton, w: LassoWord) -> bool:
    """Does some run of ``A`` on ``prefix . cycle^omega`` visit a marked
    transition infinitely often?  ``A.kind`` is not read: the marks count as
    accepting."""
    if A.is_schema:
        raise ValueError("schema has no initial state")
    current, delta, gamma = {A.initial}, A.delta, A.gamma
    for a in w.prefix:
        nxt = set()
        for q in current:
            nxt.update(delta.get((q, a), ()))
        current = nxt
        if not current:
            return False
    k = len(w.cycle)
    # Nodes of the cycle layer are (state, position); find a marked edge on a
    # cycle reachable from the entry set.
    nodes = Explorer((min(current), 0), what="lasso membership")
    for q in current:
        nodes.intern((q, 0))
    succ_lists = []
    edge_marks = []  # (src_id, dst_id) marked
    for sid, (q, j) in nodes:
        a = w.cycle[j]
        succ_lists.append([])
        for t in delta.get((q, a), ()):
            tid = nodes.intern((t, (j + 1) % k))
            succ_lists[sid].append(tid)
            if (q, a, t) in gamma:
                edge_marks.append((sid, tid))
    if not edge_marks:
        return False
    comp, _ = _strongly_connected_components(len(nodes),
                                             succ_lists.__getitem__)
    # Single-node components only qualify through self-loops, which is
    # exactly the sid == tid case here.
    return any(comp[sid] == comp[tid] for sid, tid in edge_marks)


def lasso_member_uca(A: Automaton, w: LassoWord) -> bool:
    """A UCA accepts iff no run visits a rejecting transition infinitely often."""
    return not lasso_member_nba(A, w)


# edges per slice of the graph routines: their temporary arrays stay this
# small, however large the graph
_SLICE_BITS = 16
_SLICE = 1 << _SLICE_BITS
# the data of every graph matrix: scipy reads only the structure
_ONES = np.broadcast_to(1.0, 1 << 40)


class _Graph:
    """The edges ``src -> dst`` over the states ``0 .. n-1`` as int32 CSR
    arrays: the targets of state ``q`` are
    ``indices[indptr[q]:indptr[q + 1]]``.

    ``_Graph(n, src, dst, spare)`` takes the edges in any order and keeps
    their repeats, which :meth:`reached` does not mind.  A first pass counts
    the edges out of each state, and a second one moves each slice of
    ``_SLICE`` edges into the rows of their sources.  ``indices`` keeps
    ``spare`` free slots after the last target, and ``indptr`` one entry
    more than a CSR needs: :meth:`reached` writes there the row of a virtual
    state ``n`` that leads to every root.

    :meth:`simple` gives each row ascending and without repeats, because
    scipy's strong component search hangs on repeated edges.  No step holds
    a key per edge.  scipy reads only the structure, so its matrices carry
    a slice of ``_ONES``, one float broadcast, which takes no memory."""

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n, src, dst, spare=0):
        m = len(src)
        indptr = np.zeros(n + 2, dtype=np.int32)
        for lo in range(0, m, _SLICE):
            np.add.at(indptr[2:], src[lo:lo + _SLICE], np.int32(1))
        np.cumsum(indptr, out=indptr)
        # ahead[q] = indptr[q + 1] moves from where row q starts to where
        # it ends
        ahead = indptr[1:]
        indices = np.empty(m + spare, dtype=np.int32)
        for lo in range(0, m, _SLICE):
            # the slice's edges by source, in their order for each source
            key = np.left_shift(src[lo:lo + _SLICE], _SLICE_BITS,
                                dtype=np.int64)
            step = np.arange(len(key), dtype=np.int32)
            key += step
            key.sort()
            row = key >> _SLICE_BITS
            head = np.empty(len(row), dtype=bool)
            head[:1] = True
            np.not_equal(row[1:], row[:-1], out=head[1:])
            # they go to consecutive places of the source's row
            at = ahead[row]
            at += step
            at -= np.maximum.accumulate(step * head)
            key &= _SLICE - 1
            indices[at] = dst[lo:lo + _SLICE][key]
            head[:-1] = head[1:]
            head[-1:] = True
            ahead[row[head]] = at[head] + 1
        self.n, self.indptr, self.indices = n, indptr, indices

    @classmethod
    def simple(cls, n, src, dst) -> "_Graph":
        """The graph with each row ascending and without repeats.  Edges
        sorted by source, as :class:`Edges` keeps them, are read as they
        are, others are first grouped by source as ``_Graph`` does; then a
        slice of sources at a time, as int64 keys ``src * n + dst``.  The
        repeats of a pair have its source, so they lie in its slice, where
        a sort of the keys finds them."""
        if len(src) > 1 and np.any(src[1:] < src[:-1]):
            grouped = cls(n, src, dst)
            src = np.repeat(np.arange(n, dtype=np.int32),
                            np.diff(grouped.indptr[:n + 1]))
            dst = grouped.indices
        m = len(src)
        indptr = np.zeros(n + 2, dtype=np.int32)
        indices = np.empty(m, dtype=np.int32)
        lo = w = 0
        while lo < m:
            # a slice ends with the last edge of its last source
            hi = m if lo + _SLICE >= m else \
                int(np.searchsorted(src, src[lo + _SLICE - 1], "right"))
            key = src[lo:hi].astype(np.int64)
            key *= n
            key += dst[lo:hi]
            key.sort()
            keep = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            row, col = np.divmod(key[keep], n)
            indices[w:w + len(row)] = col
            # where each row's targets end
            last = np.flatnonzero(row[1:] != row[:-1])
            indptr[row[last] + 1] = last + (w + 1)
            w += len(row)
            indptr[row[-1:] + 1] = w
            lo = hi
        # a row without targets ends where the one before it ends
        np.maximum.accumulate(indptr, out=indptr)
        G = cls.__new__(cls)
        G.n, G.indptr, G.indices = n, indptr, indices
        return G

    def _matrix(self, size):
        from scipy.sparse import csr_matrix
        indptr = self.indptr[:size + 1]
        end = int(indptr[-1])
        return csr_matrix((_ONES[:end], self.indices[:end], indptr),
                          shape=(size, size))

    def components(self):
        """Strongly connected component label of each state."""
        from scipy.sparse.csgraph import connected_components
        return connected_components(self._matrix(self.n), directed=True,
                                    connection="strong")[1]

    def reached(self, roots):
        """Mask of the states reachable from the states ``roots``; unless
        there is one root, they need as many spare slots."""
        from scipy.sparse.csgraph import breadth_first_order
        n, indptr = self.n, self.indptr
        if len(roots) == 1:
            start, size = int(roots[0]), n
        else:
            end = int(indptr[n])
            self.indices[end:end + len(roots)] = roots
            indptr[n + 1] = end + len(roots)
            start, size = n, n + 1
        out = np.zeros(n + 1, dtype=bool)
        out[breadth_first_order(self._matrix(size), start,
                                return_predecessors=False)] = True
        return out[:n]


def _reached(n, src, dst, roots):
    """Mask of the states reachable from the states ``roots`` along the
    edges ``src -> dst``."""
    if not len(roots):
        return np.zeros(n, dtype=bool)
    return _Graph(n, src, dst, len(roots)).reached(roots)


def _components(n, src, dst):
    """Strongly connected component label of each state."""
    return _Graph.simple(n, src, dst).components()


def _inner(comp, src, dst):
    """Mask of the edges ``src -> dst`` that stay inside one component of
    ``comp``, a slice at a time."""
    out = np.empty(len(src), dtype=bool)
    for lo in range(0, len(src), _SLICE):
        np.equal(comp[src[lo:lo + _SLICE]], comp[dst[lo:lo + _SLICE]],
                 out=out[lo:lo + _SLICE])
    return out


def _nonempty(E: Edges, comp):
    """Mask of the states from which some accepting lasso exists: those
    that reach a strongly connected component, labelled by ``comp``, that
    holds a marked edge."""
    inner = _inner(comp, E.src, E.dst)
    inner &= E.acc
    live = np.zeros(len(comp), dtype=bool)
    live[comp[E.src[inner]]] = True
    return _reached(len(comp), E.dst, E.src, np.flatnonzero(live[comp]))


def nonempty_states(A: Automaton) -> set:
    """States of an NBA from which an accepting lasso exists: those that
    reach a strongly connected component holding a marked edge."""
    e = A.edges
    live = _nonempty(e, _components(A.n_states, e.src, e.dst))
    return set(np.flatnonzero(live).tolist())


def is_empty(A: Automaton) -> bool:
    return A.initial not in nonempty_states(A)


# keys that explore expands together
_BATCH = 4096


def explore(start, expand, what):
    """Breadth-first numbering of the int64 keys reachable from the keys
    ``start``, a batch of keys at a time: the batched twin of
    :class:`Explorer`.

    One :class:`Interner` numbers the keys by first appearance, ``start``
    first.  The keys are expanded in id order, up to ``_BATCH`` at a time:
    ``expand(lo, batch)`` gets the keys of the ids ``lo, lo + 1, ...`` and
    returns the keys they reach, in order, and a tuple of arrays to keep.
    The batches are taken first in, first out from the ids, so the ids are
    :class:`Explorer`'s whatever the batch size.  The deadline is checked
    once per batch; ``what`` names the exploration in the timeout message.

    Returns the keys in id order, the ids of ``start``, and the kept arrays
    joined, each batch's followed by the ids of the keys it reached.
    """
    index = Interner(1, np.int64)
    first = index.ids(start[:, None])
    parts = []
    lo = 0
    while lo < len(index):
        check_time(what)
        batch = index.rows[lo:min(lo + _BATCH, len(index)), 0]
        reached, kept = expand(lo, batch)
        parts.append(kept + (index.ids(reached[:, None]),))
        lo += len(batch)
    keys = index.rows[:len(index), 0]
    return keys, first, tuple(np.concatenate(c) for c in zip(*parts))


def _spans(sizes):
    """Per element of the segments of ``sizes`` elements each, laid end to
    end: its segment and its offset in it."""
    seg = np.repeat(np.arange(len(sizes)), sizes)
    return seg, np.arange(len(seg)) - (np.cumsum(sizes) - sizes)[seg]


def _letter_groups(e: Edges, n_states):
    """First edge and edge count of every (state, letter) group of ``e``,
    indexed by ``state * len(letters) + letter``."""
    counts = np.bincount(e.src.astype(np.int64) * len(e.letters) + e.let,
                         minlength=n_states * len(e.letters))
    return np.cumsum(counts) - counts, counts


def intersect_nba(A: Automaton, B: Automaton) -> Automaton:
    """Buchi intersection with a two-phase wait flag for the transition marks.

    States are the reachable triples (state of ``A``, state of ``B``, flag),
    numbered by :func:`explore` from the start triple; a batch's moves, in
    the order they are numbered (sources, then letters, then the successors
    in ``A``, then those in ``B``), come from one join of both automata's
    edges on the letter.
    """
    if A.alphabet != B.alphabet:
        raise ValueError("alphabet mismatch")
    if A.is_schema or B.is_schema:
        raise ValueError("cannot intersect schemas")
    ea, eb = A.edges, B.edges
    L, nb = len(ea.letters), B.n_states
    a_first, a_count = _letter_groups(ea, A.n_states)
    b_first, b_count = _letter_groups(eb, nb)

    def expand(lo, batch):
        # batch holds the keys (p * nb + q) * 2 + flag of triples
        ga = ((batch // (2 * nb)) * L)[:, None] + np.arange(L)
        gb = ((batch // 2 % nb) * L)[:, None] + np.arange(L)
        ga, gb = ga.ravel(), gb.ravel()
        fan_b = b_count[gb]
        # one pair of edges per move, grouped by (source, letter); inside a
        # group, A's edge is the major and B's the minor index
        group, pos = _spans(a_count[ga] * fan_b)
        ka = a_first[ga][group] + pos // fan_b[group]
        kb = b_first[gb][group] + pos % fan_b[group]
        # the flag rises on a mark of A and falls, marking the move, on a
        # mark of B
        risen = (batch[group // L] % 2 == 1) | ea.acc[ka]
        keys = (ea.dst[ka].astype(np.int64) * nb + eb.dst[kb]) * 2 \
            + (risen & ~eb.acc[kb])
        return keys, (lo + group // L, group % L, risen & eb.acc[kb])

    start = (A.initial * nb + B.initial) * 2
    keys, _, (src, let, acc, dst) = explore(np.array([start]), expand,
                                            "intersection")
    # each move is made once, so sorting is all the edges need
    order = np.argsort((src * L + let) * len(keys) + dst)
    return Automaton.from_edges(
        "NBA", A.alphabet, len(keys), 0,
        Edges(ea.letters, src[order], let[order], dst[order], acc[order]))


def _first_phase(A: Automaton, reached=_reached):
    """``(flag, in1)``: ``in1`` masks the part Q1 of the partition that
    :func:`is_strongly_limit_deterministic` checks, and the flag tells
    whether the check passes; ``reached`` is the search, as ``_reached``."""
    e, n = A.edges, A.n_states
    # Greatest set closed under successors where every state is
    # deterministic: the states that cannot reach a nondeterministic one.
    twin = (e.src[1:] == e.src[:-1]) & (e.let[1:] == e.let[:-1])
    seed = np.zeros(n, dtype=bool)
    seed[e.src[1:][twin]] = True
    in1 = reached(n, e.dst, e.src, np.flatnonzero(seed))
    if (in1[e.src[e.acc]] | in1[e.dst[e.acc]]).any():
        return False, in1
    inner = in1[e.src] & in1[e.dst]
    src, let = e.src[inner], e.let[inner]
    return not ((src[1:] == src[:-1]) & (let[1:] == let[:-1])).any(), in1


def is_strongly_limit_deterministic(A: Automaton):
    """Check for a partition (Q1, Q2) that is deterministic inside each part,
    closed and fully deterministic on Q2, with every marked transition lying
    inside Q2.

    Returns ``(flag, (Q1, Q2))``; the partition is meaningful only when the
    flag is true.
    """
    flag, in1 = _first_phase(A)
    q1 = set(np.flatnonzero(in1).tolist())
    return flag, (q1, set(range(A.n_states)) - q1)
