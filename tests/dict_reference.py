"""Dict-based reference versions of the rank construction, the reduction
stages, the Buchi intersection, the emptiness check, the MDP product and the
HOA reader and writer: one ranking state, one letter, one edge, one pair of
states or one row at a time, transitions in ``delta``/``gamma`` dicts and
products as dicts of tuples.  The library's batched array versions must
build exactly the same automata and products (``test_batched.py``), and its
HOA layer must read the same automata and write the same text
(``test_hoa.py``)."""

import json
import time

import numpy as np

from omegadp import hoa
from omegadp.automata import (
    Alphabet,
    Automaton,
    Explorer,
    _strongly_connected_components,
    check_time,
    is_strongly_limit_deterministic,
    letter_sort_key,
)
from omegadp.mdp import STUCK, Mdp
from omegadp.complement import CapacityError, ComplementOptions, _resolve_pin
from omegadp.reduction import canonical_empty


def _parts_of(A: Automaton):
    """The phase partition ``(Q1, Q2)`` read from the second-phase mask
    ``final``, one state at a time, or else the one that
    ``is_strongly_limit_deterministic`` finds."""
    final = A.tags.get("final")
    if final is None:
        flag, parts = is_strongly_limit_deterministic(A)
        if not flag:
            raise ValueError("automaton is not strongly limit deterministic")
        return parts
    q2 = {q for q in range(A.n_states) if final[q]}
    return set(range(A.n_states)) - q2, q2


def _final_tag(n, q2):
    """The second-phase mask of ``n`` states whose second phase is ``q2``."""
    return np.array([q in q2 for q in range(n)], dtype=bool)


def reachable_states(A: Automaton, start=None) -> set:
    if start is None:
        if A.is_schema:
            raise ValueError("schema has no initial state")
        start = A.initial
    seen = {start}
    frontier = [start]
    letters = A.alphabet.letters()
    while frontier:
        q = frontier.pop()
        for a in letters:
            for t in A.successors(q, a):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


def nonempty_states(A: Automaton) -> set:
    """States of an NBA from which an accepting lasso exists."""
    succ = {q: set() for q in range(A.n_states)}
    pred = {q: set() for q in range(A.n_states)}
    for (q, a), targets in A.delta.items():
        for t in targets:
            succ[q].add(t)
            pred[t].add(q)
    comp, _ = _strongly_connected_components(A.n_states, lambda q: succ[q])
    live_comps = set()
    for (q, a, t) in A.gamma:
        if comp[q] == comp[t]:
            live_comps.add(comp[q])
    live = {q for q in range(A.n_states) if comp[q] in live_comps}
    frontier = list(live)
    while frontier:
        q = frontier.pop()
        for p in pred[q]:
            if p not in live:
                live.add(p)
                frontier.append(p)
    return live


def intersect_nba(A: Automaton, B: Automaton) -> Automaton:
    """Buchi intersection with a two-phase wait flag for the transition
    marks; states are numbered in breadth-first first-seen order, sources
    in id order, then letters, then the successors in ``A`` and in ``B``."""
    if A.alphabet != B.alphabet:
        raise ValueError("alphabet mismatch")
    letters = A.alphabet.letters()
    keys = [(A.initial, B.initial, 0)]
    ids = {keys[0]: 0}
    delta = {}
    gamma = set()
    for src, (p, q, flag) in enumerate(keys):  # grows while it runs
        for a in letters:
            targets = []
            for p2 in A.successors(p, a):
                for q2 in B.successors(q, a):
                    nflag = flag
                    mark = False
                    if nflag == 0 and (p, a, p2) in A.gamma:
                        nflag = 1
                    if nflag == 1 and (q, a, q2) in B.gamma:
                        nflag = 0
                        mark = True
                    key = (p2, q2, nflag)
                    if key not in ids:
                        ids[key] = len(keys)
                        keys.append(key)
                    targets.append(ids[key])
                    if mark:
                        gamma.add((src, a, ids[key]))
            if targets:
                delta[(src, a)] = tuple(sorted(set(targets)))
    return Automaton("NBA", A.alphabet, len(keys), 0, delta, gamma)


class _Indexed:
    """Bitmask transition tables of the input UCA, read from its dicts."""

    def __init__(self, A: Automaton):
        self.letters = A.alphabet.letters()
        self.n = A.n_states
        L = len(self.letters)
        self.succ = [[0] * L for _ in range(self.n)]
        self.rej = [[0] * L for _ in range(self.n)]
        index = {a: i for i, a in enumerate(self.letters)}
        for (q, a), targets in A.delta.items():
            for t in targets:
                self.succ[q][index[a]] |= 1 << t
        for (q, a, t) in A.gamma:
            self.rej[q][index[a]] |= 1 << t

    def post(self, mask, li):
        out = 0
        for q in _bits(mask):
            out |= self.succ[q][li]
        return out


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _tight_rankings(states, odd_only, pinned):
    """Enumerate tight level rankings over ``states`` (sorted ids) as tuples
    aligned with ``states``, in lexicographic (rank, values) order.

    ``odd_only`` restricts the range to odd ranks; ``pinned`` forces that
    state to carry the maximal rank.  Other states may share the maximum:
    demanding a unique carrier is too strong, because a run that keeps
    dying and re-entering through rejecting edges can only ever hold even
    ranks, so somebody else must be free to hold the low odd ranks that
    tightness requires, and with a short rank range that somebody is the
    pinned state's own rank.
    """
    m = len(states)
    if m == 0:
        yield ()
        return
    pin_pos = states.index(pinned) if (pinned is not None and pinned in states) else None
    for n in range(1, m + 1):
        top = 2 * n - 1
        odds = list(range(1, top + 1, 2))
        if pin_pos is not None:
            # pinned gets top; the rest must cover the odd ranks below it
            rest = [k for k in range(m) if k != pin_pos]
            lower_odds = odds[:-1]
            values = odds if odd_only else list(range(0, top + 1))
            must_cover = set(lower_odds)
            for assign in _onto_assignments(len(rest), values, must_cover):
                f = [0] * m
                f[pin_pos] = top
                for k, v in zip(rest, assign):
                    f[k] = v
                yield tuple(f)
        else:
            values = odds if odd_only else list(range(0, top + 1))
            must_cover = set(odds)
            for assign in _onto_assignments(m, values, must_cover):
                yield tuple(assign)


def _onto_assignments(m, values, must_cover):
    """All value tuples of length ``m`` over ``values`` covering ``must_cover``,
    in lexicographic order."""
    if m == 0:
        if not must_cover:
            yield ()
        return
    values = sorted(values)
    out = [None] * m

    def rec(pos, missing):
        if m - pos < len(missing):
            return
        if pos == m:
            if not missing:
                yield tuple(out)
            return
        for v in values:
            out[pos] = v
            if v in missing:
                missing.remove(v)
                yield from rec(pos + 1, missing)
                missing.add(v)
            else:
                yield from rec(pos + 1, missing)

    yield from rec(0, set(must_cover))


def _is_tight(members):
    """members: list of (state, rank). Tight iff max rank odd and every odd
    value below it is attained."""
    top = -1
    odds_seen = set()
    for _, r in members:
        if r > top:
            top = r
        if r & 1:
            odds_seen.add(r)
    if top < 0 or not (top & 1):
        return False
    return len(odds_seen) == (top + 1) // 2


_BLOCKED, _EMPTY = "blocked", "empty"


def _rank_update(idx, pinned, payload, li):
    """The ranking update of the ranking state ``payload`` (S, O, f, i) on
    letter index ``li``: ``_BLOCKED``, ``_EMPTY`` when every run dies, or
    the successor's payload and whether the move is a breakpoint."""
    S, O, f, i = payload
    rank_of = dict(zip(_bits(S), f))
    # auxiliary g: minimum over source-rank contributions
    minrank = {}
    for q, j in rank_of.items():
        m = idx.succ[q][li]
        for t in _bits(m):
            if j < minrank.get(t, 1 << 30):
                minrank[t] = j
        rm = idx.rej[q][li]
        ev = j - (j & 1)
        for t in _bits(rm):
            if ev < minrank.get(t, 1 << 30):
                minrank[t] = ev
    if not minrank:
        return _EMPTY
    members = sorted(minrank.items())
    if not _is_tight(members):
        return _BLOCKED
    top = max(r for _, r in members)
    if pinned is not None and minrank.get(pinned) != top:
        # the pinned state never dies and nothing feeds into it, so its
        # rank stays put while everyone else only decreases; a run where
        # it stops carrying the maximum cannot have been pinned at entry
        # and is dropped
        return _BLOCKED
    S2 = 0
    for q, _ in members:
        S2 |= 1 << q
    f2 = tuple(r for _, r in members)
    Opost = idx.post(O, li)
    O2 = 0
    for q, r in members:
        if r == i and (Opost >> q) & 1:
            O2 |= 1 << q
    if O2:
        return (S2, O2, f2, i), False
    i2 = (i + 2) % (top + 1)
    O3 = 0
    for q, r in members:
        if r == i2:
            O3 |= 1 << q
    return (S2, O3, f2, i2), True


def complement_general(A: Automaton, opts: ComplementOptions) -> Automaton:
    t0 = time.monotonic()
    idx = _Indexed(A)
    letters = idx.letters
    L = len(letters)
    pinned = _resolve_pin(A)

    ids = {}
    kinds = []  # per state id: 1 = subset, 2 = ranking, 0 = empty sink
    payloads = []

    def intern(kind, payload):
        key = (kind, payload)
        sid = ids.get(key)
        if sid is None:
            sid = len(kinds)
            if sid >= opts.max_states:
                raise CapacityError(
                    f"state budget of {opts.max_states} exceeded", sid)
            ids[key] = sid
            kinds.append(kind)
            payloads.append(payload)
            worklist.append(sid)
        return sid

    worklist = []
    delta = {}
    gamma = set()
    blocked = 0
    entries = {}  # subset -> the entry rankings that some letter moves

    def entry_rankings(S2):
        """The entry rankings of ``S2`` that not every letter blocks,
        decided when ``S2`` is first reached; the blocked updates of the
        others count then."""
        nonlocal blocked
        if S2 not in entries:
            entries[S2] = []
            for f in _tight_rankings(_bits(S2), opts.odd_entry, pinned):
                entry = (S2, 0, f, 0)
                if all(_rank_update(idx, pinned, entry, li) == _BLOCKED
                       for li in range(L)):
                    blocked += L
                else:
                    entries[S2].append(entry)
        return entries[S2]

    empty_id = None

    def get_empty():
        nonlocal empty_id
        if empty_id is None:
            empty_id = intern(0, ())
        return empty_id

    start = intern(1, 1 << A.initial)
    wi = 0
    while wi < len(worklist):
        sid = worklist[wi]
        wi += 1
        check_time("complement construction")
        kind = kinds[sid]
        payload = payloads[sid]
        if kind == 0:
            for li, a in enumerate(letters):
                delta[(sid, a)] = (sid,)
                gamma.add((sid, a, sid))
            continue
        if kind == 1:
            S = payload
            for li, a in enumerate(letters):
                S2 = idx.post(S, li)
                targets = []
                if S2 == 0:
                    targets.append(get_empty())
                else:
                    targets.append(intern(1, S2))
                    for entry in entry_rankings(S2):
                        targets.append(intern(2, entry))
                delta[(sid, a)] = tuple(sorted(set(targets)))
            continue
        # kind == 2: ranking state (S_mask, O_mask, f_tuple, i)
        for li, a in enumerate(letters):
            got = _rank_update(idx, pinned, payload, li)
            if got == _BLOCKED:
                blocked += 1
            elif got == _EMPTY:
                # all runs died; the empty subset is the accepting sink
                tid = get_empty()
                delta[(sid, a)] = (tid,)
                gamma.add((sid, a, tid))
            else:
                tid = intern(2, got[0])
                delta[(sid, a)] = (tid,)
                if got[1]:
                    gamma.add((sid, a, tid))

    n = len(kinds)
    q2 = {sid for sid in range(n) if kinds[sid] != 1}
    stats = {
        "states": n,
        "transitions": sum(len(v) for v in delta.values()),
        "accepting_transitions": len(gamma),
        "blocked_transitions": blocked,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
    }
    return Automaton("NBA", A.alphabet, n, start, delta, gamma,
                     tags={"final": _final_tag(n, q2), "stats": stats,
                           "construction": "rank"})


def _restrict(A: Automaton, keep: set) -> Automaton:
    """Drop all states outside ``keep`` and renumber densely."""
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    delta = {}
    for (q, a), targets in A.delta.items():
        if q not in keep:
            continue
        ts = tuple(sorted(remap[t] for t in targets if t in keep))
        if ts:
            delta[(remap[q], a)] = ts
    gamma = {(remap[q], a, remap[t]) for (q, a, t) in A.gamma
             if q in keep and t in keep}
    tags = dict(A.tags)
    if "final" in tags:
        _, q2 = _parts_of(A)
        tags["final"] = _final_tag(len(order),
                                   {remap[q] for q in q2 if q in keep})
    tags.pop("stats", None)
    return Automaton(A.kind, A.alphabet, len(order), remap[A.initial],
                     delta, gamma, tags=tags)


def prune_empty(A: Automaton) -> Automaton:
    """Restrict to states from which some accepting lasso exists, then
    unmark every edge whose two ends lie in different strongly connected
    components."""
    live = nonempty_states(A)
    if A.initial not in live:
        return canonical_empty(A.alphabet)
    live &= reachable_states(A)
    B = _restrict(A, live)
    succ = [set() for _ in range(B.n_states)]
    for (q, _), targets in B.delta.items():
        succ[q].update(targets)
    comp, _ = _strongly_connected_components(B.n_states, lambda q: succ[q])
    gamma = {(q, a, t) for (q, a, t) in B.gamma if comp[q] == comp[t]}
    return Automaton(B.kind, B.alphabet, B.n_states, B.initial, B.delta,
                     gamma, tags=B.tags)


def _quotient(A: Automaton, block_of, parts) -> Automaton:
    """Collapse each block to its lowest-id member."""
    reps = {}
    for q in range(A.n_states):
        b = block_of[q]
        if b not in reps or q < reps[b]:
            reps[b] = q
    rep_of = {q: reps[block_of[q]] for q in range(A.n_states)}
    keep = sorted(set(rep_of.values()))
    remap = {old: new for new, old in enumerate(keep)}
    delta = {}
    gamma = set()
    for (q, a), targets in A.delta.items():
        if rep_of[q] != q:
            continue
        src = remap[q]
        ts = sorted({remap[rep_of[t]] for t in targets})
        delta[(src, a)] = tuple(ts)
        for t in targets:
            if (q, a, t) in A.gamma:
                gamma.add((src, a, remap[rep_of[t]]))
    _, q2 = parts
    # a block is in the second phase when any member is
    new_q2 = {remap[rep_of[q]] for q in q2}
    tags = dict(A.tags)
    tags["final"] = _final_tag(len(keep), new_q2)
    tags.pop("stats", None)
    return Automaton(A.kind, A.alphabet, len(keep), remap[rep_of[A.initial]],
                     delta, gamma, tags=tags)


def lump_final(A: Automaton) -> Automaton:
    """Quotient the deterministic second phase by strong bisimulation."""
    q1, q2 = _parts_of(A)
    letters = sorted(A.alphabet.letters(), key=letter_sort_key)
    block_of = {q: (0 if q in q2 else None) for q in range(A.n_states)}
    while True:
        check_time("lumping")
        sigs = {}
        for q in q2:
            sig = []
            for a in letters:
                ts = A.successors(q, a)
                if not ts:
                    sig.append(None)
                else:
                    (t,) = ts
                    sig.append(((q, a, t) in A.gamma,
                                block_of[t] if t in q2 else ("q1", t)))
            sigs[q] = (block_of[q], tuple(sig))
        keys = {}
        new_block = {}
        for q in sorted(q2):
            key = sigs[q]
            if key not in keys:
                keys[key] = len(keys)
            new_block[q] = keys[key]
        if len(keys) == len(set(block_of[q] for q in q2)):
            break
        for q in q2:
            block_of[q] = new_block[q]
    # give phase-1 states singleton blocks so the quotient leaves them alone
    next_b = len(set(block_of[q] for q in q2)) if q2 else 0
    for q in sorted(q1):
        block_of[q] = next_b
        next_b += 1
    return _quotient(A, block_of, (q1, q2))


def _dba_includes(A: Automaton, q1, q2, letters) -> bool:
    """L(q1) <= L(q2) for states of the deterministic accepting phase.

    Inclusion fails exactly when, after deleting q2-accepting edges, some
    cycle reachable from (q1, q2) still carries a q1-accepting edge.  A dead
    q2-run is tracked as the sink ``None``.
    """
    ids = {}
    order = []

    def sid(pair):
        if pair not in ids:
            ids[pair] = len(ids)
            order.append(pair)
        return ids[pair]

    sid((q1, q2))
    succ_cycle = []  # product edges minus q2-accepting ones (cycle candidates)
    acc_edges = []
    i = 0
    while i < len(order):
        p, r = order[i]
        src = ids[(p, r)]
        succ_cycle.append([])
        i += 1
        for a in letters:
            ps = A.successors(p, a)
            if not ps:
                continue
            (p2,) = ps
            if r is None:
                r2 = None
            else:
                rs = A.successors(r, a)
                r2 = rs[0] if rs else None
            dst = sid((p2, r2))
            if r2 is not None and (r, a, r2) in A.gamma:
                continue  # cannot lie on a counterexample cycle, but still explored
            succ_cycle[src].append(dst)
            if (p, a, p2) in A.gamma:
                acc_edges.append((src, dst))
    comp, _ = _strongly_connected_components(
        len(order), lambda x: succ_cycle[x] if x < len(succ_cycle) else [])
    for s, d in acc_edges:
        if comp[s] == comp[d]:
            return False
    return True


def _phase2_fingerprints(A: Automaton, q2, letters):
    """Language invariants of second-phase states.

    Walks every state through a few fixed letter sequences and counts the
    prefixes of each that some accepted word starts with (the run on the
    prefix survives into a state with a nonempty language); equal languages
    always get equal fingerprints.
    """
    states = sorted(q2)
    nonempty = nonempty_states(A)
    fp = {q: [q in nonempty] for q in states}
    seqs = []
    for a in letters:
        seqs.append([a] * (len(states).bit_length() + 2))
    if len(letters) > 1:
        seqs.append([letters[i % len(letters)] for i in range(8)])
    for seq in seqs:
        for q in states:
            cur, count = q, 0
            for a in seq:
                ts = A.successors(cur, a) if cur in nonempty else ()
                if not ts or ts[0] not in nonempty:
                    break
                (cur,) = ts
                count += 1
            fp[q].append(count)
    return {q: tuple(v) for q, v in fp.items()}


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
    q1, q2 = _parts_of(A)
    letters = sorted(A.alphabet.letters(), key=letter_sort_key)
    parent = {q: q for q in q2}

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo

    buckets = {}
    for q, f in _phase2_fingerprints(A, q2, letters).items():
        buckets.setdefault(f, []).append(q)
    for group in buckets.values():
        group.sort()
        for i, qa in enumerate(group):
            check_time("language merging")
            if find(qa) != qa:
                continue
            for qb in group[:i]:
                if find(qb) != qb:
                    continue
                if _dba_includes(A, qa, qb, letters) and _dba_includes(A, qb, qa, letters):
                    union(qa, qb)
                    break
    redirect = {q: find(q) for q in q2}
    delta = {}
    for (q, a), targets in A.delta.items():
        if q in q2:
            delta[(q, a)] = targets
        else:
            delta[(q, a)] = tuple(sorted({redirect.get(t, t)
                                          for t in targets}))
    gamma = {(q, a, t) if q in q2 else (q, a, redirect.get(t, t))
             for (q, a, t) in A.gamma}
    tags = dict(A.tags)
    tags["final"] = _final_tag(A.n_states, q2)
    tags.pop("stats", None)
    initial = redirect.get(A.initial, A.initial)
    B = Automaton(A.kind, A.alphabet, A.n_states, initial, delta, gamma,
                  tags=tags)
    return prune_unreachable(B)


def prune_unreachable(A: Automaton) -> Automaton:
    return _restrict(A, reachable_states(A))


def drop_dominated_jumps(A: Automaton) -> Automaton:
    """Delete each jump into the second phase to ``t`` when a sibling jump
    (same source, same letter) goes to ``u`` with L(t) <= L(u), and
    L(u) > L(t) or ``u < t``; then prune the unreachable states."""
    q1, q2 = _parts_of(A)
    letters = sorted(A.alphabet.letters(), key=letter_sort_key)
    delta, gamma = {}, set(A.gamma)
    for (q, a), targets in A.delta.items():
        jumps = [t for t in targets if t in q2] if q in q1 else []
        dropped = set()
        for t in jumps:
            for u in jumps:
                if u == t or not _dba_includes(A, t, u, letters):
                    continue
                if u < t or not _dba_includes(A, u, t, letters):
                    dropped.add(t)
                    break
        delta[(q, a)] = tuple(t for t in targets if t not in dropped)
        gamma -= {(q, a, t) for t in dropped}
    B = Automaton(A.kind, A.alphabet, A.n_states, A.initial, delta, gamma,
                  tags=A.tags)
    return prune_unreachable(B)


def lump_all(A: Automaton) -> Automaton:
    """Strong bisimulation quotient over the whole automaton."""
    q1, q2 = _parts_of(A)
    letters = sorted(A.alphabet.letters(), key=letter_sort_key)
    block_of = [0] * A.n_states
    n_blocks = 1
    while True:
        check_time("lumping")
        keys = {}
        new_block = [0] * A.n_states
        for q in range(A.n_states):
            sig = []
            for a in letters:
                moves = frozenset((block_of[t], (q, a, t) in A.gamma)
                                  for t in A.successors(q, a))
                sig.append(moves)
            key = (block_of[q], tuple(sig))
            if key not in keys:
                keys[key] = len(keys)
            new_block[q] = keys[key]
        if len(keys) == n_blocks:
            break
        block_of = new_block
        n_blocks = len(keys)
    return _quotient(A, block_of, (q1, q2))


def product_with_nba(M: Mdp, C: Automaton) -> Mdp:
    """MDP times automaton, one product state and one row at a time: the
    rows of (m, q) are m's actions in order, each paired with the automaton
    successors on m's letter in order, or the single ``STUCK`` self-loop
    when there is none; new pairs are numbered breadth-first."""
    if M.labels is None:
        raise ValueError("the MDP must be labeled")
    if M.alphabet is not None and C.alphabet.ap != M.alphabet.ap:
        raise ValueError("alphabet mismatch between MDP and automaton")
    found = Explorer((M.initial, C.initial), what="product construction")
    intern = found.intern
    actions, trans, rewards = {}, {}, {}
    acc = set()
    for src, (s, q) in found:
        letter = M.labels[s]
        acts = []
        for a in M.actions[s]:
            for q2 in C.successors(q, letter):
                pa = (a, q2)
                acts.append(pa)
                dist = []
                for t, p in M.trans[(s, a)]:
                    dst = intern((t, q2))
                    dist.append((dst, p))
                    r = M.reward(s, a, t)
                    if r:
                        rewards[(src, pa, dst)] = r
                trans[(src, pa)] = tuple(dist)
                if (q, letter, q2) in C.gamma:
                    acc.add((src, pa))
        if not acts:
            acts.append(STUCK)
            trans[(src, STUCK)] = ((src, 1.0),)
        actions[src] = tuple(acts)
    pairs = found.keys
    return Mdp(len(pairs), 0, actions, trans, alphabet=M.alphabet,
               labels=tuple(M.labels[s] for s, _ in pairs), rewards=rewards,
               pairs=pairs, acc=acc)


# --- HOA, one dict entry at a time --------------------------------------------


def canonical_order(A: Automaton) -> list:
    """BFS renumbering from the initial state, letters in canonical order.

    Unreachable states follow in original id order.
    """
    if A.is_schema:
        return list(range(A.n_states))
    letters = A.alphabet.letters()
    found = Explorer(A.initial, what="renumbering")
    for _, q in found:
        for a in letters:
            for t in A.successors(q, a):
                found.intern(t)
    return found.keys + [q for q in range(A.n_states) if q not in found.ids]


def renumber(A: Automaton, order) -> Automaton:
    """Relabel states so that ``order[i]`` becomes state ``i``."""
    old_to_new = {old: new for new, old in enumerate(order)}
    delta = {}
    for (q, a), targets in A.delta.items():
        delta[(old_to_new[q], a)] = tuple(sorted(old_to_new[t] for t in targets))
    gamma = {(old_to_new[q], a, old_to_new[t]) for (q, a, t) in A.gamma}
    finals = {old_to_new[q] for q in A.final_states}
    initial = None if A.initial is None else old_to_new[A.initial]
    tags = dict(A.tags)
    if "collection_initial" in tags:
        tags["collection_initial"] = old_to_new[tags["collection_initial"]]
    if "final" in tags:
        tags["final"] = tags["final"][np.asarray(order, dtype=np.int64)]
    return Automaton(A.kind, A.alphabet, A.n_states, initial, delta, gamma,
                     finals, tags)


def parse_hoa(text: str) -> Automaton:
    """HOA text to an automaton whose ``delta`` collects one edge at a
    time."""
    tz = hoa._Scanner(text)
    n_states = None
    start = 0
    ap_names = []
    acceptance = None
    acc_name = None
    vocab_header = None
    subset_header = None
    collection_initial = None
    tok = tz.next()
    if tok != "HOA:":
        raise tz.error("missing HOA: header")
    version = tz.next()
    if version != "v1":
        raise tz.error(f"unsupported HOA version {version!r}")
    while True:
        tok = tz.peek()
        if tok is None:
            raise tz.error("missing --BODY--")
        if tok == "--BODY--":
            tz.next()
            break
        tok = tz.next()
        if tok == "States:":
            n_states = tz.integer()
        elif tok == "Start:":
            start = tz.integer()
        elif tok == "AP:":
            n_ap = tz.integer()
            ap_names = []
            for _ in range(n_ap):
                name = tz.next()
                if not (name.startswith('"') and name.endswith('"')):
                    raise tz.error("AP names must be quoted")
                ap_names.append(name[1:-1])
        elif tok == "Acceptance:":
            n_sets = tz.integer()
            acceptance = (n_sets, "".join(hoa._header_values(tz)))
        elif tok == "acc-name:":
            acc_name = tz.next()
        elif tok == "promise-vocab:":
            vocab_header = tz.json_line()
        elif tok == "letter-subset:":
            subset_header = tz.json_line()
        elif tok == "collection-initial:":
            collection_initial = tz.integer()
        elif tok.endswith(":"):
            hoa._header_values(tz)
        else:
            raise tz.error(f"unexpected header token {tok!r}")
    if len(ap_names) > hoa.MAX_AP:
        raise hoa.HoaError(f"{len(ap_names)} atomic propositions exceed "
                           f"the cap of {hoa.MAX_AP}")
    if acceptance is None:
        raise hoa.HoaError("missing Acceptance: header")
    n_sets, formula = acceptance
    formula = formula.replace(" ", "")
    if n_sets == 1 and formula == "Inf(0)":
        kind = "NBA"
    elif n_sets == 1 and formula == "Fin(0)":
        kind = "UCA"
    elif n_sets == 0 and formula in ("t",):
        kind = "NBA_ALL"  # every run accepting
    else:
        raise hoa.HoaError(f"unsupported acceptance condition {formula!r} "
                           f"with {n_sets} sets")
    if acc_name == "co-Buchi" and kind == "NBA":
        raise hoa.HoaError("acc-name co-Buchi conflicts with Inf acceptance")

    promises = None
    n_prm_bits = 0
    if vocab_header is not None:
        ap_names, promises, n_prm_bits = hoa._decode_promise_aps(
            tz, ap_names, vocab_header)
    n_base_ap = len(ap_names)
    n_all_ap = n_base_ap + n_prm_bits

    def decode_letters(raw_letters):
        """Map raw bit patterns over all APs to alphabet letters."""
        if promises is None:
            return list(raw_letters)
        out = []
        base_mask = (1 << n_base_ap) - 1
        for raw in raw_letters:
            base = raw & base_mask
            idx = raw >> n_base_ap
            if idx >= len(promises):
                continue  # bit patterns beyond the vocabulary are unused
            out.append((base, promises[idx]))
        return out

    subset = None
    if subset_header is not None:
        raw, _ = subset_header
        if not (isinstance(raw, list)
                and all(type(x) is int and x >= 0 for x in raw)):
            raise hoa.HoaError("letter-subset must be a list of bit patterns")
        subset = set(decode_letters(raw))
        if len(subset) != len(set(raw)):
            raise hoa.HoaError("letter-subset names a bit pattern beyond "
                               "the promise vocabulary")
    try:
        alphabet = Alphabet(tuple(ap_names), promises, subset)
    except ValueError as exc:
        raise hoa.HoaError(str(exc)) from None

    delta = {}
    gamma = set()
    seen_states = set()
    current = None
    state_acc = {}

    def add_edge(src, letters, target, marked):
        for a in letters:
            if subset is not None and a not in subset:
                continue
            key = (src, a)
            cur = delta.get(key, ())
            if target not in cur:
                delta[key] = cur + (target,)
            if marked:
                gamma.add((src, a, target))

    while True:
        tok = tz.peek()
        if tok is None or tok == "--END--":
            if tok == "--END--":
                tz.next()
            break
        tok = tz.next()
        if tok == "State:":
            label = None
            if tz.peek() == "[":
                tz.next()
                label = hoa._parse_label_expr(tz, n_all_ap)
                tz.expect("]")
            current = tz.integer()
            seen_states.add(current)
            if tz.peek() is not None and tz.peek().startswith('"'):
                tz.next()
            state_acc[current] = hoa._marked(tz)
            if label is not None:
                raise tz.error("state labels are not supported")
        elif tok == "[":
            if current is None:
                raise tz.error("edge before any State:")
            letters = hoa._parse_label_expr(tz, n_all_ap)
            tz.expect("]")
            target = tz.integer()
            marked = hoa._marked(tz) or state_acc.get(current, False)
            add_edge(current, decode_letters(letters), target, marked)
        else:
            raise tz.error(f"unexpected body token {tok!r}")

    if n_states is None:
        n_states = (max(seen_states) + 1) if seen_states else 1
    elif seen_states and max(seen_states) >= n_states:
        raise hoa.HoaError("state id exceeds declared States: count")
    if kind == "NBA_ALL":
        kind = "NBA"
        gamma = set((q, a, t) for (q, a), ts in delta.items() for t in ts)
    tags = {}
    if collection_initial is not None:
        if not 0 <= collection_initial < n_states:
            raise hoa.HoaError("collection-initial names no state")
        tags["collection_initial"] = collection_initial
    return Automaton(kind, alphabet, n_states, start, delta, gamma, tags=tags)


def emit_hoa(A: Automaton, name=None) -> str:
    """Canonical HOA v1 text, written from ``renumber(A, canonical_order(A))``
    one ``successors`` call at a time."""
    if A.kind not in ("NBA", "UCA"):
        raise ValueError(f"cannot emit automata of kind {A.kind}")
    if A.is_schema:
        raise ValueError("cannot emit a schema (no initial state)")
    A = renumber(A, canonical_order(A))
    alphabet = A.alphabet
    vocab, codes = hoa._letter_codes(alphabet)
    ap_list = list(alphabet.ap)
    if alphabet.promises is not None:
        ap_list += [f"_prm{i}" for i in range(hoa._prm_width(len(vocab)))]
    n_all = len(ap_list)
    lines = ["HOA: v1"]
    if name:
        lines.append(f'name: "{name}"')
    lines.append(f"States: {A.n_states}")
    lines.append(f"Start: {A.initial}")
    lines.append("AP: {} {}".format(len(ap_list), " ".join(f'"{p}"' for p in ap_list)))
    if A.kind == "NBA":
        lines.append("acc-name: Buchi")
        lines.append("Acceptance: 1 Inf(0)")
    else:
        lines.append("acc-name: co-Buchi")
        lines.append("Acceptance: 1 Fin(0)")
    if alphabet.promises is not None:
        lines.append(f"promise-vocab: {hoa._vocab_to_json(vocab)}")
    if alphabet.subset is not None:
        subset = sorted(codes.values())
        lines.append(f"letter-subset: {json.dumps(subset)}")
    if "collection_initial" in A.tags:
        lines.append(f"collection-initial: {A.tags['collection_initial']}")
    lines.append("--BODY--")
    for q in range(A.n_states):
        lines.append(f"State: {q}")
        edges = []
        for a, bits in codes.items():
            for t in A.successors(q, a):
                marked = (q, a, t) in A.gamma
                edges.append((bits, t, marked))
        for bits, t, marked in sorted(edges):
            suffix = " {0}" if marked else ""
            lines.append(f"[{hoa._expr_for_bits(bits, n_all)}] {t}{suffix}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
