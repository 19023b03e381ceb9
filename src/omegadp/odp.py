"""Decision processes with regular lookbacks and omega-regular lookaheads.

An ODP (``Odp``) is an :class:`~omegadp.mdp.Mdp` with state labels, a
lookback schema and a lookahead schema, whose actions are triples (guard,
name, promise): the guard is a state of a lookback DFA schema and enables the
action exactly when the label prefix read so far, including the current
state's label, is accepted from that state; the promise is a state of a
lookahead UCA schema that the suffix emitted from the action's target onward
must satisfy.  ``None`` encodes the trivial guard or promise.

Solving proceeds in three steps: lookbacks are eliminated by tracking the
reachable guard-automaton states along the prefix, promises are eliminated by
emitting them as part of the letters and checking them all at once with the
complement of a collection automaton, and the resulting product is handed to
the lexicographic solver.  Each step returns an ``Mdp`` again, whose
``pairs[i]`` says what its state ``i`` stands for in the step's input: an
(ODP state, guard tracker) pair after ``remove_lookback``, an (ODP state,
pending promise) pair after ``remove_lookahead``, an (MDP state, automaton
state) pair in the product.  The product strategy is translated back into a
strategy over the original process along these pairs.  Both compilations
read their input's rows and emit rows (``MdpArrays.lifted``): each output
row plays a row of the input, with its probabilities, rewards and name,
so no step from the process to the product builds the dict views of a
model.  The solvers read only a model's rows, so a process without guards
or promises, such as ``remove_lookback`` makes of a promise-free one, goes
to them as it is.  The JSON form is the MDP form plus guards, promises and
schemas (``mdp.model_to_doc``).
"""

from __future__ import annotations

import functools
import json

from .automata import TOP, Alphabet, Automaton, Explorer, LassoWord, \
    instantiate, label_from_names, label_to_names, lasso_member_uca
from .collect import build_collection
from .complement import complement_uca
from .mdp import Mdp, doc_ap, lexicographic_solve, model_from_doc, \
    model_to_doc, product_with_nba
from .reduction import reduce_nba


class Odp(Mdp):
    """Finite decision process with guarded, promising actions.

    An :class:`Mdp` whose actions are (guard, name, promise) triples and
    whose states are labeled.  ``lookback`` is a DFA schema with a
    final-state set, ``lookahead`` a UCA schema; either may be ``None`` when
    the process never uses it.  Without ``labels`` every state emits the
    empty letter, and without ``alphabet`` there are no propositions.
    """

    def __init__(self, n_states, initial, actions, trans, alphabet, labels,
                 lookback=None, lookahead=None, rewards=None, pairs=None):
        alphabet = alphabet if alphabet is not None else Alphabet(())
        super().__init__(n_states, initial, actions, trans, alphabet,
                         labels if labels is not None else (0,) * n_states,
                         rewards, pairs)
        self.lookback, self.lookahead = lookback, lookahead
        for schema, kind in ((lookback, "DFA"), (lookahead, "UCA")):
            if schema is None:
                continue
            if schema.kind != kind or not schema.is_schema:
                raise ValueError(f"expected a {kind} schema")
            if schema.alphabet.ap != alphabet.ap:
                raise ValueError("schema alphabet mismatch")
        if lookback is not None and not lookback.final_states:
            raise ValueError("lookback schema has no final states")
        for beta, _, alpha in self.arrays.action:
            for x, schema, what in ((beta, lookback, "guard"),
                                    (alpha, lookahead, "promise")):
                if x is not None and not (
                        type(x) is int and schema is not None
                        and 0 <= x < schema.n_states):
                    raise ValueError(f"bad {what} state {x!r}")


def _tracker_step(B: Automaton, tracker, letter):
    return tuple(frozenset(t for q in tracker[p]
                           for t in B.successors(q, letter))
                 for p in range(B.n_states))


def remove_lookback(D: Odp, max_trackers: int = 100_000) -> Odp:
    """Compile the guards away by annotating states with guard trackers.

    A tracker records, for every lookback schema state, the set of states the
    schema can reach on the label prefix read so far (the current state's
    label included); an action is enabled exactly when the tracker of its
    guard state intersects the final set.  A reachable state where no action
    is enabled is a modeling error and raises ValueError.  The result's rows
    are the enabled rows of ``D``, in their order.
    """
    if D.lookback is None:
        return D
    B = D.lookback
    final = B.final_states
    A, action, label = D.arrays, D.arrays.action, D.labels
    first, ptr, targets = A.first.tolist(), A.P.indptr.tolist(), \
        A.P.indices.tolist()
    # the (tracker, label) pairs repeat across the stored transitions
    track = functools.cache(functools.partial(_tracker_step, B))
    t0 = track(tuple(frozenset((p,)) for p in range(B.n_states)),
               label[D.initial])
    found = Explorer((D.initial, t0), budget=max_trackers,
                     what="guard compilation")
    ends, rows, dst = [0], [], []
    for _, (s, tracker) in found:
        for k in range(first[s], first[s + 1]):
            beta = action[k][0]
            if beta is not None and not (tracker[beta] & final):
                continue
            rows.append(k)
            dst.extend(found.intern((t, track(tracker, label[t])))
                       for t in targets[ptr[k]:ptr[k + 1]])
        if len(rows) == ends[-1]:
            raise ValueError(
                f"state {s} is deadlocked: no guard holds on some prefix")
        ends.append(len(rows))
    M = Odp.from_arrays(A.lifted(ends, rows, dst, len(found)), 0, D.alphabet,
                        [label[s] for s, _ in found.keys], pairs=found.keys)
    M.lookback, M.lookahead = None, D.lookahead
    return M


def _trivial_lookahead(ap) -> Automaton:
    base = Alphabet(ap)
    delta = {(0, a): (0,) for a in base.letters()}
    return Automaton("UCA", base, 1, None, delta, ())


def remove_lookahead(D: Odp):
    """Turn promises into letters; returns (MDP, checking NBA).

    The process must have trivial lookback.  Each step emits the state label
    paired with the promise that entered the state: state ``i`` of the MDP
    stands for ``pairs[i]``, an (ODP state, pending promise) pair, where the
    pending promise is the one made by the action that entered the state
    (the trivial promise at the initial state), so the letter emitted at a
    state covers exactly the suffix the promise speaks about.  The collection
    automaton of the lookahead schema accepts exactly the traces whose every
    promise holds, and its complement (a good-for-MDPs NBA for the same
    language, with entry rankings pinned at the collecting state, then
    reduced) is returned for the downstream product.  Both are built over
    the letters the process emits and no others: the product never reads
    another letter, and every letter left out shrinks the complement.  Each
    call builds its own NBA.
    """
    if D.lookback is not None:
        raise ValueError("remove the lookbacks first")
    A = D.arrays
    first, ptr, targets = A.first.tolist(), A.P.indptr.tolist(), \
        A.P.indices.tolist()
    promises = [TOP if act[2] is None else act[2] for act in A.action]
    found = Explorer((D.initial, TOP), what="promise compilation")
    ends, rows, dst, labels = [0], [], [], []
    for _, (s, pending) in found:
        labels.append((D.labels[s], pending))
        for k in range(first[s], first[s + 1]):
            alpha = promises[k]
            dst.extend(found.intern((t, alpha))
                       for t in targets[ptr[k]:ptr[k + 1]])
        rows.extend(range(first[s], first[s + 1]))
        ends.append(len(rows))
    schema = D.lookahead if D.lookahead is not None \
        else _trivial_lookahead(D.alphabet.ap)
    N = reduce_nba(complement_uca(build_collection(schema, frozenset(labels))))
    M = Mdp.from_arrays(A.lifted(ends, rows, dst, len(found)), 0,
                        alphabet=N.alphabet, labels=labels, pairs=found.keys)
    return M, N


class OdpStrategy:
    """Product strategy translated back to the original decision process.

    Memory is a (product state, step count) pair; the step count saturates
    at the switching point.  ``choose`` yields the ODP action triple to play
    and ``advance`` moves the memory deterministically given the successor
    ODP state.
    """

    def __init__(self, product, inner, odp_state_of):
        self.product = product
        self.inner = inner
        self.odp_state_of = tuple(odp_state_of)

    def initial_memory(self):
        return self.inner.start(self.product.initial)

    def choose(self, memory):
        return self.inner.action(memory)[0]

    def advance(self, memory, next_state):
        # the played row of the product's arrays: no action is named
        A = self.product.arrays
        k = self.inner.row(memory)
        for dst in A.P.indices[A.P.indptr[k]:A.P.indptr[k + 1]].tolist():
            if self.odp_state_of[dst] == next_state:
                return self.inner.step(memory, dst)
        raise ValueError(f"state {next_state} is not a successor under "
                         f"{A.names([k])[0]}")


def compile_product(D: Odp):
    """The product that solving ``D`` works on, and its states' ODP states."""
    compiled = remove_lookback(D)
    M, N = remove_lookahead(compiled)
    P = product_with_nba(M, N)
    odp_state_of = [M.pairs[m_id][0] for m_id, _ in P.pairs]
    if compiled.pairs is not None:
        odp_state_of = [compiled.pairs[s][0] for s in odp_state_of]
    return P, odp_state_of


def solve_odp(D: Odp, lam, eps):
    """Optimal discounted value among almost-surely promise-keeping
    strategies, with an eps-optimal strategy over the original process.

    Raises NoValidStrategy when no strategy keeps all promises almost
    surely, and CapacityError when a compilation budget is exceeded.
    """
    P, odp_state_of = compile_product(D)
    _, value, sigma = lexicographic_solve(P, lam, eps)
    return value, OdpStrategy(P, sigma, odp_state_of)


def validate_run(D: Odp, states, actions, loop):
    """Check a lasso-shaped run: states[loop:] repeats after states[-1].

    Every guard must accept its prefix (checked by replaying the guard
    tracker around the loop until it cycles) and every promise must accept
    the label suffix from its action's target onward.  Raises ValueError on
    a malformed run, returns the validity verdict otherwise.
    """
    n = len(states)
    if n == 0 or len(actions) != n or not (0 <= loop < n):
        raise ValueError("malformed lasso run")
    for j in range(n):
        s, act = states[j], actions[j]
        if act not in D.actions.get(s, ()):
            raise ValueError(f"action {act} not available at state {s}")
        target = states[j + 1] if j + 1 < n else states[loop]
        if not any(t == target and p > 0 for t, p in D.trans[(s, act)]):
            raise ValueError(f"impossible step ({s}, {act}) -> {target}")
    labels = [D.labels[s] for s in states]

    if D.lookback is not None:
        B = D.lookback
        final = B.final_states
        tracker = _tracker_step(
            B, tuple(frozenset((p,)) for p in range(B.n_states)), labels[0])
        j = 0
        seen = set()
        while (j, tracker) not in seen:
            seen.add((j, tracker))
            beta = actions[j][0]
            if beta is not None and not (tracker[beta] & final):
                return False
            nxt = j + 1 if j + 1 < n else loop
            tracker = _tracker_step(B, tracker, labels[nxt])
            j = nxt

    for j in range(n):
        alpha = actions[j][2]
        if alpha is None:
            continue
        start = j + 1 if j + 1 < n else loop
        w = LassoWord(tuple(labels[start:]), tuple(labels[loop:]))
        if not lasso_member_uca(instantiate(D.lookahead, alpha), w):
            return False
    return True


def _schema_to_doc(A: Automaton, ap):
    entries = []
    for (q, letter), targets in sorted(A.delta.items()):
        marked = [t for t in targets if (q, letter, t) in A.gamma]
        entry = {"from": q, "letter": label_to_names(letter, ap),
                 "to": list(targets)}
        if marked:
            entry["marked"] = marked
        entries.append(entry)
    doc = {"kind": A.kind, "states": A.n_states, "transitions": entries}
    if A.final_states:
        doc["final"] = sorted(A.final_states)
    return doc


def _schema_from_doc(doc, ap):
    base = Alphabet(tuple(ap))
    delta, gamma = {}, set()
    for entry in doc["transitions"]:
        letter = label_from_names(entry["letter"], ap)
        q = entry["from"]
        delta[(q, letter)] = tuple(entry["to"])
        for t in entry.get("marked", ()):
            gamma.add((q, letter, t))
    return Automaton(doc["kind"], base, doc["states"], None, delta, gamma,
                     final_states=doc.get("final", ()))


def _odp_action(act):
    beta, name, alpha = act
    return {"name": name, "guard": beta, "promise": alpha}


def odp_to_json(D: Odp) -> str:
    """The process as JSON: ``mdp.model_to_doc`` states the format."""
    doc = model_to_doc(D, _odp_action)
    for key in ("lookback", "lookahead"):
        schema = getattr(D, key)
        if schema is not None:
            doc[key] = _schema_to_doc(schema, doc["ap"])
    return json.dumps(doc, indent=2)


def odp_from_json(text: str) -> Odp:
    doc = json.loads(text)
    ap = doc_ap(doc)
    schemas = {key: _schema_from_doc(doc[key], ap)
               for key in ("lookback", "lookahead") if key in doc}
    def state(entry, key):
        x = entry.get(key)
        if x is not None and type(x) is not int:
            raise ValueError(f"{key} {x!r} is not a schema state")
        return x

    return model_from_doc(
        doc, lambda entry: (state(entry, "guard"), entry["name"],
                            state(entry, "promise")), Odp, **schemas)
