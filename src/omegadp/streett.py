"""History-tree determinization of universal co-Buchi automata.

A history tree abstracts the possible run prefixes of an automaton on an
input word: every node is labeled with a nonempty state set, each label is a
proper superset of the union of the children's labels, and sibling labels are
disjoint.  Reading a letter transforms the tree in four steps (spawn,
de-duplicate, remove and collapse, compress), and the per-step stability and
collapse annotations drive a deterministic Streett acceptance condition: a
word is accepted by the UCA exactly when every node name is only finitely
often collapsing or infinitely often unstable.

This module is deliberately independent from the rank-based construction so
it can serve as ground truth for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import Automaton, Explorer


def _validate_tree(tree):
    """Check the three structural invariants; raises on violation."""
    nodes = dict(tree)
    if len(nodes) != len(tree):
        raise ValueError("duplicate node names")
    for name, label in nodes.items():
        if not label:
            raise ValueError(f"empty label at {name}")
        for k in range(len(name)):
            if name[:k] not in nodes:
                raise ValueError(f"missing ancestor of {name}")
        if name and name[:-1] + (name[-1] - 1,) not in nodes and name[-1] > 0:
            raise ValueError(f"missing older sibling of {name}")
    for name, label in nodes.items():
        children = [n for n in nodes if n[:-1] == name and len(n) == len(name) + 1]
        union = set()
        for c in children:
            if union & nodes[c]:
                raise ValueError(f"overlapping children of {name}")
            union |= nodes[c]
        if not union < label:
            raise ValueError(f"children do not refine {name} properly")


def initial_tree(A: Automaton):
    """The one-node tree hosting the initial state at the root."""
    return (((), frozenset((A.initial,))),)


def sigma_successor(tree, A: Automaton, letter):
    """Apply one input letter to a history tree.

    Returns the successor tree together with per-name annotations: the names
    that stayed stable, the stable names that collapsed, the names freshly
    introduced, and the names that disappeared.
    """
    nodes = dict(tree)
    degree = {}
    for name in nodes:
        if name:
            parent = name[:-1]
            degree[parent] = max(degree.get(parent, 0), name[-1] + 1)

    # step 1: move every label along the letter and spawn one child per node
    # holding the states reached through marked transitions
    spawned_l = {}
    for name in sorted(nodes):
        succ, marked = set(), set()
        for q in nodes[name]:
            for t in A.successors(q, letter):
                succ.add(t)
                if (q, letter, t) in A.gamma:
                    marked.add(t)
        spawned_l[name] = succ
        spawned_l[name + (degree.get(name, 0),)] = marked

    # step 2: a state belongs to the oldest sibling that can host it
    l2 = {}
    for name in sorted(spawned_l):
        label = set(spawned_l[name])
        if name:
            parent = name[:-1]
            label &= l2[parent]
            for j in range(name[-1]):
                sib = parent + (j,)
                if sib in l2:
                    label -= l2[sib]
        l2[name] = label

    # step 3: drop empty nodes; a node whose label is exactly covered by its
    # children loses all descendants (it "collapses")
    partitioned = set()
    for name, label in l2.items():
        if not label:
            continue
        union = set()
        for other, olabel in l2.items():
            if len(other) == len(name) + 1 and other[:-1] == name:
                union |= olabel
        if union == label:
            partitioned.add(name)
    survivors = []
    for name in sorted(l2):
        if not l2[name]:
            continue
        if any(name[:k] in partitioned for k in range(len(name))):
            continue
        survivors.append(name)

    # step 4: compress to an order-closed tree; renamed nodes are exactly the
    # unstable ones
    alive = set(survivors)
    comp = {}
    for name in survivors:
        if not name:
            comp[name] = ()
            continue
        parent = name[:-1]
        j = sum(1 for k in range(name[-1]) if parent + (k,) in alive)
        comp[name] = comp[parent] + (j,)

    stable = {name for name in survivors if comp[name] == name}
    collapsing = {name for name in stable if name in partitioned}
    new_tree = tuple(sorted((comp[name], frozenset(l2[name]))
                            for name in survivors))
    new_names = {name for name, _ in new_tree}
    flags = {
        "stable": stable,
        "collapsing": collapsing,
        "spawned": new_names - set(nodes),
        "removed": set(nodes) - new_names,
    }
    return new_tree, flags


@dataclass
class StreettDsa:
    """Deterministic automaton whose states are history trees.

    Acceptance: for every tracked node name, the run takes collapsing
    transitions of that name finitely often or unstable ones infinitely
    often.  Only names that ever collapse carry a pair; all other names are
    unconstrained.
    """

    alphabet: object
    n_states: int
    initial: int
    delta: dict
    pairs: dict = field(default_factory=dict)
    trees: list = field(default_factory=list)


def determinize_uca(A: Automaton, max_states: int = 200_000) -> StreettDsa:
    """Build the reachable Streett automaton from the initial history tree."""
    if A.kind != "UCA":
        raise ValueError("determinization expects a UCA")
    if A.is_schema:
        raise ValueError("instantiate the schema first")
    letters = A.alphabet.letters()
    found = Explorer(initial_tree(A), max_states, "determinization")
    delta, annotations = {}, {}
    for src, tree in found:
        for a in letters:
            succ, flags = sigma_successor(tree, A, a)
            delta[(src, a)] = found.intern(succ)
            annotations[(src, a)] = flags

    pairs = {}
    collapsers = set()
    for flags in annotations.values():
        collapsers |= flags["collapsing"]
    for name in sorted(collapsers):
        coll = {t for t, flags in annotations.items()
                if name in flags["collapsing"]}
        unst = {t for t, flags in annotations.items()
                if name not in flags["stable"]}
        pairs[name] = (coll, unst)
    return StreettDsa(A.alphabet, len(found), 0, delta, pairs, found.keys)


def lasso_member_dsa(D: StreettDsa, w) -> bool:
    """Run the deterministic lasso and check every Streett pair on its loop."""
    s = D.initial
    for a in w.prefix:
        s = D.delta[(s, a)]
    seen = {}
    anchors = []
    while s not in seen:
        seen[s] = len(anchors)
        anchors.append(s)
        for a in w.cycle:
            s = D.delta[(s, a)]
    loop = set()
    cur = anchors[seen[s]]
    for _ in range(len(anchors) - seen[s]):
        for a in w.cycle:
            loop.add((cur, a))
            cur = D.delta[(cur, a)]
    for coll, unst in D.pairs.values():
        if loop & coll and not loop & unst:
            return False
    return True


def streett_mdp_max_prob(M, D: StreettDsa):
    """Maximum probability that an MDP trace satisfies the Streett DSA.

    Builds the (deterministic) product, finds its maximal end components,
    and decides acceptance of each by recursively deleting the states whose
    automaton transition collapses a violated pair and re-decomposing.  The
    value is the maximum probability of reaching an accepting component.
    """
    from .mdp import Mdp, max_reach_prob, mec_decomposition
    if M.labels is None:
        raise ValueError("the MDP must be labeled")
    if M.alphabet is not None and D.alphabet.ap != M.alphabet.ap:
        raise ValueError("alphabet mismatch between MDP and automaton")
    A = M.arrays
    first, ptr, targets = A.first.tolist(), A.P.indptr.tolist(), \
        A.P.indices.tolist()
    found = Explorer((M.initial, D.initial), what="Streett product")
    ends, rows, dst = [0], [], []
    for _, (s, d) in found:
        d2 = D.delta[(d, M.labels[s])]
        # a state's rows and their stored transitions lie side by side
        dst.extend(found.intern((t, d2))
                   for t in targets[ptr[first[s]]:ptr[first[s + 1]]])
        rows.extend(range(first[s], first[s + 1]))
        ends.append(len(rows))
    product = Mdp.from_arrays(A.lifted(ends, rows, dst, len(found)), 0)
    # the automaton transition taken from a product state is fixed
    dsa_of = [(d, M.labels[s]) for s, d in found.keys]
    streett = list(D.pairs.values())

    def accepting(states):
        taken = {dsa_of[x] for x in states}
        violated = [(coll, unst) for coll, unst in streett
                    if taken & coll and not taken & unst]
        if not violated:
            return True
        bad = set()
        for coll, _ in violated:
            bad |= coll
        keep = {x for x in states if dsa_of[x] not in bad}
        for sub, _ in mec_decomposition(product, within=keep):
            if accepting(sub):
                return True
        return False

    goal = set()
    for states, _ in mec_decomposition(product):
        if accepting(states):
            goal |= states
    values, _ = max_reach_prob(product, goal)
    return values[0], goal
