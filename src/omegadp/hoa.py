"""Hanoi Omega-Automata (HOA v1) parsing and emission.

Only Buchi and co-Buchi acceptance are supported on the wire, with either
transition-based or state-based marks (state-based input is converted by
marking all outgoing transitions of accepting states).  Edge labels are
boolean expressions over AP indices (``!``, ``&``, ``|``, ``t``, ``f``,
parentheses) and are expanded to explicit letters at parse time.

Both directions work on the edge arrays (``Automaton.edges``) and build no
``delta``/``gamma`` dicts: ``parse_hoa`` makes its automaton with
``from_edges``, marking a repeated edge when any copy is marked, and
``emit_hoa`` numbers the states breadth-first over ``A.edges``.

Promise alphabets are encoded with auxiliary atomic propositions named
``_prm0``, ``_prm1``, ... holding the index of the promise in the declared
vocabulary in binary (least significant bit first), plus a ``promise-vocab:``
header that records the vocabulary so the round trip is exact.  An alphabet
restricted to a letter subset adds a ``letter-subset:`` header listing the
bit pattern of each of its letters; edge labels then stand for the letters of
the subset they cover.  A collection automaton's fresh initial state (tag
``collection_initial``, which the complement pins to the maximal rank) is
written as a ``collection-initial:`` header.

The scanner skips blanks and ``/* comments */`` and reads a token as a quoted
string, one of ``[]{}()!&|``, or a run of any other characters up to a blank
or a ``/*``, so a comment may stand between any two tokens.  Every error
found at a place in the text is a ``HoaError`` naming its line and column:
a malformed number, and a ``Start:`` or a state id beyond the ``States:``
count, included.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .automata import TOP, Alphabet, Automaton, Edges, Explorer, \
    promise_sort_key

MAX_AP = 16


class HoaError(ValueError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


_BLANK = re.compile(r"(?:[ \t\r\n]+|/\*.*?\*/)*", re.S)
_TOKEN = re.compile(
    r'"[^"]*"|[\[\]{}()!&|]|(?:[^\[\]{}()!&|" \t\r\n/]+|/(?!\*))+')


class _Scanner:
    """The tokens of a HOA text, read from ``pos`` on.

    The last token peeked is kept with its start, so peeking and then
    taking it matches it once."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.peeked = (-1, None)  # start and text of the last token peeked

    def error(self, message, pos=None):
        """A HoaError located at ``pos``, by default the scanner's."""
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        return HoaError(message, line, pos - self.text.rfind("\n", 0, pos))

    def peek(self):
        start, tok = self.peeked
        if start == self.pos:
            return tok
        self.pos = _BLANK.match(self.text, self.pos).end()
        if self.text.startswith("/*", self.pos):
            raise self.error("unterminated comment")
        if self.pos == len(self.text):
            tok = None
        else:
            match = _TOKEN.match(self.text, self.pos)
            if match is None:
                raise self.error("unterminated string")
            tok = match.group()
        self.peeked = (self.pos, tok)
        return tok

    def next(self):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        self.pos += len(tok)
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise self.error(f"expected {tok!r}, got {got!r}")

    def integer(self):
        """A nonnegative decimal number."""
        tok = self.next()
        if not (tok.isascii() and tok.isdigit()):
            raise self.error(f"expected a number, got {tok!r}")
        return int(tok)

    def rest_of_line(self):
        """Raw text up to the next newline (for headers holding JSON)."""
        end = self.text.find("\n", self.pos)
        if end < 0:
            end = len(self.text)
        out = self.text[self.pos:end].strip()
        self.pos = end
        return out


def _parse_label_expr(tz, n_ap):
    """Recursive-descent parse of a label expression into a set of letters."""

    all_letters = frozenset(range(1 << n_ap))

    def atom():
        tok = tz.next()
        if tok == "(":
            v = disj()
            tz.expect(")")
            return v
        if tok == "!":
            return all_letters - atom()
        if tok == "t":
            return all_letters
        if tok == "f":
            return frozenset()
        try:
            idx = int(tok)
        except ValueError:
            raise tz.error(f"bad label token {tok!r}")
        if not (0 <= idx < n_ap):
            raise tz.error(f"AP index {idx} not declared")
        return frozenset(b for b in all_letters if b & (1 << idx))

    def conj():
        v = atom()
        while tz.peek() == "&":
            tz.next()
            v = v & atom()
        return v

    def disj():
        v = conj()
        while tz.peek() == "|":
            tz.next()
            v = v | conj()
        return v

    return disj()


def _header_values(tz):
    """Consume and return the tokens of a header up to the next header or
    ``--BODY--``."""
    values = []
    while True:
        nxt = tz.peek()
        if nxt is None or nxt == "--BODY--" or nxt.endswith(":"):
            return values
        values.append(tz.next())


def _marked(tz):
    """Consume an optional acceptance set ``{i j ...}``; is it nonempty?"""
    if tz.peek() != "{":
        return False
    tz.next()
    accs = []
    while tz.peek() != "}":
        accs.append(tz.integer())
    tz.expect("}")
    return bool(accs)


def _decode_promise_aps(ap_names, vocab_json):
    """Split AP names into base APs and promise index bits."""
    # _prm bits are the trailing APs, emitted as _prm0.._prmK in order
    n_bits = 0
    for name in reversed(ap_names):
        if name.startswith("_prm") and name[4:].isdigit():
            n_bits += 1
        else:
            break
    base = ap_names[:len(ap_names) - n_bits]
    vocab = _vocab_from_json(json.loads(vocab_json))
    if n_bits < _prm_width(len(vocab)):
        raise HoaError("promise-vocab header does not match _prm* AP count")
    return tuple(base), vocab, n_bits


def _vocab_to_json(promises):
    out = []
    for p in promises:
        if p is TOP:
            out.append({"top": True})
        elif isinstance(p, int):
            out.append({"state": p})
        else:
            out.append({"states": sorted(p)})
    return json.dumps(out)


def _vocab_from_json(items):
    vocab = []
    for item in items:
        if item.get("top"):
            vocab.append(TOP)
        elif "state" in item:
            vocab.append(item["state"])
        else:
            vocab.append(frozenset(item["states"]))
    return tuple(vocab)


def parse_hoa(text: str) -> Automaton:
    tz = _Scanner(text)
    n_states = None
    start, start_at = 0, 0
    ap_names = []
    acceptance = None
    acc_name = None
    vocab_json = None
    subset_json = None
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
            start, start_at = tz.integer(), tz.pos
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
            acceptance = (n_sets, "".join(_header_values(tz)))
        elif tok == "acc-name:":
            acc_name = tz.next()
        elif tok == "promise-vocab:":
            vocab_json = tz.rest_of_line()
        elif tok == "letter-subset:":
            subset_json = tz.rest_of_line()
        elif tok == "collection-initial:":
            collection_initial = tz.integer()
        elif tok.endswith(":"):
            # tool:, name:, properties:, and other ignorable headers
            _header_values(tz)
        else:
            raise tz.error(f"unexpected header token {tok!r}")
    if len(ap_names) > MAX_AP:
        raise HoaError(f"{len(ap_names)} atomic propositions exceed the cap of {MAX_AP}")
    if acceptance is None:
        raise HoaError("missing Acceptance: header")
    n_sets, formula = acceptance
    formula = formula.replace(" ", "")
    # "0 t" makes every run accepting: an NBA with every edge marked
    kind = {(1, "Inf(0)"): "NBA", (1, "Fin(0)"): "UCA",
            (0, "t"): "NBA"}.get((n_sets, formula))
    if kind is None:
        raise HoaError(f"unsupported acceptance condition {formula!r} with {n_sets} sets")
    if acc_name == "co-Buchi" and formula == "Inf(0)":
        raise HoaError("acc-name co-Buchi conflicts with Inf acceptance")

    promises = None
    n_prm_bits = 0
    if vocab_json is not None:
        ap_names, promises, n_prm_bits = _decode_promise_aps(ap_names, vocab_json)
    n_base_ap = len(ap_names)
    n_all_ap = n_base_ap + n_prm_bits

    def letter_of(raw):
        """The letter of a bit pattern over all APs; None beyond the
        promise vocabulary."""
        if promises is None:
            return raw
        idx = raw >> n_base_ap
        if idx < len(promises):
            return raw & ((1 << n_base_ap) - 1), promises[idx]

    subset = None
    if subset_json is not None:
        raw = json.loads(subset_json)
        if not (isinstance(raw, list)
                and all(type(x) is int and x >= 0 for x in raw)):
            raise HoaError("letter-subset must be a list of bit patterns")
        subset = set(map(letter_of, raw))
        if None in subset:
            raise HoaError("letter-subset names a bit pattern beyond the "
                           "promise vocabulary")
    try:
        alphabet = Alphabet(tuple(ap_names), promises, subset)
    except ValueError as exc:
        raise HoaError(str(exc)) from None
    letters = alphabet.letters()
    # letters outside a letter subset have no index, so their edges drop out
    index = {a: i for i, a in enumerate(letters)}

    # one entry per letter that an edge line reads
    src, let, dst, acc = [], [], [], []
    current = None
    top, top_at = -1, 0  # the largest state id in the body and where it ends
    while True:
        tok = tz.peek()
        if tok is None or tok == "--END--":
            if tok == "--END--":
                tz.next()
            break
        tok = tz.next()
        if tok == "State:":
            if tz.peek() == "[":
                raise tz.error("state labels are not supported")
            current = tz.integer()
            if current > top:
                top, top_at = current, tz.pos
            if tz.peek() is not None and tz.peek().startswith('"'):
                tz.next()
            state_marked = _marked(tz)
        elif tok == "[":
            if current is None:
                raise tz.error("edge before any State:")
            raw = _parse_label_expr(tz, n_all_ap)
            tz.expect("]")
            target = tz.integer()
            if target > top:
                top, top_at = target, tz.pos
            marked = _marked(tz) or state_marked or n_sets == 0
            ids = [index[a] for a in map(letter_of, raw) if a in index]
            let += ids
            src += [current] * len(ids)
            dst += [target] * len(ids)
            acc += [marked] * len(ids)
        else:
            raise tz.error(f"unexpected body token {tok!r}")

    # without a States: header, every state id in the body names a state
    if n_states is None:
        n_states = max(top + 1, 1)
    if top >= n_states:
        raise tz.error(f"state {top} out of range", top_at)
    if start >= n_states:
        raise tz.error(f"initial state {start} out of range", start_at)
    edges = Edges.normalised(letters, src, let, dst, acc)
    tags = {}
    if collection_initial is not None:
        if not 0 <= collection_initial < n_states:
            raise HoaError("collection-initial names no state")
        tags["collection_initial"] = collection_initial
    return Automaton.from_edges(kind, alphabet, n_states, start, edges, tags)


def _prm_width(n_promises):
    """The number of ``_prm`` APs that index a vocabulary of
    ``n_promises`` promises."""
    return max(1, (n_promises - 1).bit_length())


def _letter_codes(alphabet: Alphabet):
    """The promise vocabulary in canonical order (``()`` for a plain
    alphabet), and each letter's bit pattern over the base APs followed by
    the ``_prm`` APs, keyed by letter in canonical order."""
    if alphabet.promises is None:
        return (), {a: a for a in alphabet.letters()}
    vocab = tuple(sorted(alphabet.promises, key=promise_sort_key))
    index = {p: i << len(alphabet.ap) for i, p in enumerate(vocab)}
    return vocab, {(b, p): b | index[p] for b, p in alphabet.letters()}


def _expr_for_bits(bits, n_ap):
    if n_ap == 0:
        return "t"
    parts = []
    for i in range(n_ap):
        parts.append(str(i) if bits & (1 << i) else f"!{i}")
    return "&".join(parts)


def emit_hoa(A: Automaton, name=None) -> str:
    """Canonical HOA v1 text: states numbered breadth-first from the initial
    state, successors in (letter, target) order, unreached states last in
    id order; each state's edges sorted by (letter bits, target)."""
    if A.kind not in ("NBA", "UCA"):
        raise ValueError(f"cannot emit automata of kind {A.kind}")
    if A.is_schema:
        raise ValueError("cannot emit a schema (no initial state)")
    e, n = A.edges, A.n_states
    # the rows are sorted by (source, letter, target), so each state's
    # slice lists its successors in the order the numbering visits them
    first = np.searchsorted(e.src, np.arange(n + 1)).tolist()
    succ = e.dst.tolist()
    found = Explorer(A.initial, what="renumbering")
    for _, q in found:
        for t in succ[first[q]:first[q + 1]]:
            found.intern(t)
    order = found.keys + [q for q in range(n) if q not in found.ids]
    new = np.empty(n, dtype=np.int64)
    new[order] = np.arange(n)
    alphabet = A.alphabet
    vocab, codes = _letter_codes(alphabet)
    ap_list = list(alphabet.ap)
    if alphabet.promises is not None:
        ap_list += [f"_prm{i}" for i in range(_prm_width(len(vocab)))]
    n_all = len(ap_list)
    lines = ["HOA: v1"] + ([f'name: "{name}"'] if name else []) + [
        f"States: {n}", "Start: 0",
        "AP: {} {}".format(len(ap_list), " ".join(f'"{p}"' for p in ap_list))]
    lines += (["acc-name: Buchi", "Acceptance: 1 Inf(0)"] if A.kind == "NBA"
              else ["acc-name: co-Buchi", "Acceptance: 1 Fin(0)"])
    if alphabet.promises is not None:
        lines.append(f"promise-vocab: {_vocab_to_json(vocab)}")
    if alphabet.subset is not None:
        lines.append(f"letter-subset: {json.dumps(sorted(codes.values()))}")
    if "collection_initial" in A.tags:
        lines.append(f"collection-initial: {new[A.tags['collection_initial']]}")
    lines.append("--BODY--")
    bits = list(codes.values())
    labels = [f"[{_expr_for_bits(b, n_all)}] " for b in bits]
    src, dst = new[e.src], new[e.dst]
    by = np.lexsort((dst, np.array(bits)[e.let], src))
    marks = ("", " {0}")
    body = [labels[a] + str(t) + marks[m] for a, t, m in
            zip(e.let[by].tolist(), dst[by].tolist(), e.acc[by].tolist())]
    bounds = np.searchsorted(src[by], np.arange(n + 1)).tolist()
    for q in range(n):
        lines.append(f"State: {q}")
        lines += body[bounds[q]:bounds[q + 1]]
    lines.append("--END--")
    return "\n".join(lines) + "\n"
