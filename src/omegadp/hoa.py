"""Hanoi Omega-Automata (HOA v1) parsing and emission.

Only Buchi and co-Buchi acceptance are supported on the wire, with either
transition-based or state-based marks (state-based input is converted by
marking all outgoing transitions of accepting states).  Edge labels are
boolean expressions over AP indices (``!``, ``&``, ``|``, ``t``, ``f``,
parentheses) and are expanded to explicit letters at parse time.

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
found in the text, a malformed number included, is a ``HoaError`` naming its
line and column.
"""

from __future__ import annotations

import json
import re

from .automata import TOP, Alphabet, Automaton, canonical_order, \
    promise_sort_key, renumber

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
    """The tokens of a HOA text, read from ``pos`` on."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        """A HoaError located at ``pos``."""
        line = self.text.count("\n", 0, self.pos) + 1
        return HoaError(message, line,
                        self.pos - self.text.rfind("\n", 0, self.pos))

    def peek(self):
        self.pos = _BLANK.match(self.text, self.pos).end()
        if self.text.startswith("/*", self.pos):
            raise self.error("unterminated comment")
        if self.pos == len(self.text):
            return None
        tok = _TOKEN.match(self.text, self.pos)
        if tok is None:
            raise self.error("unterminated string")
        return tok.group()

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
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"expected a number, got {tok!r}") from None

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
    start = 0
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
    if n_sets == 1 and formula == "Inf(0)":
        kind = "NBA"
    elif n_sets == 1 and formula == "Fin(0)":
        kind = "UCA"
    elif n_sets == 0 and formula in ("t",):
        kind = "NBA_ALL"  # every run accepting
    else:
        raise HoaError(f"unsupported acceptance condition {formula!r} with {n_sets} sets")
    if acc_name == "co-Buchi" and kind == "NBA":
        raise HoaError("acc-name co-Buchi conflicts with Inf acceptance")

    promises = None
    n_prm_bits = 0
    if vocab_json is not None:
        ap_names, promises, n_prm_bits = _decode_promise_aps(ap_names, vocab_json)
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
    if subset_json is not None:
        raw = json.loads(subset_json)
        if not (isinstance(raw, list)
                and all(type(x) is int and x >= 0 for x in raw)):
            raise HoaError("letter-subset must be a list of bit patterns")
        subset = set(decode_letters(raw))
        if len(subset) != len(set(raw)):
            raise HoaError("letter-subset names a bit pattern beyond the "
                           "promise vocabulary")
    try:
        alphabet = Alphabet(tuple(ap_names), promises, subset)
    except ValueError as exc:
        raise HoaError(str(exc)) from None

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
                label = _parse_label_expr(tz, n_all_ap)
                tz.expect("]")
            current = tz.integer()
            seen_states.add(current)
            if tz.peek() is not None and tz.peek().startswith('"'):
                tz.next()
            state_acc[current] = _marked(tz)
            if label is not None:
                raise tz.error("state labels are not supported")
        elif tok == "[":
            if current is None:
                raise tz.error("edge before any State:")
            letters = _parse_label_expr(tz, n_all_ap)
            tz.expect("]")
            target = tz.integer()
            marked = _marked(tz) or state_acc.get(current, False)
            add_edge(current, decode_letters(letters), target, marked)
        else:
            raise tz.error(f"unexpected body token {tok!r}")

    if n_states is None:
        n_states = (max(seen_states) + 1) if seen_states else 1
    elif seen_states and max(seen_states) >= n_states:
        raise HoaError("state id exceeds declared States: count")
    if kind == "NBA_ALL":
        kind = "NBA"
        gamma = set((q, a, t) for (q, a), ts in delta.items() for t in ts)
    tags = {}
    if collection_initial is not None:
        if not 0 <= collection_initial < n_states:
            raise HoaError("collection-initial names no state")
        tags["collection_initial"] = collection_initial
    return Automaton(kind, alphabet, n_states, start, delta, gamma, tags=tags)


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
    """Canonical HOA v1 text: BFS state order, edges sorted by (letter, target)."""
    if A.kind not in ("NBA", "UCA"):
        raise ValueError(f"cannot emit automata of kind {A.kind}")
    if A.is_schema:
        raise ValueError("cannot emit a schema (no initial state)")
    A = renumber(A, canonical_order(A))
    alphabet = A.alphabet
    vocab, codes = _letter_codes(alphabet)
    ap_list = list(alphabet.ap)
    if alphabet.promises is not None:
        ap_list += [f"_prm{i}" for i in range(_prm_width(len(vocab)))]
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
        lines.append(f"promise-vocab: {_vocab_to_json(vocab)}")
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
            lines.append(f"[{_expr_for_bits(bits, n_all)}] {t}{suffix}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
