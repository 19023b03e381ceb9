"""Grid-world lab case study as a decision process with promises.

A robot shuttles between a clean and a dirty lab on a 12 x 9 grid.  At home
it promises to visit both labs infinitely often and to return home only
finitely often (each departure from home costs xi).  Inside the dirty area
it promises not to enter the clean lab before passing a decontamination
station; the two stations charge different fees.  Entering the dirty lab
fresh from the clean lab pays rho, expressed as a lookback guard.  The south
door of the clean lab room carries a zapper that destroys the robot with
probability p_zap on the first crossing; a destroyed robot can keep no
promise, so maximizing satisfaction first steers around that door.

The wall layout lives in ``data/biolab_map.txt``; the map file is the
source of truth for the geometry.
"""

from __future__ import annotations

from importlib import resources

from .automata import Alphabet, Automaton, Explorer
from .odp import Odp

AP = ("clean_lab", "dirty_lab", "decontamination", "initial_location")

_CLEAN = 1
_DIRTY = 2
_DECON = 4
_INIT = 8

DIRECTIONS = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}
_PERP = {"N": ("E", "W"), "S": ("E", "W"), "E": ("N", "S"), "W": ("N", "S")}

# lookahead schema states
HOME_PROMISE = 0
DIRTY_PROMISE = 6
# lookback schema state for "not dirty since clean"
SINCE_GUARD = 1


class BiolabGrid:
    """Cell geometry parsed from the fine-grained ASCII map.

    Cells are (x, y) pairs, ``walls`` holds blocked cell-boundary pairs, and
    ``zapper`` is the one boundary that is open but zapped.
    """

    def __init__(self, width, height, walls, zapper, home, clean_lab,
                 dirty_lab, decon1, decon2, dirty_area):
        self.width = width
        self.height = height
        self.walls = walls
        self.zapper = zapper
        self.home = home
        self.clean_lab = clean_lab
        self.dirty_lab = dirty_lab
        self.decon1 = decon1
        self.decon2 = decon2
        self.dirty_area = dirty_area

    @classmethod
    def parse(cls, text: str) -> "BiolabGrid":
        lines = [ln for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        height = (len(lines) - 1) // 2
        width = (max(len(ln) for ln in lines) - 1) // 2

        def at(r, c):
            return lines[r][c] if c < len(lines[r]) else " "

        features = {}
        dirty = set()
        walls = set()
        zapper = None
        for y in range(height):
            for x in range(width):
                r, c = 2 * (height - 1 - y) + 1, 2 * x + 1
                ch = at(r, c)
                if ch in "HCD12":
                    features[ch] = (x, y)
                if ch in "~D":
                    dirty.add((x, y))
                # boundary to the east and to the north
                if x + 1 < width:
                    edge = frozenset({(x, y), (x + 1, y)})
                    if at(r, c + 1) != " ":
                        walls.add(edge)
                if y + 1 < height:
                    edge = frozenset({(x, y), (x, y + 1)})
                    mark = at(r - 1, c)
                    if mark == "z":
                        zapper = edge
                    elif mark != " ":
                        walls.add(edge)
        for key in "HCD12":
            if key not in features:
                raise ValueError(f"map is missing feature {key!r}")
        if zapper is None:
            raise ValueError("map has no zapper door")
        return cls(width, height, walls, zapper, features["H"], features["C"],
                   features["D"], features["1"], features["2"], dirty)

    def scaled(self, k) -> "BiolabGrid":
        """The grid with each cell made a k x k block of cells.

        A wall between two cells walls the whole boundary between their
        blocks.  The zapper boundary keeps one zapped door, at offset
        ``k // 2`` along it from its lower-left end, and is walled
        elsewhere.  Each feature sits at the lower-left cell of its block,
        and every cell of a dirty block is dirty.  ``scaled(1)`` is a copy
        of the grid.
        """
        if k < 1:
            raise ValueError("the scale must be a positive integer")

        def corner(cell):
            return (k * cell[0], k * cell[1])

        def boundary(edge):
            # the cell pairs across the boundary of two blocks, in order
            (x, y), (x2, y2) = sorted(edge)
            if x == x2:
                return [frozenset({(k * x + i, k * y2 - 1),
                                   (k * x + i, k * y2)}) for i in range(k)]
            return [frozenset({(k * x2 - 1, k * y + j), (k * x2, k * y + j)})
                    for j in range(k)]

        walls = {pair for edge in self.walls for pair in boundary(edge)}
        door = boundary(self.zapper)
        walls.update(door[:k // 2] + door[k // 2 + 1:])
        dirty = {(x + i, y + j) for x, y in map(corner, self.dirty_area)
                 for i in range(k) for j in range(k)}
        return BiolabGrid(k * self.width, k * self.height, walls,
                          door[k // 2], corner(self.home),
                          corner(self.clean_lab), corner(self.dirty_lab),
                          corner(self.decon1), corner(self.decon2), dirty)

    def move(self, cell, direction):
        """Target of a step; bumping a wall or the border keeps position."""
        dx, dy = DIRECTIONS[direction]
        target = (cell[0] + dx, cell[1] + dy)
        if not (0 <= target[0] < self.width and 0 <= target[1] < self.height):
            return cell
        if frozenset({cell, target}) in self.walls:
            return cell
        return target

    def label(self, cell) -> int:
        bits = 0
        if cell == self.clean_lab:
            bits |= _CLEAN
        if cell == self.dirty_lab:
            bits |= _DIRTY
        if cell in (self.decon1, self.decon2):
            bits |= _DECON
        if cell == self.home:
            bits |= _INIT
        return bits


def default_grid() -> BiolabGrid:
    text = resources.files("omegadp").joinpath("data/biolab_map.txt") \
        .read_text()
    return BiolabGrid.parse(text)


def lookahead_schema() -> Automaton:
    """Promise schema over the lab propositions.

    State 0 conjoins "visit the clean lab infinitely often", "visit the
    dirty lab infinitely often", and "return home finitely often"; state 6
    demands no clean lab before a decontamination station.  The remaining
    states are the inner machinery of those two languages.
    """
    ab = Alphabet(AP)
    delta, gamma = {}, set()
    for letter in ab.letters():
        clean, dirty = letter & _CLEAN, letter & _DIRTY
        decon, init = letter & _DECON, letter & _INIT
        # recurrent clean-lab visits: the second state watches for a
        # clean-free tail
        delta[(1, letter)] = (1,) if clean else (1, 2)
        if clean:
            delta[(2, letter)] = ()
        else:
            delta[(2, letter)] = (2,)
            gamma.add((2, letter, 2))
        # recurrent dirty-lab visits
        delta[(3, letter)] = (3,) if dirty else (3, 4)
        if dirty:
            delta[(4, letter)] = ()
        else:
            delta[(4, letter)] = (4,)
            gamma.add((4, letter, 4))
        # finitely many returns home
        delta[(5, letter)] = (5,)
        if init:
            gamma.add((5, letter, 5))
        # conjunction entry: spawn a run of each conjunct
        delta[(0, letter)] = tuple(sorted(
            set(delta[(1, letter)]) | set(delta[(3, letter)]) | {5}))
        if init:
            gamma.add((0, letter, 5))
        # no clean lab until decontamination
        if clean:
            delta[(6, letter)] = (7,)
        elif decon:
            delta[(6, letter)] = ()
        else:
            delta[(6, letter)] = (6,)
        delta[(7, letter)] = (7,)
        gamma.add((7, letter, 7))
    return Automaton("UCA", ab, 8, None, delta, gamma)


def guard_schema() -> Automaton:
    """Lookback schema; state 1 accepts prefixes that visited the clean lab
    and avoided the dirty lab since.  State 0 accepts every prefix."""
    ab = Alphabet(AP)
    delta = {}
    for letter in ab.letters():
        delta[(0, letter)] = (0,)
        for q in (1, 2):
            if letter & _CLEAN:
                delta[(q, letter)] = (2,)
            elif letter & _DIRTY:
                delta[(q, letter)] = (1,)
            else:
                delta[(q, letter)] = (q,)
    return Automaton("DFA", ab, 3, None, delta, (), final_states={0, 2})


def build_biolab(rho=10.0, f1=1.0, f2=2.0, xi=1.0, p_slip=0.0, p_zap=0.1,
                 grid: BiolabGrid | None = None) -> Odp:
    """Assemble the lab process; parameters must satisfy 0 < f1 < f2 < rho
    and xi > 0.

    States are (cell, zapper disabled) pairs plus a terminal wreck state.
    The returned process carries ``grid``, ``state_of`` (state key to id)
    and ``keys`` (id to state key) attributes for rendering and analysis.
    """
    if not (0 < f1 < f2 < rho):
        raise ValueError("fees must satisfy 0 < f1 < f2 < rho")
    if xi <= 0:
        raise ValueError("the home penalty xi must be positive")
    if not (0 <= p_slip < 1 and 0 <= p_zap <= 1):
        raise ValueError("probabilities out of range")
    if grid is None:
        grid = default_grid()
    ab = Alphabet(AP)
    fee = {grid.home: -xi, grid.decon1: -f1, grid.decon2: -f2}

    found = Explorer((grid.home, 0), what="lab construction")
    actions, trans, rewards, labels = {}, {}, {}, []
    for src, key in found:
        if key == "wreck":
            labels.append(0)
            act = (None, "stay", None)
            actions[src] = (act,)
            trans[(src, act)] = ((src, 1.0),)
            continue
        cell, z = key
        labels.append(grid.label(cell))
        promise = HOME_PROMISE if cell == grid.home else \
            DIRTY_PROMISE if cell in grid.dirty_area else None
        acts = []
        for name in ("N", "S", "E", "W"):
            outcomes = [(name, 1.0 - p_slip)]
            if p_slip > 0:
                for side in _PERP[name]:
                    outcomes.append((side, p_slip / 2.0))
            dist = {}
            for direction, p in outcomes:
                target = grid.move(cell, direction)
                if z == 0 and frozenset({cell, target}) == grid.zapper:
                    if p_zap > 0:
                        dist["wreck"] = dist.get("wreck", 0.0) + p * p_zap
                    if p_zap < 1:
                        nkey = (target, 1)
                        dist[nkey] = dist.get(nkey, 0.0) + p * (1.0 - p_zap)
                else:
                    nkey = (target, z)
                    dist[nkey] = dist.get(nkey, 0.0) + p
            variants = [(None, name, promise)]
            if grid.move(cell, name) == grid.dirty_lab and \
                    cell != grid.dirty_lab:
                variants.append((SINCE_GUARD, name, promise))
            for act in variants:
                acts.append(act)
                entry = []
                for nkey, p in sorted(dist.items(), key=str):
                    dst = found.intern(nkey)
                    entry.append((dst, p))
                    r = fee.get(cell, 0.0)
                    if act[0] == SINCE_GUARD and nkey != "wreck" and \
                            nkey[0] == grid.dirty_lab:
                        r += rho
                    if r:
                        rewards[(src, act, dst)] = r
                trans[(src, act)] = tuple(entry)
        actions[src] = tuple(acts)
    D = Odp(len(found), 0, actions, trans, ab, labels,
            lookback=guard_schema(), lookahead=lookahead_schema(),
            rewards=rewards)
    D.grid = grid
    D.state_of = found.ids
    D.keys = found.keys
    return D
