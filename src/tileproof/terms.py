"""Terms of a free double semigroup, kept in flattened (associativity-normal) form.

A term is a leaf, a horizontal run ``H(...)`` or a vertical stack ``V(...)``.
Runs never nest in their own direction and always have at least two children,
so two terms are structurally equal exactly when they are equal modulo
associativity of the two composition laws.  Terms are hash-consed: each
distinct term is one object, so equality and hashing are by identity.

Geometrically a term is a guillotine tiling of the unit square: an H node
splits its rectangle left-to-right, a V node top-to-bottom.  ``layout`` makes
that reading concrete (with exact rational coordinates) and ``border_word``
reads off the labels around the boundary.
"""

from __future__ import annotations

import re
import reprlib
import threading
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain
from sys import getrefcount
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Term",
    "Leaf",
    "H",
    "V",
    "TermError",
    "ParseError",
    "hcat",
    "vcat",
    "parse_term",
    "format_term",
    "from_grid",
    "grid_labels",
    "leaf_multiset",
    "leaf_paths",
    "subterm_at",
    "swap_leaves",
    "Rect",
    "layout",
    "border_word",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class TermError(ValueError):
    """Malformed term construction (bad label, ragged grid, empty run...)."""


class ParseError(TermError):
    """Concrete-syntax error; ``offset`` is the byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def _check_label(name: str) -> str:
    if not isinstance(name, str) or _IDENT.fullmatch(name) is None:
        raise TermError(f"invalid label {reprlib.repr(name)}: expected an identifier")
    return name


# Hash-consing: every distinct term exists once per process.  The public
# constructors and ``_cat`` return the live object when there is one, so
# ``==`` and ``hash`` are the default identity ones, O(1) and not recursive.
# A class's table holds each term strongly under its label or children.
# Lookups take no lock; a miss re-checks and inserts under ``_intern_lock``,
# so no two threads make two copies of a term.  Once the tables have doubled
# since the last sweep, the next miss first drops what only a table holds.
_intern_lock = threading.Lock()
_room = 4096  # misses until the next sweep, which sets it to the terms it keeps


def _lone_count(table={0: object()}) -> int:
    """What ``_sweep_all`` reads for a term that only its table holds."""
    t = table[0]
    return getrefcount(t)


_LONE = _lone_count()


def _sweep_all() -> None:
    """Drop every term that only its table holds, then recount its children."""
    global _room
    with _intern_lock:
        work = [u for kind in (H, V, Leaf) for u in kind._table.values()]
        while work:
            t = work.pop()
            if getrefcount(t) > _LONE:
                continue
            key = t.label if (cls := type(t)) is Leaf else t.children
            del cls._table[key]  # a reader that misses now waits on the lock
            if getrefcount(t) >= _LONE:  # a reader took it between the counts
                cls._table[key] = t
            elif cls is not Leaf:
                work += key  # its children, to count again once it is gone
            key = t = None  # its last references here, before the children's counts
        _room = max(len(Leaf._table) + len(H._table) + len(V._table), 4096)


def _intern(cls: type, key):
    """The live ``cls`` object whose one field is ``key``, created if there is
    none.  This is the trusted constructor: ``key`` is not checked."""
    global _room
    t = cls._table.get(key)
    if t is None:
        if _room <= 0:
            _sweep_all()
        with _intern_lock:
            t = cls._table.get(key)
            if t is None:
                _room -= 1
                t = object.__new__(cls)
                cls._field.__set__(t, key)
                cls._table[key] = t
    return t


class _Interned:
    """Immutable slots; copies and pickles resolve to the interned object."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Leaf(_Interned):
    """One tile.  ``Leaf(label)`` is the only live leaf with that label."""

    __slots__ = ("label",)

    def __new__(cls, label: str) -> Leaf:
        return _intern(cls, _check_label(label))

    def __repr__(self):
        return f"Leaf(label={self.label!r})"

    def __reduce__(self):
        return Leaf, (self.label,)


class _Run(_Interned):
    """A flattened run of at least two children; ``H`` and ``V`` differ only
    in direction, which is their class.  ``sep`` is the concrete-syntax
    operator and ``noun`` names the node in error messages."""

    __slots__ = ("children",)

    def __new__(cls, children: Iterable[Term]) -> _Run:
        children = tuple(children)
        for c in children:
            if not isinstance(c, _Interned):
                raise TermError(f"{cls.noun} node's children must be terms, not {c!r}")
        if len(children) < 2:
            raise TermError(f"{cls.noun} node needs at least two children")
        if cls in map(type, children):
            raise TermError(f"{cls.noun} node may not contain {cls.noun} child (flatten first)")
        return _intern(cls, children)

    def __repr__(self):
        return f"parse_term({format_term(self)!r})"

    def __reduce__(self):
        return type(self), (self.children,)


Leaf._field, _Run._field = Leaf.label, _Run.children  # the slot ``_intern`` fills


class H(_Run):
    """Horizontal run, children left to right.  Use ``hcat`` to build one."""

    __slots__ = ()
    sep, noun = "|", "an H"


class V(_Run):
    """Vertical stack, children top to bottom.  Use ``vcat`` to build one."""

    __slots__ = ()
    sep, noun = "/", "a V"


Leaf._table, H._table, V._table = {}, {}, {}  # the intern tables
Term = Union[Leaf, H, V]


def _cat(run: type[_Run], parts: Iterable[Term], direction: str) -> Term:
    flat: list[Term] = []
    for p in parts:
        if type(p) is run:
            flat.extend(p.children)
        elif isinstance(p, _Interned):
            flat.append(p)
        else:
            raise TermError(f"{direction} composition needs terms, not {p!r}")
    if not flat:
        raise TermError(f"empty {direction} composition")
    if len(flat) == 1:
        return flat[0]
    return _intern(run, tuple(flat))


def hcat(parts: Iterable[Term]) -> Term:
    """Horizontal composition: flattens nested runs, unwraps a singleton."""
    return _cat(H, parts, "horizontal")


def vcat(parts: Iterable[Term]) -> Term:
    """Vertical composition (top operand first); flattens and unwraps."""
    return _cat(V, parts, "vertical")


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   term  := vterm
#   vterm := hterm ('/' hterm)*          -- '/' reads top operand first
#   hterm := atom ('|' atom)*            -- '|' binds tighter than '/'
#   atom  := IDENT | '(' term ')' | grid
#   grid  := '[' row (';' row)* ']'
#   row   := IDENT+                      -- whitespace separated
#
# Two caps of 100.  Parentheses: the parser refuses the first one past that
# depth before it reads on, so hostile nesting ends as an input error at a
# known offset.  Runs (a term's depth counts the runs on its longest
# root-to-leaf path): ``format_term`` prints one parenthesis per run level
# below the root, so a parsed term's canonical text is parseable again.
# The parser keeps its own stack, as every other term operation does.
# ---------------------------------------------------------------------------

_MAX_NESTING = 100

# whitespace (``str.isspace``), then an identifier, one other character, or "" at the end
_TOKEN = re.compile(rf"\s*(?:({_IDENT.pattern})|(.?))", re.S)


def _error(text: str, pos: int, message: str) -> ParseError:
    return ParseError(message, len(text[:pos].encode("utf-8")))


def parse_term(text: str) -> Term:
    """Parse concrete syntax into a flattened term.

    Raises ``TermError`` if ``text`` is not a ``str``, and ``ParseError``
    (with a byte offset) on bad input, including empty input, and
    parentheses or runs nested more than 100 deep.
    """
    if not isinstance(text, str):
        raise TermError(f"invalid term text {reprlib.repr(text)}: expected a str")
    pos = start = len(text) - len(text.lstrip())  # where the open group begins
    if pos == len(text):
        raise _error(text, pos, "empty input")
    # The open group's finished rows and the atoms of its current row, as
    # ``(term, depth)`` pairs; ``stack`` keeps the same for each enclosing group.
    stack, rows, atoms = [], [], []
    grid = None  # the rows of labels while inside '[...]'
    atom_next = True  # else an operator, or the end of the group
    while True:
        m = _TOKEN.match(text, pos)
        ident, ch = m.groups()
        at, pos = m.start(m.lastindex), m.end()
        if grid is not None:
            if ident:
                grid[-1].append(ident)
            elif not grid[-1] or ch.isalpha():
                raise _error(text, at, "expected an identifier")
            elif ch == ";":
                grid.append([])
            elif ch != "]":
                raise _error(text, at, "expected ']'")
            else:
                try:
                    atoms.append((from_grid(grid), (len(grid) > 1) + (len(grid[0]) > 1)))
                except TermError as exc:
                    raise _error(text, at, str(exc)) from exc
                grid = None
        elif atom_next:
            if ident:
                atoms.append((_intern(Leaf, ident), 0))  # the token is an identifier
                atom_next = False
            elif ch == "(":
                if len(stack) == _MAX_NESTING:
                    raise _error(text, at, f"nested more than {_MAX_NESTING} deep")
                stack.append((start, rows, atoms))
                start, rows, atoms = at, [], []
            elif ch == "[":
                grid, atom_next = [[]], False
            elif ch.isalpha():  # a letter that starts no identifier
                raise _error(text, at, "expected an identifier")
            else:
                raise _error(text, at, "expected an identifier, '(' or '['")
        elif ch == "|":
            atom_next = True
        else:  # the row ends here, and with anything but '/' the group too
            rows.append(_join(hcat, H, atoms))
            if ch == "/":
                atoms, atom_next = [], True
                continue
            t, depth = _join(vcat, V, rows)
            if stack and ch != ")":
                raise _error(text, at, "expected ')'")
            if depth > _MAX_NESTING:
                raise _error(text, start, f"nested more than {_MAX_NESTING} deep")
            if not stack:
                if ident or ch:
                    raise _error(text, at, "unexpected trailing input")
                return t
            start, rows, atoms = stack.pop()
            atoms.append((t, depth))


def _join(cat, run: type[_Run], parts: list[tuple[Term, int]]) -> tuple[Term, int]:
    if len(parts) == 1:
        return parts[0]
    # a part in the run's own direction is flattened: its children join the run
    return cat(t for t, _ in parts), max(d if type(t) is run else d + 1 for t, d in parts)


def format_term(t: Term) -> str:
    """Canonical text for a term; ``parse_term(format_term(t)) == t`` for
    every term at most 100 runs deep.

    Children of the opposite direction are parenthesized, flattened runs are
    printed without grouping.
    """
    if type(t) is Leaf:
        return t.label
    out, stack = [], [(t.sep, iter(t.children))]  # open runs, their children still to print
    while stack:
        sep, kids = stack[-1]
        for c in kids:
            if out and out[-1] != "(":
                out.append(sep)
            if type(c) is Leaf:
                out.append(c.label)
            else:
                out.append("(")
                stack.append((c.sep, iter(c.children)))
                break
        else:
            stack.pop()
            out.append(")")
    return "".join(out[:-1])  # the root run is not parenthesized


# ---------------------------------------------------------------------------
# Grids and leaf bookkeeping
# ---------------------------------------------------------------------------


def from_grid(rows: Sequence[Sequence[str]]) -> Term:
    """Rectangular grid of labels (rows listed top to bottom) as a term.

    A 1x1 grid is a leaf, a single row an H run, a single column a V stack.
    """
    if not rows or any(not r for r in rows):
        raise TermError("grid must have at least one row and one cell per row")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise TermError("ragged grid: all rows must have the same length")
    return vcat(hcat(Leaf(name) for name in row) for row in rows)


def grid_labels(border: Sequence[str], middle: Sequence[str]) -> list[list[str]]:
    """Row-major 4x4 label grid from 12 border labels and 4 middle labels.

    The border fills the outer ring in reading order (top row, the two middle
    row ends, bottom row); the middle four go to the central 2x2 block.
    """
    if len(border) != 12:
        raise TermError("expected exactly 12 border labels")
    if len(middle) != 4:
        raise TermError("expected exactly 4 middle labels")
    e = list(border)
    a, b, c, d = middle
    return [
        [e[0], e[1], e[2], e[3]],
        [e[4], a, b, e[5]],
        [e[6], c, d, e[7]],
        [e[8], e[9], e[10], e[11]],
    ]


def _nodes(t: Term) -> Iterator[Term]:
    """Yield every node in preorder, left to right.  The walk keeps its own
    stack, so it takes terms of any depth."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is not Leaf:
            stack += reversed(node.children)


def leaf_multiset(t: Term) -> Counter:
    """Multiset of leaf labels (a ``collections.Counter``)."""
    return Counter(node.label for node in _nodes(t) if type(node) is Leaf)


def leaf_paths(t: Term) -> Iterator[tuple[tuple[int, ...], str]]:
    """Yield ``(path, label)`` for every leaf, in left-to-right tree order."""
    path, stack = [], [(0, (), t)]  # (the length of the parent's path, the node's index, node)
    while stack:
        depth, index, node = stack.pop()
        path[depth:] = index
        if type(node) is Leaf:
            yield tuple(path), node.label
        else:
            stack += reversed([(len(path), (i,), c) for i, c in enumerate(node.children)])


def _descend(t: Term, path: Sequence[int], error: type, what: str) -> tuple[list[Term], Term]:
    """Walk ``path`` down from the root of ``t``; return the nodes passed, root first, and
    the node reached.  A step off the term raises ``error``: the path does not address ``what``."""
    ancestors, node = [], t
    for i in path:
        if type(node) is Leaf or not 0 <= i < len(node.children):
            raise error(f"path {reprlib.repr(tuple(path))} does not address {what}")
        ancestors.append(node)
        node = node.children[i]
    return ancestors, node


def subterm_at(t: Term, path: Sequence[int]) -> Term:
    """The subterm addressed by a path of child indices from the root."""
    return _descend(t, path, TermError, "a subterm")[1]


def _rebuild(ancestors: Sequence[Term], path: Sequence[int], new: Term) -> Term:
    """Put the normal-form term ``new`` in place of the node that ``path``
    addresses, and rebuild ``ancestors``, the nodes the path passes through
    from the root, bottom-up.  A new child in its parent's direction, which
    only an unwrapped pair produces, is spliced into the parent."""
    for node, i in zip(reversed(ancestors), reversed(path)):
        run, kids = type(node), node.children
        middle = new.children if type(new) is run else (new,)
        new = _intern(run, kids[:i] + middle + kids[i + 1 :])
    return new


def swap_leaves(t: Term, path_1: Sequence[int], path_2: Sequence[int]) -> Term:
    """The same term with the labels at two leaf positions exchanged."""
    ancestors, l1 = _descend(t, path_1, TermError, "a subterm")
    l2 = subterm_at(t, path_2)
    if type(l1) is not Leaf or type(l2) is not Leaf:
        raise TermError("both paths must address leaves")
    # a leaf for a leaf keeps the shape, so ``path_2`` still addresses a leaf
    t = _rebuild(ancestors, path_1, l2)
    return _rebuild(_descend(t, path_2, TermError, "a subterm")[0], path_2, l1)


# ---------------------------------------------------------------------------
# Geometric realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle inside the unit square, y growing upward."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    def __post_init__(self):
        if not (0 <= self.x0 < self.x1 <= 1 and 0 <= self.y0 < self.y1 <= 1):
            raise TermError("rectangle must be nondegenerate and inside the unit square")

    @property
    def area(self) -> Fraction:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def layout(t: Term) -> dict[tuple[int, ...], Rect]:
    """Tile the unit square; maps each leaf path to its rectangle.

    An H node divides width among its children proportionally to their leaf
    counts, left to right; a V node divides height the same way, top to
    bottom.  This makes the tiling deterministic and degeneracy-free.
    """
    return {path: Rect(*box) for (path, _), (_, box) in zip(leaf_paths(t), _tiles(t))}


def _tiles(t: Term) -> Iterator[tuple[str, tuple[Fraction, ...]]]:
    """Yield ``(label, (x0, y0, x1, y1))`` for every leaf, in the order of
    ``leaf_paths``: the tiling that ``layout`` describes, read in one walk."""
    counts: dict[Term, int] = {}  # leaf count per node; reversed preorder counts children first
    for node in reversed(list(_nodes(t))):
        counts[node] = 1 if type(node) is Leaf else sum(counts[c] for c in node.children)
    stack = [(t, (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))]
    while stack:
        node, (x0, y0, x1, y1) = stack.pop()
        if type(node) is Leaf:
            yield node.label, (x0, y0, x1, y1)
            continue
        # cut from ``start`` towards ``end``: rightwards in an H, down in a V
        across = type(node) is H
        start, end = (x0, x1) if across else (y1, y0)
        span, kids, parts = end - start, node.children, []
        for i, c in enumerate(kids):
            cut = end if i == len(kids) - 1 else start + span * Fraction(counts[c], counts[node])
            parts.append((c, (start, y0, cut, y1) if across else (x0, cut, x1, start)))
            start = cut
        stack += reversed(parts)


def border_word(t: Term) -> tuple[str, ...]:
    """Labels of the leaves touching the unit-square boundary, read
    counter-clockwise starting from the leaf that contains the bottom-left
    corner.  Each border leaf appears exactly once.

    Read top(t) and bottom(t) left to right, left(t) and right(t) top to
    bottom; the word is bottom, then right and top reversed, then left, each
    leaf kept at its first appearance.  One top-down pass hands each node
    the sides it touches: every child of an H keeps top and bottom, only the
    first keeps left and only the last right, dually for V.  Tree order is
    each side's reading order, and leaves are named by their position.

    Moves keep the word, leaf for leaf and not only up to rotation.  By that
    rule a node's four words join its children's, and ``(x|y)/(z|w)`` and
    ``(x/z)|(y/w)`` both have top = top(x)·top(y), bottom = bottom(z)·bottom(w),
    left = left(x)·left(z) and right = right(y)·right(w).  Flattening only
    regroups the joins, so the root keeps its four words.
    """
    sides = ([], [], [], [])  # top, bottom, left, right: leaf positions in tree order
    labels, stack = [], [(t, 0b1111)]  # bit k set: the node touches ``sides[k]``
    while stack:
        node, touch = stack.pop()
        if type(node) is Leaf:
            for k, side in enumerate(sides):
                if touch >> k & 1:
                    side.append(len(labels))
            labels.append(node.label)
            continue
        keep, first, last = (0b0011, 0b0100, 0b1000) if type(node) is H else (0b1100, 0b0001, 0b0010)
        kids, inner = node.children, touch & keep
        touches = [inner | touch & first] + [inner] * (len(kids) - 2) + [inner | touch & last]
        stack += [(c, s) for c, s in zip(reversed(kids), reversed(touches)) if s]
    top, bottom, left, right = sides
    ring = dict.fromkeys(chain(bottom, reversed(right), reversed(top), left))
    return tuple(labels[k] for k in ring)
