"""Interchange moves on flattened terms, and replayable proof scripts.

A move applies the interchange identity at one position: two adjacent rows of
a vertical stack, each split into a left and a right part, merge into one row
made of two columns (``kind="row"``); a column move is the mirror image.
Every move is invertible, and a proof script is an ordered list of moves
replayed from a start term, optionally with named checkpoints.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .terms import H, Leaf, Term, TermError, V, _descend, _intern, _rebuild
from .terms import from_grid, grid_labels, hcat, vcat

__all__ = [
    "ROW",
    "COL",
    "Move",
    "MoveError",
    "BadPath",
    "BadOrientation",
    "BadPair",
    "BadSplit",
    "ReplayError",
    "ProofScript",
    "enumerate_moves",
    "apply_move",
    "invert_move",
    "replay",
    "central_swap_script",
    "CENTRAL_SWAP_CHECKPOINT",
]

ROW = "row"
COL = "col"


class MoveError(ValueError):
    """A move does not apply to the given term."""


class BadPath(MoveError):
    """The path (or pair index) does not address an adjacent child pair."""


class BadOrientation(MoveError):
    """The ambient node has the wrong direction for the move kind."""


class BadPair(MoveError):
    """The addressed children are not both runs of the opposite direction."""


class BadSplit(MoveError):
    """A split position is outside ``1 .. arity-1`` of its child."""


class Move(namedtuple("Move", "kind path index split_first split_second")):
    """One located interchange application.

    ``path`` addresses the ambient node (child indices from the root, 0-based
    in memory); ``index`` is the first of the two adjacent children involved;
    ``split_first``/``split_second`` count how many grandchildren of each
    child go to the left (for ``row``) or top (for ``col``) part.

    A named tuple: immutable, iterable, and equal to a plain tuple with the
    same values.  Building one checks the kind and that the path is a tuple
    of ints and the index and splits are ints; ``enumerate_moves``, whose
    fields are right by construction, builds its moves with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(
        cls, kind: str, path: tuple[int, ...], index: int, split_first: int, split_second: int
    ):
        if kind not in (ROW, COL):
            raise MoveError(f"unknown move kind {reprlib.repr(kind)}")
        # ``type(...) is int`` refuses ``bool``, which would apply as 0 or 1
        if type(path) is not tuple:
            raise MoveError(f"move path must be a tuple of ints, not {reprlib.repr(path)}")
        for k in path:
            if type(k) is not int:
                raise MoveError(f"move path must be a tuple of ints, not {reprlib.repr(path)}")
        for name, value in zip(cls._fields[2:], (index, split_first, split_second)):
            if type(value) is not int:
                raise MoveError(f"move {name} must be an int, not {reprlib.repr(value)}")
        return tuple.__new__(cls, (kind, path, index, split_first, split_second))

    # ``_replace`` builds through ``_make``, which would skip the check
    _make = classmethod(lambda cls, values: cls(*values))


def _locate(t: Term, m: Move) -> tuple[list[Term], Term, Term, Term]:
    """Validate ``m`` against ``t`` in one walk down ``m.path``; return the
    ancestors passed (root first), the ambient node and the two adjacent
    children the move merges."""
    kind, path, i, split_first, split_second = m
    ancestors, node = _descend(t, path, BadPath, "a node")
    want_ambient, want_child = (V, H) if kind == ROW else (H, V)
    if type(node) is not want_ambient:
        raise BadOrientation(
            f"{kind} move needs a {'vertical' if kind == ROW else 'horizontal'} "
            f"ambient node at path {path}"
        )
    if not 0 <= i < len(node.children) - 1:
        raise BadPath(f"no adjacent pair at index {i} under path {path}")
    first, second = node.children[i], node.children[i + 1]
    if type(first) is not want_child or type(second) is not want_child:
        raise BadPair(
            f"children {i} and {i + 1} must both be "
            f"{'horizontal' if kind == ROW else 'vertical'} runs"
        )
    if not 1 <= split_first < len(first.children):
        raise BadSplit(f"split_first={split_first} out of range for arity {len(first.children)}")
    if not 1 <= split_second < len(second.children):
        raise BadSplit(f"split_second={split_second} out of range for arity {len(second.children)}")
    return ancestors, node, first, second


def apply_move(t: Term, m: Move) -> Term:
    """Apply one interchange move.

    For a row move the pair ``V(..., xy, zw, ...)`` with ``xy`` split into
    ``x|y`` and ``zw`` into ``z|w`` becomes the single child
    ``(x/z) | (y/w)``; a column move is the mirror image.  The result is
    re-flattened, so the leaf multiset is preserved and the output is again
    in normal form.
    """
    ancestors, node, first, second = _locate(t, m)
    # A slice of a flattened run is flat, so each part is its one child or a
    # run of the same direction.
    run, cut, kids = type(first), m.split_first, first.children
    x = kids[0] if cut == 1 else _intern(run, kids[:cut])
    y = kids[-1] if cut == len(kids) - 1 else _intern(run, kids[cut:])
    cut, kids = m.split_second, second.children
    z = kids[0] if cut == 1 else _intern(run, kids[:cut])
    w = kids[-1] if cut == len(kids) - 1 else _intern(run, kids[cut:])
    # ``x/z`` and ``y/w`` join in the ambient direction and may splice an
    # operand, so they go through ``vcat``/``hcat``.  Each has at least two
    # parts, so both are runs and their pair is a run in the other direction.
    inner = vcat if m.kind == ROW else hcat
    merged = _intern(run, (inner([x, z]), inner([y, w])))
    kids, i = node.children, m.index
    if len(kids) > 2:
        merged = _intern(type(node), kids[:i] + (merged,) + kids[i + 2 :])
    return _rebuild(ancestors, m.path, merged)


def invert_move(t: Term, m: Move) -> Move:
    """The move that undoes ``m`` on ``apply_move(t, m)``.

    The inverse has the mirrored kind.  Its splits count the parts ``x`` and
    ``y`` contribute to the merged ``x/z`` and ``y/w``: the children of an
    operand that is a run in the ambient direction, else one.  Its
    coordinates account for the re-flattening done by ``apply_move``: if the
    ambient pair was the node's only content the merged child is spliced
    into the grandparent.
    """
    _, node, first, second = _locate(t, m)
    kids = first.children

    def parts(operand: Term) -> int:
        return len(operand.children) if type(operand) is type(node) else 1

    inv_split_first = parts(kids[0]) if m.split_first == 1 else 1
    inv_split_second = parts(kids[-1]) if m.split_first == len(kids) - 1 else 1
    inv_kind = COL if m.kind == ROW else ROW
    if len(node.children) > 2:
        inv_path, inv_index = m.path + (m.index,), 0
    else:  # the merged child took the node's place, or was spliced into its parent
        inv_path, inv_index = m.path[:-1], (m.path[-1] if m.path else 0)
    return Move(inv_kind, inv_path, inv_index, inv_split_first, inv_split_second)


def enumerate_moves(t: Term) -> Iterator[Move]:
    """Yield every move applicable to ``t``, without duplicates, ordered by
    (path, index, split_first, split_second), building each when pulled."""
    stack = [((), t)] if type(t) is not Leaf else []  # runs still to visit, next on top
    while stack:
        path, node = stack.pop()
        kind = ROW if type(node) is V else COL
        # a child that is not a leaf is a run in the other direction, so each
        # two adjacent ones are a pair that the move merges
        runs, prev = [], None
        for i, c in enumerate(node.children):
            if type(c) is Leaf:
                prev = None
                continue
            if prev is not None:
                seconds = range(1, len(c.children))
                for s1 in range(1, len(prev.children)):
                    for s2 in seconds:
                        yield tuple.__new__(Move, (kind, path, i - 1, s1, s2))
            prev = c
            runs.append((path + (i,), c))
        runs.reverse()
        stack += runs


# ---------------------------------------------------------------------------
# Proof scripts
# ---------------------------------------------------------------------------


class ReplayError(MoveError):
    """Replay hit an inapplicable move; ``index`` says which one."""

    def __init__(self, index: int, cause: MoveError):
        super().__init__(f"move {index} failed: {cause}")
        self.index = index
        self.cause = cause


@dataclass(frozen=True)
class ProofScript:
    """An equality certificate: a start term plus an ordered move list.

    ``checkpoints`` maps a name to a move-count prefix; the named term is the
    one reached after replaying that many moves.

    Building one is the one check of a script's values, which
    ``decode_script`` and ``replay`` rely on; ``moves`` is stored as a tuple
    and ``checkpoints`` as a dict of its own.
    """

    start: Term
    moves: tuple[Move, ...] = ()
    checkpoints: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.start, (Leaf, H, V)):
            raise TermError(f"script start must be a term, not {reprlib.repr(self.start)}")
        moves, checkpoints = self.moves, self.checkpoints
        if not isinstance(moves, (list, tuple)):
            raise MoveError(f"script moves must be a list or tuple, not {type(moves).__name__}")
        for k, m in enumerate(moves):
            if not isinstance(m, Move):
                raise MoveError(f"moves[{k}] = {reprlib.repr(m)} is not a Move")
        object.__setattr__(self, "moves", tuple(moves))
        if not isinstance(checkpoints, Mapping):
            raise ValueError(f"checkpoints must be a mapping, not {type(checkpoints).__name__}")
        object.__setattr__(self, "checkpoints", dict(checkpoints))
        for name, prefix in self.checkpoints.items():
            if type(name) is not str:
                raise ValueError(f"checkpoint name {reprlib.repr(name)} is not a string")
            # ``type(...) is int`` refuses ``bool``, which would encode as ``true``
            if type(prefix) is not int or not 0 <= prefix <= len(moves):
                raise ValueError(f"checkpoint {reprlib.repr(name)} is {reprlib.repr(prefix)}, "
                                 f"not an int 0..{len(moves)}")


def replay(script: ProofScript) -> list[Term]:
    """Replay a script; returns the whole trajectory ``[start, ..., final]``.

    Fails atomically on the first move that does not apply, raising
    ``ReplayError`` with that move's position.
    """
    trajectory = [script.start]
    for k, m in enumerate(script.moves):
        try:
            trajectory.append(apply_move(trajectory[-1], m))
        except MoveError as exc:
            raise ReplayError(k, exc) from exc
    return trajectory


# ---------------------------------------------------------------------------
# The canned central-swap certificate
#
# Forty frozen moves realize a twelve-sliding storyline on a 4x4 grid; no
# single move transposes two cells, but the composite does.  The table
# factors into four ten-move blocks, each sliding one middle element from
# the second row into the third (or back): the element leaves its row,
# travels through a column built with the outer rows, and lands next to its
# new neighbors.  Move coordinates are against the flattened term current at
# that point, so the table is meaningful only as a whole;
# ``tests/test_central_swap.py`` re-verifies every claim about it by replay.
# ---------------------------------------------------------------------------

CENTRAL_SWAP_CHECKPOINT = "after-sliding-8"

_CENTRAL_SWAP_MOVES: tuple[tuple[str, tuple[int, ...], int, int, int], ...] = (
    # block 1: middle element d of row 3 climbs into row 2 -> (a,b,d | c)
    ("row", (), 2, 2, 1),
    ("row", (), 1, 3, 1),
    ("col", (1,), 0, 1, 2),
    ("row", (), 0, 1, 3),
    ("col", (0,), 0, 1, 2),
    ("row", (), 0, 1, 4),
    ("row", (), 0, 1, 1),
    ("col", (), 0, 3, 3),
    ("col", (0,), 0, 2, 2),
    ("col", (0,), 0, 1, 1),
    # block 2: a descends past c -> middle block (b,d; a,c), the half-way grid
    ("row", (), 0, 1, 2),
    ("row", (), 0, 1, 1),
    ("row", (), 0, 1, 1),
    ("col", (), 0, 2, 3),
    ("col", (0,), 0, 1, 2),
    ("row", (), 0, 1, 1),
    ("col", (0,), 0, 1, 1),
    ("row", (), 1, 1, 1),
    ("col", (1,), 0, 1, 1),
    ("col", (2,), 0, 1, 1),
    # block 3: d descends to the end of row 3 -> (b | a,c,d)
    ("row", (), 0, 1, 3),
    ("row", (), 0, 1, 3),
    ("row", (), 0, 1, 1),
    ("col", (), 0, 2, 3),
    ("col", (0,), 0, 1, 2),
    ("row", (), 0, 1, 2),
    ("col", (0,), 0, 1, 1),
    ("row", (), 1, 2, 1),
    ("col", (1,), 0, 1, 1),
    ("col", (2,), 0, 1, 1),
    # block 4: a climbs back into row 2 -> middle block (b,a; c,d)
    ("row", (), 2, 1, 1),
    ("row", (), 1, 2, 1),
    ("col", (1,), 0, 1, 2),
    ("row", (), 0, 1, 2),
    ("col", (0,), 0, 1, 2),
    ("row", (), 0, 1, 3),
    ("row", (), 0, 1, 1),
    ("col", (), 0, 3, 3),
    ("col", (0,), 0, 2, 2),
    ("col", (0,), 0, 1, 1),
)

# Waypoints of the twelve-sliding storyline the forty moves realize.  The
# grids after slidings 8 and 12 are exact; 4 and 10 are intermediate row
# readings.
_CENTRAL_SWAP_CHECKPOINTS: dict[str, int] = {
    "after-sliding-4": 10,
    "after-sliding-8": 20,
    "after-sliding-10": 30,
    "after-sliding-12": 40,
}


def central_swap_script(border: Sequence[str], a: str, b: str, c: str, d: str) -> ProofScript:
    """The canned certificate transposing the two top-middle cells of a 4x4
    grid.

    ``border`` gives the twelve outer labels in reading order; the grid starts
    with middle block ``(a, b; c, d)`` and the script ends at the same grid
    with middle ``(b, a; c, d)``.  The checkpoint ``"after-sliding-8"`` marks
    the grid with middle ``(b, d; a, c)`` — the cyclic permutation reached
    halfway.  Labels may repeat; the moves are positional.
    """
    start = from_grid(grid_labels(border, (a, b, c, d)))
    moves = [Move(*row) for row in _CENTRAL_SWAP_MOVES]
    return ProofScript(start=start, moves=moves, checkpoints=dict(_CENTRAL_SWAP_CHECKPOINTS))
