"""Equality decision in the free double semigroup by closure over moves.

Two flattened terms denote the same element exactly when one is reachable
from the other through interchange moves.  Because every move preserves the
leaf multiset, each term's move closure is finite, so the word problem is
decided by breadth-first closure; ``equal_exhaustive`` searches from both
ends at once and stitches an explicit proof script when the frontiers meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Sequence, Union

from .moves import Move, ProofScript, apply_move, enumerate_moves, invert_move
from .terms import Term, leaf_multiset, swap_leaves

__all__ = [
    "Equal",
    "Distinct",
    "Unknown",
    "Verdict",
    "equal_exhaustive",
    "find_swap_proof",
    "move_closure",
]


@dataclass(frozen=True)
class Equal:
    """The terms are equal; ``script`` replays from the first to the second."""

    script: ProofScript


@dataclass(frozen=True)
class Distinct:
    """One side's full closure was computed without meeting the other.

    ``closure_size`` is the size of that closure; it is 0 when the terms were
    rejected up front because their leaf multisets differ.
    """

    closure_size: int


@dataclass(frozen=True)
class Unknown:
    """The state budget ran out before a verdict."""

    explored: int
    budget: int


Verdict = Union[Equal, Distinct, Unknown]


def equal_exhaustive(t1: Term, t2: Term, budget: int) -> Verdict:
    """Decide whether two terms are move-equivalent, with a state budget.

    Terms with different leaf multisets are Distinct immediately.  Otherwise
    a bidirectional breadth-first search expands the smaller frontier first
    (alternating on ties); ``budget`` caps the number of distinct terms
    visited across both sides.  Deterministic for fixed inputs and budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if t1 == t2:
        return Equal(ProofScript(start=t1))
    if leaf_multiset(t1) != leaf_multiset(t2):
        return Distinct(closure_size=0)

    # parent maps: term -> (predecessor, move applied at the predecessor)
    seen_a: dict[Term, Optional[tuple[Term, Move]]] = {t1: None}
    seen_b: dict[Term, Optional[tuple[Term, Move]]] = {t2: None}
    frontier_a: list[Term] = [t1]
    frontier_b: list[Term] = [t2]

    explored = 2
    if explored > budget:
        return Unknown(explored=explored, budget=budget)

    last_side = "b"  # so the first tie expands side a
    while True:
        if len(frontier_a) != len(frontier_b):
            side = "a" if len(frontier_a) < len(frontier_b) else "b"
        else:
            side = "a" if last_side == "b" else "b"
        last_side = side
        frontier, seen, other = (
            (frontier_a, seen_a, seen_b) if side == "a" else (frontier_b, seen_b, seen_a)
        )
        if not frontier:
            return Distinct(closure_size=len(seen))
        next_frontier: list[Term] = []
        for t, m, u in _expand(frontier, seen):
            explored += 1
            if explored > budget:
                return Unknown(explored=explored - 1, budget=budget)
            seen[u] = (t, m)
            next_frontier.append(u)
            if u in other:
                return Equal(_stitch(t1, u, seen_a, seen_b))
        if side == "a":
            frontier_a = next_frontier
        else:
            frontier_b = next_frontier


def _expand(frontier: list[Term], seen: Collection[Term]) -> Iterator[tuple[Term, Move, Term]]:
    """One breadth-first layer: yield ``(term, move, successor)`` for every
    successor of the frontier that is not in ``seen``, in move-enumeration
    order.  Membership is tested lazily, so a caller that records each
    successor in ``seen`` before resuming gets every new term once."""
    for t in frontier:
        for m in enumerate_moves(t):
            u = apply_move(t, m)
            if u not in seen:
                yield t, m, u


def _stitch(t1, meet, seen_a, seen_b) -> ProofScript:
    """Assemble the t1 -> t2 script through the meeting term.

    Forward edges come straight from the t1-side parent chain; the t2-side
    chain is walked from the meeting point back to t2 by inverting each
    recorded move.
    """
    forward: list[Move] = []
    cur = meet
    while seen_a[cur] is not None:
        parent, m = seen_a[cur]
        forward.append(m)
        cur = parent
    forward.reverse()

    backward: list[Move] = []
    cur = meet
    while seen_b[cur] is not None:
        parent, m = seen_b[cur]
        backward.append(invert_move(parent, m))
        cur = parent

    return ProofScript(start=t1, moves=tuple(forward + backward))


def move_closure(t: Term, budget: Optional[int] = None) -> frozenset[Term]:
    """The full set of terms reachable from ``t`` by moves.

    This is the engine behind Distinct verdicts, exposed on its own because
    closures of small terms are useful objects in tests and at the CLI.
    Raises ``ValueError`` if a budget is given and exceeded.
    """
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for _, _, u in _expand(frontier, seen):
            if budget is not None and len(seen) >= budget:
                raise ValueError(f"closure exceeded budget of {budget} states")
            seen.add(u)
            nxt.append(u)
        frontier = nxt
    return frozenset(seen)


def find_swap_proof(
    t: Term,
    leaf_path_1: Sequence[int],
    leaf_path_2: Sequence[int],
    budget: int,
) -> Optional[ProofScript]:
    """Search for a script from ``t`` to ``t`` with two leaves transposed.

    Both paths must address leaves.  Returns the script on an Equal verdict
    and ``None`` otherwise; callers that need to distinguish Distinct from
    Unknown can run ``equal_exhaustive(t, swap_leaves(t, p1, p2), budget)``
    themselves.
    """
    swapped = swap_leaves(t, leaf_path_1, leaf_path_2)
    if swapped == t:
        return ProofScript(start=t)
    verdict = equal_exhaustive(t, swapped, budget)
    if isinstance(verdict, Equal):
        return verdict.script
    return None
