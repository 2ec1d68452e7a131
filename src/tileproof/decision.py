"""Equality decision in the free double semigroup by closure over moves.

Two flattened terms denote the same element exactly when one is reachable
from the other through interchange moves.  Because every move preserves the
leaf multiset, each term's move closure is finite, so the word problem is
decided by breadth-first closure; ``equal_exhaustive`` searches from both
ends at once and stitches an explicit proof script when the frontiers meet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Sequence, Union

from .moves import Move, ProofScript, apply_move, enumerate_moves
from .terms import Leaf, Term, _nodes, border_word, leaf_multiset, swap_leaves

__all__ = [
    "Equal",
    "Distinct",
    "Unknown",
    "Verdict",
    "MAX_BUDGET",
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

# The most states a search may visit.  A search keeps at most about 0.33 KB
# per visited state, wide terms included, so this cap holds it under 1 GB.
MAX_BUDGET = 2_000_000


def _check_budget(budget: int) -> None:
    if type(budget) is not int:
        raise ValueError(f"budget must be an int, not {budget!r}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if budget > MAX_BUDGET:
        raise ValueError(f"budget must be at most {MAX_BUDGET:,}")


def equal_exhaustive(t1: Term, t2: Term, budget: int) -> Verdict:
    """Decide whether two terms are move-equivalent, with a state budget.

    Terms with different leaf multisets are Distinct immediately.  Otherwise
    a bidirectional breadth-first search, side a from ``t1`` and side b from
    ``t2``, expands the smaller frontier first (alternating on ties, side a
    first); ``budget`` caps the number of distinct terms visited across both
    sides, and may be at most ``MAX_BUDGET``.  Deterministic for fixed
    inputs and budget.

    An Equal script is a shortest one.  Each side's layer ``i`` holds exactly
    the terms at distance ``i`` from its root, and every new term is checked
    against everything the other side has seen, so the two seen sets are
    disjoint until the meet.  Say the meet term is found at depth ``i`` of
    one side while the other side has finished its layers up to depth ``J``
    and holds it at depth ``j <= J``.  The layers up to ``i - 1`` on one
    side and ``J`` on the other did not touch, so no script is shorter than
    ``i + J`` moves, and this one has ``i + j``.

    When ``t2`` is ``t1`` with its labels renamed one-to-one, as in every
    swap query, moves see only shapes, so side b's search is the renaming of
    side a's: the same moves in the same order.  Side b then builds each
    layer from side a's recorded parents and moves (``_mirror``) instead of
    enumerating moves again; the verdict is the same either way.
    """
    _check_budget(budget)
    if t1 == t2:
        return Equal(ProofScript(start=t1))
    if leaf_multiset(t1) != leaf_multiset(t2):
        return Distinct(closure_size=0)

    # Parent maps, indexed by side: 0 is side a, from t1; 1 is side b, from
    # t2.  Each maps a term to its predecessor; ``_stitch`` finds the moves.
    seen: tuple[dict[Term, Optional[Term]], ...] = ({t1: None}, {t2: None})
    frontiers = [[t1], [t2]]
    explored = 2
    if budget < explored:
        return Unknown(explored=explored, budget=budget)

    # Side a's layers that side b has not mirrored yet, from side b's current
    # one, each with the moves that built its terms (one object per distinct
    # move, from ``shared``).  Side b never gets ahead: at equal depths the
    # frontiers are equal in size, and side b has just moved, so the tie goes
    # to side a.
    unmirrored = deque([(frontiers[0], [])]) if _relabels(t1, t2) else None
    shared: dict[Move, Move] = {}
    side = 1  # so the first tie expands side a
    while True:
        len_a, len_b = map(len, frontiers)
        side = 1 - side if len_a == len_b else int(len_b < len_a)
        frontier, own, other = frontiers[side], seen[side], seen[1 - side]
        if not frontier:
            return Distinct(closure_size=len(own))
        next_frontier: list[Term] = []
        taken = None
        if unmirrored is not None and side == 1:
            a_layer, _ = unmirrored.popleft()
            layer = _mirror(a_layer, *unmirrored[0], frontier, seen[0])
        else:
            layer = _expand(frontier, own)
            if unmirrored is not None:
                taken = []
                unmirrored.append((next_frontier, taken))
        for t, m, u in layer:
            if explored == budget:
                return Unknown(explored=explored, budget=budget)
            explored += 1
            own[u] = t
            next_frontier.append(u)
            if taken is not None:
                taken.append(shared.setdefault(m, m))
            if u in other:
                return Equal(_stitch(t1, u, seen))
        frontiers[side] = next_frontier


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


def _relabels(t1: Term, t2: Term) -> bool:
    """Whether ``t2`` is ``t1`` with its labels renamed one-to-one.  Node classes and arities in
    preorder fix a flattened term's shape, so two walks that agree on them end together."""
    renaming: dict[str, str] = {}
    for a, b in zip(_nodes(t1), _nodes(t2)):
        if type(a) is Leaf and type(b) is Leaf:
            if renaming.setdefault(a.label, b.label) != b.label:
                return False
        elif type(a) is not type(b) or len(a.children) != len(b.children):
            return False
    return len(set(renaming.values())) == len(renaming)


def _mirror(
    a_layer: list[Term],
    a_next: list[Term],
    a_moves: list[Move],
    b_layer: list[Term],
    seen_a: dict[Term, Optional[Term]],
) -> Iterator[tuple[Term, Move, Term]]:
    """Side b's next layer when ``t2`` renames ``t1``: ``b_layer`` renames
    ``a_layer`` term by term, so each new term of side a's next layer, built
    by ``m`` from ``t``, has its renaming built by ``m`` from ``t``'s.  Yields
    what ``_expand(b_layer, seen_b)`` would, in the same order."""
    renamed = dict(zip(a_layer, b_layer))
    for u, m in zip(a_next, a_moves):
        s = renamed[seen_a[u]]
        yield s, m, apply_move(s, m)


def _stitch(t1, meet, seen) -> ProofScript:
    """Assemble the t1 -> t2 script through the meeting term: side a's parent
    chain reversed, then side b's, each step by the first move in enumeration
    order that leads to the next term.  On side a that is the move the search
    took, as a term is recorded from its first parent, by the first of that
    parent's moves that reaches it, and a mirrored side renames side a's moves
    in order.  On side b it is the inverse of that move, as no two moves of
    one term reach the same successor."""
    terms = [*_chain(seen[0], meet)][::-1] + [*_chain(seen[1], meet)][1:]
    pairs = zip(terms, terms[1:])
    moves = [next(m for m in enumerate_moves(s) if apply_move(s, m) is u) for s, u in pairs]
    return ProofScript(start=t1, moves=moves)


def _chain(seen, u) -> Iterator[Term]:
    """Yield ``u``, then each recorded parent back to the root of its side."""
    while u is not None:
        yield u
        u = seen[u]


def move_closure(t: Term, budget: int = MAX_BUDGET) -> frozenset[Term]:
    """The full set of terms reachable from ``t`` by moves.

    This is the engine behind Distinct verdicts, exposed on its own because
    closures of small terms are useful objects in tests and to library
    callers.  ``budget`` caps the closure's size, as in ``equal_exhaustive``.
    Raises ``ValueError`` if the closure exceeds it.
    """
    _check_budget(budget)
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for _, _, u in _expand(frontier, seen):
            if len(seen) >= budget:
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
    themselves.  ``budget`` must be between 1 and ``MAX_BUDGET``, as
    there, even when the swap leaves ``t`` as it is.

    Moves keep the border word (``terms.border_word``), so a swap that
    changes it is Distinct, and ``None`` comes back without a search.
    """
    swapped = swap_leaves(t, leaf_path_1, leaf_path_2)
    _check_budget(budget)
    if border_word(t) != border_word(swapped):
        return None
    verdict = equal_exhaustive(t, swapped, budget)
    if isinstance(verdict, Equal):
        return verdict.script
    return None
