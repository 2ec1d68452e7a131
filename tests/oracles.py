"""Independent reference implementations used to cross-check the package.

Everything here works on a plain tuple encoding of terms —
``("leaf", name)``, ``("h", kids)``, ``("v", kids)`` — with its own
normalizer, its own one-step rewrite matcher and its own move replayer,
deliberately sharing no code with the package internals.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from tileproof.terms import H, Leaf, Term, V


def to_tuple(t: Term):
    if isinstance(t, Leaf):
        return ("leaf", t.label)
    tag = "h" if isinstance(t, H) else "v"
    return (tag, tuple(to_tuple(c) for c in t.children))


def from_tuple(node) -> Term:
    tag = node[0]
    if tag == "leaf":
        return Leaf(node[1])
    kids = tuple(from_tuple(c) for c in node[1])
    return H(kids) if tag == "h" else V(kids)


def renormalize(node):
    """Bottom-up flattening: merge same-direction children, unwrap singletons."""
    tag = node[0]
    if tag == "leaf":
        return node
    kids = [renormalize(c) for c in node[1]]
    flat = []
    for k in kids:
        if k[0] == tag:
            flat.extend(k[1])
        else:
            flat.append(k)
    if len(flat) == 1:
        return flat[0]
    return (tag, tuple(flat))


def _block(parts, tag):
    return parts[0] if len(parts) == 1 else (tag, tuple(parts))


def replay_moves(start, moves):
    """Replay moves ``(kind, path, index, split_first, split_second)`` on the
    tuple encoding and return the last node.

    Each move is checked where it stands: a ``row`` move needs a vertical
    ambient node and a ``col`` move a horizontal one, children ``index`` and
    ``index + 1`` must be runs of the other direction, and each split must
    leave both parts of its child non-empty.  A failed check raises
    ``ValueError``.
    """
    node = start
    for kind, path, index, s1, s2 in moves:
        tag, inner = {"row": ("v", "h"), "col": ("h", "v")}[kind]
        spine = [node]  # the nodes along ``path``, root first
        for i in path:
            if spine[-1][0] == "leaf" or not 0 <= i < len(spine[-1][1]):
                raise ValueError(f"path {path} does not address a node")
            spine.append(spine[-1][1][i])
        ambient = spine.pop()
        if ambient[0] != tag:
            raise ValueError(f"{kind} move at {path}: the ambient node is not {tag!r}")
        kids = ambient[1]
        if not 0 <= index < len(kids) - 1:
            raise ValueError(f"{kind} move at {path}: no children {index} and {index + 1}")
        a, b = kids[index], kids[index + 1]
        if a[0] != inner or b[0] != inner:
            raise ValueError(f"{kind} move at {path}: child {index} or {index + 1} is no {inner!r}")
        if not (1 <= s1 < len(a[1]) and 1 <= s2 < len(b[1])):
            raise ValueError(f"{kind} move at {path}: splits {s1}, {s2} out of range")
        x, y = _block(a[1][:s1], inner), _block(a[1][s1:], inner)
        z, w = _block(b[1][:s2], inner), _block(b[1][s2:], inner)
        merged = (inner, ((tag, (x, z)), (tag, (y, w))))
        new = (tag, kids[:index] + (merged,) + kids[index + 2 :])
        for parent, i in zip(reversed(spine), reversed(path)):
            new = (parent[0], parent[1][:i] + (new,) + parent[1][i + 1 :])
        node = renormalize(new)
    return node


def matcher_neighbors(t: Term) -> set[Term]:
    """All terms one interchange application away, found by raw scanning."""

    results = set()

    def rewrites(node):
        # yields every term obtainable by one rewrite somewhere inside node
        tag = node[0]
        if tag == "leaf":
            return
        kids = node[1]
        for i, k in enumerate(kids):
            for rep in rewrites(k):
                yield (tag, kids[:i] + (rep,) + kids[i + 1 :])
        inner = "h" if tag == "v" else "v"
        for i in range(len(kids) - 1):
            a, b = kids[i], kids[i + 1]
            if a[0] == inner and b[0] == inner:
                for s1 in range(1, len(a[1])):
                    for s2 in range(1, len(b[1])):
                        x = _block(a[1][:s1], inner)
                        y = _block(a[1][s1:], inner)
                        z = _block(b[1][:s2], inner)
                        w = _block(b[1][s2:], inner)
                        merged = (inner, ((tag, (x, z)), (tag, (y, w))))
                        yield (tag, kids[:i] + (merged,) + kids[i + 2 :])

    for raw in rewrites(to_tuple(t)):
        results.add(from_tuple(renormalize(raw)))
    return results


def matcher_distances(start: Term) -> dict[Term, int]:
    """Distance from ``start`` to every term of its closure, by breadth-first
    search over ``matcher_neighbors``."""
    distance = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for u in matcher_neighbors(s):
                if u not in distance:
                    distance[u] = distance[s] + 1
                    nxt.append(u)
        frontier = nxt
    return distance


def all_terms_with_leaves(labels: tuple[str, ...]) -> set[Term]:
    """Every flattened term whose leaf sequence is a permutation of ``labels``."""

    @lru_cache(maxsize=None)
    def build(seq, root):
        # root: "any", "not-h" or "not-v" (children of a run must not repeat it)
        if len(seq) == 1:
            return {("leaf", seq[0])}
        out = set()
        for tag in ("h", "v"):
            if root == f"not-{tag}":
                continue
            child_kind = f"not-{tag}"
            for cut in _compositions(len(seq)):
                parts = []
                pos = 0
                for size in cut:
                    parts.append(build(seq[pos : pos + size], child_kind))
                    pos += size
                for combo in itertools.product(*parts):
                    out.add((tag, combo))
        return out

    results = set()
    for perm in set(itertools.permutations(labels)):
        results.update(from_tuple(node) for node in build(perm, "any"))
    return results


@lru_cache(maxsize=None)
def _compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Ways to split n into an ordered sequence of >= 2 positive parts."""
    out = []

    def go(remaining, acc):
        if remaining == 0:
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        for first in range(1, remaining + 1):
            go(remaining - first, acc + [first])

    go(n, [])
    return tuple(out)


def geometric_border_word(t: Term) -> tuple[str, ...]:
    """Border word read off a tiling of a square, y growing upward: an H
    node cuts its box into equal columns, left to right, and a V node into
    equal rows, top to bottom.  The square's side is the product of every
    run's child count, so every cut falls on an integer.  The leaves with an
    edge on each side of the square, sorted along it, are read
    counter-clockwise from the bottom-left corner, each at its first
    appearance.  The walks keep their own stacks, so they take terms of any
    depth."""
    side, stack = 1, [t]
    while stack:
        node = stack.pop()
        if not isinstance(node, Leaf):
            side *= len(node.children)
            stack.extend(node.children)
    tiles = []  # (x0, y0, x1, y1, label) per leaf
    stack = [(t, 0, 0, side, side)]
    while stack:
        node, x0, y0, x1, y1 = stack.pop()
        if isinstance(node, Leaf):
            tiles.append((x0, y0, x1, y1, node.label))
            continue
        k = len(node.children)
        for i, c in enumerate(node.children):
            if isinstance(node, H):
                w = (x1 - x0) // k
                stack.append((c, x0 + i * w, y0, x0 + (i + 1) * w, y1))
            else:
                h = (y1 - y0) // k
                stack.append((c, x0, y1 - (i + 1) * h, x1, y1 - i * h))
    ring = (
        sorted((r for r in tiles if r[1] == 0), key=lambda r: r[0])
        + sorted((r for r in tiles if r[2] == side), key=lambda r: r[1])
        + sorted((r for r in tiles if r[3] == side), key=lambda r: -r[0])
        + sorted((r for r in tiles if r[0] == 0), key=lambda r: -r[1])
    )
    word, seen = [], set()
    for x0, y0, _, _, label in ring:
        if (x0, y0) not in seen:  # tiles never share a bottom-left corner
            seen.add((x0, y0))
            word.append(label)
    return tuple(word)


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return {frozenset(g) for g in groups.values()}


def naive_double_semigroup(h, v, n) -> bool:
    """Plain three/four-deep loops, no pruning; the model-checker oracle."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if h[h[x][y]][z] != h[x][h[y][z]]:
                    return False
                if v[v[x][y]][z] != v[x][v[y][z]]:
                    return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    if v[h[x][y]][h[z][w]] != h[v[x][z]][v[y][w]]:
                        return False
    return True
