"""Finite double semigroups as pairs of Cayley tables.

A candidate model is a carrier ``0..n-1`` with two multiplication tables.
This module checks the two associativity axioms and the interchange law
exhaustively, computes the structural predicates used by the commutativity
theorems (cancellativity, bicancellable elements, unique inverses, units),
enumerates all labeled models of small order by backtracking, and verifies
the theorems themselves over every enumerated model.

Claim names used throughout:

  EH  unital models: the two units coincide, the operations coincide, and
      both are commutative
  C1  cancellative models are commutative (both operations)
  C2  one bicancellable element already forces commutativity
  L   in inverse models the two inverse operations commute
  P   inverse models are commutative, and A*B * inv(A)*inv(B) * A*B = A*B
      holds in both operations

In a finite model, a cancellative or bicancellable element c forces a
two-sided unit in each operation.  In that operation some power of c is an
idempotent e, and e is cancellable (every power of c is, for
``has_bicancellable_element``; every element is, for ``is_cancellative``).
Then e*(e*x) = e*x gives e*x = x, and (x*e)*e = x*e gives x*e = x.  So
every model that C1 or C2 applies to is unital: the finite scan checks them
only on models that EH covers too.
"""

from __future__ import annotations

import os
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

__all__ = [
    "CayleyPair",
    "AxiomReport",
    "AxiomError",
    "MaxOrderError",
    "InverseStructure",
    "CommutativityReport",
    "UnitReport",
    "ClaimStatus",
    "ClaimsReport",
    "CLAIM_NAMES",
    "check_axioms",
    "is_commutative",
    "is_cancellative",
    "has_bicancellable_element",
    "inverse_structure",
    "unit_report",
    "enumerate_models",
    "verify_claims",
    "configured_max_order",
    "k_combinator",
    "xor_pair",
    "MAX_ORDER_ENV",
]

MAX_ORDER_ENV = "TILEPROOF_MAX_ORDER"
_DEFAULT_MAX_ORDER = 3
_HARD_MAX_ORDER = 4

Table = tuple[tuple[int, ...], ...]


class AxiomError(ValueError):
    """An operation that requires a valid double semigroup got a non-model."""


class MaxOrderError(ValueError):
    """Requested order is outside the configured enumeration range."""


@dataclass(frozen=True)
class CayleyPair:
    """A finite carrier with two multiplication tables, row-major:
    ``table_h[x][y]`` is x composed with y horizontally.  Raises
    ``ValueError`` on an ``n`` that is not an ``int`` (or is a ``bool``), a
    table that is not an n x n list or tuple of lists or tuples, an entry
    that is not an ``int`` (or is a ``bool``), or an entry outside 0..n-1.
    This is the one check of a model's values; ``decode_model`` relies on
    it."""

    n: int
    table_h: Table
    table_v: Table

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"carrier size must be an integer, not {reprlib.repr(self.n)}")
        if self.n < 1:
            raise ValueError("carrier size must be at least 1")
        tables = (("h", self.table_h), ("v", self.table_v))
        for name, tab in tables:
            if not _is_rows(tab, self.n) or not all(_is_rows(row, self.n) for row in tab):
                raise ValueError(f"table_{name} must be {self.n}x{self.n}")
        for name, tab in tables:
            for x, row in enumerate(tab):
                for y, e in enumerate(row):
                    if isinstance(e, bool) or not isinstance(e, int):
                        raise ValueError(f"table_{name}[{x}][{y}] = {reprlib.repr(e)} is not an integer")
                    if not 0 <= e < self.n:
                        raise ValueError(f"table_{name}[{x}][{y}] = {reprlib.repr(e)} "
                                         f"out of range 0..{self.n - 1}")
            object.__setattr__(self, f"table_{name}", tuple(map(tuple, tab)))

    @cached_property
    def _axioms(self) -> AxiomReport:
        return check_axioms(self)


def _is_rows(seq, n: int) -> bool:
    return isinstance(seq, (list, tuple)) and len(seq) == n


def k_combinator(n: int = 2) -> CayleyPair:
    """Both operations return their first argument; associative, satisfies
    interchange, not commutative for n >= 2."""
    tab = tuple(tuple(x for _ in range(n)) for x in range(n))
    return CayleyPair(n, tab, tab)


def xor_pair() -> CayleyPair:
    """Addition mod 2 for both operations (an abelian group twice)."""
    tab = ((0, 1), (1, 0))
    return CayleyPair(2, tab, tab)


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """First lexicographic counterexample per axiom, or None when it holds."""

    assoc_h: Optional[tuple[int, int, int]]
    assoc_v: Optional[tuple[int, int, int]]
    interchange: Optional[tuple[int, int, int, int]]

    @property
    def ok(self) -> bool:
        return self.assoc_h is None and self.assoc_v is None and self.interchange is None


def _first_assoc_failure(tab: Sequence[Sequence[int]], n: int) -> Optional[tuple[int, int, int]]:
    """First triple, in lexicographic order, that breaks associativity.

    ``tab`` may be partial, with -1 in the cells not filled in yet; a triple
    counts only once all of its lookups are filled in.
    """
    for x in range(n):
        for y in range(n):
            xy = tab[x][y]
            if xy < 0:
                continue
            for z in range(n):
                yz = tab[y][z]
                if yz < 0:
                    continue
                lhs = tab[xy][z]
                rhs = tab[x][yz]
                if lhs != rhs and lhs >= 0 and rhs >= 0:
                    return (x, y, z)
    return None


def _first_interchange_failure(
    h: Table, v: Sequence[Sequence[int]], n: int
) -> Optional[tuple[int, int, int, int]]:
    """First quadruple, in lexicographic order, that breaks interchange.

    ``h`` is complete; ``v`` may be partial, as in ``_first_assoc_failure``.
    """
    for x in range(n):
        for y in range(n):
            hxy = h[x][y]
            for z in range(n):
                vxz = v[x][z]
                if vxz < 0:
                    continue
                for w in range(n):
                    # an unfilled -1 still indexes a real cell, so the unfilled
                    # test can wait for a mismatch
                    lhs = v[hxy][h[z][w]]
                    vyw = v[y][w]
                    if lhs != h[vxz][vyw] and lhs >= 0 and vyw >= 0:
                        return (x, y, z, w)
    return None


def check_axioms(m: CayleyPair) -> AxiomReport:
    """Exhaustively check both associativity laws and the interchange law.

    n^3 triples per associativity check, n^4 quadruples for interchange;
    reports the first counterexample per failed axiom in lexicographic
    order.
    """
    return AxiomReport(
        assoc_h=_first_assoc_failure(m.table_h, m.n),
        assoc_v=_first_assoc_failure(m.table_v, m.n),
        interchange=_first_interchange_failure(m.table_h, m.table_v, m.n),
    )


def _require_model(m: CayleyPair):
    if not m._axioms.ok:
        raise AxiomError("not a double semigroup: " + repr(m._axioms))


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutativityReport:
    comm_h: bool
    comm_v: bool
    ops_coincide: bool


def _table_symmetric(tab: Table, n: int) -> bool:
    return all(tab[x][y] == tab[y][x] for x in range(n) for y in range(x + 1, n))


def is_commutative(m: CayleyPair) -> CommutativityReport:
    """Symmetry of each table and whether the two tables are equal."""
    _require_model(m)
    return CommutativityReport(
        comm_h=_table_symmetric(m.table_h, m.n),
        comm_v=_table_symmetric(m.table_v, m.n),
        ops_coincide=m.table_h == m.table_v,
    )


def _element_cancellable(m: CayleyPair, c: int) -> bool:
    # left and right multiplication by c must be injective, for both tables
    n = m.n
    for tab in (m.table_h, m.table_v):
        if len({tab[c][x] for x in range(n)}) != n:
            return False
        if len({tab[x][c] for x in range(n)}) != n:
            return False
    return True


def is_cancellative(m: CayleyPair) -> bool:
    """Multiplication by every element, on any of the four sides, in either
    operation, is injective."""
    _require_model(m)
    return all(_element_cancellable(m, c) for c in range(m.n))


def _power_closure(tab: Table, c: int) -> set[int]:
    """All positive powers of ``c`` under one operation (left-iterated;
    associativity makes bracketing irrelevant)."""
    powers = set()
    cur = c
    while cur not in powers:
        powers.add(cur)
        cur = tab[cur][c]
    return powers


def has_bicancellable_element(m: CayleyPair) -> Optional[int]:
    """Least element whose powers in both directions (itself included) are
    all cancellable on all four sides; None when there is no such element."""
    _require_model(m)
    for c in range(m.n):
        need = _power_closure(m.table_h, c) | _power_closure(m.table_v, c)
        if all(_element_cancellable(m, u) for u in need):
            return c
    return None


@dataclass(frozen=True)
class InverseStructure:
    """Unique-inverse maps for both operations."""

    inv_h: tuple[int, ...]
    inv_v: tuple[int, ...]


def _unique_inverses(tab: Table, n: int) -> Optional[tuple[int, ...]]:
    out = []
    for x in range(n):
        ys = [
            y
            for y in range(n)
            if tab[tab[x][y]][x] == x and tab[tab[y][x]][y] == y
        ]
        if len(ys) != 1:
            return None
        out.append(ys[0])
    return tuple(out)


def inverse_structure(m: CayleyPair) -> Optional[InverseStructure]:
    """Inverse maps when both operations are inverse semigroups.

    For each operation independently, every element must have exactly one
    semigroup inverse (y with xyx = x and yxy = y).  A semigroup with unique
    inverses is an inverse semigroup, so (xy)^-1 = y^-1 x^-1 and idempotents
    commute without a further check.
    """
    _require_model(m)
    inv_h = _unique_inverses(m.table_h, m.n)
    inv_v = _unique_inverses(m.table_v, m.n)
    if inv_h is None or inv_v is None:
        return None
    return InverseStructure(inv_h=inv_h, inv_v=inv_v)


@dataclass(frozen=True)
class UnitReport:
    unit_h: Optional[int]
    unit_v: Optional[int]


def _two_sided_unit(tab: Table, n: int) -> Optional[int]:
    for e in range(n):
        if all(tab[e][x] == x and tab[x][e] == x for x in range(n)):
            return e
    return None


def unit_report(m: CayleyPair) -> UnitReport:
    """Two-sided units per operation, when they exist."""
    _require_model(m)
    return UnitReport(
        unit_h=_two_sided_unit(m.table_h, m.n),
        unit_v=_two_sided_unit(m.table_v, m.n),
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def configured_max_order() -> int:
    """Enumeration cap: ``TILEPROOF_MAX_ORDER`` env var, default 3, hard 4."""
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return _DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise MaxOrderError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}") from exc
    if not 1 <= value <= _HARD_MAX_ORDER:
        raise MaxOrderError(f"{MAX_ORDER_ENV} must be in 1..{_HARD_MAX_ORDER}, got {value}")
    return value


def _check_order(name: str, n: int, max_order: Optional[int]) -> int:
    """The cap, ``max_order`` or else the configured one, checked with ``n``."""
    cap = configured_max_order() if max_order is None else max_order
    if type(cap) is not int or not 1 <= cap <= _HARD_MAX_ORDER:
        raise MaxOrderError(f"max_order must be in 1..{_HARD_MAX_ORDER}")
    if type(n) is not int:
        raise MaxOrderError(f"{name} must be an int, not {n!r}")
    if not 1 <= n <= cap:
        raise MaxOrderError(f"{name} {n} outside configured range 1..{cap}")
    return cap


def _assoc_tables(n: int, h: Optional[Table] = None) -> Iterator[Table]:
    """All associative tables on 0..n-1, lexicographic in row-major order;
    given ``h``, only those that satisfy interchange with it.

    Cells are filled in that order and every partial table is checked, so a
    failed associativity or interchange test cuts the whole subtree.
    """
    cells = [(x, y) for x in range(n) for y in range(n)]
    tab = [[-1] * n for _ in range(n)]

    def fill(k: int):
        if k == len(cells):
            yield tuple(tuple(row) for row in tab)
            return
        x, y = cells[k]
        for val in range(n):
            tab[x][y] = val
            if _first_assoc_failure(tab, n) is None and (
                h is None or _first_interchange_failure(h, tab, n) is None
            ):
                yield from fill(k + 1)
        tab[x][y] = -1

    yield from fill(0)


_CONSTRAINTS = ("commutative", "cancellative", "inverse", "unital")
_HOLDS = AxiomReport(None, None, None)  # the verdict of every enumerated model


def enumerate_models(
    n: int,
    constraints: Sequence[str] = (),
    max_order: Optional[int] = None,
) -> Iterator[CayleyPair]:
    """Yield every labeled double semigroup of order ``n``, lexicographic in
    (h-table, v-table) row-major order, filtered by the given constraint
    names.  No isomorphism reduction.  ``max_order`` overrides the
    environment-configured cap (this is the explicit opt-in for order 4).
    """
    bad = set(constraints) - set(_CONSTRAINTS)
    if bad:
        raise ValueError(f"unknown constraints: {sorted(bad)}")
    _check_order("order", n, max_order)
    wanted = frozenset(constraints)
    for h in _assoc_tables(n):
        for v in _assoc_tables(n, h):
            # trusted construction: the filler wrote every entry in range and
            # established the axioms, so neither __post_init__ nor check_axioms runs
            m = object.__new__(CayleyPair)
            m.__dict__.update(n=n, table_h=h, table_v=v, _axioms=_HOLDS)
            if wanted:
                traits, _ = _classify(m)
                if not all(traits[c] for c in wanted):
                    continue
            yield m


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------

CLAIM_NAMES = ("EH", "C1", "C2", "L", "P")
_TALLIED = ("unital", "cancellative", "inverse", "bicancellable")  # report key order


@dataclass(frozen=True)
class ClaimStatus:
    passed: bool
    checked: int
    counterexample: Optional[CayleyPair] = None


@dataclass(frozen=True)
class ClaimsReport:
    max_order: int
    claims: dict[str, ClaimStatus]
    counts: tuple[dict, ...]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.claims.values())


def _classify(m: CayleyPair) -> tuple[dict[str, bool], dict[str, Optional[bool]]]:
    """Compute each structural predicate once.  Returns the traits (every
    constraint name of ``enumerate_models``, and ``bicancellable``) and, per
    claim, None when it does not apply to the model, else whether it
    holds."""
    comm = is_commutative(m)
    both_comm = comm.comm_h and comm.comm_v
    units = unit_report(m)
    inv = inverse_structure(m)
    traits = {
        "commutative": both_comm,
        "unital": units.unit_h is not None and units.unit_v is not None,
        "cancellative": is_cancellative(m),
        "inverse": inv is not None,
        "bicancellable": has_bicancellable_element(m) is not None,
    }
    results: dict[str, Optional[bool]] = {name: None for name in CLAIM_NAMES}

    if traits["unital"]:
        results["EH"] = (
            units.unit_h == units.unit_v and comm.ops_coincide and both_comm
        )
    if traits["cancellative"]:
        results["C1"] = both_comm
    if traits["bicancellable"]:
        results["C2"] = both_comm
    if inv is not None:
        results["L"] = all(
            inv.inv_v[inv.inv_h[x]] == inv.inv_h[inv.inv_v[x]] for x in range(m.n)
        )
        results["P"] = both_comm and _sandwich_identity(m.table_h, inv.inv_h, m.n) and (
            _sandwich_identity(m.table_v, inv.inv_v, m.n)
        )
    return traits, results


def _sandwich_identity(tab: Table, inv: Sequence[int], n: int) -> bool:
    # A*B * inv(A)*inv(B) * A*B == A*B for all A, B
    for a in range(n):
        for b in range(n):
            ab = tab[a][b]
            lhs = tab[tab[tab[tab[ab][inv[a]]][inv[b]]][a]][b]
            if lhs != ab:
                return False
    return True


def verify_claims(n_max: int, max_order: Optional[int] = None) -> ClaimsReport:
    """Check every claim against every labeled model of order 1..n_max.

    All five claims are theorems, so any counterexample indicates an
    implementation bug; the report still carries it for diagnosis.
    """
    cap = _check_order("n_max", n_max, max_order)
    checked = {name: 0 for name in CLAIM_NAMES}
    failed: dict[str, Optional[CayleyPair]] = {name: None for name in CLAIM_NAMES}
    counts = []
    for n in range(1, n_max + 1):
        tally = {"order": n, "double_semigroups": 0, **dict.fromkeys(_TALLIED, 0)}
        for m in enumerate_models(n, max_order=cap):
            traits, results = _classify(m)
            tally["double_semigroups"] += 1
            for trait in _TALLIED:
                tally[trait] += traits[trait]
            for name, holds in results.items():
                if holds is None:
                    continue
                checked[name] += 1
                if not holds and failed[name] is None:
                    failed[name] = m
        counts.append(tally)
    claims = {
        name: ClaimStatus(
            passed=failed[name] is None,
            checked=checked[name],
            counterexample=failed[name],
        )
        for name in CLAIM_NAMES
    }
    return ClaimsReport(max_order=n_max, claims=claims, counts=tuple(counts))
