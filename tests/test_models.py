import gc
import itertools
import os
import random
import re
import weakref

import pytest

from tileproof import models
from tileproof.models import (
    AxiomError,
    CayleyPair,
    MaxOrderError,
    check_axioms,
    enumerate_models,
    has_bicancellable_element,
    inverse_structure,
    is_cancellative,
    is_commutative,
    k_combinator,
    unit_report,
    verify_claims,
    xor_pair,
)
from oracles import naive_double_semigroup

# frozen regression values, cross-checked below where a naive scan is feasible
LABELED_DOUBLE_SEMIGROUPS = {1: 1, 2: 46, 3: 2293}

# labeled semigroups (associative tables) of order n, OEIS A023814; counted
# independently of this code, so they guard the table filler
ASSOCIATIVE_TABLES = {1: 1, 2: 8, 3: 113, 4: 3492}

MIX = CayleyPair(2, ((0, 0), (1, 1)), ((0, 1), (1, 0)))  # (first projection, xor)


class TestCheckAxioms:
    def test_k_combinator_passes(self):
        assert check_axioms(k_combinator()).ok

    def test_xor_pair_passes(self):
        assert check_axioms(xor_pair()).ok

    def test_constructor_refuses_an_empty_carrier(self):
        with pytest.raises(ValueError, match="carrier size must be at least 1"):
            CayleyPair(0, (), ())

    def test_constructor_refuses_a_ragged_table(self):
        with pytest.raises(ValueError, match="table_h must be 2x2"):
            CayleyPair(2, ((0, 1), (0,)), ((0, 1), (1, 0)))

    @pytest.mark.parametrize("h", [5, None, "ab", {0: 0, 1: 0}, [5, 5], [[0, 1], "ab"], [[0, 1], None]])
    def test_constructor_refuses_tables_and_rows_that_are_not_sequences(self, h):
        with pytest.raises(ValueError, match="table_h must be 2x2"):
            CayleyPair(2, h, ((0, 1), (1, 0)))

    @pytest.mark.parametrize("entry", [0.0, "0", None, True])
    def test_constructor_names_an_entry_that_is_not_an_integer(self, entry):
        with pytest.raises(ValueError, match=rf"^table_v\[1\]\[0\] = {re.escape(repr(entry))} is not an integer$"):
            CayleyPair(2, ((0, 1), (1, 0)), ((0, 1), (entry, 0)))

    def test_first_assoc_witness_is_lexicographic(self):
        # naive scan: (1,0,1) is the first of the failing triples for this
        # table ((1*0)*1 = 1 but 1*(0*1) = 0); (1,1,1) fails too but later
        tab = ((0, 1), (0, 0))
        fails = [
            (x, y, z)
            for x in range(2)
            for y in range(2)
            for z in range(2)
            if tab[tab[x][y]][z] != tab[x][tab[y][z]]
        ]
        assert fails == [(1, 0, 1), (1, 1, 1)]
        report = check_axioms(CayleyPair(2, tab, ((0, 0), (0, 0))))
        assert report.assoc_h == (1, 0, 1)
        assert report.assoc_v is None

    def test_interchange_witness(self):
        # AND and OR are both associative but fail interchange at (0,1,1,0)
        and_t = ((0, 0), (0, 1))
        or_t = ((0, 1), (1, 1))
        report = check_axioms(CayleyPair(2, and_t, or_t))
        assert report.assoc_h is None and report.assoc_v is None
        assert report.interchange is not None
        x, y, z, w = report.interchange
        assert or_t[and_t[x][y]][and_t[z][w]] != and_t[or_t[x][z]][or_t[y][w]]

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            check_axioms(CayleyPair(2, ((0, 2), (0, 0)), ((0, 0), (0, 0))))

    def test_non_integer_order_rejected(self):
        xor = ((0, 1), (1, 0))
        with pytest.raises(ValueError, match="integer"):
            CayleyPair(2.0, xor, xor)
        with pytest.raises(ValueError, match="integer"):
            CayleyPair(True, ((0,),), ((0,),))

    def test_agrees_with_naive_oracle_on_random_tables(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 3)
            h = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            v = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            assert check_axioms(CayleyPair(n, h, v)).ok == naive_double_semigroup(h, v, n)


class TestPredicates:
    def test_k_combinator_not_commutative(self):
        r = is_commutative(k_combinator())
        assert not r.comm_h and not r.comm_v

    def test_xor_fully_commutative(self):
        r = is_commutative(xor_pair())
        assert r.comm_h and r.comm_v and r.ops_coincide

    def test_mixed_pair(self):
        # the independent loop oracle confirms this pair really is a model
        assert naive_double_semigroup(MIX.table_h, MIX.table_v, 2)
        assert check_axioms(MIX).ok
        r = is_commutative(MIX)
        assert (r.comm_h, r.comm_v, r.ops_coincide) == (False, True, False)

    def test_cancellative(self):
        assert is_cancellative(xor_pair())
        assert not is_cancellative(k_combinator())
        assert not is_cancellative(MIX)

    def test_bicancellable(self):
        assert has_bicancellable_element(xor_pair()) == 0
        assert has_bicancellable_element(k_combinator()) is None
        trivial = CayleyPair(1, ((0,),), ((0,),))
        assert has_bicancellable_element(trivial) == 0

    def test_inverse_structure(self):
        inv = inverse_structure(xor_pair())
        assert inv is not None and inv.inv_h == (0, 1) and inv.inv_v == (0, 1)
        # in the first-projection model every y satisfies xyx=x and yxy=y,
        # so inverses are not unique
        assert inverse_structure(k_combinator()) is None
        trivial = CayleyPair(1, ((0,),), ((0,),))
        assert inverse_structure(trivial) is not None

    def test_units(self):
        u = unit_report(xor_pair())
        assert u.unit_h == 0 and u.unit_v == 0
        k = unit_report(k_combinator())
        assert k.unit_h is None and k.unit_v is None

    def test_cancellation_forces_both_units_up_to_order_3(self):
        # the argument of the models docstring: some power of a cancellable
        # element is a cancellable idempotent, and that is the unit
        forced = 0
        for n in (1, 2, 3):
            for m in enumerate_models(n):
                if is_cancellative(m) or has_bicancellable_element(m) is not None:
                    u = unit_report(m)
                    assert u.unit_h is not None and u.unit_v is not None, m
                    forced += 1
        assert forced == 32  # C2's checked count up to order 3

    def test_list_built_tables_work_in_every_predicate(self):
        m = CayleyPair(2, [[0, 1], [1, 0]], [[0, 1], [1, 0]])
        assert is_commutative(m) == is_commutative(xor_pair())
        assert is_cancellative(m)
        assert has_bicancellable_element(m) == 0
        assert inverse_structure(m) == inverse_structure(xor_pair())
        assert unit_report(m) == unit_report(xor_pair())
        assert m == xor_pair() and hash(m) == hash(xor_pair())

    def test_predicates_require_a_model(self):
        broken = CayleyPair(2, ((0, 1), (0, 0)), ((0, 0), (0, 0)))
        with pytest.raises(AxiomError):
            is_commutative(broken)
        with pytest.raises(AxiomError):
            inverse_structure(broken)


def _relabel(tab, perm):
    n = len(perm)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[tab[x][y]]
    return tuple(map(tuple, out))


PREDICATES = (is_commutative, is_cancellative, has_bicancellable_element,
              inverse_structure, unit_report)


class TestValidationCounts:
    @pytest.fixture
    def axiom_checks(self, monkeypatch):
        seen = []

        def spy(m, _real=models.check_axioms):
            seen.append(m)
            return _real(m)

        monkeypatch.setattr(models, "check_axioms", spy)
        return seen

    def test_enumerated_models_are_not_rechecked(self, axiom_checks):
        assert verify_claims(3).all_passed
        assert axiom_checks == []

    def test_outside_models_are_checked_once(self, axiom_checks):
        enumerated = next(itertools.islice(enumerate_models(4, max_order=4), 1000, None))
        perm = (2, 0, 3, 1)
        model = CayleyPair(4, _relabel(enumerated.table_h, perm), _relabel(enumerated.table_v, perm))
        for predicate in PREDICATES:
            predicate(model)
        assert axiom_checks == [model]
        successor = tuple(tuple((x + 1) % 4 for _ in range(4)) for x in range(4))
        broken = CayleyPair(4, model.table_h, successor)  # x*y = x+1 is not associative
        for predicate in PREDICATES:
            with pytest.raises(AxiomError):
                predicate(broken)
        assert axiom_checks == [model, broken]

    def test_checked_models_are_freed(self):
        # an order-4 model, so no equal model is left over from another test
        m = next(itertools.islice(enumerate_models(4, max_order=4), 300, None))
        is_commutative(m)
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None


class TestEnumeration:
    @pytest.mark.parametrize("n", sorted(ASSOCIATIVE_TABLES))
    def test_associative_table_counts_match_oeis(self, n):
        assert sum(1 for _ in models._assoc_tables(n)) == ASSOCIATIVE_TABLES[n]

    def test_order_1_has_exactly_one_model(self):
        assert list(enumerate_models(1)) == [CayleyPair(1, ((0,),), ((0,),))]

    def test_order_2_count_matches_naive_full_scan(self):
        # Orders 2 and 3: the associative tables listed by brute force, and the
        # pairs of them that the oracle accepts, are the models, in the same
        # order.  A filter of (h, v) pairs has to reproduce this list.
        for n in (2, 3):
            tables = [
                tuple(tuple(cells[n * i : n * i + n]) for i in range(n))
                for cells in itertools.product(range(n), repeat=n * n)
            ]
            triples = list(itertools.product(range(n), repeat=3))
            assoc = [h for h in tables if all(h[h[x][y]][z] == h[x][h[y][z]] for x, y, z in triples)]
            assert len(assoc) == ASSOCIATIVE_TABLES[n]
            naive = [CayleyPair(n, h, v) for h in assoc for v in assoc if naive_double_semigroup(h, v, n)]
            assert len(naive) == LABELED_DOUBLE_SEMIGROUPS[n]
            assert list(enumerate_models(n, max_order=3)) == naive

    def test_order_3_regression_count_and_post_hoc_validity(self):
        models = list(enumerate_models(3, max_order=3))
        assert len(models) == LABELED_DOUBLE_SEMIGROUPS[3]
        assert all(check_axioms(m).ok for m in models)

    def test_stream_is_lexicographic_and_valid(self):
        models = list(enumerate_models(2))
        keys = [(m.table_h, m.table_v) for m in models]
        assert keys == sorted(keys)
        assert all(check_axioms(m).ok for m in models)

    def test_k_combinator_is_enumerated(self):
        assert k_combinator() in set(enumerate_models(2))

    def test_constraints(self):
        unital = list(enumerate_models(2, ("unital",)))
        assert xor_pair() in unital
        for m in unital:
            u = unit_report(m)
            assert u.unit_h is not None and u.unit_v == u.unit_h
        cancellative = set(enumerate_models(2, ("cancellative",)))
        assert cancellative == {m for m in enumerate_models(2) if is_cancellative(m)}
        with pytest.raises(ValueError):
            list(enumerate_models(2, ("shiny",)))

    @pytest.mark.parametrize("wanted", [
        ("commutative",), ("cancellative",), ("inverse",), ("unital",),
        ("unital", "commutative"), ("commutative", "cancellative", "inverse", "unital"),
    ])
    def test_constraints_agree_with_the_public_predicates(self, wanted):
        def holds(m, name):
            if name == "commutative":
                r = is_commutative(m)
                return r.comm_h and r.comm_v
            if name == "cancellative":
                return is_cancellative(m)
            if name == "inverse":
                return inverse_structure(m) is not None
            u = unit_report(m)
            return u.unit_h is not None and u.unit_v is not None

        expected = [m for m in enumerate_models(2) if all(holds(m, name) for name in wanted)]
        assert expected and list(enumerate_models(2, wanted)) == expected

    def test_order_range_enforced(self):
        with pytest.raises(MaxOrderError):
            list(enumerate_models(4))  # default cap is 3
        with pytest.raises(MaxOrderError):
            list(enumerate_models(0))

    def test_orders_are_ints(self):
        for order in (True, False, 2.0, "2", None):
            with pytest.raises(MaxOrderError, match=f"order must be an int, not {order!r}"):
                list(enumerate_models(order, max_order=3))
        for cap in (0, 5, True, 3.0, "3"):
            with pytest.raises(MaxOrderError, match="max_order must be in 1..4"):
                list(enumerate_models(1, max_order=cap))
        with pytest.raises(MaxOrderError, match="order 0 outside configured range 1..3"):
            list(enumerate_models(0))

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("TILEPROOF_MAX_ORDER", "2")
        with pytest.raises(MaxOrderError):
            list(enumerate_models(3))
        monkeypatch.setenv("TILEPROOF_MAX_ORDER", "banana")
        with pytest.raises(MaxOrderError):
            list(enumerate_models(2))
        for raw in ("0", "5"):
            monkeypatch.setenv("TILEPROOF_MAX_ORDER", raw)
            with pytest.raises(MaxOrderError, match=f"must be in 1..4, got {raw}"):
                list(enumerate_models(1))


class TestClaims:
    @pytest.mark.skipif(
        os.environ.get("TILEPROOF_MAX_ORDER") != "4",
        reason="order-4 scan takes minutes; set TILEPROOF_MAX_ORDER=4 to opt in",
    )
    def test_all_claims_pass_at_order_4(self):
        report = verify_claims(4)
        assert report.all_passed
        assert report.counts[-1]["double_semigroups"] == 247428  # frozen regression value

    def test_all_claims_pass_at_order_2(self):
        report = verify_claims(2)
        assert report.all_passed
        assert report.counts[-1]["double_semigroups"] == LABELED_DOUBLE_SEMIGROUPS[2]
        # every claim actually fired on some model
        assert all(s.checked > 0 for s in report.claims.values())

    def test_orders_are_ints(self):
        for n_max in (True, 2.0, "2"):
            with pytest.raises(MaxOrderError, match=f"n_max must be an int, not {n_max!r}"):
                verify_claims(n_max)
        with pytest.raises(MaxOrderError, match="max_order must be in 1..4"):
            verify_claims(1, max_order=True)
        with pytest.raises(MaxOrderError, match="n_max 4 outside configured range 1..3"):
            verify_claims(4)
        with pytest.raises(MaxOrderError, match="max_order must be in 1..4"):
            verify_claims(1, max_order=5)

    def test_mutant_interchange_violator_is_not_a_counterexample(self):
        # AND/OR fails interchange, so the claim checker refuses it upstream
        mutant = CayleyPair(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)))
        assert not check_axioms(mutant).ok
        with pytest.raises(AxiomError):
            is_commutative(mutant)

    def test_unital_models_have_coinciding_units(self):
        for m in enumerate_models(2, ("unital",)):
            u = unit_report(m)
            assert u.unit_h == u.unit_v

    def test_inverse_maps_are_involutions(self):
        for n in (1, 2, 3):
            for m in enumerate_models(n, ("inverse",)):
                inv = inverse_structure(m)
                assert all(inv.inv_h[inv.inv_h[x]] == x for x in range(m.n))
                assert all(inv.inv_v[inv.inv_v[x]] == x for x in range(m.n))

    def test_unique_inverses_satisfy_the_inverse_semigroup_identities(self):
        # Own loops, sharing nothing with the package: a semigroup in which
        # every element has exactly one inverse is an inverse semigroup, so
        # (xy)^-1 = y^-1 x^-1 and idempotents commute.
        checked = 0
        for n in (1, 2, 3):
            for m in enumerate_models(n):
                maps = []
                for tab in (m.table_h, m.table_v):
                    inv = []
                    for x in range(n):
                        ys = [y for y in range(n)
                              if tab[tab[x][y]][x] == x and tab[tab[y][x]][y] == y]
                        if len(ys) != 1:
                            break
                        inv.append(ys[0])
                    else:
                        for x in range(n):
                            for y in range(n):
                                assert inv[tab[x][y]] == tab[inv[y]][inv[x]]
                                e, f = tab[x][inv[x]], tab[y][inv[y]]
                                assert tab[e][f] == tab[f][e]
                        checked += 1
                        maps.append(tuple(inv))
                found = inverse_structure(m)
                if len(maps) == 2:
                    assert (found.inv_h, found.inv_v) == tuple(maps)
                else:
                    assert found is None
        assert checked > 0
