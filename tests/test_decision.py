import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from tileproof import decision, moves
from tileproof.decision import (
    MAX_BUDGET,
    Distinct,
    Equal,
    Unknown,
    equal_exhaustive,
    find_swap_proof,
    move_closure,
)
from tileproof.formats import encode_script
from tileproof.moves import apply_move, enumerate_moves, replay
from tileproof.terms import (
    Leaf,
    TermError,
    border_word,
    from_grid,
    grid_labels,
    hcat,
    leaf_multiset,
    leaf_paths,
    parse_term,
    swap_leaves,
    vcat,
)
from conftest import random_term
from oracles import (
    UnionFind,
    all_terms_with_leaves,
    matcher_distances,
    matcher_neighbors,
    replay_moves,
    to_tuple,
)


def t(text):
    return parse_term(text)


BORDER = tuple(f"e{k}" for k in range(1, 13))
GRID_3X3 = "[a b c; d e f; g h i]"


def relabel(term, renaming):
    if type(term) is Leaf:
        return Leaf(renaming[term.label])
    return type(term)(relabel(c, renaming) for c in term.children)


class TestVerdicts:
    def test_identical_terms(self):
        term = t("(a|b)/(c|d)")
        verdict = equal_exhaustive(term, term, 1)
        assert isinstance(verdict, Equal)
        assert verdict.script.moves == ()

    def test_2x2_transposed_is_distinct_with_closure_two(self):
        # independent oracle: breadth-first closure via the raw matcher
        lhs = t("(a|b)/(c|d)")
        closure = {lhs}
        frontier = [lhs]
        while frontier:
            new = [u for s in frontier for u in matcher_neighbors(s) if u not in closure]
            closure.update(new)
            frontier = new
        assert len(closure) == 2
        verdict = equal_exhaustive(lhs, t("(b|a)/(c|d)"), 1000)
        assert verdict == Distinct(closure_size=2)

    def test_multiset_mismatch_is_distinct_immediately(self):
        assert equal_exhaustive(t("a|b"), t("a|c"), 5) == Distinct(closure_size=0)

    def test_budget_one_on_big_instance_is_unknown(self):
        lhs = from_grid(grid_labels(BORDER, ("a", "b", "c", "d")))
        rhs = from_grid(grid_labels(BORDER, ("b", "a", "c", "d")))
        verdict = equal_exhaustive(lhs, rhs, 1)
        assert isinstance(verdict, Unknown)
        assert verdict.budget == 1

    def test_equal_script_replays_between_the_inputs(self, rng):
        for _ in range(40):
            t1 = random_term(rng, max_leaves=8, min_leaves=2)
            t2 = t1
            for _ in range(rng.randint(1, 4)):
                moves = list(enumerate_moves(t2))
                if not moves:
                    break
                t2 = apply_move(t2, rng.choice(moves))
            verdict = equal_exhaustive(t1, t2, 200_000)
            assert isinstance(verdict, Equal)
            trajectory = replay(verdict.script)
            assert trajectory[0] == t1 and trajectory[-1] == t2

    def test_distinct_is_stable_under_bigger_budget(self, rng):
        checked = 0
        while checked < 25:
            t1 = random_term(rng, max_leaves=6)
            t2 = random_term(rng, max_leaves=6)
            if leaf_multiset(t1) != leaf_multiset(t2):
                continue
            verdict = equal_exhaustive(t1, t2, 2_000)
            if isinstance(verdict, Distinct) and verdict.closure_size > 0:
                checked += 1
                again = equal_exhaustive(t1, t2, 20_000)
                assert isinstance(again, Distinct)

    def test_deterministic(self):
        lhs = t("(a|b|c)/(d|e)/(f|g)")
        rhs = t("((a|b)/d/f)|(c/e/g)")
        first = equal_exhaustive(lhs, rhs, 10_000)
        second = equal_exhaustive(lhs, rhs, 10_000)
        assert first == second
        assert isinstance(first, Equal)


class TestClosure:
    def test_2x2_closure(self):
        assert move_closure(t("(a|b)/(c|d)")) == frozenset({t("(a|b)/(c|d)"), t("(a/c)|(b/d)")})

    def test_3x3_grid_closure_size(self):
        assert len(move_closure(t("[a b c; d e f; g h i]"))) == 118

    def test_budget_overflow_raises(self):
        with pytest.raises(ValueError, match="closure exceeded budget of 3 states"):
            move_closure(t("(a|b|c)/(d|e|f)/(g|h|i)"), budget=3)

    def test_budget_follows_the_search_rule(self):
        assert len(move_closure(t("[a b c; d e f; g h i]"), budget=118)) == 118
        for budget, message in ((0, "at least 1"), (MAX_BUDGET + 1, "at most 2,000,000")):
            with pytest.raises(ValueError, match=f"budget must be {message}"):
                move_closure(t("a"), budget=budget)

    def test_closure_is_its_shapes_times_its_relabeling_group(self):
        # moves see only shapes, so a closure with distinct labels is its
        # shapes, each carrying the same group of label permutations
        blank = dict.fromkeys("abcdefghijkl", "x")

        def shapes(closure):
            by_shape = {}
            for u in closure:
                by_shape.setdefault(relabel(u, blank), []).append(u)
            return by_shape

        closure_3x3 = move_closure(t(GRID_3X3))
        assert len(closure_3x3) == len(shapes(closure_3x3)) == 118
        closure_3x4 = move_closure(t("[a b c d; e f g h; i j k l]"))
        by_shape = shapes(closure_3x4)
        assert (len(closure_3x4), len(by_shape)) == (8258, 4129)
        # two terms per shape, told apart by transposing the interior tiles
        # (1,1) and (1,2) of the grid
        transposition = {x: x for x in "abcdefghijkl"} | {"f": "g", "g": "f"}
        for u, v in by_shape.values():
            assert relabel(u, transposition) == v

    def test_closure_stays_inside_the_leaf_multiset_universe(self):
        universe = all_terms_with_leaves(("a", "b", "c", "d"))
        for term in [t("(a|b)/(c|d)"), t("a|b|c|d"), t("((a/b)|c)/d")]:
            closure = move_closure(term)
            assert closure <= universe


class TestCompletenessAtSmallSize:
    def test_partition_matches_union_find_oracle(self):
        universe = sorted(all_terms_with_leaves(("a", "b", "c", "d")), key=repr)
        uf = UnionFind(universe)
        for term in universe:
            for neighbor in matcher_neighbors(term):
                uf.union(term, neighbor)
        oracle_classes = uf.classes()

        closure_classes = set()
        seen = set()
        for term in universe:
            if term in seen:
                continue
            cls = move_closure(term)
            seen |= cls
            closure_classes.add(frozenset(cls))
        assert closure_classes == oracle_classes

        # spot-check the decision procedure itself against the partition
        rng = random.Random(7)
        sample = rng.sample(universe, 30)
        for t1 in sample:
            for t2 in rng.sample(universe, 10):
                verdict = equal_exhaustive(t1, t2, 100_000)
                same_class = uf.find(t1) == uf.find(t2)
                assert isinstance(verdict, Equal) == same_class


class TestFindSwapProof:
    def test_swap_in_2x2_is_absent(self):
        assert find_swap_proof(t("(a|b)/(c|d)"), (0, 0), (0, 1), 1000) is None

    def test_swap_of_equal_labels_is_the_empty_script(self):
        script = find_swap_proof(t("(a|a)/(c|d)"), (0, 0), (0, 1), 1000)
        assert script is not None and script.moves == ()

    def test_small_budget_on_big_instance_is_absent(self):
        lhs = from_grid(grid_labels(BORDER, ("a", "b", "c", "d")))
        assert find_swap_proof(lhs, (1, 1), (1, 2), 2) is None

    def test_non_leaf_path_rejected(self):
        with pytest.raises(TermError):
            find_swap_proof(t("(a|b)/(c|d)"), (0,), (1, 0), 10)

    def test_found_proof_replays(self):
        # the 4x4 swap is provable; reachable with a generous budget? use a
        # smaller instance instead: swapping the two middle cells of a 3-row
        # band term that is genuinely equal
        term = t("(a|b)/(c|d)")
        script = find_swap_proof(term, (0, 0), (0, 0), 10)
        assert script is not None and replay(script)[-1] == term

    def test_budget_zero_is_refused_even_for_a_trivial_swap(self):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            find_swap_proof(t("(a|b)/(c|d)"), (0, 0), (0, 0), 0)

    def test_checks_come_before_the_border_word(self):
        # the swap changes the border word, so only the checks can raise
        with pytest.raises(TermError):
            find_swap_proof(t("(a|b)/(c|d)"), (0,), (0, 1), 0)
        for budget in (0, MAX_BUDGET + 1):
            with pytest.raises(ValueError, match="budget must be"):
                find_swap_proof(t("(a|b)/(c|d)"), (0, 0), (0, 1), budget)

    def test_a_changed_border_word_needs_no_search(self, monkeypatch):
        monkeypatch.setattr(decision, "equal_exhaustive", None)
        assert find_swap_proof(t("(a|b)/(c|d)"), (0, 0), (0, 1), 1000) is None

    def test_border_swaps_of_a_3x4_grid_leave_the_closure(self):
        # two proofs of Distinct agree: the full closure, and the border word
        start = from_grid([list("abcd"), list("efgh"), list("ijkl")])
        closure = move_closure(start)
        assert len(closure) == 8258
        border = [p for p, _ in leaf_paths(start) if p[0] in (0, 2) or p[1] in (0, 3)]
        pairs = list(itertools.combinations(border, 2))
        assert len(pairs) == 45
        for p1, p2 in pairs:
            swapped = swap_leaves(start, p1, p2)
            assert swapped not in closure
            assert border_word(swapped) != border_word(start)
            assert find_swap_proof(start, p1, p2, 1) is None


class TestBudgetCap:
    def test_over_the_cap_is_refused_before_any_search(self):
        with pytest.raises(ValueError, match="budget must be at most 2,000,000"):
            equal_exhaustive(t("a|b"), t("b|a"), MAX_BUDGET + 1)

    def test_the_cap_itself_is_accepted(self):
        assert equal_exhaustive(t("a|b"), t("b|a"), MAX_BUDGET) == Distinct(closure_size=1)

    @pytest.mark.parametrize("budget", [10.5, 10.0, True, False, None, "10"])
    def test_a_budget_that_is_not_an_int_is_refused(self, budget):
        with pytest.raises(ValueError, match=f"budget must be an int, not {budget!r}"):
            equal_exhaustive(t("a|b"), t("b|a"), budget)
        with pytest.raises(ValueError, match="budget must be an int"):
            find_swap_proof(t("(a|b)/(c|d)"), (0, 0), (0, 1), budget)
        with pytest.raises(ValueError, match="budget must be an int"):
            move_closure(t("a"), budget=budget)

    @pytest.mark.parametrize("k", [300, 1000])
    def test_a_budget_bounds_memory_on_wide_terms(self, k):
        # two rows of k leaves have (k-1)^2 moves; a search that stops at its
        # budget must not build them all, so one bound serves every k
        t1 = vcat([hcat([Leaf(f"a{i}") for i in range(k)]), hcat([Leaf(f"b{i}") for i in range(k)])])
        t2 = swap_leaves(t1, (0, 0), (1, 0))
        tracemalloc.start()
        try:
            assert equal_exhaustive(t1, t2, 10) == Unknown(explored=10, budget=10)
            search_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match="closure exceeded budget of 10 states"):
                move_closure(t1, budget=10)
            closure_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert search_peak < 2_000_000
        assert closure_peak < 2_000_000


class TestShortestScripts:
    def test_script_length_is_the_distance_on_the_3x3_closure(self):
        start = t(GRID_3X3)
        distance = matcher_distances(start)
        assert len(distance) == 118
        for target, d in distance.items():
            verdict = equal_exhaustive(start, target, 1_000)
            assert isinstance(verdict, Equal)
            assert len(verdict.script.moves) == d

    def test_script_length_is_the_distance_on_a_3x4_sample(self, grid_3x4_sample):
        start, distance = grid_3x4_sample
        assert len(distance) == 100 and max(distance.values()) == 17
        for target, d in distance.items():
            verdict = equal_exhaustive(start, target, 100_000)
            assert isinstance(verdict, Equal)
            assert len(verdict.script.moves) == d
            assert replay(verdict.script)[-1] is target
            assert replay_moves(to_tuple(start), verdict.script.moves) == to_tuple(target)


class TestMirroredSearch:
    """When t2 renames t1's labels one-to-one, side b is built from side a's
    moves; the verdicts must be those of the search that enumerates both."""

    def test_same_verdicts_as_the_unmirrored_search(self, rng, monkeypatch):
        cases = []
        grid = from_grid([[f"x{r}{c}" for c in range(4)] for r in range(3)])
        swapped = swap_leaves(grid, (1, 1), (1, 2))
        cases += [(grid, swapped, budget) for budget in range(1, 61)]
        for _ in range(60):
            t1 = random_term(rng, max_leaves=8, min_leaves=2)
            labels = sorted(leaf_multiset(t1))
            image = labels[:]
            rng.shuffle(image)
            t2 = relabel(t1, dict(zip(labels, image)))
            cases.append((t1, t2, rng.choice([3, 30, 300, 100_000])))
        mirrored = [equal_exhaustive(*case) for case in cases]
        monkeypatch.setattr(decision, "_relabels", lambda t1, t2: False)
        assert mirrored == [equal_exhaustive(*case) for case in cases]

    def test_relabeling_detection(self):
        assert decision._relabels(t("(a|b)/(a|c)"), t("(c|a)/(c|b)"))
        assert not decision._relabels(t("(a|b)/(a|c)"), t("(a|b)/(c|a)"))  # a -> a and a -> c
        assert not decision._relabels(t("(a|b)/(c|d)"), t("(a/c)|(b/d)"))  # other shape
        assert not decision._relabels(t("a|b"), t("c|c"))  # not one-to-one
        assert not decision._relabels(t("a|b"), t("c|d|e"))  # an extra leaf

        def comb(bottom, prefix):  # 3,000 levels, alternately H and V
            term = t(bottom)
            for k in range(3000):
                term = (hcat, vcat)[k % 2]([term, Leaf(f"{prefix}{k}")])
            return term

        assert decision._relabels(comb("(a|b)/(c|d)", "x"), comb("(e|f)/(g|h)", "y"))
        # only the deepest pair's shape differs
        assert not decision._relabels(comb("(a|b)/(c|d)", "x"), comb("(e|f|g)/h", "y"))

    def test_side_b_enumerates_no_moves(self, monkeypatch):
        calls = []
        real = decision.enumerate_moves
        monkeypatch.setattr(decision, "enumerate_moves", lambda term: calls.append(term) or real(term))
        start = t(GRID_3X3)
        verdict = equal_exhaustive(start, swap_leaves(start, (0, 0), (0, 2)), 10_000)
        assert verdict == Distinct(closure_size=118)
        assert len(calls) == 118

    def test_tracer_call_points(self, monkeypatch):
        """The benchmark's tracer counts calls by wrapping these module
        globals, so the search and the kernel must call them through their
        modules: one enumeration per expansion, one apply per successor and
        two joins per apply."""
        counts = Counter()

        def spy(module, name, key):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: counts.update([key]) or real(*a))

        spy(decision, "enumerate_moves", "enumerate")
        spy(decision, "apply_move", "apply")
        spy(moves, "hcat", "cat")
        spy(moves, "vcat", "cat")
        start = t(GRID_3X3)
        verdict = equal_exhaustive(start, swap_leaves(start, (0, 0), (0, 2)), 10_000)
        assert verdict == Distinct(closure_size=118)
        assert counts == {"enumerate": 118, "apply": 455, "cat": 910}


class TestPinnedSearch:
    """Verdicts and Equal script bytes of a seeded battery, pinned by one
    sha256: relabelings (mirrored) and other pairs, labels that repeat,
    budgets that run out and budgets that decide, and the 4x4 central swap.
    An Equal script is only one of the shortest, so its bytes pin the move
    order and the parents the search keeps."""

    DIGEST = "b96a5e1705a480f1255a0fd99f0b927b83f56728ef2ee206e032d9d3e23b4dec"

    @staticmethod
    def battery():
        rng = random.Random(1515)
        cases = []
        for _ in range(150):
            t1 = random_term(rng, max_leaves=8, min_leaves=3)
            if rng.random() < 0.4:
                labels = sorted(leaf_multiset(t1))
                image = labels[:]
                rng.shuffle(image)
                t2 = relabel(t1, dict(zip(labels, image)))
            else:
                t2 = t1
                for _ in range(rng.randint(1, 6)):
                    moves_here = list(enumerate_moves(t2))
                    if moves_here:
                        t2 = apply_move(t2, rng.choice(moves_here))
                if rng.random() < 0.3:
                    p1, p2 = rng.sample([p for p, _ in leaf_paths(t2)], 2)
                    t2 = swap_leaves(t2, p1, p2)
            cases.append((t1, t2, rng.choice([1, 3, 10, 40, 200, 100_000])))
        grid = from_grid([list("abcd"), list("efgh"), list("ijkl")])
        repeats = from_grid([list("abab"), list("cdcd"), list("abab")])
        cases += [(grid, swap_leaves(grid, (1, 1), (1, 2)), b) for b in (50, 5_000, 100_000)]
        cases += [(grid, swap_leaves(grid, (0, 0), (2, 3)), 100_000)]
        cases += [(repeats, swap_leaves(repeats, (1, 1), (1, 2)), b) for b in (50, 100_000)]
        cases += [(repeats, swap_leaves(repeats, (0, 0), (1, 0)), 100_000)]
        rows = [list(BORDER[:4]), [BORDER[4], "a", "b", BORDER[5]],
                [BORDER[6], "c", "d", BORDER[7]], list(BORDER[8:])]
        swap = from_grid(rows)
        cases.append((swap, swap_leaves(swap, (1, 1), (1, 2)), 100_000))
        return cases

    def test_verdicts_and_script_bytes(self):
        digest = hashlib.sha256()
        kinds = Counter()
        for t1, t2, budget in self.battery():
            verdict = equal_exhaustive(t1, t2, budget)
            kinds[decision._relabels(t1, t2), type(verdict).__name__] += 1
            if isinstance(verdict, Equal):
                assert replay(verdict.script)[-1] is t2
                assert replay_moves(to_tuple(t1), verdict.script.moves) == to_tuple(t2)
                digest.update(encode_script(verdict.script))
            else:
                digest.update(repr(verdict).encode())
            digest.update(b"\0")
        assert isinstance(verdict, Equal) and len(verdict.script.moves) == 14  # the 4x4 swap
        assert kinds == {
            (True, "Equal"): 59, (True, "Distinct"): 47, (True, "Unknown"): 6,
            (False, "Equal"): 21, (False, "Distinct"): 13, (False, "Unknown"): 12,
        }
        assert digest.hexdigest() == self.DIGEST
