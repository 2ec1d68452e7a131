import copy
import gc
import pickle
import random
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tileproof import terms
from tileproof.terms import (
    H,
    Leaf,
    ParseError,
    Rect,
    TermError,
    V,
    border_word,
    format_term,
    from_grid,
    grid_labels,
    hcat,
    layout,
    leaf_multiset,
    leaf_paths,
    parse_term,
    subterm_at,
    swap_leaves,
    vcat,
)
from tileproof.decision import move_closure
from tileproof.formats import RenderOptions, render_svg
from tileproof.moves import ROW, Move, apply_move, enumerate_moves
from conftest import random_term
from oracles import geometric_border_word


def t(text):
    return parse_term(text)


class TestParse:
    def test_single_atom(self):
        assert t("a") == Leaf("a")

    def test_vertical_of_rows(self):
        assert t("(a|b)/(c|d|e)") == V((H((Leaf("a"), Leaf("b"))), H((Leaf("c"), Leaf("d"), Leaf("e")))))

    def test_associativity_flattens(self):
        assert t("a|b|c") == t("(a|b)|c") == t("a|(b|c)") == H((Leaf("a"), Leaf("b"), Leaf("c")))
        assert t("a/b/c") == t("(a/b)/c") == t("a/(b/c)")

    def test_pipe_binds_tighter(self):
        assert t("a|b/c|d") == t("(a|b)/(c|d)")

    def test_grid_sugar(self):
        assert t("[a b; c d]") == t("(a|b)/(c|d)")
        assert t("[a]") == Leaf("a")
        assert t("[a b c]") == t("a|b|c")
        assert t("[a; b; c]") == t("a/b/c")

    def test_whitespace_is_free(self):
        assert t("  ( a | b ) / ( c | d )  ") == t("(a|b)/(c|d)")
        assert t("\u3000a|b\x1c") == t("a|b")  # whitespace is what ``str.isspace`` accepts

    def test_empty_input(self):
        with pytest.raises(ParseError):
            t("")
        with pytest.raises(ParseError):
            t("   ")

    def test_errors_carry_byte_offsets(self):
        with pytest.raises(ParseError) as exc:
            t("a|")
        assert exc.value.offset == 2
        with pytest.raises(ParseError) as exc:
            t("(a|b")
        assert exc.value.offset == 4
        with pytest.raises(ParseError) as exc:
            t("a b")
        assert exc.value.offset == 2

    def test_ragged_grid_rejected(self):
        with pytest.raises(ParseError):
            t("[a b; c]")

    def test_grid_cell_must_be_a_label(self):
        with pytest.raises(ParseError, match="expected an identifier") as exc:
            t("[1]")
        assert exc.value.offset == 1

    @pytest.mark.parametrize("text, message, offset", [
        ("é", "expected an identifier", 0),
        ("[a é]", "expected an identifier", 3),
        ("[a;]", "expected an identifier", 3),
        ("[a b", "expected ']'", 4),
        ("(a b)", "expected ')'", 3),
        ("a)", "unexpected trailing input", 1),
        ("[a b; c d e]", "ragged grid: all rows must have the same length", 11),  # at its ']'
        ("a|é", "expected an identifier", 2),
        ("a /", "expected an identifier, '(' or '['", 3),
        ("\u3000\x1c", "empty input", 4),
        # 102 runs deep at the root, whose depth error comes before the trailing ' x'
        ("a/b|" + "(a/b|" * 49 + "[a b; c d]" + ")" * 49 + " x", "nested more than 100 deep", 0),
    ])
    def test_exact_messages_and_offsets(self, text, message, offset):
        with pytest.raises(ParseError) as exc:
            t(text)
        assert (str(exc.value), exc.value.offset) == (f"{message} (at byte {offset})", offset)

    @pytest.mark.parametrize("text", [b"a|b", None, 5])
    def test_text_must_be_a_str(self, text):
        with pytest.raises(TermError, match="^invalid term text .*: expected a str$"):
            t(text)

    def test_deepest_accepted_term_needs_no_recursion(self):
        text = "(a/b|" * 49 + "[a b; c d]" + ")" * 49  # 100 runs deep
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            term = t(text)
        finally:
            sys.setrecursionlimit(limit)
        assert t(format_term(term)) is term


class TestFormat:
    def test_examples(self):
        assert format_term(Leaf("a")) == "a"
        assert format_term(t("a|b")) == "a|b"
        assert format_term(t("(a|b)/(c|d)")) == "(a|b)/(c|d)"
        assert format_term(t("(a/b)|c")) == "(a/b)|c"

    @given(st.integers(0, 10**9))
    def test_parse_format_round_trip(self, seed):
        term = random_term(random.Random(seed), max_leaves=12)
        assert parse_term(format_term(term)) == term


class TestConstructors:
    def test_flattening_is_idempotent(self, rng):
        for _ in range(200):
            term = random_term(rng, max_leaves=10)
            if isinstance(term, Leaf):
                continue
            rebuilt = (hcat if isinstance(term, H) else vcat)(term.children)
            assert rebuilt == term

    def test_invariants_enforced(self):
        with pytest.raises(TermError):
            H((Leaf("a"),))
        with pytest.raises(TermError):
            H((H((Leaf("a"), Leaf("b"))), Leaf("c")))
        with pytest.raises(TermError):
            Leaf("0bad")

    def test_run_children_must_be_terms(self):
        with pytest.raises(TermError, match="must be terms"):
            H(("a", "b"))
        with pytest.raises(TermError, match="must be terms"):
            V((Leaf("a"), None))

    def test_cat_parts_must_be_terms(self):
        with pytest.raises(TermError, match="horizontal composition needs terms, not 'a'"):
            hcat(["a", "b"])
        with pytest.raises(TermError, match="vertical composition needs terms, not 3"):
            vcat([Leaf("a"), 3])
        with pytest.raises(TermError, match="needs terms"):
            hcat([None])
        # a nested run of the same direction still flattens
        assert hcat([t("a|b"), Leaf("c")]) == t("a|b|c")

    def test_from_grid(self):
        assert from_grid([["a"]]) == Leaf("a")
        assert from_grid([["a", "b"], ["c", "d"]]) == t("(a|b)/(c|d)")
        with pytest.raises(TermError):
            from_grid([])
        with pytest.raises(TermError):
            from_grid([["a", "b"], ["c"]])

    def test_empty_composition_is_refused(self):
        with pytest.raises(TermError, match="empty horizontal composition"):
            hcat([])

    def test_grid_labels_need_12_border_and_4_middle_labels(self):
        border = [f"e{k}" for k in range(1, 13)]
        with pytest.raises(TermError, match="12 border labels"):
            grid_labels(border[:11], "abcd")
        with pytest.raises(TermError, match="4 middle labels"):
            grid_labels(border, "abc")


def _node_table_size():
    """Runs in the tables after a sweep: a count shows that no dead term
    outlives one."""
    terms._sweep_all()
    return len(H._table) + len(V._table)


class TestInterning:
    def test_one_object_per_term(self):
        [m] = enumerate_moves(t("(a/c)|(b/d)"))
        ab, cd = H((Leaf("a"), Leaf("b"))), H((Leaf("c"), Leaf("d")))
        ways = [
            t("(a|b)/(c|d)"),
            t("[a b; c d]"),
            from_grid([["a", "b"], ["c", "d"]]),
            V((ab, cd)),
            vcat([hcat([Leaf("a"), Leaf("b")]), cd]),
            apply_move(t("(a/c)|(b/d)"), m),
        ]
        assert all(w is ways[0] for w in ways)
        assert Leaf("a") is subterm_at(ways[0], (0, 0))

    def test_immutable(self):
        term = t("a|b")
        for target, name in ((term, "children"), (term.children[0], "label"), (term, "extra")):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
        assert term == t("a|b")

    def test_copies_and_pickles_are_the_same_object(self):
        for term in (Leaf("a"), t("[a b; c d]"), t("a|(b/c)")):
            assert copy.copy(term) is term
            assert copy.deepcopy(term) is term
            assert pickle.loads(pickle.dumps(term)) is term
            assert repr(pickle.loads(pickle.dumps(term))) == repr(term)

    def test_table_holds_only_live_terms(self):
        gc.collect()
        before = _node_table_size()
        closure = move_closure(from_grid([[f"live{3 * r + c}" for c in range(4)] for r in range(3)]))
        assert len(closure) == 8258
        assert _node_table_size() > before + 8258
        del closure
        gc.collect()
        assert _node_table_size() <= before

    def test_threads_intern_one_copy(self):
        # Every round builds the same terms.  Even rounds start in lockstep,
        # so threads miss the same keys together; odd rounds start as each
        # thread drops its copies, so the last round's terms die while
        # faster threads are already re-interning them.  One more thread
        # sweeps the tables all the while, so the sweep counts and drops
        # terms that the others are taking lock-free.
        threads, rounds = 8, 14
        labels = [[f"th{4 * i + j}" for j in range(4)] for i in range(4)]
        results = [None] * threads
        same = [[] for _ in range(threads)]
        go, built, compared = (threading.Barrier(threads, timeout=60) for _ in range(3))

        def work(k):
            for r in range(rounds):
                if r % 2 == 0:
                    go.wait()
                grid = from_grid(labels)
                layer = [grid] + [apply_move(grid, m) for m in enumerate_moves(grid)]
                layer += [apply_move(u, m) for u in layer[1:] for m in enumerate_moves(u)]
                results[k] = layer
                built.wait()
                same[k].append(len(layer) > 300 and all(a is b for a, b in zip(layer, results[0])))
                compared.wait()
                results[k] = layer = None

        def sweep():
            while not done.is_set():
                terms._sweep_all()

        gc.collect()
        before = _node_table_size()
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        sweeper, done = threading.Thread(target=sweep), threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in [*workers, sweeper]:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            done.set()
            sweeper.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in [*workers, sweeper])
        assert same == [[True] * rounds] * threads
        gc.collect()
        assert _node_table_size() <= before

    def test_sweep_reads_the_calibrated_count_of_a_lone_term(self, monkeypatch):
        # one below the import-time count keeps a term that only its table
        # holds, and the count itself drops it: the sweep reads exactly it
        key = hcat([Leaf("lone0"), Leaf("lone1")]).children
        for lone, kept in ((terms._LONE - 1, True), (terms._LONE, False)):
            monkeypatch.setattr(terms, "_LONE", lone)
            terms._sweep_all()
            assert (key in H._table) is kept

    def test_sweep_puts_back_a_term_taken_between_its_counts(self, monkeypatch):
        # a lock-free reader takes the term just after the sweep has counted
        # it lone; the recount after the delete sees the reader
        key = hcat([Leaf("taken0"), Leaf("taken1")]).children
        taken = []

        def getrefcount(o):
            n = sys.getrefcount(o)
            if type(o) is H and o.children is key and not taken:
                taken.append(o)
            return n

        monkeypatch.setattr(terms, "getrefcount", getrefcount)
        monkeypatch.setattr(terms, "_LONE", terms._lone_count())
        terms._sweep_all()
        monkeypatch.undo()
        assert taken and taken[0] is hcat([Leaf("taken0"), Leaf("taken1")])

    def test_sweep_keeps_a_term_held_outside(self):
        held = t("(held0|held1)/held2")
        terms._sweep_all()
        assert held is t("(held0|held1)/held2")
        assert held.children[0] is t("held0|held1") and held.children[1] is Leaf("held2")

    def test_one_sweep_frees_a_dropped_deep_term(self):
        gc.collect()
        before = _node_table_size()
        term = Leaf("deep")
        for k in range(2000):
            term = (hcat, vcat)[k % 2]([term, Leaf(f"deep{k}")])
        assert len(H._table) + len(V._table) >= before + 2000
        del term
        terms._sweep_all()
        assert len(H._table) + len(V._table) <= before
        assert not {"deep", *(f"deep{k}" for k in range(2000))} & Leaf._table.keys()

    def test_deep_terms_hash_and_compare_without_recursion(self):
        def deep(label):
            term = Leaf("a")
            for k in range(5000):
                term = (vcat if k % 2 else hcat)([Leaf(label), term])
            return term

        t1, t2, u = deep("b"), deep("b"), deep("c")
        assert t1 == t2 and hash(t1) == hash(t2) and t1 != u
        assert len({t1, t2, u}) == 2
        assert t1 is t2

    def test_every_walker_takes_a_2000_level_term(self):
        levels = 2000
        term, text = t("(a|b)/(c|d)"), "(a|b)/(c|d)"
        for k in range(levels):
            term = (hcat, vcat)[k % 2]([term, Leaf(f"x{k}")])
            text = f"({text}){'|/'[k % 2]}x{k}"
        xs = [f"x{k}" for k in range(levels)]
        a_path = (0,) * levels + (0, 0)

        assert format_term(term) == text
        assert repr(term) == f"parse_term({text!r})"
        assert leaf_multiset(term) == Counter("abcd") + Counter(xs)
        paths = list(leaf_paths(term))
        assert len(paths) == levels + 4
        assert paths[0] == (a_path, "a") and paths[-1] == ((1,), "x1999")
        rects = layout(term)
        assert list(rects) == [p for p, _ in paths]
        assert rects[(1,)] == Rect(Fraction(0), Fraction(0), Fraction(1), Fraction(1, levels + 4))
        # every x hugs the right or bottom edge of its level; the core sits top left
        assert border_word(term) == ("x1999", *xs[-2::-2], "b", "a", "c", *xs[1:-1:2])
        assert border_word(term) == geometric_border_word(term)
        assert list(enumerate_moves(term)) == [Move(ROW, (0,) * levels, 0, 1, 1)]
        swapped = swap_leaves(term, a_path, (1,))
        assert dict(leaf_paths(swapped)) == {**dict(paths), a_path: "x1999", (1,): "a"}
        assert swap_leaves(swapped, a_path, (1,)) is term
        assert render_svg(term, RenderOptions(640, 640)).count(b"<rect ") == levels + 4

    def test_walks_that_return_no_paths_build_none(self):
        # a path tuple per node costs nodes x depth: 73 and 36 MB on CPython 3.11
        term = t("(a|b)/(c|d)")
        for k in range(3000):
            term = (hcat, vcat)[k % 2]([term, Leaf(f"x{k}")])
        for walk in (border_word, leaf_multiset):
            tracemalloc.start()
            try:
                walk(term)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, walk.__name__


class TestLeafOps:
    def test_multiset(self):
        assert leaf_multiset(Leaf("a")) == {"a": 1}
        assert leaf_multiset(t("(a|b)/(c|d)")) == {"a": 1, "b": 1, "c": 1, "d": 1}
        assert leaf_multiset(t("(a|a)/(a|b)")) == {"a": 3, "b": 1}

    def test_swap_leaves(self):
        term = t("(a|b)/(c|d)")
        assert swap_leaves(term, (0, 0), (0, 1)) == t("(b|a)/(c|d)")
        assert swap_leaves(term, (0, 0), (0, 0)) == term
        assert swap_leaves(term, [0, 1], [1, 0]) == t("(a|c)/(b|d)")
        assert swap_leaves(Leaf("a"), (), ()) == Leaf("a")

    @pytest.mark.parametrize(
        "path_1,path_2,message",
        [
            ((0,), (1, 0), "both paths must address leaves"),
            ((0, 0), (1,), "both paths must address leaves"),
            ((), (), "both paths must address leaves"),
            ((0, 0), (5,), r"path \(5,\) does not address a subterm"),
            ((9,), (0, 0), r"path \(9,\) does not address a subterm"),
            # the first path is walked first, though the second is bad too
            ((0, 0, 0), (7,), r"path \(0, 0, 0\) does not address a subterm"),
        ],
    )
    def test_swap_leaves_errors(self, path_1, path_2, message):
        with pytest.raises(TermError, match=f"^{message}$"):
            swap_leaves(t("(a|b)/(c|d)"), path_1, path_2)

    def test_subterm_at(self):
        term = t("(a|b)/(c|d)")
        assert subterm_at(term, ()) == term
        assert subterm_at(term, (0, 1)) == Leaf("b")
        assert subterm_at(term, [1, 0]) == Leaf("c")
        for path in ((0, 1, 0), (2,), (-1,), [0, 5]):
            with pytest.raises(TermError) as exc:
                subterm_at(term, path)
            assert str(exc.value) == f"path {tuple(path)} does not address a subterm"


class TestLayout:
    def test_leaf_fills_square(self):
        assert layout(Leaf("a")) == {
            (): Rect(Fraction(0), Fraction(0), Fraction(1), Fraction(1))
        }

    @pytest.mark.parametrize("corners", [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 2, 1), (-1, 0, 1, 1)])
    def test_rect_refuses_degenerate_or_outside(self, corners):
        with pytest.raises(TermError, match="rectangle must be nondegenerate and inside"):
            Rect(*map(Fraction, corners))

    def test_h_pair_splits_width(self):
        lay = layout(t("a|b"))
        assert (lay[(0,)].x0, lay[(0,)].x1) == (0, Fraction(1, 2))
        assert (lay[(1,)].x0, lay[(1,)].x1) == (Fraction(1, 2), 1)

    def test_2x2_quadrants(self):
        lay = layout(t("[a b; c d]"))
        # first row is the top slab
        assert lay[(0, 0)].y0 == Fraction(1, 2) and lay[(0, 0)].x1 == Fraction(1, 2)
        assert lay[(1, 1)].x0 == Fraction(1, 2) and lay[(1, 1)].y1 == Fraction(1, 2)

    def test_tiles_exactly(self, rng):
        for _ in range(150):
            term = random_term(rng, max_leaves=12)
            lay = layout(term)
            assert sum(r.area for r in lay.values()) == 1
            rects = list(lay.values())
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    a, b = rects[i], rects[j]
                    overlap_w = min(a.x1, b.x1) - max(a.x0, b.x0)
                    overlap_h = min(a.y1, b.y1) - max(a.y0, b.y0)
                    assert overlap_w <= 0 or overlap_h <= 0


class TestBorderWord:
    def test_examples(self):
        assert border_word(t("[a b; c d]")) == ("c", "d", "b", "a")
        assert border_word(t("(a|b)/(c|d|e)")) == ("c", "d", "e", "b", "a")
        assert border_word(Leaf("a")) == ("a",)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 1), (2, 2), (3, 4), (4, 4)])
    def test_full_grid_border(self, rows, cols):
        grid = [[f"c{r}_{c}" for c in range(cols)] for r in range(rows)]
        term = from_grid(grid)
        ccw = (
            [(rows - 1, c) for c in range(cols)]
            + [(r, cols - 1) for r in range(rows - 1, -1, -1)]
            + [(0, c) for c in range(cols - 1, -1, -1)]
            + [(r, 0) for r in range(rows)]
        )
        expected, seen = [], set()
        for pos in ccw:
            if pos not in seen:
                seen.add(pos)
                expected.append(grid[pos[0]][pos[1]])
        assert border_word(term) == tuple(expected)

    def test_inner_leaves_excluded(self):
        term = from_grid([["a", "b", "c"], ["d", "x", "e"], ["f", "g", "h"]])
        assert "x" not in border_word(term)

    def test_matches_the_geometric_reading_over_the_3x4_closure(self):
        closure = move_closure(from_grid([list("abcd"), list("efgh"), list("ijkl")]))
        assert len(closure) == 8258
        for term in closure:
            assert border_word(term) == geometric_border_word(term) == tuple("ijklhdcbae")

    def test_matches_the_geometric_reading_on_random_terms(self, rng):
        for _ in range(2000):
            term = random_term(rng, max_leaves=25)
            assert border_word(term) == geometric_border_word(term)

    def test_matches_the_geometric_reading_on_a_20000_leaf_run(self):
        labels = tuple(f"r{i}" for i in range(20000))
        row, column = hcat(map(Leaf, labels)), vcat(map(Leaf, labels))
        assert border_word(row) == geometric_border_word(row) == labels
        assert border_word(column) == geometric_border_word(column) == labels[::-1]
