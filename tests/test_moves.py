import pickle
import random

import pytest
from hypothesis import given, strategies as st

from tileproof.formats import decode_script, encode_script
from tileproof.moves import (
    COL,
    ROW,
    BadOrientation,
    BadPair,
    BadPath,
    BadSplit,
    Move,
    MoveError,
    ProofScript,
    ReplayError,
    apply_move,
    enumerate_moves,
    invert_move,
    replay,
)
from tileproof.terms import (
    Leaf,
    TermError,
    V,
    border_word,
    hcat,
    layout,
    leaf_multiset,
    parse_term,
    vcat,
)
from conftest import random_term
from oracles import matcher_neighbors, renormalize, replay_moves, to_tuple


def t(text):
    return parse_term(text)


class TestEnumerate:
    def test_leaf_has_no_moves(self):
        assert list(enumerate_moves(Leaf("a"))) == []

    def test_2x2_has_exactly_one_move(self):
        # hand enumeration: one V node, one adjacent H pair, splits 1,1
        moves = list(enumerate_moves(t("(a|b)/(c|d)")))
        assert moves == [Move(ROW, (), 0, 1, 1)]

    def test_3_by_2_has_exactly_two_moves(self):
        # hand enumeration: split_first ranges over {1, 2}
        moves = list(enumerate_moves(t("(a|b|c)/(d|e)")))
        assert moves == [Move(ROW, (), 0, 1, 1), Move(ROW, (), 0, 2, 1)]

    def test_order_is_path_index_splits(self, rng):
        for _ in range(100):
            term = random_term(rng, max_leaves=10)
            moves = list(enumerate_moves(term))
            keys = [(m.path, m.index, m.split_first, m.split_second) for m in moves]
            assert keys == sorted(keys)
            assert len(set(moves)) == len(moves)


class TestApply:
    def test_2x2_interchange(self):
        term = t("(a|b)/(c|d)")
        [m] = enumerate_moves(term)
        assert apply_move(term, m) == t("(a/c)|(b/d)")

    def test_uneven_split(self):
        # x=a|b, y=c, z=d, w=e
        term = t("(a|b|c)/(d|e)")
        got = apply_move(term, Move(ROW, (), 0, 2, 1))
        assert got == t("((a|b)/d)|(c/e)")

    def test_error_kinds_are_distinct(self):
        with pytest.raises(BadPath):
            apply_move(Leaf("a"), Move(ROW, (0,), 0, 1, 1))
        with pytest.raises(BadOrientation):
            apply_move(t("(a/b)|(c/d)"), Move(ROW, (), 0, 1, 1))
        with pytest.raises(BadPair):
            apply_move(t("a/(c|d)"), Move(ROW, (), 0, 1, 1))
        with pytest.raises(BadSplit):
            apply_move(t("(a|b)/(c|d)"), Move(ROW, (), 0, 2, 1))
        with pytest.raises(BadSplit, match="split_second"):
            apply_move(t("(a|b)/(c|d)"), Move(ROW, (), 0, 1, 2))
        with pytest.raises(BadPath):
            apply_move(t("(a|b)/(c|d)"), Move(ROW, (), 1, 1, 1))

    # (term, move, error class, message) for each check, and for moves that
    # fail several, the first check in order: path, orientation, index, pair,
    # then each split.  ``invert_move`` makes the same checks.
    BAD_MOVES = [
        ("a", (ROW, (0,), 0, 1, 1), BadPath, "path (0,) does not address a node"),
        ("(a|b)/(c|d)", (ROW, (2,), 0, 1, 1), BadPath, "path (2,) does not address a node"),
        ("(a|b)/(c|d)", (ROW, (-1,), 0, 1, 1), BadPath, "path (-1,) does not address a node"),
        ("a|(b/c)", (COL, (0, 0), 0, 1, 1), BadPath, "path (0, 0) does not address a node"),
        ("(a/b)|(c/d)", (ROW, (7,), 5, 9, 9), BadPath, "path (7,) does not address a node"),
        ("(a/b)|(c/d)", (ROW, (), 0, 1, 1), BadOrientation,
         "row move needs a vertical ambient node at path ()"),
        ("(a|b)/(c|d)", (COL, (), 0, 1, 1), BadOrientation,
         "col move needs a horizontal ambient node at path ()"),
        ("a|(b/c)", (ROW, (0,), 0, 1, 1), BadOrientation,
         "row move needs a vertical ambient node at path (0,)"),
        ("(a/b)|(c/d)", (ROW, (), 5, 9, 9), BadOrientation,
         "row move needs a vertical ambient node at path ()"),
        ("(a|b)/(c|d)", (ROW, (), 1, 1, 1), BadPath, "no adjacent pair at index 1 under path ()"),
        ("(a|b)/(c|d)", (ROW, (), -1, 1, 1), BadPath, "no adjacent pair at index -1 under path ()"),
        ("m|((a|b)/(c|d))|n", (ROW, (1,), 1, 1, 1), BadPath,
         "no adjacent pair at index 1 under path (1,)"),
        ("a/(c|d)", (ROW, (), 3, 9, 9), BadPath, "no adjacent pair at index 3 under path ()"),
        ("a/(c|d)", (ROW, (), 0, 1, 1), BadPair, "children 0 and 1 must both be horizontal runs"),
        ("(a/b)|c", (COL, (), 0, 1, 1), BadPair, "children 0 and 1 must both be vertical runs"),
        ("a/(c|d)", (ROW, (), 0, 9, 9), BadPair, "children 0 and 1 must both be horizontal runs"),
        ("(a|b)/(c|d)", (ROW, (), 0, 2, 1), BadSplit, "split_first=2 out of range for arity 2"),
        ("(a|b)/(c|d)", (ROW, (), 0, 0, 1), BadSplit, "split_first=0 out of range for arity 2"),
        ("(a|b)/(c|d)", (ROW, (), 0, 0, 0), BadSplit, "split_first=0 out of range for arity 2"),
        ("(a|b)/(c|d)", (ROW, (), 0, 1, 2), BadSplit, "split_second=2 out of range for arity 2"),
        ("(a/b)|(c/d)", (COL, (), 0, 1, 0), BadSplit, "split_second=0 out of range for arity 2"),
    ]

    @pytest.mark.parametrize("text, fields, kind, message", BAD_MOVES)
    def test_error_class_and_message(self, text, fields, kind, message):
        for f in (apply_move, invert_move):
            with pytest.raises(MoveError) as caught:
                f(t(text), Move(*fields))
            assert (type(caught.value), str(caught.value)) == (kind, message)
        with pytest.raises(ValueError):
            replay_moves(to_tuple(t(text)), [fields])

    def test_deep_path_and_collapse(self):
        # ambient V has exactly two children: the merged child splices upward
        term = t("m|((a|b)/(c|d))|n")
        got = apply_move(term, Move(ROW, (1,), 0, 1, 1))
        assert got == t("m|(a/c)|(b/d)|n")

    def test_multiset_preserved(self, rng):
        for _ in range(300):
            term = random_term(rng, max_leaves=10)
            for m in enumerate_moves(term):
                assert leaf_multiset(apply_move(term, m)) == leaf_multiset(term)


class TestInvert:
    def test_2x2_round_trip(self):
        term = t("(a|b)/(c|d)")
        [m] = enumerate_moves(term)
        inv = invert_move(term, m)
        assert inv.kind == COL
        merged = apply_move(term, m)
        assert [inv] == list(enumerate_moves(merged))
        assert apply_move(merged, inv) == term

    def test_kinds_mirror(self, rng):
        for _ in range(100):
            term = random_term(rng, max_leaves=8)
            for m in enumerate_moves(term):
                inv = invert_move(term, m)
                assert {m.kind, inv.kind} == {ROW, COL}

    @given(st.integers(0, 10**9))
    def test_involution(self, seed):
        term = random_term(random.Random(seed), max_leaves=10)
        for m in enumerate_moves(term):
            stepped = apply_move(term, m)
            assert apply_move(stepped, invert_move(term, m)) == term


class TestCompleteness:
    @given(st.integers(0, 10**9))
    def test_one_step_reachability_matches_matcher(self, seed):
        # brute-force interchange matcher as the independent oracle
        term = random_term(random.Random(seed), max_leaves=6)
        via_moves = {apply_move(term, m) for m in enumerate_moves(term)}
        assert via_moves == matcher_neighbors(term)

    def test_matcher_agrees_on_bigger_terms_too(self, rng):
        for _ in range(50):
            term = random_term(rng, max_leaves=9)
            via_moves = {apply_move(term, m) for m in enumerate_moves(term)}
            assert via_moves == matcher_neighbors(term)


def bfs_closure(term):
    seen = {term}
    frontier = [term]
    while frontier:
        nxt = []
        for s in frontier:
            for m in enumerate_moves(s):
                u = apply_move(s, m)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


class TestBorderInvariant:
    def test_2x2_closure_has_two_elements(self):
        closure = bfs_closure(t("(a|b)/(c|d)"))
        assert closure == {t("(a|b)/(c|d)"), t("(a/c)|(b/d)")}

    @pytest.mark.parametrize("start", ["(a|b)/(c|d)", "(a|b)/(c|d|e)"])
    def test_moves_preserve_border_word_when_all_leaves_touch(self, start):
        reference = border_word(t(start))

        def all_on_border(term):
            lay = layout(term)
            return all(
                r.x0 == 0 or r.y0 == 0 or r.x1 == 1 or r.y1 == 1 for r in lay.values()
            )

        for term in bfs_closure(t(start)):
            assert all_on_border(term)
            for m in enumerate_moves(term):
                stepped = apply_move(term, m)
                assert all_on_border(stepped)
                assert border_word(stepped) == reference

    def test_border_word_is_identical_over_the_3x3_closure(self):
        start = t("[a b c; d e f; g h i]")
        closure = bfs_closure(start)
        assert len(closure) == 118
        assert {border_word(s) for s in closure} == {tuple("ghifcbad")}

    def test_border_word_is_identical_on_a_3x4_sample(self, grid_3x4_sample):
        start, distance = grid_3x4_sample
        assert border_word(start) == tuple("ijklhdcbae")
        assert all(border_word(s) == border_word(start) for s in distance)

    def test_moves_keep_the_border_word_with_repeated_labels(self, rng):
        for _ in range(150):
            term = random_term(rng, max_leaves=8, min_leaves=4)
            reference = border_word(term)
            for m in enumerate_moves(term):
                assert border_word(apply_move(term, m)) == reference


class TestReplay:
    def test_empty_script(self):
        term = t("(a|b)/(c|d)")
        assert replay(ProofScript(start=term)) == [term]

    def test_trajectory(self):
        term = t("(a|b)/(c|d)")
        script = ProofScript(start=term, moves=(Move(ROW, (), 0, 1, 1), Move(COL, (), 0, 1, 1)))
        traj = replay(script)
        assert traj == [term, t("(a/c)|(b/d)"), term]

    def test_corrupted_split_reports_index(self):
        term = t("(a|b|c)/(d|e)")
        script = ProofScript(
            start=term,
            moves=(Move(ROW, (), 0, 1, 1), Move(ROW, (), 0, 5, 1)),
        )
        with pytest.raises(ReplayError) as exc:
            replay(script)
        assert exc.value.index == 1

    def test_checkpoint_past_the_last_move(self):
        # the constructor refuses the script, so neither the codec nor replay sees one
        term = t("(a|b)/(c|d)")
        with pytest.raises(ValueError, match=r"^checkpoint 'late' is 2, not an int 0\.\.1$"):
            ProofScript(start=term, moves=(Move(ROW, (), 0, 1, 1),), checkpoints={"late": 2})


class TestScriptConstructor:
    """``ProofScript`` is the one check of a script's values; each bad value
    here would otherwise break later, in ``replay`` or in the codec."""

    term = t("(a|b)/(c|d)")
    move = Move(ROW, (), 0, 1, 1)

    def test_plain_tuple_move_is_refused(self):
        # replay would read ``m.path`` from it and raise AttributeError
        with pytest.raises(MoveError, match=r"^moves\[0\] = \('row', \(\), 0, 1, 1\) is not a Move$"):
            ProofScript(self.term, (tuple(self.move),))

    def test_start_must_be_a_term(self):
        # replay would blame move 0 for the wrong ambient node
        with pytest.raises(TermError, match=r"^script start must be a term, not '\(a\|b\)/\(c\|d\)'$"):
            ProofScript("(a|b)/(c|d)", (self.move,))

    def test_moves_must_be_a_list_or_tuple(self):
        with pytest.raises(MoveError, match="^script moves must be a list or tuple, not generator$"):
            ProofScript(self.term, (m for m in [self.move]))

    def test_moves_are_stored_as_a_tuple(self):
        script = ProofScript(self.term, [self.move])
        assert script.moves == (self.move,) and type(script.moves) is tuple
        assert script == ProofScript(self.term, (self.move,))

    def test_checkpoints_are_copied(self):
        # a name added to the caller's dict afterwards would skip the check,
        # and an int name next to a str one made encode_script raise TypeError
        checkpoints = {"start": 0}
        script = ProofScript(self.term, (), checkpoints)
        checkpoints[3] = True
        assert script.checkpoints == {"start": 0}
        assert decode_script(encode_script(script)) == script

    @pytest.mark.parametrize(
        "checkpoints,message",
        [
            # encode_script sorts the names, and a mixed set does not sort
            ({"mid": 0, 1: 1}, "checkpoint name 1 is not a string"),
            # would encode as ``true``, which decode_script refuses
            ({"mid": True}, r"checkpoint 'mid' is True, not an int 0\.\.1"),
            ({"mid": 1.0}, r"checkpoint 'mid' is 1\.0, not an int 0\.\.1"),
            ({"mid": -1}, r"checkpoint 'mid' is -1, not an int 0\.\.1"),
            ([("mid", 1)], "checkpoints must be a mapping, not list"),
        ],
    )
    def test_bad_checkpoints_are_refused(self, checkpoints, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProofScript(self.term, (self.move,), checkpoints)

    def test_every_prefix_is_a_checkpoint(self):
        script = ProofScript(self.term, (self.move,), {"start": 0, "end": 1})
        assert replay(script) == [self.term, t("(a/c)|(b/d)")]


def first_states(start, limit):
    """The first ``limit`` terms of ``start``'s closure in breadth-first order."""
    order, seen = [start], {start}
    for s in order:
        if len(order) >= limit:
            break
        for m in enumerate_moves(s):
            u = apply_move(s, m)
            if u not in seen:
                seen.add(u)
                order.append(u)
    return order[:limit]


def is_normal(term):
    return renormalize(to_tuple(term)) == to_tuple(term)


class TestTrustedKernel:
    """Successors are built by slicing and direct interning; the oracles
    normalize and match on their own, so they check the trusted path."""

    @pytest.fixture(scope="class")
    def closure_3x3(self):
        closure = bfs_closure(t("[a b c; d e f; g h i]"))
        assert len(closure) == 118
        return closure

    def test_successors_match_the_matcher_on_the_3x3_closure(self, closure_3x3):
        for term in closure_3x3:
            successors = {apply_move(term, m) for m in enumerate_moves(term)}
            assert successors == matcher_neighbors(term)
            assert all(is_normal(u) for u in successors)

    def test_successors_are_in_normal_form_on_the_3x4_closure(self):
        states = first_states(t("[a b c d; e f g h; i j k l]"), 2000)
        assert len(states) == 2000
        successors = {apply_move(s, m) for s in states for m in enumerate_moves(s)}
        assert all(is_normal(u) for u in successors)

    def test_inverse_round_trips_every_successor(self, closure_3x3):
        for term in closure_3x3:
            for m in enumerate_moves(term):
                assert apply_move(apply_move(term, m), invert_move(term, m)) is term

    def test_no_two_moves_of_a_term_reach_one_successor(self, closure_3x3, grid_3x4_sample):
        # so the first move from a child back to its parent, which ``decision._stitch``
        # takes on side b, is the inverse of the move the search took
        for term in [*closure_3x3, *grid_3x4_sample[1]]:
            successors = [apply_move(term, m) for m in enumerate_moves(term)]
            assert len(set(successors)) == len(successors)

    def test_enumerated_moves_equal_checked_ones(self, closure_3x3):
        for term in closure_3x3:
            for m in enumerate_moves(term):
                checked = Move(m.kind, m.path, m.index, m.split_first, m.split_second)
                assert type(m) is Move
                assert m == checked
                assert hash(m) == hash(checked)
                assert repr(m) == repr(checked)
                back = pickle.loads(pickle.dumps(m))
                assert type(back) is Move and back == m
        assert repr(Move(ROW, (1,), 0, 2, 1)) == (
            "Move(kind='row', path=(1,), index=0, split_first=2, split_second=1)"
        )

    def test_moves_are_read_only(self):
        m = Move(ROW, (), 0, 1, 1)
        with pytest.raises(AttributeError):
            m.kind = COL
        with pytest.raises(AttributeError):
            m.note = "extra"

    def test_unknown_kind_still_raises(self):
        with pytest.raises(MoveError):
            Move("diag", (), 0, 1, 1)
        with pytest.raises(MoveError):
            Move(ROW, (), 0, 1, 1)._replace(kind="diag")

    def test_float_index_or_split_is_refused(self):
        with pytest.raises(MoveError, match=r"^move index must be an int, not 0\.0$"):
            Move(ROW, (), 0.0, 1, 1)
        with pytest.raises(MoveError, match=r"^move split_second must be an int, not 1\.0$"):
            Move(ROW, (), 0, 1, 1.0)

    def test_bool_index_or_path_component_is_refused(self):
        with pytest.raises(MoveError, match="^move index must be an int, not True$"):
            Move(ROW, (), True, 1, 1)
        with pytest.raises(MoveError, match="tuple of ints"):
            Move(ROW, (False,), 0, 1, 1)

    def test_list_path_is_refused(self):
        with pytest.raises(MoveError, match="tuple of ints"):
            Move(ROW, [0], 0, 1, 1)
        with pytest.raises(MoveError, match="tuple of ints"):
            Move(ROW, (0,), 0, 1, 1)._replace(path=[0])

    def test_apply_at_depth_2000_does_not_recurse(self):
        def wrapped(core, levels):
            term = core
            for k in range(levels):
                term = (hcat, vcat)[k % 2]([term, Leaf(f"x{k}")])
            return term

        levels = 2000
        term = wrapped(t("(a|b)/(c|d)"), levels)
        got = apply_move(term, Move(ROW, (0,) * levels, 0, 1, 1))
        # the merged pair is a horizontal run, spliced into its horizontal parent
        assert got is wrapped(t("(a/c)|(b/d)"), levels)
        assert type(got) is V
