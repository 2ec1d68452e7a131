"""The canned certificate: a full replay is the verification of the frozen
move table, so every normative property is asserted here."""

import pytest

from tileproof.moves import CENTRAL_SWAP_CHECKPOINT, ProofScript, central_swap_script, replay
from tileproof.terms import from_grid, grid_labels, leaf_multiset
from oracles import replay_moves, to_tuple

BORDER = tuple(f"e{k}" for k in range(1, 13))


@pytest.fixture(scope="module")
def script():
    return central_swap_script(BORDER, "a", "b", "c", "d")


@pytest.fixture(scope="module")
def trajectory(script):
    return replay(script)


def test_start_is_the_grid_with_middle_ab_cd(script):
    assert script.start == from_grid(grid_labels(BORDER, ("a", "b", "c", "d")))


def test_replay_succeeds_and_ends_at_the_transposed_grid(script, trajectory):
    assert trajectory[-1] == from_grid(grid_labels(BORDER, ("b", "a", "c", "d")))
    assert replay_moves(to_tuple(script.start), script.moves) == to_tuple(trajectory[-1])


def test_checkpoint_eight_is_the_cyclic_permutation(script, trajectory):
    prefix = script.checkpoints[CENTRAL_SWAP_CHECKPOINT]
    assert trajectory[prefix] == from_grid(grid_labels(BORDER, ("b", "d", "a", "c")))


def test_the_forty_moves_generate_every_permutation_of_the_middle(script):
    # Moves act on positions, so the first 20 moves map any grid's middle
    # (p, q; r, s) to (q, s; p, r), a 4-cycle of the central cells, and all 40
    # swap the cells (1,1) and (1,2), which sit next to each other on that
    # cycle.  The two generate S4; a breadth-first search finds a word in
    # them for each middle, and replay confirms it.
    half = script.moves[: script.checkpoints[CENTRAL_SWAP_CHECKPOINT]]
    steps = [
        (half, lambda m: (m[1], m[3], m[0], m[2])),
        (script.moves, lambda m: (m[1], m[0], m[2], m[3])),
    ]
    words = {("a", "b", "c", "d"): ()}
    queue = list(words)
    for middle in queue:  # the list grows in breadth-first order as it is read
        for moves, act in steps:
            image = act(middle)
            if image not in words:
                words[image] = words[middle] + moves
                queue.append(image)
    assert len(words) == 24
    for middle, moves in words.items():
        final = replay(ProofScript(start=script.start, moves=moves))[-1]
        assert final == from_grid(grid_labels(BORDER, middle))


def test_leaf_multiset_constant_along_trajectory(trajectory):
    reference = leaf_multiset(trajectory[0])
    assert all(leaf_multiset(t) == reference for t in trajectory)


def test_checkpoints_are_ordered_prefixes(script):
    prefixes = list(script.checkpoints.values())
    assert all(0 <= p <= len(script.moves) for p in prefixes)
    assert CENTRAL_SWAP_CHECKPOINT in script.checkpoints


def test_labels_may_repeat():
    script = central_swap_script(["x"] * 12, "x", "y", "x", "y")
    trajectory = replay(script)
    assert trajectory[-1] == from_grid(grid_labels(["x"] * 12, ("y", "x", "x", "y")))


def test_border_configuration_is_fixed_along_the_trajectory(trajectory):
    # the twelve outer labels stay on the border, in one fixed cyclic order,
    # through every intermediate term; the middle four never reach it
    from tileproof.terms import border_word
    from oracles import geometric_border_word

    reference = border_word(trajectory[0])
    assert set(reference) == set(BORDER)
    for term in trajectory:
        word = border_word(term)
        assert set(word) == set(BORDER)
        assert word == reference == geometric_border_word(term)


def test_every_trajectory_term_lays_out_and_renders(trajectory):
    from tileproof.formats import RenderOptions, render_svg
    from tileproof.terms import layout

    for term in trajectory:
        lay = layout(term)
        assert sum(r.area for r in lay.values()) == 1
        rects = list(lay.values())
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                a, b = rects[i], rects[j]
                assert min(a.x1, b.x1) - max(a.x0, b.x0) <= 0 or (
                    min(a.y1, b.y1) - max(a.y0, b.y0) <= 0
                )
        assert render_svg(term, RenderOptions(400, 400)).startswith(b"<?xml")


def test_custom_labels_are_positional():
    border = [f"B{k}" for k in range(12)]
    script = central_swap_script(border, "p", "q", "r", "s")
    trajectory = replay(script)
    assert trajectory[-1] == from_grid(grid_labels(border, ("q", "p", "r", "s")))
    assert trajectory[script.checkpoints[CENTRAL_SWAP_CHECKPOINT]] == from_grid(
        grid_labels(border, ("q", "s", "p", "r"))
    )
