"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and time bounds are pinned here, not configurable.
"""

import random
import time
from pathlib import Path

from tileproof.cli import EXIT_NEGATIVE, EXIT_OK, run
from tileproof.decision import Equal, equal_exhaustive, move_closure
from tileproof.formats import (
    RenderOptions,
    decode_model,
    decode_script,
    encode_model,
    encode_script,
    render_svg,
)
from tileproof.models import check_axioms, is_commutative, k_combinator, verify_claims
from tileproof.moves import (
    CENTRAL_SWAP_CHECKPOINT,
    apply_move,
    central_swap_script,
    enumerate_moves,
    invert_move,
    replay,
)
from tileproof.terms import (
    border_word,
    from_grid,
    grid_labels,
    layout,
    leaf_multiset,
    parse_term,
)
from conftest import random_term
from oracles import UnionFind, all_terms_with_leaves, matcher_neighbors

GOLDEN = Path(__file__).parent / "golden"
BORDER = tuple(f"e{k}" for k in range(1, 13))


def report(number, description):
    print(f"\nACCEPTANCE {number:02d} PASS: {description}")


def test_01_certificate_replay(tmp_path):
    """verify-proof on the shipped certificate: valid, right endpoints, <1s."""
    path = tmp_path / "central-swap.json"
    code, _, _ = run(["emit-central-swap", "-o", str(path)])
    assert code == EXIT_OK
    start = time.perf_counter()
    code, out, err = run(["verify-proof", str(path)])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK, err
    script = decode_script(path.read_bytes())
    trajectory = replay(script)
    assert script.start == from_grid(grid_labels(BORDER, ("a", "b", "c", "d")))
    assert trajectory[-1] == from_grid(grid_labels(BORDER, ("b", "a", "c", "d")))
    assert elapsed < 1.0, f"verify-proof took {elapsed:.3f}s"
    report(1, f"certificate replays, endpoints exact, {elapsed * 1000:.0f} ms")


def test_02_checkpoint_fidelity():
    """Term at 'after-sliding-8' equals the grid with middle (b,d; a,c)."""
    script = central_swap_script(BORDER, "a", "b", "c", "d")
    at_checkpoint = replay(script)[script.checkpoints[CENTRAL_SWAP_CHECKPOINT]]
    assert at_checkpoint == from_grid(grid_labels(BORDER, ("b", "d", "a", "c")))
    report(2, "checkpoint after-sliding-8 is exactly the cyclic permutation")


def test_03_non_commutativity_without_units():
    """equal on the 2x2 transposition: Distinct, closure size exactly 2, <0.1s."""
    start = time.perf_counter()
    code, out, _ = run(["equal", "(a|b)/(c|d)", "(b|a)/(c|d)", "--budget", "1000"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_NEGATIVE
    assert out == b"Distinct (closure size 2)\n"
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    report(3, f"2x2 transposition Distinct with closure 2, {elapsed * 1000:.1f} ms")


def test_04_move_soundness_and_involution():
    """10,000 random terms (<=10 leaves): multiset preserved, inverse undoes."""
    rng = random.Random(1729)
    terms_checked = 0
    moves_checked = 0
    for _ in range(10_000):
        term = random_term(rng, max_leaves=10, min_leaves=4)
        reference = leaf_multiset(term)
        terms_checked += 1
        for m in enumerate_moves(term):
            stepped = apply_move(term, m)
            assert leaf_multiset(stepped) == reference
            assert apply_move(stepped, invert_move(term, m)) == term
            moves_checked += 1
    report(4, f"{terms_checked} terms / {moves_checked} moves: soundness + involution, zero failures")


def test_05_decision_completeness_small():
    """Partition of all terms over {a,b,c,d} matches the union-find oracle, <10s."""
    start = time.perf_counter()
    universe = sorted(all_terms_with_leaves(("a", "b", "c", "d")), key=repr)
    uf = UnionFind(universe)
    for term in universe:
        for neighbor in matcher_neighbors(term):
            uf.union(term, neighbor)
    oracle_classes = uf.classes()

    seen = set()
    closure_classes = set()
    for term in universe:
        if term not in seen:
            cls = move_closure(term)
            seen |= cls
            closure_classes.add(frozenset(cls))
    assert closure_classes == oracle_classes

    rng = random.Random(5)
    for t1 in rng.sample(universe, 25):
        for t2 in rng.sample(universe, 8):
            verdict = equal_exhaustive(t1, t2, 100_000)
            assert isinstance(verdict, Equal) == (uf.find(t1) == uf.find(t2))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(
        5,
        f"{len(universe)} terms, {len(oracle_classes)} classes agree with oracle, "
        f"{elapsed:.2f} s",
    )


def test_06_k_combinator_fixture():
    """First-projection pair: axioms pass, both commutativity flags fail."""
    model = k_combinator()
    assert check_axioms(model).ok
    flags = is_commutative(model)
    assert not flags.comm_h and not flags.comm_v
    report(6, "first-projection pair is a non-commutative double semigroup")


def test_07_claims_at_order_two():
    """All 256 table pairs: claims EH, C1, C2, L, P pass; count frozen; <1s."""
    start = time.perf_counter()
    result = verify_claims(2)
    elapsed = time.perf_counter() - start
    assert result.all_passed
    assert [s.passed for s in result.claims.values()] == [True] * 5
    assert result.counts[-1]["double_semigroups"] == 46  # frozen regression value
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(7, f"order-2 scan: all claims pass, 46 models, {elapsed * 1000:.0f} ms")


def test_08_claims_at_order_three():
    """Pruned exhaustive order-3 enumeration: all claims pass, <10 min."""
    start = time.perf_counter()
    result = verify_claims(3)
    elapsed = time.perf_counter() - start
    assert result.all_passed
    for name in ("EH", "C1", "C2", "L", "P"):
        status = result.claims[name]
        assert status.passed and status.counterexample is None
        assert status.checked > 0
    assert result.counts[-1]["double_semigroups"] == 2293  # frozen regression value
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    report(8, f"order-3 scan: all claims pass over 2293 models, {elapsed:.1f} s")


def test_09_border_word_of_five_element_example():
    """Everything in the example's move closure with all leaves on the border
    reads (c,d,e,b,a) counter-clockwise."""
    reference = ("c", "d", "e", "b", "a")
    closure = move_closure(parse_term("(a|b)/(c|d|e)"))
    checked = 0
    for term in closure:
        rects = layout(term).values()
        if all(r.x0 == 0 or r.y0 == 0 or r.x1 == 1 or r.y1 == 1 for r in rects):
            assert border_word(term) == reference
            checked += 1
    assert checked > 0
    report(9, f"border word (c,d,e,b,a) on all {checked}/{len(closure)} closure terms")


def test_10_codec_and_renderer_determinism():
    """Round-trips byte-identical; golden SVG matches byte-for-byte."""
    script = central_swap_script(BORDER, "a", "b", "c", "d")
    data = encode_script(script)
    assert encode_script(decode_script(data)) == data
    model_data = encode_model(k_combinator())
    assert encode_model(decode_model(model_data)) == model_data

    grid = parse_term("[_1 _2 _3 _4; _5 a b _6; _7 _8 _9 _10; _11 _12 _13 _14]")
    svg = render_svg(grid, RenderOptions(400, 400, "named-only"))
    golden = (GOLDEN / "grid4_two_named.svg").read_bytes()
    assert svg == golden
    report(10, "codecs round-trip byte-identically; SVG matches the golden file")
