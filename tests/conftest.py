import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from tileproof.terms import H, Leaf, Term, V, format_term, from_grid
from oracles import matcher_distances

# default is quick; soak for occasional deep runs: pytest --hypothesis-profile=soak
settings.register_profile("default", max_examples=250, deadline=None)
settings.register_profile("soak", max_examples=2500, deadline=None)
settings.load_profile("default")

_LABELS = "abcdefgh"

_XOR = [[0, 1], [1, 0]]

# Model documents, as JSON values, that ``decode_model`` must refuse with a
# ``CodecError``; each bends ``{"n": 2, "h": _XOR, "v": _XOR}`` in one place.
BAD_MODEL_DOCS = {
    "table is an int": {"n": 2, "h": 5, "v": _XOR},
    "rows are ints": {"n": 2, "h": [5, 5], "v": _XOR},
    "table is null": {"n": 2, "h": None, "v": _XOR},
    "n is a string": {"n": "2", "h": _XOR, "v": _XOR},
    "n is a float": {"n": 2.0, "h": _XOR, "v": _XOR},
    "n is a bool": {"n": True, "h": _XOR, "v": _XOR},
    "bool entry": {"n": 2, "h": [[True, 1], [1, 0]], "v": _XOR},
    "float entry": {"n": 2, "h": [[0.0, 1], [1, 0]], "v": _XOR},
    "entry out of range": {"n": 2, "h": [[0, 2], [1, 0]], "v": _XOR},
    "ragged table": {"n": 2, "h": [[0, 1], [1]], "v": _XOR},
    "empty carrier": {"n": 0, "h": [], "v": []},
    "missing key": {"n": 2, "h": _XOR},
    "root is a list": [2, _XOR, _XOR],
    "rows are strings": {"n": 2, "h": ["ab", "cd"], "v": _XOR},
    "table is an object": {"n": 2, "h": {"ab": 1, "cd": 2}, "v": _XOR},
}


def random_term(rng: random.Random, max_leaves: int, min_leaves: int = 1) -> Term:
    """Uniform-ish random flattened term with a bounded leaf count."""
    n = rng.randint(min_leaves, max_leaves)
    labels = [rng.choice(_LABELS) for _ in range(n)]

    def build(lo: int, hi: int, forbid: str) -> Term:
        count = hi - lo
        if count == 1:
            return Leaf(labels[lo])
        kind = rng.choice([k for k in ("h", "v") if k != forbid])
        # lean toward binary splits: deeper alternation, more interchange redexes
        parts = 2 if rng.random() < 0.6 else rng.randint(2, count)
        cuts = sorted(rng.sample(range(lo + 1, hi), parts - 1))
        bounds = [lo] + cuts + [hi]
        kids = tuple(build(bounds[i], bounds[i + 1], kind) for i in range(parts))
        return H(kids) if kind == "h" else V(kids)

    return build(0, n, "")


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def grid_3x4_sample():
    """The 3x4 grid ``[a b c d; e f g h; i j k l]``, and 100 states of its
    closure mapped to their distance from it: the first state at the largest
    distance, 17, and 99 more drawn with a fixed seed."""
    start = from_grid([list("abcd"), list("efgh"), list("ijkl")])
    distance = matcher_distances(start)
    assert len(distance) == 8258 and max(distance.values()) == 17
    states = sorted(distance, key=format_term)  # set order follows the hash seed
    far = next(s for s in states if distance[s] == 17)
    states.remove(far)
    sample = [far] + random.Random(3412).sample(states, 99)
    return start, {s: distance[s] for s in sample}
