"""Seeded inputs, timed operations and known-answer checks for each workload.

Every operation goes through tileproof's public functions or its in-process
``cli.run``.  An operation is timed on its own; its outputs are checked
afterwards, outside the timed region (and with the tracer paused), against
answers fixed in this file or built from the seeded inputs with the public
constructors.  A wrong or failed output is recorded and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# decide ---------------------------------------------------------------------
BUDGET = 100_000
SWAP_MOVES = 14  # shortest script the search returns for both swaps
CLOSURE_3X4 = 8258  # move closure of a 3x4 grid with distinct labels
DISTINCT_OUT = f"Distinct (closure size {CLOSURE_3X4})\n".encode()
DISTINCT_QUERIES = 64

# claims ---------------------------------------------------------------------
CLAIMS3_COUNTS = [
    {"order": 1, "double_semigroups": 1, "unital": 1, "cancellative": 1,
     "inverse": 1, "bicancellable": 1},
    {"order": 2, "double_semigroups": 46, "unital": 4, "cancellative": 2,
     "inverse": 4, "bicancellable": 4},
    {"order": 3, "double_semigroups": 2293, "unital": 27, "cancellative": 3,
     "inverse": 24, "bicancellable": 27},
]
CLAIMS3_CHECKED = {"C1": 6, "C2": 32, "EH": 32, "L": 29, "P": 29}
O4_BLOCK = 500
# sha256 prefixes over each block of 500 order-4 models, in enumeration
# order: both tables and the relabeling-invariant predicate outcomes.
O4_DIGESTS = (
    "6e0abcf4414a50be", "7c0be7e70dfdfaf7", "8d431814eb61a249", "64d980ed6be2b16e",
    "737d38caaa44c1d4", "1050083a2be67d73", "f788b106a530d217", "4d05032c767e7235",
)
O4_MODELS = O4_BLOCK * len(O4_DIGESTS)  # order-4 models per claims child

# proof-io -------------------------------------------------------------------
CHECKPOINT = "after-sliding-8"
ALPHABET = ("p", "q", "r", "s", "t", "u", "v", "w")
CERTIFICATES = 16
ROUND_TRIP_TERMS = 64
TRIPS_PER_OP = 4
LONG_COPIES = 51  # the 40-move certificate chained 51 times: 2,040 moves
LONG_EVERY = 100  # chains between two verifications of the long certificate
RENDER_SIZE = (49, 17)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

WORKLOADS = ("decide", "claims", "proof-io")

# Which recorded operation kinds feed the generic end-to-end metrics.
LONG_OP = {"decide": "prove_swap_4x4", "claims": "claims_verify_3", "proof-io": "verify_long"}
REPEAT_OP = {"decide": "equal_distinct_3x4", "claims": "order4_model", "proof-io": "script_chain"}


@dataclass
class Ops:
    """Timed operation records ``(kind, seconds, ok)`` and the first failures."""

    tracer: object = None
    records: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, kind, why):
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {why}")

    def run(self, kind, call, check):
        """Time ``call()``; then ``check(result)`` returns None or a reason."""
        span = self.tracer.span("op." + kind) if self.tracer else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.records.append((kind, perf_counter() - t0, False))
            self.fail(kind, repr(exc))
            return
        elapsed = perf_counter() - t0
        with self.tracer.paused() if self.tracer else nullcontext():
            try:
                why = check(result)
            except Exception as exc:
                why = repr(exc)
        self.records.append((kind, elapsed, why is None))
        if why is not None:
            self.fail(kind, why)


def _grid(labels, rows, cols):
    return [list(labels[r * cols:(r + 1) * cols]) for r in range(rows)]


def _grid_text(grid):
    return "[" + "; ".join(" ".join(row) for row in grid) + "]"


def _swapped(grid, p, q):
    out = [list(row) for row in grid]
    (r1, c1), (r2, c2) = p, q
    out[r1][c1], out[r2][c2] = out[r2][c2], out[r1][c1]
    return out


def _distinct_labels(rng, n):
    return [f"t{k}" for k in rng.sample(range(10_000), n)]


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _prove_swap_case(tp, rng, rows, cols):
    grid = _grid(_distinct_labels(rng, rows * cols), rows, cols)
    return SimpleNamespace(
        argv=["prove-swap", _grid_text(grid), "2,2", "2,3", "--budget", str(BUDGET)],
        start=tp.terms.from_grid(grid),
        swapped=tp.terms.from_grid(_swapped(grid, (1, 1), (1, 2))),
    )


def _setup_decide(tp, rng, work_dir):
    border = [(r, c) for r in range(3) for c in range(4) if r in (0, 2) or c in (0, 3)]
    distinct = []
    for _ in range(DISTINCT_QUERIES):
        grid = _grid(_distinct_labels(rng, 12), 3, 4)
        p, q = rng.sample(border, 2)
        distinct.append(["equal", _grid_text(grid), _grid_text(_swapped(grid, p, q)),
                         "--budget", str(BUDGET)])
    return SimpleNamespace(
        lead=_prove_swap_case(tp, rng, 4, 4),
        interior=_prove_swap_case(tp, rng, 3, 4),
        distinct=distinct,
    )


def _check_swap_proof(tp, case):
    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {out[:80]!r} {err[:80]!r}"
        script = tp.formats.decode_script(out)
        if len(script.moves) != SWAP_MOVES:
            return f"{len(script.moves)} moves, expected {SWAP_MOVES}"
        if script.start != case.start:
            return "script starts elsewhere"
        if tp.moves.replay(script)[-1] != case.swapped:
            return "script does not end at the swapped term"
        return None
    return check


def _check_distinct(result):
    code, out, err = result
    if code != 1 or out != DISTINCT_OUT:
        return f"exit {code}: {out[:80]!r}"
    return None


def _run_decide(tp, inputs, ops, role, more):
    cli = tp.cli
    if role == "lead":
        case = inputs.lead
        ops.run("prove_swap_4x4", lambda: cli.run(case.argv), _check_swap_proof(tp, case))
        return
    case = inputs.interior
    ops.run("prove_swap_3x4", lambda: cli.run(case.argv), _check_swap_proof(tp, case))
    k = 0
    while more(k):
        argv = inputs.distinct[k % len(inputs.distinct)]
        ops.run("equal_distinct_3x4", lambda: cli.run(argv), _check_distinct)
        k += 1


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def _setup_claims(tp, rng, work_dir):
    perm = list(range(4))
    while perm == sorted(perm):
        rng.shuffle(perm)
    return SimpleNamespace(perm=perm)


def _check_claims3(result):
    code, out, err = result
    if code != 0:
        return f"exit {code}"
    doc = json.loads(out)
    if doc["counts"] != CLAIMS3_COUNTS:
        return f"counts {doc['counts']}"
    checked = {name: c["checked"] for name, c in doc["claims"].items()}
    if checked != CLAIMS3_CHECKED or not all(c["passed"] for c in doc["claims"].values()):
        return f"claims {doc['claims']}"
    return None


def _relabel(tp, m, perm):
    """The isomorphic copy of ``m`` with element x renamed perm[x]."""
    n = m.n
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x

    def table(tab):
        return tuple(tuple(perm[tab[inv[x]][inv[y]]] for y in range(n)) for x in range(n))

    return tp.models.CayleyPair(n, table(m.table_h), table(m.table_v))


def _model_facts(m, outcome):
    """Bytes for the block digest: the enumerated tables and the outcomes
    that do not depend on how the elements are labelled."""
    comm, canc, bican, inv, units = outcome
    bits = (comm.comm_h, comm.comm_v, comm.ops_coincide, canc, bican is not None,
            inv is not None, units.unit_h is not None, units.unit_v is not None)
    cells = [e for row in m.table_h + m.table_v for e in row]
    return bytes(cells) + bytes(bits)


def _run_claims(tp, inputs, ops, role, more):
    models = tp.models
    ops.run("claims_verify_3", lambda: tp.cli.run(["claims", "verify", "--max-order", "3"]),
            _check_claims3)
    if role == "lead":
        return
    gen = models.enumerate_models(4, max_order=4)
    perm = inputs.perm
    block, block_start = hashlib.sha256(), len(ops.records)
    for k in range(O4_MODELS):
        span = ops.tracer.span("op.order4_model") if ops.tracer else nullcontext()
        try:
            with span:
                t0 = perf_counter()
                m = next(gen)
                t1 = perf_counter()
                r = _relabel(tp, m, perm)
                t2 = perf_counter()
                outcome = (models.is_commutative(r), models.is_cancellative(r),
                           models.has_bicancellable_element(r), models.inverse_structure(r),
                           models.unit_report(r))
                t3 = perf_counter()
        except Exception as exc:  # the remaining models cannot be reached
            ops.records.append(("order4_model", 0.0, False))
            ops.fail("order4_model", repr(exc))
            return
        ops.records.append(("order4_model", (t1 - t0) + (t3 - t2), True))
        block.update(_model_facts(m, outcome))
        if (k + 1) % O4_BLOCK == 0:
            b, digest = k // O4_BLOCK, block.hexdigest()[:16]
            if O4_DIGESTS[b] != digest:
                ops.records[block_start:] = [(kind, s, False)
                                             for kind, s, _ in ops.records[block_start:]]
                ops.fail("order4_model", f"block {b} digest {digest}")
            block, block_start = hashlib.sha256(), len(ops.records)


# ---------------------------------------------------------------------------
# proof-io
# ---------------------------------------------------------------------------


def _random_term(tp, rng, leaves):
    if leaves == 1:
        return tp.terms.Leaf(rng.choice(ALPHABET))
    k = rng.randint(2, min(4, leaves))
    cuts = sorted(rng.sample(range(1, leaves), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
    join = tp.terms.hcat if rng.random() < 0.5 else tp.terms.vcat
    return join([_random_term(tp, rng, s) for s in sizes])


def _certificate(tp, rng, work_dir, name, copies=1):
    terms, moves = tp.terms, tp.moves
    border = [rng.choice(ALPHABET) for _ in range(12)]
    a, b, c, d = (rng.choice(ALPHABET) for _ in range(4))
    script = moves.central_swap_script(border, a, b, c, d)
    if copies > 1:
        script = moves.ProofScript(start=script.start, moves=script.moves * copies,
                                   checkpoints=script.checkpoints)
    data = tp.formats.encode_script(script)
    path = Path(work_dir) / name
    path.write_bytes(data)
    final = terms.from_grid(terms.grid_labels(border, (b, a, c, d) if copies % 2 else (a, b, c, d)))
    mid_rows = terms.grid_labels(border, (b, d, a, c))
    mid = terms.from_grid(mid_rows)
    return SimpleNamespace(
        data=data, path=str(path), start=script.start, final=final, mid=mid,
        mid_rows=mid_rows, mid_at=script.checkpoints[CHECKPOINT],
        expect_lines=[
            f"moves: {len(script.moves)} (all valid)",
            f"checkpoint {CHECKPOINT} @ {script.checkpoints[CHECKPOINT]}: {terms.format_term(mid)}",
            f"final: {terms.format_term(final)}",
        ],
    )


def _setup_proof_io(tp, rng, work_dir):
    certs = [_certificate(tp, rng, work_dir, f"cert{i}.json") for i in range(CERTIFICATES)]
    trips = [_random_term(tp, rng, rng.randint(12, 20)) for _ in range(ROUND_TRIP_TERMS)]
    long = _certificate(tp, rng, work_dir, "long.json", copies=LONG_COPIES)
    return SimpleNamespace(certs=certs, trips=trips, long=long)


def _check_verify_output(cert, code, out):
    if code != 0:
        return f"verify-proof exit {code}"
    lines = out.decode().splitlines()
    missing = [line for line in cert.expect_lines if line not in lines]
    return f"verify-proof output lacks {missing[0][:60]!r}" if missing else None


def _script_chain(tp, cert, trip_terms):
    formats, moves, terms = tp.formats, tp.moves, tp.terms
    decoded = formats.decode_script(cert.data)
    again = formats.encode_script(decoded)
    trajectory = moves.replay(decoded)
    inverse = [moves.invert_move(trajectory[k], m) for k, m in enumerate(decoded.moves)]
    back = moves.replay(moves.ProofScript(start=trajectory[-1], moves=tuple(reversed(inverse))))
    code, out, _ = tp.cli.run(["verify-proof", cert.path])
    art = formats.render_ascii(trajectory[decoded.checkpoints[CHECKPOINT]],
                               formats.RenderOptions(*RENDER_SIZE))
    trips = [terms.parse_term(terms.format_term(t)) for t in trip_terms]
    return again, trajectory, back, code, out, art, trips


def _check_chain(cert, trip_terms):
    def check(result):
        again, trajectory, back, code, out, art, trips = result
        if again != cert.data:
            return "re-encoding differs"
        if trajectory[0] != cert.start or trajectory[-1] != cert.final:
            return "replay does not end at the swapped grid"
        if trajectory[cert.mid_at] != cert.mid:
            return f"{CHECKPOINT} is not the (b,d;a,c) grid"
        if back[-1] != cert.start:
            return "inverse replay does not return to the start"
        why = _check_verify_output(cert, code, out)
        if why:
            return why
        rows = [toks for toks in (_IDENT.findall(line) for line in art.splitlines()) if toks]
        if rows != cert.mid_rows:
            return "rendered labels are not the checkpoint grid"
        if trips != list(trip_terms):
            return "parse(format(t)) != t"
        return None
    return check


def _run_proof_io(tp, inputs, ops, role, more):
    long = inputs.long
    k = 0
    while more(k):
        if k % LONG_EVERY == 0:
            ops.run("verify_long", lambda: tp.cli.run(["verify-proof", long.path]),
                    lambda r: _check_verify_output(long, r[0], r[1]))
        cert = inputs.certs[k % len(inputs.certs)]
        start = (k * TRIPS_PER_OP) % len(inputs.trips)
        trip_terms = inputs.trips[start:start + TRIPS_PER_OP]
        ops.run("script_chain", lambda: _script_chain(tp, cert, trip_terms),
                _check_chain(cert, trip_terms))
        k += 1


SETUP = {"decide": _setup_decide, "claims": _setup_claims, "proof-io": _setup_proof_io}
RUN = {"decide": _run_decide, "claims": _run_claims, "proof-io": _run_proof_io}


def setup(workload, tp, seed, child, work_dir):
    rng = random.Random(f"{workload}/{seed}/{child}")
    return SETUP[workload](tp, rng, work_dir)


def run(workload, tp, inputs, ops, role, more):
    RUN[workload](tp, inputs, ops, role, more)
