"""Per-layer metrics of a traced run, derived from the workers' span aggregates.

A traced run does one fixed job (see ``run.Run.traced_job``), so every count
and time here is the cost of the same work on every run, and a faster layer
reads lower.  Each metric is taken from the traced children of the workload
that exercises its layer: ``decide`` for term hashing and concatenation, move
enumeration and application and the search; ``claims`` for the models;
``proof-io`` for parsing and printing terms, inverting and replaying moves,
the formats and the CLI.  So no metric depends on which ``--workload`` was
named, and none reads 0.

Each aggregate row is ``[name, parent name, calls, inclusive s, self s, term
hash calls]`` (see spans.py).  Times are measured under tracing, so they are
inflated by the wrappers; ``trace.overhead_ratio`` says by how much.
"""

from __future__ import annotations

import statistics

from workloads import REPEAT_OP

DECISION = "decision.equal"


class Profile:
    """The span aggregates of one workload's traced children."""

    def __init__(self, traces):
        self.traces = traces
        self.rows = [row for t in traces for row in t["agg"]]

    def _total(self, col, name, parent=None):
        return sum(row[col] for row in self.rows
                   if row[0] == name and (parent is None or row[1] == parent))

    def calls(self, name, parent=None):
        return self._total(2, name, parent)

    def incl(self, name):
        return self._total(3, name)

    def own(self, name):
        return self._total(4, name)

    def hashes(self, name):
        return self._total(5, name)


def _repeat_time(results):
    return sum(s for r in results for k, s, _ in r.get("records", ())
               if k == REPEAT_OP[r["workload"]])


def per_layer(run):
    traced = [r for r in run.results if r.get("trace")]
    decide, claims, proof_io = (
        Profile([r["trace"] for r in traced if r["workload"] == w])
        for w in ("decide", "claims", "proof-io"))

    expanded = decide.calls("moves.enumerate", DECISION)
    generated = decide.calls("moves.apply", DECISION)
    distinct = sum(t["distinct_successors"] for t in decide.traces)
    first = [s for t in claims.traces for s in t["first_next"].get("4", ())]

    return {
        "terms.hash_calls_per_state": (decide.hashes(DECISION) / generated, "ratio"),
        "terms.cat_calls": (decide.calls("terms.cat"), "count"),
        "terms.cat_s": (decide.incl("terms.cat"), "s"),
        "terms.parse_s": (proof_io.incl("terms.parse"), "s"),
        "terms.format_s": (proof_io.incl("terms.format"), "s"),
        "moves.enumerate_calls": (decide.calls("moves.enumerate"), "count"),
        "moves.enumerate_s": (decide.incl("moves.enumerate"), "s"),
        "moves.apply_calls": (decide.calls("moves.apply"), "count"),
        "moves.apply_s": (decide.incl("moves.apply"), "s"),
        "moves.successors_per_expansion": (generated / expanded, "ratio"),
        "moves.invert_calls": (proof_io.calls("moves.invert"), "count"),
        "moves.replay_s": (proof_io.incl("moves.replay"), "s"),
        "decision.self_s": (decide.own(DECISION), "s"),
        "decision.states_expanded": (expanded, "count"),
        "decision.states_per_s": (expanded / decide.incl(DECISION), "1/s"),
        "decision.new_successor_ratio": (distinct / generated, "ratio"),
        "models.first_model_s": (statistics.median(first), "s"),
        "models.enumerate_self_s": (claims.own("models.enumerate"), "s"),
        "models.predicate_calls": (claims.calls("models.predicate"), "count"),
        "models.predicate_s": (claims.incl("models.predicate"), "s"),
        "models.axiom_checks": (claims.calls("models.check_axioms"), "count"),
        "formats.encode_s": (proof_io.incl("formats.encode"), "s"),
        "formats.decode_s": (proof_io.incl("formats.decode"), "s"),
        "formats.render_s": (proof_io.incl("formats.render"), "s"),
        "cli.dispatch_self_s": (proof_io.own("cli.run"), "s"),
        "trace.overhead_ratio": (_repeat_time(traced) / _repeat_time(run.reference), "ratio"),
        "trace.spans_kept": (sum(t["spans_kept"] for t in (r["trace"] for r in traced)), "count"),
    }
