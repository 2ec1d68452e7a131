"""In-memory span tracer that wraps tileproof's public functions from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each traced
function in every ``tileproof`` module namespace that binds it (so calls made
between modules, and a module's calls to its own globals, go through the
wrapper), and counts ``__hash__`` calls on the term classes.

A span is (id, parent id, root id, name, start, end).  Every span feeds an
aggregate keyed by (name, parent name) holding calls, inclusive time, self
time (inclusive minus the time covered by child spans) and term hash calls.
Spans whose names are in ``FOLDED`` run hundreds of thousands of times per
operation; they feed the aggregates but are not kept one by one, so the
span list stays a few megabytes.  ``dump`` writes the kept spans as JSON
lines when the worker ends.
"""

from __future__ import annotations

import json
import sys
import typing
from contextlib import contextmanager
from time import perf_counter

# (module, function) -> span name.  Bindings of the same function object in
# other tileproof modules are replaced too, except where ``ONLY_IN`` narrows
# the replacement to one importing module.
TRACED = {
    ("terms", "parse_term"): "terms.parse",
    ("terms", "format_term"): "terms.format",
    ("terms", "hcat"): "terms.cat",
    ("terms", "vcat"): "terms.cat",
    ("moves", "enumerate_moves"): "moves.enumerate",
    ("moves", "apply_move"): "moves.apply",
    ("moves", "invert_move"): "moves.invert",
    ("moves", "replay"): "moves.replay",
    ("decision", "equal_exhaustive"): "decision.equal",
    ("models", "enumerate_models"): "models.enumerate",
    ("models", "is_commutative"): "models.predicate",
    ("models", "is_cancellative"): "models.predicate",
    ("models", "has_bicancellable_element"): "models.predicate",
    ("models", "inverse_structure"): "models.predicate",
    ("models", "unit_report"): "models.predicate",
    ("models", "check_axioms"): "models.check_axioms",
    ("models", "verify_claims"): "models.verify_claims",
    ("formats", "encode_script"): "formats.encode",
    ("formats", "decode_script"): "formats.decode",
    ("formats", "render_ascii"): "formats.render",
    ("formats", "claims_report_json"): "formats.claims_json",
    ("cli", "run"): "cli.run",
}

# ``terms.cat`` measures the concatenations that the move engine performs;
# the parser's own hcat/vcat calls stay inside ``terms.parse``.
ONLY_IN = {("terms", "hcat"): "moves", ("terms", "vcat"): "moves"}

# Generator functions: each ``next`` is one span, so a lazy enumeration is
# charged to the consumer that pulls it.
GENERATORS = {"models.enumerate"}

FOLDED = {
    "terms.cat",
    "moves.enumerate",
    "moves.apply",
    "moves.invert",
    "models.enumerate",
    "models.predicate",
    "models.check_axioms",
}

DECISION = "decision.equal"
SUCCESSOR = "moves.apply"


class _Frame:
    __slots__ = ("name", "start", "child", "hashes", "sid", "rec", "root")

    def __init__(self, name, hashes, sid, rec, root):
        self.name = name
        self.start = 0.0
        self.child = 0.0  # time covered by child spans
        self.hashes = hashes
        self.sid = sid
        self.rec = rec  # id of the nearest kept span: this one unless folded
        self.root = root


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        # (name, parent name) -> [calls, inclusive s, self s, term hash calls]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.hash_cell = [0]
        self.first_next: dict[int, list] = {}  # enumeration order -> first-next seconds
        self.distinct_successors = 0
        self._successors: set | None = None
        self._next_id = 0
        self._on = True

    # -- spans -----------------------------------------------------------

    def _enter(self, name):
        stack = self.stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id += 1
        if parent is None:
            rec = root = sid
        else:
            rec, root = (parent.rec if name in FOLDED else sid), parent.root
        frame = _Frame(name, self.hash_cell[0], sid, rec, root)
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dur
        key = (frame.name, parent.name if parent is not None else None)
        a = self.agg.get(key)
        if a is None:
            a = self.agg[key] = [0, 0.0, 0.0, 0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame.child
        a[3] += self.hash_cell[0] - frame.hashes
        if frame.name not in FOLDED:
            up = parent.rec if parent is not None else None
            self.spans.append((frame.sid, up, frame.root, frame.name, frame.start, end))

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one whole operation."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def paused(self):
        """Run correctness checks without counting them as program work."""
        was, hashes = self._on, self.hash_cell[0]
        self._on = False
        try:
            yield
        finally:
            self._on = was
            self.hash_cell[0] = hashes

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer._on or (stack and stack[-1].name == name):
                return fn(*args, **kwargs)  # paused, or a recursive call
            frame = tracer._enter(name)
            if name == DECISION:
                return tracer._decision(frame, fn, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if name == SUCCESSOR and tracer._successors is not None and stack \
                    and stack[-1].name == DECISION:
                tracer._count_successor(result)
            return result

        return traced

    def _decision(self, frame, fn, args, kwargs):
        """Track the distinct successors one equality search generates.

        The set holds terms the search already keeps alive; hashing them for
        the set is not charged to the program's hash count.
        """
        outer = self._successors
        self._successors = set()
        for start in args[:2]:
            self._count_successor(start)
        starts = len(self._successors)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)
            self.distinct_successors += len(self._successors) - starts
            self._successors = outer

    def _count_successor(self, term):
        t0, hashes = perf_counter(), self.hash_cell[0]
        self._successors.add(term)
        self.hash_cell[0] = hashes
        self.stack[-1].child += perf_counter() - t0  # not the search's own time

    def _wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer._on:
                return it
            order = args[0] if args else kwargs.get("n")
            return tracer._pull(name, it, order)

        return traced

    def _pull(self, name, it, order):
        first = True
        while True:
            t0 = perf_counter()
            frame = self._enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            if first:
                first = False
                self.first_next.setdefault(order, []).append(perf_counter() - t0)
            yield item

    def _count_hashes(self, cls):
        orig = cls.__hash__
        cell = self.hash_cell

        def counted(obj, _orig=orig, _cell=cell):
            _cell[0] += 1
            return _orig(obj)

        cls.__hash__ = counted

    def install(self, pkg_name="tileproof"):
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if name == pkg_name or name.startswith(pkg_name + ".")
        }
        for (home, attr), span_name in TRACED.items():
            orig = getattr(modules[home], attr)
            wrapped = (self._wrap_generator if span_name in GENERATORS else self._wrap)(
                span_name, orig)
            only = ONLY_IN.get((home, attr))
            for mod_name, mod in modules.items():
                if only is not None and mod_name != only:
                    continue
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
        term_types = typing.get_args(modules["terms"].Term) or (modules["terms"].Term,)
        for cls in term_types:
            self._count_hashes(cls)

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "agg": [[name, parent, *vals] for (name, parent), vals in self.agg.items()],
            "first_next": {str(k): v for k, v in self.first_next.items()},
            "distinct_successors": self.distinct_successors,
            "spans_kept": len(self.spans),
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, root, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "root": root,
                                    "name": name, "start": start, "end": end}) + "\n")
