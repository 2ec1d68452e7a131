"""File codecs and tiling renderers.

Proof scripts and models travel as JSON documents with a fixed key order, so
encoding is byte-deterministic and ``decode(encode(x)) == x``.  Scripts are
emitted directly, in the layout that ``json.dumps(doc, indent=2)`` gives: with
an indent, that call takes CPython's pure-Python encoder.  On the wire,
move paths and pair indices are 1-based (the documents are meant for human
eyes); in-memory values are 0-based.

The renderers draw the guillotine tiling of a term: ``render_ascii`` on a
character grid with ``+-|`` walls, ``render_svg`` as a standalone SVG 1.1
document.  Both are pure functions of the term and options.  Labels that
start with an underscore stand for nameless elements; the ``named-only``
visibility leaves their cells blank.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Any

from .models import CayleyPair, ClaimsReport
from .moves import Move, ProofScript
from .terms import Term, _tiles, format_term, leaf_paths, parse_term, ParseError

__all__ = [
    "CodecError",
    "RenderError",
    "CanvasTooSmall",
    "CanvasTooLarge",
    "RenderOptions",
    "encode_script",
    "decode_script",
    "encode_model",
    "decode_model",
    "claims_report_json",
    "render_ascii",
    "render_svg",
]


class CodecError(ValueError):
    """Malformed document; ``location`` points at the offending part."""

    def __init__(self, message: str, location: str = ""):
        where = f" at {location}" if location else ""
        super().__init__(f"{message}{where}")
        self.location = location


# ---------------------------------------------------------------------------
# Proof-script codec
# ---------------------------------------------------------------------------


def encode_script(script: ProofScript) -> bytes:
    """The script's document, byte for byte as ``json.dumps(doc, indent=2)``
    writes it.  ``Move`` and ``ProofScript`` make every number an ``int`` and
    every kind ``row`` or ``col``, so only the start term and the checkpoint
    names go through ``json.dumps``."""
    moves = [
        f'{{\n      "kind": "{kind}",\n'
        f'      "path": {_json_block([str(p + 1) for p in path], "[]", 3)},\n'
        f'      "index": {index + 1},\n      "split_first": {split_first},\n'
        f'      "split_second": {split_second}\n    }}'
        for kind, path, index, split_first, split_second in script.moves
    ]
    checkpoints = [f"{json.dumps(name)}: {script.checkpoints[name]}"
                   for name in sorted(script.checkpoints)]
    return (
        f'{{\n  "start": {json.dumps(format_term(script.start))},\n'
        f'  "moves": {_json_block(moves, "[]", 1)},\n'
        f'  "checkpoints": {_json_block(checkpoints, "{}", 1)}\n}}\n'
    ).encode("utf-8")


def _json_block(items: list[str], brackets: str, depth: int) -> str:
    """A list or object ``depth`` levels into an ``indent=2`` document, from
    its items as text; an empty one prints as ``[]`` or ``{}``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{brackets[1]}"


def _load_json(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CodecError("document is not UTF-8", f"byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise CodecError(f"malformed JSON: {exc.msg}", f"offset {exc.pos}") from exc
    except RecursionError as exc:  # the json decoder recurses once per nested value
        raise CodecError("document nests too deeply") from exc


def _expect(cond: bool, message: str, location: str):
    if not cond:
        raise CodecError(message, location)


def _index_error(value: Any) -> str | None:
    """What is wrong with a move number, if it is not an integer of at least 1."""
    if type(value) is not int:  # JSON gives ``bool`` for true and false
        return "expected an integer"
    if value < 1:
        return "indices are 1-based and must be >= 1"
    return None


def decode_script(data: bytes) -> ProofScript:
    """The script a document holds.  This checks the JSON shape and that move numbers are at
    least 1; ``Move`` and ``ProofScript`` check the rest, and a ``ValueError`` of theirs is
    raised again as a ``CodecError``."""
    doc = _load_json(data)
    _expect(isinstance(doc, dict), "expected a JSON object", "document root")
    _expect("start" in doc, "missing key 'start'", "document root")
    _expect("moves" in doc, "missing key 'moves'", "document root")
    _expect(isinstance(doc["start"], str), "expected a term string", "start")
    try:
        start = parse_term(doc["start"])
    except ParseError as exc:
        raise CodecError(f"bad start term: {exc}", "start") from exc

    raw_moves = doc["moves"]
    _expect(isinstance(raw_moves, list), "expected a list", "moves")
    moves, fields = [], itemgetter(*Move._fields)  # a check formats its location only on failure
    for k, raw in enumerate(raw_moves):
        if type(raw) is not dict:
            raise CodecError("expected an object", f"moves[{k}]")
        try:  # the first key missing, in field order
            kind, path, index, split_first, split_second = fields(raw)
        except KeyError as exc:
            raise CodecError(f"missing key {exc.args[0]!r}", f"moves[{k}]") from None
        if type(path) is not list:
            raise CodecError("expected a list", f"moves[{k}].path")
        for i, p in enumerate(path):
            if problem := _index_error(p):
                raise CodecError(problem, f"moves[{k}].path[{i}]")
        if problem := _index_error(index):
            raise CodecError(problem, f"moves[{k}].index")
        for key, s in (("split_first", split_first), ("split_second", split_second)):
            if type(s) is int and s < 1:
                raise CodecError("splits must be >= 1", f"moves[{k}].{key}")
        path = tuple([p - 1 for p in path])
        try:
            moves.append(Move(kind, path, index - 1, split_first, split_second))
        except ValueError as exc:
            raise CodecError(str(exc), f"moves[{k}]") from exc

    try:
        return ProofScript(start, moves, doc.get("checkpoints", {}))
    except ValueError as exc:
        raise CodecError(str(exc), "checkpoints") from exc


# ---------------------------------------------------------------------------
# Model codec
# ---------------------------------------------------------------------------


def _model_doc(m: CayleyPair) -> dict:
    return {
        "n": m.n,
        "h": [list(row) for row in m.table_h],
        "v": [list(row) for row in m.table_v],
    }


def encode_model(m: CayleyPair) -> bytes:
    return (json.dumps(_model_doc(m), indent=2) + "\n").encode("utf-8")


def decode_model(data: bytes) -> CayleyPair:
    """The model a document holds.  Its values are checked by the
    ``CayleyPair`` constructor, whose ``ValueError`` becomes a
    ``CodecError``."""
    doc = _load_json(data)
    _expect(isinstance(doc, dict), "expected a JSON object", "document root")
    for key in ("n", "h", "v"):
        _expect(key in doc, f"missing key {key!r}", "document root")
    try:
        return CayleyPair(doc["n"], doc["h"], doc["v"])
    except ValueError as exc:
        raise CodecError(str(exc)) from exc


def claims_report_json(report: ClaimsReport) -> bytes:
    doc = {
        "max_order": report.max_order,
        "all_passed": report.all_passed,
        "claims": {
            name: {
                "passed": status.passed,
                "checked": status.checked,
                "counterexample": None
                if status.counterexample is None
                else _model_doc(status.counterexample),
            }
            for name, status in sorted(report.claims.items())
        },
        "counts": list(report.counts),
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


class RenderError(ValueError):
    pass


class CanvasTooSmall(RenderError):
    """Some leaf cell would be smaller than 3x3 characters."""


class CanvasTooLarge(RenderError):
    """The character grid would have more than 4,000,000 cells."""


# ``render_ascii`` holds one list entry per character, 8 bytes each on a
# 64-bit build, so the cap bounds the grid at about 32 MB.
_MAX_CANVAS_CELLS = 4_000_000


@dataclass(frozen=True)
class RenderOptions:
    width: int = 80
    height: int = 40
    label_visibility: str = "all"  # or "named-only"

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            # ``type(...) is int`` refuses ``bool``, which would print as ``True``
            if type(value) is not int:
                raise RenderError(f"{name} must be an int, not {reprlib.repr(value)}")
        if self.width < 1 or self.height < 1:
            raise RenderError("width and height must be at least 1")
        if self.label_visibility not in ("all", "named-only"):
            raise RenderError(f"unknown label visibility {reprlib.repr(self.label_visibility)}")


def _round_half_up(num: int, den: int) -> int:
    """``num / den`` rounded half-up, for ``num >= 0`` and ``den > 0``."""
    return (2 * num + den) // (2 * den)


def _visible(label: str, opts: RenderOptions) -> bool:
    return opts.label_visibility == "all" or not label.startswith("_")


def render_ascii(t: Term, opts: RenderOptions = RenderOptions()) -> str:
    """Character rendering of the tiling; walls snap to the grid half-up.

    Raises ``CanvasTooSmall`` unless every leaf cell spans at least 3x3
    characters (borders included), and ``CanvasTooLarge`` if the canvas has
    more than 4,000,000 characters.
    """
    W, Hh = opts.width, opts.height
    if W * Hh > _MAX_CANVAS_CELLS:
        raise CanvasTooLarge(f"canvas of {W}x{Hh} characters exceeds {_MAX_CANVAS_CELLS:,} cells")
    if W < 3 or Hh < 3:
        raise CanvasTooSmall("canvas must be at least 3x3 characters")

    def col(x: Fraction) -> int:
        return _round_half_up(x.numerator * (W - 1), x.denominator)

    def row(y: Fraction) -> int:
        return _round_half_up((y.denominator - y.numerator) * (Hh - 1), y.denominator)

    grid = [[" "] * W for _ in range(Hh)]

    def put(r: int, c: int, ch: str):
        old = grid[r][c]
        grid[r][c] = ch if old in (" ", ch) else "+"

    # a leaf's label sits inside its walls, where no other leaf's wall runs;
    # ``put`` makes each corner a ``+``, as its ``-`` and ``|`` meet there
    for k, (label, (x0, y0, x1, y1)) in enumerate(_tiles(t)):
        c0, c1 = col(x0), col(x1)
        r0, r1 = row(y1), row(y0)
        if c1 - c0 < 2 or r1 - r0 < 2:
            path, _ = next(islice(leaf_paths(t), k, None))
            raise CanvasTooSmall(
                f"cell for leaf at {path} is {r1 - r0 + 1}x{c1 - c0 + 1}; needs 3x3"
            )
        for c in range(c0, c1 + 1):
            put(r0, c, "-")
            put(r1, c, "-")
        for r in range(r0, r1 + 1):
            put(r, c0, "|")
            put(r, c1, "|")
        if not _visible(label, opts):
            continue
        iw = c1 - c0 - 1
        text = label if len(label) <= iw else (label[: iw - 1] + "~" if iw >= 2 else "~")
        r = (r0 + r1) // 2
        c = c0 + 1 + (iw - len(text)) // 2
        for k, ch in enumerate(text):
            grid[r][c + k] = ch

    return "\n".join("".join(line) for line in grid) + "\n"


def _svg_num(fr: Fraction) -> str:
    """Exact decimal with two places, half-up, trailing zeros trimmed."""
    scaled = _round_half_up(fr.numerator * 100, fr.denominator)
    whole, part = divmod(scaled, 100)
    if part == 0:
        return str(whole)
    return f"{whole}.{part:02d}".rstrip("0")


def render_svg(t: Term, opts: RenderOptions = RenderOptions(width=640, height=640)) -> bytes:
    """Standalone SVG document: one bordered rectangle per leaf plus centered
    labels.  Output bytes are identical across runs for fixed input."""
    W, Hh = Fraction(opts.width), Fraction(opts.height)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">',
    ]
    for label, (x0, y0, x1, y1) in _tiles(t):
        x = x0 * W
        y = (1 - y1) * Hh
        w = (x1 - x0) * W
        h = (y1 - y0) * Hh
        lines.append(
            f'<rect x="{_svg_num(x)}" y="{_svg_num(y)}" '
            f'width="{_svg_num(w)}" height="{_svg_num(h)}" '
            f'fill="white" stroke="black" stroke-width="1"/>'
        )
        if _visible(label, opts):
            cx = x + w / 2
            cy = y + h / 2
            lines.append(
                f'<text x="{_svg_num(cx)}" y="{_svg_num(cy)}" '
                f'font-family="monospace" font-size="14" '
                f'text-anchor="middle" dominant-baseline="central">'
                f"{label}</text>"
            )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
