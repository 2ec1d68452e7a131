"""Command-line entry point.

One binary, scriptable subcommands, fixed exit-code contract:

  0  success / claim holds / terms equal / proof valid
  1  negative result (terms distinct, claim fails, proof invalid)
  2  usage or input error
  3  state budget exhausted before a verdict

Machine output (terms, JSON, SVG) goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import reprlib
import sys

from . import decision, formats, models
from .moves import ReplayError, central_swap_script, replay
from .terms import TermError, format_term, parse_term, subterm_at, swap_leaves

__all__ = ["main", "run", "EXIT_OK", "EXIT_NEGATIVE", "EXIT_USAGE", "EXIT_BUDGET"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_DEFAULT_BORDER = tuple(f"e{k}" for k in range(1, 13))
_DEFAULT_MIDDLE = ("a", "b", "c", "d")


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """Carries the help text to ``_dispatch``, which writes it to the
    invocation's own output stream instead of the process's stdout."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use.  Parsing keeps its
    state in a fresh namespace, and help and usage text are formatted anew,
    at the terminal width of the moment, each time they are asked for."""
    parser = _Parser(prog="tileproof", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term and print its canonical form")
    p.set_defaults(handler=_cmd_parse)
    p.add_argument("term")

    p = sub.add_parser("render", help="draw the tiling of a term")
    p.set_defaults(handler=_cmd_render)
    p.add_argument("term")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--named-only", action="store_true",
                   help="leave cells with underscore-prefixed labels blank")

    p = sub.add_parser("verify-proof", help="replay a proof-script file")
    p.set_defaults(handler=_cmd_verify_proof)
    p.add_argument("script_file")

    p = sub.add_parser("emit-central-swap", help="write the canned central-swap certificate")
    p.set_defaults(handler=_cmd_emit_central_swap)
    p.add_argument("--labels", nargs=16, metavar="L",
                   help="all 16 grid labels, row-major (default e1..e12 border, a b c d middle)")
    p.add_argument("-o", "--output", required=True, help="output file, '-' for stdout")

    p = sub.add_parser("prove-swap", help="search for a proof transposing two leaves")
    p.set_defaults(handler=_cmd_prove_swap)
    p.add_argument("term")
    p.add_argument("path1", help="leaf path, 1-based child indices like '2,1' ('.' = root)")
    p.add_argument("path2")
    p.add_argument("--budget", type=int, required=True)

    p = sub.add_parser("equal", help="decide equality of two terms")
    p.set_defaults(handler=_cmd_equal)
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--budget", type=int, required=True)

    p = sub.add_parser("models", help="finite double-semigroup tooling")
    msub = p.add_subparsers(dest="models_command", required=True)
    pe = msub.add_parser("enumerate", help="stream all models of one order as JSON lines")
    pe.set_defaults(handler=_cmd_models_enumerate)
    pe.add_argument("--order", type=int, required=True)
    pe.add_argument("--constraint", action="append", default=[],
                    choices=models._CONSTRAINTS)
    pc = msub.add_parser("check", help="check the axioms of a model file")
    pc.set_defaults(handler=_cmd_models_check)
    pc.add_argument("model_file")

    p = sub.add_parser("claims", help="verify the commutativity theorems over small models")
    csub = p.add_subparsers(dest="claims_command", required=True)
    pv = csub.add_parser("verify")
    pv.set_defaults(handler=_cmd_claims_verify)
    pv.add_argument("--max-order", type=int, required=True)

    return parser


def _parse_cli_path(t, text: str) -> tuple[int, ...]:
    """A path argument of ``t``: 1-based child indices in ASCII digits, '.'
    for the root.  Errors name the path as typed, not in the library's
    0-based form, and cut it, or a bad component, to about 30 characters."""
    text = text.strip()
    if text in ("", "."):
        return ()
    out = []
    for piece in text.split(","):
        try:
            # int() alone would also take '+1', '1_1' and non-ASCII digits
            if not (piece.isascii() and piece.isdigit()):
                raise ValueError(piece)
            k = int(piece)
        except ValueError:
            raise TermError(f"bad path component {reprlib.repr(piece)}")
        if k < 1:
            raise TermError("path components are 1-based")
        out.append(k - 1)
    try:
        subterm_at(t, out)
    except TermError:
        shown = text if len(text) <= 30 else f"{text[:27]}..."
        raise TermError(f"path {shown} does not address a subterm") from None
    return tuple(out)


def _cmd_parse(args, out, err) -> int:
    print(format_term(parse_term(args.term)), file=out)
    return EXIT_OK


def _cmd_render(args, out, err) -> int:
    t = parse_term(args.term)
    visibility = "named-only" if args.named_only else "all"
    side = 80 if args.format == "ascii" else 640
    width = args.width if args.width is not None else side
    height = args.height if args.height is not None else (40 if args.format == "ascii" else side)
    opts = formats.RenderOptions(width, height, visibility)
    if args.format == "ascii":
        out.write(formats.render_ascii(t, opts))
    else:
        out.flush()
        out.buffer.write(formats.render_svg(t, opts))
    return EXIT_OK


def _cmd_verify_proof(args, out, err) -> int:
    with open(args.script_file, "rb") as f:
        script = formats.decode_script(f.read())
    try:
        trajectory = replay(script)
    except ReplayError as exc:
        print(f"invalid proof: {exc}", file=err)
        return EXIT_NEGATIVE
    print(f"start: {format_term(script.start)}", file=out)
    print(f"moves: {len(script.moves)} (all valid)", file=out)
    for name, prefix in sorted(script.checkpoints.items(), key=lambda kv: kv[1]):
        print(f"checkpoint {name} @ {prefix}: {format_term(trajectory[prefix])}", file=out)
    print(f"final: {format_term(trajectory[-1])}", file=out)
    return EXIT_OK


def _cmd_emit_central_swap(args, out, err) -> int:
    labels = tuple(args.labels) if args.labels else None
    if labels:
        border = labels[:4] + (labels[4], labels[7], labels[8], labels[11]) + labels[12:]
        middle = (labels[5], labels[6], labels[9], labels[10])
    else:
        border, middle = _DEFAULT_BORDER, _DEFAULT_MIDDLE
    script = central_swap_script(border, *middle)
    data = formats.encode_script(script)
    if args.output == "-":
        out.flush()
        out.buffer.write(data)
    else:
        with open(args.output, "wb") as f:
            f.write(data)
        print(f"wrote {len(data)} bytes to {args.output}", file=err)
    return EXIT_OK


def _cmd_prove_swap(args, out, err) -> int:
    t = parse_term(args.term)
    p1, p2 = _parse_cli_path(t, args.path1), _parse_cli_path(t, args.path2)
    verdict = decision.equal_exhaustive(t, swap_leaves(t, p1, p2), args.budget)
    if isinstance(verdict, decision.Equal):
        out.flush()
        out.buffer.write(formats.encode_script(verdict.script))
        return EXIT_OK
    return _report_not_equal(verdict, out)


def _cmd_equal(args, out, err) -> int:
    t1, t2 = parse_term(args.term1), parse_term(args.term2)
    verdict = decision.equal_exhaustive(t1, t2, args.budget)
    if isinstance(verdict, decision.Equal):
        print(f"Equal ({len(verdict.script.moves)} moves)", file=out)
        return EXIT_OK
    return _report_not_equal(verdict, out)


def _report_not_equal(verdict, out) -> int:
    """Print a Distinct or Unknown verdict and return its exit code."""
    if isinstance(verdict, decision.Distinct):
        print(f"Distinct (closure size {verdict.closure_size})", file=out)
        return EXIT_NEGATIVE
    print(f"Unknown (explored {verdict.explored}, budget {verdict.budget})", file=out)
    return EXIT_BUDGET


def _cmd_models_enumerate(args, out, err) -> int:
    for m in models.enumerate_models(args.order, tuple(args.constraint)):
        print(json.dumps(formats._model_doc(m), separators=(",", ":")), file=out)
    return EXIT_OK


def _cmd_models_check(args, out, err) -> int:
    with open(args.model_file, "rb") as f:
        m = formats.decode_model(f.read())
    report = models.check_axioms(m)
    doc = {
        "ok": report.ok,
        "assoc_h": {"passed": report.assoc_h is None, "witness": report.assoc_h},
        "assoc_v": {"passed": report.assoc_v is None, "witness": report.assoc_v},
        "interchange": {"passed": report.interchange is None, "witness": report.interchange},
    }
    print(json.dumps(doc, indent=2), file=out)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_claims_verify(args, out, err) -> int:
    report = models.verify_claims(args.max_order)
    out.flush()
    out.buffer.write(formats.claims_report_json(report))
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def _dispatch(argv: list[str], out, err) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _HelpRequested as exc:
        out.write(str(exc))
        return EXIT_OK
    except _UsageError as exc:
        print(exc, file=err)
        return EXIT_USAGE
    try:
        return args.handler(args, out, err)
    except (OSError, ValueError) as exc:  # every input error of the library is a ValueError
        print(f"error: {exc}", file=err)
        return EXIT_USAGE


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Run one invocation, capturing output; returns (code, stdout, stderr)."""
    out_raw, err_raw = io.BytesIO(), io.BytesIO()
    out = io.TextIOWrapper(out_raw, encoding="utf-8", newline="\n")
    err = io.TextIOWrapper(err_raw, encoding="utf-8", newline="\n")
    code = _dispatch(argv, out, err)
    out.flush()
    err.flush()
    return code, out_raw.getvalue(), err_raw.getvalue()


def main(argv=None) -> int:
    return _dispatch(sys.argv[1:] if argv is None else argv, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
