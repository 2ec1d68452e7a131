import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tileproof import cli, models

from tileproof.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, run
from tileproof.formats import decode_script, encode_model
from tileproof.models import CayleyPair, k_combinator
from tileproof.moves import replay
from tileproof.terms import from_grid, grid_labels, parse_term
from conftest import BAD_MODEL_DOCS

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParseCommand:
    def test_canonicalizes(self):
        code, out, err = run(["parse", "(a|b)|c"])
        assert (code, out) == (EXIT_OK, b"a|b|c\n")

    def test_syntax_error_is_exit_2(self):
        code, out, err = run(["parse", "a||b"])
        assert code == EXIT_USAGE
        assert b"error" in err and out == b""

    @pytest.mark.parametrize("module", ["tileproof", "tileproof.cli"])
    def test_python_dash_m(self, module):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", module, "parse", "(a|b)|c"], capture_output=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, b"a|b|c\n", b"")
        done = subprocess.run([sys.executable, "-m", module, "parse", "a||b"], capture_output=True, env=env)
        assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")


def _alternating(levels):
    """``(b/(b|(...a...)))``: every parenthesis opens a new term level."""
    text = "a"
    for k in range(levels):
        text = f"(b/{text})" if k % 2 else f"(b|{text})"
    return text


class TestDeepNesting:
    """Nesting past the parser's cap is an input error at the first
    parenthesis that is too deep, never a crash."""

    def check(self, argv, offset):
        code, out, err = run(argv)
        assert (code, out) == (EXIT_USAGE, b"")
        assert f"nested more than 100 deep (at byte {offset})".encode() in err
        assert b"Traceback" not in err

    def test_nested_parentheses(self):
        self.check(["parse", "(" * 3000 + "a" + ")" * 3000], 100)

    def test_alternating_directions(self):
        self.check(["parse", _alternating(1200)], 300)

    def test_equal_on_deep_term(self):
        self.check(["equal", _alternating(400), _alternating(400), "--budget", "10"], 300)

    def test_runs_nested_too_deep(self):
        # each group adds two runs; the grid is two deep, so group 50 from
        # the inside is the first past 100 runs
        self.check(["parse", "(a/b|" * 60 + "[a b; c d]" + ")" * 60], 5 * 10)

    def test_deepest_accepted_term_survives_every_command(self, tmp_path):
        text = "(a/b|" * 49 + "[a b; c d]" + ")" * 49  # 100 runs deep
        code, out, err = run(["parse", text])
        assert code == EXIT_OK and parse_term(out.decode()) is parse_term(text)
        code, out, err = run(["prove-swap", text, "1", "1", "--budget", "10"])
        assert code == EXIT_OK
        path = tmp_path / "deep.json"
        path.write_bytes(out)
        assert run(["verify-proof", str(path)])[0] == EXIT_OK
        swapped = text.replace("[a b; c d]", "[b a; c d]")
        for argv in (["equal", text, swapped, "--budget", "10"],
                     ["prove-swap", text, "1", "2,1", "--budget", "10"],
                     ["render", text, "--width", "800", "--height", "800"]):
            code, out, err = run(argv)
            assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_BUDGET) and b"Traceback" not in err


class TestRenderCommand:
    def test_ascii_default(self):
        code, out, err = run(["render", "[a b; c d]"])
        assert code == EXIT_OK
        assert out.decode().count("+") >= 9
        lines = out.decode().splitlines()
        assert len(lines) == 40 and {len(line) for line in lines} == {80}

    def test_svg(self):
        code, out, err = run(["render", "a|b", "--format", "svg", "--width", "100", "--height", "50"])
        assert code == EXIT_OK
        assert out.startswith(b"<?xml") and b"<svg" in out
        code, out, err = run(["render", "a|b", "--format", "svg"])
        assert code == EXIT_OK and b'width="640" height="640"' in out

    def test_named_only(self):
        code, out, err = run(["render", "[_x a]", "--named-only", "--width", "21", "--height", "5"])
        assert code == EXIT_OK and b"_x" not in out

    def test_canvas_too_small(self):
        code, out, err = run(["render", "[a b; c d]", "--width", "4", "--height", "4"])
        assert code == EXIT_USAGE

    def test_canvas_below_3x3(self):
        assert run(["render", "a", "--width", "2"]) == (
            EXIT_USAGE, b"", b"error: canvas must be at least 3x3 characters\n"
        )

    def test_zero_dimensions_are_an_error_not_a_default(self):
        code, out, err = run(["render", "a", "--width", "0"])
        assert code == EXIT_USAGE and b"width and height" in err

    def test_canvas_too_large_is_refused_before_the_grid(self):
        # 4,002,000 cells, one past 2000x2000; the grid alone would take 32 MB
        tracemalloc.start()
        try:
            code, out, err = run(["render", "a", "--width", "2001", "--height", "2000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_USAGE, b"")
        assert b"exceeds 4,000,000 cells" in err and b"Traceback" not in err
        assert peak < 1_000_000

    def test_drawing_is_pinned(self):
        # the fourth line's inner ``+`` is a T-junction: the wall between b
        # and c ends on a's right wall
        drawing = (
            "+---+-------+\n"
            "|   |   b   |\n"
            "|   |       |\n"
            "| a +-------+\n"
            "|   |   c   |\n"
            "|   |       |\n"
            "+---+-------+\n"
        )
        assert run(["render", "a|(b/c)", "--width", "13", "--height", "7"]) == (
            EXIT_OK, drawing.encode(), b""
        )

    def test_svg_has_no_canvas_cap(self):
        code, out, err = run(
            ["render", "a", "--format", "svg", "--width", "2001", "--height", "2000"]
        )
        assert code == EXIT_OK and b'width="2001"' in out


class TestProofCommands:
    def test_emit_and_verify(self, tmp_path):
        path = tmp_path / "swap.json"
        code, out, err = run(["emit-central-swap", "-o", str(path)])
        assert code == EXIT_OK and path.exists()
        code, out, err = run(["verify-proof", str(path)])
        assert code == EXIT_OK
        text = out.decode()
        assert "moves: 40 (all valid)" in text
        assert "checkpoint after-sliding-8 @ 20: (e1|e2|e3|e4)/(e5|b|d|e6)/(e7|a|c|e8)/(e9|e10|e11|e12)" in text
        assert text.strip().endswith("(e1|e2|e3|e4)/(e5|b|a|e6)/(e7|c|d|e8)/(e9|e10|e11|e12)")

    def test_emit_custom_labels_to_stdout(self):
        border = tuple(f"L{k}" for k in range(12))
        row_major = list(grid_labels(border, ("p", "q", "r", "s")))
        flat = [name for row in row_major for name in row]
        code, out, err = run(["emit-central-swap", "--labels", *flat, "-o", "-"])
        assert code == EXIT_OK
        script = decode_script(out)
        assert script.start == from_grid(grid_labels(border, ("p", "q", "r", "s")))
        assert replay(script)[-1] == from_grid(grid_labels(border, ("q", "p", "r", "s")))

    def test_corrupted_proof_is_exit_1(self, tmp_path):
        path = tmp_path / "swap.json"
        run(["emit-central-swap", "-o", str(path)])
        doc = json.loads(path.read_text())
        doc["moves"][5]["split_first"] = 9
        path.write_text(json.dumps(doc))
        code, out, err = run(["verify-proof", str(path)])
        assert code == EXIT_NEGATIVE
        assert b"invalid proof" in err and b"move 5" in err

    def test_malformed_proof_file_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, out, err = run(["verify-proof", str(path)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "checkpoints,message",
        [
            ({"x": 41}, "checkpoint 'x' is 41, not an int 0..40"),
            ({"x": 2.0}, "checkpoint 'x' is 2.0, not an int 0..40"),
            (None, "checkpoints must be a mapping, not NoneType"),
        ],
    )
    def test_bad_checkpoint_is_one_error_line(self, checkpoints, message, tmp_path):
        path = tmp_path / "swap.json"
        run(["emit-central-swap", "-o", str(path)])
        doc = json.loads(path.read_text())
        doc["checkpoints"] = checkpoints
        path.write_text(json.dumps(doc))
        assert run(["verify-proof", str(path)]) == (
            EXIT_USAGE, b"", f"error: {message} at checkpoints\n".encode()
        )

    def test_missing_file_is_exit_2(self):
        code, out, err = run(["verify-proof", "/nonexistent/file.json"])
        assert code == EXIT_USAGE


class TestHostileValues:
    """A value from outside is echoed in an error message only in short.  A
    full ``repr`` of a list of 200,000 ints is a line of 600 kB."""

    HUGE = [0] * 200_000
    SHORT = "[0, 0, 0, 0, 0, 0, ...]"

    @pytest.mark.parametrize("field, value, code, line", [
        ("kind", HUGE, EXIT_USAGE, f"error: unknown move kind {SHORT} at moves[0]"),
        ("split_first", HUGE, EXIT_USAGE,
         f"error: move split_first must be an int, not {SHORT} at moves[0]"),
        ("checkpoints", {"x": HUGE}, EXIT_USAGE,
         f"error: checkpoint 'x' is {SHORT}, not an int 0..40 at checkpoints"),
        # every component is a valid 1-based index, so the document decodes
        # and replay refuses the path
        ("path", [1] * 200_000, EXIT_NEGATIVE,
         "invalid proof: move 0 failed: path (0, 0, 0, 0, 0, 0, ...) does not address a node"),
    ], ids=["kind", "split_first", "checkpoint", "path"])
    def test_script_document(self, field, value, code, line, tmp_path):
        path = tmp_path / "swap.json"
        run(["emit-central-swap", "-o", str(path)])
        doc = json.loads(path.read_text())
        (doc if field == "checkpoints" else doc["moves"][0])[field] = value
        path.write_text(json.dumps(doc))
        assert run(["verify-proof", str(path)]) == (code, b"", f"{line}\n".encode())

    @pytest.mark.parametrize("doc, line", [
        ({"n": HUGE, "h": [[0]], "v": [[0]]}, f"error: carrier size must be an integer, not {SHORT}"),
        ({"n": 1, "h": [[HUGE]], "v": [[0]]}, f"error: table_h[0][0] = {SHORT} is not an integer"),
    ], ids=["n", "entry"])
    def test_model_document(self, doc, line, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run(["models", "check", str(path)]) == (EXIT_USAGE, b"", f"{line}\n".encode())

    def test_label(self):
        labels = ["1" * 100_000] + [f"e{k}" for k in range(15)]
        assert run(["emit-central-swap", "--labels", *labels, "-o", "-"]) == (
            EXIT_USAGE, b"", b"error: invalid label '111111111111...1111111111111': expected an identifier\n"
        )

    @pytest.mark.parametrize("path, line", [
        ("1," + "x" * 100_000, b"error: bad path component 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"),
        (",".join(["1"] * 50_000), b"error: path 1,1,1,1,1,1,1,1,1,1,1,1,1,1... does not address a subterm\n"),
    ], ids=["component", "path"])
    def test_path_argument(self, path, line):
        assert run(["prove-swap", "[a b; c d]", path, "1,2", "--budget", "5"]) == (EXIT_USAGE, b"", line)


class TestDecisionCommands:
    def test_equal_distinct(self):
        code, out, err = run(["equal", "(a|b)/(c|d)", "(b|a)/(c|d)", "--budget", "1000"])
        assert code == EXIT_NEGATIVE
        assert out == b"Distinct (closure size 2)\n"

    def test_equal_yes(self):
        code, out, err = run(["equal", "(a|b)/(c|d)", "(a/c)|(b/d)", "--budget", "1000"])
        assert code == EXIT_OK
        assert out.startswith(b"Equal (")

    def test_equal_budget(self):
        code, out, err = run(
            ["equal", "[e1 e2 e3 e4; e5 a b e6; e7 c d e8; e9 e10 e11 e12]",
             "[e1 e2 e3 e4; e5 b a e6; e7 c d e8; e9 e10 e11 e12]", "--budget", "1"]
        )
        assert code == EXIT_BUDGET
        assert out.startswith(b"Unknown")

    def test_prove_swap_finds_and_emits_script(self):
        code, out, err = run(["prove-swap", "(a|a)/(c|d)", "1,1", "1,2", "--budget", "100"])
        assert code == EXIT_OK
        script = decode_script(out)
        assert script.start == parse_term("(a|a)/(c|d)")

    def test_prove_swap_script_bytes_are_pinned(self):
        # the script depends on the search's move order; these are its bytes
        code, out, err = run(
            ["prove-swap", "[a b c d; e f g h; i j k l]", "2,2", "2,3", "--budget", "100000"]
        )
        assert code == EXIT_OK
        assert len(decode_script(out).moves) == 14
        assert hashlib.sha256(out).hexdigest() == (
            "6aba761029785e942e1cb6968cf5eb7b5047fddd1a470ac16d52264e321256b2"
        )

    def test_prove_swap_distinct(self):
        code, out, err = run(["prove-swap", "(a|b)/(c|d)", "1,1", "1,2", "--budget", "100"])
        assert code == EXIT_NEGATIVE

    def test_prove_swap_non_leaf_path(self):
        code, out, err = run(["prove-swap", "(a|b)/(c|d)", "1", "2,1", "--budget", "100"])
        assert code == EXIT_USAGE

    def test_prove_swap_names_a_bad_path_as_typed(self):
        assert run(["prove-swap", "[a b; c d]", "9", "1,2", "--budget", "5"]) == (
            EXIT_USAGE, b"", b"error: path 9 does not address a subterm\n"
        )
        assert run(["prove-swap", "[a b; c d]", "1,2", "1,1,1", "--budget", "5"]) == (
            EXIT_USAGE, b"", b"error: path 1,1,1 does not address a subterm\n"
        )

    @pytest.mark.parametrize("path, message", [
        (".", b"error: both paths must address leaves\n"),  # the root, a run here
        ("1,x", b"error: bad path component 'x'\n"),
        ("0", b"error: path components are 1-based\n"),
        # int() would read these as 1, 1 and 11
        ("+1,2", b"error: bad path component '+1'\n"),
        ("\u0661,\u0662", "error: bad path component '\u0661'\n".encode()),
        ("1_1", b"error: bad path component '1_1'\n"),
    ])
    def test_prove_swap_path_arguments(self, path, message):
        assert run(["prove-swap", "[a b; c d]", path, "1,2", "--budget", "5"]) == (
            EXIT_USAGE, b"", message
        )

    def test_budget_zero_is_a_usage_error_even_for_a_trivial_swap(self):
        for argv in (["prove-swap", "(a|a)/(c|d)", "1,1", "1,2", "--budget", "0"],
                     ["equal", "a", "a", "--budget", "0"]):
            assert run(argv) == (EXIT_USAGE, b"", b"error: budget must be at least 1\n")

    def test_budget_over_the_cap_is_a_usage_error(self):
        for argv in (["prove-swap", "a|b", "1", "2", "--budget", "2000001"],
                     ["equal", "a|b", "b|a", "--budget", "2000001"]):
            assert run(argv) == (EXIT_USAGE, b"", b"error: budget must be at most 2,000,000\n")


class TestModelCommands:
    def test_enumerate_stream(self):
        code, out, err = run(["models", "enumerate", "--order", "2"])
        assert code == EXIT_OK
        lines = out.decode().strip().splitlines()
        assert len(lines) == 46
        docs = [json.loads(line) for line in lines]
        assert {"n": 2, "h": [[0, 0], [0, 0]], "v": [[0, 0], [0, 0]]} == docs[0]
        k = k_combinator()
        assert {"n": 2, "h": [list(r) for r in k.table_h], "v": [list(r) for r in k.table_v]} in docs

    def test_enumerate_constraint(self):
        code, out, err = run(["models", "enumerate", "--order", "2", "--constraint", "unital"])
        assert code == EXIT_OK
        assert len(out.decode().strip().splitlines()) == 4

    def test_enumerate_commutative_constraint(self):
        def symmetric(tab):
            return all(tab[x][y] == tab[y][x] for x in range(2) for y in range(2))

        code, out, err = run(["models", "enumerate", "--order", "2"])
        everything = [json.loads(line) for line in out.decode().splitlines()]
        code, out, err = run(["models", "enumerate", "--order", "2", "--constraint", "commutative"])
        assert code == EXIT_OK
        docs = [json.loads(line) for line in out.decode().splitlines()]
        assert docs == [d for d in everything if symmetric(d["h"]) and symmetric(d["v"])]
        assert len(docs) == 18

    @pytest.mark.parametrize("argv, digest", [
        (["--order", "3"], "1eaea5a7a5d1e486cc63796a29b554f09ba3e7a4ba75a20388ed4b91dbb41f38"),
        (["--order", "2", "--constraint", "unital"],
         "e4ca7d90e881425668d1a42f98387aee2e7892ebee3b4becb46a7955dadb4e41"),
    ])
    def test_enumerate_bytes_are_pinned(self, argv, digest):
        code, out, err = run(["models", "enumerate", *argv])
        assert code == EXIT_OK
        assert hashlib.sha256(out).hexdigest() == digest

    def test_order_cap(self):
        code, out, err = run(["models", "enumerate", "--order", "4"])
        assert code == EXIT_USAGE

    def test_env_raises_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TILEPROOF_MAX_ORDER", "2")
        code, out, err = run(["models", "enumerate", "--order", "3"])
        assert code == EXIT_USAGE

    def test_check_good_model(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_bytes(encode_model(k_combinator()))
        code, out, err = run(["models", "check", str(path)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True

    def test_check_bad_model(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(encode_model(CayleyPair(2, ((0, 1), (0, 0)), ((0, 0), (0, 0)))))
        code, out, err = run(["models", "check", str(path)])
        assert code == EXIT_NEGATIVE
        doc = json.loads(out)
        assert doc["assoc_h"] == {"passed": False, "witness": [1, 0, 1]}

    def test_check_out_of_range_model_file(self, tmp_path):
        path = tmp_path / "oor.json"
        path.write_text('{"n": 2, "h": [[0, 2], [0, 0]], "v": [[0, 0], [0, 0]]}')
        code, out, err = run(["models", "check", str(path)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("doc", BAD_MODEL_DOCS.values(), ids=BAD_MODEL_DOCS)
    def test_check_hostile_model_file_is_one_error_line(self, doc, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["models", "check", str(path)])
        assert (code, out) == (EXIT_USAGE, b"")
        assert err.startswith(b"error: ") and err.count(b"\n") == 1


class TestClaimsCommand:
    def test_verify_order_2(self):
        code, out, err = run(["claims", "verify", "--max-order", "2"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert set(doc["claims"]) == {"EH", "C1", "C2", "L", "P"}
        assert doc["counts"][1]["double_semigroups"] == 46

    def test_order_out_of_range(self):
        code, out, err = run(["claims", "verify", "--max-order", "9"])
        assert code == EXIT_USAGE

    def test_a_failed_claim_is_exit_1_with_its_counterexample(self, monkeypatch):
        monkeypatch.setattr(models, "_sandwich_identity", lambda tab, inv, n: False)
        code, out, err = run(["claims", "verify", "--max-order", "2"])
        assert code == EXIT_NEGATIVE
        doc = json.loads(out)
        assert doc["all_passed"] is False
        assert doc["claims"].pop("P") == {
            "passed": False,
            "checked": 5,
            "counterexample": {"n": 1, "h": [[0]], "v": [[0]]},
        }
        assert all(status["passed"] for status in doc["claims"].values())


class TestUsage:
    def test_unknown_subcommand(self):
        code, out, err = run(["frobnicate"])
        assert code == EXIT_USAGE

    def test_no_args(self):
        code, out, err = run([])
        assert code == EXIT_USAGE

    def test_help(self):
        code, out, err = run(["--help"])
        assert code == EXIT_OK and b"usage" in out
        code, out, err = run(["claims", "verify", "--help"])
        assert code == EXIT_OK and out.startswith(b"usage: tileproof claims verify")

    def test_run_leaves_process_streams_alone(self, monkeypatch):
        before = sys.stdout, sys.stderr
        seen = []

        def spy(text):
            seen.append((sys.stdout, sys.stderr))
            return parse_term(text)

        monkeypatch.setattr(cli, "parse_term", spy)
        code, out, err = run(["parse", "a|b"])
        assert code == EXIT_OK and out == b"a|b\n"
        assert seen == [before]

    def test_import_leaves_urllib_unloaded(self):
        # the package and its CLI load no network or mail modules
        code = "import sys, tileproof, tileproof.cli; print('urllib.request' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.stdout == b"False\n"

    def test_the_package_exports_every_public_name_of_its_modules(self):
        import tileproof

        missing = [
            f"{module.__name__}.{name}"
            for module in (tileproof.terms, tileproof.moves, tileproof.decision,
                           tileproof.models, tileproof.formats)
            for name in module.__all__
            if getattr(tileproof, name, None) is not getattr(module, name)
        ]
        assert missing == []

    def test_parser_is_built_once(self):
        cli._build_parser.cache_clear()
        for argv in (["parse", "a|b"], ["--help"], ["frobnicate"], ["render", "a|b"]):
            run(argv)
        assert cli._build_parser.cache_info().misses == 1

    def test_a_run_leaves_nothing_for_the_next(self, monkeypatch):
        # (COLUMNS, argv): help and usage text follow the width of the moment
        sequence = [
            ("80", ["render", "a|b", "--width", "9"]),
            ("80", ["render", "a|b"]),
            ("40", ["--help"]),
            ("200", ["--help"]),
            ("40", ["render", "a|b", "--width", "x"]),
            ("200", ["render", "a|b", "--width", "x"]),
            ("80", ["models", "enumerate", "--order", "2", "--constraint", "unital"]),
            ("80", ["models", "enumerate", "--order", "2"]),
        ]
        alone = []
        for columns, argv in sequence:
            monkeypatch.setenv("COLUMNS", columns)
            cli._build_parser.cache_clear()
            alone.append(run(argv))
        assert alone[2] != alone[3] and alone[4] != alone[5] and alone[6] != alone[7]
        cli._build_parser.cache_clear()
        for (columns, argv), expected in zip(sequence, alone):
            monkeypatch.setenv("COLUMNS", columns)
            assert run(argv) == expected
