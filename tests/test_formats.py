import hashlib
import json
import random

import pytest

from tileproof.formats import (
    CanvasTooSmall,
    CodecError,
    RenderError,
    RenderOptions,
    decode_model,
    decode_script,
    encode_model,
    encode_script,
    render_ascii,
    render_svg,
)
from tileproof.models import CayleyPair, enumerate_models, k_combinator, xor_pair
from tileproof.moves import Move, ProofScript, central_swap_script, replay
from tileproof.terms import Leaf, format_term, parse_term
from conftest import BAD_MODEL_DOCS, random_term
from oracles import replay_moves, to_tuple


def t(text):
    return parse_term(text)


BORDER = tuple(f"e{k}" for k in range(1, 13))


def _relabel(term, names):
    """``term`` with each leaf label ``x`` replaced by ``names[x]``."""
    if type(term) is Leaf:
        return Leaf(names[term.label])
    return type(term)(_relabel(c, names) for c in term.children)


def _stdlib_encoding(script):
    """The bytes of ``script``'s document as ``json.dumps(doc, indent=2)``
    writes them: the reference for ``encode_script``'s direct emitter."""
    doc = {
        "start": format_term(script.start),
        "moves": [
            {
                "kind": m.kind,
                "path": [p + 1 for p in m.path],
                "index": m.index + 1,
                "split_first": m.split_first,
                "split_second": m.split_second,
            }
            for m in script.moves
        ],
        "checkpoints": {k: script.checkpoints[k] for k in sorted(script.checkpoints)},
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


_CANNED = central_swap_script(BORDER, "a", "b", "c", "d")
_DEEP = (Move("row", (), 0, 1, 1), Move("col", (2,), 1, 2, 3), Move("row", (0, 4, 1), 0, 1, 1))


class TestScriptCodec:
    @pytest.mark.parametrize(
        "script",
        [
            _CANNED,
            ProofScript(_CANNED.start, _CANNED.moves * 51, _CANNED.checkpoints),
            ProofScript(start=t("(a|b)/(c|d)")),
            ProofScript(start=Leaf("a"), moves=_DEEP),
            ProofScript(
                start=t("m|((a|b)/(c|d))|n"),
                moves=_DEEP + (Move("col", (0, 1, 2), 10**20, 10**20, 10**20),),
                checkpoints={
                    'say "hi"': 0, "back\\slash": 1, "tab\tnew\nline\x00\x1f": 2,
                    "caf\u00e9 \u2218 \U0001f600": 3, "\ud800": 4, "": 4,
                },
            ),
        ],
        ids=["canned 40 moves", "canned chained 51 times", "empty", "paths 0, 1 and 3 deep",
             "hostile names and big splits"],
    )
    def test_encoding_matches_the_stdlib_encoder(self, script):
        assert encode_script(script) == _stdlib_encoding(script)

    def test_empty_script_round_trip(self):
        script = ProofScript(start=t("(a|b)/(c|d)"))
        assert decode_script(encode_script(script)) == script

    def test_central_swap_round_trip_is_byte_identical(self):
        script = central_swap_script(BORDER, "a", "b", "c", "d")
        data = encode_script(script)
        assert decode_script(data) == script
        assert encode_script(decode_script(data)) == data

    def test_wire_format_is_one_based(self):
        script = ProofScript(
            start=t("m|((a|b)/(c|d))|n"),
            moves=(Move("row", (1,), 0, 1, 1),),
        )
        doc = json.loads(encode_script(script))
        assert doc["moves"][0]["path"] == [2]
        assert doc["moves"][0]["index"] == 1

    def test_random_scripts_round_trip(self, rng):
        from tileproof.moves import apply_move, enumerate_moves

        for _ in range(30):
            start = random_term(rng, max_leaves=9, min_leaves=2)
            cur, moves = start, []
            for _ in range(rng.randint(0, 5)):
                options = list(enumerate_moves(cur))
                if not options:
                    break
                m = rng.choice(options)
                moves.append(m)
                cur = apply_move(cur, m)
            script = ProofScript(start=start, moves=tuple(moves), checkpoints={"mid": len(moves) // 2})
            assert decode_script(encode_script(script)) == script
            assert replay_moves(to_tuple(start), moves) == to_tuple(replay(script)[-1])

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.replace(b'"row"', b'"diag"', 1), "unknown move kind"),
            (lambda d: d[:-3], "malformed JSON"),
            (lambda d: d.replace(b'"start"', b'"trats"', 1), "missing key 'start'"),
            (lambda d: d.replace(b'"index": 1', b'"index": 0', 1), "1-based"),
            (lambda d: d.replace(b'"split_first": 1', b'"split_first": 0', 1), "splits must be"),
        ],
    )
    def test_malformed_documents_are_located(self, mutate, needle):
        script = central_swap_script(BORDER, "a", "b", "c", "d")
        data = mutate(encode_script(script))
        with pytest.raises(CodecError) as exc:
            decode_script(data)
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("kind", "diag", "unknown move kind 'diag' at moves[3]"),
            ("split_first", 1.0, "move split_first must be an int, not 1.0 at moves[3]"),
            ("split_second", True, "move split_second must be an int, not True at moves[3]"),
            ("split_second", -2, "splits must be >= 1 at moves[3].split_second"),
            ("index", True, "expected an integer at moves[3].index"),
            ("path", [1.0], "expected an integer at moves[3].path[0]"),
            # ``None`` replaces the whole move
            (None, [1, 1], "expected an object at moves[3]"),
            (None, {"kind": "row", "split_first": 1}, "missing key 'path' at moves[3]"),
            ("path", {"1": 1}, "expected a list at moves[3].path"),
            ("path", [1, "2"], "expected an integer at moves[3].path[1]"),
            ("path", [1, 0], "indices are 1-based and must be >= 1 at moves[3].path[1]"),
            ("index", 0, "indices are 1-based and must be >= 1 at moves[3].index"),
            # every field is wrong; the first check in document order reports
            (None, {"kind": "diag", "path": [1, 0], "index": 0, "split_first": 0, "split_second": True},
             "indices are 1-based and must be >= 1 at moves[3].path[1]"),
        ],
    )
    def test_move_values_are_checked_by_the_constructor(self, key, value, message):
        doc = json.loads(encode_script(central_swap_script(BORDER, "a", "b", "c", "d")))
        if key is None:
            doc["moves"][3] = value
        else:
            doc["moves"][3][key] = value
        with pytest.raises(CodecError) as exc:
            decode_script(json.dumps(doc).encode())
        assert str(exc.value) == message

    def test_checkpoint_out_of_range(self):
        data = json.dumps(
            {"start": "a|b", "moves": [], "checkpoints": {"late": 3}}
        ).encode()
        with pytest.raises(CodecError) as exc:
            decode_script(data)
        assert str(exc.value) == "checkpoint 'late' is 3, not an int 0..0 at checkpoints"

    @pytest.mark.parametrize(
        "checkpoints,message",
        [
            ({"late": True}, "checkpoint 'late' is True, not an int 0..0 at checkpoints"),
            ({"late": "1"}, "checkpoint 'late' is '1', not an int 0..0 at checkpoints"),
            ([], "checkpoints must be a mapping, not list at checkpoints"),
        ],
    )
    def test_checkpoints_are_checked_by_the_constructor(self, checkpoints, message):
        data = json.dumps({"start": "a|b", "moves": [], "checkpoints": checkpoints}).encode()
        with pytest.raises(CodecError) as exc:
            decode_script(data)
        assert str(exc.value) == message

    def test_list_of_moves_round_trips(self):
        # the constructor stores the list as a tuple, as decode_script does
        script = ProofScript(start=t("(a|b)/(c|d)"), moves=[Move("row", (), 0, 1, 1)])
        assert decode_script(encode_script(script)) == script

    def test_bad_start_term(self):
        data = json.dumps({"start": "a||b", "moves": []}).encode()
        with pytest.raises(CodecError):
            decode_script(data)

    def test_bytes_that_are_not_utf8(self):
        with pytest.raises(CodecError, match="not UTF-8 at byte 0"):
            decode_script(b"\xff\xfe")


class TestModelCodec:
    def test_round_trips(self):
        zero = CayleyPair(3, ((0,) * 3,) * 3, ((0,) * 3,) * 3)
        for m in (k_combinator(), xor_pair(), zero, *enumerate_models(2)):
            data = encode_model(m)
            assert decode_model(data) == m
            assert encode_model(decode_model(data)) == data

    def test_bool_entries_refused_before_they_reach_the_codec(self):
        # True == 1, so this would equal xor_pair(), but its encoding would
        # hold JSON booleans that decode_model rejects
        with pytest.raises(ValueError, match="table_h"):
            CayleyPair(2, ((False, True), (True, False)), ((0, 1), (1, 0)))

    def test_zero_carrier_rejected(self):
        with pytest.raises(CodecError):
            decode_model(b'{"n": 0, "h": [], "v": []}')

    def test_entry_out_of_range(self):
        with pytest.raises(CodecError) as exc:
            decode_model(b'{"n": 2, "h": [[0, 2], [0, 0]], "v": [[0, 0], [0, 0]]}')
        assert "out of range" in str(exc.value)

    def test_ragged_table(self):
        with pytest.raises(CodecError):
            decode_model(b'{"n": 2, "h": [[0, 1]], "v": [[0, 0], [0, 0]]}')

    def test_booleans_are_not_entries(self):
        with pytest.raises(CodecError):
            decode_model(b'{"n": 2, "h": [[true, 0], [0, 0]], "v": [[0, 0], [0, 0]]}')

    @pytest.mark.parametrize("doc", BAD_MODEL_DOCS.values(), ids=BAD_MODEL_DOCS)
    def test_hostile_documents_raise_codec_errors(self, doc):
        with pytest.raises(CodecError):
            decode_model(json.dumps(doc).encode())

    @pytest.mark.parametrize("decode", [decode_model, decode_script])
    def test_deep_nesting_is_a_codec_error(self, decode):
        data = b'{"n": 2, "h": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        with pytest.raises(CodecError, match="nests too deeply"):
            decode(data)

    def test_value_errors_come_from_the_constructor(self):
        doc = {"n": 2, "h": [[0, 1], [1, 0]], "v": [[0, 1], [0.0, 0]]}
        with pytest.raises(CodecError, match=r"^table_v\[1\]\[0\] = 0.0 is not an integer$"):
            decode_model(json.dumps(doc).encode())


class TestClaimsReportJson:
    def test_stable_bytes_and_key_order(self):
        from tileproof.formats import claims_report_json
        from tileproof.models import verify_claims

        first = claims_report_json(verify_claims(2))
        second = claims_report_json(verify_claims(2))
        assert first == second
        doc = json.loads(first)
        assert list(doc) == ["max_order", "all_passed", "claims", "counts"]
        assert list(doc["claims"]) == sorted(doc["claims"])


class TestAsciiRenderer:
    def test_single_box(self):
        art = render_ascii(Leaf("a"), RenderOptions(7, 5))
        assert art == (
            "+-----+\n"
            "|     |\n"
            "|  a  |\n"
            "|     |\n"
            "+-----+\n"
        )

    def test_2x2_grid(self):
        art = render_ascii(t("[a b; c d]"), RenderOptions(13, 7))
        lines = art.splitlines()
        assert lines[0] == "+-----+-----+"
        assert lines[3] == "+-----+-----+"
        assert "a" in lines[1] and "b" in lines[1]
        assert "c" in lines[4] and "d" in lines[4]

    def test_named_only_blanks_underscore_labels(self):
        term = t("[_1 _2 _3 _4; _5 a b _6; _7 _8 _9 _10; _11 _12 _13 _14]")
        art = render_ascii(term, RenderOptions(80, 40, "named-only"))
        assert "a" in art and "b" in art
        assert "_" not in art

    def test_all_visibility_shows_everything(self):
        art = render_ascii(t("[x yy]"), RenderOptions(15, 5))
        assert "x" in art and "yy" in art

    def test_canvas_too_small(self):
        # at 5x5 each quadrant is exactly 3x3 (walls shared), so that passes;
        # one character less does not
        render_ascii(t("[a b; c d]"), RenderOptions(5, 5))
        with pytest.raises(CanvasTooSmall):
            render_ascii(t("[a b; c d]"), RenderOptions(4, 5))
        with pytest.raises(CanvasTooSmall):
            render_ascii(t("[a b; c d]"), RenderOptions(5, 4))

    def test_long_labels_truncated_with_marker(self):
        art = render_ascii(t("extremely_long_name|b"), RenderOptions(13, 5))
        assert "~" in art

    def test_deterministic(self, rng):
        term = random_term(rng, max_leaves=6)
        opts = RenderOptions(61, 31)
        assert render_ascii(term, opts) == render_ascii(term, opts)

    def test_seeded_renders_are_pinned(self):
        # sha256 of seeded ASCII and SVG renders, both visibilities, with
        # short, long and nameless labels; it pins the output of a renderer
        # that drew every wall before any label
        rng = random.Random(1319)
        names = ["a", "_", "_x1", "bb", "Z9", "label_long", "extremely_long_name"]
        digest = hashlib.sha256()
        for _ in range(300):
            term = random_term(rng, max_leaves=12)
            term = _relabel(term, {k: rng.choice(names) for k in "abcdefgh"})
            width, height = rng.randint(3, 70), rng.randint(3, 35)
            for visibility in ("all", "named-only"):
                opts = RenderOptions(width, height, visibility)
                try:
                    digest.update(render_ascii(term, opts).encode())
                except CanvasTooSmall as exc:
                    digest.update(str(exc).encode())
                digest.update(render_svg(term, opts))
        assert digest.hexdigest() == (
            "e115f7337af7e4cf27f316e619558b4d92c5cee521eb0bb5e0e036cd09dd2902"
        )

    def test_bad_options(self):
        # a float size cannot size ``render_ascii``'s grid, and a float or
        # bool would print in the SVG as ``width="8.0"`` or ``width="True"``
        for args, message in [
            ((0, 10), "width and height must be at least 1"),
            ((10, 10, "some"), "unknown label visibility 'some'"),
            ((10, 10, ["all"] * 10),
             "unknown label visibility ['all', 'all', 'all', 'all', 'all', 'all', ...]"),
            ((8.0, 5), "width must be an int, not 8.0"),
            ((5, 8.0), "height must be an int, not 8.0"),
            ((True, 5), "width must be an int, not True"),
            ((5, False), "height must be an int, not False"),
            (("8", 5), "width must be an int, not '8'"),
        ]:
            with pytest.raises(RenderError) as exc:
                RenderOptions(*args)
            assert str(exc.value) == message


class TestSvgRenderer:
    def test_leaf_has_one_rect_and_one_text(self):
        svg = render_svg(Leaf("a"), RenderOptions(100, 100)).decode()
        assert svg.count("<rect") == 1
        assert svg.count("<text") == 1
        assert "</svg>" in svg

    def test_quadrants(self):
        svg = render_svg(t("[a b; c d]"), RenderOptions(200, 200)).decode()
        assert svg.count("<rect") == 4
        assert '<rect x="0" y="0" width="100" height="100"' in svg
        assert '<rect x="100" y="100" width="100" height="100"' in svg

    def test_byte_deterministic(self, rng):
        for _ in range(10):
            term = random_term(rng, max_leaves=9)
            opts = RenderOptions(321, 123)
            assert render_svg(term, opts) == render_svg(term, opts)

    def test_named_only(self):
        svg = render_svg(t("_x|a"), RenderOptions(100, 100, "named-only")).decode()
        assert svg.count("<text") == 1 and ">_x<" not in svg

    def test_fractional_coordinates_are_stable(self):
        svg = render_svg(t("a|b|c"), RenderOptions(100, 30)).decode()
        assert '<rect x="33.33"' in svg
        assert '<rect x="66.67"' in svg
