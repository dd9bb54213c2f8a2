"""The JSON renderer: the pieces of the CLI's renderer join to exactly
the bytes of json.dumps(value, indent=2) and a newline, on every Python."""

import contextlib
import io
import json
import tracemalloc
from fractions import Fraction

import pytest

from fptcert import cli
from fptcert.basep import digits
from test_byte_periods import same

PAIR = ["--vars", "x,y,z", "--gens", "x^2+x*y^2,y*z^3"]
FERMAT6 = ["--vars", "x1,x2,x3,x4,x5,x6", "--gens", "x1^2+x2^3+x3^4,x4^2+x5^3+x6^4"]
CURVES = ["--vars", "x,y", "--gens", "x,x+y^2"]

VALUES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": (), "d": [[], {}, ()]},
    [[[]], [{}], ({},)],
    None,
    True,
    False,
    [None, True, False, 0, 1, -1],
    {"t": True, "f": False, "n": None, "i": 7},
    -12345,
    10**399,
    -(10**399) + 1,
    [10**399, -(10**399)],
    0.5,
    -0.0,
    1e300,
    [-0.0, 1e300, 1e-300, 3.25],
    {"x": float("inf"), "y": float("-inf")},
    "",
    'quote " backslash \\ newline \n tab \t',
    "non-ASCII: é ß 你好 \U0001f600",
    ['"', "\\", "\n", "é", " "],
    {'k"ey\n': "v\\al", "é": ["ü", {"ñ": "\x00"}]},
    {"deep": [{"a": [1, [2, [3, {"b": (4, 5)}]]]}], "flat": (1, "2", None)},
    {1: "int keys", None: "n", True: 1.5, 2.5: None},
    {"nested": {2: 3, None: "x", False: 1.5}, "list": [{7: 1, 8.5: None}]},
    {1: [2], None: {"a": 1}, 2.5: [], True: {3: [4]}, -0.0: {"x": [1]}, 'k"\n': [[]]},
    [0, 9, 10, 999, 1000, 4095, 4096, -1, -999, 10**20],
    (2, 0, 1, 1, 2),
    {"a": [[[0, 1, 2], [3]], [[10**20, -5]]], "b": [[[[7, 7, 7]]]]},
    [1, True],
    [True, False],
    [[1, 0], [True, False]],  # True == 1: bools must not read the texts cached for ints
    [0, 1, 2] * 111111 + [1],
    [None, None],  # one non-int scalar type, joined
    [[], []],  # empty lists inside a recursion
]


LONG = [
    list(range(4095)),
    list(range(4096)),
    list(range(4097)),
    [n * 10**20 for n in range(8193)],
    [True, False, False] * 3000,
    [1, True] * 3000,  # two scalar types: built whole
    {"a": [7] * 5000, "b": {"c": ["x", "\x00"] * 2500}, "d": 1},
    [[0] * 4097, [[None] * 9000, []], [1.5] * 5000, (2,) * 4097],
]


@pytest.mark.parametrize("value", VALUES + LONG, ids=range(len(VALUES + LONG)))
def test_fallback_matches_json_dumps(value):
    # twice: the second rendering reads the texts the first one cached
    for _ in range(2):
        pieces = list(cli._pieces(value))
        assert "".join(pieces) == json.dumps(value, indent=2) + "\n"
    assert not any("\x00" in piece for piece in pieces)


def test_render_memory():
    # the result of digits --alpha 1/1000003 --p 3: 333,334 period digits
    stream = digits(Fraction(1, 1000003), 3)
    payload = {"result": {**stream.to_json_dict(), "prefix": stream.digits_prefix(12)}}
    tracemalloc.start()
    try:
        for _ in cli._pieces(payload):  # each piece dropped, as once written
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "".join(cli._pieces(payload)) == json.dumps(payload, indent=2) + "\n"
    assert peak <= 12 * 2**20


@pytest.mark.parametrize("value, count", [
    ([0] * 4096, 1),  # not longer than a slice: one write
    ([0] * 4097, 3),  # the text before and a slice, a slice, the text after
    ([0] * 8193, 4),
    ({"a": [0] * 5000, "b": (1,) * 9000}, 6),  # 2 + 3 slices, one piece after
    ([1, True] * 3000, 1),  # two scalar types: built whole
    # a bytes value is a list of its byte values
    pytest.param(bytes(4096), 1, id="bytes4096-1"),
    pytest.param(bytes(4097), 3, id="bytes4097-3"),
    pytest.param(bytes(range(10)) * 820, 4, id="bytes8200-4"),
    pytest.param({"a": bytes(range(256)) * 20, "b": (1,) * 9000}, 6, id="bytes5120-6"),
    pytest.param(b"", 1, id="bytes0-1"),
])
def test_long_lists_go_out_a_slice_at_a_time(value, count):
    assert len(list(cli._pieces(value))) == count


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_digits_command_memory():
    # 333,334 period digits: the bytes of the walk, rendered a slice at a time
    argv = ["digits", "--alpha", "1/1000003", "--p", "3"]
    with contextlib.redirect_stdout(_Discard()):
        cli.main(["digits", "--alpha", "1/7", "--p", "3"])  # the parser, built once
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_digits_text_format(capsys, monkeypatch):
    for name in ("FPTCERT_MAX_TERMS", "FPTCERT_MAX_DIMENSION"):  # echoed at their defaults
        monkeypatch.delenv(name, raising=False)
    argv = ["digits", "--alpha", "7/45", "--p", "3", "--count", "9", "--format", "text"]
    assert cli.main(argv + ["--max-multisets", "50"]) == 0
    assert capsys.readouterr().out == (
        "command: digits\n"
        "input.alpha: 7/45\n"
        "input.p: 3\n"
        "input.count: 9\n"
        "input.budgets.max_multisets: 50\n"
        "input.budgets.max_terms: 10000000\n"
        "input.budgets.max_dimension: 12\n"
        "result.alpha: 7/45\n"
        "result.p: 3\n"
        "result.preperiod: [0,1]\n"
        "result.period: [1,0,1,2]\n"
        "result.prefix: [0,1,1,0,1,2,1,0,1]\n"
        "version: 0.1.0\n"
    )


COMMANDS = [
    ["polytope", *PAIR],
    ["digits", "--alpha", "1/40637", "--p", "2", "--count", "20"],
    ["carry", "--block", "1/524287,1/131071,1/31", "--p", "2"],
    ["fpt-bound", *PAIR, "--p", "2"],
    ["nu", *PAIR, "--p", "2", "--e", "2"],
    ["fpt-estimate", *PAIR, "--p", "2", "--e-max", "3"],
    ["classify", *FERMAT6],
    ["verify-prime", *FERMAT6, "--p", "5"],
    ["fvol-bound", *CURVES, "--p", "2", "--counts-e-max", "2"],
    ["fvol-count", "--vars", "x,y", "--ideals", "x;x+y^2", "--p", "2", "--e", "1"],
    ["fvol-estimate", "--vars", "x,y", "--ideals", "x;x+y^2", "--p", "2", "--e-max", "2"],
    ["witness", *PAIR, "--p", "7", "--e", "1"],
    ["nu", *PAIR, "--p", "2", "--e", "2", "--max-multisets", "2"],
]


def test_every_command_payload(capsys, monkeypatch):
    """The payload objects the CLI renders, tuples and all, caught on
    their way to the renderer."""
    payloads = []
    pieces = cli._pieces

    def record(payload):
        payloads.append(payload)
        return pieces(payload)

    monkeypatch.setattr(cli, "_pieces", record)
    for argv in COMMANDS:
        cli.main(argv)
    capsys.readouterr()
    assert sorted({p["command"] for p in payloads if "command" in p}) == sorted(cli._COMMANDS)
    assert payloads[-1]["error"]["kind"] == "BudgetExceeded"
    for payload in payloads:  # failing at the first difference, not in a diff of the texts
        same("".join(pieces(payload)), json.dumps(payload, indent=2, default=list) + "\n")


def test_cli_writes_json_dumps_bytes(capsys):
    assert cli.main(["polytope", *PAIR]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
