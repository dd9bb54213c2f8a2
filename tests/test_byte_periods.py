"""Digit periods as bytes: ``basep._walk`` hands a period over as the
bytes it was walked in (p <= 256), the CLI renders a bytes value as the
JSON list of its byte values, and ``carry_horizon`` rotates its rows as
bytes; the public ``digits`` API still holds tuples."""

import contextlib
import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from fptcert import __version__, basep, cli
from fptcert.basep import INFINITY, CarryHorizon, DigitStream, carry_horizon, digits
from fptcert.budgets import Meter


def same(text, expected):
    """Fail at the first differing character unless text == expected:
    pytest's own diff takes minutes on texts this long."""
    if text != expected:
        at = next((i for i, pair in enumerate(zip(text, expected)) if len(set(pair)) > 1),
                  min(len(text), len(expected)))
        pytest.fail("texts differ at %d: %r != %r" % (at, text[at:at + 40], expected[at:at + 40]))


def conv(value):
    """``value`` with every bytes value turned into the list of its bytes."""
    if isinstance(value, bytes):
        return list(value)
    if isinstance(value, dict):
        return {k: conv(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [conv(v) for v in value]
    return value


_rng = random.Random(39)
SMALL = bytes(_rng.randrange(10) for _ in range(9000))  # every byte below 10
LARGE = bytes(_rng.randrange(10, 256) for _ in range(9000))
MIXED = bytes(_rng.randrange(256) for _ in range(9000))

BYTES = [
    *(small[:n] for small in (SMALL, LARGE, MIXED) for n in (0, 1, 4096, 4097, 8193)),
    bytes(range(256)),
    b"\x09\x0a",  # the last one-digit byte next to the first two-digit one
    {"a": SMALL[:5], "b": [LARGE[:3], b"", 7], "c": {"d": MIXED[:4097]}},
    [SMALL[:4097], [b"\x00", [LARGE[:8193]]], [1, 2], SMALL[:4096]],
    {"period": SMALL[:5000], "prefix": [0, 1] * 3000, "empty": b""},
    (b"\x05", "x", None, 1.5),
]


@pytest.mark.parametrize("value", BYTES, ids=range(len(BYTES)))
def test_bytes_render_as_lists(value):
    # twice: the second rendering reads the texts the first one cached
    for _ in range(2):
        pieces = list(cli._pieces(value))
        same("".join(pieces), json.dumps(conv(value), indent=2) + "\n")
    assert not any("\x00" in piece for piece in pieces)


@pytest.mark.parametrize("value", [SMALL[:n] for n in (0, 1, 10)] + [LARGE[:9], MIXED[:300]])
def test_text_format_bytes_match_the_tuple(value):
    as_bytes = cli._render_text({"result": {"period": value}})
    as_tuple = cli._render_text({"result": {"period": tuple(value)}})
    assert as_bytes == as_tuple == "result.period: %s\n" % json.dumps(
        list(value), separators=(",", ":"))


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _traced_peak(argv):
    """Peak traced bytes of cli.main(argv), its output discarded."""
    with contextlib.redirect_stdout(_Discard()):
        cli.main(["digits", "--alpha", "1/7", "--p", "3"])  # the parser, built once
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_text_format_memory(capsys):
    # 333,334 period digits as one text line, joined from the walk's bytes
    argv = ["digits", "--alpha", "1/1000003", "--p", "3", "--format", "text"]
    assert _traced_peak(argv) <= 5 * 2**20
    assert cli.main(argv) == 0
    period = digits(Fraction(1, 1000003), 3).period
    line = "result.period: " + json.dumps(period, separators=(",", ":"))
    lines = capsys.readouterr().out.split("\n")
    same("".join(s for s in lines if s.startswith("result.period: ")), line)


@pytest.mark.parametrize("p", [2, 3, 7, 11, 13, 251, 257])
@pytest.mark.parametrize("alpha", ["1/7", "7/45", "1/40637", "12345/99991", "1/257"])
def test_digits_command_matches_the_tuple_payload(capsys, p, alpha):
    assert cli.main(["digits", "--alpha", alpha, "--p", str(p), "--count", "30"]) == 0
    out = capsys.readouterr().out
    stream = digits(Fraction(alpha), p)
    payload = {
        "command": "digits",
        "input": json.loads(out)["input"],
        "result": {"alpha": alpha, "p": p, **stream.to_json_dict(),
                   "prefix": stream.digits_prefix(30)},
        "version": __version__,
    }
    same(out, json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("p, kind", [(2, bytes), (251, bytes), (256, bytes), (257, list)])
def test_walk_hands_over_bytes_below_257(p, kind):
    preperiod, period = basep._walk(Fraction(5, 12 * 257), p)
    stream = digits(Fraction(5, 12 * 257), p)
    assert type(preperiod) is tuple and type(period) is kind
    assert (preperiod, tuple(period)) == (stream.preperiod, stream.period)


@pytest.mark.parametrize("alpha, p", [
    (Fraction(7, 45), 3), (Fraction(1, 1000003), 3), (Fraction(1, 65537), 257),
    (Fraction(1), 2), (Fraction(1, 40637), 2),
])
def test_digit_stream_api(alpha, p):
    stream = digits(alpha, p)
    assert type(stream.preperiod) is tuple and type(stream.period) is tuple
    assert all(type(d) is int for d in stream.period[:100])
    assert json.loads(json.dumps(stream.to_json_dict())) == {
        "preperiod": list(stream.preperiod), "period": list(stream.period)}
    same = DigitStream(p, stream.preperiod, stream.period, alpha)
    assert stream == same and hash(stream) == hash(same)
    assert hash(stream) == hash((p, stream.preperiod, stream.period, alpha))
    assert stream != DigitStream(p, stream.preperiod, stream.period + (0,), alpha)


def tuple_horizon(block, p, meter):
    """carry_horizon read off the tuples of ``digits`` (its streams
    before they were walked as bytes)."""
    streams = [digits(a, p) for a in block if a > 0]
    if not streams:
        return CarryHorizon(INFINITY)
    start = max(len(s.preperiod) for s in streams)
    for k in range(1, start + 1):
        if sum(s.digit(k) for s in streams) > p - 1:
            return CarryHorizon(k - 1)
    rows = []
    for s in streams:
        shift = (start - len(s.preperiod)) % len(s.period)
        rows.append(s.period[shift:] + s.period[:shift])
    return CarryHorizon(start + basep._first_carry(rows, p, meter))


def test_carry_horizon_matches_the_tuple_streams():
    rng = random.Random(391)
    outcomes = set()
    for _ in range(1200):
        p = rng.choice([2, 3, 5, 7, 11, 13, 251, 257])
        block = []
        for _ in range(rng.randint(1, 4)):
            den = rng.choice([rng.randint(1, 60), p ** rng.randint(1, 4) - 1,
                              rng.randint(1, 9) * p ** rng.randint(1, 2)])
            block.append(Fraction(rng.randint(0, den), den))
        ours, theirs = Meter(), Meter()
        expected = tuple_horizon(block, p, theirs)
        assert carry_horizon(block, p, ours) == expected, (block, p)
        assert ours.multisets == theirs.multisets
        outcomes.add(expected.finite)
    assert outcomes == {True, False}


def test_carry_command_memory(capsys):
    # a 333,334-digit period rotated as bytes, not as a tuple of ints
    argv = ["carry", "--block", "1/1000003,1/3", "--p", "3"]
    assert _traced_peak(argv) <= 2 * 2**20
    assert cli.main(argv) == 0
    S = json.loads(capsys.readouterr().out)["result"]["S"]
    assert S == tuple_horizon([Fraction(1, 1000003), Fraction(1, 3)], 3, Meter()).value
