"""Command-line front end.

Every subcommand prints one JSON document on standard output:
{"command": ..., "input": ..., "result": ..., "version": ...}, with
rationals rendered as "num/den" strings, so output is byte-identical
across runs on the same input.  Failures print {"error": {"kind",
"message"}} on standard output, a diagnostic on standard error, and
exit with 2 (bad input), 3 (hypothesis failure) or 4 (budget).

Inputs come from flags or from a JSON job file (--job); flags win on
conflict.  Budget caps resolve flag over job over environment over
default.
"""

import argparse
import contextlib
import functools
import json
import re
import sys
from collections import namedtuple
from dataclasses import fields, replace
from fractions import Fraction
from itertools import chain, cycle, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .basep import _walk, carry_horizon
from .budgets import Budgets, Meter, _check_text_digits
from .errors import BudgetExceeded, FptcertError, InputError
from .fvolume import fvolume_estimate, fvolume_lower_bound
from .geometry import exponent_matrix, maximal_point, reduce_generators, vertices
from .polyring import parse_polynomial
from .thresholds import (
    _json_fields,
    _jsonable,
    _to_fp_generators,
    coefficient_witness,
    fpt_bound,
    fpt_estimate,
    lct_fpt_classifier,
    verify_prime,
)

_BUDGET_FIELDS = tuple(field.name for field in fields(Budgets))
_BUDGET_FLAGS = tuple((field, True) for field in _BUDGET_FIELDS)  # all optional


def _decimal6(value):
    """Six-place decimal rendering of a nonnegative rational, half-up."""
    scaled = (value.numerator * 10**6 * 2 + value.denominator) // (
        2 * value.denominator
    )
    whole, frac = divmod(scaled, 10**6)
    return "%d.%06d" % (whole, frac)


def _load_job(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            job = json.load(handle)
    except OSError as exc:
        raise InputError("cannot read job file: %s" % exc) from exc
    except ValueError as exc:  # also text that is not UTF-8, or an int past the limit
        raise InputError("job file is not valid JSON: %s" % exc) from exc
    if not isinstance(job, dict):
        raise InputError("job file must hold a JSON object")
    return job


def _flag(name):
    return "--" + name.replace("_", "-")


def _norm_strings(value, flag, key):
    if isinstance(value, str):
        parts = [s.strip() for s in value.split(",")]
    elif isinstance(value, list) and all(isinstance(s, str) for s in value):
        parts = [s.strip() for s in value]
    else:
        raise InputError("%s must be a comma-separated string or a list" % key)
    if not parts or any(not s for s in parts):
        raise InputError("%s list has an empty entry" % key)
    return parts


def _norm_ideals(value, flag, key):
    if isinstance(value, str):
        groups = [s.strip() for s in value.split(";")]
        if not groups or any(not s for s in groups):
            raise InputError("ideal list has an empty entry")
    elif isinstance(value, list):
        groups = value
        if not groups:
            raise InputError("%s is empty" % flag)
    else:
        raise InputError("ideals must be ';'-separated groups or a list of lists")
    return [_norm_strings(group, flag, "ideal generators") for group in groups]


def _norm_int(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("%s must be an integer" % name)
    return value


def _norm_fraction(value, flag, key=None):
    if isinstance(value, bool):
        raise InputError("%s must be a rational number" % flag)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        # Fraction reads an underscore between two digits only from Python 3.11
        # on; a text it refuses is refused as written
        plain = re.sub(r"(?<=\d)_(?=\d)", "", text)
        head, e, tail = plain.lower().rpartition("e")
        # Fraction builds 10**|exponent| first; past the limit + len(head) digits a
        # nonzero value has a part the input echo refuses, so it is refused here
        with contextlib.suppress(ValueError):  # Fraction words any other refusal
            if e and re.fullmatch(r"[-+]?\d+", tail):
                if not (mantissa := Fraction(head + "e0")):
                    return mantissa  # zero is zero, whatever its exponent
                _check_text_digits(digits=abs(int(tail)) - len(head))
        for literal in dict.fromkeys((plain, text)):
            try:
                return Fraction(literal)
            except ZeroDivisionError:
                raise InputError("%s is not a rational number: zero denominator" % flag)
            except ValueError as exc:
                refusal = exc
        raise InputError("%s is not a rational number: %s" % (flag, refusal))
    raise InputError("%s must be a rational number" % flag)


def _norm_fractions(value, flag, key):
    if isinstance(value, str):
        parts = [s.strip() for s in value.split(",")]
    elif isinstance(value, list):
        parts = value
    else:
        raise InputError("%s must be a comma-separated string or a list" % flag)
    if not parts:
        raise InputError("%s is empty" % flag)
    return [_norm_fraction(part, flag) for part in parts]


def _at_least(minimum):
    def norm(value, flag, key):
        value = _norm_int(value, flag)
        if value < minimum:
            raise InputError("%s must be at least %d" % (flag, minimum))
        return value

    return norm


def _positive(value, flag, key):
    if _norm_int(value, key) <= 0:
        raise InputError("%s must be positive" % key)
    return value


# One option: its key in the input echo (None for --job and --format, which are
# not inputs), argparse help, type and choices, normalizer norm(value, flag, key)
# and value when absent (None makes absence an error).  Job keys are flag names.
_Flag = namedtuple("_Flag", "key help type norm default choices", defaults=(None, None))

_FLAGS = {
    "vars": _Flag("variables", "comma-separated variable names", str, _norm_strings),
    "gens": _Flag(
        "generators", "comma-separated polynomial generators", str, _norm_strings
    ),
    "ideals": _Flag(
        "ideals",
        "';'-separated ideals, each a comma-separated list",
        str,
        _norm_ideals,
    ),
    "p": _Flag("p", "prime characteristic", int, _at_least(2)),
    "e": _Flag("e", "Frobenius exponent", int, _at_least(1)),
    "e_max": _Flag("e_max", "largest exponent", int, _at_least(1)),
    "alpha": _Flag("alpha", "rational in (0, 1]", str, _norm_fraction),
    "block": _Flag("block", "comma-separated rationals", str, _norm_fractions),
    "count": _Flag("count", "digits to print (default 12)", int, _at_least(1), 12),
    "counts_e_max": _Flag(
        "counts_e_max",
        "also run the brute-force counter up to this exponent",
        int,
        _at_least(1),
    ),
    "job": _Flag(None, "JSON job file; flags win on conflict", None, None),
    "format": _Flag(None, "output format (default json)", None, None,
                    choices=("json", "text")),
    **{field: _Flag(field, None, int, _positive) for field in _BUDGET_FIELDS},
}


def _resolve_budgets(args, job):
    budgets = Budgets.from_env()
    job_budgets = job.get("budgets", {})
    if not isinstance(job_budgets, dict):
        raise InputError("job budgets must be an object")
    for key in job_budgets:
        if key not in _BUDGET_FIELDS:
            raise InputError("unknown budget %r in job file" % key)
    values = _resolve_inputs(args, job_budgets, _BUDGET_FLAGS)
    overrides = {k: v for k, v in values.items() if v is not None}
    return replace(budgets, **overrides) if overrides else budgets


def _resolve_inputs(args, job, flags):
    """Normalized inputs keyed as in the input echo, in ``flags`` order;
    flags win over the job file.  An optional flag resolves to its
    default (None unless the flag table gives one) when absent."""
    values = {}
    for name, optional in flags:
        spec = _FLAGS[name]
        value = getattr(args, name)
        if value is None:
            value = job.get(name)
        if value is not None:
            value = spec.norm(value, _flag(name), spec.key)
        elif spec.default is None and not optional:
            raise InputError("missing required input %s" % _flag(name))
        else:
            value = spec.default
        values[spec.key] = value
    return values


@functools.lru_cache(maxsize=256)
def _parsed(text, variables):
    """parse_polynomial(text, variables), memoized per process and bounded
    like geometry._solved: a prime sweep parses each generator once.
    Errors are not kept, and every job shares the one Polynomial."""
    return parse_polynomial(text, variables)


def _parse(texts, variables):
    """Polynomials of a list (or a list of lists) of strings."""
    variables = tuple(variables)
    return [
        _parse(t, variables) if isinstance(t, list) else _parsed(t, variables)
        for t in texts
    ]


# Subcommand name -> (help, (flag name, optional) pairs in input-echo
# order, handler).
_COMMANDS = {}


def _command(name, help_text, *flags):
    """Register a subcommand handler with its help and its flags in
    input-echo order; a trailing "?" makes a flag optional for it."""

    def register(handler):
        pairs = tuple((flag.rstrip("?"), flag.endswith("?")) for flag in flags)
        _COMMANDS[name] = (help_text, pairs, handler)
        return handler

    return register


def _rows_json(p, rows):
    return {
        "p": p,
        "rows": [[e, _jsonable(n), _jsonable(ratio), _decimal6(ratio)]
                 for e, n, ratio in rows],
    }


@_command("polytope", "splitting polytope: matrix, maximum, maximal point, vertices",
          "vars", "gens", "p?")
def _cmd_polytope(inp):
    gens = inp.generators
    if inp.p is not None:
        gens = _to_fp_generators(gens, inp.p)
    matrix = exponent_matrix(reduce_generators(gens))
    cert = maximal_point(matrix)
    try:
        vertex_list = _jsonable(vertices(matrix, inp.budgets))
    except BudgetExceeded:
        vertex_list = None
    return {
        "block_sizes": _jsonable(matrix.block_sizes),
        "matrix": _jsonable(matrix.rows),
        "M": _jsonable(cert.M),
        "rho": _jsonable(cert.blocks_of_rho),
        "unique": cert.unique,
        "coordinate_ranges": None if cert.unique else _jsonable(cert.coordinate_ranges),
        "vertices": vertex_list,
    }


@_command("digits", "nonterminating base-p digits of a rational", "alpha", "p", "count")
def _cmd_digits(inp):
    # the period as walked (bytes when p <= 256), on the walk's own meter
    preperiod, period = _walk(inp.alpha, inp.p, Meter(inp.budgets))
    # one multiset per prefix digit, before the list, in one charge
    Meter(inp.budgets).charge_multisets(inp.count)
    return {
        "alpha": str(inp.alpha),
        "p": inp.p,
        "preperiod": preperiod,
        "period": period,
        "prefix": list(islice(chain(preperiod, cycle(period)), inp.count)),
    }


@_command("carry", "carry horizon of a block of rationals", "block", "p")
def _cmd_carry(inp):
    return {
        "block": _jsonable(inp.block),
        "p": inp.p,
        "S": carry_horizon(inp.block, inp.p, Meter(inp.budgets)).to_json_value(),
    }


@_command("fpt-bound", "threshold certificate (exact value or lower bound)",
          "vars", "gens", "p")
def _cmd_fpt_bound(inp):
    return fpt_bound(inp.generators, inp.p, Meter(inp.budgets)).to_json_dict()


@_command("nu", "brute-force Frobenius escape level", "vars", "gens", "p", "e")
def _cmd_nu(inp):
    _, value, ratio = fpt_estimate(inp.generators, inp.p, inp.e, inp.budgets)[-1]
    return {
        "p": inp.p,
        "e": inp.e,
        "nu": _jsonable(value),
        "ratio": _jsonable(ratio),
    }


@_command("fpt-estimate", "nu(p^e)/p^e for e = 1..e_max", "vars", "gens", "p", "e_max")
def _cmd_fpt_estimate(inp):
    rows = fpt_estimate(inp.generators, inp.p, inp.e_max, inp.budgets)
    return _rows_json(inp.p, rows)


@_command("classify", "compare the diagonal threshold with the generator count",
          "vars", "gens")
def _cmd_classify(inp):
    return lct_fpt_classifier(inp.generators).to_json_dict()


@_command("verify-prime", "check a classifier verdict at one prime",
          "vars", "gens", "p")
def _cmd_verify_prime(inp):
    verdict = lct_fpt_classifier(inp.generators)
    check = verify_prime(inp.generators, inp.p, verdict, Meter(inp.budgets))
    verdict = verdict.with_checked(inp.p, check.holds)
    return {
        "verdict": verdict.to_json_dict(),
        "check": check.to_json_dict(),
    }


@_command("fvol-bound", "volume lower bound for the principal ideals",
          "vars", "gens", "p", "counts_e_max?")
def _cmd_fvol_bound(inp):
    cert = fvolume_lower_bound(inp.generators, inp.p, Meter(inp.budgets))
    if inp.counts_e_max is not None:
        ideals = [[g] for g in inp.generators]
        rows = fvolume_estimate(ideals, inp.p, inp.counts_e_max, inp.budgets)
        cert = replace(cert, counts=tuple(rows))
    return cert.to_json_dict()


@_command("fvol-count", "brute-force escape-set cardinality",
          "vars", "ideals", "p", "e")
def _cmd_fvol_count(inp):
    _, count, _ = fvolume_estimate(inp.ideals, inp.p, inp.e, inp.budgets)[-1]
    return {"p": inp.p, "e": inp.e, "count": count}


@_command("fvol-estimate", "normalized counts for e = 1..e_max",
          "vars", "ideals", "p", "e_max")
def _cmd_fvol_estimate(inp):
    rows = fvolume_estimate(inp.ideals, inp.p, inp.e_max, inp.budgets)
    return _rows_json(inp.p, rows)


@_command("witness", "predicted vs expanded coefficient of the escape monomial",
          "vars", "gens", "p", "e")
def _cmd_witness(inp):
    return coefficient_witness(inp.generators, inp.p, inp.e, inp.budgets).to_json_dict()


# Subcommand name -> option string -> (flag name, _FLAGS entry), in the order
# its parser adds them and so -h and usage lines list them: its flags, --job,
# --format, then the budget flags.
_OPTIONS = {command: {_flag(name): (name, _FLAGS[name])
                      for name in (*dict(flags), "job", "format", *_BUDGET_FIELDS)}
            for command, (_, flags, _) in _COMMANDS.items()}


@functools.cache
def _build_parser():
    """The argument parser, built once per process; help text is
    formatted when it is printed, so it still follows COLUMNS."""
    parser = argparse.ArgumentParser(
        prog="fptcert",
        description=(
            "Certificates for threshold and volume invariants of polynomial "
            "ideals in prime characteristic"
        ),
    )
    parser.add_argument(
        "--version", action="version", version="fptcert %s" % __version__
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (help_text, _, _) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for option, (_, spec) in _OPTIONS[command].items():
            cmd.add_argument(option, type=spec.type, choices=spec.choices, help=spec.help)
    return parser


def _render_text(payload):
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk("%s.%s" % (prefix, key) if prefix else key, item)
        elif isinstance(value, (list, tuple)):
            lines.append(
                "%s: %s" % (prefix, json.dumps(value, separators=(",", ":")))
            )
        elif type(value) is bytes:
            lines.append("%s: [%s]" % (prefix, _joined(value, None, ",")))
        elif isinstance(value, str):
            lines.append("%s: %s" % (prefix, value))
        else:
            lines.append("%s: %s" % (prefix, json.dumps(value)))

    walk("", payload)
    return "\n".join(lines) + "\n"


def _json_text(value, lists, newline="\n"):
    """json.dumps(value, indent=2), byte for byte, but for its long lists:
    _LEAVES writes a scalar, and a list of one scalar type is joined from its
    item texts; a bytes value is the list of its byte values; other non-empty
    containers recurse; floats, empty containers and non-str keys are
    C-encoded.

    A list of one scalar type or a bytes value longer than _SLICE is left
    out: a NUL, which ensure_ascii JSON never holds, marks its place, and
    (its items, their leaf or None for bytes, its newline) is appended to
    ``lists`` for _pieces."""
    leaf = _LEAVES.get(type(value))
    if leaf:
        return leaf(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        if type(value) is not bytes:
            return _encode(value)
        if not value:
            return "[]"
    pad = newline + "  "
    if isinstance(value, dict):
        items = ((encode_basestring_ascii(k) if type(k) is str else _encode({k: 0})[1:-4])
                 + ": " + _json_text(v, lists, pad) for k, v in value.items())
        return "{%s%s%s}" % (pad, ("," + pad).join(items), newline)
    if type(value) is not bytes:
        types = set(map(type, value))
        if not (leaf := len(types) == 1 and _LEAVES.get(types.pop())):
            items = (_json_text(v, lists, pad) for v in value)
            return "[%s%s%s]" % (pad, ("," + pad).join(items), newline)
    if len(value) > _SLICE:
        lists.append((value, leaf, newline))
        return "\0"
    return "[%s%s%s]" % (pad, _joined(value, leaf, "," + pad), newline)


def _pieces(value):
    """json.dumps(value, indent=2) and a newline, in pieces: the text of
    _json_text around each long list it leaves out, and the list's items
    _SLICE at a time, so no text of the whole list is ever built."""
    lists = []
    head, *tails = _json_text(value, lists).split("\0")
    for (items, leaf, newline), tail in zip(lists, tails):
        sep = "," + newline + "  "
        yield head + "[" + newline + "  " + _joined(items[:_SLICE], leaf, sep)
        for start in range(_SLICE, len(items), _SLICE):
            yield sep + _joined(items[start:start + _SLICE], leaf, sep)
        head = newline + "]" + tail
    yield head + "\n"


class _IntTexts(dict):
    """int -> its decimal text, kept only when short, so the cache stays small."""

    def __missing__(self, n):
        text = int.__repr__(n)
        if len(text) <= 4:
            self[n] = text
        return text


_INT_TEXT = _IntTexts()
# json.dumps's text per scalar type, by exact type: a bool never reads _INT_TEXT
_LEAVES = {str: encode_basestring_ascii, int: _INT_TEXT.__getitem__,
           bool: {False: "false", True: "true"}.get, type(None): {None: "null"}.get}
_encode = json.JSONEncoder().encode
_SLICE = 4096  # items of a long scalar list written at a time
_DIGITS = bytes(48 + b if b < 10 else 32 for b in range(256))  # byte b < 10 -> digit b


def _joined(items, leaf, sep):
    """sep.join of the item texts of a scalar list, each written by
    ``leaf``, or of a bytes value (leaf None).  When every byte is below
    10, the bytes, translated to ASCII digits, are written at stride
    len(sep) + 1 into "0" + sep repeated; otherwise each byte is written
    by _INT_TEXT."""
    if leaf is None:
        digits = items.translate(_DIGITS)
        if digits.isdigit():
            sep = sep.encode()
            text = bytearray((b"0" + sep) * len(items))
            text[::len(sep) + 1] = digits
            return text[:len(text) - len(sep)].decode()
        leaf = _INT_TEXT.__getitem__
    return sep.join(map(leaf, items))


def _canonical(argv):
    """The Namespace parse_args makes of a canonical ``argv``, else None.

    An argv is canonical when argv[0] is a command and every later token
    is one of its full option strings, as --flag=value or as --flag and a
    next token; no value is empty, a next-token value does not start with
    '-', an int value converts and a --format value is one of its choices.
    parse_args stores each value of such an argv, the last of a repeated
    flag winning, and None for every option not given."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    values = dict.fromkeys(name for name, _ in options.values())
    tokens = iter(argv[1:])
    for token in tokens:
        option, equals, value = token.partition("=")
        name, spec = options.get(option, (None, None))
        if not equals:
            value = next(tokens, "")
        if spec is None or not value or not equals and value[0] == "-":
            return None
        if spec.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif spec.choices and value not in spec.choices:
            return None
        values[name] = value
    return argparse.Namespace(command=argv[0], **values)


def _parse_args(argv):
    """_build_parser().parse_args(argv), read from the option table without
    building the parser when argv is canonical (``_canonical``); argparse
    reads every other argv and writes every help, usage and error text."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _canonical(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def _run(argv):
    args = _parse_args(argv)
    job = _load_job(args.job) if args.job else {}
    if "command" in job and job["command"] != args.command:
        raise InputError(
            "job file is for command %r, invoked as %r" % (job["command"], args.command)
        )
    _, flags, handler = _COMMANDS[args.command]
    for key in job:
        if key not in ("command", "format", "budgets") and key not in dict(flags):
            raise InputError("unknown key %r in job file for %s" % (key, args.command))
    budgets = _resolve_budgets(args, job)
    values = _resolve_inputs(args, job, flags)
    inputs = {key: _jsonable(value) for key, value in values.items()}
    inputs["budgets"] = _json_fields(budgets)
    for key in ("generators", "ideals"):  # parsed once; handlers get polynomials
        if key in values:
            values[key] = _parse(values[key], values["variables"])
    payload = {
        "command": args.command,
        "input": inputs,
        "result": handler(SimpleNamespace(budgets=budgets, **values)),
        "version": __version__,
    }
    out_format = args.format or job.get("format")
    if out_format not in (None, *_FLAGS["format"].choices):
        raise InputError("job format must be 'json' or 'text'")
    if out_format == "text":
        sys.stdout.write(_render_text(payload))
    else:
        sys.stdout.writelines(_pieces(payload))
    return 0


def main(argv=None):
    try:
        return _run(argv)
    except FptcertError as exc:
        payload = {"error": {"kind": exc.kind, "message": str(exc)}}
        sys.stdout.writelines(_pieces(payload))
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
