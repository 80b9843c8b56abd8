"""Fuzz of the command line: whatever files it is given, `cli.main` ends
with exit status 0, 1 or 2, no exception escapes it, and a failure prints
exactly one line on stderr.

The input and point files hold arbitrary bytes, arbitrary JSON, or
well-typed manifolds whose expressions have at most 8 tokens besides
parentheses (twice that once made real by adding the conjugate), with
digits 1-3 only, so that every exponent is a single digit and the exact
algebra stays small and the test fast. Inputs that make the engine do
unbounded work (long expressions, large exponents) are not drawn here;
bounding that work needs a work budget in the engine, not this test.
"""

import contextlib
import io
import json
import operator
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import crclass.cli as cli
from conftest import HEISENBERG
from crclass.manifold import ALLOWED_TYPES

COMMANDS = ("classify", "frame", "levi", "brackets", "hull")

FUZZ = settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# most files fail in the reader, so these examples cost a few ms each
FUZZ_FILES = settings(FUZZ, max_examples=200)

# A short chunk repeated up to ten thousand times: deep nesting, long
# numbers, long runs of one operator.
repeated = st.builds(
    operator.mul,
    st.sampled_from([b"[", b'{"n":', b"9", b"-"]) | st.binary(min_size=1, max_size=3),
    st.sampled_from([10, 1000, 10_000]),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "c", "phi", "point", "z", "u"]) | st.text(max_size=3),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)

_OPS = ["+", "-", "*", "/", "^", "(", ")"]
_WORD = re.compile(r"zb|z|I")
_NOT_PAREN = re.compile(r"[A-Za-z]+[0-9]*|[0-9]+|[-+*/^]")


def _conj(text: str) -> str:
    return _WORD.sub(lambda m: {"zb": "z", "z": "zb", "I": "(-I)"}[m.group()], text)


def expressions(n: int, c: int):
    """Expression strings of type (n, c) with at most 8 tokens besides
    parentheses and digits 1-3: well-formed trees, or any token sequence,
    most of them made real by adding their conjugate."""
    names = [f"{v}{i}" for v in ("z", "zb") for i in range(1, n + 1)]
    names += [f"u{j}" for j in range(1, c + 1)]
    leaves = st.sampled_from([*names, "I", "1", "2", "3"])
    trees = st.recursive(
        leaves,
        lambda inner: st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner)
        | st.builds("{}^{}".format, inner, st.sampled_from("123")),
        max_leaves=4,
    )
    soup = st.lists(leaves | st.sampled_from(_OPS), min_size=1, max_size=8).map(" ".join)
    # three trees to one soup, and three real expressions to one other
    small = st.one_of(trees, trees, trees, soup).filter(lambda t: len(_NOT_PAREN.findall(t)) <= 8)
    real = st.sampled_from([True, True, True, False])
    return st.builds(lambda t, real: f"{t} + {_conj(t)}" if real else t, small, real)


@st.composite
def manifolds(draw):
    n, c = draw(st.sampled_from(ALLOWED_TYPES))
    data = {"n": n, "c": c, "phi": draw(st.lists(expressions(n, c), min_size=c, max_size=c))}
    if draw(st.booleans()):
        data["point"] = draw(points(n, c))
    return data


def points(n: int, c: int):
    constants = st.lists(
        st.sampled_from(["I", "1", "2", "3", "+", "-", "*", "/"]), min_size=1, max_size=4
    ).map(" ".join)
    return st.fixed_dictionaries({
        "z": st.lists(constants, min_size=n, max_size=n),
        "u": st.lists(constants, min_size=c, max_size=c),
    })


def _encode(value) -> bytes:
    return json.dumps(value).encode()


files = (
    st.binary(max_size=64)
    | repeated
    | json_values.map(_encode)
    | manifolds().map(_encode)
    | points(1, 1).map(_encode)
)
argv_tails = st.tuples(st.sampled_from(COMMANDS), st.booleans())


def _check(input_bytes: bytes, point_bytes: bytes | None, command: str, as_json: bool) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        input_path = Path(scratch) / "m.json"
        input_path.write_bytes(input_bytes)
        argv = [command, "--input", str(input_path)]
        if point_bytes is not None:
            point_path = Path(scratch) / "p.json"
            point_path.write_bytes(point_bytes)
            argv += ["--point", str(point_path)]
        if command == "hull":
            argv += ["--depth", "2"]
        if as_json:
            argv.append("--json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    event(f"exit status {code}")
    assert code in (0, 1, 2)
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1, err.getvalue()


@FUZZ_FILES
@given(files, argv_tails)
def test_fuzz_input_file(data, tail):
    _check(data, None, *tail)


@FUZZ_FILES
@given(files, argv_tails)
def test_fuzz_point_file(data, tail):
    n, c, phi = HEISENBERG
    _check(_encode({"n": n, "c": c, "phi": phi}), data, *tail)


@FUZZ
@given(manifolds(), argv_tails)
def test_fuzz_small_manifolds(data, tail):
    _check(_encode(data), None, *tail)
