"""Command-line interface: text output, JSON reports, exit codes."""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import crclass.cli as cli
from conftest import (
    BELOSHAPKA,
    CUBIC_III1,
    FLAT_11,
    HEISENBERG,
    LIGHT_CONE_TUBE,
    MODEL_III2,
    PRODUCT_M3XC,
    SPHERE,
    SUM_SQUARE,
    count_calls,
)
from crclass.classify import MAX_HULL_DEPTH
from crclass.errors import InternalAssertion
from crclass import poly
from crclass.poly import MAX_DEGREE

REPO = Path(__file__).resolve().parents[1]

GOLDEN_MODELS = {
    "heisenberg": HEISENBERG,
    "flat": FLAT_11,
    "beloshapka": BELOSHAPKA,
    "cubic_iii1": CUBIC_III1,
    "model_iii2": MODEL_III2,
    "sphere": SPHERE,
    "tube": LIGHT_CONE_TUBE,
    "product": PRODUCT_M3XC,
    "sum_square": SUM_SQUARE,
}

GOLDEN_COMMANDS = (
    ("classify",),
    ("classify", "--json"),
    ("frame", "--json"),
    ("levi",),
    ("levi", "--json"),
    ("brackets",),
    ("brackets", "--json"),
    ("hull", "--depth", "2"),
)

# Inputs whose frames have nonconstant denominators, so that the rational
# arithmetic's cancellation shows in the bytes: a u-dependent seeded (2,1)
# phi, an image of the light-cone tube under z -> Mz, a rational (1,2)
# input with two different denominators and a u-dependent (1,3) input.
GOLDEN_RATIONAL_MODELS = {
    "random21_u": (2, 1, [
        "(-2 - I)*zb1*zb2 + (-2 + I)*z1*z2 + (-1 + 2*I)*zb1 + (-1 - 2*I)*z1"
        " + (1 + 2*I)*zb1^2 + (1 - 2*I)*z1^2 + (1 + 2*I)*u1*zb2^2"
        " + (1 - 2*I)*u1*z2^2",
    ]),
    "tube_image": (2, 1, [
        "(((I)*z1 + (-1)*z2)*((-I)*zb1 + (-1)*zb2)"
        " + 1/2*((I)*z1 + (-1)*z2)^2*((1)*zb1 + (I)*zb2)"
        " + 1/2*((-I)*zb1 + (-1)*zb2)^2*((1)*z1 + (-I)*z2))"
        "/(1 - ((1)*z1 + (-I)*z2)*((1)*zb1 + (I)*zb2))",
    ]),
    "rational12": (1, 2, ["z1*zb1/(1 + z1*zb1)", "z1*zb1*(z1 + zb1)/(2 + z1 + zb1)"]),
    "u13": (1, 3, [
        "z1*zb1 + z1*zb1*u2", "z1^2*zb1 + z1*zb1^2 + u1*u3", "-I*z1^2*zb1 + I*z1*zb1^2",
    ]),
}

GOLDEN_RATIONAL_COMMANDS = (
    ("classify", "--json"),
    ("levi", "--json"),
    ("brackets", "--json"),
    ("frame", "--json"),
)


def write_spec(tmp_path, spec, name="m.json", point=None):
    n, c, phis = spec
    data = {"n": n, "c": c, "phi": phis}
    if point is not None:
        data["point"] = point
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_frame_heisenberg_text(tmp_path, capsys):
    path = write_spec(tmp_path, HEISENBERG)
    code, out, err = run_cli(capsys, "frame", "--input", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "A_1^1 = I*zb1" in lines
    assert "L1 = d/dz1 + (I*zb1) d/du1" in lines
    assert "Lb1 = d/dzb1 + (-I*z1) d/du1" in lines
    assert any(line.startswith("rho0_1 = ") for line in lines)


def test_classify_text_iii2(tmp_path, capsys):
    path = write_spec(tmp_path, MODEL_III2)
    code, out, _ = run_cli(capsys, "classify", "--input", path)
    assert code == 0
    assert "verdict: Class III_2 [ClassIII2]" in out
    assert "r4 = 4" in out
    assert "r5 = 5" in out
    assert "observational d" in out
    assert "sigma_flag: false" in out


def test_classify_text_tube_kernel(tmp_path, capsys):
    path = write_spec(tmp_path, LIGHT_CONE_TUBE)
    code, out, _ = run_cli(capsys, "classify", "--input", path)
    assert code == 0
    assert "verdict: Class IV_2 [ClassIV2]" in out
    assert "k = (z1*zb2 + zb1)/(z2*zb2 - 1)" in out
    assert "freeman = (-1)/(z2*zb2 - 1)" in out
    assert "freeman at base point = 1" in out


def test_classify_json_structure(tmp_path, capsys):
    path = write_spec(tmp_path, LIGHT_CONE_TUBE)
    code, out, _ = run_cli(capsys, "classify", "--input", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ClassIV2"
    assert doc["input"]["n"] == 2 and doc["input"]["c"] == 1
    assert doc["ranks"]["generic"] == {"Levi": 1}
    assert doc["ranks"]["at_point"] == {"Levi": 1}
    assert doc["sigma_flag"] is False
    names = [w["name"] for w in doc["witnesses"]]
    assert "Levi" in names and "certificate" in names
    kernel = doc["kernel"]
    assert kernel["k"] == "(z1*zb2 + zb1)/(z2*zb2 - 1)"
    assert kernel["freeman_identically_zero"] is False
    assert kernel["freeman_at_point"] == "1"


def test_classify_json_byte_identical_repeats(tmp_path, capsys):
    for spec in (MODEL_III2, LIGHT_CONE_TUBE):
        path = write_spec(tmp_path, spec)
        _, first, _ = run_cli(capsys, "classify", "--input", path, "--json")
        _, second, _ = run_cli(capsys, "classify", "--input", path, "--json")
        assert first == second


def test_levi_command(tmp_path, capsys):
    path = write_spec(tmp_path, LIGHT_CONE_TUBE)
    code, out, _ = run_cli(capsys, "levi", "--input", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["determinant"] == "0"
    assert doc["generic_rank"] == 1
    assert doc["kernel"]["freeman"] == "(-1)/(z2*zb2 - 1)"


def test_levi_command_n1_has_no_kernel(tmp_path, capsys):
    # Kernel data belongs to type (2,1) only; a Levi-nondegenerate n = 1
    # input has Levi rank 1 too.
    path = write_spec(tmp_path, HEISENBERG)
    code, out, err = run_cli(capsys, "levi", "--input", path, "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["generic_rank"] == 1
    assert "kernel" not in doc


def test_brackets_command(tmp_path, capsys):
    path = write_spec(tmp_path, HEISENBERG)
    code, out, _ = run_cli(capsys, "brackets", "--input", path)
    assert code == 0
    assert "T = (2) d/du1" in out


def test_hull_command(tmp_path, capsys):
    path = write_spec(tmp_path, MODEL_III2)
    code, out, _ = run_cli(
        capsys, "hull", "--input", path, "--depth", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ranks_by_depth"] == [2, 3, 4, 5, 5]
    assert doc["rank"] == 5
    assert doc["stabilized_at"] == 4

    code, out, _ = run_cli(capsys, "hull", "--input", path, "--depth", "3")
    assert code == 0
    assert "depth 3: rank 4" in out
    assert "not stabilized within depth 3" in out


def test_hull_depth_cap(tmp_path, capsys):
    path = write_spec(tmp_path, HEISENBERG)
    code, out, err = run_cli(
        capsys, "hull", "--input", path, "--depth", str(MAX_HULL_DEPTH)
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[MAX_HULL_DEPTH - 1] == f"depth {MAX_HULL_DEPTH}: rank 3"
    assert lines[MAX_HULL_DEPTH:] == ["stabilized at depth 2 with rank 3"]

    code, out, err = run_cli(
        capsys, "hull", "--input", path, "--depth", str(MAX_HULL_DEPTH + 1)
    )
    assert code == 1 and out == ""
    assert err == f"error: --depth must be at most {MAX_HULL_DEPTH}\n"


def test_argument_parser_built_once(tmp_path, capsys):
    path = write_spec(tmp_path, HEISENBERG)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, "hull", "--input", path, "--depth", "2")[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_point_override(tmp_path, capsys):
    spec_path = write_spec(tmp_path, (2, 1, ["z1*zb1 + z2^2*zb2^2"]))
    point_path = tmp_path / "p.json"
    point_path.write_text(json.dumps({"z": ["0", "1"], "u": ["0"]}))
    code, out, _ = run_cli(
        capsys, "classify", "--input", spec_path, "--point", str(point_path)
    )
    assert code == 0
    assert "sigma_flag: false" in out
    # note lines are emitted because phi does not vanish at the new point
    assert "note: phi_1 is nonzero at the base point" in out


def test_exit_code_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", "--input", str(tmp_path / "no.json"))
    assert code == 1
    assert "cannot read input" in err


def test_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 1
    assert "error:" in err


def test_exit_code_parse_and_validation(tmp_path, capsys):
    path = write_spec(tmp_path, (1, 1, ["z1*zb1/(1 - )"]))
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 1

    path = write_spec(tmp_path, (1, 1, ["I*z1"]), name="m2.json")
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 1
    assert "not real-valued" in err

    path = write_spec(tmp_path, HEISENBERG, name="m3.json")
    code, _, err = run_cli(capsys, "hull", "--input", path, "--depth", "0")
    assert code == 1
    assert "--depth" in err


def test_exit_code_internal_assertion(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, HEISENBERG)

    def boom(vm):
        raise InternalAssertion("planted")

    monkeypatch.setattr(cli, "classify", boom)
    code, _, err = run_cli(capsys, "classify", "--input", path)
    assert code == 2
    assert "internal invariant violated" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["nonsense"])
    assert info.value.code == 1


def _nested(expr, depth):
    return "(" * depth + expr + ")" * depth


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    path = write_spec(tmp_path, (1, 1, [_nested("z1*zb1", 250)]))
    code, out, err = run_cli(capsys, "classify", "--input", path, "--json")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "nested deeper than" in err
    assert err.count("\n") == 1


def test_degree_past_the_cap_exits_one(tmp_path, capsys):
    # 129 factors of degree 512 pass MAX_DEGREE = 65535 at the 128th.
    phi = "*".join(["z1^512"] * 129)
    path = write_spec(tmp_path, (1, 1, [phi]))
    code, out, err = run_cli(capsys, "classify", "--input", path)
    assert code == 1 and out == ""
    assert err == f"error: polynomial degree exceeds {MAX_DEGREE}\n"


def test_moderate_nesting_parses(tmp_path, capsys):
    plain = write_spec(tmp_path, HEISENBERG, name="plain.json")
    nested = write_spec(tmp_path, (1, 1, [_nested("z1*zb1", 40)]), name="nested.json")
    code_plain, out_plain, _ = run_cli(capsys, "classify", "--input", plain, "--json")
    code_nested, out_nested, _ = run_cli(capsys, "classify", "--input", nested, "--json")
    assert code_plain == code_nested == 0
    doc_plain, doc_nested = json.loads(out_plain), json.loads(out_nested)
    assert doc_nested["verdict"] == doc_plain["verdict"]
    assert doc_nested["input"]["phi"] == doc_plain["input"]["phi"]


HOSTILE_FILES = {
    "nested": b"[" * 100_000,
    "not_utf8": b"\xff\xfe",
    "long_number": b'{"n": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
@pytest.mark.parametrize("role", ["--input", "--point"])
def test_hostile_json_file_exits_one(tmp_path, capsys, name, role):
    hostile = tmp_path / f"{name}.json"
    hostile.write_bytes(HOSTILE_FILES[name])
    good = write_spec(tmp_path, HEISENBERG)
    argv = ["--input", str(hostile)] if role == "--input" else ["--input", good, "--point", str(hostile)]
    code, out, err = run_cli(capsys, "classify", *argv, "--json")
    assert code == 1 and out == ""
    assert err.startswith(f"error: invalid JSON in {hostile}: ")
    assert err.count("\n") == 1


def test_error_is_one_line_for_a_file_name_with_a_line_break(tmp_path, capsys):
    path = tmp_path / "bad\nname.json"
    path.write_text("{")
    code, out, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: invalid JSON in {tmp_path}/bad\\nname.json: ")
    assert err.count("\n") == 1


def test_long_integer_literal_exits_one(tmp_path, capsys):
    digits = "1" * 5000
    path = write_spec(tmp_path, (1, 1, [f"z1*zb1 + {digits}"]))
    code, out, err = run_cli(capsys, "classify", "--input", path)
    assert code == 1 and out == ""
    assert err == "error: integer literal of 5000 digits is too long (offset 9)\n"

    point = tmp_path / "p.json"
    point.write_text(json.dumps({"z": [digits], "u": ["0"]}))
    path = write_spec(tmp_path, HEISENBERG, name="h.json")
    code, out, err = run_cli(capsys, "classify", "--input", path, "--point", str(point))
    assert code == 1 and out == ""
    assert err == "error: integer literal of 5000 digits is too long (offset 0)\n"


def test_long_coefficient_prints_exactly(tmp_path, capsys):
    # 10^4500 has more digits than str() converts by default
    path = write_spec(tmp_path, (1, 1, ["1000000000^500*z1*zb1"]))
    code, out, err = run_cli(capsys, "classify", "--input", path, "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["input"]["phi"] == ["1" + "0" * 4500 + "*z1*zb1"]
    assert doc["witnesses"][0]["minor"] == "2" + "0" * 4500
    code, out, err = run_cli(capsys, "classify", "--input", path)
    assert code == 0 and err == ""
    assert f"minor 2{'0' * 4500}\n" in out


def golden_outputs(directory):
    """Stdout of every golden model under every golden command."""
    out = {}
    for models, commands in (
        (GOLDEN_MODELS, GOLDEN_COMMANDS),
        (GOLDEN_RATIONAL_MODELS, GOLDEN_RATIONAL_COMMANDS),
    ):
        for name, spec in models.items():
            path = write_spec(Path(directory), spec, name=f"{name}.json")
            for argv in commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([argv[0], "--input", path, *argv[1:]])
                assert code == 0, (name, argv)
                out.setdefault(name, {})[" ".join(argv)] = buf.getvalue()
    return out


def test_stdout_matches_golden(tmp_path):
    """Byte-exact stdout of the nine named models under eight commands,
    and of four inputs with nonconstant frame denominators under the
    four JSON commands.

    tests/data/cli_golden.json pins these bytes across commits; it is
    regenerated only for an intended change of output, from the repo root:

        PYTHONPATH=src python tests/test_cli.py > tests/data/cli_golden.json
    """
    want = json.loads((REPO / "tests" / "data" / "cli_golden.json").read_text("utf-8"))
    got = golden_outputs(tmp_path)
    assert sorted(got) == sorted(want)
    for name, outputs in want.items():
        assert sorted(got[name]) == sorted(outputs)
        for command, text in outputs.items():
            assert got[name][command] == text, f"{name}: {command}"


def test_tube_image_levi_takes_few_coprimality_scans(tmp_path, capsys, monkeypatch):
    # Its atoms are prime by the degree-1 test, and k is a quotient on
    # shared atoms, so most reductions need no gcd (the scan ran 22 times
    # when every reduction took one).
    poly.poly_gcd.cache_clear()
    calls = count_calls(monkeypatch, poly, "_coprimality_scan")
    path = write_spec(tmp_path, GOLDEN_RATIONAL_MODELS["tube_image"])
    code, out, _ = run_cli(capsys, "levi", "--input", path, "--json")
    want = json.loads((REPO / "tests" / "data" / "cli_golden.json").read_text("utf-8"))
    assert code == 0 and out == want["tube_image"]["levi --json"]
    assert len(calls) <= 10


def test_traced_names_resolve():
    # The benchmark's tracer wraps these names by getattr; one that a
    # refactor drops would only surface in a traced benchmark run.
    path = REPO / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _span in tracing.TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(golden_outputs(scratch), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
