"""Manifold input parsing and validation."""

import json
from fractions import Fraction

import pytest

from conftest import CUBIC_III1, HEISENBERG, LIGHT_CONE_TUBE, build, count_calls
from crclass import manifold
from crclass.classify import classify
from crclass.gaussian import GaussianRational
from crclass.errors import (
    BasePointError,
    DimensionError,
    FrameSingularError,
    RealityError,
    ValidationError,
)
from crclass.gaussian import gr
from crclass.manifold import (
    PointAssignment,
    load_manifold,
    manifold_from_dict,
    validate_manifold,
)


def test_heisenberg_valid_no_warnings():
    vm = build(*HEISENBERG)
    assert (vm.n, vm.c) == (1, 1)
    assert vm.warnings == ()


def test_tube_valid_at_origin():
    vm = build(*LIGHT_CONE_TUBE)
    assert vm.warnings == ()
    assert vm.point_coords() == tuple(gr(0) for _ in range(5))


def test_reality_violation():
    with pytest.raises(RealityError):
        build(1, 1, ["I*z1"])
    with pytest.raises(RealityError):
        build(1, 1, ["z1"])


def test_unsupported_types():
    with pytest.raises(DimensionError):
        manifold_from_dict({"n": 3, "c": 1, "phi": ["0"]})
    with pytest.raises(DimensionError):
        manifold_from_dict({"n": 2, "c": 2, "phi": ["0", "0"]})
    with pytest.raises(DimensionError):
        manifold_from_dict({"n": "1", "c": 1, "phi": ["0"]})


def test_malformed_container():
    with pytest.raises(ValidationError):
        manifold_from_dict(["z1*zb1"])
    with pytest.raises(ValidationError):
        manifold_from_dict({"n": 1, "c": 1, "phi": "z1*zb1"})
    with pytest.raises(DimensionError):
        manifold_from_dict({"n": 1, "c": 2, "phi": ["z1*zb1"]})


def test_base_point_pole():
    data = {
        "n": 1,
        "c": 1,
        "phi": ["1/(1 - z1*zb1)"],
        "point": {"z": ["1"], "u": ["0"]},
    }
    with pytest.raises(BasePointError):
        validate_manifold(manifold_from_dict(data))


def test_frame_singular_at_base_point():
    # det(i*I_2 + Phi_u) = i^2 + 1 = 0 at the origin for this pair
    with pytest.raises(FrameSingularError):
        build(1, 2, ["u2", "-u1"])


def test_cramer_denominator_c1_never_vanishes_for_rigid():
    vm = build(*HEISENBERG)
    den = vm.cramer_det
    assert den.eval(vm.point_coords()) == gr(0, 1)


def test_one_cramer_system_per_classify(monkeypatch):
    # validation builds the system and its determinant; the frame reuses them
    calls = count_calls(monkeypatch, manifold, "cramer_system")
    classify(build(*CUBIC_III1))
    assert len(calls) == 1


def test_warnings_nonzero_value_and_gradient():
    vm = build(1, 1, ["z1*zb1 + 1"])
    assert any("nonzero at the base point" in w for w in vm.warnings)
    vm = build(1, 1, ["z1 + zb1"])
    assert any("nonzero gradient" in w for w in vm.warnings)


def test_point_parsing():
    vm = build(
        1,
        1,
        ["z1*zb1"],
        point={"z": ["1/2 + I"], "u": ["2"]},
    )
    z, zb, u = vm.point_coords()
    assert z == GaussianRational(Fraction(1, 2), Fraction(1))
    assert zb == z.conj()
    assert u == gr(2)


def test_point_validation_errors():
    base = {"n": 1, "c": 1, "phi": ["z1*zb1"]}
    with pytest.raises(ValidationError):
        manifold_from_dict({**base, "point": {"z": ["1", "2"], "u": ["0"]}})
    with pytest.raises(ValidationError):
        manifold_from_dict({**base, "point": {"z": ["1"], "u": ["I"]}})
    with pytest.raises(ValidationError):
        manifold_from_dict({**base, "point": {"z": ["1"]}})


def test_origin_helper():
    p = PointAssignment.origin(2, 1)
    assert len(p.z) == 2 and len(p.u) == 1
    assert all(v.is_zero() for v in p.z)


def test_boolean_dimensions_are_rejected():
    with pytest.raises(DimensionError, match="must be integers"):
        manifold_from_dict({"n": True, "c": True, "phi": ["z1*zb1"]})
    with pytest.raises(DimensionError, match="must be integers"):
        manifold_from_dict({"n": 1, "c": False, "phi": ["z1*zb1"]})


def test_load_manifold_with_point_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "c": 1, "phi": ["z1*zb1"]}))
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"z": ["1/2 + I"], "u": ["2"]}))
    spec = load_manifold(str(path), str(point))
    assert spec.point == PointAssignment(z=(gr(Fraction(1, 2), 1),), u=(Fraction(2),))
    assert spec.phi == load_manifold(str(path)).phi


def test_load_manifold_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "c": 1, "phi": ["z1*zb1"]}))
    spec = load_manifold(str(path))
    assert validate_manifold(spec).n == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_manifold(str(bad))
