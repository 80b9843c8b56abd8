"""Shared builders for the test suite."""

import sys

import pytest

from crclass.frames import cramer_frame
from crclass.manifold import manifold_from_dict, validate_manifold
from crclass.parser import parse_expr

# named models used across test modules: (n, c, phi texts)
HEISENBERG = (1, 1, ["z1*zb1"])
FLAT_11 = (1, 1, ["0"])
BELOSHAPKA = (1, 2, ["z1*zb1", "z1*zb1*(z1 + zb1)"])
CUBIC_III1 = (1, 3, ["z1*zb1", "z1^2*zb1 + z1*zb1^2", "-I*z1^2*zb1 + I*z1*zb1^2"])
MODEL_III2 = (
    1,
    3,
    ["z1*zb1", "z1*zb1*(z1 + zb1)", "z1*zb1*(z1^2 + 3/2*z1*zb1 + zb1^2)"],
)
SPHERE = (2, 1, ["z1*zb1 + z2*zb2"])
LIGHT_CONE_TUBE = (
    2,
    1,
    ["(z1*zb1 + 1/2*z1^2*zb2 + 1/2*zb1^2*z2)/(1 - z2*zb2)"],
)
PRODUCT_M3XC = (2, 1, ["z1*zb1"])
SUM_SQUARE = (2, 1, ["(z1 + z2)*(zb1 + zb2)"])


def build(n, c, phis, point=None):
    data = {"n": n, "c": c, "phi": list(phis)}
    if point is not None:
        data["point"] = point
    return validate_manifold(manifold_from_dict(data))


def is_cr_function(f, vm):
    """True iff every conj(L_i) of the Cramer frame annihilates f identically."""
    return all(lb.apply(f).is_zero() for lb in cramer_frame(vm).Lbar)


def count_calls(monkeypatch, module, name):
    """Record the calls of module.name, patched in every crclass module binding it."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("crclass") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture(scope="session")
def heisenberg():
    return build(*HEISENBERG)


@pytest.fixture(scope="session")
def tube():
    return build(*LIGHT_CONE_TUBE)


@pytest.fixture(scope="session")
def sphere():
    return build(*SPHERE)


@pytest.fixture(scope="session")
def model_iii2():
    return build(*MODEL_III2)


def pe(text, n, c):
    return parse_expr(text, n, c)
