"""Manifold descriptions and their validation.

A manifold of type (n, c) is given by c real-valued graphing functions
phi_j in the variables z_1..z_n, zb_1..zb_n, u_1..u_c, together with a
base point. Supported types keep the real dimension 2n + c at most 5:
(1, 1), (1, 2), (1, 3), (2, 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .errors import (
    BasePointError,
    DimensionError,
    FrameSingularError,
    RealityError,
    ValidationError,
)
from .gaussian import GR_I, GaussianRational, gr
from .linalg import det_expr
from .parser import parse_constant, parse_expr
from .poly import VarSpace
from .ratfunc import PoleError, RationalExpr

ALLOWED_TYPES = ((1, 1), (1, 2), (1, 3), (2, 1))


@dataclass(frozen=True, slots=True)
class PointAssignment:
    """A point on the ambient space: complex z-values and real u-values."""

    z: tuple[GaussianRational, ...]
    u: tuple[Fraction, ...]

    def coords(self, space: VarSpace) -> tuple[GaussianRational, ...]:
        if len(self.z) != space.n or len(self.u) != space.c:
            raise DimensionError(
                f"point has {len(self.z)} z-values and {len(self.u)} u-values, "
                f"expected {space.n} and {space.c}"
            )
        zbar = tuple(v.conj() for v in self.z)
        uu = tuple(gr(v) for v in self.u)
        return self.z + zbar + uu

    @staticmethod
    def origin(n: int, c: int) -> "PointAssignment":
        return PointAssignment(
            z=tuple(gr(0) for _ in range(n)),
            u=tuple(Fraction(0) for _ in range(c)),
        )


@dataclass(frozen=True, slots=True)
class ManifoldSpec:
    """Unvalidated manifold data exactly as the user supplied it."""

    n: int
    c: int
    phi: tuple[RationalExpr, ...]
    point: PointAssignment


@dataclass(frozen=True, slots=True)
class ValidatedManifold:
    """A ManifoldSpec that passed validate_manifold, plus any warnings."""

    n: int
    c: int
    phi: tuple[RationalExpr, ...]
    point: PointAssignment
    warnings: tuple[str, ...]
    # i*I_c + Phi_u and its determinant, built once by validate_manifold
    # for the base-point check and handed on to the Cramer frame
    cramer: tuple[tuple[RationalExpr, ...], ...] = field(compare=False, repr=False)
    cramer_det: RationalExpr = field(compare=False, repr=False)

    @property
    def space(self) -> VarSpace:
        return VarSpace(self.n, self.c)

    def point_coords(self) -> tuple[GaussianRational, ...]:
        return self.point.coords(self.space)


def _parse_point(data: Any, n: int, c: int) -> PointAssignment:
    if not isinstance(data, dict):
        raise BasePointError("point must be an object with 'z' and 'u' arrays")
    zs = data.get("z", [])
    us = data.get("u", [])
    if not isinstance(zs, list) or not isinstance(us, list):
        raise BasePointError("point 'z' and 'u' must be arrays of strings")
    if len(zs) != n or len(us) != c:
        raise DimensionError(
            f"point needs {n} z-values and {c} u-values, got {len(zs)} and {len(us)}"
        )
    zvals = []
    for i, text in enumerate(zs):
        if not isinstance(text, str):
            raise BasePointError(f"point z[{i}] must be a string")
        zvals.append(parse_constant(text))
    uvals = []
    for j, text in enumerate(us):
        if not isinstance(text, str):
            raise BasePointError(f"point u[{j}] must be a string")
        value = parse_constant(text)
        if value.im != 0:
            raise BasePointError(f"point u[{j}] must be real, got {value}")
        uvals.append(value.re)
    return PointAssignment(z=tuple(zvals), u=tuple(uvals))


def manifold_from_dict(data: Any) -> ManifoldSpec:
    """Build a ManifoldSpec from parsed JSON; raises ValidationError subclasses."""
    if not isinstance(data, dict):
        raise ValidationError("manifold description must be a JSON object")
    n = data.get("n")
    c = data.get("c")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, c)):
        raise DimensionError("'n' and 'c' must be integers")
    if (n, c) not in ALLOWED_TYPES:
        raise DimensionError(
            f"type ({n}, {c}) unsupported; allowed: "
            + ", ".join(f"({a}, {b})" for a, b in ALLOWED_TYPES)
        )
    phi_texts = data.get("phi")
    if not isinstance(phi_texts, list) or not all(isinstance(t, str) for t in phi_texts):
        raise ValidationError("'phi' must be an array of expression strings")
    if len(phi_texts) != c:
        raise DimensionError(f"need {c} graphing functions, got {len(phi_texts)}")
    phi = tuple(parse_expr(t, n, c) for t in phi_texts)
    if "point" in data and data["point"] is not None:
        point = _parse_point(data["point"], n, c)
    else:
        point = PointAssignment.origin(n, c)
    return ManifoldSpec(n=n, c=c, phi=phi, point=point)


def _read_json(path: str) -> Any:
    """The JSON value in a UTF-8 file. A file that does not decode, nests
    past the interpreter's recursion limit or holds an integer past its
    digit limit raises ValidationError; OSError passes through."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def load_manifold(path: str, point_path: str | None = None) -> ManifoldSpec:
    """Read a manifold file; a point file, if given, replaces its base point."""
    spec = manifold_from_dict(_read_json(path))
    if point_path is None:
        return spec
    point = _parse_point(_read_json(point_path), spec.n, spec.c)
    return ManifoldSpec(n=spec.n, c=spec.c, phi=spec.phi, point=point)


def cramer_system(spec: ManifoldSpec) -> tuple[tuple[RationalExpr, ...], ...]:
    """The c x c matrix i*I_c + Phi_u of the Cramer solve for the frame."""
    space = VarSpace(spec.n, spec.c)
    i_const = RationalExpr.const(space, GR_I)
    rows = []
    for j in range(spec.c):
        row = [spec.phi[j].diff(space.u_slot(l)) for l in range(spec.c)]
        row[j] = row[j] + i_const
        rows.append(tuple(row))
    return tuple(rows)


def validate_manifold(spec: ManifoldSpec) -> ValidatedManifold:
    """Check reality, dimensions, and base-point regularity.

    Raises a ValidationError subclass on failure. Non-fatal conventions
    (phi nonzero at the base point, d_phi nonzero at the base point) are
    collected as warnings.
    """
    if (spec.n, spec.c) not in ALLOWED_TYPES:
        raise DimensionError(f"type ({spec.n}, {spec.c}) unsupported")
    if len(spec.phi) != spec.c:
        raise DimensionError(
            f"need {spec.c} graphing functions, got {len(spec.phi)}"
        )
    space = VarSpace(spec.n, spec.c)
    for j, p in enumerate(spec.phi):
        if p.space != space:
            raise DimensionError(f"phi_{j + 1} was parsed for a different type")
        if not (p.conj() - p).is_zero():
            raise RealityError(f"phi_{j + 1} is not real-valued (conj differs)")

    coords = spec.point.coords(space)
    for j, p in enumerate(spec.phi):
        try:
            p.eval(coords)
        except PoleError as exc:
            raise BasePointError(
                f"phi_{j + 1} has a pole at the base point"
            ) from exc

    system = cramer_system(spec)
    den = det_expr(system)
    try:
        den_at_point = den.eval(coords)
    except PoleError as exc:
        raise BasePointError(
            "frame denominator has a pole at the base point"
        ) from exc
    if den_at_point.is_zero():
        raise FrameSingularError(
            "det(i*I + Phi_u) vanishes at the base point; frame is singular there"
        )

    warnings = []
    for j, p in enumerate(spec.phi):
        if not p.eval(coords).is_zero():
            warnings.append(f"phi_{j + 1} is nonzero at the base point")
    for j, p in enumerate(spec.phi):
        grad_nonzero = False
        for slot in range(space.nvars):
            try:
                if not p.diff(slot).eval(coords).is_zero():
                    grad_nonzero = True
                    break
            except PoleError:
                grad_nonzero = True
                break
        if grad_nonzero:
            warnings.append(f"phi_{j + 1} has nonzero gradient at the base point")

    return ValidatedManifold(
        n=spec.n, c=spec.c, phi=spec.phi, point=spec.point,
        warnings=tuple(warnings), cramer=system, cramer_det=den,
    )
