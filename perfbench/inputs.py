"""Seeded inputs for the two benchmark workloads.

Everything here is plain Python: graphing functions are written as text
in the CLI's expression syntax, so the engine only ever sees the generated
JSON files. Seeded random phi keep a seed-free monomial shape and take
their coefficients from the seed; coordinate changes are drawn from
families whose images all have the same terms. So the seed changes the
inputs but hardly the work one round does.

An input is a dict:

    name      unique label, stable for a given seed
    spec      {"n", "c", "phi"}, the manifold JSON handed to the CLI
    ops       list of argument lists, e.g. ["classify", "--json"]
    model     the named model this input is an image of (or is), else None
"""

from __future__ import annotations

import random
import re

# The paper's named models: (n, c, phi texts) and the verdict the paper
# assigns to each.
MODELS = {
    "heisenberg": (1, 1, ["z1*zb1"]),
    "flat": (1, 1, ["0"]),
    "beloshapka": (1, 2, ["z1*zb1", "z1*zb1*(z1 + zb1)"]),
    "cubic_iii1": (1, 3, ["z1*zb1", "z1^2*zb1 + z1*zb1^2", "-I*z1^2*zb1 + I*z1*zb1^2"]),
    "model_iii2": (
        1, 3, ["z1*zb1", "z1*zb1*(z1 + zb1)", "z1*zb1*(z1^2 + 3/2*z1*zb1 + zb1^2)"],
    ),
    "sphere": (2, 1, ["z1*zb1 + z2*zb2"]),
    "tube": (2, 1, ["(z1*zb1 + 1/2*z1^2*zb2 + 1/2*zb1^2*z2)/(1 - z2*zb2)"]),
    "product": (2, 1, ["z1*zb1"]),
    "sum_square": (2, 1, ["(z1 + z2)*(zb1 + zb2)"]),
    # the test phi H of the roadmap: reaches rank 2n + c = 5 at depth 2
    "phi_h": (2, 1, ["z1^2*zb2^2*u1 + z2^2*zb1^2*u1 + z1*zb1*u1^3 + z2*zb2*z1*zb1"]),
}

MODEL_VERDICT = {
    "heisenberg": "ClassI",
    "flat": "LeviFlat",
    "beloshapka": "ClassII",
    "cubic_iii1": "ClassIII1",
    "model_iii2": "ClassIII2",
    "sphere": "ClassIV1",
    "tube": "ClassIV2",
    "product": "DegenerateProduct(M3xC)",
    "sum_square": "DegenerateProduct(M3xC)",
}

# Bracket-hull rank ladders that follow from each model's class: depth 1
# is 2n, T enters at depth 2 unless Levi-flat, and the class fixes the
# depth at which the remaining u-directions are reached.
MODEL_LADDER = {
    "heisenberg": (2, 3, 3, 3, 3),
    "flat": (2, 2, 2, 2, 2),
    "beloshapka": (2, 3, 4, 4, 4),
    "cubic_iii1": (2, 3, 5, 5, 5),
    "model_iii2": (2, 3, 4, 5, 5),
    "tube": (4, 5, 5, 5, 5),
    "phi_h": (4, 5),
}

N1_MODELS = ("heisenberg", "flat", "beloshapka", "cubic_iii1", "model_iii2")
N2_MODELS = ("sphere", "tube", "product", "sum_square")

WORKLOADS = ("levi21", "rigid1c")

# How many seeded draws of each kind one round holds. A round takes a few
# seconds, so a 40 s run measures several whole rounds. The sphere has no
# images: M below is sqrt(2) times a unitary matrix, which maps the sphere
# to twice itself.
LEVI21_RANDOM = 7
LEVI21_IMAGES = {"tube": 2, "product": 6, "sum_square": 6}
RIGID_RANDOM = {2: 16, 3: 16}
RIGID_IMAGES = 2

# Bracket-hull depths. The tube and phi H reach rank 2n + c at depth 2, so
# deeper brackets add nothing; model III_2 reaches it only at depth 4.
LEVI21_TUBE_HULL = (3, 4, 5)
RIGID_MODEL_HULL = 5

# The tail percentile of each workload: the highest that keeps at least ten
# samples beyond it at the workload's throughput in a 40 s run. It is fixed
# so that a faster program does not change what the metric means.
TAIL_PERCENTILE = {"levi21": 96, "rigid1c": 99}

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# Coefficients of seeded phi: the eight Gaussian integers of norm 5, so the
# seed changes phases and signs but not the size of the numbers.
_NORM5 = ((1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1))

_VAR = re.compile(r"\b(zb|z)([1-9])\b")


def _variables(n: int, c: int, use_u: bool) -> list[str]:
    names = [f"z{i}" for i in range(1, n + 1)] + [f"zb{i}" for i in range(1, n + 1)]
    if use_u:
        names += [f"u{j}" for j in range(1, c + 1)]
    return names


def _conj_name(name: str) -> str:
    if name.startswith("zb"):
        return "z" + name[2:]
    if name.startswith("z"):
        return "zb" + name[1:]
    return name


def _gauss_text(re_: int, im: int) -> str:
    if im == 0:
        return str(re_)
    if re_ == 0:
        return "I" if im == 1 else ("-I" if im == -1 else f"{im}*I")
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    return f"{re_} {sign} {'I' if mag == 1 else f'{mag}*I'}"


def _mono_text(mono: tuple[tuple[str, int], ...]) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)


def random_shape(
    rng: random.Random, n: int, c: int, pairs: int, maxdeg: int, use_u: bool
) -> list[tuple[tuple[str, int], ...]]:
    """`pairs` monomials of degree <= maxdeg, no two equal up to conjugation."""
    names = _variables(n, c, use_u)
    shape: list[tuple[tuple[str, int], ...]] = []
    seen: set[tuple[tuple[str, int], ...]] = set()
    while len(shape) < pairs:
        mono: dict[str, int] = {}
        for _ in range(rng.randint(1, maxdeg)):
            v = rng.choice(names)
            mono[v] = mono.get(v, 0) + 1
        key = tuple(sorted(mono.items()))
        conj = tuple(sorted((_conj_name(v), e) for v, e in key))
        if key in seen or conj in seen:
            continue
        seen.update((key, conj))
        shape.append(key)
    return shape


def real_phi(rng: random.Random, shape: list[tuple[tuple[str, int], ...]]) -> str:
    """Sum over the shape of q*m + conj(q*m) with seeded nonzero q.

    q is one of the eight Gaussian integers of norm 5; a self-conjugate
    monomial gets the real coefficient +-2 instead, so every monomial of
    the shape survives and the support does not depend on the seed.
    """
    parts = []
    for key in shape:
        conj = tuple(sorted((_conj_name(v), e) for v, e in key))
        if conj == key:
            parts.append(f"({rng.choice((-2, 2))})*{_mono_text(key)}")
            continue
        q = rng.choice(_NORM5)
        parts.append(f"({_gauss_text(*q)})*{_mono_text(key)}")
        parts.append(f"({_gauss_text(q[0], -q[1])})*{_mono_text(conj)}")
    return " + ".join(parts) if parts else "0"


def linear_image(rng: random.Random, phi: list[str]) -> list[str]:
    """phi(Mz, conj(M) zb) for a seeded M = [[a, b], [-conj(b), conj(a)]].

    a is a unit (1, -1, i, -i) and b = +-i*conj(a), so M is sqrt(2) times a
    unitary matrix, every entry of M and of (1, 1)M is nonzero, and images
    of one model have the same terms whatever the seed.
    """
    a = rng.choice(_UNITS)
    s = rng.choice((1, -1))
    b = (s * a[1], s * a[0])  # s*i*conj(a)
    m = [[a, b], [(-b[0], b[1]), (a[0], -a[1])]]

    def linear_form(i: int, conj: bool) -> str:
        prefix = "zb" if conj else "z"
        terms = []
        for j in range(2):
            re_, im = m[i][j]
            terms.append(f"({_gauss_text(re_, -im if conj else im)})*{prefix}{j + 1}")
        return "(" + " + ".join(terms) + ")"

    def subst(text: str) -> str:
        return _VAR.sub(lambda mt: linear_form(int(mt.group(2)) - 1, mt.group(1) == "zb"), text)

    return [subst(t) for t in phi]


def rigid_image(rng: random.Random, phi: list[str]) -> list[str]:
    """R * phi(a z, conj(a) zb): a = +-1 +- i, R an invertible matrix of +-1.

    Every image mixes all phi_j, and images of one model cost about the
    same whatever the seed.
    """
    c = len(phi)
    a = rng.choice(((1, 1), (1, -1), (-1, 1), (-1, -1)))
    while True:
        r = [[rng.choice((-1, 1)) for _ in range(c)] for _ in range(c)]
        if _int_det(r) != 0:
            break
    za = f"(({_gauss_text(*a)})*z1)"
    zba = f"(({_gauss_text(a[0], -a[1])})*zb1)"
    scaled = [
        _VAR.sub(lambda mt: zba if mt.group(1) == "zb" else za, t) for t in phi
    ]
    out = []
    for row in r:
        out.append(" + ".join(f"{k}*({t})" for k, t in zip(row, scaled)))
    return out


def _int_det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def _entry(name, n, c, phi, ops, model=None) -> dict:
    return {
        "name": name,
        "spec": {"n": n, "c": c, "phi": list(phi)},
        "ops": ops,
        "model": model,
    }


def seeded_phis(workload: str, seed: int, count: int, n: int, c: int,
                pairs: int, maxdeg: int, use_u: bool) -> list[list[str]]:
    """`count` seeded real phi tuples on fixed monomial shapes.

    Shape k is drawn from a seed-free stream, so each round does the same
    kind of work whatever the seed; the coefficients come from the seed.
    With use_u every phi_j depends on u.
    """
    rng = random.Random(f"{workload}:phi:{seed}")
    out = []
    for k in range(count):
        shape_rng = random.Random(f"{workload}:shape:{k}")
        phis = []
        for _ in range(c):
            while True:
                shape = random_shape(shape_rng, n, c, pairs, maxdeg, use_u)
                if not use_u or any(v.startswith("u") for m in shape for v, _ in m):
                    break
            phis.append(shape)
        out.append([real_phi(rng, shape) for shape in phis])
    return out


def _hull_ops(*depths: int) -> list[list[str]]:
    return [["hull", "--json", "--depth", str(d)] for d in depths]


def levi21_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"levi21:{seed}")
    ops = [["classify", "--json"], ["levi", "--json"]]
    items = []
    for k, phi in enumerate(seeded_phis("levi21", seed, LEVI21_RANDOM, 2, 1, 4, 3, True)):
        items.append(_entry(f"random{k}", 2, 1, phi, ops))
    for model in N2_MODELS:
        n, c, phi = MODELS[model]
        model_ops = ops + _hull_ops(*LEVI21_TUBE_HULL) if model == "tube" else ops
        items.append(_entry(model, n, c, phi, model_ops, model=model))
        for k in range(LEVI21_IMAGES.get(model, 0)):
            items.append(_entry(f"{model}_image{k}", n, c, linear_image(rng, phi), ops,
                                model=model))
    n, c, phi_h = MODELS["phi_h"]
    items.append(_entry("phi_h", n, c, phi_h, _hull_ops(2), model="phi_h"))
    return items


def rigid1c_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"rigid1c:{seed}")
    seeded_ops = [["classify", "--json"], ["brackets", "--json"]]
    # levi runs on the seed-free models only: on every Levi-nondegenerate
    # n = 1 input it fails, so its failure count per round is fixed.
    model_ops = seeded_ops + [["levi", "--json"]] + _hull_ops(RIGID_MODEL_HULL)
    items = []
    for c, count in RIGID_RANDOM.items():
        for k, phi in enumerate(seeded_phis(f"rigid1c{c}", seed, count, 1, c, 3, 3, False)):
            items.append(_entry(f"random_1_{c}_{k}", 1, c, phi, seeded_ops))
    for model in N1_MODELS:
        n, c, phi = MODELS[model]
        items.append(_entry(model, n, c, phi, model_ops, model=model))
        if model == "flat":
            continue  # every image of phi = 0 is phi = 0
        for k in range(RIGID_IMAGES):
            items.append(_entry(f"{model}_image{k}", n, c, rigid_image(rng, phi),
                                seeded_ops, model=model))
    return items


INPUTS_BY_WORKLOAD = {"levi21": levi21_inputs, "rigid1c": rigid1c_inputs}


def make_inputs(workload: str, seed: int) -> list[dict]:
    return INPUTS_BY_WORKLOAD[workload](seed)
