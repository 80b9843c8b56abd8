"""Differential oracle: the engine against sympy on seeded phi.

sympy is not a dependency; these tests run only where it is installed.
Each quantity is computed a second time from its definition, with z, zb
and u as independent symbols and `cancel` for the rational arithmetic,
and must agree with the engine exactly:

- the Cramer frame A, from (i*I + Phi_u) A_i = -phi_{z_i};
- T = i[L_1, conj(L_1)];
- the Levi determinant, entry(r, c) = rho0(i[L_c, conj(L_r)]), on (2,1);
- the Freeman invariant kappa0([K, conj(L_1)]) with k = -entry(1,2)/entry(1,1),
  K = k L_1 + L_2 and kappa0 = dz_1 - k dz_2, on (2,1) inputs of Levi rank 1.
"""

import random

import pytest

from conftest import build
from crclass.frames import cramer_frame, named_brackets
from crclass.levi import IDENTITY_2, levi_data, slant_k
from crclass.linalg import det_expr
from crclass.parser import expr_to_text

sympy = pytest.importorskip("sympy")


class Oracle:
    def __init__(self, n, c, phis):
        self.n, self.c = n, c
        self.z = sympy.symbols(f"z1:{n + 1}")
        self.zb = sympy.symbols(f"zb1:{n + 1}")
        self.u = sympy.symbols(f"u1:{c + 1}")
        self.vars = (*self.z, *self.zb, *self.u)
        self.names = {str(v): v for v in self.vars}
        self.names["I"] = sympy.I
        self.phi = [self.parse(t) for t in phis]
        system = sympy.Matrix(c, c, lambda j, l: sympy.diff(self.phi[j], self.u[l]))
        system += sympy.I * sympy.eye(c)
        self.A = []
        for i in range(n):
            rhs = sympy.Matrix([-sympy.diff(p, self.z[i]) for p in self.phi])
            self.A.append([sympy.cancel(a) for a in system.LUsolve(rhs)])
        self.L = []
        for i in range(n):
            coeffs = [sympy.Integer(0)] * len(self.vars)
            coeffs[i] = sympy.Integer(1)
            for l in range(c):
                coeffs[2 * n + l] = self.A[i][l]
            self.L.append(coeffs)
        self.Lbar = [self.conj_field(f) for f in self.L]

    def parse(self, text):
        return sympy.sympify(text.replace("^", "**"), locals=self.names)

    def conj(self, e):
        swap = {sympy.I: -sympy.I}
        swap.update({a: b for a, b in zip(self.z, self.zb)})
        swap.update({b: a for a, b in zip(self.z, self.zb)})
        return e.xreplace(swap)

    def conj_field(self, f):
        n = self.n
        out = [self.conj(x) for x in f]
        return out[n:2 * n] + out[:n] + out[2 * n:]

    def apply(self, x, f):
        return sum(a * sympy.diff(f, v) for a, v in zip(x, self.vars))

    def bracket(self, x, y, slots=None):
        slots = range(len(self.vars)) if slots is None else slots
        return [sympy.cancel(self.apply(x, y[d]) - self.apply(y, x[d])) for d in slots]

    def levi(self):
        rho = [sympy.Integer(0)] * len(self.vars)
        rho[2 * self.n] = sympy.Integer(1)
        for i in range(self.n):
            rho[i] = -self.A[i][0]
            rho[self.n + i] = -self.conj(self.A[i][0])
        return [
            [
                sympy.cancel(sympy.I * sum(
                    w * b for w, b in zip(rho, self.bracket(self.L[col], self.Lbar[r]))
                ))
                for col in range(self.n)
            ]
            for r in range(self.n)
        ]

    def freeman(self):
        e = self.levi()
        k = sympy.cancel(-e[0][1] / e[0][0])
        big_k = [k * a + b for a, b in zip(*self.L)]
        br = self.bracket(big_k, self.Lbar[0], slots=(0, 1))
        return sympy.cancel(br[0] - k * br[1])

    def agrees(self, engine, oracle):
        return sympy.cancel(self.parse(expr_to_text(engine)) - oracle) == 0


def _conj_name(v):
    if v.startswith("zb"):
        return "z" + v[2:]
    if v.startswith("z"):
        return "zb" + v[1:]
    return v


def _real_phi(rnd, names, pairs, maxdeg):
    """Seeded real polynomial text: monomial pairs q*m + conj(q*m)."""
    parts = []
    for _ in range(pairs):
        mono = [rnd.choice(names) for _ in range(rnd.randint(1, maxdeg))]
        conj = [_conj_name(v) for v in mono]
        a, b = rnd.choice(((1, 2), (2, -1), (-1, 1), (3, 1)))
        parts.append(f"({a} + {b}*I)*{'*'.join(mono)} + ({a} - {b}*I)*{'*'.join(conj)}")
    return " + ".join(parts)


def _seeded(kind, n, c, seed):
    rnd = random.Random(f"oracle:{kind}:{n}:{c}:{seed}")
    zs = [f"z{i + 1}" for i in range(n)] + [f"zb{i + 1}" for i in range(n)]
    us = [f"u{j + 1}" for j in range(c)]
    phis = []
    for _ in range(c):
        if kind == "rigid":
            phis.append(_real_phi(rnd, zs, 2, 3))
        elif kind == "u":
            phis.append(_real_phi(rnd, zs, 2, 3) + " + " + _real_phi(rnd, zs + us, 1, 2))
        else:
            # a real denominator that is 1 at the base point
            den = _real_phi(rnd, zs, 1, 2)
            phis.append(f"({_real_phi(rnd, zs, 2, 3)})/(1 + {den})")
    return phis


def _seeded_levi_rank_one(kind, seed):
    """A (2,1) phi of Levi rank 1 in the seeded coordinate w = z1 + a*z2."""
    rnd = random.Random(f"oracle:rank1:{kind}:{seed}")
    a = rnd.choice(("1", "-1", "I", "-I"))
    q = rnd.choice(("(1 + 2*I)", "(2 - I)", "(-1 + I)"))
    qb = q.replace("I", "(-I)")
    w, wb = f"(z1 + {a}*z2)", f"(zb1 + {a.replace('I', '(-I)')}*zb2)"
    if kind == "rational":
        # an image of the light-cone tube
        return [f"({w}*{wb} + 1/2*{w}^2*zb2 + 1/2*{wb}^2*z2)/(1 - z2*zb2)"]
    if kind == "rigid":
        return [f"{w}*{wb} + {q}*{w}^2*{wb} + {qb}*{w}*{wb}^2"]
    # sympy's cancel is slow on u-dependent functions of w, so this one
    # depends on z1 alone
    r = rnd.choice(("2", "-3", "1/2"))
    return [f"z1*zb1 + {q}*z1^2*zb1 + {qb}*z1*zb1^2 + {r}*z1*zb1*u1"]


CASES = [
    (kind, n, c, seed)
    for kind in ("rigid", "u", "rational")
    for n, c in ((1, 1), (1, 2), (2, 1))
    for seed in range(2)
]


@pytest.mark.parametrize("kind,n,c,seed", CASES)
def test_frame_and_t_match_sympy(kind, n, c, seed):
    phis = _seeded(kind, n, c, seed)
    vm = build(n, c, phis)
    oracle = Oracle(n, c, phis)
    frame = cramer_frame(vm)
    for i in range(n):
        for l in range(c):
            assert oracle.agrees(frame.A[i][l], oracle.A[i][l]), (phis, i, l)
    t = dict(named_brackets(frame.L, 1))["T" if n == 1 else "i[L1,Lb1]"]
    want = [sympy.I * x for x in oracle.bracket(oracle.L[0], oracle.Lbar[0])]
    for got, w in zip(t.coeffs, want):
        assert oracle.agrees(got, w), phis
    if (n, c) == (2, 1):
        e = oracle.levi()
        det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        assert oracle.agrees(det_expr(levi_data(vm, frame, frame.L).rows), det), phis


# one u-dependent draw: sympy takes about 4 s on each
@pytest.mark.parametrize(
    "kind,seed", [("rigid", 0), ("rigid", 1), ("u", 0), ("rational", 0), ("rational", 1)]
)
def test_freeman_matches_sympy(kind, seed):
    phis = _seeded_levi_rank_one(kind, seed)
    vm = build(2, 1, phis)
    kernel = slant_k(vm)
    # the oracle reads the Cramer frame itself
    assert kernel.frame_adjust == IDENTITY_2, phis
    oracle = Oracle(2, 1, phis)
    assert oracle.agrees(kernel.freeman, oracle.freeman()), phis
