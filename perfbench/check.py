"""Checks of the CLI's outputs against computations made apart from it.

Nothing here imports crclass. Graphing functions are differentiated by
sympy; every other number is an exact Gaussian rational computed by this
module:

- Levi entries of c = 1 inputs come from the first-principles formula
  entry(r, c) = i*(L_c(conj A_r) - Lbar_r(A_c)) with A_c = -phi_zc/(i + phi_u),
  evaluated at seeded points;
- the bracket fields of rigid n = 1 inputs are L = d/dz + i*phi_z d/du,
  Lbar = d/dzb - i*phi_zb d/du, T = 2*phi_zzb d/du, [L,T] = 2*phi_zzzb d/du,
  [Lb,T] = 2*phi_zzbzb d/du and [L,[L,T]] = 2*phi_zzzzb d/du;
- the engine's printed expressions are evaluated at the same points by a
  small evaluator of their syntax, and must agree exactly;
- a generic rank is the largest rank seen at the seeded points.

Verdicts of the named models and hull ladders are compared with the values
the paper's classes give (see inputs.MODEL_VERDICT and MODEL_LADDER).
"""

from __future__ import annotations

import ast
import json
import random
from fractions import Fraction

import sympy

import inputs

POINTS = 3
KNOWN_LEVI_FAULT = "kernel data needs n = 2, c = 1"


class G:
    """Exact Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return G(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return G(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in the checker")
        return G((self.re * o.re + self.im * o.im) / norm,
                 (self.im * o.re - self.re * o.im) / norm)

    def __pow__(self, e):
        if e < 0:
            return G(1) / (self ** -e)
        out = G(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def is_zero(self):
        return self.re == 0 and self.im == 0


I_ = G(0, 1)


# -- evaluation -------------------------------------------------------------


def sym_eval(e, env: dict[str, G]) -> G:
    """Exact value of a sympy expression built from +, *, integer powers."""
    if e.is_Rational:
        return G(Fraction(int(e.p), int(e.q)))
    if e == sympy.I:
        return I_
    if e.is_Symbol:
        return env[e.name]
    if e.is_Add:
        out = G(0)
        for a in e.args:
            out = out + sym_eval(a, env)
        return out
    if e.is_Mul:
        out = G(1)
        for a in e.args:
            out = out * sym_eval(a, env)
        return out
    if e.is_Pow and e.exp.is_Integer:
        return sym_eval(e.base, env) ** int(e.exp)
    raise ValueError(f"checker cannot evaluate {e!r}")


def _ast_eval(node, env: dict[str, G]) -> G:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return G(node.value)
    if isinstance(node, ast.Name):
        return I_ if node.id == "I" else env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_ast_eval(node.operand, env)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            exp = node.right
            if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int)):
                raise ValueError("non-integer exponent in engine output")
            return _ast_eval(node.left, env) ** exp.value
        a = _ast_eval(node.left, env)
        b = _ast_eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return a / b
    raise ValueError(f"unexpected syntax in engine output: {ast.dump(node)[:80]}")


class Text:
    """An expression printed by the engine, parsed once, evaluated often."""

    def __init__(self, text: str):
        self.tree = ast.parse(text.replace("^", "**"), mode="eval").body

    def at(self, env: dict[str, G]) -> G:
        return _ast_eval(self.tree, env)


def parse_field(rendered: str) -> dict[str, Text]:
    """'d/dz1 + (expr) d/du1 + ...' -> {'z1': Text('1'), 'u1': Text(expr)}."""
    out: dict[str, Text] = {}
    if rendered == "0":
        return out
    pos = 0
    while pos < len(rendered):
        coeff = "1"
        if rendered[pos] == "(":
            depth = 0
            for end in range(pos, len(rendered)):
                depth += {"(": 1, ")": -1}.get(rendered[end], 0)
                if depth == 0:
                    break
            coeff = rendered[pos + 1:end]
            pos = end + 2  # skip ") "
        if not rendered.startswith("d/d", pos):
            raise ValueError(f"unexpected field syntax at {rendered[pos:pos + 20]!r}")
        stop = rendered.find(" + ", pos)
        stop = len(rendered) if stop < 0 else stop
        out[rendered[pos + 3:stop]] = Text(coeff)
        pos = stop + 3
    return out


def rank(rows: list[list[G]]) -> int:
    mat = [list(r) for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col] / mat[r][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


# -- the independent model of one input -------------------------------------


class Manifold:
    def __init__(self, spec: dict):
        self.n, self.c = spec["n"], spec["c"]
        self.names = (
            [f"z{i}" for i in range(1, self.n + 1)]
            + [f"zb{i}" for i in range(1, self.n + 1)]
            + [f"u{j}" for j in range(1, self.c + 1)]
        )
        self.sym = {name: sympy.Symbol(name) for name in self.names}
        self.phi = [
            sympy.parse_expr(t.replace("^", "**"), local_dict=self.sym)
            for t in spec["phi"]
        ]
        self.rigid = all(
            not (p.free_symbols & {self.sym[f"u{j}"] for j in range(1, self.c + 1)})
            for p in self.phi
        )
        self._d: dict[tuple, object] = {}

    def d(self, j: int, *names: str):
        key = (j,) + names
        if key not in self._d:
            self._d[key] = sympy.diff(self.phi[j], *[self.sym[v] for v in names])
        return self._d[key]

    def dval(self, env, j: int, *names: str) -> G:
        return sym_eval(self.d(j, *names), env)

    def origin(self) -> dict[str, G]:
        return {name: G(0) for name in self.names}

    def points(self, seed_text: str) -> list[dict[str, G]]:
        rng = random.Random(seed_text)

        def value():
            return G(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

        return [{name: value() for name in self.names} for _ in range(POINTS)]

    # Levi matrix of a c = 1 manifold, any n, phi may depend on u.
    def levi_c1(self, env) -> list[list[G]]:
        n = self.n
        u = "u1"
        pu = self.dval(env, 0, u)
        dp, dm = I_ + pu, -I_ + pu

        def a(c):  # A_c = -phi_zc / (i + phi_u)
            return -self.dval(env, 0, f"z{c}") / dp

        def abar(r):  # conj(A_r) = -phi_zbr / (-i + phi_u)
            return -self.dval(env, 0, f"zb{r}") / dm

        def d_a(c, x):
            return -(self.dval(env, 0, f"z{c}", x) * dp
                     - self.dval(env, 0, f"z{c}") * self.dval(env, 0, u, x)) / (dp * dp)

        def d_abar(r, x):
            return -(self.dval(env, 0, f"zb{r}", x) * dm
                     - self.dval(env, 0, f"zb{r}") * self.dval(env, 0, u, x)) / (dm * dm)

        rows = []
        for r in range(1, n + 1):
            row = []
            for c in range(1, n + 1):
                l_c_abar = d_abar(r, f"z{c}") + a(c) * d_abar(r, u)
                lb_r_a = d_a(c, f"zb{r}") + abar(r) * d_a(c, u)
                row.append(I_ * (l_c_abar - lb_r_a))
            rows.append(row)
        return rows

    # Named bracket fields of a rigid n = 1 manifold, as coordinate vectors.
    def rigid_fields(self, env) -> dict[str, list[G]]:
        c = self.c
        two = G(2)

        def ucol(*names):
            return [two * self.dval(env, j, *names) for j in range(c)]

        return {
            "L1": [G(1), G(0)] + [I_ * self.dval(env, j, "z1") for j in range(c)],
            "Lb1": [G(0), G(1)] + [-I_ * self.dval(env, j, "zb1") for j in range(c)],
            "T": [G(0), G(0)] + ucol("z1", "zb1"),
            "[L,T]": [G(0), G(0)] + ucol("z1", "z1", "zb1"),
            "[Lb,T]": [G(0), G(0)] + ucol("z1", "zb1", "zb1"),
            "[L,[L,T]]": [G(0), G(0)] + ucol("z1", "z1", "z1", "zb1"),
        }

    def rigid_levi(self, env) -> list[list[G]]:
        # rho0_1(i[L, Lbar]) is the u1-component of T
        return [[self.rigid_fields(env)["T"][2]]]

    def levi(self, env):
        if self.c == 1:
            return self.levi_c1(env)
        if self.n == 1 and self.rigid:
            return self.rigid_levi(env)
        raise ValueError("checker has no Levi formula for this input")


# Rank-table names of the n = 1 decision tree and the fields they span.
RANK_FIELDS = {
    "L,Lb,T": ("L1", "Lb1", "T"),
    "L,Lb,T,[L,T]": ("L1", "Lb1", "T", "[L,T]"),
    "L,Lb,T,[L,T],[Lb,T]": ("L1", "Lb1", "T", "[L,T]", "[Lb,T]"),
    "L,Lb,T,[L,T],[Lb,T],[L,[L,T]]": ("L1", "Lb1", "T", "[L,T]", "[Lb,T]", "[L,[L,T]]"),
}


def n1_verdict(c: int, ranks: dict[str, int]) -> str:
    """The paper's decision tree for n = 1, read from generic ranks."""
    r3 = ranks["L,Lb,T"]
    if c == 1:
        return "ClassI" if r3 == 3 else "LeviFlat"
    if r3 == 2:
        return "LeviFlat"
    r4 = ranks["L,Lb,T,[L,T],[Lb,T]"]
    if c == 2:
        return "ClassII" if r4 == 4 else "DegenerateProduct(M3xR)"
    if r4 == 3:
        return "DegenerateProduct(M3xR2)"
    if r4 == 5:
        return "ClassIII1"
    r5 = ranks["L,Lb,T,[L,T],[Lb,T],[L,[L,T]]"]
    return "ClassIII2" if r5 == 5 else "DegenerateProduct(M4xR)"


def _levi_verdicts(rank_: int) -> set[str]:
    return {2: {"ClassIV1"}, 0: {"LeviFlat"}}.get(
        rank_, {"ClassIV2", "DegenerateProduct(M3xC)"}
    )


class _Checker:
    def __init__(self, item: dict, seed_text: str):
        self.item = item
        self.m = Manifold(item["spec"])
        self.pts = self.m.points(seed_text)
        self.base = self.m.origin()
        self.problems: list[str] = []
        self._memo: dict[tuple[str, int], object] = {}

    def levi_at(self, env):
        return self._value("levi", self.m.levi, env)

    def fields_at(self, env):
        return self._value("fields", self.m.rigid_fields, env)

    def _value(self, kind, fn, env):
        key = (kind, id(env))
        if key not in self._memo:
            self._memo[key] = fn(env)
        return self._memo[key]

    def fail(self, what: str) -> None:
        self.problems.append(f"{self.item['name']}: {what}")

    def _safe_points(self, fn):
        """fn at each seeded point, skipping points on a pole."""
        out = []
        for env in self.pts:
            try:
                out.append((env, fn(env)))
            except ZeroDivisionError:
                continue
        if not out:
            self.fail("every seeded point is a pole")
        return out

    # -- generic and base-point ranks --------------------------------------

    def levi_ranks(self) -> tuple[int, int]:
        vals = self._safe_points(self.levi_at)
        generic = max((rank(v) for _, v in vals), default=0)
        return generic, rank(self.levi_at(self.base))

    def field_ranks(self, names) -> tuple[int, int]:
        def mat(env):
            f = self.fields_at(env)
            return [f[k] for k in names]

        generic = max(rank(mat(env)) for env in self.pts)
        return generic, rank(mat(self.base))

    # -- per command ---------------------------------------------------------

    def classify(self, doc: dict) -> None:
        verdict = doc["verdict"]
        model = self.item.get("model")
        if model in inputs.MODEL_VERDICT and verdict != inputs.MODEL_VERDICT[model]:
            self.fail(f"verdict {verdict}, the paper gives {inputs.MODEL_VERDICT[model]}")
        generic, at_point = doc["ranks"]["generic"], doc["ranks"]["at_point"]
        if self.m.n == 2:
            want = self.levi_ranks()
            got = (generic.get("Levi"), at_point.get("Levi"))
            if got != want:
                self.fail(f"Levi ranks (generic, at point) {got}, recomputed {want}")
            if verdict not in _levi_verdicts(want[0]):
                self.fail(f"verdict {verdict} does not fit Levi rank {want[0]}")
            kernel = doc.get("kernel")
            if (kernel is not None) != (want[0] == 1):
                self.fail("kernel data present iff Levi rank is 1 fails")
            elif kernel is not None and kernel["freeman_identically_zero"] != (
                verdict == "DegenerateProduct(M3xC)"
            ):
                self.fail("freeman vanishing does not match the verdict")
        else:
            recomputed_generic = {}
            for name, rk in generic.items():
                want = self.field_ranks(RANK_FIELDS[name])
                recomputed_generic[name] = want[0]
                if (rk, at_point.get(name)) != want:
                    self.fail(f"ranks of {{{name}}} {(rk, at_point.get(name))}, recomputed {want}")
            try:
                tree = n1_verdict(self.m.c, recomputed_generic)
            except KeyError as exc:
                self.fail(f"rank table lacks {exc}")
            else:
                if verdict != tree:
                    self.fail(f"verdict {verdict}, the decision tree gives {tree}")
            for w in doc["witnesses"]:
                if w["name"] == "observational_d" and w["product_with_conj"] != "1":
                    self.fail("observational d has d*conj(d) != 1")
        sigma = any(at_point[k] < generic[k] for k in generic)
        if doc["sigma_flag"] != sigma:
            self.fail("sigma_flag does not match the rank table")

    def levi(self, doc: dict) -> None:
        matrix = [[Text(e) for e in row] for row in doc["matrix"]]
        det = Text(doc["determinant"])
        for env, want in self._safe_points(self.levi_at):
            got = [[e.at(env) for e in row] for row in matrix]
            if got != want:
                self.fail("Levi matrix differs from the recomputed one at a seeded point")
                break
            want_det = want[0][0] if len(want) == 1 else (
                want[0][0] * want[1][1] - want[0][1] * want[1][0])
            if det.at(env) != want_det:
                self.fail("Levi determinant differs from the recomputed one at a seeded point")
                break
        want = self.levi_ranks()
        got = (doc["generic_rank"], doc["rank_at_point"])
        if got != want:
            self.fail(f"Levi ranks (generic, at point) {got}, recomputed {want}")

    def brackets(self, doc: dict) -> None:
        if not (self.m.n == 1 and self.m.rigid):
            self.fail("checker compares brackets of rigid n = 1 inputs only")
            return
        parsed = {name: parse_field(text) for name, text in doc["fields"].items()}
        names = self.m.names
        for env in self.pts:
            want = self.fields_at(env)
            for name, field in parsed.items():
                got = [field[v].at(env) if v in field else G(0) for v in names]
                if got != want[name]:
                    self.fail(f"field {name} differs from the recomputed one at a seeded point")
                    return
        expected = {"L1", "Lb1", "T"} | (
            {"[L,T]", "[Lb,T]"} if self.m.c >= 2 else set()
        ) | ({"[L,[L,T]]"} if self.m.c == 3 else set())
        if set(parsed) != expected:
            self.fail(f"bracket names {sorted(parsed)}, expected {sorted(expected)}")

    def hull(self, doc: dict, depth: int) -> None:
        ladder = doc["ranks_by_depth"]
        n, c = self.m.n, self.m.c
        if len(ladder) != depth or doc["depth"] != depth:
            self.fail(f"hull ladder has {len(ladder)} depths, asked for {depth}")
            return
        if ladder[0] != 2 * n:
            self.fail(f"hull rank at depth 1 is {ladder[0]}, not 2n = {2 * n}")
        if any(b < a for a, b in zip(ladder, ladder[1:])):
            self.fail(f"hull ladder {ladder} decreases")
        if max(ladder) > 2 * n + c:
            self.fail(f"hull ladder {ladder} exceeds 2n + c = {2 * n + c}")
        if doc["rank"] != ladder[-1]:
            self.fail("hull rank is not the last entry of the ladder")
        plateau = depth
        while plateau > 1 and ladder[plateau - 2] == ladder[-1]:
            plateau -= 1
        if doc["stabilized_at"] != (plateau if plateau < depth else None):
            self.fail("stabilized_at does not match the ladder")
        model = self.item.get("model")
        if model in inputs.MODEL_LADDER:
            want = list(inputs.MODEL_LADDER[model][:depth])
            if ladder != want:
                self.fail(f"hull ladder {ladder}, the model gives {want}")
        elif (n, c) == (2, 1):
            # depth 2 adds [L_i, Lbar_j] = -i*Levi(j, i) d/du and nothing
            # else, so the ladder is (4, 5, 5, ...) or flat at 4
            levi_nonzero = self.levi_ranks()[0] > 0
            want = [4] + [5 if levi_nonzero else 4] * (depth - 1)
            if ladder != want:
                self.fail(f"hull ladder {ladder}, the Levi matrix gives {want}")


def check_outputs(workload: str, seed: int, items: list[dict], results: dict) -> list[str]:
    """Problems found in one pass of outputs.

    results maps (item index, op index) to (exit code, stdout, stderr).
    A failure is allowed only where the known levi fault predicts it.
    """
    problems: list[str] = []
    for i, item in enumerate(items):
        checker = _Checker(item, f"check:{workload}:{seed}:{item['name']}")
        for k, argv in enumerate(item["ops"]):
            code, out, err = results[(i, k)]
            command = argv[0]
            try:
                if code != 0:
                    if not expected_failure(item, argv, checker):
                        checker.fail(f"{command} exited {code}: {err.strip()[:120]}")
                    elif KNOWN_LEVI_FAULT not in err:
                        checker.fail(f"{command} failed with another message: {err.strip()[:120]}")
                    continue
                doc = json.loads(out)
                if command == "classify":
                    checker.classify(doc)
                elif command == "levi":
                    checker.levi(doc)
                elif command == "brackets":
                    checker.brackets(doc)
                elif command == "hull":
                    checker.hull(doc, int(argv[argv.index("--depth") + 1]))
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                checker.fail(f"{command} output unreadable by the checker: {exc!r}")
        problems.extend(checker.problems)
    return problems


def expected_failure(item: dict, argv: list[str], checker: _Checker | None = None) -> bool:
    """The known fault: levi on a Levi-nondegenerate n = 1 input exits 1.

    The CLI calls the (2,1)-only kernel routine whenever the Levi rank is 1.
    """
    if argv[0] != "levi" or item["spec"]["n"] != 1:
        return False
    checker = checker or _Checker(item, "check:expected")
    return checker.levi_ranks()[0] == 1
