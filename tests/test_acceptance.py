"""Acceptance gate: one test per criterion, exact, no tolerances.

Each test prints a single PASS line on success; pytest -v shows one
pass/fail line per criterion either way. The final test bounds the wall
time of the whole module.
"""

import json
import random
import time

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
    build,
    is_cr_function,
)
from crclass.classify import classify
from crclass.errors import FrameSingularError
from crclass.frames import (
    change_frame,
    cramer_frame,
    lie_bracket,
    named_brackets,
    rho0,
)
from crclass.gaussian import gr
from crclass.levi import (
    k_quotients,
    l1a1_closed_form,
    levi_data,
    levi_det_closed_form,
    levi_entries,
    slant_k,
)
from crclass.linalg import det_expr, generic_rank_matrix
from crclass.manifold import manifold_from_dict, validate_manifold
from crclass.parser import expr_to_text, parse_expr
from crclass.poly import MultiPoly, VarSpace
from crclass.ratfunc import RationalExpr

T0 = time.monotonic()

# the named corpus: every worked model exercised by the criteria
CORPUS = [
    HEISENBERG,
    FLAT_11,
    BELOSHAPKA,
    CUBIC_III1,
    MODEL_III2,
    SPHERE,
    LIGHT_CONE_TUBE,
    PRODUCT_M3XC,
    SUM_SQUARE,
]


def random_real_phi(rnd, space, pairs, maxdeg):
    """Random real polynomial: monomial pairs q*m + conj(q*m)."""
    acc = MultiPoly.zero(space)
    for _ in range(pairs):
        d = rnd.randint(1, maxdeg)
        expo = [0] * space.nvars
        for _ in range(d):
            expo[rnd.randrange(space.nvars)] += 1
        while True:
            q = gr(rnd.randint(-3, 3), rnd.randint(-3, 3))
            if not q.is_zero():
                break
        t = MultiPoly.monomial(space, tuple(expo), q)
        acc = acc + t + t.conj()
    return acc


def random_manifold(rnd, n, c, pairs=3, maxdeg=3):
    space = VarSpace(n, c)
    while True:
        phis = []
        for _ in range(c):
            p = random_real_phi(rnd, space, pairs, maxdeg)
            phis.append("0" if p.is_zero() else str(p))
        try:
            return build(n, c, phis)
        except FrameSingularError:
            continue  # rare u-linear draw; redraw deterministically


def test_criterion_1_model_classifications():
    expected = [
        (MODEL_III2, "ClassIII2"),
        (HEISENBERG, "ClassI"),
        (BELOSHAPKA, "ClassII"),
        (CUBIC_III1, "ClassIII1"),
        (SPHERE, "ClassIV1"),
        (LIGHT_CONE_TUBE, "ClassIV2"),
        (PRODUCT_M3XC, "DegenerateProduct(M3xC)"),
        (FLAT_11, "LeviFlat"),
        ((2, 1, ["0"]), "LeviFlat"),
    ]
    for spec, want in expected:
        report = classify(build(*spec))
        assert report.verdict == want, (spec, want, report.verdict)
    report = classify(build(*MODEL_III2))
    ranks = report.generic_ranks
    assert ranks["L,Lb,T"] == 3
    assert ranks["L,Lb,T,[L,T],[Lb,T]"] == 4
    assert ranks["L,Lb,T,[L,T],[Lb,T],[L,[L,T]]"] == 5
    print("criterion 1: PASS (model classifications and III_2 rank ladder)")


def test_criterion_2_closed_form_oracles():
    named = [
        SPHERE,
        LIGHT_CONE_TUBE,
        PRODUCT_M3XC,
        SUM_SQUARE,
        (2, 1, ["z2*zb2"]),
        (2, 1, ["z1*zb1*u1"]),
        (2, 1, ["0"]),
    ]
    manifolds = [build(*spec) for spec in named]
    rnd = random.Random(20260819)
    space = VarSpace(2, 1)
    for _ in range(22):
        phi = random_real_phi(rnd, space, pairs=4, maxdeg=3)
        text = "0" if phi.is_zero() else str(phi)
        manifolds.append(build(2, 1, [text]))
    assert len(manifolds) - len(named) >= 20
    for vm in manifolds:
        frame = cramer_frame(vm)
        engine_l1a1 = frame.L[0].apply(frame.A[0][0].conj())
        assert (engine_l1a1 - l1a1_closed_form(vm)).is_zero(), vm.phi
        engine_det = det_expr(levi_data(vm, frame, frame.L).rows)
        assert (engine_det - levi_det_closed_form(vm)).is_zero(), vm.phi
    print(
        "criterion 2: PASS (engine = closed form for det and L1(conj A1) on "
        f"{len(manifolds)} manifolds)"
    )


def test_criterion_3_three_quotients_equal():
    for spec in (LIGHT_CONE_TUBE, PRODUCT_M3XC, SUM_SQUARE):
        vm = build(*spec)
        frame = cramer_frame(vm)
        assert det_expr(levi_data(vm, frame, frame.L).rows).is_zero()
        main, holo, anti = k_quotients(vm)
        assert main == holo
        assert main == anti
    print("criterion 3: PASS (three slant quotients equal when det = 0)")


def test_criterion_4_algebraic_identity_suites():
    rnd = random.Random(40419)

    # Jacobi and conj/bracket compatibility on random polynomial fields
    def rand_field(space):
        coeffs = []
        for _ in range(space.nvars):
            p = MultiPoly.zero(space)
            for _ in range(2):
                expo = [0] * space.nvars
                for _ in range(rnd.randint(1, 2)):
                    expo[rnd.randrange(space.nvars)] += 1
                p = p + MultiPoly.monomial(
                    space, tuple(expo), gr(rnd.randint(-2, 2), rnd.randint(-2, 2))
                )
            coeffs.append(RationalExpr.from_poly(p))
        from crclass.frames import VectorField

        return VectorField(space, tuple(coeffs))

    sp = VarSpace(1, 1)
    for _ in range(6):
        x, y, z = rand_field(sp), rand_field(sp), rand_field(sp)
        jac = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert jac.is_zero()
        cb = lie_bracket(x, y).conj() - lie_bracket(x.conj(), y.conj())
        assert cb.is_zero()

    # frame commutativity and Hermitian Levi on random real (2,1) specs
    for _ in range(5):
        vm = random_manifold(rnd, 2, 1)
        frame = cramer_frame(vm)
        assert lie_bracket(frame.L[0], frame.L[1]).is_zero()
        rows = levi_entries(rho0(frame)[0], frame.L)
        for r in range(2):
            for c in range(2):
                assert rows[r][c] == rows[c][r].conj()

    # rho0 annihilation on every type; T real for n = 1
    for n, c in ((1, 1), (1, 2), (1, 3), (2, 1)):
        for _ in range(2):
            vm = random_manifold(rnd, n, c, pairs=2, maxdeg=2)
            frame = cramer_frame(vm)
            for form in rho0(frame):
                for f in list(frame.L) + list(frame.Lbar):
                    assert form.apply(f).is_zero()
            if n == 1:
                t = dict(named_brackets(frame.L, 1))["T"]
                assert (t - t.conj()).is_zero()
    print("criterion 4: PASS (Jacobi, commutativity, Hermitian, rho0, conj, T)")


def test_criterion_5_observational_d():
    verdicts = []
    for spec in CORPUS:
        report = classify(build(*spec))
        if report.verdict in ("ClassII", "ClassIII2"):
            verdicts.append(report.verdict)
            d = report.observational_d
            assert d is not None
            assert (d * d.conj()).is_one()
    assert "ClassII" in verdicts and "ClassIII2" in verdicts
    print(f"criterion 5: PASS (d*conj(d) = 1 on {verdicts})")


def test_criterion_6_transformation_law():
    rnd = random.Random(60619)
    examples = [build(*SPHERE), build(*LIGHT_CONE_TUBE)]
    bases = []
    for vm in examples:
        frame = cramer_frame(vm)
        rho = rho0(frame)[0]
        bases.append((vm, frame, rho, levi_entries(rho, frame.L)))
    checked = 0
    while checked < 10:
        m = [
            [gr(rnd.randint(-2, 2), rnd.randint(-2, 2)) for _ in range(2)]
            for _ in range(2)
        ]
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero():
            continue
        vm, frame, rho, base = bases[checked % 2]
        changed = change_frame(frame.L, m)
        new = levi_entries(rho, changed)
        for r in range(2):
            for c in range(2):
                want = RationalExpr.zero(vm.space)
                for j in range(2):
                    for k in range(2):
                        want = want + base[j][k].scale(m[r][j].conj() * m[c][k])
                assert (new[r][c] - want).is_zero()
        assert generic_rank_matrix(new).rank == generic_rank_matrix(base).rank
        checked += 1
    print("criterion 6: PASS (10 constant frame changes: law and rank)")


def test_criterion_7_degenerate_freeman_certificate():
    for spec in (PRODUCT_M3XC, SUM_SQUARE):
        vm = build(*spec)
        kd = slant_k(vm)
        assert kd.freeman.is_zero()
        assert is_cr_function(kd.k, vm)
        a1, a2 = (f.coeffs[vm.space.u_slot(0)] for f in kd.fields)
        assert is_cr_function(kd.k * a1 + a2, vm)
    print("criterion 7: PASS (freeman = 0 and both CR certificates)")


def test_criterion_8_roundtrip_and_determinism(tmp_path, capsys):
    for n, c, phis in CORPUS:
        for text in phis:
            e = parse_expr(text, n, c)
            assert parse_expr(expr_to_text(e), n, c) == e
    for spec in (MODEL_III2, LIGHT_CONE_TUBE):
        n, c, phis = spec
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": n, "c": c, "phi": phis}))
        outputs = []
        for _ in range(2):
            code = cli.main(["classify", "--input", str(path), "--json"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed report
    print("criterion 8: PASS (round-trips and byte-identical JSON runs)")


def test_criteria_total_time_under_60s():
    elapsed = time.monotonic() - T0
    assert elapsed < 60.0, f"acceptance module took {elapsed:.1f}s"
    print(f"acceptance wall time: {elapsed:.1f}s (budget 60s)")
