"""Decision tree verdicts, rank filtrations, hull probe."""

import random

import pytest

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
    count_calls,
)
from crclass import frames, linalg
from crclass.classify import (
    CERTIFICATE_TEXT,
    VERDICT_TEXT,
    HullResult,
    classify,
    lie_hull_rank,
)
from crclass.frames import (
    change_frame,
    cramer_frame,
    generic_rank,
    lie_bracket,
)
from crclass.gaussian import gr

VERDICT_CASES = [
    (HEISENBERG, "ClassI"),
    (FLAT_11, "LeviFlat"),
    (BELOSHAPKA, "ClassII"),
    ((1, 2, ["z1*zb1", "2*z1*zb1"]), "DegenerateProduct(M3xR)"),
    (CUBIC_III1, "ClassIII1"),
    (MODEL_III2, "ClassIII2"),
    ((1, 3, ["z1*zb1", "2*z1*zb1", "3*z1*zb1"]), "DegenerateProduct(M3xR2)"),
    ((1, 3, ["z1*zb1", "z1^2*zb1 + z1*zb1^2", "0"]), "DegenerateProduct(M4xR)"),
    (SPHERE, "ClassIV1"),
    (LIGHT_CONE_TUBE, "ClassIV2"),
    (PRODUCT_M3XC, "DegenerateProduct(M3xC)"),
    ((2, 1, ["0"]), "LeviFlat"),
    (SUM_SQUARE, "DegenerateProduct(M3xC)"),
    ((2, 1, ["z2*zb2"]), "DegenerateProduct(M3xC)"),
]


@pytest.mark.parametrize("spec,want", VERDICT_CASES, ids=[v for _, v in VERDICT_CASES])
def test_verdicts(spec, want):
    report = classify(build(*spec))
    assert report.verdict == want
    assert report.verdict in VERDICT_TEXT
    assert report.certificate


def test_heisenberg_report_detail():
    report = classify(build(*HEISENBERG))
    assert report.generic_ranks == {"L,Lb,T": 3}
    assert report.point_ranks == {"L,Lb,T": 3}
    assert report.sigma_flag is False
    assert report.kernel is None
    assert report.observational_d is None


def test_iii2_rank_filtration():
    report = classify(build(*MODEL_III2))
    assert report.generic_ranks["L,Lb,T"] == 3
    assert report.generic_ranks["L,Lb,T,[L,T]"] == 4
    assert report.generic_ranks["L,Lb,T,[L,T],[Lb,T]"] == 4
    assert report.generic_ranks["L,Lb,T,[L,T],[Lb,T],[L,[L,T]]"] == 5
    d = report.observational_d
    assert d is not None and (d * d.conj()).is_one()
    cert = report.witnesses["L,Lb,T,[L,T],[Lb,T],[L,[L,T]]"]
    assert cert.rank == 5
    assert not cert.minor.is_zero()


def test_class_ii_observational_d():
    report = classify(build(*BELOSHAPKA))
    d = report.observational_d
    assert d is not None and (d * d.conj()).is_one()


def test_class_ii_ranks_the_quad_once(monkeypatch):
    # ranks of the triple, quad and quintuple; observational d solves on
    # the quad's recorded witness instead of ranking the quad again
    vm = build(*BELOSHAPKA)
    calls = count_calls(monkeypatch, linalg, "generic_rank_matrix")
    classify(vm)
    assert len(calls) == 3


def test_iii1_needs_no_hexad():
    report = classify(build(*CUBIC_III1))
    assert report.generic_ranks["L,Lb,T,[L,T],[Lb,T]"] == 5
    assert "L,Lb,T,[L,T],[Lb,T],[L,[L,T]]" not in report.generic_ranks


def test_levi_rank_and_kernel_on_five_dim():
    report = classify(build(*LIGHT_CONE_TUBE))
    assert report.generic_ranks == {"Levi": 1}
    assert report.kernel is not None
    assert not report.kernel.freeman.is_zero()
    assert "freeman at the base point = 1" in report.certificate

    report = classify(build(*SPHERE))
    assert report.generic_ranks == {"Levi": 2}
    assert report.kernel is None

    report = classify(build(*PRODUCT_M3XC))
    assert report.kernel is not None
    assert report.kernel.freeman.is_zero()


def test_sigma_flag_at_degenerate_point():
    report = classify(build(2, 1, ["z1*zb1 + z2^2*zb2^2"]))
    assert report.verdict == "ClassIV1"
    assert report.generic_ranks["Levi"] == 2
    assert report.point_ranks["Levi"] == 1
    assert report.sigma_flag is True


def test_sigma_flag_clear_away_from_origin():
    report = classify(
        build(
            2,
            1,
            ["z1*zb1 + z2^2*zb2^2"],
            point={"z": ["0", "1"], "u": ["0"]},
        )
    )
    assert report.point_ranks["Levi"] == 2
    assert report.sigma_flag is False


FRAME_CHANGES = {
    1: [
        [[gr(2)]],
        [[gr(0, 1)]],
        [[gr(1, 3)]],
    ],
    2: [
        [[gr(0), gr(1)], [gr(1), gr(0)]],
        [[gr(1), gr(0, 1)], [gr(0), gr(1)]],
        [[gr(2), gr(1)], [gr(1), gr(1)]],
    ],
}


@pytest.mark.parametrize(
    "spec",
    [HEISENBERG, BELOSHAPKA, MODEL_III2, SPHERE, LIGHT_CONE_TUBE, PRODUCT_M3XC,
     SUM_SQUARE],
    ids=["heis", "belo", "iii2", "sphere", "tube", "m3xc", "sumsq"],
)
def test_verdict_invariant_under_constant_frame_change(spec):
    vm = build(*spec)
    base = classify(vm).verdict
    for m in FRAME_CHANGES[vm.n]:
        report = classify(vm, frame_change=m)
        assert report.verdict == base
        if report.kernel is not None:
            # kernel data belong to the frame the ranks were read from
            changed = change_frame(cramer_frame(vm).L, m)
            want = change_frame(changed, report.kernel.frame_adjust)
            assert report.kernel.fields == want


def test_hull_tables():
    cases = [
        (HEISENBERG, 4, (3, 2, (2, 3, 3, 3))),
        (FLAT_11, 3, (2, 1, (2, 2, 2))),
        (MODEL_III2, 5, (5, 4, (2, 3, 4, 5, 5))),
        (MODEL_III2, 4, (5, None, (2, 3, 4, 5))),
        ((1, 3, ["z1*zb1", "z1^2*zb1 + z1*zb1^2", "0"]), 5, (4, 3, (2, 3, 4, 4, 4))),
    ]
    for spec, depth, want in cases:
        r = lie_hull_rank(build(*spec), max_depth=depth)
        assert (r.rank, r.stabilized_at, r.ranks_by_depth) == want


def test_hull_depth_one():
    r = lie_hull_rank(build(*HEISENBERG), max_depth=1)
    assert (r.rank, r.stabilized_at, r.ranks_by_depth) == (2, None, (2,))
    with pytest.raises(ValueError):
        lie_hull_rank(build(*HEISENBERG), max_depth=0)


def test_hull_ranks_monotone():
    for spec in (HEISENBERG, BELOSHAPKA, CUBIC_III1, MODEL_III2, SPHERE):
        table = lie_hull_rank(build(*spec), max_depth=4).ranks_by_depth
        assert all(a <= b for a, b in zip(table, table[1:]))
        assert table[-1] <= 2 * spec[0] + spec[1]


def _exhaustive_hull(vm, max_depth):
    """Reference hull: every generator against every bracket of the previous
    depth, at every depth, ranked on all brackets taken so far."""
    frame = cramer_frame(vm)
    gens = list(frame.L) + list(frame.Lbar)
    seen = set(gens)
    accumulated = list(gens)
    layer = list(gens)
    ranks = [generic_rank(accumulated).rank]
    for _depth in range(2, max_depth + 1):
        new_layer = []
        for g in gens:
            for y in layer:
                br = lie_bracket(g, y)
                if br.is_zero() or br in seen or (-br) in seen:
                    continue
                seen.add(br)
                new_layer.append(br)
        accumulated.extend(new_layer)
        layer = new_layer
        ranks.append(generic_rank(accumulated).rank)
    plateau = max_depth
    while plateau > 1 and ranks[plateau - 2] == ranks[-1]:
        plateau -= 1
    stabilized = plateau if plateau < max_depth else None
    return HullResult(
        rank=ranks[-1], stabilized_at=stabilized, ranks_by_depth=tuple(ranks)
    )


def _monomial(zexp, zbexp):
    return "*".join(
        [f"z{i + 1}^{e}" for i, e in enumerate(zexp) if e]
        + [f"zb{i + 1}^{e}" for i, e in enumerate(zbexp) if e]
    )


def _random_rigid_phi(rng, n, c):
    """Real phi_j: sums of a*m + conj(a)*conj(m) over z/zb monomials m of
    degree 2 or 3."""
    phis = []
    for _ in range(c):
        terms = []
        for _ in range(rng.randint(1, 3)):
            while True:
                zexp = [rng.randint(0, 2) for _ in range(n)]
                zbexp = [rng.randint(0, 2) for _ in range(n)]
                if 2 <= sum(zexp) + sum(zbexp) <= 3:
                    break
            a, b = rng.choice([(1, 0), (0, 1), (1, 2), (-2, 1), (2, -1)])
            terms.append(f"({a} + {b}*I)*{_monomial(zexp, zbexp)}"
                         f" + ({a} - {b}*I)*{_monomial(zbexp, zexp)}")
        phis.append(" + ".join(terms))
    return phis


def _hull_oracle_cases():
    cases = {
        "heis": HEISENBERG, "flat": FLAT_11, "belo": BELOSHAPKA,
        "iii1": CUBIC_III1, "iii2": MODEL_III2, "sphere": SPHERE,
        "tube": LIGHT_CONE_TUBE, "m3xc": PRODUCT_M3XC, "sumsq": SUM_SQUARE,
    }
    # rigid draws: on u-dependent ones the reference hull can take minutes
    for n, c in ((1, 2), (1, 3), (2, 1)):
        rng = random.Random(f"hull-oracle:{n},{c}")
        for k in range(3):
            cases[f"random_{n}{c}_{k}"] = (n, c, _random_rigid_phi(rng, n, c))
    return cases


HULL_ORACLE_CASES = _hull_oracle_cases()


@pytest.mark.parametrize(
    "spec", HULL_ORACLE_CASES.values(), ids=HULL_ORACLE_CASES.keys()
)
def test_hull_matches_exhaustive_brackets(spec):
    vm = build(*spec)
    assert lie_hull_rank(vm, max_depth=4) == _exhaustive_hull(vm, 4)


@pytest.mark.parametrize("spec,ladder", [
    ((2, 1, ["z1^2*zb2^2*u1 + z2^2*zb1^2*u1 + z1*zb1*u1^3 + z2*zb2*z1*zb1"]),
     (4, 5, 5, 5, 5, 5)),
    ((1, 2, ["(3 + I)*zb1*u2 + (3 - I)*z1*u2", "2*u1*u2 - 2*u1"]),
     (2, 3, 4, 4, 4, 4)),
], ids=["phi_h", "u_dependent_12"])
def test_hull_bracket_count_is_bounded(spec, ladder, monkeypatch):
    # depth 2 brackets each pair of the 2n generators; each later depth
    # brackets them against the fields the depth before added, at most c
    vm = build(*spec)
    calls = count_calls(monkeypatch, frames, "lie_bracket")
    result = lie_hull_rank(vm, max_depth=6)
    assert result.ranks_by_depth == ladder
    n, c = vm.n, vm.c
    assert len(calls) <= n * (2 * n - 1) + 2 * n * c


def test_certificate_text_known_keys():
    assert set(CERTIFICATE_TEXT) <= set(VERDICT_TEXT)
    report = classify(build(*FLAT_11))
    assert report.certificate == CERTIFICATE_TEXT["LeviFlat"]
