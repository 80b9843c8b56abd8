"""Decision tree verdicts, rank filtrations, hull probe."""

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
)
from crclass.classify import (
    CERTIFICATE_TEXT,
    VERDICT_TEXT,
    classify,
    lie_hull_rank,
)
from crclass.frames import change_frame, cramer_frame
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


def test_certificate_text_known_keys():
    assert set(CERTIFICATE_TEXT) <= set(VERDICT_TEXT)
    report = classify(build(*FLAT_11))
    assert report.certificate == CERTIFICATE_TEXT["LeviFlat"]
