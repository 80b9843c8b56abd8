"""Command-line front end.

    crclass <command> --input <file> [--json] [--depth N] [--point <file>]

Commands: classify, frame, levi, brackets, hull. Exit status: 0 success,
1 input/validation problem, 2 violated internal invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from .classify import (
    MAX_HULL_DEPTH,
    VERDICT_TEXT,
    ClassificationReport,
    classify,
    lie_hull_rank,
)
from .errors import InternalAssertion, ValidationError
from .frames import cramer_frame, named_brackets, rho0
from .levi import levi_data
from .linalg import det_expr
from .manifold import (
    ManifoldSpec,
    ValidatedManifold,
    _parse_point,
    load_manifold,
    validate_manifold,
)
from .parser import ParseError, expr_to_text
from .ratfunc import PoleError


@dataclass(frozen=True, slots=True)
class RunConfig:
    command: str
    input_path: str
    json_output: bool
    depth: int
    point_path: str | None


class _ArgumentParser(argparse.ArgumentParser):
    # user mistakes on the command line are validation failures (exit 1)
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = _ArgumentParser(
        prog="crclass",
        description=(
            "Exact classification of low-dimensional CR-generic submanifolds "
            "from their graphing functions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "run the decision tree and print verdict and certificates"),
        ("frame", "print the tangential frame coefficients and fields"),
        ("levi", "print the Levi matrix, determinant, and kernel data"),
        ("brackets", "print the named bracket fields"),
        ("hull", "print the iterated-bracket rank per depth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="manifold JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument(
            "--point", default=None,
            help="JSON file with {\"z\": [...], \"u\": [...]} overriding the base point",
        )
        if name == "hull":
            p.add_argument(
                "--depth", type=int, default=4,
                help="maximum bracket depth (default 4)",
            )
    return parser


def _load(config: RunConfig) -> ValidatedManifold:
    spec = load_manifold(config.input_path)
    if config.point_path is not None:
        with open(config.point_path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"invalid JSON in {config.point_path}: {exc}"
                ) from exc
        point = _parse_point(data, spec.n, spec.c)
        spec = ManifoldSpec(n=spec.n, c=spec.c, phi=spec.phi, point=point)
    return validate_manifold(spec)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _print_warnings(vm: ValidatedManifold) -> None:
    for w in vm.warnings:
        print(f"note: {w}")


def _classify_doc(vm: ValidatedManifold, report: ClassificationReport) -> dict:
    witnesses: list[dict] = []
    for name, cert in report.witnesses.items():
        entry = {"name": name}
        entry.update(cert.to_dict())
        witnesses.append(entry)
    if report.observational_d is not None:
        witnesses.append({
            "name": "observational_d",
            "expression": expr_to_text(report.observational_d),
            "product_with_conj": expr_to_text(
                report.observational_d * report.observational_d.conj()
            ),
        })
    witnesses.append({"name": "certificate", "text": report.certificate})
    doc = {
        "input": vm.input_dict(),
        "verdict": report.verdict,
        "ranks": {
            "generic": dict(report.generic_ranks),
            "at_point": dict(report.point_ranks),
        },
        "witnesses": witnesses,
    }
    if report.kernel is not None:
        doc["kernel"] = report.kernel.to_dict()
    doc["sigma_flag"] = report.sigma_flag
    return doc


def _run_classify(vm: ValidatedManifold, config: RunConfig) -> None:
    report = classify(vm)
    if config.json_output:
        _emit(_classify_doc(vm, report))
        return
    _print_warnings(vm)
    print(f"verdict: {VERDICT_TEXT[report.verdict]} [{report.verdict}]")
    print(f"certificate: {report.certificate}")
    print("generic ranks:")
    for name, rank in report.generic_ranks.items():
        at = report.point_ranks[name]
        print(f"  {name}: generic {rank}, at base point {at}")
    depth_names = {
        "L,Lb,T,[L,T],[Lb,T]": "r4",
        "L,Lb,T,[L,T],[Lb,T],[L,[L,T]]": "r5",
    }
    for name, label in depth_names.items():
        if name in report.generic_ranks:
            print(f"{label} = {report.generic_ranks[name]} (rank of {{{name}}})")
    for name, cert in report.witnesses.items():
        if cert.minor is not None:
            print(
                f"witness[{name}]: rows {list(cert.rows)} cols {list(cert.cols)} "
                f"minor {cert.minor}"
            )
    if report.observational_d is not None:
        print(f"observational d = {expr_to_text(report.observational_d)} "
              f"(d*conj(d) = 1)")
    if report.kernel is not None:
        _print_kernel(report.kernel)
    if report.sigma_flag:
        print("sigma_flag: true (base point is in the rank-drop locus)")
    else:
        print("sigma_flag: false")


def _print_kernel(kernel) -> None:
    print("kernel data:")
    print(f"  k = {expr_to_text(kernel.k)}")
    print(f"  K = {kernel.K.render()}")
    print(f"  kappa0 = {kernel.kappa0.render()}")
    adj = [[str(v) for v in row] for row in kernel.frame_adjust]
    print(f"  frame_adjust = {adj}")
    print(f"  freeman = {expr_to_text(kernel.freeman)}")
    at = kernel.freeman_at_point
    print(f"  freeman at base point = {at if at is not None else 'pole'}")


def _run_frame(vm: ValidatedManifold, config: RunConfig) -> None:
    frame = cramer_frame(vm)
    forms = rho0(frame)
    if config.json_output:
        _emit({
            "input": vm.input_dict(),
            "A": [[expr_to_text(a) for a in row] for row in frame.A],
            "L": [f.render() for f in frame.L],
            "Lbar": [f.render() for f in frame.Lbar],
            "rho0": [f.render() for f in forms],
        })
        return
    _print_warnings(vm)
    for i, row in enumerate(frame.A):
        for l, a in enumerate(row):
            print(f"A_{i + 1}^{l + 1} = {expr_to_text(a)}")
    for i, f in enumerate(frame.L):
        print(f"L{i + 1} = {f.render()}")
    for i, f in enumerate(frame.Lbar):
        print(f"Lb{i + 1} = {f.render()}")
    for j, f in enumerate(forms):
        print(f"rho0_{j + 1} = {f.render()}")


def _run_levi(vm: ValidatedManifold, config: RunConfig) -> None:
    frame = cramer_frame(vm)
    levi = levi_data(vm, frame, frame.L)
    det = det_expr(levi.rows)
    if config.json_output:
        doc = {
            "input": vm.input_dict(),
            "matrix": [[expr_to_text(e) for e in r] for r in levi.rows],
            "determinant": expr_to_text(det),
            "generic_rank": levi.certificate.rank,
            "rank_at_point": levi.point_rank,
        }
        if levi.kernel is not None:
            doc["kernel"] = levi.kernel.to_dict()
        _emit(doc)
        return
    _print_warnings(vm)
    print("Levi matrix, entry(r,c) = rho0(i[L_c, Lb_r]):")
    for r in levi.rows:
        print("  [" + ", ".join(expr_to_text(e) for e in r) + "]")
    print(f"determinant: {expr_to_text(det)}")
    print(
        f"generic rank: {levi.certificate.rank}, rank at base point: {levi.point_rank}"
    )
    if levi.kernel is not None:
        _print_kernel(levi.kernel)


def _run_brackets(vm: ValidatedManifold, config: RunConfig) -> None:
    frame = cramer_frame(vm)
    fields = {
        name: f.render() for name, f in named_brackets(frame.L, vm.c)
    }
    if config.json_output:
        _emit({"input": vm.input_dict(), "fields": fields})
        return
    _print_warnings(vm)
    for name, text in fields.items():
        print(f"{name} = {text}")


def _run_hull(vm: ValidatedManifold, config: RunConfig) -> None:
    result = lie_hull_rank(vm, config.depth)
    if config.json_output:
        _emit({
            "input": vm.input_dict(),
            "depth": config.depth,
            "ranks_by_depth": list(result.ranks_by_depth),
            "rank": result.rank,
            "stabilized_at": result.stabilized_at,
        })
        return
    _print_warnings(vm)
    for depth, rank in enumerate(result.ranks_by_depth, start=1):
        print(f"depth {depth}: rank {rank}")
    if result.stabilized_at is not None:
        print(f"stabilized at depth {result.stabilized_at} with rank {result.rank}")
    else:
        print(f"not stabilized within depth {config.depth}; rank so far {result.rank}")


def run(config: RunConfig) -> int:
    try:
        if config.depth < 1:
            raise ValidationError("--depth must be at least 1")
        if config.depth > MAX_HULL_DEPTH:
            raise ValidationError(f"--depth must be at most {MAX_HULL_DEPTH}")
        vm = _load(config)
        dispatch = {
            "classify": _run_classify,
            "frame": _run_frame,
            "levi": _run_levi,
            "brackets": _run_brackets,
            "hull": _run_hull,
        }
        dispatch[config.command](vm, config)
        return 0
    except (ValidationError, ParseError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    except (InternalAssertion, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        json_output=args.json,
        depth=getattr(args, "depth", 4),
        point_path=args.point,
    )
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
