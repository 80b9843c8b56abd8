"""Command-line front end.

    crclass <command> --input <file> [--json] [--depth N] [--point <file>]

Commands: classify, frame, levi, brackets, hull. Each command builds one
document, the dict that --json prints. The text form renders that same
document line by line, after one `note:` line per validation warning, so
the two forms cannot disagree. This module owns the output format: the
engine returns typed values, and the helpers below turn them into
document entries. `manifold.load_manifold` reads the input files.

Exit status: 0 success, 1 input/validation problem, 2 violated internal
invariant. Status 1 and 2 print one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .classify import MAX_HULL_DEPTH, VERDICT_TEXT, classify, lie_hull_rank
from .errors import InternalAssertion, ValidationError
from .frames import cramer_frame, named_brackets, rho0
from .gaussian import gr
from .levi import KernelData, levi_data
from .linalg import RankCertificate, det_expr
from .manifold import ValidatedManifold, load_manifold, validate_manifold
from .parser import ParseError, expr_to_text
from .ratfunc import PoleError


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


# -- document entries for engine values -----------------------------------------


def _input_doc(vm: ValidatedManifold) -> dict:
    return {
        "n": vm.n,
        "c": vm.c,
        "phi": [expr_to_text(p) for p in vm.phi],
        "point": {
            "z": [str(v) for v in vm.point.z],
            "u": [str(gr(v)) for v in vm.point.u],
        },
    }


def _certificate_doc(cert: RankCertificate) -> dict:
    return {
        "rank": cert.rank,
        "rows": list(cert.rows),
        "cols": list(cert.cols),
        "minor": str(cert.minor) if cert.minor is not None else None,
    }


def _kernel_doc(kernel: KernelData) -> dict:
    at = kernel.freeman_at_point
    return {
        "k": expr_to_text(kernel.k),
        "K": kernel.K.render(),
        "kappa0": kernel.kappa0.render(),
        "frame_adjust": [[str(v) for v in row] for row in kernel.frame_adjust],
        "freeman": expr_to_text(kernel.freeman),
        "freeman_identically_zero": kernel.freeman.is_zero(),
        "freeman_at_point": str(at) if at is not None else None,
    }


def _kernel_text(kernel: dict):
    at = kernel["freeman_at_point"]
    yield "kernel data:"
    yield f"  k = {kernel['k']}"
    yield f"  K = {kernel['K']}"
    yield f"  kappa0 = {kernel['kappa0']}"
    yield f"  frame_adjust = {kernel['frame_adjust']}"
    yield f"  freeman = {kernel['freeman']}"
    yield f"  freeman at base point = {at if at is not None else 'pole'}"


# -- one document per command, and its text form --------------------------------


def _classify_doc(vm: ValidatedManifold, args: argparse.Namespace) -> dict:
    report = classify(vm)
    witnesses = [
        {"name": name, **_certificate_doc(cert)}
        for name, cert in report.witnesses.items()
    ]
    d = report.observational_d
    if d is not None:
        witnesses.append({
            "name": "observational_d",
            "expression": expr_to_text(d),
            "product_with_conj": expr_to_text(d * d.conj()),
        })
    witnesses.append({"name": "certificate", "text": report.certificate})
    doc = {
        "input": _input_doc(vm),
        "verdict": report.verdict,
        "ranks": {
            "generic": dict(report.generic_ranks),
            "at_point": dict(report.point_ranks),
        },
        "witnesses": witnesses,
    }
    if report.kernel is not None:
        doc["kernel"] = _kernel_doc(report.kernel)
    doc["sigma_flag"] = report.sigma_flag
    return doc


_DEPTH_LABELS = {
    "L,Lb,T,[L,T],[Lb,T]": "r4",
    "L,Lb,T,[L,T],[Lb,T],[L,[L,T]]": "r5",
}


def _classify_text(doc: dict):
    generic, at_point = doc["ranks"]["generic"], doc["ranks"]["at_point"]
    yield f"verdict: {VERDICT_TEXT[doc['verdict']]} [{doc['verdict']}]"
    yield f"certificate: {doc['witnesses'][-1]['text']}"
    yield "generic ranks:"
    for name, rank in generic.items():
        yield f"  {name}: generic {rank}, at base point {at_point[name]}"
    for name, label in _DEPTH_LABELS.items():
        if name in generic:
            yield f"{label} = {generic[name]} (rank of {{{name}}})"
    for w in doc["witnesses"]:
        if w.get("minor") is not None:
            yield f"witness[{w['name']}]: rows {w['rows']} cols {w['cols']} minor {w['minor']}"
        elif w["name"] == "observational_d":
            yield (f"observational d = {w['expression']} "
                   f"(d*conj(d) = {w['product_with_conj']})")
    if "kernel" in doc:
        yield from _kernel_text(doc["kernel"])
    if doc["sigma_flag"]:
        yield "sigma_flag: true (base point is in the rank-drop locus)"
    else:
        yield "sigma_flag: false"


def _frame_doc(vm: ValidatedManifold, args: argparse.Namespace) -> dict:
    frame = cramer_frame(vm)
    forms = rho0(frame)
    return {
        "input": _input_doc(vm),
        "A": [[expr_to_text(a) for a in row] for row in frame.A],
        "L": [f.render() for f in frame.L],
        "Lbar": [f.render() for f in frame.Lbar],
        "rho0": [f.render() for f in forms],
    }


def _frame_text(doc: dict):
    for i, row in enumerate(doc["A"], 1):
        for l, a in enumerate(row, 1):
            yield f"A_{i}^{l} = {a}"
    for label, key in (("L", "L"), ("Lb", "Lbar"), ("rho0_", "rho0")):
        for i, text in enumerate(doc[key], 1):
            yield f"{label}{i} = {text}"


def _levi_doc(vm: ValidatedManifold, args: argparse.Namespace) -> dict:
    frame = cramer_frame(vm)
    levi = levi_data(vm, frame, frame.L)
    det = det_expr(levi.rows)
    doc = {
        "input": _input_doc(vm),
        "matrix": [[expr_to_text(e) for e in r] for r in levi.rows],
        "determinant": expr_to_text(det),
        "generic_rank": levi.certificate.rank,
        "rank_at_point": levi.point_rank,
    }
    if levi.kernel is not None:
        doc["kernel"] = _kernel_doc(levi.kernel)
    return doc


def _levi_text(doc: dict):
    yield "Levi matrix, entry(r,c) = rho0(i[L_c, Lb_r]):"
    for row in doc["matrix"]:
        yield "  [" + ", ".join(row) + "]"
    yield f"determinant: {doc['determinant']}"
    yield f"generic rank: {doc['generic_rank']}, rank at base point: {doc['rank_at_point']}"
    if "kernel" in doc:
        yield from _kernel_text(doc["kernel"])


def _brackets_doc(vm: ValidatedManifold, args: argparse.Namespace) -> dict:
    fields = named_brackets(cramer_frame(vm).L, vm.c)
    return {"input": _input_doc(vm), "fields": {name: f.render() for name, f in fields}}


def _brackets_text(doc: dict):
    for name, text in doc["fields"].items():
        yield f"{name} = {text}"


def _hull_doc(vm: ValidatedManifold, args: argparse.Namespace) -> dict:
    result = lie_hull_rank(vm, args.depth)
    return {
        "input": _input_doc(vm),
        "depth": args.depth,
        "ranks_by_depth": list(result.ranks_by_depth),
        "rank": result.rank,
        "stabilized_at": result.stabilized_at,
    }


def _hull_text(doc: dict):
    for depth, rank in enumerate(doc["ranks_by_depth"], 1):
        yield f"depth {depth}: rank {rank}"
    if doc["stabilized_at"] is not None:
        yield f"stabilized at depth {doc['stabilized_at']} with rank {doc['rank']}"
    else:
        yield f"not stabilized within depth {doc['depth']}; rank so far {doc['rank']}"


_COMMANDS = {
    "classify": (_classify_doc, _classify_text),
    "frame": (_frame_doc, _frame_text),
    "levi": (_levi_doc, _levi_text),
    "brackets": (_brackets_doc, _brackets_text),
    "hull": (_hull_doc, _hull_text),
}


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line; returns the exit status."""
    try:
        if args.command == "hull":
            if args.depth < 1:
                raise ValidationError("--depth must be at least 1")
            if args.depth > MAX_HULL_DEPTH:
                raise ValidationError(f"--depth must be at most {MAX_HULL_DEPTH}")
        vm = validate_manifold(load_manifold(args.input, args.point))
        build, render = _COMMANDS[args.command]
        doc = build(vm, args)
        if args.json:
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        else:
            print(*(f"note: {w}" for w in vm.warnings), *render(doc), sep="\n")
        return 0
    except (ValidationError, ParseError, PoleError) as exc:
        return _fail(1, f"error: {exc}")
    except OSError as exc:
        return _fail(1, f"error: cannot read input: {exc}")
    except (InternalAssertion, AssertionError) as exc:
        return _fail(2, f"internal invariant violated: {exc}")


def _fail(status: int, message: str) -> int:
    # one stderr line, even when a file name holds a line break
    print("\\n".join(message.splitlines()), file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
