"""Per-layer spans and counters for the traced benchmark run.

The wrappers are installed around public functions of crclass from the
benchmark's own files, only for the traced run, and removed afterwards.
A name is patched in every crclass module that binds it (for example
`ratfunc.poly_gcd` as well as `poly.poly_gcd`), and methods are patched on
their class. A span's self time is its duration minus the time covered by
the spans it encloses; a layer's `.s` figure counts only its outermost
spans, so recursion is not counted twice.

gaussian scalar operations are left unwrapped: a wrapper would cost more
than the work it measures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
TARGETS = (
    ("crclass.poly", "MultiPoly.__mul__", "poly.mul"),
    ("crclass.poly", "MultiPoly.divexact", "poly.divexact"),
    ("crclass.poly", "poly_gcd", "poly.gcd"),
    ("crclass.ratfunc", "RationalExpr.make", "ratfunc.make"),
    ("crclass.ratfunc", "RationalExpr.__add__", "ratfunc.add"),
    ("crclass.ratfunc", "RationalExpr.__mul__", "ratfunc.mul"),
    ("crclass.ratfunc", "RationalExpr.__truediv__", "ratfunc.div"),
    ("crclass.ratfunc", "RationalExpr.diff", "ratfunc.diff"),
    ("crclass.frames", "cramer_frame", "frames.cramer_frame"),
    ("crclass.frames", "lie_bracket", "frames.lie_bracket"),
    ("crclass.frames", "decompose_in_frame", "frames.decompose"),
    ("crclass.frames", "rank_at_point", "frames.rank_at_point"),
    ("crclass.linalg", "generic_rank_matrix", "linalg.generic_rank"),
    ("crclass.linalg", "det_poly", "linalg.minors"),
    ("crclass.linalg", "clear_columns", "linalg.clear_columns"),
    ("crclass.linalg", "det_expr", "linalg.det_expr"),
    ("crclass.levi", "levi_entries", "levi.entries"),
    ("crclass.levi", "slant_k", "levi.slant_k"),
    ("crclass.parser", "parse_expr", "parser.parse"),
    ("crclass.parser", "expr_to_text", "parser.render"),
    ("crclass.manifold", "validate_manifold", "manifold.validate"),
    ("crclass.classify", "classify", "classify.classify"),
    ("crclass.classify", "lie_hull_rank", "classify.hull"),
    ("crclass.cli", "main", "cli.op"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth
        calls, outer_s, self_s = self.calls, self.outer_s, self.self_s
        after = _AFTER.get(name)
        on_error = _ON_ERROR.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            nested = depth[name]
            depth[name] = nested + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                span = clock() - start
                stack.pop()
                depth[name] = nested
                calls[name] += 1
                self_s[name] += span - frame[0]
                if nested == 0:
                    outer_s[name] += span
                if stack:
                    stack[-1][0] += span
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("crclass") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- report ------------------------------------------------------------------

    def metrics(self, rounds: int, gcd_hits: int, gcd_misses: int,
                overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-round figures; peaks and ratios are over the whole traced run."""

        def per_round(x: float) -> float:
            return x / rounds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c, s, own, k, pk = self.calls, self.outer_s, self.self_s, self.counts, self.peaks
        ratfunc_self = sum(v for name, v in own.items() if name.startswith("ratfunc."))
        out = {
            "poly.mul.calls": (per_round(c["poly.mul"]), "count"),
            "poly.mul.s": (per_round(s["poly.mul"]), "s"),
            "poly.mul.term_products": (per_round(k["poly.mul.term_products"]), "count"),
            "poly.mul.out_terms_peak": (pk["poly.mul.out_terms"], "count"),
            "poly.divexact.calls": (per_round(c["poly.divexact"]), "count"),
            "poly.divexact.s": (per_round(s["poly.divexact"]), "s"),
            "poly.divexact.failed": (per_round(k["poly.divexact.failed"]), "count"),
            "poly.divexact.useful_ratio": (
                ratio(c["poly.divexact"] - k["poly.divexact.failed"], c["poly.divexact"]),
                "ratio"),
            "poly.gcd.calls": (per_round(c["poly.gcd"]), "count"),
            "poly.gcd.s": (per_round(s["poly.gcd"]), "s"),
            "poly.gcd.cache_hits": (per_round(gcd_hits), "count"),
            "poly.gcd.cache_misses": (per_round(gcd_misses), "count"),
            "poly.gcd.nontrivial_ratio": (
                ratio(k["poly.gcd.nontrivial"], c["poly.gcd"]), "ratio"),
            "ratfunc.make.calls": (per_round(c["ratfunc.make"]), "count"),
            "ratfunc.add.calls": (per_round(c["ratfunc.add"]), "count"),
            "ratfunc.mul.calls": (per_round(c["ratfunc.mul"]), "count"),
            "ratfunc.div.calls": (per_round(c["ratfunc.div"]), "count"),
            "ratfunc.diff.calls": (per_round(c["ratfunc.diff"]), "count"),
            "ratfunc.self_s": (per_round(ratfunc_self), "s"),
            "ratfunc.den_terms_peak": (pk["ratfunc.den_terms"], "count"),
            "frames.cramer_frame.s": (per_round(s["frames.cramer_frame"]), "s"),
            "frames.lie_bracket.calls": (per_round(c["frames.lie_bracket"]), "count"),
            "frames.lie_bracket.s": (per_round(s["frames.lie_bracket"]), "s"),
            "frames.lie_bracket.self_s": (per_round(own["frames.lie_bracket"]), "s"),
            "frames.decompose.s": (per_round(s["frames.decompose"]), "s"),
            "frames.rank_at_point.s": (per_round(s["frames.rank_at_point"]), "s"),
            "linalg.generic_rank.calls": (per_round(c["linalg.generic_rank"]), "count"),
            "linalg.generic_rank.s": (per_round(s["linalg.generic_rank"]), "s"),
            "linalg.minors.calls": (per_round(c["linalg.minors"]), "count"),
            "linalg.minors_per_rank": (
                ratio(c["linalg.minors"], c["linalg.generic_rank"]), "ratio"),
            "linalg.clear_columns.s": (per_round(s["linalg.clear_columns"]), "s"),
            "linalg.det_expr.s": (per_round(s["linalg.det_expr"]), "s"),
            "levi.entries.s": (per_round(s["levi.entries"]), "s"),
            "levi.slant_k.calls": (per_round(c["levi.slant_k"]), "count"),
            "levi.slant_k.s": (per_round(s["levi.slant_k"]), "s"),
            "parser.parse.s": (per_round(s["parser.parse"]), "s"),
            "parser.render.calls": (per_round(c["parser.render"]), "count"),
            "parser.render.s": (per_round(s["parser.render"]), "s"),
            "parser.render.bytes": (per_round(k["parser.render.bytes"]), "bytes"),
            "manifold.validate.s": (per_round(s["manifold.validate"]), "s"),
            "classify.classify.s": (per_round(s["classify.classify"]), "s"),
            "classify.hull.s": (per_round(s["classify.hull"]), "s"),
            "cli.op.s": (per_round(s["cli.op"]), "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return out

    def self_time_shares(self) -> dict[str, float]:
        """Share of traced CLI time spent in each span's own code."""
        total = self.outer_s["cli.op"]
        return {name: v / total for name, v in sorted(
            self.self_s.items(), key=lambda kv: -kv[1])} if total else {}


def _mul_after(tracer: Tracer, args, result) -> None:
    a, b = args
    tracer.counts["poly.mul.term_products"] += len(a.terms) * len(b.terms)
    if len(result.terms) > tracer.peaks["poly.mul.out_terms"]:
        tracer.peaks["poly.mul.out_terms"] = len(result.terms)


def _gcd_after(tracer: Tracer, args, result) -> None:
    if not result.is_one():
        tracer.counts["poly.gcd.nontrivial"] += 1


def _ratfunc_after(tracer: Tracer, args, result) -> None:
    size = len(result.den.terms)
    if size > tracer.peaks["ratfunc.den_terms"]:
        tracer.peaks["ratfunc.den_terms"] = size


def _render_after(tracer: Tracer, args, result) -> None:
    if tracer._depth["parser.render"] == 0:
        tracer.counts["parser.render.bytes"] += len(result)


def _divexact_error(tracer: Tracer, exc: Exception) -> None:
    if type(exc).__name__ == "ExactDivisionError":
        tracer.counts["poly.divexact.failed"] += 1


_AFTER = {
    "poly.mul": _mul_after,
    "poly.gcd": _gcd_after,
    "ratfunc.make": _ratfunc_after,
    "ratfunc.add": _ratfunc_after,
    "ratfunc.mul": _ratfunc_after,
    "ratfunc.div": _ratfunc_after,
    "ratfunc.diff": _ratfunc_after,
    "parser.render": _render_after,
}

_ON_ERROR = {"poly.divexact": _divexact_error}
