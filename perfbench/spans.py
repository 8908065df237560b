"""Span tracing for the traced run, done from outside the program.

``Tracer.install`` replaces public padicann functions, by module attribute,
with wrappers that record one span per call: name, start, end and the
span that was open when it began.  ``oracle.scan_candidates`` is the name
``search_rational_points`` calls, so its span nests inside the search
span.  Spans stay in memory and are written out by ``Tracer.dump`` when
the run ends.  A layer's self time is its span durations minus the time
its child spans cover.  PAdic construction is only counted.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from fractions import Fraction

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("scanner.self_s", "s", "lower"),
    ("scanner.pairs_per_s", "pairs/s", "higher"),
    ("scanner.call_ms", "ms/call", "lower"),
    ("scanner.survivor_frac", "survivors/pairs", "lower"),
    ("oracle.confirm_s", "s", "lower"),
    ("oracle.candidates_per_s", "1/s", "higher"),
    ("oracle.confirm_yield", "ratio", "higher"),
    ("oracle.zeros_s", "s", "lower"),
    ("oracle.zeros_classes", "count", "lower"),
    ("oracle.zeros_escalations", "count", "lower"),
    ("oracle.cover_s", "s", "lower"),
    ("oracle.cover_classes", "count", "lower"),
    ("curves.decompose_ms", "ms/call", "lower"),
    ("curves.pullback_ms", "ms/call", "lower"),
    ("series.count_zeros_us", "us/call", "lower"),
    ("series.formal_integrate_us", "us/call", "lower"),
    ("integration.integrate_annulus_us", "us/call", "lower"),
    ("padic.add_us.p3", "us/op", "lower"),
    ("padic.mul_us.p3", "us/op", "lower"),
    ("padic.from_rational_us.p3", "us/op", "lower"),
    ("padic.mul_us.p10007", "us/op", "lower"),
    ("padic.from_rational_us.p10007", "us/op", "lower"),
    ("padic.constructed", "count", "lower"),
)


def _scan_note(args, result):
    height = args[1]
    note = {"pairs": height * (2 * height + 1)}
    if result is not None:
        note["survivors"] = len(result)
    return note


def _search_note(args, result):
    return {} if result is None else {"confirmed_x": len({x for x, _ in result.affine})}


def _zeros_note(args, result):
    _, p, (lo, hi), N = args
    valuations = sum(1 for m in range(math.floor(lo) + 1, math.ceil(hi))
                     if Fraction(lo) < m < Fraction(hi))
    return {"classes": valuations * (p**N - p ** (N - 1))}


def _cover_note(args, result):
    return {} if result is None else {"classes": result["classes"]}


class Tracer:
    def __init__(self):
        self.spans = []
        self.constructed = 0
        self._open = []
        self._undo = []

    def _wrap(self, module, attr, note=None):
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if note is not None:
                    span.update(note(args, result))

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def install(self):
        from padicann import curves, integration, oracle, series
        from padicann.padic import PAdic

        self._wrap(oracle, "search_rational_points", _search_note)
        self._wrap(oracle, "scan_candidates", _scan_note)
        self._wrap(oracle, "enumerate_padic_zeros", _zeros_note)
        self._wrap(oracle, "verify_decomposition_cover", _cover_note)
        self._wrap(curves, "decompose")
        self._wrap(curves, "pullback_differential")
        self._wrap(series, "count_zeros_valuation_range")
        self._wrap(series, "formal_integrate")
        self._wrap(integration, "integrate_annulus")

        init = PAdic.__init__

        def counted_init(obj, *args, **kwargs):
            self.constructed += 1
            init(obj, *args, **kwargs)

        PAdic.__init__ = counted_init
        self._undo.append((PAdic, "__init__", init))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "padic_constructed": self.constructed}, fh)

    def layer_metrics(self, rounds: int, micro: dict) -> dict:
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        attrs = defaultdict(lambda: defaultdict(int))
        durations = [s["end"] - s["start"] for s in self.spans]
        for s, d in zip(self.spans, durations):
            calls[s["name"]] += 1
            total[s["name"]] += d
            own[s["name"]] += d
            if s["parent"] is not None:
                own[self.spans[s["parent"]]["name"]] -= d
            for k, v in s.items():
                if k not in ("name", "start", "end", "parent", "error"):
                    attrs[s["name"]][k] += v
            if "error" in s:
                attrs[s["name"]]["raised " + s["error"]] += 1

        def per(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        scan, search = "oracle.scan_candidates", "oracle.search_rational_points"
        zeros, cover = "oracle.enumerate_padic_zeros", "oracle.verify_decomposition_cover"
        pairs, survivors = attrs[scan]["pairs"], attrs[scan]["survivors"]
        values = {
            "scanner.self_s": own[scan] / rounds,
            "scanner.pairs_per_s": per(pairs, own[scan]),
            "scanner.call_ms": per(own[scan], calls[scan], 1e3),
            "scanner.survivor_frac": per(survivors, pairs),
            "oracle.confirm_s": own[search] / rounds,
            "oracle.candidates_per_s": per(survivors, own[search]),
            "oracle.confirm_yield": per(attrs[search]["confirmed_x"], survivors),
            "oracle.zeros_s": total[zeros] / rounds,
            "oracle.zeros_classes": attrs[zeros]["classes"] / rounds,
            "oracle.zeros_escalations": attrs[zeros]["raised CertificationFailed"] / rounds,
            "oracle.cover_s": total[cover] / rounds,
            "oracle.cover_classes": attrs[cover]["classes"] / rounds,
            "curves.decompose_ms": per(total["curves.decompose"], calls["curves.decompose"], 1e3),
            "curves.pullback_ms": per(total["curves.pullback_differential"],
                                      calls["curves.pullback_differential"], 1e3),
            "series.count_zeros_us": per(total["series.count_zeros_valuation_range"],
                                         calls["series.count_zeros_valuation_range"], 1e6),
            "series.formal_integrate_us": per(total["series.formal_integrate"],
                                              calls["series.formal_integrate"], 1e6),
            "integration.integrate_annulus_us": per(total["integration.integrate_annulus"],
                                                    calls["integration.integrate_annulus"], 1e6),
            "padic.constructed": self.constructed / rounds,
            **micro,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def padic_micro(repeats: int = 7, ops: int = 2000) -> dict:
    """Microseconds per PAdic add, mul and from_rational on fixed operands."""
    from padicann.padic import PAdic

    def per_op(fn):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(ops):
                fn()
            samples.append((time.perf_counter() - t0) / ops * 1e6)
        return statistics.median(samples)

    out = {}
    q, r = Fraction(7, 5), Fraction(-11, 4)
    for p in (3, 10007):
        a, b = PAdic.from_rational(q, p, 20), PAdic.from_rational(r, p, 20)
        if p == 3:
            out["padic.add_us.p3"] = per_op(lambda: a + b)
        out[f"padic.mul_us.p{p}"] = per_op(lambda: a * b)
        out[f"padic.from_rational_us.p{p}"] = per_op(lambda: PAdic.from_rational(q, p, 20))
    return out
