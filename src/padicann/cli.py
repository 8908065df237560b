"""Command line interface.

Ten subcommands over the bounds calculator, the P^1 decomposition, the
zero counters, the integrators, the special-fiber graph checker and the
brute-force verifiers.  Every report is a single JSON document on stdout
(sorted keys, so reruns are byte-identical); computation failures print a
structured JSON error to stderr and exit 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import PadicannError
from .intpoly import as_int, as_rational
from .padic import DEFAULT_PRECISION, PAdic

SCHEMA = "padicann/1"


# ---------------------------------------------------------------------------
# input/output helpers
# ---------------------------------------------------------------------------


# The keys each subcommand's job may carry.  A dict is a JSON object with
# those keys, each value checked against its entry, "*" standing for any
# key; [spec] is a list of such; None accepts any value.  A p-adic field
# (_PADIC) may also be a rational literal, which has no keys to check.
_PADIC = {"val": None, "unit": None, "prec": None}
_CURVE = {"p": None, "f": None, "precision": None}
_LAURENT = {"p": None, "prec": None, "terms": {"*": _PADIC}}
_JOB_KEYS = {
    "decompose": _CURVE,
    "verify-cover": _CURVE,
    "pullback": {"curve": _CURVE, "annulus_index": None, "u_tilde": None},
    "count-zeros": dict(_LAURENT, window=None, include_lo=None, include_hi=None),
    "verify-zeros": {"p": None, "prec": None, "terms": None, "window": None,
                     "N": None},
    "integrate": {"integrand": {"ell": _LAURENT, "c": _PADIC, "a": _PADIC,
                                "domain": None},
                  "xi0": _PADIC, "xi1": _PADIC, "mode": None},
    "graph-check": {"vertices": [{"m": None, "pa": None, "w": None,
                                  "case3_point_ids": None}],
                    "edges": None},
}


def _refuse_unknown_keys(obj, spec, path: str) -> None:
    """A key the job format does not name would be silently ignored, which
    answers another question than the job asked; refuse it by its path."""
    if isinstance(spec, dict) and isinstance(obj, dict):
        for key, value in obj.items():
            if key not in spec and "*" not in spec:
                raise ValueError(f"unknown key {path + key!r}; expected one of "
                                 f"{', '.join(sorted(spec))}")
            _refuse_unknown_keys(value, spec.get(key, spec.get("*")),
                                 f"{path}{key}.")
    elif isinstance(spec, list) and isinstance(obj, list):
        for i, item in enumerate(obj):
            _refuse_unknown_keys(item, spec[0], f"{path}{i}.")


def _read_job(path: str, command: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    _refuse_unknown_keys(job, _JOB_KEYS[command], "")
    return job


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(report: dict) -> None:
    sys.stdout.write(_dump({"schema": SCHEMA, **report}))


def _write_out(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({"schema": SCHEMA, **report}))


def _padic_in(obj, name: str, p: int, prec: int) -> PAdic:
    """Accept {"val","unit","prec"} dicts or plain rational literals."""
    if isinstance(obj, dict):
        return PAdic.from_json(obj, p)
    return PAdic.from_rational(as_rational(obj, name), p, prec)


def _flag(job: dict, key: str) -> bool:
    v = job.get(key, False)
    if not isinstance(v, bool):
        raise ValueError(f"{key} must be true or false, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    from .bounds import bound_report

    rep = bound_report(args.p, args.e, args.q, args.g, args.r, args.d)
    if args.out:
        _write_out(args.out, rep.to_dict())
        sys.stdout.write(_bounds_table(rep))
    else:
        _emit(rep.to_dict())
    return 0


def _bounds_table(rep) -> str:
    head = " ".join(f"{k}={v}" for k, v in rep.inputs.items())
    lines = [head, ""]
    cols = ("t", "disks", "annuli", "points_on_disks", "points_on_annuli")
    rows = [
        [str(row["t"]), str(row["disks"]), str(row["annuli"]),
         str(row["points_on_disks"]),
         "-" if row.get("points_on_annuli") is None
         else str(row["points_on_annuli"])]
        for row in rep.per_t
    ]
    widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
              for i, c in enumerate(cols)]
    lines.append("  ".join(c.rjust(w) for c, w in zip(cols, widths)))
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    lines.append("")

    def scalar(label, v):
        return f"{label:<22}{'-' if v is None else v}"

    lines.append(scalar("N_local", rep.N_local))
    lines.append(scalar("R_rational", rep.R_rational))
    lines.append(scalar("torsion_bound", rep.torsion_bound))
    lines.append(scalar("improved_bound", rep.improved_bound))
    lines.append(scalar("rho_log_total", rep.rholog.total))
    lines.append(scalar("density_lower", rep.density_lower))
    lines.append(scalar("min_unlikely_n", rep.min_unlikely_n))
    return "\n".join(lines) + "\n"


def _cmd_decompose(args) -> int:
    from .curves import HyperellipticCurve, decompose

    dec = decompose(HyperellipticCurve.from_json(_read_job(args.curve, "decompose")))
    _emit(dec.to_json())
    return 0


def _cmd_pullback(args) -> int:
    from .curves import HyperellipticCurve, decompose, pullback_differential

    job = _read_job(args.job, "pullback")
    dec = decompose(HyperellipticCurve.from_json(job["curve"]))
    idx = as_int(job["annulus_index"], "annulus_index")
    if not 0 <= idx < len(dec.annuli):
        raise ValueError(f"annulus_index {idx} out of range "
                         f"(decomposition has {len(dec.annuli)} annuli)")
    ann = dec.annuli[idx]
    ld = pullback_differential(ann, [as_rational(c, "u_tilde") for c in job["u_tilde"]])
    support = ld.u.support()
    n1, n2 = ann.window
    inside = support is None or (n1 <= support[0] and support[1] <= n2)
    _emit(
        {
            "annulus_index": idx,
            "annulus": ann.to_json(),
            "pullback": {
                "u": ld.u.to_json(),
                "domain": [str(ld.domain[0]), str(ld.domain[1])],
            },
            "support": None if support is None else list(support),
            "window": list(ann.window),
            "inside_window": inside,
        },
    )
    return 0


def _cmd_count_zeros(args) -> int:
    from .series import LaurentPoly, count_zeros_valuation_range

    job = _read_job(args.job, "count-zeros")
    L = LaurentPoly.from_json(job)
    lo, hi = (as_rational(v, "window") for v in job["window"])
    include_lo, include_hi = _flag(job, "include_lo"), _flag(job, "include_hi")
    count = count_zeros_valuation_range(
        L, lo, hi, include_lo=include_lo, include_hi=include_hi,
    )
    _emit(
        {
            "count": count,
            "window": [str(lo), str(hi)],
            "include_lo": include_lo,
            "include_hi": include_hi,
        },
    )
    return 0


def _cmd_integrate(args) -> int:
    from .integration import (
        AnnulusIntegrand,
        abelian_integral_annulus,
        integrate_annulus,
        integrate_disk,
    )
    from .series import LaurentPoly

    job = _read_job(args.job, "integrate")
    idef = job["integrand"]
    ell = LaurentPoly.from_json(idef["ell"])
    # rational points and constants are embedded at the integrand's precision
    p, prec = ell.p, as_int(idef["ell"].get("prec", DEFAULT_PRECISION), "prec")
    xi0 = _padic_in(job["xi0"], "xi0", p, prec)
    xi1 = _padic_in(job["xi1"], "xi1", p, prec)
    mode = job.get("mode", "annulus")
    if mode == "disk":
        value = integrate_disk(ell, xi0, xi1)
    else:
        c = _padic_in(idef.get("c", 0), "c", p, prec)
        a = idef.get("a")
        integrand = AnnulusIntegrand(
            ell, c,
            None if a is None else _padic_in(a, "a", p, prec),
            tuple(as_rational(v, "domain") for v in idef.get("domain", (0, 1))),
        )
        if mode == "annulus":
            value = integrate_annulus(integrand, xi0, xi1)
        elif mode == "abelian":
            value = abelian_integral_annulus(integrand, xi0, xi1)
        else:
            raise ValueError(f"unknown mode {mode!r}; "
                             f"expected disk, annulus or abelian")
    _emit({"mode": mode, "p": p, "value": value.to_json()})
    return 0


def _cmd_graph_check(args) -> int:
    from .graphs import ArithGraph, check_specialfiber_bounds, classify

    graph = ArithGraph.from_dict(_read_job(args.graph, "graph-check"))
    cls = classify(graph)
    _emit(
        {
            "vertices": len(graph.vertices),
            "classification": {
                # the multiplicity-1 (-2)-curves: each is in a chain or an A^1 case
                "minus_two_vertices": sum(map(len, cls.chains)) + cls.a1_outside_chains,
                "chains": [list(c) for c in cls.chains],
                "case2": list(cls.case2),
                "case3": list(cls.case3),
                "case4": list(cls.case4),
            },
            "bounds": check_specialfiber_bounds(cls),
        },
    )
    return 0


def _cmd_search_points(args) -> int:
    from .oracle import search_rational_points

    coeffs = [as_rational(c, "coefficient") for c in args.coeffs.split(",")]
    _emit(search_rational_points(coeffs, args.height).to_dict())
    return 0


def _cmd_verify_cover(args) -> int:
    from .curves import HyperellipticCurve, decompose
    from .oracle import verify_decomposition_cover

    curve = HyperellipticCurve.from_json(_read_job(args.curve, "verify-cover"))
    _emit(verify_decomposition_cover(curve, decompose(curve)))
    return 0


def _cmd_verify_zeros(args) -> int:
    from .oracle import enumerate_padic_zeros
    from .series import LaurentPoly, count_zeros_valuation_range

    job = _read_job(args.job, "verify-zeros")
    p = as_int(job["p"], "p")
    prec = as_int(job.get("prec", DEFAULT_PRECISION), "prec")
    # both sides read the same exact rationals; a {"val", "unit", "prec"}
    # term is known only mod p^prec, so it is refused here
    terms = {int(n): as_rational(c, f"term {n}") for n, c in job["terms"].items()}
    L = LaurentPoly(p, terms, prec)
    lo, hi = (as_rational(v, "window") for v in job["window"])
    newton = count_zeros_valuation_range(L, lo, hi)
    oracle = enumerate_padic_zeros(terms, p, (lo, hi), as_int(job.get("N", 6), "N"))
    _emit(
        {
            "window": [str(lo), str(hi)],
            "newton_count": newton,
            "oracle_count": oracle,
            # Newton counts zeros in the algebraic closure; the oracle
            # enumerates Q_p only, so < is legitimate for irrational zeros.
            "match": newton == oracle,
        },
    )
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all()
    lines = []
    for r in results:
        lines.append(f"criterion {r.id:2d}: {'PASS' if r.ok else 'FAIL'}  {r.name}")
    failed = [r for r in results if not r.ok]
    lines.append(
        "all criteria passed" if not failed
        else f"{len(failed)} of {len(results)} criteria failed"
    )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        _write_out(args.out, {
            "criteria": [
                {"id": r.id, "name": r.name, "ok": r.ok, "detail": r.detail,
                 "budget": r.budget}
                for r in results
            ],
            "ok": not failed,
        })
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicann",
        description="Uniform bounds and p-adic analytic machinery for "
                    "hyperelliptic curves of small rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, out=None):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        if out:
            sp.add_argument("--out", metavar="FILE",
                            help=f"write the JSON report here, and {out} to stdout")
        return sp

    sp = add("bounds", _cmd_bounds, "full bound report for (p, e, q, g, r)",
             out="an aligned table")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)

    sp = add("decompose", _cmd_decompose, "annulus/disk decomposition of P^1 for a curve")
    sp.add_argument("curve", help="curve JSON file: {p, f, precision?}")

    sp = add("pullback", _cmd_pullback, "pull a differential back to one annulus")
    sp.add_argument("job", help="JSON file: {curve, annulus_index, u_tilde}")

    sp = add("count-zeros", _cmd_count_zeros, "Newton-polygon zero count on a window")
    sp.add_argument("job", help="JSON file: {p, terms, window, include_lo?, include_hi?}")

    sp = add("integrate", _cmd_integrate, "p-adic integral of a Laurent integrand")
    sp.add_argument("job", help="JSON file: {integrand, xi0, xi1, mode?}")

    sp = add("graph-check", _cmd_graph_check, "validate a special-fiber graph and its bounds")
    sp.add_argument("graph", help="graph JSON file: {vertices, edges}")

    sp = add("search-points", _cmd_search_points, "exhaustive rational point search on y^2 = f(x)")
    # read "-5,1,0,4" as the positional, not as an option: argparse takes
    # arguments that match this pattern for negative numbers
    sp._negative_number_matcher = re.compile(r"^-\.?\d[\d.,/-]*$")
    sp.add_argument("coeffs", help="comma-separated ascending coefficients of f")
    sp.add_argument("--height", type=int, required=True)

    sp = add("verify-cover", _cmd_verify_cover,
             "audit a decomposition as an exact cover of Z_p, mod the least "
             "power of p that resolves every region")
    sp.add_argument("curve", help="curve JSON file")

    sp = add("verify-zeros", _cmd_verify_zeros, "Newton count vs exhaustive Q_p enumeration")
    sp.add_argument("job", help="JSON file: {p, terms, window, N?}")

    add("selftest", _cmd_selftest, "run the acceptance criteria and print the matrix",
        out="the matrix")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PadicannError, ValueError, ArithmeticError, KeyError, TypeError,
            OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(_dump({
            "schema": SCHEMA,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }))
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
