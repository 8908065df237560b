"""The timed part of each workload: calls into padicann and nothing else.

Every public function is reached through its module attribute
(``oracle.search_rational_points``, ``series.formal_integrate``, ...), so
that the tracer in ``spans.py`` can wrap those names for a traced run.
Each job's calls are timed; input generation and checks are not.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, List, Optional

from padicann import curves, integration, oracle, series
from padicann.errors import CertificationFailed
from padicann.padic import PAdic

import inputs


@dataclass
class JobResult:
    job: Any
    output: Any = None
    error: Optional[str] = None


@dataclass
class Round:
    seconds: float = 0.0
    results: List[JobResult] = field(default_factory=list)


def _timed(rnd: Round, job, compute) -> None:
    t0 = time.perf_counter()
    try:
        out = compute(job)
    except Exception as exc:  # a failed job is counted, never fatal
        rnd.seconds += time.perf_counter() - t0
        rnd.results.append(JobResult(job, error=f"{type(exc).__name__}: {exc}"))
        return
    rnd.seconds += time.perf_counter() - t0
    rnd.results.append(JobResult(job, out))


# ---------------------------------------------------------------------------
# points and family
# ---------------------------------------------------------------------------


def search(job):
    return oracle.search_rational_points(list(job.coeffs), job.height)


def point_round(jobs) -> Round:
    rnd = Round()
    for job in jobs:
        _timed(rnd, job, search)
    return rnd


# ---------------------------------------------------------------------------
# local
# ---------------------------------------------------------------------------


@dataclass
class PullbackOut:
    annulus: Any                 # the AnnulusDescriptor
    j: int                       # u~ = x^j
    data: Any                    # LaurentData
    ell: Any                     # formal antiderivative
    residue: Any                 # z^-1 coefficient
    zeros: Optional[int]         # Newton count of ell on the annulus
    integrals: Optional[tuple]   # (I(x0, x1), I(x1, x2), I(x0, x2))


@dataclass
class CurveOut:
    curve: Any
    decomposition: Any
    cover: dict
    pullbacks: List[PullbackOut]


def _annulus_points(rng, p, domain, prec):
    """Three points of integer valuation inside the open domain, or None."""
    lo, hi = domain
    vals = [v for v in range(int(lo) - 1, int(hi) + 2) if lo < v < hi]
    if not vals:
        return None
    pts = []
    for _ in range(3):
        u = rng.randrange(1, p**4)
        if u % p == 0:
            u += 1
        pts.append(PAdic.from_rational(Fraction(u) * Fraction(p) ** rng.choice(vals),
                                       p, prec))
    return pts


def curve_pipeline(job: inputs.CurveJob) -> CurveOut:
    curve = curves.HyperellipticCurve(list(job.coeffs), job.p, inputs.LOCAL_PRECISION)
    dec = curves.decompose(curve)
    cover = oracle.verify_decomposition_cover(curve, dec, inputs.LOCAL_COVER_N)
    rng = random.Random(job.unit_seed)
    pullbacks = []
    for A in dec.annuli:
        if A.kind != curves.ODD and not A.split:
            continue  # no curve points over a non-split even annulus
        for j in range(curve.genus):
            data = curves.pullback_differential(A, [0] * j + [1])
            ell, c = series.formal_integrate(data.u)
            zeros = None
            if not ell.is_zero():
                zeros = series.count_zeros_valuation_range(
                    series.LaurentData(ell, data.domain), *data.domain)
            integrals = None
            pts = _annulus_points(rng, job.p, data.domain, inputs.LOCAL_PRECISION)
            if pts is not None:
                I = integration.AnnulusIntegrand(ell, c, None, data.domain)
                x0, x1, x2 = pts
                integrals = (integration.integrate_annulus(I, x0, x1),
                             integration.integrate_annulus(I, x1, x2),
                             integration.integrate_annulus(I, x0, x2))
            pullbacks.append(PullbackOut(A, j, data, ell, c, zeros, integrals))
    return CurveOut(curve, dec, cover, pullbacks)


@dataclass
class ZeroOut:
    newton: int
    enumerated: int
    N: int


def zero_count(job: inputs.ZeroJob) -> ZeroOut:
    poly = series.LaurentPoly.from_coeff_list(job.p, list(job.coeffs), 40)
    newton = series.count_zeros_valuation_range(poly, *job.window)
    for N in range(inputs.ZERO_FIRST_N, inputs.ZERO_LAST_N + 1):
        try:
            got = oracle.enumerate_padic_zeros(list(job.coeffs), job.p, job.window, N)
        except CertificationFailed:
            continue  # close roots need a finer scan: escalate N
        return ZeroOut(newton, got, N)
    raise CertificationFailed(f"no certification up to N = {inputs.ZERO_LAST_N}")


def local_round(jobs) -> Round:
    curve_jobs, zero_jobs = jobs
    rnd = Round()
    for job in curve_jobs:
        _timed(rnd, job, curve_pipeline)
    for job in zero_jobs:
        _timed(rnd, job, zero_count)
    return rnd
