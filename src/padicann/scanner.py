"""The rational-point height scan: a table-driven modular sieve.

For y^2 = f(x) with integer coefficients c_0..c_n and x = a/b, the value
f(a/b) is a rational square exactly when G(a, b) = sum_i c_i a^i b^(2n-i)
is a non-negative perfect square.  This module runs the no-false-negative
part: G mod m must be a square residue for every modulus m in a fixed
list.  Survivors are confirmed exactly by the caller.

G(a, b) mod m depends only on (a mod m, b mod m), so each modulus needs
one m x m boolean table "G mod m is a square".  Gathering its columns
over a in [-H, H] gives a bank of shape (m, 2H+1) indexed by
[b mod m, a + H]; the filter for one b is then one row per modulus,
ANDed together.  This is the per-prime square-table sieve of Stoll's
``ratpoints``.
"""

from functools import reduce
from itertools import islice, repeat

import numpy as np

SCAN_MODULI = (64, 63, 65, 11)

# cells per gathered block of b-rows; bounds the sieve's scratch memory
_BLOCK_CELLS = 1 << 16


def _square_table(m):
    tab = np.zeros(m, dtype=bool)
    tab[(np.arange(m, dtype=np.int64) ** 2) % m] = True
    return tab


_SQUARES = {m: _square_table(m) for m in SCAN_MODULI}


def _residue_table(coeffs, m):
    """[b mod m, a mod m] -> whether G(a, b) mod m is a square residue."""
    n = len(coeffs) - 1
    # reduce as Python ints first: den^2 scaling makes coefficients huge
    cred = [int(c) % m for c in coeffs]
    r = np.arange(m, dtype=np.int64)
    a, b = r[None, :], r[:, None]
    # homogeneous Horner: acc = sum_i c_i a^i b^(n-i) and bpow = b^n at the
    # end, so G = acc * bpow
    acc = np.full((m, m), cred[n], dtype=np.int64)
    bpow = np.ones_like(b)
    for i in range(n - 1, -1, -1):
        bpow = bpow * b % m
        acc = (acc * a + cred[i] * bpow) % m
    return _SQUARES[m][acc * bpow % m]


def scan_candidates(coeffs, height):
    """Return [(a, b), ...] passing all modular square filters.

    ``coeffs`` are the integer coefficients of f, ascending, degree n =
    len(coeffs) - 1.  Scans b in [1, height], a in [-height, height], and
    lists survivors with b ascending, then a ascending.  gcd screening and
    the exact perfect-square confirmation are left to the caller.
    """
    if not coeffs or height < 1:
        return []
    a_all = np.arange(-height, height + 1, dtype=np.int64)
    banks = [(m, _residue_table(coeffs, m)[:, a_all % m]) for m in SCAN_MODULI]

    block = max(1, _BLOCK_CELLS // a_all.size)
    out = []
    for b0 in range(1, height + 1, block):
        bs = np.arange(b0, min(b0 + block, height + 1), dtype=np.int64)
        mask = reduce(np.logical_and, (bank[bs % m] for m, bank in banks))
        counts = np.count_nonzero(mask, axis=1).tolist()
        a_iter = iter((np.nonzero(mask)[1] - height).tolist())
        for b, c in zip(range(b0, b0 + len(bs)), counts):
            if c:
                out.extend(zip(islice(a_iter, c), repeat(b, c)))
    return out


def active_kernel() -> str:
    """Always "sieve": the one scan kernel.

    Kept as a function because benchmark run records name the kernel that
    ran.
    """
    return "sieve"
