"""The rational-point height scan: a table-driven modular sieve.

For y^2 = f(x) with integer coefficients c_0..c_n and x = a/b, the value
f(a/b) is a rational square exactly when G(a, b) = sum_i c_i a^i b^(2n-i)
is a non-negative perfect square.  This module runs the no-false-negative
part: G mod m must be a square residue for every modulus m in
``SCAN_MODULI``, which is 64, 63, 65 and the ten primes 11 to 47.
Survivors are confirmed exactly by the caller.  The primes 17 to 47 cut
their number about a hundredfold: on y^2 = x^7 + 1 at height 2000, 5,313
pairs pass, where 568,477 pass the moduli 64, 63, 65 and 11 alone.

G(a, b) mod m depends only on (a mod m, b mod m), so each modulus needs
one m x m boolean table "G mod m is a square".  Gathering its columns
over a in [-H, H] gives a bank of m rows indexed by b mod m; the filter
for one b is then one row per modulus, ANDed together.  This is the
per-prime square-table sieve of Stoll's ``ratpoints``.  As there, the
rows are packed 64 values of a to a machine word, so the AND runs over
words and only the words left nonzero are unpacked.

The composite moduli get their tables from a homogeneous Horner pass
over all m^2 pairs.  A prime p needs only f on its p residues: for
b != 0 mod p, G(a, b) = b^(2n) f(a/b) and b^(2n) is a nonzero square, so
the table entry is "f(a b^-1) is a square mod p"; in the row b = 0,
G = 0 is a square as soon as n >= 1.  One Horner pass evaluates f on the
residues of all ten primes at once, and a constant index a b^-1 mod p,
built at import, gathers each table from it.  So a small scan, where the
tables are most of the work, pays little for the extra primes.
"""

from math import prod

import numpy as np

_COMPOSITE_MODULI = (64, 63, 65)
_PRIMES = (11, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SCAN_MODULI = _COMPOSITE_MODULI + _PRIMES

# cells (bits) per gathered block of b-rows; bounds the sieve's scratch
# memory at len(SCAN_MODULI) * _BLOCK_CELLS / 8 bytes
_BLOCK_CELLS = 1 << 20

# the scan's bank holds m rows per modulus m, one per residue of b; the
# moduli and the row where each one's rows start, as columns to broadcast
# against a block of b values
_MODULI_COLUMN = np.array(SCAN_MODULI, dtype=np.int64)[:, None]
_STARTS_COLUMN = np.cumsum((0,) + SCAN_MODULI[:-1])[:, None]


def _square_table(m):
    tab = np.zeros(m, dtype=bool)
    tab[(np.arange(m, dtype=np.int64) ** 2) % m] = True
    return tab


_SQUARES = {m: _square_table(m) for m in SCAN_MODULI}

# The residues of every prime, concatenated: f is evaluated at _RESIDUES
# modulo _PRIME_OF, and _IS_SQUARE[_OFFSET_OF + v] tells whether v is a
# square modulo that prime.  The product of the primes is below 2^63, so
# a coefficient reduced modulo it fits an int64 and still has the right
# residue modulo each prime.
_OFFSETS = np.cumsum((0,) + _PRIMES[:-1])
_RESIDUES = np.concatenate([np.arange(p, dtype=np.int64) for p in _PRIMES])
_PRIME_OF = np.repeat(np.array(_PRIMES, dtype=np.int64), _PRIMES)
_OFFSET_OF = np.repeat(_OFFSETS, _PRIMES)
_IS_SQUARE = np.concatenate([_SQUARES[p] for p in _PRIMES])
_PRIME_PRODUCT = prod(_PRIMES)


def _quotient_index(p, offset, sentinel):
    """[b, a] -> offset + a b^-1 mod p, and row b = 0 -> sentinel."""
    r = np.arange(p, dtype=np.int64)
    inv = np.array([0] + [pow(b, -1, p) for b in range(1, p)], dtype=np.int64)
    idx = offset + r[None, :] * inv[:, None] % p
    idx[0] = sentinel
    return idx


# the sentinels sit after the concatenated residues, one per prime
_QUOTIENT_INDEX = {
    p: _quotient_index(p, off, _RESIDUES.size + k)
    for k, (p, off) in enumerate(zip(_PRIMES, _OFFSETS.tolist()))
}


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


def _prime_tables(coeffs):
    """{p: [b mod p, a mod p] -> G(a, b) mod p is a square} for each prime."""
    cred = [int(c) % _PRIME_PRODUCT for c in coeffs]
    acc = np.zeros_like(_RESIDUES)
    for c in reversed(cred):
        acc = (acc * _RESIDUES + c) % _PRIME_OF
    square = _IS_SQUARE[_OFFSET_OF + acc]
    # row b = 0: G = c_0 b^(2n) vanishes unless f is a constant
    row0 = square[_OFFSETS] if len(coeffs) == 1 else np.ones(len(_PRIMES), bool)
    square = np.concatenate([square, row0])
    return {p: square[idx] for p, idx in _QUOTIENT_INDEX.items()}


def scan_candidates(coeffs, height):
    """Return [(a, b), ...] passing all modular square filters.

    ``coeffs`` are the integer coefficients of f, ascending, degree n =
    len(coeffs) - 1.  Scans b in [1, height], a in [-height, height], and
    lists survivors with b ascending, then a ascending.  gcd screening and
    the exact perfect-square confirmation are left to the caller.
    """
    if not coeffs or height < 1:
        return []
    width = 2 * height + 1
    words = -(-width // 64)
    a_all = np.arange(-height, height + 1, dtype=np.int64)
    tables = {m: _residue_table(coeffs, m) for m in _COMPOSITE_MODULI}
    tables.update(_prime_tables(coeffs))
    # one bank row per (modulus, b mod m), its a-axis packed 64 cells to a
    # word; the padding bits past a = height stay 0
    packed = np.concatenate(
        [np.packbits(tables[m][:, a_all % m], axis=1) for m in SCAN_MODULI])
    bank = np.zeros((packed.shape[0], 8 * words), dtype=np.uint8)
    bank[:, :packed.shape[1]] = packed
    bank = bank.view(np.uint64)

    block = max(1, _BLOCK_CELLS // (64 * words))
    out = []
    for b0 in range(1, height + 1, block):
        bs = np.arange(b0, min(b0 + block, height + 1), dtype=np.int64)
        rows = _STARTS_COLUMN + bs % _MODULI_COLUMN
        mask = np.bitwise_and.reduce(bank[rows], axis=0)
        # unpack only the nonzero words: rows in b order, words and bits
        # in a order, so the survivors come out b-major, a ascending
        row, word = np.nonzero(mask)
        bit = np.flatnonzero(np.unpackbits(mask[row, word].view(np.uint8)))
        a = 64 * word[bit >> 6] + (bit & 63) - height
        out.extend(zip(a.tolist(), (row[bit >> 6] + b0).tolist()))
    return out


def active_kernel() -> str:
    """Always "sieve": the one scan kernel.

    Kept as a function because benchmark run records name the kernel that
    ran.
    """
    return "sieve"
