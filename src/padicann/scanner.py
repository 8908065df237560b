"""The rational-point height scan: a table-driven modular sieve.

For y^2 = f(x) with integer coefficients c_0..c_n and x = a/b, the value
f(a/b) is a rational square exactly when G(a, b) = sum_i c_i a^i b^(2n-i)
is a non-negative perfect square.  This module runs the no-false-negative
part: G mod p must be a square residue for every prime p in
``SCAN_MODULI``, the seventeen odd primes below 64.  Survivors are
confirmed exactly by the caller.  On y^2 = x^7 + 1 at height 2000, 4,263
pairs of the 8,002,000 pass.

The scan covers every b in [1, H] unless the caller passes an ascending
list of ``denominators``; then only those rows of b are ANDed, and each
survivor's b is read from the list.  The point search passes the b that
a point can have: for odd degree the b = d k^2 with d | c_n, on the
septic the 44 squares up to 2000, whose 176,044 pairs keep 95; for even
degree the b whose odd primes not dividing c_n have c_n as a square.

G(a, b) mod p depends only on (a mod p, b mod p), so each prime needs
one p x p boolean table "G mod p is a square".  Over a in [-H, H] its
rows repeat with period p, so repeating the table side by side and
starting at column -H mod p gives a bank of p rows indexed by b mod p,
by plain memory copies; the filter for one b is then one row per prime,
ANDed together.  This is the per-prime square-table sieve of Stoll's
``ratpoints``.  As there, the rows are packed 64 values of a to a machine
word, so the AND runs over words and only the words left nonzero are
unpacked.

A table needs only f on the p residues: for b != 0 mod p,
G(a, b) = b^(2n) f(a/b) and b^(2n) is a nonzero square, so the entry is
"f(a b^-1) is a square mod p"; in the row b = 0, G = 0 is a square as
soon as n >= 1.  f is evaluated on the residues of all the primes at
once, as one sum of the reduced coefficients times the residues' powers,
and a constant index a b^-1 mod p, built at import, gathers each table
from it.  So a small scan, where the tables are most of the work, pays
little for each prime.
"""

import numpy as np

from .errors import UnsupportedRegime

SCAN_MODULI = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# cells (bits) per ANDed block of b-rows; bounds the AND stage's scratch
# memory at 2 * _BLOCK_CELLS / 8 bytes, whatever the number of primes
_BLOCK_CELLS = 1 << 20

# cells (bools, one byte each) per block of bank columns: all the bank's
# rows over a run of 64-cell words, packed in one call; bounds that bool
# array near 256 KB, and about as much the repeated tables each prime's
# rows are copied from, a block and at most 2p - 2 cells wide
_GATHER_CELLS = 1 << 18

# the scan's bank holds p rows per prime p, one per residue of b; the
# primes and the row where each one's rows start, as columns to broadcast
# against a block of b values
_MODULI_COLUMN = np.array(SCAN_MODULI, dtype=np.int64)[:, None]
_STARTS_COLUMN = np.cumsum((0,) + SCAN_MODULI[:-1])[:, None]
_BANK_ROWS = sum(SCAN_MODULI)

# the bank takes _BANK_ROWS * 8 bytes per 64 values of a; a height whose
# bank exceeds this (H above 8,607,135) is refused before allocating it
_MAX_BANK_BYTES = 1 << 30

# The residues of every prime, concatenated: f is evaluated at _RESIDUES
# modulo _PRIME_OF, and _IS_SQUARE[_OFFSET_OF + v] tells whether v is a
# square modulo that prime.
_OFFSETS = _STARTS_COLUMN[:, 0]
_RESIDUES = np.concatenate([np.arange(p, dtype=np.int64) for p in SCAN_MODULI])
_PRIME_OF = np.repeat(_MODULI_COLUMN[:, 0], SCAN_MODULI)
_PRIME_INDEX = np.repeat(np.arange(len(SCAN_MODULI)), SCAN_MODULI)
_OFFSET_OF = np.repeat(_OFFSETS, SCAN_MODULI)
_IS_SQUARE = np.zeros(_RESIDUES.size, dtype=bool)
_IS_SQUARE[_OFFSET_OF + _RESIDUES**2 % _PRIME_OF] = True

# The primes' product (5.9e22) is above 2^63, so a coefficient is reduced
# as a Python int modulo the products of two runs of primes, each below
# 2^63 (3 ... 47 and 53 ... 61), and then modulo each prime in NumPy.
_PRIME_RUNS = (SCAN_MODULI[:14], SCAN_MODULI[14:])
_GROUP_PRODUCTS = tuple(int(np.prod(run, dtype=object)) for run in _PRIME_RUNS)
_GROUP_OF = np.repeat([0, 1], [len(run) for run in _PRIME_RUNS])

# _POWERS[k, i] = _RESIDUES[i]^k modulo _PRIME_OF[i]; rows are added as
# degrees need them
_POWERS = np.ones((1, _RESIDUES.size), dtype=np.int64)


def _residue_powers(rows):
    """The first ``rows`` rows of _POWERS, doubling it until it has them."""
    global _POWERS
    while len(_POWERS) < rows:
        top = _POWERS[-1] * _RESIDUES % _PRIME_OF
        _POWERS = np.concatenate([_POWERS, _POWERS * top % _PRIME_OF])
    return _POWERS[:rows]


def _quotient_index(p, offset, sentinel):
    """[b, a] -> offset + a b^-1 mod p, and row b = 0 -> sentinel."""
    r = np.arange(p, dtype=np.int64)
    inv = np.array([0] + [pow(b, -1, p) for b in range(1, p)], dtype=np.int64)
    idx = offset + r[None, :] * inv[:, None] % p
    idx[0] = sentinel
    return idx


# the sentinels sit after the concatenated residues, one per prime
_QUOTIENT_INDEX = [
    _quotient_index(p, off, _RESIDUES.size + k)
    for k, (p, off) in enumerate(zip(SCAN_MODULI, _OFFSETS.tolist()))
]


def _tables(coeffs):
    """[b mod p, a mod p] -> whether G(a, b) mod p is a square, per prime."""
    cred = np.array([[int(c) % m for m in _GROUP_PRODUCTS] for c in coeffs],
                    dtype=np.int64)
    cred = (cred.take(_GROUP_OF, axis=1) % _MODULI_COLUMN.T).take(_PRIME_INDEX, axis=1)
    # f on every residue: each product is below 61^2, so the sum stays exact
    values = np.einsum("ij,ij->j", cred, _residue_powers(len(coeffs))) % _PRIME_OF
    square = _IS_SQUARE[_OFFSET_OF + values]
    # row b = 0: G = c_0 b^(2n) vanishes unless f is a constant
    row0 = square[_OFFSETS] if len(coeffs) == 1 else np.ones_like(_OFFSETS, bool)
    square = np.concatenate([square, row0])
    return [square[idx] for idx in _QUOTIENT_INDEX]


def _bank(coeffs, height, words):
    """The packed bank: row (prime, b mod p), bit a + height -> G(a, b) mod p
    is a square; the padding bits past a = height are 0.

    The bank is built a block of words at a time in one bool array, which
    is packed once.  A prime's rows repeat with period p in a, so its p x p
    table is repeated, by one broadcast copy, into a buffer at least a
    block and p - 1 cells wide; a block whose first cell is a = s copies
    its rows from that buffer starting at column s mod p.
    """
    tables = _tables(coeffs)
    bank = np.empty((_BANK_ROWS, 8 * words), dtype=np.uint8)
    step = max(1, _GATHER_CELLS // (64 * _BANK_ROWS))
    span = 64 * min(step, words)
    live = min(span, 2 * height + 1)  # the most cells of a block inside the box
    tiles = []
    for table, p in zip(tables, SCAN_MODULI):
        reps = -(-(live + p - 1) // p)
        tile = np.empty((p, reps, p), dtype=bool)
        tile[...] = table[:, None, :]
        tiles.append(tile.reshape(p, reps * p))
    block = np.empty((_BANK_ROWS, span), dtype=bool)
    for w0 in range(0, words, step):
        w1 = min(w0 + step, words)
        n = min(64 * (w1 - w0), 2 * height + 1 - 64 * w0)
        for tile, start, p in zip(tiles, _OFFSETS.tolist(), SCAN_MODULI):
            s = (64 * w0 - height) % p
            block[start:start + p, :n] = tile[:, s:s + n]
        block[:, n:] = False
        bank[:, 8 * w0:8 * w1] = np.packbits(block[:, :64 * (w1 - w0)], axis=1)
    return bank.view(np.uint64)


def bank_words(height):
    """The 64-bit words per bank row at this height; UnsupportedRegime if
    the bank would pass _MAX_BANK_BYTES, before anything is allocated."""
    words = -(-(2 * height + 1) // 64)
    if _BANK_ROWS * 8 * words > _MAX_BANK_BYTES:
        raise UnsupportedRegime(
            f"height {height} is too large: the sieve bank would take "
            f"{_BANK_ROWS * 8 * words} bytes, over {_MAX_BANK_BYTES}")
    return words


def scan_candidates(coeffs, height, denominators):
    """Return [(a, b), ...] passing all modular square filters.

    ``coeffs`` are the integer coefficients of f, ascending, degree n =
    len(coeffs) - 1.  Scans a in [-height, height] for the b in
    ``denominators``, an ascending sequence of integers in [1, height]
    (``range(1, height + 1)`` for every b).  Survivors are listed b-major
    in the order the b are scanned, a ascending.  gcd screening and the
    exact perfect-square confirmation are left to the caller.
    """
    if not coeffs or height < 1:
        return []
    words = bank_words(height)
    bank = _bank(coeffs, height, words)
    denominators = np.asarray(denominators, dtype=np.int64)

    block = max(1, _BLOCK_CELLS // (64 * words))
    out = []
    for i in range(0, denominators.size, block):
        bs = denominators[i:i + block]
        rows = _STARTS_COLUMN + bs % _MODULI_COLUMN
        # one prime at a time, so only two blocks of words are alive
        mask = bank[rows[0]]
        for r in rows[1:]:
            mask &= bank[r]
        # unpack only the nonzero words: rows in b order, words and bits
        # in a order, so the survivors come out b-major, a ascending
        row, word = np.nonzero(mask)
        bit = np.flatnonzero(np.unpackbits(mask[row, word].view(np.uint8)))
        a = 64 * word[bit >> 6] + (bit & 63) - height
        out.extend(zip(a.tolist(), bs[row[bit >> 6]].tolist()))
    return out


def active_kernel() -> str:
    """Always "sieve": the one scan kernel.

    Kept as a function because benchmark run records name the kernel that
    ran.
    """
    return "sieve"
