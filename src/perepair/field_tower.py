"""Arithmetic in binary extension fields GF(2^N) with subfield lattices.

Elements are polynomials over GF(2) packed into Python ints: bit ``i`` holds
the coefficient of ``x^i``.  One :class:`FieldCtx` owns a single polynomial
basis representation of GF(2^N); every subfield GF(2^m), m | N, lives inside
it and is addressed through a :class:`SubfieldHandle` (membership is the
Frobenius fixed-point test ``e^(2^m) == e``).  On top of that the module
provides trace maps onto arbitrary subfields, trace-dual bases, primitive and
defining element tests, and integer factorization (trial division to 10^6
followed by Brent's variant of Pollard rho) for the multiplicative-order
checks.  The factoring work is capped by a fixed count of rho steps, never
by a clock, so every result depends on the inputs alone.

Performance notes: multiplication is carry-less, one step per byte of the
shorter operand, and the window follows that operand's length: a 4-bit
window table of the longer operand below _WIDE_BYTES = 128 bytes, and its
256-entry byte table from there on, where building the table costs a
fraction of one product.  A byte table is also kept for an operand that
many products share (the trace sequence, gamma in a subfield's power
chain, and each point of a wide field in rs_codes.encode); squaring
translates bytes through two nibble tables.  Inversion is shift-and-add
Euclid, with no division and no product.
FieldCtx._fold, the only reducer, takes a product (degree <= 2N - 2) to its
remainder by the exact Barrett quotient, found without a product: w
shift-XORs in each of ceil(log2((N - 1) / min(N - a))) log-doubling rounds
for a tail of w exponents a (5 rounds for x^210 + x^203 + 1).  The Rabin
irreducibility test refuses an even weight (x + 1 divides) before it
squares through an arithmetic-only FieldCtx, and a factor of degree <= B =
min(max(4, n.bit_length()), n // 2) after B squarings, by one gcd with the
product of x^(2^j) - x, j <= B (a distinct-degree sieve); only a modulus
that passes pays the rest of the chain (6 of the 65 candidates at degree
210).  Its gcds run the inversion's shift-and-add loop without the
cofactors, with no division.  2^N - 1 is factored once per process, piece
by cyclotomic piece Phi_d(2), each trial-divided only by the primes of d
and by 1 + j lcm(2, d) (every other prime of Phi_d(2) has 2 of order d);
any other integer is trial-divided by 2 and the odd numbers, so no list of
primes is built or kept.  Primitivity is one product-tree order test over
the known primes of the group order (_order_test); the generator search
first rejects a candidate v with v^((2^N - 1)/p) = 1 at the smallest prime
p, and only then checks its degree and runs the tree.  That first value is
a power of a small v only when v is irreducible over GF(2); a product v =
q r of smaller candidates, asked before it, takes one product of their
stored values (_power_by_factors).  A degree test of v in GF(2^m) squares
m/p times, p the smallest prime of m, and compares at each maximal divisor
m/p.  A subfield's canonical generator g^((2^N - 1)/(2^m - 1)) is a norm,
taken by an Itoh-Tsujii chain of l - m squarings from L = GF(2^l),
l = N/p for the smallest prime p of N/m (L = E when that is m itself);
L's generator is the norm of g, so every subfield of GF(2^(N/2)) shares
one step down from E.  Subfield work is done in the subfield: a handle
for K = GF(2^m) keeps the dual c_0..c_(m-1) of 1, gamma, ...,
gamma^(m-1) under Tr_{K/GF(2)} and the map from E to the coordinates of
Tr_{E/K} as one 16-entry table per four bits, so a trace costs one
lookup per hex digit.  The duals come in
closed form from gamma's minimal polynomial g, with no solve; the m
N-bit masks of that map, one per coordinate, are read off the trace
sequence Tr_{E/GF(2)}(x^j) (Newton's identities on the modulus) and
transposed into the tables without a product.  SubfieldHandle._masks
builds every other trace mask the same way.  dual_basis solves n = N/m
vectors with O(N) products in E when m is small against n: masks of
c_l b_i turn Gram entries into parities, a Gram row is one int of m-bit
entries whose row operations are XORs of its gamma^l multiples, and the m
products gamma^l d_col of a pivot serve all its operations on the b side.
Otherwise it takes n(n + 1)/2 products for the Gram matrix and about one
per row operation.  Everything is exact; exponents are
arbitrary-precision throughout.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, count

from .errors import PERepairError, check_invariant
from ._util import memo

__all__ = [
    "FieldCtx",
    "FieldElem",
    "SubfieldHandle",
    "BasisOverSubfield",
    "make_field",
    "trace_to",
    "is_primitive_in_subfield",
    "dual_basis",
    "factor_integer",
    "clmul",
    "clsq",
    "poly_degree",
    "poly_mod",
    "poly_gcd",
    "poly_inv_mod",
    "is_irreducible",
    "smallest_irreducible",
    "gf2_rank",
]


# --------------------------------------------------------------------------
# carry-less polynomial arithmetic on ints (bit i = coefficient of x^i)

# byte -> its low (high) nibble's bits spread to even positions (squaring)
_SQ_LO = bytes(
    sum(((b >> i) & 1) << (2 * i) for i in range(4)) for b in range(256)
)
_SQ_HI = bytes(_SQ_LO[b >> 4] for b in range(256))


# a loop over this many bytes or more takes the other operand's 256-entry
# table (_byte_table) instead of its 4-bit window, in clmul and in
# rs_codes.encode; below it the table costs more than the lookups it saves
_WIDE_BYTES = 128


def clmul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials; the byte loop runs
    over the shorter one, a, by a 4-bit window table of b, or by b's byte
    table when a spans _WIDE_BYTES bytes or more (over 1,016 bits)."""
    if a == 0 or b == 0:
        return 0
    if a.bit_length() > b.bit_length():
        a, b = b, a
    size = (a.bit_length() + 7) >> 3
    if size >= _WIDE_BYTES:
        return _clmul_by_table(a, _byte_table(b))
    # window table: t[j] = j(x) * b(x) for all 4-bit j
    t = [0] * 16
    t[1] = b
    t[2] = b << 1
    t[4] = b << 2
    t[8] = b << 3
    for j in (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15):
        t[j] = t[j & (j - 1)] ^ t[j & -j]
    acc = 0
    for byte in a.to_bytes(size, "big"):
        acc = (acc << 8) ^ (t[byte >> 4] << 4) ^ t[byte & 15]
    return acc


def _byte_table(b: int) -> list:
    """t[j] = j(x) * b(x) for every byte j: the 256-entry table of a fixed
    operand b, for _clmul_by_table (Hankerson, Menezes & Vanstone, Guide to
    Elliptic Curve Cryptography, 2.3.3)."""
    t = [0, b]
    for i in range(1, 8):
        s = b << i
        t += [v ^ s for v in t]
    return t


def _clmul_by_table(a: int, t: list) -> int:
    """Carry-less product a(x) * b(x), t = _byte_table(b): one lookup per
    byte of a."""
    acc = 0
    for byte in a.to_bytes((a.bit_length() + 7) // 8, "big"):
        acc = (acc << 8) ^ t[byte]
    return acc


def clsq(a: int) -> int:
    """Carry-less square: byte i becomes bytes 2i, 2i + 1 of the result."""
    if a == 0:
        return 0
    raw = a.to_bytes((a.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SQ_LO)
    out[1::2] = raw.translate(_SQ_HI)
    return int.from_bytes(out, "little")


def poly_degree(p: int) -> int:
    """Degree of a binary polynomial (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mod(a: int, f: int) -> int:
    """a mod f for binary polynomials, f nonconstant."""
    df = poly_degree(f)
    if df < 1:
        raise ValueError("modulus must have degree >= 1")
    da = poly_degree(a)
    while da >= df:
        a ^= f << (da - df)
        da = poly_degree(a)
    return a


def poly_gcd(a: int, b: int) -> int:
    """gcd of binary polynomials (0 when both are 0): poly_inv_mod's
    shift-and-add loop without the cofactors, u += x^j v with the pair
    swapped when deg u < deg v, until u = 0."""
    if not a or not b:
        return a or b
    u, v = a, b
    du, dv = u.bit_length(), v.bit_length()
    while u:
        j = du - dv
        if j < 0:
            u, v, du, dv, j = v, u, dv, du, -j
        u ^= v << j
        du = u.bit_length()
    return v


def poly_inv_mod(a: int, f: int) -> int:
    """Inverse of a modulo f, of degree < deg f, for binary polynomials.

    Shift-and-add extended Euclid (Hankerson, Menezes & Vanstone, Guide to
    Elliptic Curve Cryptography, Alg. 2.48): with a g1 = u and a g2 = v
    mod f, u += x^j v and g1 += x^j g2 lower deg u until u = 1, swapping
    the pairs when deg u < deg v; no division and no product.  When a and
    f share a factor (f dividing a included), u reaches 0 and ValueError
    is raised."""
    if a == 0:
        raise PERepairError("ZERO_INVERSE", "cannot invert zero")
    if poly_degree(f) < 1:
        raise ValueError("modulus must have degree >= 1")
    u, v = a, f
    g1, g2 = 1, 0
    du, dv = u.bit_length(), v.bit_length()
    while u != 1:
        if not u:
            raise ValueError("element not invertible for this modulus")
        j = du - dv
        if j < 0:
            u, v, g1, g2, du, dv, j = v, u, g2, g1, dv, du, -j
        u ^= v << j
        g1 ^= g2 << j
        du = u.bit_length()
    return g1


def is_irreducible(f: int) -> bool:
    """Rabin's test: x^(2^n) = x mod f and gcd(x^(2^(n/p)) - x, f) = 1.

    Above degree 1, f(0) = 0 (x divides f) and an even weight (f(1) = 0,
    so x + 1 divides f) return False with no squaring.  The first
    B = min(max(4, n.bit_length()), n // 2) squarings also sieve for
    small factors, a distinct-degree pre-scan (Ben-Or, FOCS 1981; Gao &
    Panario, 1997): x^(2^j) - x is the product of the irreducibles of
    degree dividing j, so the product over j <= B shares a factor with f
    exactly when f has an irreducible factor of degree <= B, and one gcd
    refuses f after B squarings and B products.  B <= n/2 < n, so an
    irreducible f, whose own degree exceeds B, is never refused, and a
    checkpoint n/p <= B is covered by the sieve."""
    n = poly_degree(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if not (f & 1):
        return False  # divisible by x
    if not (f.bit_count() & 1):
        return False  # f(1) = 0: divisible by x + 1
    ring = FieldCtx(n, f, 1)  # arithmetic only, as in make_field
    bound = min(max(4, n.bit_length()), n // 2)
    y = 2  # the polynomial x
    sieve = 1
    for _ in range(bound):
        y = ring._sq(y)
        sieve = ring._mul(sieve, y ^ 2)
    if poly_gcd(sieve, f) != 1:
        return False  # an irreducible factor of degree <= bound
    checkpoints = {n // p for p, _ in factor_integer(n)}
    for j in range(bound + 1, n + 1):
        y = ring._sq(y)
        if j in checkpoints and poly_gcd(y ^ 2, f) != 1:
            return False
    return y == 2


def smallest_irreducible(n: int) -> int:
    """First irreducible of degree n, coefficient vectors ordered
    lexicographically low-degree-first: candidate b sets the middle
    coefficients x^1..x^(n-1) to its n - 1 bits, read lowest degree from
    the top bit.  is_irreducible refuses the even weights with no squaring
    and those with a factor of degree <= B after B squarings, so only a
    few candidates pay the full chain (6 of 65 at n = 210, B = 8)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return 2  # x itself
    base = (1 << n) | 1
    for b in count(0):
        f = base | int(format(b, f"0{n - 1}b")[::-1], 2) << 1
        if is_irreducible(f):
            return f


def _gf2_pivots(rows):
    """{leading bit: (row, c)}: each bit-vector int of ``rows`` reduced by
    the pivots before it, c the set of inputs it is the XOR of (bit l for
    rows[l]).  Rows that reduce to zero leave no pivot."""
    pivots = {}
    for l, row in enumerate(rows):
        c = 1 << l
        while row:
            b = row.bit_length() - 1
            other = pivots.get(b)
            if other is None:
                pivots[b] = (row, c)
                break
            row ^= other[0]
            c ^= other[1]
    return pivots


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bit-vector rows given as ints."""
    return len(_gf2_pivots(rows))


def _gf2_coordinates(pivots, y: int):
    """c with y = XOR of vectors[l] over the set bits l of c, for the
    pivots = _gf2_pivots(vectors) of GF(2)-independent bit-vector ints;
    None when y lies outside their span."""
    c = 0
    while y:
        pivot = pivots.get(y.bit_length() - 1)
        if pivot is None:
            return None
        y ^= pivot[0]
        c ^= pivot[1]
    return c


def _parities(v: int, masks) -> int:
    """Int whose bit l is parity(v & masks[l])."""
    z = 0
    for l, mask in enumerate(masks):
        z |= ((v & mask).bit_count() & 1) << l
    return z


# hex digit -> its value: an int read four bits at a time, most significant
# digit first, by one format and one translate
_HEX_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
# hex digit -> "0" or "1", its bit of weight 8, 4, 2 and 1
_HEX_BITS = tuple(
    bytes.maketrans(b"0123456789abcdef",
                    bytes(b"01"[(j >> i) & 1] for j in range(16)))
    for i in (3, 2, 1, 0))


def _nibble_tables(masks, n: int) -> tuple:
    """The GF(2)-linear map v -> _parities(v, masks) on n-bit v, as one
    16-entry table per hex digit of v ("Four Russians": Arlazarov, Dinic,
    Kronrod & Faradzev, 1970).  Table k serves digit k of the
    ceil(n / 4)-digit hex form of v, most significant first; entry j is
    the parities of j's bits in that digit's place.

    The mask matrix is transposed without arithmetic: the masks' hex
    forms, joined last mask first, give digit k of every mask as one
    strided slice, and each of the digit's bits is that slice translated
    to binary and read as an int, whose bit l is mask l's."""
    width = -(-n // 4)
    rows = b"".join([format(w, f"0{width}x").encode() for w in reversed(masks)])
    tables = []
    for k in range(width):
        digits = rows[k::width]
        # the columns of the digit's bits of weight 8, 4, 2 and 1
        d, c, b, a = [int(digits.translate(t), 2) for t in _HEX_BITS]
        tables.append(_digit_table(a, b, c, d))
    return tuple(tables)


def _digit_table(a: int, b: int, c: int, d: int) -> tuple:
    """The 16 XORs of a hex digit's columns: entry j is the XOR of a, b, c
    and d over j's bits of weight 1, 2, 4 and 8."""
    ab = a ^ b
    dc = d ^ c
    return (0, a, b, ab, c, c ^ a, c ^ b, c ^ ab,
            d, d ^ a, d ^ b, d ^ ab, dc, dc ^ a, dc ^ b, dc ^ ab)


def _select(table, z: int) -> int:
    """XOR of table[l] over the set bits l of z."""
    acc = 0
    for t in table:
        if not z:
            break
        if z & 1:
            acc ^= t
        z >>= 1
    return acc


def _power_sums(f: int) -> int:
    """Power sums t_j of the roots of f, degree n, for j < 2n - 1, as the
    bits of an int; for irreducible f, t_j = Tr(x^j) in GF(2)[x]/(f).

    Newton's identities give t_1..t_(n-1), t_0 = n mod 2, and the
    recurrence x^n = tail(x) gives the rest."""
    n = poly_degree(f)
    tail = f ^ (1 << n)
    t = 0
    for k in range(1, n):
        bit = (tail & (t << (n - k))).bit_count() ^ (k & (tail >> (n - k)))
        t |= (bit & 1) << k
    t |= n & 1
    for k in range(n, 2 * n - 1):
        t |= ((tail & (t >> (k - n))).bit_count() & 1) << k
    return t


# --------------------------------------------------------------------------
# integer factorization: trial division to 10^6, then Brent's rho.  The
# trial divisors are progressions, never a list of primes: 2 and the odd
# numbers (factor_integer), or the candidates of a cyclotomic piece
# (_cyclotomic_divisors); _factor_bounded says why a composite divisor
# does no harm.

_TRIAL_LIMIT = 10 ** 6

# Brent-rho caps, in iterations of y -> y^2 + c spent on one composite with
# retries under a new c included.  Complete factorization (factor_integer):
# 2^101 - 1 needs 6.8 M steps and 2^139 - 1 6.3 M, both within 2^23.
_FACTOR_STEPS = 1 << 23
# Best-effort factoring of 2^N - 1 in make_field: N = 4, 6, 8, 9, 12, 42, 190,
# 390, 462 and every multiple of 30 up to 330 factor completely, the hardest
# composite taking 55,422 steps (N = 240); 2^16 finds the same 48 primes of
# 2^2310 - 1 as 2^17 and 2^18, where 2^14 finds 44.
_ORDER_STEPS = 1 << 16

_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# deterministic below 3.3 * 10^24; beyond that the extra bases make the
# composite-acceptance probability negligible for our (non-adversarial) inputs
_MR_BASES_LARGE = _MR_BASES_SMALL + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES_SMALL:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES_SMALL if n < 3317044064679887385961981 else _MR_BASES_LARGE
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, c: int, steps: int):
    """One Brent-rho round of at most `steps` iterations of y -> y^2 + c
    mod n.  Returns (d, used): a nontrivial factor d, 0 to retry with a
    different c, or None when the next batch would pass the cap; used counts
    the iterations taken."""
    y, m = 2, 128
    g = r = q = 1
    x = ys = y
    used = 0
    while g == 1:
        if used + r > steps:
            return None, used
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1:
            batch = min(m, r - k)
            if used + batch > steps:
                return None, used
            ys = y
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += batch
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        g = 1
        y = ys
        while g == 1:
            if used >= steps:
                return None, used
            y = (y * y + c) % n
            used += 1
            g = math.gcd(x - y, n)
    return (0 if g == n else g), used


def _factor_bounded(x: int, steps: int, divisors):
    """Factor as far as `steps` rho iterations per composite allow,
    retries under a new c included, after trial division by `divisors`.

    `divisors` ascends and holds every prime factor of x up to its last
    entry; a composite entry then never divides, as its primes either do
    not divide x or were divided out before it.
    Returns (factors, leftover): a {prime: exponent} dict and the unfactored
    composite remainder (1 when factorization completed).
    """
    factors = {}
    for p in divisors:
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    if x == 1:
        return factors, 1
    leftover = 1
    stack = [x]
    while stack:
        n = stack.pop()
        if _is_probable_prime(n):
            factors[n] = factors.get(n, 0) + 1
            continue
        d = 0
        c = 1
        used = 0
        while d == 0:
            d, spent = _brent_rho(n, c, steps - used)
            used += spent
            c += 1
        if d is None:
            leftover *= n
            continue
        stack.append(d)
        stack.append(n // d)
    return factors, leftover


def factor_integer(x: int):
    """Full factorization of x >= 2 as a sorted list of (prime, exponent).

    Trial division by 2 and the odd numbers up to min(isqrt(x), 10^6), then
    Pollard rho (Brent) with a cap of _FACTOR_STEPS iterations per
    composite; raises FACTORIZATION_TIMEOUT if a composite is left when the
    cap runs out.
    """
    if x < 2:
        raise ValueError("factor_integer requires x >= 2")
    limit = min(math.isqrt(x), _TRIAL_LIMIT)
    factors, leftover = _factor_bounded(
        x, _FACTOR_STEPS, chain((2,), range(3, limit + 1, 2)))
    if leftover != 1:
        raise PERepairError(
            "FACTORIZATION_TIMEOUT",
            f"unfactored composite of {leftover.bit_length()} bits remains "
            f"after {_FACTOR_STEPS} rho steps",
        )
    return sorted(factors.items())


def _divisors(n: int):
    """All divisors of a field degree n >= 2, ascending.  Degrees stay far
    below 10^12, so trial division completes factor_integer without rho."""
    divs = [1]
    for p, e in factor_integer(n):
        divs = [dv * p ** i for dv in divs for i in range(e + 1)]
    return sorted(divs)


def _cyclotomic_values(n: int):
    """{d: Phi_d(2)} for every divisor d of n; the product over all d
    equals 2^n - 1."""
    divs = _divisors(n)
    vals = {}
    for d in divs:
        v = (1 << d) - 1
        for e in divs:
            if e < d and d % e == 0:
                v //= vals[e]
        vals[d] = v
    return vals


def _cyclotomic_divisors(d: int, v: int):
    """Ascending trial divisors of v = Phi_d(2), d >= 2, up to
    min(isqrt(v), 10^6): the primes of d, then 1 + j lcm(2, d) for j >= 1.
    A prime p of v that does not divide d has 2 of order d mod p, so
    d | p - 1, and p is odd (the rule of the Cunningham tables: Brillhart
    et al., Factorizations of b^n +- 1, AMS 1988)."""
    limit = min(math.isqrt(v), _TRIAL_LIMIT)
    step = math.lcm(2, d)
    own = [p for p, _ in factor_integer(d) if p <= limit]
    return chain(own, range(1 + step, limit + 1, step))


def _factor_mersenne_like(n_bits: int):
    """Best-effort factorization of 2^n - 1 via its cyclotomic pieces, with
    a cap of _ORDER_STEPS rho steps per composite.

    Each piece Phi_d(2) is trial-divided only by the primes of d and by
    1 + j lcm(2, d) (_cyclotomic_divisors): about 10^6 / lcm(2, d)
    numbers in place of the 500,000 odd ones below 10^6, and the factors
    found are the ones the primes below 10^6 find.  Returns
    (factors dict, cofactor, complete).  Unfactored pieces multiply into
    the composite cofactor instead of failing the whole call.
    """
    factors = {}
    cofactor = 1
    for d, v in _cyclotomic_values(n_bits).items():
        if d == 1:
            continue  # Phi_1(2) = 1
        found, leftover = _factor_bounded(v, _ORDER_STEPS,
                                          _cyclotomic_divisors(d, v))
        for p, e in found.items():
            factors[p] = factors.get(p, 0) + e
        cofactor *= leftover
    return factors, cofactor, cofactor == 1


_mersenne_memo = {}


def _mersenne_factors(n_bits: int):
    """_factor_mersenne_like(n_bits), factored once per process: the
    generator search and every context's order facts share it."""
    return memo(_mersenne_memo, n_bits,
                lambda: _factor_mersenne_like(n_bits))


# --------------------------------------------------------------------------
# field context and elements


class FieldElem:
    """Element of a FieldCtx; supports +, -, *, **, and .inverse()."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: "FieldCtx", v: int):
        self.ctx = ctx
        self.v = v

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx and other.ctx.modulus != self.ctx.modulus:
                raise ValueError("elements belong to different fields")
            return other.v
        if isinstance(other, int):
            if not 0 <= other < (1 << self.ctx.degree_bits):
                raise ValueError("int out of range for this field")
            return other
        return NotImplemented

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.v ^ w)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.v, w))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return FieldElem(self.ctx, self.ctx._pow(self.v, k))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx._inv(self.v))

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.v, self.ctx._inv(w)))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.v == other.v and self.ctx.modulus == other.ctx.modulus
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        # equal to ints of the same value, so it hashes like one
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def hex(self) -> str:
        return self.ctx.to_hex(self)

    def __repr__(self):
        return f"FieldElem({self.hex()})"


# ASCII hex digits in either case: all that FieldCtx.from_hex reads
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class FieldCtx:
    """GF(2^N) with a fixed modulus and a primitive generator, searched or
    trusted.

    Immutable after construction; internal caches are memos only: the
    keyed ones (subfield handles, canonical generators, encode's digit
    tables) go through _util.memo, and the trace table and the three order
    facts (the possibly partial factorization of 2^N - 1, its cofactor and
    whether the generator is verified) are cached properties, computed on
    first read by every context.  Build instances through
    :func:`make_field`.
    """

    def __init__(self, degree_bits, modulus, generator_value):
        self.degree_bits = degree_bits
        self.modulus = modulus
        self.order = (1 << degree_bits) - 1
        self._mask = (1 << degree_bits) - 1
        # tail exponents a of the modulus, descending; round t of _fold
        # shifts by (N - a) 2^t, keeping the strides below N - 1
        self._shifts = tuple(degree_bits - i for i, bit in
                             enumerate(bin(modulus)[3:], 1) if bit == "1")
        strides = [degree_bits - a for a in self._shifts if a > 1]
        rounds = []
        while strides:
            rounds.append(tuple(strides))
            strides = [d << 1 for d in strides if d << 1 < degree_bits - 1]
        self._rounds = tuple(rounds)
        self._hexw = (degree_bits + 3) // 4
        self._subfields = {}
        self._gammas = {}  # canonical subfield generators, raw, by degree
        self._encoders = {}  # rs_codes.encode's digit tables, by (k, points)
        self.generator = FieldElem(self, generator_value)

    # -- raw int arithmetic ------------------------------------------------

    def _fold(self, c: int) -> int:
        """c mod f for deg c <= 2N - 2, the degree of any product or square.

        With f = x^N + sum_a x^a and c = H x^N + L, the quotient q obeys
        q = H + sum_(a>0) (q >> (N - a)), so q = prod_t (1 + S^(2^t)) H with
        S = sum_a s^(N - a), s the right shift by one: over GF(2) the shifts
        commute and (sum S_i)^2 = sum S_i^2.  A quotient has degree at most
        N - 2, so ceil(log2((N - 1) / min(N - a))) rounds are exact, each one
        shift-XOR per tail term; a tail with every a <= N/2 takes one round.
        """
        q = c >> self.degree_bits
        if not q:
            return c
        for strides in self._rounds:
            t = q
            for d in strides:
                t ^= q >> d
            q = t
        for sh in self._shifts:
            c ^= q << sh
        return c & self._mask

    def _mul(self, a: int, b: int) -> int:
        return self._fold(clmul(a, b))

    def _sq(self, a: int) -> int:
        return self._fold(clsq(a))

    def _inv(self, a: int) -> int:
        return poly_inv_mod(a, self.modulus)

    def _pow(self, a: int, k: int) -> int:
        """a^k by left-to-right square-and-multiply over the digits of k:
        binary digits up to 16 bits, hex digits (a 4-bit window) above,
        against a table of a^1..a^15 that takes 14 products.  The leading
        digit is read from the table, and each later one costs its bits'
        squarings and, unless it is 0, one product."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if k == 0:
            return 1
        if a == 0:
            return 0
        table = [1, a]
        if k.bit_length() <= 16:
            width, spec = 1, "b"
        else:
            width, spec = 4, "x"
            for _ in range(14):
                table.append(self._mul(table[-1], a))
        digits = format(k, spec).encode().translate(_HEX_NIBBLE)
        r = table[digits[0]]
        for j in digits[1:]:
            r = self._frob(r, width)
            if j:
                r = self._mul(r, table[j])
        return r

    # -- element plumbing ----------------------------------------------------

    def elem(self, v: int) -> FieldElem:
        if not 0 <= v <= self._mask:
            raise ValueError("value out of range for this field")
        return FieldElem(self, v)

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, 0)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, 1)

    def to_hex(self, e: FieldElem) -> str:
        return format(e.v, f"0{self._hexw}x")

    def from_hex(self, s: str) -> FieldElem:
        """The element spelled by ASCII hex digits, as to_hex writes it:
        exactly the field's fixed width, so a symbol cut short is refused.
        int(s, 16) alone also reads a 0x prefix, a sign, underscores,
        surrounding blanks and non-ASCII digits."""
        if len(s) != self._hexw or not _HEX_DIGITS.issuperset(s):
            raise ValueError(f"not a hex symbol: {s!r}")
        v = int(s, 16)
        if not 0 <= v <= self._mask:
            raise ValueError("hex value out of range for this field")
        return FieldElem(self, v)

    @property
    def modulus_hex(self) -> str:
        return format(self.modulus, "x")

    @property
    def generator_hex(self) -> str:
        return format(self.generator.v, "x")

    # -- the group order 2^N - 1, factored on first read ---------------------

    @cached_property
    def _order_facts(self):
        """(factorization, cofactor, verified): the primes of 2^N - 1 found
        within the rho cap, the unfactored composite left (1 if none), and
        whether the generator then passes the order test at every prime of
        a complete factorization."""
        if self.degree_bits == 1:
            return (), 1, True  # GF(2)* is {1}
        factors, cofactor, complete = _mersenne_factors(self.degree_bits)
        verified = complete and _order_test(self, self.generator.v,
                                            self.order, list(factors))
        return tuple(sorted(factors.items())), cofactor, verified

    @property
    def order_factorization(self):
        return self._order_facts[0]

    @property
    def order_cofactor(self) -> int:
        return self._order_facts[1]

    @property
    def generator_verified(self) -> bool:
        return self._order_facts[2]

    # -- subfields and Frobenius --------------------------------------------

    def subfield(self, m: int) -> "SubfieldHandle":
        if m < 1 or self.degree_bits % m != 0:
            raise PERepairError(
                "NOT_A_SUBFIELD_DEGREE",
                f"{m} does not divide {self.degree_bits}",
            )
        return memo(self._subfields, m, lambda: SubfieldHandle(self, m))

    def _frob(self, v: int, m: int) -> int:
        """e^(2^m) by m squarings."""
        for _ in range(m):
            v = self._sq(v)
        return v

    def _trace_functional(self, a: int) -> int:
        """Mask w with parity(y & w) = Tr_{E/GF(2)}(a * y) for every y.

        Bit i of w is Tr(a x^i) = sum_j a_j t_(i+j), a Hankel product of a
        with the trace sequence t_j = Tr(x^j), read off one carry-less
        product by the bit-reversed a.  The trace sequence is the operand
        every call shares, so its byte table is built once per context."""
        n = self.degree_bits
        rev = int(format(a, f"0{n}b")[::-1], 2)
        return (_clmul_by_table(rev, self._trace_table) >> (n - 1)) & self._mask

    @cached_property
    def _trace_table(self):
        """_byte_table of the trace sequence, for _trace_functional."""
        return _byte_table(_power_sums(self.modulus))

    def _gamma(self, m: int) -> int:
        """The canonical generator g^((2^N - 1)/(2^m - 1)) of GF(2^m), m | N,
        as a raw value, by norms through one shared intermediate field.

        gamma_N is g.  Otherwise gamma_m = N_{L/K}(gamma_L) with
        L = GF(2^l), l = N/p for the smallest prime p of N/m, and L = E
        when that is m: norms are transitive (Lidl & Niederreiter, Finite
        Fields, Thm 2.29) and N_{L/K}(v) = v^((2^l - 1)/(2^m - 1)), so the
        value is the power's.  Every subfield of GF(2^(N/2)) thus shares
        the one step down from E.  An intermediate gamma_L is a value only:
        it gets no handle and no degree check."""
        n = self.degree_bits
        if m == n:
            return self.generator.v

        def build():
            p = factor_integer(n // m)[0][0]
            big = n if n // p == m else n // p
            return self._norm(self._gamma(big), big, m)
        return memo(self._gammas, m, build)

    def _norm(self, v: int, big: int, small: int) -> int:
        """N_{L/K}(v) = v^((2^big - 1)/(2^small - 1)), the product of the
        big/small conjugates v^(2^(small i)), for L = GF(2^big) and
        K = GF(2^small).  Itoh-Tsujii chain (Information and Computation 78,
        1988): with a_j the product of the first j conjugates,
        a_2j = a_j^(2^(small j)) a_j and a_(j+1) = a_j^(2^small) v, so it
        costs big - small squarings and at most 2 log2(big/small)
        products."""
        a, j = v, 1
        for bit in bin(big // small)[3:]:
            a = self._mul(self._frob(a, small * j), a)
            j *= 2
            if bit == "1":
                a = self._mul(self._frob(a, small), v)
                j += 1
        return a

    def _has_degree(self, v: int, m: int) -> bool:
        """For v in GF(2^m), m | N: whether v has degree m over GF(2), that
        is, v^(2^(m/p)) != v for every prime p of m.  One chain of m/p
        squarings for the smallest p, compared at each maximal divisor
        m/p."""
        stops = {m // p for p, _ in factor_integer(m)} if m > 1 else ()
        y = v
        for i in range(1, max(stops, default=0) + 1):
            y = self._sq(y)
            if i in stops and y == v:
                return False
        return True

    def __repr__(self):
        return f"FieldCtx(GF(2^{self.degree_bits}), modulus=0x{self.modulus_hex})"


class SubfieldHandle:
    """GF(2^m) inside a FieldCtx, addressed by its canonical generator
    g^((2^N-1)/(2^m-1)), which FieldCtx._gamma takes as a norm through a
    shared intermediate field.  The handle checks that its own generator
    has degree m (INVARIANT_VIOLATION otherwise, and no handle is kept);
    the intermediate fields' generators are never checked.

    Its lazy values are cached properties, computed on first read: the
    factors of 2^m - 1 (order_factorization), the power basis
    gamma^0..gamma^(m-1) (gf2_basis), its GF(2) elimination (_pivots),
    which _coords solves against, gamma's minimal polynomial
    (_coord_modulus), and the trace duals with the 4-bit tables of
    Tr_{E/K} (_trace_duals): ceil(N/4) tables of 16 m-bit ints, about
    0.75 MB for GF(2^385) in GF(2^2310).
    """

    def __init__(self, ctx: FieldCtx, m: int):
        self.ctx = ctx
        self.degree_bits = m
        gen = ctx._gamma(m)
        self.canonical_generator = FieldElem(ctx, gen)
        check_invariant(
            ctx._has_degree(gen, m),
            "canonical subfield generator is not defining; "
            "the ambient generator cannot be primitive",
        )

    @cached_property
    def order_factorization(self):
        """Prime factorization of 2^m - 1, factored directly: the subfields
        whose primitive elements are checked hold evaluation points and are
        small, and the ambient factoring is never set off."""
        m = self.degree_bits
        return tuple(factor_integer((1 << m) - 1)) if m > 1 else ()

    @cached_property
    def gf2_basis(self):
        """Powers gamma^0..gamma^(m-1): a GF(2)-basis of the subfield,
        as raw ints.  Every product of the chain is by gamma, so gamma is
        the tabled operand; the table is dropped with the chain."""
        ctx = self.ctx
        table = _byte_table(self.canonical_generator.v)
        cur = 1
        rows = [1]
        for _ in range(self.degree_bits - 1):
            cur = ctx._fold(_clmul_by_table(cur, table))
            rows.append(cur)
        return tuple(rows)

    # -- coordinates: K = GF(2)[x]/(g), x = gamma, g gamma's minimal polynomial

    @cached_property
    def _pivots(self):
        """_gf2_pivots of gf2_basis, the elimination behind _coords: about
        135 KB for GF(2^385) in GF(2^2310)."""
        return _gf2_pivots(self.gf2_basis)

    def _coords(self, v: int) -> int:
        """The coordinates z of v in K, v = _lift(z): at most m XORs against
        the pivots.  A v outside K is INVARIANT_VIOLATION."""
        z = _gf2_coordinates(self._pivots, v)
        check_invariant(z is not None,
                        f"element is not in GF(2^{self.degree_bits})")
        return z

    @cached_property
    def _coord_modulus(self) -> int:
        """g, read off the coordinates of gamma^m."""
        gamma_m = self.ctx._mul(self.gf2_basis[-1], self.canonical_generator.v)
        return (1 << self.degree_bits) | self._coords(gamma_m)

    @cached_property
    def _trace_duals(self):
        """(c, tables): c_0..c_(m-1), the dual of gamma^0..gamma^(m-1) under
        Tr_{K/GF(2)}, lifted to E, and the 4-bit tables of _trace_coords.

        Coordinate l of z in K is Tr_{K/GF(2)}(c_l z), and by transitivity
        Tr_{K/GF(2)}(c_l Tr_{E/K}(v)) = Tr_{E/GF(2)}(c_l v) =
        parity(v & psi_l) for the mask psi_l = _trace_functional(c_l).  The
        duals have a closed form (Lidl & Niederreiter, Finite Fields,
        ch. 2): if g(x) / (x - gamma) = sum_l b_l x^l then
        c_l = b_l / g'(gamma), so c_(m-1) = 1 / g'(gamma) and
        c_(l-1) = gamma c_l + g_l c_(m-1), a shift and two conditional XORs
        each in coordinates.  The psi are transposed once into
        _nibble_tables and dropped."""
        m = self.degree_bits
        g = self._coord_modulus
        # g'(gamma): each odd-degree term x^i of g gives x^(i-1)
        last = poly_inv_mod((g >> 1) & int("01" * m, 2), g)
        coords = [last]
        for l in range(m - 1, 0, -1):
            c = coords[-1] << 1
            if c >> m:
                c ^= g
            if (g >> l) & 1:
                c ^= last
            coords.append(c)
        ctx = self.ctx
        duals = tuple(self._lift(z) for z in reversed(coords))
        return duals, _nibble_tables(
            [ctx._trace_functional(c) for c in duals], ctx.degree_bits)

    def _power_duals(self, m: int):
        """y_0..y_(r-1), the dual of delta^0..delta^(r-1) under Tr_{F/K}, as
        raw ints: F this subfield, delta its canonical generator, K =
        GF(2^m) and r = [F : K].  The closed form of _trace_duals one level
        up: delta's minimal polynomial over K is mu(x) = prod_(j < r)
        (x - delta_j), delta_j = delta^(2^(m j)), so mu(x) / (x - delta) =
        b(x) = prod_(j > 0) (x - delta_j), and y_l = b_l / mu'(delta) with
        mu'(delta) = b(delta).  About r^2 / 2 products and one inversion.
        dual_basis over K cannot give these duals when [E : F] is even:
        Tr_{E/K} = [E : F] Tr_{F/K} is then 0 on F."""
        ctx = self.ctx
        delta = self.canonical_generator.v
        b = [1]  # low to high
        norm = 1
        conj = delta
        for _ in range(self.degree_bits // m - 1):
            conj = ctx._frob(conj, m)
            norm = ctx._mul(norm, delta ^ conj)
            b = [0] + b
            for l in range(len(b) - 1):
                b[l] ^= ctx._mul(conj, b[l + 1])
        inv = ctx._inv(norm)
        return [ctx._mul(c, inv) for c in b]

    def _masks(self, v: int):
        """mu_l = _trace_functional(c_l * v) for each l: parity(y & mu_l)
        is coordinate l of Tr_{E/K}(v * y).  m products and m functionals."""
        ctx = self.ctx
        return tuple(ctx._trace_functional(ctx._mul(c, v))
                     for c in self._trace_duals[0])

    def _is_small(self) -> bool:
        """True when 4m < N/m + 1: K is small enough against E that the
        masks of _masks, m products and m functionals per vector, undercut
        products between vectors: dual_basis's switch for its Gram
        matrix."""
        m = self.degree_bits
        return 4 * m < self.ctx.degree_bits // m + 1

    def _trace_coords(self, v: int) -> int:
        """Coordinates of Tr_{E/K}(v) in the basis gamma^0..gamma^(m-1), as
        an m-bit int (bit l is parity(v & psi_l)): one table lookup per hex
        digit of v, two per byte."""
        tables = self._trace_duals[1]
        z = 0
        for t, j in zip(tables, format(v, f"0{len(tables)}x").encode()
                        .translate(_HEX_NIBBLE)):
            z ^= t[j]
        return z

    def _lift(self, z: int) -> int:
        """The element of E with coordinates z."""
        return _select(self.gf2_basis, z)

    def __repr__(self):
        return f"SubfieldHandle(GF(2^{self.degree_bits}) in GF(2^{self.ctx.degree_bits}))"


class BasisOverSubfield:
    """Ordered vectors of E over a subfield: what dual_basis takes and
    returns.  Nothing is checked on construction; dual_basis refuses
    vectors dependent over the subfield with SINGULAR_GRAM, the library's
    one independence proof.
    """

    __slots__ = ("subfield", "vectors")

    def __init__(self, subfield: SubfieldHandle, vectors):
        self.subfield = subfield
        self.vectors = tuple(vectors)

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


# --------------------------------------------------------------------------
# construction

_field_cache = {}


def _order_test(ctx, v: int, order: int, primes) -> bool:
    """True iff v^(order/p) != 1 for every p in primes, distinct prime
    divisors of order (True for no primes).  A product tree: each node
    splits its primes in halves and hands each half h^(prod of the other),
    so a leaf p holds v^(order/p) and each level costs about as many
    squarings as prod(primes) has bits."""
    if not primes:
        return True
    stack = [(ctx._pow(v, order // math.prod(primes)), primes)]
    while stack:
        h, ps = stack.pop()
        if h == 1:
            return False
        if len(ps) > 1:
            left, right = ps[:len(ps) // 2], ps[len(ps) // 2:]
            stack.append((ctx._pow(h, math.prod(left)), right))
            stack.append((ctx._pow(h, math.prod(right)), left))
    return True


def _power_by_factors(ctx, v: int, k: int, store) -> int:
    """v^k in ctx, kept in store under v (one store per k).  A v with a
    factor q over GF(2), deg q <= deg v / 2, takes the stored powers of q
    and v / q and one product, since (q r)^k = q^k r^k; only an
    irreducible v pays the power.  The generator search asks in
    ascending order, so q and v / q, both smaller, are stored already."""
    def build():
        for q in range(2, 1 << (poly_degree(v) // 2 + 1)):
            quotient, rest = 0, v  # v divided by q, shift by shift
            while (shift := rest.bit_length() - q.bit_length()) >= 0:
                quotient ^= 1 << shift
                rest ^= q << shift
            if not rest:
                return ctx._mul(_power_by_factors(ctx, q, k, store),
                                _power_by_factors(ctx, quotient, k, store))
        return ctx._pow(v, k)
    return memo(store, v, build)


def make_field(degree_bits: int, modulus: int | None = None,
               generator: int | None = None) -> FieldCtx:
    """Build GF(2^degree_bits), cached by (degree_bits, modulus, generator).

    With no modulus, picks the lexicographically smallest irreducible
    polynomial of that degree (coefficient vectors compared low-degree-first),
    so repeated runs agree byte-for-byte; that context is also cached under
    a modulus of None, so the search runs once per degree.

    With no generator, the generator is the smallest polynomial (as an
    integer) that is defining over GF(2) and passes the order test against
    every prime of 2^N - 1 that factoring finds.  The tests run cheapest
    first: v^((2^N - 1)/p) != 1 at the smallest prime p, then the degree of
    v (v^(2^(N/q)) != v for each prime q of N, by one chain of N/q
    squarings for the smallest q), then the full order test.  The first
    test is multiplicative, (q r)^k = q^k r^k: candidates are visited in
    ascending order, so a v with a factor q over GF(2) multiplies the
    stored values of q and v / q, and only an irreducible v pays the
    power (7 of the 24 candidates at N = 210).  The modulus search is
    smallest_irreducible's, whose Rabin tests sieve out small factors
    first; neither shortcut changes which candidate is returned.
    2^N - 1 is factored once per process (shared with the contexts' order
    facts) by cyclotomic pieces (_factor_mersenne_like), with trial
    divisors that need no sieve and a fixed cap of rho steps per composite,
    so the outcome depends on N alone.
    When a composite survives the cap, the generator found has passed every
    available necessary test but its primitivity rests on the published
    parameters (this is the documented caveat for degree 2310); its context
    reports the unfactored composite in ``order_cofactor`` and
    ``generator_verified = False``.

    A given generator (a plan file's ``generator_hex``) is only checked to
    have degree N over GF(2), by the same degree test: no factoring and no
    order test.  Every context, searched or given, computes the three order
    facts on first read, so a given generator equal to the search's reads
    the same facts.
    There is one context per (N, modulus, generator): a search that returns
    a generator already given reuses its context.
    """
    if degree_bits < 1:
        raise ValueError("degree_bits must be >= 1")
    requested = (degree_bits, modulus, generator)
    cached = _field_cache.get(requested)
    if cached is not None:
        return cached
    if modulus is None:
        modulus = smallest_irreducible(degree_bits)
    else:
        if poly_degree(modulus) != degree_bits:
            raise PERepairError(
                "REDUCIBLE_MODULUS",
                f"modulus degree {poly_degree(modulus)} != {degree_bits}",
            )
        if not is_irreducible(modulus):
            raise PERepairError("REDUCIBLE_MODULUS", "modulus is reducible")
    if degree_bits == 1 and generator is None:
        generator = 1  # GF(2)* is {1}: nothing to search

    resolved = (degree_bits, modulus, generator)
    ctx = _field_cache.get(resolved)
    if ctx is None:
        probe = FieldCtx(degree_bits, modulus, 1)  # arithmetic only
        if generator is None:
            # of full order as far as factored, and defining over GF(2);
            # v^((2^N - 1)/p) != 1 at the smallest prime p rejects most
            # candidates first, by one product unless v is irreducible
            primes = list(_mersenne_factors(degree_bits)[0])
            first = probe.order // min(primes) if primes else 0
            firsts = {}
            generator = next(
                v for v in count(2)
                if (not primes
                    or _power_by_factors(probe, v, first, firsts) != 1)
                and probe._has_degree(v, degree_bits)
                and _order_test(probe, v, probe.order, primes))
        elif not (0 < generator <= probe._mask
                  and probe._has_degree(generator, degree_bits)):
            raise PERepairError(
                "CONSTRAINT_VIOLATION",
                f"generator {generator:#x} is not of degree {degree_bits} "
                "over GF(2)",
            )
        ctx = (_field_cache.get((degree_bits, modulus, generator))
               or FieldCtx(degree_bits, modulus, generator))
    # the request, its modulus resolved and its generator resolved: any
    # later spelling of the field is then served with no factoring or search
    _field_cache[requested] = ctx
    _field_cache[resolved] = ctx
    _field_cache[(degree_bits, modulus, ctx.generator.v)] = ctx
    return ctx


# --------------------------------------------------------------------------
# module-level operations over elements and handles


def trace_to(e: FieldElem, sub: SubfieldHandle) -> FieldElem:
    """Trace of e onto the subfield: e + e^q + ... + e^(q^(N/m - 1)), q = 2^m."""
    ctx = e.ctx
    m = sub.degree_bits
    if ctx.degree_bits == m:
        return e
    return FieldElem(ctx, sub._lift(sub._trace_coords(e.v)))


def is_primitive_in_subfield(e: FieldElem, sub: SubfieldHandle) -> bool:
    """True iff e generates the subfield's multiplicative group."""
    if not e:
        raise ValueError("zero is not in the multiplicative group")
    # membership gives e^(2^m) = e, so e^(2^m - 1) = 1 already holds and
    # only the maximal proper divisors of the order remain to be tested
    if e.ctx._frob(e.v, sub.degree_bits) != e.v:
        return False
    return _order_test(e.ctx, e.v, (1 << sub.degree_bits) - 1,
                       [p for p, _ in sub.order_factorization])


def dual_basis(b: BasisOverSubfield) -> BasisOverSubfield:
    """Trace-dual basis: returns d with trace_to(b_i * d_j) = delta_ij.

    The Gram matrix T_ij = Tr_{E/K}(b_i b_j) has its entries in the subfield
    K = GF(2^m), and d = T^-1 b comes from one Gauss-Jordan elimination with
    first-nonzero pivoting.  For n vectors (n m = N) it costs O(N) products
    in E when K is small against n, and never more than O(n^2):

    * Gram.  Coordinate l of Tr_{E/K}(b_i y) is parity(y & W_il) for the
      masks W_i = SubfieldHandle._masks(b_i), so every entry is m parities
      once each vector has paid m products and m functionals.  Those N + N
      undercut the n(n + 1)/2 products b_i b_j only when 4m < n + 1
      (SubfieldHandle._is_small); otherwise each product gives its entry
      through _trace_coords.
    * T side.  A row is one int of m-bit slots, one per column not yet
      pivoted.  gamma times a row is a shift plus each slot's carry times
      g - x^m, which stays in its slot, so a row operation by f in K XORs
      the pivot row's multiples gamma^l row selected by the bits of f:
      O(n^2) int XORs and no K product.
    * b side.  When m < n the pivot's m products gamma^l d_col serve every
      row operation the same way; otherwise each costs one product.
    """
    sub = b.subfield
    ctx = sub.ctx
    m = sub.degree_bits
    n = len(b.vectors)
    if n * m != ctx.degree_bits:
        raise PERepairError(
            "SINGULAR_GRAM",
            f"{n} vectors cannot form a basis over GF(2^{m})",
        )
    by_masks = sub._is_small()
    small = m < n
    d = [e.v for e in b.vectors]
    rows = [0] * n
    for i in range(n):
        masks = sub._masks(d[i]) if by_masks else None
        for j in range(i, n):
            t = (_parities(d[j], masks) if by_masks
                 else sub._trace_coords(ctx._mul(d[i], d[j])))
            rows[i] |= t << (j * m)
            rows[j] |= t << (i * m)

    g = sub._coord_modulus
    kmask = (1 << m) - 1
    ones = ctx._mask // kmask  # bit 0 of every slot
    top = ones << (m - 1)
    tails = ones * (g ^ (1 << m))  # g - x^m in every slot
    basis = sub.gf2_basis
    lift = sub._lift

    def multiples(row):
        out = [row]
        for _ in range(m - 1):
            carry = (row & top) >> (m - 1)
            # (carry << m) - carry fills exactly the slots that carry
            row = ((row & ~top) << 1) ^ (tails & ((carry << m) - carry))
            out.append(row)
        return out

    # slot 0 of every row is the current column: each pivot drops a slot
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r] & kmask), None)
        if piv is None:
            raise PERepairError("SINGULAR_GRAM", "matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        d[col], d[piv] = d[piv], d[col]
        p = rows[col] & kmask
        rest = rows[col] >> m
        if p != 1:
            inv = poly_inv_mod(p, g)
            if rest:
                rest = _select(multiples(rest), inv)
            d[col] = ctx._mul(lift(inv), d[col])
        rows[col] = rest
        v = d[col]
        table = None  # built for the first row that needs it
        for r in range(n):
            if r == col:
                continue
            f = rows[r] & kmask
            rows[r] >>= m
            if not f:
                continue
            if table is None:
                table = multiples(rest) if rest else [0]
                if small:
                    vs = [v] + [ctx._mul(s, v) for s in basis[1:]]
            rows[r] ^= _select(table, f)
            d[r] ^= _select(vs, f) if small else ctx._mul(lift(f), v)
    return BasisOverSubfield(sub, [FieldElem(ctx, v) for v in d])
