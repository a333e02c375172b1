"""Arithmetic in binary extension fields GF(2^N) with subfield lattices.

Elements are polynomials over GF(2) packed into Python ints: bit ``i`` holds
the coefficient of ``x^i``.  One :class:`FieldCtx` owns a single polynomial
basis representation of GF(2^N); every subfield GF(2^m), m | N, lives inside
it and is addressed through a :class:`SubfieldHandle` (membership is the
Frobenius fixed-point test ``e^(2^m) == e``).  On top of that the module
provides trace maps onto arbitrary subfields, trace-dual bases, primitive and
defining element tests, and integer factorization (trial division followed
by Brent's variant of Pollard rho) for the multiplicative-order checks.  The
factoring work is capped by a fixed count of rho steps, never by a clock, so
every result depends on the inputs alone.

Performance notes: multiplication is carry-less with a 4-bit window table
of the longer operand, reduced by folding for sparse-tail moduli and by
Barrett reduction (one clmul by x^(2N) div f, computed once) for dense-tail
ones; squaring translates bytes through two nibble tables.  FieldCtx._fold
is the only reducer: the Rabin irreducibility test squares through an
arithmetic-only FieldCtx, and poly_mod is plain long division (poly_divmod)
for the few reductions off the hot path.  Primitivity is
one product-tree order test over the known primes of the group order
(_order_test).  Subfield work is done in the
subfield: a handle for K = GF(2^m) keeps m N-bit masks, one per coordinate
of Tr_{E/K} in the basis 1, gamma, ..., gamma^(m-1), so a trace costs m
parities, and dual_basis solves its Gram system with m-bit K arithmetic.
The masks come from the trace sequence Tr_{E/GF(2)}(x^j) (Newton's
identities on the modulus) and one m x m GF(2) solve.  Everything is exact;
exponents are arbitrary-precision throughout.
"""

from __future__ import annotations

import math
from itertools import compress, count

from .errors import PERepairError, check_invariant

__all__ = [
    "FieldCtx",
    "FieldElem",
    "SubfieldHandle",
    "BasisOverSubfield",
    "make_field",
    "trace_to",
    "is_in_subfield",
    "is_primitive_in_subfield",
    "degree_over",
    "dual_basis",
    "factor_integer",
    "clmul",
    "clsq",
    "poly_degree",
    "poly_mod",
    "poly_divmod",
    "poly_gcd",
    "poly_inv_mod",
    "poly_from_exponents",
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


def clmul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials; the byte loop runs
    over the shorter one (poly_inv_mod's quotients are a few bits)."""
    if a == 0 or b == 0:
        return 0
    if a.bit_length() > b.bit_length():
        a, b = b, a
    # window table: t[j] = j(x) * b(x) for all 4-bit j
    t = [0] * 16
    t[1] = b
    t[2] = b << 1
    t[4] = b << 2
    t[8] = b << 3
    for j in (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15):
        t[j] = t[j & (j - 1)] ^ t[j & -j]
    acc = 0
    for byte in a.to_bytes((a.bit_length() + 7) // 8, "big"):
        acc = (acc << 8) ^ (t[byte >> 4] << 4) ^ t[byte & 15]
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


def _tail_shifts(f: int) -> tuple:
    """Exponents of f below its leading term, descending."""
    tail = f ^ (1 << poly_degree(f))
    shifts = []
    while tail:
        b = tail.bit_length() - 1
        shifts.append(b)
        tail ^= 1 << b
    return tuple(shifts)


def poly_mod(a: int, f: int) -> int:
    """a mod f for binary polynomials, f nonconstant."""
    if poly_degree(f) < 1:
        raise ValueError("modulus must have degree >= 1")
    return poly_divmod(a, f)[1]


def poly_divmod(a: int, b: int) -> tuple:
    """Quotient and remainder of binary polynomials."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = poly_degree(b)
    q = 0
    da = poly_degree(a)
    while da >= db:
        sh = da - db
        q |= 1 << sh
        a ^= b << sh
        da = poly_degree(a)
    return q, a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def poly_inv_mod(a: int, f: int) -> int:
    """Inverse of a modulo f (binary polynomials, gcd(a, f) = 1)."""
    if a == 0:
        raise PERepairError("ZERO_INVERSE", "cannot invert zero")
    r0, r1 = f, poly_mod(a, f)
    s0, s1 = 0, 1
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ clmul(q, s1)
    if r0 != 1:
        raise ValueError("element not invertible for this modulus")
    return s0  # degree deg f - deg(last remainder above 1) < deg f


def poly_from_exponents(*exponents: int) -> int:
    """Binary polynomial with the given term exponents, e.g. (4, 1, 0)."""
    p = 0
    for e in exponents:
        p ^= 1 << e
    return p


def is_irreducible(f: int) -> bool:
    """Rabin's test: x^(2^n) = x mod f and gcd(x^(2^(n/p)) - x, f) = 1."""
    n = poly_degree(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if not (f & 1):
        return False  # divisible by x
    checkpoints = {n // p for p, _ in factor_integer(n)}
    ring = FieldCtx(n, f, 1, (), 1, False)  # arithmetic only, as in make_field
    y = 2  # the polynomial x
    for j in range(1, n + 1):
        y = ring._sq(y)
        if j in checkpoints and poly_gcd(y ^ 2, f) != 1:
            return False
    return y == 2


def smallest_irreducible(n: int) -> int:
    """First irreducible of degree n, coefficient vectors ordered
    lexicographically low-degree-first."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return 2  # x itself
    base = (1 << n) | 1
    width = n - 1
    for b in count(0):
        mid = 0
        for i in range(1, n):
            if (b >> (width - i)) & 1:
                mid |= 1 << i
        f = base | mid
        if is_irreducible(f):
            return f


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bit-vector rows given as ints."""
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            b = row.bit_length() - 1
            other = pivots.get(b)
            if other is None:
                pivots[b] = row
                rank += 1
                break
            row ^= other
    return rank


def _gf2_coordinates(vectors, y: int) -> int:
    """c with y = XOR of vectors[l] over the set bits l of c, for GF(2)-
    independent bit-vector ints and y in their span."""
    pivots = {}
    for l, v in enumerate(vectors):
        c = 1 << l
        while v:
            b = v.bit_length() - 1
            other = pivots.get(b)
            if other is None:
                pivots[b] = (v, c)
                break
            v ^= other[0]
            c ^= other[1]
    c = 0
    while y:
        v, cv = pivots[y.bit_length() - 1]
        y ^= v
        c ^= cv
    return c


def _gf2_solve(rows, rhs):
    """x with rows * x = rhs over GF(2), by Gauss-Jordan.

    rows[i] holds row i of an invertible square matrix (bit j = column j);
    each rhs[i] is a bit-vector int, so every bit position is solved as its
    own right-hand side at once."""
    rows = list(rows)
    rhs = list(rhs)
    n = len(rows)
    for col in range(n):
        bit = 1 << col
        piv = next(r for r in range(col, n) if rows[r] & bit)
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(n):
            if r != col and rows[r] & bit:
                rows[r] ^= rows[col]
                rhs[r] ^= rhs[col]
    return rhs


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
# integer factorization: trial division to 10^6, then Brent's rho

_TRIAL_LIMIT = 10 ** 6
_trial_primes_cache = []  # every prime <= _trial_primes_bound
_trial_primes_bound = 1


def _trial_primes(x: int):
    """Every prime up to min(isqrt(x), 10^6), enough to trial-divide x.

    The list only grows: a larger bound sieves just the new segment, with
    the primes up to its square root, so each number is sieved once."""
    global _trial_primes_bound
    limit = min(math.isqrt(x), _TRIAL_LIMIT)
    if limit > _trial_primes_bound:
        root = math.isqrt(limit)
        if root > _trial_primes_bound:
            _trial_primes(root * root)
        lo = _trial_primes_bound + 1
        seg = bytearray([1]) * (limit + 1 - lo)
        for p in _trial_primes_cache:
            if p > root:
                break
            first = max(p * p, -(-lo // p) * p) - lo
            seg[first::p] = bytes(len(range(first, len(seg), p)))
        _trial_primes_cache.extend(compress(range(lo, limit + 1), seg))
        _trial_primes_bound = limit
    return _trial_primes_cache


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


def _factor_bounded(x: int, steps: int):
    """Factor as far as `steps` rho iterations per composite allow,
    retries under a new c included.

    Returns (factors, leftover): a {prime: exponent} dict and the unfactored
    composite remainder (1 when factorization completed).
    """
    factors = {}
    for p in _trial_primes(x):
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
        if n == 1:
            continue
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

    Trial division up to 10^6, then Pollard rho (Brent) with a cap of
    _FACTOR_STEPS iterations per composite; raises FACTORIZATION_TIMEOUT if
    a composite is left when the cap runs out.
    """
    if x < 2:
        raise ValueError("factor_integer requires x >= 2")
    factors, leftover = _factor_bounded(x, _FACTOR_STEPS)
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


def _factor_mersenne_like(n_bits: int):
    """Best-effort factorization of 2^n - 1 via its cyclotomic pieces, with
    a cap of _ORDER_STEPS rho steps per composite.

    Returns (factors dict, cofactor, complete).  Unfactored pieces multiply
    into the composite cofactor instead of failing the whole call.
    """
    factors = {}
    cofactor = 1
    for v in _cyclotomic_values(n_bits).values():
        found, leftover = _factor_bounded(v, _ORDER_STEPS)
        for p, e in found.items():
            factors[p] = factors.get(p, 0) + e
        cofactor *= leftover
    return factors, cofactor, cofactor == 1


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


class FieldCtx:
    """GF(2^N) with a fixed modulus, verified-or-trusted primitive generator,
    and the (possibly partial) factorization of the group order 2^N - 1.

    Immutable after construction; internal caches (subfield handles, the
    trace sequence) are memos only.  Build instances through :func:`make_field`.
    """

    def __init__(self, degree_bits, modulus, generator_value,
                 order_factorization, order_cofactor, generator_verified):
        self.degree_bits = degree_bits
        self.modulus = modulus
        self.order = (1 << degree_bits) - 1
        self.order_factorization = tuple(order_factorization)
        self.order_cofactor = order_cofactor
        self.generator_verified = generator_verified
        self._mask = (1 << degree_bits) - 1
        self._shifts = _tail_shifts(modulus)
        self._sparse = not self._shifts or self._shifts[0] <= degree_bits // 2
        self._hexw = (degree_bits + 3) // 4
        # Barrett constant x^(2N) div f for the dense-tail fold
        self._mu = None
        if not self._sparse:
            self._mu = poly_divmod(1 << 2 * degree_bits, modulus)[0]
        self._subfields = {}
        self._trace_bits = None
        self.generator = FieldElem(self, generator_value)

    # -- raw int arithmetic ------------------------------------------------

    def _fold(self, c: int) -> int:
        n = self.degree_bits
        if self._sparse:
            hi = c >> n
            while hi:
                c &= self._mask
                for sh in self._shifts:
                    c ^= hi << sh
                hi = c >> n
            return c
        # Barrett: deg c <= 2N - 2, so q = ((c div x^N) * mu) div x^N is the
        # exact quotient, and q * f below x^N is q times the tail
        q = clmul(c >> n, self._mu) >> n
        for sh in self._shifts:
            c ^= q << sh
        return c & self._mask

    def _mul(self, a: int, b: int) -> int:
        return self._fold(clmul(a, b))

    def _sq(self, a: int) -> int:
        return self._fold(clsq(a))

    def _inv(self, a: int) -> int:
        if a == 0:
            raise PERepairError("ZERO_INVERSE", "cannot invert zero")
        if self.degree_bits == 1:
            return 1
        return poly_inv_mod(a, self.modulus)

    def _pow(self, a: int, k: int) -> int:
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if k == 0:
            return 1
        if a == 0:
            return 0
        if k.bit_length() <= 16:
            r = 1
            b = a
            while k:
                if k & 1:
                    r = self._mul(r, b)
                k >>= 1
                if k:
                    b = self._sq(b)
            return r
        # 4-bit windowed square-and-multiply for big exponents
        tbl = [1, a]
        for _ in range(14):
            tbl.append(self._mul(tbl[-1], a))
        r = 1
        started = False
        for byte in k.to_bytes((k.bit_length() + 7) // 8, "big"):
            for nib in (byte >> 4, byte & 15):
                if started:
                    r = self._sq(self._sq(self._sq(self._sq(r))))
                if nib:
                    r = self._mul(r, tbl[nib]) if started else tbl[nib]
                    started = True
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
        v = int(s, 16)
        if not 0 <= v <= self._mask:
            raise ValueError("hex value out of range for this field")
        return FieldElem(self, v)

    @property
    def modulus_hex(self) -> str:
        return format(self.modulus, "x")

    # -- subfields and Frobenius --------------------------------------------

    def subfield(self, m: int) -> "SubfieldHandle":
        if m < 1 or self.degree_bits % m != 0:
            raise PERepairError(
                "NOT_A_SUBFIELD_DEGREE",
                f"{m} does not divide {self.degree_bits}",
            )
        handle = self._subfields.get(m)
        if handle is None:
            handle = SubfieldHandle(self, m)
            self._subfields[m] = handle
        return handle

    def _frob(self, v: int, m: int) -> int:
        """e^(2^m) by m squarings."""
        for _ in range(m):
            v = self._sq(v)
        return v

    def _trace_functional(self, a: int) -> int:
        """Mask w with parity(y & w) = Tr_{E/GF(2)}(a * y) for every y.

        Bit i of w is Tr(a x^i) = sum_j a_j t_(i+j), a Hankel product of a
        with the trace sequence t_j = Tr(x^j), read off one clmul by the
        bit-reversed a."""
        if self._trace_bits is None:
            self._trace_bits = _power_sums(self.modulus)
        n = self.degree_bits
        rev = int(format(a, f"0{n}b")[::-1], 2)
        return (clmul(rev, self._trace_bits) >> (n - 1)) & self._mask

    def _degree_over(self, v: int, m: int) -> int:
        """Smallest d >= 1 with v^(2^(m*d)) == v."""
        y = v
        for d in range(1, self.degree_bits // m + 1):
            y = self._frob(y, m)
            if y == v:
                return d
        check_invariant(False, "element degree did not divide the tower")

    def __repr__(self):
        return f"FieldCtx(GF(2^{self.degree_bits}), modulus=0x{self.modulus_hex})"


class SubfieldHandle:
    """GF(2^m) inside a FieldCtx, addressed by its canonical generator
    g^((2^N-1)/(2^m-1)).
    """

    __slots__ = ("ctx", "degree_bits", "canonical_generator",
                 "_order_factors", "_gf2_basis", "_minpoly", "_trace_masks")

    def __init__(self, ctx: FieldCtx, m: int):
        self.ctx = ctx
        self.degree_bits = m
        gen = FieldElem(ctx, ctx._pow(ctx.generator.v, ctx.order // ((1 << m) - 1)))
        self.canonical_generator = gen
        check_invariant(
            m == 1 or ctx._degree_over(gen.v, 1) == m,
            "canonical subfield generator is not defining; "
            "the ambient generator cannot be primitive",
        )
        self._order_factors = None
        self._gf2_basis = None
        self._minpoly = None
        self._trace_masks = None

    def order_factorization(self):
        """Prime factorization of 2^m - 1, derived from the ambient context
        when complete, otherwise factored directly."""
        if self._order_factors is None:
            order = (1 << self.degree_bits) - 1
            if order == 1:
                self._order_factors = ()
                return self._order_factors
            rem = order
            found = []
            if self.ctx.order_cofactor == 1:
                for p, _ in self.ctx.order_factorization:
                    e = 0
                    while rem % p == 0:
                        rem //= p
                        e += 1
                    if e:
                        found.append((p, e))
            if rem != 1:
                for p, e in factor_integer(rem):
                    found.append((p, e))
            self._order_factors = tuple(sorted(found))
        return self._order_factors

    def gf2_basis(self):
        """Powers gamma^0..gamma^(m-1): a GF(2)-basis of the subfield,
        as raw ints."""
        if self._gf2_basis is None:
            ctx = self.ctx
            cur = 1
            rows = [1]
            for _ in range(self.degree_bits - 1):
                cur = ctx._mul(cur, self.canonical_generator.v)
                rows.append(cur)
            self._gf2_basis = tuple(rows)
        return self._gf2_basis

    # -- coordinates: K = GF(2)[x]/(g), x = gamma, g gamma's minimal polynomial

    def _coord_modulus(self) -> int:
        """g, read off the coordinates of gamma^m."""
        if self._minpoly is None:
            basis = self.gf2_basis()
            gamma_m = self.ctx._mul(basis[-1], self.canonical_generator.v)
            self._minpoly = ((1 << self.degree_bits)
                             | _gf2_coordinates(basis, gamma_m))
        return self._minpoly

    def _trace_coords(self, v: int) -> int:
        """Coordinates of Tr_{E/K}(v) in the basis gamma^0..gamma^(m-1), as
        an m-bit int: bit l is parity(v & psi_l).

        By transitivity Tr_{E/GF(2)}(gamma^l v) = Tr_{K/GF(2)}(gamma^l z)
        for z = Tr_{E/K}(v), which is sum_l' z_l' M_ll' with
        M_ll' = Tr_{K/GF(2)}(gamma^(l+l')), the power sums of g.  The left
        side is parity(v & phi_l), so psi = M^-1 phi."""
        masks = self._trace_masks
        if masks is None:
            m = self.degree_bits
            sums = _power_sums(self._coord_modulus())
            gram = [(sums >> l) & ((1 << m) - 1) for l in range(m)]
            phi = [self.ctx._trace_functional(b) for b in self.gf2_basis()]
            masks = self._trace_masks = tuple(_gf2_solve(gram, phi))
        z = 0
        for l, mask in enumerate(masks):
            z |= ((v & mask).bit_count() & 1) << l
        return z

    def _lift(self, z: int) -> int:
        """The element of E with coordinates z."""
        acc = 0
        for b in self.gf2_basis():
            if not z:
                break
            if z & 1:
                acc ^= b
            z >>= 1
        return acc

    def _kmul(self, a: int, b: int) -> int:
        """Product of two coordinate ints, shift-and-add modulo g (set up by
        _coord_modulus)."""
        g = self._minpoly
        top = 1 << self.degree_bits
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= g
        return r

    def __repr__(self):
        return f"SubfieldHandle(GF(2^{self.degree_bits}) in GF(2^{self.ctx.degree_bits}))"


class BasisOverSubfield:
    """Ordered, linearly independent vectors of E over a subfield.

    Validation expands each vector against the subfield's GF(2)-basis and
    checks rank over GF(2), which is exactly independence over the subfield.
    """

    __slots__ = ("subfield", "vectors")

    def __init__(self, subfield: SubfieldHandle, vectors, validate: bool = True):
        self.subfield = subfield
        self.vectors = tuple(vectors)
        if validate:
            m = subfield.degree_bits
            ctx = subfield.ctx
            rows = []
            sigma = subfield.gf2_basis()
            for vec in self.vectors:
                for s in sigma:
                    rows.append(ctx._mul(vec.v, s))
            if gf2_rank(rows) != len(self.vectors) * m:
                raise PERepairError(
                    "SINGULAR_GRAM",
                    "vectors are linearly dependent over the subfield",
                )

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


def make_field(degree_bits: int, modulus: int | None = None) -> FieldCtx:
    """Build GF(2^degree_bits), cached by (degree_bits, modulus).

    With no modulus, picks the lexicographically smallest irreducible
    polynomial of that degree (coefficient vectors compared low-degree-first),
    so repeated runs agree byte-for-byte; that context is also cached under
    (degree_bits, None), so the search runs once per degree.  The generator
    is the smallest polynomial (as an integer) that is defining over GF(2)
    and passes the order test against every known prime factor of 2^N - 1.

    2^N - 1 is factored with a fixed cap of rho steps per composite, so the
    outcome depends on N alone.  When a composite survives the cap, the
    context is still returned, with the unfactored composite recorded in
    ``order_cofactor`` and ``generator_verified = False`` — the generator then
    passed every available necessary test but its primitivity rests on the
    published parameters (this is the documented caveat for degree 2310).
    """
    if degree_bits < 1:
        raise ValueError("degree_bits must be >= 1")
    requested = (degree_bits, modulus)
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

    key = (degree_bits, modulus)
    ctx = _field_cache.get(key)
    if ctx is None and degree_bits == 1:
        ctx = FieldCtx(1, modulus, 1, (), 1, True)
    elif ctx is None:
        factors, cofactor, complete = _factor_mersenne_like(degree_bits)
        order = (1 << degree_bits) - 1
        probe = FieldCtx(degree_bits, modulus, 1, (), 1, False)  # arithmetic only
        for generator_value in count(2):
            # defining over GF(2), then of full order as far as factored
            if (probe._degree_over(generator_value, 1) == degree_bits
                    and _order_test(probe, generator_value, order,
                                    list(factors))):
                break
        ctx = FieldCtx(
            degree_bits,
            modulus,
            generator_value,
            sorted(factors.items()),
            cofactor,
            complete,
        )
    _field_cache[key] = _field_cache[requested] = ctx
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


def is_in_subfield(e: FieldElem, sub: SubfieldHandle) -> bool:
    """Frobenius fixed-point membership test."""
    return e.ctx._frob(e.v, sub.degree_bits) == e.v


def is_primitive_in_subfield(e: FieldElem, sub: SubfieldHandle) -> bool:
    """True iff e generates the subfield's multiplicative group."""
    if not e:
        raise ValueError("zero is not in the multiplicative group")
    # membership gives e^(2^m) = e, so e^(2^m - 1) = 1 already holds and
    # only the maximal proper divisors of the order remain to be tested
    if not is_in_subfield(e, sub):
        return False
    return _order_test(e.ctx, e.v, (1 << sub.degree_bits) - 1,
                       [p for p, _ in sub.order_factorization()])


def degree_over(e: FieldElem, sub: SubfieldHandle) -> int:
    """Degree of the minimal polynomial of e over the subfield."""
    return e.ctx._degree_over(e.v, sub.degree_bits)


def dual_basis(b: BasisOverSubfield) -> BasisOverSubfield:
    """Trace-dual basis: returns d with trace_to(b_i * d_j) = delta_ij.

    The Gram matrix T_ij = Tr(b_i b_j) has its entries in the subfield K, so
    it is kept as K coordinates and d is solved from T d = b: one forward
    elimination with first-nonzero pivoting and one back substitution, the
    T side in K arithmetic and the b side one E product per row operation.
    """
    sub = b.subfield
    ctx = sub.ctx
    n = len(b.vectors)
    if n * sub.degree_bits != ctx.degree_bits:
        raise PERepairError(
            "SINGULAR_GRAM",
            f"{n} vectors cannot form a basis over GF(2^{sub.degree_bits})",
        )
    d = [e.v for e in b.vectors]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sub._trace_coords(ctx._mul(d[i], d[j]))
    kmul = sub._kmul
    lift = sub._lift
    for col in range(n):
        piv = next((r for r in range(col, n) if gram[r][col]), None)
        if piv is None:
            raise PERepairError("SINGULAR_GRAM", "matrix is singular")
        gram[col], gram[piv] = gram[piv], gram[col]
        d[col], d[piv] = d[piv], d[col]
        inv = poly_inv_mod(gram[col][col], sub._minpoly)
        prow = gram[col] = [0] * (col + 1) + [
            kmul(inv, t) for t in gram[col][col + 1:]]
        d[col] = ctx._mul(lift(inv), d[col])
        for r in range(col + 1, n):
            f = gram[r][col]
            if f:
                row = gram[r]
                for j in range(col + 1, n):
                    if prow[j]:
                        row[j] ^= kmul(f, prow[j])
                d[r] ^= ctx._mul(lift(f), d[col])
    for col in range(n - 1, 0, -1):
        for r in range(col):
            f = gram[r][col]
            if f:
                d[r] ^= ctx._mul(lift(f), d[col])
    return BasisOverSubfield(sub, [FieldElem(ctx, v) for v in d],
                             validate=False)
