"""Reed-Solomon codes over an explicit evaluation set.

A codeword is the evaluation of a degree-bounded message polynomial at n
distinct points of the symbol field.  The dual code of RS(n, k, A) is the
generalized RS code with column multipliers v_i = prod_{j != i}
(alpha_i - alpha_j)^{-1} (``dual_multipliers``): for every polynomial g
of degree <= n - k - 1, sum_i v_i g(alpha_i) c_i = 0.  Both repair
strategies rebuild a symbol through such a constraint.  ``naive_decode``
(Lagrange interpolation through any k coordinates) is on no repair path:
it is the oracle the tests check the repairs against.

Polynomials are coefficient lists of FieldElem in ascending degree order;
degrees stay tiny (<= n), so ``poly_eval`` is plain Horner.  ``encode``
works on raw ints instead, in one of two orders picked from the shape
alone.

* By table, when the tables' 4 k n N^2 bits stay below _TABLE_BITS = 2^22
  (the (17, 9) code over GF(2^60) takes 2.2 Mbit, the (9, 2) code over
  GF(2^210) 3.2 Mbit).  Encoding is GF(2)-linear in the k N message bits,
  so the codeword, all n symbols packed in one int, is the XOR of one
  16-entry table row per hex digit of the message ("Four Russians":
  Arlazarov, Dinic, Kronrod & Faradzev, 1970).  The tables of a digit
  hold the packed x^b alpha_i^j of its four bits b, for coefficient j;
  building them costs n(k - 1) products for the point powers, and each
  step b -> b + 1 is one multiplication by x of all n slots at once.  The
  field context keeps them under (k, points), so every plan of a process
  with the same field and points shares one set.
* By Horner otherwise.  When the evaluation set knows a point's minimal
  polynomial mu over GF(2), as a plan's does, and deg mu < k, it first
  reduces the message modulo mu, by XORs alone since mu has 0/1
  coefficients, and then runs Horner on the remainder: m(alpha) =
  (m mod mu)(alpha) (Lidl & Niederreiter, Finite Fields, ch. 3).  A point
  then costs min(deg mu, k) - 1 products instead of k - 1.  Those products
  share the point as one operand, so in a field as wide as the one where
  ``clmul`` switches to a byte table (field_tower._WIDE_BYTES, over 1,016
  bits) each point's Horner chain runs on one 256-entry table of the
  point, built for that point alone and kept nowhere.
"""

from __future__ import annotations

from .errors import PERepairError
from ._util import digest_of, memo
from .field_tower import (
    _HEX_NIBBLE, _WIDE_BYTES, FieldCtx, FieldElem, _byte_table,
    _clmul_by_table, _digit_table,
)

__all__ = [
    "EvaluationSet",
    "MessagePoly",
    "Codeword",
    "encode",
    "dual_multipliers",
    "annihilator",
    "poly_eval",
    "naive_decode",
]

# encode by table while 4 k n N^2, the bits of the tables, stays below this
_TABLE_BITS = 1 << 22


class EvaluationSet:
    """Ordered, pairwise distinct evaluation points in one field.

    minpolys, when given, holds each point's minimal polynomial over GF(2)
    as a bit-mask int (bit j the coefficient of x^j).  It is trusted, not
    checked: the plan builders read it off the point's coordinates in its
    subfield.  It never enters the digest.
    """

    __slots__ = ("ctx", "points", "minpolys")

    def __init__(self, ctx: FieldCtx, points, minpolys=None):
        self.ctx = ctx
        self.points = tuple(points)
        if not self.points:
            raise ValueError("evaluation set must contain at least one point")
        if minpolys is not None:
            minpolys = tuple(minpolys)
            if len(minpolys) != len(self.points) or min(minpolys) < 2:
                raise ValueError("one minimal polynomial of degree >= 1 per point")
        self.minpolys = minpolys
        seen = set()
        for p in self.points:
            if p.v in seen:
                raise PERepairError(
                    "DUPLICATE_INDEX", f"repeated evaluation point {p.hex()}"
                )
            seen.add(p.v)

    @property
    def n(self) -> int:
        return len(self.points)

    def digest(self) -> str:
        return digest_of(
            {
                "degree_bits": self.ctx.degree_bits,
                "modulus": self.ctx.modulus_hex,
                "points": [p.hex() for p in self.points],
            }
        )


class MessagePoly:
    """Message polynomial; the coefficient count is the code dimension k."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = tuple(coefficients)
        if not self.coefficients:
            raise ValueError("message polynomial needs at least one coefficient")

    @property
    def k(self) -> int:
        return len(self.coefficients)

    def evaluate(self, x: FieldElem) -> FieldElem:
        return poly_eval(self.coefficients, x)


class Codeword:
    __slots__ = ("symbols", "plan_digest")

    def __init__(self, symbols, plan_digest: str):
        self.symbols = tuple(symbols)
        self.plan_digest = plan_digest


def poly_eval(coefficients, x: FieldElem) -> FieldElem:
    """Horner evaluation of an ascending coefficient list."""
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = acc * x + c
    return acc


def _reduce_gf2(coeffs, mu: int) -> list:
    """Ascending coefficients of the polynomial ``coeffs`` modulo mu, a
    monic polynomial over GF(2) given as a bit mask: x^d = sum of the
    x^j of mu's lower terms, so each top coefficient is XORed down."""
    d = mu.bit_length() - 1
    if len(coeffs) <= d:
        return coeffs
    taps = [j for j in range(d) if mu >> j & 1]
    rem = list(coeffs)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j in taps:
                rem[i - d + j] ^= c
    return rem[:d]


def _encode_tables(A: EvaluationSet, k: int):
    """The digit tables that encode k coefficients at the points of A, or
    None when their 4 k n N^2 bits would reach _TABLE_BITS.  Table
    j * ceil(N / 4) + d serves hex digit d, most significant first, of
    coefficient j; entry v is the packed codeword of the message v x^b,
    x^b the digit's place, in coefficient j, node i's symbol at bit i N."""
    ctx = A.ctx
    N, n = ctx.degree_bits, A.n
    if 4 * k * n * N * N >= _TABLE_BITS:
        return None
    points = tuple(p.v for p in A.points)

    def build():
        tops = sum(1 << (i * N + N - 1) for i in range(n))  # each slot's x^(N-1)
        tail = ctx.modulus ^ (1 << N)  # x^N in the field
        powers = [1] * n
        tables = []
        for j in range(k):
            if j:
                powers = [ctx._mul(a, x) for a, x in zip(powers, points)]
            col = sum(a << (i * N) for i, a in enumerate(powers))
            cols = []  # col = the packed x^b alpha_i^j, for b = len(cols)
            for _ in range(ctx._hexw * 4):
                cols.append(col)
                top = col & tops
                # times x in every slot: a slot's x^N becomes its tail
                col = (col ^ top) << 1 ^ (top >> (N - 1)) * tail
            tables += [_digit_table(*cols[b:b + 4])
                       for b in range(len(cols) - 4, -1, -4)]
        return tuple(tables)

    return memo(ctx._encoders, (k, points), build)


def encode(msg: MessagePoly, A: EvaluationSet, plan_digest: str | None = None) -> Codeword:
    """Evaluate the message polynomial at every point of A.

    While the tables of A and k stay below _TABLE_BITS (see the module
    docstring), the codeword is one table lookup per hex digit of the
    message, and the tables' one build, kept by the field context under
    (k, points), costs n(k - 1) products.  Otherwise each point costs
    min(deg mu, k) - 1 products when A holds its minimal polynomial mu,
    and k - 1 when it does not; in a field of _WIDE_BYTES bytes or more
    they all go through the point's byte table, built once per point and
    dropped after it.  The codeword is stamped with the evaluation set's
    digest unless the caller provides the digest of a richer plan
    artifact.
    """
    if msg.k > A.n:
        raise PERepairError(
            "DIMENSION_EXCEEDS_LENGTH", f"k={msg.k} exceeds n={A.n}"
        )
    ctx = A.ctx
    # the sum checks each coefficient's field as FieldElem arithmetic does
    coeffs = [(ctx.zero + c).v for c in msg.coefficients]
    tables = _encode_tables(A, msg.k)
    if tables is None:
        values = _horner_values(coeffs, A)
    else:
        digits = "".join([format(c, f"0{ctx._hexw}x") for c in coeffs])
        acc = 0
        for t, v in zip(tables, digits.encode().translate(_HEX_NIBBLE)):
            acc ^= t[v]
        N, mask = ctx.degree_bits, ctx._mask
        values = [(acc >> (i * N)) & mask for i in range(A.n)]
    return Codeword([FieldElem(ctx, v) for v in values],
                    plan_digest or A.digest())


def _horner_values(coeffs, A: EvaluationSet) -> list:
    """The message's value at each point of A, by Horner on its remainder
    modulo the point's minimal polynomial when A holds one."""
    ctx = A.ctx
    mul, fold = ctx._mul, ctx._fold
    wide = (ctx.degree_bits + 7) >> 3 >= _WIDE_BYTES
    values = []
    for i, p in enumerate(A.points):
        rem = coeffs if A.minpolys is None else _reduce_gf2(coeffs, A.minpolys[i])
        x = p.v
        acc = rem[-1]
        if wide and len(rem) > 1:
            t = _byte_table(x)
            for c in reversed(rem[:-1]):
                acc = fold(_clmul_by_table(acc, t)) ^ c
        else:
            for c in reversed(rem[:-1]):
                acc = mul(acc, x) ^ c
        values.append(acc)
    return values


def dual_multipliers(A: EvaluationSet) -> tuple:
    """The tuple of v_i = prod over j != i of (alpha_i - alpha_j)^{-1}."""
    out = []
    for i, ai in enumerate(A.points):
        prod = A.ctx.one
        for j, aj in enumerate(A.points):
            if j != i:
                prod = prod * (ai - aj)
        out.append(prod.inverse())
    return tuple(out)


def annihilator(points, ctx: FieldCtx | None = None) -> list:
    """Monic polynomial prod (x - p) over the given points, ascending
    coefficients; the empty product is the constant 1 (ctx tells an empty
    product which field it lives in)."""
    if not points:
        if ctx is None:
            raise ValueError("empty annihilator needs an explicit field")
        return [ctx.one]
    ctx = points[0].ctx
    coeffs = [ctx.one]
    for p in points:
        # multiply by (x + p): shift up and add p * current
        coeffs = [ctx.zero] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] + p * coeffs[i + 1]
    return coeffs


def naive_decode(symbols_at, A: EvaluationSet) -> MessagePoly:
    """Lagrange interpolation through k (index, symbol) pairs.

    Returns the unique polynomial of degree < k agreeing with the given
    coordinates of the evaluation set.
    """
    indices = [i for i, _ in symbols_at]
    if len(set(indices)) != len(indices):
        raise PERepairError("DUPLICATE_INDEX", "repeated coordinate index")
    for i in indices:
        if not 0 <= i < A.n:
            raise ValueError(f"coordinate index {i} out of range")
    ctx = A.ctx
    pts = [A.points[i] for i in indices]
    ys = [y for _, y in symbols_at]
    k = len(pts)
    # master polynomial P = prod (x - p); each Lagrange numerator is P/(x - p)
    master = annihilator(pts)
    coeffs = [ctx.zero] * k
    for p, y in zip(pts, ys):
        # synthetic division of master by (x + p), ascending coefficients
        quot = [ctx.zero] * k
        quot[k - 1] = master[k]
        for d in range(k - 2, -1, -1):
            quot[d] = master[d + 1] + p * quot[d + 1]
        scale = y * poly_eval(quot, p).inverse()
        for d in range(k):
            coeffs[d] = coeffs[d] + scale * quot[d]
    return MessagePoly(coeffs)
