import functools
import importlib.util
import math
from pathlib import Path

import pytest

from perepair import constructions, field_tower
from perepair.constructions import build_plan_c1, build_plan_c2
from perepair.errors import check_invariant
from perepair.field_tower import make_field
from perepair.rs_codes import MessagePoly, encode, poly_eval


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path; the tests only read the
    benchmark's files."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's output oracle, written without perepair's arithmetic: the
# tests' reference for products, reductions and symbols
oracle = perfbench_module("oracle")


@functools.lru_cache(maxsize=None)
def _frobenius_tables(modulus, m):
    """y -> y^(2^m) in GF(2)[x]/(modulus), a GF(2)-linear map, as one
    256-entry table per byte of y: column b, the image of x^b, takes m of
    the oracle's squarings, and entry j of a byte's table is the XOR of
    the columns of j's bits."""
    n_bits = modulus.bit_length() - 1
    columns = []
    for b in range(n_bits):
        y = 1 << b
        for _ in range(m):
            y = oracle.field_mul(y, y, modulus)
        columns.append(y)
    tables = []
    for i in range(0, n_bits, 8):
        table = [0]
        for column in columns[i:i + 8]:
            table += [v ^ column for v in table]
        tables.append(table)
    return tables


def oracle_frobenius(y, m, modulus):
    """y^(2^m) in GF(2)[x]/(modulus), by m of the oracle's squarings."""
    for _ in range(m):
        y = oracle.field_mul(y, y, modulus)
    return y


def oracle_trace(x, m, modulus):
    """Tr_{E/K}(x) = the sum of x^(2^(m i)) for i < N/m, for K = GF(2^m)
    inside E = GF(2)[x]/(modulus) of degree N: each power is the last one
    raised to 2^m by the oracle's products.  Up to N = 256 that goes
    through the map's byte tables, whose N m products every later trace
    shares; above it, by N - m squarings of this trace's own."""
    n_bits = modulus.bit_length() - 1
    if n_bits > 256:
        total = x
        for _ in range(n_bits // m - 1):
            x = oracle_frobenius(x, m, modulus)
            total ^= x
        return total
    tables = _frobenius_tables(modulus, m)
    total = 0
    for _ in range(n_bits // m):
        total ^= x
        y = 0
        for table, byte in zip(tables, x.to_bytes(len(tables), "little")):
            y ^= table[byte]
        x = y
    return total


def degree_over(ctx, v, m):
    """Smallest d >= 1 with v^(2^(m d)) = v in ctx, one m-fold Frobenius
    at a time: the tests' reference for an element's degree over GF(2^m).
    When N/m steps never return to v, as in a ring whose modulus is
    reducible, it raises INVARIANT_VIOLATION."""
    y = v
    for d in range(1, ctx.degree_bits // m + 1):
        y = ctx._frob(y, m)
        if y == v:
            return d
    check_invariant(False, "element degree did not divide the tower")


def counting(monkeypatch, owner, names):
    """Wrap owner.<name> for each name with a call counter; returns the
    counts by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def fresh_process(monkeypatch):
    """Empty the field cache, the factorizations of 2^N - 1 and the plan
    memos, as in a new process; call the returned function to empty them
    again.  The test's own caches are dropped, and the others restored,
    when it ends."""
    def empty():
        monkeypatch.setattr(field_tower, "_field_cache", {})
        monkeypatch.setattr(field_tower, "_mersenne_memo", {})
        monkeypatch.setattr(constructions, "_plan_memo", {})
        monkeypatch.setattr(constructions, "_plan_texts", {})
    empty()
    return empty


@pytest.fixture(scope="session")
def gf16():
    # x^4 + x + 1; the hand tables in the field tests assume this modulus
    return make_field(4, 0b10011)


@pytest.fixture(scope="session")
def gf64():
    return make_field(6)


@pytest.fixture(scope="session")
def gf4096():
    return make_field(12)


@pytest.fixture(scope="session")
def toy_c1():
    # (6,2) code over GF(2^30): two groups of 3 nodes, primes 3 and 5, s=2
    return build_plan_c1(1, [3, 3], s=2, primes=[3, 5])


@pytest.fixture(scope="session")
def toy_c2():
    # (13,5) code over GF(4^6): groups of 7 and 6 nodes, primes 2 and 3
    return build_plan_c2(2, 8, [2, 3])


@pytest.fixture(scope="session")
def toy_c1_wide():
    # three groups over GF(2^210) with k below the canonical rate, so the
    # helper prefix is a strict subset of the other groups
    return build_plan_c1(1, [3, 3, 3], s=2, k=2, primes=[3, 5, 7])


@functools.lru_cache(maxsize=None)
def primes_to(n):
    """Every prime up to n, ascending, by the sieve of Eratosthenes: the
    tests' reference list of primes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(p for p in range(n + 1) if sieve[p])


def primorial(count):
    """Product of the first count primes, each found by trial division by
    the primes before it."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return math.prod(primes)


def random_codeword(plan, rng):
    msg = MessagePoly(
        [plan.ctx.elem(rng.getrandbits(plan.ctx.degree_bits)) for _ in range(plan.k)]
    )
    return encode(msg, plan.eval_set, plan_digest=plan.digest)


def gf2_poly(ctx, mu):
    """The polynomial over GF(2) with bit mask mu, as ascending elements of
    ctx, for poly_eval."""
    return [ctx.elem(mu >> j & 1) for j in range(mu.bit_length())]


def check_plan_encoding(plan, rng, oracle_ks=None):
    """Each point's minimal polynomial has degree base_bits * p_i and
    vanishes at the point, and encode equals MessagePoly.evaluate and the
    oracle's Horner at k = 1, n, and one below, at and above every point
    degree.  oracle_ks, when given, limits the oracle's dimensions."""
    ctx = plan.ctx
    points = plan.eval_set.points
    degrees = set()
    for node, (p, mu) in enumerate(zip(points, plan.eval_set.minpolys)):
        group = plan.groups[plan.locate(node)[0]]
        assert mu.bit_length() - 1 == plan.base_bits * group.prime
        assert poly_eval(gf2_poly(ctx, mu), p) == 0
        degrees.add(mu.bit_length() - 1)
    ks = {1, plan.n} | {d + j for d in degrees for j in (-1, 0, 1)}
    for k in sorted(k for k in ks if 1 <= k <= plan.n):
        msg = MessagePoly([ctx.elem(rng.getrandbits(ctx.degree_bits))
                           for _ in range(k)])
        got = [s.v for s in encode(msg, plan.eval_set).symbols]
        assert got == [msg.evaluate(p).v for p in points]
        if oracle_ks is None or k in oracle_ks:
            coeffs = [c.v for c in msg.coefficients]
            assert got == [oracle.horner(coeffs, p.v, ctx.modulus)
                           for p in points]
