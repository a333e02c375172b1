import hashlib
import itertools
import random
import time

import pytest

from perepair import field_tower, fixtures
from perepair.errors import PERepairError
from perepair.field_tower import (
    BasisOverSubfield,
    clmul,
    clsq,
    degree_over,
    dual_basis,
    factor_integer,
    gf2_rank,
    is_in_subfield,
    is_irreducible,
    is_primitive_in_subfield,
    make_field,
    poly_divmod,
    poly_from_exponents,
    poly_gcd,
    poly_inv_mod,
    poly_mod,
    smallest_irreducible,
    trace_to,
)
from perepair.fixtures import example1


# ---------------------------------------------------------------- raw polys


def test_clmul_hand_values():
    # (x^2+x+1)(x+1) = x^3+1 over GF(2)
    assert clmul(0b111, 0b11) == 0b1001
    assert clmul(0b10011, 1) == 0b10011
    assert clmul(0, 12345) == 0
    # (x+1)^2 = x^2+1
    assert clmul(0b11, 0b11) == 0b101


def test_clsq_matches_clmul():
    assert clsq(0b111) == 0b10101
    rng = random.Random(7)
    for _ in range(200):
        a = rng.getrandbits(rng.randrange(1, 300))
        assert clsq(a) == clmul(a, a)


def _shift_xor_product(a, b):
    """Schoolbook carry-less product, one bit of b at a time."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


EXAMPLE1_MODULUS = poly_from_exponents(2310, 8, 5, 2, 0)


def test_kernels_match_shift_and_xor_at_2310_bits():
    rng = random.Random(2310)
    for _ in range(20):
        a = rng.getrandbits(2310) | (1 << 2309)
        b = rng.getrandbits(2310)
        assert clsq(a) == _shift_xor_product(a, a)
        assert clmul(a, b) == _shift_xor_product(a, b)
        for width in range(1, 17):
            short = rng.getrandbits(width) | (1 << (width - 1))
            expect = _shift_xor_product(a, short)
            assert clmul(a, short) == expect
            assert clmul(short, a) == expect


def test_poly_inv_mod_round_trip_under_example1_modulus():
    rng = random.Random(8)
    for a in [1, 2, 3, rng.getrandbits(16)] + [
            rng.getrandbits(2310) for _ in range(3)] + [
            rng.getrandbits(2400) | (1 << 2399)]:
        inv = poly_inv_mod(a, EXAMPLE1_MODULUS)
        # the Bezout coefficient is returned as is, so it must be reduced
        assert 0 <= field_tower.poly_degree(inv) < 2310
        assert poly_mod(_shift_xor_product(a, inv), EXAMPLE1_MODULUS) == 1


def test_clmul_ring_axioms():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.getrandbits(120)
        b = rng.getrandbits(90)
        c = rng.getrandbits(150)
        assert clmul(a, b) == clmul(b, a)
        assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)
        assert clmul(clmul(a, b), c) == clmul(a, clmul(b, c))


def test_poly_divmod_invariant():
    rng = random.Random(3)
    for _ in range(300):
        a = rng.getrandbits(100)
        b = rng.getrandbits(40) | (1 << 40)
        q, r = poly_divmod(a, b)
        assert r.bit_length() < b.bit_length()
        assert clmul(q, b) ^ r == a
        assert poly_mod(a, b) == r


def test_poly_gcd_common_factor():
    rng = random.Random(5)
    for _ in range(100):
        h = rng.getrandbits(20) | (1 << 20)
        f = clmul(h, rng.getrandbits(15) | 1)
        g = clmul(h, rng.getrandbits(17) | 1)
        d = poly_gcd(f, g)
        assert poly_divmod(d, poly_gcd(d, h))[1] == 0 or poly_divmod(d, h)[1] == 0
        # h divides both, so h divides the gcd
        assert poly_divmod(d, h)[1] == 0


def test_irreducible_small_tables():
    assert is_irreducible(0b111)  # x^2+x+1 is the only degree-2 irreducible
    assert not is_irreducible(0b101)  # x^2+1 = (x+1)^2
    assert is_irreducible(0b1011) and is_irreducible(0b1101)
    assert not is_irreducible(0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)
    assert is_irreducible(0b10011)  # x^4+x+1
    assert not is_irreducible(0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    assert is_irreducible(poly_from_exponents(8, 4, 3, 1, 0))


@pytest.mark.parametrize(
    "degree,count",
    [(2, 1), (3, 2), (4, 3), (5, 6), (6, 9), (8, 30), (9, 56), (10, 99)],
    # necklace counts: (1/n) * sum_{d|n} mu(d) 2^(n/d); degrees 9 and 10
    # take every tail through both ring folds, sparse and Barrett
)
def test_irreducible_census(degree, count):
    found = sum(
        1
        for tail in range(1 << degree)
        if is_irreducible((1 << degree) | tail)
    )
    assert found == count


def test_smallest_irreducible_frozen():
    # low-degree-first comparison; values frozen for reproducibility
    assert smallest_irreducible(1) == 0b10
    assert smallest_irreducible(2) == 0b111
    assert smallest_irreducible(3) == 0b1101
    assert smallest_irreducible(4) == 0b11001
    for n in (5, 9, 16):
        f = smallest_irreducible(n)
        assert f.bit_length() - 1 == n
        assert is_irreducible(f)
    # the default moduli of example2's GF(2^60) and the wide GF(2^210) plans
    assert smallest_irreducible(60) == poly_from_exponents(60, 59, 0)
    assert smallest_irreducible(210) == poly_from_exponents(210, 203, 0)


def test_gf2_rank():
    assert gf2_rank([0b100, 0b010, 0b110]) == 2
    assert gf2_rank([]) == 0
    assert gf2_rank([0]) == 0
    assert gf2_rank([1, 2, 4, 8]) == 4


# ---------------------------------------------------------------- factoring


def test_factor_integer_known_values():
    assert factor_integer(2 ** 14 - 1) == [(3, 1), (43, 1), (127, 1)]
    assert factor_integer(2 ** 26 - 1) == [(3, 1), (2731, 1), (8191, 1)]
    assert factor_integer(2 ** 38 - 1) == [(3, 1), (174763, 1), (524287, 1)]
    assert factor_integer(720) == [(2, 4), (3, 2), (5, 1)]
    assert factor_integer(2) == [(2, 1)]
    assert factor_integer(2 ** 64 - 1) == [
        (3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1),
    ]


def test_factor_integer_large_prime():
    p = 2 ** 127 - 1
    assert factor_integer(p) == [(p, 1)]


def test_factor_integer_multiplicity():
    p = 1000003
    assert factor_integer(p * p * 7) == [(7, 1), (p, 2)]


def test_factor_integer_trial_limit_boundary():
    # trial division sieves to min(isqrt(x), 10^6); 999983 is the largest
    # prime below 10^6 and 1000003 the smallest above it
    assert factor_integer(2) == [(2, 1)]
    assert factor_integer(4) == [(2, 2)]
    assert factor_integer(49) == [(7, 2)]
    assert factor_integer(999983 ** 2) == [(999983, 2)]
    assert factor_integer(999983 * 1000003) == [(999983, 1), (1000003, 1)]
    assert factor_integer(1000003 ** 2) == [(1000003, 2)]
    assert factor_integer(15) == [(3, 1), (5, 1)]


def test_trial_primes_grow_by_segments(monkeypatch):
    # the bounds one make_field(2310) asks for, in order, then a smaller one
    monkeypatch.setattr(field_tower, "_trial_primes_cache", [])
    monkeypatch.setattr(field_tower, "_trial_primes_bound", 1)

    def by_trial_division(limit):
        return [p for p in range(2, limit + 1)
                if all(p % d for d in range(2, int(p ** 0.5) + 1))]

    for limit in (48, 774, 2954):
        assert field_tower._trial_primes(limit * limit + limit) == \
            by_trial_division(limit)
    primes = field_tower._trial_primes(10 ** 13)
    assert len(primes) == 78498 and primes[-1] == 999983
    assert field_tower._trial_primes(100) is primes
    assert field_tower._trial_primes_bound == 10 ** 6


def test_factor_integer_timeout(monkeypatch):
    monkeypatch.setattr(field_tower, "_FACTOR_STEPS", 1 << 12)
    hard = (2 ** 89 - 1) * (2 ** 107 - 1)  # two large primes
    with pytest.raises(PERepairError) as err:
        factor_integer(hard)
    assert err.value.code == "FACTORIZATION_TIMEOUT"


def test_factoring_ignores_the_clock(monkeypatch):
    # a clock that leaps 10^6 s per reading would exhaust any time budget
    ticks = itertools.count()

    def leaping_clock():
        return next(ticks) * 1e6

    monkeypatch.setattr(time, "monotonic", leaping_clock)
    monkeypatch.setattr(time, "perf_counter", leaping_clock)
    assert factor_integer(2 ** 67 - 1) == [(193707721, 1), (761838257287, 1)]
    F = make_field(190)  # its order needs ~54k rho steps on one composite
    assert F.generator_verified is True
    assert F.order_cofactor == 1


def test_example1_field_facts():
    # 2^2310 - 1 is only partly factored; the rho step cap fixes which part
    F = example1().plan.ctx
    assert F.generator.v == 3
    assert len(F.order_factorization) == 48
    assert F.order_cofactor.bit_length() == 1326
    assert F.generator_verified is False


def test_factor_integer_rejects_small():
    with pytest.raises(ValueError):
        factor_integer(1)


# ---------------------------------------------------------------- field ctx


def test_aes_field_oracle():
    F = make_field(8, poly_from_exponents(8, 4, 3, 1, 0))
    a, b = F.elem(0x57), F.elem(0x83)
    assert (a * b).v == 0xC1
    assert (F.elem(0x57) * F.elem(0x13)).v == 0xFE
    assert (a * a).v == (a ** 2).v


def test_gf16_exhaustive_inverse_and_order(gf16):
    for v in range(1, 16):
        e = gf16.elem(v)
        assert (e * e.inverse()).v == 1
        assert (e ** 15).v == 1
    with pytest.raises(PERepairError) as err:
        gf16.zero.inverse()
    assert err.value.code == "ZERO_INVERSE"


def test_gf16_log_table(gf16):
    # x generates GF(16)* under x^4+x+1: classic log table spot checks
    g = gf16.elem(2)
    powers = [(g ** i).v for i in range(15)]
    assert powers[:5] == [1, 2, 4, 8, 3]
    assert powers[12] == 15  # x^12 = x^3+x^2+x+1
    assert len(set(powers)) == 15


def test_pow_big_exponent_wraps(gf64):
    rng = random.Random(17)
    for _ in range(50):
        e = gf64.elem(rng.randrange(1, 64))
        k = rng.getrandbits(200)
        assert e ** k == e ** (k % 63)
    assert (gf64.generator ** 0).v == 1


def test_make_field_validation():
    with pytest.raises(PERepairError) as err:
        make_field(4, 0b10101)  # (x^2+x+1)^2
    assert err.value.code == "REDUCIBLE_MODULUS"
    with pytest.raises(PERepairError) as err:
        make_field(5, 0b10011)  # degree 4 modulus for a degree-5 field
    assert err.value.code == "REDUCIBLE_MODULUS"
    with pytest.raises(ValueError):
        make_field(0)


def test_make_field_defaults_deterministic():
    a = make_field(9)
    b = make_field(9)
    assert a is b  # cached
    assert a.modulus == smallest_irreducible(9)
    assert a.generator_verified
    prod = a.order_cofactor
    for p, e in a.order_factorization:
        prod *= p ** e
    assert prod == a.order


def test_make_field_caches_the_default_modulus(monkeypatch):
    ctx = make_field(12)

    def no_search(n):
        raise AssertionError(f"searched again for a degree-{n} modulus")

    monkeypatch.setattr(field_tower, "smallest_irreducible", no_search)
    assert make_field(12) is ctx


def test_default_generators_are_pinned():
    pinned = {4: 2, 6: 2, 8: 6, 12: 6, 30: 19, 60: 2, 210: 25}
    assert {n: make_field(n).generator.v for n in pinned} == pinned


@pytest.mark.parametrize("degree", [12, 30, 60])
def test_order_test_matches_the_per_prime_check(degree):
    F = make_field(degree)
    primes = [p for p, _ in F.order_factorization]
    lists = [primes, [], primes[:1], primes[-1:], primes[:2], primes[-2:]]
    seen = set()
    for cand in range(2, 65):
        for ps in lists:
            expect = all(F._pow(cand, F.order // p) != 1 for p in ps)
            got = field_tower._order_test(F, cand, F.order, ps)
            assert got == expect, (cand, ps)
            seen.add(got)
    assert seen == {True, False}


def test_generator_has_full_order(gf64):
    g = gf64.generator
    assert gf64.generator_verified
    assert (g ** 63).v == 1
    for p in (3, 7):
        assert (g ** (63 // p)).v != 1


def test_degree_one_field():
    F = make_field(1)
    assert (F.one * F.one).v == 1
    assert (F.one + F.one).v == 0
    assert F.generator.v == 1
    sub = F.subfield(1)
    assert is_primitive_in_subfield(F.one, sub)


def test_field_axioms_random_61():
    # 2^61 - 1 is prime, so every nonzero element has full order
    F = make_field(61)
    assert F.order_factorization == ((2 ** 61 - 1, 1),)
    rng = random.Random(23)
    for _ in range(60):
        a = F.elem(rng.getrandbits(61))
        b = F.elem(rng.getrandbits(61))
        c = F.elem(rng.getrandbits(61))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if a.v:
            assert (a ** F.order).v == 1


def test_hex_round_trip():
    F = make_field(10)
    e = F.elem(0x2A)
    assert e.hex() == "02a"  # width = ceil(10/4) = 3, lowercase
    assert F.from_hex(e.hex()) == e
    assert F.from_hex("3ff").v == 1023
    with pytest.raises(ValueError):
        F.from_hex("400")


def test_cross_field_operations_rejected(gf16, gf64):
    with pytest.raises(ValueError):
        gf16.one + gf64.one
    with pytest.raises(ValueError):
        gf16.elem(16)


def test_elements_hash_like_the_ints_they_equal(gf16, gf64):
    # == with an int must agree with hash, or dicts and sets split them
    assert gf16.one == 1 and hash(gf16.one) == hash(1)
    assert {1: "one"}.get(gf16.one) == "one"
    assert {gf16.one, 1} == {1}
    assert {gf16.elem(7): 0}.get(7) == 0
    assert len({gf16.generator, gf16.elem(gf16.generator.v)}) == 1
    # same value under different moduli: unequal even where hashes match
    assert gf16.elem(2) != gf64.elem(2)


# ---------------------------------------------------------------- subfields


def test_subfield_handles(gf4096):
    # the whole field's canonical generator is the ambient one
    assert gf4096.subfield(12).canonical_generator == gf4096.generator
    for m in (1, 2, 3, 4, 6, 12):
        sub = gf4096.subfield(m)
        gamma = sub.canonical_generator
        assert is_in_subfield(gamma, sub)
        assert is_primitive_in_subfield(gamma, sub)
        if m > 1:
            assert degree_over(gamma, gf4096.subfield(1)) == m
    with pytest.raises(PERepairError) as err:
        gf4096.subfield(5)
    assert err.value.code == "NOT_A_SUBFIELD_DEGREE"
    with pytest.raises(PERepairError):
        gf4096.subfield(0)


def test_unprimitive_generator_is_an_invariant_violation():
    # a trusted generator is not checked up front: generator 1 of GF(2^4)
    # gives a canonical GF(4) generator of degree 1, reported with a code
    ctx = field_tower.FieldCtx(4, 0b10011, 1, (), 1, False)
    with pytest.raises(PERepairError) as err:
        ctx.subfield(2)
    assert err.value.code == "INVARIANT_VIOLATION"
    # under the reducible x^4 + 1, x^(2^d) never returns to x
    ring = field_tower.FieldCtx(4, 0b10001, 2, (), 1, False)
    with pytest.raises(PERepairError) as err:
        ring._degree_over(0b10, 1)
    assert err.value.code == "INVARIANT_VIOLATION"


def test_unrooted_pin_is_an_invariant_violation():
    # x^2 + x + 1 has no root in GF(8)
    with pytest.raises(PERepairError) as err:
        fixtures._root_exponent(make_field(6), 3, (2, 1, 0))
    assert err.value.code == "INVARIANT_VIOLATION"


def test_subfield_membership_count(gf4096):
    sub = gf4096.subfield(4)
    members = sum(
        1 for v in range(4096) if is_in_subfield(gf4096.elem(v), sub)
    )
    assert members == 16


def test_trace_properties(gf4096):
    sub = gf4096.subfield(3)
    gamma = sub.canonical_generator
    rng = random.Random(31)
    seen = set()
    for _ in range(100):
        a = gf4096.elem(rng.getrandbits(12))
        b = gf4096.elem(rng.getrandbits(12))
        ta, tb = trace_to(a, sub), trace_to(b, sub)
        assert is_in_subfield(ta, sub)
        assert trace_to(a + b, sub) == ta + tb
        # trace is linear over the target subfield
        assert trace_to(gamma * a, sub) == gamma * ta
        seen.add(ta.v)
    assert len(seen) > 1  # non-degenerate
    assert trace_to(gf4096.zero, sub).v == 0
    full = gf4096.subfield(12)
    e = gf4096.elem(1234)
    assert trace_to(e, full) == e


def _trace_by_squarings(e, m):
    # the definition: e + e^(2^m) + e^(2^(2m)) + ..., N/m terms
    acc = cur = e
    for _ in range(e.ctx.degree_bits // m - 1):
        for _ in range(m):
            cur = cur * cur
        acc = acc + cur
    return acc


# the default moduli x^60 + x^59 + 1 and x^210 + x^203 + 1 have dense tails
# (Barrett reduction); x^42 + x^7 + x^4 + x^3 + 1 is folded as sparse
@pytest.mark.parametrize("degree, modulus", [
    (60, None), (210, None), (42, poly_from_exponents(42, 7, 4, 3, 0)),
])
def test_trace_to_is_the_frobenius_sum(degree, modulus):
    F = make_field(degree, modulus)
    rng = random.Random(degree)
    for m in (m for m in range(1, degree + 1) if degree % m == 0):
        sub = F.subfield(m)
        for _ in range(3):
            e = F.elem(rng.getrandbits(degree))
            assert trace_to(e, sub) == _trace_by_squarings(e, m)


@pytest.mark.parametrize("degree", [60, 210])
def test_dense_tail_products_are_remainders(degree):
    F = make_field(degree)
    rng = random.Random(degree)
    top = (1 << degree) - 1
    pairs = [(top, top), (top, 1), (1 << (degree - 1), 1 << (degree - 1))]
    pairs += [(rng.getrandbits(degree), rng.getrandbits(degree))
              for _ in range(50)]
    for a, b in pairs:
        assert (F.elem(a) * F.elem(b)).v == poly_divmod(clmul(a, b), F.modulus)[1]


@pytest.mark.parametrize("degree, m", [(12, 1), (12, 4), (12, 12), (210, 3)])
def test_dual_basis_is_trace_dual(degree, m):
    F = make_field(degree)
    sub = F.subfield(m)
    # 1, g, ..., g^(n-1) is a basis over GF(2^m): g has degree N over GF(2)
    c = F.elem(random.Random(m).getrandbits(degree) | 1)
    basis = BasisOverSubfield(
        sub, [c * F.generator ** i for i in range(degree // m)])
    dual = dual_basis(basis)
    for i, bi in enumerate(basis):
        for j, dj in enumerate(dual):
            assert trace_to(bi * dj, sub).v == (1 if i == j else 0)


def test_example1_subfield_traces_are_pinned():
    # SHA-256 of trace_to(e, GF(2^385)).hex() in example1's GF(2^2310), as
    # computed through the former N x N GF(2) matrix of the trace map
    F = example1().plan.ctx
    sub = F.subfield(385)
    pinned = {
        2: "e524158df47f63b7788e0eb9bfff58968e217758ac582880583bc5aa4b8bcb06",
        1 << 2309:
            "cb807f88cf6c4c34e4ce327b5502f724e3fc8e598f817564b540b9718bf00042",
        0b100100101:
            "e8d0e05811d3dd8e5056ff557fd713c26632a7723a8dbb4e47b4a699d375e73f",
        random.Random(2310).getrandbits(2310):
            "a5f321fe076af0caf916303e2aaa4fd03898133f747947fc151ba8867b4a6d45",
    }
    for v, digest in pinned.items():
        tr = trace_to(F.elem(v), sub)
        assert hashlib.sha256(tr.hex().encode()).hexdigest() == digest


def test_degree_histograms(gf64):
    prime_sub = gf64.subfield(1)
    hist = {}
    for v in range(64):
        d = degree_over(gf64.elem(v), prime_sub)
        hist[d] = hist.get(d, 0) + 1
    assert hist == {1: 2, 2: 2, 3: 6, 6: 54}
    over2 = gf64.subfield(2)
    hist2 = {}
    for v in range(64):
        d = degree_over(gf64.elem(v), over2)
        hist2[d] = hist2.get(d, 0) + 1
    assert hist2 == {1: 4, 3: 60}


def test_primitive_counts(gf16):
    sub = gf16.subfield(4)
    primitive = sum(
        1
        for v in range(1, 16)
        if is_primitive_in_subfield(gf16.elem(v), sub)
    )
    assert primitive == 8  # phi(15)
    assert not is_primitive_in_subfield(gf16.one, sub)
    with pytest.raises(ValueError):
        is_primitive_in_subfield(gf16.zero, sub)
    # an element outside the subfield is never primitive in it
    assert not is_primitive_in_subfield(gf16.elem(2), gf16.subfield(2))


# ---------------------------------------------------------------- dual basis


def test_dual_basis_identity(gf64):
    sub = gf64.subfield(2)
    g = gf64.generator
    basis = BasisOverSubfield(sub, [g ** 0, g, g ** 2])
    dual = dual_basis(basis)
    for i, bi in enumerate(basis):
        for j, dj in enumerate(dual):
            t = trace_to(bi * dj, sub)
            assert t.v == (1 if i == j else 0)


def test_dual_basis_involution(gf4096):
    sub = gf4096.subfield(4)
    g = gf4096.generator
    basis = BasisOverSubfield(sub, [g ** 5, g ** 9, g ** 77])
    dual = dual_basis(basis)
    back = dual_basis(BasisOverSubfield(sub, list(dual)))
    assert [e.v for e in back] == [e.v for e in basis]


def test_dependent_vectors_rejected(gf4096):
    sub = gf4096.subfield(3)
    g = gf4096.generator
    dependent = [gf4096.one, g, gf4096.one + g, g ** 2]
    with pytest.raises(PERepairError) as err:
        BasisOverSubfield(sub, dependent)
    assert err.value.code == "SINGULAR_GRAM"
    # unvalidated, the right number of dependent vectors still fails in
    # dual_basis: the trace form is nondegenerate, so their Gram matrix is
    # singular (a repair's B basis relies on this one check)
    with pytest.raises(PERepairError) as err:
        dual_basis(BasisOverSubfield(sub, dependent, validate=False))
    assert err.value.code == "SINGULAR_GRAM"


def test_partial_basis_allowed_but_not_dualizable(gf4096):
    sub = gf4096.subfield(3)
    partial = BasisOverSubfield(sub, [gf4096.one, gf4096.generator])
    assert len(partial) == 2
    with pytest.raises(PERepairError) as err:
        dual_basis(partial)
    assert err.value.code == "SINGULAR_GRAM"
