import hashlib
import itertools
import math
import random
import time

import pytest

from perepair import field_tower, fixtures
from perepair.constructions import build_plan_c1
from perepair.errors import PERepairError
from perepair.field_tower import (
    BasisOverSubfield,
    clmul,
    clsq,
    dual_basis,
    factor_integer,
    gf2_rank,
    is_irreducible,
    is_primitive_in_subfield,
    make_field,
    poly_gcd,
    poly_inv_mod,
    poly_mod,
    smallest_irreducible,
    trace_to,
)
from perepair.fixtures import example1, example2

from conftest import (counting, degree_over, oracle, oracle_frobenius,
                      oracle_trace, primes_to)


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


EXAMPLE1_MODULUS = (1 << 2310) | (1 << 8) | (1 << 5) | (1 << 2) | 1


def test_kernels_match_shift_and_xor_at_2310_bits():
    rng = random.Random(2310)
    for _ in range(20):
        a = rng.getrandbits(2310) | (1 << 2309)
        b = rng.getrandbits(2310)
        assert clsq(a) == oracle.gf2x_mul(a, a)
        assert clmul(a, b) == oracle.gf2x_mul(a, b)
        for width in range(1, 17):
            short = rng.getrandbits(width) | (1 << (width - 1))
            expect = oracle.gf2x_mul(a, short)
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
        assert oracle.field_mul(a, inv, EXAMPLE1_MODULUS) == 1


def test_poly_inv_mod_refuses_a_constant_modulus():
    for f in (0, 1):
        with pytest.raises(ValueError, match="degree >= 1"):
            poly_inv_mod(1, f)


def test_smallest_irreducible_refuses_degree_zero():
    for n in (0, -1):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            smallest_irreducible(n)
    assert smallest_irreducible(1) == 0b10


def test_poly_inv_mod_under_a_reducible_modulus():
    # f = (x^2 + x + 1)(x^3 + x + 1): every a below x^9 that shares a
    # factor with f (f and its multiples included) is refused, and every
    # other a is inverted
    f = 0b110001
    assert clmul(0b111, 0b1011) == f
    with pytest.raises(PERepairError) as e:
        poly_inv_mod(0, f)
    assert e.value.code == "ZERO_INVERSE"
    for a in range(1, 1 << 9):
        if poly_gcd(f, a) != 1:
            with pytest.raises(ValueError, match="not invertible"):
                poly_inv_mod(a, f)
            continue
        inv = poly_inv_mod(a, f)
        assert 0 < inv < 1 << 5
        assert oracle.field_mul(a, inv, f) == 1


@pytest.mark.parametrize("degree", [5, 60, 210])
def test_poly_inv_mod_round_trips_against_the_oracle(degree):
    # N = 2310: test_poly_inv_mod_round_trip_under_example1_modulus
    f = smallest_irreducible(degree)
    rng = random.Random(degree)
    inputs = [1, 2, (1 << degree) - 1, f ^ 1, f << 1 | 1]
    inputs += [rng.getrandbits(degree) or 1 for _ in range(40)]
    for a in inputs:
        inv = poly_inv_mod(a, f)
        assert 0 <= field_tower.poly_degree(inv) < degree
        assert oracle.field_mul(a, inv, f) == 1


def test_poly_inv_mod_neither_divides_nor_multiplies(monkeypatch):
    # shift-and-add Euclid: the bit-serial division and its quotient
    # products must not come back
    calls = counting(monkeypatch, field_tower, ("clmul", "poly_mod"))
    rng = random.Random(2)
    for a in [3, rng.getrandbits(2310), rng.getrandbits(2400) | 1 << 2399]:
        poly_inv_mod(a, EXAMPLE1_MODULUS)
    with pytest.raises(ValueError):
        poly_inv_mod(0b111, 0b110001)  # (x^2 + x + 1)(x^3 + x + 1)
    assert calls == {"clmul": 0, "poly_mod": 0}


@pytest.mark.parametrize("width", list(range(1, 17)) + [60, 210, 2310])
def test_byte_table_product_is_clmul(width):
    rng = random.Random(width)
    operands = [0, 1, (1 << width) - 1, 1 << (width - 1)]
    operands += [rng.getrandbits(width) for _ in range(6)]
    others = operands + [rng.getrandbits(w) for w in (1, 9, 64, 300, 2310)]
    for b in operands:
        table = field_tower._byte_table(b)
        assert len(table) == 256
        for a in others:
            got = field_tower._clmul_by_table(a, table)
            assert got == clmul(a, b) == oracle.gf2x_mul(a, b)
            # the tabled operand on the other side
            assert field_tower._clmul_by_table(
                b, field_tower._byte_table(a)) == got


def test_clmul_width_rule_against_the_oracle():
    # the shorter operand picks the window: up to 1,016 bits (127 bytes)
    # the 4-bit one, from 1,017 bits (128 bytes) the other's byte table
    rng = random.Random(1016)
    pairs = [(60, 2310), (2310, 60), (1016, 2310), (1017, 2310)]
    pairs += [(w, w) for w in range(1008, 1033)]
    pairs += [(w, 2310) for w in range(1008, 1033)]
    for wa, wb in pairs:
        for _ in range(2):
            a = rng.getrandbits(wa) | 1 << (wa - 1)
            b = rng.getrandbits(wb) | 1 << (wb - 1)
            assert clmul(a, b) == oracle.gf2x_mul(a, b)
        assert clmul(0, b) == clmul(a, 0) == 0


def test_clmul_tables_only_operands_of_128_bytes(monkeypatch, toy_c1_wide):
    # GF(2^60) (c2-stream) and GF(2^210) (wide-cold) keep the 4-bit
    # window, where a byte table per product costs more than it saves
    calls = counting(monkeypatch, field_tower, ("_byte_table",))
    rng = random.Random(128)

    def tables(wa, wb):
        before = calls["_byte_table"]
        a = rng.getrandbits(wa) | 1 << (wa - 1)
        b = rng.getrandbits(wb) | 1 << (wb - 1)
        assert clmul(a, b) == oracle.gf2x_mul(a, b)
        return calls["_byte_table"] - before

    assert tables(2310, 2310) == 1
    assert tables(1017, 2310) == tables(2310, 1017) == 1
    for wa, wb in [(60, 60), (210, 210), (1016, 1016), (1016, 2310),
                   (2310, 1016), (60, 2310)]:
        assert tables(wa, wb) == 0
    contexts = (example2().plan.ctx, toy_c1_wide.ctx)
    before = calls["_byte_table"]
    for ctx in contexts:
        n = ctx.degree_bits
        for _ in range(20):
            ctx._mul(rng.getrandbits(n) | 1 << (n - 1), rng.getrandbits(n))
    assert calls["_byte_table"] == before


# the fewest uses at which FieldCtx._scaler tables its operand: the first
# with uses * ceil(N / 8) >= 128 bytes
_FIRST_TABLED_USE = {30: 32, 60: 16, 210: 5, 385: 3, 1016: 2, 1017: 1,
                     2310: 1}


@pytest.mark.parametrize("n", sorted(_FIRST_TABLED_USE))
def test_scaler_matches_the_oracle_on_both_sides_of_the_gate(monkeypatch, n):
    # a -> b a mod f, with at most one byte table per scaler, built when
    # the uses reach the gate and never below it; any modulus of degree N
    # serves, as the products are checked against the oracle's reduction
    rng = random.Random(n)
    f = 1 << n | rng.getrandbits(n) | 1
    ctx = field_tower.FieldCtx(n, f, 2)
    calls = counting(monkeypatch, field_tower, ("_byte_table",))
    full = (1 << n) - 1
    operands = [0, 1, full, rng.getrandbits(n), rng.getrandbits(n)]
    first = _FIRST_TABLED_USE[n]
    for uses in sorted({1, max(first - 1, 1), first, first + 1}):
        for b in operands:
            before = calls["_byte_table"]
            times = ctx._scaler(b, uses)
            assert calls["_byte_table"] - before == (uses >= first)
            for a in operands:
                want = oracle.gf2x_mul(a, b)
                assert times(a) == ctx._fold(want) == oracle.gf2x_reduce(
                    want, f)
            assert calls["_byte_table"] - before == (uses >= first)


@pytest.mark.parametrize("n", [1016, 1017, 1023, 1024])
def test_one_wide_rule_at_the_128_byte_boundary(monkeypatch, n):
    # clmul at full width, a one-use scaler, a Construction-2-like
    # evaluation in K (one query per helper) and a two-coefficient
    # Horner encode all table their shared operand from 1,017 bits
    # (128 bytes) on, one rule; a three-coefficient encode shares each
    # point over two products, 2 ceil(N / 8) >= 128 bytes, at every n
    from perepair.repair_engine import _in_subfield, _PreparedRepair
    from perepair.rs_codes import EvaluationSet, MessagePoly, encode

    wide = n >= 1017
    f = smallest_irreducible(n)
    ctx = field_tower.FieldCtx(n, f, 2)
    sub = field_tower.SubfieldHandle(ctx, 1)
    sub._trace_duals  # built once, outside the counts
    rng = random.Random(n)
    a, b, c = (rng.getrandbits(n) | 1 << (n - 1) for _ in range(3))
    calls = counting(monkeypatch, field_tower, ("_byte_table",))

    def tables(run):
        before = calls["_byte_table"]
        run()
        return calls["_byte_table"] - before

    assert tables(lambda: clmul(a, b)) == wide
    assert tables(lambda: ctx._scaler(b, 1)) == wide
    prep = _PreparedRepair([0], sub, [1], [[ctx.one]], ((0, ctx.one),),
                           None, None, [[]], [[1]])
    got = []
    assert tables(lambda: got.append(
        _in_subfield(prep, [ctx.elem(a)]))) == wide
    assert got == [([sub._trace_coords(a)], sub._trace_coords(a))]
    points = EvaluationSet(ctx, [ctx.elem(x) for x in (a, b, c)])
    for k, tabled in ((2, wide), (3, True)):
        coeffs = [rng.getrandbits(n) for _ in range(k)]
        msg = MessagePoly([ctx.elem(v) for v in coeffs])
        out = []
        assert tables(lambda: out.append(encode(msg, points))) == 3 * tabled
        assert [s.v for s in out[0].symbols] == [
            oracle.horner(coeffs, x, f) for x in (a, b, c)]


def test_gamma_chain_tables_gamma_by_the_rule(monkeypatch):
    # gamma^0..gamma^(m-1) in GF(2^210) takes m - 1 products by gamma: by
    # the 4-bit window for m = 3 and 5, by one byte table for m = 7 and 35
    ctx = make_field(210)
    calls = counting(monkeypatch, field_tower, ("_byte_table",))
    for m, tabled in ((3, 0), (5, 0), (7, 1), (35, 1)):
        sub = field_tower.SubfieldHandle(ctx, m)
        before = calls["_byte_table"]
        basis = sub.gf2_basis
        assert calls["_byte_table"] - before == tabled
        power = 1
        for v in basis:
            assert v == power
            power = oracle.field_mul(power, sub.canonical_generator.v,
                                     ctx.modulus)


def _trace_sequence(f):
    """t_j = Tr(x^j) in GF(2)[x]/(f), j < 2N - 1, as the bits of an int:
    the power sums of f's roots, by Newton's identities up to N and by
    x^N = tail(x) after, with no product of the field."""
    n = f.bit_length() - 1
    tail = f ^ 1 << n
    t = 0  # t_0 = N mod 2 joins last: no identity below reads it
    for k in range(1, 2 * n - 1):
        # t_k = sum_(1 <= i < k) f_(n-i) t_(k-i), plus k f_(n-k) if k <= n
        bit = (tail & (t << n >> k)).bit_count()
        if k <= n:
            bit += k * (f >> (n - k) & 1)
        t |= (bit & 1) << k
    return t | n & 1


# x^N + x + 1 for N = 7, 15, 22 and 63, where _fold has no round at all and
# the quotient of x^(2N - 1) carries the stride N - 1 (N odd: f' holds
# x^(N-1)); a dense pinned modulus of odd degree with 27 terms; example2's
# x^60 + x^59 + 1 (six rounds); x^210 + x^203 + 1, the default GF(2^210)
# modulus (five rounds); and example1's pentanomial, whose f' is x^4
_TRACE_MODULI = [1 << n | 3 for n in (7, 15, 22, 63)] + [
    0x39ab8b6d8ff, 1 << 60 | 1 << 59 | 1, 1 << 210 | 1 << 203 | 1,
    1 << 2310 | 1 << 8 | 1 << 5 | 1 << 2 | 1]


def test_trace_functional_is_the_hankel_mask():
    # bit j of the mask of a is Tr(a x^j) = sum_i a_i t_(i+j), the Hankel
    # product of a with the trace sequence; and parity(y & mask) is Tr(a y)
    # by the sum of the N Frobenius powers of a y
    rng = random.Random(60)
    for f in _TRACE_MODULI:
        n = f.bit_length() - 1
        assert is_irreducible(f), n
        ctx = field_tower.FieldCtx(n, f, 1)
        t = _trace_sequence(f)
        full = (1 << n) - 1
        for i in range(n):
            assert ctx._trace_functional(1 << i) == t >> i & full, (n, i)
        for a in [full] + [rng.getrandbits(n) for _ in range(6)]:
            w = ctx._trace_functional(a)
            assert w == sum(((a & t >> j).bit_count() & 1) << j
                            for j in range(n)), n
            y = rng.getrandbits(n)
            z = tr = ctx._mul(a, y)
            for _ in range(n - 1):
                z = ctx._sq(z)
                tr ^= z
            assert tr in (0, 1)
            assert (w & y).bit_count() & 1 == tr, n


def test_trace_functional_takes_no_product(monkeypatch):
    # the closed form shifts, folds and reverses: no carry-less product and
    # no byte table, at widths on both sides of the byte-table gate
    calls = counting(monkeypatch, field_tower,
                     ("clmul", "_clmul_by_table", "_byte_table"))
    rng = random.Random(2310)
    for f in _TRACE_MODULI:
        n = f.bit_length() - 1
        ctx = field_tower.FieldCtx(n, f, 1)
        for _ in range(5):
            ctx._trace_functional(rng.getrandbits(n))
    assert calls == dict.fromkeys(calls, 0)


def test_clmul_ring_axioms():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.getrandbits(120)
        b = rng.getrandbits(90)
        c = rng.getrandbits(150)
        assert clmul(a, b) == clmul(b, a)
        assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)
        assert clmul(clmul(a, b), c) == clmul(a, clmul(b, c))


def test_poly_mod_matches_the_oracle():
    rng = random.Random(3)
    for _ in range(300):
        a = rng.getrandbits(100)
        b = rng.getrandbits(40) | (1 << 40)
        assert poly_mod(a, b) == oracle.gf2x_reduce(a, b)
    assert poly_mod(0b1011, 0b1011) == 0
    assert poly_mod(0b101, 0b1011) == 0b101
    with pytest.raises(ValueError):
        poly_mod(0b101, 1)


def _euclid(a, b):
    """gcd by long division, the remainders from the oracle's reduction."""
    while b:
        a, b = b, oracle.gf2x_reduce(a, b)
    return a


def test_poly_gcd_common_factor():
    rng = random.Random(5)
    for _ in range(200):
        # a planted common factor h; the cofactors may share more, and g's
        # may be 0
        h = rng.getrandbits(20) | (1 << 20)
        f = clmul(h, rng.getrandbits(rng.randrange(1, 60)) | 1)
        g = clmul(h, rng.getrandbits(rng.randrange(1, 60)))
        # h divides both, so h divides the gcd
        assert oracle.gf2x_reduce(poly_gcd(f, g), h) == 0
        for a, b in [(f, g), (g, f), (f, 0), (0, g), (f, f), (f, 1)]:
            assert poly_gcd(a, b) == _euclid(a, b)
    assert poly_gcd(0, 0) == 0
    # Rabin's gcds in is_irreducible: x^(2^j) - x against example1's modulus
    ring = field_tower.FieldCtx(2310, EXAMPLE1_MODULUS, 1)
    y = 2
    for j in range(1, 2311):
        y = ring._sq(y)
        if j in (210, 330, 462, 770, 1155):  # 2310 / p, p = 11, 7, 5, 3, 2
            assert poly_gcd(y ^ 2, EXAMPLE1_MODULUS) == 1 == _euclid(
                y ^ 2, EXAMPLE1_MODULUS)
    assert poly_gcd(y ^ 2, EXAMPLE1_MODULUS) == EXAMPLE1_MODULUS


def test_even_weight_is_reducible_without_squaring(monkeypatch):
    # f(1) = 0 puts x + 1 in f: refused before any factoring or squaring
    calls = counting(monkeypatch, field_tower, ["factor_integer", "clsq"])
    for f in (0b101, 0b1111, 0b11000000011, (1 << 210) | (1 << 203) | 3):
        assert not is_irreducible(f)
    assert calls == {"factor_integer": 0, "clsq": 0}
    assert is_irreducible(0b11)  # x + 1 itself, of even weight
    # the search skips even weights without the test's squarings
    assert smallest_irreducible(210) == (1 << 210) | (1 << 203) | 1
    # of the 33 odd weights among 65 candidates, 27 have a factor of degree
    # <= 8, which the sieve finds before the checkpoints are factored
    assert calls["factor_integer"] == 6


def test_irreducible_small_tables():
    assert is_irreducible(0b111)  # x^2+x+1 is the only degree-2 irreducible
    assert not is_irreducible(0b101)  # x^2+1 = (x+1)^2
    assert is_irreducible(0b1011) and is_irreducible(0b1101)
    assert not is_irreducible(0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)
    assert is_irreducible(0b10011)  # x^4+x+1
    assert not is_irreducible(0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    assert is_irreducible(0b100011011)  # x^8+x^4+x^3+x+1
    # constants are not irreducible; both degree-1 polynomials are
    assert not is_irreducible(0) and not is_irreducible(1)
    assert is_irreducible(0b10) and is_irreducible(0b11)


@pytest.mark.parametrize(
    "degree,count",
    [(2, 1), (3, 2), (4, 3), (5, 6), (6, 9), (8, 30), (9, 56), (10, 99)],
    # necklace counts: (1/n) * sum_{d|n} mu(d) 2^(n/d); degrees 9 and 10
    # take every tail through the ring's fold, with zero to four rounds
)
def test_irreducible_census(degree, count):
    found = sum(
        1
        for tail in range(1 << degree)
        if is_irreducible((1 << degree) | tail)
    )
    assert found == count


def test_small_factor_sieve_is_trial_division(monkeypatch):
    # degrees 9-12 sieve to B = 4: f is refused after exactly B squarings
    # iff an irreducible of degree <= 4 divides it, an even weight (x + 1
    # divides) with no squaring; a full chain or a checkpoint takes more
    small = [q for q in range(2, 32) if is_irreducible(q)]
    assert len(small) == 8  # 2 + 1 + 2 + 3 of degrees 1-4
    calls = counting(monkeypatch, field_tower.FieldCtx, ["_sq"])
    for n in range(9, 13):
        for tail in range(1, 1 << n, 2):
            f = (1 << n) | tail
            calls["_sq"] = 0
            verdict = is_irreducible(f)
            trial = any(oracle.gf2x_reduce(f, q) == 0 for q in small)
            refused_early = not verdict and calls["_sq"] <= 4
            assert refused_early == trial, f
            if trial:
                assert calls["_sq"] == (4 if f.bit_count() & 1 else 0), f


def test_sieve_refuses_a_small_factor_of_each_degree_at_n_210(monkeypatch):
    # q h of degree 210, for q irreducible of degree e <= B = 8: refused
    # after 8 squarings (x + 1, of even weight, before any); an irreducible
    # pays the whole chain of 210
    products = {e: clmul(smallest_irreducible(e) if e > 1 else 0b11,
                         smallest_irreducible(210 - e)) for e in range(1, 9)}
    calls = counting(monkeypatch, field_tower.FieldCtx, ["_sq"])
    for e, f in products.items():
        calls["_sq"] = 0
        assert f.bit_length() == 211 and not is_irreducible(f)
        assert calls["_sq"] == (8 if e > 1 else 0), e
    calls["_sq"] = 0
    assert is_irreducible((1 << 210) | (1 << 203) | 1)
    assert calls["_sq"] == 210


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
    assert smallest_irreducible(60) == (1 << 60) | (1 << 59) | 1
    assert smallest_irreducible(210) == (1 << 210) | (1 << 203) | 1
    # every degree 2..64 and 210, as computed under the former Barrett fold
    h = hashlib.sha256()
    for n in [*range(2, 65), 210]:
        h.update(f"{n}:{smallest_irreducible(n):x}\n".encode())
    assert h.hexdigest() == (
        "ba165acda01f794cf3390c1ee5eaffd46ab22cd2a42b9f8c57adad6e5ee34cc1")


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
    # trial division runs to min(isqrt(x), 10^6); 999983 is the largest
    # prime below 10^6 and 1000003 the smallest above it
    assert factor_integer(2) == [(2, 1)]
    assert factor_integer(4) == [(2, 2)]
    assert factor_integer(49) == [(7, 2)]
    assert factor_integer(999983 ** 2) == [(999983, 2)]
    assert factor_integer(999983 * 1000003) == [(999983, 1), (1000003, 1)]
    assert factor_integer(1000003 ** 2) == [(1000003, 2)]
    assert factor_integer(15) == [(3, 1), (5, 1)]


def test_factor_integer_trial_divides_as_the_primes_would(monkeypatch):
    # 2 and the odd numbers find what the primes to 10^6 find, and leave
    # rho the same number: same factors from the same rho rounds
    rng = random.Random(29)
    cases = [*(2 ** k - 1 for k in range(2, 65)), 999983 ** 2, 1000003 ** 2,
             999983 * 1000003, (2 ** 61 - 1) * (2 ** 31 - 1),
             *(rng.getrandbits(40) | 1 << 39 for _ in range(200))]
    rounds = []
    real = field_tower._brent_rho

    def recorded(n, c, steps):
        rounds.append((n, c, steps))
        return real(n, c, steps)
    monkeypatch.setattr(field_tower, "_brent_rho", recorded)
    for x in cases:
        got = factor_integer(x)
        got_rounds = rounds.copy()
        rounds.clear()
        want, leftover = field_tower._factor_bounded(
            x, field_tower._FACTOR_STEPS, primes_to(10 ** 6))
        assert (got, leftover) == (sorted(want.items()), 1), x
        assert got_rounds == rounds, x
        rounds.clear()


def test_factor_integer_timeout(monkeypatch):
    monkeypatch.setattr(field_tower, "_FACTOR_STEPS", 1 << 12)
    hard = (2 ** 89 - 1) * (2 ** 107 - 1)  # two large primes
    with pytest.raises(PERepairError) as err:
        factor_integer(hard)
    assert err.value.code == "FACTORIZATION_TIMEOUT"


def test_brent_rho_backtracks_past_a_batch_that_caught_both_factors():
    # 1000003 * 1000117: a batch's product is 0 mod n, so the round replays
    # the batch one step at a time from its start
    assert field_tower._brent_rho(1000120000351, 2, 1 << 23) == (1000003, 3206)
    # 1000003 * 1000367: under c = 1 the replay reaches n itself, so the
    # round asks for a retry, and c = 2 splits it
    assert field_tower._brent_rho(1000370001101, 1, 1 << 23)[0] == 0
    assert factor_integer(1000370001101) == [(1000003, 1), (1000367, 1)]


def test_brent_rho_cap_runs_out_mid_round_and_mid_backtrack():
    # 1000003 * 1000367 under c = 1: the round of 1024 steps walks to 3,070,
    # its first batch (steps 3,071-3,198) catches both factors, and the
    # replay of that batch, one step at a time, meets n itself at 3,218
    n = 1000370001101
    assert field_tower._brent_rho(n, 1, 1 << 23) == (0, 3218)
    # a cap of 3,100 stops before that batch, one of 3,210 in the replay
    for steps, spent in ((3100, 3070), (3210, 3210)):
        d, used = field_tower._brent_rho(n, 1, steps)
        assert d is None and used == spent <= steps
        # no trial divisors: the composite goes to rho whole, and is left
        assert field_tower._factor_bounded(n, steps, ()) == ({}, n)


def _sieve_factorization(n_bits):
    """2^n - 1 factored as before the cyclotomic divisors: each piece
    Phi_d(2) trial-divided by every prime up to min(isqrt, 10^6)."""
    factors, cofactor = {}, 1
    for v in field_tower._cyclotomic_values(n_bits).values():
        found, leftover = field_tower._factor_bounded(
            v, field_tower._ORDER_STEPS, primes_to(10 ** 6))
        for p, e in found.items():
            factors[p] = factors.get(p, 0) + e
        cofactor *= leftover
    return factors, cofactor, cofactor == 1


def test_cyclotomic_divisors_factor_as_the_prime_sieve_did():
    # same primes, in the same order, the same cofactor and completeness
    for n in [*range(2, 131), 140, 150, 168, 180, 190, 210, 240, 300, 330,
              390, 462]:
        found, cofactor, complete = field_tower._factor_mersenne_like(n)
        want, want_cofactor, want_complete = _sieve_factorization(n)
        assert list(found.items()) == list(want.items()), n
        assert (cofactor, complete) == (want_cofactor, want_complete), n


def test_cyclotomic_divisors_are_the_primes_of_d_then_1_mod_lcm():
    v = (1 << 21) - 1  # not Phi_21(2); only its size sets the limit
    assert list(field_tower._cyclotomic_divisors(21, v)) == \
        [3, 7, *range(43, math.isqrt(v) + 1, 42)]
    assert list(field_tower._cyclotomic_divisors(10, 11)) == [2]
    # Phi_210(2) has 48 bits: divisors 1 + 210 j run to 10^6, no further
    v = field_tower._cyclotomic_values(210)[210]
    divs = list(field_tower._cyclotomic_divisors(210, v))
    assert divs[:5] == [2, 3, 5, 7, 211] and divs[-1] == 999811
    assert len(divs) == 4 + 10 ** 6 // 210


def test_generator_search_rejects_at_the_smallest_prime_first(
        monkeypatch, fresh_process):
    # 2^210 - 1: of the candidates 2..25, all but 19 and 25 have
    # v^((2^210 - 1)/3) = 1, so only those two pay the degree check
    calls = []
    real = field_tower.FieldCtx._has_degree

    def counted(ctx, v, m):
        calls.append(v)
        return real(ctx, v, m)

    monkeypatch.setattr(field_tower.FieldCtx, "_has_degree", counted)
    # that first test's power runs for the irreducible candidates alone;
    # a product q r of smaller ones multiplies their stored powers
    first = ((1 << 210) - 1) // 3
    powered = []
    real_pow = field_tower.FieldCtx._pow

    def counted_pow(ctx, a, k):
        if k == first:
            powered.append(a)
        return real_pow(ctx, a, k)

    monkeypatch.setattr(field_tower.FieldCtx, "_pow", counted_pow)
    assert make_field(210).generator.v == 25
    assert calls == [19, 25]
    assert powered == [2, 3, 7, 11, 13, 19, 25]


@pytest.mark.parametrize("n", [60, 210])
def test_first_order_powers_multiply_over_factors(monkeypatch, n):
    # v^((2^n - 1)/3), 3 the smallest prime of 2^n - 1, for v = 2..64 in
    # the search's order: equal to the power, which only irreducibles pay
    ctx = field_tower.FieldCtx(n, smallest_irreducible(n), 1)
    k = ctx.order // 3
    real_pow = field_tower.FieldCtx._pow
    powered = []

    def counted_pow(self, a, e):
        powered.append(a)
        return real_pow(self, a, e)

    monkeypatch.setattr(field_tower.FieldCtx, "_pow", counted_pow)
    store = {}
    for v in range(2, 65):
        got = field_tower._power_by_factors(ctx, v, k, store)
        assert got == real_pow(ctx, v, k) == store[v], v
    assert powered == [v for v in range(2, 65) if is_irreducible(v)]
    # asked out of order, a composite fills its factors' entries first
    store = {}
    assert field_tower._power_by_factors(ctx, 60, k, store) == \
        real_pow(ctx, 60, k)
    # 60 = x^2 (x + 1)^3 over GF(2): x 30, 30 = x 15, 15 = (x + 1) 5 and
    # 5 = (x + 1)^2, each split at its smallest factor
    assert sorted(store) == [2, 3, 5, 15, 30, 60]


def test_default_search_squaring_budget(monkeypatch, fresh_process):
    # a count, not a clock: a fresh GF(2^210) search squares 3,926 times,
    # against 8,980 before the sieve and the product-built first test
    calls = counting(monkeypatch, field_tower.FieldCtx, ["_sq"])
    make_field(210)
    assert calls["_sq"] <= 4500


def test_searched_fields_are_pinned(fresh_process):
    # (modulus, generator) of every default field below, as the search by
    # sieved trial primes, degree check first, found them; every generator
    # not listed is 2
    degrees = [*range(2, 70), 90, 105, 120, 210, 330]
    other = {8: 6, 9: 7, 12: 6, 14: 7, 16: 6, 18: 3, 26: 3, 28: 7, 30: 19,
             32: 3, 33: 3, 34: 3, 36: 7, 42: 3, 44: 7, 46: 7, 48: 3, 57: 7,
             66: 6, 105: 7, 120: 3, 210: 25}
    h = hashlib.sha256()
    for n in degrees:
        F = make_field(n)
        assert F.generator.v == other.get(n, 2), n
        h.update(f"{n}:{F.modulus:x}:{F.generator.v:x}\n".encode())
    assert h.hexdigest() == (
        "6943693b58d617f1af6e2f3257dbdb599b93154c8d6fb3d1ca9182285d1af50c")


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


def test_example1_field_facts(fresh_process):
    # 2^2310 - 1 is only partly factored; the rho step cap fixes which part.
    # The fixtures pin the generators that the search returns today.
    pinned = example1().plan.ctx
    fresh_process()
    F = make_field(2310, EXAMPLE1_MODULUS)
    assert F is not pinned and F.modulus == pinned.modulus
    assert F.generator.v == pinned.generator.v == 3
    assert len(F.order_factorization) == 48
    assert F.order_cofactor.bit_length() == 1326
    assert F.generator_verified is False
    # the pinned context factors on first read, to the same facts
    for attr in ("order_factorization", "order_cofactor",
                 "generator_verified"):
        assert getattr(pinned, attr) == getattr(F, attr)
    assert make_field(60, smallest_irreducible(60)).generator.v == \
        example2().plan.ctx.generator.v == 2


def test_pinned_and_searched_contexts_share_the_cache(fresh_process):
    # one context per (N, modulus, generator), whichever request comes first
    f = smallest_irreducible(30)
    pinned = make_field(30, f, 19)
    assert "_order_facts" not in vars(pinned)  # nothing factored yet
    searched = make_field(30)
    assert searched is pinned and make_field(30, f) is pinned
    assert pinned.generator_verified is True
    # another defining generator gets its own context; the search's stays
    other = make_field(30, None, 2)
    assert other.generator.v == 2 and other is not pinned
    assert make_field(30) is pinned and make_field(30, f, 2) is other
    # searched first, then pinned: the pinned request is served from cache
    fresh_process()
    searched = make_field(12)
    assert make_field(12, None, searched.generator.v) is searched


def test_pinned_context_facts_match_the_search(fresh_process):
    # 2^61 - 1 is prime; 2^12 - 1 and 2^60 - 1 factor completely
    for n in (12, 60, 61):
        searched = make_field(n)
        fresh_process()
        pinned = make_field(n, None, searched.generator.v)
        assert pinned is not searched
        for attr in ("order_factorization", "order_cofactor",
                     "generator_verified"):
            assert getattr(pinned, attr) == getattr(searched, attr)
        assert pinned.generator_verified is True
    # a defining generator of short order is pinned, then not verified
    gf16 = make_field(4, 0b10011, 0b1111)  # x^3 + x^2 + x + 1 has order 5
    assert gf16.generator_verified is False


def _count_factoring(monkeypatch):
    # each entry is one 2^N - 1 factored; callers take fresh_process, so
    # that the cache starts empty, as in a new process
    calls = []
    real = field_tower._factor_mersenne_like

    def counted(n_bits):
        calls.append(n_bits)
        return real(n_bits)

    monkeypatch.setattr(field_tower, "_factor_mersenne_like", counted)
    return calls


@pytest.mark.parametrize("n", [12, 60])
def test_one_factoring_per_search_and_none_per_cached_request(
        monkeypatch, fresh_process, n):
    # the search's field, asked for again by its modulus and by its
    # generator, is served from the cache, and its order facts read the
    # search's factorization
    calls = _count_factoring(monkeypatch)
    searched = make_field(n)
    assert make_field(n, smallest_irreducible(n)) is searched
    assert make_field(n, None, searched.generator.v) is searched
    assert searched.generator_verified is True
    assert calls == [n]


def test_building_a_plan_factors_once(monkeypatch, fresh_process):
    # the generator search factors 2^30 - 1; the primitivity checks of the
    # points factor only their small subfields' orders
    calls = _count_factoring(monkeypatch)
    build_plan_c1(1, [3, 3], s=2, primes=[3, 5])
    assert calls == [30]


@pytest.mark.parametrize("n", [12, 60, 210])
def test_subfield_order_factorization_is_factored_directly(fresh_process,
                                                           n):
    # the same facts from a searched context, its order facts read first,
    # and from a pinned one that never factored 2^N - 1
    searched = make_field(n)
    assert searched.order_cofactor == 1
    fresh_process()
    pinned = make_field(n, None, searched.generator.v)
    assert pinned is not searched
    for m in (m for m in range(1, n + 1) if n % m == 0):
        want = tuple(factor_integer((1 << m) - 1)) if m > 1 else ()
        assert searched.subfield(m).order_factorization == want
        assert pinned.subfield(m).order_factorization == want
    assert "_order_facts" not in vars(pinned)


def test_pinned_generator_must_be_defining():
    for bad in (0, 1, 1 << 4, 0b110):  # 0b110 = x^2 + x lies in GF(4)
        with pytest.raises(PERepairError) as err:
            make_field(4, 0b10011, bad)
        assert err.value.code == "CONSTRAINT_VIOLATION"
    assert make_field(1, None, 1).generator_verified is True


def test_factor_integer_rejects_small():
    with pytest.raises(ValueError):
        factor_integer(1)


# ---------------------------------------------------------------- field ctx


def test_aes_field_oracle():
    F = make_field(8, 0b100011011)
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


def test_reprs_name_the_field(gf16):
    assert repr(gf16.elem(3)) == "FieldElem(3)"
    assert repr(gf16) == "FieldCtx(GF(2^4), modulus=0x13)"
    assert repr(gf16.subfield(2)) == "SubfieldHandle(GF(2^2) in GF(2^4))"


def test_gf2_inverse():
    F = make_field(1)
    assert F.one.inverse().v == 1
    with pytest.raises(PERepairError) as err:
        F.zero.inverse()
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


def _oracle_pow(a, k, modulus):
    """a^k by right-to-left square-and-multiply on the oracle's products."""
    r = 1
    while k:
        if k & 1:
            r = oracle.field_mul(r, a, modulus)
        a = oracle.field_mul(a, a, modulus)
        k >>= 1
    return r


@pytest.mark.parametrize("n", [60, 210])
def test_pow_matches_the_oracle_across_the_digit_switch(n):
    # binary digits up to 16 bits, hex digits above: both sides of the
    # switch, and the powers of the order test at every prime found
    f = smallest_irreducible(n)
    ctx = field_tower.FieldCtx(n, f, 1)
    order = (1 << n) - 1
    primes = field_tower._factor_mersenne_like(n)[0]
    exponents = [0, 1, 2, 3, (1 << 16) - 1, 1 << 16, (1 << 16) + 1]
    exponents += [order // p for p in primes]
    rng = random.Random(n)
    for a in (0, 2, rng.getrandbits(n)):
        for k in exponents:
            assert ctx._pow(a, k) == _oracle_pow(a, k, f), (a, k)


def test_pow_products_follow_the_digits(monkeypatch, gf64):
    # one squaring per bit (binary) or four per hex digit after the
    # first, one product per later nonzero digit, and the table's 14
    calls = counting(monkeypatch, field_tower.FieldCtx, ["_mul", "_sq"])
    for k, muls, sqs in ((1, 0, 0), (0b1011, 2, 3), ((1 << 16) - 1, 15, 15),
                         (1 << 16, 14, 16), (0x10f00, 14 + 1, 16)):
        before = dict(calls)
        gf64._pow(2, k)
        assert (calls["_mul"] - before["_mul"],
                calls["_sq"] - before["_sq"]) == (muls, sqs), k


def test_negative_exponent_is_refused(gf64):
    # no inverse by a negative power: inverse() is the one spelling
    for k in (-1, -63):
        with pytest.raises(ValueError, match="non-negative"):
            gf64.generator ** k


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
    assert F.from_hex("3ff").v == F.from_hex("3FF").v == 1023
    # "3f" and "03ff" hold a field value, but not in the fixed width
    for bad in ("400", "", "3f", "03ff", "0x3ff", "+3ff", "3_ff", " 3ff",
                "\u0663ff"):
        with pytest.raises(ValueError):
            F.from_hex(bad)


def test_cross_field_operations_rejected(gf16, gf64):
    with pytest.raises(ValueError):
        gf16.one + gf64.one
    with pytest.raises(ValueError):
        gf16.elem(16)


def test_division_and_int_operands(gf16):
    # / is * by inverse(); an int in range is the element of that value
    for a in range(16):
        x = gf16.elem(a)
        for b in range(1, 16):
            y = gf16.elem(b)
            assert x / y == x * y.inverse() == x / b
            assert x + b == b + x == x + y
            assert x * b == b * x == x * y
    x = gf16.generator
    with pytest.raises(PERepairError) as err:
        x / 0
    assert err.value.code == "ZERO_INVERSE"
    with pytest.raises(PERepairError) as err:
        x / gf16.zero
    assert err.value.code == "ZERO_INVERSE"
    for bad in (16, -1):
        for op in (lambda: x / bad, lambda: x * bad, lambda: bad + x):
            with pytest.raises(ValueError, match="int out of range"):
                op()
    # a str is not coerced: every operator returns NotImplemented
    for op in (lambda: x / "2", lambda: x * "2", lambda: "2" * x,
               lambda: x + "2", lambda: "2" - x):
        with pytest.raises(TypeError):
            op()
    assert x != "2" and not x == "2"


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
        assert gamma ** (1 << m) == gamma
        assert is_primitive_in_subfield(gamma, sub)
        if m > 1:
            assert degree_over(gf4096, gamma.v, 1) == m
    with pytest.raises(PERepairError) as err:
        gf4096.subfield(5)
    assert err.value.code == "NOT_A_SUBFIELD_DEGREE"
    with pytest.raises(PERepairError):
        gf4096.subfield(0)


def test_unprimitive_generator_is_an_invariant_violation():
    # a trusted generator is not checked up front: generator 1 of GF(2^4)
    # gives a canonical GF(4) generator of degree 1, reported with a code
    ctx = field_tower.FieldCtx(4, 0b10011, 1)
    with pytest.raises(PERepairError) as err:
        ctx.subfield(2)
    assert err.value.code == "INVARIANT_VIOLATION"
    assert ctx._subfields == {}  # the failed handle is not kept
    # under the reducible x^4 + 1, x^(2^d) never returns to x
    ring = field_tower.FieldCtx(4, 0b10001, 2)
    with pytest.raises(PERepairError) as err:
        degree_over(ring, 0b10, 1)
    assert err.value.code == "INVARIANT_VIOLATION"


def test_canonical_generators_by_norms_equal_the_powers():
    # every gamma_m, requested in a shuffled order on a fresh context, is
    # g^((2^N - 1)/(2^m - 1)), whatever intermediate fields it went through
    fields = []
    for n in (12, 60, 210):
        F = make_field(n)
        fields.append((n, F.modulus, F.generator.v,
                       [m for m in range(1, n + 1) if n % m == 0]))
    fields.append((2310, EXAMPLE1_MODULUS, 3,
                   [1, 2, 3, 5, 7, 11, 105, 165, 231, 385, 770, 1155, 2310]))
    rng = random.Random(32)
    for n, modulus, g, degrees in fields:
        rng.shuffle(degrees)
        ctx = field_tower.FieldCtx(n, modulus, g)
        for m in degrees:
            assert ctx._gamma(m) == ctx._pow(g, ctx.order // ((1 << m) - 1)), \
                (n, m)


def test_intermediate_generators_are_never_checked(fresh_process):
    # generator 3 of GF(2^12) is not primitive: gamma_6 has a smaller
    # degree, while gamma_3, its norm, is defining; gamma_3 passes through
    # gamma_6 as a bare value, and only a handle for GF(2^6) refuses it
    modulus = smallest_irreducible(12)
    ctx = make_field(12, modulus, 3)
    assert ctx.subfield(3).canonical_generator.v == 0xb1
    with pytest.raises(PERepairError) as err:
        ctx.subfield(6)
    assert err.value.code == "INVARIANT_VIOLATION"
    assert list(ctx._subfields) == [3]
    # the other order, on a fresh context: the refusal keeps no handle
    fresh_process()
    ctx = make_field(12, modulus, 3)
    with pytest.raises(PERepairError) as err:
        ctx.subfield(6)
    assert err.value.code == "INVARIANT_VIOLATION"
    assert ctx._subfields == {}
    assert ctx.subfield(3).canonical_generator.v == 0xb1


def test_example1_subfield_generators_cost_norm_steps(monkeypatch,
                                                       fresh_process):
    # squarings, not seconds: the build checks the modulus (2310) and g
    # (1155), climbs once to GF(2^1155) (1155), takes four norms down from
    # it (4594) and spends 81 on the points and the checks, 9,295 in
    # all; the repair subfields take four more norms (3734) and their
    # degree checks (244), 3,978.  By powers of g, the same work took
    # 13,927 and 9,234 squarings.
    monkeypatch.setattr(fixtures, "_cache", {})
    calls = counting(monkeypatch, field_tower.FieldCtx, ["_sq"])
    ctx = example1().plan.ctx
    assert calls["_sq"] <= 9500
    calls["_sq"] = 0
    for m in (385, 231, 165, 105):
        ctx.subfield(m)
    assert calls["_sq"] <= 4000


def test_subfield_membership_count(gf4096):
    members = sum(
        1 for v in range(4096) if gf4096.elem(v) ** (1 << 4) == gf4096.elem(v)
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
        assert ta ** (1 << 3) == ta
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
    ctx = e.ctx
    acc = cur = e.v
    for _ in range(ctx.degree_bits // m - 1):
        for _ in range(m):
            cur = ctx._sq(cur)
        acc ^= cur
    return ctx.elem(acc)


# the default moduli x^60 + x^59 + 1 and x^210 + x^203 + 1 have dense tails
# (6 and 5 rounds of _fold's quotient); x^42 + x^7 + x^4 + x^3 + 1 takes one
@pytest.mark.parametrize("degree, modulus", [
    (60, None), (210, None),
    (42, (1 << 42) | (1 << 7) | (1 << 4) | (1 << 3) | 1),
])
def test_trace_to_is_the_frobenius_sum(degree, modulus):
    F = make_field(degree, modulus)
    rng = random.Random(degree)
    for m in (m for m in range(1, degree + 1) if degree % m == 0):
        sub = F.subfield(m)
        for _ in range(3):
            e = F.elem(rng.getrandbits(degree))
            assert trace_to(e, sub) == _trace_by_squarings(e, m)


@pytest.mark.parametrize("degree, f", [
    pytest.param(60, (1 << 60) | (1 << 59) | 1, id="60"),  # stride 1
    pytest.param(210, (1 << 210) | (1 << 203) | 1, id="210"),
    pytest.param(2310,
                 (1 << 2310) | (1 << 2308) | (1 << 2305) | (1 << 2302) | 1,
                 id="2310-pentanomial"),
    pytest.param(2310, EXAMPLE1_MODULUS, id="2310-example1"),
    pytest.param(42, (1 << 42) | (1 << 7) | (1 << 4) | (1 << 3) | 1,
                 id="42-sparse"),
    # an irreducible x^100 + x^99 + ... + 1 with a tail of weight 54
    pytest.param(100, 0x1c6dd451b26bcefab3a3b48c4b, id="100-heavy-tail"),
])
def test_dense_tail_products_are_remainders(degree, f):
    ctx = field_tower.FieldCtx(degree, f, 1)  # arithmetic only
    rng = random.Random(degree)
    top = (1 << degree) - 1
    pairs = [(top, top), (top, 1), (1 << (degree - 1), 1 << (degree - 1))]
    pairs += [(rng.getrandbits(degree), rng.getrandbits(degree))
              for _ in range(50)]
    for a, b in pairs:
        assert ctx._mul(a, b) == oracle.field_mul(a, b, f)
        assert ctx._sq(a) == oracle.field_mul(a, a, f)


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


@pytest.mark.parametrize("degree, m", [
    (60, 12), (60, 20), (60, 30), (210, 3), (210, 5), (2310, 385)])
def test_trace_coordinate_tables_match_the_trace_masks(degree, m):
    # the 4-bit tables against the masks psi_l = _trace_functional(c_l)
    # they are transposed from, recomputed here; N = 60 and N = 210 are
    # not multiples of 8 and take an odd number of tables, 15 and 53
    F = example1().plan.ctx if degree == 2310 else make_field(degree)
    sub = F.subfield(m)
    duals, tables = sub._trace_duals
    assert len(tables) == -(-degree // 4)
    assert all(len(t) == 16 for t in tables)
    psi = [F._trace_functional(c) for c in duals]
    rng = random.Random(degree + m)
    values = [0, (1 << degree) - 1] + [1 << i for i in range(degree)]
    values += [rng.getrandbits(degree) for _ in range(20)]
    for v in values:
        assert sub._trace_coords(v) == field_tower._parities(v, psi)


def test_power_duals_meet_the_trace_definition(toy_c1, toy_c1_wide, toy_c2):
    # Tr_{F/K}(delta^l y_l') = [l = l'] for F = GF(q^{u_i}) over every
    # residue field K of a Construction-1 plan, delta F's canonical
    # generator, with Tr_{F/K} the sum of r = [F : K] conjugates by the
    # oracle's squarings.  toy_c1 has only r = 1; on toy_c1_wide, [E : F]
    # is even, so Tr_{E/K} (oracle_trace) is 0 on F and cannot stand in
    seen = set()
    for plan in (toy_c1, toy_c1_wide):
        ctx, a = plan.ctx, plan.base_bits
        modulus = ctx.modulus
        for gi in range(len(plan.groups)):
            F = ctx.subfield(a * plan.u_list[gi])
            others = [j for j in range(len(plan.groups)) if j != gi]
            for size in range(1, len(others) + 1):
                for R in itertools.combinations(others, size):
                    m = a * math.prod(plan.groups[j].prime for j in R)
                    r = F.degree_bits // m
                    ys = F._power_duals(m)
                    assert len(ys) == r
                    power = 1
                    for l in range(r):
                        for l2, y in enumerate(ys):
                            x = oracle.field_mul(power, y, modulus)
                            tr = 0
                            for _ in range(r):
                                tr ^= x
                                x = oracle_frobenius(x, m, modulus)
                            assert tr == (l == l2)
                        power = oracle.field_mul(
                            power, F.canonical_generator.v, modulus)
                    seen.add(r)
    assert seen == {1, 3, 5, 7}
    # Construction 2's duals, of alpha's powers over K = GF(q^{u_i}) with
    # r = [E : K] = p_i at every node: E = K(alpha), so Tr_{E/K} is
    # oracle_trace, and the duals are a fresh dual_basis's
    seen = set()
    for plan in (toy_c2, example2().plan):
        ctx, modulus = plan.ctx, plan.ctx.modulus
        for node, alpha in enumerate(plan.eval_set.points):
            gi, _ = plan.locate(node)
            m, r = plan.base_bits * plan.u_list[gi], plan.groups[gi].prime
            ys = ctx._power_duals(alpha.v, m, r)
            powers = [alpha ** l for l in range(r)]
            fresh = dual_basis(BasisOverSubfield(ctx.subfield(m), powers))
            assert list(ys) == [y.v for y in fresh]
            for l, power in enumerate(powers):
                for l2, y in enumerate(ys):
                    assert oracle_trace(oracle.field_mul(power.v, y, modulus),
                                        m, modulus) == (l == l2)
            seen.add((ctx.degree_bits, m, r))
    assert seen == {(12, 6, 2), (12, 4, 3),
                    (60, 30, 2), (60, 20, 3), (60, 12, 5)}


def test_power_duals_refuse_zeta_of_too_low_degree(toy_c1_wide):
    # b(zeta) = 0 when zeta's degree over K = GF(2^m) is below r: zeta in
    # K, zeta of an intermediate degree and zeta = 0 each raise
    # ZERO_INVERSE and return no duals
    for ctx, zeta, m, r in (
            (example2().plan.ctx, 12, 12, 5),
            (example2().plan.ctx, 30, 6, 10),
            (toy_c1_wide.ctx, 15, 3, 35),
            (toy_c1_wide.ctx, 0, 5, 42)):
        z = ctx.subfield(zeta).canonical_generator.v if zeta else 0
        assert zeta == 0 or degree_over(ctx, z, m) < r
        with pytest.raises(PERepairError) as err:
            ctx._power_duals(z, m, r)
        assert err.value.code == "ZERO_INVERSE"


@pytest.mark.parametrize("degree, m", [(30, 5), (60, 12), (210, 35)])
def test_subfield_coordinates_invert_the_lift(degree, m):
    # _coords solves against the basis gamma^0..gamma^(m-1): 0, the basis
    # itself and random elements of K come back to the coordinates they
    # lift from, and an element outside K, the ambient generator, is
    # refused
    F = make_field(degree)
    sub = F.subfield(m)
    rng = random.Random(degree * m)
    zs = [0] + [1 << l for l in range(m)]
    zs += [rng.getrandbits(m) for _ in range(20)]
    for z in zs:
        assert sub._coords(sub._lift(z)) == z
    with pytest.raises(PERepairError) as ei:
        sub._coords(F.generator.v)
    assert ei.value.code == "INVARIANT_VIOLATION"


def test_degree_histograms(gf64):
    hist = {}
    for v in range(64):
        d = degree_over(gf64, v, 1)
        hist[d] = hist.get(d, 0) + 1
    assert hist == {1: 2, 2: 2, 3: 6, 6: 54}
    hist2 = {}
    for v in range(64):
        d = degree_over(gf64, v, 2)
        hist2[d] = hist2.get(d, 0) + 1
    assert hist2 == {1: 4, 3: 60}


def test_degree_test_compares_at_every_maximal_divisor(gf64):
    # v of degree d lies in GF(2^m) for every m that d divides, and has
    # degree m there only when d = m: in GF(2^6) a degree-2 element is
    # caught at 6/3 = 2 squarings and a degree-3 one at 6/2 = 3
    checked = 0
    for v in range(64):
        d = degree_over(gf64, v, 1)
        for m in (1, 2, 3, 6):
            if m % d == 0:
                assert gf64._has_degree(v, m) == (d == m), (v, m)
                checked += 1
    assert checked == 2 * 4 + 2 * 2 + 6 * 2 + 54


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


def _independent(sub, vectors):
    # independent over K = GF(2^m) iff their products with a GF(2)-basis of
    # K have GF(2)-rank m per vector
    F = sub.ctx
    rows = [F._mul(v.v, c) for v in vectors for c in sub.gf2_basis]
    return gf2_rank(rows) == len(vectors) * sub.degree_bits


def test_dependent_vectors_rejected(gf4096):
    sub = gf4096.subfield(3)
    g = gf4096.generator
    dependent = [gf4096.one, g, gf4096.one + g, g ** 2]
    assert not _independent(sub, dependent)
    # the right number of dependent vectors fails in dual_basis: the trace
    # form is nondegenerate, so their Gram matrix is singular (a repair's B
    # basis relies on this one check)
    with pytest.raises(PERepairError) as err:
        dual_basis(BasisOverSubfield(sub, dependent))
    assert err.value.code == "SINGULAR_GRAM"


def test_partial_basis_allowed_but_not_dualizable(gf4096):
    sub = gf4096.subfield(3)
    partial = BasisOverSubfield(sub, [gf4096.one, gf4096.generator])
    assert len(partial) == 2
    with pytest.raises(PERepairError) as err:
        dual_basis(partial)
    assert err.value.code == "SINGULAR_GRAM"


# ------------------------------------- dual basis against the trace's definition


def _absolute_trace_mask(F):
    # bit k is Tr_{E/GF(2)}(x^k), by squarings; Tr(y^2) = Tr(y), so an even
    # k repeats k / 2
    tau = 0
    for k in range(F.degree_bits):
        if k and k % 2 == 0:
            bit = (tau >> (k // 2)) & 1
        else:
            bit = _trace_by_squarings(F.elem(1 << k), 1).v
        tau |= bit << k
    return tau


def _functional_mask(F, tau, a):
    # bit k is Tr_{E/GF(2)}(a x^k); a x^k by one shift and reduction a step
    w = 0
    for k in range(F.degree_bits):
        w |= ((a & tau).bit_count() & 1) << k
        a <<= 1
        if a >> F.degree_bits:
            a ^= F.modulus
    return w


def _assert_trace_dual(basis, dual, tau):
    # Tr_{E/K}(x) = Tr_{E/K}(e) iff Tr_{E/GF(2)}(c x) = Tr_{E/GF(2)}(c e) for
    # every c in a GF(2)-basis of K (transitivity; the trace form of K is
    # nondegenerate), so Tr_{E/K}(b_i d_j) = delta_ij is checked against
    # e0 of trace 1 with absolute traces alone
    sub = basis.subfield
    F = sub.ctx
    m = sub.degree_bits
    r = next(F.generator ** k for k in itertools.count(1)
             if _trace_by_squarings(F.generator ** k, m))
    e0 = r * _trace_by_squarings(r, m).inverse()
    gammas = [F.elem(c) for c in sub.gf2_basis]
    assert gf2_rank(c.v for c in gammas) == m
    one = [((c * e0).v & tau).bit_count() & 1 for c in gammas]
    for i, bi in enumerate(basis):
        for l, c in enumerate(gammas):
            w = _functional_mask(F, tau, (c * bi).v)
            for j, dj in enumerate(dual):
                assert (dj.v & w).bit_count() & 1 == (one[l] if i == j else 0)


@pytest.mark.parametrize("degree", [12, 30, 60, 210])
def test_dual_basis_meets_the_trace_definition(degree):
    # every subfield, so the Gram matrix is built both ways and the b side
    # takes both kinds of row operation; random vectors, redrawn while
    # dependent over K, when the Gram solve must refuse them as well
    F = make_field(degree)
    tau = _absolute_trace_mask(F)
    rng = random.Random(degree)
    for m in (m for m in range(1, degree + 1) if degree % m == 0):
        sub = F.subfield(m)
        while True:
            vectors = [F.elem(rng.getrandbits(degree))
                       for _ in range(degree // m)]
            basis = BasisOverSubfield(sub, vectors)
            if _independent(sub, vectors):
                break
            with pytest.raises(PERepairError) as err:
                dual_basis(basis)
            assert err.value.code == "SINGULAR_GRAM"
        _assert_trace_dual(basis, dual_basis(basis), tau)


def test_dual_basis_finds_a_dependency_at_the_last_pivot():
    F = make_field(210)
    sub = F.subfield(3)
    c = F.elem(random.Random(70).getrandbits(210) | 1)
    vectors = [c * F.generator ** i for i in range(69)]
    gamma = sub.canonical_generator
    # 1, g, ..., g^69 is a basis over GF(2^3): the first 69 are independent
    dual_basis(BasisOverSubfield(sub, vectors + [c * F.generator ** 69]))
    dependent = vectors + [gamma * vectors[3] + gamma ** 5 * vectors[40]]
    with pytest.raises(PERepairError) as err:
        dual_basis(BasisOverSubfield(sub, dependent))
    assert err.value.code == "SINGULAR_GRAM"


# clmul calls of one solve at the parent of the O(N) Gram solve: 13,698
# (m = 3) and 5,369 (m = 5), one product per Gram entry and row operation.
# Products that share an operand may go through a byte table
# (FieldCtx._scaler), so those count too, with the trace functionals'
@pytest.mark.parametrize("m", [3, 5])
def test_small_subfield_dual_basis_costs_o_n_products(monkeypatch, m):
    F = make_field(210)
    sub = F.subfield(m)
    c = F.elem(random.Random(m).getrandbits(210) | 1)
    basis = BasisOverSubfield(
        sub, [c * F.generator ** i for i in range(210 // m)])
    want = [e.v for e in dual_basis(basis)]  # also fills the handle's caches
    calls = counting(monkeypatch, field_tower, ["clmul", "_clmul_by_table"])
    assert [e.v for e in dual_basis(basis)] == want
    assert sum(calls.values()) <= 2000
