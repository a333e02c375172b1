import itertools
import random

import pytest

from perepair import rs_codes
from perepair.constructions import load_plan, save_plan
from perepair.errors import PERepairError
from perepair.field_tower import make_field
from perepair.fixtures import by_name
from perepair.rs_codes import (
    Codeword,
    EvaluationSet,
    MessagePoly,
    annihilator,
    dual_multipliers,
    encode,
    naive_decode,
    poly_eval,
)

from conftest import check_plan_encoding, counting, gf2_poly, oracle


def points_of(ctx, values):
    return EvaluationSet(ctx, [ctx.elem(v) for v in values])


def random_message(ctx, k, rng):
    return MessagePoly([ctx.elem(rng.randrange(1 << ctx.degree_bits)) for _ in range(k)])


def test_constant_message_encodes_constant(gf16):
    A = points_of(gf16, [1, 2, 3, 4, 5])
    c = encode(MessagePoly([gf16.elem(9)]), A)
    assert all(s.v == 9 for s in c.symbols)


def test_encode_matches_pointwise_evaluation(gf16):
    rng = random.Random(2)
    A = points_of(gf16, [1, 2, 3, 4, 5])
    for _ in range(50):
        f = random_message(gf16, 2, rng)
        c = encode(f, A)
        for p, s in zip(A.points, c.symbols):
            # naive evaluation: c0 + c1*p
            assert s == f.coefficients[0] + f.coefficients[1] * p


def test_encode_is_linear(gf64):
    rng = random.Random(3)
    A = points_of(gf64, [5, 9, 17, 33, 1, 2])
    for _ in range(50):
        f = random_message(gf64, 3, rng)
        g = random_message(gf64, 3, rng)
        fg = MessagePoly([a + b for a, b in zip(f.coefficients, g.coefficients)])
        cf, cg, cfg = encode(f, A), encode(g, A), encode(fg, A)
        assert [s.v for s in cfg.symbols] == [
            (a + b).v for a, b in zip(cf.symbols, cg.symbols)
        ]


def _plan(request, name):
    """A worked example's plan, or a conftest fixture's."""
    if name.startswith("example"):
        return by_name(name).plan
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["toy_c1", "toy_c2", "toy_c1_wide",
                                  "example1", "example2"])
def test_plan_encode_reduces_by_minimal_polynomials(request, name):
    plan = _plan(request, name)
    # the oracle's shift-and-xor products take ~1.5 ms each at N = 2310
    oracle_ks = {1, plan.k} if plan.ctx.degree_bits > 210 else None
    check_plan_encoding(plan, random.Random(name), oracle_ks)


@pytest.mark.parametrize("name, first, later", [
    # (products, byte tables) of a plan's first encode, with no tables
    # memoized yet, and of every later one.  n = 9, k = 2 over GF(2^210):
    # 3.2 Mbit of digit tables, built by n(k - 1) products; later encodes
    # are lookups alone
    pytest.param("toy_c1_wide", (9, 0), (0, 0), id="toy_c1_wide-9"),
    # its tables would take 2 Gbit, so every encode is by Horner: 84
    # products plain, 57 after the reduction; GF(2^2310) is wide, so one
    # byte table per point
    pytest.param("example1", (57, 12), (57, 12), id="example1-57"),
    # 2.2 Mbit of tables, built by 17 * 8 products
    pytest.param("example2", (136, 0), (0, 0), id="example2-136"),
])
def test_encode_costs_min_degree_k_products_per_point(request, monkeypatch,
                                                      name, first, later):
    plan = _plan(request, name)
    ctx = plan.ctx
    rng = random.Random(1)
    msgs = [random_message(ctx, plan.k, rng) for _ in range(3)]
    wants = [[msg.evaluate(p) for p in plan.eval_set.points] for msg in msgs]
    monkeypatch.setattr(ctx, "_encoders", {})
    # a product goes through ctx._mul, or a point's byte table in a wide
    # field
    muls = counting(monkeypatch, ctx, ("_mul",))
    tabled = counting(monkeypatch, rs_codes, ("_clmul_by_table", "_byte_table"))

    def spent():
        return muls["_mul"] + tabled["_clmul_by_table"], tabled["_byte_table"]

    for msg, want, cost in zip(msgs, wants, (first, later, later)):
        before = spent()
        assert list(encode(msg, plan.eval_set).symbols) == want
        assert tuple(a - b for a, b in zip(spent(), before)) == cost


def test_narrow_sets_over_the_size_rule_encode_by_horner():
    # n = 20 over GF(2^60): the tables of k = 14 take 4.03 Mbit and are
    # built; those of k = 15 would take 4.32 Mbit, at least 2^22, so that
    # code keeps Horner by the 4-bit window
    ctx = make_field(60)
    rng = random.Random(6)
    A = points_of(ctx, rng.sample(range(1, 1 << 60), 20))
    for k, tabled in ((14, True), (15, False)):
        assert (rs_codes._encode_tables(A, k) is not None) == tabled
        msg = random_message(ctx, k, rng)
        coeffs = [c.v for c in msg.coefficients]
        assert [s.v for s in encode(msg, A).symbols] == [
            oracle.horner(coeffs, p.v, ctx.modulus) for p in A.points]


def test_plans_with_the_same_field_and_points_share_one_table_set(
        toy_c1, tmp_path):
    # load_plan rebuilds the plan with its own evaluation set, on the same
    # field context, which keeps the tables
    save_plan(toy_c1, tmp_path / "toy.plan")
    loaded = load_plan(tmp_path / "toy.plan")
    assert loaded.eval_set is not toy_c1.eval_set
    tables = rs_codes._encode_tables(toy_c1.eval_set, toy_c1.k)
    assert tables is not None
    assert rs_codes._encode_tables(loaded.eval_set, loaded.k) is tables
    msg = random_message(toy_c1.ctx, toy_c1.k, random.Random(8))
    assert (encode(msg, loaded.eval_set).symbols
            == encode(msg, toy_c1.eval_set).symbols)


def test_encode_with_given_minimal_polynomials(gf16):
    # 0 and 1 have x and x + 1; the others are found by search, the first
    # bit mask that vanishes at the point being its minimal polynomial
    values = [0, 1, 2, 3, 6, 7, 10, 12]
    pts = [gf16.elem(v) for v in values]
    mus = [next(mu for mu in itertools.count(2)
                if poly_eval(gf2_poly(gf16, mu), p) == 0) for p in pts]
    assert mus[:3] == [0b10, 0b11, 0b10011]
    assert sorted({mu.bit_length() - 1 for mu in mus}) == [1, 2, 4]
    plain = EvaluationSet(gf16, pts)
    reduced = EvaluationSet(gf16, pts, mus)
    assert reduced.digest() == plain.digest()
    rng = random.Random(4)
    for k in range(1, len(pts) + 1):
        for _ in range(10):
            msg = random_message(gf16, k, rng)
            want = [msg.evaluate(p).v for p in pts]
            assert [s.v for s in encode(msg, plain).symbols] == want
            assert [s.v for s in encode(msg, reduced).symbols] == want
            coeffs = [c.v for c in msg.coefficients]
            assert want == [oracle.horner(coeffs, p.v, gf16.modulus)
                            for p in pts]


def test_minimal_polynomials_one_per_point(gf16):
    pts = [gf16.elem(v) for v in (2, 3)]
    for bad in ([0b10011], [0b10011, 1], [0b10011, 0]):
        with pytest.raises(ValueError):
            EvaluationSet(gf16, pts, bad)


def test_encode_refuses_a_message_from_another_field(gf16, gf64):
    with pytest.raises(ValueError):
        encode(MessagePoly([gf64.one, gf64.one]), points_of(gf16, [1, 2]))


def test_dimension_exceeds_length(gf16):
    A = points_of(gf16, [1, 2, 3])
    with pytest.raises(PERepairError) as err:
        encode(MessagePoly([gf16.one] * 4), A)
    assert err.value.code == "DIMENSION_EXCEEDS_LENGTH"


def test_duplicate_points_rejected(gf16):
    with pytest.raises(PERepairError) as err:
        points_of(gf16, [1, 2, 1])
    assert err.value.code == "DUPLICATE_INDEX"


def syndrome(c, g, v, A):
    # the dual-code check sum_i v_i g(alpha_i) c_i: zero on every codeword
    # when deg g <= n - k - 1
    return sum((vi * poly_eval(g, ai) * ci
                for vi, ai, ci in zip(v, A.points, c.symbols)), A.ctx.zero)


def test_dual_multipliers_small_cases(gf16):
    single = dual_multipliers(points_of(gf16, [7]))
    assert [e.v for e in single] == [1]  # empty product
    a, b = gf16.elem(3), gf16.elem(11)
    pair = dual_multipliers(EvaluationSet(gf16, [a, b]))
    assert pair == ((a - b).inverse(), (b - a).inverse())


def test_grs_duality_exhaustive_monomials(gf16):
    # sum_i v_i alpha_i^w f(alpha_i) = 0 for deg f < k, w <= n-k-1
    A = points_of(gf16, [1, 2, 4, 8, 3])
    v = dual_multipliers(A)
    n, k = 5, 2
    for fdeg in range(k):
        f = [gf16.zero] * fdeg + [gf16.one]
        c = encode(MessagePoly(f + [gf16.zero] * (k - 1 - fdeg)), A)
        for w in range(n - k):
            g = [gf16.zero] * w + [gf16.one]
            assert syndrome(c, g, v, A).v == 0


def test_parity_zero_codeword(gf16):
    A = points_of(gf16, [1, 2, 3, 4])
    v = dual_multipliers(A)
    c = Codeword([gf16.zero] * 4, A.digest())
    assert syndrome(c, [gf16.one], v, A).v == 0


def test_parity_detects_corruption(gf64):
    rng = random.Random(5)
    A = points_of(gf64, [1, 2, 3, 4, 5, 6])
    v = dual_multipliers(A)
    k = 2
    for _ in range(30):
        c = encode(random_message(gf64, k, rng), A)
        pos = rng.randrange(6)
        bad = list(c.symbols)
        bad[pos] = bad[pos] + gf64.one
        corrupted = Codeword(bad, c.plan_digest)
        hits = [
            syndrome(corrupted, [gf64.zero] * w + [gf64.one], v, A).v
            for w in range(6 - k)
        ]
        assert any(hits)


def test_grs_duality_random(gf64):
    rng = random.Random(7)
    A = points_of(gf64, [9, 18, 27, 36, 45, 54, 63])
    v = dual_multipliers(A)
    k = 3
    for _ in range(1000):
        c = encode(random_message(gf64, k, rng), A)
        g = [gf64.elem(rng.getrandbits(6)) for _ in range(rng.randrange(1, 7 - k))]
        g.append(gf64.one)
        assert syndrome(c, g, v, A).v == 0


def test_annihilator_small(gf16):
    assert [e.v for e in annihilator([], gf16)] == [1]
    a, b = gf16.elem(5), gf16.elem(9)
    h = annihilator([a, b])
    assert h[2].v == 1  # monic
    assert h[1] == a + b
    assert h[0] == a * b
    assert poly_eval(h, a).v == 0 and poly_eval(h, b).v == 0


def test_annihilator_random_roots(gf64):
    rng = random.Random(11)
    roots = [gf64.elem(v) for v in rng.sample(range(64), 4)]
    h = annihilator(roots)
    assert len(h) == 5 and h[4].v == 1
    for r in roots:
        assert poly_eval(h, r).v == 0
    misses = 0
    for _ in range(20):
        x = gf64.elem(rng.randrange(64))
        if x not in roots:
            assert poly_eval(h, x).v != 0
            misses += 1
    assert misses > 0


def test_decode_constant(gf16):
    A = points_of(gf16, [1, 2, 3])
    m = naive_decode([(1, gf16.elem(12))], A)
    assert [e.v for e in m.coefficients] == [12]


def test_decode_round_trip_all_subsets(gf64):
    rng = random.Random(13)
    A = points_of(gf64, [1, 2, 3, 4, 5, 6])
    f = random_message(gf64, 2, rng)
    c = encode(f, A)
    for subset in itertools.combinations(range(6), 2):
        m = naive_decode([(i, c.symbols[i]) for i in subset], A)
        assert [e.v for e in m.coefficients] == [e.v for e in f.coefficients]


def test_decode_rejects_duplicates(gf16):
    A = points_of(gf16, [1, 2, 3])
    with pytest.raises(PERepairError) as err:
        naive_decode([(0, gf16.one), (0, gf16.one)], A)
    assert err.value.code == "DUPLICATE_INDEX"


def test_mds_property_toy(gf64):
    rng = random.Random(17)
    A = points_of(gf64, [7, 14, 21, 28, 35, 42, 49, 56])
    for _ in range(10):
        f = random_message(gf64, 3, rng)
        c = encode(f, A)
        for subset in itertools.combinations(range(8), 3):
            m = naive_decode([(i, c.symbols[i]) for i in subset], A)
            assert [e.v for e in m.coefficients] == [e.v for e in f.coefficients]


def test_empty_inputs_and_out_of_range_indices_are_refused(gf16):
    with pytest.raises(ValueError, match="at least one point"):
        EvaluationSet(gf16, [])
    with pytest.raises(ValueError, match="at least one coefficient"):
        MessagePoly([])
    with pytest.raises(ValueError, match="needs an explicit field"):
        annihilator([])
    A = points_of(gf16, [1, 2, 3])
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"index {i} out of range"):
            naive_decode([(0, gf16.one), (i, gf16.one)], A)
