"""End-to-end acceptance checks: one test per advertised guarantee.

Each test prints a single ``criterion N: PASS`` line (visible under
``pytest -s``) with the measured wall time; the stated time budgets are
asserted, so a pathologically slow environment fails loudly rather than
silently degrading.
"""

import math
import random
import time
from fractions import Fraction

from perepair.bounds_tradeoff import (
    BoundQuery,
    conventional_lower_bound,
    min_subpacketization,
    tradeoff_csv,
    tradeoff_table,
)
from perepair.constructions import build_plan_c1, build_plan_c2, find_primes_c1
from perepair.field_tower import (
    BasisOverSubfield,
    dual_basis,
    gf2_rank,
    make_field,
    trace_to,
)
from perepair.fixtures import example1, example2
from perepair.repair_engine import (
    lemma1_subspace,
    repair_c1,
    repair_c2,
    verify_span,
)
from perepair.rs_codes import naive_decode
from perepair.storage_sim import ClusterState, NodeRecord, fail_node, run_repair

from conftest import oracle, primorial, random_codeword


def _fixture_cluster(ex):
    """A cluster holding the pinned reference codeword (not a seeded one)."""
    plan = ex.plan
    nodes = [NodeRecord(i, symbol) for i, symbol in enumerate(ex.codeword.symbols)]
    return ClusterState(plan, nodes, 0, ex.codeword.symbols)


def _oracle_symbols(ex):
    """Every symbol of the example's codeword by the benchmark oracle's
    Horner evaluation, with none of perepair's arithmetic."""
    message = [c.v for c in ex.message.coefficients]
    modulus = ex.plan.ctx.modulus
    symbols = [oracle.horner(message, x.v, modulus)
               for x in ex.plan.eval_set.points]
    assert [s.v for s in ex.codeword.symbols] == symbols
    return symbols


def test_criterion_1_group_exclusion_code_repairs_all_nodes_at_cutset():
    t0 = time.monotonic()
    ex = example2()
    plan = ex.plan
    assert (plan.n, plan.k) == (17, 9)
    assert plan.ctx.degree_bits == 60 and plan.base_bits == 2
    symbols = _oracle_symbols(ex)
    for node in range(plan.n):
        tr = repair_c2(plan, ex.codeword, node)
        want = ex.group_bits[plan.locate(node)[0]]
        assert tr.recovered.v == symbols[node], f"node {node}"
        assert tr.bits_transmitted == want == tr.cutset_bits, f"node {node}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 1: PASS — 17/17 nodes at 300/220/156 bits ({elapsed:.2f}s)")


def test_criterion_2_large_per_node_exclusion_repair_beats_naive():
    t0 = time.monotonic()
    ex = example1()
    plan = ex.plan
    assert (plan.n, plan.k) == (12, 8)
    assert plan.ctx.degree_bits == 2310
    assert plan.ctx.modulus == (1 << 2310) | (1 << 8) | (1 << 5) | (1 << 2) | 1

    symbols = _oracle_symbols(ex)
    state = _fixture_cluster(ex)
    # node 0 is the paper's walk-through, and its symbol is zero; one node
    # of each other group, each with its own helper groups, is nonzero
    assert ex.nodes == (0, 3, 6, 9)
    for node in ex.nodes:
        fail_node(state, node)
        state, tr, log = run_repair(state, "pe", d=9)
        assert tr.verified is True
        assert tr.recovered.v == symbols[node], f"node {node}"
        assert (tr.recovered != plan.ctx.zero) == (node != 0), f"node {node}"
        assert log.total_bits == tr.bits_transmitted == 10395

    fail_node(state, 0)
    state, rep, log = run_repair(state, "naive")
    assert rep.verified is True
    assert log.total_bits == rep.bits_transmitted == 18480
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"criterion 2: PASS — 10395 bits vs 18480 naive ({elapsed:.2f}s)")


def test_criterion_3_minimum_subpacketization_values():
    t0 = time.monotonic()
    assert min_subpacketization(BoundQuery.uniform(8, 1)) == 510510
    assert min_subpacketization(BoundQuery.uniform(9, 1)) == 9699690
    assert min_subpacketization(BoundQuery.uniform(10, 1)) == 223092870
    for k in range(1, 21):
        want = primorial(k - 1)  # the first k - 1 primes, by trial division
        assert conventional_lower_bound(k) == want
        assert min_subpacketization(BoundQuery.uniform(k, 1)) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 3: PASS — 510510 / 9699690 / 223092870 ({elapsed:.2f}s)")


def test_criterion_4_flexibility_bandwidth_tradeoff_table():
    t0 = time.monotonic()
    rows = tradeoff_table(14, 10)
    assert len(rows) == 4
    assert (rows[0].t, rows[0].L_min, rows[0].beta_bar_min) == (
        1, 223092870, Fraction(13, 4),
    )
    assert (rows[3].t, rows[3].L_min, rows[3].beta_bar_min) == (
        4, 1, Fraction(10, 1),
    )
    text = tradeoff_csv(rows)
    assert text.splitlines()[1] == "1,223092870,13,13,4"
    assert text.splitlines()[4] == "4,1,10,10,1"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 4: PASS — 4 rows, endpoints (13/4, 10) ({elapsed:.2f}s)")


def test_criterion_5_strict_improvement_over_conventional_bounds():
    t0 = time.monotonic()
    # Construction 1 from its closed form, no field built: the primes are
    # find_primes_c1's, k = n - t - s + 1 at most, d = k + s - 1 helpers
    # move d*u base symbols, L = s*u, and naive repair reads k*L
    def c1(base_bits, t_list, s):
        primes = find_primes_c1(s, len(t_list), t_list, base_bits)
        n = sum(t_list)
        k = n - max(t_list) - s + 1
        u = math.prod(primes)
        return (primes, n, k, k + s - 1, u, s * u,
                (k + s - 1) * u * base_bits, k * s * u * base_bits)

    # (12,8) with per-node exclusion: 2310 bits vs the 510510 floor at t=1
    assert c1(1, [3, 3, 3, 3], 2) == (
        (3, 5, 7, 11), 12, 8, 9, 1155, 2310, 10395, 18480)
    assert 2310 < 510510 == conventional_lower_bound(8)

    # (17,9) with group exclusion: 30 symbols vs the 9699690 floor
    seventeen_nine = build_plan_c2(2, 8, [2, 3, 5])
    assert seventeen_nine.L == 30
    assert 30 < 9699690 == conventional_lower_bound(9)

    # (17,9) per-node variant: L and bandwidth from the closed form alone
    assert c1(2, [5, 6, 6], 3) == (
        (7, 13, 19), 17, 9, 11, 1729, 5187, 38038, 9 * 5187 * 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 5: PASS — 2310<510510, 30<9699690, 5187/38038 ({elapsed:.2f}s)")


def test_criterion_6_repair_agrees_with_interpolation_oracle(toy_c1, toy_c2):
    t0 = time.monotonic()
    rng = random.Random(20260825)
    for plan, repair in ((toy_c1, repair_c1), (toy_c2, repair_c2)):
        for trial in range(100):
            cw = random_codeword(plan, rng)
            for failed in range(plan.n):
                tr = repair(plan, cw, failed)
                survivors = [i for i in range(plan.n) if i != failed][: plan.k]
                decoded = naive_decode(
                    [(i, cw.symbols[i]) for i in survivors], plan.eval_set
                ).evaluate(plan.eval_set.points[failed])
                assert tr.recovered == decoded, (plan.construction, trial, failed)
                assert tr.bits_transmitted == tr.cutset_bits, (trial, failed)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 6: PASS — 1900 repairs == oracle at cut-set ({elapsed:.2f}s)")


def test_criterion_7_algebra_property_suite(toy_c1, toy_c1_wide):
    t0 = time.monotonic()

    # field axioms, exhaustive on the two smallest fields
    for ctx in (make_field(3), make_field(4)):
        elems = [ctx.elem(v) for v in range(1 << ctx.degree_bits)]
        for a in elems:
            assert a + ctx.zero == a and a * ctx.one == a
            if a.v:
                assert a * a.inverse() == ctx.one
            for b in elems:
                assert a + b == b + a and a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    # randomized axioms on a larger field
    big = make_field(60)
    rng = random.Random(7)
    for _ in range(10_000):
        a = big.elem(rng.getrandbits(60))
        b = big.elem(rng.getrandbits(60))
        c = big.elem(rng.getrandbits(60))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a.v:
            assert a * a.inverse() == big.one

    # dual-basis reconstruction on two configured bases
    for ctx, m in ((make_field(12), 4), (make_field(30), 5)):
        sub = ctx.subfield(m)
        g = ctx.generator
        basis = BasisOverSubfield(
            sub, [g ** i for i in range(ctx.degree_bits // m)]
        )
        duals = dual_basis(basis)
        rng = random.Random(m)
        for _ in range(1_000):
            x = ctx.elem(rng.getrandbits(ctx.degree_bits))
            rebuilt = ctx.zero
            for bj, aj in zip(duals.vectors, basis.vectors):
                rebuilt = rebuilt + trace_to(bj * x, sub) * aj
            assert rebuilt == x

    # span condition: every node's repair subspace, with its own point's
    # power shifts, spans the whole symbol field over GF(2)
    for plan in (toy_c1, toy_c1_wide):
        for node in range(plan.n):
            S = lemma1_subspace(plan, node)
            assert verify_span(S, plan.eval_set.points[node], plan.s), (plan.n, node)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0

    # spot-check at degree 2310: the subspace used by the published repair
    ex = example1()
    helper_groups = (1, 2, 3)
    S = lemma1_subspace(ex.plan, 0, helper_groups=helper_groups)
    assert verify_span(S, ex.plan.eval_set.points[0], ex.plan.s)
    total = time.monotonic() - t0
    print(f"criterion 7: PASS — axioms, dual bases, span checks ({total:.2f}s)")
