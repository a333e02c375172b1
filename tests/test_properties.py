"""Property tests: random small plans of both constructions, with random
point exponents, encode as the oracle's Horner does and repair every node
to the interpolation oracle's symbol at exactly the cut-set bound, by
partial-exclusion and by naive repair, and a prepared (warm) PE repair
replays the cold one.

Examples are derandomized and have no deadline, so the outcome depends on
the code alone, never on the machine's speed.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from perepair.constructions import build_plan_c1, build_plan_c2
from perepair.repair_engine import cutset_bits, repair_c1, repair_c2
from perepair.rs_codes import naive_decode
from perepair.storage_sim import fail_node, init_cluster, run_repair

from conftest import check_plan_encoding, random_codeword

# Construction 1 at s = 2: (base_bits, primes), symbol fields of 30 to 70 bits
C1_SHAPES = [(1, (3, 5)), (1, (3, 7)), (1, (3, 11)), (1, (5, 7)), (2, (3, 5))]
# Construction 2: (base_bits, primes, r_min, r_max), the range of r in which
# every t_i = r - p_i + 1 is at least 2 and at most phi(q^{p_i} - 1), and
# k = n - r is at least 1; symbol fields of 12 to 60 bits
C2_SHAPES = [(1, (3, 5), 7, 8), (2, (2, 3), 4, 9), (2, (2, 5), 6, 9),
             (2, (3, 5), 7, 9), (2, (2, 3, 5), 6, 7)]


def _exponents(draw, base_bits, prime, t):
    """t distinct exponents that give primitive points of GF(2^(a*p))."""
    order = (1 << (base_bits * prime)) - 1
    units = [e for e in range(1, order) if math.gcd(e, order) == 1]
    return draw(st.lists(st.sampled_from(units), min_size=t, max_size=t,
                         unique=True))


@st.composite
def c1_plans(draw):
    base_bits, primes = draw(st.sampled_from(C1_SHAPES))
    # t_min >= 2 leaves room for k >= 1 up to k_max = n - t_max - s + 1;
    # drawn downwards from k_max, so that simpler examples have the full rate
    t = [draw(st.integers(2, 5)) for _ in primes]
    k_max = sum(t) - max(t) - 1
    k = k_max - draw(st.integers(0, k_max - 1))
    exps = [_exponents(draw, base_bits, p, ti) for p, ti in zip(primes, t)]
    return build_plan_c1(base_bits, t, s=2, k=k, primes=primes,
                         point_exponents=exps)


@st.composite
def c2_plans(draw):
    base_bits, primes, r_min, r_max = draw(st.sampled_from(C2_SHAPES))
    r = draw(st.integers(r_min, r_max))
    exps = [_exponents(draw, base_bits, p, r - p + 1) for p in primes]
    return build_plan_c2(base_bits, r, primes, point_exponents=exps)


def _oracle(plan, cw, node):
    """The erased symbol by Lagrange interpolation of k other symbols."""
    others = [i for i in range(plan.n) if i != node][:plan.k]
    poly = naive_decode([(i, cw.symbols[i]) for i in others], plan.eval_set)
    return poly.evaluate(plan.eval_set.points[node])


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(plan=st.one_of(c1_plans(), c2_plans()), seed=st.integers(0, 2 ** 32 - 1))
def test_every_node_repairs_to_the_oracle_at_the_cutset_bound(plan, seed):
    cw = random_codeword(plan, random.Random(seed))
    for node in range(plan.n):
        if plan.construction == 1:
            tr = repair_c1(plan, cw, node)
            d = plan.d
        else:
            tr = repair_c2(plan, cw, node)
            d = plan.n - plan.groups[plan.locate(node)[0]].t
        assert tr.recovered == _oracle(plan, cw, node)
        assert tr.bits_transmitted == cutset_bits(d, plan.k, plan.L,
                                                  plan.base_bits)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(plan=st.one_of(c1_plans(), c2_plans()), seed=st.integers(0, 2 ** 32 - 1))
def test_encode_agrees_with_horner(plan, seed):
    # k from 1 to n across the point degrees, the plan's own k aside
    check_plan_encoding(plan, random.Random(seed))


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(plan=st.one_of(c1_plans(), c2_plans()), seed=st.integers(0, 2 ** 32 - 1))
def test_warm_repairs_replay_the_cold_ones(plan, seed):
    # the cached preparation is keyed by (failed, d): a Construction-1 node
    # is also repaired one helper above the canonical locality, where the
    # failed group leaves room for it
    rng = random.Random(seed)
    first, second = random_codeword(plan, rng), random_codeword(plan, rng)
    for node in range(plan.n):
        t_i = plan.groups[plan.locate(node)[0]].t
        if plan.construction == 1:
            runs = [(d, lambda cw, d=d: repair_c1(plan, cw, node, d))
                    for d in (plan.d, plan.d + 1) if d <= plan.n - t_i]
        else:
            runs = [(plan.n - t_i, lambda cw: repair_c2(plan, cw, node))]
        for d, repair in runs:
            assert ("repair", node, d) not in plan._cache
            cold = repair(first)
            warm = repair(first)
            assert warm.to_payload() == cold.to_payload()
            assert warm.queries == cold.queries
            assert warm.responses == cold.responses
            assert warm.recovered == first.symbols[node]
            assert repair(second).recovered == _oracle(plan, second, node)


@st.composite
def c1_small_field_plans(draw):
    """Construction 1 over GF(2^210), primes 3, 5 and 7, with d = k + 1 at
    most every t_i, so that every helper prefix is one group: responses
    in GF(2^3), GF(2^5) or GF(2^7), small against E, so prepared repairs
    go by trace coordinate."""
    t = [draw(st.integers(2, 5)) for _ in range(3)]
    k = draw(st.integers(1, min(t) - 1))
    exps = [_exponents(draw, 1, p, ti) for p, ti in zip((3, 5, 7), t)]
    return build_plan_c1(1, t, s=2, k=k, primes=[3, 5, 7],
                         point_exponents=exps)


@settings(derandomize=True, deadline=None, database=None, max_examples=8)
@given(plan=c1_small_field_plans(), seed=st.integers(0, 2 ** 32 - 1))
def test_small_response_field_repairs_by_coordinate(plan, seed):
    rng = random.Random(seed)
    first, second = random_codeword(plan, rng), random_codeword(plan, rng)
    for node in range(plan.n):
        cold = repair_c1(plan, first, node)
        assert plan._cache[("repair", node, plan.d)].masks is not None
        warm = repair_c1(plan, first, node)
        assert warm.to_payload() == cold.to_payload()
        assert warm.responses == cold.responses
        tr = repair_c1(plan, second, node)
        assert tr.recovered == _oracle(plan, second, node)
        assert tr.bits_transmitted == cutset_bits(plan.d, plan.k, plan.L,
                                                  plan.base_bits)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(plan=st.one_of(c1_plans(), c2_plans()), seed=st.integers(0, 2 ** 32 - 1))
def test_cold_and_warm_naive_repairs_give_the_oracle_symbol(plan, seed):
    state = init_cluster(plan, seed)
    for node in range(plan.n):
        others = [i for i in range(plan.n) if i != node][:plan.k]
        oracle = naive_decode([(i, state.nodes[i].symbol) for i in others],
                              plan.eval_set)
        want = oracle.evaluate(plan.eval_set.points[node])
        for _ in ("cold", "warm"):
            fail_node(state, node)
            state, rep, _ = run_repair(state, "naive")
            assert rep.helpers == others
            assert rep.recovered == want
