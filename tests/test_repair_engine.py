import hashlib
import itertools
import math
import random

import pytest

from perepair.constructions import build_plan_c1
from perepair.errors import PERepairError
from perepair import field_tower, repair_engine
from perepair.field_tower import BasisOverSubfield, dual_basis, trace_to
from perepair.fixtures import example1, example2
from perepair.repair_engine import (
    RepairSubspace,
    _by_coordinate,
    _helper_prefix,
    _in_subfield,
    _lemma1_candidates,
    _order,
    _parity_column,
    _shifts,
    cutset_bits,
    lemma1_subspace,
    repair_c1,
    repair_c2,
    verify_span,
)
from perepair.rs_codes import (
    Codeword,
    MessagePoly,
    annihilator,
    dual_multipliers,
    encode,
    naive_decode,
    poly_eval,
)
from perepair.storage_sim import fail_node, init_cluster, run_repair

from conftest import (counting, degree_over, oracle, oracle_frobenius,
                      oracle_trace, random_codeword)


@pytest.mark.parametrize("name", ["toy_c1", "toy_c1_wide", "toy_c2",
                                  "example2", "example1"])
def test_each_response_is_the_trace_of_the_helpers_own_symbol(request, name):
    # the repair model's contract, checked by the oracle's arithmetic: a
    # helper j outside the failed group answers query (j, q) with
    # Tr_{E/K}(q c_j), an element of K, from its own symbol alone.  On
    # example1 a response costs the oracle 2,310 squarings of 2310 bits,
    # so only the first nonzero response of node 0 is checked, in the group
    # the benchmark repairs.
    if name.startswith("example"):
        plan = (example1() if name == "example1" else example2()).plan
    else:
        plan = request.getfixturevalue(name)
    modulus = plan.ctx.modulus
    cw = random_codeword(plan, random.Random(name))
    for node in [0] if name == "example1" else range(plan.n):
        tr = repair_c1(plan, cw, node) if plan.construction == 1 else \
            repair_c2(plan, cw, node)
        group = plan.group_nodes(plan.locate(node)[0])
        m = tr.response_bits
        assert len(tr.queries) == len(tr.responses)
        assert len(tr.responses) * m == tr.bits_transmitted
        checked = list(zip(tr.queries, tr.responses))
        if name == "example1":
            checked = [next((q, r) for q, r in checked if r)]
        for (j, q), r in checked:
            assert j in tr.helpers and j not in group
            assert oracle_frobenius(r.v, m, modulus) == r.v
            assert r.v == oracle_trace(
                oracle.field_mul(q.v, cw.symbols[j].v, modulus), m, modulus)


def test_cutset_bits_values():
    assert cutset_bits(9, 8, 2310, 1) == 10395
    assert cutset_bits(10, 9, 30, 2) == 300
    assert cutset_bits(11, 9, 30, 2) == 220
    assert cutset_bits(13, 9, 30, 2) == 156
    assert cutset_bits(3, 2, 30, 1) == 45
    assert cutset_bits(5, 3, 7, 1) == 12  # ceiling of 35/3
    assert cutset_bits(8, 8, 4, 1) == 32  # d = k downloads everything


def test_cutset_bits_needs_k_helpers():
    with pytest.raises(PERepairError) as ei:
        cutset_bits(7, 8, 4, 1)
    assert ei.value.code == "TOO_FEW_HELPERS"


def test_lemma1_subspace_shape(toy_c1):
    S = lemma1_subspace(toy_c1, 0)
    assert len(list(S.basis)) == 3
    assert S.subfield.degree_bits == 5
    assert S.beta == toy_c1.ctx.generator
    assert verify_span(S, toy_c1.eval_set.points[0], toy_c1.s)
    # cached: same object on repeat
    assert lemma1_subspace(toy_c1, 0) is S


def test_lemma1_every_node_has_a_verified_subspace(toy_c1):
    for node in range(toy_c1.n):
        S = lemma1_subspace(toy_c1, node)
        assert verify_span(S, toy_c1.eval_set.points[node], toy_c1.s)


def test_lemma1_subspace_is_specific_to_its_point(toy_c1):
    # the first node's subspace spans with shifts of its own point only;
    # the other nodes of the group need their own subspace
    first = toy_c1.group_nodes(1)[0]
    S = lemma1_subspace(toy_c1, first)
    assert verify_span(S, toy_c1.eval_set.points[first], 2)
    second = toy_c1.groups[1].points[1]
    assert not verify_span(S, second, 2)
    # the Gram solve that certifies subspaces rejects the same shifts
    wrong = BasisOverSubfield(S.subfield, _shifts(S.basis, second, 2))
    with pytest.raises(PERepairError) as ei:
        dual_basis(wrong)
    assert ei.value.code == "SINGULAR_GRAM"


def test_gram_acceptance_matches_verify_span(toy_c1, toy_c1_wide):
    # every candidate of g^1..g^32 for a node's point, shifted by each point
    # of its group: the Gram solve over F = GF(q^{u_i}) accepts exactly the
    # candidates whose lift b * delta^l to K verify_span's GF(2) rank
    # accepts.  Every node of toy_c1 (F = K), and nodes 0, 3 and 6 of
    # toy_c1_wide with the next group helping (r = [F : K] = 7, 3 and 5)
    outcomes = set()
    for plan, nodes in ((toy_c1, range(toy_c1.n)), (toy_c1_wide, (0, 3, 6))):
        ctx, a = plan.ctx, plan.base_bits
        for node in nodes:
            gi, _ = plan.locate(node)
            helping = plan.groups[(gi + 1) % len(plan.groups)]
            sub = ctx.subfield(a * helping.prime)
            field = ctx.subfield(a * plan.u_list[gi])
            lift = _shifts([ctx.one], field.canonical_generator,
                           field.degree_bits // sub.degree_bits)
            alpha = plan.eval_set.points[node]
            for beta, base in _lemma1_candidates(plan, gi, alpha):
                basis = BasisOverSubfield(sub, [b * f for b in base
                                                for f in lift])
                for pt in plan.groups[gi].points:
                    shifted = _shifts(base, pt, plan.s)
                    try:
                        dual_basis(BasisOverSubfield(field, shifted))
                        gram_ok = True
                    except PERepairError as err:
                        assert err.code == "SINGULAR_GRAM"
                        gram_ok = False
                    rank_ok = verify_span(RepairSubspace(sub, basis, beta),
                                          pt, plan.s)
                    assert gram_ok == rank_ok
                    outcomes.add((plan is toy_c1, gram_ok))
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


def _lemma1_with_singular(monkeypatch, singular):
    """A fresh toy_c1_wide-shaped plan whose subspace search sees candidate
    i replaced by zero vectors, a singular set, when singular(i); returns
    the plan and the list of betas tried.  Node 0 with group 1 helping
    solves over F = GF(2^35) and lifts to K = GF(2^5)."""
    real = repair_engine._lemma1_candidates
    tried = []

    def candidates(plan, group, alpha):
        for i, (beta, base) in enumerate(real(plan, group, alpha)):
            tried.append(beta)
            if singular(i):
                base = [plan.ctx.zero] * len(base)
            yield beta, base

    monkeypatch.setattr(repair_engine, "_lemma1_candidates", candidates)
    return build_plan_c1(1, [3, 3, 3], s=2, k=2, primes=[3, 5, 7]), tried


def test_lemma1_takes_the_next_beta_after_a_singular_one(monkeypatch):
    plan, tried = _lemma1_with_singular(monkeypatch, lambda i: i == 0)
    S = lemma1_subspace(plan, 0, helper_groups=(1,))
    assert tried[0] == plan.ctx.generator and len(tried) >= 2
    assert S.beta == tried[-1] != tried[0]
    assert S.subfield.degree_bits == 5 and len(S.basis) == 3 * 7
    assert verify_span(S, plan.eval_set.points[0], plan.s)


def test_lemma1_with_every_beta_singular_is_a_span_failure(monkeypatch):
    plan, tried = _lemma1_with_singular(monkeypatch, lambda i: True)
    with pytest.raises(PERepairError) as ei:
        lemma1_subspace(plan, 0, helper_groups=(1,))
    assert ei.value.code == "SPAN_FAILURE"
    assert len(tried) == 32
    assert plan._cache == {}  # a failed search caches nothing


def test_repair_scales_the_subspace_duals(toy_c1, toy_c1_wide):
    # the duals of B = f_mult * {e_m * alpha_f^w} are the subspace's duals
    # over f_mult, equal to a fresh Gram solve of B.  A preparation in K
    # keeps those duals and the coordinates of alpha_j^w; any other keeps
    # each response's share of the reconstruction through the duals:
    # sum_w dual_{m,w} * alpha_j^w
    rng = random.Random(808)
    for plan in (toy_c1, toy_c1_wide):
        cw = random_codeword(plan, rng)
        for node in range(plan.n):
            assert repair_c1(plan, cw, node).recovered == cw.symbols[node]
            prep = plan._cache[("repair", node, plan.d)]
            gi, _ = plan.locate(node)
            S = lemma1_subspace(plan, node,
                                helper_groups=_helper_prefix(plan, gi, plan.d)[1])
            f_inv = _parity_column(plan, node, prep.helpers)[1]
            helper_set = set(prep.helpers)
            h = annihilator([plan.eval_set.points[i] for i in range(plan.n)
                             if i not in helper_set and i != node], plan.ctx)
            f_mult = (poly_eval(h, plan.eval_set.points[node])
                      * dual_multipliers(plan.eval_set)[node])
            assert f_mult * f_inv == plan.ctx.one
            alpha_f = plan.eval_set.points[node]
            B = [f_mult * u for u in _shifts(S.basis, alpha_f, plan.s)]
            fresh = dual_basis(BasisOverSubfield(prep.sub, B))
            assert [dv * f_inv for dv in S.duals] == list(fresh.vectors)
            W = plan.s
            if prep.powers is not None:
                assert prep.duals == [
                    [dv.v for dv in fresh.vectors[m * W:(m + 1) * W]]
                    for m in range(len(S.basis))]
                assert [[prep.sub._lift(a) for a in row]
                        for row in prep.powers] == [
                    [p.v for p in _shifts([plan.ctx.one],
                                          plan.eval_set.points[j], W)[1:]]
                    for j in prep.helpers]
                continue
            for j, row in zip(prep.helpers, prep.weights):
                pows = _shifts([plan.ctx.one], plan.eval_set.points[j], W)
                want = []
                for m in range(len(S.basis)):
                    acc = plan.ctx.zero
                    for w in range(W):
                        acc = acc + fresh.vectors[m * W + w] * pows[w]
                    want.append(acc.v)
                assert row == want


def test_cold_repairs_certify_once_without_gf2_rank(monkeypatch):
    # one Gram solve per cold preparation is the only span certificate
    def forbidden(*args):
        raise AssertionError("GF(2) rank on the repair path")

    monkeypatch.setattr(field_tower, "gf2_rank", forbidden)
    monkeypatch.setattr(repair_engine, "verify_span", forbidden)
    calls = []
    real = repair_engine.dual_basis

    def counted(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(repair_engine, "dual_basis", counted)
    rng = random.Random(1234)
    fresh_c1 = build_plan_c1(1, [3, 3], s=2, primes=[3, 5])
    c2 = example2().plan
    monkeypatch.setattr(c2, "_cache", {})
    for plan, fn in ((fresh_c1, repair_c1), (c2, repair_c2)):
        cw = random_codeword(plan, rng)
        for node in range(plan.n):
            calls.clear()
            assert fn(plan, cw, node).recovered == cw.symbols[node]
            assert len(calls) == 1
            calls.clear()
            fn(plan, cw, node)  # prepared: no Gram solve at all
            assert not calls


_COORDINATE, _IN_K = "coordinate", "subfield"


@pytest.mark.parametrize("name, d, picks", [
    pytest.param("toy_c1", None, {5: _COORDINATE, 3: _COORDINATE},
                 id="toy_c1"),
    pytest.param("toy_c2", None, {6: _COORDINATE, 4: _COORDINATE},
                 id="toy_c2"),
    pytest.param("example2", None, {30: _IN_K, 20: _IN_K, 12: _COORDINATE},
                 id="example2"),
    pytest.param("toy_c1_wide", 3, {5: _COORDINATE, 3: _COORDINATE},
                 id="toy_c1_wide-d3"),
] + [pytest.param("toy_c1_wide", d,
                  {35: _IN_K, 21: _COORDINATE, 15: _COORDINATE},
                  id=f"toy_c1_wide-d{d}") for d in (4, 5, 6)])
def test_each_shape_picks_its_order_and_its_product_count(
        request, monkeypatch, name, d, picks):
    # the order _order picks for each response field K = GF(2^m) of a plan
    # at locality d, and the exact products in E a prepared repair then
    # makes (FieldCtx._mul, and _clmul_by_table for wide symbols), with no
    # inversion: d + m - 1 by coordinate, R + |E| W in K for R = d |E|
    # responses.  The (9,2) plan at d = 3 is the benchmark's wide-cold
    # shape.
    plan = (example2().plan if name == "example2"
            else request.getfixturevalue(name))
    repair = repair_c1 if plan.construction == 1 else repair_c2
    cw = random_codeword(plan, random.Random(2718))
    seen = set()
    for node in range(plan.n):
        tr = repair(plan, cw, node, d)  # prepares (or finds) it
        prep = plan._cache[("repair", node, len(tr.helpers))]
        m = prep.sub.degree_bits
        seen.add(m)
        assert _order(prep.sub) == picks[m]
        assert (prep.masks is not None) == (picks[m] == _COORDINATE)
        assert (prep.powers is not None) == (picks[m] == _IN_K)
        gi, _ = plan.locate(node)
        E = len(prep.mults[0])
        W = plan.s if plan.construction == 1 else plan.groups[gi].prime
        products = counting(monkeypatch, field_tower.FieldCtx, ["_mul"])
        tables = counting(monkeypatch, repair_engine, ["_clmul_by_table"])
        inversions = counting(monkeypatch, field_tower, ["poly_inv_mod"])
        tr = repair(plan, cw, node, d)
        monkeypatch.undo()
        assert tr.recovered == cw.symbols[node]
        assert products["_mul"] + tables["_clmul_by_table"] == (
            len(tr.helpers) + m - 1 if picks[m] == _COORDINATE
            else len(tr.queries) + E * W)
        assert inversions["poly_inv_mod"] == 0
    assert seen == set(picks)


def test_example1_repairs_in_k():
    # every node's response field, GF(2^385), GF(2^231), GF(2^165) or
    # GF(2^105) in GF(2^2310), takes the in-K order, read from the helper
    # prefix without repairing
    plan = example1().plan
    seen = set()
    for node in range(plan.n):
        _, R = _helper_prefix(plan, plan.locate(node)[0], plan.d)
        sub = plan.ctx.subfield(
            plan.base_bits * math.prod(plan.groups[j].prime for j in R))
        seen.add(sub.degree_bits)
        assert _order(sub) == _IN_K
    assert seen == {385, 231, 165, 105}


def test_both_evaluation_orders_agree(toy_c1, toy_c1_wide, toy_c2,
                                     monkeypatch):
    # the two private evaluation orders, each forced on the shape of every
    # node's repair and then run on one preparation that holds what both
    # read: the same response coordinates, bits and symbol, whichever
    # order the rule picks (pinned by
    # test_each_shape_picks_its_order_and_its_product_count).  In
    # Construction 2 |E| = 1 and the masks are the subfield's trace masks
    # psi, the masks that _trace_duals transposes into its tables.
    orders = {"coordinate": _by_coordinate, "subfield": _in_subfield}
    rng = random.Random(1618)
    for plan, d in ((toy_c1, None), (toy_c1_wide, 3), (toy_c1_wide, 5),
                    (toy_c2, None), (example2().plan, None)):
        repair = repair_c1 if plan.construction == 1 else repair_c2
        cw = random_codeword(plan, rng)
        for node in range(plan.n):
            tr = repair(plan, cw, node, d)
            key = ("repair", node, len(tr.helpers))
            prep = plan._cache[key]
            sub = prep.sub
            forced = {}
            for name in orders:
                del plan._cache[key]
                monkeypatch.setattr(repair_engine, "_order",
                                    lambda sub, name=name: name)
                again = repair(plan, cw, node, d)
                monkeypatch.undo()
                forced[name] = plan._cache[key]
                assert again._coordinates == tr._coordinates
                assert again.recovered == tr.recovered
            plan._cache[key] = prep
            if plan.construction == 2:
                assert forced["coordinate"].masks == (tuple(
                    sub.ctx._trace_functional(c)
                    for c in sub._trace_duals[0]),)
            one = forced["coordinate"]._replace(
                powers=forced["subfield"].powers,
                duals=forced["subfield"].duals)
            for evaluate in orders.values():
                assert evaluate(one, cw.symbols) == (tr._coordinates,
                                                     tr.recovered.v)
            assert tr.queries == list(prep.queries) == [
                (j, mult) for j, row in zip(prep.helpers, prep.mults)
                for mult in row]
            assert len(tr.queries) == len(tr._coordinates)
            assert [sub._lift(z) for z in tr._coordinates] == [
                r.v for r in tr.responses]
            assert tr.recovered == cw.symbols[node]
            assert len(tr.queries) * sub.degree_bits == tr.bits_transmitted


def test_warm_repair_in_k_lifts_responses_only_when_read(toy_c1_wide,
                                                        monkeypatch):
    # every helper point lies in K, so a prepared repair takes its sums over
    # helpers there: one query product per response, then |E| W lifts and
    # |E| W products, and no inversion.  The responses stay coordinates
    # until they are read, and the first read lifts each one once.  Group
    # 0 of the (9,2) plan answers in K = GF(2^35) at d = 4 to 6.
    plan = toy_c1_wide
    cw = random_codeword(plan, random.Random(577))
    for d in (4, 5, 6):
        for node in plan.group_nodes(0):
            tr = repair_c1(plan, cw, node, d)  # prepares (or finds) it
            prep = plan._cache[("repair", node, len(tr.helpers))]
            assert prep.powers is not None
            E, W = len(prep.mults[0]), plan.s
            products = counting(monkeypatch, field_tower.FieldCtx, ["_mul"])
            tables = counting(monkeypatch, repair_engine, ["_clmul_by_table"])
            inversions = counting(monkeypatch, field_tower, ["poly_inv_mod"])
            lifts = counting(monkeypatch, field_tower.SubfieldHandle,
                             ["_lift"])
            tr = repair_c1(plan, cw, node, d)
            assert (products["_mul"] + tables["_clmul_by_table"]
                    == len(tr.helpers) * E + E * W)
            assert inversions["poly_inv_mod"] == 0
            assert lifts["_lift"] == E * W  # the finish's, no response's
            responses = tr.responses
            assert lifts["_lift"] == E * W + len(tr.queries)
            assert tr.responses is responses
            assert lifts["_lift"] == E * W + len(tr.queries)
            monkeypatch.undo()
            assert tr.recovered == cw.symbols[node]
            assert [r.v for r in responses] == [
                prep.sub._lift(z) for z in tr._coordinates]


def test_lemma1_subspaces_over_a_gf4_base():
    # q = 4: every node's subspace lives over GF(4^{u-bar}) and shift-spans
    # E with its own point's powers
    plan = build_plan_c1(2, [2, 2], s=2, primes=[3, 5])
    for node in range(plan.n):
        gi, _ = plan.locate(node)
        S = lemma1_subspace(plan, node)
        assert S.subfield.degree_bits == 2 * plan.groups[1 - gi].prime
        assert verify_span(S, plan.eval_set.points[node], plan.s)


def test_lemma1_rejects_degenerate_helper_groups(toy_c1, toy_c1_wide):
    # empty, the node's own group, repeated, out of range; -1 would index
    # node 6's own group 2
    for plan, node, groups in ((toy_c1, 0, (0,)), (toy_c1, 0, ()),
                               (toy_c1_wide, 0, (1, 1)),
                               (toy_c1_wide, 0, (5,)),
                               (toy_c1_wide, 6, (-1,)),
                               (toy_c1_wide, 6, (0, 2))):
        with pytest.raises(ValueError, match="must be distinct groups"):
            lemma1_subspace(plan, node, helper_groups=groups)


def test_lemma1_caches_a_subspace_once_per_helper_group_set(toy_c1_wide,
                                                            monkeypatch):
    # the key holds the groups sorted, so their order builds nothing new
    plan = toy_c1_wide
    monkeypatch.setattr(plan, "_cache", {})
    calls = counting(monkeypatch, repair_engine, ["dual_basis"])
    S = lemma1_subspace(plan, 0, helper_groups=(1, 2))
    solves = calls["dual_basis"]
    assert solves >= 1
    assert lemma1_subspace(plan, 0, helper_groups=(2, 1)) is S
    assert lemma1_subspace(plan, 0) is S  # every other group by default
    assert list(plan._cache) == [("subspace", 0, (1, 2))]
    assert calls["dual_basis"] == solves


def test_plan_cache_keys_name_their_inputs(toy_c1_wide, monkeypatch):
    # a new failed node, locality or helper set is a new entry, under a key
    # (kind, *inputs)
    plan = toy_c1_wide
    monkeypatch.setattr(plan, "_cache", {})
    state = init_cluster(plan, 5)
    for node, strategy, d in ((0, "pe", None), (0, "pe", 4), (0, "pe", 4),
                              (0, "naive", None), (4, "naive", None)):
        fail_node(state, node)
        assert run_repair(state, strategy, d)[1].verified
    assert set(plan._cache) == {
        ("dual_multipliers",),
        ("subspace", 0, (1,)), ("repair", 0, 3),
        ("subspace", 0, (1, 2)), ("repair", 0, 4),
        ("naive", 0, (1, 2)), ("naive", 4, (0, 1)),
    }


def _counted_search(monkeypatch, plan, node, helper_groups=None):
    """lemma1_subspace(plan, node, helper_groups) with its Gram solves
    recorded as (subfield bits, vectors) and its field products (clmul and
    _clmul_by_table calls) counted; returns (subspace, solves, products)."""
    real = repair_engine.dual_basis
    solves = []

    def recorded(b):
        solves.append((b.subfield.degree_bits, len(b)))
        return real(b)

    monkeypatch.setattr(repair_engine, "dual_basis", recorded)
    names = ["clmul", "_clmul_by_table"]
    counts = [counting(monkeypatch, owner, names)
              for owner in (field_tower, repair_engine)]
    S = lemma1_subspace(plan, node, helper_groups=helper_groups)
    monkeypatch.undo()
    return S, solves, sum(sum(c.values()) for c in counts)


def test_cold_wide_searches_solve_over_the_point_field(monkeypatch):
    # a cold (9,2) search at d = 3 with the subfield tables warm solves
    # once over F = GF(2^(u_i)), [E : F] = 6, 10 and 14 vectors, and stays
    # within a product budget; the solve over K = GF(2^5) or GF(2^3), 42 or
    # 70 vectors, took 681, 711 and 690 products
    shape = dict(s=2, k=2, primes=[3, 5, 7])
    warm = build_plan_c1(1, [3, 3, 3], **shape)
    plan = build_plan_c1(1, [3, 3, 3], **shape)
    for node, u, ubar, budget in ((0, 35, 5, 165), (3, 21, 3, 305),
                                  (6, 15, 3, 415)):
        gi, _ = plan.locate(node)
        R = _helper_prefix(plan, gi, 3)[1]
        lemma1_subspace(warm, node, helper_groups=R)
        S, solves, products = _counted_search(monkeypatch, plan, node, R)
        assert solves == [(u, 210 // u)]
        assert products <= budget
        assert S.subfield.degree_bits == ubar
        assert len(S.basis) * ubar * plan.s == 210


def test_example1_search_solves_over_k_as_before(monkeypatch):
    # d = n - t_i: K is F, and node 0's search makes the one solve over
    # GF(2^385), 6 vectors, that the solve over K made
    plan = example1().plan
    monkeypatch.setattr(plan, "_cache", {})
    S, solves, _ = _counted_search(monkeypatch, plan, 0)
    assert solves == [(385, 6)]
    assert S.subfield.degree_bits == 385 and len(S.basis) == 3


def test_lemma1_lets_other_gram_errors_through(toy_c1, monkeypatch):
    # only SINGULAR_GRAM moves the search to the next beta
    def broken(basis):
        calls.append(basis)
        raise PERepairError("INVARIANT_VIOLATION", "a broken Gram solve")

    calls = []
    monkeypatch.setattr(toy_c1, "_cache", {})
    monkeypatch.setattr(repair_engine, "dual_basis", broken)
    with pytest.raises(PERepairError) as ei:
        lemma1_subspace(toy_c1, 0)
    assert ei.value.code == "INVARIANT_VIOLATION"
    assert len(calls) == 1 and toy_c1._cache == {}


def test_verify_span_s1_full_basis(toy_c1):
    ctx = toy_c1.ctx
    sub = ctx.subfield(5)
    g = ctx.generator
    basis = BasisOverSubfield(sub, [g ** j for j in range(6)])
    S = RepairSubspace(sub, basis, g)
    assert verify_span(S, toy_c1.eval_set.points[0], 1)


def test_select_helpers_round_robin(toy_c1, toy_c1_wide):
    # d runs over [plan.d, n - t_i], the localities repair_c1 accepts
    assert _helper_prefix(toy_c1, 0, 3) == ([3, 4, 5], (1,))
    assert _helper_prefix(toy_c1, 1, 3) == ([0, 1, 2], (0,))
    # wide plan: helpers cycle across the prefix groups
    assert _helper_prefix(toy_c1_wide, 0, 3) == ([3, 4, 5], (1,))
    assert _helper_prefix(toy_c1_wide, 0, 4) == ([3, 6, 4, 7], (1, 2))
    assert _helper_prefix(toy_c1_wide, 0, 5) == ([3, 6, 4, 7, 5], (1, 2))
    assert _helper_prefix(toy_c1_wide, 0, 6) == ([3, 6, 4, 7, 5, 8], (1, 2))
    assert _helper_prefix(toy_c1_wide, 1, 4) == ([0, 6, 1, 7], (0, 2))


def test_select_helpers_never_in_failed_group(toy_c1, toy_c1_wide):
    rng = random.Random(31)
    for plan in (toy_c1, toy_c1_wide):
        cw = random_codeword(plan, rng)
        for node in range(plan.n):
            gi, _ = plan.locate(node)
            banned = set(plan.group_nodes(gi))
            for d in range(plan.d, plan.n - plan.groups[gi].t + 1):
                tr = repair_c1(plan, cw, node, d=d)
                assert tr.helpers == _helper_prefix(plan, gi, d)[0]
                assert len(tr.helpers) == d == len(set(tr.helpers))
                assert not banned & set(tr.helpers)
                assert tr.recovered == cw.symbols[node]
                assert tr.bits_transmitted == d * plan.u * plan.base_bits


def test_repair_c1_recovers_every_node(toy_c1):
    rng = random.Random(20240601)
    for trial in range(5):
        cw = random_codeword(toy_c1, rng)
        for failed in range(toy_c1.n):
            tr = repair_c1(toy_c1, cw, failed)
            assert tr.recovered == cw.symbols[failed]
            assert tr.bits_transmitted == tr.cutset_bits == 45
            assert tr.per_helper_bits == [15, 15, 15]
            # group 1 queries 3 symbols of GF(2^5), group 2 queries 5 of GF(2^3)
            dim = 3 if failed < 3 else 5
            assert len(tr.queries) == len(tr.responses) == 3 * dim


def test_repair_c1_matches_interpolation_oracle(toy_c1):
    rng = random.Random(99)
    cw = random_codeword(toy_c1, rng)
    for failed in range(toy_c1.n):
        tr = repair_c1(toy_c1, cw, failed)
        others = [i for i in range(toy_c1.n) if i != failed][: toy_c1.k]
        poly = naive_decode([(i, cw.symbols[i]) for i in others], toy_c1.eval_set)
        assert tr.recovered == poly.evaluate(toy_c1.eval_set.points[failed])


def test_repair_c1_zero_codeword(toy_c1):
    ctx = toy_c1.ctx
    cw = encode(
        MessagePoly([ctx.zero, ctx.zero]), toy_c1.eval_set, plan_digest=toy_c1.digest
    )
    tr = repair_c1(toy_c1, cw, 5)
    assert tr.recovered == ctx.zero
    assert all(not r for r in tr.responses)


def test_repair_never_reads_the_failed_node(toy_c1, toy_c2):
    rng = random.Random(4242)
    for plan, fn in ((toy_c1, repair_c1), (toy_c2, repair_c2)):
        cw = random_codeword(plan, rng)
        failed = plan.n - 1
        garbage = list(cw.symbols)
        garbage[failed] = plan.ctx.elem(rng.getrandbits(plan.ctx.degree_bits))
        broken = Codeword(garbage, cw.plan_digest)
        assert fn(plan, broken, failed).recovered == cw.symbols[failed]


def test_repair_c1_locality_range(toy_c1, toy_c1_wide):
    rng = random.Random(8)
    cw = random_codeword(toy_c1, rng)
    for d in (2, 4):  # below k+s-1 and above n-t
        with pytest.raises(PERepairError) as ei:
            repair_c1(toy_c1, cw, 0, d=d)
        assert ei.value.code == "LOCALITY_OUT_OF_RANGE"
    cw_wide = random_codeword(toy_c1_wide, rng)
    with pytest.raises(PERepairError) as ei:
        repair_c1(toy_c1_wide, cw_wide, 0, d=2)
    assert ei.value.code == "LOCALITY_OUT_OF_RANGE"


def test_repair_c2_locality_range(toy_c1, toy_c2):
    cw = random_codeword(toy_c2, random.Random(6))
    for failed in (0, 7):
        top = toy_c2.n - toy_c2.groups[toy_c2.locate(failed)[0]].t
        tr = repair_c2(toy_c2, cw, failed, d=top)
        assert tr.recovered == cw.symbols[failed]
        assert len(tr.helpers) == top
        for d in (toy_c2.k, top - 1, top + 1):
            with pytest.raises(PERepairError) as ei:
                repair_c2(toy_c2, cw, failed, d=d)
            assert ei.value.code == "LOCALITY_OUT_OF_RANGE"
    # construction, then pairing, then node range, then locality
    with pytest.raises(ValueError, match="Construction-2"):
        repair_c2(toy_c1, cw, 99, d=1)
    with pytest.raises(PERepairError) as ei:
        repair_c2(toy_c2, random_codeword(toy_c1, random.Random(6)), 99, d=1)
    assert ei.value.code == "PLAN_MISMATCH"
    with pytest.raises(ValueError, match="out of range"):
        repair_c2(toy_c2, cw, 99, d=1)


def test_repair_c1_plan_mismatch(toy_c1, toy_c1_wide):
    rng = random.Random(77)
    cw = random_codeword(toy_c1, rng)
    with pytest.raises(PERepairError) as ei:
        repair_c1(toy_c1_wide, cw, 0)
    assert ei.value.code == "PLAN_MISMATCH"
    unlabeled = encode(
        MessagePoly([toy_c1.ctx.one, toy_c1.ctx.one]), toy_c1.eval_set
    )
    with pytest.raises(PERepairError) as ei:
        repair_c1(toy_c1, unlabeled, 0)
    assert ei.value.code == "PLAN_MISMATCH"
    short = Codeword(cw.symbols[:-1], toy_c1.digest)
    with pytest.raises(PERepairError, match="length") as ei:
        repair_c1(toy_c1, short, 0)
    assert ei.value.code == "PLAN_MISMATCH"


def test_repair_wrong_construction(toy_c1, toy_c2):
    rng = random.Random(3)
    cw1 = random_codeword(toy_c1, rng)
    cw2 = random_codeword(toy_c2, rng)
    with pytest.raises(ValueError):
        repair_c2(toy_c1, cw1, 0)
    with pytest.raises(ValueError):
        repair_c1(toy_c2, cw2, 0)
    with pytest.raises(ValueError, match="construction 1"):
        lemma1_subspace(toy_c2, 0)


def test_repair_c1_above_canonical_locality(toy_c1_wide):
    """More helpers than k+s-1 still repair, trading bandwidth for spread."""
    rng = random.Random(5150)
    plan = toy_c1_wide
    cw = random_codeword(plan, rng)
    tr = repair_c1(plan, cw, 0)
    assert tr.recovered == cw.symbols[0]
    assert tr.bits_transmitted == tr.cutset_bits == 315
    for d, expect_cut in ((4, 280), (5, 263), (6, 252)):
        tr = repair_c1(plan, cw, 0, d=d)
        assert tr.recovered == cw.symbols[0]
        assert tr.bits_transmitted == d * plan.u * plan.base_bits
        assert tr.cutset_bits == expect_cut
        assert tr.bits_transmitted > tr.cutset_bits


def test_repair_c1_partial_prefix_group(toy_c1_wide):
    # failing in the middle group routes all queries to the first group
    rng = random.Random(31337)
    plan = toy_c1_wide
    cw = random_codeword(plan, rng)
    tr = repair_c1(plan, cw, 3)
    assert tr.recovered == cw.symbols[3]
    assert tr.helpers == [0, 1, 2]
    assert tr.bits_transmitted == tr.cutset_bits == 315


def test_repair_c2_recovers_every_node(toy_c2):
    rng = random.Random(60606)
    for trial in range(5):
        cw = random_codeword(toy_c2, rng)
        for failed in range(toy_c2.n):
            tr = repair_c2(toy_c2, cw, failed)
            assert tr.recovered == cw.symbols[failed]
            want = 36 if failed < 7 else 28
            assert tr.bits_transmitted == tr.cutset_bits == want
            gi, _ = toy_c2.locate(failed)
            assert not set(tr.helpers) & set(toy_c2.group_nodes(gi))
            assert len(tr.helpers) == toy_c2.n - toy_c2.groups[gi].t


def test_repair_c2_matches_interpolation_oracle(toy_c2):
    rng = random.Random(11)
    cw = random_codeword(toy_c2, rng)
    for failed in (0, 6, 7, 12):
        tr = repair_c2(toy_c2, cw, failed)
        others = [i for i in range(toy_c2.n) if i != failed][: toy_c2.k]
        poly = naive_decode([(i, cw.symbols[i]) for i in others], toy_c2.eval_set)
        assert tr.recovered == poly.evaluate(toy_c2.eval_set.points[failed])


def test_bit_count_invariant_is_a_coded_error(toy_c1, toy_c1_wide, toy_c2,
                                              monkeypatch):
    # the cut-set check survives python -O: a skewed bound is reported,
    # for both schemes and above the canonical locality too
    rng = random.Random(3)
    cw1 = random_codeword(toy_c1, rng)
    cw_wide = random_codeword(toy_c1_wide, rng)
    cw2 = random_codeword(toy_c2, rng)
    monkeypatch.setattr(repair_engine, "cutset_bits", lambda *a: 1)
    for call in (lambda: repair_c1(toy_c1, cw1, 0),
                 lambda: repair_c1(toy_c1_wide, cw_wide, 0, d=5),
                 lambda: repair_c2(toy_c2, cw2, 0)):
        with pytest.raises(PERepairError) as ei:
            call()
        assert ei.value.code == "INVARIANT_VIOLATION"


def test_transcript_payload_shape(toy_c1):
    rng = random.Random(2)
    cw = random_codeword(toy_c1, rng)
    tr = repair_c1(toy_c1, cw, 1)
    payload = tr.to_payload()
    assert payload["failed"] == 1
    assert payload["helpers"] == [3, 4, 5]
    assert payload["per_helper_bits"] == [15, 15, 15]
    assert payload["bits_transmitted"] == 45
    assert payload["cutset_bits"] == 45
    assert toy_c1.ctx.from_hex(payload["recovered"]) == tr.recovered
    assert payload["verified"] is None
    tr.verified = tr.recovered == cw.symbols[1]
    assert tr.to_payload()["verified"] is True
    assert tr.to_json().endswith("\n")


# SHA-256 over the transcript JSON, transfer-log CSV and trace responses of
# the repairs below; any change to what a repair recovers, answers or
# logs moves it
PINNED_REPAIRS_SHA256 = (
    "0595e3609e19cbac19af146aa79f025864b24dc56eb46f7e120601c47034d5d5"
)


def test_points_have_group_degree_and_subspaces_are_bases(toy_c1, toy_c2,
                                                          toy_c1_wide):
    # the library does not check these two facts itself: a point's degree
    # p_i over GF(q^{u_i}) follows from its group's primitivity check, and a
    # subspace basis's independence from the nonsingular Gram matrix of its
    # s shifts, solved by lemma1_subspace; the duals it keeps are the
    # trace-dual of those shifts
    for plan in (toy_c1, toy_c2, toy_c1_wide, example2().plan):
        for g, u_i in zip(plan.groups, plan.u_list):
            m = plan.base_bits * u_i
            assert ([degree_over(plan.ctx, pt.v, m) for pt in g.points]
                    == [g.prime] * g.t)
    for plan in (toy_c1, toy_c1_wide):
        ctx = plan.ctx
        for node in range(plan.n):
            gi, _ = plan.locate(node)
            for groups in (_helper_prefix(plan, gi, plan.d)[1], None):
                S = lemma1_subspace(plan, node, helper_groups=groups)
                alpha = plan.eval_set.points[node]
                shifted = _shifts(S.basis, alpha, plan.s)
                # N/m shifts span E over K: they, and so the basis, are
                # independent over K
                assert len(shifted) * S.subfield.degree_bits == ctx.degree_bits
                assert verify_span(S, alpha, plan.s)
                assert len(S.duals) == len(shifted)
                for i, u in enumerate(shifted):
                    for j, dj in enumerate(S.duals):
                        want = ctx.one if i == j else ctx.zero
                        assert trace_to(u * dj, S.subfield) == want


def test_repair_outputs_are_pinned(toy_c1, toy_c2, toy_c1_wide):
    h = hashlib.sha256()

    def record(plan, node, seed, d=None):
        state = fail_node(init_cluster(plan, seed), node)
        _, tr, log = run_repair(state, "pe", d)
        h.update(tr.to_json().encode())
        h.update(log.to_csv().encode())
        h.update("".join(r.hex() + "\n" for r in tr.responses).encode())

    for plan in (toy_c1, toy_c2, example2().plan):
        for node in range(plan.n):
            record(plan, node, 1000 + node)
    for d in (3, 6):
        record(toy_c1_wide, 0, 77, d)
    assert h.hexdigest() == PINNED_REPAIRS_SHA256


# SHA-256 over the accepted beta exponent and the hex repair duals (the
# subspace's duals times f_inv) of every node's cold preparation
# ("repair", node, d) on a fresh toy_c1_wide plan, the plan shape of the
# benchmark's wide-cold workload, as computed by the entry-by-entry Gram
# solve that dual_basis replaced
PINNED_COLD_PREPARATIONS_SHA256 = (
    "00d2d22804bebca4f1b0238ec29fc1a423739d5a79ea34dff886078d54d37f80"
)


def test_cold_preparations_are_pinned():
    plan = build_plan_c1(1, [3, 3, 3], s=2, k=2, primes=[3, 5, 7])
    ctx = plan.ctx
    msg = MessagePoly([ctx.elem(i + 1) for i in range(plan.k)])
    cw = encode(msg, plan.eval_set, plan_digest=plan.digest)
    h = hashlib.sha256()
    for node in range(plan.n):
        assert ("repair", node, plan.d) not in plan._cache
        repair_c1(plan, cw, node)
        gi, _ = plan.locate(node)
        _, R = _helper_prefix(plan, gi, plan.d)
        beta = plan._cache[("subspace", node, R)].beta
        exp = next(e for e in range(1, 33) if ctx.generator ** e == beta)
        helpers = plan._cache[("repair", node, plan.d)].helpers
        f_inv = _parity_column(plan, node, helpers)[1]
        duals = [dv * f_inv for dv in plan._cache[("subspace", node, R)].duals]
        h.update(f"{node} {exp}\n".encode())
        h.update("".join(v.hex() + "\n" for v in duals).encode())
    assert h.hexdigest() == PINNED_COLD_PREPARATIONS_SHA256


# SHA-256 over the accepted beta, the hex basis and the hex duals of
# lemma1_subspace for every (node, helper-group set) of toy_c1 and
# toy_c1_wide, as found by one Gram solve over the residue field K
PINNED_SUBSPACES_SHA256 = (
    "e874137a5bc1afa37d3b5fbdcb89b7a5d38d674d7377c96af26efca77b38a610"
)


def test_every_subspace_matches_a_gram_solve_over_k(toy_c1, toy_c1_wide,
                                                    monkeypatch):
    # the oracle is the Gram solve over K of the s shifts of the basis:
    # the trace dual is unique, so any route to it must give these duals
    h = hashlib.sha256()
    sets = 0
    for name, plan in (("toy_c1", toy_c1), ("toy_c1_wide", toy_c1_wide)):
        monkeypatch.setattr(plan, "_cache", {})
        for node in range(plan.n):
            group, _ = plan.locate(node)
            others = [j for j in range(len(plan.groups)) if j != group]
            alpha = plan.eval_set.points[node]
            for size in range(1, len(others) + 1):
                for R in itertools.combinations(others, size):
                    S = lemma1_subspace(plan, node, helper_groups=R)
                    shifted = _shifts(list(S.basis), alpha, plan.s)
                    fresh = dual_basis(BasisOverSubfield(S.subfield, shifted))
                    assert list(S.duals) == list(fresh.vectors)
                    sets += 1
                    h.update(f"{name} {node} {R} {S.beta.hex()}\n".encode())
                    h.update("".join(v.hex() + "\n" for v in
                                     (*S.basis, *S.duals)).encode())
    assert sets == 6 + 27
    assert h.hexdigest() == PINNED_SUBSPACES_SHA256


# SHA-256 over the transcript JSON, transfer-log CSV and trace responses of
# a PE repair of every node of toy_c1_wide at d = 3, for two cluster seeds:
# nodes 3-8 answer in GF(2^3), which test_repair_outputs_are_pinned does
# not reach
PINNED_WIDE_REPAIRS_SHA256 = (
    "4ae55baf450f18438907e46d555a34621c0a62113b963bf3b0f7ad67571a88bc"
)


def test_every_wide_node_repair_is_pinned(toy_c1_wide):
    h = hashlib.sha256()
    for seed in (31, 4096):
        for node in range(toy_c1_wide.n):
            state = fail_node(init_cluster(toy_c1_wide, seed), node)
            _, tr, log = run_repair(state, "pe", 3)
            h.update(tr.to_json().encode())
            h.update(log.to_csv().encode())
            h.update("".join(r.hex() + "\n" for r in tr.responses).encode())
    assert h.hexdigest() == PINNED_WIDE_REPAIRS_SHA256


# SHA-256 over the transcript JSON, transfer-log CSV and trace responses of
# a PE repair of every node of toy_c1_wide at d = 4, 5 and 6, for two
# cluster seeds: responses in GF(2^15), GF(2^21) and GF(2^35), the shapes
# that test_every_wide_node_repair_is_pinned (d = 3) does not reach
PINNED_WIDE_HIGH_LOCALITY_SHA256 = (
    "5989abf4d6bbc1f4a99a196d46cfd9e6f5b27686fb4ce380f66af27158ecfbfe"
)


def test_every_wide_node_repair_above_the_canonical_locality_is_pinned(
        toy_c1_wide):
    h = hashlib.sha256()
    for seed in (53, 8191):
        for d in (4, 5, 6):
            for node in range(toy_c1_wide.n):
                state = fail_node(init_cluster(toy_c1_wide, seed), node)
                _, tr, log = run_repair(state, "pe", d)
                h.update(tr.to_json().encode())
                h.update(log.to_csv().encode())
                h.update("".join(r.hex() + "\n"
                                 for r in tr.responses).encode())
    assert h.hexdigest() == PINNED_WIDE_HIGH_LOCALITY_SHA256
