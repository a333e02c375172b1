import hashlib
import random

import pytest

from perepair.constructions import build_plan_c1
from perepair.errors import PERepairError
from perepair import field_tower, repair_engine
from perepair.field_tower import BasisOverSubfield, degree_over, dual_basis, trace_to
from perepair.fixtures import example2
from perepair.repair_engine import (
    RepairSubspace,
    _helper_prefix,
    _lemma1_candidates,
    _shifts,
    cutset_bits,
    lemma1_subspace,
    repair_c1,
    repair_c2,
    select_helpers_c1,
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


def make_codeword(plan, rng):
    msg = MessagePoly(
        [plan.ctx.elem(rng.getrandbits(plan.ctx.degree_bits)) for _ in range(plan.k)]
    )
    return encode(msg, plan.eval_set, plan_digest=plan.digest)


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
    wrong = BasisOverSubfield(S.subfield, _shifts(S.basis, second, 2),
                              validate=False)
    with pytest.raises(PERepairError) as ei:
        dual_basis(wrong)
    assert ei.value.code == "SINGULAR_GRAM"


def test_gram_acceptance_matches_verify_span(toy_c1):
    # every candidate of g^1..g^32, for every node's point, shifted by
    # each point of its group: the trace-dual Gram solve accepts exactly
    # what verify_span's GF(2) rank accepts
    outcomes = set()
    for gi, g in enumerate(toy_c1.groups):
        ubar = toy_c1.groups[1 - gi].prime
        sub = toy_c1.ctx.subfield(ubar)
        for node in toy_c1.group_nodes(gi):
            alpha = toy_c1.eval_set.points[node]
            for beta, vectors in _lemma1_candidates(toy_c1, gi, alpha, ubar):
                basis = BasisOverSubfield(sub, vectors, validate=False)
                for pt in g.points:
                    shifted = _shifts(vectors, pt, toy_c1.s)
                    try:
                        dual_basis(BasisOverSubfield(sub, shifted,
                                                     validate=False))
                        gram_ok = True
                    except PERepairError as err:
                        assert err.code == "SINGULAR_GRAM"
                        gram_ok = False
                    rank_ok = verify_span(RepairSubspace(sub, basis, beta),
                                          pt, toy_c1.s)
                    assert gram_ok == rank_ok
                    outcomes.add(gram_ok)
    assert outcomes == {True, False}


def test_repair_scales_the_subspace_duals(toy_c1, toy_c1_wide):
    # the repair's duals of B = f_mult * {e_m * alpha_f^w} are the
    # subspace's duals over f_mult, equal to a fresh Gram solve of B
    rng = random.Random(808)
    for plan in (toy_c1, toy_c1_wide):
        cw = make_codeword(plan, rng)
        for node in range(plan.n):
            assert repair_c1(plan, cw, node).recovered == cw.symbols[node]
            helpers, sub, _, _, dual_vecs, _, _ = plan._cache[
                ("repair", node, plan.d)]
            gi, _ = plan.locate(node)
            S = lemma1_subspace(plan, node,
                                helper_groups=_helper_prefix(plan, gi, plan.d)[1])
            helper_set = set(helpers)
            h = annihilator([plan.eval_set.points[i] for i in range(plan.n)
                             if i not in helper_set and i != node], plan.ctx)
            f_mult = (poly_eval(h, plan.eval_set.points[node])
                      * dual_multipliers(plan.eval_set).v[node])
            alpha_f = plan.eval_set.points[node]
            B = [f_mult * u for u in _shifts(S.basis, alpha_f, plan.s)]
            fresh = dual_basis(BasisOverSubfield(sub, B, validate=False))
            assert list(dual_vecs) == list(fresh.vectors)


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
        cw = make_codeword(plan, rng)
        for node in range(plan.n):
            calls.clear()
            assert fn(plan, cw, node).recovered == cw.symbols[node]
            assert len(calls) == 1
            calls.clear()
            fn(plan, cw, node)  # prepared: no Gram solve at all
            assert not calls


def test_lemma1_subspaces_over_a_gf4_base():
    # q = 4: every node's subspace lives over GF(4^{u-bar}) and shift-spans
    # E with its own point's powers
    plan = build_plan_c1(2, [2, 2], s=2, primes=[3, 5])
    for node in range(plan.n):
        gi, _ = plan.locate(node)
        S = lemma1_subspace(plan, node)
        assert S.subfield.degree_bits == 2 * plan.groups[1 - gi].prime
        assert verify_span(S, plan.eval_set.points[node], plan.s)


def test_lemma1_rejects_degenerate_helper_groups(toy_c1):
    with pytest.raises(ValueError):
        lemma1_subspace(toy_c1, 0, helper_groups=(0,))
    with pytest.raises(ValueError):
        lemma1_subspace(toy_c1, 0, helper_groups=())


def test_verify_span_s1_full_basis(toy_c1):
    ctx = toy_c1.ctx
    sub = ctx.subfield(5)
    g = ctx.generator
    basis = BasisOverSubfield(sub, [g ** j for j in range(6)])
    S = RepairSubspace(sub, basis, g)
    assert verify_span(S, toy_c1.eval_set.points[0], 1)


def test_select_helpers_round_robin(toy_c1, toy_c1_wide):
    assert select_helpers_c1(toy_c1, 0, 3) == [3, 4, 5]
    assert select_helpers_c1(toy_c1, 4, 3) == [0, 1, 2]
    # wide plan: helpers cycle across the prefix groups
    assert select_helpers_c1(toy_c1_wide, 0, 3) == [3, 4, 5]
    assert select_helpers_c1(toy_c1_wide, 0, 5) == [3, 6, 4, 7, 5]
    assert select_helpers_c1(toy_c1_wide, 3, 4) == [0, 6, 1, 7]


def test_select_helpers_never_in_failed_group(toy_c1, toy_c1_wide):
    for plan in (toy_c1, toy_c1_wide):
        for node in range(plan.n):
            gi, _ = plan.locate(node)
            banned = set(plan.group_nodes(gi))
            for d in range(plan.k, plan.n - plan.groups[gi].t + 1):
                chosen = select_helpers_c1(plan, node, d)
                assert len(chosen) == d == len(set(chosen))
                assert not banned & set(chosen)


def test_select_helpers_locality_range(toy_c1):
    with pytest.raises(PERepairError) as ei:
        select_helpers_c1(toy_c1, 0, 1)
    assert ei.value.code == "LOCALITY_OUT_OF_RANGE"
    with pytest.raises(PERepairError) as ei:
        select_helpers_c1(toy_c1, 0, 4)
    assert ei.value.code == "LOCALITY_OUT_OF_RANGE"


def test_repair_c1_recovers_every_node(toy_c1):
    rng = random.Random(20240601)
    for trial in range(5):
        cw = make_codeword(toy_c1, rng)
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
    cw = make_codeword(toy_c1, rng)
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
        cw = make_codeword(plan, rng)
        failed = plan.n - 1
        garbage = list(cw.symbols)
        garbage[failed] = plan.ctx.elem(rng.getrandbits(plan.ctx.degree_bits))
        broken = Codeword(garbage, cw.plan_digest)
        assert fn(plan, broken, failed).recovered == cw.symbols[failed]


def test_repair_c1_locality_range(toy_c1, toy_c1_wide):
    rng = random.Random(8)
    cw = make_codeword(toy_c1, rng)
    for d in (2, 4):  # below k+s-1 and above n-t
        with pytest.raises(PERepairError) as ei:
            repair_c1(toy_c1, cw, 0, d=d)
        assert ei.value.code == "LOCALITY_OUT_OF_RANGE"
    # d = k is selectable for helper listing but below the repair threshold
    cw_wide = make_codeword(toy_c1_wide, rng)
    assert select_helpers_c1(toy_c1_wide, 0, 2) == [3, 4]
    with pytest.raises(PERepairError) as ei:
        repair_c1(toy_c1_wide, cw_wide, 0, d=2)
    assert ei.value.code == "LOCALITY_OUT_OF_RANGE"


def test_repair_c1_plan_mismatch(toy_c1, toy_c1_wide):
    rng = random.Random(77)
    cw = make_codeword(toy_c1, rng)
    with pytest.raises(PERepairError) as ei:
        repair_c1(toy_c1_wide, cw, 0)
    assert ei.value.code == "PLAN_MISMATCH"
    unlabeled = encode(
        MessagePoly([toy_c1.ctx.one, toy_c1.ctx.one]), toy_c1.eval_set
    )
    with pytest.raises(PERepairError) as ei:
        repair_c1(toy_c1, unlabeled, 0)
    assert ei.value.code == "PLAN_MISMATCH"


def test_repair_wrong_construction(toy_c1, toy_c2):
    rng = random.Random(3)
    cw1 = make_codeword(toy_c1, rng)
    cw2 = make_codeword(toy_c2, rng)
    with pytest.raises(ValueError):
        repair_c2(toy_c1, cw1, 0)
    with pytest.raises(ValueError):
        repair_c1(toy_c2, cw2, 0)


def test_repair_c1_above_canonical_locality(toy_c1_wide):
    """More helpers than k+s-1 still repair, trading bandwidth for spread."""
    rng = random.Random(5150)
    plan = toy_c1_wide
    cw = make_codeword(plan, rng)
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
    cw = make_codeword(plan, rng)
    tr = repair_c1(plan, cw, 3)
    assert tr.recovered == cw.symbols[3]
    assert tr.helpers == [0, 1, 2]
    assert tr.bits_transmitted == tr.cutset_bits == 315


def test_repair_c2_recovers_every_node(toy_c2):
    rng = random.Random(60606)
    for trial in range(5):
        cw = make_codeword(toy_c2, rng)
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
    cw = make_codeword(toy_c2, rng)
    for failed in (0, 6, 7, 12):
        tr = repair_c2(toy_c2, cw, failed)
        others = [i for i in range(toy_c2.n) if i != failed][: toy_c2.k]
        poly = naive_decode([(i, cw.symbols[i]) for i in others], toy_c2.eval_set)
        assert tr.recovered == poly.evaluate(toy_c2.eval_set.points[failed])


def test_bit_count_invariant_is_a_coded_error(toy_c2, monkeypatch):
    # the cut-set check survives python -O: a skewed bound is reported
    from perepair import repair_engine

    cw = make_codeword(toy_c2, random.Random(3))
    monkeypatch.setattr(repair_engine, "cutset_bits", lambda *a: 1)
    with pytest.raises(PERepairError) as ei:
        repair_c2(toy_c2, cw, 0)
    assert ei.value.code == "INVARIANT_VIOLATION"


def test_transcript_payload_shape(toy_c1):
    rng = random.Random(2)
    cw = make_codeword(toy_c1, rng)
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
            sub = plan.ctx.subfield(plan.base_bits * u_i)
            assert [degree_over(pt, sub) for pt in g.points] == [g.prime] * g.t
    for plan in (toy_c1, toy_c1_wide):
        ctx = plan.ctx
        for node in range(plan.n):
            gi, _ = plan.locate(node)
            for groups in (_helper_prefix(plan, gi, plan.d)[1], None):
                S = lemma1_subspace(plan, node, helper_groups=groups)
                BasisOverSubfield(S.subfield, S.basis, validate=True)
                shifted = _shifts(S.basis, plan.eval_set.points[node], plan.s)
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
