import json
import math

import pytest

from perepair import constructions, field_tower
from perepair._util import digest_of
from perepair.cli import main
from perepair.constructions import (
    _PLAN_INTS,
    _check_groups,
    _euler_phi,
    _phi_at_least,
    build_plan_c1,
    build_plan_c2,
    find_primes_c1,
    load_plan,
    save_plan,
)
from perepair.errors import PERepairError
from perepair.field_tower import is_primitive_in_subfield
from perepair.fixtures import example1, example2
from perepair.storage_sim import init_cluster, load_cluster, save_cluster


def test_find_primes_smallest_admissible():
    assert find_primes_c1(2, 4, [3, 3, 3, 3]) == (3, 5, 7, 11)
    assert find_primes_c1(2, 2, [3, 3]) == (3, 5)
    assert find_primes_c1(3, 3, [5, 6, 6]) == (7, 13, 19)


def test_find_primes_congruence_class():
    for p in find_primes_c1(4, 2, [2, 2]):
        assert p % 4 == 1
    assert find_primes_c1(4, 2, [2, 2]) == (5, 13)


def test_find_primes_skips_starved_subfields():
    # phi(2^3 - 1) = 6, so a group of 30 points needs the next prime up
    assert find_primes_c1(2, 2, [3, 30]) == (3, 5)
    assert find_primes_c1(2, 2, [3, 31]) == (3, 7)


def test_find_primes_validation():
    with pytest.raises(ValueError):
        find_primes_c1(2, 1, [3])
    with pytest.raises(ValueError):
        find_primes_c1(2, 3, [3, 3])


def test_toy_c1_shape(toy_c1):
    p = toy_c1
    assert p.construction == 1
    assert (p.n, p.k, p.d, p.s) == (6, 2, 3, 2)
    assert p.primes == (3, 5)
    assert p.u == 15 and p.u_list == (5, 3)
    assert p.L == 30
    assert p.ctx.degree_bits == 30
    assert [g.t for g in p.groups] == [3, 3]


def test_toy_c1_node_addressing(toy_c1):
    assert list(toy_c1.group_nodes(0)) == [0, 1, 2]
    assert list(toy_c1.group_nodes(1)) == [3, 4, 5]
    assert toy_c1.locate(0) == (0, 0)
    assert toy_c1.locate(4) == (1, 1)
    with pytest.raises(ValueError):
        toy_c1.locate(6)
    with pytest.raises(ValueError):
        toy_c1.locate(-1)


def test_toy_c1_default_exponents(toy_c1):
    assert [g.point_exponents for g in toy_c1.groups] == [(1, 2, 3), (1, 2, 3)]


def test_points_primitive_in_their_subfield(toy_c1, toy_c2):
    for plan in (toy_c1, toy_c2):
        for g in plan.groups:
            sub = plan.ctx.subfield(plan.base_bits * g.prime)
            for pt in g.points:
                assert is_primitive_in_subfield(pt, sub)


def test_points_distinct_across_groups(toy_c1, toy_c2):
    for plan in (toy_c1, toy_c2):
        assert len({p.v for p in plan.eval_set.points}) == plan.n


def test_k_defaults_to_maximum(toy_c1):
    explicit = build_plan_c1(1, [3, 3], s=2, k=2, primes=[3, 5])
    assert explicit.digest == toy_c1.digest


def test_t_normalized_ascending():
    # auto-chosen primes are matched to flexibilities in ascending order
    p = build_plan_c1(1, [3, 2], s=2)
    assert [g.t for g in p.groups] == [2, 3]
    assert [g.prime for g in p.groups] == [3, 5]
    # explicit primes keep the caller's pairing but groups still sort by t
    q = build_plan_c1(1, [3, 2], s=2, primes=[3, 5])
    assert [(g.prime, g.t) for g in q.groups] == [(5, 2), (3, 3)]


def test_toy_c2_shape(toy_c2):
    p = toy_c2
    assert p.construction == 2
    assert (p.n, p.k, p.r) == (13, 5, 8)
    assert p.primes == (2, 3)
    assert [g.t for g in p.groups] == [7, 6]
    assert p.L == p.u == 6
    assert p.ctx.degree_bits == 12
    assert list(p.group_nodes(0)) == list(range(7))
    assert list(p.group_nodes(1)) == list(range(7, 13))


def test_toy_c2_default_exponents(toy_c2):
    # smallest exponents coprime to 15 and 63 respectively
    assert toy_c2.groups[0].point_exponents == (1, 2, 4, 7, 8, 11, 13)
    assert toy_c2.groups[1].point_exponents == (1, 2, 4, 5, 8, 10)


def test_c1_rejects_bad_primes():
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, primes=[4, 5])
    assert ei.value.code == "BAD_PRIME"
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, primes=[3, 3])
    assert ei.value.code == "BAD_PRIME"
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, primes=[2, 3])  # 2 != 1 mod 2
    assert ei.value.code == "BAD_PRIME"


def test_c1_rejects_oversized_group():
    # phi(2^3 - 1) = 6 primitive elements available
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [7, 3], s=2, primes=[3, 5])
    assert ei.value.code == "INSUFFICIENT_PRIMITIVES"


def test_c1_rejects_bad_rate():
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, k=3, primes=[3, 5])
    assert ei.value.code == "RATE_VIOLATION"
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, k=0, primes=[3, 5])
    assert ei.value.code == "RATE_VIOLATION"


def test_c1_rejects_inconsistent_k_d():
    with pytest.raises(ValueError):
        build_plan_c1(1, [3, 3], s=2, k=2, d=5, primes=[3, 5])


def test_c1_explicit_exponents_need_explicit_primes():
    with pytest.raises(ValueError):
        build_plan_c1(1, [3, 3], s=2, point_exponents=[[1, 2, 3], [1, 2, 3]])


def test_c1_s1_degenerate_warns():
    with pytest.warns(UserWarning):
        plan = build_plan_c1(1, [2, 2], s=1, primes=[2, 3])
    assert plan.d == plan.k


def test_c2_rejects_undersized_groups():
    with pytest.raises(PERepairError) as ei:
        build_plan_c2(2, 3, [2, 3])  # t_2 = 3 - 3 + 1 = 1
    assert ei.value.code == "CONSTRAINT_VIOLATION"


def test_c2_checks_rate_before_building_a_field(monkeypatch):
    # t = 4, 2 and r = 6 give k = 0; no field is built to find that out
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built for an impossible rate")

    monkeypatch.setattr(constructions, "make_field", no_field)
    with pytest.raises(PERepairError, match=r"k = n - r = 0 < 1") as ei:
        build_plan_c2(1, 6, [3, 5])
    assert ei.value.code == "RATE_VIOLATION"


def test_c2_rejects_non_prime():
    with pytest.raises(PERepairError) as ei:
        build_plan_c2(2, 8, [4, 3])
    assert ei.value.code == "BAD_PRIME"


def test_both_constructions_share_one_group_rule():
    # each group fault draws the same code from either builder
    faults = [
        ("BAD_PRIME",  # not a prime
         lambda: build_plan_c1(1, [3, 3], s=2, primes=[9, 5]),
         lambda: build_plan_c2(1, 8, [4, 3])),
        ("BAD_PRIME",  # a prime given twice
         lambda: build_plan_c1(1, [3, 3], s=2, primes=[3, 3]),
         lambda: build_plan_c2(1, 8, [3, 3])),
        # phi(2^3 - 1) = 6 < 7 points, and phi(2^2 - 1) = 2 < 3 points
        ("INSUFFICIENT_PRIMITIVES",
         lambda: build_plan_c1(1, [7, 3], s=2, primes=[3, 5]),
         lambda: build_plan_c2(1, 4, [2, 3])),
    ]
    for code, *builds in faults:
        for build in builds:
            with pytest.raises(PERepairError) as ei:
                build()
            assert ei.value.code == code


def test_any_two_of_s_k_d_spell_one_plan(toy_c1):
    # d = k + s - 1: s alone takes k's maximum, 2
    spellings = [{"s": 2}, {"s": 2, "k": 2}, {"s": 2, "d": 3},
                 {"k": 2, "d": 3}, {"s": 2, "k": 2, "d": 3}]
    for given in spellings:
        plan = build_plan_c1(1, [3, 3], primes=[3, 5], **given)
        assert (plan.s, plan.k, plan.d) == (2, 2, 3)
        assert plan.digest == toy_c1.digest
    for given in ({"d": 3}, {"k": 2}):
        with pytest.raises(ValueError):
            build_plan_c1(1, [3, 3], primes=[3, 5], **given)


def test_a_d_given_beside_s_fixes_k():
    plan = build_plan_c1(1, [3, 3, 3], s=2, d=5, primes=[3, 5, 7])
    assert (plan.k, plan.d) == (4, 5)
    # n - t = 3 leaves no room for k = 4
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, d=5, primes=[3, 5])
    assert ei.value.code == "RATE_VIOLATION"


def test_builders_reject_malformed_groups():
    for build in (lambda: build_plan_c1(1, [3], s=2, primes=[3]),
                  lambda: build_plan_c1(1, [3, 0], s=2, primes=[3, 5]),
                  lambda: build_plan_c2(2, 8, [2]),
                  # one exponent list too short for its group of 7
                  lambda: build_plan_c2(2, 8, [2, 3],
                                        point_exponents=[[1, 2], None])):
        with pytest.raises(ValueError):
            build()


def test_exponent_validation():
    # gcd(3, 15) > 1: gamma^3 is not primitive in GF(4^2)
    with pytest.raises(PERepairError) as ei:
        build_plan_c2(2, 8, [2, 3],
                      point_exponents=[[1, 2, 4, 7, 8, 11, 3], None])
    assert ei.value.code == "CONSTRAINT_VIOLATION"
    with pytest.raises(PERepairError) as ei:
        build_plan_c2(2, 8, [2, 3],
                      point_exponents=[[1, 2, 4, 7, 8, 11, 15], None])
    assert ei.value.code == "CONSTRAINT_VIOLATION"  # out of [1, 15)


def test_generator_of_short_order_is_refused(toy_c2):
    # g^3 has order 4095 / 3 but full degree, so make_field takes it; the
    # canonical generator of GF(2^4) is then h^3, defining but of order 5
    ctx = toy_c2.ctx
    with pytest.raises(PERepairError, match="primitivity") as ei:
        build_plan_c2(2, 8, [2, 3], modulus=ctx.modulus,
                      generator=ctx._pow(ctx.generator.v, 3))
    assert ei.value.code == "CONSTRAINT_VIOLATION"


def test_duplicate_points_rejected():
    with pytest.raises(PERepairError) as ei:
        build_plan_c2(2, 8, [2, 3],
                      point_exponents=[[1, 2, 4, 7, 8, 11, 1], None])
    assert ei.value.code == "DUPLICATE_INDEX"


def test_digest_freezes_plan_identity(toy_c1, toy_c2, toy_c1_wide):
    # (plan, digest of its payload without generator_hex, full digest): the
    # first digests predate the pinned generator and still fix the rest
    frozen = [
        (toy_c1,
         "e4fbb57c7d2da305b23d9c829bb8eb22e9f9a4356cb40527a97180d2ab6348b2",
         "5bea9785413ce1a9958020372b004d553bf37e1c57613ce741743b1c046ae90b"),
        (toy_c2,
         "22b581fd0de228b9640e36512d5571dc0b6aa2ef47da21d388654cde503e8c3f",
         "edfa492d02bd75075eb4e7c259351d39212eddd2c7a18cc0c053645f11461d6d"),
        (example2().plan,
         "424e751317856f1f4daaae31af5c361fc9f5c43d3d3fece3f9eed7d6aefd0ff0",
         "7c46fd3ce0fc6ee187c4f8a97b8e30294dea1c08757b0942346db362b67a299e"),
        # the benchmark's wide plan: default primes and dense-tail modulus
        (build_plan_c1(1, [3, 3, 3], s=2, k=2),
         "e1328b97b6f99a10822f37e3d0dee07156a1c2318095091451dd97592a14ee4a",
         "de50a43a131cc50a8c6cbc65c59ac9a0ddba00b062b1bda3ef2a15a4d1369c2b"),
    ]
    for plan, without_generator, full in frozen:
        payload = plan.payload()
        del payload["generator_hex"]
        assert digest_of(payload) == without_generator
        assert plan.digest == full
    assert toy_c1_wide.digest == frozen[-1][0].digest
    rebuilt = build_plan_c1(1, [3, 3], s=2, primes=[3, 5])
    assert rebuilt.digest == toy_c1.digest
    other = build_plan_c1(1, [3, 2], s=2, primes=[3, 5])
    assert other.digest != toy_c1.digest
    assert toy_c2.digest != toy_c1.digest


def test_fixture_points_keep_their_published_minimal_polynomials():
    # the fixtures spell their point exponents out; the first node of each
    # group is a root of the minimal polynomial they were read from
    for ex, published in ((example1(), [13, 59, 229, 2717]),
                          (example2(), [19, 91, 1135])):
        plan = ex.plan
        firsts = [sum(g.t for g in plan.groups[:i])
                  for i in range(len(plan.groups))]
        assert [plan.eval_set.minpolys[i] for i in firsts] == published
    assert example2().plan.ctx.modulus == field_tower.smallest_irreducible(60)


def test_payload_holds_the_plan_file_fields(toy_c1, toy_c2):
    shared = {"construction", "primes", "t", "point_exponents", "modulus_hex",
              "generator_hex"}
    for plan in (toy_c1, toy_c2):
        payload = plan.payload()
        assert set(payload) == shared | set(_PLAN_INTS[plan.construction])
        assert payload["construction"] == plan.construction
        assert payload["generator_hex"] == format(plan.ctx.generator.v, "x")
        assert digest_of(payload) == plan.digest


def test_plan_file_roundtrip(tmp_path, toy_c1, toy_c2):
    for plan in (toy_c1, toy_c2):
        path = tmp_path / f"plan{plan.construction}.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.digest == plan.digest
        assert loaded.construction == plan.construction
        assert [p.v for p in loaded.eval_set.points] == [
            p.v for p in plan.eval_set.points
        ]


def test_plan_file_tamper_detection(tmp_path, toy_c1):
    path = tmp_path / "plan.json"
    save_plan(toy_c1, path)
    payload = json.loads(path.read_text())

    payload["k"] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(PERepairError) as ei:
        load_plan(path)
    assert ei.value.code == "DIGEST_MISMATCH"

    payload["k"] = 2
    payload["digest"] = "0" * 16
    path.write_text(json.dumps(payload))
    with pytest.raises(PERepairError) as ei:
        load_plan(path)
    assert ei.value.code == "DIGEST_MISMATCH"


def _write_plan(path, payload, digest=None):
    """payload as a plan file, its digest recomputed unless given."""
    payload = dict(payload)
    payload["digest"] = digest_of(payload) if digest is None else digest
    path.write_text(json.dumps(payload))


def test_plan_file_pins_its_generator(tmp_path, toy_c1, capsys,
                                      fresh_process):
    path = tmp_path / "plan.json"
    payload = toy_c1.payload()
    # a good load first: the plan kept for its digest serves no other file
    save_plan(toy_c1, path)
    assert load_plan(path).digest == toy_c1.digest
    # another generator under the stored digest
    _write_plan(path, {**payload, "generator_hex": "2"}, toy_c1.digest)
    with pytest.raises(PERepairError) as ei:
        load_plan(path)
    assert ei.value.code == "DIGEST_MISMATCH"
    # self-consistent files whose generator is not defining over GF(2), or
    # is, but as a 7th power sends GF(2^3)'s canonical generator
    # g^((2^30 - 1) / 7) to 1
    ctx = toy_c1.ctx
    short = format(ctx._pow(ctx.generator.v, 7), "x")
    for bad in ("1", "-13", short):
        _write_plan(path, {**payload, "generator_hex": bad})
        with pytest.raises(PERepairError) as ei:
            load_plan(path)
        assert ei.value.code == "CONSTRAINT_VIOLATION"
    rc = main(["cluster", "--plan", str(path), "--out", str(tmp_path / "c")])
    assert rc == 3
    assert "CONSTRAINT_VIOLATION" in capsys.readouterr().err
    assert set(constructions._plan_memo) == {toy_c1.digest}
    # the same generator given to the builder
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, primes=[3, 5], generator=int(short, 16))
    assert ei.value.code == "CONSTRAINT_VIOLATION"


def test_plan_file_without_a_generator_is_corrupt(tmp_path, toy_c1):
    # a plan file as written before the generator was pinned: its digest is
    # consistent, and there is no search to fall back on
    path = tmp_path / "plan.json"
    payload = toy_c1.payload()
    del payload["generator_hex"]
    _write_plan(path, payload)
    with pytest.raises(PERepairError) as ei:
        load_plan(path)
    assert ei.value.code == "CORRUPT_FILE"
    assert "generator_hex" in str(ei.value)


def test_plan_file_with_a_respelled_modulus_is_refused(tmp_path, toy_c1,
                                                       fresh_process):
    # the same modulus in another hex spelling, under a recomputed digest:
    # the rebuilt plan writes the canonical spelling, so its digest differs
    path = tmp_path / "plan.json"
    payload = toy_c1.payload()
    for spelling in ("0x" + payload["modulus_hex"], "0" + payload["modulus_hex"]):
        _write_plan(path, {**payload, "modulus_hex": spelling})
        with pytest.raises(PERepairError, match="rebuilt plan differs") as ei:
            load_plan(path)
        assert ei.value.code == "DIGEST_MISMATCH"
    assert constructions._plan_memo == {}


def test_c2_plan_file_with_edited_t_is_corrupt(tmp_path, toy_c2,
                                              fresh_process):
    # Construction 2 derives t_i = r - p_i + 1, so a stored t list that
    # disagrees is refused even under a consistent digest
    path = tmp_path / "plan.json"
    _write_plan(path, {**toy_c2.payload(), "t": [6, 7]})
    with pytest.raises(PERepairError, match="stored t disagrees") as ei:
        load_plan(path)
    assert ei.value.code == "CORRUPT_FILE"


def test_plan_file_round_trip_is_byte_stable(tmp_path, toy_c1, toy_c2):
    for plan in (toy_c1, toy_c2, example2().plan):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_plan(plan, first)
        save_plan(load_plan(first), second)
        assert second.read_bytes() == first.read_bytes()


def test_loading_a_plan_factors_nothing(tmp_path, monkeypatch, fresh_process):
    # a fresh process: no cached field and no loaded plan, and any factoring
    # of 2^N - 1 or order test against it would be the generator search
    # coming back
    plan = example1().plan
    path = tmp_path / "example1.plan"
    save_plan(plan, path)
    fresh_process()

    def no_factoring(n_bits):
        raise AssertionError(f"factored 2^{n_bits} - 1")

    ambient_tests = []
    order_test = field_tower._order_test

    def counted(ctx, v, order, primes):
        ambient_tests.append(order == ctx.order)
        return order_test(ctx, v, order, primes)

    monkeypatch.setattr(field_tower, "_factor_mersenne_like", no_factoring)
    monkeypatch.setattr(field_tower, "_order_test", counted)
    loaded = load_plan(path)
    assert loaded.digest == plan.digest
    assert loaded.ctx is not plan.ctx and loaded.ctx.generator.v == 3
    assert load_plan(path) is loaded  # one validated plan per digest
    cluster = tmp_path / "example1.cluster"
    save_cluster(init_cluster(loaded, 5), cluster, plan_path=path)
    fresh_process()
    assert load_cluster(cluster).plan.digest == plan.digest
    assert ambient_tests and not any(ambient_tests)  # subfield tests only


def test_a_loaded_plan_is_kept_per_digest(tmp_path, monkeypatch, toy_c1,
                                          toy_c2, fresh_process):
    paths = {}
    loaded = {}
    for plan in (toy_c1, toy_c2):
        paths[plan] = tmp_path / f"c{plan.construction}.plan"
        save_plan(plan, paths[plan])
        loaded[plan] = load_plan(paths[plan])

    def no_build(*args, **kwargs):
        raise AssertionError("a loaded plan was rebuilt")

    monkeypatch.setattr(constructions, "build_plan_c1", no_build)
    monkeypatch.setattr(constructions, "build_plan_c2", no_build)
    for plan, path in paths.items():
        assert load_plan(path) is loaded[plan]
        # the same bytes under another name are the same plan
        copy = tmp_path / "copy.plan"
        copy.write_bytes(path.read_bytes())
        assert load_plan(copy) is loaded[plan]
        # the digest is still checked first: a payload changed under the
        # stored digest is refused, and the plan kept for it is not served
        payload = plan.payload()
        payload["point_exponents"] = [e[::-1] for e in payload["point_exponents"]]
        _write_plan(copy, payload, plan.digest)
        with pytest.raises(PERepairError) as ei:
            load_plan(copy)
        assert ei.value.code == "DIGEST_MISMATCH"
        # and so is every shape check
        _write_plan(copy, {**plan.payload(), "t": 3}, plan.digest)
        with pytest.raises(PERepairError) as ei:
            load_plan(copy)
        assert ei.value.code == "CORRUPT_FILE"
    assert set(constructions._plan_memo) == {toy_c1.digest, toy_c2.digest}


def test_plan_file_corruption_detection(tmp_path, toy_c1):
    path = tmp_path / "plan.json"
    path.write_text("not json at all {")
    with pytest.raises(PERepairError) as ei:
        load_plan(path)
    assert ei.value.code == "CORRUPT_FILE"

    save_plan(toy_c1, path)
    payload = json.loads(path.read_text())
    del payload["primes"]
    path.write_text(json.dumps(payload))
    with pytest.raises(PERepairError) as ei:
        load_plan(path)
    assert ei.value.code == "CORRUPT_FILE"

    with pytest.raises(PERepairError) as ei:
        load_plan(tmp_path / "missing.json")
    assert ei.value.code == "CORRUPT_FILE"


# a plan file that is not a JSON object, then digest-consistent payloads
# whose numbers are not ints (JSON true/false included), and a file that is
# not UTF-8
MALFORMED_PLANS = [
    b"5", b'"x"', b"null", b"[1, 2]", b"\xff\xfe{",
    ("base_bits", "1"), ("base_bits", 1.0), ("base_bits", True), ("t", 3),
    ("t", [3.0, 3]), ("s", "2"), ("k", None), ("point_exponents", 7),
    ("point_exponents", [[1, 2, 4], ["x", 2, 4]]),
]

# digest-consistent payloads of well-typed values that no plan can have
IMPOSSIBLE_PLANS = [
    ("base_bits", 0), ("base_bits", -1), ("point_exponents", []),
]


@pytest.mark.parametrize("case", MALFORMED_PLANS + IMPOSSIBLE_PLANS, ids=repr)
def test_malformed_plan_file_is_corrupt(tmp_path, toy_c1, case, capsys):
    path = tmp_path / "bad.plan"
    if isinstance(case, bytes):
        path.write_bytes(case)
    else:
        payload = toy_c1.payload()
        payload[case[0]] = case[1]
        payload["digest"] = digest_of(payload)
        path.write_text(json.dumps(payload))
    with pytest.raises(PERepairError) as ei:
        load_plan(path)
    assert ei.value.code == "CORRUPT_FILE"
    rc = main(["cluster", "--plan", str(path), "--out", str(tmp_path / "c")])
    assert rc == 3
    assert "CORRUPT_FILE" in capsys.readouterr().err


def test_c1_rejects_s_below_one():
    # the prime congruence check p = 1 (mod s) needs s >= 1
    for s in (0, -1):
        with pytest.raises(ValueError, match="need s >= 1"):
            build_plan_c1(1, [3, 3], s=s, primes=[3, 5])


def test_c1_parameters_settles_phi_without_factoring(monkeypatch):
    # 2^137 - 1 outlasts the rho cap, but phi(n) >= sqrt(n/2) admits 3
    factored = []

    def factor_integer(x):
        factored.append(x)
        return field_tower.factor_integer(x)

    monkeypatch.setattr(constructions, "factor_integer", factor_integer)
    _check_groups(1, 2, [(3, 3, None), (137, 3, None)])
    assert factored == [7]  # 2^3 - 1 alone: 3 > isqrt(7 // 2) = 1


def test_phi_bound_agrees_with_euler_phi():
    for x in range(3, 300):
        phi = _euler_phi(x)
        assert math.isqrt(x // 2) <= phi
        for t in range(1, x + 1):
            assert _phi_at_least(x, t) == (t <= phi)


def test_c1_parameters_validation(monkeypatch):
    # every group and rate check runs before the symbol field is built
    def make_field(*args):
        raise AssertionError("the symbol field was built")

    monkeypatch.setattr(constructions, "make_field", make_field)
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [3, 3], s=2, k=4)
    assert ei.value.code == "RATE_VIOLATION"
    # 2 != 1 (mod 2); 9 = 1 (mod 2) passes the congruence test but is not
    # a prime, and a repeated prime would give two groups the same subfield
    for primes in ([2, 5], [9, 5], [3, 3], [1, 3]):
        with pytest.raises(PERepairError) as ei:
            build_plan_c1(1, [3, 3], s=2, primes=primes)
        assert ei.value.code == "BAD_PRIME"
    with pytest.raises(ValueError):
        build_plan_c1(1, [3, 3], s=2, primes=[3, 5, 7])
    # the i-th prime goes with the i-th t: 3 carries the group of 7
    # points, more than phi(2^3 - 1) = 6 primitive elements
    with pytest.raises(PERepairError) as ei:
        build_plan_c1(1, [7, 3], s=2, primes=[3, 5])
    assert ei.value.code == "INSUFFICIENT_PRIMITIVES"
