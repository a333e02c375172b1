import json
import math

import pytest

from perepair._util import digest_of
from perepair.cli import main
from perepair.constructions import (
    _PLAN_INTS,
    _euler_phi,
    _phi_at_least,
    build_plan_c1,
    build_plan_c2,
    c1_parameters,
    find_primes_c1,
    load_plan,
    save_plan,
)
from perepair.errors import PERepairError
from perepair.field_tower import is_primitive_in_subfield
from perepair.fixtures import example2


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
    assert [g.index for g in p.groups] == [1, 2]


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


def test_c2_rejects_non_prime():
    with pytest.raises(PERepairError) as ei:
        build_plan_c2(2, 8, [4, 3])
    assert ei.value.code == "CONSTRAINT_VIOLATION"


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


def test_duplicate_points_rejected():
    with pytest.raises(PERepairError) as ei:
        build_plan_c2(2, 8, [2, 3],
                      point_exponents=[[1, 2, 4, 7, 8, 11, 1], None])
    assert ei.value.code == "DUPLICATE_INDEX"


def test_digest_freezes_plan_identity(toy_c1, toy_c2, toy_c1_wide):
    assert toy_c1.digest == (
        "e4fbb57c7d2da305b23d9c829bb8eb22e9f9a4356cb40527a97180d2ab6348b2"
    )
    assert toy_c2.digest == (
        "22b581fd0de228b9640e36512d5571dc0b6aa2ef47da21d388654cde503e8c3f"
    )
    assert example2().plan.digest == (
        "424e751317856f1f4daaae31af5c361fc9f5c43d3d3fece3f9eed7d6aefd0ff0"
    )
    # the benchmark's wide plan: default primes and dense-tail modulus
    wide = build_plan_c1(1, [3, 3, 3], s=2, k=2)
    assert wide.digest == toy_c1_wide.digest == (
        "e1328b97b6f99a10822f37e3d0dee07156a1c2318095091451dd97592a14ee4a"
    )
    rebuilt = build_plan_c1(1, [3, 3], s=2, primes=[3, 5])
    assert rebuilt.digest == toy_c1.digest
    other = build_plan_c1(1, [3, 2], s=2, primes=[3, 5])
    assert other.digest != toy_c1.digest
    assert toy_c2.digest != toy_c1.digest


def test_payload_holds_the_plan_file_fields(toy_c1, toy_c2):
    shared = {"construction", "primes", "t", "point_exponents", "modulus_hex"}
    for plan in (toy_c1, toy_c2):
        payload = plan.payload()
        assert set(payload) == shared | set(_PLAN_INTS[plan.construction])
        assert payload["construction"] == plan.construction
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
        with pytest.raises(ValueError, match="need s >= 1"):
            c1_parameters(1, [3, 3], s=s, primes=[3, 5])


def test_c1_parameters_desk_arithmetic():
    p = c1_parameters(2, [5, 6, 6], s=3)
    assert p.primes == (7, 13, 19)
    assert (p.n, p.k, p.d) == (17, 9, 11)
    assert p.u == 1729 and p.L == 5187
    assert p.repair_bits == 38038
    assert p.naive_bits == 9 * 5187 * 2


def test_c1_parameters_four_group_case():
    p = c1_parameters(1, [3, 3, 3, 3], s=2)
    assert p.primes == (3, 5, 7, 11)
    assert (p.n, p.k, p.d) == (12, 8, 9)
    assert p.u == 1155 and p.L == 2310
    assert p.repair_bits == 10395
    assert p.naive_bits == 18480


def test_c1_parameters_settles_phi_without_factoring():
    # 2^137 - 1 outlasts the rho cap, but phi(n) >= sqrt(n/2) admits 3
    p = c1_parameters(1, [3, 3], s=2, primes=[3, 137])
    assert p.primes == (3, 137) and p.u == 411


def test_phi_bound_agrees_with_euler_phi():
    for x in range(3, 300):
        phi = _euler_phi(x)
        assert math.isqrt(x // 2) <= phi
        for t in range(1, x + 1):
            assert _phi_at_least(x, t) == (t <= phi)


def test_c1_parameters_validation():
    with pytest.raises(PERepairError) as ei:
        c1_parameters(1, [3, 3], s=2, k=4)
    assert ei.value.code == "RATE_VIOLATION"
    with pytest.raises(PERepairError) as ei:
        c1_parameters(1, [3, 3], s=2, primes=[2, 5])
    assert ei.value.code == "BAD_PRIME"


def test_c1_parameters_checks_primes_like_build_plan_c1():
    # 9 = 1 (mod 2) passes the congruence test but is not a prime, and a
    # repeated prime would give two groups the same subfield
    for primes in ([9, 5], [3, 3], [1, 3]):
        with pytest.raises(PERepairError) as ei:
            c1_parameters(1, [3, 3], s=2, primes=primes)
        assert ei.value.code == "BAD_PRIME"
        with pytest.raises(PERepairError) as ei:
            build_plan_c1(1, [3, 3], s=2, primes=primes)
        assert ei.value.code == "BAD_PRIME"
    with pytest.raises(ValueError):
        c1_parameters(1, [3, 3], s=2, primes=[3, 5, 7])
    # the i-th prime goes with the i-th t in both: 3 carries the group of
    # 7 points, more than phi(2^3 - 1) = 6 primitive elements
    for build in (c1_parameters, build_plan_c1):
        with pytest.raises(PERepairError) as ei:
            build(1, [7, 3], s=2, primes=[3, 5])
        assert ei.value.code == "INSUFFICIENT_PRIMITIVES"
