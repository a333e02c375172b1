import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from perepair.bounds_tradeoff import (
    BoundQuery,
    conventional_lower_bound,
    first_primes,
    min_subpacketization,
    tradeoff_csv,
    tradeoff_table,
)
from perepair.constructions import _phi_at_least, find_primes_c1

from conftest import primes_to, primorial


def test_first_primes():
    assert first_primes(0) == []
    assert first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert first_primes(25)[-1] == 97
    # against the sieve of Eratosthenes; the 2000th prime is 17,389
    assert first_primes(2000) == list(primes_to(17389))


def test_min_subpacketization_uniform():
    assert min_subpacketization(BoundQuery.uniform(8, 1)) == 510510
    assert min_subpacketization(BoundQuery.uniform(9, 1)) == 9699690
    assert min_subpacketization(BoundQuery.uniform(10, 1)) == 223092870
    # t >= k: a single excludable group, bound degenerates to 1
    assert min_subpacketization(BoundQuery.uniform(5, 5)) == 1
    assert min_subpacketization(BoundQuery.uniform(5, 9)) == 1
    assert min_subpacketization(BoundQuery.uniform(10, 3)) == 2 * 3


def test_bound_query_sorts_before_w():
    q = BoundQuery(4, [3, 1, 2])
    assert q.t_list == (1, 2, 3)
    assert q.w == 2  # 1 <= 4, 1+2 <= 4, 1+2+3 > 4
    assert min_subpacketization(q) == 2
    # fewer groups than the budget allows: w caps at the group count
    q2 = BoundQuery(5, [1, 1])
    assert q2.w == 2


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0, [1])
    with pytest.raises(ValueError):
        BoundQuery(3, [0, 1])
    with pytest.raises(ValueError):
        BoundQuery(3, [])
    with pytest.raises(ValueError):
        BoundQuery.uniform(3, 0)  # the check that stops k // 0


def test_conventional_lower_bound():
    assert conventional_lower_bound(1) == 1
    assert conventional_lower_bound(5) == 210
    assert conventional_lower_bound(8) == 510510
    assert conventional_lower_bound(9) == 9699690


@lru_cache(maxsize=None)
def _c1_subpacketization(s, l, t):
    """Construction 1's L = s * prod p_i over l groups of t nodes (q = 2),
    with the primes build_plan_c1 takes by default."""
    return s * math.prod(find_primes_c1(s, l, [t] * l))


def test_construction_1_subpacketization_against_both_bounds():
    # n = 6..24, every uniform t dividing n (l = n/t >= 2 groups), every k
    # and s with d = k + s - 1 <= n - t.  s = 1 is left out: there d = k,
    # and naive repair meets the cut-set bound at L = 1 for any MDS code.
    smallest = {}
    for n in range(6, 25):
        for t in range(1, n // 2 + 1):
            if n % t:
                continue
            l = n // t
            for k in range(1, n - t):
                floor = min_subpacketization(BoundQuery(k, [t] * l))
                Ls = [_c1_subpacketization(s, l, t)
                      for s in range(2, n - t - k + 2)]
                assert min(Ls) >= floor, (n, k, t)  # never below the PE bound
                smallest[n, k, t] = min(Ls)
    assert smallest[12, 8, 3] == 2310  # example1's code, at s = 2
    beats = {}
    for (n, k, t), L in sorted(smallest.items()):
        beats.setdefault((n, k), []).append(L < conventional_lower_bound(k))
    assert len(beats) == 247  # every (n, k) with 1 <= k <= n - 2
    for flags in beats.values():
        assert flags == sorted(flags)  # once a t beats it, every larger t does
    assert sum(flags[-1] for flags in beats.values()) == 89


def test_construction_2_subpacketization_against_both_bounds():
    # Construction 2's L = prod p_i with t_i = r - p_i + 1 >= 2 and
    # k = sum t_i - r >= 1, over 2-4 of the first 8 primes, r <= 39,
    # n <= 60 and q = 2 or 4, keeping the groups whose subfield GF(q^p)
    # has t_i primitive elements: the rules build_plan_c2 applies
    sets = beats = 0
    for base_bits in (1, 2):
        for l in (2, 3, 4):
            for primes in itertools.combinations(first_primes(8), l):
                for r in range(1, 40):
                    t_list = [r - p + 1 for p in primes]
                    n = sum(t_list)
                    k = n - r
                    if min(t_list) < 2 or n > 60 or k < 1 or not all(
                            _phi_at_least((1 << base_bits) ** p - 1, t)
                            for p, t in zip(primes, t_list)):
                        continue
                    L = math.prod(primes)
                    assert L >= min_subpacketization(BoundQuery(k, t_list)), (
                        base_bits, primes, r)
                    sets += 1
                    beats += L < conventional_lower_bound(k)
    assert (sets, beats) == (1699, 1481)


def test_bounds_coincide_at_flexibility_one():
    # both are the product of the first k - 1 primes, built test-side
    assert primorial(8) == 9699690
    for k in range(1, 21):
        want = primorial(k - 1)
        assert conventional_lower_bound(k) == want
        assert min_subpacketization(BoundQuery.uniform(k, 1)) == want


def test_tradeoff_table_14_10():
    rows = tradeoff_table(14, 10)
    assert [(r.t, r.L_min, r.d_max, r.beta_bar_min) for r in rows] == [
        (1, 223092870, 13, Fraction(13, 4)),
        (2, 210, 12, Fraction(4, 1)),
        (3, 6, 11, Fraction(11, 2)),
        (4, 1, 10, Fraction(10, 1)),
    ]


def test_tradeoff_table_12_8():
    rows = tradeoff_table(12, 8)
    by_t = {r.t: r for r in rows}
    assert by_t[3].beta_bar_min == Fraction(9, 2)
    assert rows[-1].t == 4  # min(k, n-k) = 4


def test_tradeoff_monotonicity_sweep():
    for n, k in [(10, 4), (20, 10), (9, 8), (30, 7)]:
        rows = tradeoff_table(n, k)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.L_min <= prev.L_min
            assert cur.beta_bar_min > prev.beta_bar_min


def test_tradeoff_validation():
    with pytest.raises(ValueError):
        tradeoff_table(8, 8)
    with pytest.raises(ValueError):
        tradeoff_table(8, 0)


def test_tradeoff_csv_exact():
    got = tradeoff_csv(tradeoff_table(14, 10))
    assert got == (
        "t,L_min,d_max,beta_bar_min_num,beta_bar_min_den\n"
        "1,223092870,13,13,4\n"
        "2,210,12,4,1\n"
        "3,6,11,11,2\n"
        "4,1,10,10,1\n"
    )


def test_intermediate_flexibility_beats_the_endpoints_chord():
    # the abstract: intermediate flexibility attains a better trade-off.
    # In the plane (ln L_min, bandwidth floor), every row between t = 1
    # and the last row lies strictly below the chord joining them, over
    # the tables of 4 <= n <= 40 with three rows or more and endpoints of
    # different L_min
    tables = points = 0
    gaps = []
    for n in range(4, 41):
        for k in range(1, n):
            rows = tradeoff_table(n, k)
            if len(rows) < 3 or rows[0].L_min == rows[-1].L_min:
                continue
            tables += 1
            x1, y1 = math.log(rows[0].L_min), rows[0].beta_bar_min
            xe, ye = math.log(rows[-1].L_min), rows[-1].beta_bar_min
            for r in rows[1:-1]:
                points += 1
                x = math.log(r.L_min)
                chord = float(y1) + float(ye - y1) * (x - x1) / (xe - x1)
                gaps.append((chord - float(r.beta_bar_min), n, k, r.t))
    assert (tables, points) == (630, 4047)
    assert all(gap > 0 for gap, *_ in gaps)
    gap, *where = min(gaps)
    # at n = 40, k = 3 the rows t = 2 and t = 3 share L_min = 1, and the
    # floors 38/36 and 37/35 differ by 1/630
    assert where == [40, 3, 2] and gap == pytest.approx(1 / 630)
