"""Sub-packetization lower bounds and the flexibility/bandwidth trade-off.

Flexibility means, as in the paper: each node i has an exclusion set, the
t_i nodes (itself included) that never help repair it, and its repair must
still meet the cut-set bound from helpers outside that set, at most
d = n - t_i of them; t is the largest t_i, and t = 1 is conventional
repair.  Raising t buys scheduling freedom and costs bandwidth; the bound
side says how small the sub-packetization L can possibly be for a given
(k, t).  Everything here is exact integer/rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice

from .errors import check_invariant
from .field_tower import _is_probable_prime

__all__ = [
    "BoundQuery",
    "TradeoffRow",
    "min_subpacketization",
    "conventional_lower_bound",
    "tradeoff_table",
    "tradeoff_csv",
    "first_primes",
]


def first_primes(m: int) -> list:
    """The m smallest primes."""
    return list(islice(filter(_is_probable_prime, count(2)), m))


class BoundQuery:
    """Dimension k plus the per-group flexibilities t_i.

    w is the greatest integer with t_1 + ... + t_w <= k after sorting the
    flexibilities ascending (the adversary excludes the cheapest groups
    first); the uniform constructor models arbitrarily many groups of equal
    flexibility, giving w = floor(k/t).
    """

    __slots__ = ("k", "t_list", "w")

    def __init__(self, k: int, t_list):
        if k < 1:
            raise ValueError("k must be >= 1")
        ts = sorted(t_list)
        if not ts or ts[0] < 1:
            raise ValueError("flexibilities must be positive")
        self.k = k
        self.t_list = tuple(ts)
        total = 0
        w = 0
        for t in ts:
            total += t
            if total > k:
                break
            w += 1
        self.w = w

    @classmethod
    def uniform(cls, k: int, t: int) -> "BoundQuery":
        if t < 1:
            raise ValueError("flexibility must be positive")
        groups = max(1, k // t)
        return cls(k, [t] * groups)


def min_subpacketization(query: BoundQuery) -> int:
    """Product of the first w-1 primes; 1 when w <= 1."""
    return math.prod(first_primes(max(0, query.w - 1)))


def conventional_lower_bound(k: int) -> int:
    """Product of the first k-1 primes: the t=1 bound."""
    return min_subpacketization(BoundQuery.uniform(k, 1))


class TradeoffRow:
    __slots__ = ("t", "L_min", "d_max", "beta_bar_min")

    def __init__(self, t, L_min, d_max, beta_bar_min):
        self.t = t
        self.L_min = L_min
        self.d_max = d_max
        self.beta_bar_min = beta_bar_min


def tradeoff_table(n: int, k: int) -> list:
    """One row per flexibility t in [1, min(k, n-k)].

    L_min comes from the uniform bound, which assumes helpers beyond k,
    d > k; the bandwidth floor is d/(d-k+1) repaired-bits per bit at the
    loosest locality d = n - t.  The row t = n - k, present when n - k <= k,
    has d_max = k: there the cut-set bound is k L symbols, which naive
    repair of any MDS code meets with L = 1, so that row's L_min is 1, the
    naive endpoint of the trade-off.
    """
    if not n > k >= 1:
        raise ValueError("need n > k >= 1")
    rows = []
    for t in range(1, min(k, n - k) + 1):
        d_max = n - t
        beta = Fraction(d_max, d_max - k + 1)
        L_min = (1 if d_max == k
                 else min_subpacketization(BoundQuery.uniform(k, t)))
        rows.append(TradeoffRow(t, L_min, d_max, beta))
    for prev, cur in zip(rows, rows[1:]):
        check_invariant(cur.L_min <= prev.L_min, f"L_min rises at t={cur.t}")
        check_invariant(cur.beta_bar_min > prev.beta_bar_min,
                        f"bandwidth floor does not rise at t={cur.t}")
        check_invariant(cur.beta_bar_min >= 1,
                        f"bandwidth floor below 1 at t={cur.t}")
    return rows


def tradeoff_csv(rows) -> str:
    lines = ["t,L_min,d_max,beta_bar_min_num,beta_bar_min_den"]
    for r in rows:
        lines.append(
            f"{r.t},{r.L_min},{r.d_max},"
            f"{r.beta_bar_min.numerator},{r.beta_bar_min.denominator}"
        )
    return "\n".join(lines) + "\n"
