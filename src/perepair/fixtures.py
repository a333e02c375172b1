"""Built-in reference deployments for the reproduce command.

Two fully pinned clusters: every evaluation point is a literal exponent
of its subfield's canonical generator rather than the default exponent
choice, and the field is fixed by its modulus and generator, so the
transfer totals these produce stay stable even if point selection defaults
ever change, and building them searches for nothing.  Each group's
exponents are j times a list of small multipliers, j the smallest exponent
whose power is a root of a published minimal polynomial over GF(2); the
tests check that the first node of each group still has it.  Construction
of the large example is deferred and cached; nothing here runs when the
module is imported, and an example's codeword is computed on the first
read of ``codeword``.
"""

from ._util import memo
from .constructions import build_plan_c1, build_plan_c2
from .rs_codes import MessagePoly, encode

__all__ = ["WorkedExample", "example1", "example2", "by_name"]

_cache = {}


class WorkedExample:
    """A plan plus a pinned message and the transfer totals to re-check.

    nodes lists the nodes to repair; group_bits[i] is the expected repair
    bandwidth, in bits, for any node of group i; naive_bits is the
    whole-symbol interpolation cost.  codeword is computed on its first
    read, not when the example is built, so building a plan encodes
    nothing.
    """

    __slots__ = ("name", "plan", "message", "_codeword",
                 "nodes", "group_bits", "naive_bits")

    def __init__(self, name, plan, message, nodes, group_bits, naive_bits):
        self.name = name
        self.plan = plan
        self.message = message
        self._codeword = None
        self.nodes = tuple(nodes)
        self.group_bits = tuple(group_bits)
        self.naive_bits = naive_bits

    @property
    def codeword(self):
        """The pinned message's codeword, encoded on the first read."""
        if self._codeword is None:
            self._codeword = encode(self.message, self.plan.eval_set,
                                    plan_digest=self.plan.digest)
        return self._codeword


def _gf2_message(ctx, coeffs, k):
    elems = [ctx.elem(c) for c in coeffs]
    elems += [ctx.zero] * (k - len(elems))
    return MessagePoly(elems)


def example1() -> WorkedExample:
    """Four groups of three nodes over GF(2^2310): a (12, 8) code with
    two-step repair (s = 2) and per-node bandwidth 10395 bits at d = 9,
    against 18480 for whole-symbol interpolation."""
    def build():
        modulus = (1 << 2310) | (1 << 8) | (1 << 5) | (1 << 2) | 1
        generator = 3  # what make_field's search returns under this modulus
        exps = [
            [1, 2, 3],          # x^3 + x^2 + 1: 1*(1, 2, 3) mod 7
            [1, 2, 3],          # x^5 + x^4 + x^3 + x + 1: 1*(1, 2, 3) mod 31
            [7, 14, 21],        # x^7 + x^6 + x^5 + x^2 + 1: 7*(1, 2, 3) mod 127
            [887, 1774, 614],   # x^11 + x^9 + x^7 + x^4 + x^3 + x^2 + 1:
                                # 887*(1, 2, 3) mod 2047
        ]
        plan = build_plan_c1(
            1, [3, 3, 3, 3], s=2, primes=[3, 5, 7, 11],
            point_exponents=exps, modulus=modulus, generator=generator,
        )
        # x^3 + x^2 + 1, whose roots include the points of nodes 0 and 1, so
        # node 0 (the paper's walk-through) stores 0; 3, 6 and 9 do not
        message = _gf2_message(plan.ctx, (1, 0, 1, 1), plan.k)
        return WorkedExample("example1", plan, message, (0, 3, 6, 9),
                             (10395,) * 4, 18480)

    return memo(_cache, "example1", build)


def example2() -> WorkedExample:
    """Three groups of 7, 6, and 4 nodes over GF(4^30): a (17, 9) code whose
    per-node repair moves 300, 220, or 156 bits depending on the group."""
    def build():
        modulus = (1 << 60) | (1 << 59) | 1  # x^60 + x^59 + 1
        generator = 2  # what make_field's search returns under this modulus
        exps = [
            # x^4 + x + 1: 7*(1, 2, 4, 7, 8, 11, 13) mod 15
            [7, 14, 13, 4, 11, 2, 1],
            # x^6 + x^4 + x^3 + x + 1: 11*(1, 2, 4, 5, 8, 10) mod 63
            [11, 22, 44, 55, 25, 47],
            # x^10 + x^6 + x^5 + x^3 + x^2 + x + 1: 379*(1, 2, 4, 5) mod 1023
            [379, 758, 493, 872],
        ]
        plan = build_plan_c2(2, 8, [2, 3, 5], point_exponents=exps,
                             modulus=modulus, generator=generator)
        # x^3 + x^2 + x + 1
        message = _gf2_message(plan.ctx, (1, 1, 1, 1), plan.k)
        return WorkedExample("example2", plan, message, range(plan.n),
                             (300, 220, 156), 540)

    return memo(_cache, "example2", build)


def by_name(name: str) -> WorkedExample:
    try:
        builder = {"example1": example1, "example2": example2}[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}")
    return builder()
