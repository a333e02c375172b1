"""Built-in reference deployments for the reproduce command.

Two fully pinned clusters: every evaluation point is fixed by its minimal
polynomial over GF(2) rather than by the default exponent choice, and the
field by its modulus and generator, so the transfer totals these produce
stay stable even if point selection defaults ever change, and building
them runs no generator search.  Construction of the large example is
deferred and cached; nothing here runs when the module is imported.
"""

from .constructions import build_plan_c1, build_plan_c2
from .errors import check_invariant
from .field_tower import make_field, smallest_irreducible
from .rs_codes import MessagePoly, encode

__all__ = ["WorkedExample", "example1", "example2", "by_name"]

_cache = {}


class WorkedExample:
    """A plan plus a pinned message and the transfer totals to re-check.

    nodes lists the nodes to repair; group_bits[i] is the expected repair
    bandwidth, in bits, for any node of group i; naive_bits is the
    whole-symbol interpolation cost.
    """

    __slots__ = ("name", "plan", "message", "codeword",
                 "nodes", "group_bits", "naive_bits")

    def __init__(self, name, plan, message, nodes, group_bits, naive_bits):
        self.name = name
        self.plan = plan
        self.message = message
        self.codeword = encode(message, plan.eval_set, plan_digest=plan.digest)
        self.nodes = tuple(nodes)
        self.group_bits = tuple(group_bits)
        self.naive_bits = naive_bits


def _root_exponent(ctx, degree_bits, poly_exponents):
    """Smallest j with p(gamma^j) = 0, gamma the canonical generator of the
    degree-``degree_bits`` subfield.  Pins a point by its minimal polynomial:
    p irreducible of the subfield's degree makes the root's minimal
    polynomial p itself.  Powers of gamma are taken as residues of x modulo
    gamma's minimal polynomial g, the subfield's coordinates."""
    g = ctx.subfield(degree_bits)._coord_modulus()
    order = (1 << degree_bits) - 1
    powers = [1]
    for _ in range(order - 1):
        x = powers[-1] << 1
        powers.append(x ^ g if x >> degree_bits else x)
    for j in range(1, order):
        v = 0
        for e in poly_exponents:
            v ^= powers[(j * e) % order]
        if v == 0:
            return j
    check_invariant(False, "pinned minimal polynomial has no root in its subfield")


def _pin_exponents(ctx, degree_bits, poly_exponents, relative):
    j = _root_exponent(ctx, degree_bits, poly_exponents)
    order = (1 << degree_bits) - 1
    return [(j * e) % order for e in relative]


def _gf2_message(ctx, coeffs, k):
    elems = [ctx.elem(c) for c in coeffs]
    elems += [ctx.zero] * (k - len(elems))
    return MessagePoly(elems)


def example1() -> WorkedExample:
    """Four groups of three nodes over GF(2^2310): a (12, 8) code with
    two-step repair (s = 2) and per-node bandwidth 10395 bits at d = 9,
    against 18480 for whole-symbol interpolation."""
    ex = _cache.get("example1")
    if ex is not None:
        return ex
    modulus = (1 << 2310) | (1 << 8) | (1 << 5) | (1 << 2) | 1
    generator = 3  # what make_field's search returns under this modulus
    ctx = make_field(2310, modulus, generator)
    pins = [
        (3, (3, 2, 0)),                # x^3 + x^2 + 1
        (5, (5, 4, 3, 1, 0)),          # x^5 + x^4 + x^3 + x + 1
        (7, (7, 6, 5, 2, 0)),          # x^7 + x^6 + x^5 + x^2 + 1
        (11, (11, 9, 7, 4, 3, 2, 0)),  # x^11 + x^9 + x^7 + x^4 + x^3 + x^2 + 1
    ]
    exps = [_pin_exponents(ctx, p, poly, (1, 2, 3)) for p, poly in pins]
    plan = build_plan_c1(
        1, [3, 3, 3, 3], s=2, primes=[3, 5, 7, 11],
        point_exponents=exps, modulus=modulus, generator=generator,
    )
    # x^3 + x^2 + 1, whose roots include the points of nodes 0 and 1, so
    # node 0 (the paper's walk-through) stores 0; 3, 6 and 9 do not
    message = _gf2_message(plan.ctx, (1, 0, 1, 1), plan.k)
    ex = WorkedExample("example1", plan, message, (0, 3, 6, 9),
                       (10395,) * 4, 18480)
    _cache["example1"] = ex
    return ex


def example2() -> WorkedExample:
    """Three groups of 7, 6, and 4 nodes over GF(4^30): a (17, 9) code whose
    per-node repair moves 300, 220, or 156 bits depending on the group."""
    ex = _cache.get("example2")
    if ex is not None:
        return ex
    modulus = smallest_irreducible(60)
    generator = 2  # what make_field's search returns under this modulus
    ctx = make_field(60, modulus, generator)
    pins = [
        (4, (4, 1, 0), (1, 2, 4, 7, 8, 11, 13)),    # x^4 + x + 1
        (6, (6, 4, 3, 1, 0), (1, 2, 4, 5, 8, 10)),  # x^6 + x^4 + x^3 + x + 1
        # x^10 + x^6 + x^5 + x^3 + x^2 + x + 1
        (10, (10, 6, 5, 3, 2, 1, 0), (1, 2, 4, 5)),
    ]
    exps = [
        _pin_exponents(ctx, m, poly, rel) for m, poly, rel in pins
    ]
    plan = build_plan_c2(2, 8, [2, 3, 5], point_exponents=exps,
                         modulus=modulus, generator=generator)
    # x^3 + x^2 + x + 1
    message = _gf2_message(plan.ctx, (1, 1, 1, 1), plan.k)
    ex = WorkedExample("example2", plan, message, range(plan.n),
                       (300, 220, 156), 540)
    _cache["example2"] = ex
    return ex


def by_name(name: str) -> WorkedExample:
    try:
        builder = {"example1": example1, "example2": example2}[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}")
    return builder()
