"""Plan builders for the two partial-exclusion RS constructions.

Both constructions partition the n code coordinates into l exclusion groups;
group i holds t_i evaluation points, all primitive in the subfield
GF(q^{p_i}) of the symbol field E (q = 2^base_bits, p_i distinct primes).
When a node of group i fails, no node of group i helps with the repair.

* Construction 1 fixes a shift count s = d - k + 1 and requires
  p_i = 1 (mod s); the symbol field is GF(q^{u s}) with u = prod p_i, and
  every single-node repair contacts exactly d = k + s - 1 helpers.
* Construction 2 fixes the redundancy r = n - k and sizes the groups as
  t_i = r - p_i + 1; the symbol field is GF(q^u) and a failure in group i is
  repaired by all n - t_i survivors outside the group.

A plan bundles the resolved parameters, the symbol field, the evaluation
set, and a content digest; it is immutable and safe to share.
"""

from __future__ import annotations

import json
import math
import warnings

from .errors import PERepairError
from ._util import atomic_write_text, canonical_json, digest_of, memo, read_text
from .field_tower import (
    FieldCtx,
    FieldElem,
    _gf2_coordinates,
    _gf2_pivots,
    _is_probable_prime,
    factor_integer,
    is_primitive_in_subfield,
    make_field,
)
from .rs_codes import EvaluationSet

__all__ = [
    "ExclusionGroup",
    "Construction1Plan",
    "Construction2Plan",
    "find_primes_c1",
    "build_plan_c1",
    "build_plan_c2",
    "save_plan",
    "load_plan",
]


class ExclusionGroup:
    """One exclusion set: a prime, its flexibility, and t_i points that are
    primitive in the degree-(base_bits * p) subfield of E."""

    __slots__ = ("prime", "t", "points", "point_exponents")

    def __init__(self, prime, t, points, point_exponents):
        self.prime = prime
        self.t = t
        self.points = tuple(points)
        self.point_exponents = tuple(point_exponents)


def _euler_phi(x: int) -> int:
    phi = 1
    for p, e in factor_integer(x):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _phi_at_least(x: int, t: int) -> bool:
    """phi(x) >= t, factoring x only when phi(x) >= sqrt(x/2) does not
    settle it (p^(e-1)(p-1) >= sqrt(p^e) for odd p, 2^(e-1) = sqrt(2^e/2))."""
    return t <= math.isqrt(x // 2) or _euler_phi(x) >= t


def find_primes_c1(s: int, l: int, min_t, base_bits: int = 1):
    """The l smallest distinct primes p = 1 (mod s) whose subfields hold
    enough primitive elements: phi(q^p - 1) >= min_t[i], matched ascending."""
    if s < 1 or l < 2 or base_bits < 1:
        raise ValueError("need s >= 1, l >= 2 and base_bits >= 1")
    need = sorted(min_t)
    if len(need) != l:
        raise ValueError("min_t must have one entry per group")
    q = 1 << base_bits
    out = []
    cand = 1
    while len(out) < l:
        cand += 1
        if not _is_probable_prime(cand):
            continue
        if cand % s != 1 % s:
            continue
        if not _phi_at_least(q ** cand - 1, need[len(out)]):
            continue
        out.append(cand)
    return tuple(out)


# the int fields of each construction's plan file
_PLAN_INTS = {1: ("base_bits", "s", "k"), 2: ("base_bits", "r")}


class _PlanBase:
    """What both constructions share: the (prime, flexibility, points)
    groups, u = prod p_i and u_i = u / p_i, node addressing, the evaluation
    set, the plan-file payload and its digest.

    groups_spec holds one (p, t, (points, exponents, minpolys)) per group,
    and _PLAN_INTS names each construction's int fields of the payload.  A
    subclass sets those other than base_bits (s and k, or r) before calling
    __init__, which takes the digest, and derives L (and k) after it.
    """

    def __init__(self, base_bits, groups_spec, ctx):
        self.base_bits = base_bits
        self.ctx = ctx
        self.primes = tuple(p for p, _, _ in groups_spec)
        self.u = math.prod(self.primes)
        self.u_list = tuple(self.u // p for p in self.primes)
        self.groups = tuple(
            ExclusionGroup(p, t, pts, exps)
            for p, t, (pts, exps, _) in groups_spec
        )
        self.n = sum(g.t for g in self.groups)
        points = []
        node_group = []
        for gi, g in enumerate(self.groups):
            points.extend(g.points)
            node_group.extend([gi] * g.t)
        minpolys = [mu for _, _, (_, _, mus) in groups_spec for mu in mus]
        self.eval_set = EvaluationSet(ctx, points, minpolys)
        self._node_group = tuple(node_group)
        self.digest = digest_of(self.payload())
        self._cache = {}

    def payload(self):
        return {
            "construction": self.construction,
            **{name: getattr(self, name)
               for name in _PLAN_INTS[self.construction]},
            "primes": list(self.primes),
            "t": [g.t for g in self.groups],
            "point_exponents": [list(g.point_exponents) for g in self.groups],
            "modulus_hex": self.ctx.modulus_hex,
            "generator_hex": self.ctx.generator_hex,
        }

    def locate(self, node: int):
        """Global node index -> (group position 0-based, offset in group)."""
        if not 0 <= node < self.n:
            raise ValueError(f"node index {node} out of range")
        gi = self._node_group[node]
        offset = node - sum(g.t for g in self.groups[:gi])
        return gi, offset

    def group_nodes(self, gi: int):
        start = sum(g.t for g in self.groups[:gi])
        return range(start, start + self.groups[gi].t)


class Construction1Plan(_PlanBase):
    construction = 1

    def __init__(self, base_bits, s, k, groups_spec, ctx):
        self.s = s
        self.k = k
        self.d = k + s - 1
        super().__init__(base_bits, groups_spec, ctx)
        self.L = self.u * s  # sub-packetization in q-symbols


class Construction2Plan(_PlanBase):
    construction = 2

    def __init__(self, base_bits, r, groups_spec, ctx):
        self.r = r
        super().__init__(base_bits, groups_spec, ctx)
        self.L = self.u
        self.k = self.n - r


def _resolve_points(ctx, base_bits, prime, t, exponents):
    """Points of one group, their exponents and their minimal polynomials
    over GF(2): powers gamma^e of the canonical generator of the
    degree-(base_bits*prime) subfield.  gamma is tested primitive once, and
    an exponent coprime to the group order keeps that order; EvaluationSet
    rejects repeated points (DUPLICATE_INDEX).  Each point then has degree
    p_i over GF(q^{u_i}), as p_i divides none of the distinct primes of u_i.

    gamma^e is built in the subfield's coordinates, GF(2)[x]/(g) with g
    gamma's minimal polynomial, as beta = x^e, and lifted to E.  beta has
    degree m = base_bits*prime, so its minimal polynomial is x^m plus the
    coordinates of beta^m over beta^0..beta^(m-1), read once per
    cyclotomic coset of e.
    """
    try:
        sub = ctx.subfield(base_bits * prime)
    except PERepairError as exc:
        # base_bits * prime divides N, so this is INVARIANT_VIOLATION: a
        # given generator of degree N can still leave the subfield's
        # canonical generator non-defining, bad input rather than a defect
        raise PERepairError(
            "CONSTRAINT_VIOLATION", f"generator {ctx.generator_hex}: {exc}"
        )
    order = (1 << (base_bits * prime)) - 1
    if exponents is None:
        exponents = []
        e = 0
        while len(exponents) < t:
            e += 1
            if math.gcd(e, order) == 1:
                exponents.append(e)
    exponents = [int(e) for e in exponents]
    if len(exponents) != t:
        raise ValueError(f"group of size {t} got {len(exponents)} exponents")
    for e in exponents:
        if not 1 <= e < order or math.gcd(e, order) != 1:
            raise PERepairError(
                "CONSTRAINT_VIOLATION",
                f"exponent {e} does not give a primitive point of GF(2^{base_bits * prime})",
            )
    if not is_primitive_in_subfield(sub.canonical_generator, sub):
        raise PERepairError(
            "CONSTRAINT_VIOLATION",
            "evaluation point failed the subfield primitivity check",
        )
    m = base_bits * prime
    coords = FieldCtx(m, sub._coord_modulus, 1)  # arithmetic only
    points = []
    minpolys = []
    by_coset = {}  # the conjugates x^(e 2^i) share a minimal polynomial
    for e in exponents:
        beta = coords._pow(2, e)
        points.append(FieldElem(ctx, sub._lift(beta)))
        coset = min(e * (1 << i) % order for i in range(m))
        if coset not in by_coset:
            powers = [1]
            for _ in range(m - 1):
                powers.append(coords._mul(powers[-1], beta))
            beta_m = coords._mul(powers[-1], beta)
            by_coset[coset] = (1 << m) | _gf2_coordinates(
                _gf2_pivots(powers), beta_m)
        minpolys.append(by_coset[coset])
    return points, exponents, minpolys


def _check_groups(base_bits, s, groups):
    """The group rule of both constructions, on (prime, t, exponents)
    triples: each group has a fresh prime p = 1 (mod s), and its t points
    fit among the phi(q^p - 1) primitive elements of GF(q^p).  Construction
    2 passes s = 1."""
    if base_bits < 1:
        raise ValueError(f"need base_bits >= 1, got {base_bits}")
    q = 1 << base_bits
    seen = set()
    for p, t, _ in groups:
        if not _is_probable_prime(p) or p in seen:
            raise PERepairError("BAD_PRIME", f"{p} is not a fresh prime")
        seen.add(p)
        if p % s != 1 % s:
            raise PERepairError("BAD_PRIME", f"{p} != 1 mod {s}")
        if not _phi_at_least(q ** p - 1, t):
            raise PERepairError(
                "INSUFFICIENT_PRIMITIVES",
                f"group of {t} points exceeds phi(q^{p}-1) primitive elements",
            )


def _groups(primes, ts, point_exponents):
    """(prime, t, exponents) of each group: the i-th prime, t and exponent
    list go together, exponents defaulting to None."""
    if len(primes) != len(ts):
        raise ValueError("one prime per group")
    exps = [None] * len(ts) if point_exponents is None else list(point_exponents)
    if len(exps) != len(ts):
        raise ValueError("one exponent list per group")
    return list(zip(primes, ts, exps))


def _build(cls, base_bits, ints, s, groups, modulus, generator):
    """The symbol field GF(q^{u s}), each group's points, then the plan:
    cls(base_bits, *ints, ...)."""
    u = math.prod(p for p, _, _ in groups)
    ctx = make_field(base_bits * u * s, modulus, generator)
    groups_spec = [
        (p, t, _resolve_points(ctx, base_bits, p, t, e)) for p, t, e in groups
    ]
    return cls(base_bits, *ints, groups_spec, ctx)


def build_plan_c1(base_bits, t_list, *, s=None, k=None, d=None,
                  primes=None, point_exponents=None, modulus=None,
                  generator=None):
    """Resolve and validate a Construction-1 plan.

    Any two of s, k and d = k + s - 1 fix the third, and all three must
    agree; s alone takes k's maximum n - t - s + 1.  Groups are normalized
    to ascending flexibility, tie-broken by prime; primes default to
    find_primes_c1's, matched to the t's ascending.  Every group and rate
    check runs before the symbol field is built.  Evaluation points
    default to the smallest exponents of each canonical subfield generator
    that are coprime to the subfield's group order.  modulus and generator
    go to make_field: without a generator it runs its search.
    """
    if s is None:
        if k is None or d is None:
            raise ValueError("give two of s, k and d, or s alone")
        s = d - k + 1
    elif d is not None:
        if k is None:
            k = d - s + 1
        elif d != k + s - 1:
            raise ValueError(f"inconsistent parameters: d={d} but k+s-1={k + s - 1}")
    if s == 1:
        warnings.warn(
            "s=1 degenerates to one-shot interpolation repair; "
            "bandwidth equals the naive bound",
            stacklevel=2,
        )

    t_list = list(t_list)
    if len(t_list) < 2 or min(t_list) < 1:
        raise ValueError("need at least two groups with positive flexibility")
    if s < 1:
        raise ValueError(f"need s >= 1, got s={s}")
    if primes is None:
        if point_exponents is not None:
            raise ValueError("explicit exponents require explicit primes")
        t_list.sort()
        primes = find_primes_c1(s, len(t_list), t_list, base_bits)
    groups = _groups([int(p) for p in primes], t_list, point_exponents)
    groups.sort(key=lambda g: (g[1], g[0]))  # ascending t, then prime
    _check_groups(base_bits, s, groups)
    n = sum(t_list)
    t_max = max(t_list)
    if k is None:
        k = n - t_max - s + 1
    if k < 1 or k + s - 1 > n - t_max:  # d <= n - t, so k <= n - t too
        raise PERepairError(
            "RATE_VIOLATION",
            f"need k >= 1 and d = k+s-1 <= n - t = {n - t_max}, "
            f"got k={k}, d={k + s - 1}",
        )
    return _build(Construction1Plan, base_bits, (s, k), s, groups, modulus,
                  generator)


def build_plan_c2(base_bits, r, primes, *, point_exponents=None, modulus=None,
                  generator=None):
    """Resolve and validate a Construction-2 plan: t_i = r - p_i + 1.
    modulus and generator go to make_field, as in build_plan_c1."""
    primes = [int(p) for p in primes]
    if len(primes) < 2:
        raise ValueError("need at least two groups")
    groups = _groups(primes, [r - p + 1 for p in primes], point_exponents)
    for p, t, _ in groups:
        if t < 2:
            raise PERepairError(
                "CONSTRAINT_VIOLATION", f"r - p + 1 = {t} < 2 for prime {p}"
            )
    _check_groups(base_bits, 1, groups)
    k = sum(t for _, t, _ in groups) - r
    if k < 1:
        raise PERepairError("RATE_VIOLATION", f"k = n - r = {k} < 1")
    return _build(Construction2Plan, base_bits, (r,), 1, groups, modulus,
                  generator)


# ------------------------------------------------------------------ file I/O


def _plan_json(plan) -> str:
    """A plan file's JSON: the canonical payload with its digest."""
    return canonical_json({**plan.payload(), "digest": plan.digest})


def save_plan(plan, path) -> None:
    atomic_write_text(path, _plan_json(plan) + "\n")


def _holds_plan(path, plan) -> bool:
    """Whether the file at path already holds plan, in any JSON spelling."""
    try:
        return canonical_json(json.loads(read_text(path))) == _plan_json(plan)
    except (PERepairError, ValueError):
        return False


def _plan_shape_error(payload):
    """Why a parsed plan file is not an object of a known construction whose
    numbers are all ints, in the right lists; None when it is.  type() is
    used, not isinstance: JSON true/false parse as bool, an int subclass."""
    if type(payload) is not dict:
        return "plan is not a JSON object"
    construction = payload.get("construction")
    if type(construction) is not int or construction not in _PLAN_INTS:
        return f"unknown construction {construction!r}"
    exps = payload.get("point_exponents")
    lists = [payload.get("primes"), payload.get("t")]
    lists += exps if type(exps) is list else [exps]
    if not all(type(x) is list for x in lists):
        return "primes, t and each point_exponents entry must be lists"
    scalars = [payload.get(name) for name in _PLAN_INTS[construction]]
    if not all(type(v) is int for v in scalars + [v for x in lists for v in x]):
        return "a plan number is not an int"
    return None


# digest -> the plan load_plan rebuilt and validated for it in this process
_plan_memo = {}


def load_plan(path):
    """Parse and digest-verify a plan file, then rebuild and re-validate
    it, once per digest in a process.

    The shape and the digest are checked on every call.  A digest already
    loaded in this process then returns the plan built and validated for
    it, so a re-opened stripe rebuilds nothing and shares its plan's
    prepared repairs; the digest covers the whole payload.

    The field is rebuilt from the stored modulus and generator, so loading
    factors nothing and searches for no generator; the generator is only
    checked to have full degree.  A file without ``generator_hex`` (written
    before plans pinned their generator) is CORRUPT_FILE: its digest, and
    its clusters' ``plan_digest``, predate the field.
    """
    try:
        payload = json.loads(read_text(path))
        why = _plan_shape_error(payload)
        if why is not None:
            raise ValueError(why)
        stored = payload.pop("digest")
        modulus = int(payload["modulus_hex"], 16)
        if "generator_hex" not in payload:
            raise ValueError("no generator_hex: rebuild the plan")
        generator = int(payload["generator_hex"], 16)
    except (KeyError, TypeError, ValueError) as exc:
        raise PERepairError("CORRUPT_FILE", f"{path}: {exc}")
    if digest_of(payload) != stored:
        raise PERepairError("DIGEST_MISMATCH", f"{path}: plan digest mismatch")

    def rebuild():
        pinned = {"point_exponents": payload["point_exponents"],
                  "modulus": modulus, "generator": generator}
        # the builders raise ValueError for values no plan can have
        try:
            if payload["construction"] == 1:
                plan = build_plan_c1(payload["base_bits"], payload["t"],
                                     s=payload["s"], k=payload["k"],
                                     primes=payload["primes"], **pinned)
            else:
                plan = build_plan_c2(payload["base_bits"], payload["r"],
                                     payload["primes"], **pinned)
        except ValueError as exc:
            raise PERepairError("CORRUPT_FILE", f"{path}: {exc}")
        if plan.construction == 2 and [g.t for g in plan.groups] != payload["t"]:
            raise PERepairError("CORRUPT_FILE", f"{path}: stored t disagrees with r")
        if plan.digest != stored:
            raise PERepairError("DIGEST_MISMATCH", f"{path}: rebuilt plan differs")
        return plan

    return memo(_plan_memo, stored, rebuild)
