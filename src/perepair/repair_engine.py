"""Partial-exclusion repair: trace queries, repair subspaces, reconstruction.

The engine recovers one erased RS symbol without touching the failed node's
exclusion group.  Every helper is sent multipliers, returns subfield traces
of (multiplier * stored symbol), and the decoder reassembles the erased
symbol through a trace-dual basis.  That basis comes from one Gram solve
per preparation, which is also the certificate that the query basis spans
E (for Construction 1, Lemma 1's span condition).  Bandwidth is counted in
exact bits: a GF(2^m) response is m bits, and at the canonical locality the
total equals the cut-set bound.

The two schemes share their skeleton and differ in the query plan:

* Construction 1 (locality d, shift count s = d - k + 1): the helper prefix
  R of groups defines a residue subfield GF(q^{u-bar}); each helper answers
  one query per basis element of a repair subspace S with
  dim_{GF(q^{u-bar})} S = u/u-bar.  S is built for the failed node's own
  point alpha, so it is addressed by (node, R).
* Construction 2: all survivors outside the failed group help, one query
  each, responses in GF(q^{u_i}).
"""

from __future__ import annotations

from .errors import PERepairError, check_invariant
from ._util import canonical_json
from .field_tower import BasisOverSubfield, dual_basis, trace_to
from .rs_codes import annihilator, dual_multipliers, poly_eval

__all__ = [
    "RepairSubspace",
    "RepairTranscript",
    "cutset_bits",
    "lemma1_subspace",
    "verify_span",
    "select_helpers_c1",
    "repair_c1",
    "repair_c2",
]


class RepairSubspace:
    """Certified repair subspace of one node over a residue subfield.

    basis spans S over ``subfield``; ``beta`` is the ambient generator used
    to build it.  ``duals`` is the trace-dual of the shifted set
    {b_m * alpha^w}, ordered m-major, alpha the node's point, which
    certifies the span condition S + alpha S + ... + alpha^{s-1} S = E
    (lemma1_subspace); subspaces built by hand may leave it None.
    """

    __slots__ = ("subfield", "basis", "beta", "duals")

    def __init__(self, subfield, basis, beta, duals=None):
        self.subfield = subfield
        self.basis = basis
        self.beta = beta
        self.duals = duals


class RepairTranscript:
    """Everything one repair did: who helped, what they were asked, what
    they answered, and the exact bit accounting.

    ``queries`` holds one (helper, multiplier) pair per response; every
    response is a subfield element of ``response_bits`` bits.
    """

    __slots__ = ("failed", "helpers", "queries", "responses", "response_bits",
                 "per_helper_bits", "bits_transmitted", "cutset_bits",
                 "recovered", "verified")

    def __init__(self, failed, helpers, queries, responses, response_bits,
                 per_helper_bits, bits_transmitted, cutset, recovered):
        self.failed = failed
        self.helpers = list(helpers)
        self.queries = queries
        self.responses = responses
        self.response_bits = response_bits
        self.per_helper_bits = list(per_helper_bits)
        self.bits_transmitted = bits_transmitted
        self.cutset_bits = cutset
        self.recovered = recovered
        self.verified = None  # set by callers holding ground truth

    def to_payload(self) -> dict:
        return {
            "failed": self.failed,
            "helpers": self.helpers,
            "per_helper_bits": self.per_helper_bits,
            "bits_transmitted": self.bits_transmitted,
            "cutset_bits": self.cutset_bits,
            "recovered": self.recovered.hex(),
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_payload()) + "\n"


def cutset_bits(d_helpers: int, k: int, L_qsyms: int, base_bits: int) -> int:
    """ceil(d*L/(d-k+1)) base-field symbols, in bits."""
    if d_helpers < k:
        raise PERepairError(
            "TOO_FEW_HELPERS", f"d={d_helpers} cannot reach dimension k={k}"
        )
    num = d_helpers * L_qsyms
    den = d_helpers - k + 1
    return -(-num // den) * base_bits


def lemma1_subspace(plan, node: int, helper_groups=None) -> RepairSubspace:
    """Repair subspace of one Construction-1 node, over GF(q^{u-bar}).

    The subspace belongs to the node's point alpha (Lemma 1: S + alpha S +
    ... + alpha^{s-1} S = E): its base layer is the s-shift set
    {beta^mu * alpha^(mu + sigma*s)} plus the closing sum element, lifted
    from GF(q^{u_i}) down to the residue field of the helper groups by a
    power basis of the intermediate subfield.  Each node needs its own
    subspace; one built for a point does not shift-span for the other
    points of its group.  One check certifies the result: the trace-dual
    of the s shifts of the p_i * u_i / u-bar candidate vectors.  They
    number exactly N / (bits of GF(q^{u-bar})), and the trace form is
    nondegenerate, so dual_basis's Gram matrix is nonsingular exactly when
    they span E, which is the span condition for alpha and also proves the
    candidates independent over GF(q^{u-bar}).  The duals are kept for the
    repair.  If the ambient generator fails as beta, small powers of it
    are tried in order.  Helper groups default to every other group.
    """
    if plan.construction != 1:
        raise ValueError("repair subspaces of this shape exist for construction 1")
    group, _ = plan.locate(node)
    if helper_groups is None:
        helper_groups = tuple(j for j in range(len(plan.groups)) if j != group)
    helper_groups = tuple(helper_groups)
    if group in helper_groups or not helper_groups:
        raise ValueError("helper groups must be nonempty and exclude the failed group")
    cache_key = ("subspace", node, helper_groups)
    cached = plan._cache.get(cache_key)
    if cached is not None:
        return cached

    ubar = 1
    for j in helper_groups:
        ubar *= plan.groups[j].prime
    if plan.u_list[group] % ubar:
        raise ValueError("helper groups must exclude the repaired group's prime")
    sub = plan.ctx.subfield(plan.base_bits * ubar)
    alpha = plan.eval_set.points[node]
    for beta, vectors in _lemma1_candidates(plan, group, alpha, ubar):
        shifted = BasisOverSubfield(sub, _shifts(vectors, alpha, plan.s),
                                    validate=False)
        try:
            duals = dual_basis(shifted)
        except PERepairError as err:
            if err.code != "SINGULAR_GRAM":
                raise
            continue
        subspace = RepairSubspace(
            sub, BasisOverSubfield(sub, vectors, validate=False), beta,
            duals.vectors)
        plan._cache[cache_key] = subspace
        return subspace
    raise PERepairError(
        "SPAN_FAILURE", f"no workable beta among g^1..g^32 for node {node}"
    )


def _lemma1_candidates(plan, group: int, alpha, ubar: int):
    """(beta, candidate vectors) of lemma1_subspace for beta = g^1..g^32,
    in order, for the point alpha of the group and residue field
    GF(q^ubar)."""
    ctx = plan.ctx
    a = plan.base_bits
    s = plan.s
    p_i = plan.groups[group].prime
    u_i = plan.u_list[group]

    delta = ctx.subfield(a * u_i).canonical_generator
    lift = _shifts([ctx.one], delta, u_i // ubar)
    step = alpha ** s
    top = alpha ** (p_i - 1)
    for beta_exp in range(1, 33):
        beta = ctx.generator ** beta_exp
        # beta^mu * alpha^(mu + sigma*s), mu-major
        base = _shifts(_shifts([ctx.one], beta * alpha, s), step,
                       (p_i - 1) // s)
        closing = ctx.zero
        for v in _shifts([top], beta, s):
            closing = closing + v
        base.append(closing)
        yield beta, [b * f for b in base for f in lift]


def _shifts(vectors, alpha, count: int):
    """[v * alpha^w for v in vectors for w < count], count >= 1: the order
    of the repair's basis B_{m,w}."""
    out = []
    for v in vectors:
        out.append(v)
        for _ in range(count - 1):
            out.append(out[-1] * alpha)
    return out


def verify_span(S: RepairSubspace, alpha, s: int) -> bool:
    """True iff S + alpha S + ... + alpha^{s-1} S is the whole field, by a
    GF(2)-rank computation: the predicate lemma1_subspace's Gram solve
    stands in for, kept as an independent check."""
    from .field_tower import gf2_rank

    ctx = alpha.ctx
    sigma = S.subfield.gf2_basis()
    rows = []
    shift = ctx.one
    for _ in range(s):
        for b in S.basis:
            bw = (shift * b).v
            for sg in sigma:
                rows.append(ctx._mul(bw, sg))
        shift = shift * alpha
    return gf2_rank(rows) == ctx.degree_bits


def _helper_prefix(plan, excluded_group: int, d: int):
    """Minimal prefix R of groups (excluded group skipped) with enough
    nodes, then round-robin across R until d helpers are picked."""
    order = [j for j in range(len(plan.groups)) if j != excluded_group]
    R = []
    capacity = 0
    for j in order:
        R.append(j)
        capacity += plan.groups[j].t
        if capacity >= d:
            break
    queues = {j: list(plan.group_nodes(j)) for j in R}
    helpers = []
    z = 0
    while len(helpers) < d:
        j = R[z % len(R)]
        z += 1
        if queues[j]:
            helpers.append(queues[j].pop(0))
    return helpers, tuple(R)


def select_helpers_c1(plan, failed: int, d: int):
    """d helper nodes for a Construction-1 repair, never inside the failed
    node's exclusion group."""
    gi, _ = plan.locate(failed)
    t_i = plan.groups[gi].t
    if not plan.k <= d <= plan.n - t_i:
        raise PERepairError(
            "LOCALITY_OUT_OF_RANGE",
            f"d={d} outside [{plan.k}, {plan.n - t_i}]",
        )
    return _helper_prefix(plan, gi, d)[0]


def _check_pairing(plan, codeword):
    if codeword.plan_digest != plan.digest:
        raise PERepairError(
            "PLAN_MISMATCH", "codeword was not produced under this plan"
        )
    if len(codeword.symbols) != plan.n:
        raise PERepairError("PLAN_MISMATCH", "codeword length disagrees with plan")


def _repair(plan, codeword, failed: int, d: int, shape) -> RepairTranscript:
    """The repair skeleton both constructions share.

    ``shape()`` gives the query plan: (helpers, response subfield, query
    basis E, number of point powers W, duals), where duals is the trace-dual
    of the unscaled basis {e_m * alpha_f^w}, m-major: lemma1_subspace's
    certificate for Construction 1, the power basis's Gram solve for
    Construction 2.  Helper j is asked for the traces of e * h(alpha_j) *
    v_j * c_j for every e in E, where h annihilates the silenced points and
    v is the dual code's column multiplier; the failed symbol is rebuilt
    through the trace-dual of B_{m,w} = e_m * alpha_f^w * c with
    c = h(alpha_f) * v_f.  If Tr(u_i d_j) = delta_ij then
    Tr((c u_i)(c^-1 d_j)) = delta_ij, so that dual is the shape's duals
    times c^-1: one inversion, no second Gram solve.  The preparation is
    cached per (failed, d).
    """
    ctx = plan.ctx
    key = ("repair", failed, d)
    prep = plan._cache.get(key)
    if prep is None:
        helpers, sub, E, W, duals = shape()
        helper_set = set(helpers)
        silenced = [
            plan.eval_set.points[i]
            for i in range(plan.n)
            if i not in helper_set and i != failed
        ]
        h = annihilator(silenced, ctx)
        v = plan._cache.get("dual_multipliers")
        if v is None:
            v = dual_multipliers(plan.eval_set)
            plan._cache["dual_multipliers"] = v
        mults = []
        helper_pows = []
        for idx in helpers:
            alpha_h = plan.eval_set.points[idx]
            base_mult = poly_eval(h, alpha_h) * v.v[idx]
            mults.append([e_m * base_mult for e_m in E])
            helper_pows.append(_shifts([ctx.one], alpha_h, W))
        f_inv = (poly_eval(h, plan.eval_set.points[failed]) * v.v[failed]).inverse()
        prep = (helpers, sub, mults, helper_pows,
                [d * f_inv for d in duals], len(E), W)
        plan._cache[key] = prep
    helpers, sub, mults, helper_pows, dual_vecs, dim_e, W = prep

    queries = []
    responses = []
    for hi, idx in enumerate(helpers):
        for mult in mults[hi]:
            queries.append((idx, mult))
            responses.append(trace_to(mult * codeword.symbols[idx], sub))
    per_helper_bits = [dim_e * sub.degree_bits] * len(helpers)
    bits = sum(per_helper_bits)

    recovered = ctx.zero
    for m in range(dim_e):
        for w in range(W):
            lhs = ctx.zero
            for hi in range(len(helpers)):
                lhs = lhs + helper_pows[hi][w] * responses[hi * dim_e + m]
            recovered = recovered + lhs * dual_vecs[m * W + w]

    cutset = cutset_bits(d, plan.k, plan.L, plan.base_bits)
    return RepairTranscript(failed, helpers, queries, responses, sub.degree_bits,
                            per_helper_bits, bits, cutset, recovered)


def repair_c1(plan, codeword, failed: int, d: int | None = None) -> RepairTranscript:
    """Construction-1 repair of one node at locality d (default k+s-1).

    Localities above the canonical k+s-1 still repair correctly (the helper
    prefix grows and responses shrink proportionally) but transmit more than
    the cut-set bound; below it the shifted parity polynomials would exceed
    the dual degree bound, so such d are rejected.
    """
    if plan.construction != 1:
        raise ValueError("plan is not a Construction-1 plan")
    _check_pairing(plan, codeword)
    gi, _ = plan.locate(failed)
    t_i = plan.groups[gi].t
    if d is None:
        d = plan.d
    if not plan.d <= d <= plan.n - t_i:
        raise PERepairError(
            "LOCALITY_OUT_OF_RANGE",
            f"d={d} outside [{plan.d}, {plan.n - t_i}] for this scheme",
        )

    def shape():
        # each helper answers one query per basis element of the s-shift
        # repair subspace S, over the helper prefix's residue field
        helpers, R = _helper_prefix(plan, gi, d)
        S = lemma1_subspace(plan, failed, helper_groups=R)
        return helpers, S.subfield, S.basis, plan.s, S.duals

    tr = _repair(plan, codeword, failed, d, shape)
    expected = d * plan.u * plan.base_bits
    check_invariant(tr.bits_transmitted == expected,
                    f"repair moved {tr.bits_transmitted} bits, not {expected}")
    return tr


def repair_c2(plan, codeword, failed: int) -> RepairTranscript:
    """Construction-2 repair: one trace from every survivor outside the
    failed node's group."""
    if plan.construction != 2:
        raise ValueError("plan is not a Construction-2 plan")
    _check_pairing(plan, codeword)
    gi, _ = plan.locate(failed)
    g = plan.groups[gi]

    def shape():
        group_nodes = set(plan.group_nodes(gi))
        helpers = [i for i in range(plan.n) if i not in group_nodes]
        sub = plan.ctx.subfield(plan.base_bits * plan.u_list[gi])
        powers = _shifts([plan.ctx.one], plan.eval_set.points[failed], g.prime)
        duals = dual_basis(BasisOverSubfield(sub, powers, validate=False))
        return helpers, sub, [plan.ctx.one], g.prime, duals.vectors

    tr = _repair(plan, codeword, failed, plan.n - g.t, shape)
    check_invariant(tr.bits_transmitted == tr.cutset_bits,
                    f"repair moved {tr.bits_transmitted} bits, not "
                    f"{tr.cutset_bits}")
    return tr
