"""Partial-exclusion repair: trace queries, repair subspaces, reconstruction.

The engine recovers one erased RS symbol without touching the failed node's
exclusion group.  Every helper is sent multipliers, returns subfield traces
of (multiplier * stored symbol), and the decoder reassembles the erased
symbol through a trace-dual basis.  The decoder is linear, and a
preparation, cached per (failed node, d), keeps what one of two orders
needs to evaluate it, fixed from the shape (_order): by trace coordinate
when the response field K = GF(2^m) is small against E (m^2 <= 4N),
d + m - 1 products per repair; else in K, where every helper's point
lies, one product per response and |E| W lifts and products to finish
(_repair).  Responses stay m-bit coordinates, as sent, until a
transcript's ``responses`` is read.
The trace-dual basis also certifies that the query basis spans E, by one
rule: a power basis takes the closed form, inverting a value nonzero
exactly when it spans (FieldCtx._power_duals); any other takes a Gram
solve (field_tower.dual_basis).  Construction 2 queries alpha_f's powers
over K; Construction 1 solves its shifted subspace over the failed
group's point field F, [E : F] vectors (Lemma 1's span condition), and
lifts it to a smaller K by delta's power duals (lemma1_subspace).  Bits
are exact: a GF(2^m) response is m bits, the cut-set bound in total at
the canonical locality.

The two schemes share their skeleton and differ in the query plan:

* Construction 1 (locality d, shift count s = d - k + 1): the helper prefix
  R of groups defines a residue subfield GF(q^{u-bar}); each helper answers
  one query per basis element of a repair subspace S with
  dim_{GF(q^{u-bar})} S = u/u-bar.  S is built for the failed node's own
  point alpha, so it is addressed by (node, R).
* Construction 2: all survivors outside the failed group help, one query
  each, responses in GF(q^{u_i}).

Everything the engine derives from a plan is kept in ``plan._cache``, and
this module alone fills it, by _util.memo: the package's one memo rule
(build on a miss only; a build that raises stores nothing).  Each key is
(kind, *every input the value depends on):

* ("dual_multipliers",): the dual code's column multipliers v_j;
* ("subspace", node, R): lemma1_subspace's subspace, R the sorted tuple
  of helper groups;
* ("repair", failed, d): a PE repair's preparation, whose helpers
  (failed, d) fixes (_repair);
* ("naive", failed, helpers): the naive repair's weights (_naive_weights).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .errors import PERepairError, check_invariant
from ._util import canonical_json, memo
from .field_tower import (
    BasisOverSubfield,
    FieldElem,
    SubfieldHandle,
    clmul,
    dual_basis,
    poly_mod,
)
from .rs_codes import _horner, annihilator, dual_multipliers, poly_eval

__all__ = [
    "RepairSubspace",
    "RepairTranscript",
    "cutset_bits",
    "lemma1_subspace",
    "verify_span",
    "repair_c1",
    "repair_c2",
]


class RepairSubspace:
    """Certified repair subspace of one node over a residue subfield.

    basis spans S over ``subfield``; ``beta`` is the ambient generator used
    to build it.  ``duals`` is the trace-dual over ``subfield`` of the
    shifted set {b_m * alpha^w}, ordered m-major, alpha the node's point,
    which certifies the span condition S + alpha S + ... + alpha^{s-1} S =
    E; lemma1_subspace finds it by a Gram solve over the point field.
    Subspaces built by hand may leave it None.
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
    response is a subfield element of ``response_bits`` bits, sent as its
    m-bit coordinates in the subfield's basis gamma^0..gamma^(m-1).  The
    transcript keeps those; ``responses``, the same values as elements of
    the ambient field, is lifted from them on first read.
    """

    def __init__(self, failed, helpers, queries, subfield, coordinates,
                 per_helper_bits, bits_transmitted, cutset, recovered):
        self.failed = failed
        self.helpers = list(helpers)
        self.queries = queries
        self._subfield = subfield
        self._coordinates = coordinates
        self.response_bits = subfield.degree_bits
        self.per_helper_bits = list(per_helper_bits)
        self.bits_transmitted = bits_transmitted
        self.cutset_bits = cutset
        self.recovered = recovered
        self.verified = None  # set by callers holding ground truth

    @cached_property
    def responses(self):
        sub = self._subfield
        return [FieldElem(sub.ctx, sub._lift(z)) for z in self._coordinates]

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
    """Repair subspace of one Construction-1 node, over K = GF(q^{u-bar}).

    The subspace belongs to the node's point alpha (Lemma 1: S + alpha S +
    ... + alpha^{s-1} S = E): its base layer is the s-shift set
    {beta^mu * alpha^(mu + sigma*s)} plus the closing sum element, p_i
    vectors b, lifted from the point field F = GF(q^{u_i}) down to the
    residue field K of the helper groups as the b * delta^l, l < r =
    u_i / u-bar, since delta, F's canonical generator, has the power basis
    delta^0..delta^(r-1) of F over K.  Each node needs its own subspace;
    one built for a point does not shift-span for the other points of its
    group.  One Gram solve over F certifies the result: {b * alpha^w *
    delta^l} spans E over K iff {b * alpha^w} spans E over F, and those
    s p_i = [E : F] vectors span E exactly when dual_basis's Gram matrix
    is nonsingular, the trace form being nondegenerate.  That is the span
    condition for alpha, and it also proves the lifted vectors independent
    over K.  As Tr_{E/K} = Tr_{F/K} Tr_{E/F}, the duals over K are
    x*_{b,w} * y_l at ((b r + l) s + w), x* the solve's duals and y those
    of delta's powers under Tr_{F/K} (SubfieldHandle._power_duals): the
    duals a Gram solve over K gives, from s p_i vectors, not s p_i r.  When
    F = K (r = 1, as at d = n - t_i) the solve over F is the whole search.
    The duals are kept for the repair.  If the ambient generator fails as
    beta, small powers of it are tried in order, and only the accepted
    beta is lifted.  Helper groups default to every other group; in any
    order, they must be distinct groups of the plan other than the node's,
    and the subspace is cached per (node, sorted groups).
    """
    if plan.construction != 1:
        raise ValueError("repair subspaces of this shape exist for construction 1")
    group, _ = plan.locate(node)
    others = set(range(len(plan.groups))) - {group}
    helper_groups = others if helper_groups is None else tuple(helper_groups)
    R = tuple(sorted(set(helper_groups)))
    if not R or len(R) != len(helper_groups) or not others.issuperset(R):
        raise ValueError(
            f"helper groups {helper_groups} must be distinct groups of the "
            f"plan, at least one, other than node {node}'s group {group}")

    def search():
        ctx = plan.ctx
        a, s = plan.base_bits, plan.s
        sub = ctx.subfield(a * math.prod(plan.groups[j].prime for j in R))
        field = ctx.subfield(a * plan.u_list[group])
        alpha = plan.eval_set.points[node]
        for beta, base in _lemma1_candidates(plan, group, alpha):
            shifted = BasisOverSubfield(field, _shifts(base, alpha, s))
            try:
                duals = dual_basis(shifted).vectors
            except PERepairError as err:
                if err.code != "SINGULAR_GRAM":
                    raise
                continue
            if field is not sub:
                # b * delta^l over K, and its duals x*_{b,w} * y_l at
                # ((b r + l) s + w)
                by_y = [ctx._scaler(y, len(duals))
                        for y in field._power_duals(sub.degree_bits)]
                duals = [FieldElem(ctx, times(duals[i * s + w].v))
                         for i in range(len(base)) for times in by_y
                         for w in range(s)]
                base = _shifts(base, field.canonical_generator, len(by_y))
            return RepairSubspace(
                sub, BasisOverSubfield(sub, base), beta, duals)
        raise PERepairError(
            "SPAN_FAILURE", f"no workable beta among g^1..g^32 for node {node}"
        )

    return memo(plan._cache, ("subspace", node, R), search)


def _lemma1_candidates(plan, group: int, alpha):
    """(beta, base) of lemma1_subspace for beta = g^1..g^32, in order, for
    the point alpha of the group: the p_i vectors b that the search
    certifies over the group's point field and lifts to its residue
    field."""
    ctx = plan.ctx
    s = plan.s
    p_i = plan.groups[group].prime
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
        yield beta, base


def _shifts(vectors, alpha, count: int):
    """[v * alpha^w for v in vectors for w < count], count >= 1: the order
    of the repair's basis B_{m,w}, every product by alpha."""
    ctx = alpha.ctx
    times = ctx._scaler(alpha.v, len(vectors) * (count - 1))
    out = []
    for v in vectors:
        out.append(v)
        for _ in range(count - 1):
            out.append(FieldElem(ctx, times(out[-1].v)))
    return out


def verify_span(S: RepairSubspace, alpha, s: int) -> bool:
    """True iff S + alpha S + ... + alpha^{s-1} S is the whole field, by a
    GF(2)-rank computation: the predicate lemma1_subspace's Gram solve
    stands in for, kept as an independent check."""
    from .field_tower import gf2_rank

    ctx = alpha.ctx
    sigma = S.subfield.gf2_basis
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
    """Construction 1's d helpers and their groups R: R is the minimal
    prefix of groups, the excluded group skipped, that holds at least d
    nodes, and the helpers are R's first d nodes round-robin, i.e. sorted
    by (offset in group, group)."""
    R = []
    for j in range(len(plan.groups)):
        if j != excluded_group and sum(plan.groups[g].t for g in R) < d:
            R.append(j)
    nodes = sorted((i for j in R for i in plan.group_nodes(j)),
                   key=lambda i: plan.locate(i)[::-1])
    return nodes[:d], tuple(R)


def _parity_column(plan, failed: int, helpers):
    """The dual-code parity check through ``helpers`` and ``failed``.

    h annihilates the points of every other node, and v is the dual
    code's column multiplier (cached on the plan).  Returns the column
    [h(alpha_j) * v_j for j in helpers] and f_inv = (h(alpha_f) * v_f)^-1.
    When deg h <= n - k - 1, i.e. at least k helpers, sum_j column_j * c_j
    = c_f / f_inv for every codeword c; callers that also shift h by
    point powers need the margin for them.  One inversion, beyond the
    plan's first computation of v.
    """
    ctx = plan.ctx
    points = plan.eval_set.points
    helper_set = set(helpers)
    h = annihilator(
        [points[i] for i in range(plan.n) if i not in helper_set and i != failed],
        ctx,
    )
    v = memo(plan._cache, ("dual_multipliers",),
             lambda: dual_multipliers(plan.eval_set))
    column = [poly_eval(h, points[j]) * v[j] for j in helpers]
    f_inv = (poly_eval(h, points[failed]) * v[failed]).inverse()
    return column, f_inv


def _naive_weights(plan, failed: int, helpers):
    """Naive repair's weights w_j = column_j * f_inv of _parity_column, so
    that c_f = sum_j w_j c_j over k helpers; cached per (failed, helpers)."""
    def build():
        column, f_inv = _parity_column(plan, failed, helpers)
        return [col * f_inv for col in column]

    return memo(plan._cache, ("naive", failed, tuple(helpers)), build)


class _PreparedRepair(NamedTuple):
    """One PE repair's cached preparation, per (failed, d).

    Helper ``helpers[i]`` is asked for Tr(mults[i][m] * c), the trace onto
    ``sub``, with mults[i][m] = e_m * col_i for the raw int col_i =
    ``columns[i]``.  ``queries`` holds those (helper, mults[i][m]) pairs in
    response order, built once for every repair's transcript.  The last
    four fields hold what the evaluation order that _order picks from the
    shape reads, and the other order's two are None:

    * by trace coordinate (_by_coordinate, d + m - 1 products): the raw int
      ``weights[i][m]`` = D_m(alpha_i) that response (i, m) enters the
      failed symbol times, and masks = sub._masks(E), one row per e_m;
    * in K (_in_subfield, one product per response, then |E| W lifts and
      products): ``powers[i]``, the coordinates in K of alpha_i^1 ..
      alpha_i^(W-1), and ``duals[m][w]``, the raw repair dual
      dual'_{m,w}.
    """

    helpers: list
    sub: SubfieldHandle
    columns: list
    mults: list
    queries: tuple
    weights: list | None
    masks: tuple | None
    powers: list | None
    duals: list | None


def _order(sub: SubfieldHandle) -> str:
    """The evaluation order of a repair with responses in K = ``sub`` =
    GF(2^m) inside E = GF(2^N): "coordinate" when m^2 <= 4N, else
    "subfield" (in K).

    For R = d |E| responses, with |E| W = [E : K] = N/m, by coordinate
    takes d + m - 1 products in E and R m parities; in K takes R + N/m
    products in E, R traces to K, R (W - 1) carry-less m-bit products and
    N/m reductions and lifts.  The products alone favour by coordinate
    while m^2 stays below about (d/W + 1) N, 2.5N to 6N on the plans the
    tests and the benchmark run; a parity, one AND and bit count, costs
    far less than a product or a trace.  With each order forced on the
    same preparations in turns, one bound for every d and W, 4N, picks
    the faster order on every such shape but example1's m = 105
    (m^2 = 4.8N), where the two tie."""
    m = sub.degree_bits
    return "coordinate" if m * m <= 4 * sub.ctx.degree_bits else "subfield"


def _prepare(plan, failed, helpers, sub, E, W, duals) -> _PreparedRepair:
    """_repair's preparation from the shape's query plan.  Each batch of
    products that shares an operand (f_inv, a column entry, a helper point
    or, in SubfieldHandle._masks, a trace dual) takes one FieldCtx._scaler."""
    ctx = plan.ctx
    column, f_inv = _parity_column(plan, failed, helpers)
    points = [plan.eval_set.points[j] for j in helpers]
    # dual'_{m,w} by m, the repair duals of B_{m,0..W-1}: D_m's coefficients
    scale = ctx._scaler(f_inv.v, len(duals))
    polys = [[scale(dv) for dv in duals[m * W:(m + 1) * W]]
             for m in range(len(E))]
    mults = [[FieldElem(ctx, times(e_m.v)) for e_m in E]
             for times in (ctx._scaler(col.v, len(E)) for col in column)]
    weights = masks = powers = dual_rows = None
    if _order(sub) == "coordinate":
        weights = [[_horner(p, times) for p in polys] for times in
                   (ctx._scaler(a.v, len(duals) - len(E)) for a in points)]
        masks = sub._masks([e.v for e in E])
    else:
        powers = [[sub._coords(v.v) for v in _shifts([ctx.one], a, W)[1:]]
                  for a in points]
        dual_rows = polys
    return _PreparedRepair(
        helpers, sub, [col.v for col in column], mults,
        tuple((j, m) for j, row in zip(helpers, mults) for m in row),
        weights, masks, powers, dual_rows)


def _by_coordinate(prep: _PreparedRepair, symbols):
    """(response coordinates, recovered int) from d + m - 1 products,
    m = [K : GF(2)].

    Helper j's queries are e_m * col_j, so y_j = col_j * c_j is one
    product per helper and coordinate l of response (j, m) is
    parity(y_j & mu_{m,l}).  The recovered symbol sum_i lift(z_i) * w_i,
    w_i the weight of response i, equals sum_l gamma^l * S_l, where S_l
    XORs the weights of the responses whose coordinate l is set: a Horner
    pass in gamma of m - 1 products."""
    sub = prep.sub
    mul = sub.ctx._mul
    sums = [0] * sub.degree_bits
    coords = []
    for idx, col, row_weights in zip(prep.helpers, prep.columns, prep.weights):
        y = mul(col, symbols[idx].v)
        for weight, row_masks in zip(row_weights, prep.masks):
            z = 0
            for l, mask in enumerate(row_masks):
                if (y & mask).bit_count() & 1:
                    z |= 1 << l
                    sums[l] ^= weight
            coords.append(z)
    gamma = sub.canonical_generator.v
    acc = sums[-1]
    for s_l in reversed(sums[:-1]):
        acc = mul(acc, gamma) ^ s_l
    return coords, acc


def _in_subfield(prep: _PreparedRepair, symbols):
    """_by_coordinate's result with the sums over helpers taken in K.

    The failed symbol is sum_{m,w} dual'_{m,w} S_{m,w}, where S_{m,w} =
    sum_j alpha_j^w r_{j,m} lies in K with every alpha_j.  In coordinates,
    K = GF(2)[x]/(g) with x = gamma, S_{m,w} is the XOR of the carry-less
    m-bit products of alpha_j^w's and r_{j,m}'s coordinates, reduced mod g
    once; S_{m,0} is a plain XOR.  d |E| query products, each helper
    symbol shared by its |E| queries through one FieldCtx._scaler when
    they reach its byte-table gate (FieldCtx._wide, asked once), by _mul
    otherwise, then |E| W lifts and |E| W products to finish."""
    sub = prep.sub
    ctx = sub.ctx
    mul = ctx._mul
    trace_coords = sub._trace_coords
    sums = [[0] * len(row) for row in prep.duals]
    wide = ctx._wide(len(sums))
    coords = []
    for idx, row_mults, row_powers in zip(prep.helpers, prep.mults,
                                          prep.powers):
        v = symbols[idx].v
        times = ctx._scaler(v, len(sums)) if wide else None
        for mult, row in zip(row_mults, sums):
            z = trace_coords(times(mult.v) if wide else mul(v, mult.v))
            coords.append(z)
            row[0] ^= z
            for w, a in enumerate(row_powers, 1):
                row[w] ^= clmul(a, z)
    g = sub._coord_modulus
    acc = 0
    for row, dual_row in zip(sums, prep.duals):
        for s, dv in zip(row, dual_row):
            acc ^= mul(sub._lift(poly_mod(s, g)), dv)
    return coords, acc


def _repair(plan, codeword, failed: int, d, canonical, shape) -> RepairTranscript:
    """The repair skeleton both constructions share, and their contract.

    The codeword must come from ``plan``, and d, by default the scheme's
    ``canonical`` locality (None for n - t_i), must lie in [canonical,
    n - t_i].  The repair moves d * cutset_bits(canonical) / canonical
    bits, the cut-set bound at d = canonical, or INVARIANT_VIOLATION.

    ``shape(gi, d)``, gi the failed group, gives the query plan: (helpers,
    response subfield, query basis E, number of point powers W, duals),
    duals the raw trace-dual of the unscaled basis {e_m * alpha_f^w},
    m-major: lemma1_subspace's certificate for Construction 1, the power
    basis's closed form for Construction 2.  Helper j is asked for the
    traces of e * col_j * c_j for every e in E, where col_j = h(alpha_j) *
    v_j is _parity_column's entry: h annihilates the silenced points and v
    is the dual code's column multiplier.  The failed symbol is rebuilt
    through the trace-dual of B_{m,w} = e_m * alpha_f^w * c with c =
    h(alpha_f) * v_f.  If Tr(u_i d_j) = delta_ij then Tr((c u_i)(c^-1 d_j))
    = delta_ij, so that dual is the shape's duals times c^-1 = f_inv: one
    inversion, no second solve.

    That reconstruction, sum_{m,w} dual'_{m,w} * sum_j alpha_j^w * r_{j,m},
    is linear over GF(2).  The preparation, cached per (failed, d), holds
    what one of two evaluation orders reads, and _order picks the order
    from the response field alone, (m, N).  For R = d |E| responses in
    K = GF(2^m):

    * by trace coordinate (_by_coordinate), when m^2 <= 4N: regrouped by
      response, the failed symbol is sum_{j,m} r_{j,m} * D_m(alpha_j) with
      D_m(x) = sum_w dual'_{m,w} x^w, and the preparation holds the
      weights D_m(alpha_j), each by Horner in W - 1 products, and masks
      (|E| * m of them, shared by every helper).  One product per helper,
      m parities per response and m - 1 products to finish, d + m - 1
      products;
    * in K (_in_subfield), else: every alpha_j lies in K, so the inner
      sums are taken there, by m-bit carry-less products against the
      coordinates of alpha_j^w that the preparation holds with the duals,
      reduced once each.  One query product per response, then |E| W
      lifts and products, R + |E| W products.

    Both return the responses as coordinates in K and give the same
    symbol; the queries are the preparation's, the same for either order.
    The transcript keeps the coordinates, and lifts them to E only when
    its ``responses`` is read.
    """
    if codeword.plan_digest != plan.digest:
        raise PERepairError(
            "PLAN_MISMATCH", "codeword was not produced under this plan"
        )
    if len(codeword.symbols) != plan.n:
        raise PERepairError("PLAN_MISMATCH", "codeword length disagrees with plan")
    gi, _ = plan.locate(failed)
    top = plan.n - plan.groups[gi].t
    canonical = top if canonical is None else canonical
    if d is None:
        d = canonical
    if not canonical <= d <= top:
        raise PERepairError(
            "LOCALITY_OUT_OF_RANGE",
            f"d={d} outside [{canonical}, {top}] for this scheme",
        )
    prep = memo(plan._cache, ("repair", failed, d),
                lambda: _prepare(plan, failed, *shape(gi, d)))
    evaluate = _by_coordinate if prep.masks is not None else _in_subfield
    coords, acc = evaluate(prep, codeword.symbols)
    sub = prep.sub
    per_helper_bits = [len(row) * sub.degree_bits for row in prep.mults]
    bits = sum(per_helper_bits)
    expected = d * cutset_bits(canonical, plan.k, plan.L,
                               plan.base_bits) // canonical
    check_invariant(bits == expected, f"repair moved {bits} bits, not {expected}")
    return RepairTranscript(failed, prep.helpers, list(prep.queries), sub,
                            coords, per_helper_bits, bits,
                            cutset_bits(d, plan.k, plan.L, plan.base_bits),
                            FieldElem(plan.ctx, acc))


def repair_c1(plan, codeword, failed: int, d: int | None = None) -> RepairTranscript:
    """Construction-1 repair of one node at locality d in [k+s-1, n-t_i],
    by default k+s-1.  A larger d widens the helper prefix and shrinks each
    helper's responses, moving d * u base symbols, above the cut-set bound;
    a smaller one would push the shifted parity polynomials past the dual
    degree bound."""
    if plan.construction != 1:
        raise ValueError("plan is not a Construction-1 plan")

    def shape(gi, d):
        # each helper answers one query per basis element of the s-shift
        # repair subspace S, over the helper prefix's residue field
        helpers, R = _helper_prefix(plan, gi, d)
        S = lemma1_subspace(plan, failed, helper_groups=R)
        return helpers, S.subfield, S.basis, plan.s, [y.v for y in S.duals]

    return _repair(plan, codeword, failed, d, plan.d, shape)


def repair_c2(plan, codeword, failed: int, d: int | None = None) -> RepairTranscript:
    """Construction-2 repair: one trace from every survivor outside the
    failed node's group, so d, if given, must be n - t_i."""
    if plan.construction != 2:
        raise ValueError("plan is not a Construction-2 plan")

    def shape(gi, d):
        group_nodes = set(plan.group_nodes(gi))
        helpers = [i for i in range(plan.n) if i not in group_nodes]
        # alpha_f's power duals over K, [E : K] = p, certify that they span
        m = plan.base_bits * plan.u_list[gi]
        p = plan.groups[gi].prime
        duals = plan.ctx._power_duals(plan.eval_set.points[failed].v, m, p)
        return helpers, plan.ctx.subfield(m), [plan.ctx.one], p, duals

    return _repair(plan, codeword, failed, d, None, shape)


def _scheme(plan):
    """repair_c1 or repair_c2, whichever fits the plan's construction."""
    return repair_c1 if plan.construction == 1 else repair_c2
