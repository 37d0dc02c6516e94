"""Constructive decomposition of a solvable quotient into center tensor Weyl.

Given solvable g and a stable substitution ideal Q with every degree-bounded
semi-invariant central (the required hypothesis), the recursion walks a full
flag of ideals and produces

  * a central element e (the product of the denominators it had to invert),
  * canonical pairs (x_i, y_i) with {x_i, y_j} = delta_ij inside the
    localization at e, commuting with the degree-bounded center,

exhibiting the localized quotient as (center) tensor (n Weyl pairs) on the
inspected degree slice.  Each flag step adjoins one generator z and either

  (a) z kills the previous center: its action is inner, and z - b (with the
      potential b integrated in pair coordinates) is a new central element;

  (b) some central v = delta(u) lies in the image of the previous center:
      then y = u v^{-1} has delta(y) = 1, the same potential correction
      x = z - b commutes with the previous pairs, {x, y} = 1 gives a new
      canonical pair, and v joins the denominators (e picks up the factor).
      v = sum a_i delta(c_i) and u = sum a_i c_i share the coefficients a
      that one centralizer solve finds for the images of the previous
      center's basis c_i, lifted into the top; when the image holds no
      central element below the degree bound the step stops with
      SearchExhausted (``_central_choice`` says why nothing else can stop it).

The potential b is ``weyl``'s derivation splitting in formal pair
coordinates: {z, x_j} and {z, y_j} are expanded as polynomials in X_j, Y_j
whose coefficients are formal central variables C_k (one per element of
the degree-bounded center), ``weyl.integrate_potential`` integrates them
with the signs of ``weyl.split_derivation``, and b is that potential
evaluated at X_j = x_j, Y_j = y_j, C_k = center[k].

The flag is searched once, and g is presented on its generators once: one
inverse of the generator matrix moves the structure constants and the
semisimple subspace s into flag coordinates (the weights of s are read off
the flag).  The generators keep their names, and the ideal its rules, when
all of them are coordinate vectors; otherwise they are named c1..cm, which
no ideal survives.  Coordinate generators are first put in an order that
carries the ideal (``_ideal_order``): where the prefixes allow it, a
variable comes after those of the image that eliminates it, so the level
that adjoins it keeps its rule.  Level l is the algebra on the first l
variables, an ideal of g, and the last level is the presented quotient
itself.  The actions of s are derivations of each level algebra:
{t, x_k} = [t, x_k] is a linear form in the level's own variables.

Each level keeps the rules of the ideal on its variables whose images use
no later variable.  It is covered when it keeps all of them, so that its
normal form is the top's on its variables; the top covers itself.  One
``invariants.SliceTable`` per call computes the rows of the top's degree-d
slice once, by exponent shift, and ``share`` solves the degree-d center of
every covered level from those rows; a level that is not covered shifts
its own slice (see ``invariants``).  The table is a local value, so its
rows die with the call; a later center of the returned algebra at another
degree shifts its own slice.
An element of a covered level, lifted to the next covered level, or into a
localization of its own level, is already in normal form there: ``_carry``
only extends its numerator and pads its denominator exponents with zeros.
So is a polynomial image of a covered level lifted into the top for the
central choice (``_to_top``).  Every other lift goes through ``element``.

All searches are degree-bounded and use ordered enumeration, so identical
inputs yield identical traces.  ``SearchExhausted`` is a legitimate outcome:
the theory guarantees the objects exist, not that they appear below any
particular degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb

from . import linalg
from .errors import (
    EigenvalueNotRational,
    HypothesisFailed,
    NotClosed,
    NotNilpotent,
    SearchExhausted,
    UnsupportedChain,
)
from .invariants import DEFAULT_DEGREE_BOUND, SliceTable, center_up_to_degree, centralizer
from .invariants import nonzero_candidates, weight_spaces
from .lie import LieAlgebra, Subspace, is_nilpotent, jordan_holder, unit_index
from .poisson import (
    Derivation,
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    localize,
    reduced_algebra,
)
from .polys import Context, Poly, make_vars
from .spaces import (
    Span,
    basis_monomials,
    combination,
    independent_subset,
    monomials_up_to,
    solve_in_span,
)
from .weyl import WeylPresentation, integrate_potential, pair_relation_failure


@dataclass(frozen=True)
class DecompositionResult:
    e: Poly
    n: int
    pairs: tuple[tuple[LocalElement, LocalElement], ...]
    center_basis: tuple[LocalElement, ...]
    algebra: PoissonAlgebra  # the localized quotient the pairs live in
    trace: dict


# ---------------------------------------------------------------------------
# plumbing


def _on_flag_basis(g: LieAlgebra, gens, names: Context, ts):
    """g presented on the flag generators ``gens`` under ``names``, and the
    s-basis ``ts`` in the same coordinates: basis vector k is gens[k], so
    the first l basis vectors span the l-th flag member."""
    to_flag = linalg.mat_inverse([list(row) for row in zip(*gens)])
    structure = {}
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            entry = linalg.sparse(linalg.mat_vec(to_flag, g.bracket_vec(gens[a], gens[b])))
            if entry:
                structure[(a, b)] = entry
    return LieAlgebra(names, structure), [linalg.mat_vec(to_flag, t) for t in ts]


def _ideal_order(g: LieAlgebra, units: list[int], ideal) -> list[int]:
    """An order of the coordinate flag generators e_{units[k]} (given by
    their positions k in ``jordan_holder`` order) that carries the ideal:
    each step takes the first remaining generator whose adjunction keeps
    the prefix an ideal of g and, when a rule eliminates it, whose rule's
    image uses only generators already placed.  When none qualifies it takes
    the first remaining one: its ``jordan_holder`` prefix is placed, so the
    prefix is still an ideal.  The ``jordan_holder`` order when it already
    carries the ideal."""
    index = {v.name: i for i, v in enumerate(g.basis)}
    # coordinate u -> the other coordinates that must precede e_u
    needs = [set() for _ in range(g.dim)]
    for (a, b), vec in g.structure.items():
        needs[a].update(vec)
        needs[b].update(vec)
    for v, img in ideal.rules if ideal is not None else ():
        needs[index[v.name]].update(index[name] for name in img.variables_used())
    for u, need in enumerate(needs):
        need.discard(u)
    order, placed, rest = [], set(), list(range(len(units)))
    while rest:
        k = next((k for k in rest if needs[units[k]] <= placed), rest[0])
        rest.remove(k)
        order.append(k)
        placed.add(units[k])
    return order


def _level_algebra(g, ideal, level):
    """The quotient on the first ``level`` flag variables (an ideal of g, so
    its brackets are the structure constants among them) by the rules of
    ``ideal`` on those variables whose images use no later variable."""
    ctx = g.basis[:level]
    sub = LieAlgebra(ctx, {ij: vec for ij, vec in g.structure.items() if ij[1] < level})
    names = {v.name for v in ctx}
    rules = [
        (v, img.restrict(ctx))
        for v, img in (ideal.rules if ideal is not None else ())
        if v.name in names and img.variables_used() <= names
    ]
    return reduced_algebra(sub, SubstitutionIdeal(tuple(rules)))


def _carry(alg, el):
    """el as an element of alg, where el comes from an algebra on the first
    variables of alg with alg's rules on them and a prefix of its inverted
    elements: it is in alg's normal form already, so only its numerator's
    context and its denominator exponents grow."""
    den = el.den + (0,) * (len(alg.inverted) - len(el.den))
    return LocalElement(el.num.extend(alg.vars), den)


def _to_top(top, el):
    """el, a polynomial element of a covered level, as an element of the
    top: the level's normal form is the top's on its variables, so only its
    numerator's context grows.  ``element`` when el has a denominator."""
    if any(el.den):
        return top.element(el)
    return LocalElement(el.num.extend(top.vars), (0,) * len(top.inverted))


def _s_actions(g: LieAlgebra, ts, ctx: Context) -> list[Derivation]:
    """The derivations {t, .}, t in ts, of the level algebra on ``ctx``, the
    first variables of g's flag basis: they span an ideal, so each image
    {t, x_k} = [t, x_k] (column k of ad t) is a linear form in ``ctx``."""
    units = [tuple(int(i == j) for j in range(len(ctx))) for i in range(len(ctx))]
    return [
        Derivation(
            {
                v.name: LocalElement(Poly(ctx, dict(zip(units, col))))
                for v, col in zip(ctx, zip(*g.ad_matrix(t)))
            }
        )
        for t in ts
    ]


def _center_with_denominators(base, localized, d):
    """Degree-bounded center basis of the localized algebra: the plain
    center of ``base`` times powers of the (central) inverted elements,
    canonicalized and reduced to a linearly independent family."""
    plain = center_up_to_degree(base, d)
    nden = len(localized.inverted)
    cands = []
    seen = set()
    for caps in monomials_up_to(nden, d):
        for c in plain:
            el = localized.element(LocalElement(c.num, caps))
            key = (tuple(sorted(el.num.terms.items())), el.den)
            if not el.is_zero() and key not in seen:
                seen.add(key)
                cands.append(el)
    cands.sort(
        key=lambda el: (
            el.num.degree() + sum(el.den),
            sorted(el.num.terms),
            el.den,
        )
    )
    return independent_subset(localized, cands)


def _pair_monomials(alg, pairs, d, low=0):
    """Monomials in the flattened pairs of degree low..d, ascending."""
    flat = [el for pr in pairs for el in pr]
    return [
        alg.monomial(flat, expo)
        for expo in monomials_up_to(len(flat), d)
        if sum(expo) >= low
    ]


def _pair_potential(cur_l, prev_l, pairs, z_el, d):
    """The potential b, evaluated on the pairs, with {b, .} = {z, .} on
    every pair element; zero when there are no pairs yet.

    Each bracket {z, x_j}, {z, y_j} is written as sum c_ab x^a y^b over the
    center of ``prev_l`` (a Poly over ``pres``: X_j, Y_j for x_j, y_j, C_k
    for center[k]), escalating the pair degree until the solve succeeds.
    All 2n brackets share one spanner list center[k] * x^a y^b, grown on
    demand: pair monomials in ``monomials_up_to`` order over the flat pairs
    x_1, y_1, x_2, y_2, ..., the center list inside each.  That order is
    graded, so pair degree <= deg takes the first comb(deg + 2n, 2n) * width."""
    if not pairs:
        return cur_l.zero()
    center = _center_with_denominators(prev_l, cur_l, d)
    n = len(pairs)
    width = len(center)
    pres = WeylPresentation(n, make_vars([f"C{k+1}" for k in range(width)]))
    flat = [el for pr in pairs for el in pr]
    expos = monomials_up_to(2 * n, d)
    spanners: list[LocalElement] = []
    ps, qs = [], []
    for j, el in enumerate(flat):
        target = cur_l.bracket(z_el, el)
        for deg in range(d + 1):
            size = comb(deg + 2 * n, 2 * n)
            for expo in expos[len(spanners) // width : size]:
                mono = cur_l.monomial(flat, expo)
                spanners.extend(cur_l.mul(c, mono) for c in center)
            sol = solve_in_span(cur_l, spanners[: size * width], target)
            if sol is not None:
                break
        else:
            raise SearchExhausted(d, "(pair splitting failed)")
        terms = {}
        for k, expo in enumerate(expos[:size]):
            xy = tuple(expo[0::2]) + tuple(expo[1::2])
            for m, c in enumerate(sol[k * width : (k + 1) * width]):
                if c != 0:
                    terms[xy + tuple(int(t == m) for t in range(width))] = c
        # {z, y_j} is p_j and {z, x_j} is -q_j (the signs of split_derivation)
        if j % 2:
            ps.append(Poly(pres.context, terms))
        else:
            qs.append(-Poly(pres.context, terms))
    try:
        b = integrate_potential(pres, ps, qs)
    except NotClosed:
        raise SearchExhausted(d, "(pair splitting failed)") from None
    coeffs, terms = [], []
    for mono, c in sorted(b.terms.items()):
        expo = [e for xy in zip(mono[:n], mono[n : 2 * n]) for e in xy]
        start = center[mono.index(1, 2 * n) - 2 * n]
        coeffs.append(c)
        terms.append(cur_l.monomial(flat, expo, start=start))
    return combination(cur_l, coeffs, terms)


def _central_choice(alg, candidates, d):
    """Coefficients a of the least nonzero g-central sum a_i candidates_i,
    scaled to leading coefficient 1; SearchExhausted when there is none.

    The candidates span delta(C), the image of the previous level's
    degree-<= d center C under delta = {z, .}.  For x in g, [x, z] = alpha z
    + w with w in the previous level, so {x, delta c} = alpha delta c +
    delta {x, c}: wherever delta(C) is a closed g-module its weights are sums
    of flag weights, hence rational, and Lie's theorem gives a common
    eigenvector.  Of weight 0 it is central, and ``centralizer`` finds it;
    of nonzero weight it is a semi-invariant, which the hypothesis check has
    excluded up to degree d.  So the centralizer comes up empty only at the
    degree bound: a nonlinear rule can push delta c above degree d, so that
    the span is not closed, or a nonzero-weight eigenvector can lie above
    degree d."""
    central = [(a, c) for a, c in centralizer(alg, candidates) if not c.is_zero()]
    if not central:
        raise SearchExhausted(d, "(no central element in the image)")
    a, v = min(central, key=lambda ac: (ac[1].num.degree(), sorted(ac[1].num.terms)))
    lead = v.num.terms[max(v.num.terms, key=lambda m: (sum(m), m))]
    return [c / lead for c in a]


def _krylov_projection(alg, op, el, theta):
    """Spectral projection onto the theta-eigencomponent of a locally finite
    semisimple operator, via the minimal polynomial on the Krylov span."""
    if el.is_zero():
        return el
    seq = [el]
    while True:
        nxt = op(seq[-1])
        dep = solve_in_span(alg, seq, nxt)
        if dep is not None:
            break
        seq.append(nxt)
    coeffs = [-c for c in dep] + [Fraction(1)]  # minimal polynomial, monic
    roots = linalg.rational_roots(coeffs)
    if theta not in roots:
        return alg.zero()
    out = el
    for mu in roots:
        if mu != theta:
            out = alg.scale(
                Fraction(1) / (theta - mu), alg.sub(op(out), alg.scale(mu, out))
            )
    res = alg.sub(op(out), alg.scale(theta, out))
    if not res.is_zero():
        raise EigenvalueNotRational("(action does not split rationally)")
    return out


def _assert_commutes(alg, el, pairs, center, d):
    for x_el, y_el in pairs:
        if not alg.bracket(el, x_el).is_zero() or not alg.bracket(el, y_el).is_zero():
            raise SearchExhausted(d, "(adjoined element fails to commute with pairs)")
    for c in center:
        if not alg.bracket(el, c).is_zero():
            raise SearchExhausted(d, "(adjoined element fails to centralize)")


# ---------------------------------------------------------------------------
# semisimple-action helpers (only active when s is supplied)


def _project_s_weight(alg, actions, el, theta_values):
    """The joint theta-eigencomponent of el under the s-actions ``actions``
    (derivations of ``alg``, see ``_s_actions``)."""
    for act, th in zip(actions, theta_values):
        el = _krylov_projection(alg, lambda x, act=act: act.apply(alg, x), el, th)
    return el


# ---------------------------------------------------------------------------
# the recursion


def decompose(
    g: LieAlgebra,
    ideal: SubstitutionIdeal | None = None,
    d: int = DEFAULT_DEGREE_BOUND,
    s: Subspace | None = None,
) -> DecompositionResult:
    """The localized quotient of B(g) by ``ideal`` as center tensor Weyl.

    The hypothesis check solves the weight spaces of the nonzero candidate
    weights only and raises HypothesisFailed with the first that holds a
    degree-<= d semi-invariant; for nilpotent g no weight is searched.  With
    ``s``, a subspace of g acting semisimply, flag generators and preimages
    are projected onto their s-weight components.  Raises NotStable,
    HypothesisFailed, UnsupportedChain, EigenvalueNotRational, SearchExhausted.
    Trace keys: degree_bound, hypothesis, basis_change (when the chain is
    c1..cm), chain, levels (level, generator, case, adjoined_central or v,
    u, pair; potential), e, n.  ValueError when d < 1."""
    if d < 1:
        raise ValueError(f"degree bound must be at least 1, got {d}")
    trace: dict = {"degree_bound": d, "levels": []}
    flag = jordan_holder(g)
    for w, basis in weight_spaces(reduced_algebra(g, ideal), d, nonzero_candidates(flag, d)):
        raise HypothesisFailed(tuple(map(str, w.values)), str(basis[0].num))
    trace["hypothesis"] = f"all semi-invariants central up to degree {d}"

    ts = list(s.basis) if s is not None else []
    order = range(g.dim)
    units = [unit_index(gen) for gen in flag.generators]
    if None in units:
        if ideal is not None and not ideal.is_empty():
            raise UnsupportedChain(
                "flag is not aligned with the coordinate variables; "
                "re-present the algebra on a flag basis or drop the ideal"
            )
        names = make_vars([f"c{i+1}" for i in range(g.dim)])
        trace["basis_change"] = "re-presented on the flag basis"
    else:
        order = _ideal_order(g, units, ideal)
        names = tuple(g.basis[units[k]] for k in order)
    theta_by_level = [tuple(flag.weights[k](t) for t in ts) for k in order]
    g, ts = _on_flag_basis(g, [flag.generators[k] for k in order], names, ts)
    trace["chain"] = g.names()
    alg = _level_algebra(g, ideal, g.dim)
    table = SliceTable(alg, d)

    pairs: list[tuple[LocalElement, LocalElement]] = []
    inverted: list[Poly] = []
    prev_l = None
    prev_covered = False
    cur_l = alg  # the answer for g = 0, where no level runs

    for level in range(1, g.dim + 1):
        theta = theta_by_level[level - 1]
        name = g.basis[level - 1].name
        step = {"level": level, "generator": name}
        cur_l = alg if level == g.dim else _level_algebra(g, ideal, level)
        covered = table.share(cur_l)
        if inverted:
            cur_l = localize(cur_l, [v.extend(cur_l.vars) for v in inverted])
        actions = _s_actions(g, ts, cur_l.vars)
        # two covered levels both keep the top's rules on their variables
        lift = partial(_carry, cur_l) if covered and prev_covered else cur_l.element
        pairs = [(lift(x), lift(y)) for x, y in pairs]

        # plain previous center: the domain where v and u are searched
        if prev_l is None:
            plain_center = [cur_l.one()]
        else:
            plain_center = [lift(c) for c in center_up_to_degree(prev_l, d)]
        # a generator the ideal sends to 0 is a case (a) level adjoining 0
        gen = cur_l.gen(name)
        z_el = _project_s_weight(cur_l, actions, gen, theta)
        if z_el.is_zero() and not gen.is_zero():
            raise SearchExhausted(d, "(flag generator lost its weight component)")

        delta_imgs = [cur_l.bracket(z_el, c) for c in plain_center]
        nonzero = [
            (c, im) for c, im in zip(plain_center, delta_imgs) if not im.is_zero()
        ]

        if not nonzero:
            step["case"] = "a"
            x_new = z_el
            if pairs:
                b_el = _pair_potential(cur_l, prev_l, pairs, z_el, d)
                x_new = cur_l.sub(z_el, b_el)
                step["potential"] = cur_l.format(b_el)
            _assert_commutes(cur_l, x_new, pairs, plain_center, d)
            step["adjoined_central"] = cur_l.format(x_new)
        else:
            step["case"] = "b"
            preimages, images = zip(*nonzero)
            to_top = partial(_to_top, alg) if covered else alg.element
            coeffs = _central_choice(alg, [to_top(im) for im in images], d)
            # The lift of a level into the top is a Poisson map substituting
            # the images of the rules the level drops.  Where it is injective
            # (on a covered level, and for one dropped rule), a combination of
            # the level's images with a g-central lift is central in the level
            # and in every later one.  Where it might not be (two dropped rules
            # with one image), the exact checks below still guard the pair.
            v = combination(cur_l, coeffs, images)
            u = combination(cur_l, coeffs, preimages)
            if actions:
                u = _project_s_weight(cur_l, actions, u, [-t for t in theta])
                if not cur_l.sub(cur_l.bracket(z_el, u), v).is_zero():
                    raise SearchExhausted(d, "(weight projection broke the preimage)")
            step["v"] = str(v.num)
            step["u"] = cur_l.format(u)
            if not v.num.is_constant() and str(v.num) not in map(str, inverted):
                inverted.append(v.num)
                cur_l = localize(cur_l, [v.num])
                pairs = [(_carry(cur_l, x), _carry(cur_l, y)) for x, y in pairs]
                u = _carry(cur_l, u)
                z_el = _carry(cur_l, z_el)
            y_new = cur_l.mul(u, cur_l.invert(cur_l.element(v.num)))
            b_el = _pair_potential(cur_l, prev_l, pairs, z_el, d)
            b_el = _project_s_weight(cur_l, actions, b_el, theta)
            x_new = cur_l.sub(z_el, b_el)
            if not cur_l.sub(cur_l.bracket(x_new, y_new), cur_l.one()).is_zero():
                raise SearchExhausted(d, "(canonical pair relation failed)")
            _assert_commutes(cur_l, x_new, pairs, [], d)
            pairs.append((x_new, y_new))
            if not b_el.is_zero():
                step["potential"] = cur_l.format(b_el)
            step["pair"] = [cur_l.format(x_new), cur_l.format(y_new)]
        trace["levels"].append(step)
        prev_l = cur_l
        prev_covered = covered

    center = _center_with_denominators(cur_l, cur_l, d)
    e = Poly.const(cur_l.vars, 1)
    for v in inverted:
        e = e * v.extend(cur_l.vars)
    trace["e"] = str(e)
    trace["n"] = len(pairs)
    return DecompositionResult(
        e=e,
        n=len(pairs),
        pairs=tuple(pairs),
        center_basis=tuple(center),
        algebra=cur_l,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# wrappers, verification, and the center/Weyl equivalence report


def decompose_nilpotent(
    g: LieAlgebra, ideal: SubstitutionIdeal | None = None, d: int = DEFAULT_DEGREE_BOUND
) -> DecompositionResult:
    """``decompose`` for nilpotent g (NotNilpotent otherwise)."""
    if not is_nilpotent(g):
        raise NotNilpotent()
    res = decompose(g, ideal, d)
    res.trace["hypothesis"] = "nilpotent action (central semi-invariants automatic)"
    return res


def verify_decomposition(res: DecompositionResult, check_degree: int = 4) -> dict:
    """All result invariants, exactly: pair relations, centrality, and the
    degree-slice bookkeeping for the multiplication map
    (center tensor Weyl -> localized quotient)."""
    alg = res.algebra
    report = {
        "pair_relations": pair_relation_failure(alg, res.pairs) is None,
        "centrality": True,
    }
    gens = [alg.gen(v.name) for v in alg.vars]
    for c in res.center_basis:
        for gen in gens:
            if not alg.bracket(gen, c).is_zero():
                report["centrality"] = False
        for xi, yi in res.pairs:
            if not alg.bracket(c, xi).is_zero() or not alg.bracket(c, yi).is_zero():
                report["centrality"] = False
    nden = len(alg.inverted)
    targets = [
        alg.element(LocalElement(m, caps))
        for m in basis_monomials(alg, check_degree)
        for caps in monomials_up_to(nden, check_degree)
    ]
    # generators can carry pair-degree and center-degree above their
    # polynomial degree (a generator may expand as center * pair^2), so the
    # bookkeeping uses its own window, escalating the pair bound as needed.
    # One span serves the whole escalation: rows sit over the fixed
    # denominator s^window per inverted s (products are filtered to den <=
    # window, targets have den <= check_degree), so each bound adds only
    # the products of its new pair monomials.  The map is injective iff
    # every added row raises the rank; it is surjective once the span
    # contains every target.
    window = 2 * check_degree
    center_list = _center_with_denominators(alg, alg, window)
    span = Span(alg, (window,) * nden)
    pending = targets
    report["mult_map_injective"] = False
    report["mult_map_surjective"] = False
    for pair_bound in range(check_degree, window + 1):
        low = 0 if pair_bound == check_degree else pair_bound
        monomials = _pair_monomials(alg, res.pairs, pair_bound, low)
        products = [alg.mul(c, w) for c in center_list for w in monomials]
        report["mult_map_injective"] = all(
            span.add(prod)
            for prod in products
            if prod.num.degree() <= 3 * check_degree
            and all(e <= window for e in prod.den)
        )
        if not report["mult_map_injective"]:
            break
        pending = [t for t in pending if not span.contains(t)]
        if not pending:
            report["mult_map_surjective"] = True
            report["pair_degree_used"] = pair_bound
            break
    report["ok"] = all(
        report[k]
        for k in (
            "pair_relations",
            "centrality",
            "mult_map_injective",
            "mult_map_surjective",
        )
    )
    return report


def check_84(
    g: LieAlgebra, ideal: SubstitutionIdeal | None = None, d: int = DEFAULT_DEGREE_BOUND
) -> dict:
    """For nilpotent g: the center is trivial iff the quotient is already a
    Weyl algebra; evaluates both sides and reports agreement with a
    certificate when the center is nontrivial."""
    if not is_nilpotent(g):
        raise NotNilpotent()
    alg = reduced_algebra(g, ideal)
    center = center_up_to_degree(alg, d)
    nonconstant = [c for c in center if not c.num.is_constant()]
    cond_i = not nonconstant
    res = decompose(g, ideal, d)
    no_localization = res.e.is_constant()
    nontrivial_center = [
        c
        for c in res.center_basis
        if not (c.is_polynomial() and c.num.is_constant())
    ]
    cond_ii = no_localization and not nontrivial_center
    report = {
        "degree_bound": d,
        "center_trivial": cond_i,
        "weyl_presentation": cond_ii,
        "agree": cond_i == cond_ii,
        "weyl_rank": res.n,
    }
    if nonconstant:
        report["central_witness"] = str(nonconstant[0].num)
    return report
