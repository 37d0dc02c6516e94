"""Constructive decomposition of a solvable quotient into center tensor Weyl.

Given solvable g and a stable substitution ideal Q with every degree-bounded
semi-invariant central (the required hypothesis), the recursion walks a full
flag of ideals and produces

  * a central element e (the product of the denominators it had to invert),
  * canonical pairs (x_i, y_i) with {x_i, y_j} = delta_ij inside the
    localization at e, commuting with the degree-bounded center,

exhibiting the localized quotient as (center) tensor (n Weyl pairs).
``verify_decomposition`` certifies that exactly, in every degree, by
expanding each generator over the pairs (``weyl.pair_expansion``).  Each
flag step adjoins one generator z and either

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

The potential b is summed in the level algebra itself: {z, x_j} and
{z, y_j} are expanded over the degree-bounded center times pair monomials,
and Euler's identity on each pair-degree part turns every term of the
expansions into a term of b (``_pair_potential``).

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
no later variable.  The top is the hypothesis check's quotient, built and
checked once, on the flag's variables (``poisson.on_variables``).  One
``invariants.SliceTable`` per call shifts the top's degree-d slice once and
builds every level the top covers from it, with its degree-d center (the
covered-level rule is stated there); only the levels the top does not cover
are built from g, each with its own stability check and slice.  The table,
a local value, dies with the call; a later center of the returned algebra
at another degree shifts its own slice.
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
    LocalNilpotencyCapExceeded,
    NotNilpotent,
    SearchExhausted,
    UnsupportedChain,
)
from .invariants import DEFAULT_DEGREE_BOUND, SliceTable, center_up_to_degree, centralizer
from .invariants import commutes_with_generators, nonzero_candidates, weight_spaces
from .lie import LieAlgebra, Subspace, is_nilpotent, jordan_holder, unit_index
from .poisson import (
    Derivation,
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    localize,
    on_variables,
    reduced_algebra,
)
from .polys import Context, Poly, make_vars
from .spaces import combination, independent_subset, monomials_up_to, solve_in_span
from .weyl import pair_expansion, pair_relation_failure


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
    ``ideal`` on those variables whose images use no later variable, with its
    own stability check: a level the top does not cover (``SliceTable``)."""
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
    canonicalized and reduced to a linearly independent family.  Each plain
    element is lifted once, and ``cancel_each`` reads its forms over every
    power from one ladder of quotients, in ``_cancel``'s greedy order."""
    caps = monomials_up_to(len(localized.inverted), d)
    forms = [
        localized.cancel_each(localized.element(c).num, caps)
        for c in center_up_to_degree(base, d)
    ]
    cands = []
    seen = set()
    for column in zip(*forms):  # caps by caps, as the sort keeps the order of ties
        for el in column:
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


def _pair_potential(cur_l, prev_l, pairs, z_el, d):
    """The potential b, evaluated on the pairs, with {b, .} = {z, .} on
    every pair element; zero when there are no pairs yet.

    Each bracket {z, x_j}, {z, y_j} is solved in one spanner list c x^a y^b
    (c in the center of ``prev_l``), grown on demand in the graded
    ``monomials_up_to`` order over x_1, y_1, x_2, ..., escalating the pair
    degree: pair degree <= deg takes the first comb(deg + 2n, 2n) * width.
    As db/dx_j = {z, y_j} and db/dy_j = -{z, x_j}, Euler's identity on each
    pair-degree part of b makes a term a t of pair degree m add
    a x_j t / (m + 1) from {z, y_j} and -a y_j t / (m + 1) from {z, x_j};
    m + 1 >= 1, as c has no pair variable.  The exact commute checks after
    the call still guard b."""
    if not pairs:
        return cur_l.zero()
    center = _center_with_denominators(prev_l, cur_l, d)
    n = len(pairs)
    width = len(center)
    flat = [el for pr in pairs for el in pr]
    expos = monomials_up_to(2 * n, d)
    spanners: list[LocalElement] = []
    terms = []
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
        # {z, y_j} integrates against x_j, {z, x_j} against -y_j
        partner, sign = (flat[j - 1], 1) if j % 2 else (flat[j + 1], -1)
        for k, a in sol.items():
            m = sum(expos[k // width])
            terms.append((Fraction(sign * a, m + 1), cur_l.mul(partner, spanners[k])))
    return combination(cur_l, terms)


def _central_choice(alg, candidates, d):
    """The nonzero coefficients {i: a_i} of the least nonzero g-central sum
    a_i candidates_i, scaled to leading coefficient 1; else SearchExhausted.

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
    return {i: c / lead for i, c in a.items()}


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
    coeffs = [-dep.get(i, 0) for i in range(len(seq))] + [Fraction(1)]  # minimal polynomial
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
            raise SearchExhausted(
                d, "(adjoined element fails to centralize, though z kills the previous center)"
            )


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
    u, pair; potential), e, n.  ValueError when d < 1, or when s is not a
    subspace of g's own dimension."""
    if d < 1:
        raise ValueError(f"degree bound must be at least 1, got {d}")
    if s is not None and s.ambient_dim != g.dim:
        raise ValueError(f"s lies in dimension {s.ambient_dim}, but g has dimension {g.dim}")
    trace: dict = {"degree_bound": d, "levels": []}
    flag = jordan_holder(g)
    checked = reduced_algebra(g, ideal)
    for w, basis in weight_spaces(checked, d, nonzero_candidates(flag, d)):
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
    alg = on_variables(checked, names) if None not in units else reduced_algebra(g, None)
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
        cur_l = table.level(level)
        covered = cur_l is not None
        if not covered:
            cur_l = _level_algebra(g, ideal, level)
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
            v = combination(cur_l, [(a, images[i]) for i, a in coeffs.items()])
            u = combination(cur_l, [(a, preimages[i]) for i, a in coeffs.items()])
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
    """The multiplication map (center tensor Weyl -> localized quotient),
    exactly and in every degree: pair relations, centrality, and the
    expansion of every generator over the pairs (``weyl.pair_expansion``).
    The report does not depend on ``check_degree``, which is kept for its
    callers.  ValueError when check_degree < 1, or when the algebra has a
    Laurent variable: only the generators x_k and the inverses 1/s are
    expanded, so an inverse x^-1 would be left out (``decompose`` makes no
    Laurent variable).

    Centrality is one pass of exponent shifts
    (``invariants.commutes_with_generators``): every center element
    commutes with every generator.  That is all of it, since {c, .} is a
    derivation of the localized algebra: zero on the generators, it is zero
    on every polynomial, and by the quotient rule {c, 1/s} = -{c, s}/s^2 on
    every inverse, so on the pair elements too.  An element over a
    denominator that is not central is refused by the shift and reported
    not central; ``decompose`` inverts only central elements.

    Let B be generated by the coefficients of the expansions and the
    inverses of the inverted s.  The map B tensor Weyl_n -> A is injective
    when the pair relations hold and every coefficient and every s commutes
    with every generator: B is then central, {x_i, .} = d/dy_i and
    {y_i, .} = -d/dx_i on B[x, y], and differentiating a relation
    sum c_ab x^a y^b = 0 at a top exponent isolates a! b! c_ab = 0.  It is
    surjective when, in addition, every generator equals its expansion,
    since the x_k and the central 1/s generate A.  A series that does not
    end within ``weyl.DEFAULT_NILPOTENCY_CAP`` leaves its generator
    unexpanded, and the map is not reported surjective.  When the pair
    relations fail, neither map key holds and nothing is expanded."""
    if check_degree < 1:
        raise ValueError(f"check degree must be at least 1, got {check_degree}")
    alg = res.algebra
    if any(v.invertible for v in alg.vars):
        raise ValueError(
            "verification expands only the generators x_k and 1/s, "
            "so it needs a context without Laurent variables"
        )
    report = {
        "pair_relations": pair_relation_failure(alg, res.pairs) is None,
        "centrality": commutes_with_generators(alg, res.center_basis),
        "mult_map_injective": False,
        "mult_map_surjective": False,
    }
    if report["pair_relations"]:
        flat = [el for pr in res.pairs for el in pr]
        den = (0,) * len(alg.inverted)
        coeffs = [LocalElement(s, den) for s in alg.inverted]
        expanded = True
        for v in alg.effective_vars():
            h = alg.gen(v.name)
            try:
                expansion = pair_expansion(alg, res.pairs, h)
            except LocalNilpotencyCapExceeded:
                expanded = False
                continue
            coeffs.extend(expansion.values())
            terms = [(1, alg.monomial(flat, e, start=c)) for e, c in expansion.items()]
            expanded = expanded and alg.sub(combination(alg, terms), h).is_zero()
        report["mult_map_injective"] = commutes_with_generators(alg, coeffs)
        report["mult_map_surjective"] = report["mult_map_injective"] and expanded
    report["ok"] = all(report.values())
    return report


def check_84(
    g: LieAlgebra, ideal: SubstitutionIdeal | None = None, d: int = DEFAULT_DEGREE_BOUND
) -> dict:
    """For nilpotent g: the center is trivial iff the quotient is already a
    Weyl algebra; evaluates both sides and reports agreement with a
    certificate when the center is nontrivial.  ValueError when d < 1."""
    if not is_nilpotent(g):
        raise NotNilpotent()
    if d < 1:
        raise ValueError(f"degree bound must be at least 1, got {d}")
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
