"""Command-line front end.

One problem per JSON file; reports are JSON on stdout (deterministic: keys
and lists are explicitly ordered, rationals are "p/q" strings), a short
human summary goes to stderr unless --json is given.  Exit codes:

  0  success
  1  mathematical negative (not simple, hypothesis failed, invalid table,
     irrational eigenvalue, undecided nilradical)
  2  input error (bad JSON, parse errors, unknown variables, unstable ideal)
  3  degree-bounded search exhausted
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bvwg as bvwg_mod
from .decompose import check_84 as run_check_84
from .decompose import decompose
from .errors import (
    EigenvalueNotRational,
    HypothesisFailed,
    JacobiViolation,
    LiePoissonError,
    NilradicalUndecided,
    NotNilpotent,
    NotSimple,
    SearchExhausted,
)
from .invariants import center_up_to_degree, ghat, reduced_algebra, semi_invariants
from .lie import LieAlgebra, is_nilpotent, is_solvable, verify_lie
from .poisson import SubstitutionIdeal, ideal_from_pairs

MATH_NEGATIVE = (
    JacobiViolation,
    EigenvalueNotRational,
    NilradicalUndecided,
    HypothesisFailed,
    NotSimple,
    NotNilpotent,
)


class ProblemFile:
    """Parsed problem: exactly one of a Lie algebra or a lattice spec."""

    def __init__(self, data: dict):
        self.name = data.get("name", "problem")
        opts = data.get("options", {})
        self.max_degree = int(opts.get("max_degree", 6))
        self.lie: LieAlgebra | None = None
        self.ideal: SubstitutionIdeal | None = None
        self.bvwg: bvwg_mod.BVWG | None = None
        if ("lie" in data) == ("bvwg" in data):
            raise ValueError("problem file needs exactly one of 'lie' or 'bvwg'")
        if "lie" in data:
            lie = data["lie"]
            basis = lie["basis"]
            if int(lie.get("dim", len(basis))) != len(basis):
                raise ValueError("dim does not match basis length")
            structure = {}
            for entry in lie.get("brackets", []):
                i, j = int(entry["i"]), int(entry["j"])
                coeffs = {
                    int(k): Fraction(str(v)) for k, v in entry["coeffs"].items()
                }
                structure[(i, j)] = coeffs
            self.lie = verify_lie(" ".join(basis), structure)
            rules = data.get("ideal") or []
            if rules:
                ctx = self.lie.basis
                self.ideal = ideal_from_pairs(
                    ctx, [(r["var"], r["value"]) for r in rules]
                )
        else:
            b = data["bvwg"]
            self.bvwg = bvwg_mod.make_spec(
                b["v_names"], b["omega"], b["g_names"], b["weights"]
            )
            bvwg_mod.validate(self.bvwg)


def _load(path: str) -> ProblemFile:
    with open(path) as fh:
        return ProblemFile(json.load(fh))


def _degree_bound(args, prob: ProblemFile) -> int:
    """The --max-degree flag when given, else options.max_degree; at least 1."""
    d = prob.max_degree if args.max_degree is None else args.max_degree
    if d < 1:
        raise ValueError(f"degree bound must be at least 1, got {d}")
    return d


def _emit(report: dict, summary: str, args) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    if not args.json:
        sys.stderr.write(summary + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    try:
        prob = _load(args.file)
    except JacobiViolation as exc:
        report = {
            "valid": False,
            "jacobi_violation": {
                "triple": list(exc.triple),
                "residual": [str(c) for c in exc.residual],
            },
        }
        _emit(report, "invalid: Jacobi identity fails", args)
        return 1
    if prob.lie is not None:
        report = {
            "valid": True,
            "dim": prob.lie.dim,
            "solvable": is_solvable(prob.lie),
            "nilpotent": is_nilpotent(prob.lie),
        }
        summary = (
            f"{prob.name}: valid Lie algebra, dim {report['dim']}, "
            f"solvable={report['solvable']}, nilpotent={report['nilpotent']}"
        )
    else:
        simple, cert = bvwg_mod.is_simple(prob.bvwg)
        report = {
            "valid": True,
            "dim_v": prob.bvwg.n,
            "rank_lattice": prob.bvwg.p,
            "simple": simple,
        }
        summary = f"{prob.name}: valid lattice spec, simple={simple}"
    _emit(report, summary, args)
    return 0


def cmd_bracket(args) -> int:
    prob = _load(args.file)
    if prob.lie is None:
        raise ValueError("bracket needs a Lie problem file")
    alg = reduced_algebra(prob.lie, prob.ideal)
    p = alg.element(args.p)
    q = alg.element(args.q)
    res = alg.bracket(p, q)
    report = {"bracket": alg.format(res)}
    _emit(report, f"{{{args.p}, {args.q}}} = {alg.format(res)}", args)
    return 0


def cmd_semi_invariants(args) -> int:
    prob = _load(args.file)
    d = _degree_bound(args, prob)
    rep = semi_invariants(prob.lie, prob.ideal, d)
    entries = [
        {
            "weight": [str(v) for v in w.values],
            "basis": [rep_alg_format(b) for b in basis],
        }
        for w, basis in rep.entries
    ]
    report = {"bound": d, "entries": entries}
    _emit(report, f"{len(entries)} weight space(s) up to degree {d}", args)
    return 0


def rep_alg_format(el) -> str:
    return str(el.num) if el.is_polynomial() else str(el)


def cmd_center(args) -> int:
    prob = _load(args.file)
    d = _degree_bound(args, prob)
    alg = reduced_algebra(prob.lie, prob.ideal)
    basis = center_up_to_degree(alg, d)
    report = {"bound": d, "basis": [str(b.num) for b in basis]}
    _emit(report, f"center dimension {len(basis)} up to degree {d}", args)
    return 0


def cmd_ghat(args) -> int:
    prob = _load(args.file)
    d = _degree_bound(args, prob)
    data = ghat(prob.lie, prob.ideal, d)
    report = {
        "bound": d,
        "kernel_basis": [[str(c) for c in row] for row in data.subalgebra.basis],
        "complement": [prob.lie.basis[i].name for i in data.complement],
        "restricted_ideal": [
            {"var": v.name, "value": str(img)} for v, img in data.restricted_ideal.rules
        ],
    }
    _emit(
        report,
        f"kernel dim {data.subalgebra.dim}, complement {report['complement']}",
        args,
    )
    return 0


def cmd_decompose(args) -> int:
    prob = _load(args.file)
    d = _degree_bound(args, prob)
    res = decompose(prob.lie, prob.ideal, d)
    alg = res.algebra
    report = {
        "bound": d,
        "e": str(res.e),
        "n": res.n,
        "pairs": [[alg.format(x), alg.format(y)] for x, y in res.pairs],
        "center_basis": [alg.format(c) for c in res.center_basis],
    }
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(res.trace, fh, sort_keys=True, indent=1)
    _emit(report, f"e = {report['e']}, {res.n} canonical pair(s)", args)
    return 0


def cmd_check84(args) -> int:
    prob = _load(args.file)
    d = _degree_bound(args, prob)
    report = run_check_84(prob.lie, prob.ideal, d)
    _emit(
        report,
        f"center trivial: {report['center_trivial']}, agree: {report['agree']}",
        args,
    )
    return 0


def cmd_bvwg_simple(args) -> int:
    prob = _load(args.file)
    simple, cert = bvwg_mod.is_simple(prob.bvwg)
    report = {
        "simple": simple,
        "certificate": [[str(c) for c in v] for v in cert.basis],
    }
    _emit(report, f"simple: {simple}", args)
    return 0 if simple else 1


def cmd_bvwg_invariants(args) -> int:
    if args.dmax is not None and args.dmax < 2:
        raise ValueError(f"--dmax must be at least 2, got {args.dmax}")
    prob = _load(args.file)
    inv = bvwg_mod.invariants(prob.bvwg)
    report = {
        "gk_total": inv.gk_total,
        "rank_lattice": inv.rank_lattice,
        "gk_centralizer": inv.gk_centralizer,
        "gk_center": inv.gk_center,
        "growth_method": "monomial count (log-log slope, half range)",
    }
    if args.dmax is not None:
        report["dmax"] = args.dmax
        report["growth_total"] = str(bvwg_mod.growth_exponent(prob.bvwg, args.dmax))
        report["growth_group"] = str(
            bvwg_mod.growth_exponent(prob.bvwg, args.dmax, "group")
        )
    _emit(report, f"gk dimensions {inv}", args)
    return 0


def cmd_bvwg_embed(args) -> int:
    prob = _load(args.file)
    emb = bvwg_mod.embed_in_weyl(prob.bvwg)
    report = {
        "weyl_pairs": emb.sym_rank,
        "lattice_pairs": emb.lattice_rank,
        "chi": {
            name: emb.target.format(el) for name, el in sorted(emb.hom.chi.items())
        },
        "psi": {
            name: emb.target.format(el) for name, el in sorted(emb.hom.psi.items())
        },
    }
    _emit(report, f"embedded with {emb.sym_rank} Weyl pair(s)", args)
    return 0


def cmd_bvwg_realize(args) -> int:
    prob = _load(args.file)
    real = bvwg_mod.realize_from_lie(prob.bvwg)
    g = real.lie
    report = {
        "lie_basis": g.names(),
        "lie_brackets": [
            {
                "i": i,
                "j": j,
                "coeffs": {str(k): str(c) for k, c in sorted(vec.items())},
            }
            for (i, j), vec in sorted(g.structure.items())
        ],
        "ideal": [
            {"var": v.name, "value": str(img)} for v, img in real.ideal.rules
        ],
        "inverted": list(real.eigen_generators),
        "chi": {
            name: real.localized.format(el)
            for name, el in sorted(real.hom.chi.items())
        },
    }
    _emit(report, f"realized on a Lie algebra of dim {g.dim}", args)
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "bracket": cmd_bracket,
    "semi-invariants": cmd_semi_invariants,
    "center": cmd_center,
    "ghat": cmd_ghat,
    "decompose": cmd_decompose,
    "check84": cmd_check84,
    "bvwg-simple": cmd_bvwg_simple,
    "bvwg-invariants": cmd_bvwg_invariants,
    "bvwg-embed": cmd_bvwg_embed,
    "bvwg-realize": cmd_bvwg_realize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liepoisson",
        description="Exact Poisson-algebra computations for solvable Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file", help="problem JSON file")
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--json", action="store_true", help="suppress the stderr summary")
        p.add_argument("--trace", default=None, help="write the decomposition trace here")
        if name == "bracket":
            p.add_argument("-p", required=True)
            p.add_argument("-q", required=True)
        if name == "bvwg-invariants":
            p.add_argument("--dmax", type=int, default=None)
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SearchExhausted as exc:
        sys.stdout.write(
            json.dumps({"error": "search-exhausted", "detail": str(exc)}) + "\n"
        )
        return 3
    except (LiePoissonError, ValueError, KeyError, OSError) as exc:
        report = {"error": type(exc).__name__, "detail": str(exc)}
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return 1 if isinstance(exc, MATH_NEGATIVE) else 2


def main() -> None:  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
