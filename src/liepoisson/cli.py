"""Command-line front end.

One problem per JSON file; reports are JSON on stdout (deterministic: keys
and lists are explicitly ordered, rationals are "p/q" strings), a short
human summary goes to stderr unless --json is given.  Every subcommand takes
a problem file and --json; its other flags are its own (the ``COMMANDS``
table): -p/-q on bracket, --max-degree on semi-invariants, center, ghat,
decompose and check84, --trace on decompose, --dmax on bvwg-invariants.
Exit codes:

  0  success
  1  mathematical negative (not simple, hypothesis failed, invalid table,
     irrational eigenvalue, not solvable, not nilpotent)
  2  input error (bad JSON, parse errors, unknown variables, unstable ideal,
     a polynomial expanding past the parser's term bound, a degree slice
     C(d + dim g, dim g) past SLICE_BUDGET, a --dmax past DMAX_CAP, a JSON
     float, a zero denominator or a number past the parser's bit bound
     where a rational is due) or usage error (unknown subcommand or
     flag, missing or malformed flag value); stdout is then one JSON
     {"error", "detail"} line
  3  degree-bounded search exhausted
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from . import bvwg as bvwg_mod
from .decompose import check_84 as run_check_84
from .decompose import decompose
from .errors import (
    EigenvalueNotRational,
    HypothesisFailed,
    JacobiViolation,
    LiePoissonError,
    NotNilpotent,
    NotSimple,
    NotSolvable,
    SearchExhausted,
)
from .invariants import DEFAULT_DEGREE_BOUND, center_up_to_degree, ghat, semi_invariants
from .lie import LieAlgebra, is_nilpotent, is_solvable, verify_lie
from .poisson import SubstitutionIdeal, ideal_from_pairs, reduced_algebra
from .polys import _MAX_BITS

MATH_NEGATIVE = (
    JacobiViolation,
    EigenvalueNotRational,
    HypothesisFailed,
    NotSimple,
    NotNilpotent,
    NotSolvable,
)


# Largest slice C(d + dim g, dim g) a degree bound d may ask for: family_n(3)
# at d = 8 (6,435 monomials) fits; the Heisenberg center at d = 36 (9,139)
# takes about 0.06 s, and the whole `center` command 0.2 s, on a 2-core x86
# machine.  growth_exponent at DMAX_CAP takes about 20 ms.
SLICE_BUDGET = 10_000
DMAX_CAP = 10_000

_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}

# The keys a problem file's "options" may hold.  No subcommand reads
# nilpotency_cap; it is accepted because existing problem files carry it.
OPTIONS = ("max_degree", "nilpotency_cap")

# A rational string: an optionally signed integer, optionally over an
# unsigned one; groups are the signed numerator and the digits of each part.
_RATIONAL = re.compile(r"\s*([+-]?(\d+))\s*(?:/\s*(\d+)\s*)?")


def _shaped(value, kind: type, what: str):
    """``value`` when it has the JSON type ``kind`` (dict, list, str or int;
    a boolean is not an integer), else a ValueError naming the field."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _names(value, what: str) -> list[str]:
    """A JSON array of name strings."""
    return [_shaped(name, str, f"{what} entry") for name in _shaped(value, list, what)]


def _rational(value, what: str) -> Fraction:
    """A JSON integer or "p/q" string; a JSON float would be rounded.  A zero
    denominator is refused, and so is a numerator or denominator of more
    than ``_MAX_BITS`` bits, the expression parser's bound; a k-digit number
    is at least 10^(k-1) > 2^(3(k-1)), so a string too long for the bound is
    refused before its integer is built."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be a JSON integer or a rational string")
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"{what} {value!r} is not an integer or a \"p/q\" string")
        digits = [m.lstrip("0") for m in match.group(2, 3) if m]
        if any(3 * (len(m) - 1) > _MAX_BITS for m in digits):
            raise ValueError(f"{what} is larger than {_MAX_BITS} bits")
        num, den = int(match.group(1)), int(match.group(3) or 1)
    else:
        num, den = value, 1
    if max(abs(num), den).bit_length() > _MAX_BITS:
        raise ValueError(f"{what} is larger than {_MAX_BITS} bits")
    if den == 0:
        raise ValueError(f"{what} {value!r} has a zero denominator")
    return Fraction(num, den)


def _rows(value, what: str) -> list[list[Fraction]]:
    """A JSON array of arrays of rationals (a rational matrix)."""
    rows = [_shaped(row, list, f"{what} row") for row in _shaped(value, list, what)]
    return [[_rational(c, f"{what} entry") for c in row] for row in rows]


class ProblemFile:
    """Parsed problem: exactly one of a Lie algebra or a lattice spec."""

    def __init__(self, data: dict):
        _shaped(data, dict, "problem file")
        self.name = data.get("name", "problem")
        opts = _shaped(data.get("options", {}), dict, "options")
        unknown = sorted(set(opts) - set(OPTIONS))
        if unknown:
            raise ValueError(
                f"unknown option {unknown[0]!r} in options (known: {', '.join(OPTIONS)})"
            )
        self.max_degree = _shaped(
            opts.get("max_degree", DEFAULT_DEGREE_BOUND), int, "options.max_degree"
        )
        self.lie: LieAlgebra | None = None
        self.ideal: SubstitutionIdeal | None = None
        self.bvwg: bvwg_mod.BVWG | None = None
        if ("lie" in data) == ("bvwg" in data):
            raise ValueError("problem file needs exactly one of 'lie' or 'bvwg'")
        if "lie" in data:
            lie = _shaped(data["lie"], dict, "lie")
            basis = _names(lie["basis"], "lie.basis")
            if _shaped(lie.get("dim", len(basis)), int, "lie.dim") != len(basis):
                raise ValueError("dim does not match basis length")
            structure = {}
            for entry in _shaped(lie.get("brackets", []), list, "lie.brackets"):
                entry = _shaped(entry, dict, "lie.brackets entry")
                i = _shaped(entry["i"], int, "lie.brackets i")
                j = _shaped(entry["j"], int, "lie.brackets j")
                coeffs = {
                    int(k): _rational(v, "coeffs value")
                    for k, v in _shaped(entry["coeffs"], dict, "coeffs").items()
                }
                structure[(i, j)] = coeffs
            self.lie = verify_lie(" ".join(basis), structure)
            rules = _shaped(data.get("ideal") or [], list, "ideal")
            if rules:
                pairs = []
                for r in rules:
                    r = _shaped(r, dict, "ideal entry")
                    var = _shaped(r["var"], str, "ideal var")
                    pairs.append((var, _shaped(r["value"], str, "ideal value")))
                self.ideal = ideal_from_pairs(self.lie.basis, pairs)
        else:
            b = _shaped(data["bvwg"], dict, "bvwg")
            self.bvwg = bvwg_mod.make_spec(
                _names(b["v_names"], "bvwg.v_names"),
                _rows(b["omega"], "bvwg.omega"),
                _names(b["g_names"], "bvwg.g_names"),
                _rows(b["weights"], "bvwg.weights"),
            )
            bvwg_mod.validate(self.bvwg)


def _load(path: str) -> ProblemFile:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("problem file nested too deeply") from None
    return ProblemFile(data)


# ---------------------------------------------------------------------------
# subcommands: handler(args, prob) -> (report, summary[, exit code if not 0])


def cmd_verify(args, prob):
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
        simple, _ = bvwg_mod.is_simple(prob.bvwg)
        report = {
            "valid": True,
            "dim_v": prob.bvwg.n,
            "rank_lattice": prob.bvwg.p,
            "simple": simple,
        }
        summary = f"{prob.name}: valid lattice spec, simple={simple}"
    return report, summary


def cmd_bracket(args, prob):
    alg = reduced_algebra(prob.lie, prob.ideal)
    p = alg.element(args.p)
    q = alg.element(args.q)
    res = alg.bracket(p, q)
    report = {"bracket": alg.format(res)}
    return report, f"{{{args.p}, {args.q}}} = {alg.format(res)}"


def cmd_semi_invariants(args, prob):
    d = args.max_degree
    rep = semi_invariants(prob.lie, prob.ideal, d)
    entries = [
        {
            "weight": [str(v) for v in w.values],
            "basis": [str(b) for b in basis],
        }
        for w, basis in rep.entries
    ]
    report = {"bound": d, "entries": entries}
    return report, f"{len(entries)} weight space(s) up to degree {d}"


def cmd_center(args, prob):
    d = args.max_degree
    alg = reduced_algebra(prob.lie, prob.ideal)
    basis = center_up_to_degree(alg, d)
    report = {"bound": d, "basis": [str(b.num) for b in basis]}
    return report, f"center dimension {len(basis)} up to degree {d}"


def cmd_ghat(args, prob):
    d = args.max_degree
    data = ghat(prob.lie, prob.ideal, d)
    report = {
        "bound": d,
        "kernel_basis": [[str(c) for c in row] for row in data.subalgebra.basis],
        "complement": [prob.lie.basis[i].name for i in data.complement],
        "restricted_ideal": [
            {"var": v.name, "value": str(img)} for v, img in data.restricted_ideal.rules
        ],
    }
    return report, f"kernel dim {data.subalgebra.dim}, complement {report['complement']}"


def cmd_decompose(args, prob):
    d = args.max_degree
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
    return report, f"e = {report['e']}, {res.n} canonical pair(s)"


def cmd_check84(args, prob):
    d = args.max_degree
    report = run_check_84(prob.lie, prob.ideal, d)
    return report, (
        f"center trivial: {report['center_trivial']}, agree: {report['agree']}"
    )


def cmd_bvwg_simple(args, prob):
    simple, cert = bvwg_mod.is_simple(prob.bvwg)
    report = {
        "simple": simple,
        "certificate": [[str(c) for c in v] for v in cert.basis],
    }
    return report, f"simple: {simple}", 0 if simple else 1


def cmd_bvwg_invariants(args, prob):
    if args.dmax is not None and not 2 <= args.dmax <= DMAX_CAP:
        raise ValueError(f"--dmax must lie in 2..{DMAX_CAP}, got {args.dmax}")
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
    return report, f"gk dimensions {inv}"


def cmd_bvwg_embed(args, prob):
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
    return report, f"embedded with {emb.sym_rank} Weyl pair(s)"


def cmd_bvwg_realize(args, prob):
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
    return report, f"realized on a Lie algebra of dim {g.dim}"


class Command(NamedTuple):
    handler: Callable
    kind: str | None  # the problem file it needs: "lie", "bvwg", or None for either
    flags: tuple[str, ...] = ()  # its own flags, keys of FLAGS; --json is on all


FLAGS = {
    "-p": {"required": True, "help": "left argument of the bracket"},
    "-q": {"required": True, "help": "right argument of the bracket"},
    "--max-degree": {"type": int, "help": "degree bound (default options.max_degree)"},
    "--trace": {"help": "write the decomposition trace here"},
    "--dmax": {"type": int, "help": "also estimate growth up to this degree (>= 2)"},
}

COMMANDS = {
    "verify": Command(cmd_verify, None),
    "bracket": Command(cmd_bracket, "lie", ("-p", "-q")),
    "semi-invariants": Command(cmd_semi_invariants, "lie", ("--max-degree",)),
    "center": Command(cmd_center, "lie", ("--max-degree",)),
    "ghat": Command(cmd_ghat, "lie", ("--max-degree",)),
    "decompose": Command(cmd_decompose, "lie", ("--max-degree", "--trace")),
    "check84": Command(cmd_check84, "lie", ("--max-degree",)),
    "bvwg-simple": Command(cmd_bvwg_simple, "bvwg"),
    "bvwg-invariants": Command(cmd_bvwg_invariants, "bvwg", ("--dmax",)),
    "bvwg-embed": Command(cmd_bvwg_embed, "bvwg"),
    "bvwg-realize": Command(cmd_bvwg_realize, "bvwg"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError (a JSON error with exit 2 through
    ``run``) instead of printing usage and exiting; -h still prints help."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liepoisson",
        description="Exact Poisson-algebra computations for solvable Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="problem JSON file")
        p.add_argument("--json", action="store_true", help="suppress the stderr summary")
        for flag in command.flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() on first use, then the same parser for every run."""
    return build_parser()


def _dispatch(args) -> tuple:
    """Load and check the problem file and run the subcommand on it."""
    command = COMMANDS[args.command]
    try:
        prob = _load(args.file)
    except JacobiViolation as exc:
        if args.command != "verify":
            raise
        report = {
            "valid": False,
            "jacobi_violation": {
                "triple": list(exc.triple),
                "residual": [str(c) for c in exc.residual],
            },
        }
        return report, "invalid: Jacobi identity fails", 1
    if command.kind is not None and getattr(prob, command.kind) is None:
        kind = "Lie" if command.kind == "lie" else command.kind
        raise ValueError(f"{args.command} needs a {kind} problem file")
    if "--max-degree" in command.flags:  # the flag, else options.max_degree
        d = prob.max_degree if args.max_degree is None else args.max_degree
        if d < 1:
            raise ValueError(f"degree bound must be at least 1, got {d}")
        n = prob.lie.dim
        if comb(d + n, n) > SLICE_BUDGET:
            raise ValueError(
                f"degree bound {d} needs a slice of C({d} + {n}, {n}) monomials, "
                f"more than the budget of {SLICE_BUDGET}"
            )
        args.max_degree = d
    return command.handler(args, prob)


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
        report, summary, *code = _dispatch(args)
    except SearchExhausted as exc:
        sys.stdout.write(
            json.dumps({"error": "search-exhausted", "detail": str(exc)}) + "\n"
        )
        return 3
    except (LiePoissonError, ValueError, KeyError, OSError) as exc:
        report = {"error": type(exc).__name__, "detail": str(exc)}
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return 1 if isinstance(exc, MATH_NEGATIVE) else 2
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    if not args.json:
        sys.stderr.write(summary + "\n")
    return code[0] if code else 0


def main() -> None:  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
