"""Exception hierarchy shared by all modules.

Every error carries the witness data that triggered it, so callers (and the
CLI) can report exactly what failed instead of a bare message.
"""

from __future__ import annotations


class LiePoissonError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# polynomial layer


class UnknownVariable(LiePoissonError):
    def __init__(self, name):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


class NegativePowerOfNonUnit(LiePoissonError):
    def __init__(self, what):
        super().__init__(f"negative power of non-unit: {what}")
        self.what = what


class PolyParseError(LiePoissonError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


class CyclicSubstitution(LiePoissonError):
    def __init__(self, name):
        super().__init__(f"bound variable {name!r} appears in a replacement image")
        self.name = name


class NonUnitImageForInvertible(LiePoissonError):
    def __init__(self, name, image):
        super().__init__(
            f"invertible variable {name!r} replaced by non-unit {image}"
        )
        self.name = name
        self.image = image


# ---------------------------------------------------------------------------
# Lie layer


class JacobiViolation(LiePoissonError):
    def __init__(self, i, j, k, residual):
        super().__init__(
            f"Jacobi identity fails on generator triple ({i},{j},{k}): residual {residual}"
        )
        self.triple = (i, j, k)
        self.residual = residual


class EigenvalueNotRational(LiePoissonError):
    def __init__(self, detail=""):
        super().__init__(f"required eigenvalue is not rational {detail}".rstrip())
        self.detail = detail


class NilradicalUndecided(LiePoissonError):
    def __init__(self, detail):
        super().__init__(f"nilradical heuristic failed validation: {detail}")
        self.detail = detail


# ---------------------------------------------------------------------------
# Poisson layer


class NotStable(LiePoissonError):
    def __init__(self, rule_var, generator, residual):
        super().__init__(
            f"ideal not bracket-stable: {{{rule_var}-image, {generator}}} = {residual} != 0"
        )
        self.rule_var = rule_var
        self.generator = generator
        self.residual = residual


class ZeroDenominator(LiePoissonError):
    def __init__(self, denom, reason="localization denominator vanishes mod ideal"):
        super().__init__(f"{reason}: {denom}")
        self.denom = denom


class NameClash(LiePoissonError):
    def __init__(self, names):
        super().__init__(f"variable names occur on both tensor factors: {sorted(names)}")
        self.names = names


class NotPDerivation(LiePoissonError):
    def __init__(self, pair, residual):
        super().__init__(
            f"bracket Leibniz rule fails on generator pair {pair}: residual {residual}"
        )
        self.pair = pair
        self.residual = residual


# ---------------------------------------------------------------------------
# Weyl layer


class NotClosed(LiePoissonError):
    def __init__(self, which, i, j):
        super().__init__(f"integrability condition {which} fails at index pair ({i},{j})")
        self.which = which
        self.pair = (i, j)


class AlphaNotAVariable(LiePoissonError):
    def __init__(self, what):
        super().__init__(f"slice element must be a single variable, got {what}")
        self.what = what


class LocalNilpotencyCapExceeded(LiePoissonError):
    def __init__(self, cap, what):
        super().__init__(f"derivation not nilpotent on {what} within {cap} iterations")
        self.cap = cap
        self.what = what


class NotCommuting(LiePoissonError):
    def __init__(self, a, b, residual):
        super().__init__(f"subalgebras do not commute: {{{a}, {b}}} = {residual}")
        self.witness = (a, b, residual)


class NotGenerating(LiePoissonError):
    def __init__(self, missing):
        super().__init__(f"given subalgebras do not span degree slice; missing {missing}")
        self.missing = missing


# ---------------------------------------------------------------------------
# simple-family layer


class ConditionFailed(LiePoissonError):
    def __init__(self, which, witness):
        super().__init__(f"universal-map condition ({which}) fails: {witness}")
        self.which = which
        self.witness = witness


class NotSimple(LiePoissonError):
    def __init__(self, certificate):
        super().__init__(f"algebra is not simple; fixed kernel vector(s): {certificate}")
        self.certificate = certificate


# ---------------------------------------------------------------------------
# decomposition layer


class HypothesisFailed(LiePoissonError):
    def __init__(self, weight, element):
        super().__init__(
            f"nonzero-weight semi-invariant found: weight {weight}, element {element}"
        )
        self.weight = weight
        self.element = element


class SearchExhausted(LiePoissonError):
    def __init__(self, bound, detail=""):
        super().__init__(f"search exhausted at degree bound {bound} {detail}".rstrip())
        self.bound = bound
        self.detail = detail


class NotNilpotent(LiePoissonError):
    def __init__(self):
        super().__init__("Lie algebra is not nilpotent")


class NotSolvable(LiePoissonError):
    """No flag of ideals exists: the derived series does not reach 0."""

    def __init__(self):
        super().__init__("Lie algebra is not solvable")


class ComplementEliminated(LiePoissonError):
    def __init__(self, name):
        super().__init__(f"substitution ideal eliminates complement variable {name!r}")
        self.name = name


class UnsupportedChain(LiePoissonError):
    """Substitution ideal cannot be threaded through the computed ideal chain."""

    def __init__(self, detail):
        super().__init__(f"ideal chain unsupported: {detail}")
        self.detail = detail
