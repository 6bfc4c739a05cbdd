"""Null-renaming-invariant canonical forms of lineage formulae.

The measure of certainty ``nu(phi)`` only depends on the *shape* of the
constraint formula: it is the asymptotic fraction of the unit ball satisfying
``phi``, and the uniform measure on the ball is invariant under permuting or
renaming coordinates.  Two candidate answers whose lineages are identical up
to renaming the numerical nulls therefore have exactly the same certainty --
a situation that arises constantly in practice, because every tuple of a
generated table carries its own nulls but the query applies the same
arithmetic pattern to each of them.

This module computes a canonical representative: the relevant variables are
renamed positionally (``v0, v1, ...`` in the order of the candidate's
``relevant_variables`` tuple, which follows the database's ambient null
order) and the formula is rebuilt over the new names (on demand: the digest
is serialised straight from the source formula).  Lineages that agree
after this renaming share one cache entry, one compiled kernel, and one
Monte-Carlo estimate.  The renaming is order-preserving, so the form is
*sound* for any pair it identifies; pairs that only match under a
non-monotone permutation of the variables are treated as distinct (a cache
miss, never a wrong answer).

The canonical form also carries a SHA-256 digest of a deterministic
serialisation.  The digest is stable across processes (Python's salted
``hash()`` is never used); it is the grouping and certainty-cache key and
doubles as the spawn key of the per-task RNG streams -- see
:mod:`repro.service.rng`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.constraints.atoms import Constraint
from repro.constraints.formula import (
    And,
    Atom,
    ConstraintFormula,
    FalseFormula,
    Not,
    Or,
    TrueFormula,
)
from repro.constraints.polynomials import Polynomial
from repro.constraints.translate import TranslationResult
from repro.relational.values import NumNull


class CanonicalisationError(ValueError):
    """Raised when a formula mentions variables outside the relevant tuple."""


@dataclass(frozen=True)
class CanonicalLineage:
    """A lineage formula over positional variable names.

    ``digest`` identifies the canonical lineage everywhere: the scheduler
    groups by it, the service's certainty cache is keyed on it, and it keys
    the RNG spawn, so the Monte-Carlo estimate of a canonical lineage is a
    pure function of ``(digest, seed, epsilon, delta, method)`` regardless
    of which request, group index, or worker thread computes it.  Two
    canonical lineages have equal digests exactly when their trees are
    equal: coefficients are floats with zero terms dropped, monomials are
    serialised in sorted order, children in their order, and the variables
    are ``v0 .. v{d-1}`` for the serialised dimension ``d``.  Equality and
    hashing therefore compare the digest alone.

    Only the source formula and its relevant variables are kept; the
    renamed tree is rebuilt on each access of :attr:`formula`, which only
    cache-missing estimates need.  The service keeps one canonical lineage
    per group in every plan-cache entry, whose candidates already hold the
    source formula, so an entry holds no second copy of any tree.
    """

    digest: bytes
    source: ConstraintFormula = field(compare=False)
    source_variables: tuple[str, ...] = field(compare=False)

    @property
    def variables(self) -> tuple[str, ...]:
        mapping = _positional(self.source_variables)
        return tuple(mapping[name] for name in self.source_variables)

    @property
    def formula(self) -> ConstraintFormula:
        return _rename_formula(self.source, _positional(self.source_variables))

    @property
    def short(self) -> str:
        """Eight-hex-character digest prefix for logs and wire payloads."""
        return self.digest.hex()[:8]

    @property
    def dimension(self) -> int:
        return len(self.source_variables)

    def translation(self) -> TranslationResult:
        """A self-contained translation over the canonical variables.

        The estimators only consume the formula and the variable tuple; the
        ambient dimension of the *database* is patched back onto the result
        by the service, since it is the same for every group.
        """
        variables = self.variables
        return TranslationResult(
            formula=self.formula,
            all_variables=variables,
            relevant_variables=variables,
            null_by_variable={name: NumNull(name) for name in variables},
            digest=self.digest,
        )


def _positional(relevant_variables: tuple[str, ...]) -> dict[str, str]:
    """The canonical renaming: position ``i`` becomes ``v{i}``."""
    return {name: f"v{index}" for index, name in enumerate(relevant_variables)}


def _rename_monomial(monomial, mapping: Mapping[str, str]) -> tuple:
    try:
        return tuple(sorted((mapping[name], exponent) for name, exponent in monomial))
    except KeyError as error:
        raise CanonicalisationError(
            f"formula variable {error.args[0]!r} is not in the relevant tuple")


def _rename_polynomial(polynomial: Polynomial, mapping: Mapping[str, str]) -> Polynomial:
    renamed: dict = {}
    for monomial, coefficient in polynomial.coefficients.items():
        new_monomial = _rename_monomial(monomial, mapping)
        renamed[new_monomial] = renamed.get(new_monomial, 0.0) + coefficient
    return Polynomial(renamed)


def _rename_formula(formula: ConstraintFormula,
                    mapping: Mapping[str, str]) -> ConstraintFormula:
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Atom):
        constraint = formula.constraint
        return Atom(Constraint(polynomial=_rename_polynomial(constraint.polynomial, mapping),
                               op=constraint.op))
    if isinstance(formula, Not):
        return Not(_rename_formula(formula.child, mapping))
    if isinstance(formula, And):
        return And(tuple(_rename_formula(child, mapping) for child in formula.children))
    if isinstance(formula, Or):
        return Or(tuple(_rename_formula(child, mapping) for child in formula.children))
    raise CanonicalisationError(f"unexpected formula node: {type(formula).__name__}")


def _serialise(formula: ConstraintFormula, mapping: Mapping[str, str],
               parts: list[str]) -> None:
    """Append a deterministic textual form of ``formula`` renamed under
    ``mapping`` to ``parts``, without building the renamed tree.

    Floats are serialised with ``repr`` (shortest round-trip form), monomials
    in sorted order of their renamed form; the result depends only on the
    renamed formula's value, never on interpreter identity or hash
    randomisation.  The renaming is injective and the source coefficients
    are non-zero floats, so the text is exactly that of the tree
    :func:`_rename_formula` builds.
    """
    if isinstance(formula, TrueFormula):
        parts.append("T")
    elif isinstance(formula, FalseFormula):
        parts.append("F")
    elif isinstance(formula, Atom):
        constraint = formula.constraint
        parts.append(f"A{constraint.op.value}(")
        for monomial, coefficient in sorted(
                (_rename_monomial(monomial, mapping), coefficient)
                for monomial, coefficient in constraint.polynomial.coefficients.items()):
            terms = ",".join(f"{name}^{exponent}" for name, exponent in monomial)
            parts.append(f"{terms}:{coefficient!r};")
        parts.append(")")
    elif isinstance(formula, Not):
        parts.append("!(")
        _serialise(formula.child, mapping, parts)
        parts.append(")")
    elif isinstance(formula, (And, Or)):
        parts.append("&(" if isinstance(formula, And) else "|(")
        for child in formula.children:
            _serialise(child, mapping, parts)
            parts.append(",")
        parts.append(")")
    else:
        raise CanonicalisationError(f"unexpected formula node: {type(formula).__name__}")


def canonicalise(formula: ConstraintFormula,
                 relevant_variables: tuple[str, ...]) -> CanonicalLineage:
    """Canonical form of ``(formula, relevant_variables)`` under null renaming.

    ``relevant_variables`` must cover every variable of the formula (it does
    for any :class:`TranslationResult`); position ``i`` is renamed to
    ``v{i}``.
    """
    relevant_variables = tuple(relevant_variables)
    parts: list[str] = [f"d{len(relevant_variables)}:"]
    _serialise(formula, _positional(relevant_variables), parts)
    digest = hashlib.sha256("".join(parts).encode("utf-8")).digest()
    return CanonicalLineage(digest=digest, source=formula,
                            source_variables=relevant_variables)


def canonicalise_lineage(lineage: TranslationResult) -> CanonicalLineage:
    """Canonicalise a translated candidate's lineage.

    A lineage that carries its digest (the engine's candidates do) is not
    serialised again: the digest is taken as the canonical digest of its
    ``(formula, relevant_variables)``.
    """
    if lineage.digest is not None:
        return CanonicalLineage(digest=lineage.digest, source=lineage.formula,
                                source_variables=tuple(lineage.relevant_variables))
    return canonicalise(lineage.formula, tuple(lineage.relevant_variables))
