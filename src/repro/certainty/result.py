"""Result objects returned by the certainty estimators."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional


def _clamped(value: float) -> float:
    """A certainty value as a float in ``[0, 1]``; rejects anything outside
    ``[0, 1 + 1e-9]`` (the slack absorbs float round-off above 1)."""
    if not 0.0 <= value <= 1.0 + 1e-9:
        raise ValueError(f"certainty value must be in [0, 1], got {value}")
    return min(1.0, max(0.0, float(value)))


@dataclass(frozen=True)
class CertaintyResult:
    """The estimated measure of certainty of one candidate answer.

    Attributes
    ----------
    value:
        The (estimated) value of ``mu(q, D, t)``, in ``[0, 1]``.
    method:
        How the value was obtained: ``"exact"``, ``"afpras"``, ``"fpras"``,
        ``"zero-one"`` or ``"simulation"``.
    epsilon, delta:
        The accuracy and failure-probability parameters used (``None`` for
        exact values).
    guarantee:
        ``"additive"``, ``"multiplicative"`` or ``"exact"``.
    samples:
        Number of Monte-Carlo samples drawn (0 for exact values).
    dimension:
        Number of numerical nulls in the database (the ambient dimension of
        the support sets).
    relevant_dimension:
        Number of numerical nulls that actually influence the candidate (the
        Section 9 optimisation samples only these coordinates).
    """

    value: float
    method: str
    guarantee: str = "exact"
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    samples: int = 0
    dimension: int = 0
    relevant_dimension: int = 0
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _clamped(self.value))

    @classmethod
    def from_fields(cls, fields: dict) -> "CertaintyResult":
        """``cls(**fields)`` at half the cost, for the wire decoder's
        per-answer loop: ``fields`` must name every field and nothing else,
        and becomes the result's attribute dict (so the caller hands it
        over).  ``value`` is checked and clamped as ``__init__`` does; what
        is saved is the frozen ``__init__``'s one ``object.__setattr__``
        per field."""
        if fields.keys() != _FIELD_NAMES:
            raise TypeError(f"CertaintyResult needs exactly the fields "
                            f"{sorted(_FIELD_NAMES)}, got {sorted(fields)}")
        fields["value"] = _clamped(fields["value"])
        result = object.__new__(cls)
        object.__setattr__(result, "__dict__", fields)
        return result

    def interval(self) -> tuple[float, float]:
        """Error interval implied by the guarantee (clipped to ``[0, 1]``)."""
        if self.epsilon is None or self.guarantee == "exact":
            return (self.value, self.value)
        if self.guarantee == "additive":
            return (max(0.0, self.value - self.epsilon), min(1.0, self.value + self.epsilon))
        # Multiplicative guarantee: value / (1 + eps) <= mu <= value / (1 - eps).
        lower = self.value / (1.0 + self.epsilon)
        upper = self.value / (1.0 - self.epsilon) if self.epsilon < 1.0 else 1.0
        return (max(0.0, lower), min(1.0, upper))

    def is_certain(self) -> bool:
        """Whether the answer is (up to the guarantee) almost surely certain."""
        return self.interval()[0] >= 1.0 - 1e-12

    def is_impossible(self) -> bool:
        """Whether the answer is (up to the guarantee) almost surely not an answer."""
        return self.interval()[1] <= 1e-12


_FIELD_NAMES = frozenset(spec.name
                         for spec in dataclasses.fields(CertaintyResult))
