"""Polyhedral cones arising from homogenised linear constraints.

Homogenising a conjunction of linear constraints (Section 7) yields a set of
the form ``{z in R^n : A z < 0 (strict rows), B z <= 0, C z = 0}``.  Equality
rows with a non-zero normal make the cone measure-zero, which the proof of
Theorem 7.1 silently drops; :meth:`PolyhedralCone.is_degenerate` makes that
explicit.  The cone's intersection with the unit ball is the convex body
whose volume the FPRAS estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.geometry.bodies import EPSILON, Ball, HalfSpace, Intersection


@lru_cache(maxsize=None)
def _scipy_linprog():
    """scipy's ``linprog``, or ``None`` on installs without scipy.

    scipy is an optional accelerator for interior-point detection.  It is
    imported on first use, not at module load: the import costs most of a
    cold ``import repro.cli``, and only the FPRAS/volume paths reach it.
    """
    try:
        from scipy.optimize import linprog
    except Exception:  # pragma: no cover - exercised only on scipy-free installs
        return None
    return linprog


@dataclass(frozen=True)
class PolyhedralCone:
    """A cone ``{z : strict rows < 0, weak rows <= 0, equality rows = 0}``.

    ``strict``, ``weak`` and ``equality`` are matrices whose rows are the
    constraint normals; any of them may be empty.  All three share the same
    number of columns (the ambient dimension).
    """

    dimension: int
    strict: np.ndarray = field(default=None)  # type: ignore[assignment]
    weak: np.ndarray = field(default=None)  # type: ignore[assignment]
    equality: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        for name in ("strict", "weak", "equality"):
            matrix = getattr(self, name)
            if matrix is None:
                matrix = np.zeros((0, self.dimension))
            matrix = np.asarray(matrix, dtype=float)
            if matrix.size == 0:
                matrix = matrix.reshape(0, self.dimension)
            if matrix.ndim != 2 or matrix.shape[1] != self.dimension:
                raise ValueError(
                    f"{name} rows must have {self.dimension} columns, got shape {matrix.shape}"
                )
            # Normalise non-zero rows: scaling a constraint does not change
            # the cone but keeps the interior-point search and the membership
            # tolerances well conditioned even for badly scaled inputs.
            if matrix.shape[0]:
                norms = np.linalg.norm(matrix, axis=1, keepdims=True)
                nonzero = norms[:, 0] > 0.0
                matrix = matrix.copy()
                matrix[nonzero] = matrix[nonzero] / norms[nonzero]
            object.__setattr__(self, name, matrix)

    @classmethod
    def from_rows(cls, dimension: int,
                  strict: Sequence[Sequence[float]] = (),
                  weak: Sequence[Sequence[float]] = (),
                  equality: Sequence[Sequence[float]] = ()) -> "PolyhedralCone":
        """Build a cone from row sequences (each row one constraint normal)."""
        def to_matrix(rows: Sequence[Sequence[float]]) -> np.ndarray:
            if len(rows) == 0:
                return np.zeros((0, dimension))
            return np.asarray(rows, dtype=float).reshape(len(rows), dimension)

        return cls(dimension=dimension, strict=to_matrix(strict),
                   weak=to_matrix(weak), equality=to_matrix(equality))

    @property
    def num_constraints(self) -> int:
        return int(self.strict.shape[0] + self.weak.shape[0] + self.equality.shape[0])

    def contains(self, point: np.ndarray, strict_tolerance: float = EPSILON) -> bool:
        """Membership oracle (strict rows tested up to a small tolerance)."""
        point = np.asarray(point, dtype=float)
        if self.strict.shape[0] and not np.all(self.strict @ point < strict_tolerance):
            return False
        if self.weak.shape[0] and not np.all(self.weak @ point <= strict_tolerance):
            return False
        if self.equality.shape[0] and not np.all(np.abs(self.equality @ point) <= strict_tolerance):
            return False
        return True

    def contains_batch(self, points: np.ndarray,
                       strict_tolerance: float = EPSILON) -> np.ndarray:
        """Vectorised membership oracle over an ``(m, dimension)`` block.

        Returns an ``(m,)`` boolean array; row ``i`` matches
        ``self.contains(points[i], strict_tolerance)``.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"points must have shape (m, {self.dimension}), got {points.shape}")
        member = np.ones(points.shape[0], dtype=bool)
        if self.strict.shape[0]:
            member &= (points @ self.strict.T < strict_tolerance).all(axis=1)
        if self.weak.shape[0]:
            member &= (points @ self.weak.T <= strict_tolerance).all(axis=1)
        if self.equality.shape[0]:
            member &= (np.abs(points @ self.equality.T) <= strict_tolerance).all(axis=1)
        return member

    def is_degenerate(self) -> bool:
        """Whether the cone has measure zero in ``R^dimension``.

        A cone is degenerate iff it has a non-trivial equality constraint or
        no interior point for its inequality system.  Degenerate disjuncts
        contribute nothing to the measure and are dropped by the FPRAS, just
        as in the proof of Theorem 7.1.
        """
        if self.equality.shape[0] and np.any(np.abs(self.equality).sum(axis=1) > EPSILON):
            return True
        return self.interior_point() is None

    def interior_point(self) -> Optional[np.ndarray]:
        """A point strictly inside every inequality, with norm at most 1/2.

        Solves ``max s`` subject to ``A z <= -s`` (all inequality rows) and
        ``-1 <= z_i <= 1``; a strictly positive optimum certifies a full
        dimensional cone and yields an interior point after rescaling.  Falls
        back to a randomised search when scipy is unavailable.
        """
        inequalities = np.vstack([self.strict, self.weak])
        if inequalities.shape[0] == 0:
            return np.zeros(self.dimension)
        if _scipy_linprog() is not None:
            return self._interior_point_lp(inequalities)
        return self._interior_point_random(inequalities)

    def _interior_point_lp(self, inequalities: np.ndarray) -> Optional[np.ndarray]:
        rows, dimension = inequalities.shape
        # Variables: (z_1..z_n, s).  Maximise s, i.e. minimise -s.
        cost = np.zeros(dimension + 1)
        cost[-1] = -1.0
        a_ub = np.hstack([inequalities, np.ones((rows, 1))])
        b_ub = np.zeros(rows)
        bounds = [(-1.0, 1.0)] * dimension + [(0.0, 1.0)]
        result = _scipy_linprog()(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                                  method="highs")
        if not result.success:
            return None
        slack = float(result.x[-1])
        if slack <= 1e-9:
            return None
        point = np.asarray(result.x[:-1], dtype=float)
        norm = float(np.linalg.norm(point))
        if norm <= EPSILON:
            return None
        return point / (2.0 * norm)

    def _interior_point_random(self, inequalities: np.ndarray,
                               attempts: int = 20000) -> Optional[np.ndarray]:
        generator = np.random.default_rng(0)
        best_point = None
        best_slack = 0.0
        for _ in range(attempts):
            candidate = generator.standard_normal(self.dimension)
            candidate /= np.linalg.norm(candidate)
            slack = float(-(inequalities @ candidate).max())
            if slack > best_slack:
                best_slack = slack
                best_point = candidate
        if best_point is None or best_slack <= 1e-9:
            return None
        return best_point / 2.0

    def body(self, radius: float = 1.0) -> Intersection:
        """The convex body ``cone ∩ B^n_radius`` (strict rows closed up)."""
        parts: list = []
        for row in np.vstack([self.strict, self.weak]):
            parts.append(HalfSpace(normal=row, offset=0.0))
        for row in self.equality:
            parts.append(HalfSpace(normal=row, offset=0.0))
            parts.append(HalfSpace(normal=-row, offset=0.0))
        parts.append(Ball(np.zeros(self.dimension), radius))
        return Intersection.of(parts)

    def intersect(self, other: "PolyhedralCone") -> "PolyhedralCone":
        """Conjunction of two cones over the same ambient space."""
        if other.dimension != self.dimension:
            raise ValueError("cannot intersect cones of different dimensions")
        return PolyhedralCone(
            dimension=self.dimension,
            strict=np.vstack([self.strict, other.strict]),
            weak=np.vstack([self.weak, other.weak]),
            equality=np.vstack([self.equality, other.equality]),
        )


def membership_matrix(cones: Sequence[PolyhedralCone], points: np.ndarray,
                      strict_tolerance: float = EPSILON) -> np.ndarray:
    """Membership of every point in every cone as an ``(m, len(cones))`` matrix.

    All cones' constraint rows are stacked into one matrix so the ``m x k``
    signed slacks come out of a single ``points @ rows.T`` product; the
    per-cone reductions then run on slices of that product.  This is the
    batched counterpart of calling :meth:`PolyhedralCone.contains` in a
    double loop, and the primitive behind the batched Karp--Luby and direct
    union estimators.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    count = points.shape[0]
    if not cones:
        return np.zeros((count, 0), dtype=bool)
    dimensions = {cone.dimension for cone in cones}
    if dimensions != {points.shape[1]}:
        raise ValueError(
            f"points have dimension {points.shape[1]} but cones have {sorted(dimensions)}")
    stacked = np.vstack([np.vstack([cone.strict, cone.weak, cone.equality])
                         for cone in cones])
    slacks = points @ stacked.T if stacked.shape[0] else np.zeros((count, 0))
    member = np.ones((count, len(cones)), dtype=bool)
    offset = 0
    for index, cone in enumerate(cones):
        strict_rows = cone.strict.shape[0]
        weak_rows = cone.weak.shape[0]
        equality_rows = cone.equality.shape[0]
        if strict_rows:
            member[:, index] &= (slacks[:, offset:offset + strict_rows]
                                 < strict_tolerance).all(axis=1)
        offset += strict_rows
        if weak_rows:
            member[:, index] &= (slacks[:, offset:offset + weak_rows]
                                 <= strict_tolerance).all(axis=1)
        offset += weak_rows
        if equality_rows:
            member[:, index] &= (np.abs(slacks[:, offset:offset + equality_rows])
                                 <= strict_tolerance).all(axis=1)
        offset += equality_rows
    return member
