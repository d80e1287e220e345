"""Frenet frames and generalized curvatures for unit-speed curves in E^n.

The frame V_1..V_{n-1} comes from a QR factorization of the derivative jet
(d1..d^{n-1}), which is Gram-Schmidt on it; V_n, (-1)^{n-1} times their
generalized cross product, completes the basis with positive orientation.
The first n-2 curvatures are ratios of consecutive Gram-Schmidt norms
|diag R|, positive by construction; the last curvature takes its sign from
the oriented V_n, so in E^3 it is the usual signed torsion.

A sample where some curvature magnitude drops below eps_curv gets a
degenerate rank: the frame vectors past that rank are not determined
by the curve; the QR factor already fills them with an orthonormal completion
(keeping the orthonormality and det=+1 invariants) and the remaining
curvatures are reported as zero.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import Curve
from .errors import CurveError, NotUnitSpeedError

__all__ = [
    "FrenetGrid", "frenet_at", "frenet_grid", "generalized_cross", "EPS_CURV",
    "MIN_GRID",
]

EPS_CURV = 1e-9
MIN_GRID = 16       # the fewest samples a frame grid takes


def generalized_cross(vectors):
    """Vector orthogonal to n-1 given vectors in E^n, batched.

    `vectors` has shape (m, n-1, n); any other raises CurveError.  Each
    output row w is a cofactor expansion, so det[v_1..v_{n-1}, w] =
    (-1)^{n-1} |w|^2; for orthonormal inputs it is a unit vector.  In E^3
    the three 2x2 cofactors are the ordinary cross product v_1 x v_2, taken
    as such; other dimensions take one batched determinant per cofactor.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 3 or vectors.shape[1] != vectors.shape[2] - 1:
        raise CurveError(f"need a stack of n-1 vectors in E^n, shape "
                         f"(m, n-1, n), not {vectors.shape}")
    m, _, n = vectors.shape
    if n == 3:
        return np.cross(vectors[:, 0], vectors[:, 1])
    out = np.empty((m, n))
    for k in range(n):
        cols = [c for c in range(n) if c != k]
        out[:, k] = (-1.0) ** k * np.linalg.det(vectors[:, :, cols])
    return out


@dataclass(frozen=True, eq=False)
class FrenetGrid:
    """Frames and curvatures at m arc-length samples, stored as arrays.

    svals (m,), frames (m, r, n) with frames[i, j] = V_{j+1} at svals[i]
    in E^n coordinates (r <= n, the frame of the curve's span; `dim` is r),
    curvatures (m, r-1), and degenerate_ranks (m,), 0 where the sample has
    no degeneracy.  `valid` marks those samples.  k1_prime (m,) is dk_1/ds
    for a curve with exact jets in E^n, n >= 3, 0 where the rank is 1 (V_2
    undetermined); None otherwise.
    """
    svals: np.ndarray
    frames: np.ndarray
    curvatures: np.ndarray
    degenerate_ranks: np.ndarray
    k1_prime: Optional[np.ndarray] = None

    @property
    def dim(self):
        return self.frames.shape[1]

    def __len__(self):
        return len(self.svals)

    @property
    def valid(self):
        return self.degenerate_ranks == 0


def _frames_from_jets(jets):
    """Batched frame and curvature extraction.

    jets: (m, n, n) with jets[i, k-1] the k-th derivative at sample i.
    V_1..V_{n-1} are the columns of one batched QR of (d1..d^{n-1}), signed
    so that diag(R) >= 0: Gram-Schmidt on the jet, whose norms are |diag R|.
    Past a degenerate rank the columns are an orthonormal completion.
    Returns (frames (m,n,n), curvatures (m,n-1), ranks (m,) with 0 = valid).
    """
    m, order, n = jets.shape
    if order != n:
        raise ValueError("need a full order-n jet per sample")
    q, r = np.linalg.qr(np.swapaxes(jets[:, : n - 1, :], 1, 2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    norms = np.abs(diag)
    frames = np.empty((m, n, n))
    frames[:, : n - 1, :] = np.swapaxes(q, 1, 2) * np.where(
        diag < 0, -1.0, 1.0)[:, :, None]
    frames[:, n - 1, :] = (-1.0) ** (n - 1) * generalized_cross(frames[:, :-1])

    curv = np.zeros((m, n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        curv[:, : n - 2] = norms[:, 1:] / norms[:, :-1]
    curv[:, n - 2] = np.sum(jets[:, n - 1, :] * frames[:, n - 1, :], axis=1) \
        / np.maximum(norms[:, n - 2], 1e-300)
    curv[~np.isfinite(curv)] = 0.0

    # the rank is the index of the first curvature below EPS_CURV
    small = np.abs(curv) < EPS_CURV
    ranks = np.where(small.any(1), small.argmax(1) + 1, 0)

    # past the degenerate rank the curvatures are not determined by the curve
    curv[(ranks[:, None] > 0) & (np.arange(n - 1) >= ranks[:, None])] = 0.0
    return frames, curv, ranks


def _require_unit_speed(c):
    if not getattr(c, "unit_speed", False):
        raise NotUnitSpeedError(
            f"curve is not unit speed (max |speed - 1| = "
            f"{getattr(c, 'unit_speed_error', float('nan')):.3g}); "
            "reparametrize by arc length first")


def _trimmed_domain(c: Curve, margin: float):
    """c.domain less `margin` of its length at each end, margin in [0, 0.5)."""
    if not 0.0 <= margin < 0.5:
        raise CurveError(f"margin {margin} must lie in [0, 0.5)")
    a, b = c.domain
    trim = margin * (b - a)
    return a + trim, b - trim


def _frenet(c: Curve, svals) -> FrenetGrid:
    jets = c.jet_grid(svals, c.dim)
    frames, curv, ranks = _frames_from_jets(jets)
    k1_prime = None
    if c.exact_jets and c.dim >= 3:  # d3 = k_1' V_2 + k_1 (k_2 V_3 - k_1 V_1)
        k1_prime = np.where(ranks == 1, 0.0,
                            np.einsum("mk,mk->m", jets[:, 2], frames[:, 1]))
    return FrenetGrid(svals, frames, curv, ranks, k1_prime)


def frenet_at(c: Curve, s: float) -> FrenetGrid:
    """Frame and curvatures at one parameter value, as a one-sample grid.

    Read frames[0], curvatures[0], degenerate_ranks[0] (0 where valid) and,
    for a curve with exact jets in E^3 and up, k1_prime[0].
    """
    _require_unit_speed(c)
    return _frenet(c, np.array([float(s)]))


def frenet_grid(c: Curve, m: int, margin: float = 0.0) -> FrenetGrid:
    """Frames at m uniform parameter values over the curve's own domain.

    `margin` trims that fraction of the domain length off each end before
    sampling; a margin outside [0, 0.5), or m not an integer of at least
    MIN_GRID (a bool is not one), raises CurveError.
    To analyse a sub-interval, build the curve on it.
    """
    _require_unit_speed(c)
    if not np.issubdtype(type(m), np.integer) or m < MIN_GRID:
        raise CurveError(f"need an integer of at least {MIN_GRID} grid samples")
    return _frenet(c, np.linspace(*_trimmed_domain(c, margin), m))
