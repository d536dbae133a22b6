"""Flock parameters on a ring: validation, normalization, moments, dense form.

N identical agents sit on a ring and steer on relative measurements only.
Writing z_k for the deviation of agent k from its desired slot, the dynamics
are

    z_k'' = g_x * sum_j rho_x[j] * z_{k+j}  +  g_v * sum_j rho_v[j] * z'_{k+j}

with offsets j from a small neighborhood (default {-1, 0, +1}) and weight
rows that sum to zero, so no absolute position or velocity ever enters.
The induced coupling matrices are circulant Laplacians, which makes the
whole spectral theory explicit; this module owns the parameter bookkeeping
and the dense first-order matrix used by the numerical oracles.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadAgentCount, RingflockError, RowSumViolation, ZeroCenterWeight

NEAREST_NEIGHBORHOOD = (-1, 0, 1)

#: Row sums at or below this magnitude are re-closed into the center weight.
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FlockParams:
    """Free parameters of the ring flock.

    Attributes:
        n: number of agents (at least 3).
        g_x: position coupling gain (1/time^2).
        g_v: velocity coupling gain (1/time).
        rho_x: map offset -> dimensionless position weight.
        rho_v: map offset -> dimensionless velocity weight.
        neighborhood: ordered offsets the weights live on.
    """

    n: int
    g_x: float
    g_v: float
    rho_x: dict
    rho_v: dict
    neighborhood: tuple = NEAREST_NEIGHBORHOOD

    @property
    def theta(self) -> float:
        """Mode spacing 2*pi/n in radians per agent."""
        return 2.0 * math.pi / self.n

    @classmethod
    def nearest_neighbor(cls, n, g_x, g_v, rho_x_plus=-0.5, rho_v_plus=-0.5,
                         rho_x_minus=None, rho_v_minus=None):
        """Nearest-neighbor parameters with center weights closing each row.

        The minus-side weights default to the plus side (symmetric rows).
        With the default weights the center entries come out as 1, i.e. the
        normalized convention.
        """
        if rho_x_minus is None:
            rho_x_minus = rho_x_plus
        if rho_v_minus is None:
            rho_v_minus = rho_v_plus
        rho_x = {-1: rho_x_minus, 0: -(rho_x_minus + rho_x_plus), 1: rho_x_plus}
        rho_v = {-1: rho_v_minus, 0: -(rho_v_minus + rho_v_plus), 1: rho_v_plus}
        return cls(n=n, g_x=g_x, g_v=g_v, rho_x=rho_x, rho_v=rho_v)

    def with_n(self, n):
        """Same couplings on a ring of a different size."""
        return replace(self, n=n)


@dataclass(frozen=True)
class Moments:
    """Weighted offset moments of the couplings.

    x[l] = g_x * sum_j rho_x[j] * j**l and likewise v[l], for l = 0..lmax.
    Index 0 is the row sum scaled by the gain, which a valid parameter set
    keeps at zero.
    """

    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class DenseSystem:
    """First-order dense form d/dt (z, z') = M (z, z').

    M is the 2n x 2n block matrix [[0, I], [g_x L_x, g_v L_v]] where L_x and
    L_v are the circulant weight Laplacians (gains not included).
    """

    m: np.ndarray
    l_x: np.ndarray
    l_v: np.ndarray


def violations(params: FlockParams) -> list:
    """All invariant violations of the parameter set, empty when valid.

    Each entry is an exception instance ready to raise: BadAgentCount for a
    ring below three agents or colliding offsets, RowSumViolation for a
    weight row that does not sum to zero, RingflockError for the rest.
    """
    probs = []
    if params.n < 3:
        probs.append(BadAgentCount(f"agent count n={params.n} is below 3"))
    else:
        seen = {}
        for j in params.neighborhood:
            r = j % params.n
            if r in seen:
                probs.append(BadAgentCount(
                    f"offsets {seen[r]} and {j} collide mod n={params.n}"))
            seen[r] = j
    for name in ("g_x", "g_v"):
        gain = getattr(params, name)
        if not math.isfinite(gain):
            probs.append(RingflockError(f"{name}={gain} is not finite"))
    for name, rho in (("rho_x", params.rho_x), ("rho_v", params.rho_v)):
        extra = set(rho) - set(params.neighborhood)
        if extra:
            probs.append(RingflockError(
                f"{name} has weights outside the neighborhood: {sorted(extra)}"))
        bad = {j: w for j, w in rho.items() if not math.isfinite(w)}
        if bad:
            probs.append(RingflockError(
                f"{name} has non-finite weights at offsets {sorted(bad)}"))
            continue
        s = math.fsum(rho.values())
        if abs(s) > ROW_SUM_TOL:
            probs.append(RowSumViolation(f"{name} row sum {s:.3e} exceeds {ROW_SUM_TOL:.0e}"))
    return probs


def validate(params: FlockParams) -> FlockParams:
    """Check the invariants and return a re-closed copy of the parameters.

    Row sums within ROW_SUM_TOL of zero are closed exactly by recomputing the
    center weight as minus the sum of the others, which keeps the coherent
    zero eigenvalue structurally exact downstream.

    Raises:
        BadAgentCount: n < 3 or offsets collide mod n.
        RowSumViolation: a weight row sums to more than the tolerance.
        RingflockError: any other invariant violation, such as a non-finite
            gain or weight.
    """
    probs = violations(params)
    for kind in (BadAgentCount, RowSumViolation):
        for p in probs:
            if type(p) is kind:
                raise p
    if probs:
        raise RingflockError("; ".join(str(p) for p in probs))

    def reclose(rho):
        full = {j: float(rho.get(j, 0.0)) for j in params.neighborhood}
        if 0 in full:
            full[0] = -math.fsum(w for j, w in full.items() if j != 0)
        return full

    return replace(params, rho_x=reclose(params.rho_x), rho_v=reclose(params.rho_v))


def normalize(params: FlockParams) -> FlockParams:
    """Rescale so both center weights equal 1.

    The gains absorb the old center weights (g' = g * rho[0]) and every
    weight is divided by its row's center, so all products g * rho[j], and
    with them the dynamics, are unchanged.

    Raises:
        ZeroCenterWeight: a center weight is zero or missing.
    """
    cx = params.rho_x.get(0, 0.0)
    cv = params.rho_v.get(0, 0.0)
    if cx == 0.0 or cv == 0.0:
        raise ZeroCenterWeight("normalization needs rho_x[0] != 0 and rho_v[0] != 0")
    rho_x = {j: w / cx for j, w in params.rho_x.items()}
    rho_v = {j: w / cv for j, w in params.rho_v.items()}
    return replace(params, g_x=params.g_x * cx, g_v=params.g_v * cv,
                   rho_x=rho_x, rho_v=rho_v)


def moments(params: FlockParams, lmax: int = 5) -> Moments:
    """Offset moments of g_x*rho_x and g_v*rho_v through order lmax."""
    if lmax < 1:
        raise ValueError("lmax must be at least 1")
    ls = np.arange(lmax + 1)
    mx = np.zeros(lmax + 1)
    mv = np.zeros(lmax + 1)
    for j, w in params.rho_x.items():
        mx += w * np.float_power(float(j), ls)
    for j, w in params.rho_v.items():
        mv += w * np.float_power(float(j), ls)
    return Moments(x=params.g_x * mx, v=params.g_v * mv)


def build_dense(params: FlockParams) -> DenseSystem:
    """Assemble the dense 2n x 2n system matrix from validated parameters."""
    p = validate(params)
    n = p.n
    l_x = _circulant(n, p.rho_x)
    l_v = _circulant(n, p.rho_v)
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = np.eye(n)
    m[n:, :n] = p.g_x * l_x
    m[n:, n:] = p.g_v * l_v
    return DenseSystem(m=m, l_x=l_x, l_v=l_v)


def _circulant(n, rho):
    out = np.zeros((n, n))
    cols = np.arange(n)
    for j, w in rho.items():
        out[cols, (cols + j) % n] += w
    return out
