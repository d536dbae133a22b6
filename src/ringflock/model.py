"""Flock parameters on a ring: checks, normalization, moments, dense form.

N identical agents sit on a ring and steer on relative measurements only.
Writing z_k for the deviation of agent k from its desired slot, the dynamics
are

    z_k'' = g_x * sum_j rho_x[j] * z_{k+j}  +  g_v * sum_j rho_v[j] * z'_{k+j}

with offsets j in {-1, 0, +1} only (each agent sees its two ring neighbors)
and weight rows that sum to zero, so no absolute position or velocity ever
enters.  FlockParams enforces both when it is built, however it is built, so
every instance downstream code sees is valid.  The induced coupling matrices
are circulant Laplacians, which makes the whole spectral theory explicit;
this module owns the parameter bookkeeping and the dense first-order matrix
used by the numerical oracles.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import RingflockError

NEAREST_NEIGHBORHOOD = (-1, 0, 1)

#: Row sums at or below this magnitude are re-closed into the center weight.
ROW_SUM_TOL = 1e-12

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class FlockParams:
    """Free parameters of the ring flock, checked whenever one is built.

    The constructor, nearest_neighbor, with_n, dataclasses.replace and
    normalize all run the checks, so every instance is valid.  Each row is
    stored as a fresh read-only mapping on the offsets -1, 0, +1 (a missing
    one weighs 0) with its center re-closed to minus the sum of the sides,
    which keeps the coherent zero eigenvalue structurally exact downstream.

    Attributes:
        n: number of agents, an int or numpy integer (3 to int64 max).
        g_x: position coupling gain (1/time^2).
        g_v: velocity coupling gain (1/time).
        rho_x: map offset (-1, 0 or +1) -> dimensionless position weight.
        rho_v: map offset (-1, 0 or +1) -> dimensionless velocity weight.

    Raises:
        RingflockError: n is not an int64 >= 3, a gain or weight is not
            finite, a weight sits off the offsets -1, 0, +1, or a row sums to
            more than ROW_SUM_TOL; one error lists every problem, joined by '; '.
    """

    n: int
    g_x: float
    g_v: float
    rho_x: Mapping
    rho_v: Mapping

    def __post_init__(self):
        probs = _violations(self)
        if probs:
            raise RingflockError("; ".join(probs))
        for name in ("rho_x", "rho_v"):
            full = {j: float(getattr(self, name).get(j, 0.0)) for j in NEAREST_NEIGHBORHOOD}
            full[0] = -math.fsum((full[-1], full[1]))
            object.__setattr__(self, name, MappingProxyType(full))

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

        Raises:
            RingflockError: two finite side weights sum past float64, so no
                center closes the row; or any check of the constructor.
        """
        rows = {}
        for name, minus, plus in (("rho_x", rho_x_minus, rho_x_plus),
                                  ("rho_v", rho_v_minus, rho_v_plus)):
            if minus is None:
                minus = plus
            center = -(minus + plus)
            if math.isinf(center) and math.isfinite(minus) and math.isfinite(plus):
                raise RingflockError(f"{name} side weights m1 + p1 overflow float64")
            rows[name] = {-1: minus, 0: center, 1: plus}
        return cls(n=n, g_x=g_x, g_v=g_v, **rows)

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


def _violations(params):
    """Each violated invariant as a message, in check order."""
    probs = []
    n = params.n
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        probs.append(f"agent count n={n!r} is not an integer")
    elif n < 3:
        probs.append(f"agent count n={n} is below 3")
    elif n > _INT64.max:
        probs.append(f"agent count n={n} exceeds int64, in which modes are indexed")
    for name in ("g_x", "g_v"):
        gain = getattr(params, name)
        if not math.isfinite(gain):
            probs.append(f"{name}={gain} is not finite")
    for name, rho in (("rho_x", params.rho_x), ("rho_v", params.rho_v)):
        extra = set(rho) - set(NEAREST_NEIGHBORHOOD)
        if extra:
            probs.append(f"{name} has weights outside the neighborhood: {sorted(extra)}")
        bad = {j: w for j, w in rho.items() if not math.isfinite(w)}
        if bad:
            probs.append(f"{name} has non-finite weights at offsets {sorted(bad)}")
            continue
        try:
            s = math.fsum(rho.values())
        except OverflowError:  # finite weights whose exact sum exceeds float64
            s = math.inf
        if abs(s) > ROW_SUM_TOL:
            probs.append(f"{name} row sum {s:.3e} exceeds {ROW_SUM_TOL:.0e}")
    return probs


def normalize(params: FlockParams) -> FlockParams:
    """Rescale so both center weights equal 1.

    The gains absorb the old center weights (g' = g * rho[0]) and every
    weight is divided by its row's center, so all products g * rho[j], and
    with them the dynamics, are unchanged.

    Raises:
        RingflockError: a center weight is zero.
    """
    cx = params.rho_x[0]
    cv = params.rho_v[0]
    if cx == 0.0 or cv == 0.0:
        raise RingflockError("normalization needs rho_x[0] != 0 and rho_v[0] != 0")
    rho_x = {j: w / cx for j, w in params.rho_x.items()}
    rho_v = {j: w / cv for j, w in params.rho_v.items()}
    return replace(params, g_x=params.g_x * cx, g_v=params.g_v * cv,
                   rho_x=rho_x, rho_v=rho_v)


def moments(params: FlockParams, lmax: int = 5) -> Moments:
    """Offset moments of g_x*rho_x and g_v*rho_v through order lmax."""
    if lmax < 1:
        raise RingflockError("lmax must be at least 1")
    ls = np.arange(lmax + 1)
    mx = np.zeros(lmax + 1)
    mv = np.zeros(lmax + 1)
    for j, w in params.rho_x.items():
        mx += w * np.float_power(float(j), ls)
    for j, w in params.rho_v.items():
        mv += w * np.float_power(float(j), ls)
    return Moments(x=params.g_x * mx, v=params.g_v * mv)


def build_dense(params: FlockParams) -> DenseSystem:
    """Assemble the dense 2n x 2n system matrix."""
    n = params.n
    l_x = _circulant(n, params.rho_x)
    l_v = _circulant(n, params.rho_v)
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = np.eye(n)
    m[n:, :n] = params.g_x * l_x
    m[n:, n:] = params.g_v * l_v
    return DenseSystem(m=m, l_x=l_x, l_v=l_v)


def _circulant(n, rho):
    out = np.zeros((n, n))
    cols = np.arange(n)
    for j, w in rho.items():
        out[cols, (cols + j) % n] += w
    return out
