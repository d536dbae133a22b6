"""Closed-form eigenstructure of the ring flock.

The circulant couplings are diagonalized by the DFT, so mode m of an n-ring
carries one quadratic pencil

    nu**2 - lambda_v(m) * nu - lambda_x(m) = 0,
    lambda_x(m) = g_x * sum_j rho_x[j] * exp(i j m theta),   theta = 2 pi / n,

and the full 2n x 2n system spectrum is the union of the root pairs
nu_{m,+-} = lambda_v/2 +- sqrt(lambda_v**2/4 + lambda_x) over all modes.
This module evaluates those roots exactly, expands them for small m*theta,
traces the n-independent root locus ("eigencurve"), and provides the dense
eigensolver oracle plus the point-set metrics used to compare against it.

Branch convention: for m != 0 the "+" root is the one with positive
imaginary part.  When both roots of a nonzero mode are real that label is
undefined; this module then falls back to a deterministic order (descending
real part), and wavefield.phase_velocities raises DegenerateBranches.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import RingflockError
from .model import DenseSystem, FlockParams, moments

#: Below this absolute imaginary part a root counts as real for labeling.
DEGENERATE_IM_TOL = 1e-12

#: Dense eigensolves are refused above this ring size.
DENSE_N_CAP = 2048


def mode_range(n: int) -> np.ndarray:
    """Symmetric mode indices ceil(-(n-1)/2) .. ceil((n-1)/2), ascending."""
    lo = -((n - 1) // 2)
    return np.arange(lo, lo + n)


def fft_modes(n: int) -> np.ndarray:
    """Mode index carried by each FFT bin: f for f <= n//2, else f - n."""
    f = np.arange(n)
    return np.where(f <= n // 2, f, f - n)


def lambda_curves(params: FlockParams, phi):
    """The coupling symbols lambda_x(phi), lambda_v(phi) on arbitrary angles.

    The real part is (rho_1 + rho_-1)(cos(phi) - 1) plus the row sum, with
    cos(x) - 1 evaluated as -2 sin(x/2)**2; for the zero-sum rows of a
    valid parameter set this avoids the catastrophic cancellation of the
    naive cosine sum at small angles.  Symmetric weight rows produce an
    exactly zero imaginary part.
    """
    phi = np.asarray(phi, dtype=float)

    def symbol(g, rho):
        s = rho[1] + rho[-1]
        d = rho[1] - rho[-1]
        with np.errstate(over="ignore", invalid="ignore"):  # _labeled_roots rejects overflow
            re = np.full(phi.shape, math.fsum(rho.values())) - 2.0 * s * np.sin(0.5 * phi) ** 2
            im = np.zeros(phi.shape) + d * np.sin(phi)  # 0 + (-0.0) is +0.0: sqrt's branch
            return g * (re + 1j * im)

    return symbol(params.g_x, params.rho_x), symbol(params.g_v, params.rho_v)


def laplacian_eigenvalues(params: FlockParams, m: int):
    """(lambda_x, lambda_v) at mode m; both exactly zero for m = 0 mod n."""
    lx, lv, _, _, _ = eigenvalue_arrays(params, np.array([m]))
    return complex(lx[0]), complex(lv[0])


def _labeled_roots(lam_x, lam_v):
    """Root pairs of the mode pencils, labeled by imaginary sign.

    Returns (plus, minus, degenerate): degenerate marks entries where both
    roots are real (|Im| < DEGENERATE_IM_TOL) and the label is a fallback
    (descending real part).  A root that is not finite (gains that
    overflow float64) raises RingflockError.
    """
    lam_x = np.asarray(lam_x, dtype=complex)
    lam_v = np.asarray(lam_v, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sqrt(lam_v * lam_v / 4.0 + lam_x)
        r1 = lam_v / 2.0 + s
        r2 = lam_v / 2.0 - s
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise RingflockError("mode pencil roots are not finite; the gains overflow float64")
    swap = (r1.imag < r2.imag) | ((r1.imag == r2.imag) & (r1.real < r2.real))
    plus = np.where(swap, r2, r1)
    minus = np.where(swap, r1, r2)
    degenerate = (np.abs(r1.imag) < DEGENERATE_IM_TOL) & (np.abs(r2.imag) < DEGENERATE_IM_TOL)
    return plus, minus, degenerate


def eigenvalue_arrays(params: FlockParams, ms):
    """Vectorized (lambda_x, lambda_v, nu_plus, nu_minus) over integer modes.

    Entries with m = 0 mod n are forced to the exact coherent zeros.
    """
    ms = np.asarray(ms, dtype=int)
    lx, lv = lambda_curves(params, ms * params.theta)
    zero = (ms % params.n) == 0
    lx = np.where(zero, 0j, lx)
    lv = np.where(zero, 0j, lv)
    plus, minus, degenerate = _labeled_roots(lx, lv)
    return lx, lv, plus, minus, degenerate & ~zero


def mode_eigenvalues(params: FlockParams, m: int):
    """The branch pair (nu_plus, nu_minus) of mode m.

    For m = 0 mod n returns (0, 0), the coherent double zero.  A nonzero
    mode whose roots are both real comes in the fallback order.
    """
    _, _, plus, minus, _ = eigenvalue_arrays(params, np.array([m]))
    return complex(plus[0]), complex(minus[0])


@dataclass(frozen=True)
class Spectrum:
    """Per-mode eigenstructure over the symmetric mode range (ascending m)."""

    n: int
    ms: np.ndarray
    lambda_x: np.ndarray
    lambda_v: np.ndarray
    nu_plus: np.ndarray
    nu_minus: np.ndarray

    def all_nus(self) -> np.ndarray:
        """The full 2n eigenvalue multiset of the first-order system."""
        return np.concatenate([self.nu_plus, self.nu_minus])


def spectrum(params: FlockParams) -> Spectrum:
    """Closed-form spectrum over the symmetric mode range."""
    ms = mode_range(params.n)
    lx, lv, plus, minus, _ = eigenvalue_arrays(params, ms)
    return Spectrum(n=params.n, ms=ms, lambda_x=lx, lambda_v=lv,
                    nu_plus=plus, nu_minus=minus)


def series_coefficients(params: FlockParams, branch: int, order: int = 4) -> np.ndarray:
    """Taylor coefficients c[1..order] of the branch eigenvalue in u = m*theta.

    The coefficients solve nu**2 - lambda_v nu - lambda_x = 0 order by order
    after substituting the moment expansions of the symbols, starting from

        c1 = i * (I_v1 / 2 + branch * sqrt(a)),   a = I_v1**2/4 + I_x2/2.

    Each further order is linear in the next coefficient with the invertible
    factor 2*i*branch*sqrt(a), so the recursion reproduces the closed-form
    expansion exactly (through any order the moments support) without
    transcribing the unwieldy printed coefficients.

    Requires a vanishing first position moment (symmetric-type couplings);
    with I_x1 != 0 the branches open as a square root and no power series
    exists.

    Raises:
        RingflockError: branch not +-1, I_x1 != 0, or a <= 0.
    """
    if branch not in (-1, 1):
        raise RingflockError("branch must be +1 or -1")
    mom = moments(params, order + 1)
    ix, iv = mom.x, mom.v
    if abs(ix[1]) > 1e-9 * (1.0 + abs(ix[2])):
        raise RingflockError("expansion requires I_x1 = 0 (symmetric position weights)")
    a = iv[1] ** 2 / 4.0 + ix[2] / 2.0
    if a <= 0.0:
        raise RingflockError(f"I_v1^2/4 + I_x2/2 = {a:.6g} <= 0")
    sq = math.sqrt(a)

    ks = np.arange(order + 2)
    fact = np.array([math.factorial(k) for k in ks], dtype=float)
    lv = (1j ** ks) * iv[: order + 2] / fact
    lx = (1j ** ks) * ix[: order + 2] / fact

    c = np.zeros(order + 1, dtype=complex)
    c[1] = 1j * (iv[1] / 2.0 + branch * sq)
    denom = 2j * branch * sq
    for n in range(3, order + 2):
        rhs = lx[n]
        rhs += sum(lv[j] * c[n - j] for j in range(2, n))
        rhs -= sum(c[k] * c[n - k] for k in range(2, n - 1))
        c[n - 1] = rhs / denom
    return c


def mode_eigenvalues_series(params: FlockParams, m: int, order: int = 4):
    """Partial sums of the small-angle expansion of (nu_plus, nu_minus).

    Valid for nearest-neighbor couplings with I_x1 = 0 and positive
    expansion constant.  The returned pair follows the same positive/negative
    imaginary-part labels as mode_eigenvalues at small m*theta (for m < 0 the
    two analytic branches swap labels).
    """
    if not (1 <= order <= 4):
        raise RingflockError("order must be between 1 and 4")
    if m % params.n == 0:
        return 0j, 0j
    u = m * params.theta
    powers = u ** np.arange(order + 1)
    val_p = complex(series_coefficients(params, +1, order) @ powers)
    val_m = complex(series_coefficients(params, -1, order) @ powers)
    return (val_p, val_m) if m > 0 else (val_m, val_p)


def pencil_roots(params: FlockParams, phi):
    """Labeled root pairs of the mode pencil at arbitrary angles phi.

    Returns (plus, minus, degenerate) arrays; the labeling matches
    mode_eigenvalues when phi = m * theta.
    """
    lx, lv = lambda_curves(params, phi)
    return _labeled_roots(lx, lv)


@dataclass(frozen=True)
class Eigencurve:
    """Root locus of the mode pencil over a uniform angle grid on [0, 2*pi].

    The curve does not depend on n; the spectra of growing rings fill it out.
    roots has shape (n_phi, 2) with the upper branch (by imaginary part)
    first.
    """

    phi: np.ndarray
    roots: np.ndarray

    def points(self) -> np.ndarray:
        """All sampled curve points as one flat complex array."""
        return self.roots.ravel()


def eigencurve(params: FlockParams, n_phi: int) -> Eigencurve:
    """Sample the eigencurve on n_phi angles, endpoints 0 and 2*pi included."""
    if n_phi < 16:
        raise RingflockError("n_phi must be at least 16")
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    plus, minus, _ = pencil_roots(params, phi)
    return Eigencurve(phi=phi, roots=np.column_stack([plus, minus]))


def hausdorff(set_a, set_b) -> float:
    """Symmetric Hausdorff distance between finite complex point sets."""
    a = np.asarray(set_a, dtype=complex).ravel()
    b = np.asarray(set_b, dtype=complex).ravel()
    if a.size == 0 or b.size == 0:
        raise RingflockError("hausdorff needs two nonempty sets")

    # One pass over the distance matrix in cache-sized row blocks: a block's
    # row minima give a -> b, its column minima fold into b -> a.
    a_to_b = 0.0
    b_to_a = np.full(b.size, np.inf)
    step = max(1, 2 ** 16 // b.size)
    for i in range(0, a.size, step):
        d = np.abs(a[i:i + step, None] - b[None, :])
        a_to_b = max(a_to_b, float(d.min(axis=1).max()))
        np.minimum(b_to_a, d.min(axis=0), out=b_to_a)
    return max(a_to_b, float(b_to_a.max()))


def max_matching_distance(set_a, set_b) -> float:
    """Largest pair distance under the optimal matching of two equal multisets."""
    a = np.asarray(set_a, dtype=complex).ravel()
    b = np.asarray(set_b, dtype=complex).ravel()
    if a.size != b.size:
        raise RingflockError(f"multiset sizes differ: {a.size} vs {b.size}")
    d = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def dense_spectrum(system: DenseSystem) -> np.ndarray:
    """All 2n eigenvalues of the dense system matrix, unordered.

    The coherent translation/velocity pair spans a structurally invariant
    two-dimensional subspace (a Jordan chain at zero, forced by the zero row
    sums alone).  A plain QR eigensolve splits that defective pair by roughly
    sqrt(machine epsilon), so the subspace is deflated first: its 2x2
    restriction is solved directly and a dense nonsymmetric eigensolve
    handles the orthogonal-complement block.  Apart from the deflation the
    oracle knows nothing of the closed-form mode pencils.

    Raises:
        RingflockError: ring size above DENSE_N_CAP.
    """
    n = system.l_x.shape[0]
    if n > DENSE_N_CAP:
        raise RingflockError(f"n={n} exceeds the dense eigensolve cap {DENSE_N_CAP}")
    m = system.m
    p = m[n:, :n]
    q = m[n:, n:]

    # Restriction to the coherent chain, assembled from plain row sums so no
    # irrational scaling enters the cancellations: [[0, 1], [rp, rq]] in the
    # (translation, velocity) basis, with rp = mean row sum of g_x L_x and
    # rq likewise.  Both vanish for weight rows that close exactly.
    rp = float(p.sum()) / n
    rq = float(q.sum()) / n
    coherent = np.linalg.eigvals(np.array([[0.0, 1.0], [rp, rq]]))

    ones = np.full(n, 1.0 / math.sqrt(n))
    q_full, _ = np.linalg.qr(ones.reshape(-1, 1), mode="complete")
    w = q_full[:, 1:]
    t = np.zeros((2 * (n - 1), 2 * (n - 1)))
    t[: n - 1, n - 1:] = np.eye(n - 1)
    t[n - 1:, : n - 1] = w.T @ p @ w
    t[n - 1:, n - 1:] = w.T @ q @ w
    rest = np.linalg.eigvals(t)

    return np.concatenate([coherent.astype(complex), rest.astype(complex)])
