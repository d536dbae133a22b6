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
imaginary part.  When both roots of a nonzero mode are real (an overdamped
mode) that label is undefined; this module then falls back to a
deterministic order (descending real part), and wavefield.phase_velocities
gives the mode speed 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RingflockError
from .model import _INT64, DenseSystem, FlockParams, moments

#: Dense eigensolves are refused above this ring size.
DENSE_N_CAP = 2048

#: Relative tolerance for detecting a symmetric position row.
SYMMETRY_TOL = 1e-12


def mode_range(n: int) -> np.ndarray:
    """Symmetric mode indices ceil(-(n-1)/2) .. ceil((n-1)/2), ascending.

    Raises:
        RingflockError: numpy cannot build the range.
    """
    lo = -((n - 1) // 2)
    ms = np.arange(lo, lo + n)
    if ms.size != n:  # near n = 2**63 the length overflows and arange returns []
        raise RingflockError(f"n={n} modes are more than numpy can index")
    return ms


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
        re = np.full(phi.shape, math.fsum(rho.values())) - 2.0 * s * half_sq
        im = np.zeros(phi.shape) + d * sin  # 0 + (-0.0) is +0.0: sqrt's branch
        return g * (re + 1j * im)

    with np.errstate(over="ignore", invalid="ignore"):  # _labeled_roots rejects overflow
        half_sq, sin = np.sin(0.5 * phi) ** 2, np.sin(phi)  # shared by both symbols
        return symbol(params.g_x, params.rho_x), symbol(params.g_v, params.rho_v)


def root_pair(lam_x, lam_v):
    """(d, r1, r2): the roots r1,2 = lam_v/2 +- d of the mode pencils, with d
    the principal sqrt(lam_v**2/4 + lam_x).

    Where one root is below half the other in magnitude, the subtraction
    cancels its leading digits (g_x = -1, g_v = -1e9 gives 0 for a true
    -1e-9), so that root is recomputed from the product r1 r2 = -lam_x.  A
    conjugate pair has equal magnitudes and is left as it is.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.sqrt(lam_v * lam_v / 4.0 + lam_x)
        r1, r2 = np.asarray(lam_v / 2.0 + d), np.asarray(lam_v / 2.0 - d)  # 0-d arrays too
        for a, b in ((r1, r2), (r2, r1)):  # never both small
            small = np.abs(a) < 0.5 * np.abs(b)
            a[small] = -lam_x[small] / b[small]
    return d, r1, r2


def _labeled_roots(lam_x, lam_v):
    """Root pairs of the mode pencils, labeled by imaginary sign.

    Returns (plus, minus); where both roots have the same imaginary part
    (two real roots) the order falls back to descending real part.  A root
    that is not finite (gains that overflow float64) raises RingflockError.
    """
    _, r1, r2 = root_pair(lam_x, lam_v)
    if not (np.isfinite(r1).all() and np.isfinite(r2).all()):
        raise RingflockError("mode pencil roots are not finite; the gains overflow float64")
    swap = (r1.imag < r2.imag) | ((r1.imag == r2.imag) & (r1.real < r2.real))
    plus = np.where(swap, r2, r1)
    minus = np.where(swap, r1, r2)
    return plus, minus


def as_modes(ms) -> np.ndarray:
    """An int or integer array of modes as an int64 array of its shape.

    Raises:
        RingflockError: a mode is not an integer, or lies outside int64.
    """
    a = np.asarray(ms)
    if a.dtype.kind not in "iu":  # floats, bools, or Python ints numpy could not hold
        a = np.array(ms, dtype=object)
        for m in a.ravel().tolist():
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
                raise RingflockError(f"modes must be integers, got {m!r}")
    if a.dtype.kind != "i" and a.size and (a.min() < _INT64.min or a.max() > _INT64.max):
        m = next(m for m in a.ravel().tolist() if not _INT64.min <= m <= _INT64.max)
        raise RingflockError(f"modes must lie within int64, got {m}")
    return a.astype(np.int64, copy=False)


def eigenvalue_arrays(params: FlockParams, ms):
    """(lambda_x, lambda_v, nu_plus, nu_minus) at an int or integer array of modes.

    Each array is shaped like ms, so an int mode gives 0-d arrays.  Entries
    with m = 0 mod n are forced to the exact coherent zeros, and the
    half-ring modes 2m = 0 mod n keep only the real part of both symbols,
    which is exact there (np.sin(pi) is 1.2e-16, not 0).

    Raises:
        RingflockError: a mode is not an integer or lies outside int64 (as_modes).
    """
    ms = as_modes(ms)
    r = ms % params.n
    lx, lv = (np.where(r == 0, 0j, np.where(2 * r == params.n, lam.real, lam))
              for lam in lambda_curves(params, ms * params.theta))
    return (lx, lv) + _labeled_roots(lx, lv)


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
    lx, lv, plus, minus = eigenvalue_arrays(params, ms)
    return Spectrum(n=params.n, ms=ms, lambda_x=lx, lambda_v=lv,
                    nu_plus=plus, nu_minus=minus)


def _symmetric_position_row(params: FlockParams) -> bool:
    """rho_x[-1] = rho_x[+1] to SYMMETRY_TOL relative to the largest position
    weight: the closed-form gate's test, free of any unit of time."""
    rx = params.rho_x
    scale = max(abs(w) for w in rx.values()) or 1.0
    return abs(rx[1] - rx[-1]) <= SYMMETRY_TOL * scale


def _signal_speeds(params: FlockParams):
    """(c_plus, c_minus, a): the long-wave limit c_+- = -I_v1/2 +- sqrt(a),
    a = I_v1**2/4 + I_x2/2, of the mode pencils.  The moments it uses do not
    change under normalize.

    Raises:
        RingflockError: a overflows float64, a <= 0, or a speed underflows to 0.
    """
    with np.errstate(all="ignore"):
        mom = moments(params, 2)
    v1, x2 = float(mom.v[1]), float(mom.x[2])  # float math: overflow gives inf
    a = v1 * v1 / 4.0 + x2 / 2.0
    if not math.isfinite(a):
        raise RingflockError("expansion constant is not finite; the gains overflow float64")
    if a <= 0.0:
        raise RingflockError(f"I_v1^2/4 + I_x2/2 = {a:.6g} <= 0")
    far = -v1 / 2.0 + math.copysign(math.sqrt(a), -v1)  # the root free of cancellation
    near = -x2 / 2.0 / far if v1 else -far  # since c_+ c_- = -I_x2 / 2
    if 0.0 in (far, near):
        raise RingflockError(f"a signal speed underflows float64 to 0 (c_+ c_- = {-x2 / 2.0:.6g})")
    return max(far, near), min(far, near), a


def series_coefficients(params: FlockParams, order: int = 4) -> np.ndarray:
    """Taylor coefficients c[1..order] of both branch eigenvalues in u = m*theta.

    Rows 0 and 1 are the "+" and "-" branches; column 0 is zero.  The
    coefficients solve nu**2 - lambda_v nu - lambda_x = 0 order by order
    after substituting the moment expansions of the symbols, starting from
    the signal speeds of _signal_speeds:

        c1 = -i c_-  ("+" branch),   c1 = -i c_+  ("-" branch).

    Each further order is linear in the next coefficient with the invertible
    factor +-i (c_+ - c_-) = +-2 i sqrt(a), so the recursion reproduces the
    closed-form expansion exactly (through any order the moments support)
    without transcribing the unwieldy printed coefficients.

    Requires a symmetric position row (the gate's test); with I_x1 != 0 the
    branches open as a square root and no power series exists.

    Raises:
        RingflockError: order not an int >= 1, an asymmetric position row,
            an error of _signal_speeds, or a coefficient not finite.
    """
    if not (isinstance(order, (int, np.integer)) and order >= 1):
        raise RingflockError(f"order must be an int >= 1, got {order!r}")
    if not _symmetric_position_row(params):
        raise RingflockError("expansion requires I_x1 = 0 (symmetric position weights)")
    c_plus, c_minus, _ = _signal_speeds(params)

    ks = np.arange(order + 2)
    fact = np.array([math.factorial(k) for k in ks], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mom = moments(params, order + 1)
        lv = (1j ** ks) * mom.v[: order + 2] / fact
        lx = (1j ** ks) * mom.x[: order + 2] / fact

        c = np.zeros((2, order + 1), dtype=complex)
        c[:, 1] = -1j * np.array([c_minus, c_plus])
        denom = 1j * (c_plus - c_minus) * np.array([1.0, -1.0])
        for n in range(3, order + 2):
            rhs = lx[n]
            rhs += sum(lv[j] * c[:, n - j] for j in range(2, n))
            rhs -= sum(c[:, k] * c[:, n - k] for k in range(2, n - 1))
            c[:, n - 1] = rhs / denom
    if not np.isfinite(c).all():
        raise RingflockError("series coefficients are not finite; the gains overflow float64")
    return c


def mode_eigenvalues_series(params: FlockParams, m: int, order: int = 4):
    """Partial sums of the small-angle expansion of (nu_plus, nu_minus).

    Valid for nearest-neighbor couplings with a symmetric position row and
    positive expansion constant; the first order is -i c_-+ m theta with the
    speeds of signal_velocities.  The returned pair follows the same
    positive/negative imaginary-part labels as eigenvalue_arrays at small
    m*theta (for m < 0 the two analytic branches swap labels).

    Raises:
        RingflockError: order is not an int between 1 and 4, m is not one
            integer within int64 (as_modes), or series_coefficients fails.
    """
    if not (isinstance(order, (int, np.integer)) and 1 <= order <= 4):
        raise RingflockError(f"order must be an int between 1 and 4, got {order!r}")
    m = as_modes(m)
    if m.ndim:
        raise RingflockError(f"m must be one mode, got an array of shape {m.shape}")
    m = int(m)
    if m % params.n == 0:
        return 0j, 0j
    u = m * params.theta
    val_p, val_m = (series_coefficients(params, order) @ u ** np.arange(order + 1)).tolist()
    return (val_p, val_m) if m > 0 else (val_m, val_p)


def pencil_roots(params: FlockParams, phi):
    """Labeled root pairs of the mode pencil at arbitrary angles phi.

    Returns (plus, minus) arrays; the labeling matches
    eigenvalue_arrays when phi = m * theta.
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
    plus, minus = pencil_roots(params, phi)
    return Eigencurve(phi=phi, roots=np.column_stack([plus, minus]))


#: Point pairs the nearest-neighbour search measures at once; bounds its memory.
_PAIRS = 1 << 15


def _farthest_by_rows(a, b) -> float:
    """max over a of the distance to the nearest point of b, from every pair."""
    rows = max(1, _PAIRS // b.size)
    return max((float(np.abs(a[i:i + rows, None] - b[None, :]).min(axis=1).max())
                for i in range(0, a.size, rows)), default=0.0)


def _cell_ids(z, x0, y0, k, nx, ny):
    """Row-major ids of the 2**k-sided cells holding z, one ring of cells past the nx-by-ny grid."""
    cx = np.floor(np.clip(np.ldexp(z.real - x0, -k), -1.0, nx))
    cy = np.floor(np.clip(np.ldexp(z.imag - y0, -k), -1.0, ny))
    return ((cy + 1.0) * (nx + 2) + cx + 1.0).astype(np.int64)


def _farthest_nearest(a, b) -> float:
    """max over a of the distance to the nearest point of b, as np.abs gives it."""
    x0, y0 = b.real.min(), b.imag.min()
    w, h = b.real.max() - x0, b.imag.max() - y0
    span = max(w, h, math.ulp(0.0))  # the floor gives a one-point set a grid too
    if not math.isfinite(span):
        return _farthest_by_rows(a, b)
    # Cells are 2**k wide, so scaling by 2**-k is exact; there are at most
    # 2**20 of them per axis, so a rounded cell coordinate is off by less
    # than 2**-32 of a side.  Start from the box area per point (or the span
    # per point on a line), then shrink while curve points crowd the cells.
    top = math.frexp(span)[1]
    ws, hs = math.ldexp(w, -top), math.ldexp(h, -top)
    side = max(math.sqrt(ws * hs / b.size), math.ldexp(span, -top) / b.size)
    k_min = top - 20
    k = max(k_min, top + math.floor(math.log2(side)))
    for shrinks in range(3):
        nx, ny = int(math.ldexp(w, -k)) + 1, int(math.ldexp(h, -k)) + 1
        ids = _cell_ids(b, x0, y0, k, nx, ny)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        crowd = b.size / (np.count_nonzero(np.diff(ids)) + 1)
        if crowd <= 4.0 or k == k_min or shrinks == 2:
            break
        k = max(k_min, k - math.ceil(math.log2(crowd / 4.0)))
    b_sorted = b[order]

    # A point of b outside the 3x3 cells around a query is at least one side
    # away (less the 2**-32 rounding), so a nearest distance found inside them
    # below 1 - 1e-9 sides is exact; the rest are measured against all of b.
    # Each row of three cells is one run of the sorted ids.  The runs are
    # looked up for 4096 queries at a time, which are measured in blocks cut
    # short where their pairs pass _PAIRS.
    row = nx + 2
    lo_off = np.array([-row - 1, -1, row - 1])
    hi_off = lo_off + 2
    a_ids = _cell_ids(a, x0, y0, k, nx, ny)
    farthest, rest = 0.0, []
    for start in range(0, a.size, 4096):
        q = a_ids[start:start + 4096, None]
        lo_q = np.searchsorted(ids, q + lo_off)
        n_q = np.searchsorted(ids, q + hi_off, side="right") - lo_q
        ends_q = np.cumsum(n_q.sum(axis=1))
        s = 0
        while s < q.size:
            done = ends_q[s - 1] if s else 0
            m = max(1, int(np.searchsorted(ends_q[s:], done + _PAIRS, side="right")))
            lo, n, ends = lo_q[s:s + m].ravel(), n_q[s:s + m].ravel(), ends_q[s:s + m] - done
            count = np.diff(ends, prepend=0)
            idx = np.arange(ends[-1]) + np.repeat(lo - (np.cumsum(n) - n), n)
            qa = a[start + s:start + s + m]
            d = np.abs(np.repeat(qa, count) - b_sorted[idx])
            near = np.full(m, np.inf)
            near[count > 0] = np.minimum.reduceat(d, (ends - count)[count > 0])
            hit = np.ldexp(near, -k) < 1.0 - 1e-9
            farthest = max(farthest, float(near[hit].max(initial=0.0)))
            rest.append(qa[~hit])
            s += m
    return max(farthest, _farthest_by_rows(np.concatenate(rest), b))


def hausdorff(set_a, set_b) -> float:
    """Symmetric Hausdorff distance between finite complex point sets.

    Each point's nearest neighbour in the other set, in both directions, is
    looked up on a grid of square cells laid over that set.  Every point
    outside the 3x3 cells around a query is at least one cell side away, so a
    neighbour found there closer than one side (less a 1e-9 margin for
    rounding) is the nearest; the other queries are measured against the
    whole set.  Every distance is np.abs of the complex difference, so the
    value equals that of the full distance matrix bit for bit, overflow to
    inf included.
    """
    a = np.asarray(set_a, dtype=complex).ravel()
    b = np.asarray(set_b, dtype=complex).ravel()
    if a.size == 0 or b.size == 0:
        raise RingflockError("hausdorff needs two nonempty sets")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise RingflockError("hausdorff needs finite points")
    with np.errstate(over="ignore"):
        return max(_farthest_nearest(a, b), _farthest_nearest(b, a))


def _perfect(d, t) -> bool:
    """True if the graph of pairs d <= t has a perfect matching.

    The start matches each row to its nearest column, the first such row
    winning a shared column; t is never below the Hausdorff bound, so every
    one of those pairs is in the graph.  Each free row then runs one
    breadth-first search over alternating paths, recording the row each
    newly reached column came from, and flips the path back to its root at
    the first free column.  A free row with no augmenting path stays free
    in some maximum matching (Berge), so the answer is False there.
    """
    n = d.shape[0]
    rows = max(1, _PAIRS // n)
    row_of, col_of = np.full(n, -1), np.full(n, -1)
    cols, first = np.unique(d.argmin(axis=1), return_index=True)
    row_of[first], col_of[cols] = cols, first
    for root in np.flatnonzero(row_of < 0):
        via = np.full(n, -1)  # column -> the row the search reached it from
        front = root[None]
        while front.size:
            new = []
            for i in range(0, front.size, rows):
                hit = (d[front[i:i + rows]] <= t) & (via < 0)
                reached = np.flatnonzero(hit.any(axis=0))
                via[reached] = front[i + hit[:, reached].argmax(axis=0)]
                new.append(reached)
            new = np.concatenate(new)
            ends = new[col_of[new] < 0]
            if ends.size:
                c = ends[0]
                while c >= 0:
                    r = via[c]
                    row_of[r], col_of[c], c = c, r, row_of[r]
                break
            front = col_of[new]
        else:
            return False
    return True


def max_matching_distance(set_a, set_b) -> float:
    """Bottleneck distance of two equal-size multisets: the least eps for
    which some one-to-one pairing keeps every pair within eps.

    The Hausdorff distance of the two sets is a lower bound and is tested
    first; if the pairs within it hold no perfect matching, a binary search
    runs over the pair distances above it.  They are sorted in place with
    duplicates kept, so the distance matrix is copied only once, and a probe
    settles every copy of its value.  Each probe is a fresh _perfect, and
    every threshold it gets is at least the Hausdorff bound.  Every distance
    is np.abs of the complex difference, so the value is one of them, bit
    for bit; pairs too far apart for float64 give inf.

    Raises:
        RingflockError: sets of different sizes, empty, or not finite.
    """
    a = np.asarray(set_a, dtype=complex).ravel()
    b = np.asarray(set_b, dtype=complex).ravel()
    if a.size != b.size:
        raise RingflockError(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise RingflockError("max_matching_distance needs two nonempty sets")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise RingflockError("max_matching_distance needs finite points")
    n = a.size
    d = np.empty((n, n))
    rows = max(1, _PAIRS // n)
    with np.errstate(over="ignore"):
        for i in range(0, n, rows):
            d[i:i + rows] = np.abs(a[i:i + rows, None] - b[None, :])
    t = max(d.min(axis=1).max(), d.min(axis=0).max())
    if _perfect(d, t):
        return float(t)
    cand = d[d > t]
    cand.sort()
    lo, hi = 0, cand.size - 1
    while cand[lo] < cand[hi]:
        v = cand[(lo + hi) // 2]
        if _perfect(d, v):
            hi = int(np.searchsorted(cand, v))
        else:
            lo = int(np.searchsorted(cand, v, side="right"))
    return float(cand[hi])


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
