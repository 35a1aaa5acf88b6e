"""Low-spectrum eigendecomposition of graph Laplacians and the sphere reference.

Graph eigenpairs are normalized in L^2(gamma_n), the empirical-measure pairing
<u, v> = (1/n) sum_i u_i v_i, so that coefficient conventions line up with the
continuum side.  The continuum reference is the unit 2-sphere: eigenvalues
l(l+1) with multiplicity 2l+1, real spherical harmonics normalized against the
uniform probability measure.

The graph eigensolver is picked from n and k alone.  A truncated basis
(2k < n) comes from Lanczos (ARPACK's ``eigsh``, smallest algebraic) on the
sparse Laplacian itself: no factorization and no n x n array is formed.
The low graph spectrum approaches the sphere's l(l+1), well separated from
the rest, so the wanted pairs converge without a shift.  The Lanczos start
vector is a fixed function of n, which keeps every result bit-reproducible
(ARPACK's default start vector is random).  These eigenpairs agree with the
dense solver's to about 1e-13.  A basis with 2k >= n (the full spectrum the
regularity study needs) comes from the divide-and-conquer solver of
``scipy.linalg.eigh`` (``driver="evd"``) on the dense matrix, the cheaper
solver once ARPACK's Krylov space of about 2k+1 vectors would span all n
dimensions; it computes every pair and the first k are kept.

A disconnected graph's null space is known exactly: the indicators of its
c components.  Either solver leaves it to them, so the first min(k, c)
pairs are eigenvalue 0 and the normalized indicators, whatever the
solver's rounding.  Lanczos then runs on L + top * Pi, where Pi spreads
each component's mean over its points and top = 2 max(diag L) is
Gershgorin's bound on the spectrum, from a start vector with the
component means taken out.  The lift puts the null modes above every
wanted pair; on L itself, rounding that leaks into the null space turns
into extra zero eigenvalues, with a small residual all the same.
"""

import numpy as np
from scipy import linalg
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import gammaln, lpmv


class SpectralBasis:
    """k ascending eigenpairs (lambda_i, psi_i) of a graph Laplacian.

    Eigenvectors are columns of a (n, k) array, orthonormal under the
    (1/n)-weighted pairing (Euclidean norm sqrt(n)).  Sign convention: the
    entry of largest magnitude in each eigenvector is positive, ties broken
    by lowest index.

    ``solver`` names the eigensolver that produced the pairs ("dense" or
    "lanczos") and ``residual`` is its largest relative residual
    max_i |L psi_i - lambda_i psi_i| / max(1, |lambda_i|) over
    unit-Euclidean-norm psi_i.
    """

    def __init__(self, eigenvalues, eigenvectors, solver, residual):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=float)
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)
        self.solver = solver
        self.residual = residual

    @property
    def count(self):
        return self.eigenvalues.shape[0]

    @property
    def n(self):
        return self.eigenvectors.shape[0]

    def synthesize(self, coeffs):
        """Nodal values sum_i a_i psi_i for a coefficient vector of length <= k."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.shape[0] > self.count:
            raise ValueError("need one coefficient vector of length <= %d, "
                             "got shape %s" % (self.count, coeffs.shape))
        return self.eigenvectors[:, :coeffs.shape[0]] @ coeffs


def _fix_signs(vecs):
    # largest-magnitude entry positive; np.argmax takes the lowest index on ties
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(vecs.shape[1])] < 0
    return np.negative(vecs, out=vecs, where=flip)


def _lanczos(mat, k, labels, sizes):
    # a fixed start vector: ARPACK's default is random, and np.ones(n) is
    # the null vector of a connected graph, on which Lanczos stops at once
    n = mat.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    op = mat
    if sizes.size > 1:
        # the null space is known: adding top times the projector onto the
        # component indicators lifts it above the whole spectrum (top is
        # Gershgorin's bound on L), so rounding that leaks into it cannot
        # pass for a wanted pair near 0
        def spread(v):
            return (np.bincount(labels, v) / sizes)[labels]

        top = 2.0 * mat.diagonal().max()
        op = LinearOperator((n, n), matvec=lambda v: mat @ v + top * spread(v),
                            dtype=float)
        v0 = v0 - spread(v0)
    # with eigenvectors requested, eigsh returns ascending eigenvalues
    return eigsh(op, k, which="SA", v0=v0)


def eigendecompose(lap, k):
    """The k smallest eigenpairs of a graph Laplacian, L^2(gamma_n)-orthonormal.

    With 2k < n, Lanczos on the sparse matrix (see the module docstring);
    otherwise divide and conquer on the dense matrix.  The cut depends on
    n and k only.  Eigenvalues within 1e-12 * max(1, |lambda_k|) of zero
    are snapped to exactly 0.  A graph of c > 1 components gives
    eigenvalue 0 and its normalized component indicators, ordered by
    lowest point index, as the first min(k, c) pairs.
    """
    n = lap.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%d n=%d" % (k, n))
    # L is symmetric, so its strong components are its connected components,
    # found without the transposed copy an undirected search makes; scipy
    # numbers them in the order of their lowest point
    c, labels = connected_components(lap, connection="strong")
    sizes = np.bincount(labels)
    null = min(k, c) if c > 1 else 0
    vals, vecs = np.zeros(0), np.zeros((n, 0))
    if 2 * k < n:
        solver = "lanczos"
        if k > null:
            vals, vecs = _lanczos(lap, k - null, labels, sizes)
    else:
        solver = "dense"
        # the transpose of the fresh symmetric array is Fortran-ordered, so
        # LAPACK overwrites it with the eigenvectors instead of copying it
        vals, vecs = linalg.eigh(lap.toarray().T, driver="evd",
                                 overwrite_a=True, check_finite=False)
        vals, vecs = vals[null:k], vecs[:, null:k]
    if null:
        # the unit component indicators come first
        vals = np.concatenate((np.zeros(null), vals))
        vecs = np.hstack(((labels[:, None] == np.arange(null))
                          / np.sqrt(sizes[:null]), vecs))
    # snap solver noise around the null modes to exact zero
    tiny = 1e-12 * max(1.0, float(abs(vals[-1])))
    vals = np.where(np.abs(vals) < tiny, 0.0, vals)
    resid = np.linalg.norm(lap @ vecs - vecs * vals, axis=0)
    residual = float(np.max(resid / np.maximum(1.0, np.abs(vals))))
    vecs = _fix_signs(vecs * np.sqrt(n))
    return SpectralBasis(vals, vecs, solver, residual)


def _harmonic_norm(l, order):
    m = abs(order)
    if m == 0:
        return np.sqrt(2.0 * l + 1.0)
    return np.sqrt(2.0 * (2 * l + 1) * np.exp(gammaln(l - m + 1) - gammaln(l + m + 1)))


def _eval_harmonic(l, order, z, phi):
    m = abs(order)
    p = lpmv(m, l, z)
    if order > 0:
        return _harmonic_norm(l, order) * p * np.cos(m * phi)
    if order < 0:
        return _harmonic_norm(l, order) * p * np.sin(m * phi)
    return _harmonic_norm(l, 0) * p


def _check_on_sphere(pts):
    norms = np.linalg.norm(pts, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("point not on the unit sphere (|norm - 1| > 1e-9)")


class ContinuumBasis:
    """All real spherical harmonics up to degree l_max, flattened by degree.

    labels[i] = (l, order) with orders -l..l inside each degree; eigenvalues
    are l(l+1) repeated 2l+1 times, ascending.
    """

    def __init__(self, l_max):
        if l_max < 0:
            raise ValueError("l_max must be >= 0")
        self.l_max = int(l_max)
        self.labels = [
            (l, order) for l in range(l_max + 1) for order in range(-l, l + 1)
        ]
        self.eigenvalues = np.array([float(l * (l + 1)) for l, _ in self.labels])
        self.eigenvalues.setflags(write=False)

    @property
    def count(self):
        return len(self.labels)

    def evaluate(self, points):
        """Matrix of harmonic values, one row per point, one column per label."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _check_on_sphere(pts)
        z = np.clip(pts[:, 2], -1.0, 1.0)
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.empty((pts.shape[0], self.count))
        for i, (l, order) in enumerate(self.labels):
            out[:, i] = _eval_harmonic(l, order, z, phi)
        return out

    def synthesize(self, coeffs, points):
        """Evaluate sum_i a_i psi_i at the given sphere points."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.count,):
            raise ValueError("need one coefficient vector of length %d, got "
                             "shape %s" % (self.count, coeffs.shape))
        return self.evaluate(points) @ coeffs


def spectral_error(basis, cont, count):
    """Relative eigenvalue errors |1 - lambda_i^n / lambda_i| for i = 2..count.

    Index 1 is excluded since both sides have a zero eigenvalue there.  Counts
    are 1-based to match the ascending eigenvalue numbering.
    """
    if count > basis.count or count > cont.count:
        raise ValueError("count exceeds available eigenvalues")
    lam_graph = basis.eigenvalues[1:count]
    lam_cont = cont.eigenvalues[1:count]
    return np.abs(1.0 - lam_graph / lam_cont)
