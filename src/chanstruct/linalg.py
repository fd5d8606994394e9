"""Dense complex matrix utilities, subspaces and the tolerance policy.

All higher layers consume the single tolerance policy defined here:
``rank_tol`` is a relative singular-value cutoff, ``eig_cluster_tol`` groups
eigenvalues (e.g. the distance |lambda - 1| that counts as "fixed") and
``psd_tol`` is the magnitude of negative eigenvalues tolerated when deciding
positive semidefiniteness.

Subspaces of C^d are stored as orthonormal column frames.  Frames are gauge
dependent, so subspace equality always means equality of the orthogonal
projectors, never of the frames themselves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Subspace",
    "hermitian_span_basis",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance policy shared by every operation.

    Attributes
    ----------
    rank_tol : float
        Relative singular-value cutoff for numerical rank decisions.
    eig_cluster_tol : float
        Distance used to group eigenvalues into clusters, e.g. |lambda - 1|.
    psd_tol : float
        Allowed magnitude of negative eigenvalues in PSD checks.
    """

    rank_tol: float = 1e-9
    eig_cluster_tol: float = 1e-8
    psd_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_tol", "eig_cluster_tol", "psd_tol"):
            value = getattr(self, name)
            if not (0.0 < value <= 1e-2):
                raise ArgumentError(
                    f"{name} must lie in (0, 1e-2], got {value!r}"
                )

    @property
    def subspace_tol(self):
        """Threshold for subspace membership/fixedness residuals."""
        return 10.0 * self.eig_cluster_tol


DEFAULT_TOL = Tolerance()


def as_complex_matrix(a, name="matrix"):
    """Coerce ``a`` to a complex ndarray and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ArgumentError(f"{name} contains non-finite entries")
    return m


def _check_tolerance(tol):
    if not isinstance(tol, Tolerance):
        raise TypeError(f"tol must be a Tolerance, got {type(tol).__name__}")


def _check_integer(value, name, least):
    # refuses bool and np.bool_ too, which the report reader refuses
    if not np.issubdtype(type(value), np.integer) or value < least:
        raise ArgumentError(f"{name} must be an integer >= {least}, got {value!r}")


def _is_hermitian(x, tol):
    """The package's rule for a finite square input to count as Hermitian:
    |X - X^H|_max <= 100 psd_tol max(1, |X|_max)."""
    scale = max(1.0, np.abs(x).max())
    return bool(np.abs(x - x.conj().T).max() <= 100.0 * tol.psd_tol * scale)


class Subspace:
    """A subspace of C^d stored as an orthonormal column frame.

    Parameters
    ----------
    ambient_dim : int
        Dimension d of the ambient space.
    frame : (d, k) complex ndarray
        Matrix whose columns form an orthonormal basis of the subspace.
    """

    __slots__ = ("ambient_dim", "frame")

    def __init__(self, ambient_dim, frame):
        frame = as_complex_matrix(frame, "frame")
        if frame.ndim != 2 or frame.shape[0] != ambient_dim:
            raise ArgumentError(
                f"frame shape {frame.shape} incompatible with ambient "
                f"dimension {ambient_dim}"
            )
        if frame.shape[1] > ambient_dim:
            raise ArgumentError("subspace dimension exceeds ambient dimension")
        if frame.shape[1]:
            gram = frame.conj().T @ frame
            dev = np.abs(gram - np.eye(frame.shape[1])).max()
            if dev > DEFAULT_TOL.subspace_tol:
                raise ArgumentError(
                    f"frame columns are not orthonormal (deviation {dev:.3e})"
                )
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "frame", frame)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim):
        """The zero subspace of C^d."""
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def full(cls, ambient_dim):
        """The full space C^d."""
        return cls(ambient_dim, np.eye(ambient_dim, dtype=complex))

    @property
    def dimension(self):
        return self.frame.shape[1]

    def projector(self):
        """Orthogonal projector onto the subspace (d x d matrix)."""
        return self.frame @ self.frame.conj().T

    def contains_vector(self, x, tol=DEFAULT_TOL):
        """Whether the vector ``x`` lies in the subspace, relative to |x|."""
        _check_tolerance(tol)
        x = np.asarray(x, dtype=complex).reshape(-1)
        norm = np.linalg.norm(x)
        if norm == 0.0:
            return True
        residual = x - self.frame @ (self.frame.conj().T @ x)
        return np.linalg.norm(residual) <= tol.subspace_tol * norm

    def contains(self, other, tol=DEFAULT_TOL):
        """Whether ``other`` (a Subspace) is contained in this subspace."""
        _check_tolerance(tol)
        if other.ambient_dim != self.ambient_dim:
            raise ArgumentError("ambient dimensions differ")
        if other.dimension == 0:
            return True
        residual = other.frame - self.frame @ (
            self.frame.conj().T @ other.frame
        )
        return np.abs(residual).max() <= tol.subspace_tol

    def approx_equal(self, other, tol=DEFAULT_TOL):
        """Projector equality within tolerance (frames are gauge dependent)."""
        _check_tolerance(tol)
        if other.ambient_dim != self.ambient_dim:
            raise ArgumentError("ambient dimensions differ")
        diff = np.abs(self.projector() - other.projector()).max()
        return diff <= tol.subspace_tol

    def orthocomplement(self):
        """The orthogonal complement as a Subspace: the trailing columns of
        the complete QR factor of the frame, which is unitary."""
        d, k = self.ambient_dim, self.dimension
        if k == 0:
            return Subspace.full(d)
        return Subspace(d, np.linalg.qr(self.frame, mode="complete")[0][:, k:])

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dimension})"


def _residue_free(frame):
    """The (n, k) frame with each part below n eps times its largest part
    zeroed, sign kept: n eps bounds the rounding of the length-n inner
    products that make every frame (the QR of ``_canonical``, a copy Q F_0)."""
    parts = np.ascontiguousarray(frame, dtype=complex).view(float)
    cut = len(parts) * np.finfo(float).eps * np.abs(parts).max(initial=0.0)
    return np.where(np.abs(parts) < cut, 0.0 * parts, parts).view(complex)


def _canonical(frame):
    """The one orthonormal basis of the span of a (d, k) frame F that the span
    fixes (F and F U give it to rounding).  With the rows ordered by decreasing
    norm (8 decimals, ties by index), it is F Q for P^H = Q R, P the first k
    rows that add to the span (R^H when they lead): each column zero before its
    pivot row, real and positive there, without residue, every zero +0.0."""
    k, cut = frame.shape[1], np.finfo(float).eps ** 0.5
    if not k:
        return frame
    order = np.argsort(-np.round(np.linalg.norm(frame, axis=1), 8), kind="stable")
    f, pivots = frame[order], np.arange(k)
    r = np.linalg.qr(f.conj().T, mode="r").conj().T
    if np.abs(r[pivots, pivots]).min() < cut:  # the leading k rows are dependent
        ranks = [np.linalg.matrix_rank(f[: i + 1], tol=cut) for i in range(len(f))]
        pivots = np.flatnonzero(np.diff(ranks, prepend=0))
        r = f @ np.linalg.qr(f[pivots].conj().T)[0]
    lead = r[pivots, np.arange(k)]
    r *= lead.conj() / np.abs(lead)
    return _residue_free(r[np.argsort(order)]) + 0.0


def hermitian_encode(x):
    """Real coordinates Re vec X + Im vec X of Hermitian matrices X.

    Batched: an (..., d, d) array gives (..., d^2) real vectors.  The map is
    an isometry from the Hermitian matrices onto R^(d^2) (Re X and Im X are
    symmetric and antisymmetric, hence Hilbert-Schmidt orthogonal), so rank
    decisions over Hermitian spans can be made with a real SVD, and it is
    the inverse of U = ((1+i) I + (1-i) K) / 2, K the vec swap
    vec(X) -> vec(X^T), in which a Kraus map's superoperator is real.
    """
    x = np.asarray(x)
    # vec stacks columns, and X^T = conj(X), so vec(Re X + Im X) is
    # Re X - Im X read row by row
    return (x.real - x.imag).reshape(*x.shape[:-2], -1)


def hermitian_decode(v, d):
    """Inverse of :func:`hermitian_encode`: the Hermitian matrix
    sym Y + i antisym Y of Y = unvec(v), batched over leading axes."""
    yt = np.asarray(v, dtype=float).reshape(*np.shape(v)[:-1], d, d)  # Y^T
    ty = np.swapaxes(yt, -1, -2)
    return ((ty + yt) + 1j * (ty - yt)) / 2.0


def hermitian_span_basis(mats, tol=DEFAULT_TOL):
    """Orthonormal Hermitian basis of the real span of Hermitian matrices.

    Parameters
    ----------
    mats : sequence of Hermitian (d, d) arrays
    tol : Tolerance
        rank_tol decides which singular directions are kept.

    Returns
    -------
    list of (d, d) Hermitian ndarrays, orthonormal in the Hilbert-Schmidt
    inner product.
    """
    _check_tolerance(tol)
    mats = list(mats)
    if not mats:
        return []
    d = mats[0].shape[0]
    u, s, _ = np.linalg.svd(hermitian_encode(np.stack(mats)).T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    rank = int(np.sum(s >= tol.rank_tol * s[0]))
    return list(hermitian_decode(u[:, :rank].T, d))
