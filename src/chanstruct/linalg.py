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
    "loewner_geq",
    "vec",
    "unvec",
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
    if not x.size:
        return True
    scale = max(1.0, np.abs(x).max())
    return bool(np.abs(x - x.conj().T).max() <= 100.0 * tol.psd_tol * scale)


def _check_hermitian(x, tol, name="matrix"):
    if not _is_hermitian(x, tol):
        dev = np.abs(x - x.conj().T).max()
        raise ArgumentError(f"{name} is not Hermitian (deviation {dev:.3e})")


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


def loewner_geq(x, y, tol=DEFAULT_TOL):
    """Operator-order comparison X >= Y.

    True iff the minimum eigenvalue of X - Y is >= -psd_tol.  Both inputs
    must be Hermitian within tolerance.
    """
    _check_tolerance(tol)
    x = as_complex_matrix(x, "X")
    y = as_complex_matrix(y, "Y")
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ArgumentError("operands must be square matrices of equal shape")
    _check_hermitian(x, tol, "X")
    _check_hermitian(y, tol, "Y")
    diff = (x - y + (x - y).conj().T) / 2.0
    w = np.linalg.eigvalsh(diff)
    return bool(w[0] >= -tol.psd_tol)


def vec(rho):
    """Column-stacking vectorization: columns of ``rho`` top to bottom."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v, d):
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


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
