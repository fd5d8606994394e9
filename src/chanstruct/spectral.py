"""Fixed points and the recurrent/transient decomposition.

The central computation, solved once per channel and tolerance, is the
eigenvalue-1 eigenspace pair of the channel's superoperator M: the right
kernel K of (M - I) spans the fixed points of the channel and the left kernel
L spans the fixed points of the adjoint.  Everything else is read off these
two bases.  The positive and negative parts of a Hermitian fixed point of a
positive trace-preserving map are fixed, so for the Hermitian basis X_i of K

    rho_max = sum_i |X_i| / tr

is an invariant state in the recurrent subspace R, the enclosure its range
at rank_tol generates, split off once with the solve; D = R^perp.  Inside R
the orthocomplement of an enclosure is an enclosure, so on a minimal
enclosure V, P_V rho_max P_V / tr is the unique invariant state.  The map
X -> P_R X P_R takes the adjoint's fixed points onto those of the channel
on R (Baumgartner-Narnhofer, Rev. Math. Phys. 24 (2012)): compress L to R.

A CPTP map preserves Hermiticity, so M commutes with the conjugation
vec(X) -> vec(X^H) and its eigenvalue-1 eigenspaces are spanned by Hermitian
matrices.  Let K be the vec swap vec(X) -> vec(X^T).  The unitary
U = ((1+i) I + (1-i) K) / 2 maps a real vector vec(Y) to the vec of the
Hermitian matrix sym Y + i antisym Y, and in these real Hermitian
coordinates the superoperator is the real d^2 x d^2 matrix

    M_h = U^H M U = Re M + Im(M K),

whose columns are those of M with the imaginary parts swapped by one
transpose (K M K = conj(M)).  Both kernels are found there and mapped back by
U, the package's Hermitian codec (``linalg.hermitian_decode``), to read-only
(k, d, d) stacks of Hermitian matrices, which every consumer reads with
batched products.

Both kernels come from block shift-invert subspace iteration around
sigma = 1 + 3e-6, at every channel size.  (M_h - sigma I)^{-1} is applied by a
sparse LU when the Kraus family is sparse (the rule and the cached sparse M
are the channel's, see chanstruct.channels), and otherwise by an explicit
dense inverse (its transpose for the left kernel), all in real arithmetic.
A dense M_h is built straight from the real and imaginary parts of the
Kraus stack, its diagonal is shifted in place, and it is released once
inverted, so the inverse is the only d^2 x d^2 matrix held.  A block wider
than the eigenvalue-1 multiplicity captures the whole degenerate eigenspace,
where single-vector Krylov methods under-count it, and the block is widened
until some Ritz value falls outside the cluster: that certifies the
multiplicity.  Every accepted vector q is verified through the channel
itself: |Phi(X) - X|_F for X = U q (Phi^* for the left kernel) equals
|M_h q - q|, but does not depend on how M_h was built or inverted, so
neither misconvergence nor a wrong M_h can make a vector pass.

``peripheral_spectrum`` takes all d^2 eigenvalues of the dense M_h, which are
those of M: exact for any Kraus family.  A report carries the same list at far
less cost, read off its blocks (``serialize.report_file_from_report``): each
block's own channel is irreducible, so its peripheral spectrum is the exact
p-th roots of unity for its period p, found by a walk of spans through the
cyclic subspaces and certified by residuals (``_block_eigenvalues``).  The
walk starts in one cyclic subspace, at an eigenvector of a Hermitian
combination of products of the block's Kraus operators, which is block
diagonal over them (``_cyclic_projections``); all eigenvalues of the block's
M_h are the fallback when that combination has no simple eigenvalue, the
walk does not close, or the certificate fails.  A pair of blocks of unequal
dimension has no peripheral eigenvalue, and a pair of equal dimension takes
all eigenvalues of its pair map.
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channels import (
    _apply_stack,
    _cached_superoperator,
    _enclosure_frame,
    _hermitian_transfer_matrix,
    _sandwich,
    apply,
    is_state,
)
from .errors import ArgumentError, DecompositionError
from .linalg import DEFAULT_TOL, Subspace, hermitian_decode

__all__ = [
    "FixedSpace",
    "RecurrentSplit",
    "PerronFrobeniusCertificate",
    "fixed_space",
    "cesaro_average",
    "recurrent_split",
    "peripheral_spectrum",
    "perron_frobenius_certificate",
]

_BLOCK_SEED = 1729
_MAX_BLOCK_STEPS = 50
# widest accepted multiplicity: 256, or more while the block holds no more
# entries than a dense d = 40 superoperator (so every k <= d^2 for d <= 40)
_MAX_BLOCK_ENTRIES = 1600 * 1600


@dataclass(frozen=True)
class FixedSpace:
    """Fixed points F(Phi) = {X : Phi(X) = X}.

    ``basis`` is Hilbert-Schmidt-orthonormal and consists of Hermitian
    matrices (F(Phi) is closed under X -> X^H because the channel has a
    Kraus form); ``hermitian_basis`` is the same tuple.
    """

    dim_ambient: int
    basis: tuple
    hermitian_basis: tuple

    @property
    def dimension(self):
        return len(self.basis)


@dataclass(frozen=True)
class RecurrentSplit:
    """The orthogonal split C^d = R ⊕ D.

    R is the closed span of supports of all invariant states, D = R^⊥ the
    transient part, and rho_max an invariant state supported in R, whose
    eigenvalues on the far part of R may fall below rank_tol.  rho_max and
    both frames are read-only: the channel's eigenvalue-1 solve shares them.
    """

    R: Subspace
    D: Subspace
    rho_max: np.ndarray
    warnings: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class PerronFrobeniusCertificate:
    """Spectral irreducibility certificate.

    ``simple_and_faithful`` is True iff eigenvalue 1 is simple and the
    invariant state has full rank.
    """

    eigenvalue_1_multiplicity: int
    invariant_state_rank: int
    simple_and_faithful: bool


@dataclass(frozen=True)
class _SpectralCore:
    """The eigenvalue-1 solve of a channel: Hilbert-Schmidt-orthonormal
    bases ``right`` of the fixed points and ``left`` of the adjoint's fixed
    points, as read-only (k, d, d) stacks of Hermitian matrices, and the
    recurrent split read off them."""

    right: np.ndarray
    left: np.ndarray
    split: RecurrentSplit

    @property
    def multiplicity(self):
        return len(self.right)


def _block_kernel(solve, residuals, n2, sigma, tol):
    """Orthonormal real basis of the eigenvectors of a real matrix with
    |lambda - 1| <= eig_cluster_tol, and the distance from 1 of the nearest
    Ritz value outside that cluster.

    Each step is one multi-RHS solve Y = (M_h - sigma)^{-1} X, a real
    Rayleigh-Ritz step on X^T Y with the cluster's Schur vectors Z first
    (Ritz values mu give lambda = sigma + 1/mu, well apart even for
    eigenvalues just outside the cluster), and X <- qr(Y).  The cluster basis
    qr(Y Z) is accepted once the cluster count has held for two steps and
    ``residuals(basis)``, which gives |Phi(X) - X|_F through the channel
    itself for the Hermitian matrix X of each column, is within
    eig_cluster_tol: how M_h was built or inverted cannot make a vector
    pass.  While every Ritz value is in the cluster the block doubles.
    """
    from scipy.linalg import schur

    def in_cluster(re, im):  # |sigma + 1/mu - 1| <= eig_cluster_tol
        mu = complex(re, im)
        return abs(1.0 + (sigma - 1.0) * mu) <= tol.eig_cluster_tol * abs(mu)

    def random_block(width):
        return np.linalg.qr(rng.standard_normal((n2, width)))[0]

    rng = np.random.default_rng(_BLOCK_SEED)
    cap = max(256, _MAX_BLOCK_ENTRIES // n2)
    width, last, residual = min(8, n2), -1, np.inf
    x = random_block(width)
    for step in range(1, _MAX_BLOCK_STEPS + 1):
        y = solve(x)
        # a real Schur form keeps conjugate pairs in 2 x 2 blocks, and k
        # counts both members of a pair in the cluster
        t, z, k = schur(x.T @ y, output="real", sort=in_cluster)
        if k > cap:
            raise DecompositionError(
                "fixed-space",
                f"eigenvalue-1 multiplicity exceeds {cap}; refusing to continue",
            )
        if k == width < n2:
            width = min(2 * width, n2)
            x, last = random_block(width), -1
            continue
        basis = np.linalg.qr(y @ z[:, :k])[0]
        res = max(residuals(basis), default=0.0)
        # keep iterating while the residual still halves: the rank cut on
        # rho_max and the block states need accuracy far below the tolerance
        stalled, residual = res >= 0.5 * residual, res
        if k == last and residual <= tol.eig_cluster_tol and stalled:
            mu = np.linalg.eigvals(t[k:, k:])
            gap = np.abs(1.0 + (sigma - 1.0) * mu) / np.abs(mu)
            return basis, float(gap.min(initial=np.inf))
        last = k
        x = np.linalg.qr(y)[0]
    raise DecompositionError(
        "fixed-space",
        "eigenvalue-1 subspace iteration did not converge",
        diagnostics={"steps": step, "block_width": width, "residual": float(residual)},
    )


def _hermitian_coordinates(m):
    """The real sparse matrix M_h = U^H M U = Re M + Im(M K) of a sparse
    Hermiticity-preserving superoperator M (see the module docstring); a
    dense M_h comes straight from the Kraus stack,
    ``channels._hermitian_transfer_matrix``."""
    n2 = m.shape[0]
    d = math.isqrt(n2)
    # column j d + i of M K is column i d + j of M
    return (m.real + m.imag[:, np.arange(n2).reshape(d, d).T.ravel()]).tocsc()


def _fixed_pair(ch, tol):
    """Orthonormal bases of ker(M - I) and ker(M^H - I), as (k, d, d)
    stacks of Hermitian matrices, and the distance from 1 of the nearest
    Ritz value outside the eigenvalue-1 cluster."""
    d = ch.dim
    n2 = d * d
    sigma = 1.0 + 3e-6
    m = _cached_superoperator(ch)
    if m is not None:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        shifted = _hermitian_coordinates(m) - sigma * sp.identity(n2, format="csc")
        lu = spla.splu(shifted.tocsc())
        solve_fwd, solve_adj = lu.solve, partial(lu.solve, trans="T")
    else:
        # an explicit inverse applied by matmul, in numpy's BLAS: multi-RHS
        # lu_solve calls stalled at 2 BLAS threads on small systems (n = 100,
        # 8 right-hand sides: 2.9 ms per call against 59 us at 1 thread)
        shifted = _hermitian_transfer_matrix(ch._stack)
        shifted.flat[:: n2 + 1] -= sigma
        inv = np.linalg.inv(shifted)
        solve_fwd, solve_adj = inv.__matmul__, inv.T.__matmul__
    # only the inverse (or the LU) is kept: residuals go through the channel
    del shifted

    def residuals(q, adjoint):
        x = hermitian_decode(q.T, d)
        return np.linalg.norm(_apply_stack(ch, x, adjoint) - x, axis=(1, 2))

    fwd, adj = partial(residuals, adjoint=False), partial(residuals, adjoint=True)
    right, gap_r = _block_kernel(solve_fwd, fwd, n2, sigma, tol)
    left, gap_l = _block_kernel(solve_adj, adj, n2, sigma, tol)
    if right.shape[1] == 0:
        raise DecompositionError(
            "fixed-space",
            "no eigenvalue-1 cluster found; is the channel trace preserving?",
        )
    if right.shape[1] != left.shape[1]:
        raise DecompositionError(
            "fixed-space",
            "left/right eigenvalue-1 dimensions disagree "
            f"({right.shape[1]} vs {left.shape[1]})",
        )
    return hermitian_decode(right.T, d), hermitian_decode(left.T, d), min(gap_r, gap_l)


def _spectral_core(ch, tol):
    """The eigenvalue-1 solve of ``ch`` at ``tol``, made on first use and
    kept with the channel.  Every array of it is made read-only: callers
    share it, and a write would change later answers for the channel."""
    if tol not in ch._cores:
        right, left, gap = _fixed_pair(ch, tol)
        warnings = ()
        if gap < 10.0 * tol.eig_cluster_tol:
            warnings = (
                "eigenvalue-1 cluster ill-separated "
                f"(nearest non-fixed distance {gap:.3e})",
            )
        split = _split(ch, right, tol, warnings)
        for a in (right, left, split.R.frame, split.D.frame, split.rho_max):
            a.setflags(write=False)
        ch._cores[tol] = _SpectralCore(right, left, split)
    return ch._cores[tol]


def fixed_space(ch, tol=DEFAULT_TOL):
    """The space F(Phi) of matrices fixed by the channel.

    The dimension is at least 1: a trace-preserving map in finite dimension
    always has an invariant state.
    """
    basis = tuple(_spectral_core(ch, tol).right)
    return FixedSpace(dim_ambient=ch.dim, basis=basis, hermitian_basis=basis)


def cesaro_average(ch, rho, n, tol=DEFAULT_TOL):
    """Cesaro mean (1/n) sum_{k<n} Phi^k(rho) for a state rho."""
    if int(n) < 1:
        raise ArgumentError("n must be at least 1")
    if not is_state(rho, tol):
        raise ArgumentError("rho is not a state")
    current = np.asarray(rho, dtype=complex)
    acc = current.copy()
    for _ in range(int(n) - 1):
        current = apply(ch, current)
        acc += current
    return acc / float(n)


def _split(ch, right, tol, warnings):
    """The recurrent split read off the stack ``right`` of Hermitian fixed
    points X_i: rho_max = sum_i |X_i| / tr, made exactly Hermitian, R the
    enclosure generated by its range at relative rank_tol, and D = R^perp.
    rho_max lives in R, but its eigenvalues on the far part may fall below rank_tol."""
    d = right.shape[-1]
    w, v = np.linalg.eigh(right)
    rho = np.tensordot(v * np.abs(w)[:, None, :], v.conj(), ([0, 2], [0, 2]))
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    w, v = np.linalg.eigh(rho)
    mask = w >= tol.rank_tol * w[-1]
    r = Subspace(d, _enclosure_frame(ch, v[:, mask], tol))
    q = Subspace(d, v[:, ~mask]) if r.dimension == mask.sum() else r.orthocomplement()
    return RecurrentSplit(R=r, D=q, rho_max=rho, warnings=warnings)


def recurrent_split(ch, tol=DEFAULT_TOL):
    """Split C^d into the recurrent subspace R and the transient part D.

    rho_max is the invariant state sum_i |X_i| / tr over the Hermitian
    fixed-point basis X_i (see the module docstring), PSD by construction.
    R is the enclosure generated by its range at rank_tol, and D = R^perp.
    Every invariant state, rho_max too, is supported in R; rho_max's
    eigenvalues on the far part of R may fall below rank_tol.  Made once.
    """
    return _spectral_core(ch, tol).split


def peripheral_spectrum(ch, tol=DEFAULT_TOL):
    """Eigenvalues of the superoperator with |lambda| >= 1 - eig_cluster_tol.

    Sorted by argument, with multiplicity, from all d^2 eigenvalues of the
    real d^2 x d^2 matrix M_h, unitarily similar to the superoperator: exact
    for any Kraus family, at O(d^6) cost.  A sparse family takes M_h from
    its cached sparse superoperator.  For a large trace-preserving channel
    read its report's ``peripheral_spectrum``.
    """
    m = _cached_superoperator(ch)
    if m is None:
        h = _hermitian_transfer_matrix(ch._stack)
    else:
        h = _hermitian_coordinates(m).toarray()
    return _peripheral(np.linalg.eigvals(h), tol)


def _peripheral(eigenvalues, tol):
    """The eigenvalues with |lambda| >= 1 - eig_cluster_tol, sorted by
    argument in (-pi, pi].  An argument within eig_cluster_tol of -pi counts
    as pi, so -1 sorts last whatever the sign of its rounded imaginary part."""

    def key(z):
        angle = cmath.phase(z)
        if angle < tol.eig_cluster_tol - math.pi:
            angle = math.pi
        return (angle, z.real, z.imag)

    kept = [complex(z) for z in eigenvalues if abs(z) >= 1.0 - tol.eig_cluster_tol]
    return sorted(kept, key=key)


def _cyclic_projections(stack, tol):
    """The cyclic projections of an irreducible channel with Kraus stack
    ``stack`` (n, m, m), in the order the Kraus operators visit them; None
    when the walk cannot start or does not close.

    The walk starts from an eigenvector of the most isolated eigenvalue of
    H = A^H B + B^H A, A = sum_a alpha_a V_a and B = sum_a beta_a V_a, with
    complex Gaussian alpha, beta from a seed stream with its own spawn key.
    Every V_a maps P_k into P_(k+1), so H is block diagonal over the cyclic
    projections, and an eigenvalue that lies farther than
    sqrt(subspace_tol) |H| from every other one is simple, with its
    eigenvector in one of them.  Each step replaces the span S by the range
    of Phi(P_S) = Y Y^H, Y = [C_1 F ... C_n F] for the frame F of S, keeping
    the eigenvectors of this m x m Gram matrix at eigenvalues >=
    eig_cluster_tol.  A span that fills C^m gives period 1; otherwise the
    spans repeat once they saturate (to subspace_tol, max-abs on the
    projectors), and the repeat distance is the period.  The walk gives up
    after 3m steps.
    """
    n, m, _ = stack.shape
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(2,)))
    coef = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    a, b = (coef @ stack.reshape(n, m * m)).reshape(2, m, m)
    h = a.conj().T @ b
    w, v = np.linalg.eigh(h + h.conj().T)
    gaps = np.diff(w)
    isolation = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    start = int(np.argmax(isolation))
    if isolation[start] <= math.sqrt(tol.subspace_tol) * np.abs(w).max():
        return None
    flat = stack.reshape(n * m, m)
    frame = v[:, start : start + 1]
    seen = []  # (rank, projector) of the earlier spans, the latest last
    for _ in range(3 * m):
        rank, proj = frame.shape[1], frame @ frame.conj().T
        if rank == m:
            return [proj]
        for q in range(1, min(len(seen), m) + 1):
            old_rank, old = seen[-q]
            if old_rank == rank and np.abs(old - proj).max() <= tol.subspace_tol:
                return [p for _, p in seen[-q:]]
        seen.append((rank, proj))
        images = (flat @ frame).reshape(n, m, -1).transpose(1, 0, 2).reshape(m, -1)
        gram_w, gram_v = np.linalg.eigh(images @ images.conj().T)
        frame = gram_v[:, gram_w >= tol.eig_cluster_tol]
    return None


def _block_eigenvalues(stack, tol):
    """Eigenvalues of an irreducible channel that include its whole
    peripheral spectrum: the p-th roots of unity, each simple, for the
    period p of ``_cyclic_projections`` (Evans-Hoegh-Krohn), else all m^2
    eigenvalues of its real matrix M_h.  The period is certified by
    residuals: the cyclic projections P_k must sum to I, and
    u = sum_k omega^k P_k, omega = exp(2 pi i / p), must satisfy
    |Phi^*(u) - omega u|_max <= subspace_tol."""
    projs = _cyclic_projections(stack, tol)
    if projs is not None:
        p = len(projs)
        omega = np.exp(2j * np.pi / p)
        u = sum(omega**k * proj for k, proj in enumerate(projs))
        image = _sandwich(stack.conj().transpose(0, 2, 1), stack, u[None])[0]
        residuals = (sum(projs) - np.eye(stack.shape[1]), image - omega * u)
        if max(np.abs(r).max() for r in residuals) <= tol.subspace_tol:
            return np.exp(2j * np.pi * np.arange(p) / p)
    return np.linalg.eigvals(_hermitian_transfer_matrix(stack))


def perron_frobenius_certificate(ch, tol=DEFAULT_TOL):
    """Multiplicity of eigenvalue 1 and the rank of the maximal invariant
    state, which is dim R of :func:`recurrent_split`."""
    multiplicity = _spectral_core(ch, tol).multiplicity
    rank = recurrent_split(ch, tol).R.dimension
    return PerronFrobeniusCertificate(
        eigenvalue_1_multiplicity=multiplicity,
        invariant_state_rank=rank,
        simple_and_faithful=bool(multiplicity == 1 and rank == ch.dim),
    )
