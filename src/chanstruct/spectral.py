"""Fixed points and the recurrent/transient decomposition.

The central computation, made once per channel and tolerance, is one LU
factorization of M_h - sigma I, sigma = 1 + eig_cluster_tol, for the
channel's superoperator M in real Hermitian coordinates (below), held only
inside ``_spectral_core``, which frees it once it has made the five fixed
points the pipeline reads.  The spectral projection Pi_1 onto the fixed
points (the Cesaro limit of Phi^n) is applied to one Hermitian matrix by
the steps x <- (1 - sigma) (M_h - sigma I)^{-1} x, which keep every fixed
vector and multiply an eigenvector of eigenvalue lambda by
theta = (sigma - 1) / (sigma - lambda); the transposed solves apply the
adjoint's Pi_1^* (``_project``).  They stop once the residual through the
channel itself, |Phi(X) - X|_F (Phi^* for Pi_1^*), is within
eig_cluster_tol |X|_F and no longer halves, so how M_h was built or
factored cannot make a vector pass.  The residual is iterated
by the same steps: the ratio of successive residuals estimates the largest
theta outside the cluster, and (sigma - 1)(1/theta - 1) the distance from 1
of the nearest non-fixed eigenvalue, which below 10 eig_cluster_tol gives
the split an "ill-separated" warning.  The solve yields rho_max = Pi_1(I/d),
an invariant state whose support is all of the recurrent subspace R (R is
the enclosure its range generates, D = R^perp); for Hermitian references
G, the adjoint's fixed points Pi_1^*(G), which compressed to R are
elements of the fixed-point algebra there (Baumgartner-Narnhofer, Rev.
Math. Phys. 24 (2012); see chanstruct.structure): two Gaussian probes and
the first candidate of the enclosure split, G = diag(1, ..., d) / d; and
Pi_1(G) for a Gaussian G, which a decomposition's blocks must re-assemble.
No basis of either fixed space is computed: the structure theorem gives
both from the blocks (Carbone-Pautrat, arXiv:1507.08404), so
``fixed_space`` and ``perron_frobenius_certificate`` are assembled from
``decompose``.

A CPTP map preserves Hermiticity, so with K the vec swap vec(X) -> vec(X^T)
the unitary U = ((1+i) I + (1-i) K) / 2, which maps a real vector vec(Y) to
the vec of the Hermitian matrix sym Y + i antisym Y (the package's
Hermitian codec, ``linalg.hermitian_decode``), makes the superoperator the
real d^2 x d^2 matrix

    M_h = U^H M U = Re M + Im(M K),

whose columns are those of M with the imaginary parts swapped by one
transpose (K M K = conj(M)).  M_h - sigma I is factored by a sparse LU when
the Kraus family is sparse (the rule and the cached sparse M are the
channel's, see chanstruct.channels), and otherwise by a dense LU.  A dense
M_h is built straight from the real and imaginary parts of the Kraus stack
and its diagonal shifted in place; the LU overwrites its transposed,
Fortran-ordered view, so it is the only d^2 x d^2 matrix held.

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
from .linalg import DEFAULT_TOL, Subspace, hermitian_decode, hermitian_encode

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
    transient part, and rho_max = Pi_1(I/d) an invariant state supported in
    R, whose eigenvalues on the far part of R may fall below rank_tol.
    rho_max and both frames are read-only: the channel's eigenvalue-1 solve
    shares them.
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
    """The fixed points that the eigenvalue-1 solve of a channel at one
    tolerance made, its factorization freed: the split read off
    rho_max = Pi_1(I/d); ``probes``, a (2, d, d) stack of normalized
    generic fixed points Pi_1^*(G) of the adjoint; ``candidate``,
    Pi_1^*(diag(1, ..., d) / d); ``witness``, Pi_1(G) for a Gaussian G;
    and ``gap``, the estimated distance from 1 of the nearest non-fixed
    eigenvalue."""

    split: RecurrentSplit
    probes: np.ndarray
    candidate: np.ndarray
    witness: np.ndarray
    gap: float


def _hermitian_coordinates(m):
    """The real sparse matrix M_h = U^H M U = Re M + Im(M K) of a sparse
    Hermiticity-preserving superoperator M (see the module docstring); a
    dense M_h comes straight from the Kraus stack,
    ``channels._hermitian_transfer_matrix``."""
    n2 = m.shape[0]
    d = math.isqrt(n2)
    # column j d + i of M K is column i d + j of M
    return (m.real + m.imag[:, np.arange(n2).reshape(d, d).T.ravel()]).tocsc()


def _factor(ch, sigma):
    """``solve(b, adjoint)`` for one real right-hand side b, from one LU of
    M_h - sigma I (see the module docstring)."""
    n2 = ch.dim**2
    m = _cached_superoperator(ch)
    if m is not None:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        shifted = _hermitian_coordinates(m) - sigma * sp.identity(n2, format="csc")
        lu = spla.splu(shifted.tocsc())
        return lambda b, adjoint: lu.solve(b, trans="T" if adjoint else "N")
    import scipy.linalg as sla

    shifted = _hermitian_transfer_matrix(ch._stack)
    shifted.flat[:: n2 + 1] -= sigma
    # the factors are those of the transpose, so the plain solve is trans=1
    lu = sla.lu_factor(shifted.T, overwrite_a=True, check_finite=False)
    return lambda b, adjoint: sla.lu_solve(lu, b, 1 - adjoint, check_finite=False)


def _distance(theta, tol):
    """(sigma - 1)(1/theta - 1), the distance from 1 of the eigenvalue that a
    step contracts by theta."""
    if not theta:
        return math.inf
    return max(tol.eig_cluster_tol * (1.0 / theta - 1.0), 0.0)


def _project(ch, solve, x, adjoint, tol):
    """Pi_1(X), or Pi_1^*(X) when ``adjoint``, of a Hermitian d x d matrix X
    (see the module docstring), and the largest ratio theta of successive
    residuals r = |Phi(X) - X|_F / |X|_F (Phi^* when ``adjoint``) above
    100 eps, which rounding alone (a few eps) does not reach.  The steps go
    on while r halves, and the result is accepted when r <= eig_cluster_tol."""
    d, sigma = ch.dim, 1.0 + tol.eig_cluster_tol
    v, res, theta, solves = hermitian_encode(x), math.inf, 0.0, 0
    while True:
        v = (1.0 - sigma) * solve(v, adjoint)
        y, solves = hermitian_decode(v, d), solves + 1
        new = np.linalg.norm(_apply_stack(ch, y[None], adjoint)[0] - y)
        new /= np.linalg.norm(v)
        if new > 100.0 * np.finfo(float).eps:
            theta = max(theta, new / res)
        halving, res = new < 0.5 * res, new
        if not halving:
            break
    if not res <= tol.eig_cluster_tol:
        raise DecompositionError(
            "fixed-space",
            "no eigenvalue-1 cluster found; is the channel trace preserving? "
            f"(residual {res:.3e} after {solves} solves)",
            diagnostics={
                "solves": solves,
                "residual": float(res),
                "nearest_non_fixed_distance": _distance(theta, tol),
            },
        )
    return y, theta


def _gaussian_hermitian(rng, d):
    """A Hermitian Gaussian d x d reference (Z + Z^H) / 2.  Z is complex: a
    real symmetric reference misses every imaginary antisymmetric element."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


def _spectral_core(ch, tol):
    """The five fixed points of ``ch`` at ``tol`` that the pipeline reads,
    made on first use from one factorization, which is freed on return, and
    kept with the channel read-only: callers share them, and a write would
    change later answers for the channel."""
    if tol not in ch._cores:
        d = ch.dim
        solve = _factor(ch, 1.0 + tol.eig_cluster_tol)
        rho = _project(ch, solve, np.eye(d) / d, False, tol)[0]
        # the first probe is the linking element of chanstruct.structure
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        refs = [_gaussian_hermitian(rng, d) for _ in range(2)]
        probes, thetas = zip(*(_project(ch, solve, g, True, tol) for g in refs))
        probes = np.stack(probes) / np.linalg.norm(probes, axis=(1, 2))[:, None, None]
        gap = _distance(max(thetas), tol)
        warnings = ()
        if gap < 10.0 * tol.eig_cluster_tol:
            warnings = (
                "eigenvalue-1 cluster ill-separated "
                f"(estimated nearest non-fixed distance {gap:.3e})",
            )
        split = _split(ch, rho, tol, warnings)
        candidate = _project(ch, solve, np.diag(np.arange(1, d + 1) / d), True, tol)[0]
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(3,)))
        witness = _project(ch, solve, _gaussian_hermitian(rng, d), False, tol)[0]
        kept = (probes, candidate, witness, split.R.frame, split.D.frame, split.rho_max)
        for a in kept:
            a.setflags(write=False)
        ch._cores[tol] = _SpectralCore(split, probes, candidate, witness, gap)
    return ch._cores[tol]


def fixed_space(ch, tol=DEFAULT_TOL):
    """The space F(Phi) of matrices fixed by the channel.

    Assembled from the blocks of :func:`structure.decompose`, so it fails
    wherever that fails: by the structure theorem it is spanned by the
    block states transported between copies, Q_g rho Q_h^H.
    """
    from .structure import _block_basis, decompose

    basis = tuple(_block_basis(decompose(ch, tol=tol), states=True))
    for x in basis:
        x.setflags(write=False)
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


def _split(ch, rho, tol, warnings):
    """The split read off rho = Pi_1(I/d): rho_max = rho / tr, made exactly
    Hermitian, R the enclosure generated by its range at relative rank_tol,
    and D = R^perp."""
    d = rho.shape[0]
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    w, v = np.linalg.eigh(rho)
    mask = w >= tol.rank_tol * w[-1]
    r = Subspace(d, _enclosure_frame(ch, v[:, mask], tol))
    q = Subspace(d, v[:, ~mask]) if r.dimension == mask.sum() else r.orthocomplement()
    return RecurrentSplit(R=r, D=q, rho_max=rho, warnings=warnings)


def recurrent_split(ch, tol=DEFAULT_TOL):
    """Split C^d into the recurrent subspace R and the transient part D.

    rho_max is the invariant state Pi_1(I/d), the Cesaro limit of I/d (see
    the module docstring), whose support is all of R.  R is the enclosure
    generated by its range at rank_tol, and D = R^perp.  rho_max's
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
    state, which is dim R of :func:`recurrent_split`.  The multiplicity is
    n_alpha + sum_b n_b^2, assembled from the blocks of
    :func:`structure.decompose`, so this fails wherever ``decompose`` fails."""
    from .structure import _fixed_dimension, decompose

    report = decompose(ch, tol=tol)
    multiplicity = _fixed_dimension(report)
    rank = report.R.dimension
    return PerronFrobeniusCertificate(
        eigenvalue_1_multiplicity=multiplicity,
        invariant_state_rank=rank,
        simple_and_faithful=bool(multiplicity == 1 and rank == ch.dim),
    )
