"""Fixed points and the recurrent/transient decomposition.

The central computation, made once per channel and tolerance by
``_spectral_core``, applies the spectral projection Pi_1 onto the fixed
points (the Cesaro limit of Phi^n), or the adjoint's Pi_1^*, to the four
Hermitian matrices that ``_SpectralCore`` lists.  rho_max = Pi_1(I/d) has
all of the recurrent subspace R as its support (R is the enclosure its range
generates, D = R^perp), and adjoint fixed points compressed to R are
elements of the fixed-point algebra there (Baumgartner-Narnhofer, Rev. Math.
Phys. 24 (2012); see chanstruct.structure).  No basis of either fixed space
is computed: the structure theorem gives both from the blocks
(Carbone-Pautrat, arXiv:1507.08404), so ``fixed_space`` is assembled from
``decompose``, and ``structure.is_irreducible`` reads its report.

The solve alone needs a trace-preserving channel, as the structure theorem
needs a unital adjoint: ``_spectral_core`` refuses a channel whose Phi^*(I) = I
fails the rule of every fixed point, ``validate``'s too (``channels._tp_defect``).

Pi_1 works on real coordinates: a CPTP map preserves Hermiticity, so with K
the vec swap vec(X) -> vec(X^T), the unitary U = ((1+i) I + (1-i) K) / 2 (the
package's Hermitian codec, ``linalg.hermitian_decode``) makes the
superoperator the real d^2 x d^2 matrix M_h = U^H M U = Re M + Im(M K).  A
family off the shift-invert routes below forms no such matrix: ``_filter``
returns u = x - e, e the restarted GMRES solution of the singular consistent
system (I - Phi) e = (I - Phi) x (Saad-Schultz 1986; Brown-Walker, SIAM J.
Matrix Anal. Appl. 18 (1997)), so u = p(Phi) x for the p, p(1) = 1, that
minimizes |Phi(u) - u|, with Phi applied through ``channels._apply_stack``.  A Ritz
value mu of I - Phi within eig_cluster_tol of 0 counts as fixed, so u is
corrected only along the Ritz vectors outside that cluster, and the smallest
Ritz |mu| above rounding estimates the distance from 1 of the nearest
non-fixed eigenvalue.  ``_spectral_core`` makes three ``_project`` calls,
each on one stack of starts: [G_0] through Phi^*, [I/d] through Phi and
[G_1, diag(1, ..., d) / d] through Phi^*.  Only the first runs the filter in
full.  Its GMRES steps leave u = p(I - Phi) x for a product p of factors
(1 - z / theta), theta the harmonic Ritz values of each step, and p is small
on the non-fixed spectrum of Phi^* and so of Phi (M_h is real).  The other
two stacks are multiplied by p first (``_replay``), without the roots
|theta| < sqrt(eig_cluster_tol), whose factors would amplify the rest of the
spectrum (``_leja``); a short filter run then finishes each row.  Near the
identity the product can grow a row until rounding swamps its fixed part,
so a row keeps its replay only when it shrank the defect, |(I - Phi) w| <=
|(I - Phi) v|, not the norm (Pi_1 is oblique, |Pi_1(I/d)|_F > |I/d|_F);
otherwise it takes the full filter.  Fixed points lie in the range of Phi, so
Pi_1 = E_T Pi_T E_T^T M_h, T the coordinates that Phi writes and Pi_T the
eigenvalue-1 projection of M_h[T, T]: a sparse family's ``_project`` enters T
once, with (M_h x)_T (x_T for Pi_1^*), takes every step on T, and leaves once,
with E_T z (M_h^T E_T z).  Two routes take the steps z <- (1 - sigma)
(M_h[T, T] - sigma I)^{-1} z, sigma = 1 + eig_cluster_tol, from one inverse
(``_factor``), |T| <= ``_INVERSE_ORDER``.  A step multiplies an eigenvector of
eigenvalue lambda by theta = (sigma - 1) / (sigma - lambda), and its residual
(M_h[T, T] - I) z is (sigma - 1)(z - z_prev): the steps apply no Phi and run
while it halves, and the largest ratio theta of successive residuals gives the
distance (sigma - 1)(1/theta - 1).  On the route "inverse on T" a sparse family
(the rule is the channel's) reads T, the union over operators of rows(V_a)^2
(9 (N + 1) for the open quantum walk on N + 1 sites, d for a Markov chain),
off a bincount of its COO rows (numpy 2's np.unique would load numpy.ma,
which no path imports); above the bound it takes the "filter" on T.  On the
route "inverse on all coordinates" a dense family whose filter run stalls (of
near-unitary channels) takes T all d^2, so d <= 64; a dense family's filter
has no T.  ``_factor`` returns the route (kind, orders, T, step), and
``_SpectralCore.route`` its (kind, orders).  Either way a vector is accepted
only when its residual through the channel itself, |Phi(X) - X|_F (Phi^* for
Pi_1^*), is within eig_cluster_tol |X|_F.  The distance of the first probe's
projection is the channel's gap, and a gap below 10 eig_cluster_tol gives the
split an "ill-separated" warning.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    _apply_stack,
    _cached_superoperator,
    _enclosure_frame,
    _hermitian_block,
    _hermitian_transfer_matrix,
    _kraus_gram,
    _sandwich,
    _tp_defect,
)
from .errors import DecompositionError
from .linalg import DEFAULT_TOL, Subspace, hermitian_decode, hermitian_encode
from .linalg import _canonical, _check_tolerance

__all__ = [
    "FixedSpace",
    "RecurrentSplit",
    "fixed_space",
    "recurrent_split",
    "peripheral_spectrum",
]


@dataclass(frozen=True)
class FixedSpace:
    """Fixed points F(Phi) = {X : Phi(X) = X}.

    ``hermitian_basis`` is Hilbert-Schmidt-orthonormal and consists of
    Hermitian matrices (F(Phi) is closed under X -> X^H because the channel
    has a Kraus form).
    """

    dim_ambient: int
    hermitian_basis: tuple

    @property
    def dimension(self):
        return len(self.hermitian_basis)


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
class _SpectralCore:
    """The fixed points that the eigenvalue-1 solve of a channel at one
    tolerance made, with no factorization kept: the split read off
    rho_max = Pi_1(I/d); ``probes``, a (2, d, d) stack of normalized
    generic fixed points Pi_1^*(G) of the adjoint; ``candidate``,
    Pi_1^*(diag(1, ..., d) / d); ``gap``, the estimated distance from 1
    of the nearest non-fixed eigenvalue, from the projection of the first
    probe; and ``route``, the (kind, orders) of the ``_factor`` route that
    made them, without its T and step."""

    split: RecurrentSplit
    probes: np.ndarray
    candidate: np.ndarray
    gap: float
    route: tuple


_RESTART, _BUDGET = 100, 2000  # Arnoldi steps per cycle, applications of Phi
_INVERSE_ORDER = 4096  # the bound on |T|: the inverse holds about four |T| x |T| arrays


class _Stalled(Exception):
    """A filter run with d^2 <= ``_INVERSE_ORDER`` too slow to reach its floor in ``_BUDGET``."""


def _image(ch, b, adjoint, t=None):
    """M_h b (M_h^T b when ``adjoint``) for real coordinates b, one vector or a
    (k, d^2) stack, or (M_h E_T b)_T for b on the coordinates ``t``: Phi(Z^T) =
    Phi(Z)^H for a real Z, so with Z = b read row by row and W = Phi(Z),
    encode(Phi(decode(b))) is Re W + Im W^T."""
    d = ch.dim
    if t is not None:  # E_T b
        b, z = np.zeros(b.shape[:-1] + (d * d,)), b
        b[..., t] = z
    w = _apply_stack(ch, b.reshape(-1, d, d), adjoint)
    w = (w.real + w.imag.swapaxes(-1, -2)).reshape(b.shape)
    return w if t is None else w[..., t]


def _factor(ch, tol, stalled=False):
    """The route ``_project`` takes, as (kind, orders, T, step), orders the
    order of each inverse taken and the step on coordinates z on T, one
    vector or a (k, |T|) stack.  "inverse on all coordinates" (a dense family
    whose filter run ``stalled``, T all d^2) and "inverse on T" (a sparse
    family, |T| <= ``_INVERSE_ORDER``) take (|T|,) and the step z -> z (1 -
    sigma) (M_h[T, T] - sigma I)^-1, transposed unless ``adjoint``.  Otherwise
    "filter", (), and the defect z - (M_h E_T z)_T (M_h^T) of ``_filter`` and
    ``_replay``, with T None for a dense family.  Solving at sigma - 1 =
    eig_cluster_tol, the steps reach a fixed point off Pi_1 b inside the
    eigenvalue-1 space by about eps / eig_cluster_tol relative.  Reports do
    not depend on it: the error is a fixed point, and the pipeline uses only
    fixed points and normalizes every state."""
    d, sigma = ch.dim, 1.0 + tol.eig_cluster_tol
    if stalled:
        kind, t = "inverse on all coordinates", np.arange(d * d)
        inverse = _hermitian_transfer_matrix(ch._stack)
    else:
        rows = _cached_superoperator(ch)[0] if ch._sparse else None
        t = None if rows is None else np.flatnonzero(np.bincount(rows, minlength=d * d))
        if t is None or t.size > _INVERSE_ORDER:
            return "filter", (), t, lambda z, adjoint: z - _image(ch, z, adjoint, t)
        kind, inverse = "inverse on T", _hermitian_block(ch, t)
    inverse.flat[:: t.size + 1] -= sigma
    inverse = np.linalg.inv(inverse)
    inverse *= 1.0 - sigma
    return kind, (t.size,), t, lambda z, adjoint: z @ (inverse if adjoint else inverse.T)


def _filter(defect, x, tol):
    """Pi_1 x by restarted GMRES on the defect A = I - Phi (see the module
    docstring): u, the applications of A, the smallest Ritz |mu| above
    rounding, whether the residual reached 1e-14 |x| within ``_BUDGET``, and
    the roots of the residual polynomials of the GMRES steps taken, whose
    product p has u = p(A) x up to the least-squares steps (see ``_replay``).
    Raises ``_Stalled`` when a run with d^2 <= ``_INVERSE_ORDER`` stalls (see below)."""
    floor, rounding = 1e-14 * np.linalg.norm(x), 100.0 * np.finfo(float).eps
    u, r, count, distance, roots, marks = x.copy(), defect(x), 1, math.inf, [], []
    while np.linalg.norm(r) > floor and count < _BUDGET - 1:
        # stalled: off course, over two cycles, to shrink by 1e-14 in the budget
        marks.append(np.linalg.norm(r))
        stalled = len(marks) > 2 and marks[-1] > 1e-14 ** (2 * _RESTART / _BUDGET) * marks[-3]
        if stalled and x.size <= _INVERSE_ORDER:
            raise _Stalled
        m, beta = min(_RESTART, x.size, _BUDGET - count - 1), np.linalg.norm(r)
        basis, hess, tri = np.zeros((m + 1, x.size)), np.zeros((m + 1, m)), np.eye(m)
        g, rotations, basis[0] = [beta] + [0.0] * m, [], r / beta
        for k in range(1, m + 1):
            w = defect(basis[k - 1])
            for _ in range(2):  # classical Gram-Schmidt, twice
                h = basis[:k] @ w
                w -= h @ basis[:k]
                hess[:k, k - 1] += h
            hess[k, k - 1] = np.linalg.norm(w)
            col = hess[: k + 1, k - 1].tolist()  # the Givens-rotated column
            for i, (c, s) in enumerate(rotations):
                a, b = col[i], col[i + 1]
                col[i], col[i + 1] = c * a + s * b, c * b - s * a
            norm = math.hypot(col[-2], col[-1]) or 1.0
            rotations.append((col[-2] / norm, col[-1] / norm))
            c, s = rotations[-1]
            tri[:k, k - 1] = col[:-2] + [norm]
            g[k - 1 : k + 1] = c * g[k - 1], -s * g[k - 1]
            if abs(g[k]) <= floor or k == m:
                break
            basis[k] = w / hess[k, k - 1]
        count += k
        mu = np.abs(np.linalg.eigvals(hess[:k, :k]))
        distance = min([distance, *mu[mu > rounding].tolist()])
        if (mu > tol.eig_cluster_tol).all():  # the GMRES step, R y = g
            y = np.linalg.solve(tri[:k, :k], g[:k])
            # its residual polynomial vanishes at the harmonic Ritz values,
            # eig(H_k + h_(k+1,k)^2 H_k^-T e_k e_k^T)
            harmonic = hess[:k, :k].copy()
            harmonic[:, k - 1] += hess[k, k - 1] ** 2 * np.linalg.solve(
                harmonic.T, np.eye(k)[k - 1]
            )
            roots.extend(np.linalg.eigvals(harmonic).tolist())
        else:  # least squares along the Ritz vectors outside the cluster
            mu, vecs = np.linalg.eig(hess[:k, :k])
            q = np.linalg.qr(vecs[:, np.abs(mu) > tol.eig_cluster_tol])[0]
            y = (q @ np.linalg.lstsq(tri[:k, :k] @ q, g[:k], rcond=None)[0]).real
        u -= y @ basis[:k]
        if abs(g[k]) <= floor:
            return u, count, distance, True, roots
        r, count = defect(u), count + 1
    return u, count, distance, np.linalg.norm(r) <= floor, roots


def _residual(ch, v, adjoint):
    """|Phi(X) - X|_F / |X|_F (Phi^* if ``adjoint``; inf at X = 0), X = decode(v)."""
    norm = np.linalg.norm(v)
    return np.linalg.norm(_image(ch, v, adjoint) - v) / norm if norm else math.inf


def _project(ch, route, starts, adjoint, tol, roots=()):
    """Pi_1, or Pi_1^* when ``adjoint``, of each Hermitian start, a (k, d, d)
    stack, on a ``_factor`` route, in and out of T once (module docstring),
    after a ``_replay`` of ``roots`` that each row keeps if it shrank its
    defect; the least estimated distance from 1 of a non-fixed eigenvalue; the
    ``_filter`` runs' roots in ``_leja`` order.  A failure counts the replay and the guard."""
    kind, _, t, step = route
    v = hermitian_encode(np.stack(starts))
    if t is not None:  # (M_h x)_T, or x_T for Pi_1^*
        v = (v if adjoint else _image(ch, v, False))[:, t]
    w, replayed = _replay(step, roots, v, adjoint)
    if roots:  # the guard: one application of the defect to w, one to v
        after, before = (np.linalg.norm(step(x, adjoint), axis=1) for x in (w, v))
        v, replayed = np.where((after <= before)[:, None], w, v), replayed + 2
    tau, fixed, gap, found = tol.eig_cluster_tol, [], math.inf, []
    for u in v:
        converged, count = True, replayed
        if kind != "filter":
            res, theta, halving, unit = math.inf, 0.0, True, "solves"
            while halving:
                u, prev = step(u, adjoint), u
                # (M_h[T, T] - I) u = tau (u - prev), as (M_h[T, T] - sigma I) u = -tau prev
                new = tau * np.linalg.norm(u - prev) / (np.linalg.norm(u) or math.inf)
                if new > 100.0 * np.finfo(float).eps:  # above what rounding reaches
                    theta = max(theta, new / res)
                halving, res, count = new < 0.5 * res, new, count + 1
            distance = max(tau * (1.0 / theta - 1.0), 0.0) if theta else math.inf
        else:
            u, applied, distance, converged, run = _filter(lambda b: step(b, adjoint), u, tol)
            unit, count = "applications", count + applied
            found += run
        if t is not None:  # E_T u, or M_h^T E_T u for Pi_1^*
            u = np.bincount(t, u, ch.dim**2)
            u = _image(ch, u, True) if adjoint else u
        res = _residual(ch, u, adjoint)
        if not (converged and res <= tau):
            raise DecompositionError(
                "fixed-space",
                f"no eigenvalue-1 cluster found (residual {res:.3e} after {count} {unit}; "
                f"estimated nearest non-fixed distance {distance:.3e})",
                diagnostics={
                    unit: count,
                    "residual": float(res),
                    "nearest_non_fixed_distance": distance,
                },
            )
        fixed.append(u)
        gap = min(gap, distance)
    return hermitian_decode(np.stack(fixed), ch.dim), gap, _leja(found, tol)


def _leja(roots, tol):
    """The ``roots`` theta with |theta| >= sqrt(eig_cluster_tol), one of each
    conjugate pair, in Leja order: the largest first, then each maximizing
    the product of its distances to the roots taken, a pair counting twice
    (Loe-Morgan, Numer. Linear Algebra Appl. 29 (2022)).  A factor
    (1 - z / theta) of a root near 0 would amplify the rest of the spectrum
    by up to 2 / |theta|, so the slow modes of the roots below the cut are
    left to the ``_filter`` run that follows the replay."""
    t = np.array(roots, dtype=complex)
    t = t[(np.abs(t) >= math.sqrt(tol.eig_cluster_tol)) & (t.imag >= 0.0)]
    tiny = np.finfo(float).tiny
    # gain[i, j]: the log distance from t_i to t_j, and to its conjugate
    gain = np.log(np.maximum(np.abs(t[:, None] - t), tiny))
    pairs = np.log(np.maximum(np.abs(t[:, None] - t.conj()), tiny))
    gain += np.where(t.imag > 0.0, pairs, 0.0)
    order, score = [], np.abs(t)
    for _ in range(t.size):
        j = int(np.argmax(score))
        score = gain[:, j] + (score if order else 0.0)
        score[j] = -np.inf
        order.append(t[j])
    return order


def _replay(solve, roots, v, adjoint):
    """p(A) v for each row of the stack v, A the defect of ``solve``, and
    the applications of A made: p is the product of
    (1 - z / theta) over the roots in the order ``_leja`` gives, a root
    with its conjugate as one real quadratic factor.  Every factor is 1 at
    z = 0, so Pi_1 v is unchanged."""
    count = 0
    for theta in roots:
        a, count = solve(v, adjoint), count + 1
        if theta.imag == 0.0:
            v = v - a / theta.real
        else:
            size = abs(theta) ** 2
            v = v - (2.0 * theta.real / size) * a + solve(a, adjoint) / size
            count += 1
    return v, count


def _gaussian_hermitian(rng, d):
    """A Hermitian Gaussian d x d reference (Z + Z^H) / 2.  Z is complex: a
    real symmetric reference misses every imaginary antisymmetric element."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


def _spectral_core(ch, tol):
    """The four fixed points of ``ch`` at ``tol`` that the pipeline reads,
    made on first use from one ``_factor`` (two when a filter run stalls),
    freed on return, and kept with the channel read-only: callers share them,
    and a write would change later answers for the channel."""
    _check_tolerance(tol)
    if tol not in ch._cores:
        d = ch.dim
        unital = _tp_defect(_kraus_gram(ch._rows))
        if unital > tol.eig_cluster_tol:
            raise DecompositionError(
                "fixed-space",
                "the channel is not trace preserving "
                f"(|Phi^*(I) - I|_F / |I|_F = {unital:.3e})",
                diagnostics={"residual": float(unital)},
            )
        route = _factor(ch, tol)
        while True:  # a stalled filter run takes the inverse on all coordinates
            try:
                # the first probe is the linking element of chanstruct.structure;
                # its run alone builds a Krylov space, and the other three starts
                # replay its residual polynomial (Phi and Phi^* share their spectrum)
                rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
                refs = [_gaussian_hermitian(rng, d) for _ in range(2)]
                (first,), gap, roots = _project(ch, route, refs[:1], True, tol)
                (rho,), _, _ = _project(ch, route, [np.eye(d) / d], False, tol, roots)
                starts = [refs[1], np.diag(np.arange(1, d + 1) / d)]
                (second, candidate), _, _ = _project(ch, route, starts, True, tol, roots)
                break
            except _Stalled:  # all four projections again, from one inverse
                route = _factor(ch, tol, stalled=True)
        warnings = ()
        if gap < 10.0 * tol.eig_cluster_tol:
            warnings = (
                "eigenvalue-1 cluster ill-separated "
                f"(estimated nearest non-fixed distance {gap:.3e})",
            )
        probes = np.stack([first, second])
        probes /= np.linalg.norm(probes, axis=(1, 2))[:, None, None]
        split = _split(ch, rho, tol, warnings)
        for a in (probes, candidate, split.R.frame, split.D.frame, split.rho_max):
            a.setflags(write=False)
        ch._cores[tol] = _SpectralCore(split, probes, candidate, gap, route[:2])
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
    return FixedSpace(dim_ambient=ch.dim, hermitian_basis=basis)


def _split(ch, rho, tol, warnings):
    """The split read off rho = Pi_1(I/d), exactly Hermitian (``hermitian_decode``):
    rho_max = rho / tr, R the enclosure generated by its range at relative
    rank_tol, and D = R^perp, both in their canonical frames."""
    d = rho.shape[0]
    rho = rho / np.trace(rho).real
    w, v = np.linalg.eigh(rho)
    mask = w >= tol.rank_tol * w[-1]
    r = Subspace(d, _canonical(_enclosure_frame(ch, v[:, mask], tol)))
    q = Subspace(d, _canonical(r.orthocomplement().frame))
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
    for any Kraus family, at O(d^6) cost; a sparse family writes M_h from its
    cached COO triples.  A report's ``peripheral_spectrum`` is the same list,
    read off its blocks (``_block_eigenvalues``) at far less cost.
    """
    _check_tolerance(tol)
    if ch._sparse:
        h = _hermitian_block(ch, np.arange(ch.dim**2))
    else:
        h = _hermitian_transfer_matrix(ch._stack)
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
    projectors), and the repeat distance is the period; the walk gives up
    after 3m steps, each one ``eigh``, and runs only on blocks whose Kraus
    operators are all near traceless (``_block_eigenvalues``).
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
    peripheral spectrum: the p-th roots of unity, each simple, for its
    period p (Evans-Hoegh-Krohn), else all m^2 eigenvalues of its real
    matrix M_h.  p = 1 when some |tr V_a| > m sqrt(subspace_tol): for p >= 2
    each V_a maps P_k into P_(k+1), so tr V_a = 0, or |tr V_a| <= m
    sqrt(subspace_tol) when it leaks at most subspace_tol, the most the
    walk's certificate admits.  Otherwise p is the period of
    ``_cyclic_projections``, certified by residuals: the P_k must sum to I,
    and u = sum_k omega^k P_k, omega = exp(2 pi i / p), must satisfy
    |Phi^*(u) - omega u|_max <= subspace_tol."""
    m = stack.shape[1]
    if np.abs(np.einsum("aii->a", stack)).max() > m * math.sqrt(tol.subspace_tol):
        return np.ones(1, dtype=complex)
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
