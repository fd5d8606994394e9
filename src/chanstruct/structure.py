"""Enclosures, block structure, and the invariant-state parametrization.

An enclosure of a channel is a subspace V with V_i V ⊆ V for every Kraus
operator; minimal enclosures inside the recurrent subspace R are the
irreducible components of the dynamics.  Minimal enclosures supporting
unitarily equivalent restrictions group into B-blocks connected by partial
isometries; isolated ones are A-blocks.  On a B-block the fixed-point
algebra of the adjoint on R is M_n ⊗ I (Baumgartner-Narnhofer, Rev. Math.
Phys. 24 (2012); Carbone-Pautrat, arXiv:1507.08404), so one generic element
of it shows every link, and the polar factor of its block between two
copies is their isometry.  Every algebra element used is F^H Pi_1^*(G) F
for a seeded Hermitian reference G and the R frame F, read off the
channel's one eigenvalue-1 solve (see chanstruct.spectral), so every result
is a function of the channel, the seed and the tolerance.  Together these
give the complete parametrization of the invariant states:

    rho = sum_a t_a rho_a  +  sum_b sum_{g,g'} M^b_{g,g'} Q_g rho_b Q_{g'}^H

with t >= 0 entrywise, each M^b PSD, and total trace 1.

An A-block is a block of one copy, t_a its 1 x 1 M.  A :class:`Block` keeps
the frames of its copies, aligned by the intertwiner, F_g = Q_g F_0, and the
state sigma of every copy in its own frame, so Q_g = F_g F_0^H and the
block's part of an invariant state is G (M ⊗ sigma) G^H, G = [F_0 ... F_{n-1}];
rho and Q_g are derived on request.  A report holds A-blocks first, views
them by copy count, and is written in the unchanged ``chanstruct-report/3``.
What a report's blocks imply is derived here: a block of n copies adds n^2
to the fixed-space dimension and, with each pair of blocks, its share of the
peripheral spectrum (``_fixed_dimension``, ``_implied_spectrum``).
The stages after the split and :func:`block_invariant_state` read one
:class:`FixedPointAlgebra`, which carries the channel and tolerance and takes
R from them, so none can mix them; a report is likewise the one source of its
channel, dimension and tolerance.  The enclosure split certifies each minimal
enclosure once, through :func:`block_invariant_state`, and its copies'
states follow from the transport, so the verification re-derives none.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple
import warnings as _warnings

import numpy as np

from .channels import KrausChannel, _compressions, _enclosure_frame, _leak, _leak_norm2
from .channels import _transfer_matrix, apply, apply_adjoint, is_state
from .errors import ArgumentError, ChanstructError, DecompositionError
from .linalg import DEFAULT_TOL, Subspace, Tolerance, as_complex_matrix
from .linalg import _canonical, _check_integer, _check_tolerance, _residue_free
from .spectral import _block_eigenvalues, _peripheral, _spectral_core, recurrent_split

__all__ = [
    "FixedPointAlgebra",
    "Block",
    "DecompositionReport",
    "InvariantStateParameters",
    "ExtractionResult",
    "enclosure_generated",
    "is_enclosure",
    "is_subharmonic",
    "accessible",
    "communicates",
    "is_irreducible",
    "fixed_point_algebra_on_R",
    "minimal_enclosures",
    "group_into_blocks",
    "partial_isometry",
    "block_invariant_state",
    "decompose",
    "build_invariant_state",
    "extract_parameters",
]

_MAX_SAMPLING_ATTEMPTS = 8


@dataclass(frozen=True)
class FixedPointAlgebra:
    """The fixed points of the adjoint of the channel restricted to R, in the
    coordinates of ``R.frame``: a von Neumann algebra, ⊕ C P_a ⊕ (M_n ⊗ I)
    over the blocks, whose structure drives the block decomposition.

    The one handle the later stages read: ``R``, the channel's eigenvalue-1
    solve and every threshold come from ``channel`` and ``tolerance``.  Its
    elements are compressed fixed points of that solve, made with it.
    ``hermitian_basis``, a Hilbert-Schmidt-orthonormal (k, r, r) stack, is
    assembled from the blocks of :func:`decompose`, so it and ``dimension``
    fail wherever ``decompose`` fails.
    """

    channel: KrausChannel
    tolerance: Tolerance

    @cached_property
    def R(self):
        """The recurrent subspace of :func:`spectral.recurrent_split`."""
        return recurrent_split(self.channel, self.tolerance).R

    @cached_property
    def hermitian_basis(self):
        basis = _block_basis(decompose(self.channel, tol=self.tolerance), states=False)
        frame = self.R.frame
        return np.array([frame.conj().T @ h @ frame for h in basis])

    @property
    def dimension(self):
        return len(self.hermitian_basis)

    @cached_property
    def linking_element(self):
        """A generic Hermitian element h of the algebra (coordinates of R),
        made once: the first of the solve's ``probes`` compressed to R,
        Pi_1^*(G) for a Gaussian G of a spawn key no ``minimal_enclosures``
        candidate reads (the element whose eigenspaces gave the enclosures
        is block diagonal over them).  A block of h above the cut
        subspace_tol |h|_F (``_link_cut``) links two minimal enclosures."""
        probe = _spectral_core(self.channel, self.tolerance).probes[0]
        return self.R.frame.conj().T @ probe @ self.R.frame


def _expand(frame, sigma):
    """The d x d matrix F sigma F^H of a matrix in the coordinates of F."""
    return frame @ sigma @ frame.conj().T


def _compression(rho, frame):
    """The state F^H rho F / tr in the coordinates of F, made Hermitian."""
    sigma = frame.conj().T @ rho @ frame
    return (sigma + sigma.conj().T) / (2.0 * np.trace(sigma).real)


@dataclass(frozen=True)
class Block:
    """A family of mutually linked minimal enclosures of equal dimension,
    one for an A-block.

    The frames are aligned by the intertwiners: the partial isometry
    Q_g = F_g F_0^H (``isometries[g]``) maps ``enclosures[0]`` onto
    ``enclosures[g]`` and intertwines the restricted dynamics, and Q_0 is
    the orthogonal projector onto ``enclosures[0]``.  ``sigma`` is the
    unique invariant state on every copy, in the coordinates of its frame.
    """

    enclosures: tuple
    sigma: np.ndarray

    @property
    def rho(self):
        """The state on the first copy as a d x d matrix."""
        return _expand(self.enclosures[0].frame, self.sigma)

    @property
    def isometries(self):
        """The d x d partial isometries Q_g = F_g F_0^H."""
        f0h = self.enclosures[0].frame.conj().T
        return tuple(v.frame @ f0h for v in self.enclosures)


@dataclass(frozen=True)
class DecompositionReport:
    """Full structure report for one channel.

    The ambient space splits as D ⊕ (the enclosures of the blocks); every
    invariant state is a convex-like combination encoded by
    :class:`InvariantStateParameters`.  ``blocks`` holds the A-blocks
    first, then the B-blocks.  ``dim`` is the channel's.
    """

    R: Subspace
    D: Subspace
    blocks: tuple
    tolerance: "object"
    rng_seed: int
    warnings: tuple
    channel: KrausChannel

    @property
    def dim(self):
        return self.channel.dim

    @property
    def alpha_blocks(self):
        """The blocks with one copy."""
        return tuple(b for b in self.blocks if len(b.enclosures) == 1)

    @property
    def beta_blocks(self):
        """The blocks with two or more copies."""
        return tuple(b for b in self.blocks if len(b.enclosures) > 1)


@dataclass(frozen=True)
class InvariantStateParameters:
    """Coordinates of an invariant state: weights t per A-block and one
    PSD matrix M per B-block (indexed over that block's enclosures)."""

    t: np.ndarray
    M: tuple


class ExtractionResult(NamedTuple):
    params: InvariantStateParameters
    residual: float


@contextmanager
def _stage(name):
    """Tag any failure inside a pipeline stage with the stage name."""
    try:
        yield
    except DecompositionError:
        raise
    except (ChanstructError, np.linalg.LinAlgError) as err:
        raise DecompositionError(name, str(err)) from err


def _vector(ch, x, name):
    """``x`` as a finite complex vector of the channel's dimension."""
    x = as_complex_matrix(x, name).reshape(-1)
    if x.shape[0] != ch.dim:
        raise ArgumentError(
            f"{name} has length {x.shape[0]}, channel dimension is {ch.dim}"
        )
    return x


def enclosure_generated(ch, x, tol=DEFAULT_TOL):
    """Smallest enclosure containing the vector x: the span of x grown by
    the directions its Kraus images reach, until the leak is at most
    ``subspace_tol`` (``channels._enclosure_frame``)."""
    _check_tolerance(tol)
    x = _vector(ch, x, "x")
    if np.linalg.norm(x) == 0.0:
        raise ArgumentError("x must be nonzero")
    return Subspace(ch.dim, _enclosure_frame(ch, x[:, None] / np.linalg.norm(x), tol))


def is_enclosure(ch, subspace, tol=DEFAULT_TOL):
    """Whether every Kraus operator maps the subspace into itself: the leak
    |(I - P) [V_1 F ... V_n F]|_2 of its frame F (``channels._leak``) is at
    most ``subspace_tol``, the stop rule of :func:`enclosure_generated`."""
    _check_tolerance(tol)
    if subspace.ambient_dim != ch.dim:
        raise ArgumentError("subspace ambient dimension does not match channel")
    return _leak_norm2(_leak(ch, subspace.frame, subspace.frame)) <= tol.subspace_tol**2


def is_subharmonic(ch, p, tol=DEFAULT_TOL):
    """Whether a projector P satisfies Phi^*(P) >= P in the Loewner order: the
    smallest eigenvalue of Phi^*(P) - P is at least -psd_tol.

    Range projectors of enclosures are exactly the subharmonic projectors.
    """
    _check_tolerance(tol)
    p = as_complex_matrix(p, "P")
    if p.shape != (ch.dim, ch.dim):
        raise ArgumentError("P has wrong shape for this channel")
    if np.abs(p - p.conj().T).max() > tol.subspace_tol:
        raise ArgumentError("P is not Hermitian")
    if np.abs(p @ p - p).max() > tol.subspace_tol:
        raise ArgumentError("P is not idempotent")
    diff = apply_adjoint(ch, p) - p
    return bool(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0] >= -tol.psd_tol)


def accessible(ch, x, y, tol=DEFAULT_TOL):
    """Whether y lies in the enclosure generated by x."""
    y = _vector(ch, y, "y")
    return enclosure_generated(ch, x, tol).contains_vector(y, tol)


def communicates(ch, x, y, tol=DEFAULT_TOL):
    """Whether x and y generate the same enclosure."""
    return enclosure_generated(ch, x, tol).approx_equal(
        enclosure_generated(ch, y, tol), tol
    )


def is_irreducible(ch, tol=DEFAULT_TOL):
    """Whether the only enclosures are trivial, read off :func:`decompose`:
    one block of one copy (eigenvalue 1 simple) and R = C^d (a faithful
    invariant state)."""
    return _irreducible(decompose(ch, tol=tol))


def _irreducible(report):
    """Whether a report has one block of one copy and R = C^d."""
    return _fixed_dimension(report) == 1 and report.R.dimension == report.dim


def fixed_point_algebra_on_R(ch, tol=DEFAULT_TOL):
    """The fixed-point algebra of the adjoint on the recurrent part.

    The adjoint's fixed points of the whole channel, compressed to R
    (X -> F^H X F): R is the recurrent subspace, so the compression maps
    them onto the fixed points of the adjoint of the channel restricted to
    R, where they form an algebra containing the identity.  Its elements
    are read off the fixed points of the channel's eigenvalue-1 solve, made
    on first use.  The later stages take only the returned algebra.
    """
    _check_tolerance(tol)
    return FixedPointAlgebra(channel=ch, tolerance=tol)


def _check_algebra(algebra):
    if not isinstance(algebra, FixedPointAlgebra):
        name = type(algebra).__name__
        raise TypeError(f"algebra must be a FixedPointAlgebra, got {name}")


def _is_minimal(fixed, frame, tol):
    """Whether every matrix of the (k, n, n) stack of adjoint fixed points
    compresses to a multiple of the identity on the span of the orthonormal
    (n, m) frame, to ``subspace_tol`` entrywise.  An enclosure inside the
    recurrent subspace is minimal exactly when the adjoint's fixed points
    pass, and so, with probability 1, when two generic ones do (the solve's
    ``probes``): a linear condition true at a generic point of a span holds
    on all of it."""
    x = frame.conj().T @ fixed @ frame
    m = frame.shape[1]
    scalars = np.trace(x, axis1=1, axis2=2)[:, None, None] / m * np.eye(m)
    return bool(np.abs(x - scalars).max() <= tol.subspace_tol)


def _try_eigensplit(algebra, x):
    """Split R into the eigenspaces of a Hermitian algebra element x
    (coordinates of R), each accepted by :func:`block_invariant_state` as a
    minimal enclosure in R.  Returns them, or the error that refused the
    first one to fail (a degenerate sample).  They fill R, so each one's
    complement in R is an enclosure too, and its projector an adjoint fixed
    point."""
    ch, tol, frame = algebra.channel, algebra.tolerance, algebra.R.frame
    x = (x + x.conj().T) / 2.0
    w, vecs = np.linalg.eigh(x)
    # clusters of the sorted eigenvalues, split at gaps above eig_cluster_tol
    bounds = [0, *(np.flatnonzero(np.diff(w) > tol.eig_cluster_tol) + 1), len(w)]
    result = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        v = Subspace(ch.dim, frame @ vecs[:, lo:hi])
        try:
            block_invariant_state(algebra, v)
        except (ArgumentError, DecompositionError) as err:
            return err
        result.append(v)
    return result


def minimal_enclosures(algebra, rng_seed=0):
    """Decompose the algebra's R into mutually orthogonal minimal enclosures.

    Eigenspaces of a generic Hermitian element of the fixed-point algebra
    are exactly the minimal enclosures of one orthogonal decomposition.
    Each candidate is an adjoint fixed point of the eigenvalue-1 solve of
    the algebra's channel and tolerance, compressed by its R frame F: first
    x = F^H Pi_1^*(diag(1, ..., d) / d) F; when x is degenerate, up to
    ``_MAX_SAMPLING_ATTEMPTS`` combinations a x + b y, y the second probe
    compressed and Gaussian (a, b) from ``default_rng(rng_seed + attempt)``.
    The enclosures and their order are thus a function of the channel, the
    seed and the tolerance.  A failure carries the last attempt's refusal
    (``diagnostics["refusal"]``) and the solve's estimate of the distance
    from 1 of the nearest non-fixed eigenvalue.
    """
    _check_algebra(algebra)
    _check_integer(rng_seed, "rng_seed", 0)
    frame, core = algebra.R.frame, _spectral_core(algebra.channel, algebra.tolerance)
    x, y = (frame.conj().T @ z @ frame for z in (core.candidate, core.probes[1]))
    seeds = range(rng_seed, rng_seed + _MAX_SAMPLING_ATTEMPTS)
    # a generator: an attempt's coefficients are drawn only when it is tried
    draws = (np.random.default_rng(seed).standard_normal(2) for seed in seeds)
    for element in chain([x], (a * x + b * y for a, b in draws)):
        found = _try_eigensplit(algebra, element)
        if not isinstance(found, ChanstructError):
            return found
    raise DecompositionError(
        "minimal-enclosures",
        "no candidate element split R into minimal enclosures in "
        f"{_MAX_SAMPLING_ATTEMPTS + 1} attempts; the last refusal: {found} "
        f"(estimated nearest non-fixed distance {core.gap:.3e})",
        diagnostics={"nearest_non_fixed_distance": core.gap, "refusal": str(found)},
    )


def _coords_in(algebra, enclosure, stage):
    """The frame of an enclosure in the coordinates of the algebra's R."""
    if not algebra.R.contains(enclosure, algebra.tolerance):
        raise DecompositionError(stage, "enclosure is not contained in R")
    return algebra.R.frame.conj().T @ enclosure.frame


def _link_cut(algebra):
    """The algebra's linking element h and the cut subspace_tol |h|_F."""
    h = algebra.linking_element
    return h, algebra.tolerance.subspace_tol * np.linalg.norm(h)


def group_into_blocks(enclosures, algebra):
    """Partition minimal enclosures into A-blocks (unlinked singletons) and
    B-blocks (connected families linked by the algebra).

    Two enclosures are linked when the block of a generic algebra element
    between them is above a cut (``FixedPointAlgebra.linking_element``);
    linked enclosures necessarily have equal dimension.
    """
    _check_algebra(algebra)
    n = len(enclosures)
    coords = [_coords_in(algebra, e, "block-grouping") for e in enclosures]
    h, cut = _link_cut(algebra)
    adj = np.array(
        [[np.linalg.norm(ci.conj().T @ h @ cj) > cut for cj in coords] for ci in coords]
    ).reshape(n, n)
    # reachability: each boolean squaring doubles the path length covered
    reach = adj | adj.T | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    # a component is the row of each of its members, listed by its first
    components = sorted({tuple(np.flatnonzero(row)) for row in reach})
    groups = [[enclosures[i] for i in members] for members in components]
    for group in groups:
        dims = {v.dimension for v in group}
        if len(dims) != 1:
            raise DecompositionError(
                "block-grouping",
                "algebra/tolerance inconsistency: linked enclosures with "
                f"unequal dimensions {sorted(dims)}",
            )
    return [g[0] for g in groups if len(g) == 1], [g for g in groups if len(g) > 1]


def partial_isometry(algebra, vi, vj):
    """Partial isometry Q with Q^H Q = P_Vi, Q Q^H = P_Vj intertwining the
    restricted dynamics: the polar factor of the block of the generic
    algebra element between Vi and Vj (``FixedPointAlgebra.linking_element``).

    The global phase is fixed by making real and positive the first entry
    of Q, in row-major order, whose modulus is within ``subspace_tol``
    (relative) of the largest: entries of tied modulus then cannot trade
    places through rounding.
    """
    _check_algebra(algebra)
    if vi.dimension != vj.dimension:
        raise ArgumentError(
            f"enclosures have different dimensions ({vi.dimension} vs "
            f"{vj.dimension})"
        )
    if vi.dimension == 0:
        raise ArgumentError("enclosures must be nonzero")
    gi = _coords_in(algebra, vi, "partial-isometry")
    gj = _coords_in(algebra, vj, "partial-isometry")
    h, cut = _link_cut(algebra)
    link = gj.conj().T @ h @ gi
    if np.linalg.norm(link) <= cut:
        raise DecompositionError(
            "partial-isometry",
            "no algebra element links the two enclosures (they do not "
            "belong to one B-block)",
        )
    u, s, wh = np.linalg.svd(link)
    tol = algebra.tolerance
    if (s[0] - s[-1]) / s[0] > tol.subspace_tol:
        raise DecompositionError(
            "partial-isometry",
            "block not minimal at tolerance: linking block has non-equal "
            f"singular values (relative spread {(s[0] - s[-1]) / s[0]:.3e})",
        )
    q = vj.frame @ (u @ wh) @ vi.frame.conj().T
    mod = np.abs(q)
    phase = q.flat[int(np.argmax(mod >= (1.0 - tol.subspace_tol) * mod.max()))]
    q = q * (np.conj(phase) / np.abs(phase))
    return q


def block_invariant_state(algebra, v):
    """Unique invariant state supported on a minimal enclosure V.

    A minimal enclosure lies in R, and R ⊖ V is an enclosure too
    (Baumgartner-Narnhofer, Rev. Math. Phys. 24 (2012); Carbone-Pautrat,
    arXiv:1507.08404), so on R every Kraus operator is block diagonal over
    V ⊕ (R ⊖ V) and the compression P_V rho_max P_V / tr of the maximal
    invariant state is invariant.  An enclosure V ⊆ R is minimal iff the
    adjoint's fixed points compress to multiples of P_V on it; two generic
    ones (the solve's ``probes``) are tested.
    """
    _check_algebra(algebra)
    ch, tol = algebra.channel, algebra.tolerance
    if v.dimension == 0:
        raise ArgumentError("V must be nonzero")
    if not is_enclosure(ch, v, tol):
        raise ArgumentError("V is not an enclosure of the channel")
    with _stage("block-invariant-state"):
        core = _spectral_core(ch, tol)
    if not algebra.R.contains(v, tol):
        raise DecompositionError(
            "block-invariant-state", "V not minimal: V is not contained in R"
        )
    if not _is_minimal(core.probes, v.frame, tol):
        raise DecompositionError(
            "block-invariant-state",
            "V not minimal: an adjoint fixed point is not constant on V",
        )
    return _expand(v.frame, _compression(core.split.rho_max, v.frame))


def _labels(report):
    """The label of each block, "A-block i" or "B-block i": its kind and its
    place in that kind's view."""
    kinds = ["A" if len(b.enclosures) == 1 else "B" for b in report.blocks]
    return [f"{k}-block {kinds[:i].count(k)}" for i, k in enumerate(kinds)]


def _block_basis(report, states):
    """Hilbert-Schmidt-orthonormal Hermitian matrices spanning F_g S F_h^H
    over the copies g, h of each block of a report (an A-block has one):
    the fixed space for S the block state, the algebra of the adjoint's
    fixed points on R (in ambient coordinates) for S = I.  The matrices
    E_gh = F_g S F_h^H / |S|_F are orthonormal, and so are E_gg and
    (E_gh + E_hg) / sqrt 2, i (E_gh - E_hg) / sqrt 2 for g > h."""
    basis = []
    for blk in report.blocks:
        frames = [v.frame for v in blk.enclosures]
        s = blk.sigma if states else np.eye(len(blk.sigma))
        s = s / np.linalg.norm(s)
        for g, fg in enumerate(frames):
            basis.append(fg @ s @ fg.conj().T)
            for fh in frames[:g]:
                e = fg @ s @ fh.conj().T / np.sqrt(2.0)
                basis += [e + e.conj().T, 1j * (e - e.conj().T)]
    return basis


def _fixed_dimension(report):
    """n_alpha + sum_b n_b^2: the fixed-space dimension the blocks imply."""
    return sum(len(b.enclosures) ** 2 for b in report.blocks)


def _implied_spectrum(report):
    """The peripheral spectrum the blocks imply, per unordered pair of blocks
    (see ``serialize.report_file_from_report``): block i's own n_i^2 times,
    an (i, j) pair n_i n_j times with its conjugate, unless the pair differs
    in dimension or in its states' spectra by more than sqrt(subspace_tol):
    a peripheral eigenvalue makes A_a = lambda W B_a W^H."""
    ch = report.channel
    tol = report.tolerance
    # F^H V_a F on each block's first enclosure F, its copy count, its state spectrum
    parts = [
        (_compressions(ch, b.enclosures[0].frame), len(b.enclosures),
         np.linalg.eigvalsh(b.sigma))
        for b in report.blocks
    ]
    eigenvalues = []
    for i, (a, n_i, s_a) in enumerate(parts):
        eigenvalues.append(np.tile(_block_eigenvalues(a, tol), n_i * n_i))
        for b, n_j, s_b in parts[i + 1:]:
            if b.shape != a.shape or np.abs(s_a - s_b).max() > np.sqrt(tol.subspace_tol):
                continue
            w = np.linalg.eigvals(_transfer_matrix(a, b))
            eigenvalues.append(np.tile(np.concatenate((w, w.conj())), n_i * n_j))
    return tuple(_peripheral(np.concatenate(eigenvalues), tol))


def _verify_blocks(report):
    """The checks of a decomposition that need only its channel and its
    blocks, run by :func:`decompose` and by report read-back: the frames of
    D and of every enclosure fill C^d, and their Gram matrix is I; each
    block's state is a state, and invariant in the frame of every copy."""
    ch, tol = report.channel, report.tolerance
    frames = [report.D.frame] + [v.frame for b in report.blocks for v in b.enclosures]
    total = sum(f.shape[1] for f in frames)
    if total != report.dim:
        raise DecompositionError(
            "verification", f"block dimensions sum to {total}, ambient is {report.dim}"
        )
    # the Gram check decides every frame's orthonormality too: for a copy,
    # Q_g = F_g F_0^H has Q_g Q_g^H = P_g, and Q_g^H Q_g = P_0 exactly when
    # F_g^H F_g = I; and F sigma F^H stays in its enclosure, as
    # (I - F F^H) F sigma F^H = F (I - F^H F) sigma F^H
    stacked = np.hstack([f for f in frames if f.shape[1] > 0])
    gram = stacked.conj().T @ stacked
    if np.abs(gram - np.eye(total)).max() > tol.eig_cluster_tol:
        raise DecompositionError("verification", "blocks are not mutually orthogonal")
    for blk, label in zip(report.blocks, _labels(report)):
        if not is_state(blk.sigma, tol):
            raise DecompositionError("verification", f"{label} state is not a state")
        for g, v in enumerate(blk.enclosures):
            rho = _expand(v.frame, blk.sigma)
            if np.abs(apply(ch, rho) - rho).max() > tol.eig_cluster_tol:
                raise DecompositionError(
                    "verification", f"{label} state is not invariant on copy {g}"
                )


def _verify_report(report):
    """:func:`_verify_blocks`, then the check that reads the solve.  Its second
    probe X, an adjoint fixed point made before any block, compressed to R
    must lie in the algebra the blocks span, ⊕ C P_a ⊕ (M_n ⊗ I)
    (``_block_basis``; ``_assemble`` with S = I / m projects onto it), to
    subspace_tol relative to |P_R X P_R|_F: a dropped block, a missing link,
    merged copies or a misaligned copy frame fails it.  Every copy is a
    minimal enclosure in R that the split certified, and ``_verify_blocks``
    checks the block state invariant on it, so that state is the copy's."""
    _verify_blocks(report)
    tol = report.tolerance
    p = report.R.projector()
    x = p @ _spectral_core(report.channel, tol).probes[1] @ p
    residue = x - _assemble(report, _parameters(report, x), states=False)
    deviation = float(np.linalg.norm(residue) / np.linalg.norm(x))
    if deviation > tol.subspace_tol:
        raise DecompositionError(
            "verification",
            "a fixed point is not spanned by the blocks (relative deviation "
            f"{deviation:.3e})",
            diagnostics={
                "deviation": deviation,
                "fixed_space_dimension": _fixed_dimension(report),
            },
        )


def decompose(ch, rng_seed=0, tol=DEFAULT_TOL):
    """End-to-end structure analysis of a channel.

    Pipeline: recurrent/transient split, fixed-point algebra of the adjoint
    on R, minimal-enclosure decomposition (each enclosure certified by
    :func:`block_invariant_state`), linkage grouping into A- and B-blocks,
    invariant states and transport isometries per block, and a final
    verification (``_verify_report``) by residuals that do not depend on how
    the blocks were found.  Each stage failure raises
    :class:`DecompositionError` tagged with the stage name; an ``rng_seed``
    that is not a non-negative integer raises :class:`ArgumentError` first.
    """
    _check_integer(rng_seed, "rng_seed", 0)
    with _stage("recurrent-split"):
        split = recurrent_split(ch, tol)
    algebra = fixed_point_algebra_on_R(ch, tol)
    with _stage("minimal-enclosures"):
        enclosures = minimal_enclosures(algebra, rng_seed)
    alpha, beta = group_into_blocks(enclosures, algebra)
    with _stage("invariant-states"):
        blocks = []
        for base, *others in [[v] for v in alpha] + beta:
            # a canonical base frame, each copy's aligned with it: F_g = Q_g F_0
            base = Subspace(ch.dim, _canonical(base.frame))
            qs = [partial_isometry(algebra, base, v) for v in others]
            copies = (_residue_free(q @ base.frame) for q in qs)
            aligned = [base] + [Subspace(ch.dim, f) for f in copies]
            sigma = _compression(split.rho_max, base.frame)
            blocks.append(Block(enclosures=tuple(aligned), sigma=sigma))
    report = DecompositionReport(
        R=split.R,
        D=split.D,
        blocks=tuple(blocks),
        tolerance=tol,
        rng_seed=int(rng_seed),
        warnings=tuple(split.warnings),
        channel=ch,
    )
    _verify_report(report)
    return report


def _assemble(report, mats, states=True):
    """sum over the blocks of G (M ⊗ S) G^H, G = [F_0 ... F_{n-1}] the
    block's frames, M its n x n parameters (an A-block's 1 x 1 weight) and
    S its state sigma, or I / m unless ``states``."""
    rho = np.zeros((report.dim, report.dim), dtype=complex)
    for m, blk in zip(mats, report.blocks):
        stack = np.hstack([v.frame for v in blk.enclosures])
        s = blk.sigma if states else np.eye(len(blk.sigma)) / len(blk.sigma)
        rho += stack @ np.kron(m, s) @ stack.conj().T
    return rho


def _check_parameters(report, params):
    """Each block's n x n parameter matrix, an A-block's weight as its 1 x 1
    M, checked finite, Hermitian and PSD, with traces summing to 1."""
    tol = report.tolerance
    t = np.asarray(params.t, dtype=complex).reshape(-1)
    n_alpha, n_beta = len(report.alpha_blocks), len(report.beta_blocks)
    if (len(t), len(params.M)) != (n_alpha, n_beta):
        raise ArgumentError(
            f"t has length {len(t)} and M {len(params.M)} entries, report has "
            f"{n_alpha} A-blocks and {n_beta} B-blocks"
        )
    mats = []
    given = [[[w]] for w in t] + list(params.M)
    for m, blk, label in zip(given, report.blocks, _labels(report)):
        m = as_complex_matrix(m, f"{label} parameter matrix")
        n = len(blk.enclosures)
        if m.shape != (n, n):
            raise ArgumentError(
                f"{label} parameter matrix has shape {m.shape}, expected ({n}, {n})"
            )
        scale = max(1.0, np.abs(m).max())
        if np.abs(m - m.conj().T).max() > tol.eig_cluster_tol * scale:
            raise ArgumentError(f"{label} parameter matrix is not Hermitian")
        m = (m + m.conj().T) / 2.0
        if np.linalg.eigvalsh(m)[0] < -tol.psd_tol:
            raise ArgumentError(f"{label} parameter matrix is not PSD")
        mats.append(m)
    total = sum(float(np.trace(m).real) for m in mats)
    if abs(total - 1.0) > tol.eig_cluster_tol:
        raise ArgumentError(
            f"parameters have total weight {total:.12f}, expected 1"
        )
    return mats


def build_invariant_state(report, params):
    """Assemble the invariant state with the given block parameters.

    The output is verified to be a state, and verified invariant under the
    report's channel within eig_cluster_tol; this is the defining contract
    of the parametrization and is asserted rather than assumed.
    """
    tol = report.tolerance
    rho = _assemble(report, _check_parameters(report, params))
    rho = (rho + rho.conj().T) / 2.0
    if not is_state(rho, tol):
        raise DecompositionError(
            "build-invariant-state", "assembled matrix is not a state"
        )
    dev = np.abs(apply(report.channel, rho) - rho).max()
    if dev > tol.eig_cluster_tol:
        raise DecompositionError(
            "build-invariant-state",
            f"assembled state is not invariant (deviation {dev:.3e})",
        )
    return rho


def _parameters(report, x):
    """Each block's n x n parameters for a Hermitian d x d matrix x: M[g, h] =
    tr(F_g^H x F_h), the partial trace of G^H x G over the block's own factor
    (an A-block's 1 x 1 M is its weight).  For x PSD each M is PSD and the
    traces sum to tr(P_R x); for x invariant F_g^H x F_h = M[g, h] sigma."""
    mats = []
    for blk in report.blocks:
        n, k = len(blk.enclosures), len(blk.sigma)
        stack = np.hstack([v.frame for v in blk.enclosures])
        m = np.trace((stack.conj().T @ x @ stack).reshape(n, k, n, k), axis1=1, axis2=3)
        mats.append((m + m.conj().T) / 2.0)
    return mats


def extract_parameters(report, rho):
    """Recover block parameters from a state: the weight of an A-block is
    tr(F^H rho F), and a B-block's matrix is M[g, h] = tr(F_g^H rho F_h) over
    its copies (:func:`_parameters`).  For any state the M are PSD and the
    weights sum to tr(P_R rho); for an invariant state they are its
    coordinates.  Returns the parameters together with the max-abs residual
    of the re-assembled state; the residual is reported, and a warning is
    emitted when an invariant input fails to round-trip.
    """
    tol = report.tolerance
    rho = as_complex_matrix(rho, "rho")
    if rho.shape != (report.dim, report.dim):
        raise ArgumentError("rho has wrong shape for this report")
    if not is_state(rho, tol):
        raise ArgumentError("rho is not a state")
    mats, n_alpha = _parameters(report, rho), len(report.alpha_blocks)
    t = np.array([m[0, 0].real for m in mats[:n_alpha]])
    params = InvariantStateParameters(t=t, M=tuple(mats[n_alpha:]))
    residual = float(np.abs(rho - _assemble(report, mats)).max())
    deviation = np.abs(apply(report.channel, rho) - rho).max()
    if deviation <= tol.eig_cluster_tol and residual > tol.subspace_tol:
        _warnings.warn(
            "invariant state failed to round-trip through the block "
            f"parametrization (residual {residual:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    return ExtractionResult(params=params, residual=residual)
