"""Quantum channels in Kraus form.

A channel is represented by a finite family of d x d Kraus matrices
(V_i), trace preserving when sum_i V_i^H V_i = I, which only the
eigenvalue-1 solve (chanstruct.spectral) needs; it, ``validate`` and the
constructors check it by the one rule of ``_tp_defect``.  The module
provides application of the channel and its adjoint, its matrix under
column-stacking vectorization, validation, and constructors for Markov-chain
channels, truncated open quantum random walks and qubit Bloch forms.

A channel holds its family as the nonzero rows of the stacked operator
W = [V_1; ...; V_n] (n d x d): an (m, d) block and the m row ids a d + i of
row i of V_a, in increasing order.  A row is kept when one of its entries
has a nonzero bit pattern, so -0.0 survives.  Building, checking, loading
and writing a channel read only this block.

The module owns the one sparse/dense rule (``_SPARSE_FRACTION``).  A sparse
family (a superoperator with at most that fraction of nonzero entries) keeps
only its nonzero rows and builds the COO triples (rows, cols, vals) of its
superoperator M from them on first use: Phi(rho) = M vec(rho) and
Phi^*(X) = M^H vec(X) are sums of the triples' products (``np.bincount``),
and the eigenvalue-1 solve reads M_h off the same triples.  A dense family
keeps all n d rows, so its block is the (n, d, d) Kraus stack reshaped, and
applies Phi and Phi^* as two GEMMs over the stacked operators and their
stacked adjoints.  A sparse family builds the dense stack only when asked
for it (``kraus``, :func:`superoperator`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .linalg import DEFAULT_TOL, _check_integer, _check_tolerance, _is_hermitian
from .linalg import as_complex_matrix

__all__ = [
    "KrausChannel",
    "ValidationReport",
    "is_state",
    "apply",
    "apply_adjoint",
    "superoperator",
    "validate",
    "from_markov_chain",
    "oqrw_transition_map",
    "from_oqrw",
    "qubit_bloch_form",
]

# a Kraus family whose superoperator has at most this fraction of nonzero
# entries is sparse: Phi and Phi^* are applied by the cached COO triples of
# the superoperator, and the eigenvalue-1 kernel is solved on the coordinates
# that Phi writes (chanstruct.spectral)
_SPARSE_FRACTION = 0.02


class KrausChannel:
    """A completely positive map in Kraus form (see the module docstring).

    Parameters
    ----------
    kraus : sequence of (d, d) array_like, or an (n, d, d) array
        The Kraus operators V_i.  All-zero operators are dropped (the index
        set of an unravelling is arbitrary; zero operators are inert).  The
        channel keeps its own read-only copy as the nonzero rows of the
        stacked operators (see the module docstring).  ``kraus`` is the
        tuple of read-only (d, d) operators: views of the held block for a
        dense family, built on first access for a sparse one.
    """

    __slots__ = (
        "dim", "_n", "_rows", "_row_ids", "_stack", "_sparse", "_superop",
        "_adjoint", "_kraus", "_cores",
    )

    def __init__(self, kraus):
        stack = _kraus_stack(kraus)
        n, d, _ = stack.shape
        self._hold(stack.reshape(n * d, d), np.arange(n * d), d)

    @classmethod
    def _from_rows(cls, rows, row_ids, d):
        """The channel whose stacked operator W has the rows ``rows`` (m, d)
        at the strictly increasing ``row_ids`` and zeros elsewhere; it takes
        ``rows`` over.  No (n, d, d) stack is formed for a sparse family."""
        ch = object.__new__(cls)
        ch._hold(rows, row_ids, d)
        return ch

    def _hold(self, rows, row_ids, d):
        """Drop the zero operators and keep the rows by the sparse/dense
        rule (see the module docstring)."""
        nonzero = rows.any(axis=1)
        if not nonzero.any():
            raise ArgumentError("all Kraus operators are zero")
        # the rows of one operator are consecutive: g numbers the operators
        # present, and those with a nonzero entry stay, renumbered in order
        g = np.cumsum(np.diff(row_ids // d, prepend=-1) > 0) - 1
        live = np.zeros(g[-1] + 1, dtype=bool)
        live[g[nonzero]] = True
        keep = live[g]
        if not keep.all():
            rows, row_ids, g = rows[keep], row_ids[keep], g[keep]
        op = np.cumsum(live)[g] - 1
        row_ids = op * d + row_ids % d
        n = int(op[-1]) + 1
        sparse = bool(_nnz_fraction(rows, op, n) <= _SPARSE_FRACTION)
        if sparse:
            # the rows with a nonzero bit pattern
            stored = np.ascontiguousarray(rows).view(np.uint64).any(axis=1)
            rows, row_ids = rows[stored], row_ids[stored]
        elif len(rows) < n * d:
            full = np.zeros((n * d, d), dtype=complex)
            full[row_ids] = rows
            rows, row_ids = full, np.arange(n * d)
        rows.flags.writeable = False
        stack = None if sparse else rows.reshape(n, d, d)
        object.__setattr__(self, "dim", int(d))
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_row_ids", row_ids)
        # how apply and apply_adjoint act: a sparse family keeps the COO
        # triples of its superoperator M, made on first use; a dense one
        # keeps its (n, d, d) stack, a view of the rows, and the stack of
        # its adjoints V_i^H, the two stacks of each GEMM pair
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_sparse", sparse)
        object.__setattr__(self, "_superop", None)
        object.__setattr__(
            self,
            "_adjoint",
            None if sparse else np.ascontiguousarray(stack.conj().transpose(0, 2, 1)),
        )
        object.__setattr__(self, "_kraus", None)
        # fixed points of the eigenvalue-1 solve by Tolerance, filled on first
        # use by chanstruct.spectral; derived data, the channel stays immutable
        object.__setattr__(self, "_cores", {})

    @property
    def kraus(self):
        """The Kraus operators, a tuple of read-only (d, d) arrays."""
        if self._kraus is None:
            object.__setattr__(self, "_kraus", tuple(_dense_stack(self)))
        return self._kraus

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")

    def __len__(self):
        return self._n

    def __repr__(self):
        return f"KrausChannel(dim={self.dim}, n_kraus={len(self)})"


def _dense_stack(ch):
    """The read-only (n, d, d) Kraus stack: the held view for a dense
    family, scattered from the rows into a new array for a sparse one
    (assignment keeps -0.0, where accumulating into zeros would not)."""
    if not ch._sparse:
        return ch._stack
    n, d = len(ch), ch.dim
    stack = np.zeros((n * d, d), dtype=complex)
    stack[ch._row_ids] = ch._rows
    stack.flags.writeable = False
    return stack.reshape(n, d, d)


@dataclass(frozen=True)
class ValidationReport:
    """Result of :func:`validate`.  ``kraus_sum_deviation`` is the defect
    |sum V_i^H V_i - I|_F / |I|_F; ``spectral_radius`` bounds that of the
    superoperator from above, and equals it (1) for a trace-preserving map."""

    kraus_sum_deviation: float
    spectral_radius: float
    trace_preserving: bool
    spectral_radius_ok: bool

    @property
    def passed(self):
        return self.trace_preserving and self.spectral_radius_ok


def is_state(rho, tol=DEFAULT_TOL):
    """Density-matrix predicate: finite, Hermitian, PSD within psd_tol,
    trace 1 within eig_cluster_tol."""
    _check_tolerance(tol)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        return False
    if not np.isfinite(rho).all():
        return False
    if not _is_hermitian(rho, tol):
        return False
    trace = np.trace(rho)
    if max(abs(trace.real - 1.0), abs(trace.imag)) > tol.eig_cluster_tol:
        return False
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return bool(w[0] >= -tol.psd_tol)


def apply(ch, rho):
    """Apply the channel: sum_i V_i rho V_i^H."""
    return _apply_one(ch, rho, "state")


def apply_adjoint(ch, x):
    """Apply the adjoint map: sum_i V_i^H X V_i (unital when TP)."""
    return _apply_one(ch, x, "operand", adjoint=True)


def _apply_one(ch, x, kind, adjoint=False):
    """``_apply_stack`` of one d x d matrix, the ``kind`` named by a shape error."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (ch.dim, ch.dim):
        raise ArgumentError(f"{kind} shape {x.shape} does not match channel dimension {ch.dim}")
    return _apply_stack(ch, x[None], adjoint)[0]


def _apply_stack(ch, xs, adjoint=False):
    """Phi (or Phi^* when ``adjoint``) of every matrix of a (k, d, d) stack:
    by the cached COO triples of the superoperator M of a sparse family,
    else by the two GEMMs of ``_sandwich``."""
    if not ch._sparse:
        pair = (ch._adjoint, ch._stack) if adjoint else (ch._stack, ch._adjoint)
        return _sandwich(*pair, xs)
    (rows, cols, vals), (k, d) = _cached_superoperator(ch), (xs.shape[0], ch.dim)
    if adjoint:  # M^H holds conj(v) at (c, r) for each triple (r, c, v) of M
        rows, cols, vals = cols, rows, vals.conj()
    # row c is vec(X_c), X_c^T read row by row; output c sums at rows + c d^2
    vecs = xs.transpose(0, 2, 1).reshape(k, d * d)
    terms = (vals * vecs[:, cols]).ravel()
    at, out = (rows + d * d * np.arange(k)[:, None]).ravel(), np.empty(k * d * d, complex)
    out.real = np.bincount(at, terms.real, out.size)
    out.imag = np.bincount(at, terms.imag, out.size)
    return out.reshape(k, d, d).transpose(0, 2, 1)


def _sandwich(left, right, xs):
    """sum_i L_i X R_i for (n, d, d) stacks L and R and each X of a
    (k, d, d) stack: one GEMM forms every product L_i X stacked vertically,
    and one sums them against R, with the products of one X side by side."""
    n, d, _ = left.shape
    k = xs.shape[0]
    y = left.reshape(n * d, d) @ xs.transpose(1, 0, 2).reshape(d, k * d)
    y = y.reshape(n, d, k, d).transpose(2, 1, 0, 3).reshape(k * d, n * d)
    return (y @ right.reshape(n * d, d)).reshape(k, d, d)


def superoperator(ch):
    """Matrix M with M vec(rho) = vec(apply(rho)), vec stacking columns.

    Equals sum_i conj(V_i) ⊗ V_i.  A sparse family builds its dense Kraus
    stack for it.
    """
    stack = _dense_stack(ch)
    return _transfer_matrix(stack, stack)


def _transfer_block(a, b, j):
    """Row block j of the matrix of X -> sum_i A_i X B_i^H on column-stacked
    vec(X), sum_i conj(B_i) ⊗ A_i for stacks ``a`` (n, p, q) and ``b`` of
    Kraus-like operators, as a (p, s, q) array: entry (i, l, k) of block j
    is sum_a conj(B)[a, j, l] A[a, i, k]."""
    n, p, q = a.shape
    block = b[:, j, :].conj().T @ a.reshape(n, p * q)
    return block.reshape(-1, p, q).transpose(1, 0, 2)


def _transfer_matrix(a, b):
    """Matrix of X -> sum_i A_i X B_i^H on column-stacked vec(X), for
    stacks ``a`` and ``b`` of Kraus-like operators: sum_i conj(B_i) ⊗ A_i,
    written straight into the result one row block at a time, so besides
    the result only one block of size 1/r of it is held."""
    (p, q), (r, s) = a.shape[1:], b.shape[1:]
    out = np.empty((r, p, s, q), dtype=complex)
    for j in range(r):
        out[j] = _transfer_block(a, b, j)
    return out.reshape(r * p, s * q)


def _hermitian_transfer_matrix(stack):
    """The real matrix M_h = U^H M U = Re M + Im(M K) (see chanstruct.spectral)
    of M = sum_a conj(V_a) ⊗ V_a for an (n, p, p) stack V, one complex row
    block of M at a time (column j p + i of M K is column i p + j of M), for
    ``spectral.peripheral_spectrum``, the fallback of
    ``spectral._block_eigenvalues`` and the inverse that ``spectral._factor``
    takes on all d^2 coordinates of a stalled dense family, the one place
    ``decompose`` builds it."""
    p = stack.shape[1]
    swap = np.arange(p * p).reshape(p, p).T.ravel()
    out = np.empty((p, p, p * p))
    for j in range(p):
        m = _transfer_block(stack, stack, j).reshape(p, -1)
        out[j] = m.real + m.imag[:, swap]
    return out.reshape(p * p, p * p)


def _superoperator_sparse(ch):
    """The superoperator M of a sparse Kraus family as read-only COO triples
    (rows, cols, vals).

    Every pair of nonzeros x = V_a[i, j], x' = V_a[i', j'] of one operator
    gives conj(x) x' at (i d + i', j d + j'); the pairs that land on one
    position are summed where M is applied.  The nonzeros are read off the
    held rows, in the order (a, i, j).
    """
    d = ch.dim
    r, col = np.nonzero(ch._rows)
    op, row = np.divmod(ch._row_ids[r], d)
    x = ch._rows[r, col]
    counts = np.bincount(op)
    first = np.cumsum(counts) - counts
    # every ordered pair (p, q) of nonzeros of one operator: p is repeated
    # once per nonzero of its operator, and q runs over those nonzeros
    reps = counts[op]
    p = np.repeat(np.arange(op.size), reps)
    q = first[op[p]] + np.arange(p.size) - np.repeat(np.cumsum(reps) - reps, reps)
    triples = (row[p] * d + row[q], col[p] * d + col[q], x[p].conj() * x[q])
    for a in triples:
        a.flags.writeable = False
    return triples


def _cached_superoperator(ch):
    """The COO triples of the superoperator M of a sparse Kraus family, made
    on first use and kept with the channel."""
    if ch._superop is None:
        object.__setattr__(ch, "_superop", _superoperator_sparse(ch))
    return ch._superop


def _hermitian_block(ch, keep):
    """M_h[keep, keep] of a sparse family, dense, for strictly increasing
    coordinates ``keep``, from the COO triples of M: as M_h = Re M + Im(M K)
    (see ``_hermitian_transfer_matrix``), a triple (r, c, v) puts Re v at (r, c)
    and Im v at (r, K c), K c = i d + j for c = j d + i."""
    d, (r, c, v) = ch.dim, _cached_superoperator(ch)
    at = np.full(d * d, -1)
    at[keep] = np.arange(keep.size)
    i, j = at[np.tile(r, 2)], at[np.concatenate((c, c % d * d + c // d))]
    inside, n = (i >= 0) & (j >= 0), keep.size
    flat = np.bincount((i * n + j)[inside], np.concatenate((v.real, v.imag))[inside], n * n)
    return flat.reshape(n, n)


def _images(ch, rows):
    """[S_1 L_1 ... S_n L_n], (d, n k): the (m, k) images L of the held rows
    of W, the image of row i of V_a at row i of block a."""
    op, i = np.divmod(ch._row_ids, ch.dim)
    z = np.zeros((ch.dim, len(ch), rows.shape[1]), dtype=complex)
    z[i, op] = rows
    return z.reshape(ch.dim, -1)


def _leak(ch, frame, cols):
    """Y = (I - P) [S_1 L_1 ... S_n L_n], P the span of the frame F: V_a C =
    S_a R_a places its held rows R_a = L_a Q_a^H (QR), so Y Y^H = (I - P)
    Phi(C C^H) (I - P); for C = F, |Y|_2^2 is the leak^2, free of the Kraus form."""
    op = ch._row_ids // ch.dim
    j = np.arange(op.size) - np.searchsorted(op, op)  # row j of R_op
    l = ch._rows @ cols
    if j.max() + 1 < cols.shape[1]:  # fewer rows than columns: L_a is narrower
        r = np.zeros((len(ch), cols.shape[1], j.max() + 1), dtype=complex)
        r[op, :, j] = l.conj()
        l = np.linalg.qr(r, mode="r").conj().transpose(0, 2, 1)[op, j]
    z = _images(ch, l)
    return z - frame @ (frame.conj().T @ z)


def _leak_norm2(y):
    """|Y|_2^2 from the smaller Gram matrix, formed after Y: keeps tiny leaks."""
    g = y.conj().T @ y if y.shape[1] < y.shape[0] else y @ y.conj().T
    return max(np.linalg.eigvalsh(g)[-1], 0.0) if g.size else 0.0


def _enclosure_frame(ch, frame, tol):
    """The smallest enclosure containing the span of the frame F: append Y Y^H e,
    orthonormal to F, for eigenvectors e of Y Y^H (Y the leak of the newest
    columns) above subspace_tol^2 and d eps lambda_max, to a leak <= subspace_tol."""
    new = frame
    while frame.shape[1] < ch.dim:
        y = _leak(ch, frame, new)
        w, e = np.linalg.eigh(y @ y.conj().T)
        grow = (w > tol.subspace_tol**2) & (w > ch.dim * np.finfo(float).eps * w[-1])
        if grow.any():
            m = y @ (y.conj().T @ e[:, grow])  # in Y's range to rounding; e may not be
            new = np.linalg.qr(m - frame @ (frame.conj().T @ m))[0]
            frame = np.hstack((frame, new))
        elif new is frame:
            break
        else:
            new = frame
    return frame


def _compressions(ch, frame):
    """The compressions F^H V_a F of every operator to the span of a (d, k)
    frame F, an (n, k, k) stack, from the Kraus images [V_1 F ... V_n F] of F
    side by side (``_images`` of the held rows times F)."""
    k = frame.shape[1]
    compressed = frame.conj().T @ _images(ch, ch._rows @ frame)
    return compressed.reshape(k, -1, k).transpose(1, 0, 2)


def _nnz_fraction(rows, op, n):
    """Fraction of nonzero entries of the superoperator of the Kraus family
    with the rows ``rows`` (m, d) of its n operators ``op``, from the
    sparsity of the operators: sum_a nnz(V_a)^2 / d^4."""
    nnz = np.bincount(op, weights=np.count_nonzero(rows, axis=1), minlength=n)
    return min(1.0, (nnz**2).sum() / float(rows.shape[1]) ** 4)


def _kraus_stack(kraus):
    """The Kraus operators as a new (n, d, d) complex array.  A family that
    converts to one with finite entries is taken whole; otherwise the error
    names the input or the first operator at fault."""
    try:
        ops = kraus if isinstance(kraus, np.ndarray) and kraus.ndim else list(kraus)
    except TypeError:
        raise ArgumentError(
            f"kraus must be a sequence of matrices, got {type(kraus).__name__}"
        ) from None
    if not len(ops):
        raise ArgumentError("a channel needs at least one Kraus operator")
    try:
        stack = np.array(ops, dtype=complex)
    except (TypeError, ValueError):
        stack = np.empty(0)
    square = stack.ndim == 3 and stack.shape[1] == stack.shape[2]
    if square and np.isfinite(stack).all():
        return stack
    for i, v in enumerate(ops):
        try:
            m = as_complex_matrix(v, f"kraus[{i}]")
        except (TypeError, ValueError) as err:
            raise ArgumentError(f"kraus[{i}] is not a numeric matrix ({err})") from None
        if i == 0:
            shape = (len(m), len(m)) if m.ndim == 2 else "(d, d)"
        if m.shape != shape:
            raise ArgumentError(f"kraus[{i}] has shape {m.shape}, expected {shape}")
    raise ArgumentError("kraus is not a family of equal square matrices")


def _kraus_gram(w):
    """sum_i V_i^H V_i as one product W^H W, for W the stacked operators
    (n d, d), the nonzero rows of it, or an (n, d, d) stack."""
    w = w.reshape(-1, w.shape[-1])
    return w.conj().T @ w


def _tp_defect(gram):
    """|G - I|_F / |I|_F of a Kraus Gram matrix G or a diagonal block: trace
    preserving at most eig_cluster_tol, the solve's rule for a fixed point X = I."""
    return float(np.linalg.norm(gram - np.eye(len(gram))) / np.sqrt(len(gram)))


def validate(ch, tol=DEFAULT_TOL):
    """Check trace preservation and the spectral-radius bound.

    Trace preserving means a defect of at most eig_cluster_tol, the solve's
    rule.  The adjoint map is positive, so by Russo-Dye its norm, which
    bounds the spectral radius, is |Phi^*(I)| = |sum V_i^H V_i|.
    """
    _check_tolerance(tol)
    gram = _kraus_gram(ch._rows)
    dev = _tp_defect(gram)
    radius = float(np.linalg.eigvalsh(gram)[-1])
    return ValidationReport(
        kraus_sum_deviation=dev,
        spectral_radius=radius,
        trace_preserving=dev <= tol.eig_cluster_tol,
        spectral_radius_ok=radius <= 1.0 + tol.eig_cluster_tol,
    )


def from_markov_chain(p, tol=DEFAULT_TOL):
    """Channel of a classical Markov chain.

    Parameters
    ----------
    p : (n, n) array_like
        Column-stochastic transition matrix: p[i, j] is the probability of
        jumping from state j to state i, columns sum to one by ``validate``'s
        rule at ``tol``.  Entries down to -``tol.psd_tol`` count as zero.

    Returns
    -------
    KrausChannel
        Kraus operators sqrt(p[i, j]) |e_i><e_j| (zero entries dropped).
        Diagonal states evolve exactly as the classical chain.
    """
    _check_tolerance(tol)
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or not p.size:
        raise ArgumentError("transition matrix must be square and nonempty")
    if not np.isfinite(p).all():
        raise ArgumentError("transition matrix has non-finite entries")
    n = p.shape[0]
    if p.min() < -tol.psd_tol:
        raise ArgumentError("transition matrix has negative entries")
    p = np.where(p < 0.0, 0.0, p)
    col_dev = _tp_defect(np.diag(p.sum(axis=0)))  # the channel's defect
    if col_dev > tol.eig_cluster_tol:
        raise ArgumentError(f"columns must sum to one (defect {col_dev:.3e})")
    # one operator per positive entry, ordered by column j, then row i; its
    # only nonzero row is row i
    j, i = np.nonzero(p.T > 0.0)
    rows = np.zeros((j.size, n), dtype=complex)
    rows[np.arange(j.size), j] = np.sqrt(p[i, j])
    return KrausChannel._from_rows(rows, np.arange(j.size) * n + i, n)


def oqrw_transition_map(p, q, num_sites):
    """Nearest-neighbour transition operators of a half-line open quantum
    random walk whose jump rates depend on a three-level internal state.

    Internal space C^3; sites 0..N on the half-line with N = num_sites.
    Requires 0 < p < 1/2 and p + q < 1 with q > 0.  The returned map
    contains L_{N+1,N}, which :func:`from_oqrw` removes via the reflecting
    boundary rule; that rule rescales L_{N-1,N}, so the map builds a
    channel only for num_sites >= 1.

    Returns
    -------
    dict mapping (i, j) -> (3, 3) ndarray
    """
    if not (0.0 < p < 0.5):
        raise ArgumentError("p must satisfy 0 < p < 1/2")
    if not (0.0 < q and p + q < 1.0):
        raise ArgumentError("q must satisfy q > 0 and p + q < 1")
    _check_integer(num_sites, "num_sites", 0)
    n_sites = num_sites + 1
    eye3 = np.eye(3, dtype=complex)
    l_up = np.sqrt(p) * eye3
    l_down = np.diag([np.sqrt(1 - p), np.sqrt(1 - p), np.sqrt(q)]).astype(complex)
    l_stay = np.sqrt((1 - p - q) / 2.0) * np.array(
        [[0, 0, 1], [0, 0, 1], [0, 0, 0]], dtype=complex
    )
    transitions = {(0, 0): np.sqrt(1 - p) * eye3}
    for j in range(n_sites):
        if j >= 1:
            transitions[(j, j)] = l_stay
            transitions[(j - 1, j)] = l_down
        transitions[(j + 1, j)] = l_up
    return transitions


def from_oqrw(transitions, num_sites, tol=DEFAULT_TOL):
    """Truncated open quantum random walk channel on C^(n*(N+1)).

    Parameters
    ----------
    transitions : mapping (i, j) -> (n, n) array_like
        Site-transition operators L_{i,j} of the walk, for source sites
        0 <= j <= N.  Every retained column j must satisfy
        sum_i L_{i,j}^H L_{i,j} = I by ``validate``'s rule at ``tol``
        *before* truncation.
    num_sites : int
        Truncation index N; sites 0..N are kept.

    Notes
    -----
    Reflecting boundary: at the last site N the outgoing operator
    L_{N+1,N} is removed and L = L_{N-1,N} becomes L diag(s), s_k^2 =
    max(t_k, 0) / g_k (0 where g_k <= psd_tol), for t and g the diagonals of
    I - sum_{i<=N, i!=N-1} L_{i,N}^H L_{i,N} and of L^H L.  The rescaled column
    must meet it too, so ``validate`` accepts the channel.  The ambient
    ordering is internal ⊗ site, i.e. basis vector e_a ⊗ |j> sits at
    index a*(N+1) + j.
    """
    _check_tolerance(tol)
    _check_integer(num_sites, "num_sites", 0)
    n_last, n_sites = num_sites, num_sites + 1
    ops = {}
    n_int = None
    for (i, j), mat in transitions.items():
        mat = as_complex_matrix(mat, f"L[{i},{j}]")
        if mat.ndim != 2 or not mat.size:
            raise ArgumentError(f"L[{i},{j}] must be a nonempty matrix")
        if n_int is None:
            n_int = mat.shape[0]
        if mat.shape != (n_int, n_int):
            raise ArgumentError(f"L[{i},{j}] must be {n_int}x{n_int}")
        if j < 0 or i < 0:
            raise ArgumentError("site indices must be nonnegative")
        if j <= n_last:
            ops[(i, j)] = mat
    if n_int is None:
        raise ArgumentError("transition map is empty")

    for j in range(n_sites):
        total = sum(m.conj().T @ m for (i, jj), m in ops.items() if jj == j)
        if not isinstance(total, np.ndarray) or _tp_defect(total) > tol.eig_cluster_tol:
            raise ArgumentError(
                f"column {j} is not normalized before truncation"
            )

    overflow = [(i, j) for (i, j) in ops if i > n_last]
    for (i, j) in overflow:
        if (i, j) != (n_last + 1, n_last):
            raise ArgumentError(
                f"operator L[{i},{j}] jumps beyond the truncated lattice"
            )
    if overflow:
        del ops[(n_last + 1, n_last)]
        back = (n_last - 1, n_last)
        if back[0] < 0:
            raise ArgumentError("reflecting boundary needs a site N - 1 (num_sites >= 1)")
        if back not in ops:
            raise ArgumentError("reflecting boundary needs the back-hop L[N-1,N]")
        others = sum(
            m.conj().T @ m
            for (i, jj), m in ops.items()
            if jj == n_last and (i, jj) != back
        )
        t_diag = 1.0 - np.diag(others).real
        g_diag = np.diag(ops[back].conj().T @ ops[back]).real
        scale = np.zeros(n_int)
        kept = g_diag > tol.psd_tol
        scale[kept] = np.sqrt(np.maximum(t_diag[kept], 0.0) / g_diag[kept])
        ops[back] = ops[back] @ np.diag(scale)
        if _tp_defect(others + ops[back].conj().T @ ops[back]) > tol.eig_cluster_tol:
            raise ArgumentError("normalization failure after adjustment")

    # V = L ⊗ |i><j| has its nonzero rows a (N+1) + i, row a being
    # L[a] ⊗ <j|: one (n_int, d) block per operator
    d = n_int * n_sites
    blocks, row_ids = [], []
    for (i, j), mat in sorted(ops.items()):
        site = np.zeros((1, n_sites), dtype=complex)
        site[0, j] = 1.0
        blocks.append(np.kron(mat, site))
        row_ids.append(len(row_ids) * d + np.arange(n_int) * n_sites + i)
    return KrausChannel._from_rows(np.concatenate(blocks), np.concatenate(row_ids), d)


# Normalized Pauli basis: sigma_0 = I/sqrt(2), sigma_k = pauli_k/sqrt(2).
_PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
) / np.sqrt(2.0)


def qubit_bloch_form(ch):
    """Affine Bloch action (b, A) of a qubit channel.

    With the normalized Pauli basis sigma_0..sigma_3, the channel acts as
    Phi(sigma_0 + u . sigma) = sigma_0 + (b + A u) . sigma, which needs Phi
    trace preserving by ``validate`` at DEFAULT_TOL: tr(sigma_0 Phi(sigma_j)) = delta_0j.

    Returns
    -------
    b : (3,) float ndarray
    A : (3, 3) float ndarray
    """
    if ch.dim != 2:
        raise ArgumentError("qubit_bloch_form requires a channel on C^2")
    dev = _tp_defect(_kraus_gram(ch._rows))
    if dev > DEFAULT_TOL.eig_cluster_tol:
        raise ArgumentError(f"channel is not trace preserving (defect {dev:.3e})")
    # t[i, j] = tr(sigma_i Phi(sigma_j)), real to rounding: Phi(X)^H = Phi(X^H)
    t = np.einsum("iab,jba->ij", _PAULI, _apply_stack(ch, _PAULI))
    imag_max, cut = np.abs(t.imag).max(), DEFAULT_TOL.subspace_tol * np.abs(t).max()
    if imag_max > cut:
        raise ArgumentError(f"Bloch coefficients have an imaginary part {imag_max:.3e}")
    return t[1:, 0].real, t[1:, 1:].real
