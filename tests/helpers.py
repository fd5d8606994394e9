"""Shared generators and independent oracles for the test suite.

Everything here is deliberately implemented from first principles (classical
graph reachability, stationary laws via least squares, support iteration)
so the tests never reuse the library code paths they are checking.
"""

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import chanstruct as cs

_PAULIS = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_family(d, k, rng):
    """A Haar-random trace-preserving Kraus family: vertical blocks of a
    random isometry C^d -> C^(dk)."""
    z = rng.standard_normal((d * k, d)) + 1j * rng.standard_normal((d * k, d))
    q, _ = np.linalg.qr(z)
    return [q[i * d : (i + 1) * d, :] for i in range(k)]


def random_channel(d, k, rng):
    return cs.KrausChannel(random_kraus_family(d, k, rng))


def cyclic_channel(rng, dims, n_kraus=3):
    """An irreducible channel of period len(dims), in a Haar-random basis:
    every Kraus operator maps the k-th of orthogonal subspaces of dimensions
    ``dims`` into the next one, cyclically, as a block of a random isometry
    C^(dims[k]) -> C^(n_kraus dims[k+1])."""
    offsets = np.cumsum([0, *dims])
    m = offsets[-1]
    stack = np.zeros((n_kraus, m, m), dtype=complex)
    for k, src in enumerate(dims):
        j = (k + 1) % len(dims)
        dst = dims[j]
        z = rng.standard_normal((n_kraus * dst, src))
        q, _ = np.linalg.qr(z + 1j * rng.standard_normal(z.shape))
        block = (slice(None), slice(offsets[j], offsets[j + 1]))
        stack[block + (slice(offsets[k], offsets[k + 1]),)] = q.reshape(
            n_kraus, dst, src
        )
    u = haar_unitary(m, rng)
    return cs.KrausChannel(u @ stack @ u.conj().T)


def random_state(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def bloch_vector(rho):
    """Standard Bloch coordinates u_i = Tr(pauli_i rho) of a qubit state."""
    return np.array([np.trace(p @ rho).real for p in _PAULIS])


def amplitude_damping_channel(p):
    """Qubit amplitude damping: V1 = sqrt(p)|e1><e2|, V2 = diag(1, sqrt(1-p)).

    Population decays from e2 into e1 at rate p; e1 is absorbing."""
    v1 = np.sqrt(p) * np.array([[0.0, 1.0], [0.0, 0.0]])
    v2 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]])
    return cs.KrausChannel([v1, v2])


def amplitude_damping_apply(rho, p):
    """Closed-form action of the amplitude damping channel."""
    return np.array(
        [
            [rho[0, 0] + p * rho[1, 1], np.sqrt(1.0 - p) * rho[0, 1]],
            [np.sqrt(1.0 - p) * rho[1, 0], (1.0 - p) * rho[1, 1]],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------------------
# classical chains


def planted_markov(rng, max_states=8):
    """Column-stochastic matrix with planted recurrent classes and transient
    states.  Returns (P, recurrent classes as index lists, transient indices).
    """
    n_classes = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 4)) for _ in range(n_classes)]
    while sum(sizes) > max_states - 1:
        sizes = sizes[:-1]
    n_rec = sum(sizes)
    n_tr = int(rng.integers(0, max_states - n_rec + 1))
    n = n_rec + n_tr
    p = np.zeros((n, n))
    start = 0
    classes = []
    for size in sizes:
        idx = list(range(start, start + size))
        classes.append(idx)
        block = rng.uniform(0.1, 1.0, size=(size, size))
        block /= block.sum(axis=0, keepdims=True)
        p[np.ix_(idx, idx)] = block
        start += size
    for j in range(n_rec, n):
        col = rng.uniform(0.0, 1.0, size=n)
        # guarantee leakage into the recurrent part so j is truly transient
        col[int(rng.integers(0, n_rec))] += 1.0
        p[:, j] = col / col.sum()
    return p, classes, list(range(n_rec, n))


def classical_recurrent_classes(p):
    """Closed communication classes of the chain, by strong components of
    the digraph with an edge j -> i whenever p[i, j] > 0."""
    n = p.shape[0]
    adj = csr_matrix((p.T > 0).astype(int))
    n_comp, labels = connected_components(
        adj, directed=True, connection="strong"
    )
    classes = []
    transient = []
    for c in range(n_comp):
        members = [i for i in range(n) if labels[i] == c]
        outside = [i for i in range(n) if labels[i] != c]
        closed = not (outside and np.any(p[np.ix_(outside, members)] > 0))
        (classes if closed else transient).append(members)
    flat_transient = sorted(t for grp in transient for t in grp)
    return sorted(classes, key=min), flat_transient


def stationary_law(p_block):
    """Stationary distribution of an irreducible column-stochastic block.

    Least squares on [P - I; 1] is off by about eps / |1 - lambda_2|, so a
    block whose second eigenvalue lies within 1e-6 of 1 is refused."""
    n = p_block.shape[0]
    distances = np.sort(np.abs(np.linalg.eigvals(p_block) - 1.0))
    assert distances[1:2].min(initial=np.inf) > 1e-6, distances[:2]
    a = np.vstack([p_block - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def two_classes_and_transients():
    """A chain with closed classes {0, 1} and {2} and transient states 3, 4."""
    p = np.zeros((5, 5))
    p[:2, :2] = [[0.6, 0.3], [0.4, 0.7]]
    p[2, 2] = 1.0
    p[:, 3] = [0.2, 0.1, 0.3, 0.1, 0.3]
    p[:, 4] = [0.0, 0.5, 0.2, 0.3, 0.0]
    return cs.from_markov_chain(p)


def two_class_chain(eps):
    """Two 2-state classes, {0, 1} and {2, 3}, joined by eps each way: state
    1 (stationary weight 0.46 in its class) jumps to 2 and state 2 (0.46) to
    1, so lambda_2 = 1 - 0.92 eps to first order.  The flows 1 -> 2 and
    2 -> 1 balance, so the stationary law is (0.27, 0.23, 0.23, 0.27) for
    every eps."""
    p = np.array(
        [
            [0.77, 0.27, 0.0, 0.0],
            [0.23, 0.73 - eps, eps, 0.0],
            [0.0, eps, 0.73 - eps, 0.23],
            [0.0, 0.0, 0.27, 0.77],
        ]
    )
    return cs.from_markov_chain(p)


def slow_birth_death(n=20, tail=0):
    """A reflecting chain on n states, up 0.1 and down 0.9, so the stationary
    law falls as 9^-i; with ``tail`` > 0, a path n -> ... -> 0 of ``tail``
    transient states feeds it."""
    p = np.zeros((n + tail, n + tail))
    p[:n, :n] = np.diag(np.full(n - 1, 0.1), -1) + np.diag(np.full(n - 1, 0.9), 1)
    p[0, 0], p[n - 1, n - 1] = 0.9, 0.1
    if tail:
        p[np.r_[n + 1 : n + tail, 0], np.arange(n, n + tail)] = 1.0
    return cs.from_markov_chain(p)


def coordinate_projector(n, indices):
    p = np.zeros((n, n))
    for i in indices:
        p[i, i] = 1.0
    return p


def hermitian_unitary(d):
    """U = ((1+i) I + (1-i) K) / 2, K the vec swap vec(X) -> vec(X^T): the
    explicit matrix of the real coordinates M_h = U^H M U."""
    n2 = d * d
    swap = np.zeros((n2, n2))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return ((1 + 1j) * np.eye(n2) + (1 - 1j) * swap) / 2.0


def phased_walk(n_sites):
    """OQRW conjugated by a diagonal phase: sparse Kraus operators with
    complex entries."""
    ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, n_sites), n_sites)
    phase = np.diag(np.exp(0.7j * np.arange(ch.dim)))
    return cs.KrausChannel([phase @ v @ phase.conj().T for v in ch.kraus])


# ---------------------------------------------------------------------------
# planted quantum structure


def planted_channel(rng, alpha_dims, beta_specs, n_transient, n_kraus=3):
    """Random unitary conjugation of a direct sum of irreducible blocks.

    ``alpha_dims`` lists dimensions of isolated irreducible summands;
    ``beta_specs`` lists (dim, copies) pairs, each contributing
    Id_copies (x) W_i for a random irreducible family W; ``n_transient``
    appends a generically-fed transient corner.  Returns (channel, truth)
    where truth records the planted counts and the conjugating unitary.
    """
    blocks = []
    for dim in alpha_dims:
        blocks.append(random_kraus_family(dim, n_kraus, rng))
    for dim, copies in beta_specs:
        fam = random_kraus_family(dim, n_kraus, rng)
        blocks.append([np.kron(np.eye(copies), v) for v in fam])
    dims = [b[0].shape[0] for b in blocks]
    d_rec = sum(dims)
    big = []
    for i in range(n_kraus):
        v = np.zeros((d_rec, d_rec), dtype=complex)
        offset = 0
        for b, dim in zip(blocks, dims):
            v[offset : offset + dim, offset : offset + dim] = b[i]
            offset += dim
        big.append(v)
    d = d_rec + n_transient
    if n_transient:
        # the stacked Kraus matrix must be an isometry; its first d_rec
        # columns are fixed by the recurrent family, the remaining columns
        # are a random orthonormal completion
        first_cols = np.zeros((d * n_kraus, d_rec), dtype=complex)
        for i in range(n_kraus):
            first_cols[i * d : i * d + d_rec, :] = big[i]
        g = rng.standard_normal((d * n_kraus, n_transient)) + (
            1j * rng.standard_normal((d * n_kraus, n_transient))
        )
        g -= first_cols @ (first_cols.conj().T @ g)
        q, _ = np.linalg.qr(g)
        kraus = []
        for i in range(n_kraus):
            v = np.zeros((d, d), dtype=complex)
            v[:d_rec, :d_rec] = big[i]
            v[:, d_rec:] = q[i * d : (i + 1) * d, :]
            kraus.append(v)
    else:
        kraus = big
    u = haar_unitary(d, rng)
    truth = {
        "dim": d,
        "n_alpha": len(alpha_dims),
        "beta_sizes": sorted(copies for _, copies in beta_specs),
        "d_transient": n_transient,
        "fixed_dim": len(alpha_dims)
        + sum(copies * copies for _, copies in beta_specs),
        "unitary": u,
    }
    return cs.KrausChannel([u @ v @ u.conj().T for v in kraus]), truth


def lindblad_kraus(d, t):
    """A Kraus family of the channel e^(tL), near the identity for small t,
    everything drawn from default_rng(d).  L has the Hamiltonian H, the
    Hermitian part of a complex Gaussian, and two jump operators, each a
    complex Gaussian divided by sqrt(2d).  The Kraus operators of norm above
    1e-7 are read off the eigendecomposition of the Choi matrix of
    expm(tL), then K <- K S^(-1/2) for S = sum K^H K, so that the family is
    trace preserving to rounding."""
    rng = np.random.default_rng(d)
    gauss = lambda: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))  # noqa: E731
    g = gauss()
    h = (g + g.conj().T) / 2.0
    jumps = [gauss() / np.sqrt(2.0 * d) for _ in range(2)]
    eye = np.eye(d)
    # vec(A X B) = (B^T kron A) vec(X), vec stacking columns
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for j in jumps:
        jj = j.conj().T @ j
        gen += np.kron(j.conj(), j) - 0.5 * (np.kron(eye, jj) + np.kron(jj.T, eye))
    m = expm(t * gen)
    # m[a + d b, k + d l] = sum_i K_i[a, k] conj(K_i[b, l]); the Choi matrix
    # C[(a, k), (b, l)] is that sum, so C = sum_i vec_row(K_i) vec_row(K_i)^H
    choi = m.reshape(d, d, d, d, order="F").transpose(0, 2, 1, 3).reshape(d * d, d * d)
    w, v = np.linalg.eigh((choi + choi.conj().T) / 2.0)
    keep = np.sqrt(np.maximum(w, 0.0)) > 1e-7
    kraus = (v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, d, d)
    s = np.einsum("iba,ibc->ac", kraus.conj(), kraus)
    sw, sv = np.linalg.eigh(s)
    return cs.KrausChannel(kraus @ (sv / np.sqrt(sw)) @ sv.conj().T)


# ---------------------------------------------------------------------------
# support-closure oracle


def support_closure(ch, x, tol=1e-9):
    """Smallest enclosure containing x, via the accumulated-support
    iteration: the support of sum_k Phi^k(|x><x|) stabilizes at the
    enclosure generated by x."""
    d = ch.dim
    rho0 = np.outer(x, np.conj(x))
    rho0 = rho0 / np.trace(rho0).real
    sigma = rho0.copy()
    prev_dim = -1
    w, v = np.linalg.eigh(sigma)
    mask = w >= tol * w[-1]
    for _ in range(d + 2):
        w, v = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
        mask = w >= tol * w[-1]
        if int(mask.sum()) == prev_dim:
            break
        prev_dim = int(mask.sum())
        sigma = rho0 + cs.apply(ch, sigma)
        sigma = sigma / np.trace(sigma).real
    return cs.Subspace(d, v[:, mask])


# ---------------------------------------------------------------------------
# report invariants


def report_invariants(report):
    """What a decomposition determines, free of the frames and block order
    it was written in: the R and D projectors, each A-block's projector and
    state spectrum, each B-block's span, copy count and reference-state
    spectrum, the fixed-space dimension and the peripheral spectrum.  Takes a
    DecompositionReport or a ReportFile."""
    rf = report if hasattr(report, "report") else cs.report_file_from_report(report)
    rep = rf.report
    return {
        "R": rep.R.projector(),
        "D": rep.D.projector(),
        "alpha": [
            (b.enclosures[0].projector(), np.linalg.eigvalsh(b.sigma))
            for b in rep.alpha_blocks
        ],
        "beta": [
            (
                sum(v.projector() for v in b.enclosures),
                len(b.enclosures),
                np.linalg.eigvalsh(b.sigma),
            )
            for b in rep.beta_blocks
        ],
        "fixed_space_dimension": rf.fixed_space_dimension,
        "peripheral_spectrum": np.array(rf.peripheral_spectrum),
    }


def conjugated_invariants(inv, u):
    """The invariants of the channel conjugated by the unitary u: every
    projector P becomes u P u^H, the spectra stay."""
    move = lambda p: u @ p @ u.conj().T  # noqa: E731
    return {
        **inv,
        "R": move(inv["R"]),
        "D": move(inv["D"]),
        "alpha": [(move(p), s) for p, s in inv["alpha"]],
        "beta": [(move(p), n, s) for p, n, s in inv["beta"]],
    }


def invariant_deviations(a, b):
    """The largest max-abs deviations between two reports' invariants, as
    {"R": ..., "D": ..., "blocks": ..., "spectrum": ...}; the blocks of b are
    matched to those of a by their projectors.  Raises AssertionError when
    the block counts, copy counts or fixed-space dimensions differ."""
    assert a["fixed_space_dimension"] == b["fixed_space_dimension"]
    assert len(a["alpha"]) == len(b["alpha"])
    assert sorted(n for _, n, _ in a["beta"]) == sorted(n for _, n, _ in b["beta"])
    blocks = 0.0
    for kind in ("alpha", "beta"):
        rest = list(b[kind])
        for block in a[kind]:
            dist = [np.abs(block[0] - other[0]).max() for other in rest]
            match = rest.pop(int(np.argmin(dist)))
            assert block[1:-1] == match[1:-1] and len(block[-1]) == len(match[-1])
            blocks = max(blocks, min(dist), np.abs(block[-1] - match[-1]).max())
    sa, sb = a["peripheral_spectrum"], b["peripheral_spectrum"]
    assert sa.shape == sb.shape
    return {
        "R": float(np.abs(a["R"] - b["R"]).max()),
        "D": float(np.abs(a["D"] - b["D"]).max()),
        "blocks": float(blocks),
        "spectrum": float(np.abs(sa - sb).max(initial=0.0)),
    }


def assert_canonical(frame):
    """The form ``_canonical`` gives: in the order of decreasing row norm
    (8 decimals, ties by index), zero after the diagonal, with real positive
    leading entries, and no zero of negative sign."""
    order = np.argsort(-np.round(np.linalg.norm(frame, axis=1), 8), kind="stable")
    r = frame[order]
    assert not np.triu(r, 1).any()
    lead = np.diag(r)
    assert (lead.imag == 0.0).all() and (lead.real > 0.0).all()
    assert not np.signbit(frame.real[frame.real == 0.0]).any()
    assert not np.signbit(frame.imag[frame.imag == 0.0]).any()
