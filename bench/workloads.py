"""Seeded channel ladders for the chanstruct benchmark.

A workload is a ladder of channels drawn from the bench seed.  The program
under test sees only the channel files written here, and they are written
through the entry points a user has: ``chanstruct build oqrw`` and
``chanstruct build markov`` for those families, and the channel serializer
for planted channels.  The generators below are written from first
principles and share no code with the program under test.

Sizes and block layouts are fixed per workload and only the contents vary
with the seed: the cost of the dense kernels follows d and dim R, and the
report size follows the block count, not the random entries.
"""

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("planted-dense", "oqrw-sparse", "markov-kraus-heavy")

# planted-dense: (A-block dims, B-blocks as (dim, copies), dim D), giving
# d = 20, 26, 32.  Every rung stays in the dense-SVD tier (d^2 <= 1600).  A
# d >= 41 rung would enter the dense-LU Arnoldi tier, but one such channel
# takes 20-55 s to decompose and 27-61 s more for the report extras at
# 2 BLAS threads, which no run of this benchmark can hold.
PLANTED_RUNGS = (
    ([3, 5], [(3, 2)], 6),
    ([4], [(2, 3), (5, 2)], 6),
    ([3, 6], [(3, 3), (4, 2)], 6),
)
PLANTED_KRAUS = 3

# oqrw-sparse: truncation index N (d = 3(N+1)), one rung per entry, each with
# its own (p, q).  The Arnoldi iteration count varies by about 15% with
# (p, q), so two rungs halve that spread.  N = 20 (d = 63) costs about 40 s
# per pass at 2 BLAS threads, so the ladder keeps N = 13.
OQRW_SITES = (13, 13)
# p is kept above the value where the stationary weight of the last site,
# (p/(1-p))^N, falls below the default rank tolerance (1e-9).
OQRW_P = (0.25, 0.45)
OQRW_Q = (0.1, 0.5)

# markov-kraus-heavy: (closed-class sizes, transient states, Kraus operators)
# giving d = 22, 26, 30.  d <= 32 keeps every solve in the dense tier; the
# Kraus count is the number of nonzero transition probabilities.
MARKOV_RUNGS = (
    ([5, 4, 3, 2], 8, 110),
    ([6, 5, 3, 2], 10, 160),
    ([6, 6, 4, 2], 12, 210),
)

# Sweeps of CLI validate and of the read path per pass.  These operations
# are short, so several sweeps give a steady median within one run.
SWEEPS = {"planted-dense": (1, 5), "oqrw-sparse": (3, 3), "markov-kraus-heavy": (1, 1)}

# Seconds one pass takes on a 2-core x86 machine at 2 BLAS threads; a run
# makes --seconds // PASS_SECONDS passes (at least one).
PASS_SECONDS = {"planted-dense": 12, "oqrw-sparse": 40, "markov-kraus-heavy": 16}


@dataclass
class Rung:
    """One channel of a ladder, with the truth its report must match."""

    name: str
    family: str
    dim: int
    n_kraus: int
    truth: dict
    channel_path: str

    @property
    def report_path(self):
        return self.channel_path[: -len(".json")] + ".report.json"


def run_cli(argv, stdout_path):
    """``chanstruct <argv>`` in-process, with stdout sent to a file.  The
    entry point is looked up at each call, so span wrappers see it."""
    import chanstruct.cli as cs_cli

    with open(stdout_path, "w", encoding="utf-8") as fh:
        with contextlib.redirect_stdout(fh):
            return cs_cli.main(argv)


def _build(argv, stdout_path):
    code = run_cli(argv, stdout_path)
    if code != 0:
        raise RuntimeError(f"chanstruct {' '.join(argv[:2])} exited {code}")


# ---------------------------------------------------------------------------
# planted channels


def _haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_isometry_family(dim, n_kraus, rng):
    """Generic (hence irreducible and primitive) Kraus family on C^dim."""
    z = rng.standard_normal((dim * n_kraus, dim)) + 1j * rng.standard_normal(
        (dim * n_kraus, dim)
    )
    q, _ = np.linalg.qr(z)
    return [q[i * dim : (i + 1) * dim] for i in range(n_kraus)]


def planted_kraus(rng, alpha_dims, beta_specs, n_transient, n_kraus=PLANTED_KRAUS):
    """Haar-conjugated direct sum of A-blocks, B-blocks Id_copies (x) W and a
    transient corner fed into the recurrent part.  Returns (kraus, truth)."""
    blocks = [_random_isometry_family(dm, n_kraus, rng) for dm in alpha_dims]
    for dm, copies in beta_specs:
        fam = _random_isometry_family(dm, n_kraus, rng)
        blocks.append([np.kron(np.eye(copies), v) for v in fam])
    r = sum(b[0].shape[0] for b in blocks)
    d = r + n_transient
    # The stacked Kraus matrix is an isometry C^d -> C^(d n_kraus): its first
    # r columns carry the block family, the last n_transient columns are a
    # random orthonormal completion, so the corner leaks into R.
    stacked = np.zeros((d * n_kraus, d), dtype=complex)
    offset = 0
    for b in blocks:
        dm = b[0].shape[0]
        for i in range(n_kraus):
            stacked[i * d + offset : i * d + offset + dm, offset : offset + dm] = b[i]
        offset += dm
    g = rng.standard_normal((d * n_kraus, n_transient)) + 1j * rng.standard_normal(
        (d * n_kraus, n_transient)
    )
    g -= stacked[:, :r] @ (stacked[:, :r].conj().T @ g)
    stacked[:, r:] = np.linalg.qr(g)[0]
    u = _haar_unitary(d, rng)
    kraus = [u @ stacked[i * d : (i + 1) * d] @ u.conj().T for i in range(n_kraus)]
    truth = {
        "n_alpha": len(alpha_dims),
        "beta_sizes": sorted(c for _, c in beta_specs),
        "dim_D": n_transient,
        "fixed_dim": len(alpha_dims) + sum(c * c for _, c in beta_specs),
    }
    return kraus, truth


def _write_planted_rung(cs, kraus, truth, stem, workdir):
    ch = cs.KrausChannel(kraus)
    path = os.path.join(workdir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cs.canonical_dumps(cs.channel_to_dict(ch, {"name": "planted"})))
    return Rung(stem, "planted", ch.dim, len(ch.kraus), truth, path)


def _write_planted(cs, rng, layout, workdir, idx):
    kraus, truth = planted_kraus(rng, *layout)
    d = kraus[0].shape[0]
    return _write_planted_rung(cs, kraus, truth, f"planted{idx}-d{d}", workdir)


# ---------------------------------------------------------------------------
# Markov chains


def planted_markov(rng, sizes, n_transient, nnz):
    """Column-stochastic chain with dense closed classes of the given sizes,
    ``n_transient`` transient states and exactly ``nnz`` positive entries.
    Every transient column puts mass on a recurrent state, so no set of
    transient states is closed."""
    r = sum(sizes)
    d = r + n_transient
    per_col = nnz - sum(s * s for s in sizes)
    if not 2 * n_transient <= per_col <= d * n_transient:
        raise ValueError(f"no chain with classes {sizes}, {n_transient} transient, {nnz} entries")
    p = np.zeros((d, d))
    start = 0
    for s in sizes:
        block = rng.uniform(0.1, 1.0, size=(s, s))
        p[start : start + s, start : start + s] = block / block.sum(axis=0)
        start += s
    counts = np.full(n_transient, per_col // n_transient)
    counts[: per_col % n_transient] += 1
    for j, k in zip(range(r, d), counts):
        rows = [int(rng.integers(0, r))]
        others = [i for i in range(d) if i != rows[0]]
        rows += [int(i) for i in rng.choice(others, size=int(k) - 1, replace=False)]
        col = rng.uniform(0.05, 1.0, size=len(rows))
        p[rows, j] = col / col.sum()
    return p


def closed_classes(p):
    """Closed communicating classes of a column-stochastic chain (edge
    j -> i when p[i, j] > 0), by reachability closure: i and j communicate
    when each reaches the other, and a class is closed when nothing outside
    it is reachable from it."""
    n = p.shape[0]
    reach = (p.T > 0) | np.eye(n, dtype=bool)  # reach[j, i]: j -> i
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    classes = []
    seen = set()
    for j in range(n):
        if j in seen:
            continue
        members = [i for i in range(n) if reach[j, i] and reach[i, j]]
        seen.update(members)
        if all(reach[j, i] <= reach[i, j] for i in range(n)):
            classes.append(members)
    return sorted(classes, key=min)


def _write_markov(rng, spec, workdir, idx):
    p = planted_markov(rng, *spec)
    d = p.shape[0]
    stem = f"markov{idx}-d{d}"
    matrix_path = os.path.join(workdir, stem + ".matrix.json")
    with open(matrix_path, "w", encoding="utf-8") as fh:
        json.dump(p.tolist(), fh)
    path = os.path.join(workdir, stem + ".json")
    _build(
        ["build", "markov", "--matrix", matrix_path, "--out", path],
        os.path.join(workdir, "build.stdout"),
    )
    classes = closed_classes(p)
    truth = {"classes": classes, "dim_D": d - sum(len(c) for c in classes)}
    return Rung(stem, "markov", d, int(np.count_nonzero(p)), truth, path)


# ---------------------------------------------------------------------------
# open quantum random walks


def _write_oqrw(rng, n_sites, workdir, idx):
    p = round(float(rng.uniform(*OQRW_P)), 4)
    q = round(float(rng.uniform(*OQRW_Q)), 4)
    stem = f"oqrw{idx}-N{n_sites}"
    path = os.path.join(workdir, stem + ".json")
    _build(
        ["build", "oqrw", "--p", repr(p), "--q", repr(q),
         "--sites", str(n_sites), "--out", path],
        os.path.join(workdir, "build.stdout"),
    )
    # Truth from the walk's structure: the internal levels 1 and 2 each
    # carry one recurrent lane over sites 0..N, level 3 is transient, and
    # the two lanes are unitarily equivalent (one B-block of 2 copies).
    truth = {
        "p": p,
        "q": q,
        "dim_R": 2 * n_sites + 2,
        "n_alpha": 0,
        "beta_sizes": [2],
        "fixed_dim": 4,
    }
    n_kraus = 3 * n_sites + 1  # stay on 1..N, hop up on 0..N, hop down on 1..N, stay at 0
    return Rung(stem, "oqrw", 3 * (n_sites + 1), n_kraus, truth, path)


def build_warmup(workdir):
    """One small planted channel that runs every stage of a pass."""
    import chanstruct as cs

    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(0)
    kraus, truth = planted_kraus(rng, [2], [(2, 2)], 2)
    return [_write_planted_rung(cs, kraus, truth, "warmup", workdir)]


def build_ladder(workload, seed, workdir):
    """Generate the workload's ladder from ``seed`` and write its channel
    files into ``workdir``.  Returns the list of rungs."""
    import chanstruct as cs

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    if workload == "planted-dense":
        rungs = [
            _write_planted(cs, rng, layout, workdir, i)
            for i, layout in enumerate(PLANTED_RUNGS)
        ]
    elif workload == "oqrw-sparse":
        rungs = [
            _write_oqrw(rng, n, workdir, i) for i, n in enumerate(OQRW_SITES)
        ]
    elif workload == "markov-kraus-heavy":
        rungs = [
            _write_markov(rng, spec, workdir, i)
            for i, spec in enumerate(MARKOV_RUNGS)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rungs
