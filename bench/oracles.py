"""Correctness oracles: each compares a stored report with a truth known
independently of the program (the planted layout, the walk's structure, a
graph search on the Markov matrix).  An oracle returns a list of mismatch
messages; an empty list means the report is correct."""

import numpy as np

ROUND_TRIP_TOL = 1e-7


def _columns(matrix_lists):
    return len(matrix_lists[0]) if matrix_lists else 0


def _frame(matrix_lists):
    a = np.asarray(matrix_lists, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def check_report(rung, doc):
    """Structural truth of one parsed report document."""
    truth = rung.truth
    errors = []
    alpha, beta = doc["alpha_blocks"], doc["beta_blocks"]
    if rung.family in ("planted", "oqrw"):
        if len(alpha) != truth["n_alpha"]:
            errors.append(f"A-blocks {len(alpha)} != {truth['n_alpha']}")
        sizes = sorted(len(b["enclosures"]) for b in beta)
        if sizes != truth["beta_sizes"]:
            errors.append(f"B-block sizes {sizes} != {truth['beta_sizes']}")
        if doc["fixed_space_dimension"] != truth["fixed_dim"]:
            errors.append(
                f"fixed-space dim {doc['fixed_space_dimension']} != {truth['fixed_dim']}"
            )
    if "dim_D" in truth and _columns(doc["transient_basis"]) != truth["dim_D"]:
        errors.append(f"dim D {_columns(doc['transient_basis'])} != {truth['dim_D']}")
    if "dim_R" in truth and _columns(doc["recurrent_basis"]) != truth["dim_R"]:
        errors.append(f"dim R {_columns(doc['recurrent_basis'])} != {truth['dim_R']}")
    if rung.family == "markov":
        errors += _check_markov(rung, doc)
    return errors


def _check_markov(rung, doc):
    """Each closed class is one A-block whose enclosure is spanned by the
    class's basis states; there are no B-blocks."""
    classes = rung.truth["classes"]
    errors = []
    if doc["beta_blocks"]:
        errors.append(f"{len(doc['beta_blocks'])} B-blocks in a classical chain")
    supports = []
    for blk in doc["alpha_blocks"]:
        frame = _frame(blk["enclosure"])
        proj = frame @ frame.conj().T
        support = [int(i) for i in np.flatnonzero(np.diag(proj).real > 0.5)]
        target = np.zeros(rung.dim)
        target[support] = 1.0
        if np.abs(proj - np.diag(target)).max() > 1e-6:
            errors.append(f"enclosure on {support} is not a coordinate subspace")
        supports.append(support)
    if sorted(supports) != sorted(classes):
        errors.append(f"enclosures {sorted(supports)} != closed classes {classes}")
    return errors


def invariant_parameters(report, rng):
    """Seeded block parameters: nonnegative A-weights and PSD B-matrices
    with total weight 1."""
    import chanstruct as cs

    n_a, betas = len(report.alpha_blocks), report.beta_blocks
    weights = rng.dirichlet(np.ones(n_a + len(betas)))
    mats = []
    for w, blk in zip(weights[n_a:], betas):
        n = len(blk.enclosures)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g @ g.conj().T
        mats.append(w * m / np.trace(m).real)
    return cs.InvariantStateParameters(t=weights[:n_a], M=tuple(mats))


def check_round_trip(sent, result):
    """extract_parameters must give back the parameters a state was built
    from, with a re-assembly residual within ROUND_TRIP_TOL."""
    errors = []
    if not result.residual <= ROUND_TRIP_TOL:
        errors.append(f"round-trip residual {result.residual:.3e}")
    got = result.params
    dev = np.abs(np.asarray(got.t) - np.asarray(sent.t)).max(initial=0.0)
    for a, b in zip(got.M, sent.M):
        dev = max(dev, float(np.abs(a - b).max()))
    if not dev <= ROUND_TRIP_TOL:
        errors.append(f"recovered parameters deviate by {dev:.3e}")
    return errors
