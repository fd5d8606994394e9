"""Spectral regimes the eigenvalue-1 solve must survive, checked against
planted truth: near-identity semigroup channels, slowly rotating
near-unitary channels, a replay that grows its stack, periodic blocks, a
block of many copies, a transient part larger than R, Markov chains joined
by epsilon, a dense diffusive walk with more Kraus operators than its
dimension, and the freedom of the Kraus representation."""

import numpy as np
import pytest

import chanstruct as cs
import chanstruct.spectral
from helpers import (
    cyclic_channel,
    lazy_cycle_channel,
    lindblad_kraus,
    near_unitary_channel,
    planted_channel,
    two_class_chain,
)

# the planted-dense benchmark layouts: (A-block dims, B-blocks as
# (dim, copies), dim D)
PLANTED_LAYOUTS = (
    ([3, 5], [(3, 2)], 6),
    ([4], [(2, 3), (5, 2)], 6),
    ([3, 6], [(3, 3), (4, 2)], 6),
)


def _invariants(ch):
    """dim R, the (dimension, copy count) of each block, the fixed-space
    dimension and rho_max of the channel's decomposition."""
    report = cs.decompose(ch)
    blocks = sorted((b.enclosures[0].dimension, len(b.enclosures)) for b in report.blocks)
    fixed = cs.report_file_from_report(report).fixed_space_dimension
    return report.R.dimension, blocks, fixed, cs.recurrent_split(ch).rho_max


def _assert_same_invariants(a, b):
    assert a[:3] == b[:3]
    assert np.abs(a[3] - b[3]).max() <= 1e-10


@pytest.mark.parametrize("t", [0.02, 0.05, 0.5])
def test_near_identity_semigroup_is_irreducible(t):
    # e^(tL) of a generic Lindbladian: one A-block on all of C^12; at small
    # t the replayed polynomial grows its stack, which must be dropped
    ch = lindblad_kraus(12, t)
    report = cs.decompose(ch)
    assert len(report.blocks) == 1 and len(report.blocks[0].enclosures) == 1
    assert report.R.dimension == report.dim == 12
    assert cs.is_irreducible(ch)


def _route(ch):
    """The (kind, inverse orders) of the eigenvalue-1 solve of ``ch``."""
    return chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL).route


def _assert_irreducible(report):
    """One A-block, and R = C^d."""
    assert len(report.blocks) == 1 and len(report.blocks[0].enclosures) == 1
    assert report.R.dimension == report.dim


@pytest.mark.parametrize(
    "d, eps, seed",
    [(32, 1e-3, 1), (24, 1e-3, 3), (32, 1e-3, 2), (48, 1e-2, 4), (48, 3e-3, 5)],
)
def test_near_unitary_channel_takes_the_inverse_on_all_coordinates(d, eps, seed):
    # the non-fixed eigenvalues lie near |z - 1| = 1, so the first probe's
    # filter stalls, and one inverse of M_h - sigma I, on all d^2
    # coordinates, makes all four projections; the filter alone exhausts its
    # budget on every case here
    ch = near_unitary_channel(d, eps, seed)
    _assert_irreducible(cs.decompose(ch))
    assert _route(ch) == ("inverse on all coordinates", (d * d,))


def test_kraus_heavy_semigroup_stays_on_the_filter():
    # 256 Kraus operators on C^16: the filter converges without a stall, so
    # no inverse is taken however many operators the family has
    ch = lindblad_kraus(16, 0.05)
    assert len(ch.kraus) == 256
    _assert_irreducible(cs.decompose(ch))
    assert _route(ch) == ("filter", ())


def test_above_the_inverse_bound_the_exhausted_filter_names_its_budget():
    # d^2 = 4225 is above the bound on the inverse's order, so the filter
    # runs to its budget; the message names the applications made and the
    # gap estimate
    with pytest.raises(cs.DecompositionError) as err:
        cs.decompose(near_unitary_channel(65, 1e-3, 1))
    assert err.value.stage == "fixed-space"
    message, diagnostics = str(err.value), err.value.diagnostics
    assert diagnostics["applications"] == 2000
    assert "after 2000 applications" in message
    gap = diagnostics["nearest_non_fixed_distance"]
    assert 1e-4 < gap < 1e-2 and f"nearest non-fixed distance {gap:.3e}" in message


def test_growing_replay_takes_the_full_filter(monkeypatch):
    # five factors (1 - z / 1e-3) grow the stack by up to 1e15: the replay
    # is dropped, and the starts' full filter runs give the unpatched answer
    def planted():
        return planted_channel(np.random.default_rng(1), [3, 5], [(3, 2)], 6)[0]

    expected = _invariants(planted())
    monkeypatch.setattr(chanstruct.spectral, "_leja", lambda roots, tol: [1e-3] * 5)
    _assert_same_invariants(_invariants(planted()), expected)


def _assert_period(report, p):
    """Every block's peripheral spectrum is the p-th roots of unity: the
    report's spectrum holds each root once per fixed-space dimension."""
    rf = cs.report_file_from_report(report)
    spectrum, fixed = np.array(rf.peripheral_spectrum), rf.fixed_space_dimension
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    assert len(spectrum) == p * fixed
    nearest = np.abs(spectrum[:, None] - roots[None, :])
    assert nearest.min(axis=1).max() <= 1e-10
    assert (np.bincount(nearest.argmin(axis=1), minlength=p) == fixed).all()


@pytest.mark.parametrize(
    "dims", [[2, 3], [2, 2, 3], [2, 3, 2, 2], [2, 2, 2, 2, 2]], ids=len
)
def test_periodic_block_has_its_period(dims):
    # an irreducible channel cycling through len(dims) orthogonal subspaces:
    # one A-block on all of C^d, with the len(dims)-th roots of unity
    report = cs.decompose(cyclic_channel(np.random.default_rng(len(dims)), dims))
    _assert_irreducible(report)
    assert report.dim == sum(dims)
    _assert_period(report, len(dims))


def test_block_of_many_copies():
    # one B-block: 17 copies of a 2-dim irreducible family, 289 fixed points
    ch, truth = planted_channel(np.random.default_rng(34), [], [(2, 17)], 0)
    assert ch.dim == 34 and truth["fixed_dim"] == 289
    assert _invariants(ch)[:3] == (34, [(2, 17)], 289)
    _assert_period(cs.decompose(ch), 1)


def test_transient_part_larger_than_r():
    # dim D = 12 against dim R = 6 (A-block 2, B-block 2 x 2)
    ch, truth = planted_channel(np.random.default_rng(5), [2], [(2, 2)], 12)
    assert ch.dim == 18 and truth["fixed_dim"] == 5
    assert _invariants(ch)[:3] == (6, [(2, 1), (2, 2)], 5)
    _assert_period(cs.decompose(ch), 1)


@pytest.mark.parametrize("eps", [1e-3, 1e-7])
def test_epsilon_chain_is_one_class(eps):
    # two 2-state classes joined by eps each way: one A-block on C^4 with the
    # stationary law (0.27, 0.23, 0.23, 0.27); at 1e-7 the second eigenvalue
    # lies 9.2e-8 from 1, and the report warns that the cluster is
    # ill-separated
    report = cs.decompose(two_class_chain(eps))
    _assert_irreducible(report)
    assert report.dim == 4
    frame = report.blocks[0].enclosures[0].frame
    state = frame @ report.blocks[0].sigma @ frame.conj().T
    assert np.abs(state - np.diag([0.27, 0.23, 0.23, 0.27])).max() <= 1e-10
    assert any("ill-separated" in w for w in report.warnings) == (eps < 1e-6)
    _assert_period(report, 1)


def test_dense_kraus_heavy_diffusive_walk_stays_on_the_filter():
    # the lazy walk on Z_24 in a Haar-random basis: 72 dense Kraus operators
    # on C^24, a real non-fixed spectrum up to (1 + cos(2 pi / 24)) / 2; the
    # filter converges without a stall, so no inverse is taken
    ch = lazy_cycle_channel(24, np.random.default_rng(24))
    assert len(ch.kraus) == 72 and not ch._sparse
    report = cs.decompose(ch)
    _assert_irreducible(report)
    assert report.dim == 24 and _route(ch) == ("filter", ())
    frame = report.blocks[0].enclosures[0].frame
    state = frame @ report.blocks[0].sigma @ frame.conj().T
    assert np.abs(state - np.eye(24) / 24).max() <= 1e-12
    _assert_period(report, 1)


def _remixed(ch, rng):
    """The family V'_b = sum_a U_ba V_a, n -> n + 1, for a random
    (n + 1) x n isometry U: the same channel in another Kraus form."""
    kraus = np.stack(ch.kraus)
    n = len(kraus)
    z = rng.standard_normal((n + 1, n)) + 1j * rng.standard_normal((n + 1, n))
    u = np.linalg.qr(z)[0]
    return cs.KrausChannel(np.einsum("ba,aij->bij", u, kraus))


REMIX_CASES = {
    **{
        f"planted-{i}": (lambda layout=layout: planted_channel(
            np.random.default_rng(7), *layout)[0])
        for i, layout in enumerate(PLANTED_LAYOUTS)
    },
    "lindblad-12-0.05": lambda: lindblad_kraus(12, 0.05),
    "cyclic-3": lambda: cyclic_channel(np.random.default_rng(3), [2, 2, 3]),
    "copies-2x17": lambda: planted_channel(
        np.random.default_rng(34), [], [(2, 17)], 0
    )[0],
    "lazy-cycle-24": lambda: lazy_cycle_channel(24, np.random.default_rng(24)),
}


@pytest.mark.parametrize("case", list(REMIX_CASES))
def test_kraus_remix_keeps_the_invariants(case):
    ch = REMIX_CASES[case]()
    remixed = _remixed(ch, np.random.default_rng(11))
    assert len(remixed.kraus) == len(ch.kraus) + 1
    _assert_same_invariants(_invariants(remixed), _invariants(ch))
