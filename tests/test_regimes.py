"""Spectral regimes the eigenvalue-1 solve must survive, checked against
planted truth: near-identity semigroup channels, a replay that grows its
stack, and the freedom of the Kraus representation."""

import numpy as np
import pytest

import chanstruct as cs
import chanstruct.spectral
from helpers import lindblad_kraus, planted_channel

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


def test_growing_replay_takes_the_full_filter(monkeypatch):
    # five factors (1 - z / 1e-3) grow the stack by up to 1e15: the replay
    # is dropped, and the starts' full filter runs give the unpatched answer
    def planted():
        return planted_channel(np.random.default_rng(1), [3, 5], [(3, 2)], 6)[0]

    expected = _invariants(planted())
    monkeypatch.setattr(chanstruct.spectral, "_leja", lambda roots, tol: [1e-3] * 5)
    _assert_same_invariants(_invariants(planted()), expected)


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
}


@pytest.mark.parametrize("case", list(REMIX_CASES))
def test_kraus_remix_keeps_the_invariants(case):
    ch = REMIX_CASES[case]()
    remixed = _remixed(ch, np.random.default_rng(11))
    assert len(remixed.kraus) == len(ch.kraus) + 1
    _assert_same_invariants(_invariants(remixed), _invariants(ch))
