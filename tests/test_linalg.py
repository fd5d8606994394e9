"""Subspaces, tolerance policy, and Hermitian encodings."""

import numpy as np
import pytest

import chanstruct as cs
from chanstruct.linalg import _canonical, hermitian_decode, hermitian_encode
from helpers import assert_canonical, coordinate_projector, planted_channel, random_state

RNG = np.random.default_rng(101)


class TestTolerance:
    def test_defaults(self):
        tol = cs.Tolerance()
        assert tol.rank_tol == 1e-9
        assert tol.eig_cluster_tol == 1e-8
        assert tol.psd_tol == 1e-9

    @pytest.mark.parametrize("field", ["rank_tol", "eig_cluster_tol", "psd_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, 2e-2, 1.0])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(cs.ArgumentError):
            cs.Tolerance(**{field: value})

    def test_subspace_tol_tracks_eig_tol(self):
        tol = cs.Tolerance(eig_cluster_tol=1e-6)
        assert tol.subspace_tol == pytest.approx(1e-5)


class TestSubspace:
    def test_rejects_non_orthonormal_frame(self):
        frame = np.array([[1.0, 1.0], [0.0, 1e-3]])
        with pytest.raises(cs.ArgumentError):
            cs.Subspace(2, frame)

    def test_rejects_wrong_ambient(self):
        with pytest.raises(cs.ArgumentError):
            cs.Subspace(3, np.eye(2))

    def test_rejects_more_columns_than_the_space(self):
        with pytest.raises(cs.ArgumentError, match="exceeds ambient dimension"):
            cs.Subspace(2, np.eye(3)[:2])

    @pytest.mark.parametrize("method", ["contains", "approx_equal"])
    def test_ambient_dimensions_must_agree(self, method):
        with pytest.raises(cs.ArgumentError, match="ambient dimensions differ"):
            getattr(cs.Subspace.full(2), method)(cs.Subspace.full(3))

    def test_immutable(self):
        s = cs.Subspace.full(2)
        with pytest.raises(AttributeError):
            s.frame = np.zeros((2, 2))

    def test_zero_and_full(self):
        z = cs.Subspace.zero(3)
        f = cs.Subspace.full(3)
        assert z.dimension == 0
        assert f.dimension == 3
        assert np.abs(z.projector()).max() == 0.0
        assert np.abs(f.projector() - np.eye(3)).max() == 0.0

    def test_contains_vector(self):
        s = cs.Subspace(3, np.eye(3)[:, :2])
        assert s.contains_vector([1.0, 2.0, 0.0])
        assert not s.contains_vector([0.0, 0.0, 1.0])
        assert s.contains_vector(np.zeros(3))

    def test_containment_and_equality_are_gauge_free(self):
        u = np.linalg.qr(
            RNG.standard_normal((4, 2)) + 1j * RNG.standard_normal((4, 2))
        )[0]
        s1 = cs.Subspace(4, u)
        # same span, rotated frame
        g = np.linalg.qr(
            RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        )[0]
        s2 = cs.Subspace(4, u @ g)
        assert s1.approx_equal(s2)
        assert s1.contains(s2) and s2.contains(s1)

    def test_orthocomplement(self):
        u = np.linalg.qr(RNG.standard_normal((5, 2)))[0]
        s = cs.Subspace(5, u)
        c = s.orthocomplement()
        assert c.dimension == 3
        # together S and its complement span C^5
        both = np.hstack([s.frame, c.frame])
        assert np.abs(both.conj().T @ both - np.eye(5)).max() < 1e-12


def _unitary(k):
    z = RNG.standard_normal((k, k)) + 1j * RNG.standard_normal((k, k))
    return np.linalg.qr(z)[0]


class TestCanonicalFrame:
    """One basis per subspace, fixed by its span."""

    @pytest.mark.parametrize("d, k", [(20, 1), (30, 6), (32, 26), (42, 28), (12, 12)])
    def test_fixed_by_the_span(self, d, k):
        f = _unitary(d)[:, :k]
        c = _canonical(f)
        for _ in range(3):
            assert np.abs(_canonical(f @ _unitary(k)) - c).max() <= 1e-13
        assert np.abs(c @ c.conj().T - f @ f.conj().T).max() <= 1e-13
        assert np.abs(c.conj().T @ c - np.eye(k)).max() <= 1e-13
        assert_canonical(c)

    def test_rotated_lanes_come_back_as_coordinate_columns(self):
        # span{e1, e4} of C^6 in a rotated frame: the lanes have equal row
        # norms, so the tie-break orders them by index
        lanes = np.eye(6)[:, [1, 4]]
        for _ in range(20):
            c = _canonical(lanes @ _unitary(2))
            assert np.abs(c - lanes).max() <= 1e-15
            assert not c[[0, 2, 3, 5]].any()

    def test_dependent_leading_rows(self):
        # span{e0 + e1, e2 + e3, e4 + e5} / sqrt 2 in C^8: the tied rows 0 and
        # 1 are parallel, so the second column's pivot is row 2, not row 1
        f = np.kron(np.eye(4, 3), np.ones((2, 1))) / np.sqrt(2.0)
        for _ in range(20):
            assert np.abs(_canonical(f @ _unitary(3)) - f).max() <= 1e-13


def _skew(n, size, rng):
    """An anti-Hermitian n x n matrix E with a zero diagonal (so the trace
    and the Hermitian part of X + E are those of X) and |E - E^H|_max = size."""
    z = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    e = z - z.conj().T
    return e * (size / np.abs(2.0 * e).max())


class TestHermiticityRule:
    @pytest.mark.parametrize("factor, hermitian", [(0.9, True), (1.1, False)])
    def test_is_state_hermiticity_rule(self, factor, hermitian):
        # |X - X^H|_max against subspace_tol max(1, |X|_max), here 1e-7
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = factor * cs.DEFAULT_TOL.subspace_tol
        assert cs.is_state(rho) == hermitian

    def test_psd_slack_does_not_move_the_rule(self):
        # psd_tol does not enter the cut: at psd_tol = 1e-2 it stays 1e-7
        tol = cs.Tolerance(psd_tol=1e-2)
        assert not cs.is_state([[0.5, 0.9], [0, 0.5]], tol)
        rep = cs.decompose(cs.from_markov_chain([[0.5, 0.5], [0.5, 0.5]], tol=tol), tol=tol)
        with pytest.raises(cs.ArgumentError, match="rho is not a state"):
            cs.extract_parameters(rep, [[0.5, 0.45], [0, 0.5]])

    @pytest.mark.parametrize("factor", [0.3, 3.0])
    @pytest.mark.parametrize(
        "tol",
        [cs.DEFAULT_TOL, cs.Tolerance(psd_tol=1e-2), cs.Tolerance(eig_cluster_tol=1e-6)],
        ids=["default", "psd-1e-2", "eig-1e-6"],
    )
    def test_states_projectors_and_parameters_agree(self, tol, factor):
        # Hermitian inputs, all entries below 1 (so the cut is subspace_tol),
        # plus an anti-Hermitian part at `factor` times the cut
        rng = np.random.default_rng(59)
        size = factor * tol.subspace_tol
        rho = random_state(4, rng) + _skew(4, size, rng)
        decisions = [cs.is_state(rho, tol)]
        # {0, 1} is a closed class, so P on it is subharmonic
        ch = cs.from_markov_chain(
            [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.2, 1], [0, 0, 0.8, 0]]
        )
        p = coordinate_projector(4, [0, 1]) + _skew(4, size, rng)
        try:
            decisions.append(cs.is_subharmonic(ch, p, tol))
        except cs.ArgumentError as err:
            assert str(err) == "P is not Hermitian"
            decisions.append(False)
        planted, _ = planted_channel(rng, [2], [(2, 3)], 1, n_kraus=3)
        rep = cs.decompose(planted, tol=tol)
        m = 0.7 * random_state(3, rng) + _skew(3, size, rng)
        params = cs.InvariantStateParameters(t=np.array([0.3]), M=(m,))
        try:
            decisions.append(cs.is_state(cs.build_invariant_state(rep, params), tol))
        except cs.ArgumentError as err:
            assert str(err) == "B-block 0 parameter matrix is not Hermitian"
            decisions.append(False)
        assert decisions == [factor < 1.0] * 3


class TestVecHermitian:
    def test_hermitian_encode_isometry(self):
        z1 = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        z2 = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        h1 = (z1 + z1.conj().T) / 2
        h2 = (z2 + z2.conj().T) / 2
        e1, e2 = hermitian_encode(h1), hermitian_encode(h2)
        assert abs(e1 @ e2 - np.trace(h1 @ h2).real) < 1e-12
        assert np.abs(hermitian_decode(e1, 4) - h1).max() < 1e-12

    @pytest.mark.parametrize("mats", [[], [np.zeros((2, 2))] * 2], ids=["none", "all-zero"])
    def test_hermitian_span_basis_of_nothing_is_empty(self, mats):
        assert cs.hermitian_span_basis(mats) == []

    def test_hermitian_span_basis(self):
        h1 = np.diag([1.0, 0.0]).astype(complex)
        h2 = np.diag([0.0, 1.0]).astype(complex)
        basis = cs.hermitian_span_basis([h1, h2, h1 + h2])
        assert len(basis) == 2
        for b in basis:
            assert np.abs(b - b.conj().T).max() < 1e-14
        gram = np.array(
            [[np.trace(x @ y).real for y in basis] for x in basis]
        )
        assert np.abs(gram - np.eye(2)).max() < 1e-12
