"""Subspaces, tolerance policy, and Hermitian encodings."""

import numpy as np
import pytest

import chanstruct as cs
from chanstruct.linalg import hermitian_decode, hermitian_encode

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


class TestLoewner:
    def test_projector_versus_diagonal_fails(self):
        # X - Y has eigenvalues (1 +- sqrt(5))/4, one of them negative
        x = np.diag([1.0, 0.5])
        y = np.full((2, 2), 0.5)
        assert not cs.loewner_geq(x, y)
        # explicit witness
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert (v @ (x - y) @ v).real < 0

    def test_diagonal_versus_half_projector_holds(self):
        # X - Y has eigenvalues (2 +- sqrt(2))/4, both positive
        x = np.diag([1.0, 0.5])
        y = np.full((2, 2), 0.25)
        assert cs.loewner_geq(x, y)

    def test_reflexive_and_orders_scalars(self):
        a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        h = (a + a.conj().T) / 2
        assert cs.loewner_geq(h, h)
        assert cs.loewner_geq(h + 0.1 * np.eye(3), h)
        assert not cs.loewner_geq(h - 0.1 * np.eye(3), h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(cs.ArgumentError):
            cs.loewner_geq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    @pytest.mark.parametrize("factor, hermitian", [(0.9, True), (1.1, False)])
    def test_is_state_and_loewner_share_the_hermiticity_rule(self, factor, hermitian):
        # |X - X^H|_max against 100 psd_tol max(1, |X|_max), here 1e-7
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = factor * 100.0 * cs.DEFAULT_TOL.psd_tol
        assert cs.is_state(rho) == hermitian
        if hermitian:
            assert cs.loewner_geq(rho, rho)
        else:
            with pytest.raises(cs.ArgumentError, match=r"X is not Hermitian \(deviation"):
                cs.loewner_geq(rho, rho)


class TestVecHermitian:
    def test_vec_is_column_stacking(self):
        m = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(cs.vec(m), np.array([0.0, 2.0, 1.0, 3.0]))
        assert np.array_equal(cs.unvec(cs.vec(m), 2), m)

    def test_kron_identity(self):
        # vec(A X B) = (B^T kron A) vec(X)
        a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        b = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        x = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        lhs = cs.vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ cs.vec(x)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_hermitian_encode_isometry(self):
        z1 = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        z2 = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        h1 = (z1 + z1.conj().T) / 2
        h2 = (z2 + z2.conj().T) / 2
        e1, e2 = hermitian_encode(h1), hermitian_encode(h2)
        assert abs(e1 @ e2 - np.trace(h1 @ h2).real) < 1e-12
        assert np.abs(hermitian_decode(e1, 4) - h1).max() < 1e-12

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
