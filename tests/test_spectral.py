"""Fixed spaces, recurrent splits, peripheral spectrum, PF certificate."""

import gc
import types
import weakref

import numpy as np
import pytest

import chanstruct as cs
import chanstruct.channels
import chanstruct.spectral
from chanstruct.linalg import hermitian_encode
from helpers import (
    cyclic_channel,
    haar_unitary,
    amplitude_damping_channel,
    hermitian_unitary,
    invariant_deviations,
    phased_walk,
    planted_channel,
    random_channel,
    random_kraus_family,
    report_invariants,
    slow_birth_death,
    traced_peak,
    two_class_chain,
)

RNG = np.random.default_rng(303)


class TestFixedSpace:
    def test_identity_channel_fixes_everything(self):
        ch = cs.KrausChannel([np.eye(3)])
        fs = cs.fixed_space(ch)
        assert fs.dimension == 9
        assert len(fs.hermitian_basis) == 9

    def test_identity_multiplicity_above_256(self):
        # k = d^2 = 289, assembled from one B-block of 17 lines
        fs = cs.fixed_space(cs.KrausChannel([np.eye(17)]))
        assert fs.dimension == 289

    def test_generic_channel_has_unique_fixed_point(self):
        ch = random_channel(4, 3, RNG)
        fs = cs.fixed_space(ch)
        assert fs.dimension == 1
        x = fs.hermitian_basis[0]
        assert np.abs(cs.apply(ch, x) - x).max() < 1e-8

    def test_unitary_commutant(self):
        # distinct eigenvalues: the commutant is the diagonal algebra
        u = haar_unitary(3, RNG)
        phases = np.exp(1j * np.array([0.3, 1.1, 2.5]))
        w = u @ np.diag(phases) @ u.conj().T
        fs = cs.fixed_space(cs.KrausChannel([w]))
        assert fs.dimension == 3

    def test_contraction_has_no_eigenvalue_1_cluster(self):
        ch = cs.KrausChannel([0.5 * np.eye(2)])
        with pytest.raises(cs.DecompositionError, match="not trace preserving"):
            cs.fixed_space(ch)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ch: cs.decompose(ch),
            lambda ch: cs.recurrent_split(ch),
            lambda ch: cs.fixed_space(ch),
            lambda ch: cs.is_irreducible(ch),
            lambda ch: cs.minimal_enclosures(cs.fixed_point_algebra_on_R(ch)),
            lambda ch: cs.group_into_blocks([], cs.fixed_point_algebra_on_R(ch)),
            lambda ch: cs.partial_isometry(
                cs.fixed_point_algebra_on_R(ch), *[cs.Subspace.full(ch.dim)] * 2
            ),
            lambda ch: cs.block_invariant_state(
                cs.fixed_point_algebra_on_R(ch), cs.Subspace.full(ch.dim)
            ),
        ],
        ids=["decompose", "recurrent_split", "fixed_space",
             "is_irreducible", "minimal_enclosures",
             "group_into_blocks", "partial_isometry", "block_invariant_state"],
    )
    @pytest.mark.parametrize("family", ["dense", "sparse"])
    def test_every_solve_refuses_a_family_that_is_not_trace_preserving(
        self, call, family
    ):
        # two copies of a unitary: Phi^*(I) = 2 I, relative residual 1; the
        # shift on C^10 is sparse by the superoperator rule (2 * 10^2 / 10^4)
        d = 2 if family == "dense" else 10
        ch = cs.KrausChannel([np.roll(np.eye(d), 1, axis=0)] * 2)
        assert ch._sparse is (family == "sparse")
        with pytest.raises(cs.DecompositionError, match="not trace preserving") as err:
            call(ch)
        assert err.value.stage == "fixed-space"
        assert err.value.diagnostics == {"residual": pytest.approx(1.0)}

    def test_hermitian_basis_spans_and_is_fixed(self):
        # 2-cycle chain: only multiples of the identity are fixed
        ch = cs.from_markov_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
        fs = cs.fixed_space(ch)
        assert fs.dimension == 1
        for h in fs.hermitian_basis:
            assert np.abs(h - h.conj().T).max() < 1e-10
            assert np.abs(cs.apply(ch, h) - h).max() < 1e-8


class TestLargeTier:
    def test_dense_filter_counts_degenerate_kernel(self):
        # d = 41, dense path (the Krylov filter); two isolated irreducible
        # summands
        ch, truth = planted_channel(RNG, [20, 21], [], 0, n_kraus=2)
        assert ch.dim == 41
        fs = cs.fixed_space(ch)
        assert fs.dimension == 2
        assert chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL).route == ("filter", ())

    def test_sparse_inverse_on_t_on_walk(self):
        # d = 42: the inverse on the 9 (N + 1) = 126 coordinates T; |C|^2 = 4 fixed points
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 13), 13)
        assert ch.dim == 42
        fs, core = cs.fixed_space(ch), chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL)
        assert fs.dimension == 4 and core.route == ("inverse on T", (126,))

    def test_multiplicity_above_starting_block_width(self):
        # d = 41, dense path (the Krylov filter); k = 1 + 3^2 + 2^2 = 14
        # fixed points from a few vectors: the blocks give the multiplicity
        ch, truth = planted_channel(
            np.random.default_rng(5), [5], [(4, 3), (3, 2)], 18
        )
        assert ch.dim == 41
        assert cs.fixed_space(ch).dimension == 14
        report = cs.decompose(ch)
        assert len(report.alpha_blocks) == 1
        assert sorted(len(b.enclosures) for b in report.beta_blocks) == [2, 3]

    def test_near_degenerate_gap_warns_on_sparse_tier(self):
        # a closed class on states 0-19 and a class on 20-40 that leaks
        # 5e-8 of every column into state 0: lambda = 1 - 5e-8 sits just
        # outside the eigenvalue-1 cluster
        rng = np.random.default_rng(41)
        leak = 5e-8
        p = np.zeros((41, 41))
        a = rng.random((20, 20))
        p[:20, :20] = a / a.sum(axis=0)
        b = rng.random((21, 21))
        p[20:, 20:] = (1.0 - leak) * b / b.sum(axis=0)
        p[0, 20:] = leak
        ch = cs.from_markov_chain(p)
        assert cs.fixed_space(ch).dimension == 1
        split = cs.recurrent_split(ch)
        assert split.R.dimension == 20
        assert any("eigenvalue-1 cluster ill-separated" in w for w in split.warnings)

    def test_large_tier_walk_has_one_two_copy_b_block(self):
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 13), 13)
        rf = cs.report_file_from_report(cs.decompose(ch))
        assert rf.fixed_space_dimension == 4
        assert [len(b.enclosures) for b in rf.report.beta_blocks] == [2]

    def test_public_spectrum_and_radius_above_d_50(self):
        # d = 51, d^2 = 2601: every eigenvalue of the dense superoperator,
        # and all four peripheral ones (eigenvalue 1 four times)
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 16), 16)
        assert ch.dim == 51
        assert cs.validate(ch).spectral_radius == pytest.approx(1.0, abs=1e-12)
        full = cs.peripheral_spectrum(ch)
        rf = cs.report_file_from_report(cs.decompose(ch))
        assert len(full) == len(rf.peripheral_spectrum) == 4
        assert np.abs(np.array(rf.peripheral_spectrum) - np.array(full)).max() < 1e-10


class TestHermitianCoordinates:
    @pytest.mark.parametrize("case", ["dense-random", "sparse-walk", "sparse-phased"])
    def test_coordinates_are_real_unitary_similarity(self, case):
        if case == "dense-random":
            ch = random_channel(4, 3, RNG)
            # a dense M_h is built straight from the Kraus stack
            h = chanstruct.channels._hermitian_transfer_matrix(ch._stack)
            assert isinstance(h, np.ndarray)
        else:
            ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 5), 5)
            if case == "sparse-phased":
                ch = phased_walk(5)
            # a sparse M_h is read off the COO triples of M; M_h writes only
            # the coordinates T where M has a row, and its T block is M_h[T, T]
            assert ch._sparse
            h = chanstruct.channels._hermitian_block(ch, np.arange(ch.dim**2))
            t = np.unique(chanstruct.channels._cached_superoperator(ch)[0])
            assert not np.delete(h, t, axis=0).any()
            block = chanstruct.channels._hermitian_block(ch, t)
            assert block.tobytes() == h[np.ix_(t, t)].tobytes()
        assert h.dtype == np.float64
        u = hermitian_unitary(ch.dim)
        assert np.abs(u.conj().T @ u - np.eye(ch.dim**2)).max() <= 1e-15
        ref = u.conj().T @ cs.superoperator(ch) @ u
        assert np.abs(ref.imag).max() <= 1e-14
        assert np.abs(ref.real - h).max() <= 1e-14

    @pytest.mark.parametrize(
        "make",
        [
            lambda: amplitude_damping_channel(0.3),
            lambda: cs.KrausChannel([np.roll(np.eye(3), 1, axis=0)]),
            lambda: planted_channel(np.random.default_rng(341), [2], [(2, 2)], 2)[0],
            lambda: phased_walk(4),
        ],
        ids=["amplitude-damping", "three-cycle-unitary", "planted", "phased-walk"],
    )
    def test_fixed_space_basis_is_hermitian(self, make):
        ch = make()
        fs = cs.fixed_space(ch)
        for x in fs.hermitian_basis:
            assert np.abs(x - x.conj().T).max() <= 1e-12
            assert np.abs(cs.apply(ch, x) - x).max() <= 1e-9

    def test_codec_is_the_unitary(self):
        # hermitian_decode is U on real coordinates, batched over leading
        # axes, and hermitian_encode inverts it on Hermitian matrices
        d = 3
        q = RNG.standard_normal((2, 4, d * d))
        x = chanstruct.linalg.hermitian_decode(q, d)
        assert x.shape == (2, 4, d, d)
        vecs = np.swapaxes(x, -1, -2).reshape(2, 4, d * d)
        assert np.abs(vecs - q @ hermitian_unitary(d).T).max() <= 1e-15
        assert np.abs(x - np.swapaxes(x, -1, -2).conj()).max() == 0.0
        assert np.abs(chanstruct.linalg.hermitian_encode(x) - q).max() <= 1e-15

    def test_rho_max_is_invariant_state_with_range_of_dense_projection(self):
        # reference range from Pi_1(I/d), Pi_1 from a full eigendecomposition
        # of M, no kernel
        rng = np.random.default_rng(343)
        ch, truth = planted_channel(rng, [2, 3], [(2, 2)], 2)
        d = ch.dim
        w, v = np.linalg.eig(cs.superoperator(ch))
        cluster = np.abs(w - 1.0) <= cs.DEFAULT_TOL.eig_cluster_tol
        assert cluster.sum() == truth["fixed_dim"]
        pi = v[:, cluster] @ np.linalg.inv(v)[cluster, :]
        # M acts on column-stacked matrices
        mixed = pi @ (np.eye(d) / d).reshape(-1, order="F")
        w_ref, v_ref = np.linalg.eigh(mixed.reshape(d, d, order="F"))
        range_ref = v_ref[:, w_ref > 1e-9 * w_ref[-1]]
        split = cs.recurrent_split(ch)
        rho = split.rho_max
        assert np.abs(cs.apply(ch, rho) - rho).max() <= 1e-10
        assert np.abs(rho - rho.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert split.D.dimension == 2 and range_ref.shape[1] == d - 2
        proj = range_ref @ range_ref.conj().T
        assert np.abs(split.R.projector() - proj).max() <= 1e-10


def _shared_positions_with_transients(rng):
    """A sparse family on C^12: three operators on C^3 whose nonzeros share
    positions, so several pairs land on one entry of M, and |e_0><e_j| for
    the transient states j = 3..11, which Phi empties."""
    u = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    u *= np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    w, vecs = np.linalg.eigh(np.einsum("aji,ajk->ik", u.conj(), u))
    ops = np.zeros((12, 12, 12), dtype=complex)
    ops[:3, :3, :3] = u @ (vecs / np.sqrt(w)) @ vecs.conj().T
    ops[np.arange(3, 12), 0, np.arange(3, 12)] = 1.0
    return cs.KrausChannel(ops)


def _eigenprojection(h):
    """The spectral projection of a real h onto its eigenvalue 1 along the
    rest of its spectrum, R (L^T R)^-1 L^T from the null spaces R of h - I
    and L of h^T - I (eigenvalue 1 of a channel is semisimple)."""
    u, s, vt = np.linalg.svd(h - np.eye(len(h)))
    null = s <= 1e-9
    right, left = vt[null].T, u[:, null]
    return right @ np.linalg.solve(left.T @ right, left.T)


SHIFT_INVERT_CASES = {
    "walk": lambda: cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 5), 5),
    "markov": lambda: cs.from_markov_chain(
        np.kron(np.eye(2), [[0.5, 0.2, 0.0], [0.5, 0.3, 1.0], [0.0, 0.5, 0.0]])
    ),
    "shared-positions": lambda: _shared_positions_with_transients(
        np.random.default_rng(612)
    ),
}


class TestShiftInvertOnT:
    """A sparse family solves its eigenvalue-1 problem on the coordinates T
    that Phi writes, from one inverse of M_h[T, T] - sigma I."""

    @pytest.mark.parametrize("family", list(SHIFT_INVERT_CASES))
    def test_projections_match_the_dense_eigenprojection(self, family):
        ch, tol = SHIFT_INVERT_CASES[family](), cs.Tolerance()
        d = ch.dim
        t = np.unique(chanstruct.channels._cached_superoperator(ch)[0])
        assert ch._sparse and t.size < d * d
        route = chanstruct.spectral._factor(ch, tol)
        assert route[:2] == ("inverse on T", (t.size,))
        u = hermitian_unitary(d)
        proj = _eigenprojection((u.conj().T @ cs.superoperator(ch) @ u).real)
        rng = np.random.default_rng(613)
        starts = [chanstruct.spectral._gaussian_hermitian(rng, d) for _ in range(3)]
        encoded = hermitian_encode(np.stack(starts))
        for adjoint, p in ((False, proj), (True, proj.T)):
            fixed, gap, roots = chanstruct.spectral._project(ch, route, starts, adjoint, tol)
            got, ref = hermitian_encode(fixed), encoded @ p.T
            scale = np.abs(ref).max()
            # no part off the eigenvalue-1 space; within it, each solve with
            # M_h - sigma I, of condition about 1 / eig_cluster_tol, leaves a
            # relative error near eps / eig_cluster_tol (3.4e-9 to 8.9e-8
            # measured here)
            assert np.abs(got - got @ p.T).max() <= 1e-10 * scale
            assert np.abs(got - ref).max() <= 1e-6 * scale
            assert gap > 10.0 * tol.eig_cluster_tol and roots == []

    def test_dephasing_with_all_coordinates_written_takes_the_filter(self):
        # two diagonal operators on C^65: sparse (2 d^2 of d^4 entries), but
        # Phi writes all d^2 = 4225 > _INVERSE_ORDER coordinates, so the Krylov
        # filter runs on the COO application; the fixed points are the
        # diagonal matrices (the phases 2 pi k / 65 are distinct)
        d = 65
        phases = np.exp(2j * np.pi * np.arange(d) / d)
        ch = cs.KrausChannel([np.eye(d) / np.sqrt(2.0), np.diag(phases) / np.sqrt(2.0)])
        t = np.unique(chanstruct.channels._cached_superoperator(ch)[0])
        assert ch._sparse and t.size == d * d > chanstruct.spectral._INVERSE_ORDER
        rf = cs.report_file_from_report(cs.decompose(ch))
        report = rf.report
        assert chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL).route == ("filter", ())
        assert report.R.dimension == d and rf.fixed_space_dimension == d
        assert len(report.alpha_blocks) == d and not report.beta_blocks
        for blk in report.alpha_blocks:
            assert np.abs(blk.sigma - 1.0).max() <= 1e-12


def _cesaro(ch, rho, n):
    """(1/n) sum_{k<n} Phi^k(rho) from powers of the superoperator, which
    acts on column-stacked matrices."""
    m, v = cs.superoperator(ch), np.asarray(rho, dtype=complex).reshape(-1, order="F")
    total = np.zeros_like(v)
    for _ in range(n):
        total += v
        v = m @ v
    return (total / n).reshape(ch.dim, ch.dim, order="F")


CESARO_CASES = {
    "amplitude-damping": lambda: amplitude_damping_channel(0.4),
    "generic": lambda: random_channel(3, 3, np.random.default_rng(265)),
    # a period-2 pair fed by a transient state
    "periodic-transient": lambda: cs.from_markov_chain(
        np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    ),
}


class TestCesaro:
    @pytest.mark.parametrize("case", list(CESARO_CASES))
    def test_rho_max_is_the_cesaro_limit_of_the_mixed_state(self, case):
        # rho_max = Pi_1(I/d), the Cesaro limit of Phi^k(I/d): the mean of n
        # terms is within O(1/n) of it, and an invariant state is its own mean
        ch = CESARO_CASES[case]()
        rho = cs.recurrent_split(ch).rho_max
        mixed = np.eye(ch.dim) / ch.dim
        dev = [np.abs(_cesaro(ch, mixed, n) - rho).max() for n in (400, 4000)]
        assert dev[1] < dev[0] <= 1e-2
        assert np.abs(_cesaro(ch, rho, 25) - rho).max() <= 1e-12


class TestRecurrentSplit:
    def test_amplitude_damping_split(self):
        split = cs.recurrent_split(amplitude_damping_channel(0.3))
        assert split.R.dimension == 1
        assert split.D.dimension == 1
        assert np.abs(split.R.projector() - np.diag([1.0, 0.0])).max() < 1e-10
        assert np.abs(split.rho_max - np.diag([1.0, 0.0])).max() < 1e-10

    def test_planted_transient_dimensions(self):
        ch, truth = planted_channel(RNG, [2], [(2, 2)], 3, n_kraus=3)
        split = cs.recurrent_split(ch)
        assert split.D.dimension == 3
        assert split.R.dimension == ch.dim - 3
        rho = split.rho_max
        assert np.abs(cs.apply(ch, rho) - rho).max() < 1e-9
        assert np.linalg.eigvalsh(rho).min() > -1e-9
        # range of rho_max inside R
        leak = (np.eye(ch.dim) - split.R.projector()) @ rho
        assert np.abs(leak).max() < 1e-9

    def test_irreducible_has_no_transient_part(self):
        ch = random_channel(4, 3, RNG)
        split = cs.recurrent_split(ch)
        assert split.D.dimension == 0
        assert not split.warnings

    def test_slow_birth_death_chain_is_irreducible(self):
        # up 0.1, down 0.9, reflecting: the stationary law falls as 9^-i, so
        # rho_max's range at rank_tol holds only the first 10 states, and R
        # is the enclosure they generate, all of C^20
        ch = slow_birth_death()
        split = cs.recurrent_split(ch)
        assert (split.R.dimension, split.D.dimension) == (20, 0)
        assert cs.is_irreducible(ch)
        assert cs.decompose(ch).R.dimension == 20

    @pytest.mark.parametrize("tail", [2, 3])
    def test_slow_birth_death_chain_with_transient_tail(self, tail):
        # the chain above and a path 20 -> ... -> 0 of D -> D steps: the
        # eigenvectors of rho_max near the rank_tol cut may tilt towards D,
        # and a tilt above subspace_tol would pull the path into R
        n = 20
        ch = slow_birth_death(n, tail)
        split = cs.recurrent_split(ch)
        assert (split.R.dimension, split.D.dimension) == (n, tail)
        assert not cs.is_irreducible(ch)

    def test_metastable_gap_warning(self):
        # second eigenvalue within the warning band of the fixed cluster
        eps = 3e-8
        p = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
        split = cs.recurrent_split(cs.from_markov_chain(p))
        assert split.warnings
        assert "ill-separated" in split.warnings[0]


class TestNearDegenerateChain:
    @pytest.mark.parametrize(
        "eps, warned", [(1e-3, False), (1e-5, False), (1e-6, False), (1e-7, True)]
    )
    def test_one_block_on_c4(self, eps, warned):
        # the chain is irreducible: one A-block on C^4 with the stationary
        # law; at eps = 1e-7, lambda_2 lies within 10 eig_cluster_tol of 1
        ch = two_class_chain(eps)
        rep = cs.decompose(ch)
        assert rep.R.dimension == 4 and len(rep.alpha_blocks) == 1
        assert not rep.beta_blocks
        rho = rep.alpha_blocks[0].rho
        assert np.abs(rho - np.diag([0.27, 0.23, 0.23, 0.27])).max() <= 1e-10
        assert bool(rep.warnings) == warned
        if warned:
            gap = chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL).gap
            assert 0.5 * 0.92 * eps < gap < 2.0 * 0.92 * eps
            assert "ill-separated" in rep.warnings[0]

    def test_inside_the_cluster_fails_with_the_estimated_distance(self):
        # at eps = 1e-8, lambda_2 counts as fixed, but the two classes leak
        # into each other far above subspace_tol, so no split is clean; the
        # failure carries the estimated distance of lambda_2 from 1 and names
        # the refusal: a class is not an enclosure
        ch = two_class_chain(1e-8)
        with pytest.raises(cs.DecompositionError) as err:
            cs.decompose(ch)
        assert err.value.stage == "minimal-enclosures"
        gap = err.value.diagnostics["nearest_non_fixed_distance"]
        assert 0.5 * 0.92e-8 < gap < 2.0 * 0.92e-8
        refusal = "V is not an enclosure of the channel"
        assert err.value.diagnostics["refusal"] == refusal
        assert refusal in str(err.value)


class TestSharedSolveIsReadOnly:
    """The eigenvalue-1 solve is kept with the channel and shared by every
    caller, so a write into what it hands out must fail."""

    def test_fixed_space_basis(self):
        ch = cs.KrausChannel([np.eye(2)])
        before = np.stack(cs.fixed_space(ch).hermitian_basis)
        with pytest.raises(ValueError):
            cs.fixed_space(ch).hermitian_basis[0][...] = 0
        assert np.array_equal(np.stack(cs.fixed_space(ch).hermitian_basis), before)

    def test_split_frames(self):
        ch = amplitude_damping_channel(0.5)
        split = cs.recurrent_split(ch)
        with pytest.raises(ValueError):
            split.R.frame[...] = split.D.frame
        with pytest.raises(ValueError):
            split.D.frame[...] = split.R.frame
        report = cs.decompose(ch)
        assert np.abs(report.R.projector() - np.diag([1.0, 0.0])).max() < 1e-10
        assert np.abs(report.D.projector() - np.diag([0.0, 1.0])).max() < 1e-10

    def test_fixed_points_of_the_solve(self):
        ch = amplitude_damping_channel(0.5)
        core = chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL)
        for a in (core.probes, core.candidate, core.split.rho_max):
            with pytest.raises(ValueError):
                a[...] = 0
        assert cs.decompose(ch).alpha_blocks[0].enclosures[0].dimension == 1


class TestPeripheralSpectrum:
    def test_three_cycle_markov(self):
        # the per-transition Kraus family annihilates coherences in one
        # step, so only the diagonal sector (evolving by the permutation)
        # reaches the unit circle: exactly the three cube roots of unity
        p = np.zeros((3, 3))
        p[1, 0] = p[2, 1] = p[0, 2] = 1.0
        spec = cs.peripheral_spectrum(cs.from_markov_chain(p))
        assert len(spec) == 3
        angles = np.angle(spec)
        assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(angles, angles[1:]))
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        for root in roots:
            count = sum(1 for z in spec if abs(z - root) < 1e-8)
            assert count == 1

    def test_three_cycle_unitary(self):
        # conjugation by the permutation matrix keeps coherences, so the
        # peripheral spectrum carries all products of cube roots of unity:
        # each root with multiplicity 3
        u = np.zeros((3, 3))
        u[1, 0] = u[2, 1] = u[0, 2] = 1.0
        spec = cs.peripheral_spectrum(cs.KrausChannel([u]))
        assert len(spec) == 9
        angles = np.angle(spec)
        assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(angles, angles[1:]))
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        for root in roots:
            count = sum(1 for z in spec if abs(z - root) < 1e-8)
            assert count == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: planted_channel(np.random.default_rng(347), [2], [(2, 2)], 2)[0],
            lambda: _markov_cycle_fed_by_transients(),
            lambda: amplitude_damping_channel(0.3),
        ],
        ids=["planted-b-block", "markov-cycle", "amplitude-damping"],
    )
    def test_equals_complex_superoperator_filter(self, make):
        # M_h is unitarily similar to M: the same peripheral eigenvalues,
        # with multiplicity, as the complex eigvals filtered directly
        ch = make()
        tol = cs.DEFAULT_TOL
        ref = [
            z
            for z in np.linalg.eigvals(cs.superoperator(ch))
            if abs(z) >= 1.0 - tol.eig_cluster_tol
        ]
        spec = cs.peripheral_spectrum(ch, tol)
        assert len(spec) == len(ref) >= 1
        for z in spec:  # match as multisets: angles near +-pi may swap order
            j = int(np.argmin(np.abs(np.array(ref) - z)))
            assert abs(ref.pop(j) - z) <= 1e-10

    def test_strictly_contractive_interior(self):
        ch = random_channel(3, 3, RNG)
        spec = cs.peripheral_spectrum(ch)
        assert len(spec) == 1
        assert abs(spec[0] - 1.0) < 1e-8

    def test_minus_one_sorts_last_on_both_sides_of_the_cut(self):
        tol = cs.DEFAULT_TOL
        got = cs.spectral._peripheral(
            [complex(-1.0, -1e-17), 1.0, complex(-1.0, 1e-17), -1j], tol
        )
        assert [z.imag for z in got] == [-1.0, 0.0, -1e-17, 1e-17]
        # conjugation by Z: -1 from the off-diagonal pair of 1-dim blocks,
        # the same values in the same order in the report and the reference
        ch = cs.KrausChannel([np.diag([1.0, -1.0])])
        full = cs.peripheral_spectrum(ch)
        rf = cs.report_file_from_report(cs.decompose(ch))
        assert np.allclose(full, [1, 1, -1, -1], atol=1e-12)
        assert len(rf.peripheral_spectrum) == len(full)
        assert np.abs(np.array(rf.peripheral_spectrum) - np.array(full)).max() <= 1e-10


class TestIrreducibility:
    # read off the report: one block of one copy, n_alpha + sum_b n_b^2 = 1,
    # and R = C^d
    @pytest.mark.parametrize(
        "make, multiplicity, rank, irreducible",
        [
            (lambda: cs.from_markov_chain(np.roll(np.eye(3), 1, axis=0)), 1, 3, True),
            (lambda: amplitude_damping_channel(0.5), 1, 1, False),
            (lambda: cs.KrausChannel([np.eye(2)]), 4, 2, False),
        ],
        ids=["cycle", "damping", "identity"],
    )
    def test_multiplicity_and_rank(self, make, multiplicity, rank, irreducible):
        ch = make()
        report = cs.decompose(ch)
        assert cs.report_file_from_report(report).fixed_space_dimension == multiplicity
        assert report.R.dimension == rank
        assert cs.is_irreducible(ch) is irreducible


class TestSingleSolve:
    def test_decompose_and_report_extras_solve_once(self, monkeypatch):
        # one factorization of M_h - sigma I per channel and tolerance
        calls = []
        factor = chanstruct.spectral._factor

        def counting(ch, tol):
            calls.append(ch.dim)
            return factor(ch, tol)

        monkeypatch.setattr(chanstruct.spectral, "_factor", counting)
        rng = np.random.default_rng(311)
        ch, truth = planted_channel(rng, [2, 1], [(2, 2)], 2, n_kraus=3)
        rf = cs.report_file_from_report(cs.decompose(ch))
        assert calls == [ch.dim]
        assert len(rf.report.alpha_blocks) == 2
        assert len(rf.report.beta_blocks) == 1
        assert rf.report.D.dimension == 2
        assert rf.fixed_space_dimension == truth["fixed_dim"]

    def test_four_projections_per_channel_and_tolerance(self, monkeypatch):
        # the solve projects four starts in three calls: the first probe
        # backward alone, I/d forward alone, and the second probe and the
        # first candidate backward on one stack; nothing read after it
        # projects again, not even the fallback of the cyclic shift or the
        # verification, which reads the second probe
        calls = []
        project = chanstruct.spectral._project

        def counting(ch, route, starts, adjoint, tol, roots=()):
            calls.append([adjoint] * len(starts))
            return project(ch, route, starts, adjoint, tol, roots)

        monkeypatch.setattr(chanstruct.spectral, "_project", counting)
        rng = np.random.default_rng(311)
        planted, _ = planted_channel(rng, [2, 1], [(2, 2)], 2, n_kraus=3)
        shift = cs.KrausChannel([np.roll(np.eye(4), 1, axis=0)])
        for ch in (planted, shift):
            calls.clear()
            report = cs.decompose(ch)
            cs.decompose(ch, rng_seed=7)
            cs.report_file_from_report(report)
            cs.fixed_space(ch)
            cs.is_irreducible(ch)
            algebra = cs.fixed_point_algebra_on_R(ch)
            assert len(algebra.hermitian_basis) == cs.fixed_space(ch).dimension
            cs.block_invariant_state(algebra, report.alpha_blocks[0].enclosures[0])
            assert calls == [[True], [False], [True, True]]

    @pytest.mark.parametrize("family", ["planted", "markov"])
    def test_factorization_freed_after_decompose(self, monkeypatch, family):
        # the solve makes every fixed point the pipeline reads, so nothing
        # holds a sparse family's inverse on T once it returns, while the
        # channel lives, and a dense family's filter leaves nothing
        # d^2 x d^2 on the channel
        solves, factor = [], chanstruct.spectral._factor

        def recording(ch, tol):
            route = factor(ch, tol)
            solves.append(weakref.ref(route[2]))  # the step, which holds the inverse
            return route

        monkeypatch.setattr(chanstruct.spectral, "_factor", recording)
        if family == "planted":
            rng = np.random.default_rng(311)
            ch, _ = planted_channel(rng, [2, 1], [(2, 2)], 2, n_kraus=3)
        else:
            ch = _markov_cycle_fed_by_transients()
        assert ch._sparse == (family == "markov")
        report = cs.decompose(ch)
        gc.collect()
        assert len(solves) == 1 and report.channel is ch and ch._cores
        if family == "markov":
            assert solves[0]() is None
        else:
            assert max(a.size for a in _reachable_arrays(ch)) < ch.dim**4

    @pytest.mark.parametrize("family", ["markov", "oqrw"])
    def test_sparse_superoperator_built_once(self, monkeypatch, family):
        # the eigenvalue-1 solve, every apply/apply_adjoint of decompose, the
        # report extras and building a state share one set of COO triples
        built = []
        make = chanstruct.channels._superoperator_sparse

        def counting(ch):
            built.append(ch.dim)
            return make(ch)

        monkeypatch.setattr(chanstruct.channels, "_superoperator_sparse", counting)
        if family == "markov":
            ch = _markov_cycle_fed_by_transients()
        else:
            ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 5), 5)
        assert ch._sparse
        rf = cs.report_file_from_report(cs.decompose(ch))
        report = rf.report
        # weight 1/c on every minimal enclosure, c their count
        c = len(report.alpha_blocks) + sum(len(b.enclosures) for b in report.beta_blocks)
        params = cs.InvariantStateParameters(
            t=np.full(len(report.alpha_blocks), 1.0 / c),
            M=tuple(np.eye(len(b.enclosures)) / c for b in report.beta_blocks),
        )
        rho = cs.build_invariant_state(report, params)
        assert np.abs(cs.apply(ch, rho) - rho).max() <= 1e-10
        assert built == [ch.dim]


def _reachable_arrays(root):
    """Every numpy array reachable from root through containers, instance
    attributes and array bases; types, modules and functions are not
    followed."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    return found


def _markov_cycle_fed_by_transients():
    # states 0 -> 1 -> 2 -> 0 cycle; states 3 and 4 leak into the cycle
    p = np.zeros((5, 5))
    p[1, 0] = p[2, 1] = p[0, 2] = 1.0
    p[:, 3] = [0.3, 0.0, 0.2, 0.1, 0.4]
    p[:, 4] = [0.0, 0.5, 0.0, 0.25, 0.25]
    return cs.from_markov_chain(p)


def _rotating_qubit_and_decaying_level(theta, gamma, rng):
    # a real rotation on span{e0, e1}; e2 decays into e0 at rate gamma
    v1 = np.zeros((3, 3), dtype=complex)
    v1[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    v1[2, 2] = np.sqrt(1.0 - gamma)
    v2 = np.zeros((3, 3), dtype=complex)
    v2[0, 2] = np.sqrt(gamma)
    u = haar_unitary(3, rng)
    return cs.KrausChannel([u @ v @ u.conj().T for v in (v1, v2)])


class TestPeripheralSpectrumOnR:
    @pytest.mark.parametrize("case", ["markov-cycle", "rotating-qubit"])
    def test_report_spectrum_equals_full_channel(self, case):
        if case == "markov-cycle":
            ch, expected = _markov_cycle_fed_by_transients(), 3
        else:
            rng = np.random.default_rng(313)
            ch, expected = _rotating_qubit_and_decaying_level(0.4, 0.5, rng), 4
        rf = cs.report_file_from_report(cs.decompose(ch))
        assert rf.report.D.dimension == ch.dim - (3 if case == "markov-cycle" else 2)
        full = cs.peripheral_spectrum(ch)
        assert len(full) == expected
        assert len(rf.peripheral_spectrum) == expected
        assert np.abs(np.array(rf.peripheral_spectrum) - np.array(full)).max() < 1e-10
        assert any(abs(z - 1.0) > 0.1 for z in full)  # a periodic part

    def test_report_spectrum_counts_off_diagonal_pairs(self):
        # eigenvalue 1 once from the A-block and n^2 times from the B-block's
        # n x n pairs of copies, off-diagonal pairs included: 5 for 2 copies
        # and 10 for 3 copies of the A-block's dimension
        for seed, copies in ((317, 2), (319, 3)):
            rng = np.random.default_rng(seed)
            ch, truth = planted_channel(rng, [3], [(3, copies)], 4)
            rf = cs.report_file_from_report(cs.decompose(ch))
            full = cs.peripheral_spectrum(ch)
            assert len(full) == 1 + copies**2 == truth["fixed_dim"]
            assert len(rf.peripheral_spectrum) == len(full)
            diff = np.array(rf.peripheral_spectrum) - np.array(full)
            assert np.abs(diff).max() < 1e-10
            assert np.abs(np.array(full) - 1.0).max() < 1e-8

    @pytest.mark.parametrize(
        "case", ["markov-cycle", "rotating-qubit", "planted-3-copies", "oqrw"]
    )
    def test_report_spectrum_matches_complex_pair_spectra(self, case):
        # diagonal block pairs are taken in real Hermitian coordinates; the
        # reference takes every pair's complex eigvals
        if case == "markov-cycle":
            ch = _markov_cycle_fed_by_transients()
        elif case == "rotating-qubit":
            ch = _rotating_qubit_and_decaying_level(0.4, 0.5, np.random.default_rng(313))
        elif case == "planted-3-copies":
            ch = planted_channel(np.random.default_rng(319), [2, 3], [(3, 3)], 2)[0]
        else:
            ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 4), 4)
        rep = cs.decompose(ch)
        firsts = [(b.enclosures[0].frame, 1) for b in rep.alpha_blocks] + [
            (b.enclosures[0].frame, len(b.enclosures)) for b in rep.beta_blocks
        ]
        parts = [(f.conj().T @ np.stack(ch.kraus) @ f, n) for f, n in firsts]
        eigenvalues = []
        for i, (a, n_i) in enumerate(parts):
            for j, (b, n_j) in enumerate(parts[i:], start=i):
                w = np.linalg.eigvals(cs.channels._transfer_matrix(a, b))
                pair = w if i == j else np.concatenate((w, w.conj()))
                eigenvalues.append(np.tile(pair, n_i * n_j))
        ref = cs.spectral._peripheral(np.concatenate(eigenvalues), rep.tolerance)
        got = cs.report_file_from_report(rep).peripheral_spectrum
        assert len(got) == len(ref)
        assert np.abs(np.array(got) - np.array(ref)).max() <= 1e-10


@pytest.fixture
def eigvals_sizes(monkeypatch):
    """The matrix size of every np.linalg.eigvals call from here on."""
    sizes = []
    eigvals = np.linalg.eigvals

    def counting(a):
        sizes.append(np.shape(a)[0])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return sizes


def _report_spectrum(ch, eigvals_sizes):
    """The report and its peripheral spectrum, checked against
    peripheral_spectrum(ch) value by value; ``eigvals_sizes`` is left with
    the calls report_file_from_report made."""
    rep = cs.decompose(ch)
    full = cs.peripheral_spectrum(ch)
    eigvals_sizes.clear()
    got = cs.report_file_from_report(rep).peripheral_spectrum
    assert len(got) == len(full)
    assert np.abs(np.array(got) - np.array(full)).max(initial=0.0) <= 1e-10
    return rep, got


def _phase_shifted_copy(rng):
    # A ⊕ ωA, ω = exp(2πi/3): two unlinked 3-dim A-blocks whose cross pair
    # map has the peripheral eigenvalues ω and its conjugate
    omega = np.exp(2j * np.pi / 3)
    u = haar_unitary(6, rng)
    kraus = [
        u @ np.kron(np.diag([1.0, omega]), a) @ u.conj().T
        for a in random_kraus_family(3, 2, rng)
    ]
    return cs.KrausChannel(kraus)


def _unital_mixture(m, rng):
    # the equal mixture of two Haar unitaries: a unital irreducible channel
    # of period 1, whose invariant state I/m has no simple eigenvalue
    return cs.KrausChannel([haar_unitary(m, rng) / np.sqrt(2) for _ in range(2)])


class TestReportPeriodWalk:
    @pytest.mark.parametrize(
        "dims", [[2, 3], [2, 2, 3], [1, 2, 2, 3], [2, 3, 1, 2, 2]],
        ids=["p2", "p3", "p4", "p5"],
    )
    def test_cyclic_channel_takes_the_walk(self, dims, eigvals_sizes):
        p = len(dims)
        ch = cyclic_channel(np.random.default_rng(600 + p), dims)
        rep, got = _report_spectrum(ch, eigvals_sizes)
        assert eigvals_sizes == []
        sigma = rep.alpha_blocks[0].sigma
        assert np.ptp(np.linalg.eigvalsh(sigma)) > 0.1
        roots = np.sort_complex(np.exp(2j * np.pi * np.arange(p) / p))
        assert np.abs(np.sort_complex(np.array(got)) - roots).max() < 1e-12

    @pytest.mark.parametrize("case", ["unital-3", "unital-30", "three-cycle"])
    def test_uniform_block_state_takes_the_walk(self, case, eigvals_sizes):
        # sigma = I/m has no simple eigenvalue; the walk starts from the
        # Kraus products and needs none
        if case == "three-cycle":
            ch, p = cs.from_markov_chain(np.roll(np.eye(3), 1, axis=0)), 3
        else:
            m = int(case.split("-")[1])
            ch, p = _unital_mixture(m, np.random.default_rng(607 if m == 3 else 30)), 1
        rep, got = _report_spectrum(ch, eigvals_sizes)
        blk = rep.alpha_blocks[0]
        assert np.abs(blk.sigma - np.eye(ch.dim) / ch.dim).max() < 1e-10
        assert eigvals_sizes == []
        roots = np.sort_complex(np.exp(2j * np.pi * np.arange(p) / p))
        assert np.abs(np.sort_complex(np.array(got)) - roots).max() < 1e-12

    def test_unequal_dimension_pair_makes_no_eigvals_call(self, eigvals_sizes):
        ch, _ = planted_channel(np.random.default_rng(609), [2, 3], [], 1)
        rep, got = _report_spectrum(ch, eigvals_sizes)
        assert sorted(b.enclosures[0].dimension for b in rep.alpha_blocks) == [2, 3]
        assert eigvals_sizes == []
        assert got == (1.0, 1.0)

    def test_phase_shifted_copy_is_found(self, eigvals_sizes):
        rep, got = _report_spectrum(
            _phase_shifted_copy(np.random.default_rng(611)), eigvals_sizes
        )
        assert [b.enclosures[0].dimension for b in rep.alpha_blocks] == [3, 3]
        assert rep.beta_blocks == ()
        # one eigvals, for the off-diagonal pair only
        assert eigvals_sizes == [9]
        omega = np.exp(2j * np.pi / 3)
        expected = [omega.conjugate(), 1.0, 1.0, omega]
        assert np.abs(np.array(got) - np.array(expected)).max() < 1e-10

    @pytest.mark.parametrize("wrong", ["merged", "repeated"])
    def test_certificate_rejects_a_wrong_period(
        self, wrong, monkeypatch, eigvals_sizes
    ):
        walk = chanstruct.spectral._cyclic_projections

        def forced(stack, tol):
            projs = walk(stack, tol)
            assert len(projs) == 3
            if wrong == "merged":  # period 2: P_0 + P_1 and P_2
                return [projs[0] + projs[1], projs[2]]
            return projs + projs  # period 6: the projections sum to 2 I

        ch = cyclic_channel(np.random.default_rng(613), [2, 2, 3])
        _, reference = _report_spectrum(ch, eigvals_sizes)
        assert eigvals_sizes == []
        monkeypatch.setattr(chanstruct.spectral, "_cyclic_projections", forced)
        _, got = _report_spectrum(ch, eigvals_sizes)
        assert eigvals_sizes == [49]
        assert len(got) == 3
        assert np.abs(np.array(got) - np.array(reference)).max() <= 1e-10

    def test_no_simple_eigenvalue_of_h_falls_back(self, eigvals_sizes):
        # one unitary Kraus operator U makes H = A^H B + B^H A a multiple of
        # I: the walk has no start, and all 9 eigenvalues of the 3-cycle's
        # X -> U X U^H are taken, each cube root of unity 3 times
        stack = np.roll(np.eye(3, dtype=complex), 1, axis=0)[None]
        assert chanstruct.spectral._cyclic_projections(stack, cs.DEFAULT_TOL) is None
        w = chanstruct.spectral._block_eigenvalues(stack, cs.DEFAULT_TOL)
        assert eigvals_sizes == [9]
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        assert (np.abs(w[:, None] - roots) < 1e-10).sum(axis=0).tolist() == [3, 3, 3]

    def test_oqrw_report_makes_no_eigvals_call(self, eigvals_sizes):
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 13), 13)
        rep = cs.decompose(ch)
        eigvals_sizes.clear()
        rf = cs.report_file_from_report(rep)
        assert eigvals_sizes == []
        assert [len(b.enclosures) for b in rep.beta_blocks] == [2]
        assert rf.peripheral_spectrum == (1.0, 1.0, 1.0, 1.0)


@pytest.fixture
def eigh_count(monkeypatch):
    """The number of np.linalg.eigh calls from here on, in a one-item list."""
    count = [0]
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        count[0] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return count


def _held_cycle(q):
    # the 3-cycle 0 -> 1 -> 2 -> 0 whose state 0 holds with probability q:
    # its non-unit eigenvalues lie about q/3 inside the cube roots
    return cs.from_markov_chain(np.array([[q, 0, 1], [1 - q, 0, 0], [0, 1, 0]]))


def _flip_or_hold(q):
    # {sqrt(1 - q) X, sqrt(q) I}: A-blocks |+> and |->, whose pair map has
    # the one eigenvalue 2q - 1
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return cs.KrausChannel([np.sqrt(1 - q) * x, np.sqrt(q) * np.eye(2)])


def _phase_related_pair(lam, eps, rng):
    # A ⊕ B on C^10 (in a Haar basis): A a random isometry family on C^5 and
    # B_a = lambda-bar W^H A_a W, with sqrt(eps) of a second family mixed
    # into B, so that the pair map has the eigenvalue lambda sqrt(1 - eps)
    a = random_kraus_family(5, 2, rng)
    w = haar_unitary(5, rng)
    zero = np.zeros((5, 5))
    ops = [
        np.block([[x, zero], [zero, np.sqrt(1 - eps) * np.conj(lam) * w.conj().T @ x @ w]])
        for x in a
    ]
    ops += [np.block([[zero, zero], [zero, np.sqrt(eps) * y]])
            for y in random_kraus_family(5, 2, rng)]
    u = haar_unitary(10, rng)
    return cs.KrausChannel([u @ op @ u.conj().T for op in ops])


# the trace certificate takes p = 1 from a Kraus operator with
# |tr V_a| > m sqrt(subspace_tol); near-periodic blocks below that cut walk
HOLDING = [1e-12, 1e-10, 1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-4, 1e-2]


class TestReportSpectrumFromTheory:
    def test_long_walk_report_makes_no_eigh_call(self, eigh_count):
        # one 46-dimensional B-block: an aperiodic walk's compressed Kraus
        # operators have nonzero trace, so the period walk (one eigh per
        # step, about 70 here) does not run
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.4, 0.3, 45), 45)
        rep = cs.decompose(ch)
        eigh_count[0] = 0
        rf = cs.report_file_from_report(rep)
        assert eigh_count[0] == 0
        assert rf.peripheral_spectrum == (1.0, 1.0, 1.0, 1.0)

    def test_unequal_state_spectra_make_no_eigvals_call(self, eigvals_sizes):
        # two 24-dimensional A-blocks whose states differ in spectrum: the
        # pair has no peripheral eigenvalue, and its 576 x 576 eigvals goes
        # (the full M_h of this d = 56 channel takes seconds: not compared)
        ch, _ = planted_channel(np.random.default_rng(2), [24, 24], [], 8)
        rep = cs.decompose(ch)
        eigvals_sizes.clear()
        got = cs.report_file_from_report(rep).peripheral_spectrum
        assert [b.enclosures[0].dimension for b in rep.blocks] == [24, 24]
        assert eigvals_sizes == []
        assert got == (1.0, 1.0)

    @pytest.mark.parametrize("q", HOLDING)
    @pytest.mark.parametrize("family", ["held-cycle", "flip-or-hold"])
    def test_near_periodic_sweep(self, family, q):
        # the period (or the pair's -1) stays until it leaves the unit
        # circle by eig_cluster_tol, as the walk and M_h found it; at
        # q = 1e-8 the held cycle's roots lie 3.3e-9 inside the circle, so
        # the full spectrum keeps them while the walk's span takes in the
        # holding image (weight q) and returns the uncertified p = 1
        ch = (_held_cycle if family == "held-cycle" else _flip_or_hold)(q)
        got = cs.report_file_from_report(cs.decompose(ch)).peripheral_spectrum
        if family == "held-cycle":
            roots = np.exp(2j * np.pi * np.array([-1, 0, 1]) / 3)
            expected = roots if q <= 1e-9 else [1.0]
        else:
            expected = [1, 1, 2 * q - 1, 2 * q - 1] if q <= 1e-9 else [1, 1]
        assert len(got) == len(expected)
        assert np.abs(np.array(got) - np.array(expected)).max() <= 1e-12
        full = cs.peripheral_spectrum(ch)
        if (family, q) == ("held-cycle", 1e-8):
            assert len(full) == 3
        else:
            assert len(full) == len(got)
            assert np.abs(np.array(got) - np.array(full)).max() <= 1e-8

    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-10, 1e-8, 3e-8, 1e-6, 1e-4, 1e-2])
    def test_phase_related_pair(self, eps):
        # two A-blocks whose pair keeps e^{+-0.7i} while
        # |lambda sqrt(1 - eps)| >= 1 - eig_cluster_tol, up to eps = 2e-8
        lam = np.exp(0.7j)
        ch = _phase_related_pair(lam, eps, np.random.default_rng(5))
        rep = cs.decompose(ch)
        assert [b.enclosures[0].dimension for b in rep.alpha_blocks] == [5, 5]
        assert rep.beta_blocks == ()
        got = cs.report_file_from_report(rep).peripheral_spectrum
        full = cs.peripheral_spectrum(ch)
        expected = [lam.conjugate(), 1.0, 1.0, lam] if eps <= 1e-8 else [1.0, 1.0]
        assert len(got) == len(full) == len(expected)
        assert np.abs(np.array(got) - np.array(expected)).max() < 1e-7
        assert np.abs(np.array(got) - np.array(full)).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_skipped_pairs_have_no_peripheral_eigenvalue(self, seed):
        # the screen's premise: a pair whose block states differ in spectrum
        # by more than sqrt(subspace_tol) has pair spectral radius < 1
        tol = cs.DEFAULT_TOL
        skipped = 0
        for alpha, beta, n_d in (([3, 3], [(3, 2)], 2), ([2, 2, 2], [], 1), ([4], [(4, 2)], 2)):
            ch, _ = planted_channel(np.random.default_rng(seed), alpha, beta, n_d)
            rep = cs.decompose(ch)
            parts = [
                (chanstruct.channels._compressions(ch, b.enclosures[0].frame),
                 np.linalg.eigvalsh(b.sigma))
                for b in rep.blocks
            ]
            for i, (a, s_a) in enumerate(parts):
                for b, s_b in parts[i + 1:]:
                    if np.abs(s_a - s_b).max() <= np.sqrt(tol.subspace_tol):
                        continue
                    skipped += 1
                    w = np.linalg.eigvals(cs.channels._transfer_matrix(a, b))
                    assert np.abs(w).max() < 1 - tol.eig_cluster_tol
        assert skipped >= 5


def _conjugated(u, kraus):
    return u @ kraus @ u.conj().T


# other Kraus families of the same channel, up to a unitary change of basis
KRAUS_FREEDOM = {
    "mix": lambda k, rng: np.tensordot(haar_unitary(len(k), rng), k, 1),
    "permute": lambda k, rng: k[rng.permutation(len(k))],
    "pad-zero": lambda k, rng: np.concatenate((k, np.zeros_like(k[:1]))),
    "conjugate": lambda k, rng: _conjugated(haar_unitary(k.shape[1], rng), k),
}


class TestReportSpectrumKrausFreedom:
    # the walk starts from products of Kraus operators, the one part of the
    # report spectrum that reads the Kraus family rather than the channel
    @pytest.mark.parametrize("change", sorted(KRAUS_FREEDOM))
    @pytest.mark.parametrize("case", ["cyclic-2-2-3", "unital-3"])
    def test_spectrum_does_not_depend_on_the_family(self, case, change, eigvals_sizes):
        rng = np.random.default_rng(617)
        if case == "unital-3":
            ch = _unital_mixture(3, rng)
        else:
            ch = cyclic_channel(rng, [2, 2, 3])
        _, reference = _report_spectrum(ch, eigvals_sizes)
        assert eigvals_sizes == []
        kraus = KRAUS_FREEDOM[change](np.stack(ch.kraus), rng)
        _, got = _report_spectrum(cs.KrausChannel(kraus), eigvals_sizes)
        assert eigvals_sizes == []
        assert len(got) == len(reference) == (1 if case == "unital-3" else 3)
        assert np.abs(np.array(got) - np.array(reference)).max() <= 1e-10


def _svd_kernels(ch, tol):
    """Reference right and left kernels of M - I from one dense SVD: vecs of
    the fixed points and of the adjoint's fixed points."""
    n2 = ch.dim**2
    u, s, vh = np.linalg.svd(cs.superoperator(ch) - np.eye(n2))
    k = int(np.sum(s <= tol.eig_cluster_tol))
    return vh[n2 - k :].conj().T, u[:, n2 - k :]


PARITY_CASES = {
    "identity-1": lambda: cs.KrausChannel([np.eye(1)]),
    # k = d^2: every matrix is fixed
    "identity-2": lambda: cs.KrausChannel([np.eye(2)]),
    "amplitude-damping": lambda: amplitude_damping_channel(0.3),
    "three-cycle-unitary": lambda: cs.KrausChannel([np.roll(np.eye(3), 1, axis=0)]),
    "metastable-chain": lambda: cs.from_markov_chain(
        np.array([[1.0 - 3e-8, 3e-8], [3e-8, 1.0 - 3e-8]])
    ),
    # sparse enough for the inverse on the coordinates Phi writes
    "markov-transients": _markov_cycle_fed_by_transients,
    "planted-transient": lambda: planted_channel(
        np.random.default_rng(331), [2], [(2, 2)], 3
    )[0],
}


class TestKernelAcceptance:
    def test_accepts_only_what_phi_fixes(self, monkeypatch):
        # the filter iterates S A S^-1 for the defect A = I - Phi on Hermitian
        # coordinates and S = I + 1e-3 e_0 e_1^T: the spectrum of A, but its
        # kernel is not fixed by the channel, so what the filter returns must
        # fail its residual, which is taken through Phi itself
        factor = chanstruct.spectral._factor

        def similar(ch, tol):
            kind, orders, defect = factor(ch, tol)
            s = np.eye(ch.dim**2)
            s[0, 1] = 1e-3
            s_inv = np.linalg.inv(s)
            # each row of a (k, d^2) stack, and a single vector, transformed
            return kind, orders, lambda b, adjoint: (s @ defect((s_inv @ b.T).T, adjoint).T).T

        monkeypatch.setattr(chanstruct.spectral, "_factor", similar)
        ch, _ = planted_channel(np.random.default_rng(5), [3], [(2, 2)], 4)
        assert not ch._sparse
        with pytest.raises(cs.DecompositionError) as err:
            cs.fixed_space(ch)
        assert err.value.stage == "fixed-space"

    def test_failed_replayed_projection_counts_the_replay(self, monkeypatch):
        # the residual through Phi fails every forward projection, so the
        # one of I/d, replayed alone, fails after its replay and the replay's
        # guard: the error counts every forward application of the defect,
        # the guard's two included
        spectral = chanstruct.spectral
        factor, replay, residual = spectral._factor, spectral._replay, spectral._residual
        forward, replayed = [], []

        def counting(ch, tol):
            kind, orders, defect = factor(ch, tol)

            def counted(b, adjoint):
                if not adjoint:
                    forward.append(b.ndim)  # 2 for the replay's stack
                return defect(b, adjoint)

            return kind, orders, counted

        def recording(solve, roots, v, adjoint):
            out = replay(solve, roots, v, adjoint)
            replayed.append((adjoint, out[1]))
            return out

        def failing(ch, v, adjoint):
            return residual(ch, v, adjoint) if adjoint else 1.0

        monkeypatch.setattr(spectral, "_factor", counting)
        monkeypatch.setattr(spectral, "_replay", recording)
        monkeypatch.setattr(spectral, "_residual", failing)
        ch, _ = planted_channel(np.random.default_rng(5), [3], [(2, 2)], 4)
        assert not ch._sparse
        with pytest.raises(cs.DecompositionError) as err:
            cs.decompose(ch)
        assert err.value.stage == "fixed-space"
        # the first probe's call replays no roots; then the replay ran on the
        # forward stack of one row, and the guard applied the defect to the
        # replayed row and to the start
        assert replayed == [(True, 0), (False, forward.count(2) - 2)] and replayed[1][1] > 0
        assert err.value.diagnostics["applications"] == len(forward)
        assert err.value.diagnostics["residual"] == 1.0


class TestKrylovFilter:
    """Pi_1 of a dense family by the Krylov filter: no inverse, nothing d^2 x d^2."""

    def test_dense_decompose_needs_no_inverse_and_no_superoperator(self):
        # planted d = 48: M_h alone would take 8 d^4 bytes, its inverse about
        # four times as much
        ch, truth = planted_channel(np.random.default_rng(48), [6, 8], [(4, 3), (5, 2)], 12)
        assert ch.dim == 48 and not ch._sparse
        report, peak = traced_peak(lambda: cs.decompose(ch))
        assert peak < ch.dim**4
        assert chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL).route == ("filter", ())
        assert len(report.alpha_blocks) == 2 and report.D.dimension == 12
        assert sorted(len(b.enclosures) for b in report.beta_blocks) == [2, 3]

    def test_kraus_heavy_dense_family_stays_on_the_filter(self):
        # 49 Kraus operators on C^48 (n > d), well separated: the filter
        # converges, so no inverse is taken and the peak stays far below
        # the 8 d^4 bytes that M_h alone would take
        ch = random_channel(48, 49, np.random.default_rng(48))
        assert not ch._sparse
        report, peak = traced_peak(lambda: cs.decompose(ch))
        assert peak < 2 * ch.dim**4
        assert chanstruct.spectral._spectral_core(ch, cs.DEFAULT_TOL).route == ("filter", ())
        assert len(report.blocks) == 1 and report.R.dimension == 48

    def test_planted_d96_matches_the_truth(self):
        ch, truth = planted_channel(
            np.random.default_rng(96), [8, 10, 12], [(6, 3), (7, 2)], 34
        )
        assert ch.dim == 96 and not ch._sparse
        report = cs.decompose(ch)
        assert len(report.alpha_blocks) == 3 and report.D.dimension == 34
        assert sorted(len(b.enclosures) for b in report.beta_blocks) == [2, 3]
        fixed = len(report.alpha_blocks) + sum(len(b.enclosures) ** 2 for b in report.beta_blocks)
        assert fixed == truth["fixed_dim"] == 16

    def test_exhausted_budget_fails_at_fixed_space(self, monkeypatch):
        monkeypatch.setattr(chanstruct.spectral, "_BUDGET", 12)
        ch, _ = planted_channel(np.random.default_rng(5), [3], [(2, 2)], 4)
        with pytest.raises(cs.DecompositionError, match="no eigenvalue-1 cluster") as err:
            cs.decompose(ch)
        assert err.value.stage == "fixed-space"
        diagnostics = err.value.diagnostics
        assert diagnostics["applications"] == 12
        assert 0.0 < diagnostics["residual"] < np.inf
        assert 0.0 < diagnostics["nearest_non_fixed_distance"] < np.inf

    def test_restarts_give_the_same_decomposition(self, monkeypatch):
        # ten Arnoldi steps per cycle instead of one cycle for the whole solve
        make = lambda: planted_channel(np.random.default_rng(5), [3], [(2, 2)], 4)[0]  # noqa: E731
        whole = report_invariants(cs.decompose(make()))
        monkeypatch.setattr(chanstruct.spectral, "_RESTART", 10)
        restarted = report_invariants(cs.decompose(make()))
        assert max(invariant_deviations(whole, restarted).values()) <= 1e-10

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_dense_defect_equals_the_codec_round_trip(self, adjoint):
        # the defect reads a (k, d^2) stack without decoding it: Phi(Z^T) =
        # Phi(Z)^H for a real Z gives the coordinates Re W + Im W^T
        ch, _ = planted_channel(np.random.default_rng(5), [3], [(2, 2)], 4)
        assert not ch._sparse
        b = np.random.default_rng(6).standard_normal((3, ch.dim**2))
        got = chanstruct.spectral._factor(ch, cs.DEFAULT_TOL)[2](b, adjoint)
        images = chanstruct.channels._apply_stack(
            ch, cs.linalg.hermitian_decode(b, ch.dim), adjoint
        )
        want = b - cs.linalg.hermitian_encode(images)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# the bench's planted layouts at d = 20 and 32, and TestKrylovFilter's d = 48
REPLAY_CASES = {
    20: (0, [3, 5], [(3, 2)], 6),
    32: (2, [3, 6], [(3, 3), (4, 2)], 6),
    48: (48, [6, 8], [(4, 3), (5, 2)], 12),
}


class TestReplay:
    """Only the first probe runs the full Krylov filter; the three other
    starts replay its residual polynomial and finish with a short run."""

    @pytest.mark.parametrize("d", list(REPLAY_CASES))
    def test_replayed_fixed_points_match_full_filter_runs(self, monkeypatch, d):
        seed, alpha_dims, beta_specs, n_transient = REPLAY_CASES[d]
        rng = np.random.default_rng(seed)
        ch, _ = planted_channel(rng, alpha_dims, beta_specs, n_transient)
        assert ch.dim == d and not ch._sparse
        spectral, tol = chanstruct.spectral, cs.DEFAULT_TOL
        full, runs = spectral._filter, []

        def recording(defect, x, tol):
            out = full(defect, x, tol)
            runs.append(out[1])
            return out

        monkeypatch.setattr(spectral, "_filter", recording)
        core = spectral._spectral_core(ch, tol)
        # one full-length run, and three starts finished in a few steps
        assert len(runs) == 4 and runs[0] > 10 and max(runs[1:]) <= 10
        spectral._spectral_core(ch, tol)
        assert len(runs) == 4
        spectral._spectral_core(ch, cs.Tolerance(eig_cluster_tol=1e-9))
        assert len(runs) == 8 and runs[4] > 10 and max(runs[5:]) <= 10
        # the reference: a full filter run from each start
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        probes = [spectral._gaussian_hermitian(rng, d) for _ in range(2)]
        candidate = np.diag(np.arange(1, d + 1) / d)
        solve = spectral._factor(ch, tol)[2]

        def reference(x, adjoint):
            v = cs.linalg.hermitian_encode(x)
            u = full(lambda b: solve(b, adjoint), v, tol)[0]
            return cs.linalg.hermitian_decode(u, d)

        rho = reference(np.eye(d) / d, False)
        pairs = [
            (core.split.rho_max, rho / np.trace(rho).real),
            (core.candidate, reference(candidate, True)),
        ]
        for got, g in zip(core.probes, probes):
            ref = reference(g, True)
            pairs.append((got, ref / np.linalg.norm(ref)))
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-10

    def test_lone_start_keeps_a_replay_that_grows_it(self, monkeypatch):
        # Pi_1 is oblique, so the replay grows I/d while it shrinks its
        # defect: the guard reads the defect of each row, keeps the replay,
        # and a short run finishes it, where a guard on the norm would send
        # the start to a full filter run
        spectral, tol = chanstruct.spectral, cs.DEFAULT_TOL
        seed, alpha_dims, beta_specs, n_transient = REPLAY_CASES[32]
        rng = np.random.default_rng(seed)
        ch, _ = planted_channel(rng, alpha_dims, beta_specs, n_transient)
        route = spectral._factor(ch, tol)
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        probe = [spectral._gaussian_hermitian(rng, ch.dim)]
        roots = spectral._project(ch, route, probe, True, tol)[2]
        start = np.eye(ch.dim) / ch.dim
        v = cs.linalg.hermitian_encode(start[None])
        assert np.linalg.norm(spectral._replay(route[2], roots, v, False)[0]) > np.linalg.norm(v)
        full, runs = spectral._filter, []

        def recording(defect, x, tol):
            out = full(defect, x, tol)
            runs.append(out[1])
            return out

        monkeypatch.setattr(spectral, "_filter", recording)
        spectral._project(ch, route, [start], False, tol, roots)
        assert len(runs) == 1 and runs[0] <= 10

    @pytest.mark.parametrize("restart", [100, 10])
    def test_replay_of_the_first_start_reproduces_its_run(self, monkeypatch, restart):
        # u = p(A) x exactly when the roots are the harmonic Ritz values of
        # every cycle, restarted or not; taken in Leja order, the product
        # loses nothing to rounding
        monkeypatch.setattr(chanstruct.spectral, "_RESTART", restart)
        spectral, tol = chanstruct.spectral, cs.DEFAULT_TOL
        seed, alpha_dims, beta_specs, n_transient = REPLAY_CASES[32]
        rng = np.random.default_rng(seed)
        ch, _ = planted_channel(rng, alpha_dims, beta_specs, n_transient)
        solve = spectral._factor(ch, tol)[2]
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,)))
        x = cs.linalg.hermitian_encode(spectral._gaussian_hermitian(rng, ch.dim))
        u, _, _, converged, roots = spectral._filter(lambda b: solve(b, True), x, tol)
        assert converged
        ordered = spectral._leja(roots, tol)
        replayed, applications = spectral._replay(solve, ordered, x[None], True)
        assert applications == len(roots)
        assert np.abs(replayed[0] - u).max() <= 1e-12 * np.abs(u).max()


class TestKernelParity:
    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_kernels_match_svd_null_spaces(self, case):
        # the fixed space assembled from the blocks against the right kernel,
        # and the algebra's basis against the left kernel compressed to R
        tol = cs.DEFAULT_TOL
        ch = PARITY_CASES[case]()
        ref_right, ref_left = _svd_kernels(ch, tol)
        fixed = cs.fixed_space(ch, tol).hermitian_basis
        # column-stacked matrices, as the superoperator acts on them
        right = np.column_stack([x.reshape(-1, order="F") for x in fixed])
        algebra = cs.fixed_point_algebra_on_R(ch, tol)
        frame = algebra.R.frame
        left = np.column_stack([h.reshape(-1, order="F") for h in algebra.hermitian_basis])
        d = ch.dim
        compressed = [frame.conj().T @ x.reshape(d, d, order="F") @ frame for x in ref_left.T]
        compressed = np.column_stack([x.reshape(-1, order="F") for x in compressed])
        u, s, _ = np.linalg.svd(compressed, full_matrices=False)
        ref_left = u[:, s > 1e-8 * s[0]]
        assert right.shape == ref_right.shape and left.shape == ref_left.shape
        for q, ref in ((right, ref_right), (left, ref_left)):
            diff = q @ q.conj().T - ref @ ref.conj().T
            assert np.abs(diff).max() <= 1e-10

    def test_decompose_makes_no_superoperator_sized_np_linalg_svd(self, monkeypatch):
        # records np.linalg.svd calls only, not SVDs inside norm(..., 2),
        # scipy.linalg.svd, lstsq or pinv
        sides = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            sides.append(max(np.shape(a)[-2:]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        rng = np.random.default_rng(337)
        ch, truth = planted_channel(rng, [3, 6], [(3, 3), (4, 2)], 6)
        assert ch.dim == 32
        report = cs.decompose(ch)
        assert sorted(len(b.enclosures) for b in report.beta_blocks) == [2, 3]
        assert max(sides, default=0) < ch.dim**2
