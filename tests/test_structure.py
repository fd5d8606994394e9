"""Enclosures, block decomposition, and the invariant-state parametrization."""

import dataclasses

import numpy as np
import pytest

import chanstruct as cs
import chanstruct.channels
import chanstruct.structure
from helpers import (
    amplitude_damping_channel,
    conjugated_invariants,
    haar_unitary,
    invariant_deviations,
    planted_channel,
    planted_markov,
    random_channel,
    random_kraus_family,
    random_state,
    report_invariants,
    support_closure,
    two_classes_and_transients,
)

RNG = np.random.default_rng(404)


def leak(ch, frame):
    """The 2-norm of the leak |(I - P) [V_1 F ... V_n F]|_2 of the span of
    the orthonormal frame F, the measure of ``is_enclosure``."""
    y = chanstruct.channels._leak(ch, frame, frame)
    return np.sqrt(chanstruct.channels._leak_norm2(y))


def rotated(ch, u):
    """The channel U Phi(U^H . U) U^H, Kraus operators U V_a U^H."""
    return cs.KrausChannel([u @ v @ u.conj().T for v in ch.kraus])


class TestEnclosureGenerated:
    def test_amplitude_damping_basis_vectors(self):
        ch = amplitude_damping_channel(0.3)
        e1 = cs.enclosure_generated(ch, [1.0, 0.0])
        assert e1.dimension == 1
        assert np.abs(e1.projector() - np.diag([1.0, 0.0])).max() < 1e-12
        # any vector touching e2 generates everything
        assert cs.enclosure_generated(ch, [0.0, 1.0]).dimension == 2
        assert cs.enclosure_generated(ch, [1.0, 1.0]).dimension == 2

    def test_matches_support_closure_oracle(self):
        for _ in range(10):
            d = int(RNG.integers(2, 6))
            ch = random_channel(d, 2, RNG)
            x = RNG.standard_normal(d) + 1j * RNG.standard_normal(d)
            enc = cs.enclosure_generated(ch, x)
            orc = support_closure(ch, x)
            assert np.abs(enc.projector() - orc.projector()).max() < 1e-8
            assert cs.is_enclosure(ch, enc)
        # a star: state 0 fans out to 60 leaves that all feed one hub, so one
        # step's leak has lambda_max = 60 and eigh's rounding on the zero
        # eigenvalues of Y Y^H passes subspace_tol^2; states 62..99 are a
        # path into 0 that 0 never reaches.  Rotated, the rounding is dense.
        p = np.zeros((100, 100))
        p[1:61, 0], p[61, 1:61], p[0, 61] = 1.0 / 60, 1.0, 1.0
        p[np.r_[63:100, 0], np.arange(62, 100)] = 1.0
        u = haar_unitary(100, RNG)
        ch = rotated(cs.from_markov_chain(p), u)
        enc = cs.enclosure_generated(ch, u[:, 0])
        orc = support_closure(ch, u[:, 0])
        assert enc.dimension == orc.dimension == 62
        assert np.abs(enc.projector() - orc.projector()).max() < 1e-8
        assert cs.is_enclosure(ch, enc)

    @pytest.mark.parametrize("small", [1e-10, 1e-12, 1e-13])
    def test_small_leak_beside_a_large_one(self, small):
        # 0 -> 1 with probability 1 - small, 0 -> 2 with probability small,
        # 1, 2 -> 0, and a path 3 -> ... -> 29 -> 0: the enclosure of e_0 is
        # span(e_0, e_1, e_2) although one step's leak has eigenvalues 1 and
        # small.  The eigenvector at small is off the range of the leak by
        # about eps / small, and that error alone would pull in the path
        d = 30
        p = np.zeros((d, d))
        p[1, 0], p[2, 0], p[0, 1], p[0, 2] = 1.0 - small, small, 1.0, 1.0
        p[np.r_[4:d, 0], np.arange(3, d)] = 1.0
        u = haar_unitary(d, RNG)
        ch = rotated(cs.from_markov_chain(p), u)
        enc = cs.enclosure_generated(ch, u[:, 0])
        assert enc.approx_equal(cs.Subspace(d, u[:, :3]))
        assert cs.is_enclosure(ch, enc)

    def test_rejects_zero_vector(self):
        with pytest.raises(cs.ArgumentError):
            cs.enclosure_generated(amplitude_damping_channel(0.3), [0.0, 0.0])


class TestEnclosurePredicates:
    def test_is_enclosure_on_amplitude_damping(self):
        ch = amplitude_damping_channel(0.3)
        e = np.eye(2)
        assert cs.is_enclosure(ch, cs.Subspace(2, e[:, :1]))
        assert not cs.is_enclosure(ch, cs.Subspace(2, e[:, 1:]))
        assert cs.is_enclosure(ch, cs.Subspace.zero(2))
        assert cs.is_enclosure(ch, cs.Subspace.full(2))

    def test_subharmonic_iff_enclosure(self):
        ch, _ = planted_channel(RNG, [2], [(1, 2)], 1, n_kraus=2)
        hits = 0
        for _ in range(25):
            k = int(RNG.integers(1, ch.dim))
            cols = RNG.standard_normal((ch.dim, k)) + (
                1j * RNG.standard_normal((ch.dim, k))
            )
            space = cs.Subspace(ch.dim, np.linalg.qr(cols)[0])
            is_enc = cs.is_enclosure(ch, space)
            hits += is_enc
            assert cs.is_subharmonic(ch, space.projector()) == is_enc

    def test_leak_is_invariant_under_kraus_freedom(self):
        # enclosures (leak ~ 0) and random subspaces (leak of order 1)
        rng = np.random.default_rng(431)
        ch, _ = planted_channel(rng, [2], [(2, 2)], 2, n_kraus=3)
        rep = cs.decompose(ch)
        frames = [v.frame for b in rep.blocks for v in b.enclosures]
        for k in (1, 3, 5):
            z = rng.standard_normal((ch.dim, k)) + 1j * rng.standard_normal((ch.dim, k))
            frames.append(np.linalg.qr(z)[0])
        d, zero = ch.dim, np.zeros((ch.dim, ch.dim))
        padded = list(ch.kraus) + [zero, zero]
        u = haar_unitary(len(padded), rng)
        mixed = cs.KrausChannel(list(np.tensordot(u, np.stack(padded), 1)))
        assert len(mixed.kraus) == 5
        for f in frames:
            ref = leak(ch, f)
            assert abs(leak(cs.KrausChannel(padded), f) - ref) <= 1e-12
            assert abs(leak(mixed, f) - ref) <= 1e-12
            # its square is lambda_max((I - P) Phi(P) (I - P)), and it bounds
            # the leak of every single Kraus operator
            comp = np.eye(d) - f @ f.conj().T
            w = np.linalg.eigvalsh(comp @ cs.apply(ch, f @ f.conj().T) @ comp)
            assert abs(ref**2 - w[-1]) <= 1e-12
            per_op = max(np.linalg.norm(comp @ v @ f, 2) for v in ch.kraus)
            assert ref >= per_op - 1e-15
        assert max(leak(ch, f) for f in frames[:-3]) < 1e-10
        assert min(leak(ch, f) for f in frames[-3:]) > 1e-3
        # sparse families hold a few rows per operator, so the leak keeps a
        # factor of each operator's rows, (d, n) for the one-row operators of
        # a Markov chain; unitary mixing makes the operators dense again.
        # The Markov classes {0, 1} and {2, 3, 4} are closed, 5 is transient
        p = np.zeros((6, 6))
        p[:2, :2] = rng.dirichlet(np.ones(2), 2).T
        p[2:5, 2:5] = rng.dirichlet(np.ones(3), 3).T
        p[:, 5] = rng.dirichlet(np.ones(6))
        mk = cs.from_markov_chain(p)
        e = np.eye(6, dtype=complex)
        assert chanstruct.channels._leak(mk, e[:, :2], e).shape == (6, len(mk.kraus))
        walk = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.2, 4), 4)
        for ch, closed in ((mk, [(0, 2), (2, 5), (0, 5)]), (walk, [])):
            d = ch.dim
            frames = [np.eye(d, dtype=complex)[:, a:b] for a, b in closed]
            frames.append(cs.recurrent_split(ch).R.frame)
            for k in (1, 3, 5):
                z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
                frames.append(np.linalg.qr(z)[0])
            u = haar_unitary(len(ch.kraus), rng)
            mixed = cs.KrausChannel(list(np.tensordot(u, np.stack(ch.kraus), 1)))
            for f in frames:
                y = np.hstack([(np.eye(d) - f @ f.conj().T) @ v @ f for v in ch.kraus])
                assert abs(leak(ch, f) - np.linalg.norm(y, 2)) <= 1e-12
                assert abs(leak(mixed, f) - leak(ch, f)) <= 1e-12
            assert max(leak(ch, f) for f in frames[:-3]) < 1e-12
            assert min(leak(ch, f) for f in frames[-3:]) > 1e-3

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_gram_leak_matches_spectral_norm(self, scale):
        # V = span(e_0 .. e_{k-1}) and Kraus operators whose lower-left block
        # is scale * G_a: the leak Y = [scale * G_1 ... scale * G_n] is formed
        # exactly, so the Gram form and an SVD see the same matrix
        rng = np.random.default_rng(433)
        d, k, n = 7, 3, 4
        kraus = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        kraus[:, k:, :k] *= scale
        ch = cs.KrausChannel(kraus)
        frame = np.eye(d, dtype=complex)[:, :k]
        y = np.hstack([v[k:, :k] for v in ch.kraus])
        ref = np.linalg.norm(y, 2)
        got = leak(ch, frame)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda ch: cs.is_enclosure(ch, cs.Subspace.full(3)), "subspace ambient dimension"),
            (lambda ch: cs.is_subharmonic(ch, np.eye(3)), "P has wrong shape"),
        ],
        ids=["is_enclosure", "is_subharmonic"],
    )
    def test_shape_mismatch_rejected(self, call, message):
        with pytest.raises(cs.ArgumentError, match=message):
            call(amplitude_damping_channel(0.3))

    def test_subharmonic_rejects_non_projector(self):
        ch = amplitude_damping_channel(0.3)
        with pytest.raises(cs.ArgumentError):
            cs.is_subharmonic(ch, np.array([[0.5, 0.0], [0.0, 0.0]]))
        with pytest.raises(cs.ArgumentError):
            cs.is_subharmonic(ch, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("leak, subharmonic", [(0.0, True), (1e-10, True), (1e-8, False)])
    def test_subharmonic_margin_is_psd_tol(self, leak, subharmonic):
        # state 0 leaks to state 1 with probability leak: Phi^*(P) - P is
        # diag(-leak, 0) for P = |0><0|, subharmonic within psd_tol = 1e-9
        ch = cs.from_markov_chain(np.array([[1.0 - leak, 0.0], [leak, 1.0]]))
        assert cs.is_subharmonic(ch, np.diag([1.0, 0.0])) is subharmonic


class TestAccessibility:
    def test_classical_transience(self):
        # 1 <- 2: state 2 leaks to 1, never back
        p = np.array([[1.0, 0.5], [0.0, 0.5]])
        ch = cs.from_markov_chain(p)
        e1, e2 = np.eye(2)[:, 0], np.eye(2)[:, 1]
        assert cs.accessible(ch, e2, e1)
        assert not cs.accessible(ch, e1, e2)
        assert not cs.communicates(ch, e1, e2)
        assert cs.communicates(ch, e1, 2.0 * e1)
        with pytest.raises(cs.ArgumentError, match="y has length 3"):
            cs.accessible(ch, e1, np.ones(3))

    def test_irreducibility(self):
        p = np.zeros((3, 3))
        p[1, 0] = p[2, 1] = p[0, 2] = 1.0
        assert cs.is_irreducible(cs.from_markov_chain(p))
        assert not cs.is_irreducible(amplitude_damping_channel(0.2))

    def test_orbit_reach_is_the_generated_enclosure(self):
        ch = amplitude_damping_channel(0.3)
        # e2 is transient: its orbit sweeps the whole space
        assert cs.enclosure_generated(ch, [0.0, 1.0]).dimension == 2
        # e1 is absorbing: the orbit never leaves span{e1}
        assert cs.enclosure_generated(ch, [1.0, 0.0]).dimension == 1


# two absorbing states and a transient one: two A-blocks
_TWO_ABSORBING = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])

# each call gets a non-finite entry in a state, a vector or a weight
NON_FINITE_CALLS = {
    "enclosure-generated": lambda ch: cs.enclosure_generated(ch, [np.nan, 0, 1]),
    "accessible": lambda ch: cs.accessible(ch, [1, 0, 0], [np.nan, 0, 0]),
    "build-invariant-state": lambda ch: cs.build_invariant_state(
        cs.decompose(ch), cs.InvariantStateParameters(t=[np.nan, 1.0], M=())
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_input_is_argument_error(case):
    ch = cs.from_markov_chain(_TWO_ABSORBING)
    with pytest.raises(cs.ArgumentError):
        NON_FINITE_CALLS[case](ch)


class TestFixedPointAlgebra:
    def test_identity_channel_full_algebra(self):
        ch = cs.KrausChannel([np.eye(3)])
        algebra = cs.fixed_point_algebra_on_R(ch)
        assert algebra.dimension == 9

    def test_planted_dimension(self):
        ch, truth = planted_channel(RNG, [2, 3], [(2, 2)], 2, n_kraus=3)
        algebra = cs.fixed_point_algebra_on_R(ch)
        assert algebra.dimension == truth["fixed_dim"]
        # every basis element is fixed by the adjoint of the restriction
        frame = algebra.R.frame
        compressed = [frame.conj().T @ v @ frame for v in ch.kraus]
        for h in algebra.hermitian_basis:
            image = sum(w.conj().T @ h @ w for w in compressed)
            assert np.abs(image - h).max() < 1e-8


class TestMinimalEnclosures:
    def _pipeline(self, ch, seed=0):
        return cs.minimal_enclosures(cs.fixed_point_algebra_on_R(ch), rng_seed=seed)

    def test_identity_channel_splits_into_lines(self):
        ch = cs.KrausChannel([np.eye(3)])
        encs = self._pipeline(ch)
        assert len(encs) == 3
        assert all(e.dimension == 1 for e in encs)

    def test_mutually_orthogonal_minimal_enclosures(self):
        ch, truth = planted_channel(RNG, [2], [(2, 2)], 0, n_kraus=3)
        encs = self._pipeline(ch)
        assert len(encs) == 3  # one A summand + two copies
        for i, ei in enumerate(encs):
            assert cs.is_enclosure(ch, ei)
            assert cs.is_irreducible(
                cs.KrausChannel(
                    [ei.frame.conj().T @ v @ ei.frame for v in ch.kraus]
                )
            )
            for ej in encs[i + 1 :]:
                assert np.abs(ei.frame.conj().T @ ej.frame).max() < 1e-8

    def test_deterministic_across_seeds(self):
        ch, _ = planted_channel(RNG, [], [(2, 3)], 0, n_kraus=3)
        encs0 = self._pipeline(ch, seed=0)
        encs7 = self._pipeline(ch, seed=7)
        assert len(encs0) == len(encs7) == 3
        for a, b in zip(encs0, encs7):
            assert a.approx_equal(b)

    def test_seeded_fallback_on_cyclic_shift(self, monkeypatch):
        # Pi_1^* of the cyclic shift on C^4 averages the canonical reference
        # over the shifts, to a multiple of I, whose one eigenspace is not
        # minimal; the first seeded element splits C^4 into Fourier lines
        ch = cs.KrausChannel([np.roll(np.eye(4), 1, axis=0)])
        calls = []
        eigensplit = chanstruct.structure._try_eigensplit

        def counting(algebra, x):
            calls.append((x, eigensplit(algebra, x)))
            return calls[-1][1]

        monkeypatch.setattr(chanstruct.structure, "_try_eigensplit", counting)
        encs0 = self._pipeline(ch, seed=0)
        (canonical, rejected), (_, found) = calls
        assert np.abs(canonical - canonical[0, 0] * np.eye(4)).max() < 1e-12
        assert isinstance(rejected, cs.DecompositionError)
        assert "V not minimal" in str(rejected) and isinstance(found, list)
        encs7 = self._pipeline(ch, seed=7)
        assert len(encs0) == len(encs7) == 4
        assert all(e.dimension == 1 for e in encs0 + encs7)
        # the seeds may order the lines differently
        for a in encs0:
            assert sum(a.approx_equal(b) for b in encs7) == 1
        rf = cs.report_file_from_report(cs.decompose(ch))
        assert len(rf.report.alpha_blocks) == 4 and not rf.report.beta_blocks
        assert rf.fixed_space_dimension == 4
        assert len(rf.peripheral_spectrum) == 16

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fallback_order_does_not_depend_on_kraus_family(self, seed):
        # the seeded fallback elements are F^H Pi_1^*(G) F, functions of the
        # channel alone, so another Kraus family of the cyclic shift (padded
        # with a zero operator and mixed by a unitary) gives its Fourier lines
        # in the same order
        shift = np.roll(np.eye(4), 1, axis=0)

        def lines(kraus):
            report = cs.decompose(cs.KrausChannel(kraus), rng_seed=seed)
            return [blk.enclosures[0].projector() for blk in report.alpha_blocks]

        reference = lines([shift])
        for mixing_seed in (1, 2):
            u = haar_unitary(2, np.random.default_rng(mixing_seed))
            got = lines([u[0, 0] * shift, u[1, 0] * shift])
            assert len(got) == len(reference) == 4
            assert all(np.abs(p - q).max() < 1e-8 for p, q in zip(reference, got))

    def test_gaussian_references_drawn_only_when_tried(self, monkeypatch):
        # the first candidate splits this channel at once, so decompose tries
        # one eigensplit and seeds no generator for fallback coefficients
        # (the solve, made first here, seeds its own references)
        ch, _ = planted_channel(
            np.random.default_rng(17), [2], [(2, 2)], 1, n_kraus=3
        )
        cs.recurrent_split(ch)
        seeded, tries = [], []
        default_rng = np.random.default_rng
        eigensplit = chanstruct.structure._try_eigensplit

        def counting_rng(*args, **kwargs):
            seeded.append(args)
            return default_rng(*args, **kwargs)

        def counting_eigensplit(*args):
            tries.append(eigensplit(*args))
            return tries[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(
            chanstruct.structure, "_try_eigensplit", counting_eigensplit
        )
        report = cs.decompose(ch)
        assert len(tries) == 1 and isinstance(tries[0], list)
        assert len(report.alpha_blocks) == 1 and len(report.beta_blocks) == 1
        assert seeded == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cs.KrausChannel([np.roll(np.eye(4), 1, axis=0)]),
            lambda: cs.from_markov_chain(np.array([[0.5, 0.2], [0.5, 0.8]])),
        ],
        ids=["shift-fallback", "markov-first-candidate"],
    )
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_is_argument_error(self, build, seed):
        # refused before any solve, whether or not the fallback would seed;
        # a bool too, which the report reader would refuse
        ch = build()
        with pytest.raises(cs.ArgumentError, match="rng_seed"):
            cs.decompose(ch, rng_seed=seed)
        assert ch._cores == {}
        algebra = cs.fixed_point_algebra_on_R(ch)
        with pytest.raises(cs.ArgumentError, match="rng_seed"):
            cs.minimal_enclosures(algebra, rng_seed=seed)

    def test_degenerate_sampling_error(self, monkeypatch):
        # every attempt refused: the failure names the last refusal
        algebra = cs.fixed_point_algebra_on_R(cs.KrausChannel([np.eye(2)]))
        refusals = []

        def refusing(*a, **k):
            refusals.append(cs.ArgumentError(f"refusal {len(refusals)}"))
            return refusals[-1]

        monkeypatch.setattr(chanstruct.structure, "_try_eigensplit", refusing)
        with pytest.raises(cs.DecompositionError, match="refusal: refusal 8") as err:
            cs.minimal_enclosures(algebra)
        assert err.value.stage == "minimal-enclosures"
        assert err.value.diagnostics["refusal"] == "refusal 8"
        assert len(refusals) == 9

    def test_refused_minimality_is_named(self, monkeypatch):
        # with no fallback, the cyclic shift's first candidate, a multiple of
        # I, has one eigenspace, C^4: an enclosure in R, but not minimal
        monkeypatch.setattr(chanstruct.structure, "_MAX_SAMPLING_ATTEMPTS", 0)
        ch = cs.KrausChannel([np.roll(np.eye(4), 1, axis=0)])
        with pytest.raises(cs.DecompositionError) as err:
            cs.decompose(ch)
        assert err.value.stage == "minimal-enclosures"
        refusal = err.value.diagnostics["refusal"]
        assert "V not minimal: an adjoint fixed point is not constant on V" in refusal
        assert refusal in str(err.value)


class TestGrouping:
    def test_planted_mixed_structure(self):
        # the second layout's A-blocks have the dimension of the B-block
        # copies: equal dimension alone must not link enclosures
        layouts = (
            (RNG, [3], [(2, 2)]),
            (np.random.default_rng(167), [2, 2], [(2, 3)]),
        )
        for rng, alpha_dims, beta_specs in layouts:
            ch, truth = planted_channel(rng, alpha_dims, beta_specs, 0, n_kraus=3)
            algebra = cs.fixed_point_algebra_on_R(ch)
            encs = cs.minimal_enclosures(algebra)
            alpha, beta = cs.group_into_blocks(encs, algebra)
            assert len(alpha) == truth["n_alpha"]
            assert [len(grp) for grp in beta] == truth["beta_sizes"]

    def test_unequal_linked_dimensions_rejected(self):
        # for the identity channel every subspace is an enclosure and the
        # algebra links everything, so a dim-1/dim-2 split is inconsistent
        algebra = cs.fixed_point_algebra_on_R(cs.KrausChannel([np.eye(3)]))
        e = np.eye(3)
        fake = [cs.Subspace(3, e[:, :1]), cs.Subspace(3, e[:, 1:])]
        with pytest.raises(
            cs.DecompositionError, match="algebra/tolerance inconsistency"
        ):
            cs.group_into_blocks(fake, algebra)

    def test_enclosure_outside_R_rejected(self):
        # D's frame is an enclosure of no block: its coordinates in R are
        # refused before any link is read
        ch, _ = planted_channel(np.random.default_rng(23), [2], [], 2, n_kraus=3)
        algebra = cs.fixed_point_algebra_on_R(ch)
        encs = cs.minimal_enclosures(algebra)
        with pytest.raises(cs.DecompositionError, match="block-grouping: .* not contained in R"):
            cs.group_into_blocks(encs + [cs.recurrent_split(ch).D], algebra)


class TestPartialIsometry:
    def _beta_pair(self):
        ch, truth = planted_channel(RNG, [], [(2, 2)], 0, n_kraus=3)
        algebra = cs.fixed_point_algebra_on_R(ch)
        _, beta = cs.group_into_blocks(cs.minimal_enclosures(algebra), algebra)
        return ch, algebra, beta[0]

    def test_isometry_identities(self):
        ch, algebra, (v1, v2) = self._beta_pair()
        q = cs.partial_isometry(algebra, v1, v2)
        assert np.abs(q.conj().T @ q - v1.projector()).max() < 1e-10
        assert np.abs(q @ q.conj().T - v2.projector()).max() < 1e-10
        # intertwines the restricted dynamics
        for v in ch.kraus:
            assert np.abs((v @ q - q @ v) @ v1.projector()).max() < 1e-8
        # phase gauge: largest entry is real positive
        idx = int(np.argmax(np.abs(q)))
        assert abs(q.flat[idx].imag) < 1e-10
        assert q.flat[idx].real > 0

    def test_phase_ignores_ties_in_modulus(self):
        # V_a ⊕ D V_a D^H with D = diag(1, i): the intertwiner carries D, so
        # its entries 1 and i tie in modulus.  Any orthonormal frames of the
        # two enclosures must give the same isometry, phase included.
        rng = np.random.default_rng(11)
        d_phase = np.diag([1.0, 1j])
        zero = np.zeros((2, 2))
        kraus = [
            np.block([[v, zero], [zero, d_phase @ v @ d_phase.conj()]])
            for v in random_kraus_family(2, 2, rng)
        ]
        algebra = cs.fixed_point_algebra_on_R(cs.KrausChannel(kraus))
        _, beta = cs.group_into_blocks(cs.minimal_enclosures(algebra), algebra)
        (v1, v2), = beta
        ref = cs.partial_isometry(algebra, v1, v2)
        for _ in range(8):
            w1, w2 = haar_unitary(2, rng), haar_unitary(2, rng)
            q = cs.partial_isometry(
                algebra, cs.Subspace(4, v1.frame @ w1), cs.Subspace(4, v2.frame @ w2)
            )
            assert np.abs(q - ref).max() <= 1e-10

    def test_same_enclosure_gives_projector(self):
        _, algebra, (v1, _) = self._beta_pair()
        q = cs.partial_isometry(algebra, v1, v1)
        assert np.abs(q - v1.projector()).max() < 1e-10

    def test_unlinked_pair_rejected(self):
        ch, _ = planted_channel(RNG, [2, 2], [], 0, n_kraus=3)
        algebra = cs.fixed_point_algebra_on_R(ch)
        encs = cs.minimal_enclosures(algebra)
        with pytest.raises(cs.DecompositionError, match="links"):
            cs.partial_isometry(algebra, encs[0], encs[1])

    def test_zero_enclosures_rejected(self):
        ch, algebra, _ = self._beta_pair()
        zero = cs.Subspace.zero(ch.dim)
        with pytest.raises(cs.ArgumentError, match="enclosures must be nonzero"):
            cs.partial_isometry(algebra, zero, zero)

    def test_dimension_mismatch_rejected(self):
        ch, algebra, (v1, _) = self._beta_pair()
        with pytest.raises(cs.ArgumentError):
            cs.partial_isometry(algebra, v1, cs.Subspace(ch.dim, np.eye(ch.dim)))

    def test_half_linked_pair_rejected(self):
        # V_j takes one line of the second copy and one of an A-block of the
        # same dimension: the algebra links only the first, so the linking
        # block has rank 1 of 2 and unequal singular values
        ch, _ = planted_channel(np.random.default_rng(24), [2], [(2, 2)], 0, n_kraus=3)
        report = cs.decompose(ch)
        (v1, v2), (a,) = report.beta_blocks[0].enclosures, report.alpha_blocks[0].enclosures
        half = cs.Subspace(ch.dim, np.column_stack([v2.frame[:, 0], a.frame[:, 0]]))
        with pytest.raises(cs.DecompositionError, match="partial-isometry: .* non-equal singular"):
            cs.partial_isometry(cs.fixed_point_algebra_on_R(ch), v1, half)


def _enclosure_off_R():
    """A planted channel (one 3-dim A-block, 2 transient dimensions) and the
    5-dim enclosure that a transient vector generates."""
    ch, _ = planted_channel(np.random.default_rng(5), [3], [], 2, n_kraus=3)
    split = cs.recurrent_split(ch)
    v = cs.enclosure_generated(ch, split.D.frame[:, 0])
    assert v.dimension == 5
    return ch, v


class TestBlockInvariantState:
    def test_amplitude_damping(self):
        ch = amplitude_damping_channel(0.4)
        v = cs.Subspace(2, np.eye(2)[:, :1])
        rho = cs.block_invariant_state(cs.fixed_point_algebra_on_R(ch), v)
        assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12

    def test_rejects_non_enclosure(self):
        algebra = cs.fixed_point_algebra_on_R(amplitude_damping_channel(0.4))
        with pytest.raises(cs.ArgumentError, match="not an enclosure"):
            cs.block_invariant_state(algebra, cs.Subspace(2, np.eye(2)[:, 1:]))

    def test_rejects_zero_subspace(self):
        algebra = cs.fixed_point_algebra_on_R(amplitude_damping_channel(0.4))
        with pytest.raises(cs.ArgumentError, match="V must be nonzero"):
            cs.block_invariant_state(algebra, cs.Subspace.zero(2))

    def test_rejects_non_minimal(self):
        algebra = cs.fixed_point_algebra_on_R(cs.KrausChannel([np.eye(2)]))
        with pytest.raises(cs.DecompositionError, match="V not minimal"):
            cs.block_invariant_state(algebra, cs.Subspace.full(2))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (amplitude_damping_channel(0.4), cs.Subspace.full(2)),
            _enclosure_off_R,
        ],
        ids=["amplitude-damping-full", "planted-transient-seed"],
    )
    def test_rejects_enclosure_outside_R(self, make):
        # the adjoint fixed space is {I}, constant on any V, so only the
        # containment V ⊆ R rejects these non-minimal enclosures
        ch, v = make()
        assert cs.fixed_space(ch).dimension == 1
        assert cs.is_enclosure(ch, v)
        with pytest.raises(cs.DecompositionError, match="V not minimal"):
            cs.block_invariant_state(cs.fixed_point_algebra_on_R(ch), v)

    def test_faithful_invariant_state(self):
        ch, _ = planted_channel(RNG, [3], [], 0, n_kraus=3)
        rep = cs.decompose(ch)
        rho = rep.alpha_blocks[0].rho
        assert np.abs(cs.apply(ch, rho) - rho).max() < 1e-10
        w = np.linalg.eigvalsh(rho)
        assert w[-3] > 1e-6  # full rank on its 3-dim enclosure


class TestDecompose:
    def test_planted_report_counts(self):
        ch, truth = planted_channel(RNG, [2, 1], [(2, 2), (1, 3)], 2, n_kraus=3)
        rep = cs.decompose(ch)
        assert len(rep.alpha_blocks) == truth["n_alpha"]
        assert sorted(len(b.enclosures) for b in rep.beta_blocks) == truth[
            "beta_sizes"
        ]
        assert rep.D.dimension == truth["d_transient"]
        assert rep.rng_seed == 0
        assert rep.channel is ch
        # first transport is the base projector
        for blk in rep.beta_blocks:
            p0 = blk.enclosures[0].projector()
            assert np.abs(blk.isometries[0] - p0).max() < 1e-12

    @pytest.mark.parametrize(
        "p, q, n", [(0.1, 0.2, 13), (0.1, 0.2, 20), (0.05, 0.1, 13)]
    )
    def test_slow_walks_keep_the_whole_recurrent_subspace(self, p, q, n):
        # the last sites' stationary weight (p/(1-p))^n is below rank_tol, so
        # rho_max's range at rank_tol misses them and R must be grown
        ch = cs.from_oqrw(cs.oqrw_transition_map(p, q, n), n)
        rep = cs.decompose(ch)
        assert rep.R.dimension == 2 * (n + 1)
        assert cs.is_enclosure(ch, rep.R)
        assert not rep.alpha_blocks
        assert [len(b.enclosures) for b in rep.beta_blocks] == [2]
        assert cs.report_file_from_report(rep).fixed_space_dimension == 4

    def test_linking_element_made_once(self, monkeypatch):
        # the identity channel on C^10 is one B-block of 10 lines: grouping
        # and the 9 partial isometries all read one linking element
        handed = []
        link_cut = chanstruct.structure._link_cut

        def recording(algebra):
            h, cut = link_cut(algebra)
            handed.append(h)
            return h, cut

        monkeypatch.setattr(chanstruct.structure, "_link_cut", recording)
        rep = cs.decompose(cs.KrausChannel([np.eye(10)]))
        assert [len(b.enclosures) for b in rep.beta_blocks] == [10]
        assert len(handed) == 10
        assert all(h is handed[0] for h in handed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verification_decides_copy_alignment(self, seed, monkeypatch):
        # a polar factor twisted by diag(e^{ik}) on its source still maps
        # the base enclosure onto the copy, but no longer intertwines: the
        # reference state in the twisted copy's frame is not invariant
        polar = cs.partial_isometry

        def twisting(algebra, vi, vj):
            phases = np.exp(1j * np.arange(vi.dimension))
            f = vi.frame
            return polar(algebra, vi, vj) @ f @ np.diag(phases) @ f.conj().T

        monkeypatch.setattr(chanstruct.structure, "partial_isometry", twisting)
        ch, _ = planted_channel(np.random.default_rng(seed), [1], [(2, 2)], 1)
        with pytest.raises(cs.DecompositionError) as err:
            cs.decompose(ch)
        assert err.value.stage == "verification"
        assert "B-block 0 state is not invariant on copy 1" in str(err.value)

    def test_stage_tagging(self):
        ch = cs.KrausChannel([np.eye(2), np.eye(2)])
        with pytest.raises(cs.DecompositionError) as err:
            cs.decompose(ch)
        assert err.value.stage in {"recurrent-split", "fixed-space"}

    def test_linalg_error_is_tagged_with_its_stage(self, monkeypatch):
        # a LinAlgError inside a stage surfaces as a DecompositionError of
        # that stage: the split's eigh of rho_max fails here
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(cs.DecompositionError) as err:
            cs.decompose(amplitude_damping_channel(0.4))
        assert err.value.stage == "recurrent-split"
        assert "did not converge" in str(err.value)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


class TestParametrization:
    def _mixed_report(self):
        ch, _ = planted_channel(RNG, [2], [(2, 3)], 1, n_kraus=3)
        return cs.decompose(ch)

    def test_build_and_extract_round_trip(self):
        rep = self._mixed_report()
        nc = len(rep.beta_blocks[0].enclosures)
        g = RNG.standard_normal((nc, nc)) + 1j * RNG.standard_normal((nc, nc))
        m = g @ g.conj().T
        m *= 0.7 / np.trace(m).real
        params = cs.InvariantStateParameters(t=np.array([0.3]), M=(m,))
        rho = cs.build_invariant_state(rep, params)
        assert cs.is_state(rho)
        res = cs.extract_parameters(rep, rho)
        assert res.residual < 1e-10
        assert np.abs(res.params.t - params.t).max() < 1e-10
        assert np.abs(res.params.M[0] - m).max() < 1e-10

    def test_extremal_parameters(self):
        rep = self._mixed_report()
        nc = len(rep.beta_blocks[0].enclosures)
        m = np.zeros((nc, nc), dtype=complex)
        m[1, 1] = 1.0
        params = cs.InvariantStateParameters(t=np.array([0.0]), M=(m,))
        rho = cs.build_invariant_state(rep, params)
        # the state lives on the second enclosure of the B-block
        v2 = rep.beta_blocks[0].enclosures[1]
        leak = (np.eye(rep.dim) - v2.projector()) @ rho
        assert np.abs(leak).max() < 1e-10

    def test_parameter_validation(self):
        rep = self._mixed_report()
        nc = len(rep.beta_blocks[0].enclosures)
        ok_m = np.eye(nc, dtype=complex) * (0.7 / nc)
        with pytest.raises(
            cs.ArgumentError, match="A-block 0 parameter matrix is not PSD"
        ):
            cs.build_invariant_state(
                rep,
                cs.InvariantStateParameters(
                    t=np.array([-0.5]), M=(ok_m * (1.5 / 0.7),)
                ),
            )
        with pytest.raises(cs.ArgumentError, match="not PSD"):
            bad = np.diag([1.0, -0.3, 0.0]).astype(complex)
            cs.build_invariant_state(
                rep, cs.InvariantStateParameters(t=np.array([0.3]), M=(bad,))
            )
        with pytest.raises(cs.ArgumentError, match="total weight"):
            cs.build_invariant_state(
                rep,
                cs.InvariantStateParameters(t=np.array([0.9]), M=(ok_m,)),
            )
        # a weight keeps its imaginary part, which the Hermitian test refuses
        with pytest.raises(cs.ArgumentError, match="A-block 0 .* not Hermitian"):
            cs.build_invariant_state(
                rep, cs.InvariantStateParameters(t=[0.3 + 0.1j], M=(ok_m,))
            )
        assert cs.is_state(cs.build_invariant_state(
            rep, cs.InvariantStateParameters(t=[0.3 + 0j], M=(ok_m,))
        ))
        with pytest.raises(cs.ArgumentError, match="shape"):
            cs.build_invariant_state(
                rep,
                cs.InvariantStateParameters(
                    t=np.array([0.3]), M=(np.eye(nc + 1, dtype=complex),)
                ),
            )
        # one weight too many: the count is refused before any shape
        with pytest.raises(cs.ArgumentError, match="t has length 2 and M 1 entries"):
            cs.build_invariant_state(
                rep, cs.InvariantStateParameters(t=np.array([0.3, 0.0]), M=(ok_m,))
            )

    def test_build_rejects_a_state_that_is_not_invariant(self):
        # the A-block's state replaced by I / m: the assembled matrix is a
        # state, but the channel moves it
        rep = self._mixed_report()  # A-block of dimension 2, B-block of 3 copies
        flat = dataclasses.replace(rep.alpha_blocks[0], sigma=np.eye(2) / 2)
        forged = dataclasses.replace(rep, blocks=(flat,) + rep.beta_blocks)
        params = cs.InvariantStateParameters(t=np.array([1.0]), M=(np.zeros((3, 3)),))
        assert cs.is_state(cs.build_invariant_state(rep, params))
        with pytest.raises(cs.DecompositionError, match="build-invariant-state: .* not invariant"):
            cs.build_invariant_state(forged, params)

    def test_build_rejects_an_assembled_matrix_that_is_not_a_state(self):
        # the A-block's state replaced by a Hermitian trace-1 matrix with the
        # eigenvalues 1.5 and -0.5: weight 1 on it assembles no state
        rep = self._mixed_report()
        bad = dataclasses.replace(rep.alpha_blocks[0], sigma=np.array([[0.5, 1.0], [1.0, 0.5]]))
        forged = dataclasses.replace(rep, blocks=(bad,) + rep.beta_blocks)
        params = cs.InvariantStateParameters(t=np.array([1.0]), M=(np.zeros((3, 3)),))
        with pytest.raises(
            cs.DecompositionError, match="build-invariant-state: assembled matrix is not a state"
        ):
            cs.build_invariant_state(forged, params)

    def test_extract_warns_when_an_invariant_state_misses_a_block(self):
        # the invariant state of the dropped A-block has no parameters in
        # the remaining blocks, so it fails to round-trip
        rep = self._mixed_report()
        rho = rep.alpha_blocks[0].rho
        assert cs.extract_parameters(rep, rho).residual < 1e-10
        dropped = dataclasses.replace(rep, blocks=rep.beta_blocks)
        with pytest.warns(RuntimeWarning, match="failed to round-trip"):
            res = cs.extract_parameters(dropped, rho)
        assert res.residual > 1e-3

    def test_extract_rejects_non_state(self):
        rep = self._mixed_report()
        with pytest.raises(cs.ArgumentError):
            cs.extract_parameters(rep, np.eye(rep.dim))

    def test_extract_rejects_wrong_shape(self):
        rep = self._mixed_report()
        with pytest.raises(cs.ArgumentError, match="rho has wrong shape"):
            cs.extract_parameters(rep, np.eye(rep.dim + 1) / (rep.dim + 1))

    def test_extract_reports_residual_for_non_invariant_state(self):
        rep = self._mixed_report()
        rho = random_state(rep.dim, RNG)
        res = cs.extract_parameters(rep, rho)
        # generic states are far from the invariant manifold
        assert res.residual > 1e-3

    def test_extract_of_any_state_is_psd_with_the_mass_on_R(self):
        # M[g, h] = tr(F_g^H rho F_h) is a Gram matrix, and the blocks fill R
        rng = np.random.default_rng(5)
        ch, _ = planted_channel(rng, [3], [(3, 2), (2, 3)], 4)
        rep = cs.decompose(ch)
        rho = random_state(rep.dim, rng)
        assert np.abs(cs.apply(ch, rho) - rho).max() > 1e-3
        params = cs.extract_parameters(rep, rho).params
        assert (params.t >= 0).all()
        assert all(np.linalg.eigvalsh(m)[0] >= -1e-12 for m in params.M)
        total = params.t.sum() + sum(np.trace(m).real for m in params.M)
        assert abs(total - np.trace(rep.R.projector() @ rho).real) <= 1e-12

    def test_assembly_matches_explicit_block_sum(self):
        # reference loops for the contractions in _assemble / extract
        rng = np.random.default_rng(417)
        ch, _ = planted_channel(rng, [2], [(2, 3)], 1, n_kraus=3)
        rep = cs.decompose(ch)
        blk = rep.beta_blocks[0]
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = g @ g.conj().T
        m *= 0.6 / np.trace(m).real
        rho = 0.4 * rep.alpha_blocks[0].rho
        for a in range(3):
            for b in range(3):
                rho = rho + m[a, b] * (
                    blk.isometries[a] @ blk.rho @ blk.isometries[b].conj().T
                )
        params = cs.InvariantStateParameters(t=np.array([0.4]), M=(m,))
        assert np.abs(cs.build_invariant_state(rep, params) - rho).max() < 1e-12
        m_ref = np.array(
            [
                [
                    np.trace(blk.isometries[a].conj().T @ rho @ blk.isometries[b])
                    for b in range(3)
                ]
                for a in range(3)
            ]
        )
        res = cs.extract_parameters(rep, rho)
        assert np.abs(res.params.M[0] - m_ref).max() < 1e-12


# planted layouts with B-blocks of 2 and of 3 copies
LOCAL_LAYOUTS = [([1, 2], [(2, 2)], 1), ([2], [(3, 3), (1, 2)], 2)]


class TestLocalBlockData:
    """Block data stored in enclosure coordinates gives back the d x d
    matrices of the ambient formulas."""

    @pytest.mark.parametrize("alpha, beta, n_transient", LOCAL_LAYOUTS)
    def test_derived_matrices_match_ambient_formulas(self, alpha, beta, n_transient):
        rng = np.random.default_rng(433)
        ch, _ = planted_channel(rng, alpha, beta, n_transient, n_kraus=3)
        rep = cs.decompose(ch)
        algebra = cs.fixed_point_algebra_on_R(ch)
        for blk in rep.alpha_blocks:
            k = blk.enclosures[0].dimension
            assert blk.sigma.shape == (k, k)
            ref = cs.block_invariant_state(algebra, blk.enclosures[0])
            assert np.abs(blk.rho - ref).max() <= 1e-12
        assert sorted(len(b.enclosures) for b in rep.beta_blocks) == sorted(
            n for _, n in beta
        )
        for blk in rep.beta_blocks:
            base = blk.enclosures[0]
            m = base.dimension
            assert blk.sigma.shape == (m, m)
            ref = cs.block_invariant_state(algebra, base)
            assert np.abs(blk.rho - ref).max() <= 1e-12
            assert np.abs(blk.isometries[0] - base.projector()).max() <= 1e-12
            for g, enc in enumerate(blk.enclosures[1:], start=1):
                q = cs.partial_isometry(algebra, base, enc)
                assert np.abs(blk.isometries[g] - q).max() <= 1e-12
                assert np.abs(enc.frame - q @ base.frame).max() <= 1e-12

    @pytest.mark.parametrize("alpha, beta, n_transient", LOCAL_LAYOUTS)
    def test_parametrization_matches_ambient_einsums(self, alpha, beta, n_transient):
        rng = np.random.default_rng(437)
        ch, _ = planted_channel(rng, alpha, beta, n_transient, n_kraus=3)
        rep = cs.decompose(ch)
        n_a, n_b = len(rep.alpha_blocks), len(rep.beta_blocks)
        weights = rng.dirichlet(np.ones(n_a + n_b))
        mats = []
        for w, blk in zip(weights[n_a:], rep.beta_blocks):
            n = len(blk.enclosures)
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(w * (z @ z.conj().T) / np.trace(z @ z.conj().T).real)
        params = cs.InvariantStateParameters(t=weights[:n_a], M=tuple(mats))
        # the d x d contractions over stacked isometries that the block-local
        # forms G (M ⊗ sigma_ref) G^H and Tr(F_g^H rho F_h) replace
        ref = sum(t * blk.rho for t, blk in zip(weights[:n_a], rep.alpha_blocks))
        for m, blk in zip(mats, rep.beta_blocks):
            q = np.stack(blk.isometries)
            ref = ref + np.einsum(
                "gh,gij,jk,hlk->il", m, q, blk.rho, q.conj(), optimize=True
            )
        rho = cs.build_invariant_state(rep, params)
        assert np.abs(rho - ref).max() <= 1e-12
        res = cs.extract_parameters(rep, rho)
        t_ref = [np.trace(blk.enclosures[0].projector() @ rho).real for blk in rep.alpha_blocks]
        assert np.abs(res.params.t - t_ref).max(initial=0.0) <= 1e-12
        for m, blk in zip(res.params.M, rep.beta_blocks):
            q = np.stack(blk.isometries)
            m_ref = np.einsum("gca,ce,hea->gh", q.conj(), rho, q, optimize=True)
            assert np.abs(m - m_ref).max() <= 1e-12
        assert res.residual <= 1e-12


def _compressed_null_state(ch, space):
    """Invariant state on an enclosure, as the null vector of the
    superoperator of the compressed Kraus family minus the identity."""
    f = space.frame
    k = f.shape[1]
    ws = [f.conj().T @ v @ f for v in ch.kraus]
    m = sum(np.kron(w.conj(), w) for w in ws)
    _, s, vh = np.linalg.svd(m - np.eye(k * k))
    assert s[-1] < 1e-10 and (k == 1 or s[-2] > 1e-6)
    rho = vh[-1].conj().reshape((k, k), order="F")
    return f @ (rho / np.trace(rho)) @ f.conj().T


class TestBlockStateParity:
    @pytest.mark.parametrize(
        "alpha, beta, n_transient",
        [([2, 3], [(2, 2)], 2), ([1], [(3, 2), (1, 3)], 3), ([4], [], 0)],
    )
    def test_block_states_match_compressed_null_space(
        self, alpha, beta, n_transient
    ):
        rng = np.random.default_rng(411)
        ch, _ = planted_channel(rng, alpha, beta, n_transient, n_kraus=3)
        rep, algebra = cs.decompose(ch), cs.fixed_point_algebra_on_R(ch)
        for blk in rep.alpha_blocks:
            oracle = _compressed_null_state(ch, blk.enclosures[0])
            assert np.abs(blk.rho - oracle).max() < 1e-10
        for blk in rep.beta_blocks:
            oracle = _compressed_null_state(ch, blk.enclosures[0])
            assert np.abs(blk.rho - oracle).max() < 1e-10
            for q, enc in zip(blk.isometries[1:], blk.enclosures[1:]):
                oracle = _compressed_null_state(ch, enc)
                independent = cs.block_invariant_state(algebra, enc)
                assert np.abs(independent - oracle).max() < 1e-10
                transported = q @ blk.rho @ q.conj().T
                assert np.abs(transported - oracle).max() < 1e-10


class TestTolerancePassing:
    @pytest.mark.parametrize("eig_cluster_tol", [1e-10, 1e-6, 1e-4])
    def test_cluster_tolerance_sweep_keeps_block_counts(self, eig_cluster_tol):
        # every threshold of the final verification follows the tolerance
        ch, truth = planted_channel(
            np.random.default_rng(577), [2, 1], [(2, 2)], 2, n_kraus=3
        )
        rep = cs.decompose(ch, tol=cs.Tolerance(eig_cluster_tol=eig_cluster_tol))
        assert len(rep.alpha_blocks) == truth["n_alpha"]
        assert [len(b.enclosures) for b in rep.beta_blocks] == truth["beta_sizes"]
        assert rep.D.dimension == truth["d_transient"]

    @pytest.mark.parametrize(
        "case, psd_tol, counts",
        [("planted", 1e-18, (1, [2], 4)), ("walk", 1e-20, (0, [2], 14))],
    )
    def test_psd_tolerance_below_rounding_keeps_block_counts(
        self, case, psd_tol, counts
    ):
        # rho_max = Pi_1(I/d) is PSD up to rounding and every block state is an
        # exactly Hermitian compression of it, so no check fails on rounding
        # alone
        if case == "planted":
            ch, _ = planted_channel(np.random.default_rng(5), [3], [(2, 2)], 4)
        else:
            ch = cs.from_oqrw(cs.oqrw_transition_map(0.4, 0.3, 13), 13)
        default = cs.decompose(ch)
        for rep in (default, cs.decompose(ch, tol=cs.Tolerance(psd_tol=psd_tol))):
            assert len(rep.alpha_blocks) == counts[0]
            assert [len(b.enclosures) for b in rep.beta_blocks] == counts[1]
            assert rep.D.dimension == counts[2]

    def test_loose_cluster_tolerance_accepts_total_weight_off_by_5e_7(self):
        ch, _ = planted_channel(np.random.default_rng(579), [2], [(2, 2)], 1)
        rep = cs.decompose(ch)
        params = cs.InvariantStateParameters(
            t=np.array([0.4 + 5e-7]), M=(np.diag([0.35, 0.25]).astype(complex),)
        )
        with pytest.raises(cs.ArgumentError, match="total weight"):
            cs.build_invariant_state(rep, params)
        loose = cs.Tolerance(eig_cluster_tol=1e-6)
        rho = cs.build_invariant_state(cs.decompose(ch, tol=loose), params)
        assert abs(np.trace(rho).real - (1.0 + 5e-7)) < 1e-12
        assert np.abs(cs.apply(ch, rho) - rho).max() < 1e-10

    def test_loose_psd_tolerance_accepts_slightly_negative_state(self):
        ch = amplitude_damping_channel(0.3)
        rho = np.diag([1.0 + 1e-6, -1e-6]).astype(complex)
        loose = cs.Tolerance(psd_tol=1e-5)
        with pytest.raises(cs.ArgumentError, match="not a state"):
            cs.extract_parameters(cs.decompose(ch), rho)
        res = cs.extract_parameters(cs.decompose(ch, tol=loose), rho)
        assert abs(res.params.t[0] - (1.0 + 1e-6)) < 1e-12


def _copies_with_scalar_candidate():
    """{X, Z} / sqrt 2, irreducible and unital on C^2, on two copies (W ⊗ I),
    with the product basis vectors moved to positions 0, 2, 3, 1: both
    copies see diag(1, 2, 3, 4) / 4 at the mean 5/8, so Pi_1^* maps it to a
    multiple of I."""
    perm = np.eye(4)[[0, 3, 1, 2]]
    paulis = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))
    return cs.KrausChannel(
        [perm @ np.kron(w, np.eye(2)) @ perm.T / np.sqrt(2) for w in paulis]
    )


INVARIANCE_CASES = {
    "planted": lambda: planted_channel(np.random.default_rng(701), [2], [(2, 2)], 2)[0],
    "markov": two_classes_and_transients,
    "oqrw": lambda: cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 3), 3),
    # the first candidate of these two is degenerate, so their splits take
    # the fallback; on the two copies of a B-block it must leave the linking
    # element out, or no link is left to find
    "shift": lambda: cs.KrausChannel([np.roll(np.eye(4), 1, axis=0)]),
    "b-block-fallback": _copies_with_scalar_candidate,
}


# channel, and its R and D dimensions, A-block count and B-block copy counts
SWEEP_CASES = {
    "planted-577": (
        lambda: planted_channel(np.random.default_rng(577), [2, 1], [(2, 2)], 2)[0],
        (7, 2, 2, [2]),
    ),
    "planted-1": (
        lambda: planted_channel(np.random.default_rng(1), [5, 7], [(4, 3)], 6)[0],
        (24, 6, 2, [3]),
    ),
    "oqrw-0.1-0.2-13": (
        lambda: cs.from_oqrw(cs.oqrw_transition_map(0.1, 0.2, 13), 13),
        (28, 14, 0, [2]),
    ),
}


class TestReportInvariance:
    # the report's frames and block order may change with the Kraus family
    # or the basis; what it determines (report_invariants) may not
    @pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
    def test_kraus_freedom_and_unitary_conjugation(self, case):
        ch = INVARIANCE_CASES[case]()
        rng = np.random.default_rng(709)
        reference = report_invariants(cs.decompose(ch))
        kraus = np.stack(ch.kraus)
        # other Kraus families of the same channel: padded with a zero
        # operator and mixed by a Haar unitary, or permuted; another seed
        padded = np.concatenate((kraus, np.zeros_like(kraus[:1])))
        mixed = cs.KrausChannel(np.tensordot(haar_unitary(len(padded), rng), padded, 1))
        permuted = cs.KrausChannel(kraus[::-1])
        for other, seed in ((mixed, 0), (permuted, 0), (ch, 7)):
            deviations = invariant_deviations(
                reference, report_invariants(cs.decompose(other, rng_seed=seed))
            )
            assert max(deviations.values()) <= 1e-10, (seed, deviations)
        # the channel conjugated by U: R, D and the spans move with U
        u = haar_unitary(ch.dim, rng)
        moved = cs.KrausChannel(u @ kraus @ u.conj().T)
        deviations = invariant_deviations(
            conjugated_invariants(reference, u), report_invariants(cs.decompose(moved))
        )
        assert max(deviations.values()) <= 1e-10, deviations

    @pytest.mark.parametrize(
        "build",
        [
            lambda: cs.from_markov_chain(planted_markov(np.random.default_rng(5))[0]),
            lambda: cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 6), 6),
            lambda: planted_channel(np.random.default_rng(3), [3, 4], [(2, 2)], 3)[0],
        ],
        ids=["markov", "oqrw", "planted"],
    )
    def test_sparse_and_dense_row_forms_agree(self, build, monkeypatch):
        # the row form is chosen at construction by _SPARSE_FRACTION; forcing
        # each side must not change what the decomposition determines
        invariants, forms = [], []
        for fraction in (0.0, 1.0):
            monkeypatch.setattr(chanstruct.channels, "_SPARSE_FRACTION", fraction)
            ch = build()
            forms.append(ch._sparse)
            invariants.append(report_invariants(cs.decompose(ch)))
        assert forms[0] != forms[1]
        deviations = invariant_deviations(*invariants)
        assert max(deviations.values()) <= 1e-10, deviations

    @pytest.mark.parametrize("value", [1e-10, 1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("name", ["rank_tol", "eig_cluster_tol", "psd_tol"])
    def test_block_counts_hold_across_tolerances(self, name, value):
        # one tolerance at a time over six decades, the other two at default
        tol = cs.Tolerance(**{name: value})
        for case, (build, counts) in SWEEP_CASES.items():
            report = cs.decompose(build(), tol=tol)
            got = (
                report.R.dimension,
                report.D.dimension,
                len(report.alpha_blocks),
                sorted(len(blk.enclosures) for blk in report.beta_blocks),
            )
            assert got == counts, case
