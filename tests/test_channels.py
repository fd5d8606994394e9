"""Kraus channels: construction, application, superoperator, constructors."""

import tracemalloc

import numpy as np
import pytest

import chanstruct as cs
import chanstruct.channels
from helpers import (
    amplitude_damping_apply,
    amplitude_damping_channel,
    hermitian_unitary,
    phased_walk,
    planted_channel,
    random_channel,
    random_kraus_family,
    random_state,
)

RNG = np.random.default_rng(202)


class TestConstruction:
    def test_rejects_non_trace_preserving(self):
        # any family constructs; the eigenvalue-1 solve, which needs
        # Phi^*(I) = I, refuses it: |Phi^*(I) - I|_F / |I|_F = |2I - I|_F / |I|_F
        ch = cs.KrausChannel([np.eye(2), np.eye(2)])
        with pytest.raises(cs.DecompositionError, match="not trace preserving") as err:
            cs.recurrent_split(ch)
        assert err.value.stage == "fixed-space"
        assert err.value.diagnostics == {"residual": pytest.approx(1.0)}

    def test_unchecked_constructs_anyway(self):
        ch = cs.KrausChannel([np.eye(2), np.eye(2)])
        assert ch.dim == 2
        report = cs.validate(ch)
        assert not report.trace_preserving
        assert not report.passed

    def test_drops_zero_operators(self):
        ch = cs.KrausChannel([np.eye(2), np.zeros((2, 2))])
        assert len(ch) == 1

    def test_rejects_shape_mismatch(self):
        with pytest.raises(cs.ArgumentError):
            cs.KrausChannel([np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(cs.ArgumentError):
            cs.KrausChannel([])

    def test_array_and_list_give_one_stack(self):
        family = random_kraus_family(3, 4, RNG) + [np.zeros((3, 3))]
        from_list = cs.KrausChannel(family)
        array = np.stack(family)
        from_array = cs.KrausChannel(array)
        assert len(from_list) == len(from_array) == 4
        for ch in (from_list, from_array):
            assert len(ch.kraus) == 4
            for a, v in enumerate(ch.kraus):
                assert v.shape == (3, 3) and not v.flags.writeable
                assert v.tobytes() == family[a].astype(complex).tobytes()
        # the channel holds a copy: changing the input changes nothing
        array[0] = 0.0
        stacks = [np.stack(ch.kraus).tobytes() for ch in (from_array, from_list)]
        assert stacks[0] == stacks[1]

    @pytest.mark.parametrize(
        "family, message",
        [
            ([np.eye(2), np.eye(3)], r"kraus\[1\] has shape \(3, 3\), expected \(2, 2\)"),
            ([np.eye(2), np.ones(2)], r"kraus\[1\] has shape \(2,\), expected \(2, 2\)"),
            ([np.eye(2), np.full((2, 2), np.nan)], r"kraus\[1\] contains non-finite"),
            ([np.eye(2), np.diag([1.0, np.inf])], r"kraus\[1\] contains non-finite"),
            ([], "at least one Kraus operator"),
            ([np.zeros((2, 2)), np.zeros((2, 2))], "all Kraus operators are zero"),
            ([1.0], r"kraus\[0\] has shape \(\), expected \(d, d\)"),
            ("ab", r"kraus\[0\] is not a numeric matrix"),
            (5, "kraus must be a sequence of matrices, got int"),
        ],
        ids=["ragged", "vector", "nan", "inf", "empty", "all-zero", "scalar",
             "string", "int"],
    )
    def test_errors_name_the_operator(self, family, message):
        with pytest.raises(cs.ArgumentError, match=message):
            cs.KrausChannel(family)
        shapes = {np.shape(v) for v in family} if isinstance(family, list) else ()
        if len(shapes) == 1:
            with pytest.raises(cs.ArgumentError, match=message):
                cs.KrausChannel(np.array(family))

    def test_empty_array_is_rejected(self):
        with pytest.raises(cs.ArgumentError, match="at least one Kraus operator"):
            cs.KrausChannel(np.zeros((0, 2, 2)))


class TestApply:
    def test_matches_closed_form(self):
        for p in (0.1, 0.5, 0.9):
            ch = amplitude_damping_channel(p)
            rho = random_state(2, RNG)
            expected = amplitude_damping_apply(rho, p)
            assert np.abs(cs.apply(ch, rho) - expected).max() < 1e-14

    def test_trace_and_positivity_preserved(self):
        ch = random_channel(4, 3, RNG)
        rho = random_state(4, RNG)
        out = cs.apply(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-12

    def test_adjoint_is_unital_and_dual(self):
        ch = random_channel(3, 4, RNG)
        assert np.abs(cs.apply_adjoint(ch, np.eye(3)) - np.eye(3)).max() < 1e-12
        rho = random_state(3, RNG)
        z = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        x = (z + z.conj().T) / 2
        lhs = np.trace(x @ cs.apply(ch, rho))
        rhs = np.trace(cs.apply_adjoint(ch, x) @ rho)
        assert abs(lhs - rhs) < 1e-12

    def test_shape_check(self):
        ch = random_channel(3, 2, RNG)
        with pytest.raises(cs.ArgumentError):
            cs.apply(ch, np.eye(2))
        with pytest.raises(cs.ArgumentError):
            cs.apply_adjoint(ch, np.eye(2))

    @pytest.mark.parametrize(
        "call, kind", [(cs.apply, "state"), (cs.apply_adjoint, "operand")]
    )
    def test_shape_message_names_the_argument(self, call, kind):
        # apply and apply_adjoint share one body; each names its own argument
        ch = random_channel(3, 2, RNG)
        message = rf"^{kind} shape \(2, 4\) does not match channel dimension 3$"
        with pytest.raises(cs.ArgumentError, match=message):
            call(ch, np.ones((2, 4)))

    @pytest.mark.parametrize(
        "family, sparse",
        [("markov", True), ("oqrw", True), ("phased-walk", True), ("planted", False)],
    )
    def test_matches_kraus_sum(self, family, sparse):
        rng = np.random.default_rng(211)
        if family == "markov":
            p = rng.uniform(size=(9, 9)) * (rng.uniform(size=(9, 9)) < 0.4)
            p[0] += 0.1
            ch = cs.from_markov_chain(p / p.sum(axis=0))
        elif family == "oqrw":
            ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.2, 6), 6)
        elif family == "phased-walk":
            ch = phased_walk(5)
        else:
            ch = planted_channel(rng, [2, 3], [(2, 2)], 2)[0]
        assert ch._sparse is sparse
        d = ch.dim
        for _ in range(3):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            image = sum(v @ x @ v.conj().T for v in ch.kraus)
            preimage = sum(v.conj().T @ x @ v for v in ch.kraus)
            assert np.abs(cs.apply(ch, x) - image).max() <= 1e-13
            assert np.abs(cs.apply_adjoint(ch, x) - preimage).max() <= 1e-13
        # the batched form, which the eigenvalue-1 solve's residuals use
        xs = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        images = chanstruct.channels._apply_stack(ch, xs)
        preimages = chanstruct.channels._apply_stack(ch, xs, adjoint=True)
        for x, image, preimage in zip(xs, images, preimages):
            ref = sum(v @ x @ v.conj().T for v in ch.kraus)
            assert np.abs(image - ref).max() <= 1e-13
            ref = sum(v.conj().T @ x @ v for v in ch.kraus)
            assert np.abs(preimage - ref).max() <= 1e-13
        # a sparse family applies its cached superoperator, a dense one keeps none
        assert (ch._superop is not None) is sparse

    def test_sparse_adjoint_transposes_once(self, monkeypatch):
        # Phi^* of a sparse family reads the COO triples of M kept with the
        # channel with rows and columns swapped, so repeated applications
        # build no new superoperator and give the same bytes each time
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.2, 6), 6)
        assert ch._sparse
        d = ch.dim
        xs = RNG.standard_normal((4, d, d)) + 1j * RNG.standard_normal((4, d, d))
        triples = chanstruct.channels._cached_superoperator(ch)
        m = _dense_from_triples(triples, d)
        vecs = xs.transpose(0, 2, 1).reshape(4, d * d).T
        ref = (m.conj().T @ vecs).T.reshape(4, d, d).transpose(0, 2, 1)
        first = chanstruct.channels._apply_stack(ch, xs, adjoint=True)
        assert np.abs(first - ref).max() <= 1e-15
        calls = []
        monkeypatch.setattr(
            chanstruct.channels, "_superoperator_sparse", lambda ch: calls.append(ch)
        )
        for _ in range(3):
            for x, expected in zip(xs, first):
                assert cs.apply_adjoint(ch, x).tobytes() == expected.tobytes()
            stacked = chanstruct.channels._apply_stack(ch, xs, adjoint=True)
            assert stacked.tobytes() == first.tobytes()
        assert calls == [] and ch._superop is triples


def _dense_from_triples(triples, d):
    """The dense d^2 x d^2 matrix of COO triples, repeated positions summed."""
    rows, cols, vals = triples
    m = np.zeros((d * d, d * d), dtype=vals.dtype)
    np.add.at(m, (rows, cols), vals)
    return m


@pytest.mark.parametrize(
    "rho",
    [
        np.diag([np.nan, 1.0, 0.0]),
        np.full((3, 3), np.nan),
        np.diag([np.inf, 1.0, 0.0]),
    ],
    ids=["nan-diagonal", "all-nan", "inf-diagonal"],
)
def test_is_state_refuses_non_finite_entries(rho):
    assert cs.is_state(rho) is False


class TestSuperoperator:
    def test_consistent_with_apply(self):
        ch = random_channel(3, 3, RNG)
        m = cs.superoperator(ch)
        rho = random_state(3, RNG)
        # M acts on column-stacked matrices
        lhs = m @ rho.reshape(-1, order="F")
        rhs = cs.apply(ch, rho).reshape(-1, order="F")
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_equals_kron_sum(self):
        ch = random_channel(2, 3, RNG)
        m = cs.superoperator(ch)
        ref = sum(np.kron(v.conj(), v) for v in ch.kraus)
        assert np.abs(m - ref).max() < 1e-14

    @pytest.mark.parametrize(
        "family", ["oqrw", "markov", "shared-positions"]
    )
    def test_sparse_build_equals_dense(self, family):
        if family == "oqrw":
            ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 5), 5)
        elif family == "markov":
            p = RNG.uniform(size=(6, 6)) * (RNG.uniform(size=(6, 6)) < 0.5)
            p[0] += 0.1
            ch = cs.from_markov_chain(p / p.sum(axis=0))
        else:
            # every operator has nonzeros at (0, 0), (0, 2) and (1, 1), so
            # each superoperator position gets several contributions
            u = RNG.standard_normal((3, 3, 3)) + 1j * RNG.standard_normal((3, 3, 3))
            u *= np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
            gram = np.einsum("aji,ajk->ik", u.conj(), u)
            w, vecs = np.linalg.eigh(gram)
            ch = cs.KrausChannel(list(u @ (vecs / np.sqrt(w)) @ vecs.conj().T))
            shared = np.stack(ch.kraus)[:, [0, 0, 1], [0, 2, 1]]
            assert not np.count_nonzero(shared == 0)
        triples = chanstruct.channels._superoperator_sparse(ch)
        assert [(a.ndim, a.size, a.flags.writeable) for a in triples] == [
            (1, triples[2].size, False)
        ] * 3
        dense = _dense_from_triples(triples, ch.dim)
        assert np.abs(dense - cs.superoperator(ch)).max() <= 1e-15

    @pytest.mark.parametrize("dims", [(4, 4), (3, 5), (1, 2)])
    def test_transfer_matrix_equals_einsum(self, dims):
        # square operator stacks of unequal sizes, as for a pair of blocks
        p, r = dims
        a = np.stack(random_kraus_family(p, 3, RNG))
        b = np.stack(random_kraus_family(r, 3, RNG))
        ref = np.einsum("aik,ajl->jilk", a, b.conj(), optimize=True).reshape(
            r * p, r * p
        )
        got = chanstruct.channels._transfer_matrix(a, b)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15

    @pytest.mark.parametrize("family", ["random", "planted", "phased-walk", "markov"])
    def test_hermitian_transfer_matrix_equals_coordinates(self, family):
        rng = np.random.default_rng(223)
        if family == "random":
            ch = random_channel(5, 4, rng)
        elif family == "planted":
            ch = planted_channel(rng, [2], [(2, 2)], 2)[0]
        elif family == "phased-walk":
            ch = phased_walk(3)
        else:
            p = rng.uniform(size=(5, 5))
            ch = cs.from_markov_chain(p / p.sum(axis=0))
        # the explicit similarity, independent of the rule Re M + Im(M K)
        u = hermitian_unitary(ch.dim)
        ref = u.conj().T @ cs.superoperator(ch) @ u
        got = chanstruct.channels._hermitian_transfer_matrix(np.stack(ch.kraus))
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert np.abs(ref.imag).max() <= 1e-14
        assert np.abs(got - ref.real).max() <= 1e-14

    def test_superoperator_holds_one_copy(self):
        ch = random_channel(24, 3, RNG)
        tracemalloc.start()
        try:
            m = cs.superoperator(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m.nbytes

    @pytest.mark.parametrize("family", ["random", "markov"])
    def test_kraus_gram_equals_einsum(self, family):
        if family == "random":
            ch = random_channel(5, 7, RNG)
        else:
            p = RNG.uniform(size=(6, 6))
            ch = cs.from_markov_chain(p / p.sum(axis=0))
        v = ch._stack
        ref = np.einsum("aji,ajk->ik", v.conj(), v)
        gram = chanstruct.channels._kraus_gram(v)
        assert gram.shape == (ch.dim, ch.dim)
        assert np.abs(gram - ref).max() <= 1e-14

    def test_validate_radius_one(self):
        ch = random_channel(3, 3, RNG)
        report = cs.validate(ch)
        assert report.trace_preserving
        assert report.spectral_radius == pytest.approx(1.0, abs=1e-9)
        assert report.passed

    def test_validate_radius_bounds_dense_spectrum(self):
        # not trace preserving: the reported radius bounds the spectral
        # radius of the superoperator from above
        rng = np.random.default_rng(401)
        for scale in (0.5, 0.9, 1.3):
            kraus = [scale * v for v in random_kraus_family(4, 3, rng)]
            kraus[0] = kraus[0] @ np.diag([1.0, 0.4, 0.7, 1.1])
            ch = cs.KrausChannel(kraus)
            m = sum(np.kron(v.conj(), v) for v in ch.kraus)
            radius = np.abs(np.linalg.eigvals(m)).max()
            assert cs.validate(ch).spectral_radius >= radius - 1e-12

    def test_validate_radius_exact_on_scalar_family(self):
        ch = cs.KrausChannel([np.sqrt(0.5) * np.eye(3)])
        m = sum(np.kron(v.conj(), v) for v in ch.kraus)
        report = cs.validate(ch)
        assert report.spectral_radius == pytest.approx(0.5, abs=1e-15)
        assert report.spectral_radius == pytest.approx(
            np.abs(np.linalg.eigvals(m)).max(), abs=1e-15
        )
        assert not report.trace_preserving
        assert report.spectral_radius_ok


class TestMarkov:
    def test_diagonal_evolution_matches_chain(self):
        p = np.array([[0.5, 0.3], [0.5, 0.7]])
        ch = cs.from_markov_chain(p)
        x = np.array([0.2, 0.8])
        rho = np.diag(x).astype(complex)
        out = cs.apply(ch, rho)
        assert np.abs(np.diag(out).real - p @ x).max() < 1e-14
        assert np.abs(out - np.diag(np.diag(out))).max() < 1e-14

    def test_kills_coherences(self):
        p = np.array([[0.5, 0.3], [0.5, 0.7]])
        ch = cs.from_markov_chain(p)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = cs.apply(ch, rho)
        assert np.abs(out[0, 1]) < 1e-14

    def test_one_operator_per_positive_entry(self):
        p = RNG.uniform(size=(6, 6)) * (RNG.uniform(size=(6, 6)) < 0.5)
        p[0] += 0.1
        p /= p.sum(axis=0)
        ch = cs.from_markov_chain(p)
        # column by column, top to bottom
        ref = []
        for j in range(6):
            for i in range(6):
                if p[i, j] > 0.0:
                    v = np.zeros((6, 6), dtype=complex)
                    v[i, j] = np.sqrt(p[i, j])
                    ref.append(v)
        assert np.stack(ch.kraus).tobytes() == np.stack(ref).tobytes()

    def test_rejects_bad_columns(self):
        with pytest.raises(cs.ArgumentError):
            cs.from_markov_chain(np.array([[0.5, 0.2], [0.4, 0.8]]))
        with pytest.raises(cs.ArgumentError):
            cs.from_markov_chain(np.array([[1.2, 0.0], [-0.2, 1.0]]))

    def test_column_sums_checked_at_tolerance(self):
        # columns sum to 1 + 1e-7 and 1 - 1e-7: beyond 10 psd_tol at the
        # default tolerance, within it at psd_tol = 1e-6
        p = np.array([[0.5 + 1e-7, 0.3], [0.5, 0.7 - 1e-7]])
        with pytest.raises(cs.ArgumentError, match="columns must sum to one"):
            cs.from_markov_chain(p)
        ch = cs.from_markov_chain(p, tol=cs.Tolerance(psd_tol=1e-6))
        assert len(ch) == 4

    def test_rejects_empty_matrix(self):
        with pytest.raises(cs.ArgumentError, match="square and nonempty"):
            cs.from_markov_chain(np.zeros((0, 0)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        # NaN fails every comparison, so the sign and column checks pass it
        with pytest.raises(cs.ArgumentError, match="non-finite"):
            cs.from_markov_chain([[1.0, value], [0.0, 1.0]])


def _psd_sqrt(m):
    w, v = np.linalg.eigh(np.asarray(m, dtype=float))
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.T


# Boundary cases of a walk on sites 0..1 with internal space C^2: site 0
# stays put, and the last site N = 1 stays, hops back and overflows with
# the square roots of the Gram matrices L^H L below.  psd_tol is 1e-9.
_BOUNDARY_CASES = {
    # the column before truncation already fails a deficit beyond 10 psd_tol
    "deficit-beyond-bound": (
        np.diag([1 + 12e-9, 0.5]), np.diag([0.0, 0.25]), np.diag([0.0, 0.25]),
        "column 1 is not normalized before truncation",
    ),
    # the back-hop's Gram matrix couples the two levels
    "off-diagonal-mass": (
        0.5 * np.eye(2), [[0.2, 0.1], [0.1, 0.2]], [[0.3, -0.1], [-0.1, 0.3]],
        "normalization failure after adjustment",
    ),
    # level 0 has weight to restore but no back-hop to carry it: g_0 = 0
    "no-back-hop-weight": (
        0.5 * np.eye(2), np.diag([0.0, 0.25]), np.diag([0.5, 0.25]),
        "normalization failure after adjustment",
    ),
    "missing-back-hop": (
        0.5 * np.eye(2), None, 0.5 * np.eye(2),
        "reflecting boundary needs the back-hop",
    ),
}


def _boundary_map(stay, back, out):
    tr = {(0, 0): np.eye(2), (1, 1): _psd_sqrt(stay), (2, 1): _psd_sqrt(out)}
    if back is not None:
        tr[(0, 1)] = _psd_sqrt(back)
    return tr


class TestOqrw:
    def test_constraints(self):
        with pytest.raises(cs.ArgumentError, match="0 < p < 1/2"):
            cs.oqrw_transition_map(0.6, 0.2, 5)
        with pytest.raises(cs.ArgumentError):
            cs.oqrw_transition_map(0.4, 0.7, 5)
        with pytest.raises(cs.ArgumentError):
            cs.oqrw_transition_map(0.3, 0.0, 5)

    def test_columns_normalized_before_truncation(self):
        tr = cs.oqrw_transition_map(0.3, 0.3, 6)
        eye = np.eye(3)
        for j in range(7):
            total = sum(m.conj().T @ m for (i, jj), m in tr.items() if jj == j)
            assert np.abs(total - eye).max() < 1e-12

    def test_dimension_and_trace_preservation(self):
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 5), 5)
        assert ch.dim == 18
        assert cs.validate(ch).trace_preserving

    def test_reflecting_boundary_rescale(self):
        # last-column back-hop becomes diag(1, 1, sqrt(p+q))
        p, q, n = 0.3, 0.2, 4
        ch = cs.from_oqrw(cs.oqrw_transition_map(p, q, n), n)
        n_sites = n + 1
        # locate the Kraus operator moving site N to site N-1
        site = np.zeros((n_sites, n_sites))
        site[n - 1, n] = 1.0
        target = np.kron(np.diag([1.0, 1.0, np.sqrt(p + q)]), site)
        hit = any(np.abs(v - target).max() < 1e-12 for v in ch.kraus)
        assert hit

    def test_unnormalized_input_rejected(self):
        tr = cs.oqrw_transition_map(0.3, 0.3, 3)
        tr[(0, 0)] = 0.5 * tr[(0, 0)]
        with pytest.raises(cs.ArgumentError, match="not normalized"):
            cs.from_oqrw(tr, 3)

    def test_normalization_checked_at_tolerance(self):
        # column 0 off by about 1e-7, which psd_tol = 1e-6 accepts
        tr = cs.oqrw_transition_map(0.3, 0.3, 3)
        tr[(0, 0)] = np.sqrt(1 + 1.5e-7) * tr[(0, 0)]
        with pytest.raises(cs.ArgumentError, match="not normalized"):
            cs.from_oqrw(tr, 3)
        ch = cs.from_oqrw(tr, 3, tol=cs.Tolerance(psd_tol=1e-6))
        assert ch.dim == 12

    def test_bad_overflow_rejected(self):
        tr = cs.oqrw_transition_map(0.3, 0.3, 3)
        tr[(5, 3)] = tr.pop((4, 3))
        with pytest.raises(cs.ArgumentError):
            cs.from_oqrw(tr, 3)

    @pytest.mark.parametrize("op", [1.0, np.zeros((0, 0))], ids=["scalar", "empty"])
    def test_scalar_or_empty_operator_rejected(self, op):
        with pytest.raises(cs.ArgumentError, match="must be a nonempty matrix"):
            cs.from_oqrw({(0, 0): op}, 0)

    @pytest.mark.parametrize("case", sorted(_BOUNDARY_CASES))
    def test_reflecting_boundary_refusals(self, case):
        *grams, message = _BOUNDARY_CASES[case]
        with pytest.raises(cs.ArgumentError, match=message):
            cs.from_oqrw(_boundary_map(*grams), 1)

    def test_small_negative_deficit_is_accepted(self):
        # t_0 = -5 psd_tol where the back-hop has weight g_0 = 2 psd_tol: the
        # back-hop's level 0 is dropped (s_0 = 0), and the column stays within
        # the one bound, 10 psd_tol, that KrausChannel also puts on it
        tr = _boundary_map(
            np.diag([1 + 5e-9, 0.5]), np.diag([2e-9, 0.25]), np.diag([0.0, 0.25])
        )
        ch = cs.from_oqrw(tr, 1)
        back = np.kron(tr[(0, 1)] @ np.diag([0.0, np.sqrt(2.0)]), [[0, 1], [0, 0]])
        assert any(np.abs(v - back).max() < 1e-15 for v in ch.kraus)
        assert 4e-9 < cs.validate(ch).kraus_sum_deviation <= 1e-8


class TestBlochForm:
    def test_affine_action(self):
        ch = random_channel(2, 3, RNG)
        b, a = cs.qubit_bloch_form(ch)
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        u = RNG.standard_normal(3) * 0.3
        rho = (np.eye(2) + sum(ui * p for ui, p in zip(u, paulis))) / 2
        out = cs.apply(ch, rho)
        u_out = np.array([np.trace(p @ out).real for p in paulis])
        assert np.abs(u_out - (b + a @ u)).max() < 1e-12

    def test_requires_qubit(self):
        with pytest.raises(cs.ArgumentError):
            cs.qubit_bloch_form(random_channel(3, 2, RNG))

    def test_completely_depolarizing_has_zero_coefficients(self):
        # A = 0 and b = 0: the imaginary-part bound scales with t[0, 0] = 1
        paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
        b, a = cs.qubit_bloch_form(cs.KrausChannel([np.array(p) / 2 for p in paulis]))
        assert np.abs(b).max() < 1e-15 and np.abs(a).max() < 1e-15

    def test_imaginary_part_beyond_rounding_is_rejected(self, monkeypatch):
        ch = random_channel(2, 3, RNG)
        images = chanstruct.channels._apply_stack(ch, chanstruct.channels._PAULI)
        monkeypatch.setattr(
            chanstruct.channels, "_apply_stack", lambda ch, xs: 1j * images
        )
        with pytest.raises(cs.ArgumentError, match="imaginary part"):
            cs.qubit_bloch_form(ch)

    def test_requires_trace_preservation(self):
        # row 0 of t[i, j] = tr(sigma_i Phi(sigma_j)) is (2, 0, 0, 0) here
        with pytest.raises(cs.ArgumentError, match="not trace preserving"):
            cs.qubit_bloch_form(cs.KrausChannel([np.eye(2), np.eye(2)]))

    def test_unitary_is_rotation(self):
        theta = 0.7
        u = np.array(
            [
                [np.cos(theta / 2), -1j * np.sin(theta / 2)],
                [-1j * np.sin(theta / 2), np.cos(theta / 2)],
            ]
        )
        b, a = cs.qubit_bloch_form(cs.KrausChannel([u]))
        assert np.abs(b).max() < 1e-12
        assert np.abs(a @ a.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(a) == pytest.approx(1.0)
