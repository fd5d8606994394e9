"""Acceptance criteria.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) and enforces the stated numerical tolerances and runtime budgets.
"""

import json
import time

import numpy as np

import chanstruct as cs
from chanstruct.cli import main as cli_main
from helpers import (
    bloch_vector,
    classical_recurrent_classes,
    coordinate_projector,
    haar_unitary,
    amplitude_damping_apply,
    amplitude_damping_channel,
    planted_channel,
    planted_markov,
    random_channel,
    random_state,
    stationary_law,
    support_closure,
)


def _run(capsys, number, description, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(
                f"ACCEPTANCE CRITERION {number} ({description}): FAIL",
                flush=True,
            )
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"ACCEPTANCE CRITERION {number} ({description}): "
            f"PASS [{elapsed:.2f}s]",
            flush=True,
        )


def test_criterion_1_qubit_example_reproduction(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        for p in (0.1, 0.5, 0.9):
            ch = amplitude_damping_channel(p)
            rep = cs.decompose(ch)
            assert np.abs(rep.R.projector() - np.diag([1.0, 0.0])).max() <= 1e-10
            assert np.abs(rep.D.projector() - np.diag([0.0, 1.0])).max() <= 1e-10
            assert len(rep.alpha_blocks) == 1 and not rep.beta_blocks
            rho = rep.alpha_blocks[0].rho
            assert np.abs(rho - np.diag([1.0, 0.0])).max() <= 1e-10
            for _ in range(5):
                sigma = random_state(2, rng)
                dev = np.abs(
                    cs.apply(ch, sigma) - amplitude_damping_apply(sigma, p)
                ).max()
                assert dev <= 1e-14
        assert time.perf_counter() - start < 1.0

    _run(capsys, 1, "2x2 example reproduction", body)


def test_criterion_2_bloch_fixed_point_consistency(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        checked_multi = 0
        for trial in range(100):
            kind = trial % 5
            if kind <= 2:
                ch = random_channel(2, 3, rng)  # generic: unique
            elif kind == 3:
                ch = cs.KrausChannel([haar_unitary(2, rng)])  # segment
            else:
                ch = cs.KrausChannel([np.eye(2)])  # identity
            split = cs.recurrent_split(ch)
            b, a = cs.qubit_bloch_form(ch)
            u = bloch_vector(split.rho_max)
            assert np.linalg.norm(b + a @ u - u) <= 1e-8
            fixed_dim = cs.fixed_space(ch).dimension
            rep = cs.decompose(ch)
            n_alpha = len(rep.alpha_blocks)
            sizes = [len(blk.enclosures) for blk in rep.beta_blocks]
            if fixed_dim == 1:
                assert n_alpha == 1 and not sizes  # unique invariant state
            elif fixed_dim == 2:
                assert n_alpha == 2 and not sizes  # segment of two extremals
                checked_multi += 1
            elif fixed_dim == 4:
                assert n_alpha == 0 and sizes == [2]  # identity: all states
                checked_multi += 1
            else:
                raise AssertionError(f"unexpected fixed dimension {fixed_dim}")
        assert checked_multi >= 40
        assert time.perf_counter() - start < 5.0

    _run(capsys, 2, "qubit Bloch fixed points and taxonomy", body)


def test_criterion_3_classical_reduction(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        for trial in range(20):
            p, planted_classes, planted_transient = planted_markov(rng)
            oracle_classes, oracle_transient = classical_recurrent_classes(p)
            assert [sorted(c) for c in oracle_classes] == [
                sorted(c) for c in planted_classes
            ]
            assert oracle_transient == planted_transient
            n = p.shape[0]
            ch = cs.from_markov_chain(p)
            rep = cs.decompose(ch)
            assert not rep.beta_blocks
            assert len(rep.alpha_blocks) == len(oracle_classes)
            d_target = coordinate_projector(n, oracle_transient)
            assert np.abs(rep.D.projector() - d_target).max() <= 1e-8
            matched = set()
            for blk in rep.alpha_blocks:
                proj = blk.enclosures[0].projector()
                hit = None
                for ci, cls in enumerate(oracle_classes):
                    if np.abs(proj - coordinate_projector(n, cls)).max() <= 1e-8:
                        hit = ci
                        break
                assert hit is not None and hit not in matched
                matched.add(hit)
                cls = oracle_classes[hit]
                pi = stationary_law(p[np.ix_(cls, cls)])
                diag = np.diag(blk.rho)[cls].real
                assert np.abs(diag - pi).max() <= 1e-8
                off = blk.rho - np.diag(np.diag(blk.rho))
                assert np.abs(off).max() <= 1e-8
            assert len(matched) == len(oracle_classes)
        assert time.perf_counter() - start < 10.0

    _run(capsys, 3, "classical Markov reduction", body)


def test_criterion_4_open_quantum_random_walk(capsys):
    def body():
        start = time.perf_counter()
        p, q, n_last = 0.3, 0.3, 20
        n_sites = n_last + 1
        ch = cs.from_oqrw(cs.oqrw_transition_map(p, q, n_last), n_last)
        assert ch.dim == 63
        rep = cs.decompose(ch)
        assert not rep.alpha_blocks
        assert len(rep.beta_blocks) == 1
        blk = rep.beta_blocks[0]
        assert len(blk.enclosures) == 2
        qmat = blk.isometries[1]
        hop = np.zeros((3, 3))
        hop[1, 0] = 1.0
        target = np.kron(hop, np.eye(n_sites))
        overlap = np.vdot(target, qmat)
        phase = overlap / abs(overlap)
        assert np.abs(qmat - phase * target).max() <= 1e-6
        lane_weights = np.diag(blk.rho).real.reshape(3, n_sites)
        lane = int(np.argmax(lane_weights.sum(axis=1)))
        w = lane_weights[lane]
        ratios = w[4:17] / w[3:16]  # pairs (j, j+1) for 3 <= j <= 15
        assert np.abs(ratios - p / (1.0 - p)).max() <= 1e-3
        assert time.perf_counter() - start < 30.0

    _run(capsys, 4, "open quantum random walk structure", body)


def test_criterion_5_dimension_counting_and_round_trip(capsys):
    def body():
        rng = np.random.default_rng(5)
        for trial in range(30):
            n_alpha = int(rng.integers(0, 3))
            alpha_dims = [int(rng.integers(1, 4)) for _ in range(n_alpha)]
            n_beta = int(rng.integers(1, 3))
            beta_specs = [
                (int(rng.integers(1, 3)), int(rng.integers(2, 4)))
                for _ in range(n_beta)
            ]
            n_transient = int(rng.integers(0, 4))
            ch, truth = planted_channel(
                rng, alpha_dims, beta_specs, n_transient,
                n_kraus=int(rng.integers(2, 4)),
            )
            rep = cs.decompose(ch)
            n_a = len(rep.alpha_blocks)
            sizes = [len(blk.enclosures) for blk in rep.beta_blocks]
            assert n_a == truth["n_alpha"]
            assert sorted(sizes) == truth["beta_sizes"]
            fixed_dim = cs.fixed_space(ch).dimension
            assert fixed_dim == n_a + sum(s * s for s in sizes)
            assert fixed_dim == truth["fixed_dim"]

            # round trip through the parametrization
            t = rng.uniform(0.1, 1.0, size=n_a)
            m_list = []
            for size in sizes:
                g = rng.standard_normal((size, size)) + (
                    1j * rng.standard_normal((size, size))
                )
                m = g @ g.conj().T
                m_list.append(m * (rng.uniform(0.1, 1.0) / np.trace(m).real))
            total = t.sum() + sum(np.trace(m).real for m in m_list)
            t /= total
            m_list = [m / total for m in m_list]
            params = cs.InvariantStateParameters(t=t, M=tuple(m_list))
            rho = cs.build_invariant_state(rep, params)
            result = cs.extract_parameters(rep, rho)
            rho2 = cs.build_invariant_state(rep, result.params)
            assert result.residual <= 1e-8
            assert np.abs(rho2 - rho).max() <= 1e-8
            if n_a:
                assert np.abs(result.params.t - t).max() <= 1e-8
            for m_got, m_want in zip(result.params.M, m_list):
                assert np.abs(m_got - m_want).max() <= 1e-8

    _run(capsys, 5, "fixed-space dimension count and round trip", body)


def test_criterion_6_invariant_suites(capsys):
    def body():
        rng = np.random.default_rng(6)

        # (a) generation iteration vs accumulated-support closure
        for trial in range(50):
            d = int(rng.integers(2, 7))
            if trial % 3 == 0:
                d1 = int(rng.integers(1, d))
                ch, _ = planted_channel(rng, [d1, d - d1], [], 0, n_kraus=2)
            else:
                ch = random_channel(d, 3, rng)
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            enc = cs.enclosure_generated(ch, x)
            orc = support_closure(ch, x)
            assert np.abs(enc.projector() - orc.projector()).max() <= 1e-8
            assert cs.is_enclosure(ch, enc)

        # (b) subharmonic projector <=> enclosure, on 100 subspaces
        channels = []
        for alpha_dims in ([2, 2], [1, 3], [2, 1], [1, 1]):
            ch, truth = planted_channel(
                rng, alpha_dims, [(1, 2)], int(rng.integers(0, 3)), n_kraus=2
            )
            channels.append((ch, truth, alpha_dims))
        positives = negatives = 0
        for ch, truth, alpha_dims in channels:
            u = truth["unitary"]
            offset = 0
            blocks = []
            for dim in alpha_dims + [1, 1]:  # alpha dims then the two B copies
                blocks.append(list(range(offset, offset + dim)))
                offset += dim
            cases = []
            for blk in blocks:
                cases.append(u[:, blk])  # minimal enclosure
            cases.append(u[:, blocks[0] + blocks[1]])  # union of enclosures
            for _ in range(20):
                k = int(rng.integers(1, ch.dim))
                cases.append(
                    np.linalg.qr(
                        rng.standard_normal((ch.dim, k))
                        + 1j * rng.standard_normal((ch.dim, k))
                    )[0]
                )
            for frame in cases:
                space = cs.Subspace(ch.dim, frame)
                is_enc = cs.is_enclosure(ch, space)
                assert cs.is_subharmonic(ch, space.projector()) == is_enc
                positives += is_enc
                negatives += not is_enc
        assert positives >= 20 and negatives >= 20
        assert positives + negatives == 100

        # (c) transport identity in every generated report
        report_sources = [
            cs.KrausChannel([np.eye(3)]),
            planted_channel(rng, [2], [(2, 2)], 1, n_kraus=3)[0],
            planted_channel(rng, [], [(1, 3)], 2, n_kraus=2)[0],
            cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 6), 6),
        ]
        checked = 0
        for ch in report_sources:
            rep, algebra = cs.decompose(ch), cs.fixed_point_algebra_on_R(ch)
            for blk in rep.beta_blocks:
                for g in range(1, len(blk.enclosures)):
                    qmat = blk.isometries[g]
                    transported = qmat @ blk.rho @ qmat.conj().T
                    independent = cs.block_invariant_state(
                        algebra, blk.enclosures[g]
                    )
                    assert np.abs(transported - independent).max() <= 1e-7
                    checked += 1
        assert checked >= 4

        # (d) Perron-Frobenius on random irreducible instances
        for _ in range(20):
            d = int(rng.integers(2, 6))
            ch = random_channel(d, 3, rng)
            report = cs.decompose(ch)
            assert cs.report_file_from_report(report).fixed_space_dimension == 1
            assert report.R.dimension == d
            assert cs.is_irreducible(ch)

    _run(capsys, 6, "invariant suites", body)


def test_criterion_7_deterministic_reports(capsys, tmp_path):
    def body():
        rng = np.random.default_rng(7)
        ch, _ = planted_channel(rng, [2], [(1, 2)], 1, n_kraus=2)
        path = tmp_path / "channel.json"
        path.write_text(cs.canonical_dumps(cs.channel_to_dict(ch)))
        outputs = []
        for run in range(2):
            out = tmp_path / f"report{run}.json"
            code = cli_main(
                ["decompose", str(path), "--seed", "11", "--out", str(out)]
            )
            assert code == 0
            stdout = capsys.readouterr().out
            assert stdout == out.read_text()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed

    _run(capsys, 7, "byte-identical reports for identical seeds", body)
