"""A standing invariance gate: what the decompositions of a fixed set of
channels determine, stored in ``invariants.json`` and recomputed to 1e-10,
once from ``decompose`` and once from the report after a write -> parse
round trip.

What is stored is free of frames and block order: the R and D dimensions,
the block and copy counts, the spectra of the block states, the fixed-space
dimension and the peripheral spectrum.  Each projector P (R, D, an A-block's
enclosure, the span of a B-block's copies) is stored as its sketch
tr(P G_j) for 4 Hermitian G_j drawn from one fixed SeedSequence.

Regenerate the file (and say why in CHANGES.md, with the largest deviation
from the old one) with

    PYTHONPATH=src python tests/test_invariance_gate.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import chanstruct as cs
from helpers import (
    invariant_deviations,
    planted_channel,
    report_invariants,
    slow_birth_death,
    two_class_chain,
    two_classes_and_transients,
)

STORE = Path(__file__).with_name("invariants.json")
SKETCH_ENTROPY = 1507_08404
TOLERANCE = 1e-10


def _planted(seed, alpha_dims, beta_specs, n_transient):
    return lambda: planted_channel(
        np.random.default_rng(seed), alpha_dims, beta_specs, n_transient
    )[0]


def _walk(p, q, n):
    return lambda: cs.from_oqrw(cs.oqrw_transition_map(p, q, n), n)


def _shift():
    return cs.KrausChannel([np.roll(np.eye(4), 1, axis=0)])


# name: (channel builder, rng_seed of decompose)
CASES = {
    "planted-a2-b2x2-d2": (_planted(701, [2], [(2, 2)], 2), 0),
    "planted-a1a2-b2x2-d1": (_planted(523, [1, 2], [(2, 2)], 1), 0),
    "planted-a2-b3x3-b1x2-d2": (_planted(523, [2], [(3, 3), (1, 2)], 2), 0),
    "markov-two-classes-transients": (two_classes_and_transients, 0),
    "oqrw-0.1-0.2-13": (_walk(0.1, 0.2, 13), 0),
    "oqrw-0.1-0.2-20": (_walk(0.1, 0.2, 20), 0),
    "birth-death-tail-3": (lambda: slow_birth_death(20, 3), 0),
    "eps-chain-1e-3": (lambda: two_class_chain(1e-3), 0),
    "eps-chain-1e-5": (lambda: two_class_chain(1e-5), 0),
    "eps-chain-1e-7": (lambda: two_class_chain(1e-7), 0),
    "shift-c4-seed-0": (_shift, 0),
    "shift-c4-seed-7": (_shift, 7),
    "identity-c17": (lambda: cs.KrausChannel([np.eye(17)]), 0),
}


def sketched_invariants(rf):
    """``report_invariants`` of a ReportFile with every projector replaced
    by its sketch, plus the R and D dimensions."""
    inv = report_invariants(rf)
    z = np.random.default_rng(np.random.SeedSequence(SKETCH_ENTROPY)).standard_normal(
        (2, 4, rf.report.dim, rf.report.dim)
    )
    g = z[0] + 1j * z[1]
    g = g + g.conj().transpose(0, 2, 1)
    sketch = lambda p: np.einsum("ij,kji->k", p, g).real  # noqa: E731
    return {
        **inv,
        "dimensions": [rf.report.R.dimension, rf.report.D.dimension],
        "R": sketch(inv["R"]),
        "D": sketch(inv["D"]),
        "alpha": [(sketch(p), s) for p, s in inv["alpha"]],
        "beta": [(sketch(p), n, s) for p, n, s in inv["beta"]],
    }


def _to_json(inv):
    spectrum = inv["peripheral_spectrum"]
    return {
        "dimensions": inv["dimensions"],
        "R": inv["R"].tolist(),
        "D": inv["D"].tolist(),
        "alpha": [[p.tolist(), s.tolist()] for p, s in inv["alpha"]],
        "beta": [[p.tolist(), n, s.tolist()] for p, n, s in inv["beta"]],
        "fixed_space_dimension": inv["fixed_space_dimension"],
        "peripheral_spectrum": np.stack((spectrum.real, spectrum.imag), -1).tolist(),
    }


def _from_json(doc):
    spectrum = np.array(doc["peripheral_spectrum"], dtype=float).reshape(-1, 2)
    return {
        "dimensions": doc["dimensions"],
        "R": np.array(doc["R"]),
        "D": np.array(doc["D"]),
        "alpha": [(np.array(p), np.array(s)) for p, s in doc["alpha"]],
        "beta": [(np.array(p), n, np.array(s)) for p, n, s in doc["beta"]],
        "fixed_space_dimension": doc["fixed_space_dimension"],
        "peripheral_spectrum": spectrum[:, 0] + 1j * spectrum[:, 1],
    }


def _report_file(name):
    build, seed = CASES[name]
    return cs.report_file_from_report(cs.decompose(build(), rng_seed=seed))


@pytest.fixture(scope="module")
def stored():
    return {name: _from_json(doc) for name, doc in json.loads(STORE.read_text()).items()}


@pytest.mark.parametrize("name", list(CASES))
def test_invariants_match_the_stored_file(name, stored):
    rf = _report_file(name)
    text = cs.canonical_dumps(cs.report_file_to_dict(rf))
    parsed = cs.report_file_from_dict(json.loads(text), re_verify=True)
    for source, got in (("decompose", rf), ("parsed report", parsed)):
        inv = sketched_invariants(got)
        assert inv["dimensions"] == stored[name]["dimensions"], source
        deviations = invariant_deviations(stored[name], inv)
        assert max(deviations.values()) <= TOLERANCE, (source, deviations)


@pytest.mark.parametrize(
    "name",
    ["planted-a2-b3x3-b1x2-d2", "markov-two-classes-transients", "oqrw-0.1-0.2-13"],
)
def test_block_views_split_the_blocks_by_copy_count(name):
    rf = _report_file(name)
    text = cs.canonical_dumps(cs.report_file_to_dict(rf))
    parsed = cs.report_file_from_dict(json.loads(text))
    for rep in (rf.report, parsed.report):
        assert rep.blocks == rep.alpha_blocks + rep.beta_blocks
        assert all(len(b.enclosures) == 1 for b in rep.alpha_blocks)
        assert all(len(b.enclosures) >= 2 for b in rep.beta_blocks)


def test_stored_file_covers_every_case(stored):
    assert sorted(stored) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    docs = {name: _to_json(sketched_invariants(_report_file(name))) for name in CASES}
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in docs.items())
    STORE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {STORE} ({len(docs)} cases)")
