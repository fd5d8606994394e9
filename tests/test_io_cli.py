"""JSON schemas and the command-line interface."""

import base64
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chanstruct as cs
import chanstruct.serialize
import chanstruct.structure
from chanstruct.cli import main
from chanstruct.linalg import _canonical
from chanstruct.serialize import _matrix_from_lists, _matrix_to_lists
from helpers import (
    amplitude_damping_channel,
    assert_canonical,
    planted_channel,
    random_kraus_family,
    slow_birth_death,
)

RNG = np.random.default_rng(505)


def write_channel(path, ch, metadata=None):
    path.write_text(cs.canonical_dumps(cs.channel_to_dict(ch, metadata)))
    return str(path)


def v1_doc(ch):
    """The ``chanstruct-channel/1`` document of ``ch``: one row-major nested
    list of ``[re, im]`` pairs per Kraus operator."""
    return {
        "schema": "chanstruct-channel/1",
        "dim": ch.dim,
        "kraus": [_matrix_to_lists(v) for v in ch.kraus],
    }


def _negate_zeros(obj):
    """Every float 0.0 in a JSON document becomes -0.0."""
    if isinstance(obj, dict):
        return {k: _negate_zeros(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_negate_zeros(v) for v in obj]
    if type(obj) is float and obj == 0.0:
        return -0.0
    return obj


_P = [1.0, 0.0]


class TestMatrixParsing:
    """The vectorized parse accepts exactly what the per-entry check
    accepts, and rejects the rest with the per-entry messages."""

    @pytest.mark.parametrize(
        "data, expected",
        [
            ([[[1.0, -0.0], [0.5, 2.0]], [[-0.0, -0.0], [3, -1.5]]],
             [[complex(1.0, -0.0), 0.5 + 2j], [complex(-0.0, -0.0), 3 - 1.5j]]),
            ([[[1, 0], [2, -3]], [[0, 0], [1, 1]]], [[1, 2 - 3j], [0, 1 + 1j]]),
            ([[1.0, 2], [-0.0, 4.5]], [[1, 2], [-0.0, 4.5]]),
            ([[1.0, [2.0, 1.0]], [[0.0, 0.0], 4]], [[1, 2 + 1j], [0, 4]]),
            ([[[True, 0.0], _P], [_P, _P]],
             "m[0][0]: expected a number or [re, im] pair, got [True, 0.0]"),
            ([[_P, _P], [_P, [0.0, False]]],
             "m[1][1]: expected a number or [re, im] pair, got [0.0, False]"),
            ([[["1.0", 0.0], _P], [_P, _P]],
             "m[0][0]: expected a number or [re, im] pair, got ['1.0', 0.0]"),
            ([[None, _P], [_P, _P]],
             "m[0][0]: expected a number or [re, im] pair, got None"),
            ([[_P, {"re": 1}], [_P, _P]],
             "m[0][1]: expected a number or [re, im] pair, got {'re': 1}"),
            ([[_P, _P], [[float("nan"), 0.0], _P]], "m[1][0]: non-finite entry"),
            ([[_P, [0.0, float("inf")]], [_P, _P]], "m[0][1]: non-finite entry"),
            ([[[1.0, 0.0, 0.0], _P], [_P, _P]],
             "m[0][0]: expected a number or [re, im] pair, got [1.0, 0.0, 0.0]"),
            ([[[[1.0], 0.0], _P], [_P, _P]],
             "m[0][0]: expected a number or [re, im] pair, got [[1.0], 0.0]"),
            ([[_P, _P], [_P]], "m: row 1 must have 2 entries"),
            ([[_P, _P]], "m: expected 2 rows"),
            ([[[10**400, 0], _P], [_P, _P]], "m[0][0]: entry out of float range"),
        ],
        ids=[
            "pairs", "int-pairs", "bare", "mixed", "true-re", "false-im",
            "numeric-string", "none", "object", "nan", "inf", "three-entries",
            "nested", "short-row", "missing-row", "huge-int",
        ],
    )
    def test_accepts_and_rejects_like_the_entry_loop(self, data, expected):
        if isinstance(expected, str):
            with pytest.raises(cs.ParseError) as err:
                _matrix_from_lists(data, 2, 2, "m")
            assert str(err.value) == expected
        else:
            got = _matrix_from_lists(data, 2, 2, "m")
            want = np.array(expected, dtype=complex)
            assert np.array_equal(got, want)
            # the sign of zero survives in both parts
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    def test_well_formed_pairs_skip_the_entry_loop(self, monkeypatch):
        def refuse(entry, where):
            raise AssertionError("per-entry parse on well-formed input")

        monkeypatch.setattr(chanstruct.serialize, "_pair_to_complex", refuse)
        got = _matrix_from_lists([[[1.0, -2.0], [0, 1]]], 1, 2, "m")
        assert np.array_equal(got, [[1 - 2j, 1j]])


class TestChannelSchema:
    def test_round_trip_bytes(self):
        ch = amplitude_damping_channel(0.3)
        doc = cs.channel_to_dict(ch, {"name": "emblem"})
        text = cs.canonical_dumps(doc)
        ch2 = cs.channel_from_dict(json.loads(text))
        assert cs.canonical_dumps(cs.channel_to_dict(ch2, {"name": "emblem"})) == text
        assert np.abs(ch2.kraus[0] - ch.kraus[0]).max() == 0.0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("dim"),
            lambda d: d.pop("kraus"),
            lambda d: d.__setitem__("dim", "two"),
            lambda d: d.__setitem__("kraus", []),
            lambda d: d["kraus"][0].pop(0),             # missing row
            lambda d: d["kraus"][0][0].pop(0),          # short row
            lambda d: d["kraus"][0][0].__setitem__(0, [1.0]),       # bad pair
            lambda d: d["kraus"][0][0].__setitem__(0, "1"),         # bad entry
            lambda d: d.__setitem__("metadata", 7),
        ],
    )
    def test_schema_violations_raise_parse_error(self, mutate):
        doc = v1_doc(amplitude_damping_channel(0.3))
        mutate(doc)
        with pytest.raises(cs.ParseError):
            cs.channel_from_dict(doc)

    def test_nonfinite_rejected(self):
        doc = v1_doc(amplitude_damping_channel(0.3))
        doc["kraus"][0][0][0] = [float("inf"), 0.0]
        with pytest.raises(cs.ParseError):
            cs.channel_from_dict(doc)

    def test_negative_zero_round_trip_bytes(self):
        doc = _negate_zeros(v1_doc(amplitude_damping_channel(0.3)))
        text = cs.canonical_dumps(doc)
        assert "[-0.0,-0.0]" in text
        ch = cs.channel_from_dict(json.loads(text))
        assert cs.canonical_dumps(v1_doc(ch)) == text

    def test_validation_on_parse_unless_unchecked(self):
        doc = {
            "dim": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
        }
        # parsing checks the schema only; the eigenvalue-1 solve refuses
        # the channel, which validate reports as not trace preserving
        ch = cs.channel_from_dict(doc)
        assert not cs.validate(ch).trace_preserving
        with pytest.raises(cs.DecompositionError, match="not trace preserving"):
            cs.decompose(ch)


def _markov_chain(n=5):
    """A chain with one closed class {0, 1, 2} and two transient states."""
    p = np.zeros((n, n))
    p[:3, :3] = [[0.2, 0.5, 0.3], [0.5, 0.1, 0.3], [0.3, 0.4, 0.4]]
    p[:, 3] = [0.5, 0.0, 0.0, 0.0, 0.5]
    p[:, 4] = [0.0, 0.3, 0.0, 0.7, 0.0]
    return cs.from_markov_chain(p)


def _with_negative_zeros(ch, entries):
    """``ch`` with the given (operator, row, col) zeros replaced by -0.0
    in the real part, the imaginary part or both (in turn)."""
    stack = np.stack(ch.kraus)
    signs = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for k, (a, i, j) in enumerate(entries):
        assert stack[a, i, j] == 0
        stack[a, i, j] = signs[k % 3]
    return cs.KrausChannel(list(stack))


def _dense_with_zeros():
    """Random 2-dim family ⊕ a scalar: 10 of the 18 entries are nonzero,
    and the other 8 are -0.0."""
    kraus = []
    for v in random_kraus_family(2, 2, np.random.default_rng(3)):
        m = np.full((3, 3), complex(-0.0, -0.0))
        m[:2, :2] = v
        m[2, 2] = np.sqrt(0.5)
        kraus.append(m)
    return cs.KrausChannel(kraus)


def _cycle_with_negative_zeros():
    """The cyclic shift on C^8, a sparse family (8 single-entry operators,
    sum nnz^2 / d^4 = 0.2%), with -0.0 put into a row that holds the
    operator's entry and into rows that are otherwise zero, and one
    operator whose only entries are -0.0 (a zero operator, dropped)."""
    d = 8
    stack = np.zeros((d + 1, d, d), dtype=complex)
    for a in range(d):
        stack[a, (a + 1) % d, a] = 1.0
    stack[0, 1, 3] = complex(-0.0, 0.0)
    stack[2, 5, 5] = complex(0.0, -0.0)
    stack[7, 0, 0] = complex(-0.0, -0.0)
    stack[d, 4, 4] = complex(-0.0, -0.0)
    return stack


def v2_doc(ch, metadata=None):
    """The ``chanstruct-channel/2`` document of ``ch``: the stored entries
    (a part with a nonzero bit pattern) of its n x d x d stack as a list of
    ``[re, im]`` pairs, indexed when they are at most half of the stack."""
    stack = np.stack(ch.kraus)
    pairs = np.stack((stack.real, stack.imag), axis=-1).reshape(-1, 2)
    stored = np.flatnonzero(pairs.view(np.uint64).any(axis=1))
    kraus = {"shape": [len(ch), ch.dim, ch.dim]}
    if 2 * stored.size <= len(pairs):
        kraus["index"] = stored.tolist()
        pairs = pairs[stored]
    kraus["values"] = pairs.tolist()
    doc = {"schema": "chanstruct-channel/2", "dim": ch.dim, "kraus": kraus}
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def _pack(pairs):
    """Base64 of (re, im) parts as little-endian float64 bytes."""
    return base64.b64encode(np.asarray(pairs, dtype="<f8").tobytes()).decode("ascii")


def _unpack(text):
    """The (re, im) parts a packed ``values`` string holds, (count, 2)."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(-1, 2)


def _sparse_doc(version):
    # amplitude damping: entries 1, 4 and 7 of the 2 x 2 x 2 stack
    ch = amplitude_damping_channel(0.3)
    doc = v2_doc(ch) if version == 2 else cs.channel_to_dict(ch)
    assert doc["kraus"]["index"] == [1, 4, 7]
    return doc


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _has_negative_zero(pairs):
    pairs = np.asarray(pairs, dtype=float)
    return bool(((pairs == 0.0) & np.signbit(pairs)).any())


class TestChannelSchemaV3:
    @pytest.mark.parametrize("family", ["sparse", "dense"])
    def test_round_trip_bytes_with_negative_zeros(self, family):
        if family == "sparse":
            zeros = [(0, 0, 1), (2, 4, 4), (5, 1, 0)]
            ch = _with_negative_zeros(_markov_chain(), zeros)
        else:
            ch = _dense_with_zeros()
        doc = cs.channel_to_dict(ch, {"name": family})
        assert doc["schema"] == "chanstruct-channel/3"
        assert doc["kraus"]["shape"] == [len(ch), ch.dim, ch.dim]
        assert ("index" in doc["kraus"]) == (family == "sparse")
        # the packed values are the /2 pairs, bit for bit, -0.0 included
        pairs = v2_doc(ch)["kraus"]["values"]
        assert _has_negative_zero(pairs)
        assert _same_bits(_unpack(doc["kraus"]["values"]), np.array(pairs))
        text = cs.canonical_dumps(doc)
        ch2 = cs.channel_from_dict(json.loads(text))
        assert _same_bits(np.stack(ch2.kraus), np.stack(ch.kraus))
        assert cs.canonical_dumps(cs.channel_to_dict(ch2, {"name": family})) == text

    def test_sparse_family_with_negative_zeros_is_written_whole(self):
        # the six operators |a+1><a| of the 6-cycle padded with -0.0: sparse
        # by the superoperator rule (6 / 6^4), yet every entry is stored, so
        # the file holds the whole stack, which the channel builds for it
        d = 6
        stack = np.full((d, d, d), complex(-0.0, -0.0))
        stack[np.arange(d), (np.arange(d) + 1) % d, np.arange(d)] = 1.0
        ch = cs.KrausChannel(stack)
        assert ch._sparse
        doc = cs.channel_to_dict(ch)
        assert "index" not in doc["kraus"]
        pairs = np.stack((stack.real, stack.imag), axis=-1).reshape(-1, 2)
        assert _same_bits(_unpack(doc["kraus"]["values"]), pairs)
        text = cs.canonical_dumps(doc)
        ch2 = cs.channel_from_dict(json.loads(text))
        assert ch2._sparse and _same_bits(np.stack(ch2.kraus), stack)
        assert cs.canonical_dumps(cs.channel_to_dict(ch2)) == text

    def test_packed_values_are_little_endian_float64(self):
        # 3 of 4 entries stored: the whole stack, each entry's re and im as
        # 8 little-endian bytes (1.0 ends in f0 3f, -0.0 is 00 .. 00 80)
        ch = cs.KrausChannel([np.array([[1.0, complex(0.0, -0.0)], [0.0, 1.0]])])
        one, zero, minus_zero = bytes(6) + b"\xf0\x3f", bytes(8), bytes(7) + b"\x80"
        raw = one + zero + zero + minus_zero + zero + zero + one + zero
        assert cs.channel_to_dict(ch)["kraus"] == {
            "shape": [1, 2, 2], "values": base64.b64encode(raw).decode("ascii")
        }

    @pytest.mark.parametrize("family", ["dense-by-rule", "negative-zeros", "sparse"])
    def test_negative_zeros_survive_every_route(self, family, tmp_path):
        # every route into and out of a channel keeps each entry's bits: the
        # list and array constructors, the /1, /2 and /3 files, and the dense
        # stack a sparse family builds on demand
        if family == "sparse":
            source = _cycle_with_negative_zeros()
            stack = source[:-1]
        else:
            ch = _markov_chain()
            if family == "negative-zeros":
                ch = _with_negative_zeros(ch, [(0, 0, 1), (2, 4, 4), (5, 1, 0)])
            source = stack = np.stack(ch.kraus)
        built = [cs.KrausChannel(list(source)), cs.KrausChannel(source)]
        # the d = 5 chain is indexed on disk but dense by the superoperator
        # rule (sum nnz^2 / d^4 = 13 / 625)
        assert all(ch._sparse is (family == "sparse") for ch in built)
        text = cs.canonical_dumps(cs.channel_to_dict(built[0]))
        assert "index" in json.loads(text)["kraus"]
        packed = _unpack(json.loads(text)["kraus"]["values"])
        assert _has_negative_zero(packed) == (family != "dense-by-rule")
        files = {
            "v1.json": cs.canonical_dumps(v1_doc(built[0])),
            "v2.json": cs.canonical_dumps(v2_doc(built[0])),
            "v3.json": text,
        }
        for name, content in files.items():
            (tmp_path / name).write_text(content)
        loaded = [cs.load_channel(str(tmp_path / name)) for name in files]
        for ch in built + loaded:
            assert len(ch) == len(stack)
            assert _same_bits(np.stack(ch.kraus), stack)
            assert cs.canonical_dumps(cs.channel_to_dict(ch)) == text

    def test_index_is_written_at_most_half_dense(self):
        # 4 of 8 entries stored: the index is written; 5 of 8: it is not
        half = cs.KrausChannel(
            [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.eye(2)[::-1]]
        )
        doc = cs.channel_to_dict(half)
        assert doc["kraus"]["index"] == [0, 3, 5, 6]
        assert len(_unpack(doc["kraus"]["values"])) == 4
        more = _with_negative_zeros(half, [(0, 0, 1)])
        doc = cs.channel_to_dict(more)
        assert "index" not in doc["kraus"]
        assert len(_unpack(doc["kraus"]["values"])) == 8

    def test_operators_without_entries_are_not_allocated(self):
        # the second operator of amplitude damping moved to the last of 10^6
        # slots: the 10^6 - 2 operators between are zero, and a full stack
        # would take 64 MB
        doc = _sparse_doc(3)
        last = 4 * (10**6 - 1)
        doc["kraus"].update(shape=[10**6, 2, 2], index=[1, last, last + 3])
        tracemalloc.start()
        try:
            ch = cs.channel_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert _same_bits(
            np.stack(ch.kraus), np.stack(amplitude_damping_channel(0.3).kraus)
        )

    def test_sparse_family_is_never_held_dense(self, tmp_path):
        # d = 60, six closed classes of 10 states: 600 single-entry
        # operators, whose dense stack would take 34.6 MB
        rng = np.random.default_rng(607)
        p = np.zeros((60, 60))
        for c in range(0, 60, 10):
            block = rng.uniform(0.1, 1.0, size=(10, 10))
            p[c : c + 10, c : c + 10] = block / block.sum(axis=0)
        ch = cs.from_markov_chain(p)
        assert len(ch) == 600 and ch._sparse
        bound = 600 * 60 * 60 * 16 / 4
        path = write_channel(tmp_path / "ch.json", ch)
        for make in (lambda: cs.load_channel(path), lambda: cs.channel_to_dict(ch)):
            tracemalloc.start()
            try:
                make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound
        # building and checking a channel in a fresh interpreter loads no
        # scipy
        mat = tmp_path / "p.json"
        mat.write_text(json.dumps(p.tolist()))
        built = tmp_path / "built.json"
        script = (
            "import sys; from chanstruct.cli import main; "
            f"assert main(['build', 'markov', '--matrix', {str(mat)!r}, "
            f"'--out', {str(built)!r}]) == 0; "
            f"assert main(['validate', {path!r}]) == 0; "
            "assert 'scipy' not in sys.modules"
        )
        src = os.path.dirname(os.path.dirname(cs.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        kraus = [json.loads(Path(f).read_text())["kraus"] for f in (built, path)]
        assert kraus[0] == kraus[1]

    @pytest.mark.parametrize("family", ["markov", "dense"])
    def test_decompose_v1_v2_and_v3_files_write_identical_reports(
        self, family, tmp_path, capsys
    ):
        ch = _markov_chain() if family == "markov" else _dense_with_zeros()
        paths = [tmp_path / f"v{k}.json" for k in (1, 2, 3)]
        for path, doc in zip(paths, (v1_doc(ch), v2_doc(ch), cs.channel_to_dict(ch))):
            path.write_text(cs.canonical_dumps(doc))
        reports = []
        for path in paths:
            out = path.with_suffix(".report.json")
            assert main(["decompose", str(path), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1] == reports[2]
        doc = json.loads(reports[0])
        assert doc["schema"] == "chanstruct-report/3"
        assert doc["channel"]["schema"] == "chanstruct-channel/3"

    def test_report_with_v2_channel_parses_to_current_bytes(self, tmp_path, capsys):
        # a report written before /3 embeds its channel as /2; it re-verifies
        # and re-serializes to the bytes `decompose` writes now
        ch = _dense_with_zeros()
        path = write_channel(tmp_path / "ch.json", ch)
        out = tmp_path / "r.json"
        assert main(["decompose", path, "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        doc["channel"] = v2_doc(ch)
        rf = cs.report_file_from_dict(json.loads(json.dumps(doc)), re_verify=True)
        assert cs.canonical_dumps(cs.report_file_to_dict(rf)) == out.read_text()

    ZEROS = _pack(np.zeros((3, 2)))
    NOT_BASE64 = "kraus: values must be a base64 string"
    UNEQUAL = "kraus: index and values must have equal lengths"
    NON_FINITE = "kraus.values: non-finite entry"

    @pytest.mark.parametrize(
        "values, message",
        [
            ("!" + ZEROS[1:], NOT_BASE64),
            (ZEROS + "\n", NOT_BASE64),
            ("é" + ZEROS[1:], NOT_BASE64),
            (ZEROS[:-1], NOT_BASE64),
            (_pack(np.zeros(5)), "kraus: values hold 40 bytes, not 16 per entry"),
            (_pack(np.zeros((2, 2))), UNEQUAL),
            (_pack(np.zeros((4, 2))), UNEQUAL),
            (_pack([[0.5, 0.0], [np.nan, 0.0], [0.5, 0.0]]), NON_FINITE),
            (_pack([[0.5, 0.0], [0.5, -np.inf], [0.5, 0.0]]), NON_FINITE),
        ],
        ids=[
            "bad-character", "newline", "non-ascii", "bad-padding", "partial-entry",
            "short-values", "long-values", "nan", "inf",
        ],
    )
    def test_malformed_v3_raises_parse_error(self, values, message):
        doc = _sparse_doc(3)
        doc["kraus"]["values"] = values
        with pytest.raises(cs.ParseError) as err:
            cs.channel_from_dict(doc)
        assert str(err.value) == f"channel.{message}"

    def test_unindexed_v3_must_hold_the_whole_stack(self):
        doc = _sparse_doc(3)
        del doc["kraus"]["index"]
        with pytest.raises(cs.ParseError) as err:
            cs.channel_from_dict(doc)
        assert str(err.value) == (
            "channel.kraus: without an index, values must hold all 8 entries"
        )


class TestChannelSchemaV2:
    @pytest.mark.parametrize(
        "make",
        [lambda: amplitude_damping_channel(0.3), _markov_chain, _dense_with_zeros],
        ids=["amplitude-damping", "markov", "dense"],
    )
    def test_v1_document_loads_bit_identical(self, make):
        ch = make()
        for doc in (v1_doc(ch), {k: v for k, v in v1_doc(ch).items() if k != "schema"}):
            ch1 = cs.channel_from_dict(json.loads(cs.canonical_dumps(doc)))
            assert _same_bits(np.stack(ch1.kraus), np.stack(ch.kraus))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda k: k.__setitem__("index", [1, 4, 8]), "index out of range"),
            (lambda k: k.__setitem__("index", [-1, 4, 7]), "index out of range"),
            (lambda k: k.__setitem__("index", [1, 4, 10**400]), "index out of range"),
            (lambda k: k.__setitem__("index", [1, 4, 4]), "strictly increasing"),
            (lambda k: k.__setitem__("index", [4, 1, 7]), "strictly increasing"),
            (lambda k: k.__setitem__("index", [True, 4, 7]), "must be integers"),
            (lambda k: k.__setitem__("index", [1.0, 4, 7]), "must be integers"),
            (lambda k: k.__setitem__("index", "1,4,7"), "equal lengths"),
            (lambda k: k["index"].pop(), "equal lengths"),
            (lambda k: k["values"].pop(), "equal lengths"),
            (lambda k: k["values"].__setitem__(0, [float("nan"), 0.0]), "non-finite"),
            (lambda k: k["values"].__setitem__(2, [0.0, float("inf")]), "non-finite"),
            (lambda k: k["values"].__setitem__(1, [10**400, 0]), "out of float range"),
            (lambda k: k["values"].__setitem__(1, [True, 0.0]), "expected a number"),
            (lambda k: k.__setitem__("values", {}), "values must be a list"),
            (lambda k: k.pop("values"), "missing required key 'values'"),
            (lambda k: k.pop("shape"), "missing required key 'shape'"),
            (lambda k: k.__setitem__("shape", [2, 3, 3]), "shape must be"),
            (lambda k: k.__setitem__("shape", [2, 2, 3]), "shape must be"),
            (lambda k: k.__setitem__("shape", [0, 2, 2]), "shape must be"),
            (lambda k: k.__setitem__("shape", [2.0, 2, 2]), "shape must be"),
            (lambda k: k.__setitem__("shape", [True, 2, 2]), "shape must be"),
            (lambda k: k.__setitem__("shape", [10**400, 2, 2]), "too large"),
            (lambda k: k.pop("index"), "without an index"),
        ],
        ids=[
            "beyond-end", "negative", "huge", "duplicate", "unsorted", "bool-index",
            "float-index", "index-not-list", "short-index", "short-values", "nan",
            "inf", "huge-value", "bool-value", "values-object", "no-values",
            "no-shape", "shape-vs-dim", "non-square", "no-operators", "float-shape",
            "bool-shape", "huge-shape", "missing-index",
        ],
    )
    def test_malformed_v2_raises_parse_error(self, mutate, message):
        doc = _sparse_doc(2)
        mutate(doc["kraus"])
        with pytest.raises(cs.ParseError, match=message):
            cs.channel_from_dict(doc)

    def test_malformed_v2_exits_2(self, tmp_path, capsys):
        doc = _sparse_doc(2)
        doc["kraus"]["index"] = [1, 7, 4]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {
            "type": "ParseError",
            "message": "channel.kraus: index must be strictly increasing",
        }


class TestSchemaString:
    @pytest.mark.parametrize(
        "schema, layout, message",
        [
            ("chanstruct-channel/4", "v3", "unknown schema 'chanstruct-channel/4'"),
            ("chanstruct-report/2", "v3", "unknown schema 'chanstruct-report/2'"),
            (7, "v3", "unknown schema 7"),
            (None, "v1", "unknown schema None"),
            ("chanstruct-channel/1", "v2", "'chanstruct-channel/1' does not match"),
            ("chanstruct-channel/1", "v3", "'chanstruct-channel/1' does not match"),
            ("chanstruct-channel/2", "v1", "'chanstruct-channel/2' does not match"),
            # the /2 object with its values packed, and the /3 object with
            # a list of pairs
            ("chanstruct-channel/2", "v3", "'chanstruct-channel/2' does not match"),
            ("chanstruct-channel/3", "v1", "'chanstruct-channel/3' does not match"),
            ("chanstruct-channel/3", "v2", "'chanstruct-channel/3' does not match"),
        ],
    )
    def test_channel_schema_must_match_layout(self, schema, layout, message):
        ch = amplitude_damping_channel(0.3)
        doc = {"v1": v1_doc, "v2": v2_doc, "v3": cs.channel_to_dict}[layout](ch)
        doc["schema"] = schema
        with pytest.raises(cs.ParseError) as err:
            cs.channel_from_dict(doc)
        assert str(err.value) in (
            f"channel: {message}",
            f"channel: schema {message} the layout of 'kraus'",
        )

    def test_every_channel_version_loads_without_schema(self):
        ch = amplitude_damping_channel(0.3)
        for doc in (cs.channel_to_dict(ch), v2_doc(ch), v1_doc(ch)):
            del doc["schema"]
            assert cs.channel_from_dict(doc).kraus[0].tobytes() == ch.kraus[0].tobytes()

    def _report_doc(self):
        return cs.report_file_to_dict(
            cs.report_file_from_report(cs.decompose(_markov_chain()))
        )

    @pytest.mark.parametrize(
        "schema, channel, message",
        [
            ("chanstruct-report/4", "v2", "unknown schema 'chanstruct-report/4'"),
            ("chanstruct-channel/2", "v2", "unknown schema 'chanstruct-channel/2'"),
            # one message for every report version but /3
            (
                "chanstruct-report/1",
                "v2",
                "'chanstruct-report/1'; re-run `chanstruct decompose`",
            ),
            (
                "chanstruct-report/2",
                "v1",
                "'chanstruct-report/2'; re-run `chanstruct decompose`",
            ),
            ("chanstruct-report/3", "v1", "'chanstruct-report/3' does not match"),
        ],
    )
    def test_report_schema_must_match_layout(self, schema, channel, message):
        doc = self._report_doc()
        doc["schema"] = schema
        if channel == "v1":
            doc["channel"] = v1_doc(_markov_chain())
            del doc["channel"]["schema"]
        with pytest.raises(cs.ParseError, match=message):
            cs.report_file_from_dict(doc)

    def test_unknown_schema_exits_2(self, tmp_path, capsys):
        doc = cs.channel_to_dict(amplitude_damping_channel(0.3))
        doc["schema"] = "chanstruct-channel/9"
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {
            "type": "ParseError",
            "message": "channel: unknown schema 'chanstruct-channel/9'",
        }


FRAME_CASES = {
    "oqrw": lambda: cs.from_oqrw(cs.oqrw_transition_map(0.1, 0.2, 13), 13),
    "planted": lambda: planted_channel(
        np.random.default_rng(523), [2], [(3, 3), (1, 2)], 2
    )[0],
}


def _residue(frame):
    """The count of parts of a written frame strictly between 0 and eps
    times the frame's largest part."""
    parts = np.abs(np.array(frame, dtype=float))
    cut = np.finfo(float).eps * parts.max(initial=0.0)
    return int(((parts > 0.0) & (parts < cut)).sum())


def _frames(doc):
    """Every frame a report document writes, in the writer's order."""
    return [
        doc["recurrent_basis"],
        doc["transient_basis"],
        *(blk["enclosure"] for blk in doc["alpha_blocks"]),
        *(e for blk in doc["beta_blocks"] for e in blk["enclosures"]),
    ]


@functools.cache
def _bare_report_text(case):
    """The report of a tamper case's channel, with fixed_space_dimension
    values at 1 for its peripheral spectrum, which the read path checks
    only for that count (the walk's own takes about 0.5 s on 2 cores)."""
    if case == "walk":
        ch = cs.from_oqrw(cs.oqrw_transition_map(0.4, 0.3, 45), 45)
    elif case == "markov":  # three A-blocks of dimension 1
        ch = cs.from_markov_chain(np.eye(3))
    else:
        ch, _ = planted_channel(np.random.default_rng(1), [5, 7], [(4, 3)], 6)
    report = cs.decompose(ch)
    n = chanstruct.structure._fixed_dimension(report)
    rf = chanstruct.serialize.ReportFile(report, (1.0,) * n)
    return cs.canonical_dumps(cs.report_file_to_dict(rf))


def _add_blocks(doc, kind, block, fixed):
    doc[kind].append(block)
    doc["fixed_space_dimension"] += fixed
    doc["peripheral_spectrum"] += [[1.0, 0.0]] * fixed


def _shift_rho_ref(doc):
    # the walk's largest two diagonal weights of rho_ref, +0.05 and -0.05
    rho = doc["beta_blocks"][0]["rho_ref"]
    rho[32][32][0] += 0.05
    rho[23][23][0] -= 0.05


def _drop_alpha_block(doc):
    # the blocks and D then span 23 of C^30
    del doc["alpha_blocks"][0]
    doc["fixed_space_dimension"] -= 1
    del doc["peripheral_spectrum"][0]


def _mix_alpha_state(doc):
    n = len(doc["alpha_blocks"][0]["rho"])
    doc["alpha_blocks"][0]["rho"] = _matrix_to_lists(np.eye(n) / n)


def _permute_copy_frame(doc):
    # the same span and orthonormal: only the copy's state moves
    frame = doc["beta_blocks"][0]["enclosures"][1]
    doc["beta_blocks"][0]["enclosures"][1] = [row[1:] + row[:1] for row in frame]


def _copy_alpha_frame(doc):
    # an enclosure of its own, so only the blocks' Gram matrix refuses it
    doc["alpha_blocks"][1]["enclosure"] = doc["alpha_blocks"][0]["enclosure"]


def _alpha_block_as_one_copy(doc):
    # 1 = 1^2: fixed_space_dimension and the spectrum still agree with the
    # blocks, so only the copy count of a B-block can refuse it
    blk = doc["alpha_blocks"].pop(0)
    doc["beta_blocks"].append(
        {"index": 1, "enclosures": [blk["enclosure"]], "rho_ref": blk["rho"]}
    )


# the message names the check that refuses each case; a case whose check is
# the solve-free verification parses without it
TAMPER_CASES = {
    "empty-alpha-block": (
        "planted",
        lambda doc: _add_blocks(
            doc, "alpha_blocks", {"enclosure": [[]] * doc["dim"], "rho": []}, 1
        ),
        "verification: A-block 2 state is not a state",
    ),
    "empty-beta-copies": (
        "planted",
        lambda doc: _add_blocks(
            doc,
            "beta_blocks",
            {"index": 1, "enclosures": [[[]] * doc["dim"]] * 2, "rho_ref": []},
            4,
        ),
        "verification: B-block 1 state is not a state",
    ),
    "shifted-rho-ref": (
        "walk", _shift_rho_ref, "verification: B-block 0 state is not a state"
    ),
    "dropped-alpha-block": (
        "planted",
        _drop_alpha_block,
        "verification: block dimensions sum to 23, ambient is 30",
    ),
    "mixed-alpha-state": (
        "planted",
        _mix_alpha_state,
        "verification: A-block 0 state is not invariant on copy 0",
    ),
    "permuted-copy-frame": (
        "planted",
        _permute_copy_frame,
        "verification: B-block 0 state is not invariant on copy 1",
    ),
    "copied-alpha-frame": (
        "markov", _copy_alpha_frame, "verification: blocks are not mutually orthogonal"
    ),
    "one-copy-beta-block": (
        "planted",
        _alpha_block_as_one_copy,
        "beta_blocks[1]: a B-block needs two or more enclosures",
    ),
}


class TestReportSchema:
    def _report_file(self):
        ch, _ = planted_channel(RNG, [1], [(1, 2)], 1, n_kraus=2)
        return cs.report_file_from_report(cs.decompose(ch))

    def test_round_trip_bytes(self):
        rf = self._report_file()
        text = cs.canonical_dumps(cs.report_file_to_dict(rf))
        rf2 = cs.report_file_from_dict(json.loads(text))
        text2 = cs.canonical_dumps(cs.report_file_to_dict(rf2))
        assert text == text2
        assert rf2.fixed_space_dimension == rf.fixed_space_dimension
        assert rf2.report.dim == rf.report.dim

    def test_canonical_text_is_one_line(self):
        text = cs.canonical_dumps(cs.report_file_to_dict(self._report_file()))
        assert text.endswith("}\n") and text.count("\n") == 1
        assert ": " not in text and ", " not in text

    def test_negative_zero_round_trip_bytes(self):
        # a random unitary mixed with diag(1, i): 6 of the 8 Kraus entries
        # are stored, so the embedded family is written whole, zeros included;
        # the two zeros are written as -0.0 in both parts
        rng = np.random.default_rng(7)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(z)
        v = np.sqrt(0.4) * np.diag([1.0, 1j])
        v[0, 1] = v[1, 0] = complex(-0.0, -0.0)
        ch = cs.KrausChannel([np.sqrt(0.6) * u, v])
        doc = cs.report_file_to_dict(cs.report_file_from_report(cs.decompose(ch)))
        kraus = doc["channel"]["kraus"]
        assert "index" not in kraus
        assert np.signbit(_unpack(kraus["values"])[[5, 6]]).all()
        text = cs.canonical_dumps(_negate_zeros(doc))
        assert "-0.0" in text
        rf = cs.report_file_from_dict(json.loads(text))
        assert cs.canonical_dumps(cs.report_file_to_dict(rf)) == text

    def test_indented_file_loads_to_canonical_text(self):
        doc = cs.report_file_to_dict(self._report_file())
        indented = json.dumps(doc, indent=2, sort_keys=True)
        rf = cs.report_file_from_dict(json.loads(indented), re_verify=True)
        assert cs.canonical_dumps(cs.report_file_to_dict(rf)) == cs.canonical_dumps(doc)

    def test_huge_int_in_report_is_parse_error(self):
        doc = cs.report_file_to_dict(self._report_file())
        doc["tolerances"]["rank_tol"] = 10**400
        with pytest.raises(cs.ParseError, match="bad tolerances"):
            cs.report_file_from_dict(doc)
        doc = cs.report_file_to_dict(self._report_file())
        doc["peripheral_spectrum"][0] = [1, 10**400]
        with pytest.raises(cs.ParseError, match="out of float range"):
            cs.report_file_from_dict(doc)

    @pytest.mark.parametrize("value", [0.5, 0, float("nan"), "1e-9", True, None])
    def test_out_of_range_tolerance_is_parse_error(self, value):
        doc = cs.report_file_to_dict(self._report_file())
        doc["tolerances"]["rank_tol"] = value
        with pytest.raises(cs.ParseError, match="bad tolerances"):
            cs.report_file_from_dict(doc)

    def test_reload_verifies_orthonormality(self):
        rf = self._report_file()
        doc = cs.report_file_to_dict(rf)
        doc["recurrent_basis"][0][0] = [5.0, 0.0]
        with pytest.raises(cs.ParseError):
            cs.report_file_from_dict(doc)

    def test_reload_verifies_enclosure_predicate(self):
        ch = amplitude_damping_channel(0.3)
        rf = cs.report_file_from_report(cs.decompose(ch))
        doc = cs.report_file_to_dict(rf)
        # span{e2} is orthonormal but not an enclosure
        doc["alpha_blocks"][0]["enclosure"] = [[[0.0, 0.0]], [[1.0, 0.0]]]
        with pytest.raises(cs.ParseError, match="enclosure"):
            cs.report_file_from_dict(doc)

    def test_tamper_cases_are_untouched_reports_that_parse(self):
        for case in ("walk", "planted"):
            cs.report_file_from_dict(json.loads(_bare_report_text(case)))

    @pytest.mark.parametrize("case", sorted(TAMPER_CASES))
    def test_reload_runs_the_solve_free_verification(self, case):
        channel, tamper, message = TAMPER_CASES[case]
        doc = json.loads(_bare_report_text(channel))
        tamper(doc)
        if message.startswith("verification: "):
            cs.report_file_from_dict(doc, re_verify=False)
        with pytest.raises(cs.ParseError, match=re.escape(message)):
            cs.report_file_from_dict(doc, re_verify=True)


    def _markov_doc(self):
        # two closed classes, one a period-2 cycle: blocks imply n_alpha = 2
        p = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        rf = cs.report_file_from_report(cs.decompose(cs.from_markov_chain(p)))
        return cs.report_file_to_dict(rf)

    @pytest.mark.parametrize("value", [7, -3])
    def test_fixed_space_dimension_must_match_blocks(self, value):
        doc = self._markov_doc()
        assert doc["fixed_space_dimension"] == 2 and not doc["beta_blocks"]
        doc["fixed_space_dimension"] = value
        for re_verify in (True, False):
            with pytest.raises(cs.ParseError, match="fixed_space_dimension"):
                cs.report_file_from_dict(doc, re_verify=re_verify)

    @pytest.mark.parametrize(
        "spectrum, message",
        [
            ([[5.0, 0.0]], "off"),
            ([[1.0, 0.0], [-1.0, 0.0]], "needs 2 values at 1"),
            ([[1.0, 0.0]] * 3 + [[-1.0, 0.0]], "needs 2 values at 1"),
        ],
    )
    def test_peripheral_spectrum_must_match_the_circle_and_fixed_space(
        self, spectrum, message
    ):
        doc = self._markov_doc()
        assert len(doc["peripheral_spectrum"]) == 3
        doc["peripheral_spectrum"] = spectrum
        for re_verify in (True, False):
            with pytest.raises(cs.ParseError, match=message):
                cs.report_file_from_dict(doc, re_verify=re_verify)

    @pytest.mark.parametrize("case", ["rotated", "one-column"])
    def test_recurrent_basis_must_complement_transient_basis(self, case):
        # R = span{e1, e2, e3} holds two closed classes, D = span{e4}; a
        # rotated 3-column frame overlaps D, a 1-column one misses a class
        p = np.array(
            [[0.5, 0.5, 0, 0.2], [0.5, 0.5, 0, 0.2], [0, 0, 1, 0.3], [0, 0, 0, 0.3]]
        )
        rf = cs.report_file_from_report(cs.decompose(cs.from_markov_chain(p)))
        doc = cs.report_file_to_dict(rf)
        assert (rf.report.R.dimension, rf.report.D.dimension) == (3, 1)
        if case == "rotated":
            frame, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 3)))
            assert np.abs(frame.T @ rf.report.D.frame).max() > 0.5
        else:
            frame = np.eye(4)[:, :1]
        doc["recurrent_basis"] = _matrix_to_lists(frame)
        for re_verify in (True, False):
            with pytest.raises(cs.ParseError, match="recurrent_basis must complement"):
                cs.report_file_from_dict(doc, re_verify=re_verify)

    def test_beta_block_index_must_be_its_position(self):
        ch, _ = planted_channel(
            np.random.default_rng(11), [1], [(1, 2), (2, 2)], 1, n_kraus=2
        )
        doc = cs.report_file_to_dict(cs.report_file_from_report(cs.decompose(ch)))
        assert [blk["index"] for blk in doc["beta_blocks"]] == [0, 1]
        doc["beta_blocks"][1]["index"] = 0
        with pytest.raises(
            cs.ParseError, match=re.escape("beta_blocks[1].index: expected 1")
        ):
            cs.report_file_from_dict(doc)

    @pytest.mark.parametrize("value", [5, None])
    @pytest.mark.parametrize(
        "path",
        [
            ("alpha_blocks",),
            ("beta_blocks",),
            ("beta_blocks", 0, "enclosures"),
            ("peripheral_spectrum",),
        ],
        ids=lambda p: ".".join(map(str, p)),
    )
    def test_non_array_is_parse_error(self, path, value):
        doc = cs.report_file_to_dict(
            cs.report_file_from_report(cs.decompose(cs.KrausChannel([np.eye(2)])))
        )
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
        with pytest.raises(cs.ParseError, match=f"'{key}' must be an array"):
            cs.report_file_from_dict(doc)

    def test_negative_rng_seed_is_parse_error(self):
        # decompose refuses such a seed, so no report can carry one
        p = np.array([[0.4, 0.7], [0.6, 0.3]])
        doc = cs.report_file_to_dict(
            cs.report_file_from_report(cs.decompose(cs.from_markov_chain(p)))
        )
        doc["rng_seed"] = -3
        with pytest.raises(cs.ParseError, match="rng_seed must be >= 0"):
            cs.report_file_from_dict(doc, re_verify=True)

    @pytest.mark.parametrize("case", sorted(FRAME_CASES))
    def test_frames_are_canonical(self, case):
        # R, D and each block's first copy are held in the basis their span
        # fixes; the other copies are aligned with the first, F_g = Q_g F_0
        rep = cs.decompose(FRAME_CASES[case]())
        frames = [rep.R, rep.D, *(b.enclosures[0] for b in rep.blocks)]
        assert rep.beta_blocks
        for v in frames:
            assert np.abs(_canonical(v.frame) - v.frame).max(initial=0.0) <= 1e-13
            assert_canonical(v.frame)

    @pytest.mark.parametrize("case", sorted(FRAME_CASES))
    def test_frames_carry_no_rounding_residue(self, case):
        # an OQRW's subspaces are site lanes, exactly zero off the lane; the
        # zeros written in place of the residue must read back to the same
        # bytes
        rf = cs.report_file_from_report(cs.decompose(FRAME_CASES[case]()))
        text = cs.canonical_dumps(cs.report_file_to_dict(rf))
        assert not any(map(_residue, _frames(json.loads(text))))
        rf2 = cs.report_file_from_dict(json.loads(text), re_verify=True)
        assert cs.canonical_dumps(cs.report_file_to_dict(rf2)) == text

    def test_frame_residue_is_written_as_a_signed_zero(self):
        # R = span{e1}, D = span{e2}; the frames are replaced by ones whose
        # parts are (re, im) pairs, so that -0.0 and -1e-17 survive
        rf = cs.report_file_from_report(cs.decompose(amplitude_damping_channel(0.3)))
        r_parts = [[[1.0, 0.0]], [[-1e-17, 1e-17]]]
        d_parts = [[[-0.0, -0.0]], [[1.0, 0.0]]]
        r, d = (
            cs.Subspace(2, np.array(parts).view(complex)[..., 0])
            for parts in (r_parts, d_parts)
        )
        report = dataclasses.replace(rf.report, R=r, D=d)
        doc = cs.report_file_to_dict(dataclasses.replace(rf, report=report))
        written = cs.canonical_dumps([doc["recurrent_basis"], doc["transient_basis"]])
        assert written == "[[[[1.0,0.0]],[[-0.0,0.0]]],[[[-0.0,-0.0]],[[1.0,0.0]]]]\n"

    def test_planted_frames_are_written_whole(self):
        # a Haar-rotated frame has no part below eps times its largest
        rf = cs.report_file_from_report(cs.decompose(FRAME_CASES["planted"]()))
        rep = rf.report
        frames = [rep.R, rep.D, *(b.enclosures[0] for b in rep.alpha_blocks)]
        frames += [e for b in rep.beta_blocks for e in b.enclosures]
        written = _frames(cs.report_file_to_dict(rf))
        assert cs.canonical_dumps(written) == cs.canonical_dumps(
            [_matrix_to_lists(v.frame) for v in frames]
        )


class TestReportSchemaV3:
    """Block data in the coordinates of its enclosure."""

    LAYOUTS = {
        "two-copies": ([1, 2], [(2, 2)], 1),
        "three-copies": ([2], [(3, 3), (1, 2)], 2),
    }

    def _report_file(self, layout):
        alpha, beta, n_transient = self.LAYOUTS[layout]
        rng = np.random.default_rng(523)
        ch, _ = planted_channel(rng, alpha, beta, n_transient, n_kraus=3)
        return cs.report_file_from_report(cs.decompose(ch))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_block_shapes_and_round_trip_bytes(self, layout):
        doc = cs.report_file_to_dict(self._report_file(layout))
        assert doc["schema"] == "chanstruct-report/3"
        for blk in doc["alpha_blocks"]:
            n = len(blk["enclosure"][0])
            assert np.shape(blk["rho"]) == (n, n, 2)
        assert doc["beta_blocks"]
        for blk in doc["beta_blocks"]:
            assert sorted(blk) == ["enclosures", "index", "rho_ref"]
            m = len(blk["enclosures"][0][0])
            assert np.shape(blk["rho_ref"]) == (m, m, 2)
            assert all(np.shape(e)[1] == m for e in blk["enclosures"])
        text = cs.canonical_dumps(doc)
        rf = cs.report_file_from_dict(json.loads(text), re_verify=True)
        assert cs.canonical_dumps(cs.report_file_to_dict(rf)) == text

    def test_copy_of_other_dimension_is_parse_error(self):
        # the identity channel on C^3 is one B-block of three lines, and
        # span{e2, e3} is an enclosure too: only the copy's column count
        # against rho_ref can reject it as the second copy
        rf = cs.report_file_from_report(cs.decompose(cs.KrausChannel([np.eye(3)])))
        doc = cs.report_file_to_dict(rf)
        (blk,) = doc["beta_blocks"]
        assert len(blk["enclosures"]) == 3
        blk["enclosures"][1] = _matrix_to_lists(np.eye(3)[:, 1:])
        with pytest.raises(
            cs.ParseError, match=re.escape("beta_blocks[0].enclosures[1]: 2 columns")
        ):
            cs.report_file_from_dict(doc)

    def test_ambient_layout_labelled_v3_is_parse_error(self):
        # the old layout (d x d block states, B-blocks carrying their d x d
        # transports) under the /3 label: the n x n shape of an A-block's
        # rho is what rejects it
        rf = self._report_file("three-copies")
        report, doc = rf.report, cs.report_file_to_dict(rf)
        for blk, data in zip(report.alpha_blocks, doc["alpha_blocks"]):
            data["rho"] = _matrix_to_lists(blk.rho)
        for blk, data in zip(report.beta_blocks, doc["beta_blocks"]):
            data["isometries"] = [_matrix_to_lists(q) for q in blk.isometries]
            data["rho_ref"] = _matrix_to_lists(blk.rho)
        assert doc["schema"] == "chanstruct-report/3"
        with pytest.raises(
            cs.ParseError, match=re.escape("alpha_blocks[0].rho: expected 2 rows")
        ):
            cs.report_file_from_dict(doc)


class TestCliValidate:
    def test_valid_channel(self, tmp_path, capsys):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        assert main(["validate", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_preserving"] is True
        assert doc["passed"] is True

    def test_failing_channel(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["trace_preserving"] is False

    def test_indented_channel_file(self, tmp_path, capsys):
        doc = cs.channel_to_dict(amplitude_damping_channel(0.3))
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_psd_flag_sets_the_trace_preservation_bound(self, tmp_path, capsys):
        # sum V^H V = (1 - 1e-6) I: trace preserving to 1e-6, within the
        # bound 10 psd_tol at --tol-psd 1e-6, not at the default 1e-9
        ch = cs.KrausChannel([np.sqrt(1.0 - 1e-6) * np.eye(2)])
        path = write_channel(tmp_path / "ch.json", ch)
        assert main(["validate", path, "--tol-psd", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert main(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["trace_preserving"] is False and out["passed"] is False

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "ParseError"

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


class TestCliDecompose:
    def test_report_and_determinism(self, tmp_path, capsys):
        ch, _ = planted_channel(RNG, [1], [(1, 2)], 0, n_kraus=2)
        path = write_channel(tmp_path / "ch.json", ch)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["decompose", path, "--out", str(out1)]) == 0
        stdout1 = capsys.readouterr().out
        assert main(["decompose", path, "--out", str(out2)]) == 0
        stdout2 = capsys.readouterr().out
        assert stdout1 == stdout2
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text() == stdout1
        doc = json.loads(stdout1)
        assert doc["rng_seed"] == 0
        assert doc["fixed_space_dimension"] == 5
        rf = cs.report_file_from_dict(doc)
        assert len(rf.report.beta_blocks) == 1

    def test_amplitude_damping_transient_line(self, tmp_path, capsys):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        assert main(["decompose", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        frame = doc["transient_basis"]
        # D = span{e2}
        assert abs(frame[0][0][0]) < 1e-10 and abs(frame[0][0][1]) < 1e-10
        assert abs(abs(complex(*frame[1][0])) - 1.0) < 1e-10

    def test_identity_channel_counts(self, tmp_path, capsys):
        path = write_channel(
            tmp_path / "id3.json", cs.KrausChannel([np.eye(3)])
        )
        assert main(["decompose", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_blocks"] == []
        assert len(doc["beta_blocks"]) == 1
        assert len(doc["beta_blocks"][0]["enclosures"]) == 3
        assert doc["fixed_space_dimension"] == 9

    def test_non_tp_exits_1(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert "error" in out

    def test_huge_int_entry_exits_2(self, tmp_path, capsys):
        doc = v1_doc(amplitude_damping_channel(0.3))
        doc["kraus"][0][0][0] = [10**400, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {
            "type": "ParseError",
            "message": "channel.kraus[0][0][0]: entry out of float range",
        }

    def test_negative_seed_exits_1_with_argument_error(self, tmp_path, capsys):
        # the cyclic shift takes the seeded fallback; the chain splits on its
        # first candidate: both refuse the seed before solving
        channels = {
            "sh4": cs.KrausChannel([np.roll(np.eye(4), 1, axis=0)]),
            "markov": cs.from_markov_chain(np.array([[0.5, 0.2], [0.5, 0.8]])),
        }
        for name, ch in channels.items():
            path = write_channel(tmp_path / f"{name}.json", ch)
            assert main(["decompose", path, "--seed", "-1"]) == 1
            captured = capsys.readouterr()
            err = json.loads(captured.out)["error"]
            assert err["type"] == "ArgumentError" and "stage" not in err
            assert "rng_seed" in err["message"]
            assert "Traceback" not in captured.err

    def test_tolerance_flags(self, tmp_path):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        assert main(["decompose", path, "--tol-rank", "1e-8"]) == 0
        assert main(["decompose", path, "--tol-rank", "-1.0"]) == 1

    def test_eig_and_psd_flags_reach_the_report(self, tmp_path, capsys):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        argv = ["decompose", path, "--tol-eig", "1e-7", "--tol-psd", "1e-8"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"] == {
            "rank_tol": 1e-9, "eig_cluster_tol": 1e-7, "psd_tol": 1e-8
        }

    def test_fixed_dimension_mismatch_carries_diagnostics(
        self, tmp_path, capsys, monkeypatch
    ):
        # The identity channel on C^2 with its B-block unlinked: no block of
        # the linking element clears an infinite cut, so the two lines become
        # two A-blocks.  The rest of the pipeline stays self-consistent (each
        # line carries an invariant state), so only the fresh fixed point
        # Pi_1(G) = G of the verification, whose off-diagonal part the blocks
        # cannot re-assemble, exposes the lost link.
        monkeypatch.setattr(
            chanstruct.structure,
            "_link_cut",
            lambda algebra: (algebra.linking_element, np.inf),
        )
        path = write_channel(tmp_path / "id2.json", cs.KrausChannel([np.eye(2)]))
        assert main(["decompose", path]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DecompositionError"
        assert err["stage"] == "verification"
        assert err["diagnostics"]["fixed_space_dimension"] == 2
        assert err["diagnostics"]["deviation"] > 0.1


class TestCliBuild:
    def test_oqrw_dimension(self, tmp_path, capsys):
        out = tmp_path / "walk.json"
        code = main(
            [
                "build", "oqrw", "--p", "0.3", "--q", "0.3",
                "--sites", "5", "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["dim"] == 18
        ch = cs.channel_from_dict(doc)
        assert cs.validate(ch).trace_preserving

    def test_oqrw_rejects_large_p(self, capsys):
        code = main(["build", "oqrw", "--p", "0.6", "--q", "0.2", "--sites", "5"])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().out)

    def test_oqrw_without_reflecting_site(self, capsys):
        # N = 0 leaves no site N - 1 for the reflecting boundary to rescale
        code = main(["build", "oqrw", "--p", "0.3", "--q", "0.3", "--sites", "0"])
        assert code == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ArgumentError"
        assert "needs a site N - 1 (num_sites >= 1)" in err["message"]

    def test_markov_two_cycle(self, tmp_path, capsys):
        mat = tmp_path / "p.json"
        mat.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["build", "markov", "--matrix", str(mat)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 2
        assert doc["kraus"]["shape"] == [2, 2, 2]

    def test_markov_bad_matrix_file(self, tmp_path):
        mat = tmp_path / "p.json"
        mat.write_text(json.dumps({"rows": []}))
        assert main(["build", "markov", "--matrix", str(mat)]) == 2
        mat.write_text(json.dumps([[0.5, 0.5], [0.4, 0.5]]))
        assert main(["build", "markov", "--matrix", str(mat)]) == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("NaN", "non-finite entry"),
            ("Infinity", "non-finite entry"),
            ("1" + "0" * 400, "entry out of float range"),
        ],
        ids=["nan", "infinity", "huge-int"],
    )
    def test_markov_unrepresentable_entry_exits_2(
        self, tmp_path, capsys, entry, message
    ):
        mat = tmp_path / "p.json"
        mat.write_text(f"[[0.5, {entry}], [0.5, 0.5]]")
        assert main(["build", "markov", "--matrix", str(mat)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"type": "ParseError", "message": f"{mat}: {message}"}


class TestCliQuery:
    def test_enclosure(self, tmp_path, capsys):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        assert main(["query", "enclosure", path, "--vector", "[1, 0]"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 1
        assert main(["query", "enclosure", path, "--vector", "[0, 1]"]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 2

    def test_enclosure_complex_entries(self, tmp_path, capsys):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        code = main(
            ["query", "enclosure", path, "--vector", "[[0, 1], [0, 0]]"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 1

    def test_enclosure_frame_carries_no_rounding_residue(self, tmp_path, capsys):
        # the enclosure generated by e_35 is 28-dimensional, and its frame,
        # as computed, holds parts below eps times its largest part
        path = write_channel(tmp_path / "ch.json", FRAME_CASES["oqrw"]())
        vector = json.dumps([float(i == 35) for i in range(42)])
        assert main(["query", "enclosure", path, "--vector", vector]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 28 and _residue(doc["frame"]) == 0

    def test_huge_int_vector_exits_2(self, tmp_path, capsys):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        vector = "[1, [0, " + "1" * 400 + "]]"
        assert main(["query", "enclosure", path, "--vector", vector]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["message"] == "--vector[1]: entry out of float range"

    def test_bad_vector_exits_2(self, tmp_path, capsys):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        assert main(["query", "enclosure", path, "--vector", "[1, 0, 0]"]) == 2
        capsys.readouterr()
        assert main(["query", "enclosure", path, "--vector", "nope"]) == 2

    def test_irreducible(self, tmp_path, capsys):
        p = np.zeros((3, 3))
        p[1, 0] = p[2, 1] = p[0, 2] = 1.0
        path = write_channel(tmp_path / "c3.json", cs.from_markov_chain(p))
        assert main(["query", "irreducible", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["irreducible"] is True
        assert doc["certificate"]["eigenvalue_1_multiplicity"] == 1

    @pytest.mark.parametrize(
        "make, multiplicity, rank, irreducible",
        [
            (lambda: cs.from_markov_chain(np.roll(np.eye(3), 1, axis=0)), 1, 3, True),
            (lambda: slow_birth_death(20), 1, 20, True),
            (lambda: amplitude_damping_channel(0.5), 1, 1, False),
            (lambda: cs.KrausChannel([np.eye(17)]), 289, 17, False),
            (lambda: planted_channel(np.random.default_rng(4), [4], [], 0)[0], 1, 4, True),
            # one block, but of two copies: n_b^2 = 4 fixed points
            (lambda: planted_channel(np.random.default_rng(5), [], [(3, 2)], 0)[0], 4, 6, False),
            (lambda: planted_channel(np.random.default_rng(1), [3, 5], [(3, 2)], 6)[0], 6, 14, False),
        ],
        ids=["cycle", "birth-death", "damping", "identity-17", "planted-one-block",
             "planted-two-copies", "planted-mixed"],
    )
    def test_irreducible_certificate_agrees_with_fixed_points(
        self, make, multiplicity, rank, irreducible, tmp_path, capsys
    ):
        # the certificate reads the report: the multiplicity of eigenvalue 1
        # is n_alpha + sum_b n_b^2, the dimension `query fixed-points` solves
        # for, and the invariant state's rank is dim R
        path = write_channel(tmp_path / "ch.json", make())
        assert main(["query", "irreducible", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "irreducible": irreducible,
            "certificate": {
                "eigenvalue_1_multiplicity": multiplicity,
                "invariant_state_rank": rank,
                "simple_and_faithful": irreducible,
            },
        }
        assert main(["query", "fixed-points", path]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == multiplicity

    def test_fixed_points_identity(self, tmp_path, capsys):
        path = write_channel(tmp_path / "id2.json", cs.KrausChannel([np.eye(2)]))
        assert main(["query", "fixed-points", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 4
        assert len(doc["hermitian_basis"]) == 4

    def test_spectrum(self, tmp_path, capsys):
        # decohering 3-cycle: peripheral spectrum is the three cube roots
        # of unity (the coherence sector is annihilated in one step)
        p = np.zeros((3, 3))
        p[1, 0] = p[2, 1] = p[0, 2] = 1.0
        path = write_channel(tmp_path / "c3.json", cs.from_markov_chain(p))
        assert main(["query", "spectrum", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = [complex(re, im) for re, im in doc["peripheral_spectrum"]]
        assert len(values) == 3
        assert any(abs(z - 1.0) < 1e-8 for z in values)
        assert all(abs(z ** 3 - 1.0) < 1e-8 for z in values)

    @pytest.mark.parametrize(
        "query", [["spectrum"], ["enclosure", "--vector", "[1, 0]"]], ids=lambda q: q[0]
    )
    def test_unchecked_flag(self, query, tmp_path, capsys):
        # the two queries that run no eigenvalue-1 solve take a channel that
        # is not trace preserving as it is, and have no flag to skip a check
        doc = {
            "dim": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["query", query[0], str(path), *query[1:]]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["query", query[0], str(path), *query[1:], "--unchecked"])
        assert info.value.code == 2
        assert "unrecognized arguments: --unchecked" in capsys.readouterr().err
