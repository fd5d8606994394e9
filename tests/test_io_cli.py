"""JSON schemas and the command-line interface."""

import json

import numpy as np
import pytest

import chanstruct as cs
import chanstruct.serialize
import chanstruct.spectral
from chanstruct.cli import main
from chanstruct.serialize import _matrix_from_lists
from helpers import amplitude_damping_channel, planted_channel

RNG = np.random.default_rng(505)


def write_channel(path, ch, metadata=None):
    path.write_text(cs.canonical_dumps(cs.channel_to_dict(ch, metadata)))
    return str(path)


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
        doc = cs.channel_to_dict(amplitude_damping_channel(0.3))
        mutate(doc)
        with pytest.raises(cs.ParseError):
            cs.channel_from_dict(doc)

    def test_nonfinite_rejected(self):
        doc = cs.channel_to_dict(amplitude_damping_channel(0.3))
        doc["kraus"][0][0][0] = [float("inf"), 0.0]
        with pytest.raises(cs.ParseError):
            cs.channel_from_dict(doc)

    def test_negative_zero_round_trip_bytes(self):
        doc = _negate_zeros(cs.channel_to_dict(amplitude_damping_channel(0.3)))
        text = cs.canonical_dumps(doc)
        assert "[-0.0,-0.0]" in text
        ch = cs.channel_from_dict(json.loads(text))
        assert cs.canonical_dumps(cs.channel_to_dict(ch)) == text

    def test_validation_on_parse_unless_unchecked(self):
        doc = {
            "dim": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
        }
        with pytest.raises(cs.ArgumentError):
            cs.channel_from_dict(doc)
        ch = cs.channel_from_dict(doc, unchecked=True)
        assert not cs.validate(ch).trace_preserving


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
        ch = amplitude_damping_channel(0.3)
        doc = cs.report_file_to_dict(cs.report_file_from_report(cs.decompose(ch)))
        text = cs.canonical_dumps(_negate_zeros(doc))
        assert "[-0.0,-0.0]" in text
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

    @pytest.mark.parametrize("value", [0.5, 0, float("nan")])
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
        doc = cs.channel_to_dict(amplitude_damping_channel(0.3))
        doc["kraus"][0][0][0] = [10**400, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {
            "type": "ParseError",
            "message": "channel.kraus[0][0][0]: entry out of float range",
        }

    def test_tolerance_flags(self, tmp_path):
        path = write_channel(tmp_path / "ch.json", amplitude_damping_channel(0.3))
        assert main(["decompose", path, "--tol-rank", "1e-8"]) == 0
        assert main(["decompose", path, "--tol-rank", "-1.0"]) == 1

    def test_fixed_dimension_mismatch_carries_diagnostics(
        self, tmp_path, capsys, monkeypatch
    ):
        # The eigenvalue-1 kernel of the identity channel on C^2 without
        # vec(E22).  The rest of the pipeline stays self-consistent (R =
        # span{e1}, one A-block), so only the count n_alpha + sum n_b^2 = 1
        # against rank K = 3 exposes the lost column.
        def dropped(ch, tol):
            keep = np.eye(4, dtype=complex)[:, :3]
            return keep, keep.copy(), np.inf

        monkeypatch.setattr(chanstruct.spectral, "_fixed_pair", dropped)
        path = write_channel(tmp_path / "id2.json", cs.KrausChannel([np.eye(2)]))
        assert main(["decompose", path]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "DecompositionError"
        assert err["stage"] == "verification"
        assert err["diagnostics"] == {"expected": 1, "found": 3}


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

    def test_markov_two_cycle(self, tmp_path, capsys):
        mat = tmp_path / "p.json"
        mat.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
        assert main(["build", "markov", "--matrix", str(mat)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 2
        assert len(doc["kraus"]) == 2

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

    def test_unchecked_flag(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["query", "spectrum", str(path)]) == 1
        capsys.readouterr()
        assert main(["query", "spectrum", str(path), "--unchecked"]) == 0
