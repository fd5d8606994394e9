"""The public surface: the package exports exactly its modules' ``__all__``,
and every CLI subcommand takes the shared options."""

import importlib

import pytest

import chanstruct as cs
from chanstruct.cli import _build_parser, main

MODULES = ["channels", "errors", "linalg", "serialize", "spectral", "structure"]

PUBLIC = {
    "ArgumentError", "Block", "ChanstructError",
    "DEFAULT_TOL", "DecompositionError", "DecompositionReport",
    "ExtractionResult", "FixedPointAlgebra", "FixedSpace",
    "InvariantStateParameters", "KrausChannel", "ParseError",
    "PerronFrobeniusCertificate", "RecurrentSplit", "ReportFile", "Subspace",
    "Tolerance", "ValidationReport", "__version__", "accessible", "apply",
    "apply_adjoint", "block_invariant_state", "build_invariant_state",
    "canonical_dumps", "cesaro_average", "channel_from_dict",
    "channel_to_dict", "communicates", "decompose", "enclosure_generated",
    "ergodicity_probe", "extract_parameters", "fixed_point_algebra_on_R",
    "fixed_space", "from_markov_chain", "from_oqrw", "group_into_blocks",
    "hermitian_span_basis", "is_enclosure", "is_irreducible", "is_state",
    "is_subharmonic", "load_channel", "loewner_geq", "minimal_enclosures",
    "oqrw_transition_map", "partial_isometry", "peripheral_spectrum",
    "perron_frobenius_certificate", "qubit_bloch_form", "recurrent_split",
    "report_file_from_dict", "report_file_from_report", "report_file_to_dict",
    "superoperator", "unvec", "validate", "vec",
}

# every subcommand, with the arguments it requires besides the channel file
SUBCOMMANDS = {
    ("validate",): ["ch.json"],
    ("decompose",): ["ch.json"],
    ("build", "markov"): ["--matrix", "p.json"],
    ("build", "oqrw"): ["--p", "0.3", "--q", "0.3", "--sites", "4"],
    ("query", "enclosure"): ["ch.json", "--vector", "[1, 0]"],
    ("query", "irreducible"): ["ch.json"],
    ("query", "fixed-points"): ["ch.json"],
    ("query", "spectrum"): ["ch.json"],
}


def test_top_level_names_are_frozen():
    assert len(cs.__all__) == len(PUBLIC) == 59
    assert set(cs.__all__) == PUBLIC


def test_each_name_is_its_one_module_object():
    modules = {m: importlib.import_module(f"chanstruct.{m}") for m in MODULES}
    for name in PUBLIC - {"__version__"}:
        owners = [m for m, mod in modules.items() if name in mod.__all__]
        assert len(owners) == 1, (name, owners)
        assert getattr(cs, name) is getattr(modules[owners[0]], name), name
    listed = sum(len(mod.__all__) for mod in modules.values())
    assert listed == len(PUBLIC) - 1


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids=" ".join)
def test_every_subcommand_takes_the_shared_options(command):
    argv = [*command, *SUBCOMMANDS[command]]
    shared = ["--tol-rank", "1e-8", "--tol-eig", "1e-7", "--tol-psd", "1e-6",
              "--out", "o.json"]
    args = _build_parser().parse_args(argv + shared)
    assert (args.tol_rank, args.tol_eig, args.tol_psd, args.out) == (
        1e-8, 1e-7, 1e-6, "o.json"
    )


def test_decompose_has_no_unchecked_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["decompose", str(tmp_path / "ch.json"), "--unchecked"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: chanstruct")
    assert "unrecognized arguments: --unchecked" in err
