"""The public surface: the package exports exactly its modules' ``__all__``,
and every CLI subcommand takes the shared options."""

import dataclasses
import importlib
import pathlib
import re

import numpy as np
import pytest

import chanstruct as cs
from chanstruct.cli import _build_parser, main

MODULES = ["channels", "errors", "linalg", "serialize", "spectral", "structure"]

PUBLIC = {
    "ArgumentError", "Block", "ChanstructError",
    "DEFAULT_TOL", "DecompositionError", "DecompositionReport",
    "ExtractionResult", "FixedPointAlgebra", "FixedSpace",
    "InvariantStateParameters", "KrausChannel", "ParseError",
    "RecurrentSplit", "ReportFile", "Subspace",
    "Tolerance", "ValidationReport", "__version__", "accessible", "apply",
    "apply_adjoint", "block_invariant_state", "build_invariant_state",
    "canonical_dumps", "channel_from_dict",
    "channel_to_dict", "communicates", "decompose", "enclosure_generated",
    "extract_parameters", "fixed_point_algebra_on_R",
    "fixed_space", "from_markov_chain", "from_oqrw", "group_into_blocks",
    "hermitian_span_basis", "is_enclosure", "is_irreducible", "is_state",
    "is_subharmonic", "load_channel", "minimal_enclosures",
    "oqrw_transition_map", "partial_isometry", "peripheral_spectrum",
    "qubit_bloch_form", "recurrent_split",
    "report_file_from_dict", "report_file_from_report", "report_file_to_dict",
    "superoperator", "validate",
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
    assert len(cs.__all__) == len(PUBLIC) == 52
    assert set(cs.__all__) == PUBLIC


def test_each_name_is_its_one_module_object():
    modules = {m: importlib.import_module(f"chanstruct.{m}") for m in MODULES}
    for name in PUBLIC - {"__version__"}:
        owners = [m for m, mod in modules.items() if name in mod.__all__]
        assert len(owners) == 1, (name, owners)
        assert getattr(cs, name) is getattr(modules[owners[0]], name), name
    listed = sum(len(mod.__all__) for mod in modules.values())
    assert listed == len(PUBLIC) - 1


def test_serialize_only_reads_and_writes():
    # what a report's blocks imply (its fixed-space dimension and peripheral
    # spectrum) is derived in chanstruct.structure, so the I/O module binds no
    # function of chanstruct.spectral and none of the channel kernels
    serialize = importlib.import_module("chanstruct.serialize")
    spectral = importlib.import_module("chanstruct.spectral")
    bound = {
        name for name, obj in vars(serialize).items()
        if getattr(obj, "__module__", None) == spectral.__name__ and callable(obj)
    }
    assert not bound, sorted(bound)
    assert not {"_compressions", "_transfer_matrix"} & set(vars(serialize))


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids=" ".join)
def test_every_subcommand_takes_the_shared_options(command):
    argv = [*command, *SUBCOMMANDS[command]]
    shared = ["--tol-rank", "1e-8", "--tol-eig", "1e-7", "--tol-psd", "1e-6",
              "--out", "o.json"]
    args = _build_parser().parse_args(argv + shared)
    assert (args.tol_rank, args.tol_eig, args.tol_psd, args.out) == (
        1e-8, 1e-7, 1e-6, "o.json"
    )


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids=" ".join)
def test_decompose_has_no_unchecked_flag(command, capsys):
    # no subcommand skips a check on load: loading checks the schema only,
    # and the eigenvalue-1 solve checks trace preservation
    with pytest.raises(SystemExit) as info:
        main([*command, *SUBCOMMANDS[command], "--unchecked"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: chanstruct")
    assert "unrecognized arguments: --unchecked" in err


def test_staged_api_reads_the_algebra():
    # the stages after the algebra take no channel, split or tolerance
    ch = cs.KrausChannel([np.eye(2)])
    split = cs.recurrent_split(ch)
    algebra = cs.fixed_point_algebra_on_R(ch)
    encs = cs.minimal_enclosures(algebra)
    _, (pair,) = cs.group_into_blocks(encs, algebra)
    assert algebra.R is split.R and cs.partial_isometry(algebra, *pair).shape == (2, 2)
    rho = cs.block_invariant_state(algebra, pair[0])
    assert np.abs(rho - pair[0].projector()).max() <= 1e-12
    old_forms = [
        lambda: cs.fixed_point_algebra_on_R(ch, split),
        lambda: cs.fixed_point_algebra_on_R(ch, split, cs.DEFAULT_TOL),
        lambda: cs.minimal_enclosures(ch, split, algebra),
        lambda: cs.minimal_enclosures(algebra, tol=cs.DEFAULT_TOL),
        lambda: cs.group_into_blocks(ch, encs, algebra),
        lambda: cs.partial_isometry(ch, algebra, *pair),
        lambda: cs.block_invariant_state(ch, pair[0]),
        lambda: cs.block_invariant_state(ch, pair[0], cs.DEFAULT_TOL),
    ]
    for old_form in old_forms:
        with pytest.raises(TypeError):
            old_form()
    # a channel in the algebra's place: every stage checks its first argument
    stages = [
        lambda: cs.minimal_enclosures(ch),
        lambda: cs.group_into_blocks([], ch),
        lambda: cs.partial_isometry(ch, pair[0], pair[0]),
        lambda: cs.block_invariant_state(ch, pair[0]),
    ]
    for stage in stages:
        with pytest.raises(TypeError, match="algebra must be a FixedPointAlgebra, got"):
            stage()


def test_channel_inputs_take_no_check_knobs(tmp_path):
    # construction and loading check no trace preservation, so they take no
    # unchecked or tol: the eigenvalue-1 solve checks at the analysis tolerance
    kraus = [np.eye(2), np.eye(2)]
    ch = cs.KrausChannel(kraus)
    doc = cs.channel_to_dict(ch)
    path = tmp_path / "ch.json"
    path.write_text(cs.canonical_dumps(doc))
    assert len(cs.channel_from_dict(doc)) == len(cs.load_channel(str(path))) == 2
    old_forms = [
        lambda: cs.KrausChannel(kraus, unchecked=True),
        lambda: cs.KrausChannel(kraus, tol=cs.DEFAULT_TOL),
        lambda: cs.channel_from_dict(doc, unchecked=True),
        lambda: cs.channel_from_dict(doc, tol=cs.DEFAULT_TOL),
        lambda: cs.channel_from_dict(doc, cs.DEFAULT_TOL),
        lambda: cs.load_channel(str(path), unchecked=True),
        lambda: cs.load_channel(str(path), tol=cs.DEFAULT_TOL),
        lambda: cs.load_channel(str(path), cs.DEFAULT_TOL),
    ]
    for old_form in old_forms:
        with pytest.raises(TypeError):
            old_form()


def test_report_consumers_read_the_report():
    # a report is the one source of its dimension, tolerance and fixed-space
    # dimension: none is passed beside it
    ch = cs.KrausChannel([np.eye(2)])
    rep = cs.decompose(ch)
    rf = cs.report_file_from_report(rep)
    assert rep.dim == ch.dim == 2 and rf.fixed_space_dimension == 4
    params = cs.InvariantStateParameters(t=np.zeros(0), M=(np.eye(2) / 2,))
    rho = cs.build_invariant_state(rep, params)
    assert cs.extract_parameters(rep, rho).residual <= 1e-12
    fields = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    assert cs.DecompositionReport(**fields).dim == 2
    old_forms = [
        lambda: cs.build_invariant_state(rep, params, tol=cs.DEFAULT_TOL),
        lambda: cs.extract_parameters(rep, rho, tol=cs.DEFAULT_TOL),
        lambda: cs.DecompositionReport(dim=2, **fields),
        lambda: cs.ReportFile(rep, 4, rf.peripheral_spectrum),
    ]
    for old_form in old_forms:
        with pytest.raises(TypeError):
            old_form()


@pytest.mark.parametrize(
    "call",
    [
        lambda ch, tol: cs.decompose(ch, tol=tol),
        lambda ch, tol: cs.recurrent_split(ch, tol),
        lambda ch, tol: cs.fixed_space(ch, tol),
        lambda ch, tol: cs.fixed_point_algebra_on_R(ch, tol),
        lambda ch, tol: cs.is_irreducible(ch, tol),
        lambda ch, tol: cs.peripheral_spectrum(ch, tol),
        lambda ch, tol: cs.validate(ch, tol),
        lambda ch, tol: cs.enclosure_generated(ch, [1.0, 0.0], tol),
        lambda ch, tol: cs.accessible(ch, [1.0, 0.0], [0.0, 1.0], tol),
        lambda ch, tol: cs.communicates(ch, [1.0, 0.0], [0.0, 1.0], tol),
        lambda ch, tol: cs.is_enclosure(ch, cs.Subspace.full(2), tol),
        lambda ch, tol: cs.is_subharmonic(ch, np.eye(2), tol),
        lambda ch, tol: cs.is_state(np.eye(2) / 2, tol),
        lambda ch, tol: cs.hermitian_span_basis([np.eye(2)], tol),
        lambda ch, tol: cs.Subspace.full(2).contains_vector([1.0, 0.0], tol),
        lambda ch, tol: cs.Subspace.full(2).contains(cs.Subspace.full(2), tol),
        lambda ch, tol: cs.Subspace.full(2).approx_equal(cs.Subspace.full(2), tol),
        lambda ch, tol: cs.from_markov_chain(np.eye(2), tol),
        lambda ch, tol: cs.from_oqrw(cs.oqrw_transition_map(0.3, 0.3, 2), 2, tol),
    ],
    ids=["decompose", "recurrent_split", "fixed_space",
         "fixed_point_algebra_on_R",
         "is_irreducible", "peripheral_spectrum", "validate",
         "enclosure_generated", "accessible", "communicates", "is_enclosure",
         "is_subharmonic", "is_state",
         "hermitian_span_basis", "Subspace.contains_vector", "Subspace.contains",
         "Subspace.approx_equal", "from_markov_chain", "from_oqrw"],
)
@pytest.mark.parametrize("tol", [0.1, None], ids=repr)
def test_tolerance_of_the_wrong_type_is_type_error(call, tol):
    with pytest.raises(TypeError, match="tol must be a Tolerance, got"):
        call(cs.KrausChannel([np.eye(2)]), tol)


def test_site_counts_must_be_non_negative_integers():
    # 4.7 would build a 5-site walk (d = 15), True a 2-site one from a
    # 4-site map, and range(3.5) a bare TypeError
    walk = cs.oqrw_transition_map(0.3, 0.3, 4)
    calls = [
        lambda n: cs.from_oqrw(walk, n),
        lambda n: cs.oqrw_transition_map(0.3, 0.3, n),
    ]
    for call in calls:
        for n in (4.7, 2.5, True, np.bool_(True), -1, 4.0):
            with pytest.raises(cs.ArgumentError, match="num_sites must be an integer >= 0"):
                call(n)
    assert cs.from_oqrw(walk, np.int64(4)).dim == 15
    assert len(cs.oqrw_transition_map(0.3, 0.3, np.int64(2))) == 8


def test_readme_python_block_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    report, alpha, beta = names["report"], names["alpha"], names["beta"]
    assert len(alpha) == len(report.alpha_blocks) == 1 and beta == []
    assert alpha[0].approx_equal(report.alpha_blocks[0].enclosures[0])
    assert names["back"].residual <= 1e-12
    assert np.abs(names["state"] - report.alpha_blocks[0].rho).max() <= 1e-12
