"""Command-line interface.

Subcommands: ``validate`` (trace-preservation check), ``decompose`` (full
structure report), ``build`` (channel files for classical Markov chains and
truncated open quantum random walks), and ``query`` (enclosure generated by
a vector, irreducibility certificate, fixed points, peripheral spectrum).

All results are canonical JSON on standard output (and optionally ``--out``).
Exit codes: 0 success, 1 domain failure, 2 input/parse failure.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .channels import (
    from_markov_chain,
    from_oqrw,
    oqrw_transition_map,
    validate,
)
from .errors import ChanstructError, DecompositionError, ParseError
from .linalg import Tolerance
from .serialize import (
    _frame_to_lists,
    _load_json,
    _matrix_to_lists,
    _pair_to_complex,
    canonical_dumps,
    channel_to_dict,
    load_channel,
    report_file_from_report,
    report_file_to_dict,
    validation_to_dict,
)
from .spectral import fixed_space, peripheral_spectrum
from .structure import _fixed_dimension, _irreducible, decompose, enclosure_generated

__all__ = ["main"]


def _tolerance(args):
    kwargs = {}
    if args.tol_rank is not None:
        kwargs["rank_tol"] = args.tol_rank
    if args.tol_eig is not None:
        kwargs["eig_cluster_tol"] = args.tol_eig
    if args.tol_psd is not None:
        kwargs["psd_tol"] = args.tol_psd
    return Tolerance(**kwargs)


def _emit(doc, out_path=None):
    text = canonical_dumps(doc)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args):
    tol = _tolerance(args)
    ch = load_channel(args.channel)
    vr = validate(ch, tol)
    _emit(validation_to_dict(ch, vr), args.out)
    return 0 if vr.passed else 1


def cmd_decompose(args):
    tol = _tolerance(args)
    ch = load_channel(args.channel)
    report = decompose(ch, rng_seed=args.seed, tol=tol)
    rf = report_file_from_report(report)
    _emit(report_file_to_dict(rf), args.out)
    return 0


def _load_real_matrix(path):
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise ParseError(f"{path}: expected a nonempty array of rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
        ):
            raise ParseError(f"{path}: row {i} must be an array of numbers")
    try:
        matrix = np.array(data, dtype=float)
    except ValueError as err:
        raise ParseError(f"{path}: ragged matrix ({err})") from err
    except OverflowError as err:
        raise ParseError(f"{path}: entry out of float range") from err
    if not np.isfinite(matrix).all():
        raise ParseError(f"{path}: non-finite entry")
    return matrix


def cmd_build(args):
    tol = _tolerance(args)
    if args.family == "markov":
        matrix = _load_real_matrix(args.matrix)
        ch = from_markov_chain(matrix, tol=tol)
        metadata = {
            "name": "markov",
            "description": f"classical Markov-chain channel on {ch.dim} states",
        }
    else:
        transitions = oqrw_transition_map(args.p, args.q, args.sites)
        ch = from_oqrw(transitions, args.sites, tol=tol)
        metadata = {
            "name": "oqrw",
            "description": (
                f"open quantum random walk, p={args.p}, q={args.q}, "
                f"sites 0..{args.sites}, reflecting truncation"
            ),
        }
    _emit(channel_to_dict(ch, metadata), args.out)
    return 0


def _parse_vector(text, dim):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"--vector: malformed JSON ({err})") from err
    if not isinstance(data, list):
        raise ParseError("--vector: expected a JSON array")
    if len(data) != dim:
        raise ParseError(
            f"--vector: expected length {dim}, got {len(data)}"
        )
    return np.array(
        [_pair_to_complex(z, f"--vector[{i}]") for i, z in enumerate(data)],
        dtype=complex,
    )


def cmd_query(args):
    tol = _tolerance(args)
    ch = load_channel(args.channel)
    if args.what == "enclosure":
        vector = _parse_vector(args.vector, ch.dim)
        space = enclosure_generated(ch, vector, tol)
        doc = {
            "dimension": space.dimension,
            "frame": _frame_to_lists(space.frame),
        }
    elif args.what == "irreducible":
        report = decompose(ch, tol=tol)
        irreducible = _irreducible(report)
        doc = {
            "irreducible": irreducible,
            "certificate": {
                "eigenvalue_1_multiplicity": _fixed_dimension(report),
                "invariant_state_rank": report.R.dimension,
                "simple_and_faithful": irreducible,
            },
        }
    elif args.what == "fixed-points":
        fs = fixed_space(ch, tol)
        doc = {
            "dimension": fs.dimension,
            "hermitian_basis": [_matrix_to_lists(h) for h in fs.hermitian_basis],
        }
    else:
        spectrum = peripheral_spectrum(ch, tol)
        doc = {"peripheral_spectrum": _matrix_to_lists(spectrum)}
    _emit(doc, args.out)
    return 0


@functools.cache
def _build_parser():
    # built once per process (about 2 ms); parsing does not change it
    # options every subcommand takes, and the channel file most of them read
    common = argparse.ArgumentParser(add_help=False)
    for flag, help_text in (
        ("--tol-rank", "relative singular-value cutoff for rank decisions"),
        ("--tol-eig", "trace-preservation, fixed-point and cluster cut; 10X cuts Hermiticity"),
        ("--tol-psd", "PSD slack, the Markov zero and the reflecting rule's zero"),
    ):
        common.add_argument(
            flag, type=float, default=None, metavar="X", help=help_text
        )
    common.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON output to this file",
    )
    channel = argparse.ArgumentParser(add_help=False, parents=[common])
    channel.add_argument("channel", help="channel JSON file")

    parser = argparse.ArgumentParser(
        prog="chanstruct",
        description="Structure analysis of quantum channels in Kraus form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "validate", parents=[channel], help="check trace preservation"
    ).set_defaults(func=cmd_validate)

    p_dec = sub.add_parser(
        "decompose", parents=[channel], help="full structure report"
    )
    p_dec.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_dec.set_defaults(func=cmd_decompose)

    p_build = sub.add_parser("build", help="construct channel files")
    family = p_build.add_subparsers(dest="family", required=True)
    p_markov = family.add_parser(
        "markov", parents=[common], help="classical Markov-chain channel"
    )
    p_markov.add_argument(
        "--matrix", required=True,
        help="JSON file with a column-stochastic matrix",
    )
    p_markov.set_defaults(func=cmd_build, family="markov")
    p_oqrw = family.add_parser(
        "oqrw", parents=[common], help="truncated open quantum random walk"
    )
    p_oqrw.add_argument("--p", type=float, required=True, help="hop-up probability")
    p_oqrw.add_argument("--q", type=float, required=True, help="boundary-lane rate")
    p_oqrw.add_argument(
        "--sites", type=int, required=True,
        help="last retained site index N (sites 0..N)",
    )
    p_oqrw.set_defaults(func=cmd_build, family="oqrw")

    p_query = sub.add_parser("query", help="single-object queries")
    what = p_query.add_subparsers(dest="what", required=True)
    specs = {
        "enclosure": "smallest enclosure containing a vector",
        "irreducible": "irreducibility certificate",
        "fixed-points": "Hermitian basis of the fixed points",
        "spectrum": "peripheral eigenvalues of the superoperator",
    }
    for name, help_text in specs.items():
        p_what = what.add_parser(name, parents=[channel], help=help_text)
        if name == "enclosure":
            p_what.add_argument(
                "--vector", required=True,
                help="JSON array; entries are numbers or [re, im] pairs",
            )
        p_what.set_defaults(func=cmd_query, what=name)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChanstructError as err:
        error = {"type": type(err).__name__, "message": str(err)}
        if isinstance(err, DecompositionError):
            error["stage"] = err.stage
            if err.diagnostics:
                error["diagnostics"] = err.diagnostics
        _emit({"error": error})
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, ParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
