"""JSON schemas for channels and decomposition reports.

Complex numbers serialize as two-element ``[re, im]`` arrays, matrices as
row-major nested lists of such pairs.  A channel file
(``chanstruct-channel/2``) stores its Kraus family as one object:
``shape`` [n, d, d], and ``values``, the ``[re, im]`` pairs of the stored
entries of the n x d x d stack in row-major order.  An entry is stored when
either part has a nonzero bit pattern (so -0.0 survives).  When at most half
of the entries are stored, ``index`` lists their increasing flat positions;
otherwise ``index`` is omitted and ``values`` holds the whole stack.  The
older ``chanstruct-channel/1`` layout (``kraus`` a list of matrices) is still
read; writers emit version 2.

A report (``chanstruct-report/3``) embeds its channel and keeps block data in
the coordinates of the enclosures: an A-block's ``rho`` is the n x n state
F^H rho F on its frame F, and a B-block stores the frames F_g = Q_g F_0 of
its copies, aligned by the intertwiners Q_g, and the m x m ``rho_ref`` on
F_0.  A report without a ``schema`` entry is read in this layout; a report
of any other version is not read (re-run ``chanstruct decompose`` on its
channel).

``canonical_dumps`` writes compact JSON (without ``indent`` the standard
library encodes in C) with fixed key order and float formatting (shortest
round-trip), so identical objects always produce byte-identical documents
and serialize → parse → serialize is the identity on canonical files.
Whitespace is not part of the schema: indented files parse to the same
objects.
"""

from dataclasses import dataclass
from itertools import chain
import json
import math

import numpy as np

from .channels import KrausChannel, _compressions, _dense_stack, _transfer_matrix
from .errors import ArgumentError, ParseError
from .linalg import DEFAULT_TOL, Subspace, Tolerance
from .spectral import _block_eigenvalues, _peripheral
from .structure import (
    AlphaBlock,
    BetaBlock,
    DecompositionReport,
    _enclosures,
    _fixed_dimension,
    is_enclosure,
)

__all__ = [
    "ReportFile",
    "canonical_dumps",
    "channel_to_dict",
    "channel_from_dict",
    "load_channel",
    "report_file_from_report",
    "report_file_to_dict",
    "report_file_from_dict",
]

CHANNEL_SCHEMA = "chanstruct-channel/2"
REPORT_SCHEMA = "chanstruct-report/3"
# the JSON type of the (embedded) channel's "kraus" in each known version
_CHANNEL_LAYOUTS = {"chanstruct-channel/1": list, CHANNEL_SCHEMA: dict}
_REPORT_LAYOUTS = {REPORT_SCHEMA: dict}


def canonical_dumps(obj):
    """Canonical JSON text: sorted keys, no whitespace, one trailing newline."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text + "\n"


def _matrix_to_lists(m):
    """Row-major nested ``[re, im]`` pairs; a vector gives a list of pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _pair_to_complex(entry, where):
    pair = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in pair):
        raise ParseError(f"{where}: expected a number or [re, im] pair, got {entry!r}")
    try:
        value = complex(*pair)
    except OverflowError as err:
        raise ParseError(f"{where}: entry out of float range") from err
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"{where}: non-finite entry")
    return value


def _matrix_from_lists(data, rows, cols, where):
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    # One NumPy conversion when every entry is a finite pair of JSON numbers
    # (NumPy alone would also take booleans and numeric strings); viewing
    # (re, im) as complex128 keeps the sign of zero.
    try:
        pairs = np.array(data, dtype=float)
        leaves = chain.from_iterable(chain.from_iterable(data))
        if (
            pairs.shape == (rows, cols, 2)
            and np.isfinite(pairs).all()
            and {int, float}.issuperset(map(type, leaves))
        ):
            return pairs.view(complex)[..., 0]
    except (TypeError, ValueError, OverflowError):
        pass
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _pair_to_complex(entry, f"{where}[{i}][{j}]")
    return out


def _require(data, key, where):
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{where}: missing required key {key!r}")
    return data[key]


def _require_int(data, key, where):
    value = _require(data, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: {key!r} must be an integer")
    return value


def _check_schema(data, layouts, kraus_data, where):
    """A ``schema`` entry, when present, must name a known version whose
    layout matches the type of the document's Kraus data."""
    if "schema" not in data:
        return
    schema = data["schema"]
    if not isinstance(schema, str) or schema not in layouts:
        raise ParseError(f"{where}: unknown schema {schema!r}")
    if not isinstance(kraus_data, layouts[schema]):
        raise ParseError(
            f"{where}: schema {schema!r} does not match the layout of 'kraus'"
        )


def _entry_pairs(a):
    """The entries of a complex array as rows of [re, im] pairs, (size, 2)."""
    return np.stack((a.real, a.imag), axis=-1).reshape(-1, 2)


def _kraus_to_dict(ch):
    """The version-2 ``kraus`` object of a channel: the stored entries (a
    part with a nonzero bit pattern) of its n x d x d stack, read off the
    held rows and indexed when they are at most half of the stack, else the
    whole stack."""
    n, d = len(ch), ch.dim
    pairs = _entry_pairs(ch._rows)
    stored = np.flatnonzero(pairs.view(np.uint64).any(axis=1))
    doc = {"shape": [n, d, d]}
    if 2 * stored.size <= n * d * d:
        doc["index"] = (ch._row_ids[stored // d] * d + stored % d).tolist()
        doc["values"] = pairs[stored].tolist()
    else:
        # the whole stack, which a sparse family holds only part of
        if ch._stack is None:
            pairs = _entry_pairs(_dense_stack(ch))
        doc["values"] = pairs.tolist()
    return doc


def _kraus_from_dict(data, dim, where):
    """The nonzero rows of the stacked operators of a version-2 ``kraus``
    object and their row ids.  An indexed object allocates the rows holding
    a stored entry only: memory follows the file, not ``shape``."""
    shape = _require(data, "shape", where)
    if (
        not isinstance(shape, list)
        or len(shape) != 3
        or not {int}.issuperset(map(type, shape))
        or shape[0] < 1
        or shape[1:] != [dim, dim]
    ):
        raise ParseError(f"{where}: shape must be [n, {dim}, {dim}] with n >= 1")
    size = shape[0] * dim * dim
    if size > np.iinfo(np.int64).max:
        raise ParseError(f"{where}: shape {shape} is too large")
    values = _require(data, "values", where)
    if not isinstance(values, list):
        raise ParseError(f"{where}: values must be a list of [re, im] pairs")
    flat = _matrix_from_lists([values], 1, len(values), f"{where}.values")[0]
    if "index" not in data:
        if len(values) != size:
            raise ParseError(
                f"{where}: without an index, values must hold all {size} entries"
            )
        return flat.reshape(-1, dim), np.arange(shape[0] * dim)
    index = data["index"]
    if not isinstance(index, list) or len(index) != len(values):
        raise ParseError(f"{where}: index and values must have equal lengths")
    if not {int}.issuperset(map(type, index)):
        raise ParseError(f"{where}: index entries must be integers")
    if index and (min(index) < 0 or max(index) >= size):
        raise ParseError(f"{where}: index out of range [0, {size})")
    positions = np.array(index, dtype=np.int64)
    if (np.diff(positions) <= 0).any():
        raise ParseError(f"{where}: index must be strictly increasing")
    row_ids, slot = np.unique(positions // dim, return_inverse=True)
    rows = np.zeros((row_ids.size, dim), dtype=complex)
    rows[slot, positions % dim] = flat
    return rows, row_ids


def channel_to_dict(ch, metadata=None):
    doc = {
        "schema": CHANNEL_SCHEMA,
        "dim": ch.dim,
        "kraus": _kraus_to_dict(ch),
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def channel_from_dict(data, tol=DEFAULT_TOL, unchecked=False):
    """Parse a channel document of either schema version (the layout of
    ``kraus`` tells them apart).  Schema faults raise ParseError; with
    ``unchecked`` false the channel must also pass trace-preservation
    validation."""
    where = "channel"
    dim = _require_int(data, "dim", where)
    if dim < 1:
        raise ParseError(f"{where}: dim must be positive")
    kraus_data = _require(data, "kraus", where)
    _check_schema(data, _CHANNEL_LAYOUTS, kraus_data, where)
    if isinstance(kraus_data, dict):
        rows, row_ids = _kraus_from_dict(kraus_data, dim, f"{where}.kraus")
    elif isinstance(kraus_data, list) and kraus_data:
        rows = np.concatenate([
            _matrix_from_lists(m, dim, dim, f"{where}.kraus[{a}]")
            for a, m in enumerate(kraus_data)
        ])
        row_ids = np.arange(len(rows))
    else:
        raise ParseError(
            f"{where}: kraus must be an object or a nonempty list of matrices"
        )
    metadata = data.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError(f"{where}: metadata must be an object")
    return KrausChannel._from_rows(rows, row_ids, dim, tol=tol, unchecked=unchecked)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: malformed JSON ({err})") from err


def load_channel(path, tol=DEFAULT_TOL, unchecked=False):
    return channel_from_dict(_load_json(path), tol=tol, unchecked=unchecked)


@dataclass(frozen=True)
class ReportFile:
    """A decomposition report plus the spectral summary that accompanies it
    on disk."""

    report: DecompositionReport
    fixed_space_dimension: int
    peripheral_spectrum: tuple


def report_file_from_report(report):
    """Attach the fixed-space dimension n_alpha + sum_b n_b^2 and the
    peripheral spectrum of the report's channel, which is that of the
    channel on B(R), taken per unordered pair of blocks (see the README's
    numerical policy).  The (i, i) pair is block i's own channel, whose
    peripheral spectrum is the exact p-th roots of unity for its certified
    period p (``spectral._block_period``), or the eigenvalues of its M_h
    when the period walk finds no start, gives up, or fails its certificate.
    It counts n_i^2 times.  A pair of blocks of unequal dimension has no
    peripheral eigenvalue; any other (i, j) pair of first copies counts
    n_i n_j times, and the (j, i) pair has the conjugate spectrum."""
    ch = report.channel
    tol = report.tolerance
    # F^H V_a F for the first enclosure F of every block, its state and its
    # copy count
    blocks = [(blk.enclosure.frame, blk.sigma, 1) for blk in report.alpha_blocks] + [
        (blk.enclosures[0].frame, blk.sigma_ref, len(blk.enclosures))
        for blk in report.beta_blocks
    ]
    parts = [(_compressions(ch, f), sigma, n) for f, sigma, n in blocks]
    eigenvalues = []
    for i, (a, sigma, n_i) in enumerate(parts):
        eigenvalues.append(np.tile(_block_eigenvalues(a, sigma, tol), n_i * n_i))
        for b, _, n_j in parts[i + 1:]:
            if b.shape != a.shape:
                continue
            w = np.linalg.eigvals(_transfer_matrix(a, b))
            eigenvalues.append(np.tile(np.concatenate((w, w.conj())), n_i * n_j))
    return ReportFile(
        report=report,
        fixed_space_dimension=_fixed_dimension(report),
        peripheral_spectrum=tuple(_peripheral(np.concatenate(eigenvalues), tol)),
    )


def report_file_to_dict(rf):
    report = rf.report
    tol = report.tolerance
    return {
        "schema": REPORT_SCHEMA,
        "dim": report.dim,
        "channel": channel_to_dict(report.channel),
        "tolerances": {
            "rank_tol": tol.rank_tol,
            "eig_cluster_tol": tol.eig_cluster_tol,
            "psd_tol": tol.psd_tol,
        },
        "rng_seed": report.rng_seed,
        "recurrent_basis": _matrix_to_lists(report.R.frame),
        "transient_basis": _matrix_to_lists(report.D.frame),
        "alpha_blocks": [
            {
                "enclosure": _matrix_to_lists(blk.enclosure.frame),
                "rho": _matrix_to_lists(blk.sigma),
            }
            for blk in report.alpha_blocks
        ],
        "beta_blocks": [
            {
                "index": blk.index,
                "enclosures": [_matrix_to_lists(e.frame) for e in blk.enclosures],
                "rho_ref": _matrix_to_lists(blk.sigma_ref),
            }
            for blk in report.beta_blocks
        ],
        "fixed_space_dimension": rf.fixed_space_dimension,
        "peripheral_spectrum": _matrix_to_lists(rf.peripheral_spectrum),
        "warnings": list(report.warnings),
    }


def _subspace_from_lists(data, dim, where):
    if not isinstance(data, list):
        raise ParseError(f"{where}: expected a matrix")
    cols = len(data[0]) if data and isinstance(data[0], list) else 0
    frame = _matrix_from_lists(data, dim, cols, where)
    try:
        return Subspace(dim, frame)
    except Exception as err:
        raise ParseError(f"{where}: frame is not orthonormal ({err})") from err


def report_file_from_dict(data, re_verify=True):
    """Parse a ``chanstruct-report/3`` document, re-verifying frame
    orthonormality and the enclosure predicate against the embedded
    channel."""
    where = "report"
    dim = _require_int(data, "dim", where)
    schema = data.get("schema", REPORT_SCHEMA)
    if schema != REPORT_SCHEMA:
        raise ParseError(
            f"{where}: unknown schema {schema!r}; re-run `chanstruct decompose` "
            f"on its channel to write a {REPORT_SCHEMA} report"
        )
    channel_data = _require(data, "channel", where)
    _check_schema(
        data, _REPORT_LAYOUTS, _require(channel_data, "kraus", "channel"), where
    )
    ch = channel_from_dict(channel_data, unchecked=True)
    if ch.dim != dim:
        raise ParseError(f"{where}: channel dimension disagrees with dim")
    tol_data = _require(data, "tolerances", where)
    try:
        tol = Tolerance(**{
            key: float(_require(tol_data, key, "tolerances"))
            for key in ("rank_tol", "eig_cluster_tol", "psd_tol")
        })
    except (ArgumentError, TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{where}: bad tolerances ({err})") from err
    seed = _require_int(data, "rng_seed", where)
    r_space = _subspace_from_lists(
        _require(data, "recurrent_basis", where), dim, "recurrent_basis"
    )
    d_space = _subspace_from_lists(
        _require(data, "transient_basis", where), dim, "transient_basis"
    )
    alpha = []
    for i, blk in enumerate(_require(data, "alpha_blocks", where)):
        prefix = f"alpha_blocks[{i}]"
        enc = _subspace_from_lists(
            _require(blk, "enclosure", prefix), dim, f"{prefix}.enclosure"
        )
        k = enc.dimension
        sigma = _matrix_from_lists(_require(blk, "rho", prefix), k, k, f"{prefix}.rho")
        alpha.append(AlphaBlock(enclosure=enc, sigma=sigma))
    beta = []
    for i, blk in enumerate(_require(data, "beta_blocks", where)):
        prefix = f"beta_blocks[{i}]"
        encs = [
            _subspace_from_lists(e, dim, f"{prefix}.enclosures[{g}]")
            for g, e in enumerate(_require(blk, "enclosures", prefix))
        ]
        if not encs:
            raise ParseError(f"{prefix}: enclosures must be nonempty")
        m = encs[0].dimension
        sigma_ref = _matrix_from_lists(
            _require(blk, "rho_ref", prefix), m, m, f"{prefix}.rho_ref"
        )
        for g, enc in enumerate(encs):
            if enc.dimension != len(sigma_ref):
                raise ParseError(
                    f"{prefix}.enclosures[{g}]: {enc.dimension} columns, but "
                    f"rho_ref is {len(sigma_ref)} x {len(sigma_ref)}"
                )
        beta.append(
            BetaBlock(
                index=_require_int(blk, "index", prefix),
                enclosures=tuple(encs),
                sigma_ref=sigma_ref,
            )
        )
    spectrum = tuple(
        complex(_pair_to_complex(z, f"peripheral_spectrum[{i}]"))
        for i, z in enumerate(_require(data, "peripheral_spectrum", where))
    )
    warnings_data = _require(data, "warnings", where)
    if not isinstance(warnings_data, list) or not all(
        isinstance(w, str) for w in warnings_data
    ):
        raise ParseError(f"{where}: warnings must be a list of strings")
    report = DecompositionReport(
        dim=dim,
        R=r_space,
        D=d_space,
        alpha_blocks=tuple(alpha),
        beta_blocks=tuple(beta),
        tolerance=tol,
        rng_seed=seed,
        warnings=tuple(warnings_data),
        channel=ch,
    )
    rf = ReportFile(
        report=report,
        fixed_space_dimension=_require_int(data, "fixed_space_dimension", where),
        peripheral_spectrum=spectrum,
    )
    if re_verify and not all(is_enclosure(ch, v, tol) for v in _enclosures(report)):
        raise ParseError("report: a stored frame fails the enclosure predicate")
    return rf


def validation_to_dict(ch, vr):
    return {
        "dim": ch.dim,
        "kraus_count": len(ch),
        "kraus_sum_deviation": vr.kraus_sum_deviation,
        "spectral_radius": vr.spectral_radius,
        "trace_preserving": vr.trace_preserving,
        "spectral_radius_ok": vr.spectral_radius_ok,
        "passed": vr.passed,
    }
