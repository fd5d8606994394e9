"""Reading and writing the JSON schemas of channels and decomposition reports;
what a report's blocks imply is derived in chanstruct.structure.

Complex numbers serialize as two-element ``[re, im]`` arrays, matrices as
row-major nested lists of such pairs.  A channel file
(``chanstruct-channel/4``) stores its Kraus family as one object: ``shape``
[n, d, d], and ``values``, the stored entries of the n x d x d stack in
row-major order, as base64 of little-endian float64 bytes: the real parts
alone when every imaginary part has the bits of +0.0, else (re, im) parts.
An entry is stored when a part has a nonzero bit pattern (so -0.0 survives).
When at most half of the entries are stored, ``index`` lists their
increasing flat positions; otherwise ``index`` is omitted and ``values``
holds the whole stack.  Writers emit version 4; version 3 (16 bytes per
entry), 2 (``values`` a list of ``[re, im]`` pairs) and 1 (``kraus`` a list
of matrices) are still read.  Reading checks the schema, not trace
preservation, which the eigenvalue-1 solve checks.

A report (``chanstruct-report/3``, unchanged by the one block type of
``structure.Block``) embeds its channel and keeps block data in the
coordinates of the enclosures: a one-copy block is an ``alpha_blocks`` entry,
its frame F and the n x n state F^H rho F as ``rho``; a block of two or more
copies is a ``beta_blocks`` entry, the frames F_g = Q_g F_0 aligned by the
intertwiners Q_g and the m x m state on F_0 as ``rho_ref``.  A report without
a ``schema`` entry is read in this layout; a report of any other version is
not read (re-run ``chanstruct decompose`` on its channel).  A real or
imaginary part of an n x k frame below n eps times its largest part is
rounding residue, written as a zero of its sign (``linalg._residue_free``);
R, D and each F_0 are made canonical (``linalg._canonical``) and
F_g = Q_g F_0 without residue, so a report holds the frames it writes.
States and the spectrum are written as computed.  Every matrix part whose
bits are +0.0 is written as the integer 0 (-0.0 keeps its float text), and
the reader takes integers, so reports written with 0.0 zeros and the
earlier 1 eps residue cut still read, and re-serialize by these rules.

``canonical_dumps`` writes compact JSON (without ``indent`` the standard
library encodes in C) with fixed key order and float formatting (shortest
round-trip), so identical objects always produce byte-identical documents
and serialize → parse → serialize is the identity on canonical files.
Whitespace is not part of the schema: indented files parse to the same
objects.
"""

import base64
from dataclasses import dataclass
from itertools import chain
import json
import math

import numpy as np

from .channels import KrausChannel, _dense_stack
from .errors import ArgumentError, DecompositionError, ParseError
from .linalg import Subspace, Tolerance, _residue_free
from .structure import (
    Block,
    DecompositionReport,
    _fixed_dimension,
    _implied_spectrum,
    _verify_blocks,
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

CHANNEL_SCHEMA = "chanstruct-channel/4"
REPORT_SCHEMA = "chanstruct-report/3"
# the layouts (see _layout) of the (embedded) channel's "kraus" in each version
_CHANNEL_LAYOUTS = {
    "chanstruct-channel/1": ("matrices",), "chanstruct-channel/2": ("pairs",),
    "chanstruct-channel/3": ("packed",), CHANNEL_SCHEMA: ("packed",),
}
_REPORT_LAYOUTS = {REPORT_SCHEMA: ("pairs", "packed")}


def canonical_dumps(obj):
    """Canonical JSON text: sorted keys, no whitespace, one trailing newline."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return text + "\n"


def _matrix_to_lists(m):
    """Row-major nested ``[re, im]`` pairs, a part +0.0 as the integer 0; a
    vector gives a list of pairs."""
    m = np.asarray(m, dtype=complex)
    parts = np.stack((m.real, m.imag), axis=-1)
    out = parts.astype(object)
    out[(parts == 0.0) & ~np.signbit(parts)] = 0
    return out.tolist()


def _frame_to_lists(frame):
    """``_matrix_to_lists`` of a frame without its rounding residue
    (``linalg._residue_free``)."""
    return _matrix_to_lists(_residue_free(frame))


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


def _require_list(data, key, where):
    value = _require(data, key, where)
    if not isinstance(value, list):
        raise ParseError(f"{where}: {key!r} must be an array")
    return value


def _layout(kraus_data):
    """A list of matrices, or an object with packed ``values`` (a string) or,
    given any other ``values``, ``[re, im]`` pairs."""
    if isinstance(kraus_data, dict):
        return "packed" if isinstance(kraus_data.get("values"), str) else "pairs"
    return "matrices" if isinstance(kraus_data, list) else None


def _check_schema(data, layouts, kraus_data, where):
    """A ``schema`` entry, when present, must name a known version whose
    layout matches the document's Kraus data."""
    if "schema" not in data:
        return
    schema = data["schema"]
    if not isinstance(schema, str) or schema not in layouts:
        raise ParseError(f"{where}: unknown schema {schema!r}")
    if _layout(kraus_data) not in layouts[schema]:
        raise ParseError(
            f"{where}: schema {schema!r} does not match the layout of 'kraus'"
        )


def _entry_pairs(a):
    """The entries of a complex array as rows of [re, im] pairs, (size, 2)."""
    return np.stack((a.real, a.imag), axis=-1).reshape(-1, 2)


def _kraus_to_dict(ch):
    """The version-4 ``kraus`` object of a channel: the stored entries (a
    part with a nonzero bit pattern) of its n x d x d stack, read off the
    held rows and indexed when they are at most half of the stack, else the
    whole stack, packed into one string: their real parts alone when every
    imaginary part has the bits of +0.0, else (re, im) pairs."""
    n, d = len(ch), ch.dim
    pairs = _entry_pairs(ch._rows)
    bits = pairs.view(np.uint64)
    stored = np.flatnonzero(bits.any(axis=1))
    real = not bits[:, 1].any()
    doc = {"shape": [n, d, d]}
    if 2 * stored.size <= n * d * d:
        doc["index"] = (ch._row_ids[stored // d] * d + stored % d).tolist()
        pairs = pairs[stored]
    elif ch._sparse:
        # the whole stack, which a sparse family holds only part of
        pairs = _entry_pairs(_dense_stack(ch))
    # little-endian float64 bytes, 8 (re) or 16 (re, im) per entry
    parts = pairs[:, 0] if real else pairs
    doc["values"] = base64.b64encode(parts.astype("<f8").tobytes()).decode("ascii")
    return doc


def _kraus_from_dict(data, dim, where, widths=(8, 16)):
    """The nonzero rows of the stacked operators of a ``kraus`` object (/2 to
    /4) and their row ids.  Packed ``values`` hold 16 bytes (re, im) per
    entry, or 8 (re) when their length is 8 per entry of the count ``index``
    (or ``shape``) fixes or no multiple of 16; /3 passes ``widths`` (16,).
    An indexed object allocates the rows holding a stored entry only: memory
    follows the file, not ``shape``."""
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
    index = data.get("index")
    count = len(index) if isinstance(index, list) else size
    values = _require(data, "values", where)
    if isinstance(values, str):
        try:
            raw = base64.b64decode(values, validate=True)
        except ValueError as err:
            raise ParseError(f"{where}: values must be a base64 string") from err
        width = 8 if 8 in widths and (len(raw) == 8 * count or len(raw) % 16) else 16
        if len(raw) % width:
            raise ParseError(
                f"{where}: values hold {len(raw)} bytes, not "
                f"{' or '.join(map(str, widths))} per entry"
            )
        # a native-order, writable copy, which the channel can take rows from
        flat = np.frombuffer(raw, "<f8").astype(float)
        flat = flat.astype(complex) if width == 8 else flat.view(complex)
        if not np.isfinite(flat).all():
            raise ParseError(f"{where}.values: non-finite entry")
    elif isinstance(values, list):
        flat = _matrix_from_lists([values], 1, len(values), f"{where}.values")[0]
    else:
        raise ParseError(f"{where}: values must be a list of [re, im] pairs")
    if "index" not in data:
        if flat.size != size:
            raise ParseError(
                f"{where}: without an index, values must hold all {size} entries"
            )
        return flat.reshape(-1, dim), np.arange(shape[0] * dim)
    if not isinstance(index, list) or len(index) != flat.size:
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


def channel_from_dict(data):
    """Parse a channel document of any schema version (the layout of
    ``kraus`` tells them apart).  Schema faults raise ParseError."""
    where = "channel"
    dim = _require_int(data, "dim", where)
    if dim < 1:
        raise ParseError(f"{where}: dim must be positive")
    kraus_data = _require(data, "kraus", where)
    _check_schema(data, _CHANNEL_LAYOUTS, kraus_data, where)
    if isinstance(kraus_data, dict):
        widths = (16,) if data.get("schema") == "chanstruct-channel/3" else (8, 16)
        rows, row_ids = _kraus_from_dict(kraus_data, dim, f"{where}.kraus", widths)
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
    return KrausChannel._from_rows(rows, row_ids, dim)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: malformed JSON ({err})") from err


def load_channel(path):
    return channel_from_dict(_load_json(path))


@dataclass(frozen=True)
class ReportFile:
    """A decomposition report plus the spectral summary that accompanies it
    on disk.  The fixed-space dimension is the one its blocks imply."""

    report: DecompositionReport
    peripheral_spectrum: tuple

    @property
    def fixed_space_dimension(self):
        return _fixed_dimension(self.report)


def report_file_from_report(report):
    """Attach the peripheral spectrum of the report's channel, which is that
    of the channel on B(R), taken per unordered pair of blocks (see the
    README's numerical policy).  The (i, i) pair is block i's own channel,
    whose peripheral spectrum is the exact p-th roots of unity for its
    certified period p (``spectral._block_eigenvalues``), or the eigenvalues
    of its M_h in the rare case that the period walk finds no start in one
    cyclic subspace, gives up, or fails its certificate.  The walk reads only
    the block's compressed Kraus operators, not its state.  It counts n_i^2
    times.  A pair of blocks of unequal dimension has no peripheral
    eigenvalue; any other (i, j) pair of first copies counts n_i n_j times,
    and the (j, i) pair has the conjugate spectrum: ``structure._implied_spectrum``."""
    return ReportFile(report=report, peripheral_spectrum=_implied_spectrum(report))


def _block_entry(blk, i):
    """The entry of a block, ``i``-th of its kind, in ``alpha_blocks`` (one
    copy) or ``beta_blocks`` (two or more)."""
    frames = [_frame_to_lists(v.frame) for v in blk.enclosures]
    if len(frames) == 1:
        return {"enclosure": frames[0], "rho": _matrix_to_lists(blk.sigma)}
    return {"index": i, "enclosures": frames, "rho_ref": _matrix_to_lists(blk.sigma)}


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
        "recurrent_basis": _frame_to_lists(report.R.frame),
        "transient_basis": _frame_to_lists(report.D.frame),
        "alpha_blocks": [_block_entry(b, i) for i, b in enumerate(report.alpha_blocks)],
        "beta_blocks": [_block_entry(b, i) for i, b in enumerate(report.beta_blocks)],
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


def _blocks_from_lists(data, key, dim):
    """The blocks of a report's ``alpha_blocks`` (a frame ``enclosure`` and
    the state ``rho``) or ``beta_blocks`` (two or more frames ``enclosures``,
    the state ``rho_ref``, and ``index``, the position)."""
    blocks = []
    for i, blk in enumerate(_require_list(data, key, "report")):
        prefix = f"{key}[{i}]"
        if key == "alpha_blocks":
            state_key = "rho"
            frames = [("enclosure", _require(blk, "enclosure", prefix))]
        else:
            listed, state_key = _require_list(blk, "enclosures", prefix), "rho_ref"
            if len(listed) < 2:
                raise ParseError(f"{prefix}: a B-block needs two or more enclosures")
            if _require_int(blk, "index", prefix) != i:
                raise ParseError(f"{prefix}.index: expected {i}, its position")
            frames = [(f"enclosures[{g}]", e) for g, e in enumerate(listed)]
        encs = [_subspace_from_lists(e, dim, f"{prefix}.{k}") for k, e in frames]
        m = encs[0].dimension
        sigma = _matrix_from_lists(
            _require(blk, state_key, prefix), m, m, f"{prefix}.{state_key}"
        )
        for (k, _), enc in zip(frames, encs):
            if enc.dimension != m:
                raise ParseError(
                    f"{prefix}.{k}: {enc.dimension} columns, but {state_key} is "
                    f"{m} x {m}"
                )
        blocks.append(Block(enclosures=tuple(encs), sigma=sigma))
    return blocks


def report_file_from_dict(data, re_verify=True):
    """Parse a ``chanstruct-report/3`` document, checking frames and derived
    fields (``dim`` = the channel's, two or more copies per B-block, its
    ``index`` = position, ``fixed_space_dimension`` = the n_alpha + sum_b
    n_b^2 of ``ReportFile.fixed_space_dimension`` = the count of spectrum
    values at 1, all on |z| = 1, ``recurrent_basis`` the orthocomplement of
    ``transient_basis``) and, with ``re_verify``, the enclosure predicate and
    :func:`_verify_blocks`."""
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
    ch = channel_from_dict(channel_data)
    if ch.dim != dim:
        raise ParseError(f"{where}: channel dimension disagrees with dim")
    tol_data = _require(data, "tolerances", where)
    try:  # no float(): only a JSON number passes Tolerance's range check
        tol = Tolerance(**{
            key: _require(tol_data, key, "tolerances")
            for key in ("rank_tol", "eig_cluster_tol", "psd_tol")
        })
    except (ArgumentError, TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{where}: bad tolerances ({err})") from err
    seed = _require_int(data, "rng_seed", where)
    if seed < 0:
        raise ParseError(f"{where}: rng_seed must be >= 0, got {seed}")
    r_space = _subspace_from_lists(
        _require(data, "recurrent_basis", where), dim, "recurrent_basis"
    )
    d_space = _subspace_from_lists(
        _require(data, "transient_basis", where), dim, "transient_basis"
    )
    blocks = _blocks_from_lists(data, "alpha_blocks", dim)
    blocks += _blocks_from_lists(data, "beta_blocks", dim)
    spectrum = tuple(
        complex(_pair_to_complex(z, f"peripheral_spectrum[{i}]"))
        for i, z in enumerate(_require_list(data, "peripheral_spectrum", where))
    )
    warnings_data = _require_list(data, "warnings", where)
    if not all(isinstance(w, str) for w in warnings_data):
        raise ParseError(f"{where}: warnings must be a list of strings")
    report = DecompositionReport(
        R=r_space,
        D=d_space,
        blocks=tuple(blocks),
        tolerance=tol,
        rng_seed=seed,
        warnings=tuple(warnings_data),
        channel=ch,
    )
    rf = ReportFile(report=report, peripheral_spectrum=spectrum)
    fixed_dim = _require_int(data, "fixed_space_dimension", where)
    if fixed_dim != rf.fixed_space_dimension:
        raise ParseError(
            f"{where}: fixed_space_dimension {fixed_dim} disagrees with the "
            f"{rf.fixed_space_dimension} its blocks imply"
        )
    # R = D^⊥, the span of the blocks when they and D fill C^d (_verify_blocks)
    overlap = np.abs(r_space.frame.conj().T @ d_space.frame).max(initial=0.0)
    if r_space.dimension + d_space.dimension != dim or overlap > tol.eig_cluster_tol:
        raise ParseError(f"{where}: recurrent_basis must complement transient_basis")
    if any(abs(abs(z) - 1.0) > tol.eig_cluster_tol for z in spectrum):
        raise ParseError(f"{where}: peripheral_spectrum has a value off |z| = 1")
    if sum(abs(z - 1.0) <= tol.eig_cluster_tol for z in spectrum) != fixed_dim:
        raise ParseError(f"{where}: peripheral_spectrum needs {fixed_dim} values at 1")
    if re_verify:
        if not all(is_enclosure(ch, v, tol) for b in blocks for v in b.enclosures):
            raise ParseError("report: a stored frame fails the enclosure predicate")
        try:
            _verify_blocks(report)
        except DecompositionError as err:
            raise ParseError(f"report: {err}") from err
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
