"""Spans recorded from outside the program, by wrapping public functions.

A span is (name, start, end, parent).  Spans live in memory and are written
out when the run ends.  A layer's self time is its span's duration minus the
part its child spans cover; calls are single-threaded, so children never
overlap and that part is the sum of their durations.
"""

import contextlib
import functools
import importlib
import json
import sys
import time

# (module, attribute, span name).  A chanstruct function is replaced in every
# chanstruct module namespace that binds it, so calls between modules are
# seen too.  The numpy/scipy entry points are replaced on their own module,
# where the program looks them up at call time.
PROGRAM_TARGETS = (
    ("chanstruct.cli", "main", "cli.main"),
    ("chanstruct.serialize", "load_channel", "serialize.load_channel"),
    ("chanstruct.serialize", "report_file_from_report", "serialize.report_extras"),
    ("chanstruct.serialize", "report_file_to_dict", "serialize.to_dict"),
    ("chanstruct.serialize", "validation_to_dict", "serialize.to_dict"),
    ("chanstruct.serialize", "canonical_dumps", "serialize.dumps"),
    ("chanstruct.spectral", "recurrent_split", "spectral.recurrent_split"),
    ("chanstruct.spectral", "fixed_space", "spectral.fixed_space"),
    ("chanstruct.spectral", "peripheral_spectrum", "spectral.peripheral_spectrum"),
    ("chanstruct.channels", "validate", "channels.validate"),
    ("chanstruct.channels", "apply", "channels.apply"),
    ("chanstruct.channels", "apply_adjoint", "channels.apply"),
    ("chanstruct.channels", "superoperator", "channels.superoperator"),
    ("chanstruct.structure", "decompose", "structure.decompose"),
    ("chanstruct.structure", "fixed_point_algebra_on_R", "structure.fixed_point_algebra"),
    ("chanstruct.structure", "minimal_enclosures", "structure.minimal_enclosures"),
    ("chanstruct.structure", "group_into_blocks", "structure.group_into_blocks"),
    ("chanstruct.structure", "block_invariant_state", "structure.block_states"),
    ("chanstruct.structure", "partial_isometry", "structure.partial_isometry"),
    ("chanstruct.structure", "build_invariant_state", "structure.parametrize"),
    ("chanstruct.structure", "extract_parameters", "structure.parametrize"),
    ("chanstruct.linalg", "hermitian_span_basis", "linalg.hermitian_span_basis"),
)
KERNEL_TARGETS = (
    ("numpy.linalg", "svd", "kernel.svd"),
    ("numpy.linalg", "eigvals", "kernel.eigvals"),
    ("scipy.linalg", "lu_factor", "kernel.lu"),
    ("scipy.sparse.linalg", "splu", "kernel.lu"),
    ("scipy.sparse.linalg", "eigs", "kernel.eigs"),
)


class Tracer:
    """In-memory span recorder with side counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outermost of its name]
        self.counts = {}
        self.maxima = {}
        self._stack = []
        self._open = {}

    def _enter(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               not self._open.get(name)]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._open[name] = self._open.get(name, 0) + 1
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()
        self._open[rec[0]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(rec)

        return traced

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def observe_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost spans only)
        and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, outer), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["self"] += end - start - covered
            if outer:
                agg["incl"] += end - start
        return out

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _counting_eigs(tracer, eigs):
    import scipy.sparse.linalg as spla

    traced = tracer.wrap(eigs, "kernel.eigs")

    @functools.wraps(eigs)
    def wrapper(A, *args, **kwargs):
        if isinstance(A, spla.LinearOperator) and kwargs.get("sigma") is None:
            inner = A

            def matvec(x):
                tracer.count("kernel.eigs_matvecs")
                return inner.matvec(x)

            A = spla.LinearOperator(inner.shape, matvec=matvec, dtype=inner.dtype)
        return traced(A, *args, **kwargs)

    return wrapper


def _sized_svd(tracer, svd):
    traced = tracer.wrap(svd, "kernel.svd")

    @functools.wraps(svd)
    def wrapper(a, *args, **kwargs):
        tracer.observe_max("kernel.svd_max_n", max(getattr(a, "shape", (0,))[-2:]))
        return traced(a, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(tracer):
    """Install span wrappers for the duration of the block."""
    import chanstruct  # noqa: F401  (loads every chanstruct module)

    patches = []
    modules = [
        m for n, m in list(sys.modules.items())
        if n == "chanstruct" or n.startswith("chanstruct.")
    ]
    for modname, attr, name in PROGRAM_TARGETS:
        original = getattr(importlib.import_module(modname), attr)
        wrapped = tracer.wrap(original, name)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)
    for modname, attr, name in KERNEL_TARGETS:
        mod = importlib.import_module(modname)
        original = getattr(mod, attr)
        if attr == "eigs":
            wrapped = _counting_eigs(tracer, original)
        elif attr == "svd":
            wrapped = _sized_svd(tracer, original)
        else:
            wrapped = tracer.wrap(original, name)
        patches.append((mod, attr, original))
        setattr(mod, attr, wrapped)
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


def layer_metrics(tracer, decompose_s):
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json.

    Layers that some workload never enters (the LU and Arnoldi kernels, the
    partial isometries of B-blocks) are given as shares of the pass's
    ``decompose_s``, so that no time reads exactly 0 s on every run."""
    s = tracer.summary()

    def incl(name):
        return s.get(name, {}).get("incl", 0.0)

    def self_s(name):
        return s.get(name, {}).get("self", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    return {
        "cli.self_s": self_s("cli.main"),
        "serialize.load_channel_s": incl("serialize.load_channel"),
        "serialize.report_extras_s": incl("serialize.report_extras"),
        "serialize.to_dict_s": incl("serialize.to_dict"),
        "serialize.dumps_s": incl("serialize.dumps"),
        "serialize.parse_s": incl("serialize.parse"),
        "spectral.recurrent_split_s": incl("spectral.recurrent_split"),
        "spectral.recurrent_split_calls": calls("spectral.recurrent_split"),
        "spectral.fixed_space_s": incl("spectral.fixed_space"),
        "spectral.fixed_space_calls": calls("spectral.fixed_space"),
        "spectral.peripheral_spectrum_s": incl("spectral.peripheral_spectrum"),
        "spectral.peripheral_spectrum_calls": calls("spectral.peripheral_spectrum"),
        "kernel.svd_calls": calls("kernel.svd"),
        "kernel.svd_s": incl("kernel.svd"),
        "kernel.svd_max_n": tracer.maxima.get("kernel.svd_max_n", 0),
        "kernel.eigvals_calls": calls("kernel.eigvals"),
        "kernel.eigvals_s": incl("kernel.eigvals"),
        "kernel.lu_calls": calls("kernel.lu"),
        "kernel.lu_frac": incl("kernel.lu") / decompose_s,
        "kernel.eigs_calls": calls("kernel.eigs"),
        "kernel.eigs_frac": incl("kernel.eigs") / decompose_s,
        "kernel.eigs_matvecs": tracer.counts.get("kernel.eigs_matvecs", 0),
        "channels.validate_s": incl("channels.validate"),
        "channels.apply_calls": calls("channels.apply"),
        "channels.apply_s": incl("channels.apply"),
        "channels.superoperator_s": incl("channels.superoperator"),
        "structure.fixed_point_algebra_s": incl("structure.fixed_point_algebra"),
        "structure.minimal_enclosures_s": incl("structure.minimal_enclosures"),
        "structure.group_into_blocks_s": incl("structure.group_into_blocks"),
        "structure.block_states_calls": calls("structure.block_states"),
        "structure.block_states_s": incl("structure.block_states"),
        "structure.partial_isometry_frac": incl("structure.partial_isometry") / decompose_s,
        "structure.verify_s": self_s("structure.decompose"),
        "structure.parametrize_s": incl("structure.parametrize"),
        "linalg.hermitian_span_basis_s": incl("linalg.hermitian_span_basis"),
    }
