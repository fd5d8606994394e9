#!/usr/bin/env python3
"""chanstruct benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports chanstruct from its
``src`` directory.  The run generates the workload's channel ladder from the
seed, then repeats passes over it for about S seconds (at least two).  A
pass runs, for every channel, CLI ``decompose`` (channel file to report
file), CLI ``validate`` and the read path (report parse with re-verify,
then parameter build/extract on seeded invariant states), and checks every
output against an independent truth.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the details: environment, ladder, per-pass samples,
report digests and failures.  See bench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
# Leave room under the 180 s a run may take for the single-thread pass.
HARD_LIMIT_S = 170.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--single-thread-pass", action="store_true",
        help="one traced pass at 1 BLAS thread (the traced run starts this in "
        "a child process)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _nproc():
    return len(os.sched_getaffinity(0))


def _median_tail(values):
    """Median, the highest percentile with at least ten samples beyond it
    (the maximum while fewer than eleven samples exist), and the count."""
    n = len(values)
    ordered = sorted(values)
    if n >= 11:
        tail = {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    else:
        tail = {"percentile": 100, "value": ordered[-1]}
    return {"median": statistics.median(values), "tail": tail, "n": n}


def _environment(threads, args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": _nproc(),
        "blas_vendor": vendor,
        "blas_threads": threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "workload": args.workload,
    }


class Pass:
    """Timings, outputs and failures of one pass over a ladder."""

    def __init__(self, tracer, n_validate, n_readback):
        self.tracer = tracer
        self.layers = None
        self.decompose_s = 0.0
        self.validate_sweeps = [0.0] * n_validate
        self.readback_sweeps = [0.0] * n_readback
        self.wall_s = 0.0
        self.report_bytes = 0
        self.channel_chars = 0
        self.content_chars = 0
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def op(self, label, fn):
        """Run one operation; an exception or a non-empty list of mismatch
        messages is that operation's failure, and the pass goes on."""
        self.attempted += 1
        try:
            errors = fn()
        except Exception as err:  # noqa: BLE001 - counted, not fatal
            errors = [f"{type(err).__name__}: {err}"]
        if errors:
            self.failures.append(f"{label}: {'; '.join(errors)}")


def _compact_len(obj):
    return len(json.dumps(obj, separators=(",", ":")))


def run_pass(rungs, seed, workdir, tracer=None, sweeps=(1, 1), redo=None):
    """One pass: per channel, CLI decompose once, then ``sweeps`` = (n, m)
    sweeps of CLI validate and of the read path (one each when traced, so
    per-layer numbers cover one sweep), then the truth check.  The channel
    at index ``redo`` is decomposed a second time, untimed, and both reports
    must be the same bytes."""
    import numpy as np

    import chanstruct as cs
    import oracles
    from tracing import instrumented, layer_metrics
    from workloads import run_cli

    n_validate, n_readback = (1, 1) if tracer else sweeps
    p = Pass(tracer, n_validate, n_readback)
    hooks = (lambda: instrumented(tracer)) if tracer else contextlib.nullcontext
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    stdout_path = os.path.join(workdir, "cli.stdout")
    t_pass = time.perf_counter()
    for idx, rung in enumerate(rungs):
        read = {}

        def decompose():
            with contextlib.suppress(FileNotFoundError):
                os.remove(rung.report_path)
            t0 = time.perf_counter()
            with hooks():
                code = run_cli(["decompose", rung.channel_path, "--out", rung.report_path],
                            stdout_path)
            p.decompose_s += time.perf_counter() - t0
            with open(rung.report_path, "rb") as fh:
                data = fh.read()
            p.report_bytes += len(data)
            p.digests[rung.name] = hashlib.sha256(data).hexdigest()
            return [] if code == 0 else [f"exit code {code}"]

        def decompose_again():
            again = rung.report_path + ".again"
            code = run_cli(["decompose", rung.channel_path, "--out", again], stdout_path)
            with open(again, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if code != 0 or digest != p.digests.get(rung.name):
                return [f"second decompose gave other bytes (exit code {code})"]
            return []

        def validate(k):
            t0 = time.perf_counter()
            with hooks():
                code = run_cli(["validate", rung.channel_path], stdout_path)
            p.validate_sweeps[k] += time.perf_counter() - t0
            with open(stdout_path, encoding="utf-8") as fh:
                passed = json.load(fh).get("passed")
            return [] if code == 0 and passed is True else [
                f"exit code {code}, passed={passed}"
            ]

        def readback(k):
            rng = np.random.default_rng([seed, idx, 7])
            t0 = time.perf_counter()
            with hooks():
                with open(rung.report_path, encoding="utf-8") as fh:
                    text = fh.read()
                with span("serialize.parse"):
                    doc = json.loads(text)
                    rf = cs.report_file_from_dict(doc, re_verify=True)
                results = []
                for _ in range(2):
                    params = oracles.invariant_parameters(rf.report, rng)
                    rho = cs.build_invariant_state(rf.report, params)
                    results.append((params, cs.extract_parameters(rf.report, rho)))
            p.readback_sweeps[k] += time.perf_counter() - t0
            read["doc"] = doc
            errors = []
            for sent, result in results:
                errors += oracles.check_round_trip(sent, result)
            return errors

        def truth():
            if "doc" not in read:
                return ["report was not read back"]
            if tracer:
                p.channel_chars += _compact_len(read["doc"]["channel"])
                p.content_chars += _compact_len(read["doc"])
            return oracles.check_report(rung, read["doc"])

        p.op(f"{rung.name} decompose", decompose)
        if idx == redo:
            p.op(f"{rung.name} determinism", decompose_again)
        for k in range(n_validate):
            p.op(f"{rung.name} validate", lambda k=k: validate(k))
        for k in range(n_readback):
            p.op(f"{rung.name} readback", lambda k=k: readback(k))
        p.op(f"{rung.name} truth", truth)
    p.wall_s = time.perf_counter() - t_pass
    if tracer:
        p.layers = layer_metrics(tracer, p.decompose_s)
        p.layers["serialize.channel_bytes_frac"] = p.channel_chars / max(1, p.content_chars)
    return p


def _measure(args, rungs, deadline):
    """A fixed number of passes over the ladder, sized so that the run
    measures about ``args.seconds`` (see PASS_SECONDS); at least one, and at
    least two in a traced run, which alternates untraced and traced passes.
    A fixed count keeps the work, and so the peak RSS, the same from run to
    run."""
    from tracing import Tracer
    from workloads import PASS_SECONDS, SWEEPS

    workdir = os.path.dirname(rungs[0].report_path)
    count = max(2 if args.trace else 1, int(args.seconds // PASS_SECONDS[args.workload]))
    reserve = 60.0 if args.trace else 0.0  # for the single-thread pass
    passes = []
    for i in range(count):
        tracer = Tracer() if args.trace and i % 2 == 1 else None
        passes.append(run_pass(rungs, args.seed, workdir, tracer, SWEEPS[args.workload],
                               redo=i % len(rungs)))
        longest = max(q.wall_s for q in passes)
        if time.perf_counter() + longest > deadline - reserve and len(passes) >= 2:
            break
    return passes


def _single_thread_child(args, rungs):
    """One traced pass; prints its per-layer metrics and digests."""
    from tracing import Tracer

    p = run_pass(rungs, args.seed, os.path.dirname(rungs[0].report_path), Tracer())
    metrics = dict(p.layers, decompose_s=p.decompose_s,
                   validate_s=p.validate_sweeps[0], readback_s=p.readback_sweeps[0])
    print(json.dumps({"failures": p.failures, "metrics": metrics,
                      "report_sha256": p.digests}))


def _single_thread_pass(args, deadline):
    """Run the informational single-thread traced pass in a child process
    (the BLAS pool size is fixed when numpy loads).  Returns (result, error)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--single-thread-pass",
    ]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(5.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return None, "single-thread pass timed out"
    if out.returncode != 0:
        return None, f"single-thread pass exited {out.returncode}: {out.stderr[-300:]}"
    return json.loads(out.stdout.strip().splitlines()[-1]), None


def _traced_metrics(args, passes, deadline, detail, failures):
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    metrics = {
        key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers
    }
    traced_dec = statistics.median(p.decompose_s for p in traced)
    untraced_dec = statistics.median(p.decompose_s for p in untraced)
    metrics["trace.decompose_s"] = traced_dec
    metrics["trace.untraced_decompose_s"] = untraced_dec
    metrics["trace.overhead_frac"] = traced_dec / untraced_dec - 1.0

    single, err = _single_thread_pass(args, deadline)
    if err:
        failures.append(err)
    else:
        if single["failures"]:
            failures.append("single-thread pass: " + "; ".join(single["failures"][:5]))
        # Digests are compared only at one thread count: the last digits of
        # a report depend on the BLAS reduction order.
        detail["report_sha256_blas1"] = single["report_sha256"]
    for key in [k for k in metrics if k.endswith("_s") and not k.startswith("trace.")] + [
        "decompose_s", "validate_s", "readback_s"
    ]:
        metrics["blas1." + key] = single["metrics"][key] if single else 0.0

    spans_path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.jsonl")
    traced[-1].tracer.write(
        spans_path, {"workload": args.workload, "seed": args.seed, "pass": "last traced"}
    )
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics


def main(argv=None):
    t_process = time.perf_counter()
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chanstruct", "__init__.py")):
        print(f"error: no chanstruct sources under {SRC}", file=sys.stderr)
        return 2
    threads = 1 if args.single_thread_pass else _nproc()
    # OpenBLAS sizes its thread pool when numpy loads, so nothing may import
    # numpy before this point: numpy, chanstruct and the bench modules are
    # imported below or inside functions.
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was set")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import chanstruct
    import chanstruct.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if not os.path.abspath(chanstruct.__file__).startswith(SRC + os.sep):
        print(f"error: chanstruct imported from {chanstruct.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build_ladder, build_warmup

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        # Lazy imports inside the program run here, not in the first pass
        # and not in the timed set-up.
        run_pass(build_warmup(os.path.join(workdir, "warmup")), 0,
                 os.path.join(workdir, "warmup"))
        ladder_s = []
        for _ in range(1 if args.single_thread_pass else SETUP_REPEATS):
            t1 = time.perf_counter()
            rungs = build_ladder(args.workload, args.seed, workdir)
            ladder_s.append(time.perf_counter() - t1)
        if args.single_thread_pass:
            _single_thread_child(args, rungs)
            return 0

        deadline = t_process + HARD_LIMIT_S
        passes = _measure(args, rungs, deadline)
        failures = [f for p in passes for f in p.failures]
        attempted = sum(p.attempted for p in passes)
        first = passes[0].digests
        for p in passes[1:]:
            for rung in rungs:
                attempted += 1
                if first.get(rung.name) is None or p.digests.get(rung.name) != first[rung.name]:
                    failures.append(f"{rung.name}: report bytes differ between passes")

        untraced = [p for p in passes if p.tracer is None]
        timings = {
            "decompose_s": _median_tail([p.decompose_s for p in untraced]),
            "validate_s": _median_tail([t for p in untraced for t in p.validate_sweeps]),
            "readback_s": _median_tail([t for p in untraced for t in p.readback_sweeps]),
            "pass_wall_s": _median_tail([p.wall_s for p in untraced]),
        }
        detail = {
            "environment": _environment(threads, args),
            "ladder": [{"name": r.name, "d": r.dim, "kraus": r.n_kraus} for r in rungs],
            "setup": {"import_s": import_s, "ladder_s": ladder_s},
            "passes": timings,
            "report_sha256": first,
        }
        if args.trace:
            metrics = _traced_metrics(args, passes, deadline, detail, failures)
            metrics["validate_s"] = timings["validate_s"]["median"]
            metrics["readback_s"] = timings["readback_s"]["median"]
            attempted += 1
        else:
            metrics = {
                "decompose_s": timings["decompose_s"]["median"],
                "setup_s": import_s + statistics.median(ladder_s),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "report_mb": statistics.median(p.report_bytes for p in passes) / 1e6,
                "ok_frac": 1.0 - len(failures) / attempted,
            }
        detail.update(attempted=attempted, failed=len(failures),
                      failed_frac=len(failures) / attempted, failures=failures[:20])
        print(json.dumps({"detail": detail}))
        units = _units()
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
