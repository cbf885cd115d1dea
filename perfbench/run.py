#!/usr/bin/env python3
"""freeprod benchmark: four workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload oracle --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-test

Workloads (see ``gen.py`` for the exact op mix):

* ``analyze``    -- ``analyze`` (json and text) over generated problems, finite
  and infinite, 2-30 factors, flat factors with hundreds of tuples; refusals
  that must exit 1 with one ``error:`` line; a share of ``conjecture`` checks.
  Parsing, normalizing, the tuple walkers and report rendering carry the load.
* ``ideals``     -- ``ideals`` on problems with a chosen number of summands and
  characters: lattices of 2^4 to about 2^15 ideals.  Lattice enumeration and
  serialization dominate time and memory.
* ``oracle``     -- per distinct (alpha, beta): ``moments --max-n 8
  --compare-law``, ``two-proj`` and ``certify_law``.  The exact n=8 moment
  recursion dominates; ``rmt`` and ``engine`` are never touched.
* ``montecarlo`` -- ``mc`` at dims 128-512 with dim*trials = 2048, a third of
  the ops with ``--eig-csv``.  Haar QR plus ``eigvalsh`` dominate at large dim,
  KS and Python overhead at small dim.

Ops are run in one process through ``freeprod.cli.run(argv)`` with stdout and
stderr captured, in a closed loop (next op after the previous one returns),
until the ops' timed wall time reaches ``--seconds`` and then to the end of
the current cycle of op slots, so that every run has the stated mix.  Latency
is the wall time of an op's calls; ops/s is the median over the run's cycles
of a cycle's ops over their summed latency, which a burst of load from
outside the process moves less than one whole-run ratio.
Every op's output is
checked (``checks.py``); a failed check, an unexpected exit code or an
uncaught exception counts as a failed op.  Once per run, outside the timed
loop, a negative control must make the Monte Carlo check fail.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays a fixed
number of ops (whole cycles, about ``TRACE_OPS_PER_SECOND * --seconds``, so
the counts repeat exactly for a seed) through the library with spans (``tracing.py``) and prints
the per-layer metrics.  Both print a human-readable table, write a manifest
(and, traced, the spans) under ``.perfbench-out/``, and end with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

The BLAS thread count is pinned to 1 (see ``BLAS_THREADS``) and recorded;
``FREEPROD_THREADS`` is left at its default of 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("analyze", "ideals", "oracle", "montecarlo")

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 9

#: Traced ops per second of --seconds.  A traced op runs three times (cli.run,
#: traced replay, plain replay), so these are about a third of the untraced
#: rates on a 2-core x86 box.
TRACE_OPS_PER_SECOND = {"analyze": 80.0, "ideals": 2.0, "oracle": 4.0, "montecarlo": 0.6}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: One BLAS thread.  On a shared 2-core x86 box, two OpenBLAS threads gave no
#: speed-up on the 128-512 QR and eigvalsh calls here, but a 256x256 complex
#: QR took 1-3 s instead of 10-20 ms whenever the second core was busy
#: (the threads spin-wait for each other).
BLAS_THREADS = 1

WORKED = {
    "factors": [
        {"name": "A", "atoms": [{"label": "p1", "mass": "3/5"},
                                {"label": "p2", "mass": "3/10"},
                                {"label": "p3", "mass": "1/10"}]},
        {"name": "B", "atoms": [{"label": "q1", "mass": "2/5"},
                                {"label": "q2", "mass": "3/5"}]},
    ]
}

END_TO_END_UNITS = {"ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


class ProgramMissing(Exception):
    pass


def pin_threads() -> int:
    """Pin BLAS threads before numpy can be imported; drop FREEPROD_THREADS."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    os.environ.pop("FREEPROD_THREADS", None)
    return threads


def locate_program() -> None:
    if not (SRC / "freeprod" / "cli.py").is_file():
        raise ProgramMissing(f"freeprod sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def check_import_origin() -> None:
    import freeprod

    origin = Path(freeprod.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"imported freeprod from {origin}, not from {SRC}")


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def run_cli(argv: list) -> tuple:
    """cli.run(argv) with stdout/stderr captured: (exit code, out, err)."""
    from freeprod import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught exception is a failed op, not a crash
            rc = "traceback"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Workdir:
    """Where a run writes its input files and CSV outputs."""

    def __init__(self, tag: str):
        self.path = WORK_DIR / f"{tag}-{os.getpid()}"
        self.path.mkdir(parents=True, exist_ok=True)

    def materialize(self, op) -> dict:
        paths = {}
        for name in op.files:
            p = self.path / name
            if not p.exists():
                p.write_bytes(op.file_bytes(name))
            paths["@" + name] = str(p)
        if op.expect.get("csv"):
            paths["@" + op.expect["csv"]] = str(self.path / op.expect["csv"])
        return paths

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def _argv(argv: list, paths: dict) -> list:
    return [paths.get(a, a) for a in argv]


def execute(op, paths: dict) -> tuple:
    """Run one op; returns (seconds, cli seconds, results, certify result)."""
    from freeprod.twoproj import certify_law

    results = []
    t0 = time.perf_counter()
    for argv in op.argvs:
        results.append(run_cli(_argv(argv, paths)))
    t1 = time.perf_counter()
    worst = None
    if op.kind == "oracle":
        from fractions import Fraction

        try:
            worst = certify_law(Fraction(op.expect["alpha"]), Fraction(op.expect["beta"]))
        except Exception as exc:  # a raised DomainError fails the op's check
            worst = exc
    t2 = time.perf_counter()
    return t2 - t0, t1 - t0, results, worst


def check(op, results, worst, paths: dict) -> str | None:
    """None if the op's outputs are right, else the reason."""
    try:
        if op.kind == "analyze":
            checks.check_analyze(op, results)
        elif op.kind == "refuse":
            checks.check_refuse(op, results)
        elif op.kind == "conjecture":
            checks.check_conjecture(op, results)
        elif op.kind == "ideals":
            checks.check_ideals(op, results)
        elif op.kind == "oracle":
            if isinstance(worst, Exception):
                raise checks.Bad(f"certify_law raised {worst!r}")
            checks.check_oracle(op, results, worst)
        else:
            csv = paths.get("@" + op.expect["csv"]) if op.expect["csv"] else None
            rows = checks.count_csv_rows(csv) if csv and os.path.exists(csv) else None
            checks.check_mc(op, results, rows)
    except checks.Bad as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    finally:
        if op.kind == "mc" and op.expect["csv"]:
            with contextlib.suppress(OSError):
                os.remove(paths["@" + op.expect["csv"]])
    return None


# ---------------------------------------------------------------------------
# Set-up: imports plus warm-up, in fresh interpreters
# ---------------------------------------------------------------------------

def warm_up(workload: str, work: Workdir) -> None:
    """The warm-up the program needs before steady state: one op of each
    kind on fixed inputs (for montecarlo one at the largest dim)."""
    path = work.path / "warmup.json"
    path.write_text(json.dumps(WORKED))
    if workload == "analyze":
        run_cli(["analyze", str(path), "--format", "json"])
        run_cli(["analyze", str(path), "--format", "text"])
        conj = work.path / "warmup-conj.json"
        conj.write_text(json.dumps({"X": WORKED["factors"][0], "Y": WORKED["factors"][1]}))
        run_cli(["conjecture", "--kind", "abelian", str(conj)])
    elif workload == "ideals":
        run_cli(["ideals", str(path), "--format", "json"])
    elif workload == "oracle":
        from fractions import Fraction

        from freeprod.twoproj import certify_law

        run_cli(["moments", "--alpha", "7/10", "--beta", "3/5", "--compare-law",
                 "--format", "json"])
        run_cli(["two-proj", "--alpha", "7/10", "--beta", "3/5", "--format", "json"])
        certify_law(Fraction(7, 10), Fraction(3, 5))
    else:
        dim = max(d for d, _ in gen.MC_SIZES)
        run_cli(["mc", "--alpha", "7/10", "--beta", "3/5", "--dim", str(dim), "--trials", "1"])
        run_cli(["mc", "--alpha", "7/10", "--beta", "3/5", "--dim", "128", "--trials", "1",
                 "--eig-csv", str(work.path / "warmup.csv")])


def setup_probe(workload: str) -> None:
    """Child side: time the imports and the warm-up; print them as JSON."""
    locate_program()
    t0 = time.perf_counter()
    import freeprod.cli  # noqa: F401

    if workload == "oracle":
        import freeprod.twoproj  # noqa: F401
    elif workload == "montecarlo":
        import freeprod.rmt  # noqa: F401
    t1 = time.perf_counter()
    numpy_loaded = "numpy" in sys.modules
    work = Workdir(f"probe-{workload}")
    try:
        t2 = time.perf_counter()
        warm_up(workload, work)
        t3 = time.perf_counter()
    finally:
        work.close()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2, "numpy_loaded": numpy_loaded}))


def measure_setup(workload: str) -> list:
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# Negative control
# ---------------------------------------------------------------------------

def negative_control(wrong: bool = True) -> dict:
    """The Monte Carlo check against a deliberately wrong law must fail.

    With ``wrong=False`` the right law is passed, so the control is *not*
    rejected; the self-test uses that to show the detection works.
    """
    from fractions import Fraction

    from freeprod.rmt import verify_two_projection_law
    from freeprod.twoproj import two_projection_law

    law = two_projection_law(Fraction(1, 5), Fraction(1, 10)) if wrong else None
    report = verify_two_projection_law(Fraction(7, 10), Fraction(3, 5), dim=256,
                                       seed=0, trials=4, law=law)
    return {"law": "(1/5, 1/10) for (7/10, 3/5)" if wrong else "right law",
            "passed": bool(report.passed), "rejected": not report.passed,
            "ks_statistic": float(report.ks_statistic)}


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def run_context(threads: int) -> dict:
    import platform

    import numpy

    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by version
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version")) for k in ("blas", "lapack")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "freeprod_threads": os.environ.get("FREEPROD_THREADS", "unset (1)"),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "blas_threads_pinned": threads,
    }


def _bucket_tuples(n: int) -> str:
    return "0" if n == 0 else "1-9" if n < 10 else "10-99" if n < 100 else "100+"


def op_properties(op, results) -> dict:
    """Properties a later change might target, for the manifest shares."""
    props = dict(op.props)
    if op.kind == "analyze" and results[0][0] == 0:
        out = results[0][1]
        if op.expect["format"] == "json":
            obj = json.loads(out)
            n = len(obj["summands"]) + len(obj["characters"])
        else:
            n = out.count("C^{") + out.count("\n  π_")
        props["tuples"] = _bucket_tuples(n)
    if "lattice" in props:
        low = max(4, int(math.log2(props["lattice"])) // 4 * 4)
        props["lattice"] = f"2^{low}-2^{low + 3}"
    return props


def shares(prop_list: list) -> dict:
    out: dict = {}
    for props in prop_list:
        for key, val in props.items():
            out.setdefault(key, {})
            out[key][str(val)] = out[key].get(str(val), 0) + 1
    n = len(prop_list)
    return {k: {v: round(c / n, 4) for v, c in sorted(d.items())} for k, d in out.items()}


def write_out(name: str, obj) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(obj, indent=2, default=str) + "\n")
    return str(path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# The runs
# ---------------------------------------------------------------------------

def tail_latency(latencies: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, samples)."""
    n = len(latencies)
    ordered = sorted(latencies)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def timed_run(seconds: float, pool: list, work: Workdir, cycle: int) -> dict:
    """Closed loop over the pool until the ops' wall time reaches
    ``seconds``, then on to the end of the current cycle of slots."""
    latencies, failures, props = [], [], []
    timed = 0.0
    i = 0
    while timed < seconds or i % cycle:
        op = pool[i % len(pool)]
        i += 1
        paths = work.materialize(op)
        dt, _, results, worst = execute(op, paths)
        latencies.append(dt)
        timed += dt
        reason = check(op, results, worst, paths)
        if reason is not None:
            failures.append({"op": i - 1, "kind": op.kind, "argv": op.argvs, "reason": reason})
        props.append(op_properties(op, results))
    return {"latencies": latencies, "timed": timed, "failures": failures,
            "props": props, "ops": i, "cycle": cycle}


def trace_ops(workload: str, seconds: float) -> int:
    """Ops in a traced run: whole cycles, about TRACE_OPS_PER_SECOND a second."""
    cycle = gen.CYCLE[workload]
    return cycle * max(1, round(seconds * TRACE_OPS_PER_SECOND[workload] / cycle))


def traced_run(seconds: float, pool: list, work: Workdir, n_ops: int) -> dict:
    tracer = tracing.Tracer()
    plain = tracing.Tracer(enabled=False)
    cli_time, cli_bytes, traced, untraced = [], 0, 0.0, 0.0
    failures, props = [], []
    deadline = time.perf_counter() + 6 * seconds + 30  # stays inside the 180 s limit
    for k in range(n_ops):
        if time.perf_counter() > deadline:
            break
        op = pool[k % len(pool)]
        paths = work.materialize(op)
        _, cli_s, results, worst = execute(op, paths)
        cli_time.append(cli_s)
        cli_bytes += sum(len(out.encode()) for _, out, _ in results)
        reason = check(op, results, worst, paths)
        if reason is not None:
            failures.append({"op": k, "kind": op.kind, "reason": reason})
        props.append(op_properties(op, results))
        csv = paths.get("@" + op.expect["csv"]) if op.expect.get("csv") else None
        tracer.op_id = k
        # alternate which replay goes first, so that warm caches favour neither
        for traced_turn in ((True, False) if k % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            if traced_turn:
                with tracing.wrapped_callees(tracer):
                    tracing.replay(tracer, op, paths, csv)
                traced += time.perf_counter() - t0
            else:
                tracing.replay(plain, op, paths, csv)
                untraced += time.perf_counter() - t0
        if csv:
            with contextlib.suppress(OSError):
                os.remove(csv)
    return {"tracer": tracer, "cli_time": cli_time, "cli_bytes": cli_bytes,
            "overhead": (traced - untraced) / untraced, "failures": failures,
            "props": props, "ops": len(cli_time), "planned": n_ops}


def per_layer_metrics(tr: dict, probes: list) -> dict:
    t = tr["tracer"]
    n = tr["ops"]
    agg = tracing.layer_times(t)
    name = agg["by_name"]
    counts = t.counts

    def per_op(key):
        return name.get(key, 0.0) / n

    def rate(count_key, time_key):
        total = name.get(time_key, 0.0)
        return counts.get(count_key, 0) / total if total > 0 else 0.0

    cli_self = sum(c - agg["op_children"].get(k, 0.0) for k, c in enumerate(tr["cli_time"]))
    setup = [p["import_s"] + p["warmup_s"] for p in probes]
    imports = statistics.median(p["import_s"] for p in probes)
    m = {
        "model.load_s": (per_op("model.load_problem"), "s/op"),
        "model.normalize_s": (per_op("model.normalize_problem"), "s/op"),
        "model.calls": (counts.get("model.calls", 0), "count"),
        "engine.decompose_s": (per_op("engine.decompose"), "s/op"),
        "engine.tuples": (counts.get("engine.tuples", 0), "count"),
        "engine.tuples_per_s": (rate("engine.tuples", "engine.decompose"), "1/s"),
        "engine.report_json_s": (per_op("engine.report_to_json"), "s/op"),
        "engine.ideal_lattice_s": (per_op("engine.ideal_lattice"), "s/op"),
        "engine.ideals_json_s": (per_op("engine.ideals_to_json"), "s/op"),
        "engine.ideals": (counts.get("engine.ideals", 0), "count"),
        "engine.ideals_per_s": (rate("engine.ideals", "engine.ideal_lattice"), "1/s"),
        "conjectures.check_s": (per_op("conjectures.conjecture_abelian")
                                + per_op("conjectures.conjecture_finite_dim"), "s/op"),
        "conjectures.calls": (counts.get("conjectures.calls", 0), "count"),
        "cli.run_s": (sum(tr["cli_time"]) / n, "s/op"),
        "cli.self_s": (cli_self / n, "s/op"),
        "cli.output_bytes": (tr["cli_bytes"], "count"),
        "setup.import_s": (imports, "s"),
        "setup.import_frac": (imports / statistics.median(setup), "fraction"),
        "setup.numpy_loaded": (int(all(p["numpy_loaded"] for p in probes)), "count"),
        "nc.alternating_moment_s": (per_op("nc.alternating_moment"), "s/op"),
        "nc.moments": (counts.get("nc.moments", 0), "count"),
        "nc.top_order_s": (agg["top_order"] / n, "s/op"),
        "twoproj.law_s": (per_op("twoproj.two_projection_law"), "s/op"),
        "twoproj.structure_s": (per_op("twoproj.two_projection_structure"), "s/op"),
        "twoproj.law_moment_s": (per_op("twoproj.law_moment"), "s/op"),
        "twoproj.certify_s": (per_op("twoproj.certify_law"), "s/op"),
        "rmt.verify_s": (per_op("rmt.verify_two_projection_law"), "s/op"),
        "rmt.trial_spectra_s": (per_op("rmt.trial_spectra"), "s/op"),
        "rmt.eigenvalues": (counts.get("rmt.eigenvalues", 0), "count"),
        "rmt.eigs_per_s": (rate("rmt.eigenvalues", "rmt.trial_spectra"), "1/s"),
        "rmt.ks_statistic_s": (per_op("rmt.ks_statistic"), "s/op"),
        "rmt.csv_s": (per_op("rmt.eigenvalue_csv_rows"), "s/op"),
        "trace.overhead_frac": (tr["overhead"], "fraction"),
        "trace.ops": (n, "count"),
        "trace.spans": (len(t.spans), "count"),
    }
    for layer in tracing.LAYERS[1:]:
        m[f"{layer}.busy_s"] = (agg["busy"].get(layer, 0.0) / n, "s/op")
        m[f"{layer}.self_s"] = (agg["self"].get(layer, 0.0) / n, "s/op")
    return m


def end_to_end_metrics(res: dict, probes: list) -> dict:
    lat = res["latencies"]
    tail, pct, n = tail_latency(lat)
    cycle = res["cycle"]
    per_cycle = [cycle / sum(lat[j:j + cycle]) for j in range(0, len(lat), cycle)]
    return {
        "ops_per_s": statistics.median(per_cycle),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "setup_s": statistics.median(p["import_s"] + p["warmup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"percentile": round(pct, 3), "samples": n, "beyond": n - math.ceil(pct * n / 100)}


def benchmark(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    threads = pin_threads()
    locate_program()
    import freeprod.cli  # noqa: F401  (compiles the sources once before the probes)

    check_import_origin()
    probes = measure_setup(workload)
    pool = gen.make_pool(workload, seed)
    digest = gen.pool_digest(pool)
    work = Workdir(f"{workload}-{seed}")
    try:
        warm_up(workload, work)
        control = negative_control()
        # Keep the interpreter, numpy and the benchmark's own input pool out
        # of the garbage collector's way: without this a full collection
        # walks them in the middle of some op, which adds its cost to that op
        # only, whereas a `freeprod` process holds none of the pool.
        gc.collect()
        gc.freeze()
        if traced:
            res = traced_run(seconds, pool, work, trace_ops(workload, seconds))
        else:
            res = timed_run(seconds, pool, work, gen.CYCLE[workload])
    finally:
        work.close()

    attempted = res["ops"]
    failed = len(res["failures"])
    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "inputs_sha256": digest, "pool_size": len(pool),
        "ops_run": attempted, "pool_passes": attempted / len(pool),
        "shares": shares(res["props"]),
        "negative_control": control, "failures": res["failures"][:20],
        "setup_probes": probes, "context": run_context(threads),
    }
    if workload == "ideals":
        used = {pool[k % len(pool)].props["lattice"] for k in range(attempted)}
        manifest["largest_lattice"] = max(used)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    if traced:
        metrics = per_layer_metrics(res, probes)
        manifest["trace_run"] = {"planned_ops": res["planned"], "spans_file":
                             write_spans(res["tracer"], tag)}
        values = {k: v for k, (v, _) in metrics.items()}
        units = {k: u for k, (_, u) in metrics.items()}
    else:
        values, tail = end_to_end_metrics(res, probes)
        units = dict(END_TO_END_UNITS)
        manifest["latency_tail"] = tail
        values["error_rate"] = failed / attempted
        units["error_rate"] = "fraction"
    manifest["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in values}
    manifest_path = write_out(f"manifest-{tag}.json", manifest)

    print(f"freeprod benchmark: workload={workload} seed={seed} trace={int(traced)} "
          f"inputs={digest[:16]} ops={attempted} failed={failed}")
    for k in values:
        extra = ""
        if k == "latency_tail_ms":
            extra = (f"  (p{manifest['latency_tail']['percentile']} of "
                     f"{manifest['latency_tail']['samples']} samples)")
        print(f"  {k:<28} {values[k]:>14.6g} {units[k]}{extra}")
    if traced:
        run_s, self_s = values["cli.run_s"], values["cli.self_s"]
        print(f"  accounting: cli.run {run_s * 1e3:.4g} ms/op = replayed calls "
              f"{(run_s - self_s) * 1e3:.4g} + cli self {self_s * 1e3:.4g}; "
              f"tracing overhead {values['trace.overhead_frac']:+.2%}")
    print(f"  negative control: {'rejected' if control['rejected'] else 'NOT REJECTED'}")
    for f in res["failures"][:5]:
        print(f"  failed op {f['op']} ({f['kind']}): {f['reason']}")
    print(f"  manifest: {manifest_path}")

    reported = dict(values)
    reported.pop("error_rate", None)  # carried by attempted/failed
    return {
        "correct": failed == 0 and control["rejected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": reported[k], "unit": units[k]} for k in reported},
    }


def write_spans(tracer, tag: str) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{tag}.jsonl"
    tracer.dump(str(path))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload at tiny size and check the checks")
    p.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe)
            return 0
        if args.self_test:
            import selftest

            return selftest.main(sys.modules[__name__])
        if args.workload is None:
            p.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
