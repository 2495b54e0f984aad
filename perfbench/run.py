#!/usr/bin/env python3
"""hadcert benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload {certify,witness,search,cli}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (or any checkout of it); the library is
imported from ``src/`` next to this directory, so nothing needs installing.
The seed makes every input; the program only ever receives those inputs.

A run repeats whole cycles of the workload's job mix until starting another
cycle would pass ``--seconds`` (at least the workload's minimum number of
cycles), times every job, and checks every output against an oracle that
shares no code with the layer under test (see workloads.py and oracles.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, from spans that spans.py wraps
around the library's layer functions. Earlier stdout lines give a readable
table, the tail percentile and its sample counts, and the run metadata.
The last line is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# fresh set-ups per run, half before and half after the timed jobs, so that
# their median spans the run rather than one stretch of seconds before it
SETUP_REPEATS = 6

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "peak_rss_mb": "MB", "solutions_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "cmatrix.numerical_rank_s": "s", "cmatrix.numerical_rank.calls": "count",
    "cmatrix.svd.flops": "flop", "cmatrix.svd.bytes": "B", "cmatrix.svd.gflops": "Gflop/s",
    "spancert.span_matrix_s": "s", "spancert.span_matrix.bytes": "B",
    "spancert.certify.self_s": "s", "spancert.gap_min": "ratio",
    "hadamard.verify_biunitary_s": "s", "hadamard.verify_biunitary.calls": "count",
    "hadamard.qr_solve_s": "s",
    "families.edge_tables_s": "s", "families.scan_s": "s", "families.scan.calls": "count",
    "families.scan.mask_pairs": "count", "families.scan.candidates": "count",
    "families.scan.mask_pairs_per_s": "1/s", "families.filter_s": "s",
    "families.filter.accepted": "count", "families.filter.accept_ratio": "ratio",
    "families.commuting_s": "s", "families.commuting.hits": "count",
    "families.constr_s": "s", "families.constr.members": "count",
    "cmatrix.expi_hermitian_s": "s",
    "search.local_search_s": "s", "search.starts": "count", "search.converged": "count",
    "search.converged_ratio": "ratio", "search.iterations": "count",
    "search.smoothed_calls": "count", "search.gradient_calls": "count",
    "search.s_per_iteration": "s", "search.promote_s": "s", "search.promoted": "count",
    "cli.interp_start_s": "s", "cli.import_s": "s", "cli.import.numpy_s": "s",
    "cli.import.scipy_s": "s", "cli.import.hadcert_s": "s", "cli.main_s": "s",
    "cli.parse_matrix_s": "s", "cli.format_matrix_s": "s", "cli.bytes_out": "B",
    "bench.trace_overhead_frac": "ratio", "bench.unmeasured_hooks": "count",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["certify", "witness", "search", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def tail_percentile(samples_min):
    """Highest whole percentile with at least ten samples beyond it in a run
    of ``samples_min`` samples (the workload's minimum run)."""
    return int(math.floor(100.0 * (1.0 - 10.0 / samples_min)))


# --- set-up ---------------------------------------------------------------------

def work_dir(workload):
    return os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")


def make_workload(name, seed):
    import hadcert
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "cli":
        wl = cls(seed, hadcert, work_dir(name), SRC)
    else:
        wl = cls(seed, hadcert)
    wl.warm_up()
    return wl


def time_setup(args, repeats):
    """Seconds from process start to ready for the first timed job (imports,
    inputs, warm-up), for each of ``repeats`` fresh processes."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload",
                              args.workload, "--seed", str(args.seed), "--seconds", "1",
                              "--setup-only"], stdout=subprocess.PIPE, cwd=ROOT)
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.read()
        p.stdout.close()
        if p.wait(timeout=150) != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up child failed")
        times.append(t1 - t0)
    return times


# --- the closed loop ----------------------------------------------------------------

class Run:
    """Samples of one run: per-job latencies, failures, solutions."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.solutions = 0
        self.cycle_busy = []
        self.failures = []


def run_cycles(wl, seconds, run, on_cycle_end=None, tracer=None, fault=False):
    """Repeat whole cycles of ``wl``'s jobs into ``run``. With ``fault`` every
    oracle is fed a deliberately wrong copy of the output (selftest.py)."""
    start = time.perf_counter()
    cycle = 0
    while True:
        t_cycle = time.perf_counter()
        busy = 0.0
        for job in wl.jobs(cycle):
            if tracer is not None:
                tracer.job = job.label
            t0 = time.perf_counter()
            try:
                out = job.run()
                err = None
            except Exception as exc:  # a raising job is a failed job, not a crash
                out, err = None, f"raised {exc!r}"
            dt = time.perf_counter() - t0
            busy += dt
            run.latencies.append(dt)
            if err is None:
                try:
                    err = job.check(job.corrupt(out) if fault and job.corrupt else out)
                except Exception as exc:  # an oracle that cannot read the output
                    err = f"oracle raised {exc!r}"
            if err is None:
                run.solutions += int(job.solution(out))
            else:
                run.failed += 1
                if len(run.failures) < 20:
                    run.failures.append(f"{job.label}: {err}")
        run.cycle_busy.append(busy)
        cycle += 1
        if on_cycle_end is not None:
            on_cycle_end(cycle)
        now = time.perf_counter()
        if cycle >= wl.min_cycles and (now - start) + (now - t_cycle) > seconds:
            break
    return cycle


# --- metadata ---------------------------------------------------------------------

def blas_info():
    name, threads = "unknown", None
    try:
        cfg = np.show_config(mode="dicts")
        name = cfg["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    return name, threads


def cache_sizes():
    """L2 and L3 sizes of cpu0, read from sysfs (read only)."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def git_commit():
    """HEAD of the checkout, only when the checkout itself is a git
    repository (not merely inside one)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    return p.stdout.strip() if p.returncode == 0 else "unknown (git rev-parse failed)"


def metadata(args):
    import hadcert

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "not installed"
    # the scan backend switch may be removed once the scan has one implementation
    backend = getattr(hadcert, "backend_name", lambda: "single implementation")()
    blas, threads = blas_info()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": blas, "blas_threads": threads,
        "cpu_count": os.cpu_count(), "cache": cache_sizes(), "commit": git_commit(),
    }


# --- end-to-end run -------------------------------------------------------------------

def end_to_end(args, wl, setup):
    """``setup`` holds the set-up times taken before the run; the rest of
    SETUP_REPEATS are taken after it."""
    run = Run()
    t0 = time.perf_counter()
    cycles = run_cycles(wl, args.seconds, run)
    wall = time.perf_counter() - t0
    peak = (wl.child_peak_mb if args.workload == "cli"
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    setup = setup + time_setup(args, SETUP_REPEATS - len(setup))
    busy = sum(run.latencies)
    jobs_per_cycle = len(run.latencies) // cycles
    pct = tail_percentile(wl.min_cycles * jobs_per_cycle)
    metrics = {
        "setup_s": median(setup),
        "jobs_per_s": len(run.latencies) / busy,
        "latency_p50_s": float(np.percentile(run.latencies, 50)),
        "latency_tail_s": float(np.percentile(run.latencies, pct)),
        "peak_rss_mb": peak,
        "solutions_per_s": run.solutions / busy,
    }
    beyond = sum(1 for x in run.latencies if x > metrics["latency_tail_s"])
    failed_frac = run.failed / len(run.latencies)
    print(f"# workload {args.workload}: {cycles} cycles x {jobs_per_cycle} jobs, "
          f"{len(run.latencies)} samples, {wall:.2f} s wall, {busy:.2f} s in jobs")
    print(f"# latency_p50_s over {len(run.latencies)} samples; latency_tail_s is p{pct} "
          f"with {beyond} samples beyond it")
    print(f"# setup_s is the median of {len(setup)} fresh set-ups (before | after the run): "
          + ", ".join(f"{t:.4f}" for t in setup[:SETUP_REPEATS // 2]) + " | "
          + ", ".join(f"{t:.4f}" for t in setup[SETUP_REPEATS // 2:]))
    for name, value in metrics.items():
        print(f"{name:>18} {value:14.6g} {END_TO_END_UNITS[name]}")
    print(f"{'failed_frac':>18} {failed_frac:14.6g} ratio ({run.failed}/{len(run.latencies)})")
    return run, metrics


# --- traced run ---------------------------------------------------------------------

def _child_seconds(code, env):
    """Wall time of one ``python -c code`` child, and its stdout/stderr."""
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, *code], env=env, cwd=ROOT, capture_output=True,
                       timeout=150, check=True)
    return time.perf_counter() - t0, p.stdout, p.stderr


def importtime_split(stderr):
    """numpy, scipy and hadcert-own seconds from ``-X importtime`` output."""
    rows = []
    for line in stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cum = int(parts[1])
        except ValueError:
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), cum))

    def outermost(pred):
        hits = [(d, c) for d, nm, c in rows if pred(nm)]
        if not hits:
            return 0.0
        top = min(d for d, _ in hits)
        return sum(c for d, c in hits if d == top) / 1e6

    numpy_s = outermost(lambda nm: nm == "numpy")
    scipy_s = outermost(lambda nm: nm == "scipy" or nm.startswith("scipy."))
    total = outermost(lambda nm: nm == "hadcert" or nm.startswith("hadcert."))
    return numpy_s, scipy_s, max(0.0, total - numpy_s - scipy_s)


def cli_start_metrics():
    env = dict(os.environ, PYTHONPATH=SRC)
    interp = median([_child_seconds(["-c", "pass"], env)[0] for _ in range(3)])
    code = ("import time; t = time.perf_counter(); import hadcert.cli; "
            "print(time.perf_counter() - t)")
    imp = median([float(_child_seconds(["-c", code], env)[1]) for _ in range(3)])
    splits = [importtime_split(_child_seconds(["-X", "importtime", "-c", "import hadcert.cli"],
                                              env)[2]) for _ in range(3)]
    return {
        "cli.interp_start_s": interp, "cli.import_s": imp,
        "cli.import.numpy_s": median([s[0] for s in splits]),
        "cli.import.scipy_s": median([s[1] for s in splits]),
        "cli.import.hadcert_s": median([s[2] for s in splits]),
    }


def cli_in_process(wl, expect, tracer=None):
    """Run every CLI command through ``hadcert.cli.main`` in this process;
    its stdout must match the child's byte for byte. Returns seconds spent
    and the number of mismatches."""
    import hadcert.cli as cli

    busy, bad = 0.0, 0
    cwd = os.getcwd()
    os.chdir(wl.workdir)
    try:
        for label, argv, stdin, _, _ in wl.commands:
            if tracer is not None:
                tracer.job = f"main {label}"
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin.decode() if stdin is not None else "")
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    cli.main(argv)
            finally:
                busy += time.perf_counter() - t0
                sys.stdin = saved
            if label in expect and out.getvalue().encode() != expect[label]:
                bad += 1
    finally:
        os.chdir(cwd)
    return busy, bad


def traced(args, wl):
    """Half the time untraced, half traced; per-layer seconds are per cycle,
    exact counts are those of the first traced cycle."""
    from spans import Tracer

    is_cli = args.workload == "cli"
    half = args.seconds / 2.0
    base, run = Run(), Run()
    untraced_busy, traced_busy = [], []
    mismatches = [0]

    def in_process(busy_list, tracer=None):
        busy, bad = cli_in_process(wl, wl.stdout_seen, tracer)
        busy_list.append(busy)
        mismatches[0] += bad

    run_cycles(wl, half, base,
               on_cycle_end=(lambda c: in_process(untraced_busy)) if is_cli else None)
    tracer = Tracer()
    tracer.install()
    first, calls = {}, {}

    def end_traced_cycle(c):
        if is_cli:
            in_process(traced_busy, tracer)
        if c == 1:
            first.update(tracer.counts)
            calls.update(tracer.calls_by_name())
            first["cli.bytes_out"] = sum(len(v) for v in wl.stdout_seen.values()) if is_cli else 0

    try:
        n_traced = run_cycles(wl, half, run, on_cycle_end=end_traced_cycle,
                              tracer=tracer)
    finally:
        tracer.uninstall()
    if not is_cli:
        untraced_busy, traced_busy = base.cycle_busy, run.cycle_busy
    run.latencies += base.latencies
    run.failed += base.failed + mismatches[0]
    run.failures += base.failures
    if mismatches[0]:
        run.failures.append(f"in-process cli.main stdout differed from the child {mismatches[0]} times")

    per = 1.0 / n_traced
    t = tracer.total
    _, rank_s, _ = t("cmatrix.numerical_rank")
    _, scan_s, _ = t("families.scan")
    constr_s = t("families.constr1")[1] + t("families.constr2")[1]
    starts = tracer.counts["search.starts"]
    iters = tracer.counts["search.iterations"]
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    m.update({
        "cmatrix.numerical_rank_s": rank_s * per,
        "cmatrix.numerical_rank.calls": calls.get("cmatrix.numerical_rank", 0),
        "cmatrix.svd.flops": first.get("cmatrix.svd.flops", 0),
        "cmatrix.svd.bytes": first.get("cmatrix.svd.bytes", 0),
        "cmatrix.svd.gflops": tracer.counts["cmatrix.svd.flops"] / rank_s / 1e9 if rank_s else 0.0,
        "spancert.span_matrix_s": t("spancert.span_matrix")[1] * per,
        "spancert.span_matrix.bytes": first.get("spancert.span_matrix.bytes", 0),
        "spancert.certify.self_s": t("spancert.certify")[2] * per,
        "spancert.gap_min": tracer.values.get("spancert.gap_min", 0.0),
        "hadamard.verify_biunitary_s": t("hadamard.verify_biunitary")[1] * per,
        "hadamard.verify_biunitary.calls": calls.get("hadamard.verify_biunitary", 0),
        "hadamard.qr_solve_s": t("hadamard.qr_solve")[1] * per,
        "families.edge_tables_s": t("families.edge_tables")[1] * per,
        "families.scan_s": scan_s * per,
        "families.scan.calls": calls.get("families.scan", 0),
        "families.scan.mask_pairs": first.get("families.scan.mask_pairs", 0),
        "families.scan.candidates": first.get("families.scan.candidates", 0),
        "families.scan.mask_pairs_per_s":
            tracer.counts["families.scan.mask_pairs"] / scan_s if scan_s else 0.0,
        "families.filter_s": t("families.block_residual", "families.block_pairs")[1] * per,
        "families.filter.accepted": first.get("families.filter.accepted", 0),
        "families.filter.accept_ratio":
            tracer.counts["families.filter.accepted"] / tracer.counts["families.scan.candidates"]
            if tracer.counts["families.scan.candidates"] else 0.0,
        "families.commuting_s": t("families.commuting")[1] * per,
        "families.commuting.hits": first.get("families.commuting.hits", 0),
        "families.constr_s": constr_s * per,
        "families.constr.members": first.get("families.constr.members", 0),
        "cmatrix.expi_hermitian_s": t("cmatrix.expi_hermitian")[1] * per,
        "search.local_search_s": t("search.local_search")[1] * per,
        "search.starts": first.get("search.starts", 0),
        "search.converged": first.get("search.converged", 0),
        "search.converged_ratio": tracer.counts["search.converged"] / starts if starts else 0.0,
        "search.iterations": first.get("search.iterations", 0),
        "search.smoothed_calls": calls.get("search.smoothed", 0),
        "search.gradient_calls": calls.get("search.gradient", 0),
        "search.s_per_iteration": t("search.local_search")[1] / iters if iters else 0.0,
        "search.promote_s": t("search.promote")[1] * per,
        "search.promoted": first.get("search.promoted", 0),
        "cli.main_s": t("cli.main")[1] * per,
        "cli.parse_matrix_s": t("cli.parse_matrix")[1] * per,
        "cli.format_matrix_s": t("cli.format_matrix")[1] * per,
        "cli.bytes_out": first.get("cli.bytes_out", 0),
        "bench.trace_overhead_frac": median(traced_busy) / median(untraced_busy) - 1.0,
        "bench.unmeasured_hooks": len(tracer.unmeasured),
    })
    if is_cli:
        m.update(cli_start_metrics())
    _write_spans(args, tracer)
    print(f"# traced: {len(untraced_busy)} untraced + {n_traced} traced cycles; layer seconds "
          f"are per traced cycle; counts and calls are those of the first traced cycle")
    print(f"# unmeasured layers (hook target missing): {tracer.unmeasured or 'none'}")
    for name in PER_LAYER_UNITS:
        print(f"{name:>34} {float(m[name]):14.6g} {PER_LAYER_UNITS[name]}")
    return run, m


def _write_spans(args, tracer):
    """Per-job-label layer totals (json)."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-layers.json")
    by_job = {}
    for (label, name), (calls, total) in tracer.by_job.items():
        by_job.setdefault(label, {})[name] = {"calls": calls, "seconds": total}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(by_job, fh, indent=1, sort_keys=True)
    print(f"# per-job layer totals written to {os.path.relpath(path, ROOT)}")


# --- entry point ---------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hadcert", "__init__.py")):
        print(f"error: hadcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        wl = make_workload(args.workload, args.seed)
        print("ready", flush=True)
        if args.workload == "cli":
            shutil.rmtree(wl.workdir, ignore_errors=True)
        return 0

    setup = time_setup(args, SETUP_REPEATS // 2) if not args.trace else []
    wl = make_workload(args.workload, args.seed)
    try:
        print("# meta " + json.dumps(metadata(args), sort_keys=True))
        if args.trace:
            run, metrics = traced(args, wl)
            units = PER_LAYER_UNITS
        else:
            run, metrics = end_to_end(args, wl, setup)
            units = END_TO_END_UNITS
    finally:
        if args.workload == "cli":
            shutil.rmtree(wl.workdir, ignore_errors=True)
    for line in run.failures:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
