"""Benchmark of the rectising log Z engine.

    python3 perfbench/run.py --workload scan-small --seed 0 --seconds 20 --trace 0

Runs from the root of a source tree: it imports the package from
`src/rectising` of that tree and nothing else.  With `--trace 0` it
measures the end-to-end metrics, with `--trace 1` the per-layer metrics of
traced passes and the tracing overhead against untraced passes.  Times
are reported at reference speed: each timed unit is scaled by a fixed
probe timed just before and after it (`SpeedProbe`).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the run report
(machine facts, pass times, failure ledger).
"""

from __future__ import annotations

import os

#: the largest matrices are 64 x 64, too small for threaded BLAS to pay;
#: one thread keeps runs steady on a shared machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, References  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "rectising"
OUT_DIR = HERE / "out"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 9
#: speed probes after each timed unit
PROBE_BURST = 2
#: seconds between speed probes taken in the middle of timed work
PROBE_EVERY = 0.1
#: seconds one speed probe takes on the machine all times are scaled to
PROBE_REF_S = 0.007
#: modules whose public functions the traced run wraps
MODULES = ("elliptic", "params", "precision", "spectrum", "partition",
           "contour", "identities", "cli")

#: per-layer time metric -> span whose layer time it reports: the span's self
#: time plus that of descendants not nested in another span of this table
LAYER_SPANS = {
    "params.weights_s": "params.weights_from_couplings",
    "params.frame_s": "params.elliptic_frame",
    "partition.assemble_self_s": "partition.assemble_logZ",
    "elliptic.sncndn_s": "elliptic.EllipticKernel.sncndn",
    "spectrum.enrich_s": "spectrum.enrich_spectrum",
    "spectrum.build_matrices_s": "spectrum.build_matrices",
    "spectrum.joint_spectrum_s": "spectrum.joint_spectrum",
    "partition.block_s": "partition.block_transfer_logZ",
    "partition.hankel_assemble_s": "partition.hankel_from_spectrum",
    "partition.toeplitz_assemble_s": "partition.skew_toeplitz_from_spectrum",
    "partition.lu_s": "partition.logdet_scaled",
    "partition.pfaffian_s": "partition.pfaffian",
    "partition.brute_s": "partition.brute_force_logZ",
    "partition.spin_s": "partition.spin_transfer_logZ",
    "contour.coefficients_s": "contour.contour_coefficients",
    "identities.suite_s": "identities.run_identity_suite",
}
#: per-layer call-count metric -> span it counts
LAYER_CALLS = {
    "elliptic.sncndn_calls": "elliptic.EllipticKernel.sncndn",
    "spectrum.enrich_calls": "spectrum.enrich_spectrum",
    "spectrum.joint_spectrum_calls": "spectrum.joint_spectrum",
    "partition.block_calls": "partition.block_transfer_logZ",
}


def die(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def load_package():
    """Import rectising afresh from this tree's src/ (never from elsewhere)."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        die(f"no package source at {PACKAGE_DIR.relative_to(ROOT)}; run "
            f"from the root of a rectising source tree")
    src = str(PACKAGE_DIR.parent)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "rectising" or m.startswith("rectising.")]:
        del sys.modules[name]
    package = importlib.import_module("rectising")
    if Path(package.__file__).resolve().parent != PACKAGE_DIR.resolve():
        die(f"imported rectising from {package.__file__}, not from the tree")
    modules = {m: importlib.import_module(f"rectising.{m}") for m in MODULES}
    return SimpleNamespace(package=package, modules=modules, **modules)


class SpeedProbe:
    """Fixed reference work that measures the machine's speed as a run goes.

    On a shared virtual machine the same code can run twice as fast at one
    moment as at another, depending on what other tenants run, and the
    speed moves within a second.  The probe measures it with about 7 ms of
    work of the kinds the package does - interpreted integer and float
    Python, small numpy calls, 160-bit and float mpmath, a small LAPACK
    eigensolve - using only the standard library, numpy and mpmath, never
    the package.  It allocates nothing large, so it leaves the peak memory
    of a run as it is.  It runs PROBE_BURST times after each timed unit
    and, while `sampling()` is on, every PROBE_EVERY seconds from a timer
    signal in the middle of whatever runs.  `clock()` leaves the time
    spent in probes out.  `scale(i)` turns the seconds of unit i (the unit
    between bursts i and i+1) into seconds on a machine where one probe
    takes PROBE_REF_S, from the probes of both bursts and those in between.
    """

    def __init__(self):
        rng = numpy.random.default_rng(1)
        a = rng.standard_normal((24, 24))
        self._matrix = a + a.T
        self._tensor = rng.standard_normal((4, 4, 4))
        self._vector = rng.standard_normal((4, 4))
        # a context of its own, so a probe never touches mpmath.mp
        self._mp = mpmath.MPContext()
        self._mp.prec = 160
        self._busy = False
        self.samples = []
        self.spent = 0.0
        self.bursts = []

    def clock(self):
        """perf_counter without the time spent in probes."""
        return time.perf_counter() - self.spent

    def once(self, *_signal):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += (i * i) % 7
        x = 0.3
        for _ in range(750):
            x = math.sin(x) + math.sqrt(abs(x) + 1.0) * 0.5
            acc += sum(x * j for j in (1.0, 2.0, 3.0))
        for _ in range(60):
            numpy.tensordot(self._tensor, self._vector,
                            axes=([1], [0])).reshape(16, 4).sum()
        mp = self._mp
        y = mp.mpf(1) / 3
        for _ in range(60):
            y = mp.sqrt(y * y + 1) - mp.exp(-y)
        for i in range(2000):
            acc += mpmath.fp.sqrt(i + 1.0)
        for _ in range(6):
            numpy.linalg.eigh(self._matrix)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.spent += seconds
        self._busy = False

    def after(self):
        start = len(self.samples)
        for _ in range(PROBE_BURST):
            self.once()
        self.bursts.append((start, len(self.samples)))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.once)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, i):
        start, end = self.bursts[i][0], self.bursts[i + 1][1]
        # the mean speed over the unit's wall time: probes come at even
        # intervals, so it is the mean of 1/probe time (a median would
        # take the speed the machine had most of the time, not on average)
        return PROBE_REF_S * statistics.fmean(
            1.0 / t for t in self.samples[start:end])


@dataclass
class Pass:
    """One pass: its operations and times, measured and at reference speed.

    `op_s` holds each operation's latency at reference speed, or None for
    an operation whose latency was not taken.
    """

    ops: list
    measured_s: float
    seconds: float
    op_s: list


def set_up(workload, probe):
    """Import plus the first warm-up call, SETUP_REPEATS times.

    Returns the package and the set-up times at reference speed.
    """
    probe.after()
    first = len(probe.bursts) - 1
    times = []
    with probe.sampling():
        for _ in range(SETUP_REPEATS):
            t0 = probe.clock()
            pkg = load_package()
            workload.warm_up(pkg)
            times.append(probe.clock() - t0)
            probe.after()
    return pkg, [t * probe.scale(first + i) for i, t in enumerate(times)]


def timed_pass(workload, pkg, inputs, probe):
    """Run one pass; scale each unit's times by the probes around it."""
    first = len(probe.bursts) - 1
    units = workload.run_pass(pkg, inputs, probe)
    ops, op_s, seconds = [], [], 0.0
    for i, (unit_s, unit_ops) in enumerate(units):
        scale = probe.scale(first + i)
        seconds += unit_s * scale
        ops.extend(unit_ops)
        op_s.extend(None if op.latency is None else op.latency * scale
                    for op in unit_ops)
    return Pass(ops, sum(s for s, _ops in units), seconds, op_s)


def check_passes(workload, passes, refs):
    """Check every operation of every pass; build the failure ledger."""
    ledger = {}
    digits = []
    failed = 0
    signatures = set()
    for p in passes:
        sig = []
        for op in p.ops:
            verdict = workload.check(op, refs)
            digits.extend(verdict.digits)
            if verdict.failures:
                failed += 1
            for f in verdict.failures:
                key = (op.system, f["check"], f["detail"], f["deviation"])
                entry = ledger.setdefault(key, {
                    "workload": workload.name, "system": op.system,
                    "check": f["check"], "detail": f["detail"],
                    "deviation": f["deviation"], "passes": 0})
                entry["passes"] += 1
                sig.append(key[:3])
        signatures.add(tuple(sig))
    return {"failed": failed, "ledger": list(ledger.values()),
            "digits": digits, "repeatable": len(signatures) <= 1}


def machine_facts():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # only informational
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def layer_metrics(summary, scale):
    """Per-layer metrics of one traced pass; seconds scaled by `scale`."""
    self_s, calls = summary["self_s"], summary["calls"]
    layer_s = summary["layer_s"]
    out = {m: (scale * layer_s.get(span, 0.0), "s")
           for m, span in LAYER_SPANS.items()}
    out.update({m: (calls.get(span, 0), "count")
                for m, span in LAYER_CALLS.items()})
    for module in MODULES:
        out[f"{module}.self_s"] = (scale * sum(
            v for k, v in self_s.items() if k.startswith(module + ".")), "s")
    out["partition.escalations"] = (summary["escalations"], "count")
    out["partition.extended_routes"] = (summary["extended_routes"], "count")
    out["trace.spans"] = (summary["spans"], "count")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)

    probe = SpeedProbe()
    pkg, setup_times = set_up(workload, probe)
    report = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "machine": machine_facts(),
              "setup_s": setup_times, "inputs": inputs}

    untraced, traced, summaries = [], [], []
    tracer = Tracer(probe.clock)
    t_end = time.perf_counter() + args.seconds
    with probe.sampling():
        while True:
            t_round = time.perf_counter()
            # traced runs alternate the order within a pair, so that
            # neither side always gets the first, colder pass
            order = ((False, True) if len(untraced) % 2 == 0
                     else (True, False))
            for with_trace in order if args.trace else (False,):
                if not with_trace:
                    untraced.append(timed_pass(workload, pkg, inputs, probe))
                    continue
                first = len(tracer.start)
                tracer.install(pkg.package, pkg.modules)
                try:
                    traced.append(timed_pass(workload, pkg, inputs, probe))
                finally:
                    tracer.uninstall()
                summaries.append(tracer.summary(LAYER_SPANS.values(), first))
            # start another round only if one more fits in the run, so a
            # run ends within --seconds unless its first round alone takes
            # longer
            now = time.perf_counter()
            if now + (now - t_round) > t_end:
                break

    refs = References()
    t0 = time.perf_counter()
    checked = check_passes(workload, untraced + traced, refs)
    report["check_seconds"] = time.perf_counter() - t0
    report["reference_seconds"] = refs.seconds
    passes = len(untraced) + len(traced)
    ops_per_pass = len(untraced[0].ops)
    attempted = passes * ops_per_pass
    pass_s = [p.seconds for p in untraced]
    report.update({
        "passes": passes, "ops_per_pass": ops_per_pass,
        "untraced_pass_s": pass_s,
        "untraced_pass_measured_s": [p.measured_s for p in untraced],
        "probes": len(probe.samples),
        "probe_median_s": statistics.median(probe.samples),
        "attempted": attempted, "failed": checked["failed"],
        "failed_per_pass": checked["failed"] / passes,
        "ledger": checked["ledger"],
        "repeatable": checked["repeatable"]})

    if args.trace:
        per_pass = [layer_metrics(s, p.seconds / p.measured_s)
                    for s, p in zip(summaries, traced)]
        counts_repeat = all(
            p[m][0] == per_pass[0][m][0] for p in per_pass
            for m, (_v, unit) in per_pass[0].items() if unit == "count")
        metrics = {m: {"value": statistics.median(p[m][0] for p in per_pass),
                       "unit": unit} for m, (_v, unit) in per_pass[0].items()}
        traced_s = [p.seconds for p in traced]
        metrics["trace.overhead_pct"] = {"value": 100.0 * (
            statistics.median(traced_s) / statistics.median(pass_s) - 1),
            "unit": "%"}
        report["traced_pass_s"] = traced_s
        report["counts_repeat"] = counts_repeat
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        # each operation's median over passes; a scan point whose sweep
        # failed before reaching assemble_logZ has no latency
        op_s = [statistics.median(lat) for lat in zip(
            *(p.op_s for p in untraced)) if None not in lat]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "solve_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "digits_min": {"value": max(0.0, min(checked["digits"],
                                                 default=0.0)),
                           "unit": "digits"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        report["op_median_s"] = op_s

    correct = checked["repeatable"] and report.get("counts_repeat", True)
    report["correct"] = correct
    print(f"{workload.name} seed={args.seed}: {passes} passes x "
          f"{ops_per_pass} ops, {checked['failed']} of {attempted} failed")
    for e in checked["ledger"]:
        dev = ("" if e["deviation"] is None
               else f" deviation {e['deviation']:.3g}")
        print(f"  FAILED {e['system']} | {e['check']}: {e['detail']}{dev}")
    print("report " + json.dumps(report, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": checked["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
