"""The three workloads: inputs drawn from a seed, one timed pass, checks.

A pass runs every operation of the workload once and keeps the raw
outputs; checking happens after the timed pass.  One operation is one
system: a scan point, a compare call, or a crosscheck system.  A pass
returns its timed units, (seconds, [operations]): one per sweep for scan,
one per operation otherwise.  A pass reads the time from `probe.clock()`,
which leaves out the time spent in speed probes, and calls `probe.after()`
after each unit (see SpeedProbe in run.py).

Inputs that fail at the parent commit of the benchmark (the D-numbered
faults in README.md) are fixed, so the failed share of a run does not
depend on the seed.  The seed moves the passing inputs inside
neighbourhoods where every check holds with at least a threefold margin
and the work per pass stays about the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

from reference import reference_logz

#: acceptance criterion 1: every route that reports ok agrees to this
LOGZ_TOL = 1e-8
#: acceptance criterion 4
SWAP_TOL = 1e-9
#: acceptance criterion 3
CONTOUR_TOL = 1e-8
#: acceptance criterion 6, below and above the transition
QUANT_TOL = {"disordered": 1e-9, "ordered": 1e-6}
#: digits are -log10 of the relative error, capped here
DIGITS_CAP = 15.0

#: the self-dual couplings, k = sinh(2 K_v) sinh(2 K_h) = 1 exactly
K_CRITICAL = math.asinh(1.0) / 2


@dataclass
class Op:
    """Raw outcome of one operation in one pass."""

    system: str
    latency: float
    data: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Checks of one operation: failures and the digits it showed."""

    failures: list = field(default_factory=list)
    digits: list = field(default_factory=list)

    def fail(self, check, detail, deviation=None):
        self.failures.append({"check": check, "detail": detail,
                              "deviation": deviation})


def call_cli(cli, argv):
    """Run `rectising <argv>` in-process; capture exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the benchmark records every crash and goes on
        return {"argv": argv, "rc": None,
                "exception": f"{type(exc).__name__}: {exc}"}
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def rel_dev(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def digits(dev):
    return DIGITS_CAP if dev <= 0 else min(DIGITS_CAP, -math.log10(dev))


class References:
    """log Z reference per lattice, computed once per run on first use."""

    def __init__(self):
        self._cache = {}
        self.seconds = 0.0

    def logz(self, L, M, K_h, K_v):
        key = (L, M, K_h, K_v)
        if key not in self._cache:
            t0 = time.perf_counter()
            self._cache[key] = reference_logz(L, M, K_h, K_v)
            self.seconds += time.perf_counter() - t0
        return self._cache[key]


def _cli_failed(call, verdict, what):
    """Record a crash or nonzero exit; True if the call produced nothing."""
    if call.get("exception"):
        verdict.fail(what, call["exception"])
        return True
    if call["rc"] != 0:
        detail = (call["stderr"] or call["stdout"]).strip().replace("\n", " ")
        verdict.fail(what, f"exit {call['rc']}: {detail[:300]}")
        return True
    return False


def check_record(rec, refs, verdict, k_requested):
    """Checks of one z/compare/scan record against the transfer sum."""
    if "error" in rec:
        verdict.fail("point", rec["error"])
        return
    L, M, K_h, K_v = rec["L"], rec["M"], rec["K_h"], rec["K_v"]
    k_couplings = math.sinh(2 * K_v) * math.sinh(2 * K_h)
    if abs(rec["k"] - k_requested) > 1e-9 * k_requested:
        verdict.fail("modulus", f"reported k {rec['k']!r} for requested "
                     f"{k_requested!r}", abs(rec["k"] - k_requested))
    if abs(k_couplings - rec["k"]) > 1e-9 * rec["k"]:
        verdict.fail("modulus", f"k {rec['k']!r} but sinh(2K_v)sinh(2K_h) "
                     f"= {k_couplings!r}", abs(k_couplings - rec["k"]))
    ref = refs.logz(L, M, K_h, K_v)
    for route in sorted(rec["routes"]):
        r = rec["routes"][route]
        if r["status"] == "failed":
            verdict.fail(f"route {route}", f"failed: {r.get('reason', '')}")
        elif r["status"] == "ok":
            dev = rel_dev(r["logZ"], ref)
            verdict.digits.append(digits(dev))
            if dev > LOGZ_TOL:
                verdict.fail(f"route {route}",
                             f"log Z off the transfer sum at "
                             f"{r['precision_bits']} bits", dev)
    swap = rec.get("checks", {}).get("swap_invariance")
    if swap is not None and swap > SWAP_TOL:
        verdict.fail("swap invariance", "swapped system disagrees", swap)


def _fmt(x):
    return f"{x:.6g}"


# ----------------------------------------------------------------------
# scan-small
# ----------------------------------------------------------------------

class ScanSmall:
    """`rectising scan --route all` sweeps at default precision."""

    name = "scan-small"
    #: sweeps whose points fail at the parent commit (D6), kept fixed:
    #: (L, M, eta-frac, k-min, k-max, steps)
    FIXED = ((10, 12, 0.85, 0.3, 2.6, 5),
             (12, 10, 0.95, 0.35, 2.8, 6),
             (12, 12, 0.8, 0.4, 3.0, 5),
             (6, 16, 0.7, 0.3, 2.6, 5))
    #: seeded sweeps, every point passes: (L, M, eta-frac range, k-max
    #: range); lower eta-frac or higher k takes 8x8 Hankel past 1e-8
    SEEDED = ((6, 6, (0.6, 0.95), (2.2, 2.6)),
              (8, 8, (0.85, 0.95), (2.0, 2.4)))
    STEPS = 8

    def inputs(self, seed):
        rng = random.Random(seed)
        sweeps = [dict(L=L, M=M, eta=eta, k_min=a, k_max=b, steps=n)
                  for L, M, eta, a, b, n in self.FIXED]
        for L, M, (eta_lo, eta_hi), (kmax_lo, kmax_hi) in self.SEEDED:
            eta = round(eta_lo + (eta_hi - eta_lo) * rng.random(), 6)
            k_max = round(kmax_lo + (kmax_hi - kmax_lo) * rng.random(), 6)
            k_min = round(0.3 + 0.1 * rng.random(), 6)
            # keep every grid point off the critical window
            while any(abs(k - 1) < 0.04 for k in _grid(k_min, k_max,
                                                        self.STEPS)):
                k_min = round(k_min + 0.005, 6)
            sweeps.append(dict(L=L, M=M, eta=eta, k_min=k_min, k_max=k_max,
                               steps=self.STEPS))
        return sweeps

    def warm_up(self, pkg):
        call_cli(pkg.cli, ["scan", "--L", "4", "--M", "4", "--k-min", "0.5",
                           "--k-max", "1.5", "--steps", "2", "--eta-frac",
                           "0.8", "--format", "json"])

    def run_pass(self, pkg, sweeps, probe):
        units = []
        clock = probe.clock
        cli = pkg.cli
        inner = cli.assemble_logZ
        lat = []

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                lat.append(clock() - t0)

        cli.assemble_logZ = timed
        try:
            for s in sweeps:
                del lat[:]
                t0 = clock()
                call = call_cli(cli, [
                    "scan", "--L", str(s["L"]), "--M", str(s["M"]),
                    "--k-min", repr(s["k_min"]), "--k-max", repr(s["k_max"]),
                    "--steps", str(s["steps"]), "--eta-frac",
                    repr(s["eta"]), "--format", "json"])
                seconds = clock() - t0
                ops = []
                for i, k in enumerate(_grid(s["k_min"], s["k_max"],
                                            s["steps"])):
                    label = (f"scan {s['L']}x{s['M']} eta={_fmt(s['eta'])} "
                             f"k={_fmt(k)}")
                    ops.append(Op(label, lat[i] if i < len(lat) else None,
                                  {"call": call, "index": i, "k": k}))
                units.append((seconds, ops))
                probe.after()
        finally:
            cli.assemble_logZ = inner
        return units

    def check(self, op, refs):
        v = Verdict()
        call = op.data["call"]
        if not _cli_failed(call, v, "scan"):
            if "records" not in call:   # one sweep serves several points
                call["records"] = json.loads(call["stdout"])
            check_record(call["records"][op.data["index"]], refs, v,
                         op.data["k"])
        return v


def _grid(k_min, k_max, steps):
    """The k values `rectising scan` visits (same arithmetic as the CLI)."""
    step = (k_max - k_min) / (steps - 1)
    return [k_min + i * step for i in range(steps)]


# ----------------------------------------------------------------------
# solve-hard
# ----------------------------------------------------------------------

class SolveHard:
    """`rectising compare` on the costliest system each route family takes."""

    name = "solve-hard"

    def inputs(self, seed):
        rng = random.Random(seed)
        return [
            # 24 spins: the brute sum dominates
            dict(L=4, M=6, couplings=("--Kh", repr(K_CRITICAL), "--Kv",
                                      repr(K_CRITICAL)), k=1.0),
            # 160-bit eigensolve at M=64; Hankel off the sum (D2)
            dict(L=12, M=64, couplings=("--k", "0.6", "--eta-frac", "0.8"),
                 k=0.6),
            # deep ordered phase: spectral routes raise PoleError (D3)
            dict(L=12, M=24, couplings=("--k", "6"), k=6.0),
            # long 160-bit system with a small eigenproblem
            dict(L=48, M=12, couplings=(
                "--k", "0.6", "--eta-frac",
                repr(round(0.7 + 0.3 * rng.random(), 6))), k=0.6),
        ]

    def warm_up(self, pkg):
        call_cli(pkg.cli, ["compare", "--L", "4", "--M", "4", "--k", "0.6",
                           "--eta-frac", "0.8", "--precision-bits", "160"])

    def run_pass(self, pkg, systems, probe):
        units = []
        clock = probe.clock
        for s in systems:
            argv = ["compare", "--L", str(s["L"]), "--M", str(s["M"]),
                    *s["couplings"]]
            t0 = clock()
            call = call_cli(pkg.cli, argv)
            seconds = clock() - t0
            units.append((seconds, [Op(" ".join(argv), seconds,
                                       {"call": call, "k": s["k"]})]))
            probe.after()
        return units

    def check(self, op, refs):
        v = Verdict()
        call = op.data["call"]
        if not _cli_failed(call, v, "compare"):
            check_record(json.loads(call["stdout"]), refs, v, op.data["k"])
        return v


# ----------------------------------------------------------------------
# crosscheck
# ----------------------------------------------------------------------

class Crosscheck:
    """identities, compare and spectrum per system; contour moments for k<1."""

    name = "crosscheck"
    #: systems whose identity suite fails at the parent commit (D7), fixed:
    #: (k, eta-frac, L, M)
    FIXED = ((0.8, 0.6, 8, 12), (2.5, 0.8, 6, 10))
    #: seeded systems: k within 2% and eta-frac within 0.04 of 0.5
    SEEDED = ((0.5, 4, 4), (0.65, 6, 6), (0.8, 4, 8), (0.35, 8, 6),
              (1.2, 3, 4), (1.3, 5, 6), (1.4, 2, 8), (1.2, 7, 4))

    def inputs(self, seed):
        rng = random.Random(seed)
        systems = [dict(k=k, eta=eta, L=L, M=M) for k, eta, L, M in self.FIXED]
        for k, L, M in self.SEEDED:
            systems.append(dict(
                k=round(k * (1 + 0.02 * (2 * rng.random() - 1)), 6),
                eta=round(0.5 + 0.04 * (2 * rng.random() - 1), 6), L=L, M=M))
        return systems

    def warm_up(self, pkg):
        call_cli(pkg.cli, ["identities", "--L", "4", "--M", "4", "--k", "0.6",
                           "--eta-frac", "0.8"])

    def run_pass(self, pkg, systems, probe):
        units = []
        clock = probe.clock
        for s in systems:
            geo = ["--L", str(s["L"]), "--M", str(s["M"]), "--k",
                   repr(s["k"]), "--eta-frac", repr(s["eta"])]
            data = {"k": s["k"]}
            t0 = clock()
            data["identities"] = call_cli(pkg.cli, ["identities", *geo])
            data["compare"] = call_cli(pkg.cli, ["compare", *geo])
            data["spectrum"] = call_cli(pkg.cli, ["spectrum", *geo])
            if s["k"] < 1:
                data["contour"] = contour_vs_spectral(pkg, s)
            seconds = clock() - t0
            units.append((seconds, [Op(
                f"crosscheck {s['L']}x{s['M']} k={_fmt(s['k'])} "
                f"eta={_fmt(s['eta'])}", seconds, data)]))
            probe.after()
        return units

    def check(self, op, refs):
        v = Verdict()
        d = op.data
        if d["identities"].get("rc") != 3:
            _cli_failed(d["identities"], v, "identities")
        else:
            rep = json.loads(d["identities"]["stdout"])
            for e in rep["entries"]:
                if e["gating"] and e["status"] != "pass":
                    v.fail(f"identity {e['identity_id']}",
                           f"{e['status']} against gate {rep['tol']:g}"
                           + (f" ({e['note']})" if e["note"] else ""),
                           e["max_abs_residual"])
        if not _cli_failed(d["compare"], v, "compare"):
            check_record(json.loads(d["compare"]["stdout"]), refs, v, d["k"])
        if not _cli_failed(d["spectrum"], v, "spectrum"):
            phase = "disordered" if d["k"] < 1 else "ordered"
            worst = max(r["quantization_residual"]
                        for r in json.loads(d["spectrum"]["stdout"]))
            if not worst <= QUANT_TOL[phase]:
                v.fail("quantization", f"residual above the {phase} bound "
                       f"{QUANT_TOL[phase]:g}", worst)
        c = d.get("contour")
        if c is not None:
            if "exception" in c:
                v.fail("contour", c["exception"])
            else:
                for n, dev in c["devs"]:
                    v.digits.append(digits(dev))
                    if not dev <= CONTOUR_TOL:
                        v.fail(f"contour h_{n}", "contour moment off the "
                               "spectral sum", dev)
        return v


def contour_vs_spectral(pkg, s):
    """Contour moments h_1..h_{M-1} against the spectral sums."""
    try:
        c = pkg.params.couplings_from_modulus(s["k"], s["eta"], s["L"], s["M"])
        cctx = pkg.contour.ContourContext.from_couplings(c, with_spectrum=True)
        hs = pkg.partition.hankel_from_spectrum(cctx.points, c, cctx.weights,
                                                cctx.frame)
        ns = list(range(1, s["M"]))
        got = pkg.contour.contour_coefficients(
            ns, pkg.contour.default_contour(cctx.frame), cctx, "chi")
    except Exception as exc:  # recorded as a failed check
        return {"exception": f"{type(exc).__name__}: {exc}"}
    shift = math.exp(float(hs.log_shift))
    devs = []
    for n in ns:
        want = complex(hs.h(n)) * shift
        devs.append((n, abs(complex(got[n]) - want) / abs(want)))
    return {"devs": devs}


WORKLOADS = {w.name: w for w in (ScanSmall(), SolveHard(), Crosscheck())}
