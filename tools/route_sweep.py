"""The 320-system sweep of `assemble_logZ(c, "all")` (ROADMAP "State").

    PYTHONPATH=src python3 tools/route_sweep.py [--out FILE] [--forced-bits N]
    PYTHONPATH=src python3 tools/route_sweep.py --large
    PYTHONPATH=src python3 tools/route_sweep.py --pfaffian

Runs route="all" at the default precision on every system of the grid
L x M in SIZES, k in KS and eta-frac in ETAS, and reads each result
against a 256-bit block route.  It prints one JSON summary: the systems
whose result ran a structured route above 53 bits (escalations), how
many of those fail the binary64 joint check (ROADMAP D8), the time spent
in `assemble_logZ`, the worst relative error of the reported log Z and
of any `ok` route, and the systems whose pairwise deviation stays above
AGREEMENT_DEV.  ``--out`` writes one record per system (the log Z and
precision of every route), so that two source trees can be compared;
``--forced-bits`` adds the route="all" outcomes at that precision.

``--large`` prints instead the large-systems table of ROADMAP "State" as
markdown, from one in-process run of each square in LARGE: the time to
build its binary64 pipeline (the family eigensystem), binary64 block on
that pipeline, the swap pair (binary64 block on the system and on
`swap_system(c)`, each building its own pipeline) and their relative
deviation, and up to ALL_MAX the time of route="all", the most bits any
of its routes ran at, and the larger relative deviation of the pair from
its log Z.

``--pfaffian`` prints instead the tally of ROADMAP D10: the single route
`assemble_logZ(c, "pfaffian")`, at its default 160 bits, on every system
of the grid against the 256-bit block route, as the systems within
PFAFFIAN_TOL, those `ok` but further off, those `failed` and those the
route refuses (`skipped`), with the labels of all but the first class.
Run it from the root of the source tree whose package it should import.
"""

from __future__ import annotations

import argparse
import json
import time

from rectising.errors import JointDiagonalizationError
from rectising.params import couplings_from_modulus, swap_system
from rectising.partition import (AGREEMENT_DEV, assemble_logZ,
                                 block_transfer_logZ)
from rectising.precision import FLOAT64, Precision
from rectising.spectrum import SystemPipeline

SIZES = ((4, 4), (6, 10), (10, 12), (12, 12), (12, 24), (4, 22), (24, 16),
         (8, 24), (16, 16), (32, 16))
KS = (0.3, 0.6, 0.9, 1.05, 1.45, 2.5, 6, 30)
ETAS = (0.3, 0.6, 0.85, 1.0)
REFERENCE = Precision(256)

#: (n, k, eta-frac) of the n x n squares of ``--large``
LARGE = ((64, 0.6, 0.8), (128, 3, 0.8), (256, 0.6, 0.8), (256, 0.95, 1.0),
         (1024, 0.6, 0.8))
#: the largest n on which ``--large`` runs the swap pair and route="all"
ALL_MAX = 256
#: the relative error within which ``--pfaffian`` counts a log Z as right
PFAFFIAN_TOL = 1e-12


def _outcomes(res):
    return {name: {"status": o.status, "bits": o.precision_bits,
                   "logZ": o.logZ} for name, o in res.outcomes.items()}


def _fails_joint_check(c) -> bool:
    try:
        SystemPipeline(c).checked()
    except JointDiagonalizationError:
        return True
    return False


def _timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - t0


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def _grid():
    """(label, couplings) of every system of the sweep grid."""
    for L, M in SIZES:
        for k in KS:
            for eta in ETAS:
                yield (f"{L}x{M} k={k} eta={eta}",
                       couplings_from_modulus(k, eta, L, M))


def _err(lz, ref) -> float:
    """Relative error of ``lz`` against the 256-bit ``ref``; inf if NaN."""
    e = float(abs(REFERENCE.ctx.mpf(lz) - ref) / abs(ref))
    return e if e == e else float("inf")


def pfaffian_tally() -> dict:
    """The ``--pfaffian`` tally: how many systems of the grid fall in each
    class, and the label of each system off, failed or refused."""
    classes = {"within": [], "ok_but_off": [], "failed": [], "refused": []}
    for label, c in _grid():
        o = assemble_logZ(c, "pfaffian").outcomes["pfaffian"]
        if o.status == "ok":
            e = _err(o.logZ, block_transfer_logZ(c, REFERENCE)[0])
            name = "within" if e <= PFAFFIAN_TOL else "ok_but_off"
            classes[name].append((label, e))
        else:
            name = "failed" if o.status == "failed" else "refused"
            classes[name].append((label, o.reason))
    tally = {"systems": sum(map(len, classes.values())),
             **{name: len(v) for name, v in classes.items()}}
    tally.update((f"{name}_systems", v) for name, v in classes.items()
                 if name != "within")
    return tally


def large_table() -> str:
    """The ``--large`` table, one row per square of LARGE."""
    lines = ['| system | pipeline | block | swap pair | swap deviation '
             '| `route="all"` | bits | pair vs result |',
             "|---|---|---|---|---|---|---|---|"]
    for n, k, eta in LARGE:
        c = couplings_from_modulus(k, eta, n, n)
        pipe = SystemPipeline(c, FLOAT64)
        _, t_pipe = _timed(pipe.family)
        _, t_block = _timed(block_transfer_logZ, c, FLOAT64, pipe)
        cells = [f"{n}×{n}, k={k}, η-frac {eta}", f"{t_pipe:.3f} s",
                 f"{t_block:.3f} s"]
        if n <= ALL_MAX:
            t0 = time.perf_counter()
            a = block_transfer_logZ(c, FLOAT64)[0]
            b = block_transfer_logZ(swap_system(c), FLOAT64)[0]
            t_pair = time.perf_counter() - t0
            res, t_all = _timed(assemble_logZ, c, "all")
            bits = max(o.precision_bits for o in res.outcomes.values())
            off = max(_rel(a, res.logZ), _rel(b, res.logZ))
            cells += [f"{t_pair:.3f} s", f"{_rel(a, b):.2g}",
                      f"{t_all:.3f} s", str(bits), f"{off:.2g}"]
        else:
            cells += ["–"] * 5
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the per-system records here")
    ap.add_argument("--forced-bits", type=int,
                    help="also record route='all' at this precision")
    ap.add_argument("--large", action="store_true",
                    help="print the large-systems table instead")
    ap.add_argument("--pfaffian", action="store_true",
                    help="print the single Pfaffian route's tally instead")
    ns = ap.parse_args(argv)
    if ns.large:
        print(large_table())
        return
    if ns.pfaffian:
        print(json.dumps(pfaffian_tally(), indent=1))
        return
    records, seconds = [], 0.0
    worst_reported = worst_route = (0.0, None)
    escalated, d8, disagreeing = [], 0, []
    for label, c in _grid():
        t0 = time.perf_counter()
        res = assemble_logZ(c, "all")
        seconds += time.perf_counter() - t0
        ref = block_transfer_logZ(c, REFERENCE)[0]
        worst_reported = max(worst_reported, (_err(res.logZ, ref), label))
        for o in res.outcomes.values():
            if o.status == "ok":
                worst_route = max(worst_route,
                                  (_err(o.logZ, ref), f"{label} {o.name}"))
        if any(o.precision_bits > 53 for o in res.outcomes.values()):
            escalated.append(label)
            d8 += _fails_joint_check(c)
        if res.max_pairwise_dev > AGREEMENT_DEV:
            disagreeing.append((label, res.max_pairwise_dev))
        rec = {"system": label, "default": _outcomes(res),
               "reference": float(ref)}
        if ns.forced_bits:
            rec["forced"] = _outcomes(assemble_logZ(
                c, "all", Precision(ns.forced_bits)))
        records.append(rec)
    summary = {
        "systems": len(records),
        "escalations": len(escalated),
        "escalations_failing_binary64_joint_check": d8,
        "assemble_seconds": round(seconds, 3),
        "worst_reported_err": worst_reported,
        "worst_route_err": worst_route,
        "pairwise_dev_above_agreement": disagreeing,
    }
    print(json.dumps(summary, indent=1))
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(records, fh, indent=0)


if __name__ == "__main__":
    main()
