"""Command-line surface.

Subcommands: z (one system, one or all routes), compare (route all, the
Pfaffian and the swapped system, plus deviations and checks), spectrum
(per-eigenvalue angle table), identities (the residual suite), scan
(modulus sweep as CSV), uplane (integrand field file).

Exit codes: 0 success, 1 numerical failure or no log Z: from z and
compare no route produced one, even after the 160-bit retry that a failed
structured route fires, single or not, or with every route the routes
still disagree by more than AGREEMENT_DEV after it (in compare, the
swapped system's log Z among them); from compare the Pfaffian failed,
so Pf = det H was not checked (a Pfaffian skipped at the critical
modulus or odd M passes); from scan no point produced one, or
with every route some point's routes still disagree (that row carries an
error naming the deviation); diagnostic JSON on stderr.  2 usage error,
3 gating identity failure.  JSON output is strict and compact, on one
line with sorted keys: a NaN or an infinity is written as null.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .contour import ContourContext, uplane_field
from .errors import DomainError, RectisingError
from .identities import GATING_TOL, run_identity_suite
from .params import Couplings, couplings_from_modulus
from .partition import AGREEMENT_DEV, ROUTES, assemble_logZ, fan_out
from .precision import Precision
from .spectrum import spectrum_for


def _couplings(ns) -> Couplings:
    """The couplings of the parsed options, validated."""
    if (ns.K_h is None) == (ns.k is None):
        raise DomainError(
            "provide exactly one of (--Kh, --Kv) or (--k, --eta-frac)")
    if ns.K_h is not None:
        if ns.K_v is None:
            raise DomainError("--Kh requires --Kv")
        return Couplings(ns.K_h, ns.K_v, ns.L, ns.M)
    return couplings_from_modulus(ns.k, _eta_fraction(ns), ns.L, ns.M)


def _eta_fraction(ns) -> float:
    """The parsed --eta-frac (1 if absent), validated."""
    frac = ns.eta_fraction if ns.eta_fraction is not None else 1.0
    if not 0 < frac <= 1:
        raise DomainError("--eta-frac must lie in (0, 1]")
    return frac


def _precision(ns):
    """The precision --precision-bits forces, or None (the engine's choice)."""
    return None if ns.precision_bits is None else Precision(ns.precision_bits)


def _finite(obj):
    """``obj`` with every non-finite float, at any depth, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                         allow_nan=False)


def _json_dumps(obj) -> str:
    """Strict, compact JSON on one line, NaN and infinities as null."""
    try:
        return _JSON.encode(obj) + "\n"
    except ValueError:
        return _JSON.encode(_finite(obj)) + "\n"


def _no_log_z(message: str, **detail) -> int:
    """Diagnostic JSON on stderr for a run without a log Z it can stand
    by; exit code 1."""
    sys.stderr.write(_json_dumps({"error": "RectisingError",
                                  "message": message, **detail}))
    return 1


def _disagreement(res) -> str:
    """Why a route="all" result has no log Z to stand by, or ""."""
    if res.route == "all" and res.max_pairwise_dev > AGREEMENT_DEV:
        return (f"the routes disagree by {res.max_pairwise_dev:.3e}, more "
                f"than {AGREEMENT_DEV:g}")
    return ""


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# ----------------------------------------------------------------------
# result serialization
# ----------------------------------------------------------------------

def result_record(res) -> dict:
    """The JSON record of a result, whose ``checks`` read its outcomes:
    Pf = det H and the ``swap`` outcome's deviation (NaN if it failed)."""
    c = res.couplings
    checks, routes = {}, {}
    for name, o in res.outcomes.items():
        rec = {
            "status": o.status,
            "seconds": round(o.seconds, 6),
            "precision_bits": o.precision_bits,
            "diagnostics": dict(o.diagnostics),
        }
        if o.status == "ok":
            rec.update({
                "logZ": o.logZ,
                "rel_dev_to_reference": abs(o.logZ - res.logZ)
                / max(1.0, abs(res.logZ)),
            })
        else:
            rec["reason"] = o.reason
        routes[name] = rec
        if name == "swap" and o.status != "skipped":
            checks["swap_invariance"] = rec.get("rel_dev_to_reference",
                                                math.nan)
            checks["swap_reference_route"] = o.diagnostics["reference_route"]
    oh, op = (res.outcomes.get(name) for name in ("hankel", "pfaffian"))
    if oh and op and oh.status == op.status == "ok":
        checks["pf_eq_det"] = abs(oh.logZ - op.logZ)
    return {
        "L": c.L, "M": c.M, "K_h": c.K_h, "K_v": c.K_v,
        "k": res.k, "eta_im_over_Kprime": res.eta_im_over_Kprime,
        "route": res.route, "logZ": res.logZ,
        "max_pairwise_rel_dev": res.max_pairwise_dev,
        "pipeline_seconds": round(res.pipeline_seconds, 6),
        "routes": routes,
        "checks": checks,
    }


def _result_text(rec: dict) -> str:
    lines = [f"L={rec['L']} M={rec['M']} K_h={rec['K_h']:.6g} "
             f"K_v={rec['K_v']:.6g} k={rec['k']:.6g}",
             f"logZ = {rec['logZ']!r}   max pairwise rel dev = "
             f"{rec['max_pairwise_rel_dev']:.3e}"]
    for name in sorted(rec["routes"]):
        r = rec["routes"][name]
        if r["status"] == "ok":
            lines.append(f"  {name:9s} logZ={r['logZ']!r}  "
                         f"dev={r['rel_dev_to_reference']:.3e}  "
                         f"[{r['precision_bits']} bits, {r['seconds']:.3f}s]")
        else:
            lines.append(f"  {name:9s} {r['status']}: {r.get('reason', '')}")
    for name, val in sorted(rec.get("checks", {}).items()):
        lines.append(f"  check {name}: {val!r}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_z(ns, with_checks=False) -> int:
    res = assemble_logZ(_couplings(ns), getattr(ns, "route", "all"),
                        prec=_precision(ns))
    if with_checks:
        fan_out(res, ("pfaffian",))
    if math.isnan(res.logZ):
        return _no_log_z("no route produced a log Z", routes={
            name: {"status": o.status, "reason": o.reason}
            for name, o in res.outcomes.items()})
    if with_checks:     # a swap deviation must not rerun the Pfaffian
        fan_out(res, ("swap",))
    if why := _disagreement(res):
        return _no_log_z(why, max_pairwise_rel_dev=(
            res.max_pairwise_dev), routes=result_record(res)["routes"])
    if with_checks and res.outcomes["pfaffian"].status == "failed":
        return _no_log_z("the Pfaffian failed, so Pf = det H was not "
                         "checked", routes=result_record(res)["routes"])
    rec = result_record(res)
    if ns.fmt == "json":
        _emit(_json_dumps(rec), ns.out)
    elif ns.fmt == "csv":
        _emit(_scan_csv([rec]), ns.out)
    else:
        _emit(_result_text(rec), ns.out)
    return 0


def _csv_cells(row):
    """(column, cell) pairs of a JSON row: a complex value [re, im] takes
    two columns, a number is written as its repr, a string as it is."""
    for key, v in row.items():
        if isinstance(v, list):
            yield f"{key}_re", repr(v[0])
            yield f"{key}_im", repr(v[1])
        else:
            yield key, v if isinstance(v, str) else repr(v)


def cmd_spectrum(ns) -> int:
    _w, _frame, _bundle, pts = spectrum_for(_couplings(ns), _precision(ns))
    rows = [{
        "mu": p.mu, "lambda": float(p.lam), "gamma": float(p.gamma),
        "phi": _cplx(p.phi), "chi": float(p.chi), "u": _cplx(p.u),
        "omega": _cplx(p.omega), "theta": _cplx(p.theta),
        "psi": _cplx(p.psi), "branch": p.branch,
        "quantization_residual": p.quant_residual,
    } for p in pts]
    if ns.fmt == "csv":
        table = [dict(_csv_cells(r)) for r in rows]
        buf = io.StringIO()
        wtr = csv.DictWriter(buf, list(table[0]), lineterminator="\n")
        wtr.writeheader()
        wtr.writerows(table)
        _emit(buf.getvalue(), ns.out)
    else:
        _emit(_json_dumps(rows), ns.out)
    return 0


def cmd_identities(ns, **suite_opts) -> int:
    """``suite_opts``: the given --tol, --samples and --seed; the suite's
    own defaults stand for the others."""
    rep = run_identity_suite(_couplings(ns), prec=_precision(ns),
                             **suite_opts)
    _emit(_json_dumps(rep.to_dict()), ns.out)
    return 3 if rep.failed else 0


def _scan_csv(records) -> str:
    buf = io.StringIO()
    wtr = csv.writer(buf, lineterminator="\n")
    hdr = ["k", "L", "M", "K_h", "K_v", "logZ", "max_pairwise_rel_dev"]
    hdr += [f"logZ_{r}" for r in ROUTES]
    hdr.append("error")
    wtr.writerow(hdr)
    for rec in records:
        row = [repr(rec["k"]), rec["L"], rec["M"], repr(rec["K_h"]),
               repr(rec["K_v"]), repr(rec["logZ"]),
               repr(rec["max_pairwise_rel_dev"])]
        for r in ROUTES:
            o = rec["routes"].get(r, {})
            row.append(repr(o["logZ"]) if o.get("status") == "ok" else "")
        row.append(rec.get("error", ""))
        wtr.writerow(row)
    return buf.getvalue()


def cmd_scan(ns, k_values) -> int:
    frac = _eta_fraction(ns)

    def one(k):
        try:
            c = couplings_from_modulus(k, frac, ns.L, ns.M)
            res = assemble_logZ(c, ns.route, prec=_precision(ns))
        except RectisingError as exc:
            # a sweep point may be infeasible (e.g. the critical modulus
            # has no anisotropy parametrization); record, don't abort
            return {"k": k, "L": ns.L, "M": ns.M,
                    "K_h": float("nan"), "K_v": float("nan"),
                    "logZ": float("nan"), "max_pairwise_rel_dev":
                    float("nan"), "routes": {},
                    "error": f"{type(exc).__name__}: {exc}"}
        rec = result_record(res)
        if why := _disagreement(res):
            rec["error"] = why
        return rec

    records = [one(k) for k in sorted(k_values)]
    if ns.fmt == "json":
        _emit(_json_dumps(records), ns.out)
    else:
        _emit(_scan_csv(records), ns.out)
    if all(math.isnan(rec["logZ"]) for rec in records):
        return _no_log_z("no scan point produced a log Z", points=[
            {"k": rec["k"],
             "error": rec.get("error", "no route produced a log Z")}
            for rec in records])
    disagreeing = [rec for rec in records
                   if "error" in rec and not math.isnan(rec["logZ"])]
    if disagreeing:
        return _no_log_z("the routes disagree at some scan points", points=[
            {"k": rec["k"], "error": rec["error"],
             "max_pairwise_rel_dev": rec["max_pairwise_rel_dev"]}
            for rec in disagreeing])
    return 0


def cmd_uplane(ns) -> int:
    cctx = ContourContext.from_couplings(_couplings(ns), _precision(ns),
                                         with_spectrum=True)
    _emit(uplane_field(ns.n, ns.grid, cctx).text(), ns.out)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_common(p, couplings=True):
    """Geometry, couplings, precision and output options; without
    ``couplings`` only --eta-frac of the coupling options (scan sweeps k)."""
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    if couplings:
        p.add_argument("--Kh", type=float, dest="K_h")
        p.add_argument("--Kv", type=float, dest="K_v")
        p.add_argument("--k", type=float)
    p.add_argument("--eta-frac", type=float, dest="eta_fraction",
                   help="anisotropy point as a fraction of the isotropic "
                        "point i K'/4 (in (0, 1])")
    p.add_argument("--precision-bits", type=int, default=None,
                   help="53 or 100..4096 (default: auto)")
    p.add_argument("--out", default=None)


def _add_format(p, choices=("json", "csv", "text")):
    p.add_argument("--format", choices=choices, default="json", dest="fmt")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    reads it and changes nothing in it."""
    ap = argparse.ArgumentParser(
        prog="rectising",
        description="Exact partition functions of the anisotropic Ising "
                    "model on open rectangles, via cross-validating "
                    "determinant, Pfaffian and contour routes.")
    sub = ap.add_subparsers(dest="command", required=True)

    pz = sub.add_parser("z", help="partition function of one system")
    _add_common(pz)
    _add_format(pz)
    pz.add_argument("--route", default="all", choices=("all",) + ROUTES,
                    help="all: the spin oracle, block and Hankel")

    pc = sub.add_parser("compare",
                        help="route all, the Pfaffian and the checks")
    _add_common(pc)
    _add_format(pc)

    ps = sub.add_parser("spectrum", help="per-eigenvalue angle table")
    _add_common(ps)
    _add_format(ps, ("json", "csv"))

    pi = sub.add_parser("identities", help="run the identity suite")
    _add_common(pi)
    pi.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                    help="gating tolerance of the scaled residuals "
                         f"(default {GATING_TOL:g})")
    pi.add_argument("--samples", type=int, default=argparse.SUPPRESS,
                    help="random torus points per sample set")
    pi.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="seed of the torus samples")

    pn = sub.add_parser("scan", help="sweep the modulus, emit CSV/JSON")
    _add_common(pn, couplings=False)
    _add_format(pn, ("json", "csv"))
    pn.add_argument("--k-min", type=float, required=True)
    pn.add_argument("--k-max", type=float, required=True)
    pn.add_argument("--steps", type=int, default=9,
                    help="moduli from k-min to k-max (1: k-min alone)")
    pn.add_argument("--route", default="all", choices=("all",) + ROUTES)

    pu = sub.add_parser("uplane", help="emit the integrand field file")
    _add_common(pu)
    pu.add_argument("--n", type=int, default=1,
                    help="moment index of the sampled integrand")
    pu.add_argument("--grid", type=int, default=64)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    if ns.command == "scan" and ns.steps < 1:
        ap.error(f"--steps must be at least 1, got {ns.steps}")
    try:
        if ns.command == "z":
            return cmd_z(ns)
        if ns.command == "compare":
            return cmd_z(ns, with_checks=True)
        if ns.command == "spectrum":
            return cmd_spectrum(ns)
        if ns.command == "identities":
            return cmd_identities(ns, **{
                key: getattr(ns, key) for key in ("tol", "samples", "seed")
                if key in ns})
        if ns.command == "scan":
            if ns.steps == 1:
                ks = [ns.k_min]
            else:
                step = (ns.k_max - ns.k_min) / (ns.steps - 1)
                ks = [ns.k_min + i * step for i in range(ns.steps)]
            return cmd_scan(ns, ks)
        if ns.command == "uplane":
            return cmd_uplane(ns)
        raise AssertionError(ns.command)
    except RectisingError as exc:
        sys.stderr.write(_json_dumps({
            "error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
