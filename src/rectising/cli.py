"""Command-line surface.

Subcommands: z (one system, one or all routes), compare (all feasible
routes plus pairwise deviations and consistency checks), spectrum
(per-eigenvalue angle table), identities (the residual suite), scan
(modulus sweep as CSV), uplane (integrand field file).

Exit codes: 0 success, 1 numerical failure (diagnostic JSON on stderr),
2 usage error, 3 gating identity failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .contour import ContourContext, uplane_field
from .errors import DomainError, RectisingError
from .identities import GATING_TOL, run_identity_suite
from .params import Couplings, couplings_from_modulus, swap_system
from .partition import ROUTES, assemble_logZ, route_feasibility
from .precision import Precision
from .spectrum import spectrum_for

ENV_PRECISION = "RECTISING_PRECISION_BITS"


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by the subcommands."""

    L: int
    M: int
    K_h: float = None
    K_v: float = None
    k: float = None
    eta_fraction: float = None
    route: str = "all"
    precision_bits: int = None
    fmt: str = "json"
    out: str = None

    def couplings(self) -> Couplings:
        if (self.K_h is None) == (self.k is None):
            raise DomainError(
                "provide exactly one of (--Kh, --Kv) or (--k, --eta-frac)")
        if self.K_h is not None:
            if self.K_v is None:
                raise DomainError("--Kh requires --Kv")
            return Couplings(self.K_h, self.K_v, self.L, self.M)
        frac = self.eta_fraction if self.eta_fraction is not None else 1.0
        if not 0 < frac <= 1:
            raise DomainError("--eta-frac must lie in (0, 1]")
        return couplings_from_modulus(self.k, frac, self.L, self.M)

    def precision(self):
        if self.precision_bits is not None:
            return Precision(self.precision_bits)
        env = os.environ.get(ENV_PRECISION)
        if env:
            return Precision(int(env))
        return None


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


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

def result_record(res, checks=None) -> dict:
    c = res.couplings
    routes = {}
    for name, o in res.outcomes.items():
        rec = {
            "status": o.status,
            "seconds": round(o.seconds, 6),
            "precision_bits": o.precision_bits,
            "diagnostics": {key: _cplx(v) if isinstance(v, complex) else v
                            for key, v in o.diagnostics.items()},
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
    eta_frac = res.eta_im_over_Kprime
    if eta_frac != eta_frac:      # undefined at the critical modulus
        eta_frac = None
    return {
        "L": c.L, "M": c.M, "K_h": c.K_h, "K_v": c.K_v,
        "k": res.k, "eta_im_over_Kprime": eta_frac,
        "route": res.route, "logZ": res.logZ,
        "max_pairwise_rel_dev": res.max_pairwise_dev,
        "pipeline_seconds": round(res.pipeline_seconds, 6),
        "routes": routes,
        "checks": checks or {},
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


def _consistency_checks(res) -> dict:
    checks = {}
    oh = res.outcomes.get("hankel")
    op = res.outcomes.get("pfaffian")
    if oh is not None and op is not None and oh.status == op.status == "ok":
        checks["pf_eq_det"] = abs(oh.logZ - op.logZ)
    cs = swap_system(res.couplings)
    for name in ("spin", "block", "brute"):
        if not route_feasibility(cs, name, res.k):
            sres = assemble_logZ(cs, name)
            checks["swap_invariance"] = abs(sres.logZ - res.logZ) \
                / max(1.0, abs(res.logZ))
            checks["swap_reference_route"] = name
            break
    return checks


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_z(cfg: RunConfig, with_checks=False) -> int:
    c = cfg.couplings()
    res = assemble_logZ(c, cfg.route, prec=cfg.precision())
    checks = _consistency_checks(res) if with_checks else {}
    rec = result_record(res, checks)
    if cfg.fmt == "json":
        _emit(_json_dumps(rec), cfg.out)
    elif cfg.fmt == "csv":
        _emit(_scan_csv([rec]), cfg.out)
    else:
        _emit(_result_text(rec), cfg.out)
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    c = cfg.couplings()
    _w, _frame, _bundle, pts = spectrum_for(c, cfg.precision())
    rows = []
    for p in pts:
        rows.append({
            "mu": p.mu, "lambda": float(p.lam), "gamma": float(p.gamma),
            "phi": _cplx(p.phi), "chi": float(p.chi), "u": _cplx(p.u),
            "omega": _cplx(p.omega), "theta": _cplx(p.theta),
            "psi": _cplx(p.psi), "branch": p.branch,
            "quantization_residual": p.quant_residual,
        })
    if cfg.fmt == "csv":
        buf = io.StringIO()
        wtr = csv.writer(buf, lineterminator="\n")
        hdr = ["mu", "lambda", "gamma", "phi_re", "phi_im", "chi",
               "u_re", "u_im", "omega_re", "omega_im", "theta_re",
               "theta_im", "psi_re", "psi_im", "branch",
               "quantization_residual"]
        wtr.writerow(hdr)
        for r in rows:
            wtr.writerow([r["mu"], repr(r["lambda"]), repr(r["gamma"]),
                          repr(r["phi"][0]), repr(r["phi"][1]),
                          repr(r["chi"]), repr(r["u"][0]), repr(r["u"][1]),
                          repr(r["omega"][0]), repr(r["omega"][1]),
                          repr(r["theta"][0]), repr(r["theta"][1]),
                          repr(r["psi"][0]), repr(r["psi"][1]),
                          r["branch"], repr(r["quantization_residual"])])
        _emit(buf.getvalue(), cfg.out)
    else:
        _emit(_json_dumps(rows), cfg.out)
    return 0


def cmd_identities(cfg: RunConfig, **suite_opts) -> int:
    """``suite_opts``: the given --tol, --samples and --seed; the suite's
    own defaults stand for the others."""
    rep = run_identity_suite(cfg.couplings(), prec=cfg.precision(),
                             **suite_opts)
    _emit(_json_dumps(rep.to_dict()), cfg.out)
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


def cmd_scan(cfg: RunConfig, k_values) -> int:
    frac = cfg.eta_fraction if cfg.eta_fraction is not None else 1.0

    def one(k):
        try:
            c = couplings_from_modulus(k, frac, cfg.L, cfg.M)
            res = assemble_logZ(c, cfg.route, prec=cfg.precision())
            return result_record(res)
        except RectisingError as exc:
            # a sweep point may be infeasible (e.g. the critical modulus
            # has no anisotropy parametrization); record, don't abort
            return {"k": k, "L": cfg.L, "M": cfg.M,
                    "K_h": float("nan"), "K_v": float("nan"),
                    "logZ": float("nan"), "max_pairwise_rel_dev":
                    float("nan"), "routes": {},
                    "error": f"{type(exc).__name__}: {exc}"}

    records = [one(k) for k in sorted(k_values)]
    if cfg.fmt == "json":
        _emit(_json_dumps(records), cfg.out)
    else:
        _emit(_scan_csv(records), cfg.out)
    return 0


def cmd_uplane(cfg: RunConfig, n: int, grid: int) -> int:
    c = cfg.couplings()
    cctx = ContourContext.from_couplings(c, cfg.precision(),
                                         with_spectrum=True)
    field = uplane_field(n, grid, cctx)
    _emit(field.text(), cfg.out)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_common(p, geometry=True):
    if geometry:
        p.add_argument("--L", type=int, required=True)
        p.add_argument("--M", type=int, required=True)
    p.add_argument("--Kh", type=float, dest="K_h")
    p.add_argument("--Kv", type=float, dest="K_v")
    p.add_argument("--k", type=float)
    p.add_argument("--eta-frac", type=float, dest="eta_fraction",
                   help="anisotropy point as a fraction of the isotropic "
                        "point i K'/4 (in (0, 1])")
    p.add_argument("--precision-bits", type=int, default=None,
                   help=f"53 or 100..4096 (default: auto; env "
                        f"{ENV_PRECISION})")
    p.add_argument("--out", default=None)


def _add_format(p, choices=("json", "csv", "text")):
    p.add_argument("--format", choices=choices, default="json", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rectising",
        description="Exact partition functions of the anisotropic Ising "
                    "model on open rectangles, via cross-validating "
                    "determinant, Pfaffian and contour routes.")
    sub = ap.add_subparsers(dest="command", required=True)

    pz = sub.add_parser("z", help="partition function of one system")
    _add_common(pz)
    _add_format(pz)
    pz.add_argument("--route", default="all",
                    choices=("all",) + ROUTES)

    pc = sub.add_parser("compare",
                        help="all feasible routes plus consistency checks")
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
    _add_common(pn)
    _add_format(pn, ("json", "csv"))
    pn.add_argument("--k-min", type=float, required=True)
    pn.add_argument("--k-max", type=float, required=True)
    pn.add_argument("--steps", type=int, default=9)
    pn.add_argument("--route", default="all", choices=("all",) + ROUTES)

    pu = sub.add_parser("uplane", help="emit the integrand field file")
    _add_common(pu)
    pu.add_argument("--n", type=int, default=1,
                    help="moment index of the sampled integrand")
    pu.add_argument("--grid", type=int, default=64)
    return ap


def _config(ns) -> RunConfig:
    return RunConfig(L=ns.L, M=ns.M, K_h=ns.K_h, K_v=ns.K_v, k=ns.k,
                     eta_fraction=ns.eta_fraction,
                     route=getattr(ns, "route", "all"),
                     precision_bits=ns.precision_bits,
                     fmt=getattr(ns, "fmt", "json"), out=ns.out)


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        cfg = _config(ns)
        if ns.command == "z":
            return cmd_z(cfg)
        if ns.command == "compare":
            return cmd_z(cfg, with_checks=True)
        if ns.command == "spectrum":
            return cmd_spectrum(cfg)
        if ns.command == "identities":
            return cmd_identities(cfg, **{
                key: getattr(ns, key) for key in ("tol", "samples", "seed")
                if key in ns})
        if ns.command == "scan":
            if ns.steps < 2:
                ks = [ns.k_min]
            else:
                step = (ns.k_max - ns.k_min) / (ns.steps - 1)
                ks = [ns.k_min + i * step for i in range(ns.steps)]
            return cmd_scan(cfg, ks)
        if ns.command == "uplane":
            return cmd_uplane(cfg, ns.n, ns.grid)
        raise AssertionError(ns.command)
    except RectisingError as exc:
        sys.stderr.write(_json_dumps({
            "error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
