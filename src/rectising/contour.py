"""Contour-integral route for the structured matrix elements.

The Hankel moments and the symbol Fourier coefficients are line integrals
of a meromorphic ratio over horizontal circles of the u-torus.  The
integrand is built entirely from single-valued Jacobi-function expressions,
so it needs no branch decisions; the periodic trapezoid rule then converges
geometrically.

Geometry: the eigenvalue zeros of the denominator sit on the circles
Im u = 0 and Im u = K', in symmetric pairs (u, -conj(u)), both members of a
pair carrying the full spectral-sum term of one eigenvalue.  Counter-poles
sit at +-eta and +-(iK' - eta), numerator zeros on Im u = +-K'/2.  A
counterclockwise band around each eigenvalue circle therefore picks up
every eigenvalue twice, and the band integrals are halved to match the
one-term-per-eigenvalue spectral sums.

Evaluation: a ladder level, its lines as rows, and a u-plane grid row are
each one array evaluation (`EllipticKernel.sncndn_line`, then `_node` on
the (lines x nodes) arrays): complex arrays in binary64, object arrays of
the context's numbers in extended precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elliptic import _scalar_fns
from .errors import ConvergenceError, DomainError, PoleError, RouteInfeasibleError
from .params import Couplings, EllipticFrame, Weights
from .precision import Precision
from .spectrum import (SystemPipeline, double_argument, sn_add, sn_pm_eta,
                       spectrum_for)

#: contour lines must keep this fraction of K' away from every pole level
BAND_MARGIN = 1e-3

#: relative change between sample doublings that counts as converged
QUAD_TOL = 1e-11

MAX_SAMPLES = 1 << 14


@dataclass(frozen=True)
class ContourSpec:
    """Two horizontal levels around each enclosed eigenvalue circle.

    The band [c_low, c_high] brackets the circle Im u = 0; the same offsets
    shifted by K' bracket the reciprocal circle.  Orientation is
    counterclockwise: direction +1 on the low line, -1 on the high line.
    Vertical closure segments cancel by periodicity and are omitted.
    """

    c_low: float
    c_high: float
    samples: int = 256

    def __post_init__(self):
        if self.samples < 64:
            raise DomainError("contour needs at least 64 samples")
        if not self.c_low < self.c_high:
            raise DomainError("c_low must lie below c_high")

    def lines(self, frame: EllipticFrame):
        """(imaginary level, direction sign) for every line."""
        out = []
        for off in (0.0, float(frame.K_prime)):
            out.append((self.c_low + off, +1))
            out.append((self.c_high + off, -1))
        return out


def default_contour(frame: EllipticFrame) -> ContourSpec:
    """Mid-band levels: halfway between the eigenvalue circle and the
    nearest counter-pole level at +-Im(eta)."""
    c = float(frame.prec.ctx.im(frame.eta)) / 2
    spec = ContourSpec(c_low=-c, c_high=c)
    validate_contour(spec, frame)
    return spec


def pole_levels(frame: EllipticFrame):
    """Imaginary parts of every pole of the integrand: the counter-pole
    set and the eigenvalue circles themselves."""
    h = float(frame.prec.ctx.im(frame.eta))
    Kp = float(frame.K_prime)
    return (0.0, Kp, -Kp, h, -h, Kp - h, -(Kp - h), Kp + h, -(Kp + h))


def validate_contour(spec: ContourSpec, frame: EllipticFrame):
    Kp = float(frame.K_prime)
    for level, _sign in spec.lines(frame):
        for p in pole_levels(frame):
            if abs(level - p) < BAND_MARGIN * Kp:
                raise DomainError(
                    f"contour line Im u = {level} within {BAND_MARGIN} K' "
                    f"of the pole level {p}")


@dataclass
class ContourContext:
    """Frames one system for the integrand evaluations and the closed
    characteristic polynomials (`spectrum.char_poly_eval`)."""

    frame: EllipticFrame
    weights: Weights
    L: int
    M: int
    points: list = None     # enriched spectrum, for markers

    @classmethod
    def from_couplings(cls, c: Couplings, prec: Precision | None = None,
                       with_spectrum: bool = False):
        if with_spectrum:
            w, frame, _pipe, pts = spectrum_for(c, prec)
            return cls(frame=frame, weights=w, L=c.L, M=c.M, points=pts)
        pipe = SystemPipeline(c, prec)
        return cls(frame=pipe.frame(), weights=pipe.weights(), L=c.L, M=c.M)

    @property
    def prec(self):
        return self.frame.prec

    @cached_property
    def sn_eta_points(self):
        """sn(eta + u_mu) at every point: the fixed factors of the zeta
        characteristic polynomials."""
        eta_triple, k = self.frame.eta_triple, self.frame.k
        return [sn_add(eta_triple, (q.sn_u, q.cn_u, q.dn_u), k)
                for q in self.points]


def _node(u, cctx: ContourContext, triple=None):
    """Common factor NUM/DEN * dgamma/du and the bases (chi, zeta) at u.

    One kernel evaluation, or the caller's ``triple`` (then u is unread;
    arrays of nodes, of any shape, give arrays): sn(u +- eta) come from
    the triple and the frame's eta triple by the addition formula.  Node
    values stand left of the frame's scalars, as in `sn_add`.
    """
    frame = cctx.frame
    i = _scalar_fns(cctx.prec).mpc(0, 1)
    k = frame.k
    if triple is None:
        triple = frame.kernel.sncndn(u)
    sn, cn, dn = triple
    sp, sm = sn_pm_eta(triple, frame)
    lam, zeta = 1 / (sp * k * sm), sp / sm
    exp_m_theta = dn * i / (sn * k * cn)
    num = 1 - lam ** cctx.L * exp_m_theta
    sn2, cn2, _dn2 = double_argument(triple, k)
    den = 1 - zeta ** cctx.M * (cn2 - sn2 * i)
    chi = zeta + 1 / zeta + 2
    dgamma = sn2 * -k * (lam - 1 / lam)
    return num / den * dgamma, chi, zeta


def integrand_h(u, n: int, cctx: ContourContext):
    """Moment integrand: symbol ratio times chi^n times dgamma/du.

    Kept as the tests' scalar reference for `uplane_field` and the ladder."""
    common, chi, _zeta = _node(u, cctx)
    return common * chi ** n


def _require_disordered(cctx):
    if float(cctx.frame.k) > 1:
        raise RouteInfeasibleError(
            "contour route disabled above the transition: the smallest "
            "eigenvalue zero leaves the integration circles")


def _line_sums(ns, lines, cctx, base, samples, stride=1):
    """Signed node sums over the (level, sign) lines at the nodes
    -K + j * (2K/samples), j = stride - 1, 2*stride - 1, ... below samples;
    without the step factor."""
    K = float(cctx.frame.K)
    xs = -K + np.arange(stride - 1, samples, stride) * (2 * K / samples)
    exps = np.array(ns) * (1 if base == "chi" else -1)
    common, chi, zeta = _node(None, cctx, cctx.frame.kernel.sncndn_line(
        xs, [[level] for level, _sign in lines]))
    b = chi if base == "chi" else zeta
    # summed by numpy, not BLAS: a threaded zgemv stalls for milliseconds
    # when the other cores are busy
    per_line = (common[..., None] * b[..., None] ** exps).sum(1)
    acc = sum(sign * line for (_level, sign), line in zip(lines, per_line))
    return dict(zip(ns, acc.tolist()))


def _scale(sums, cctx, samples):
    """Trapezoid values from node sums: step, 1/(2 pi i) per the residue
    theorem, and 1/2 for the zero-pair degeneracy."""
    ctx = cctx.prec.ctx
    step = 2 * float(cctx.frame.K) / samples
    pref = step / (4 * ctx.pi * ctx.mpc(0, 1))
    return {n: v * pref for n, v in sums.items()}


def contour_coefficients(ns, spec: ContourSpec, cctx: ContourContext,
                         base: str = "chi"):
    """Converged coefficients for all requested indices.

    Doubles the sample count until the worst relative change drops under
    QUAD_TOL (geometric convergence for the analytic integrand), up to
    MAX_SAMPLES.  The ladder is nested: the even nodes at 2N samples are
    the nodes at N, so each doubling evaluates only the new odd nodes.
    """
    _require_disordered(cctx)
    validate_contour(spec, cctx.frame)
    samples = spec.samples
    lines = spec.lines(cctx.frame)
    sums = _line_sums(ns, lines, cctx, base, samples)
    prev = _scale(sums, cctx, samples)
    worst = float("inf")
    while samples < MAX_SAMPLES:
        samples *= 2
        odd = _line_sums(ns, lines, cctx, base, samples, stride=2)
        sums = {n: sums[n] + odd[n] for n in ns}
        cur = _scale(sums, cctx, samples)
        worst = max(
            abs(cur[n] - prev[n]) / max(1e-300, abs(cur[n])) for n in ns)
        if worst < QUAD_TOL:
            return cur
        prev = cur
    raise ConvergenceError(
        "contour not converged", diagnostics={
            "samples": samples, "worst_rel_change": float(worst),
            "lines": lines})


def reduced_contour_a(n: int, cctx: ContourContext, samples: int = 512):
    """Symbol coefficient from a band around the two lower counter-poles
    only; valid when the upper pair is regular (n small, L < M).

    Kept as the tests' reference for the full symbol coefficients."""
    _require_disordered(cctx)
    Kp = float(cctx.frame.K_prime)
    c = float(cctx.prec.ctx.im(cctx.frame.eta)) / 2
    # counterclockwise band (-K' + c, -c): encloses -eta and -iK' + eta
    lines = ((-Kp + c, +1), (-c, -1))
    acc = _scale(_line_sums([n], lines, cctx, "zeta", samples), cctx, samples)
    # enclosed residues equal minus the full coefficient sum (halved as in
    # contour_coefficients)
    return -acc[n]


# ----------------------------------------------------------------------
# u-plane field emission
# ----------------------------------------------------------------------

@dataclass
class UPlaneField:
    """Sampled integrand grid plus the marker sets of the torus."""

    K: float
    K_prime: float
    k: float
    eta: complex
    n: int
    resolution: int
    values: list                  # row-major, rows sweep Im from -K' to K'
    markers: dict = field(default_factory=dict)

    def text(self) -> str:
        """Self-describing deterministic text serialization."""
        out = []
        out.append(f"# uplane n={self.n} resolution={self.resolution}")
        out.append(f"# K={self.K!r} K_prime={self.K_prime!r} k={self.k!r} "
                   f"eta_im={self.eta.imag!r}")
        out.append("values")
        for v in self.values:
            out.append(f"{v.real!r} {v.imag!r}")
        for name in sorted(self.markers):
            out.append(f"markers {name}")
            for z in self.markers[name]:
                out.append(f"{z.real!r} {z.imag!r}")
        return "\n".join(out) + "\n"


#: relative size below which the addition-formula numerator of sn(u +- eta)
#: is rounding (grid coordinates are binary64 at every precision)
COUNTER_POLE_TOL = 64 * 2.0 ** -52


def uplane_field(n: int, resolution: int, cctx: ContourContext) -> UPlaneField:
    """Sample the moment integrand over the full periodicity rectangle.

    Poles on grid nodes, counter-poles included, are emitted as signed
    infinities.  Works in both phases (sampling needs no deformation).
    A grid row is one `sncndn_line` call, split node by node only if a
    node is a pole or divides by zero (extended precision raises there).
    """
    if resolution < 16:
        raise DomainError("resolution must be at least 16")
    frame = cctx.frame
    K, Kp = float(frame.K), float(frame.K_prime)
    # sn(u +- eta) has the addition-formula numerator a +- b below.
    # sn(u + eta) = 0 is a pole; near sn(u - eta) = 0 the integrand goes as
    # sn(u - eta)^(M - L - n - 1), which the closed form gets right from a
    # rounding-noise sn(u - eta) unless the power is negative
    pole_at_eta = cctx.L + n + 1 > cctx.M
    sn_e, cn_e, dn_e = frame.eta_triple
    inf = complex(float("inf"), float("inf"))

    def values(triple):
        """Integrand from node triples; inf+infj at counter-poles, overflow."""
        sn, cn, dn = triple
        a, b = sn * cn_e * dn_e, cn * sn_e * dn
        tol = COUNTER_POLE_TOL * (abs(a) + abs(b))
        with np.errstate(all="ignore"):
            common, chi, _zeta = _node(None, cctx, triple)
            vals = np.asarray(common * chi ** n, dtype=complex)
        counter = (abs(a + b) <= tol) | (pole_at_eta & (abs(a - b) <= tol))
        return np.where(counter | ~np.isfinite(vals), inf, vals).tolist()

    def row(xs, y):
        """The values at the nodes x + iy, node by node if the row raises."""
        try:
            return values(frame.kernel.sncndn_line(xs, [[y]]))[0]
        except (PoleError, ZeroDivisionError):
            return [inf] if len(xs) == 1 else [
                v for x in xs for v in row([x], y)]

    xs = -K + 2 * K * np.arange(resolution) / (resolution - 1)
    vals = []
    for iy in range(resolution):
        vals += row(xs, -Kp + 2 * Kp * iy / (resolution - 1))
    h = complex(frame.eta)
    ik = 1j * Kp
    markers = {
        "corners": [0j, complex(K), complex(K, Kp), ik],
        "counter_poles": [h, ik - h, -h, -ik + h],
    }
    if cctx.points is not None:
        markers["eigenvalues"] = [complex(p.u) for p in cctx.points]
        markers["swap_eigenvalues"] = [complex(frame.swap_u(p.u))
                                       for p in cctx.points]
        # reciprocal eigenvalues live one imaginary half-period up
        markers["inverse_eigenvalues"] = [complex(p.u) + 1j * Kp
                                          for p in cctx.points]
    return UPlaneField(K=K, K_prime=Kp, k=float(frame.k), eta=h, n=n,
                       resolution=resolution, values=vals, markers=markers)
