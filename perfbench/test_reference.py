"""Tests of the benchmark's own log Z reference and span bookkeeping.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (  # noqa: E402
    configuration_sum_logz,
    reference_logz,
    row_transfer_logz,
)
from tracing import Tracer  # noqa: E402

# (L, M, K_h, K_v): both phases, anisotropic both ways, up to 16 spins
SMALL = [(1, 1, 0.4, 0.7), (1, 5, 0.3, 0.9), (2, 2, 0.4406868, 0.4406868),
         (2, 7, 0.8, 0.2), (3, 4, 0.4, 0.7), (4, 3, 0.7, 0.4),
         (4, 4, 0.25, 0.25), (4, 4, 1.3, 1.1), (2, 8, 0.05, 2.0),
         (8, 2, 2.0, 0.05)]


@pytest.mark.parametrize("L,M,K_h,K_v", SMALL)
def test_transfer_matches_configuration_sum(L, M, K_h, K_v):
    want = configuration_sum_logz(L, M, K_h, K_v)
    assert reference_logz(L, M, K_h, K_v) == pytest.approx(want, rel=1e-14,
                                                           abs=1e-14)


@pytest.mark.parametrize("L,M,K_h,K_v", SMALL + [(5, 9, 0.6, 0.3),
                                                 (7, 11, 0.9, 1.4)])
def test_transfer_direction_invariance(L, M, K_h, K_v):
    # rows of M spins stepped L times against rows of L spins stepped M
    # times: the same lattice summed along its two axes
    along_l = row_transfer_logz(M, L, K_v, K_h)
    along_m = row_transfer_logz(L, M, K_h, K_v)
    assert along_l == pytest.approx(along_m, rel=1e-14)


@pytest.mark.parametrize("L,M,K_h,K_v", [(3, 5, 0.4, 0.7), (12, 6, 0.9, 0.2)])
def test_swap_invariance(L, M, K_h, K_v):
    assert reference_logz(L, M, K_h, K_v) == reference_logz(M, L, K_v, K_h)


def test_open_chain_closed_form():
    # one column of M spins: Z = 2 (2 cosh K_v)^(M-1)
    M, K_v = 9, 0.83
    want = math.log(2) + (M - 1) * math.log(2 * math.cosh(K_v))
    assert reference_logz(1, M, 0.5, K_v) == pytest.approx(want, rel=1e-15)
    assert reference_logz(M, 1, K_v, 0.5) == pytest.approx(want, rel=1e-15)


def test_width_cap():
    with pytest.raises(ValueError):
        row_transfer_logz(17, 3, 0.1, 0.1)


def test_strong_coupling_does_not_overflow():
    # ground-state dominated: log Z -> log 2 + K_h * bonds_h + K_v * bonds_v
    L, M, K = 12, 40, 30.0
    bonds = (L - 1) * M + L * (M - 1)
    assert reference_logz(L, M, K, K) == pytest.approx(
        math.log(2) + K * bonds, rel=1e-14)


def test_tracer_self_and_layer_time():
    import types

    mod = types.ModuleType("fake")
    # module functions that find each other through the module globals
    exec("def leaf():\n    return sum(range(2000))\n"
         "def middle():\n    return leaf() + leaf()\n"
         "def top():\n    return middle() + leaf()\n", vars(mod))
    top = mod.top
    pkg = types.ModuleType("pkg")
    tracer = Tracer()
    tracer.install(pkg, {"fake": mod})
    try:
        mod.top()
    finally:
        tracer.uninstall()
    assert mod.top is top
    s = tracer.summary(["fake.top", "fake.leaf"])
    assert s["calls"] == {"fake.top": 1, "fake.middle": 1, "fake.leaf": 3}
    dur = tracer.end[0] - tracer.start[0]
    assert sum(s["self_s"].values()) == pytest.approx(dur, rel=1e-9)
    # middle is not a layer, so its self time goes to top
    assert s["layer_s"]["fake.top"] == pytest.approx(
        s["self_s"]["fake.top"] + s["self_s"]["fake.middle"], rel=1e-9)
    assert s["layer_s"]["fake.leaf"] == pytest.approx(
        s["self_s"]["fake.leaf"], rel=1e-9)
