"""Independent reference for log Z: an exact row-transfer sum in numpy.

The lattice follows the package's convention: L columns of M spins, with
K_v coupling neighbours inside a column and K_h coupling neighbouring
columns, open boundaries on all four sides.  The sum runs over the states
of the shorter side, so a lattice of any length is exact as long as its
short side is at most MAX_WIDTH spins wide.

Every step multiplies and adds positive numbers only, so the relative
rounding error of Z grows like (steps * width * eps) and log Z is good to
about 1e-13 absolute at the sizes the benchmark uses.  This module imports
nothing from the package under test.
"""

from __future__ import annotations

import math

import numpy as np

#: widest row the transfer sum accepts (2^16 states, 0.5 MB per vector)
MAX_WIDTH = 16


def _row_energy(n: int, k_in: float) -> np.ndarray:
    """k_in * sum of neighbour products inside a row, for every row state."""
    states = np.arange(1 << n, dtype=np.int64)
    spins = 1 - 2 * ((states[:, None] >> np.arange(n)) & 1)
    return k_in * (spins[:, :-1] * spins[:, 1:]).sum(axis=1)


def row_transfer_logz(n: int, steps: int, k_in: float, k_link: float) -> float:
    """log Z of `steps` rows of `n` spins.

    k_in couples neighbours within a row, k_link couples each spin to the
    spin in the same position of the next row.
    """
    if not 1 <= n <= MAX_WIDTH:
        raise ValueError(f"row width {n} outside 1..{MAX_WIDTH}")
    if steps < 1:
        raise ValueError("need at least one row")
    energy = _row_energy(n, k_in)
    e_max = float(energy.max())
    weight = np.exp(energy - e_max)
    # the link factor exp(k s s') is applied as exp(k) * [[1, b], [b, 1]]
    # per spin, which keeps every entry at most 1
    b = math.exp(-2.0 * k_link)
    v = weight.copy()
    log_acc = e_max
    for _ in range(steps - 1):
        for axis in range(n):
            t = v.reshape(1 << (n - 1 - axis), 2, 1 << axis)
            lo, hi = t[:, 0, :], t[:, 1, :]
            v = np.stack((lo + b * hi, b * lo + hi), axis=1).reshape(-1)
        v *= weight
        top = float(v.max())
        v /= top
        log_acc += n * k_link + e_max + math.log(top)
    return log_acc + math.log(math.fsum(v))


def reference_logz(L: int, M: int, K_h: float, K_v: float) -> float:
    """log Z of the open L x M lattice, transferred along its long side."""
    if M <= L:
        return row_transfer_logz(M, L, K_v, K_h)
    return row_transfer_logz(L, M, K_h, K_v)


def configuration_sum_logz(L: int, M: int, K_h: float, K_v: float) -> float:
    """Literal sum over all 2^(L*M) configurations (test oracle, <= 16
    spins)."""
    n = L * M
    if n > 16:
        raise ValueError(f"{n} spins is too many for a literal sum")
    states = np.arange(1 << n, dtype=np.int64)
    spin = 1 - 2 * ((states[:, None] >> np.arange(n)) & 1)
    grid = spin.reshape(-1, L, M)
    energy = (K_h * (grid[:, :-1, :] * grid[:, 1:, :]).sum(axis=(1, 2))
              + K_v * (grid[:, :, :-1] * grid[:, :, 1:]).sum(axis=(1, 2)))
    e_max = float(energy.max())
    return e_max + math.log(math.fsum(np.exp(energy - e_max)))
