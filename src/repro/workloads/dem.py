"""Synthetic digital elevation models (DEMs).

The paper's terrain-analysis kernels (flow-routing, flow-accumulation,
slope) run over DEM rasters.  Real survey DEMs are not available
offline, so we synthesise fractal terrain with the standard spectral
method: white noise shaped by a ``1/f^beta`` power spectrum gives
fractional-Brownian-motion-like surfaces whose local statistics (and
hence kernel behaviour: neighbour comparisons, drainage structure)
match natural terrain well enough for bandwidth/performance studies —
every element still depends on its 8 neighbours in exactly the same
way.
"""

from __future__ import annotations

import numpy as np


def fractal_dem(
    rows: int,
    cols: int,
    beta: float = 2.2,
    relief: float = 1000.0,
    tilt: float = 0.25,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Spectral-synthesis fractal terrain.

    ``beta`` is the power-spectrum slope (2.0–2.4 resembles natural
    landscapes); ``relief`` scales elevations to [0, relief];
    ``tilt`` adds a regional gradient so drainage has a prevailing
    direction (keeps flow-routing from producing all-pit plateaus).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"invalid DEM shape ({rows}, {cols})")
    rng = rng or np.random.default_rng(0)
    noise = rng.standard_normal((rows, cols))
    spectrum = np.fft.rfft2(noise)
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.rfftfreq(cols)[None, :]
    freq = np.hypot(fy, fx)
    freq[0, 0] = np.inf  # kill the DC term
    spectrum *= freq ** (-beta / 2.0)
    surface = np.fft.irfft2(spectrum, s=(rows, cols))

    lo, hi = surface.min(), surface.max()
    if hi > lo:
        surface -= lo
        surface /= hi - lo
    surface *= relief
    if tilt:
        surface += np.linspace(0.0, tilt * relief, rows)[:, None]
    return np.ascontiguousarray(surface, dtype=np.float64)


def ramp_dem(rows: int, cols: int, noise: float = 0.0,
             rng: np.random.Generator | None = None) -> np.ndarray:
    """A deterministic inclined plane (plus optional jitter).

    Useful in tests: under a pure ramp every cell's steepest descent is
    the NW neighbour, so flow-routing output is fully predictable.
    """
    base = (
        np.arange(rows, dtype=np.float64)[:, None]
        + np.arange(cols, dtype=np.float64)[None, :]
    )
    if noise:
        rng = rng or np.random.default_rng(0)
        base = base + rng.uniform(-noise, noise, size=(rows, cols))
    return np.ascontiguousarray(base)
