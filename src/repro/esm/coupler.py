"""The atmosphere-ocean coupler.

The paper describes CMCC-CM3's coupling: "Every few minutes the heat,
momentum and mass fluxes are sent from the atmosphere to the ocean and
the sea surface temperature ... sent from the ocean to the atmosphere."
At the daily cadence of this reproduction the coupler exchanges once per
day: it derives a normalised heat flux from the air-sea temperature
difference (damped by wind-driven mixing); the model hands the SST to
the atmosphere directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.esm.grid import Grid


@dataclass
class Coupler:
    """Computes exchange fields between the two components."""

    grid: Grid
    flux_scale_k: float = 3.0      # temperature difference normalisation
    wind_mixing_ms: float = 8.0    # wind speed that doubles the exchange

    def atmosphere_to_ocean(
        self, t2m: np.ndarray, wind_speed: np.ndarray, sst: np.ndarray
    ) -> np.ndarray:
        """Normalised heat flux into the ocean (positive warms the ocean).

        Proportional to the air-sea temperature difference, enhanced by
        surface wind (bulk-formula flavour), zero over land.
        """
        mixing = 1.0 + np.clip(wind_speed, 0.0, 30.0) / self.wind_mixing_ms
        flux = (t2m - sst) / self.flux_scale_k * mixing
        return np.where(self.grid.ocean_mask, np.clip(flux, -3.0, 3.0), 0.0)
