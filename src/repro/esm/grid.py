"""The model grid: a regular lat-lon mesh with synthetic geography.

The real CMCC-CM3 runs at 768x1152 (1/4 degree).  The grid here is
configurable; defaults are laptop-sized while preserving the aspect
ratio.  Geography is deterministic pseudo-continents so that land-sea
contrast, TC genesis basins (tropical oceans) and landfall decay all
have somewhere to happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

EARTH_RADIUS_KM = 6371.0

#: Fewest points a grid accepts along either axis.
MIN_GRID_POINTS = 4


@dataclass(frozen=True)
class Grid:
    """A global regular latitude-longitude grid.

    Parameters
    ----------
    n_lat, n_lon:
        Grid points.  Latitudes are cell centres in (-90, 90); longitudes
        cover [0, 360).
    """

    n_lat: int = 48
    n_lon: int = 72

    def __post_init__(self) -> None:
        if min(self.n_lat, self.n_lon) < MIN_GRID_POINTS:
            raise ValueError(
                f"grid needs at least {MIN_GRID_POINTS}x{MIN_GRID_POINTS} points"
            )

    @cached_property
    def lat(self) -> np.ndarray:
        """Cell-centre latitudes, degrees, south to north."""
        edges = np.linspace(-90.0, 90.0, self.n_lat + 1)
        return (edges[:-1] + edges[1:]) / 2.0

    @cached_property
    def lon(self) -> np.ndarray:
        """Cell-centre longitudes, degrees in [0, 360)."""
        return np.arange(self.n_lon) * (360.0 / self.n_lon)

    @cached_property
    def lat2d(self) -> np.ndarray:
        return np.broadcast_to(self.lat[:, None], (self.n_lat, self.n_lon)).copy()

    @cached_property
    def lon2d(self) -> np.ndarray:
        return np.broadcast_to(self.lon[None, :], (self.n_lat, self.n_lon)).copy()

    @cached_property
    def cell_area_km2(self) -> np.ndarray:
        """Spherical cell areas (km^2)."""
        lat_edges = np.deg2rad(np.linspace(-90.0, 90.0, self.n_lat + 1))
        band = (
            2.0 * np.pi * EARTH_RADIUS_KM**2
            * (np.sin(lat_edges[1:]) - np.sin(lat_edges[:-1]))
        )
        per_cell = band / self.n_lon
        return np.broadcast_to(per_cell[:, None], (self.n_lat, self.n_lon)).copy()

    @cached_property
    def land_mask(self) -> np.ndarray:
        """Boolean land mask from deterministic pseudo-continents.

        Two large mid-latitude landmasses plus a tropical one, built from
        smooth trigonometric bumps thresholded at a fixed level — about a
        third of the sphere ends up land, oceans stay zonally connected
        in the tropics (TC corridors).
        """
        lat_r = np.deg2rad(self.lat2d)
        lon_r = np.deg2rad(self.lon2d)
        bumps = (
            1.1 * np.exp(-((self.lat2d - 45) / 26) ** 2)
            * (np.cos(lon_r - 0.8) + 0.3 * np.cos(2 * lon_r + 0.5))
            + 1.0 * np.exp(-((self.lat2d + 30) / 24) ** 2)
            * (np.cos(lon_r - 3.6) + 0.2 * np.sin(3 * lon_r))
            + 0.55 * np.exp(-((self.lat2d - 8) / 14) ** 2)
            * np.cos(2 * lon_r - 2.2)
        )
        mask = bumps > 0.42
        # Keep the poles icy but treat them as land-free ocean caps so TC
        # code never sees undefined SST.
        mask &= np.abs(self.lat2d) < 78
        return mask

    @cached_property
    def ocean_mask(self) -> np.ndarray:
        return ~self.land_mask

    def distance_km(self, lat1, lon1, lat2, lon2) -> np.ndarray:
        """Great-circle (haversine) distance in km; broadcasts."""
        p1, p2 = np.deg2rad(lat1), np.deg2rad(lat2)
        dphi = p2 - p1
        dlmb = np.deg2rad(np.asarray(lon2) - np.asarray(lon1))
        a = np.sin(dphi / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2) ** 2
        return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))

    def distance_field_km(self, lat0: float, lon0: float) -> np.ndarray:
        """Distance of every grid cell from (lat0, lon0), km."""
        return self.distance_km(self.lat2d, self.lon2d, lat0, lon0)

    def nearest_index(self, lat0: float, lon0: float) -> tuple[int, int]:
        """(row, col) of the cell centre nearest to the given point."""
        i = int(np.argmin(np.abs(self.lat - lat0)))
        dlon = (self.lon - lon0 + 180.0) % 360.0 - 180.0
        j = int(np.argmin(np.abs(dlon)))
        return i, j

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)
