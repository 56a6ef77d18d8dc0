"""Self-contained NetCDF-like container format.

The real workflow in the paper exchanges data between the ESM, Ophidia and
the ML stages as NetCDF-4 files (one file per simulated day).  No netCDF
library is available offline, so this package implements a small binary
container — ``RNC`` ("repro NetCDF") — that preserves everything the
workflow logic relies on:

* named dimensions with fixed sizes,
* named variables carrying an ordered list of dimensions, a NumPy dtype,
  and per-variable attributes,
* global (dataset-level) attributes,
* a CF-style time coordinate ("days since ...", 'noleap' calendar).

The format is deliberately simple: a magic header, a JSON metadata block,
then raw little-endian array payloads.  Reads can be lazy (per-variable) so
that analytics tasks touching a single variable do not pay for the ~20
variables a CMCC-CM3 daily file contains.
"""

from repro.netcdf.model import Dataset, Variable
from repro.netcdf.io import write_dataset, read_dataset, read_variable
from repro.netcdf.cf import NoLeapCalendar, time_axis_for_days

__all__ = [
    "Dataset",
    "Variable",
    "write_dataset",
    "read_dataset",
    "read_variable",
    "NoLeapCalendar",
    "time_axis_for_days",
]
