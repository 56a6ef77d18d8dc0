"""An Ophidia-style High Performance Data Analytics framework.

Re-implements the datacube abstraction the paper's analytics run on
(Fiore et al. 2014; Elia et al. 2021): multi-dimensional scientific
arrays are partitioned into *fragments* distributed across in-memory
I/O servers, and operators (subset, reduce, apply, intercube, ...)
execute fragment-parallel on the server side.  The Python client mirrors
PyOphidia's ``cube.Cube`` API, including the ``oph_predicate``-style
primitive expressions used in the paper's Listing 1.

Datacubes stay resident in the I/O servers between operators — the
mechanism behind the paper's claim that baseline climatologies are
"loaded only once and used throughout the workflows ... reducing the
number of read operations from storage".  The pool's
``ophidia_fragment_*`` registry counters make that claim measurable
(experiment C2).
"""

from repro.ophidia.storage import StoragePool
from repro.ophidia.primitives import PrimitiveError, parse_primitive
from repro.ophidia.server import OphidiaServer
from repro.ophidia.client import Client
from repro.ophidia.datacube import Cube, DimensionInfo

__all__ = [
    "StoragePool",
    "parse_primitive",
    "PrimitiveError",
    "OphidiaServer",
    "Client",
    "Cube",
    "DimensionInfo",
]
