"""In-memory data model for the RNC container format.

A :class:`Dataset` mirrors the classic NetCDF data model: dimensions,
variables and attributes.  Variables are NumPy arrays tagged with an ordered
tuple of dimension names; the dataset enforces that variable shapes are
consistent with the declared dimension sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Attribute values must be JSON-representable scalars or flat lists thereof.
AttrValue = Any


def _validate_attrs(attrs: Mapping[str, AttrValue]) -> Dict[str, AttrValue]:
    """Return a plain-dict copy of *attrs*, rejecting non-serialisable values."""
    out: Dict[str, AttrValue] = {}
    for key, value in attrs.items():
        if isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        if not isinstance(value, (str, int, float, bool, list, type(None))):
            raise TypeError(
                f"attribute {key!r} has unsupported type {type(value).__name__}"
            )
        out[str(key)] = value
    return out


@dataclass
class Variable:
    """A named array with dimensions and attributes.

    Parameters
    ----------
    data:
        The array payload.  Stored as given (no copy) but always converted
        to a :class:`numpy.ndarray`.
    dims:
        Ordered dimension names, one per axis of ``data``.
    attrs:
        Per-variable metadata (``units``, ``long_name``, ...).
    """

    data: np.ndarray
    dims: Tuple[str, ...]
    attrs: Dict[str, AttrValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        self.dims = tuple(self.dims)
        if self.data.ndim != len(self.dims):
            raise ValueError(
                f"variable has {self.data.ndim} axes but {len(self.dims)} dims"
            )
        self.attrs = _validate_attrs(self.attrs)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def copy(self) -> "Variable":
        return Variable(self.data.copy(), self.dims, dict(self.attrs))


class Dataset:
    """A collection of dimensions, variables and global attributes.

    The class intentionally keeps the classic-NetCDF invariants:

    * every axis of every variable refers to a declared dimension;
    * a variable's length along an axis equals the dimension size;
    * dimension sizes are immutable once referenced by a variable.
    """

    def __init__(self, attrs: Optional[Mapping[str, AttrValue]] = None) -> None:
        self.dimensions: Dict[str, int] = {}
        self.variables: Dict[str, Variable] = {}
        self.attrs: Dict[str, AttrValue] = _validate_attrs(attrs or {})

    # -- dimensions ------------------------------------------------------

    def create_dimension(self, name: str, size: int) -> None:
        """Declare dimension *name* with *size* entries.

        Redeclaring with the same size is a no-op; changing the size of an
        existing dimension raises :class:`ValueError`.
        """
        size = int(size)
        if size < 0:
            raise ValueError(f"dimension {name!r} must be non-negative, got {size}")
        existing = self.dimensions.get(name)
        if existing is not None and existing != size:
            raise ValueError(
                f"dimension {name!r} already has size {existing}, cannot resize to {size}"
            )
        self.dimensions[name] = size

    # -- variables -------------------------------------------------------

    def create_variable(
        self,
        name: str,
        data: np.ndarray,
        dims: Sequence[str],
        attrs: Optional[Mapping[str, AttrValue]] = None,
    ) -> Variable:
        """Add a variable, auto-declaring any missing dimensions.

        Raises
        ------
        ValueError
            If the name is taken, or a declared dimension size conflicts
            with the variable's shape.
        """
        if name in self.variables:
            raise ValueError(f"variable {name!r} already exists")
        var = Variable(np.asarray(data), tuple(dims), dict(attrs or {}))
        for axis, dim in enumerate(var.dims):
            declared = self.dimensions.get(dim)
            actual = var.shape[axis]
            if declared is None:
                self.create_dimension(dim, actual)
            elif declared != actual:
                raise ValueError(
                    f"variable {name!r} axis {axis} ({dim!r}) has length "
                    f"{actual}, but dimension is declared with size {declared}"
                )
        self.variables[name] = var
        return var

    # -- mapping-style access --------------------------------------------

    def __getitem__(self, name: str) -> Variable:
        return self.variables[name]

    def __contains__(self, name: str) -> bool:
        return name in self.variables

    def __iter__(self) -> Iterator[str]:
        return iter(self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    @property
    def nbytes(self) -> int:
        """Total payload size of all variables."""
        return sum(v.nbytes for v in self.variables.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(f"{k}={v}" for k, v in self.dimensions.items())
        return f"<Dataset dims[{dims}] vars[{', '.join(self.variables)}]>"
