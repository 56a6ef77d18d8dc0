"""Binary serialisation for the RNC container format.

Layout of an ``.rnc`` file::

    bytes 0..3    magic  b"RNC1"
    bytes 4..11   little-endian uint64: header length H
    bytes 12..    H bytes of UTF-8 JSON header
    then          raw array payloads, concatenated in header order

The JSON header records dimensions, global attributes and, for every
variable, its dims, dtype string, shape, attributes, byte offset (relative
to the start of the payload section) and byte length.  Offsets make
per-variable lazy reads possible with a single ``seek``.

All payloads are written little-endian and C-contiguous.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.netcdf.model import Dataset, Variable

MAGIC = b"RNC1"
_HEADER_LEN_BYTES = 8


class RNCFormatError(IOError):
    """Raised when a file is not a valid RNC container."""


def _le_dtype(dtype: np.dtype) -> np.dtype:
    """Return the little-endian equivalent of *dtype*."""
    dt = np.dtype(dtype)
    if dt.byteorder == ">":
        dt = dt.newbyteorder("<")
    return dt


def write_dataset(dataset: Dataset, path: str | os.PathLike) -> int:
    """Serialise *dataset* to *path*; returns total bytes written.

    The write is atomic at the file level: data is written to a temporary
    sibling and renamed into place, so concurrent readers (e.g. the
    streaming monitor task polling a simulation output directory) never
    observe a half-written file.
    """
    path = os.fspath(path)
    header: Dict[str, Any] = {
        "dimensions": dict(dataset.dimensions),
        "attrs": dict(dataset.attrs),
        "variables": {},
    }
    payloads: List[np.ndarray] = []
    offset = 0
    for name, var in dataset.variables.items():
        # NB: np.ascontiguousarray promotes 0-d arrays to 1-d, so the header
        # must record the variable's true shape, not the payload buffer's.
        arr = np.ascontiguousarray(var.data, dtype=_le_dtype(var.data.dtype))
        header["variables"][name] = {
            "dims": list(var.dims),
            "dtype": arr.dtype.str,
            "shape": list(var.data.shape),
            "attrs": dict(var.attrs),
            "offset": offset,
            "nbytes": arr.nbytes,
        }
        payloads.append(arr)
        offset += arr.nbytes

    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    tmp_path = f"{path}.tmp.{os.getpid()}"
    total = 0
    try:
        with open(tmp_path, "wb") as fh:
            total += fh.write(MAGIC)
            total += fh.write(len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "little"))
            total += fh.write(header_bytes)
            for arr in payloads:
                total += fh.write(arr)  # buffer protocol: no copy
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return total


def _read_header_fh(fh) -> Dict[str, Any]:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise RNCFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    raw_len = fh.read(_HEADER_LEN_BYTES)
    if len(raw_len) != _HEADER_LEN_BYTES:
        raise RNCFormatError("truncated header length field")
    header_len = int.from_bytes(raw_len, "little")
    # A corrupt length field must not drive a giant allocation: the
    # header can never exceed what the file actually holds.
    pos = fh.tell()
    fh.seek(0, os.SEEK_END)
    remaining = fh.tell() - pos
    fh.seek(pos)
    if header_len > remaining:
        raise RNCFormatError(
            f"header length {header_len} exceeds file contents ({remaining} bytes)"
        )
    header_bytes = fh.read(header_len)
    if len(header_bytes) != header_len:
        raise RNCFormatError("truncated header block")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RNCFormatError(f"corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise RNCFormatError("corrupt header: not a mapping")
    header.setdefault("dimensions", {})
    header.setdefault("attrs", {})
    header.setdefault("variables", {})
    for section in ("dimensions", "attrs", "variables"):
        if not isinstance(header[section], dict):
            raise RNCFormatError(f"corrupt header: {section} is not a mapping")
    header["_payload_start"] = len(MAGIC) + _HEADER_LEN_BYTES + header_len
    header["_payload_size"] = remaining - header_len
    return header


def _checked_payload(fh, header: Dict[str, Any], name: str, meta) -> bytes:
    """Read one variable payload with full bounds/type validation."""
    if not isinstance(meta, dict):
        raise RNCFormatError(f"corrupt metadata for variable {name!r}")
    offset = meta.get("offset")
    nbytes = meta.get("nbytes")
    if (not isinstance(offset, int) or not isinstance(nbytes, int)
            or offset < 0 or nbytes < 0
            or offset + nbytes > header["_payload_size"]):
        raise RNCFormatError(
            f"variable {name!r} payload [{offset}, +{nbytes}] outside file"
        )
    fh.seek(header["_payload_start"] + offset)
    raw = fh.read(nbytes)
    if len(raw) != nbytes:
        raise RNCFormatError(f"truncated payload for variable {name!r}")
    return raw


def _decode_payload(raw: bytes, name: str, meta) -> np.ndarray:
    try:
        dtype = np.dtype(meta["dtype"])
        shape = tuple(int(s) for s in meta["shape"])
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    except (TypeError, ValueError, KeyError) as exc:
        raise RNCFormatError(
            f"corrupt dtype/shape for variable {name!r}: {exc}"
        ) from exc


def read_variable(path: str | os.PathLike, name: str) -> Variable:
    """Lazily read a single variable from an RNC file."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        header = _read_header_fh(fh)
        meta = header["variables"].get(name)
        if meta is None:
            raise KeyError(
                f"variable {name!r} not in {path!r} "
                f"(available: {sorted(header['variables'])})"
            )
        raw = _checked_payload(fh, header, name, meta)
    data = _decode_payload(raw, name, meta)
    try:
        return Variable(data, tuple(meta["dims"]), dict(meta["attrs"]))
    except (TypeError, ValueError, KeyError) as exc:
        raise RNCFormatError(f"corrupt variable {name!r}: {exc}") from exc


def read_dataset(
    path: str | os.PathLike,
    variables: Optional[Sequence[str]] = None,
) -> Dataset:
    """Read an RNC file into a :class:`Dataset`.

    Parameters
    ----------
    path:
        File to read.
    variables:
        Optional subset of variable names to load.  Dimensions and global
        attributes are always loaded.  Unknown names raise ``KeyError``.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        header = _read_header_fh(fh)
        try:
            ds = Dataset(header["attrs"])
            for dim, size in header["dimensions"].items():
                ds.create_dimension(dim, size)
        except (TypeError, ValueError) as exc:
            raise RNCFormatError(f"corrupt header metadata: {exc}") from exc

        wanted = list(header["variables"]) if variables is None else list(variables)
        for name in wanted:
            meta = header["variables"].get(name)
            if meta is None:
                raise KeyError(f"variable {name!r} not in {path!r}")
            raw = _checked_payload(fh, header, name, meta)
            data = _decode_payload(raw, name, meta).copy()  # writable copy
            try:
                ds.create_variable(name, data, meta["dims"], meta["attrs"])
            except (TypeError, ValueError, KeyError) as exc:
                raise RNCFormatError(
                    f"corrupt variable {name!r}: {exc}"
                ) from exc
    return ds
