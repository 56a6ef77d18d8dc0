"""Round-trip and robustness tests for RNC binary I/O."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.netcdf import Dataset, read_dataset, read_variable, write_dataset
from repro.netcdf.io import MAGIC, RNCFormatError


def make_daily_dataset() -> Dataset:
    """A miniature CMCC-CM3-like daily file: several variables, shared dims."""
    rng = np.random.default_rng(42)
    ds = Dataset({"model": "CMCC-CM3-sim", "frequency": "6hr"})
    ds.create_dimension("time", 4)
    ds.create_dimension("lat", 6)
    ds.create_dimension("lon", 8)
    for name in ("TREFHTMX", "TREFHTMN", "PSL", "U10", "VORT850"):
        ds.create_variable(
            name,
            rng.normal(size=(4, 6, 8)).astype(np.float32),
            ("time", "lat", "lon"),
            {"units": "arbitrary"},
        )
    ds.create_variable("time", np.arange(4) / 4.0, ("time",), {"units": "days since 2015-01-01"})
    return ds


class TestRoundTrip:
    def test_full_roundtrip(self, tmp_path):
        ds = make_daily_dataset()
        path = tmp_path / "day.rnc"
        nbytes = write_dataset(ds, path)
        assert nbytes == os.path.getsize(path)
        back = read_dataset(path)
        assert back.dimensions == ds.dimensions
        assert back.attrs == ds.attrs
        assert set(back.variables) == set(ds.variables)
        for name in ds.variables:
            np.testing.assert_array_equal(back[name].data, ds[name].data)
            assert back[name].dims == ds[name].dims
            assert back[name].attrs == ds[name].attrs
            assert back[name].dtype == ds[name].dtype

    def test_subset_read(self, tmp_path):
        ds = make_daily_dataset()
        path = tmp_path / "day.rnc"
        write_dataset(ds, path)
        back = read_dataset(path, variables=["PSL", "U10"])
        assert set(back.variables) == {"PSL", "U10"}
        np.testing.assert_array_equal(back["PSL"].data, ds["PSL"].data)

    def test_lazy_single_variable(self, tmp_path):
        ds = make_daily_dataset()
        path = tmp_path / "day.rnc"
        write_dataset(ds, path)
        var = read_variable(path, "VORT850")
        np.testing.assert_array_equal(var.data, ds["VORT850"].data)
        assert var.dims == ("time", "lat", "lon")

    def test_returned_arrays_are_writable(self, tmp_path):
        ds = make_daily_dataset()
        path = tmp_path / "day.rnc"
        write_dataset(ds, path)
        back = read_dataset(path)
        back["PSL"].data[0, 0, 0] = 1.0  # must not raise

    def test_big_endian_input_normalised(self, tmp_path):
        ds = Dataset()
        ds.create_variable("x", np.arange(5, dtype=">f8"), ("n",))
        path = tmp_path / "be.rnc"
        write_dataset(ds, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back["x"].data, np.arange(5.0))

    def test_empty_dataset(self, tmp_path):
        ds = Dataset({"note": "empty"})
        path = tmp_path / "empty.rnc"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert len(back) == 0
        assert back.attrs["note"] == "empty"

    def test_zero_length_dimension(self, tmp_path):
        ds = Dataset()
        ds.create_variable("x", np.zeros((0, 3)), ("t", "y"))
        path = tmp_path / "zero.rnc"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back["x"].shape == (0, 3)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rnc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(RNCFormatError):
            read_dataset(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.rnc"
        path.write_bytes(MAGIC + (1000).to_bytes(8, "little") + b"{}")
        with pytest.raises(RNCFormatError):
            read_dataset(path)

    def test_corrupt_json(self, tmp_path):
        payload = b"not json"
        path = tmp_path / "corrupt.rnc"
        path.write_bytes(MAGIC + len(payload).to_bytes(8, "little") + payload)
        with pytest.raises(RNCFormatError):
            read_dataset(path)

    def test_truncated_payload(self, tmp_path):
        ds = Dataset()
        ds.create_variable("x", np.arange(100.0), ("n",))
        path = tmp_path / "t.rnc"
        write_dataset(ds, path)
        data = path.read_bytes()
        path.write_bytes(data[:-50])
        with pytest.raises(RNCFormatError):
            read_dataset(path)

    def test_missing_variable(self, tmp_path):
        ds = make_daily_dataset()
        path = tmp_path / "day.rnc"
        write_dataset(ds, path)
        with pytest.raises(KeyError):
            read_variable(path, "nope")
        with pytest.raises(KeyError):
            read_dataset(path, variables=["nope"])

    def test_huge_header_length_rejected(self, tmp_path):
        """A corrupt length field must not drive a giant allocation."""
        path = tmp_path / "huge.rnc"
        path.write_bytes(MAGIC + (2**62).to_bytes(8, "little") + b"{}")
        with pytest.raises(RNCFormatError, match="exceeds file contents"):
            read_dataset(path)

    def test_payload_offsets_outside_file_rejected(self, tmp_path):
        """Header metadata pointing past the payload must fail loudly."""
        header = json.dumps({
            "dimensions": {"n": 4},
            "attrs": {},
            "variables": {
                "x": {"dims": ["n"], "dtype": "<f8", "shape": [4],
                      "attrs": {}, "offset": 10**9, "nbytes": 32},
            },
        }).encode()
        path = tmp_path / "oob.rnc"
        path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        with pytest.raises(RNCFormatError, match="outside file"):
            read_dataset(path)
        with pytest.raises(RNCFormatError):
            read_variable(path, "x")

    def test_bogus_dtype_rejected(self, tmp_path):
        header = json.dumps({
            "dimensions": {}, "attrs": {},
            "variables": {
                "x": {"dims": ["n"], "dtype": "not-a-dtype", "shape": [1],
                      "attrs": {}, "offset": 0, "nbytes": 8},
            },
        }).encode()
        path = tmp_path / "dtype.rnc"
        path.write_bytes(
            MAGIC + len(header).to_bytes(8, "little") + header + b"\x00" * 8
        )
        with pytest.raises(RNCFormatError, match="corrupt dtype"):
            read_dataset(path)

    def test_non_mapping_sections_rejected(self, tmp_path):
        header = json.dumps({"variables": [1, 2]}).encode()
        path = tmp_path / "sections.rnc"
        path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        with pytest.raises(RNCFormatError, match="not a mapping"):
            read_dataset(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        ds = make_daily_dataset()
        write_dataset(ds, tmp_path / "day.rnc")
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []

    def test_failed_replace_removes_tmp_file(self, tmp_path, monkeypatch):
        import repro.netcdf.io as rnc_io

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(rnc_io.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_dataset(make_daily_dataset(), tmp_path / "day.rnc")
        assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []


@st.composite
def rnc_datasets(draw):
    """Random datasets with consistent shared dimensions."""
    dim_sizes = draw(
        st.dictionaries(
            st.sampled_from(["time", "lat", "lon", "lev"]),
            st.integers(min_value=0, max_value=5),
            min_size=1,
            max_size=4,
        )
    )
    ds = Dataset({"seed": draw(st.integers(0, 10**6))})
    for dim, size in dim_sizes.items():
        ds.create_dimension(dim, size)
    n_vars = draw(st.integers(min_value=0, max_value=4))
    dims_list = list(dim_sizes)
    for i in range(n_vars):
        ndim = draw(st.integers(min_value=0, max_value=len(dims_list)))
        dims = tuple(draw(st.permutations(dims_list))[:ndim])
        shape = tuple(dim_sizes[d] for d in dims)
        dtype = draw(st.sampled_from([np.float32, np.float64, np.int32, np.int64]))
        data = draw(
            hnp.arrays(
                dtype=dtype,
                shape=shape,
                elements=st.floats(-1e6, 1e6, width=32).map(float)
                if np.issubdtype(dtype, np.floating)
                else st.integers(-1000, 1000),
            )
        )
        ds.create_variable(f"v{i}", data, dims)
    return ds


class TestPropertyRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(rnc_datasets())
    def test_roundtrip_preserves_everything(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rnc") / "p.rnc"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.dimensions == ds.dimensions
        assert set(back.variables) == set(ds.variables)
        for name in ds.variables:
            np.testing.assert_array_equal(back[name].data, ds[name].data)
            assert back[name].dims == ds[name].dims
