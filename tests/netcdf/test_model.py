"""Unit tests for the RNC in-memory data model."""

import numpy as np
import pytest

from repro.netcdf import Dataset, Variable


class TestVariable:
    def test_dims_must_match_ndim(self):
        with pytest.raises(ValueError):
            Variable(np.zeros((2, 3)), ("time",))

    def test_scalar_variable(self):
        v = Variable(np.float64(3.5), ())
        assert v.shape == ()
        assert v.dims == ()

    def test_attrs_numpy_scalars_coerced(self):
        v = Variable(np.zeros(3), ("x",), {"fill": np.float32(1.5), "n": np.int64(7)})
        assert isinstance(v.attrs["fill"], float)
        assert isinstance(v.attrs["n"], int)

    def test_attrs_reject_unserialisable(self):
        with pytest.raises(TypeError):
            Variable(np.zeros(3), ("x",), {"bad": object()})

    def test_copy_is_deep_for_data(self):
        v = Variable(np.zeros(3), ("x",))
        c = v.copy()
        c.data[0] = 9.0
        assert v.data[0] == 0.0

    def test_nbytes(self):
        v = Variable(np.zeros((4, 5), dtype=np.float32), ("a", "b"))
        assert v.nbytes == 4 * 5 * 4


class TestDataset:
    def test_create_dimension_idempotent(self):
        ds = Dataset()
        ds.create_dimension("lat", 10)
        ds.create_dimension("lat", 10)
        assert ds.dimensions["lat"] == 10

    def test_create_dimension_conflict(self):
        ds = Dataset()
        ds.create_dimension("lat", 10)
        with pytest.raises(ValueError):
            ds.create_dimension("lat", 11)

    def test_negative_dimension_rejected(self):
        ds = Dataset()
        with pytest.raises(ValueError):
            ds.create_dimension("x", -1)

    def test_variable_autodeclares_dims(self):
        ds = Dataset()
        ds.create_variable("t", np.zeros((3, 4)), ("time", "lat"))
        assert ds.dimensions == {"time": 3, "lat": 4}

    def test_variable_shape_vs_declared_dim(self):
        ds = Dataset()
        ds.create_dimension("lat", 5)
        with pytest.raises(ValueError):
            ds.create_variable("t", np.zeros((3, 4)), ("time", "lat"))

    def test_duplicate_variable_rejected(self):
        ds = Dataset()
        ds.create_variable("t", np.zeros(3), ("x",))
        with pytest.raises(ValueError):
            ds.create_variable("t", np.zeros(3), ("x",))

    def test_mapping_access(self):
        ds = Dataset({"title": "test"})
        ds.create_variable("a", np.arange(3), ("x",))
        ds.create_variable("b", np.arange(3), ("x",))
        assert "a" in ds
        assert set(iter(ds)) == {"a", "b"}
        assert len(ds) == 2
        assert ds["a"].shape == (3,)
        assert ds.attrs["title"] == "test"

    def test_nbytes_sums_variables(self):
        ds = Dataset()
        ds.create_variable("a", np.zeros(3, dtype=np.float64), ("x",))
        ds.create_variable("b", np.zeros(3, dtype=np.float32), ("x",))
        assert ds.nbytes == 3 * 8 + 3 * 4
