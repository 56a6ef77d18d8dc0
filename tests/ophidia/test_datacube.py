"""Datacube operator tests, including fragmentation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SharedFilesystem
from repro.netcdf import Dataset
from repro.ophidia import Client, Cube, OphidiaServer
from repro.ophidia.datacube import _run_lengths


@pytest.fixture
def server():
    with OphidiaServer(n_io_servers=2, n_cores=2) as s:
        yield s


@pytest.fixture
def client(server):
    c = Client(server)
    Cube.client = c
    yield c
    Cube.client = None


def cube_from(data, dims, client, **kw):
    return Cube.from_array(np.asarray(data), dims, client=client, **kw)


class TestConstruction:
    def test_from_array_shape_and_frag(self, client):
        c = cube_from(np.zeros((4, 6, 8)), ["time", "lat", "lon"], client,
                      fragment_dim="lat", nfrag=3)
        assert c.shape == (4, 6, 8)
        assert c.dim_names == ("time", "lat", "lon")
        assert c.nfrag == 3

    def test_nfrag_capped_by_dim_size(self, client):
        c = cube_from(np.zeros((2, 3)), ["t", "y"], client, fragment_dim="y", nfrag=10)
        assert c.nfrag == 3

    def test_default_nfrag_is_io_server_count(self, client):
        c = cube_from(np.zeros((2, 8)), ["t", "y"], client, fragment_dim="y")
        assert c.nfrag == 2

    def test_dim_mismatch_rejected(self, client):
        with pytest.raises(ValueError):
            cube_from(np.zeros((2, 3)), ["t"], client)

    def test_gather_roundtrip(self, client):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 7, 9))
        c = cube_from(data, ["time", "lat", "lon"], client, fragment_dim="lat", nfrag=4)
        np.testing.assert_array_equal(c.to_array(), data)

    def test_missing_client_rejected(self):
        Cube.client = None
        with pytest.raises(RuntimeError):
            Cube.from_array(np.zeros(3), ["x"])


class TestOperators:
    def test_apply_predicate(self, client):
        data = np.array([[1.0, -1.0], [2.0, 0.0]])
        c = cube_from(data, ["t", "y"], client, fragment_dim="y", nfrag=2)
        out = c.apply("oph_predicate('OPH_DOUBLE','OPH_INT',measure,'x','>0','1','0')")
        np.testing.assert_array_equal(out.to_array(), [[1, 0], [1, 0]])

    def test_transform(self, client):
        c = cube_from(np.ones((2, 4)), ["t", "y"], client, fragment_dim="y", nfrag=2)
        out = c.transform(lambda a: a * 3.0)
        np.testing.assert_array_equal(out.to_array(), np.full((2, 4), 3.0))

    def test_transform_shape_change_rejected(self, client):
        c = cube_from(np.ones((2, 4)), ["t", "y"], client, fragment_dim="y")
        with pytest.raises(ValueError):
            # On the lazy path the shape check runs at the forced-
            # evaluation point, so force inside the raises block.
            c.transform(lambda a: a.sum(axis=0)).to_array()

    def test_reduce_nonfragment_dim(self, client):
        data = np.arange(24.0).reshape(2, 3, 4)
        c = cube_from(data, ["time", "lat", "lon"], client, fragment_dim="lat", nfrag=3)
        out = c.reduce("max", dim="time")
        assert out.dim_names == ("lat", "lon")
        np.testing.assert_array_equal(out.to_array(), data.max(axis=0))

    def test_reduce_fragment_dim_gathers(self, client):
        data = np.arange(24.0).reshape(2, 3, 4)
        c = cube_from(data, ["time", "lat", "lon"], client, fragment_dim="lat", nfrag=3)
        out = c.reduce("sum", dim="lat")
        assert out.dim_names == ("time", "lon")
        np.testing.assert_array_equal(out.to_array(), data.sum(axis=1))

    def test_reduce_all_ops(self, client):
        data = np.random.default_rng(1).normal(size=(6, 4))
        c = cube_from(data, ["time", "y"], client, fragment_dim="y", nfrag=2)
        for op, ref in [("max", data.max(0)), ("min", data.min(0)),
                        ("sum", data.sum(0)), ("mean", data.mean(0)),
                        ("std", data.std(0)), ("var", data.var(0))]:
            np.testing.assert_allclose(c.reduce(op, "time").to_array(), ref)

    def test_reduce_unknown_op(self, client):
        c = cube_from(np.zeros((2, 2)), ["t", "y"], client)
        with pytest.raises(ValueError):
            c.reduce("median", "t")

    def test_reduce2_grouped(self, client):
        data = np.arange(12.0).reshape(6, 2)
        c = cube_from(data, ["time", "y"], client, fragment_dim="y", nfrag=2)
        out = c.reduce2("sum", dim="time", group_size=3)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(
            out.to_array(), data.reshape(2, 3, 2).sum(axis=1)
        )

    def test_reduce2_bad_group(self, client):
        c = cube_from(np.zeros((5, 2)), ["time", "y"], client, fragment_dim="y")
        with pytest.raises(ValueError):
            c.reduce2("sum", dim="time", group_size=2)

    def test_intercube_aligned(self, client):
        a = cube_from(np.full((2, 4), 5.0), ["t", "y"], client, fragment_dim="y", nfrag=2)
        b = cube_from(np.full((2, 4), 2.0), ["t", "y"], client, fragment_dim="y", nfrag=2)
        np.testing.assert_array_equal(a.intercube(b, "sub").to_array(), np.full((2, 4), 3.0))
        np.testing.assert_array_equal(a.intercube(b, "greater").to_array(), np.ones((2, 4)))

    def test_intercube_misaligned_fragments(self, client):
        a = cube_from(np.arange(8.0).reshape(2, 4), ["t", "y"], client,
                      fragment_dim="y", nfrag=2)
        b = cube_from(np.ones((2, 4)), ["t", "y"], client, fragment_dim="y", nfrag=4)
        out = a.intercube(b, "add")
        np.testing.assert_array_equal(out.to_array(), np.arange(8.0).reshape(2, 4) + 1)

    def test_intercube_dim_mismatch(self, client):
        a = cube_from(np.zeros((2, 4)), ["t", "y"], client)
        b = cube_from(np.zeros((2, 5)), ["t", "y"], client)
        with pytest.raises(ValueError):
            a.intercube(b, "sub")

    def test_subset_nonfragment(self, client):
        data = np.arange(24.0).reshape(6, 4)
        c = cube_from(data, ["time", "y"], client, fragment_dim="y", nfrag=2)
        out = c.subset("time", 1, 4)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.to_array(), data[1:4])

    def test_subset_fragment_dim(self, client):
        data = np.arange(24.0).reshape(4, 6)
        c = cube_from(data, ["t", "y"], client, fragment_dim="y", nfrag=3)
        out = c.subset("y", 2, 5)
        np.testing.assert_array_equal(out.to_array(), data[:, 2:5])

    def test_subset_empty_rejected(self, client):
        c = cube_from(np.zeros((4, 4)), ["t", "y"], client)
        with pytest.raises(ValueError):
            c.subset("t", 3, 3)

    def test_merge_single_fragment(self, client):
        data = np.arange(12.0).reshape(3, 4)
        c = cube_from(data, ["t", "y"], client, fragment_dim="y", nfrag=4)
        merged = c.merge()
        assert merged.nfrag == 1
        np.testing.assert_array_equal(merged.to_array(), data)


class TestRunLength:
    def test_run_lengths_basic(self):
        mask = np.array([1, 1, 0, 1, 1, 1, 0, 1], dtype=bool)
        out = _run_lengths(mask, axis=0)
        np.testing.assert_array_equal(out, [0, 2, 0, 0, 0, 3, 0, 1])

    def test_run_lengths_2d_axis0(self):
        mask = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
        out = _run_lengths(mask, axis=0)
        np.testing.assert_array_equal(out, [[0, 0], [2, 0], [0, 2]])

    def test_runlength_cube(self, client):
        # (time=6, y=2): one 3-run and one 2-run in column 0
        data = np.array([[1, 0], [1, 0], [1, 1], [0, 1], [1, 1], [1, 1]])
        c = cube_from(data, ["time", "y"], client, fragment_dim="y", nfrag=2)
        out = c.runlength(dim="time")
        expected = np.array([[0, 0], [0, 0], [3, 0], [0, 0], [0, 0], [2, 4]])
        np.testing.assert_array_equal(out.to_array(), expected)

    def test_runlength_fragment_dim_rejected(self, client):
        c = cube_from(np.zeros((2, 3)), ["t", "y"], client, fragment_dim="t")
        with pytest.raises(ValueError):
            c.runlength(dim="t")

    @given(st.lists(st.booleans(), min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_run_lengths_invariants(self, bits):
        mask = np.array(bits, dtype=bool)
        out = _run_lengths(mask, axis=0)
        # Sum of completed run lengths equals total True count.
        assert out.sum() == mask.sum()
        # Non-zero entries only where a run ends.
        for t in np.nonzero(out)[0]:
            assert mask[t]
            if t + 1 < len(mask):
                assert not mask[t + 1]


class TestLifecycleAndExport:
    def test_delete_frees_fragments(self, client, server):
        c = cube_from(np.zeros((2, 4)), ["t", "y"], client, nfrag=2, fragment_dim="y")
        assert server.pool.n_fragments == 2
        c.delete()
        assert server.pool.n_fragments == 0
        c.delete()  # idempotent
        with pytest.raises(RuntimeError):
            c.to_array()

    def test_operator_log_records_pipeline(self, client, server):
        c = cube_from(np.ones((2, 4)), ["t", "y"], client, fragment_dim="y")
        c.reduce("max", "t")
        ops = [e["operator"] for e in server.operator_log]
        assert "oph_reduce" in ops

    def test_exportnc2_roundtrip(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        with OphidiaServer(n_io_servers=2, n_cores=2, filesystem=fs) as server:
            client = Client(server)
            data = np.arange(6.0).reshape(2, 3)
            c = Cube.from_array(data, ["lat", "lon"], client=client,
                                fragment_dim="lat", measure="hwd")
            c.addmeta("year", 2015)
            path = c.exportnc2(output_path="indices", output_name="hwd_2015")
            assert path == "indices/hwd_2015.rnc"
            back = fs.read(path)
            np.testing.assert_array_equal(back["hwd"].data, data)
            assert back.attrs["meta_year"] == 2015

    def test_metadata(self, client):
        c = cube_from(np.zeros((1, 2)), ["t", "y"], client)
        c.addmeta("units", "K")
        assert c.getmeta("units") == "K"


class TestImportNC:
    def _write_days(self, fs, n_days=3):
        rng = np.random.default_rng(7)
        paths = []
        for d in range(n_days):
            ds = Dataset()
            ds.create_variable(
                "TREFHTMX", rng.normal(300, 5, size=(4, 6, 8)).astype(np.float32),
                ("time", "lat", "lon"),
            )
            path = f"esm/day_{d:03d}.rnc"
            fs.write(path, ds)
            paths.append(path)
        return paths

    def test_importnc2_concatenates_days(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        with OphidiaServer(2, 2, filesystem=fs) as server:
            client = Client(server)
            paths = self._write_days(fs)
            c = Cube.importnc2(paths, measure="TREFHTMX", client=client, nfrag=3)
            assert c.shape == (12, 6, 8)
            assert c.dim_names == ("time", "lat", "lon")
            assert c.fragment_dim == "lat"
            assert fs.stats.reads >= 3

    def test_importnc2_ambient_client(self, tmp_path):
        fs = SharedFilesystem(tmp_path)
        with OphidiaServer(2, 2, filesystem=fs) as server:
            Cube.client = Client(server)
            try:
                paths = self._write_days(fs, 1)
                c = Cube.importnc2(paths[0], measure="TREFHTMX")
                assert c.shape == (4, 6, 8)
            finally:
                Cube.client = None

    def test_importnc2_no_paths(self, client):
        with pytest.raises(ValueError):
            Cube.importnc2([], measure="x", client=client)


@st.composite
def cube_payloads(draw):
    t = draw(st.integers(1, 6))
    y = draw(st.integers(1, 8))
    nfrag = draw(st.integers(1, 8))
    values = draw(
        st.lists(st.floats(-1e3, 1e3), min_size=t * y, max_size=t * y)
    )
    return np.array(values).reshape(t, y), nfrag


class TestFragmentationInvariance:
    """Operator results must not depend on the fragment count."""

    @given(cube_payloads())
    @settings(max_examples=40, deadline=None)
    def test_reduce_invariant_under_fragmentation(self, payload):
        data, nfrag = payload
        with OphidiaServer(n_io_servers=2, n_cores=2) as server:
            client = Client(server)
            c = Cube.from_array(data, ["time", "y"], client=client,
                                fragment_dim="y", nfrag=nfrag)
            np.testing.assert_allclose(
                c.reduce("sum", "time").to_array(), data.sum(axis=0), rtol=1e-12
            )
            np.testing.assert_allclose(
                c.reduce("max", "y").to_array(), data.max(axis=1), rtol=1e-12
            )
