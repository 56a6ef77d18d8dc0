"""Cube rendering through a client session."""

import numpy as np
import pytest

from repro.ophidia import Client, Cube, OphidiaServer


@pytest.fixture
def client():
    with OphidiaServer(n_io_servers=2, n_cores=2) as server:
        yield Client(server)


def make_cube(client, data=None, dims=("time", "y")):
    if data is None:
        data = np.arange(12.0).reshape(6, 2)
    return Cube.from_array(np.asarray(data), list(dims), client=client,
                           fragment_dim=dims[-1])


class TestCubeRepr:
    def test_repr_mentions_dims(self, client):
        cube = make_cube(client)
        text = repr(cube)
        assert "time=6" in text and "y=2" in text
