"""PyOphidia-style client facade.

The real PyOphidia connects to a remote Ophidia Server over HTTPS; this
client names an in-process :class:`~repro.ophidia.server.OphidiaServer`
with the same shape of API the paper's Listing 1 relies on::

    from repro.ophidia import Client, Cube

    client = Client(server)
    Cube.client = client          # ambient client, as in the paper
    cube = Cube.importnc2(src_paths=paths, measure="TREFHTMX")

Operators are the :class:`~repro.ophidia.datacube.Cube` methods; the
client only carries the session (server and user).
"""

from __future__ import annotations

from repro.ophidia.server import OphidiaServer


class Client:
    """A connected Ophidia session."""

    def __init__(self, server: OphidiaServer, username: str = "oph-user") -> None:
        self.server = server
        self.username = username
