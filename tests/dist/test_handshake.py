"""The hello/welcome handshake: one protocol version, checked both ways.

Every peer ships from the same tree, so the handshake negotiates
nothing: ``hello`` and ``welcome`` carry ``PROTOCOL_VERSION``, the
coordinator refuses any other version (or none) with an ``error`` frame
naming both versions before closing, and ``connect()`` turns a refusal
-- or a welcome at a foreign version -- into ``ConnectionError``.
"""

import socket
import threading

import pytest

from repro.dist import protocol as protocol_mod
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    connect,
    recv_message,
    send_message,
)


@pytest.mark.parametrize("role", ["client", "worker"])
@pytest.mark.parametrize("version", [None, PROTOCOL_VERSION - 1,
                                     PROTOCOL_VERSION + 1])
def test_hello_at_another_version_is_refused(role, version):
    with Coordinator() as coordinator:
        sock = socket.create_connection(("127.0.0.1", coordinator.port),
                                        timeout=10.0)
        hello = {"type": "hello", "role": role, "name": "stranger",
                 "slots": 1}
        if version is not None:
            hello["version"] = version
        send_message(sock, hello)
        header, _ = recv_message(sock)
        assert header["type"] == "error"
        assert str(PROTOCOL_VERSION) in header["error"]
        assert repr(version) in header["error"]
        with pytest.raises(ConnectionClosed):
            recv_message(sock)
        sock.close()
        status = coordinator.status()
        assert status["workers"] == [] and status["clients"] == 0


def test_connect_raises_with_the_refusal(monkeypatch):
    with Coordinator() as coordinator:
        # connect() reads the version from protocol; the broker keeps
        # its own bound copy, so it still speaks the real one.
        monkeypatch.setattr(protocol_mod, "PROTOCOL_VERSION",
                            PROTOCOL_VERSION + 1)
        with pytest.raises(ConnectionError) as excinfo:
            connect(coordinator.address, role="client")
        message = str(excinfo.value)
        assert "refused" in message
        assert f"version {PROTOCOL_VERSION}" in message
        assert f"sent {PROTOCOL_VERSION + 1}" in message
        assert coordinator.status()["clients"] == 0


def test_connect_rejects_a_welcome_at_another_version():
    """A coordinator that welcomes at a foreign version is refused by
    the connecting peer, with both versions in the error."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def foreign_coordinator():
        conn, _ = listener.accept()
        with conn:
            recv_message(conn)  # the hello
            send_message(conn, {"type": "welcome", "client_id": 1,
                                 "version": PROTOCOL_VERSION + 1})
            try:
                recv_message(conn)  # until the peer hangs up
            except (ConnectionClosed, OSError):
                pass

    server = threading.Thread(target=foreign_coordinator, daemon=True)
    server.start()
    try:
        with pytest.raises(ConnectionError) as excinfo:
            connect(f"127.0.0.1:{port}", role="client")
        message = str(excinfo.value)
        assert f"version {PROTOCOL_VERSION}" in message
        assert f"version {PROTOCOL_VERSION + 1}" in message
    finally:
        server.join(timeout=10.0)
        listener.close()
