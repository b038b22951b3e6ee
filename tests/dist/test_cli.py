"""``python -m repro.dist``'s option defaults come from the modules
that own them, so the CLI cannot drift from the library."""

from repro.dist.cli import build_parser
from repro.dist.protocol import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_PORT,
    DEFAULT_WORKER_TIMEOUT,
)
from repro.dist.worker import DEFAULT_HEARTBEAT_PERIOD


def test_coordinator_and_worker_defaults_are_the_library_constants():
    parser = build_parser()
    coordinator = parser.parse_args(["coordinator"])
    assert coordinator.port == DEFAULT_PORT
    assert coordinator.lease_timeout == DEFAULT_LEASE_TIMEOUT
    assert coordinator.worker_timeout == DEFAULT_WORKER_TIMEOUT
    assert coordinator.max_attempts == DEFAULT_MAX_ATTEMPTS
    worker = parser.parse_args(["worker", "--connect", "127.0.0.1:7461"])
    assert worker.heartbeat == DEFAULT_HEARTBEAT_PERIOD
