"""``python -m repro.dist`` -- run a coordinator or a worker agent.

Quickstart (three terminals on one machine)::

    # terminal 1: the broker
    PYTHONPATH=src python -m repro.dist coordinator --port 7461

    # terminals 2+3: one agent each (2 local processes apiece)
    PYTHONPATH=src python -m repro.dist worker \\
        --connect 127.0.0.1:7461 --processes 2

then point any :class:`~repro.dist.runner.DistributedCampaignRunner`
(e.g. ``examples/distributed_campaign.py`` or ``python -m
repro.experiments.widegrid --dist 127.0.0.1:7461``) at the coordinator.
``status`` prints the broker's live queue/worker snapshot as JSON;
``status --follow`` subscribes to the coordinator's push stream and
prints one progress line per update (per-campaign completed/outstanding
counts, rate, ETA, worker health) until interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.dist.protocol import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_PORT,
    DEFAULT_WORKER_TIMEOUT,
)
from repro.dist.worker import DEFAULT_HEARTBEAT_PERIOD


def _cmd_coordinator(args: argparse.Namespace) -> int:
    from repro.dist.coordinator import Coordinator

    coordinator = Coordinator(host=args.host, port=args.port,
                              lease_timeout=args.lease_timeout,
                              worker_timeout=args.worker_timeout,
                              max_attempts=args.max_attempts)
    fleet = None
    if args.autoscale:
        from repro.dist.autoscale import AutoscalePolicy, parse_autoscale
        from repro.dist.cluster import SubprocessWorkerFleet

        lo, hi = parse_autoscale(args.autoscale)
        fleet = SubprocessWorkerFleet(
            coordinator, processes=args.autoscale_processes)
        coordinator.set_autoscaler(
            AutoscalePolicy(min_workers=lo, max_workers=hi), fleet,
            period=args.autoscale_interval)
    print(f"coordinator listening on {coordinator.address} "
          f"(lease {args.lease_timeout}s, worker {args.worker_timeout}s, "
          f"max attempts {args.max_attempts}"
          + (f", autoscale {args.autoscale}" if args.autoscale else "")
          + ")", flush=True)
    try:
        coordinator.serve_forever()
    except KeyboardInterrupt:
        coordinator.stop()
    finally:
        if fleet is not None:
            fleet.close()
    print("coordinator stopped", flush=True)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist.worker import WorkerAgent

    agent = WorkerAgent(args.connect, processes=args.processes,
                        slots=args.slots or None, name=args.name,
                        heartbeat_period=args.heartbeat,
                        connect_timeout=args.connect_timeout)
    print(f"worker {agent.name} -> {args.connect} "
          f"({args.processes} process(es), {agent.slots} slot(s))",
          flush=True)
    try:
        agent.run()  # returns on coordinator shutdown / loss
    except KeyboardInterrupt:
        agent.stop()
    print(f"worker {agent.name} exiting "
          f"({agent.jobs_done} done, {agent.jobs_failed} failed)",
          flush=True)
    return 0


def format_status_line(status: dict) -> str:
    """One human-readable progress line from a status snapshot (the
    ``--follow`` stream; also unit-tested directly)."""
    stats = status.get("stats", {})
    parts = [f"pending={status.get('pending', 0)}",
             f"leased={status.get('leased', 0)}",
             f"workers={len(status.get('workers', []))}",
             f"done={stats.get('jobs_completed', 0)}",
             f"failed={stats.get('jobs_failed', 0)}"]
    scale = status.get("autoscale")
    if scale is not None:
        # Only autoscaled brokers carry the block; the plain line (and
        # its pinned test expectations) stays unchanged without it.
        parts.append(f"fleet={status.get('fleet_size', 0)}"
                     f"[{scale.get('min')}:{scale.get('max')}]")
    for campaign in status.get("campaigns", []):
        total = (campaign.get("outstanding", 0)
                 + campaign.get("completed", 0) + campaign.get("failed", 0))
        settled = campaign.get("completed", 0) + campaign.get("failed", 0)
        eta = campaign.get("eta_sec")
        eta_text = f" eta={eta:.0f}s" if eta is not None else ""
        share = campaign.get("share") or 0.0
        share_text = f" share={share:.0%}" if share else ""
        parts.append(f"[{campaign.get('name')}: {settled}/{total} "
                     f"@{campaign.get('rate_per_sec', 0.0):.1f}/s"
                     f"{eta_text}{share_text}]")
    return " ".join(parts)


def _follow_status(args: argparse.Namespace) -> int:
    from repro.dist.protocol import (ConnectionClosed, connect,
                                     recv_message, send_message)

    sock = connect(args.connect, role="client", name="status-follow",
                   timeout=args.connect_timeout)
    updates = 0
    try:
        send_message(sock, {"type": "subscribe",
                            "period": args.interval})
        while True:
            header, _payload = recv_message(sock)
            kind = header.get("type")
            if kind != "status_update":
                continue  # the "subscribed" ack, stray frames
            status = header.get("status", {})
            if args.json:
                print(json.dumps(status, sort_keys=True), flush=True)
            else:
                print(format_status_line(status), flush=True)
            updates += 1
            if args.max_updates and updates >= args.max_updates:
                break
    except (ConnectionClosed, KeyboardInterrupt):
        pass  # coordinator went away / user stopped following
    finally:
        try:
            send_message(sock, {"type": "goodbye"})
        except OSError:
            pass
        sock.close()
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.dist.runner import DistributedCampaignRunner

    if args.follow:
        return _follow_status(args)
    with DistributedCampaignRunner(
            args.connect, connect_timeout=args.connect_timeout) as runner:
        print(json.dumps(runner.status(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.dist",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    coord = sub.add_parser("coordinator",
                           help="serve the job-leasing broker")
    coord.add_argument("--host", default="127.0.0.1")
    coord.add_argument("--port", type=int, default=DEFAULT_PORT)
    coord.add_argument("--lease-timeout", type=float,
                       default=DEFAULT_LEASE_TIMEOUT,
                       help="hard per-job execution deadline (s)")
    coord.add_argument("--worker-timeout", type=float,
                       default=DEFAULT_WORKER_TIMEOUT,
                       help="heartbeat silence before a worker is dropped")
    coord.add_argument("--max-attempts", type=int,
                       default=DEFAULT_MAX_ATTEMPTS,
                       help="lease grants per job before it is failed")
    coord.add_argument("--autoscale", default="", metavar="MIN:MAX",
                       help="run an elastic subprocess worker fleet "
                            "sized MIN..MAX by queue depth and "
                            "lease-wait (workers drain before exiting)")
    coord.add_argument("--autoscale-processes", type=int, default=1,
                       help="process pool width of each autoscaled "
                            "worker (0 = inline threads)")
    coord.add_argument("--autoscale-interval", type=float, default=0.5,
                       help="seconds between autoscale policy "
                            "evaluations")
    coord.set_defaults(func=_cmd_coordinator)

    worker = sub.add_parser("worker", help="lease and execute jobs")
    worker.add_argument("--connect", required=True,
                        help="coordinator address, host:port")
    worker.add_argument("--processes", type=int, default=1,
                        help="local process pool width (0 = inline)")
    worker.add_argument("--slots", type=int, default=0,
                        help="concurrent leases (default: pool width)")
    worker.add_argument("--heartbeat", type=float,
                        default=DEFAULT_HEARTBEAT_PERIOD)
    worker.add_argument("--connect-timeout", type=float, default=30.0,
                        help="how long to retry dialing the coordinator")
    worker.add_argument("--name", default="")
    worker.set_defaults(func=_cmd_worker)

    status = sub.add_parser("status",
                            help="print the coordinator's snapshot")
    status.add_argument("--connect", required=True)
    status.add_argument("--connect-timeout", type=float, default=10.0)
    status.add_argument("--follow", action="store_true",
                        help="subscribe to the live status stream and "
                             "print one line per update")
    status.add_argument("--interval", type=float, default=1.0,
                        help="requested stream period in seconds")
    status.add_argument("--max-updates", type=int, default=0,
                        help="stop after N updates (0 = until ^C)")
    status.add_argument("--json", action="store_true",
                        help="emit raw JSON snapshots when following")
    status.set_defaults(func=_cmd_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
