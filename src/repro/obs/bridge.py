"""Mirror a coordinator's live status stream into metric gauges.

``CoordinatorBridge`` dials a :class:`repro.dist.coordinator.Coordinator`
as a plain client, subscribes to the ``status_update`` stream, and maps
each snapshot onto gauges in a registry -- which makes the whole
distributed campaign scrapeable from the ``python -m repro.obs serve``
endpoint without the coordinator knowing anything about Prometheus.

The bridge is deliberately one-directional and loss-tolerant: a dropped
coordinator flips ``repro_dist_up`` to 0, counts the failure in
``repro_dist_bridge_errors_total`` and keeps redialling with a capped
backoff until stopped, so a scrape target survives coordinator restarts.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = ["CoordinatorBridge"]

_STAT_GAUGES = ("jobs_submitted", "jobs_completed", "jobs_failed",
                "jobs_requeued", "workers_dropped", "workers_retired",
                "results_ignored", "autoscale_errors")


class CoordinatorBridge:
    """Subscribe to ``address`` and mirror snapshots into ``registry``."""

    def __init__(self, registry: MetricsRegistry, address: str,
                 period: float = 1.0, redial_max: float = 5.0) -> None:
        self.registry = registry
        self.address = address
        self.period = max(0.1, period)
        self.redial_max = redial_max
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        self.updates_received = 0
        self._up = registry.gauge(
            "repro_dist_up",
            "1 while the bridge holds a live coordinator subscription")
        self._pending = registry.gauge(
            "repro_dist_pending_jobs", "Jobs queued, not yet leased")
        self._leased = registry.gauge(
            "repro_dist_leased_jobs", "Jobs leased to workers right now")
        self._workers = registry.gauge(
            "repro_dist_workers", "Connected workers")
        self._clients = registry.gauge(
            "repro_dist_clients", "Connected clients")
        self._errors = registry.counter(
            "repro_dist_bridge_errors_total",
            "Dials and subscriptions the bridge lost to an error")
        # Fleet-health gauges share the DistMeters bundle so an
        # in-process dist_meters() caller resolves the same series.
        from repro.obs.instrument import DistMeters

        dist = registry.bundles.get(DistMeters)
        if dist is None:
            dist = DistMeters(registry)
            registry.bundles[DistMeters] = dist
        self._dist = dist

    # ------------------------------------------------------------------
    def start(self) -> "CoordinatorBridge":
        self._thread = threading.Thread(target=self._run,
                                        name="obs-bridge", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._up.set(0.0)

    def __enter__(self) -> "CoordinatorBridge":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        from repro.dist.protocol import connect, recv_message, send_message

        backoff = 0.2
        while not self._stopped.is_set():
            sock = None
            try:
                sock = connect(self.address, role="client",
                               name="obs-bridge", timeout=2.0)
                send_message(sock, {"type": "subscribe",
                                    "period": self.period})
                # Bounded read timeout so stop() is honoured even while
                # the coordinator is idle between pushes.
                sock.settimeout(max(2.0, self.period * 3))
                backoff = 0.2
                while not self._stopped.is_set():
                    header, _payload = recv_message(sock)
                    if header.get("type") != "status_update":
                        continue  # subscribed ack, stray frames
                    self._apply(header.get("status") or {})
                    self.updates_received += 1
            except Exception:  # noqa: BLE001 - any wire fault => redial
                self._errors.inc()
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
            self._up.set(0.0)
            if self._stopped.wait(backoff):
                return
            backoff = min(self.redial_max, backoff * 2)

    def _apply(self, status: dict[str, Any]) -> None:
        reg = self.registry
        self._up.set(1.0)
        self._pending.set(float(status.get("pending", 0)))
        self._leased.set(float(status.get("leased", 0)))
        workers = status.get("workers", [])
        self._workers.set(float(len(workers)))
        self._clients.set(float(status.get("clients", 0)))
        self._dist.fleet_size.set(
            float(status.get("fleet_size", len(workers))))
        self._dist.lease_wait_p50.set(
            float(status.get("lease_wait_p50_sec", 0.0)))
        self._dist.lease_wait_p95.set(
            float(status.get("lease_wait_p95_sec", 0.0)))
        for name, value in (status.get("stats") or {}).items():
            if name in _STAT_GAUGES:
                reg.gauge(f"repro_dist_{name}",
                          "Coordinator lifetime counter (mirrored)"
                          ).set(float(value))
        for worker in workers:
            label = str(worker.get("name") or worker.get("id"))
            reg.gauge("repro_dist_worker_inflight",
                      "Leases held per worker",
                      worker=label).set(float(worker.get("inflight", 0)))
            reg.gauge("repro_dist_worker_last_seen_age_sec",
                      "Seconds since the worker's last frame",
                      worker=label).set(
                          float(worker.get("last_seen_age_sec", 0.0)))
            reg.gauge("repro_dist_worker_lease_wait_avg_sec",
                      "Mean queue-wait of jobs granted to this worker",
                      worker=label).set(
                          float(worker.get("lease_wait_avg_sec", 0.0)))
        for campaign in status.get("campaigns", []):
            label = str(campaign.get("name")
                        or campaign.get("client_id"))
            for key in ("outstanding", "completed", "failed"):
                reg.gauge(f"repro_dist_campaign_{key}",
                          f"Per-campaign {key} jobs",
                          campaign=label).set(float(campaign.get(key, 0)))
            reg.gauge("repro_dist_campaign_rate_per_sec",
                      "Per-campaign completion rate",
                      campaign=label).set(
                          float(campaign.get("rate_per_sec", 0.0)))
            eta = campaign.get("eta_sec")
            if eta is not None:
                reg.gauge("repro_dist_campaign_eta_sec",
                          "Projected seconds to drain the campaign",
                          campaign=label).set(float(eta))
            reg.gauge("repro_dist_campaign_weight",
                      "Declared fair-share weight",
                      campaign=label).set(
                          float(campaign.get("weight", 1.0)))
            reg.gauge("repro_dist_campaign_share",
                      "Fraction of grant bandwidth while backlogged",
                      campaign=label).set(
                          float(campaign.get("share", 0.0)))
