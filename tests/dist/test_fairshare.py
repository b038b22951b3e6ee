"""Tenant isolation of the weighted deficit-round-robin arbiter.

Three altitudes:

- **arbiter-level** hypothesis property over random campaign mixes
  (sizes, weights, arrival times): grant counts track declared weights
  within the DRR deficit bound, every queue drains, no tenant waits
  longer than the bounded round length -- plus the deficit invariant
  ``0 <= deficit < 1 + weight`` after every grant;
- **wire-level** directed regressions with bare sockets: a
  late-arriving small campaign overtakes a monster FIFO backlog, a
  rejected weight (or a submit repeating a job id) never enqueues
  anything, and a crashed lease requeues to the front of its *own*
  campaign's lane;
- **client-edge** rejection: ``weight=0`` dies in the runner
  constructor and at the broker's submit edge, never silently clamps.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist.coordinator import Coordinator
from repro.dist.fairshare import FairScheduler, validate_weight
from repro.dist.protocol import (
    connect,
    dumps_payload,
    loads_payload,
    pack_blob_list,
    recv_message,
    send_message,
)
from repro.dist.runner import DistributedCampaignRunner


def _echo(x):
    return x


# ----------------------------------------------------------------------
# Arbiter level: the hypothesis fairness property
# ----------------------------------------------------------------------
campaign_mix = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8),    # weight
              st.integers(min_value=1, max_value=30)),  # backlog size
    min_size=2, max_size=5)


def _drain(sched, record=None):
    """Drain the scheduler to empty, returning the grant order as a
    list of campaign keys (asserting the deficit invariant throughout).
    """
    grants = []
    while True:
        pick = sched.peek()
        if pick is None:
            return grants
        queue, _job = pick
        sched.commit(queue)
        grants.append(queue.campaign)
        for q in sched:
            assert 0.0 <= q.deficit < 1.0 + q.weight, \
                f"deficit invariant violated for {q.campaign}"
        if record is not None:
            record(grants)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mix=campaign_mix)
def test_backlogged_grants_track_weights(mix):
    """While every campaign stays backlogged, campaign *i*'s grant
    count stays within the DRR bound of its weighted ideal share."""
    sched = FairScheduler()
    sizes = {}
    weights = {}
    for i, (weight, size) in enumerate(mix):
        key = f"c{i}"
        sizes[key], weights[key] = size, float(weight)
        for j in range(size):
            sched.enqueue(key, float(weight), (key, j))
    total_weight = sum(weights.values())
    n = len(mix)

    counts = dict.fromkeys(sizes, 0)
    window = []  # grant counts while ALL campaigns are still backlogged

    def record(grants):
        counts[grants[-1]] += 1
        if all(counts[k] < sizes[k] for k in sizes):
            window.append(dict(counts))

    grants = _drain(sched, record)
    # Conservation: every job granted exactly once, FIFO per campaign.
    assert len(grants) == sum(sizes.values())
    for key, size in sizes.items():
        assert sum(1 for g in grants if g == key) == size
    # Fairness inside the fully-backlogged window.
    if window:
        final = window[-1]
        total = sum(final.values())
        for key, weight in weights.items():
            ideal = total * weight / total_weight
            slack = 2.0 + 2.0 * weight + n
            assert abs(final[key] - ideal) <= slack, \
                (key, final[key], ideal, slack)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mix=campaign_mix)
def test_no_tenant_starves(mix):
    """Every backlogged campaign is granted within a bounded gap: at
    most one full replenish round of the whole mix."""
    sched = FairScheduler()
    sizes = {}
    for i, (weight, size) in enumerate(mix):
        key = f"c{i}"
        sizes[key] = size
        for j in range(size):
            sched.enqueue(key, float(weight), (key, j))
    grants = _drain(sched)
    max_gap = 2 * (len(mix) + sum(w for w, _ in mix))
    last_seen = dict.fromkeys(sizes, 0)
    seen = dict.fromkeys(sizes, 0)
    for pos, key in enumerate(grants):
        seen[key] += 1
        gap = pos - last_seen[key]
        last_seen[key] = pos
        if seen[key] > 1 and seen[key] <= sizes[key]:
            assert gap <= max_gap, (key, pos, gap, max_gap)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrivals=st.lists(st.tuples(st.integers(0, 2),
                                   st.integers(0, 1)),
                         min_size=1, max_size=60))
def test_interleaved_arrivals_all_drain(arrivals):
    """Random interleave of enqueues and grant rounds never loses or
    duplicates a job, whatever order tenants show up in."""
    sched = FairScheduler()
    submitted = []
    granted = []
    counter = 0
    for campaign_idx, do_grant in arrivals:
        key = f"c{campaign_idx}"
        job = (key, counter)
        counter += 1
        sched.enqueue(key, float(campaign_idx + 1), job)
        submitted.append(job)
        if do_grant:
            pick = sched.peek()
            if pick is not None:
                queue, job = pick
                assert sched.commit(queue) is job
                granted.append(job)
    while True:
        pick = sched.peek()
        if pick is None:
            break
        queue, job = pick
        sched.commit(queue)
        granted.append(job)
    assert sorted(granted) == sorted(submitted)
    assert len(sched) == 0


def test_single_campaign_is_exact_fifo():
    sched = FairScheduler()
    for i in range(50):
        sched.enqueue("solo", 1.0, i)
    order = []
    while True:
        pick = sched.peek()
        if pick is None:
            break
        queue, job = pick
        order.append(sched.commit(queue))
    assert order == list(range(50))


def test_late_small_campaign_overtakes_backlog_arbiter():
    """The FIFO-regression the tentpole exists for: 5 grants into a
    40-job monster, a 4-job tenant arrives and is fully served within
    ~2x its size, not after the monster drains."""
    sched = FairScheduler()
    for j in range(40):
        sched.enqueue("monster", 1.0, ("monster", j))
    for _ in range(5):
        queue, _job = sched.peek()
        sched.commit(queue)
    for j in range(4):
        sched.enqueue("late", 1.0, ("late", j))
    grants = _drain(sched)
    late_done_at = max(i for i, key in enumerate(grants) if key == "late")
    assert late_done_at <= 2 * 4 + 2, grants[:12]


def test_requeue_goes_to_own_front():
    sched = FairScheduler()
    sched.enqueue("a", 1.0, "a0")
    sched.enqueue("a", 1.0, "a1")
    sched.enqueue("b", 1.0, "b0")
    queue, job = sched.peek()
    assert sched.commit(queue) == "a0"
    # The lease crashed: back to the front of a's own lane.
    sched.enqueue("a", 1.0, "a0", front=True)
    drained = []
    while True:
        pick = sched.peek()
        if pick is None:
            break
        queue, job = pick
        drained.append(sched.commit(queue))
    a_order = [j for j in drained if j.startswith("a")]
    assert a_order == ["a0", "a1"]
    assert sorted(drained) == ["a0", "a1", "b0"]


def test_stale_jobs_pruned_and_credit_forfeited():
    live = {"a0", "b0", "b1"}
    sched = FairScheduler(is_live=lambda job: job in live)
    sched.enqueue("a", 4.0, "a0")
    sched.enqueue("b", 1.0, "b0")
    sched.enqueue("b", 1.0, "b1")
    live.discard("a0")  # settled out-of-band (first-win duplicate)
    drained = []
    while True:
        pick = sched.peek()
        if pick is None:
            break
        queue, job = pick
        drained.append(sched.commit(queue))
    assert drained == ["b0", "b1"]
    assert sched.pending() == 0


@pytest.mark.parametrize("bad", [0, -1, 0.0, -0.5, float("nan"),
                                 float("inf"), "heavy", None])
def test_validate_weight_rejects(bad):
    with pytest.raises(ValueError):
        validate_weight(bad)


def test_validate_weight_accepts_fractional():
    assert validate_weight(0.25) == 0.25
    assert validate_weight("3") == 3.0


def test_fractional_weight_replenish_is_closed_form():
    """A tiny-weight tenant must not cost a replenish loop: one peek
    tops it up in one arithmetic step and the mix still drains."""
    sched = FairScheduler()
    sched.enqueue("tiny", 1e-6, ("tiny", 0))
    for j in range(3):
        sched.enqueue("big", 5.0, ("big", j))
    grants = _drain(sched)
    assert sorted(grants) == ["big", "big", "big", "tiny"]


# ----------------------------------------------------------------------
# Wire level: the broker edge
# ----------------------------------------------------------------------
def _client(address, name):
    sock = connect(address, role="client", name=name)
    sock.settimeout(10.0)
    return sock


def _submit_weighted(client, values, weight=None):
    header = {"type": "submit",
              "job_ids": [f"j{i}" for i in range(len(values))]}
    if weight is not None:
        header["weight"] = weight
    blobs = [dumps_payload((_echo, v)) for v in values]
    send_message(client, header, pack_blob_list(blobs))


def _serve_one(worker):
    """Lease one job, execute the echo, result it; returns the wire
    job key (``c<client>b<batch>:<job_id>``)."""
    while True:
        header, payload = recv_message(worker)
        if header["type"] == "job":
            break
    _fn, value = loads_payload(payload)
    send_message(worker, {"type": "result", "job_id": header["job_id"],
                          "attempt": header["attempt"], "ok": True},
                 dumps_payload(value))
    return header["job_id"]


def _campaign_of(wire_key):
    return wire_key.split(":", 1)[0]


def _fake_worker(address, slots=1, name="fw"):
    sock = connect(address, role="worker", name=name, slots=slots)
    sock.settimeout(10.0)
    return sock


def test_zero_weight_rejected_at_submit_edge():
    with Coordinator() as coordinator:
        client = _client(coordinator.address, "zero")
        _submit_weighted(client, [1, 2], weight=0)
        header, _ = recv_message(client)
        assert header["type"] == "error"
        assert "weight" in header["error"]
        # Nothing was enqueued: the whole submit is rejected.
        assert coordinator.status()["pending"] == 0
        assert coordinator.stats.jobs_submitted == 0
        client.close()


def test_duplicate_job_ids_rejected_at_submit_edge():
    """Records are keyed ``c<client>b<batch>:<job_id>``: a repeated id
    would overwrite its twin, lease both under one key and settle only
    once, so the broker rejects the whole submit instead."""
    with Coordinator() as coordinator:
        client = _client(coordinator.address, "dupes")
        send_message(client, {"type": "submit", "job_ids": ["j0", "j0"]},
                     pack_blob_list([dumps_payload((_echo, v))
                                     for v in (1, 2)]))
        header, _ = recv_message(client)
        assert header["type"] == "error"
        assert "duplicate" in header["error"]
        assert coordinator.status()["pending"] == 0
        assert coordinator.stats.jobs_submitted == 0
        client.close()


def test_zero_weight_rejected_in_runner_constructor():
    with pytest.raises(ValueError):
        DistributedCampaignRunner("127.0.0.1:1", weight=0)
    with pytest.raises(ValueError):
        DistributedCampaignRunner("127.0.0.1:1", weight=float("nan"))


def test_weighted_grant_split_tracks_declared_weights():
    """Two backlogged tenants at weights 1:3 split a 1-slot
    worker's grants ~1:3 over any window."""
    with Coordinator() as coordinator:
        light = _client(coordinator.address, "light")
        heavy = _client(coordinator.address, "heavy")
        _submit_weighted(light, list(range(24)), weight=1)
        _submit_weighted(heavy, list(range(24)), weight=3)
        # Worker connects after both backlogs exist, so every grant is
        # an arbitration decision, not an arrival race.
        worker = _fake_worker(coordinator.address, slots=1)
        grants = [_campaign_of(_serve_one(worker)) for _ in range(16)]
        campaigns = sorted(set(grants))
        assert len(campaigns) == 2
        by_campaign = {c: grants.count(c) for c in campaigns}
        heavy_key = max(by_campaign, key=by_campaign.get)
        assert 10 <= by_campaign[heavy_key] <= 14, by_campaign
        worker.close(), light.close(), heavy.close()


def test_late_small_campaign_overtakes_fifo_backlog_on_wire():
    """End-to-end form of the FIFO regression: B's 3 jobs, submitted
    after A's 40-job monster started draining, finish while A still has
    a deep backlog -- the old single-FIFO broker made B wait for all of
    A."""
    with Coordinator() as coordinator:
        monster = _client(coordinator.address, "monster")
        _submit_weighted(monster, list(range(40)), weight=1)
        worker = _fake_worker(coordinator.address, slots=1)
        for _ in range(5):
            assert _campaign_of(_serve_one(worker)) is not None
        late = _client(coordinator.address, "late")
        _submit_weighted(late, [100, 101, 102], weight=1)
        grants = [_campaign_of(_serve_one(worker)) for _ in range(10)]
        assert len(set(grants)) == 2
        counts = {c: grants.count(c) for c in set(grants)}
        late_key = min(counts, key=counts.get)
        # All 3 of B's jobs were granted inside the 10-grant window.
        assert counts[late_key] == 3, counts
        # ...and B's client saw its done frame while A is still deep.
        done = recv_message(late)
        while done[0]["type"] != "done":
            done = recv_message(late)
        assert coordinator.status()["pending"] > 20
        worker.close(), monster.close(), late.close()


def test_crash_requeue_stays_in_tenant_lane():
    """A crashed lease returns to the front of its own campaign's
    queue: the victim tenant's next grant is the crashed job at
    attempt 2, ahead of its later jobs, and the other tenant's lane is
    untouched."""
    with Coordinator(worker_timeout=5.0) as coordinator:
        a = _client(coordinator.address, "tenant-a")
        b = _client(coordinator.address, "tenant-b")
        _submit_weighted(a, [0, 1, 2], weight=1)
        victim = _fake_worker(coordinator.address, name="victim")
        header, _payload = None, None
        while True:
            header, _payload = recv_message(victim)
            if header["type"] == "job":
                break
        crashed_key = header["job_id"]
        assert header["attempt"] == 1
        _submit_weighted(b, [10, 11], weight=1)
        victim.close()  # SIGKILL signature: no goodbye, lease lost
        survivor = _fake_worker(coordinator.address, name="survivor")
        a_campaign = _campaign_of(crashed_key)
        seen_a = []
        for _ in range(5):
            while True:
                header, payload = recv_message(survivor)
                if header["type"] == "job":
                    break
            if _campaign_of(header["job_id"]) == a_campaign:
                seen_a.append((header["job_id"], header["attempt"]))
            _fn, value = loads_payload(payload)
            send_message(survivor,
                         {"type": "result", "job_id": header["job_id"],
                          "attempt": header["attempt"], "ok": True},
                         dumps_payload(value))
        # A's first regrant is the crashed job, retried, at its front.
        assert seen_a[0] == (crashed_key, 2)
        assert [k for k, _ in seen_a] == sorted(k for k, _ in seen_a)
        assert coordinator.stats.jobs_requeued == 1
        survivor.close(), a.close(), b.close()


def test_submit_without_weight_is_weight_one():
    """A submit with no ``weight`` field is a plain weight-1 tenant:
    its jobs complete and the status snapshot reports weight 1."""
    with Coordinator() as coordinator:
        client = _client(coordinator.address, "unweighted")
        _submit_weighted(client, [7])
        deadline = time.monotonic() + 10.0
        status = coordinator.status()
        while not status["campaigns"]:
            assert time.monotonic() < deadline, "submit never landed"
            time.sleep(0.02)
            status = coordinator.status()
        assert status["campaigns"][0]["weight"] == 1.0
        worker = _fake_worker(coordinator.address)
        _serve_one(worker)
        header, payload = recv_message(client)
        assert header["type"] == "result" and header["ok"]
        assert loads_payload(payload) == 7
        worker.close(), client.close()
