"""JSON persistence for campaign results.

Layout under the store root::

    <root>/
      campaign.json            # campaign-level manifest + summary
      metrics.jsonl            # per-run telemetry deltas (obs-on runs)
      runs/
        <run_id>.json          # one record per run: spec + metrics
      runs.staging/            # in-flight campaign being streamed

Each run record carries the full scenario spec (including the seed), so
any run can be reproduced later from its JSON alone.

A streaming campaign writes each record into ``runs.staging/`` as it
arrives and *commits* the staged set over ``runs/`` only once the whole
grid finished -- a failed or interrupted campaign leaves the previously
persisted campaign (runs + summary) fully intact.  The commit itself is
a directory-rename swap through ``runs.old/`` (recovered on open), so
even a crash mid-commit leaves one whole campaign's records, never a
mix; only the window between the swap and ``save_summary`` can pair new
runs with the previous summary.

Crash- and commit-race hardening:

- each staged record is written to a ``*.json.tmp`` sibling and
  ``os.replace``-d into place, so a process killed mid-``stage_run``
  never leaves a torn half-record for the commit to promote;
- the commit swap itself runs under :class:`CommitLock`, a kernel
  ``flock`` on a persistent lock file (auto-released if the holder
  dies, so it cannot go stale), so two concurrent committers
  serialize instead of racing the two renames into a corrupt or
  half-lost ``runs/``.

The *staging* phase is still one campaign per root at a time: runners
call ``discard_staged()`` before streaming, so two campaigns writing
the same root concurrently will clobber each other's staged records
(by design -- a root describes one campaign).  The lock only removes
the failure mode where the racing *commits* corrupt the previously
committed set.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any


class CommitLock:
    """An exclusive advisory lock guarding the commit swap.

    Implemented with ``flock(2)`` on a persistent ``.commit.lock``
    file: the kernel releases the lock the instant its holder exits
    for *any* reason (including SIGKILL mid-commit), so there is no
    stale-lock state to detect and no lock file to break or delete --
    the unlink/recreate TOCTOU races of pid-file protocols simply
    cannot occur.  The holder's pid is written into the file purely as
    a diagnostic; the file itself is never removed.

    Two threads of one process contend correctly too (each acquisition
    opens its own file descriptor, and ``flock`` locks are per open
    file description).  A live holder makes a second committer poll
    until ``timeout`` and then fail loudly rather than corrupt the
    store.
    """

    def __init__(self, path: Path, timeout: float = 10.0,
                 poll: float = 0.05) -> None:
        self.path = path
        self.timeout = timeout
        self.poll = poll
        self._fd: int | None = None

    def __enter__(self) -> "CommitLock":
        import fcntl

        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                # Held by someone else; anything other than EWOULDBLOCK
                # (e.g. ENOTSUP on an odd mount) propagates immediately
                # rather than spinning into a misleading timeout.
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise TimeoutError(
                        f"commit lock {self.path} held by a live "
                        f"process for over {self.timeout}s") from None
                time.sleep(self.poll)
            except OSError:
                os.close(fd)
                raise
        try:
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode())
        except OSError:
            pass  # the pid note is best-effort diagnostics
        self._fd = fd
        return self

    def __exit__(self, *exc_info) -> None:
        import fcntl

        fd, self._fd = self._fd, None
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(fd)


class ResultsStore:
    """Directory-backed store of per-run records and a campaign summary."""

    def __init__(self, root: str | Path,
                 lock_timeout: float = 10.0) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self._staging_dir = self.root / "runs.staging"
        self._old_dir = self.root / "runs.old"
        self._lock_path = self.root / ".commit.lock"
        self._lock_timeout = lock_timeout
        # Recover from a commit interrupted between its two renames:
        # runs/ missing with runs.old/ present means the previous
        # campaign was parked but the staged one never swapped in --
        # roll back.  Both present means the swap finished and only the
        # cleanup was lost -- finish it.  The check-and-repair runs
        # under the commit lock: another process may be *inside* its
        # commit swap right now, and its parked runs.old/ must not be
        # "recovered" out from under it.
        self.root.mkdir(parents=True, exist_ok=True)
        if self._old_dir.exists() or not self.runs_dir.exists():
            # Possible interrupted swap -- but runs.old/ also exists
            # transiently *inside* a healthy commit, so take the lock
            # and re-check before repairing anything.  The common case
            # (intact store) never touches the lock.
            with self.commit_lock():
                if self._old_dir.exists():
                    if not self.runs_dir.exists():
                        self._old_dir.rename(self.runs_dir)
                    else:
                        shutil.rmtree(self._old_dir)
                self.runs_dir.mkdir(parents=True, exist_ok=True)

    def begin_staging(self) -> None:
        """Open the staging area explicitly.  Runners call this before
        streaming a (possibly empty) grid: an existing-but-empty staged
        set commits as an empty campaign, whereas a *missing* staging
        directory makes :meth:`commit_staged` a no-op -- the difference
        between "this campaign produced nothing" and "someone else
        already promoted my staged set"."""
        self._staging_dir.mkdir(parents=True, exist_ok=True)

    def stage_run(self, run_id: str, record: dict[str, Any]) -> Path:
        """Stream one record into the staging area (see module docs).

        The write lands in a ``.json.tmp`` sibling first and is renamed
        into place, so a crash mid-write leaves no torn ``.json`` for
        :meth:`commit_staged` to promote.
        """
        self._staging_dir.mkdir(parents=True, exist_ok=True)
        path = self._staging_dir / f"{run_id}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True))
        os.replace(tmp, path)
        return path

    def commit_lock(self) -> CommitLock:
        return CommitLock(self._lock_path, timeout=self._lock_timeout)

    def commit_staged(self) -> int:
        """Promote the staged campaign: the previous run records are
        dropped and every staged record moves into ``runs/``.  Returns
        the number of committed records.

        The swap is two directory renames (park ``runs/``, promote
        ``runs.staging/``), so a crash at any point leaves either the
        old or the new campaign whole -- never a half-populated mix;
        ``__init__`` completes or rolls back an interrupted swap.  The
        whole sequence holds :class:`CommitLock`, so two concurrent
        committers serialize: the loser either promotes its own staged
        set afterwards or, finding nothing staged, leaves the winner's
        commit untouched.
        """
        with self.commit_lock():
            if not self._staging_dir.exists():
                return 0  # nothing staged (e.g. the losing committer)
            for leftover in self._staging_dir.glob("*.json.tmp"):
                leftover.unlink()  # torn writes never get promoted
            committed = len(list(self._staging_dir.glob("*.json")))
            if self._old_dir.exists():
                shutil.rmtree(self._old_dir)
            self.runs_dir.rename(self._old_dir)
            self._staging_dir.rename(self.runs_dir)
            shutil.rmtree(self._old_dir)
        return committed

    def discard_staged(self) -> int:
        """Drop any staged records (failed campaign, or leftovers from an
        interrupted process, including torn ``.json.tmp`` writes);
        returns how many records were removed."""
        if not self._staging_dir.exists():
            return 0
        stale = list(self._staging_dir.glob("*.json"))
        shutil.rmtree(self._staging_dir)
        return len(stale)

    def load_runs(self) -> list[dict[str, Any]]:
        return [json.loads(path.read_text())
                for path in sorted(self.runs_dir.glob("*.json"))]

    def save_metrics_jsonl(self, rows: list[dict[str, Any]]) -> Path:
        """Persist per-run telemetry snapshots (``repro.obs`` deltas) as
        ``metrics.jsonl``: one JSON object per line, submission order.

        The side channel follows the wholesale-replacement rule of the
        record set: an empty ``rows`` *removes* a stale file (a reused
        root must never pair a new campaign's records with an old
        campaign's telemetry).  Written via tmp + ``os.replace`` so a
        crash never leaves a torn file; ``runs/``-globbing readers are
        unaffected (the file lives at the store root).
        """
        path = self.root / "metrics.jsonl"
        if not rows:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            return path
        tmp = path.with_suffix(".jsonl.tmp")
        tmp.write_text("".join(json.dumps(row, sort_keys=True) + "\n"
                               for row in rows))
        os.replace(tmp, path)
        return path

    def load_metrics_jsonl(self) -> list[dict[str, Any]]:
        """The per-run telemetry rows, or ``[]`` when none were saved."""
        rows, _skipped = self.load_metrics_jsonl_counted()
        return rows

    def load_metrics_jsonl_counted(self) -> tuple[list[dict[str, Any]], int]:
        """Like :meth:`load_metrics_jsonl`, plus how many malformed
        lines were skipped.

        The side channel itself is written atomically, but a file
        copied or truncated mid-write (crash during a backup, a torn
        ``rsync``) can carry a torn trailing line; readers skip and
        count such lines instead of raising, and the warehouse ingester
        surfaces the count so silent telemetry loss stays visible.
        """
        path = self.root / "metrics.jsonl"
        if not path.exists():
            return [], 0
        rows: list[dict[str, Any]] = []
        skipped = 0
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
        return rows, skipped

    def save_summary(self, summary: dict[str, Any]) -> Path:
        """Written via tmp + ``os.replace``: a crash mid-write leaves
        the previous summary whole, never a torn file."""
        path = self.root / "campaign.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(summary, indent=2, sort_keys=True))
        os.replace(tmp, path)
        return path

    def load_summary(self) -> dict[str, Any]:
        return json.loads((self.root / "campaign.json").read_text())
