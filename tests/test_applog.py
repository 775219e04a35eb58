"""The durable JSONL logs: golden bytes, torn tails, typed corruption.

``TrialJournal``, ``ScanJournal`` and ``JobQueue`` share one fsynced
append path and one torn-tail-repairing replay (``repro.applog``).  The
golden byte strings below are the exact files those three logs wrote
before they shared it; they must keep loading, and the same records must
keep producing the same bytes.
"""

import pytest

from repro.fleet import JobQueue, JobQueueError
from repro.nas import TrialJournal, TrialRecord
from repro.nas.retry import RetryPolicy
from repro.robust import ScanJournal, ScanJournalError, TileRecord

TRIALS = [
    TrialRecord(trial_id=0, sample={"fc_width": 128, "spp": "3-2-1"},
                value=0.875, metrics={"latency_ms": 4.5}, duration_s=1.25),
    TrialRecord(trial_id=1, sample={"fc_width": 64, "spp": "2-1"},
                value=float("nan"), metrics={}, duration_s=0.5,
                status="failed", error="RuntimeError: boom", attempts=3),
    TrialRecord(trial_id=2, sample={"fc_width": 256, "spp": "4-2-1"},
                value=0.5, metrics={}, duration_s=2.0),
]

SCAN_META = {"window": 64, "stride": 32, "scene_size": 200,
             "backend": "engine", "threshold": 0.5}
TILES = [
    TileRecord(index=0, origin=(0, 0), status="ok",
               detections=((10.0, 12.5, 30.0, 28.0, 0.91),)),
    TileRecord(index=1, origin=(0, 32), status="repaired",
               reason="nan_pixels"),
    TileRecord(index=2, origin=(0, 64), status="quarantined",
               reason="all_nodata"),
]

GOLDEN_TRIALS = (
    b'{"trial_id": 0, "sample": {"fc_width": 128, "spp": "3-2-1"}, '
    b'"value": 0.875, "metrics": {"latency_ms": 4.5}, "duration_s": 1.25, '
    b'"status": "ok", "error": null, "attempts": 1}\n'
    b'{"trial_id": 1, "sample": {"fc_width": 64, "spp": "2-1"}, '
    b'"value": null, "metrics": {}, "duration_s": 0.5, "status": "failed", '
    b'"error": "RuntimeError: boom", "attempts": 3}\n'
)

GOLDEN_SCAN = (
    b'{"kind": "scan_header", "window": 64, "stride": 32, '
    b'"scene_size": 200, "backend": "engine", "threshold": 0.5}\n'
    b'{"kind": "tile", "index": 0, "origin": [0, 0], "status": "ok", '
    b'"reason": null, "detections": [[10.0, 12.5, 30.0, 28.0, 0.91]]}\n'
    b'{"kind": "tile", "index": 1, "origin": [0, 32], "status": "repaired", '
    b'"reason": "nan_pixels", "detections": []}\n'
    b'{"kind": "tile", "index": 2, "origin": [0, 64], '
    b'"status": "quarantined", "reason": "all_nodata", "detections": []}\n'
)

GOLDEN_QUEUE = (
    b'{"kind": "fleet_queue", "version": 1}\n'
    b'{"kind": "job", "job_id": "a", "payload": '
    b'{"scene": {"seed": 1}, "scan": {"window": 64}}}\n'
    b'{"kind": "job", "job_id": "b", "payload": '
    b'{"scene": {"seed": 2}, "scan": {}}}\n'
    b'{"kind": "lease", "job_id": "a", "owner": "w1", "attempt": 1, '
    b'"expires_at": 1030.0}\n'
    b'{"kind": "heartbeat", "job_id": "a", "owner": "w1", '
    b'"expires_at": 1030.0}\n'
    b'{"kind": "done", "job_id": "a", "result": {"detections": 3}}\n'
    b'{"kind": "lease", "job_id": "b", "owner": "w1", "attempt": 1, '
    b'"expires_at": 1030.0}\n'
    b'{"kind": "failed", "job_id": "b", "error": "RuntimeError: boom", '
    b'"not_before": 1000.5}\n'
)


def same_trials(a, b):
    """Trial lists equal, with NaN values compared as equal."""
    return [TrialJournal.to_json(t) for t in a] == \
        [TrialJournal.to_json(t) for t in b]


def open_queue(path):
    return JobQueue(path, lease_ttl_s=30.0, clock=lambda: 1000.0,
                    retry=RetryPolicy(max_attempts=2, backoff_s=0.5,
                                      jitter=0.0))


class TestGoldenBytes:
    def test_trial_journal(self, tmp_path):
        written = TrialJournal(tmp_path / "new.jsonl")
        for record in TRIALS[:2]:
            written.append(record)
        assert written.path.read_bytes() == GOLDEN_TRIALS
        old = tmp_path / "old.jsonl"
        old.write_bytes(GOLDEN_TRIALS)
        assert same_trials(TrialJournal(old).load(), TRIALS[:2])
        assert old.read_bytes() == GOLDEN_TRIALS

    def test_scan_journal(self, tmp_path):
        written = ScanJournal(tmp_path / "new.jsonl")
        written.start(SCAN_META)
        written.append(TILES[0])
        written.extend(TILES[1:])
        assert written.path.read_bytes() == GOLDEN_SCAN
        old = tmp_path / "old.jsonl"
        old.write_bytes(GOLDEN_SCAN)
        assert ScanJournal(old).load() == (SCAN_META, TILES)
        assert old.read_bytes() == GOLDEN_SCAN

    def test_job_queue(self, tmp_path):
        queue = open_queue(tmp_path / "new.jsonl")
        queue.submit("a", {"scene": {"seed": 1}, "scan": {"window": 64}})
        queue.submit("b", {"scene": {"seed": 2}, "scan": {}})
        queue.claim("w1")
        queue.heartbeat("a", "w1")
        queue.complete("a", "w1", result={"detections": 3})
        queue.claim("w1")
        queue.fail("b", "w1", "RuntimeError: boom")
        assert queue.path.read_bytes() == GOLDEN_QUEUE
        old = tmp_path / "old.jsonl"
        old.write_bytes(GOLDEN_QUEUE)
        replayed = open_queue(old)
        assert replayed.job_ids() == ["a", "b"]
        assert replayed.result("a") == {"detections": 3}
        assert replayed.status("b") == "pending"
        assert replayed.attempts("b") == 1
        assert old.read_bytes() == GOLDEN_QUEUE


class TestTornTrialJournal:
    def test_resume_after_kill_mid_append(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        journal = TrialJournal(path)
        for record in TRIALS:
            journal.append(record)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        reopened = TrialJournal(path)
        assert same_trials(reopened.load(), TRIALS[:2])
        extra = TrialRecord(trial_id=2, sample={"fc_width": 32}, value=0.25,
                            metrics={}, duration_s=0.1)
        reopened.append(extra)
        assert same_trials(TrialJournal(path).load(), TRIALS[:2] + [extra])


def corrupt_second_line(path):
    lines = path.read_bytes().split(b"\n")
    lines[1] = b'{"kind": "tile", "index": 1, "orig'
    path.write_bytes(b"\n".join(lines))


class TestTypedCorruption:
    """A malformed line followed by more data is not a crash artifact:
    each log raises its owner's error for it."""

    def test_trial_journal(self, tmp_path):
        from repro.nas import TrialJournalError

        journal = TrialJournal(tmp_path / "trials.jsonl")
        for record in TRIALS:
            journal.append(record)
        corrupt_second_line(journal.path)
        with pytest.raises(TrialJournalError, match="corrupt"):
            journal.load()

    def test_scan_journal(self, tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        journal.start(SCAN_META)
        journal.extend(TILES)
        corrupt_second_line(journal.path)
        with pytest.raises(ScanJournalError, match="corrupt"):
            journal.load()

    def test_job_queue(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        queue = open_queue(path)
        for job_id in "abc":
            queue.submit(job_id, {"n": job_id})
        corrupt_second_line(path)
        with pytest.raises(JobQueueError, match="corrupt"):
            open_queue(path)


# -- crash consistency: a kill at any byte of the last record ------------
#
# Each log adapter: write(path) lays down a log whose last line is one
# record; replay(path) reads it back as a comparable value; expect(n)
# is the replay of the first n records; extend(path) appends one more
# record through the log's own API and returns the expected replay.

class _Trials:
    def write(self, path):
        journal = TrialJournal(path)
        for record in TRIALS:
            journal.append(record)

    def replay(self, path):
        return [TrialJournal.to_json(t) for t in TrialJournal(path).load()]

    def expect(self, n):
        return [TrialJournal.to_json(t) for t in TRIALS[:n]]

    def extend(self, path, n):
        extra = TrialRecord(trial_id=9, sample={"fc_width": 8}, value=0.1,
                            metrics={}, duration_s=0.0)
        TrialJournal(path).append(extra)
        return self.expect(n) + [TrialJournal.to_json(extra)]


class _Scan:
    def write(self, path):
        journal = ScanJournal(path)
        journal.start(SCAN_META)
        for tile in TILES:
            journal.append(tile)

    def replay(self, path):
        return ScanJournal(path).load()

    def expect(self, n):
        return SCAN_META, TILES[:n]

    def extend(self, path, n):
        extra = TileRecord(index=9, origin=(32, 32), status="ok")
        ScanJournal(path).append(extra)
        return SCAN_META, TILES[:n] + [extra]


class _Queue:
    IDS = ["a", "b", "c"]

    def write(self, path):
        queue = open_queue(path)
        for job_id in self.IDS:
            queue.submit(job_id, {"n": job_id})

    def replay(self, path):
        return open_queue(path).job_ids()

    def expect(self, n):
        return self.IDS[:n]

    def extend(self, path, n):
        open_queue(path).submit("z", {"n": "z"})
        return self.IDS[:n] + ["z"]


@pytest.mark.parametrize("log", [_Trials(), _Scan(), _Queue()],
                         ids=["trial_journal", "scan_journal", "job_queue"])
def test_truncation_at_every_byte_of_last_record(log, tmp_path):
    source = tmp_path / "intact.jsonl"
    log.write(source)
    raw = source.read_bytes()
    last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
    n_records = 3
    path = tmp_path / "cut.jsonl"
    for cut in range(last_start, len(raw)):
        path.write_bytes(raw[:cut])
        # only the newline lost: the record itself is intact
        kept = n_records if cut == len(raw) - 1 else n_records - 1
        assert log.replay(path) == log.expect(kept), f"cut at byte {cut}"
        expected = log.extend(path, kept)
        assert log.replay(path) == expected, f"append after cut at {cut}"
