"""Crash injection at every boundary of the two durable-write primitives.

``repro.durable`` calls through ``os.`` attributes, so each test swaps one
of ``os.write``, ``os.fsync`` (file or directory) and ``os.replace`` for a
function that raises — the in-process stand-in for a crash at that point
— and checks what a reader would find on disk afterwards.
"""

import os
import stat

import pytest

from repro.core import ResultsStore
from repro.core.results import CandidateResult, RunResult
from repro.durable import append_records, atomic_replace

REAL_WRITE, REAL_FSYNC, REAL_REPLACE = os.write, os.fsync, os.replace


class Crash(OSError):
    pass


def _is_dir(fd):
    return stat.S_ISDIR(os.fstat(fd).st_mode)


def torn_write(fd, data):
    """Land half the bytes, then die — a write torn by a crash."""
    REAL_WRITE(fd, bytes(data[: max(1, len(data) // 2)]))
    raise Crash("crash mid-write")


def failing_write(fd, data):
    raise Crash("crash before write")


def failing_file_fsync(fd):
    if _is_dir(fd):
        return REAL_FSYNC(fd)
    raise Crash("crash before file fsync")


def failing_dir_fsync(fd):
    if _is_dir(fd):
        raise Crash("crash before directory fsync")
    return REAL_FSYNC(fd)


def failing_replace(src, dst):
    raise Crash("crash before rename")


INJECTIONS = [
    ("write", failing_write),
    ("write", torn_write),
    ("fsync", failing_file_fsync),
    ("fsync", failing_dir_fsync),
    ("replace", failing_replace),
]
IDS = ["write", "torn-write", "file-fsync", "dir-fsync", "replace"]


def _record(seed):
    return RunResult(
        dataset="synthetic",
        random_seed=seed,
        components={"learner": "lr"},
        candidates=[CandidateResult("lr", {"overall__accuracy": 0.5})],
        best_index=0,
        test_metrics={"overall__accuracy": 0.5 + seed / 100.0},
        run_key=f"k{seed}",
    )


def _payload(*seeds):
    return "".join(_record(s).to_json() + "\n" for s in seeds).encode()


class TestAtomicReplace:
    @pytest.mark.parametrize("point,injected", INJECTIONS, ids=IDS)
    def test_crash_leaves_old_or_new_never_a_mix(
        self, tmp_path, monkeypatch, point, injected
    ):
        target = tmp_path / "manifest.json"
        old, new = b'{"v": 1}\n' * 100, b'{"v": 2}\n' * 300
        atomic_replace(str(target), old)

        monkeypatch.setattr(os, point, injected)
        with pytest.raises(Crash):
            atomic_replace(str(target), new)
        monkeypatch.undo()

        # only the directory fsync comes after the rename, so only that
        # crash may leave the new bytes; every other one keeps the old
        expected = new if injected is failing_dir_fsync else old
        assert target.read_bytes() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_creates_missing_target(self, tmp_path):
        target = tmp_path / "registry.json"
        atomic_replace(str(target), b"{}")
        assert target.read_bytes() == b"{}"
        assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]

    def test_directory_fsync_follows_every_replace(self, tmp_path, monkeypatch):
        events = []

        def spy_fsync(fd):
            events.append("fsync-dir" if _is_dir(fd) else "fsync-file")
            return REAL_FSYNC(fd)

        def spy_replace(src, dst):
            events.append("replace")
            return REAL_REPLACE(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        for version in range(3):
            atomic_replace(str(tmp_path / "index.json"), b"v%d" % version)
        assert events == ["fsync-file", "replace", "fsync-dir"] * 3

    @pytest.mark.parametrize(
        "umask", [0o022, 0o002, 0o077], ids=["022", "002", "077"]
    )
    def test_publishes_with_the_mode_append_records_creates(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            atomic_replace(str(tmp_path / "manifest.json"), b"{}")
            append_records(str(tmp_path / "runs.jsonl"), _payload(0))
        finally:
            os.umask(previous)
        published = stat.S_IMODE((tmp_path / "manifest.json").stat().st_mode)
        appended = stat.S_IMODE((tmp_path / "runs.jsonl").stat().st_mode)
        assert published == appended == 0o644 & ~umask


class TestAppendRecords:
    @pytest.mark.parametrize(
        "point,injected",
        [i for i in INJECTIONS if i[0] != "replace"],
        ids=[i for i in IDS if i != "replace"],
    )
    def test_crash_keeps_earlier_records_and_loses_nothing_next(
        self, tmp_path, monkeypatch, point, injected
    ):
        store = ResultsStore(str(tmp_path / "runs.jsonl"))
        append_records(store.path, _payload(0, 1))
        before = (tmp_path / "runs.jsonl").read_bytes()

        monkeypatch.setattr(os, point, injected)
        try:
            append_records(store.path, _payload(2, 3))
        except Crash:
            pass
        else:
            # the directory is only fsynced when the log is created, so
            # this injection never fires on an append to an existing log
            assert injected is failing_dir_fsync
        monkeypatch.undo()

        assert (tmp_path / "runs.jsonl").read_bytes().startswith(before)
        assert {"k0", "k1"} <= store.run_keys()

        append_records(store.path, _payload(4, 5))
        keys = [r.run_key for r in store.load(strict=False)]
        assert keys[:2] == ["k0", "k1"] and keys[-2:] == ["k4", "k5"]
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]

    def test_crash_creating_the_log_surfaces_at_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "fresh.jsonl")
        monkeypatch.setattr(os, "fsync", failing_dir_fsync)
        with pytest.raises(Crash):
            append_records(path, _payload(0))
        monkeypatch.undo()
        assert ResultsStore(path).run_keys() == {"k0"}

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        def dribble(fd, data):
            return REAL_WRITE(fd, bytes(data[:7]))

        monkeypatch.setattr(os, "write", dribble)
        append_records(str(tmp_path / "runs.jsonl"), _payload(0, 1, 2))
        monkeypatch.undo()
        store = ResultsStore(str(tmp_path / "runs.jsonl"))
        assert [r.run_key for r in store.load()] == ["k0", "k1", "k2"]

    def test_fsyncs_each_append_and_the_directory_on_create(
        self, tmp_path, monkeypatch
    ):
        events = []

        def spy_fsync(fd):
            events.append("fsync-dir" if _is_dir(fd) else "fsync-file")
            return REAL_FSYNC(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        for seed in range(3):
            append_records(str(tmp_path / "runs.jsonl"), _payload(seed))
        assert events == ["fsync-file", "fsync-dir", "fsync-file", "fsync-file"]
