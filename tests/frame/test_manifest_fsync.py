"""Frame-store manifests must be fsynced before the publishing rename.

Regression tests: ``FrameStoreWriter.close`` used to ``os.replace`` the
manifest ``.tmp`` without an fsync (unlike the results store and the
run-manifest writer), so a crash between kernel buffering and writeback
could publish a truncated manifest under the final name. It also
published the manifest over column ``.npy`` files (appended, and for
categorical columns remapped in place) that were never fsynced.
"""

import json
import os
import stat

import numpy as np

from repro.frame import Column, DataFrame, FrameStoreWriter, storage
from repro.frame.storage import MANIFEST_NAME


def small_frame(n=64):
    rng = np.random.default_rng(7)
    return DataFrame([
        Column.numeric("x", rng.normal(size=n)),
        Column.categorical("g", ["a" if i % 2 else "b" for i in range(n)]),
    ])


def test_manifest_fsynced_before_replace(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        events.append(("fsync", fd))
        return real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)

    frame = small_frame()
    root = str(tmp_path / "store")
    writer = FrameStoreWriter(root)
    writer.append(frame)
    store = writer.close()
    assert store.n_rows == frame.num_rows

    manifest_events = [
        e for e in events if e[0] == "replace" and e[1] == MANIFEST_NAME
    ]
    assert manifest_events, "manifest was never published via os.replace"
    replace_at = events.index(manifest_events[0])
    assert any(
        event[0] == "fsync" for event in events[:replace_at]
    ), "manifest .tmp must be fsynced before os.replace publishes it"

    manifest = json.load(open(os.path.join(root, MANIFEST_NAME)))
    assert manifest["n_rows"] == frame.num_rows
    assert not os.path.exists(os.path.join(root, MANIFEST_NAME + ".tmp"))


def test_column_files_fsynced_before_manifest(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace
    real_remap = storage._remap_file_inplace

    def spy_fsync(fd):
        if not stat.S_ISDIR(os.fstat(fd).st_mode):
            events.append(("fsync", os.fstat(fd).st_ino))
        return real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        return real_replace(src, dst)

    def spy_remap(path, lut):
        events.append(("remap", os.stat(path).st_ino))
        return real_remap(path, lut)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(storage, "_remap_file_inplace", spy_remap)

    root = str(tmp_path / "store")
    with FrameStoreWriter(root) as writer:
        writer.append(small_frame())
        writer.append(small_frame(32))
        writer.close()

    published = events.index(("replace", MANIFEST_NAME))
    with open(os.path.join(root, MANIFEST_NAME)) as handle:
        manifest = json.load(handle)
    for entry in manifest["columns"]:
        inode = os.stat(os.path.join(root, entry["file"])).st_ino
        # the column's final bytes are fsynced before the manifest
        # publishes it; a categorical column's in-place remap counts
        start = 0
        if entry["kind"] == "categorical":
            start = events.index(("remap", inode))
        assert ("fsync", inode) in events[start:published], entry
