"""Paired good/bad fixtures for every ``repro lint`` rule.

Each test asserts the rule fires exactly where intended — the bad
variant produces the finding, the good variant (the idiom the rule
prescribes) stays clean. Scoped rules (strict-json) are additionally
checked to stay silent outside their scope.
"""

from repro.analysis.lint import CHECKER_NAMES, lint_paths, registered_checkers


def run(tmp_path, files, select):
    pkg = tmp_path / "pkg"
    for rel, source in files.items():
        target = pkg / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return lint_paths(str(pkg), select=[select], rel_prefix="")


def rules(report):
    return [finding.rule for finding in report.findings]


def test_registry_has_all_advertised_checkers():
    names = {checker.name for checker in registered_checkers()}
    assert set(CHECKER_NAMES) <= names
    assert len(CHECKER_NAMES) >= 8
    for checker in registered_checkers():
        assert checker.description  # every rule explains itself


class TestNoPickle:
    def test_import_flagged(self, tmp_path):
        report = run(tmp_path, {"m.py": "import pickle\n"}, "no-pickle")
        assert rules(report) == ["no-pickle"]

    def test_from_import_flagged(self, tmp_path):
        report = run(
            tmp_path, {"m.py": "from marshal import loads\n"}, "no-pickle"
        )
        assert rules(report) == ["no-pickle"]

    def test_allow_pickle_true_flagged(self, tmp_path):
        src = "import numpy as np\nd = np.load(p, allow_pickle=True)\n"
        report = run(tmp_path, {"m.py": src}, "no-pickle")
        assert rules(report) == ["no-pickle"]

    def test_good_json_and_allow_pickle_false(self, tmp_path):
        src = (
            "import json\nimport numpy as np\n"
            "d = np.load(p, allow_pickle=False)\n"
        )
        report = run(tmp_path, {"m.py": src}, "no-pickle")
        assert report.findings == []


class TestStrictJson:
    BAD = "import json\ndef reply(x):\n    return json.dumps(x)\n"
    GOOD = (
        "import json\ndef reply(x):\n"
        "    return json.dumps(x, allow_nan=False)\n"
    )

    def test_raw_dumps_in_serve_flagged(self, tmp_path):
        report = run(tmp_path, {"serve/m.py": self.BAD}, "strict-json")
        assert rules(report) == ["strict-json"]

    def test_allow_nan_false_is_clean(self, tmp_path):
        report = run(tmp_path, {"serve/m.py": self.GOOD}, "strict-json")
        assert report.findings == []

    def test_outside_serve_is_out_of_scope(self, tmp_path):
        report = run(tmp_path, {"core/m.py": self.BAD}, "strict-json")
        assert report.findings == []


class TestFingerprintDeterminism:
    def test_clock_in_fingerprint_flagged(self, tmp_path):
        src = (
            "import hashlib, json, time\n"
            "def fingerprint(payload):\n"
            "    payload['at'] = time.time()\n"
            "    blob = json.dumps(payload, sort_keys=True)\n"
            "    return hashlib.sha256(blob.encode()).hexdigest()\n"
        )
        report = run(tmp_path, {"m.py": src}, "fingerprint-determinism")
        assert rules(report) == ["fingerprint-determinism"]

    def test_unsorted_dumps_flagged_even_unnamed(self, tmp_path):
        # the hashlib+json.dumps shape marks a fingerprint derivation even
        # when the function name does not say so
        src = (
            "import hashlib, json\n"
            "def derive_key(payload):\n"
            "    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()\n"
        )
        report = run(tmp_path, {"m.py": src}, "fingerprint-determinism")
        assert rules(report) == ["fingerprint-determinism"]

    def test_canonical_form_is_clean(self, tmp_path):
        src = (
            "import hashlib, json\n"
            "def fingerprint(payload):\n"
            "    blob = json.dumps(payload, sort_keys=True,\n"
            "                      separators=(',', ':'))\n"
            "    return hashlib.sha256(blob.encode()).hexdigest()\n"
        )
        report = run(tmp_path, {"m.py": src}, "fingerprint-determinism")
        assert report.findings == []

    def test_clock_outside_fingerprints_is_fine(self, tmp_path):
        src = "import time\ndef now():\n    return time.time()\n"
        report = run(tmp_path, {"m.py": src}, "fingerprint-determinism")
        assert report.findings == []


class TestCrashSafeWrite:
    def test_rename_without_fsync_flagged(self, tmp_path):
        src = (
            "import os\n"
            "def save(path, blob):\n"
            "    with open(path + '.tmp', 'w') as h:\n"
            "        h.write(blob)\n"
            "    os.replace(path + '.tmp', path)\n"
        )
        report = run(tmp_path, {"m.py": src}, "crash-safe-write")
        assert rules(report) == ["crash-safe-write"]

    def test_direct_manifest_overwrite_flagged(self, tmp_path):
        src = (
            "def save(blob):\n"
            "    with open('manifest.json', 'w') as h:\n"
            "        h.write(blob)\n"
        )
        report = run(tmp_path, {"m.py": src}, "crash-safe-write")
        assert rules(report) == ["crash-safe-write"]

    FULL_IDIOM = (
        "import os\n"
        "def save(path, blob):\n"
        "    with open(path + '.tmp', 'w') as h:\n"
        "        h.write(blob)\n"
        "        h.flush()\n"
        "        os.fsync(h.fileno())\n"
        "    os.replace(path + '.tmp', path)\n"
    )

    def test_full_idiom_is_clean(self, tmp_path):
        # the idiom's one home: repro/durable.py owns the rename
        report = run(
            tmp_path, {"repro/durable.py": self.FULL_IDIOM}, "crash-safe-write"
        )
        assert report.findings == []

    def test_full_idiom_outside_durable_flagged(self, tmp_path):
        report = run(tmp_path, {"m.py": self.FULL_IDIOM}, "crash-safe-write")
        assert rules(report) == ["crash-safe-write"]

    def test_os_rename_outside_durable_flagged(self, tmp_path):
        src = "import os\ndef move(a, b):\n    os.rename(a, b)\n"
        report = run(tmp_path, {"m.py": src}, "crash-safe-write")
        assert rules(report) == ["crash-safe-write"]

    def test_durable_call_is_clean(self, tmp_path):
        src = (
            "from repro.durable import atomic_replace\n"
            "def save(manifest_path, blob):\n"
            "    atomic_replace(manifest_path, blob)\n"
        )
        report = run(tmp_path, {"m.py": src}, "crash-safe-write")
        assert report.findings == []

    def test_scratch_files_are_out_of_scope(self, tmp_path):
        src = (
            "def save(blob):\n"
            "    with open('notes.txt', 'w') as h:\n"
            "        h.write(blob)\n"
        )
        report = run(tmp_path, {"m.py": src}, "crash-safe-write")
        assert report.findings == []


class TestForkSafety:
    def test_import_time_lock_flagged(self, tmp_path):
        src = "import threading\n_LOCK = threading.Lock()\n"
        report = run(tmp_path, {"m.py": src}, "fork-safety")
        assert rules(report) == ["fork-safety"]

    def test_rearm_hook_makes_it_clean(self, tmp_path):
        src = (
            "import os, threading\n"
            "_LOCK = threading.Lock()\n"
            "def _rearm():\n"
            "    global _LOCK\n"
            "    _LOCK = threading.Lock()\n"
            "os.register_at_fork(after_in_child=_rearm)\n"
        )
        report = run(tmp_path, {"m.py": src}, "fork-safety")
        assert report.findings == []

    def test_lock_inside_function_is_fine(self, tmp_path):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
        )
        report = run(tmp_path, {"m.py": src}, "fork-safety")
        assert report.findings == []


GUARDED_CLASS = (
    "import threading\n"
    "class C:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._count = 0  # guarded-by: _lock\n"
    "        self._items = []  # guarded-by: _lock\n"
    "{body}"
)


class TestGuardedBy:
    def test_unguarded_mutation_flagged(self, tmp_path):
        src = GUARDED_CLASS.format(
            body="    def bump(self):\n        self._count += 1\n"
        )
        report = run(tmp_path, {"m.py": src}, "guarded-by")
        assert rules(report) == ["guarded-by"]
        assert "C.bump" in report.findings[0].message

    def test_unguarded_mutator_method_flagged(self, tmp_path):
        src = GUARDED_CLASS.format(
            body="    def push(self, x):\n        self._items.append(x)\n"
        )
        report = run(tmp_path, {"m.py": src}, "guarded-by")
        assert rules(report) == ["guarded-by"]

    def test_mutation_under_lock_is_clean(self, tmp_path):
        src = GUARDED_CLASS.format(
            body=(
                "    def bump(self):\n"
                "        with self._lock:\n"
                "            self._count += 1\n"
                "            self._items.append(self._count)\n"
            )
        )
        report = run(tmp_path, {"m.py": src}, "guarded-by")
        assert report.findings == []

    def test_caller_held_annotation_is_clean(self, tmp_path):
        src = GUARDED_CLASS.format(
            body=(
                "    def _bump_locked(self):  # guarded-by: _lock\n"
                "        self._count += 1\n"
            )
        )
        report = run(tmp_path, {"m.py": src}, "guarded-by")
        assert report.findings == []

    def test_unannotated_attributes_are_free(self, tmp_path):
        src = (
            "class C:\n"
            "    def bump(self):\n"
            "        self.anything = 1\n"
        )
        report = run(tmp_path, {"m.py": src}, "guarded-by")
        assert report.findings == []


class TestSilentExcept:
    def test_continue_only_body_flagged(self, tmp_path):
        src = (
            "def f(items):\n"
            "    for item in items:\n"
            "        try:\n"
            "            item()\n"
            "        except ValueError:\n"
            "            continue\n"
        )
        report = run(tmp_path, {"m.py": src}, "silent-except")
        assert rules(report) == ["silent-except"]

    def test_handled_except_is_clean(self, tmp_path):
        src = (
            "import logging\n"
            "def f(g):\n"
            "    try:\n"
            "        g()\n"
            "    except OSError as err:\n"
            "        logging.warning('g failed: %s', err)\n"
        )
        report = run(tmp_path, {"m.py": src}, "silent-except")
        assert report.findings == []


class TestWireCompat:
    def test_frames_without_protocol_version_flagged(self, tmp_path):
        src = (
            "from proto import send_frame\n"
            "def hello(sock):\n"
            "    send_frame(sock, {'type': 'hello'})\n"
        )
        report = run(tmp_path, {"m.py": src}, "wire-compat")
        assert rules(report) == ["wire-compat"]

    def test_literal_version_field_flagged(self, tmp_path):
        src = "MANIFEST = {'manifest_version': 1}\n"
        report = run(tmp_path, {"m.py": src}, "wire-compat")
        assert rules(report) == ["wire-compat"]

    def test_versioned_frames_are_clean(self, tmp_path):
        src = (
            "from proto import PROTOCOL_VERSION, send_frame\n"
            "def hello(sock):\n"
            "    send_frame(sock, {'type': 'hello',\n"
            "                      'protocol': PROTOCOL_VERSION})\n"
        )
        report = run(tmp_path, {"m.py": src}, "wire-compat")
        assert report.findings == []


class TestNoPrint:
    def test_print_in_library_flagged(self, tmp_path):
        report = run(
            tmp_path, {"serve/m.py": "print('ready')\n"}, "no-print"
        )
        assert rules(report) == ["no-print"]

    def test_cli_module_is_exempt(self, tmp_path):
        report = run(tmp_path, {"cli.py": "print('ready')\n"}, "no-print")
        assert report.findings == []

    def test_log_line_is_the_blessed_path(self, tmp_path):
        src = (
            "from repro import telemetry\n"
            "telemetry.log_line('ready')\n"
        )
        report = run(tmp_path, {"serve/m.py": src}, "no-print")
        assert report.findings == []
