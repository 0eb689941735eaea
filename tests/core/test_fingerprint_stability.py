"""Cross-process fingerprint stability: the distributed contract.

Workers on other machines recompute ``run_key``/``prep_key`` from the
grid manifest and must land on exactly the coordinator's values. That
only holds if the fingerprints are independent of per-process state —
most notably ``PYTHONHASHSEED``, which randomizes ``str`` hashing (and
therefore any accidental reliance on set/dict iteration order).
"""

import os
import subprocess
import sys

import repro

_SCRIPT = """
from repro.core import DIRemover, GridSpec, LogisticRegression, NoIntervention

grid = GridSpec(
    seeds=[1, 2],
    learners=[lambda: LogisticRegression(tuned=False)],
    interventions=[NoIntervention, lambda: DIRemover(0.5)],
)
for config in grid.expand("germancredit"):
    print(config.run_key, config.prep_key)
"""


def _keys_under_hash_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.path.dirname(list(repro.__path__)[0])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestFingerprintStability:
    def test_keys_identical_across_hash_seeds(self):
        baseline = _keys_under_hash_seed("0")
        assert baseline.strip(), "expansion produced no keys"
        for seed in ("1", "42"):
            assert _keys_under_hash_seed(seed) == baseline

    def test_keys_match_in_process_expansion(self):
        from repro.core import (
            DIRemover,
            GridSpec,
            LogisticRegression,
            NoIntervention,
        )

        grid = GridSpec(
            seeds=[1, 2],
            learners=[lambda: LogisticRegression(tuned=False)],
            interventions=[NoIntervention, lambda: DIRemover(0.5)],
        )
        local = "".join(
            f"{c.run_key} {c.prep_key}\n" for c in grid.expand("germancredit")
        )
        assert local == _keys_under_hash_seed("7")

    def test_expansion_reads_each_constructor_signature_once(self, monkeypatch):
        import inspect

        from repro.core import (
            DecisionTree,
            DIRemover,
            GridSpec,
            LogisticRegression,
            NoIntervention,
            components,
        )

        grid = GridSpec(
            seeds=[1, 2, 3],
            learners=[lambda: LogisticRegression(tuned=False), DecisionTree],
            interventions=[NoIntervention, lambda: DIRemover(0.5)],
        )
        calls = []
        real = inspect.signature

        def spy(obj, *args, **kwargs):
            calls.append(obj)
            return real(obj, *args, **kwargs)

        components._constructor_names.cache_clear()
        monkeypatch.setattr(inspect, "signature", spy)
        first = [(c.run_key, c.prep_key) for c in grid.expand("germancredit")]
        # 12 cells, each fingerprinting several components: one read per class
        assert len(first) == 12
        assert calls and len(calls) == components._constructor_names.cache_info().currsize
        read = len(calls)
        assert [(c.run_key, c.prep_key) for c in grid.expand("germancredit")] == first
        assert len(calls) == read, "a second expansion re-read signatures"
