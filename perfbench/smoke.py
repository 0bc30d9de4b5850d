"""Smoke test of the harness at a tiny corpus size.

    python3 perfbench/smoke.py

Runs every workload once untraced (two rounds) and once traced on corpora
of a few dozen sentences, and fails unless every command and check passes
(the planted-rule and reference-hash checks need full-size corpora and are
skipped) and each mode reports exactly the metrics BENCHMARK.json names.
Takes about a minute.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    failures = 0
    for workload in WORKLOADS.values():
        tiny = replace(workload, train_sentences=40, dev_sentences=min(workload.dev_sentences, 15),
                       test_sentences=15, planted_check=False)
        for trace in (False, True):
            tally, metrics = run.measure(tiny, seed=7, seconds=0, trace=trace, reference=None,
                                         work=run.WORK / f"smoke-{workload.name}")
            ok = tally.failed == 0 and sorted(metrics) == sorted(expected[trace])
            failures += not ok
            print(f"smoke {workload.name} trace={int(trace)}: "
                  f"{'ok' if ok else 'FAILED'} ({tally.failed}/{tally.attempted} failed, "
                  f"metrics {sorted(set(metrics) ^ set(expected[trace])) or 'as listed'})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
