"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload gsd-cv --seed 1 --seconds 40 --trace 0

The program is taken from ``src/`` of the checkout this file sits in. Every
command runs as its own child process, one after another (a single
closed-loop client). A round writes the seeded corpora (set-up) and runs
the workload's command sequence once. Rounds repeat while another one is
expected to end within ``--seconds``, at least twice. The benchmark and its
children are pinned to one core, and a speed probe (``Probe``) samples that
core while each step (set-up or command) runs; each step's wall time is
scaled to the probe's reference speed. Reported times are medians of the scaled times over rounds,
and memory is a median too.
``--trace 1`` instead runs one untraced and one traced round and reports
per-module metrics from the spans ``trace.py`` records. Outputs are checked
in both modes (``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 2
# a run must end within 180 s; a child still running at this point is killed
DEADLINE_S = 165.0
MODULES = ("conllu", "triples", "tree", "labeling", "evaluation", "serialization", "report")

# Speed probe (see Probe): lines of work per sample, wall seconds between
# samples, and the reference time of one sample, about the fastest it ran on
# the 2-core machine this was sized on. Scaled times are seconds at that
# speed.
PROBE_LINES = 600
PROBE_INTERVAL_S = 0.025
PROBE_REF_S = 0.001


class Probe:
    """Tracks the speed of the core that the benchmark and its children are
    pinned to (``pin_to_one_cpu``).

    On the shared machine this was sized on, a core runs at about its top
    speed or at about half of it, switching every few seconds, and a
    command's wall time follows. The probe is a fixed piece of pure-Python
    work (split CoNLL-U-like lines, count in a dict) that does not use
    morphagree. It is timed in thread CPU time, so time that another process
    or thread holds the core does not count, only how fast the core runs.
    While a step runs, a thread takes a sample every PROBE_INTERVAL_S. The
    step's scaled time is its wall time x PROBE_REF_S x the mean of
    1 / sample time: the time it would have taken at reference speed. A
    change to morphagree changes a step's wall time, not the probe's samples.
    """

    def __init__(self):
        self.text = "\n".join(
            f"{i}\tw{i % 97}\tl{i % 31}\tNOUN\t_\tGender=Fem|Number=Sing\t{i % 7}\tdet\t_\t_"
            for i in range(PROBE_LINES))
        for _ in range(10):  # warm-up
            self.sample()

    def sample(self) -> float:
        begin = time.thread_time()
        counts: dict[tuple[str, str, str], int] = {}
        for line in self.text.split("\n"):
            cols = line.split("\t")
            feats = dict(kv.split("=") for kv in cols[5].split("|"))
            key = (cols[7], cols[3], feats["Gender"])
            counts[key] = counts.get(key, 0) + int(cols[6])
        return time.thread_time() - begin

    def during(self, step):
        """Run step() while sampling; returns its wall time, its scaled time
        and its result."""
        samples: list[float] = []
        done = threading.Event()

        def sampler():
            while not done.wait(PROBE_INTERVAL_S):
                samples.append(self.sample())

        thread = threading.Thread(target=sampler)
        thread.start()
        begin = time.perf_counter()
        try:
            result = step()
        finally:
            seconds = time.perf_counter() - begin
            done.set()
            thread.join()
        scale = PROBE_REF_S * statistics.fmean(1 / t for t in samples or [self.sample()])
        return seconds, seconds * scale, result


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one core, so that
    the probe measures the core the commands run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def commands(extract_mode: str) -> list[tuple[str, list[str]]]:
    """The workload's command sequence: (metric stem, [target, *argv])."""
    extract = {
        "cv": ["cli", "extract", "--train", "train.conllu", "--out", "rules.json"],
        "dev": ["cli", "extract", "--train", "train.conllu", "--dev", "dev.conllu",
                "--depth-range", "--out", "rules.json"],
        "deep": ["deep", "--train", "train.conllu", "--out", "rules.json"],
    }[extract_mode]
    return [
        ("extract", extract),
        ("evaluate", ["cli", "evaluate", "--rules", "rules.json", "--test",
                      "test.conllu", "--baseline", "--out", "eval.json"]),
        ("annotation_sheet", ["cli", "annotation-sheet", "--rules", "rules.json",
                              "--train", "train.conllu", "--out", "sheet.tsv"]),
        ("report", ["cli", "report", "--rules", "rules.json", "--train", "train.conllu",
                    "--eval", "eval.json", "--out", "report"]),
    ]


class Runner:
    """Runs commands as child processes in the work directory."""

    def __init__(self, work: Path, deadline: float, probe: Probe):
        self.work = work
        self.deadline = deadline
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))

    def argv(self, target: list[str], spans: Path | None, run_id: str) -> list[str]:
        kind, *args = target
        if spans is not None:
            return [sys.executable, str(HERE / "trace.py"), str(spans), run_id, kind, *args]
        if kind == "cli":
            return [sys.executable, "-m", "morphagree.cli", *args]
        return [sys.executable, str(HERE / "deep_extract.py"), *args]

    def run(self, name: str, target: list[str], spans: Path | None = None) -> dict:
        """Wall time, scaled time, peak RSS and exit code of one command."""
        log = self.work / f"{name}.log"
        with open(log, "wb") as out:
            def command():
                proc = subprocess.Popen(self.argv(target, spans, name), cwd=self.work,
                                        env=self.env, stdout=out, stderr=subprocess.STDOUT)
                timer = threading.Timer(max(self.deadline - time.perf_counter(), 1.0), proc.kill)
                timer.start()
                try:
                    return os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()

            seconds, scaled, (_, status, usage) = self.probe.during(command)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"{name} exited {code}:\n{tail}", file=sys.stderr)
        return {"seconds": seconds, "scaled": scaled, "rss_mb": usage.ru_maxrss / 1024,
                "exit": code}


class Tally:
    """Attempted and failed operations: commands plus correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def setup(workload, seed: int, draw: int, work: Path,
          probe: Probe) -> tuple[float, float, str]:
    """Write the corpora of one draw; returns the time taken, its scaled
    time and the corpora's digest."""
    from checks import digest
    from workloads import write_corpora

    seconds, scaled, _ = probe.during(lambda: write_corpora(workload, seed, work, draw))
    return seconds, scaled, digest([work / name for name in sorted(workload.files)])


def run_round(runner: Runner, sequence, tally: Tally, spans_dir: Path | None = None):
    """One pass over the command sequence: per-command results and the
    digest of every output."""
    from checks import digest, output_files

    results = {}
    for name, target in sequence:
        spans = spans_dir / f"{name}.json" if spans_dir is not None else None
        results[name] = runner.run(name, target, spans)
        tally.record(f"command {name}", results[name]["exit"] == 0,
                     f"exit code {results[name]['exit']}")
    outputs = {key: digest(paths) if paths and all(p.is_file() for p in paths) else None
               for key, paths in output_files(runner.work).items()}
    return results, outputs


def check_draw0(corpora: list[str], outputs: list[dict], reference: str | None,
                tally: Tally) -> None:
    """Every round on draw 0 gave byte-identical corpora and outputs, and
    rules.json has the reference hash."""
    tally.record("setup determinism", len(set(corpora)) == 1, f"corpus digests {corpora}")
    first = outputs[0]
    for key in first:
        same = first[key] is not None and all(o[key] == first[key] for o in outputs)
        tally.record(f"byte-identical {key}", same, f"digests {[o[key] for o in outputs]}")
    if reference is not None:
        tally.record("reference rules.json", first["rules.json"] == reference,
                     f"sha256 {first['rules.json']}, reference {reference}")


def properties(work: Path, workload) -> dict:
    """Input properties later claims cite, read back from rules.json."""
    from morphagree.serialization import load_rules
    from morphagree.tree import leaf_count

    doc = load_rules(work / "rules.json")
    features = sorted(doc.rulesets)
    return {
        "train_sentences": workload.train_sentences,
        "train_tokens": workload.train_sentences * workload.tokens_per_sentence,
        "instances_per_feature": {f: doc.rulesets[f].training_size for f in features},
        "distinct_train_triples": {f: len(doc.training_triples[f]) for f in features},
        "leaves": {f: leaf_count(doc.trees[f]) for f in features},
        "rules": {f: len(doc.rulesets[f].rules) for f in features},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_times: list[float], rounds: list[dict]) -> dict:
    """Medians over rounds: scaled times (see Probe) and peak memory."""
    def median(name, key):
        return statistics.median(r[name][key] for r in rounds)

    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "extract_s": metric(median("extract", "scaled"), "s"),
        "evaluate_s": metric(median("evaluate", "scaled"), "s"),
        "annotation_sheet_s": metric(median("annotation_sheet", "scaled"), "s"),
        "report_s": metric(median("report", "scaled"), "s"),
        "extract_rss_mb": metric(median("extract", "rss_mb"), "MB"),
        "report_rss_mb": metric(median("report", "rss_mb"), "MB"),
    }


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_layer(spans_by_command: dict[str, list[dict]], rules_bytes: int,
              treebank_mb: float, overhead_s: float) -> dict:
    spans = [s for group in spans_by_command.values() for s in group]
    selfs = [t for group in spans_by_command.values() for t in self_times(group)]

    def busy(*names, command=None):
        group = spans if command is None else spans_by_command[command]
        return sum(s["end"] - s["start"] for s in group if s["name"] in names)

    def count(key):
        return sum(s["counts"].get(key, 0) for s in spans)

    def self_time(match):
        return sum(t for s, t in zip(spans, selfs) if match(s["name"]))

    leaves, rules = count("leaves"), count("rules")
    metrics = {
        "conllu.parse_s": metric(busy("conllu.parse"), "s"),
        "conllu.tokens": metric(count("tokens"), "count"),
        "conllu.treebank_mb": metric(treebank_mb, "MB"),
        "triples.extract_instances_s": metric(busy("triples.extract_instances"), "s"),
        "triples.extract_calls": metric(
            sum(s["name"] == "triples.extract_instances" for s in spans), "count"),
        "triples.instances": metric(count("instances"), "count"),
        "triples.distinct_triples": metric(
            max(s["counts"].get("distinct_triples", 0) for s in spans_by_command["extract"]),
            "count"),
        "tree.fit_s": metric(busy("tree.grid_search", "tree.fit"), "s"),
        "tree.fits": metric(count("fits"), "count"),
        "tree.leaves": metric(leaves, "count"),
        "labeling.label_leaves_s": metric(busy("labeling.label_leaves"), "s"),
        "labeling.merge_rules_s": metric(busy("labeling.merge_rules"), "s"),
        "labeling.rules": metric(rules, "count"),
        "labeling.rules_per_leaf": metric(rules / leaves if leaves else 0.0, "ratio"),
        "labeling.label_triple_s": metric(busy("labeling.label_triple"), "s"),
        "labeling.lookups": metric(count("lookups"), "count"),
        "evaluation.arm_s": metric(busy("evaluation.arm", "evaluation.baseline_arm"), "s"),
        "evaluation.triples_scored": metric(count("triples_scored"), "count"),
        "serialization.write_rules_s": metric(
            busy("serialization.rules_document", "serialization.write_json",
                 command="extract"), "s"),
        "serialization.load_rules_s": metric(busy("serialization.load_rules"), "s"),
        "serialization.rules_bytes": metric(rules_bytes, "bytes"),
        "report.build_annotation_rows_s": metric(busy("report.build_annotation_rows"), "s"),
        "report.write_report_s": metric(busy("report.write_report"), "s"),
        "pipeline.extract_feature_rules_s": metric(
            self_time(lambda name: name == "pipeline.extract_feature_rules"), "s"),
        "trace.overhead_s": metric(overhead_s, "s"),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = metric(
            self_time(lambda name: name.split(".")[0] == module), "s")
    return metrics


def treebank_peak_mb(path: Path) -> float:
    """tracemalloc peak while parsing one treebank, in MB."""
    from morphagree import parse_conllu_file

    tracemalloc.start()
    try:
        parse_conllu_file(path)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(workload, seed: int, seconds: float, trace: bool, reference: str | None,
            work: Path) -> tuple[Tally, dict]:
    """Set up, run and check one workload. Returns the tally and the metrics:
    end-to-end when untraced, per-module when traced. `reference` is the
    expected sha256 of rules.json, or None to skip that check."""
    from checks import check_outputs

    deadline = time.perf_counter() + DEADLINE_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    pin_to_one_cpu()
    probe = Probe()
    runner = Runner(work, deadline, probe)
    sequence = commands(workload.extract_mode)

    # Round i works on draw max(0, i - 1) of the seed's corpora: rounds 0
    # and 1 (or the traced round) repeat draw 0 to check determinism, and
    # later rounds spread the medians over fresh draws of the same grammar.
    setup_times, setup_scaled, rounds = [], [], []
    corpora0, outputs0 = [], []
    begin = time.perf_counter()
    while True:
        draw = max(0, len(rounds) - 1)
        seconds_taken, scaled, corpus = setup(workload, seed, draw, work, probe)
        setup_times.append(seconds_taken)
        setup_scaled.append(scaled)
        results, digests = run_round(runner, sequence, tally)
        rounds.append(results)
        for name, ok, detail in check_outputs(work, workload, planted=draw == 0):
            tally.record(f"{name} (draw {draw})", ok, detail)
        if draw == 0:
            corpora0.append(corpus)
            outputs0.append(digests)
            try:
                props = json.dumps(properties(work, workload), sort_keys=True)
            except (OSError, ValueError, KeyError) as exc:
                props = f"unavailable ({type(exc).__name__}: {exc})"
        elapsed = time.perf_counter() - begin
        if trace or (len(rounds) >= MIN_ROUNDS
                     and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            break
    if trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced, digests = run_round(runner, sequence, tally, spans_dir)
        outputs0.append(digests)
    check_draw0(corpora0, outputs0, reference, tally)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {seed}, {len(rounds)} untraced round(s); times as wall s (scaled s)")
    print("setup: " + ", ".join(f"{t:.3f} ({s:.3f})" for t, s in zip(setup_times, setup_scaled)))
    for i, results in enumerate(rounds, start=1):
        print(f"round {i}: " + ", ".join(
            f"{name} {r['seconds']:.3f} ({r['scaled']:.3f}) s / {r['rss_mb']:.1f} MB"
            for name, r in results.items()))
    for key, value in outputs0[0].items():
        print(f"sha256 {key} (draw 0): {value}")
    print(f"properties (draw 0): {props}")
    print(f"error_rate: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")

    if not trace:
        return tally, end_to_end(setup_scaled, rounds)
    spans = {}
    for name, _ in sequence:
        path = spans_dir / f"{name}.json"
        spans[name] = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
        tally.record(f"spans {name}", bool(spans[name]), f"{path} missing or empty")
    if not spans["extract"] or not (work / "rules.json").is_file():
        return tally, {}
    return tally, per_layer(
        spans,
        rules_bytes=(work / "rules.json").stat().st_size,
        treebank_mb=treebank_peak_mb(work / "train.conllu"),
        overhead_s=traced["extract"]["scaled"] - rounds[0]["extract"]["scaled"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morphagree" / "cli.py").is_file():
        print(f"error: no morphagree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import morphagree.cli  # noqa: F401  (bytecode is compiled before any timing)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = (reference["rules.json"][workload.name]
                if args.seed == reference["seed"] else None)
    tally, metrics = measure(workload, args.seed, args.seconds, bool(args.trace),
                             expected, WORK / workload.name)
    if not metrics:
        print("error: no metrics (see the failures above)", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
