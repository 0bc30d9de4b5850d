"""Span recording around calls into morphagree's public functions.

The program is not modified: ``Tracer.install`` replaces each traced public
function, wherever a morphagree module holds a reference to it, with a
wrapper that records a span. Spans stay in memory and are written once, at
the end of the process, by ``Tracer.dump``.

Run a command traced:

    python perfbench/trace.py SPANS.json RUN_ID cli extract --train ...
    python perfbench/trace.py SPANS.json RUN_ID deep --train ...
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import deep_extract
import morphagree.cli
from morphagree.tree import leaf_count

# tree.grid_search's cross-validation fits one tree per fold plus the
# full-train refit for every grid point (tree._cv_score's n_folds default).
CV_FOLDS = 5


def _tokens(args, result):
    return {"tokens": result.token_count}


def _instances(args, result):
    return {
        "instances": len(result.instances),
        "distinct_triples": len({i.triple for i in result.instances}),
    }


def _tree_stats(tree) -> dict:
    return {"leaves": leaf_count(tree)}


def _grid_fits(args, result):
    validated = args["validation"] is not None and len(args["validation"].instances) > 0
    points = len(args["grid"].points())
    return {"fits": points if validated else points * (CV_FOLDS + 1), **_tree_stats(result)}


def _single_fit(args, result):
    return {"fits": 1, **_tree_stats(result)}


def _rules(args, result):
    return {"rules": len(result.rules)}


def _verdicts(args, result):
    return {"triples_scored": len(result.verdicts)}


def _one_lookup(args, result):
    return {"lookups": 1}


# (module, public function, span name, counter of the call's work)
TARGETS = (
    ("morphagree.conllu", "parse_conllu_file", "conllu.parse", _tokens),
    ("morphagree.triples", "extract_instances", "triples.extract_instances", _instances),
    ("morphagree.tree", "grid_search", "tree.grid_search", _grid_fits),
    ("morphagree.tree", "fit", "tree.fit", _single_fit),
    ("morphagree.pipeline", "extract_feature_rules", "pipeline.extract_feature_rules", None),
    ("morphagree.pipeline", "label_leaves", "labeling.label_leaves", None),
    ("morphagree.labeling", "merge_rules", "labeling.merge_rules", _rules),
    ("morphagree.labeling", "label_triple", "labeling.label_triple", _one_lookup),
    ("morphagree.evaluation", "arm", "evaluation.arm", _verdicts),
    ("morphagree.evaluation", "baseline_arm", "evaluation.baseline_arm", _verdicts),
    ("morphagree.serialization", "rules_document", "serialization.rules_document", None),
    ("morphagree.serialization", "write_json", "serialization.write_json", None),
    ("morphagree.serialization", "load_rules", "serialization.load_rules", None),
    ("morphagree.report", "build_annotation_rows", "report.build_annotation_rows", None),
    ("morphagree.report", "write_annotation_sheet", "report.write_annotation_sheet", None),
    ("morphagree.report", "write_report", "report.write_report", None),
)


class Tracer:
    """In-memory spans: name, start, end, parent index, run id, counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            # counted after the span closes, so counting is not timed
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record["counts"] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded morphagree module that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "morphagree" or n.startswith("morphagree.")]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def main(argv: list[str]) -> int:
    spans_path, run_id, target, *rest = argv
    tracer = Tracer(run_id)
    tracer.install()
    try:
        with tracer.span(f"{target}.main"):
            if target == "cli":
                status = morphagree.cli.main(rest)
            else:
                status = deep_extract.main(rest, tracer)
    finally:
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
