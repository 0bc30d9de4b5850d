"""Command-line interface: extract, evaluate, annotate, and report."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .conllu import _gc_paused, parse_conllu_file
from .errors import EmptyCountsError, MorphagreeError, ZeroVarianceError
from .evaluation import (
    arm,
    baseline_arm,
    hrm,
    pearson,
    read_annotations,
)
from .labeling import GATE_BOUNDS, Bounds, Label, ThresholdMode
from .pipeline import ExtractionConfig, extract_feature_rules
from .report import build_annotation_rows, write_annotation_sheet, write_report
from .serialization import (
    FORMAT_VERSION,
    eval_report_to_dict,
    load_rules,
    read_score,
    read_score_entries,
    rules_document,
    write_json,
)
from .triples import DEFAULT_FEATURES, extract_instances


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write(path: str, fields: dict) -> None:
    """Write fields, after the format version, as a canonical JSON document."""
    write_json({"format_version": FORMAT_VERSION, **fields}, path)
    print(f"wrote {path}")


def _report_failures(failures: dict[str, str]) -> int:
    for feature, message in sorted(failures.items()):
        print(f"error: {feature}: {message}", file=sys.stderr)
    print(
        f"failed features: {', '.join(sorted(failures))}",
        file=sys.stderr,
    )
    return 1


def cmd_extract(args: argparse.Namespace) -> int:
    config = ExtractionConfig(
        features=tuple(args.features),
        threshold_mode=ThresholdMode(args.threshold),
        hard_threshold=args.hard_threshold,
        alpha=args.alpha,
        phi_min=args.phi_min,
        phi_sqrt=args.phi_sqrt,
        marginals_scope=args.marginals,
        depth_range=args.depth_range,
        selection_metric=args.metric.replace("-", "_"),
        seed=args.seed,
    )
    train = parse_conllu_file(args.train)
    dev = parse_conllu_file(args.dev) if args.dev else None
    results = {}
    failures: dict[str, str] = {}
    for feature in config.features:
        try:
            results[feature] = extract_feature_rules(train, feature, config, dev)
        except (MorphagreeError, ValueError) as exc:
            failures[feature] = str(exc)
    write_json(rules_document(results, config, args.train), args.out)
    for feature in config.features:
        result = results.get(feature)
        if result is None:
            continue
        if result.absent:
            print(f"{feature}: absent (no qualifying edges)")
        else:
            required = sum(
                r.label is Label.REQUIRED for r in result.ruleset.rules
            )
            print(
                f"{feature}: {len(result.ruleset.rules)} rules "
                f"({required} required) from {result.ruleset.training_size} instances, "
                f"{len(result.ruleset.verdicts)} leaves"
            )
    print(f"wrote {args.out}")
    if failures:
        return _report_failures(failures)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    doc = load_rules(args.rules)
    # only --top-k reads the training triples: a malformed list fails here,
    # before the test treebank is parsed
    ranked = doc.training_triples if args.top_k is not None else None
    test = parse_conllu_file(args.test)
    features_out: dict[str, dict] = {}
    failures: dict[str, str] = {}
    for feature in doc.features:
        if feature in doc.absent:
            features_out[feature] = {"absent": True}
            continue
        dataset = extract_instances(test, feature)
        if ranked is not None:
            triples = [t for t, _ in ranked[feature][: args.top_k]]
        else:
            triples = dataset.ranking
        ruleset = doc.rulesets[feature]
        try:
            report = arm(ruleset, dataset, triples, tau=args.tau)
            baseline = (
                baseline_arm(dataset, triples, tau=args.tau) if args.baseline else None
            )
        except MorphagreeError as exc:
            failures[feature] = str(exc)
            continue
        entry = eval_report_to_dict(report, baseline)
        entry["absent"] = False
        features_out[feature] = entry
        line = f"{feature}: ARM {report.arm:.3f} over {len(report.verdicts)} triples"
        if baseline is not None:
            line += f" (baseline {baseline.arm:.3f})"
        print(line)
    _write(args.out, {
        "rules": args.rules,
        "test": args.test,
        "tau": args.tau,
        "selection": "all" if args.top_k is None else f"top-{args.top_k}",
        "features": features_out,
    })
    if failures:
        return _report_failures(failures)
    return 0


def cmd_annotation_sheet(args: argparse.Namespace) -> int:
    doc = load_rules(args.rules)
    train = parse_conllu_file(args.train)
    features = [f for f in doc.features if f not in doc.absent]
    rows = build_annotation_rows(features, train, args.top_k, args.examples, args.seed)
    write_annotation_sheet(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_hrm(args: argparse.Namespace) -> int:
    doc = load_rules(args.rules)
    records = read_annotations(args.annotations)
    features_out: dict[str, dict] = {}
    for feature in sorted(doc.rulesets.keys() & {r.feature for r in records}):
        score, details = hrm(doc.rulesets[feature], records, strict=not args.lenient)
        features_out[feature] = {
            "hrm": score,
            "n_triples": len(details),
            "per_triple": [
                {
                    "relation": d.triple.relation,
                    "head_pos": d.triple.head_pos,
                    "dep_pos": d.triple.dep_pos,
                    "human_label": d.human_label.value,
                    "mapped_label": d.mapped_label.value,
                    "tree_label": d.tree_label.value,
                    "hs": d.hs,
                }
                for d in details
            ],
        }
        hits = sum(d.hs for d in details)
        print(f"{feature}: HRM {score:.3f} ({hits}/{len(details)})")
    if not features_out:
        return _fail("no annotated feature matches the rules document")
    if args.out:
        _write(args.out, {
            "rules": args.rules,
            "annotations": args.annotations,
            "mode": "lenient" if args.lenient else "strict",
            "features": features_out,
        })
    return 0


def _mean_leaf_count(doc) -> float | None:
    counts = [len(ruleset.verdicts) for ruleset in doc.rulesets.values()]
    return sum(counts) / len(counts) if counts else None


def cmd_complexity(args: argparse.Namespace) -> int:
    # imported here, so the other commands do not load it
    from .complexity import conciseness_correlation, word_entropy

    if args.rules and len(args.rules) != len(args.train):
        return _fail("--rules must list one rules.json per --train treebank")
    records: dict[str, dict] = {}
    for i, path in enumerate(args.train):
        treebank = parse_conllu_file(path)
        forms = (form for sentence in treebank.forms.values() for form in sentence)
        try:
            estimate = word_entropy(forms, args.lambda_override)
        except EmptyCountsError as exc:
            return _fail(f"{path}: {exc}")
        records[path] = {
            "vocab_size": estimate.vocab_size,
            "total_tokens": estimate.total_tokens,
            "lambda": estimate.lambda_,
            "entropy_bits": estimate.entropy_bits,
            "mean_leaf_count": _mean_leaf_count(load_rules(args.rules[i])) if args.rules else None,
        }
        print(
            f"{path}: H={estimate.entropy_bits:.4f} bits "
            f"(V={estimate.vocab_size}, n={estimate.total_tokens}, "
            f"lambda={estimate.lambda_:.4f})"
        )
    leaf_means = {path: r["mean_leaf_count"] for path, r in records.items()
                  if r["mean_leaf_count"] is not None}
    correlation = None
    if len(leaf_means) >= 2:
        entropies = {path: r["entropy_bits"] for path, r in records.items()}
        try:
            correlation = conciseness_correlation(entropies, leaf_means)
            print(f"entropy vs mean leaf count: r = {correlation:.4f}")
        except ZeroVarianceError:
            print("entropy vs mean leaf count: r undefined (constant values)")
    if args.out:
        _write(args.out, {"treebanks": records, "conciseness_pearson_r": correlation})
    if args.csv:
        lines = ["treebank,entropy_bits,mean_leaf_count"]
        for path in args.train:
            mean = records[path]["mean_leaf_count"]
            lines.append(
                f"{path},{records[path]['entropy_bits']!r},{'' if mean is None else repr(mean)}"
            )
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.csv}")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    if len(args.eval) != len(args.hrm):
        return _fail("--eval and --hrm must list the same number of files")
    if len(args.eval) < 2:
        return _fail("need at least two settings to correlate")
    eval_docs = [(p, read_score_entries(p)) for p in args.eval]
    hrm_docs = [(p, read_score_entries(p)) for p in args.hrm]
    features = set.intersection(
        *({f for f, e in entries.items() if not e.get("absent")} for _, entries in eval_docs),
        *(set(entries) for _, entries in hrm_docs),
    )
    if not features:
        return _fail("no feature is present in every eval and hrm file")
    per_feature: dict[str, dict] = {}
    rs = []
    for feature in sorted(features):
        xs = [read_score(p, entries, feature, "arm") for p, entries in eval_docs]
        ys = [read_score(p, entries, feature, "hrm") for p, entries in hrm_docs]
        try:
            r = pearson(xs, ys)
            rs.append(r)
            print(f"{feature}: r = {r:.4f}")
        except ZeroVarianceError:
            r = None
            print(f"{feature}: r undefined (constant scores)")
        per_feature[feature] = {"arm": xs, "hrm": ys, "r": r}
    mean_r = sum(rs) / len(rs) if rs else None
    if mean_r is not None:
        print(f"mean r over {len(rs)} features: {mean_r:.4f}")
    if args.out:
        _write(args.out, {
            "settings": [{"eval": e, "hrm": h} for e, h in zip(args.eval, args.hrm)],
            "per_feature": per_feature,
            "mean_r": mean_r,
        })
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    doc = load_rules(args.rules)
    train = parse_conllu_file(args.train)
    scores = None
    if args.eval:
        entries = read_score_entries(args.eval)
        scores = {
            feature: (read_score(args.eval, entries, feature, "arm"),
                      read_score(args.eval, entries, feature, "n_triples"),
                      read_score(args.eval, entries, feature, "baseline_arm", nullable=True))
            for feature, entry in entries.items() if not entry.get("absent")
        }
    written = write_report(
        doc, train, args.out, examples=args.examples, seed=args.seed, eval_scores=scores
    )
    print(f"wrote {len(written)} pages to {args.out}")
    return 0


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than minimum."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        return value
    return count


# the options whose values are range-checked numbers
_RANGED = ("--alpha", "--phi-min", "--hard-threshold", "--tau", "--lambda",
           "--top-k", "--examples")


def _join_ranged_values(argv: list[str]) -> list[str]:
    """argv with each ranged option and a following value that starts with a
    single '-' (-1e-9, -inf) joined as --option=value, which argparse would
    otherwise take for an option, so that the value reaches its range check."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _RANGED and arg[:1] == "-" and arg[:2] != "--":
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def _within(bounds: Bounds):
    """An argparse type: a finite number within bounds."""
    def number(text: str) -> float:
        value = float(text)
        if not bounds.holds(value):
            raise argparse.ArgumentTypeError(f"must be in {bounds}, not {text}")
        return value
    return number


class _Distinct(argparse.Action):
    """Store the option's values; a value given twice is a usage error."""
    def __call__(self, parser, namespace, values, option_string=None):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentError(self, f"{value!r} is given twice")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphagree",
        description="Extract and evaluate morphological agreement rules "
        "from CoNLL-U/SUD treebanks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="learn and label agreement rules")
    p.add_argument("--train", required=True, help="training treebank (.conllu)")
    p.add_argument("--dev", help="validation treebank for model selection")
    p.add_argument("--out", default="rules.json")
    p.add_argument("--features", nargs="+", action=_Distinct, default=list(DEFAULT_FEATURES))
    p.add_argument(
        "--threshold", choices=["statistical", "hard"], default="statistical"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--marginals", choices=["global", "per-leaf"], default="global")
    p.add_argument("--phi-sqrt", action="store_true",
                   help="use the square-root effect-size variant")
    p.add_argument("--alpha", type=_within(GATE_BOUNDS["alpha"]), default=0.01)
    p.add_argument("--phi-min", type=_within(GATE_BOUNDS["phi_min"]), default=0.5)
    p.add_argument("--hard-threshold", type=_within(GATE_BOUNDS["hard_threshold"]), default=0.9)
    p.add_argument("--depth-range", action="store_true",
                   help="search max depths 6..15 instead of {6, 15}")
    p.add_argument("--metric", choices=["accuracy", "macro-f1"], default="accuracy")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="score rules against held-out data (ARM)")
    p.add_argument("--rules", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", default="eval.json")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--top-k", type=_at_least(1), default=None,
                       help="evaluate the top K training triples")
    group.add_argument("--all", action="store_true",
                       help="evaluate every distinct test triple (default)")
    p.add_argument("--tau", type=_within(Bounds(0, 1)), default=0.95)
    p.add_argument("--baseline", action="store_true",
                   help="also score the all-chance baseline")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("annotation-sheet", help="export a TSV sheet for experts")
    p.add_argument("--rules", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--out", default="sheet.tsv")
    p.add_argument("--top-k", type=_at_least(1), default=20)
    p.add_argument("--examples", type=_at_least(0), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_annotation_sheet)

    p = sub.add_parser("hrm", help="score rules against expert annotations")
    p.add_argument("--rules", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--lenient", action="store_true",
                   help="map 'sometimes agree' to required instead of chance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hrm)

    p = sub.add_parser("complexity", help="word entropy and rule conciseness")
    p.add_argument("--train", nargs="+", action=_Distinct, required=True)
    p.add_argument("--rules", nargs="*", default=[],
                   help="rules.json per treebank, enables leaf-count correlation")
    p.add_argument("--lambda", dest="lambda_override", type=_within(Bounds(0, 1)), default=None)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("correlate", help="Pearson r between ARM and HRM settings")
    p.add_argument("--eval", nargs="+", required=True)
    p.add_argument("--hrm", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("report", help="write a static HTML rule report")
    p.add_argument("--rules", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--eval")
    p.add_argument("--out", required=True)
    p.add_argument("--examples", type=_at_least(0), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_ranged_values(argv))
    try:
        # commands build only acyclic data, which collections would rescan
        with _gc_paused():
            return args.func(args)
    except (MorphagreeError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
