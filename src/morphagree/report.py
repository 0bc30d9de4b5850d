"""Annotation-sheet export and self-contained static HTML rule reports.

Neither builds a FeatureDataset: each reads feature_edges of the training
treebank, the edges that carry the feature at both ends, in document
order. The sheet counts them per triple, ranks the triples by
rank_triples and collects the edges of the top-k only; the report maps
each distinct triple to its rule once and puts each edge in its rule's
agreeing or disagreeing pool. Examples are then sampled from those
document-order lists by position.

``html`` is imported only by the functions that render HTML, so the
commands that import this module without writing a report do not load it.
"""
from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from .conllu import Edge, Treebank, Triple
from .evaluation import ANNOTATION_COLUMNS
from .labeling import Label, LabeledRule, RuleSet, rules_for
from .serialization import RulesDocument
from .tree import SLOT_ORDER
from .triples import feature_edges, rank_triples


def render_example(
    forms: Sequence[str], head_id: int, dep_id: int,
    marks: tuple[str, str] = ("[[{}]]", "(({}))"),
) -> str:
    """A sentence's forms joined by spaces; the forms of tokens head_id and
    dep_id are set in their marks (plain text [[head]] and ((dependent))
    by default)."""
    words = list(forms)
    head_mark, dep_mark = marks
    words[head_id - 1] = head_mark.format(words[head_id - 1])
    words[dep_id - 1] = dep_mark.format(words[dep_id - 1])
    return " ".join(words)


def _sample(items: Sequence, k: int, seed_key: str) -> list:
    """k items drawn by a generator seeded with seed_key, kept in order."""
    if len(items) <= k:
        return list(items)
    rng = random.Random(seed_key)
    picked = sorted(rng.sample(range(len(items)), k))
    return [items[i] for i in picked]


_TRIPLE = attrgetter("triple")


def build_annotation_rows(
    features: list[str],
    train: Treebank,
    top_k: int,
    examples: int,
    seed: int,
) -> list[tuple[str, ...]]:
    """Sheet rows: one per (feature, top triple), label column left blank.
    A feature's top triples are its top_k by rank_triples; each row's
    examples are sampled from its triple's instances in document order."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    rows: list[tuple[str, ...]] = []
    for feature in features:
        instances = feature_edges(train, feature)
        pools: dict[Triple, list[Edge]] = {
            triple: [] for triple in rank_triples(Counter(map(_TRIPLE, instances)))[:top_k]
        }
        for inst in instances:
            pool = pools.get(inst.triple)
            if pool is not None:
                pool.append(inst)
        for triple, pool in pools.items():
            key = f"{seed}:{feature}:{triple.relation}:{triple.head_pos}:{triple.dep_pos}"
            rendered = []
            for inst in _sample(pool, examples, key):
                sent_id, head_id, dep_id = inst.provenance
                rendered.append(
                    f"{sent_id}:h{head_id}:d{dep_id} "
                    + render_example(train.forms[sent_id], head_id, dep_id)
                )
            rows.append((feature, triple.relation, triple.head_pos, triple.dep_pos, "",
                         " ||| ".join(rendered)))
    return rows


def write_annotation_sheet(rows: list[tuple[str, ...]], path: str | Path) -> None:
    """One line per row, its cells joined by tabs with no quoting, under a
    header of ANNOTATION_COLUMNS and "examples", as read_annotations reads it."""
    lines = ["\t".join(ANNOTATION_COLUMNS + ("examples",))]
    lines.extend("\t".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- HTML report ---

_PAGE_CSS = """
body { font-family: Georgia, serif; margin: 2em auto; max-width: 60em;
       color: #222; line-height: 1.45; }
h1, h2 { font-family: Helvetica, Arial, sans-serif; }
a { color: #2a6496; }
table { border-collapse: collapse; margin: 0.8em 0; }
td, th { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: left; }
.badge { display: inline-block; padding: 0.1em 0.6em; border-radius: 0.8em;
         font-family: Helvetica, Arial, sans-serif; font-size: 0.9em; }
.required { background: #1f4e99; color: #fff; }
.chance { background: #e8b61a; color: #222; }
.rule { border: 1px solid #ccc; border-radius: 6px; padding: 0.8em 1em;
        margin: 1em 0; }
.example { margin: 0.15em 0; }
.example .head { background: #cfe0f7; padding: 0 0.15em; }
.example .dep { background: #f7e3ae; padding: 0 0.15em; }
.muted { color: #777; font-size: 0.9em; }
"""


def _page(title: str, body: str) -> str:
    import html

    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{html.escape(title)}</title>\n<style>{_PAGE_CSS}</style>\n"
        f"</head>\n<body>\n{body}\n</body>\n</html>\n"
    )


def _badge(label: Label) -> str:
    name = label.value
    return f'<span class="badge {name}">{name}-agreement</span>'


_SLOT_TITLES = {"relation": "relation", "head_pos": "head POS", "dep_pos": "dependent POS"}


def _constraint_text(rule: LabeledRule) -> str:
    import html

    parts = []
    for slot in SLOT_ORDER:
        constraint = rule.constraints[slot]
        if constraint.trivial:
            parts.append(f"{_SLOT_TITLES[slot]} = <em>any</em>")
        else:
            sign = "&isin;" if constraint.mode == "in" else "&notin;"
            values = ", ".join(html.escape(v) for v in sorted(constraint.values))
            parts.append(f"{_SLOT_TITLES[slot]} {sign} {{{values}}}")
    return "<br>".join(parts)


_HTML_MARKS = ('<span class="head">{}</span>', '<span class="dep">{}</span>')


def _stats_cell(value: float | None, fmt: str = "{:.4g}") -> str:
    if value is None:
        return "&mdash;"
    return fmt.format(value)


def example_pools(
    feature: str, ruleset: RuleSet, train: Treebank
) -> dict[int, tuple[list[Edge], list[Edge]]]:
    """Per rule id, the (agreeing, disagreeing) instances of the feature
    whose triple the rule matches, each list in document order: one pass
    over the instances, after one rules_for over their distinct triples."""
    instances = feature_edges(train, feature)
    by_rule: dict[int, tuple[list[Edge], list[Edge]]] = {
        rule.rule_id: ([], []) for rule in ruleset.rules
    }
    pools_of = {
        triple: by_rule[rule.rule_id]
        for triple, rule in rules_for(ruleset, dict.fromkeys(map(_TRIPLE, instances))).items()
    }
    for inst in instances:
        pools_of[inst.triple][inst.head_feats[feature] != inst.dep_feats[feature]].append(inst)
    return by_rule


def _escaped_forms(forms: Sequence[str]) -> list[str]:
    """Each form HTML-escaped, in one html.escape call over the forms joined
    by tabs. No form parsed from CoNLL-U holds a tab, since tabs separate
    its columns; a Treebank built by hand might, so then each form is
    escaped alone."""
    import html

    escaped = html.escape("\t".join(forms)).split("\t")
    return escaped if len(escaped) == len(forms) else list(map(html.escape, forms))


def render_feature_page(
    feature: str,
    ruleset: RuleSet,
    doc: RulesDocument,
    train: Treebank,
    examples: int,
    seed: int,
    eval_entry: tuple[float, float, float | None] | None,
    escaped_forms: dict[str, list[str]],
) -> str:
    """The feature's page. escaped_forms caches each sentence's forms,
    HTML-escaped, by sent_id; the pages of one report share it, so that
    each sampled sentence is escaped once."""
    import html

    by_rule = example_pools(feature, ruleset, train)
    escape_value = lru_cache(maxsize=None)(html.escape)  # a feature has few values
    verdict_by_leaf = {v.leaf_id: v for v in ruleset.verdicts}
    chance = doc.chance_models[feature]
    body = [f"<h1>{html.escape(feature)} agreement rules</h1>"]
    body.append(
        f'<p class="muted">treebank: {html.escape(doc.treebank)} &middot; '
        f"threshold: {ruleset.threshold_mode.value} &middot; "
        f"training instances: {ruleset.training_size} &middot; "
        f"chance agreement probability: {chance.p_chance:.4f}</p>"
    )
    if eval_entry is not None:
        arm, n_triples, baseline = eval_entry
        extra = f" (baseline {baseline:.3f})" if baseline is not None else ""
        body.append(
            f"<p>ARM on held-out data: <strong>{arm:.3f}</strong>"
            f"{extra} over {n_triples} triples.</p>"
        )
    for rule in ruleset.rules:
        agree_pool, disagree_pool = by_rule[rule.rule_id]
        total = rule.n_agree + rule.n_disagree
        ratio = rule.n_agree / total if total else 0.0
        body.append('<div class="rule">')
        body.append(
            f"<h2>Rule {rule.rule_id} {_badge(rule.label)}</h2>"
            f"<p>{_constraint_text(rule)}</p>"
            f"<p>agree: {rule.n_agree}, disagree: {rule.n_disagree} "
            f"(ratio {ratio:.4f})</p>"
        )
        rows = []
        for leaf_id in rule.source_leaf_ids:
            verdict = verdict_by_leaf[leaf_id]
            rows.append(
                f"<tr><td>{leaf_id}</td><td>{verdict.label.value}</td>"
                f"<td>{_stats_cell(verdict.agree_ratio)}</td>"
                f"<td>{_stats_cell(verdict.chi2)}</td>"
                f"<td>{_stats_cell(verdict.p_value, '{:.3g}')}</td>"
                f"<td>{_stats_cell(verdict.phi_c)}</td></tr>"
            )
        if rows:
            body.append(
                "<table><tr><th>leaf</th><th>label</th><th>agree ratio</th>"
                "<th>&chi;&sup2;</th><th>p-value</th><th>&phi;<sub>c</sub></th></tr>"
                + "".join(rows)
                + "</table>"
            )
        for title, pool, kind in (
            ("Examples (agreeing)", agree_pool, "examples"),
            ("Counter-examples (disagreeing)", disagree_pool, "counterexamples"),
        ):
            body.append(f"<h3>{title}</h3>")
            if not pool:
                body.append('<p class="muted">none in the training data</p>')
                continue
            key = f"{seed}:{feature}:{rule.rule_id}:{kind}"
            for inst in _sample(pool, examples, key):
                sent_id, head_id, dep_id = inst.provenance
                forms = escaped_forms.get(sent_id)
                if forms is None:
                    forms = escaped_forms[sent_id] = _escaped_forms(train.forms[sent_id])
                sentence = render_example(forms, head_id, dep_id, _HTML_MARKS)
                values = " / ".join(
                    escape_value(feats[feature]) for feats in (inst.head_feats, inst.dep_feats)
                )
                body.append(
                    f'<div class="example">{sentence} <span class="muted">'
                    f"[{html.escape(sent_id)}; {feature}: {values}]</span></div>"
                )
        body.append("</div>")
    body.append('<p><a href="index.html">&larr; all features</a></p>')
    return _page(f"{feature} agreement rules", "\n".join(body))


def render_index_page(doc: RulesDocument, eval_scores: dict[str, tuple]) -> str:
    import html

    body = ["<h1>Agreement rule report</h1>"]
    body.append(
        f'<p class="muted">treebank: {html.escape(doc.treebank)} &middot; '
        f"threshold: {doc.threshold_mode.value}</p>"
    )
    rows = []
    for feature in doc.features:
        if feature in doc.absent:
            rows.append(
                f"<tr><td>{html.escape(feature)}</td>"
                '<td colspan="3" class="muted">absent from the treebank</td></tr>'
            )
            continue
        ruleset = doc.rulesets[feature]
        required = sum(r.label is Label.REQUIRED for r in ruleset.rules)
        arm_cell = f"{eval_scores[feature][0]:.3f}" if feature in eval_scores else "&mdash;"
        rows.append(
            f'<tr><td><a href="feature-{html.escape(feature)}.html">'
            f"{html.escape(feature)}</a></td>"
            f"<td>{len(ruleset.rules)}</td><td>{required}</td><td>{arm_cell}</td></tr>"
        )
    body.append(
        "<table><tr><th>feature</th><th>rules</th><th>required</th><th>ARM</th></tr>"
        + "".join(rows)
        + "</table>"
    )
    return _page("Agreement rule report", "\n".join(body))


def write_report(
    doc: RulesDocument,
    train: Treebank,
    out_dir: str | Path,
    examples: int = 10,
    seed: int = 0,
    eval_scores: dict[str, tuple[float, float, float | None]] | None = None,
) -> list[Path]:
    """The index and one page per present feature; eval_scores holds the
    (ARM, triple count, baseline ARM or None) of each feature evaluated."""
    eval_scores = eval_scores or {}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    index_path = out / "index.html"
    index_path.write_text(render_index_page(doc, eval_scores), encoding="utf-8")
    written.append(index_path)
    escaped_forms: dict[str, list[str]] = {}
    for feature in doc.features:
        if feature in doc.absent:
            continue
        page = render_feature_page(
            feature,
            doc.rulesets[feature],
            doc,
            train,
            examples,
            seed,
            eval_scores.get(feature),
            escaped_forms,
        )
        path = out / f"feature-{feature}.html"
        path.write_text(page, encoding="utf-8")
        written.append(path)
    return written
