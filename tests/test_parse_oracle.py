"""The parser and the edge-table extraction against the reference copies in
oracles.py, which parse into a Token per line and a Sentence per sentence,
then walk those tokens once for the edge table and once per feature; and
the report's example pools and the annotation sheet's rows, read from the
edge table, against their copies read from each feature's dataset."""
import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from morphagree import (HyperParams, chance_agreement_prob, extract_instances, feats_to_string,
                        fit, label_leaf_statistical, merge_rules, parse_conllu,
                        parse_conllu_file)
from morphagree import conllu
from morphagree.errors import EncodingError, MorphagreeError
from morphagree.report import build_annotation_rows, example_pools
from morphagree.tree import leaves

from conftest import six_feature_conllu
from oracles import (annotation_rows_from_datasets, edge_table_reference,
                     example_pools_from_dataset, extract_instances_reference,
                     parse_conllu_reference)

FEATURE_VALUES = {
    "Gender": ["Fem", "Masc", "Fem,Masc"],
    "Number": ["Sing", "Plur"],
    "Case": ["Nom", "Acc", "Nom,Acc"],
}
# Mood is on no token, so its dataset is empty
FEATURES = ("Gender", "Number", "Case", "Mood")
BAD_FEATS = ["Gender", "=Fem", "Gender=", "Gender=Fem|Gender=Masc", "Number=Sing|"]
BAD_HEADS = ["1_0", " +1", "+1", "1 ", "-1", "x", ""]
# forms of 1- to 4-byte UTF-8 characters, which small blocks cut through
FORMS = ["w", "ñu", "日本", "𝔘x"]
# the parse's block size, patched this small so that LFs, CRLF pairs and
# multibyte characters straddle blocks
BLOCK_SIZES = [1, 3, 64]
# not UTF-8: a bad start byte, and a 2-, 3- and 4-byte sequence cut short
BAD_BYTES = [b"\xff", b"\xc3", b"\xe6\x97", b"\xf0\x9d\x94"]

# a FEATS column: "_", or some of FEATURE_VALUES' names in any order
_present_feats = st.sets(st.sampled_from(sorted(FEATURE_VALUES)), min_size=1).flatmap(
    lambda names: st.permutations(sorted(names)).flatmap(
        lambda order: st.tuples(*(st.sampled_from(FEATURE_VALUES[n]) for n in order)).map(
            lambda values: "|".join(f"{n}={v}" for n, v in zip(order, values))
        )
    )
)
_feats = st.one_of(st.just("_"), _present_feats, _present_feats)


@st.composite
def _sentence(draw, index: int) -> list[str]:
    n = draw(st.integers(1, 6))
    lines = []
    if draw(st.booleans()):
        # "2" may collide with another sentence's id or ordinal
        lines.append(f"# sent_id = {draw(st.sampled_from([f's{index}'] * 4 + ['2']))}")
    if draw(st.booleans()):
        lines.append("# text = some words")
    for i in range(1, n + 1):
        if i < n and draw(st.booleans()):
            lines.append(f"{i}-{i + 1}\tdel\t_\t_\t_\t_\t_\t_\t_\t_")
        head = draw(st.sampled_from([0] + [j for j in range(1, n + 1) if j != i]))
        upos = draw(st.sampled_from(["NOUN", "DET", "VERB", "ADJ", "_"]))
        deprel = draw(st.sampled_from(["det", "amod", "nsubj", "root"]))
        form = draw(st.sampled_from(FORMS))
        lines.append(f"{i}\t{form}{i}\tl{i}\t{upos}\t_\t{draw(_feats)}\t{head}\t{deprel}\t_\t_")
        if draw(st.booleans()):
            lines.append(f"{i}.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_")
    return lines


@st.composite
def _document(draw) -> list[str]:
    count = draw(st.integers(0, 6))
    lines: list[str] = []
    for index in range(count):
        lines += draw(_sentence(index))
        lines.append("")
    return lines


def _corrupt(draw, lines: list[str]) -> list[str]:
    """Break one token line (or, for a bad FEATS, every token line from a
    random one on with probability 1/2, so the bad string repeats)."""
    token_rows = [i for i, line in enumerate(lines) if line.split("\t")[0].isdecimal()]
    if not token_rows:
        return lines
    row = draw(st.sampled_from(token_rows))
    cols = lines[row].split("\t")
    kind = draw(st.sampled_from(["feats", "head", "id", "columns", "missing_head"]))
    lines = list(lines)
    if kind == "feats":
        bad = draw(st.sampled_from(BAD_FEATS))
        for i in [r for r in token_rows if r >= row and (r == row or draw(st.booleans()))]:
            row_cols = lines[i].split("\t")
            row_cols[5] = bad
            lines[i] = "\t".join(row_cols)
        return lines
    if kind == "head":
        cols[6] = draw(st.sampled_from(BAD_HEADS))
    elif kind == "id":
        cols[0] = draw(st.sampled_from(["0", "x", "1-", "2.", "²"]))
    elif kind == "columns":
        cols = cols[:-1]
    else:
        cols[6] = "99"
    lines[row] = "\t".join(cols)
    return lines


def _outcome(parse, text: str):
    return _outcome_of(parse, io.BytesIO(text.encode("utf-8")))


def _outcome_of(parse, stream):
    try:
        return parse(stream), None
    except MorphagreeError as exc:
        return None, (type(exc), str(exc))


def _line_by_line_error(data: bytes) -> str | None:
    """The EncodingError message of a read that decodes each line of data
    alone, with its LF, or None if every line decodes."""
    for line_no, raw in enumerate(io.BytesIO(data), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"line {line_no}: {exc}"
    return None


def _check_equivalent(lines: list[str], crlf: bool) -> None:
    _check_text_equivalent(("\r\n" if crlf else "\n").join(lines))


def _check_text_equivalent(text: str) -> None:
    treebank, error = _outcome(parse_conllu, text)
    reference, reference_error = _outcome(parse_conllu_reference, text)
    assert error == reference_error
    if error is not None:
        return
    entries, feats_counts = edge_table_reference(reference)
    assert treebank.edges.entries == entries
    merged: dict[str, int] = {}  # equal FEATS written in two orders are two dicts
    for feats, count in treebank.edges.feats_counts:
        key = feats_to_string(feats)
        merged[key] = merged.get(key, 0) + count
    assert list(merged.items()) == feats_counts
    assert list(treebank.forms.items()) == [
        (s.sent_id, tuple(t.form for t in s.tokens)) for s in reference
    ]
    assert treebank.token_count == sum(len(s.tokens) for s in reference)
    for feature in FEATURES:
        got = extract_instances(treebank, feature)
        want = extract_instances_reference(reference, feature)
        assert got.instances == want.instances
        assert list(got.value_marginals.items()) == list(want.value_marginals.items())
        assert list(got.triples) == list(want.triples)
        assert [(g.n_disagree, g.n_agree, g.agreeing, g.disagreeing)
                for g in got.triples.values()] == [
            (g.n_disagree, g.n_agree, g.agreeing, g.disagreeing) for g in want.triples.values()
        ]
        assert got.ranking == want.ranking


@settings(max_examples=150, deadline=None)
@given(_document(), st.booleans())
def test_parse_and_extract_match_reference(lines, crlf):
    _check_equivalent(lines, crlf)


@settings(max_examples=100, deadline=None)
@given(_document(), st.integers(1, 4), st.integers(0, 3), st.integers(0, 2))
def test_report_pools_and_sheet_rows_match_dataset_reference(lines, top_k, examples, seed):
    treebank, error = _outcome(parse_conllu, "\n".join(lines))
    assume(error is None)
    for feature in FEATURES:
        dataset = extract_instances(treebank, feature)
        if not dataset.instances:
            continue
        # no impurity floor, so impure nodes split and rules get several triples
        tree = fit(dataset, HyperParams(max_depth=6, min_impurity_decrease=0.0))
        chance = chance_agreement_prob(dataset.value_marginals, feature)
        ruleset = merge_rules(tree, [label_leaf_statistical(leaf, chance) for leaf in leaves(tree)])
        assert example_pools(feature, ruleset, treebank) == example_pools_from_dataset(
            feature, ruleset, treebank)
    assert build_annotation_rows(list(FEATURES), treebank, top_k, examples, seed) == (
        annotation_rows_from_datasets(FEATURES, treebank, top_k, examples, seed))


@settings(max_examples=100, deadline=None)
@given(_document(), st.booleans())
def test_file_parse_matches_reference_on_the_same_text(lines, crlf):
    text = ("\r\n" if crlf else "\n").join(lines)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "doc.conllu"
        path.write_bytes(text.encode("utf-8"))
        try:
            outcome = parse_conllu_file(path), None
        except MorphagreeError as exc:
            outcome = None, (type(exc), str(exc))
    assert outcome == _outcome(parse_conllu, text)
    assert outcome[1] == _outcome(parse_conllu_reference, text)[1]


def _insert_bad_bytes(draw, lines: list[str]) -> list[bytes]:
    """The lines, encoded, with one of BAD_BYTES inserted somewhere in one,
    its end included, so that a cut-short sequence may stand just before an
    LF or at the end of the stream."""
    encoded = [line.encode("utf-8") for line in lines] or [b""]
    row = draw(st.integers(0, len(encoded) - 1))
    cut = draw(st.integers(0, len(encoded[row])))
    encoded[row] = encoded[row][:cut] + draw(st.sampled_from(BAD_BYTES)) + encoded[row][cut:]
    return encoded


@settings(max_examples=100, deadline=None)
@given(st.data(), _document(), st.booleans())
def test_invalid_utf8_names_the_path_and_line(data, lines, crlf):
    encoded = (b"\r\n" if crlf else b"\n").join(_insert_bad_bytes(data.draw, lines))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "doc.conllu"
        path.write_bytes(encoded)
        with pytest.raises(EncodingError) as info:
            parse_conllu_file(path)
    assert str(info.value) == f"{path}: {_line_by_line_error(encoded)}"


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@settings(max_examples=100, deadline=None)
@given(st.data(), _document(), st.booleans())
def test_small_blocks_parse_like_the_reference(block_size, data, lines, corrupt):
    if corrupt:
        lines = _corrupt(data.draw, lines)
    # LF and CRLF mixed, so that a block may hold either or both
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                              max_size=len(lines)))
    with mock.patch.object(conllu, "_BLOCK_SIZE", block_size):
        _check_text_equivalent("".join(line + end for line, end in zip(lines, ends)))


# and the full size, at which these documents are one block
@pytest.mark.parametrize("block_size", BLOCK_SIZES + [conllu._BLOCK_SIZE])
@settings(max_examples=100, deadline=None)
@given(st.data(), _document(), st.booleans(), st.booleans())
def test_invalid_utf8_raises_after_the_lines_before_it(block_size, data, lines, crlf, corrupt):
    # the lines before the bad one are parsed first, so an earlier fault
    # raises instead
    if corrupt:
        lines = _corrupt(data.draw, lines)
    encoded = (b"\r\n" if crlf else b"\n").join(_insert_bad_bytes(data.draw, lines))
    with mock.patch.object(conllu, "_BLOCK_SIZE", block_size):
        _, error = _outcome_of(parse_conllu, io.BytesIO(encoded))
    _, want = _outcome_of(parse_conllu_reference, io.BytesIO(encoded))
    if want[0] is EncodingError:
        want = (EncodingError, _line_by_line_error(encoded))
    assert error == want


_NU = "1\tñu\tñu\tNOUN\t_\t_\t0\troot\t_\t_\n\n".encode("utf-8")


@pytest.mark.parametrize("tail, reason", [
    (b"1\tx\xc3\n", "invalid continuation byte"),
    (b"1\tx\xc3", "unexpected end of data"),
], ids=["before-lf", "at-eof"])
def test_invalid_utf8_in_a_later_block_names_its_line(tail, reason):
    # the sentences before it fill more than one block
    repeats = conllu._BLOCK_SIZE // len(_NU) + 1
    with pytest.raises(EncodingError) as info:
        parse_conllu(io.BytesIO(_NU * repeats + tail))
    assert str(info.value) == (
        f"line {2 * repeats + 1}: 'utf-8' codec can't decode byte 0xc3 in position 3: {reason}")


def test_parse_holds_little_beyond_what_it_keeps(tmp_path):
    # a read of the whole file would hold its 1.9 MB, and its text, at the peak
    path = tmp_path / "train.conllu"
    path.write_text(six_feature_conllu(800), encoding="utf-8")
    tracemalloc.start()
    try:
        treebank = parse_conllu_file(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert treebank.token_count == 800 * 29
    assert path.stat().st_size > 2**20 * 1.5
    assert peak - retained < 2**20


@settings(max_examples=150, deadline=None)
@given(st.data(), _document(), st.booleans())
def test_malformed_input_raises_like_reference(data, lines, crlf):
    _check_equivalent(_corrupt(data.draw, lines), crlf)


def test_repeated_bad_feats_reports_its_first_line():
    good = "1\ta\ta\tNOUN\t_\tGender=Fem\t0\troot\t_\t_"
    bad = "1\ta\ta\tNOUN\t_\tGender=Fem|Gender=Masc\t0\troot\t_\t_"
    lines = [good, "", good, "", bad, "", bad, ""]
    _check_equivalent(lines, crlf=False)
    _, error = _outcome(parse_conllu, "\n".join(lines))
    assert error[1].startswith("line 5: duplicate feature name")
