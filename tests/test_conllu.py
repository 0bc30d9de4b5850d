import gc
import io
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from morphagree import (
    FeatureSpec,
    PlantedGrammar,
    extract_instances,
    feats_to_string,
    generate,
    parse_conllu,
    parse_conllu_file,
    parse_feats,
    treebank_to_conllu,
)
from morphagree.conllu import _BLOCK_SIZE, Edge, Edges, Sentence, Token, Treebank, Triple
from morphagree.errors import (
    DuplicateSentIdError,
    EncodingError,
    InvalidHeadError,
    InvalidIdError,
    InvalidSentIdError,
    MalformedFeatsError,
    MalformedLineError,
)

from conftest import make_treebank


def test_empty_stream_yields_empty_treebank():
    tb = parse_conllu(io.BytesIO(b""))
    assert tb.edges == Edges((), ())
    assert tb.forms == {}
    assert tb.token_count == 0


def test_two_token_sentence_det_attaches_to_noun():
    tb = make_treebank(
        "1\tLos\tlos\tDET\t_\tNumber=Plur\t2\tdet\t_\t_\n"
        "2\tenigmas\tenigma\tNOUN\t_\tNumber=Plur\t0\troot\t_\t_\n"
    )
    assert tb.forms == {"1": ("Los", "enigmas")}
    plural = {"Number": "Plur"}
    assert tb.edges.entries == (Edge(Triple("NOUN", "det", "DET"), ("1", 2, 1), plural, plural),)


def test_unresolvable_head_rejected():
    with pytest.raises(InvalidHeadError):
        make_treebank(
            "1\ta\ta\tDET\t_\t_\t9\tdet\t_\t_\n"
            "2\tb\tb\tNOUN\t_\t_\t0\troot\t_\t_\n"
        )


@pytest.mark.parametrize("bad_head", ["1_0", " +1", "+1", "1 "])
def test_head_accepted_only_as_plain_digits(bad_head):
    # int() would read these as 10, 1, 1 and 1
    with pytest.raises(InvalidHeadError, match=r"^line 2: bad head"):
        make_treebank(
            "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"
            f"2\tb\tb\tDET\t_\t_\t{bad_head}\tdet\t_\t_\n"
        )


def test_head_equal_to_id_rejected():
    with pytest.raises(InvalidHeadError):
        make_treebank("1\ta\ta\tDET\t_\t_\t1\tdet\t_\t_\n")


def test_wrong_column_count_rejected():
    with pytest.raises(MalformedLineError):
        make_treebank("1\ta\ta\tDET\t_\t_\t0\troot\t_\n")


def test_non_numeric_id_rejected():
    with pytest.raises(InvalidIdError):
        make_treebank("x\ta\ta\tDET\t_\t_\t0\troot\t_\t_\n")


def test_non_consecutive_ids_rejected():
    with pytest.raises(InvalidIdError):
        make_treebank(
            "1\ta\ta\tDET\t_\t_\t0\troot\t_\t_\n"
            "3\tb\tb\tNOUN\t_\t_\t1\tdet\t_\t_\n"
        )


_ONE_TOKEN = "1\tla\tel\tDET\t_\tGender=Fem\t0\troot\t_\t_\n"


def test_duplicate_sent_id_rejected():
    with pytest.raises(DuplicateSentIdError, match="'a'"):
        make_treebank(
            f"# sent_id = a\n{_ONE_TOKEN}\n# sent_id = b\n{_ONE_TOKEN}\n"
            f"# sent_id = a\n{_ONE_TOKEN}"
        )


def test_ordinal_fallback_colliding_with_explicit_id_rejected():
    # the second sentence has no sent_id, so its id is its ordinal "2"
    with pytest.raises(DuplicateSentIdError, match="'2'"):
        make_treebank(f"# sent_id = 2\n{_ONE_TOKEN}\n{_ONE_TOKEN}")


def test_distinct_explicit_and_ordinal_ids_accepted():
    tb = make_treebank(f"# sent_id = x\n{_ONE_TOKEN}\n{_ONE_TOKEN}")
    assert list(tb.forms) == ["x", "2"]


def test_range_and_empty_node_lines_skipped():
    tb = make_treebank(
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t2\tcase\t_\t_\n"
        "2\tel\tel\tDET\t_\t_\t0\troot\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    assert tb.token_count == 2
    assert tb.forms == {"1": ("de", "el")}


def test_sent_id_comment_and_ordinal_fallback():
    tb = make_treebank(
        "# sent_id = my-id-7\n"
        "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "\n"
        "1\tb\tb\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    assert tb.forms == {"my-id-7": ("a",), "2": ("b",)}


def test_text_comment_and_verbatim_extras():
    # a text comment and LEMMA/XPOS/DEPS/MISC values parse and are dropped
    tb = make_treebank(
        "# text = hello there\n"
        "1\ta\tlemma\tNOUN\tNN\tGender=Fem\t0\troot\t0:root\tSpaceAfter=No\n"
        "2\tb\tlemmb\tDET\tDT\tGender=Masc\t1\tdet\t1:det\t_\n"
    )
    assert tb.forms == {"1": ("a", "b")}
    fem, masc = {"Gender": "Fem"}, {"Gender": "Masc"}
    assert tb.edges == Edges((Edge(Triple("NOUN", "det", "DET"), ("1", 1, 2), fem, masc),),
                             ((fem, 1), (masc, 1)))
    # the records that synthetic and the tests build, in the parser's row order
    assert Sentence._fields == ("sent_id", "tokens")
    assert Token._fields == ("id", "form", "upos", "feats", "head", "deprel")
    assert not hasattr(Token(1, "a", "NOUN", fem, 0, "root"), "__dict__")


@pytest.mark.parametrize("bad_id", ["x-y", "-5", "1.", "a.b", "1-", "1-2-3", "\u00b2"])
def test_malformed_range_or_empty_node_id_rejected(bad_id):
    with pytest.raises(InvalidIdError, match=r"^line 2: bad token id"):
        make_treebank(
            "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"
            f"{bad_id}\tb\tb\tDET\t_\t_\t1\tdet\t_\t_\n"
        )


def test_crlf_line_endings():
    tb = parse_conllu(io.BytesIO(b"1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\r\n\r\n"))
    assert tb.token_count == 1


def test_byte_stream_and_encoding_error():
    tb = parse_conllu(io.BytesIO("1\tá\tá\tNOUN\t_\t_\t0\troot\t_\t_\n".encode()))
    assert tb.forms == {"1": ("á",)}
    with pytest.raises(EncodingError):
        parse_conllu(io.BytesIO(b"1\t\xff\xfe\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"))


def test_a_byte_order_mark_at_the_start_is_read_past(tmp_path):
    golden = Path(__file__).parent / "data" / "golden" / "train.conllu"
    marked = tmp_path / "train.conllu"
    marked.write_bytes(b"\xef\xbb\xbf" + golden.read_bytes())
    assert parse_conllu_file(marked) == parse_conllu_file(golden)


@pytest.mark.parametrize("stream, line_no", [
    (io.BytesIO(b"\xef\xbb\xbf\xef\xbb\xbf1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"), 1),
    (io.BytesIO(b"\n\xef\xbb\xbf1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"), 2),
    # the mark starts the second block the stream is read in
    (io.BytesIO(b"\n" * _BLOCK_SIZE + b"\xef\xbb\xbf1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"),
     _BLOCK_SIZE + 1),
], ids=["second-mark", "second-line", "second-block"])
def test_a_byte_order_mark_anywhere_else_is_a_bad_id(stream, line_no):
    with pytest.raises(InvalidIdError) as info:
        parse_conllu(stream)
    assert str(info.value) == f"line {line_no}: bad token id '\\ufeff1'"


def test_parse_feats_basics():
    assert parse_feats("_") == {}
    assert parse_feats("Gender=Fem|Number=Sing") == {"Gender": "Fem", "Number": "Sing"}
    assert parse_feats("Case=Nom,Acc") == {"Case": "Nom,Acc"}


def test_parse_feats_rejects_duplicates_and_bad_pairs():
    with pytest.raises(MalformedFeatsError):
        parse_feats("Gender=Fem|Gender=Masc")
    with pytest.raises(MalformedFeatsError):
        parse_feats("Gender")
    with pytest.raises(MalformedFeatsError):
        parse_feats("=Fem")


def test_fixture_file_total_matches_line_count(gender_tally_path):
    tb = parse_conllu_file(gender_tally_path)
    countable = 0
    with open(gender_tally_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip("\n")
            if not line or line.startswith("#"):
                continue
            first = line.split("\t", 1)[0]
            if "-" in first or "." in first:
                continue
            countable += 1
    assert tb.token_count == countable == 12


def test_parse_is_deterministic_and_order_preserving(spanish_fig):
    a = make_treebank(spanish_fig)
    b = make_treebank(spanish_fig)
    assert a == b
    assert list(a.forms) == ["A.1", "B.1"]


_CASA = Token(1, "casa", "NOUN", {"Gender": "Fem"}, 0, "root")


@pytest.mark.parametrize("token, error", [
    (Token(2, "la", "DET", {"Gender": "Fem"}, 2, "det"), InvalidHeadError),  # its own head
    (Token(2, "la", "DET", {"Gender": ""}, 1, "det"), MalformedFeatsError),
    (Token(2, "l\ta", "DET", {"Gender": "Fem"}, 1, "det"), MalformedLineError),
], ids=["own-head", "empty-feats-value", "tab-in-form"])
def test_in_memory_sentences_fail_where_their_file_fails(tmp_path, token, error):
    sentences = [Sentence("a", (_CASA, token))]
    path = tmp_path / "a.conllu"
    path.write_text(treebank_to_conllu(sentences), encoding="utf-8")
    with pytest.raises(error) as from_file:
        parse_conllu_file(path)
    # line 3 of the written text: the sent_id comment, casa, then la
    with pytest.raises(error, match=r"^line 3: ") as in_memory:
        Treebank.from_sentences(sentences)
    assert str(in_memory.value) == str(from_file.value)


@pytest.mark.parametrize("sent_id", [" a ", "", "a\nb"], ids=["padded", "empty", "line-break"])
def test_sent_id_the_parse_would_not_read_back_is_refused(sent_id):
    # the parse would rename ' a ' to 'a' and '' to the ordinal, and read a
    # line 'b' the caller never wrote
    sentences = [Sentence("ok", (_CASA,)), Sentence(sent_id, (_CASA,))]
    message = rf"^sentence 2: sent_id {re.escape(repr(sent_id))} "
    with pytest.raises(InvalidSentIdError, match=message):
        treebank_to_conllu(sentences)
    with pytest.raises(InvalidSentIdError, match=message):
        Treebank.from_sentences(sentences)


@pytest.mark.parametrize("sent_id", ["a b", "a=b", "a\tb", "a\rb", "é"])
def test_sent_id_the_parse_reads_back_is_kept(sent_id):
    assert list(Treebank.from_sentences([Sentence(sent_id, (_CASA,))]).forms) == [sent_id]


def test_writer_formats_each_feats_dict_as_it_is_even_after_others_are_freed():
    # fresh dicts per sentence, each sentence dropped once written: a freed
    # dict's id() can come back for a later dict with other values
    def sentence(i):
        return Sentence(f"s{i}", (
            Token(1, "a", "NOUN", {"Case": f"C{i}", "Gender": "Fem"}, 0, "root"),
            Token(2, "b", "DET", {"Number": f"N{i % 7}"}, 1, "det"),
            Token(3, "c", "ADJ", {}, 1, "amod"),
        ))

    expected = "\n".join(
        f"# sent_id = s{i}\n" + "".join(
            f"{t.id}\t{t.form}\t{t.form}\t{t.upos}\t_\t{feats_to_string(t.feats)}\t"
            f"{t.head}\t{t.deprel}\t_\t_\n" for t in sentence(i).tokens)
        for i in range(500))
    assert treebank_to_conllu(sentence(i) for i in range(500)) == expected


def test_sentence_without_tokens_dropped_as_a_comment_only_block_is():
    line = treebank_to_conllu([Sentence("x", (_CASA,))]).splitlines()[1]
    tb = Treebank.from_sentences(
        [Sentence("a", (_CASA,)), Sentence("empty", ()), Sentence("b", (_CASA,))])
    assert tb == make_treebank(f"# sent_id = a\n{line}\n\n# sent_id = empty\n\n"
                               f"# sent_id = b\n{line}\n")
    assert list(tb.forms) == ["a", "b"]
    assert Treebank.from_sentences([Sentence("empty", ())]) == make_treebank("")


_feat_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll")), min_size=1, max_size=8
)
_feat_values = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1,
    max_size=8,
)


@given(st.dictionaries(_feat_names, _feat_values, max_size=6))
def test_feats_round_trip(feats):
    assert parse_feats(feats_to_string(feats)) == feats


def test_tokens_with_equal_feats_strings_share_one_dict():
    tb = make_treebank(
        "1\tla\tel\tDET\t_\tGender=Fem|Number=Sing\t2\tdet\t_\t_\n"
        "2\tcasa\tcasa\tNOUN\t_\tGender=Fem|Number=Sing\t0\troot\t_\t_\n"
        "\n"
        "1\tuna\tuno\tDET\t_\tGender=Fem|Number=Sing\t2\tdet\t_\t_\n"
        "2\tmesa\tmesa\tNOUN\t_\tGender=Fem\t0\troot\t_\t_\n"
    )
    # edges la <- casa and una <- mesa: equal FEATS strings share one dict,
    # and equal triples one Triple
    first, second = tb.edges.entries
    assert first.dep_feats is first.head_feats is second.dep_feats
    assert second.head_feats is not first.head_feats
    assert first.triple is second.triple


def test_parsed_treebank_retains_few_bytes_per_token():
    # a Token with a fresh FEATS dict and UPOS/DEPREL strings per token
    # retained about 690 bytes per token here (about 1,080 with six features
    # per token); the parse now keeps about 139, its edge table included
    grammar = PlantedGrammar(
        features=(
            FeatureSpec("Gender", ("Fem", "Masc"), (0.6, 0.4)),
            FeatureSpec("Number", ("Sing", "Plur"), (0.7, 0.3)),
            FeatureSpec("Person", ("1", "2", "3"), (0.2, 0.2, 0.6)),
        ),
        relations=("det", "amod", "nsubj"),
        head_pos=("NOUN", "VERB"),
        dep_pos=("DET", "ADJ", "NOUN"),
        seed=3,
    )
    text = treebank_to_conllu(generate(grammar, 200, 29))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tb = parse_conllu(io.BytesIO(text.encode("utf-8")))
        per_token = (tracemalloc.get_traced_memory()[0] - before) / tb.token_count
    finally:
        tracemalloc.stop()
    assert tb.token_count == 200 * 29
    assert per_token < 300


_BAD_FEATS = "1\ta\ta\tNOUN\t_\tGender\t0\troot\t_\t_\n"
_BAD_HEAD = "1\ta\ta\tNOUN\t_\t_\t+0\troot\t_\t_\n"


@pytest.mark.parametrize("caller_enabled", [True, False])
def test_parse_and_extraction_restore_the_callers_gc_state(caller_enabled, spanish_fig):
    was_enabled = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        assert extract_instances(make_treebank(spanish_fig), "Number").instances
        assert gc.isenabled() is caller_enabled
        for text, error in ((_BAD_FEATS, MalformedFeatsError), (_BAD_HEAD, InvalidHeadError)):
            with pytest.raises(error):
                make_treebank(text)
            assert gc.isenabled() is caller_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
