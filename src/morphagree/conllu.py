"""CoNLL-U / SUD treebank parsing, straight into an edge table.

Multiword-token range lines (``3-4``) and empty-node lines (``3.1``) are
skipped: agreement triples are defined over single-token head/dependent
pairs. Only HEAD/DEPREL define edges. A token line is read for ID, FORM,
UPOS, FEATS, HEAD and DEPREL; LEMMA, XPOS, DEPS, MISC and comments other
than ``sent_id`` are read past.

Files are streamed and decoded line by line, so no whole-file copy is
held, and nothing per token outlives its sentence: each validated line
becomes a plain tuple in ``Token``'s field order, and at the sentence's end
its ids and heads are checked, its edges appended and its forms kept.
Within one parse, tokens with the same FEATS string share one dict, so
FEATS dicts are read-only.

In-memory ``Sentence``s, as ``synthetic.generate`` and tests build them,
become a Treebank only through ``Treebank.from_sentences``, which parses
the text ``treebank_to_conllu`` writes for them: they pass every check a
file passes, and an error names a line of that text.

A Treebank holds:

- ``edges``, the one edge table every feature's dataset shares: an ``Edge``
  per non-root edge whose two tokens have FEATS, in document order, with
  one ``Triple`` per distinct shape, plus the token count of each distinct
  non-empty FEATS string, with its dict, in order of first occurrence. A
  feature's dataset holds these same ``Edge`` objects, not copies;
- ``forms``, each sentence's forms in id order by ``sent_id``, in document
  order, for rendering examples and counting words;
- ``token_count``.
"""
from __future__ import annotations

import gc
import io
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import (
    DuplicateSentIdError,
    EncodingError,
    InvalidHeadError,
    InvalidIdError,
    MalformedFeatsError,
    MalformedLineError,
)

N_COLUMNS = 10


@contextmanager
def _gc_paused():
    """Suspend the cyclic GC, restoring the caller's setting on exit. For
    code that builds only acyclic objects, which collections would rescan."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Token(NamedTuple):
    """One syntactic word: a simple (non-range, non-empty) CoNLL-U line. The
    parser keeps none; ``synthetic`` and tests build them, and
    ``treebank_to_conllu`` writes them."""

    id: int
    form: str
    upos: str
    feats: dict[str, str]
    head: int
    deprel: str


class Sentence(NamedTuple):
    """Tokens in id order, so token ``i`` is ``tokens[i - 1]``."""

    sent_id: str
    tokens: tuple[Token, ...]


class Triple(NamedTuple):
    """The ⟨head POS, relation, dependent POS⟩ shape of one dependency edge."""

    head_pos: str
    relation: str
    dep_pos: str


class Edge(NamedTuple):
    """One dependency edge of the edge table; both FEATS dicts are the
    tokens' own (shared, read-only)."""

    triple: Triple
    provenance: tuple[str, int, int]  # (sent_id, head token id, dep token id)
    head_feats: dict[str, str]
    dep_feats: dict[str, str]


class Edges(NamedTuple):
    """A treebank's edge table (see the module docstring)."""

    entries: tuple[Edge, ...]
    feats_counts: tuple[tuple[dict[str, str], int], ...]  # non-empty dicts only


class Treebank:
    """A treebank's edge table, each sentence's forms by ``sent_id`` and its
    token count (see the module docstring). Treated as read-only; equal to
    another Treebank with equal fields."""

    __slots__ = ("edges", "forms", "token_count")

    def __init__(self, edges: Edges, forms: dict[str, tuple[str, ...]], token_count: int):
        self.edges = edges
        self.forms = forms
        self.token_count = token_count

    def __eq__(self, other):
        if other.__class__ is not Treebank:
            return NotImplemented
        return (self.edges, self.forms, self.token_count) == (
            other.edges, other.forms, other.token_count)

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sentence]) -> Treebank:
        """The parse of ``treebank_to_conllu(sentences)``; an error names a
        line of that text."""
        return parse_conllu(io.BytesIO(treebank_to_conllu(sentences).encode("utf-8")))


def parse_feats(raw: str) -> dict[str, str]:
    """Parse a FEATS column value into a name->value map.

    ``_`` yields the empty map. Pairs split on the first ``=``; multi-valued
    entries like ``Case=Nom,Acc`` keep the verbatim value string. Feature
    names are case-sensitive.
    """
    if raw == "_":
        return {}
    feats: dict[str, str] = {}
    for pair in raw.split("|"):
        name, sep, value = pair.partition("=")
        if not sep:
            raise MalformedFeatsError(f"feature entry without '=': {pair!r}")
        if not name or not value:
            raise MalformedFeatsError(f"empty feature name or value: {pair!r}")
        if name in feats:
            raise MalformedFeatsError(f"duplicate feature name: {name!r}")
        feats[name] = value
    return feats


def feats_to_string(feats: dict[str, str]) -> str:
    """Serialize a feature map in sorted-name ``|`` form (``_`` when empty)."""
    if not feats:
        return "_"
    return "|".join(f"{k}={feats[k]}" for k in sorted(feats))


def treebank_to_conllu(sentences: Iterable[Sentence]) -> str:
    """Serialize sentences as standard 10-column CoNLL-U text, each under
    its ``# sent_id`` comment.

    Tokens keep no LEMMA, XPOS, DEPS or MISC: LEMMA repeats FORM and the
    other three are ``_``.
    """
    blocks = []
    for sentence in sentences:
        lines = [f"# sent_id = {sentence.sent_id}"]
        for t in sentence.tokens:
            lines.append(
                "\t".join(
                    (
                        str(t.id), t.form, t.form, t.upos, "_",
                        feats_to_string(t.feats), str(t.head), t.deprel, "_", "_",
                    )
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def _is_range_or_empty_node_id(col: str) -> bool:
    """``N-M`` (multiword range) or ``N.M`` (empty node), digits on both sides."""
    for sep in "-.":
        first, found, second = col.partition(sep)
        if found:
            return first.isdecimal() and second.isdecimal()
    return False


def parse_conllu(stream: IO[bytes] | Iterable[bytes]) -> Treebank:
    """Parse a CoNLL-U stream of UTF-8 bytes (LF or CRLF line endings) into
    a Treebank.

    Comment ``# sent_id = X`` populates the sentence id; sentences without
    one get their 1-based ordinal as a string. Ids must be unique, since
    instance provenance refers to sentences by id: a repeated one, including
    an ordinal that collides with an explicit id, raises
    DuplicateSentIdError once every line is read. Any other fault raises at
    its line, or at the end of its sentence for ids and heads that do not
    fit together. Parsing is deterministic and order-preserving.
    """
    entries: list[Edge] = []
    append = entries.append
    triples: dict[tuple[str, str, str], Triple] = {}
    forms: dict[str, tuple[str, ...]] = {}
    # FEATS string -> [its dict, its token count]; successful parses only,
    # so a bad string raises on every line it is on
    feats_of: dict[str, list] = {}
    rows: list[tuple] = []
    sent_id: str | None = None
    sentences = token_count = 0
    duplicate: str | None = None  # the first repeated sent_id's message
    with _gc_paused():
        # a blank line after the last ends the last sentence
        for line_no, raw in enumerate(chain(stream, (b"",)), start=1):
            # the LF byte occurs in UTF-8 only as LF, so per-line decoding is safe
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(f"line {line_no}: {exc}") from None
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                if rows:
                    sentences += 1
                    name = sent_id or str(sentences)  # the ordinal without an id
                    n = len(rows)
                    ids = [row[0] for row in rows]
                    if ids != list(range(1, n + 1)):
                        raise InvalidIdError(
                            f"sentence {name}: token ids are not consecutive 1..n: {ids}")
                    for dep_id, _, upos, feats, head, deprel in rows:
                        if head > n:
                            raise InvalidHeadError(
                                f"sentence {name}: token {dep_id} points to missing head {head}")
                        if head and feats:
                            _, _, head_upos, head_feats, _, _ = rows[head - 1]
                            if head_feats:
                                shape = (head_upos, deprel, upos)
                                triple = triples.get(shape)
                                if triple is None:
                                    triple = triples[shape] = Triple(*shape)
                                append(Edge(triple, (name, head, dep_id), head_feats, feats))
                    token_count += n
                    if name in forms and duplicate is None:
                        duplicate = f"sentence {sentences}: duplicate sent_id {name!r}"
                    forms[name] = tuple([row[1] for row in rows])
                rows, sent_id = [], None
                continue
            if line[0] == "#":
                key, sep, value = line[1:].partition("=")
                if sep and key.strip() == "sent_id":
                    sent_id = value.strip()
                continue
            cols = line.split("\t")
            if len(cols) != N_COLUMNS:
                raise MalformedLineError(
                    f"line {line_no}: expected {N_COLUMNS} columns, got {len(cols)}"
                )
            id_col, head_col = cols[0], cols[6]
            if not id_col.isdecimal():
                if _is_range_or_empty_node_id(id_col):
                    continue
                raise InvalidIdError(f"line {line_no}: bad token id {id_col!r}")
            token_id = int(id_col)
            if token_id < 1:
                raise InvalidIdError(f"line {line_no}: bad token id {id_col!r}")
            if not head_col.isdecimal():
                raise InvalidHeadError(f"line {line_no}: bad head {head_col!r}")
            head = int(head_col)
            if head == token_id:
                raise InvalidHeadError(f"line {line_no}: head {head} invalid for token {token_id}")
            entry = feats_of.get(cols[5])
            if entry is None:
                try:
                    entry = feats_of[cols[5]] = [parse_feats(cols[5]), 0]
                except MalformedFeatsError as exc:
                    raise MalformedFeatsError(f"line {line_no}: {exc}") from None
            entry[1] += 1
            rows.append((token_id, cols[1], cols[3], entry[0], head, cols[7]))
    if duplicate is not None:
        raise DuplicateSentIdError(duplicate)
    feats_counts = tuple((feats, count) for feats, count in feats_of.values() if feats)
    return Treebank(Edges(tuple(entries), feats_counts), forms, token_count)


def parse_conllu_file(path: str | Path) -> Treebank:
    """Parse a CoNLL-U file (UTF-8, LF or CRLF line endings), streamed line
    by line. An EncodingError names the path and the line."""
    with open(path, "rb") as fh:
        try:
            return parse_conllu(fh)
        except EncodingError as exc:
            raise EncodingError(f"{path}: {exc}") from None
