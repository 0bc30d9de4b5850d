"""CoNLL-U / SUD treebank parsing into an in-memory model.

Multiword-token range lines (``3-4``) and empty-node lines (``3.1``) are
skipped: agreement triples are defined over single-token head/dependent
pairs. Only HEAD/DEPREL define edges. A token keeps only the columns the
pipeline reads (ID, FORM, UPOS, FEATS, HEAD, DEPREL); LEMMA, XPOS, DEPS,
MISC and comments other than ``sent_id`` are read past.

Files are streamed and decoded line by line, so no whole-file copy is
held. Within one parse, tokens with the same FEATS string share one dict,
so ``Token.feats`` is read-only; UPOS and DEPREL strings are interned.
Tokens and sentences are immutable ``NamedTuple`` records, cheap to build
at one per line; a Treebank is a plain class, so that it can cache its
edge table.

``Treebank.edges`` is the one edge table every feature's dataset shares,
built on first use: an ``Edge`` per non-root edge whose two tokens have
FEATS, in document order, with one ``Triple`` per distinct shape, plus the
token count of each distinct FEATS dict. A feature's dataset holds these
same ``Edge`` objects, not copies.
"""
from __future__ import annotations

import functools
import gc
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

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
    """One syntactic word: a simple (non-range, non-empty) CoNLL-U line."""

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
    """The sentences of one parse, in document order. Treated as read-only;
    equal to another Treebank with equal sentences."""

    def __init__(self, sentences: tuple[Sentence, ...]):
        self.sentences = sentences

    def __eq__(self, other):
        if other.__class__ is not Treebank:
            return NotImplemented
        return self.sentences == other.sentences

    def __repr__(self) -> str:
        return f"Treebank(sentences={self.sentences!r})"

    @property
    def token_count(self) -> int:
        return sum(len(s.tokens) for s in self.sentences)

    @functools.cached_property
    def edges(self) -> Edges:
        entries, triples, counts, dicts = [], {}, {}, {}  # the last two by id(FEATS)
        with _gc_paused():
            for sentence in self.sentences:
                tokens = sentence.tokens
                for token in tokens:
                    feats = token.feats
                    counts[id(feats)] = counts.get(id(feats), 0) + 1
                    dicts.setdefault(id(feats), feats)
                    if token.head == 0 or not feats or not tokens[token.head - 1].feats:
                        continue
                    head = tokens[token.head - 1]
                    shape = (head.upos, token.deprel, token.upos)
                    triple = triples.get(shape)
                    if triple is None:
                        triple = triples[shape] = Triple(*shape)
                    entries.append(Edge(triple, (sentence.sent_id, head.id, token.id),
                                        head.feats, feats))
            return Edges(tuple(entries),
                         tuple((dicts[k], n) for k, n in counts.items() if dicts[k]))


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


def _is_range_or_empty_node_id(col: str) -> bool:
    """``N-M`` (multiword range) or ``N.M`` (empty node), digits on both sides."""
    for sep in "-.":
        first, found, second = col.partition(sep)
        if found:
            return first.isdecimal() and second.isdecimal()
    return False


def _parse_token_line(line: str, line_no: int, feats_of: dict[str, dict]) -> Token | None:
    """One token line. ``feats_of`` memoises the parse's FEATS strings
    (successful parses only, so a bad one raises on every line it is on)."""
    cols = line.split("\t")
    if len(cols) != N_COLUMNS:
        raise MalformedLineError(
            f"line {line_no}: expected {N_COLUMNS} columns, got {len(cols)}"
        )
    if not cols[0].isdecimal() and _is_range_or_empty_node_id(cols[0]):
        return None
    if not cols[0].isdecimal() or int(cols[0]) < 1:
        raise InvalidIdError(f"line {line_no}: bad token id {cols[0]!r}")
    token_id = int(cols[0])
    if not cols[6].isdecimal():
        raise InvalidHeadError(f"line {line_no}: bad head {cols[6]!r}")
    head = int(cols[6])
    if head == token_id:
        raise InvalidHeadError(f"line {line_no}: head {head} invalid for token {token_id}")
    feats = feats_of.get(cols[5])
    if feats is None:
        try:
            feats = feats_of[cols[5]] = parse_feats(cols[5])
        except MalformedFeatsError as exc:
            raise MalformedFeatsError(f"line {line_no}: {exc}") from None
    return Token(token_id, cols[1], sys.intern(cols[3]), feats, head, sys.intern(cols[7]))


def _finish_sentence(tokens: list[Token], sent_id: str | None, ordinal: int) -> Sentence:
    ids = [t.id for t in tokens]
    if ids != list(range(1, len(ids) + 1)):
        raise InvalidIdError(
            f"sentence {sent_id or ordinal}: token ids are not consecutive 1..n: {ids}"
        )
    valid = set(ids)
    for t in tokens:
        if t.head != 0 and t.head not in valid:
            raise InvalidHeadError(
                f"sentence {sent_id or ordinal}: token {t.id} points to missing head {t.head}"
            )
    return Sentence(sent_id=sent_id or str(ordinal), tokens=tuple(tokens))


def _iter_lines(stream: IO[bytes] | Iterable[bytes]) -> Iterator[tuple[int, str]]:
    """(1-based line number, decoded line without its LF or CRLF) pairs. The
    LF byte occurs in UTF-8 only as LF, so per-line decoding is safe."""
    for line_no, raw in enumerate(stream, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"line {line_no}: {exc}") from None
        yield line_no, line.rstrip("\n").rstrip("\r")


def parse_conllu(stream: IO[bytes] | Iterable[bytes]) -> Treebank:
    """Parse a CoNLL-U stream of UTF-8 bytes into a Treebank.

    Comment ``# sent_id = X`` populates the sentence id; sentences without
    one get their 1-based ordinal as a string. Ids must be unique, since
    instance provenance refers to sentences by id: a repeated one, including
    an ordinal that collides with an explicit id, raises
    DuplicateSentIdError. Parsing is deterministic and order-preserving.
    """
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    sent_id: str | None = None
    feats_of: dict[str, dict[str, str]] = {}
    with _gc_paused():
        for line_no, line in _iter_lines(stream):
            if not line:
                if tokens:
                    sentences.append(_finish_sentence(tokens, sent_id, len(sentences) + 1))
                tokens, sent_id = [], None
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep and key.strip() == "sent_id":
                    sent_id = value.strip()
                continue
            token = _parse_token_line(line, line_no, feats_of)
            if token is not None:
                tokens.append(token)
        if tokens:
            sentences.append(_finish_sentence(tokens, sent_id, len(sentences) + 1))
    seen: set[str] = set()
    for ordinal, sentence in enumerate(sentences, start=1):
        if sentence.sent_id in seen:
            raise DuplicateSentIdError(
                f"sentence {ordinal}: duplicate sent_id {sentence.sent_id!r}"
            )
        seen.add(sentence.sent_id)
    return Treebank(sentences=tuple(sentences))


def parse_conllu_file(path: str | Path) -> Treebank:
    """Parse a CoNLL-U file (UTF-8, LF or CRLF line endings), streamed line
    by line. An EncodingError names the path and the line."""
    with open(path, "rb") as fh:
        try:
            return parse_conllu(fh)
        except EncodingError as exc:
            raise EncodingError(f"{path}: {exc}") from None
