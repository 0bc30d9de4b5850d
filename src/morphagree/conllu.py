"""CoNLL-U / SUD treebank parsing, straight into an edge table.

Multiword-token range lines (``3-4``) and empty-node lines (``3.1``) are
skipped: agreement triples are defined over single-token head/dependent
pairs. Only HEAD/DEPREL define edges. A token line is read for ID, FORM,
UPOS, FEATS, HEAD and DEPREL; LEMMA, XPOS, DEPS, MISC and comments other
than ``sent_id`` are read past.

Files are read in blocks of 64 KiB, each cut at its last LF and decoded
once, so no whole-file copy is held; a block that is not UTF-8 is decoded
again a line at a time, so the error names the line. Nothing per token
outlives its sentence: the sentence is kept as one list per column, and at
its end its ids and heads are checked, its edges appended and its forms
kept. Within one parse, tokens with the same FEATS string share one dict,
so FEATS dicts are read-only.

In-memory ``Sentence``s, as ``synthetic.generate`` and tests build them,
become a Treebank only through ``Treebank.from_sentences``, which parses
the text ``treebank_to_conllu`` writes for them: they pass every check a
file passes, and an error names a line of that text. Only a sent_id that
would not read back is refused before any text is written.

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

import codecs
import gc
import io
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import (
    DuplicateSentIdError,
    EncodingError,
    InvalidHeadError,
    InvalidIdError,
    InvalidSentIdError,
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
        line of that text, or, for a sent_id the parse would not read back,
        the sentence."""
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
    other three are ``_``. Each FEATS dict is formatted once per call, when
    first met, so it must not change while the call runs.

    A sent_id that the parse would not read back (empty, with leading or
    trailing whitespace, or holding a line break) raises InvalidSentIdError,
    which names the sentence by its 1-based position and its sent_id.
    """
    # id(FEATS dict) -> (the dict, its string); holding the dict keeps its id
    # from going to another dict while the call runs
    feats_of: dict[int, tuple[dict[str, str], str]] = {}
    blocks = []
    for ordinal, sentence in enumerate(sentences, start=1):
        sent_id = sentence.sent_id
        if not sent_id or sent_id != sent_id.strip() or "\n" in sent_id:
            raise InvalidSentIdError(
                f"sentence {ordinal}: sent_id {sent_id!r} would not read back: it is "
                "empty, has leading or trailing whitespace, or holds a line break")
        lines = [f"# sent_id = {sent_id}"]
        for token_id, form, upos, feats, head, deprel in sentence.tokens:
            entry = feats_of.get(id(feats))
            if entry is None:
                entry = feats_of[id(feats)] = (feats, feats_to_string(feats))
            lines.append(
                f"{token_id}\t{form}\t{form}\t{upos}\t_\t{entry[1]}\t{head}\t{deprel}\t_\t_")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# bytes read at a time; each block is cut at its last LF and decoded once
_BLOCK_SIZE = 1 << 16

# canonical id and head text -> its value; other text takes the isdecimal path
_NUMBERS = {str(i): i for i in range(1000)}


def _is_range_or_empty_node_id(col: str) -> bool:
    """``N-M`` (multiword range) or ``N.M`` (empty node), digits on both sides."""
    for sep in "-.":
        first, found, second = col.partition(sep)
        if found:
            return first.isdecimal() and second.isdecimal()
    return False


def _token_id(col: str, line_no: int) -> int | None:
    """The ID column's value, or None for a range or empty node to skip."""
    if not col.isdecimal():
        if _is_range_or_empty_node_id(col):
            return None
        raise InvalidIdError(f"line {line_no}: bad token id {col!r}")
    token_id = int(col)
    if token_id < 1:
        raise InvalidIdError(f"line {line_no}: bad token id {col!r}")
    return token_id


def _head(col: str, line_no: int) -> int:
    if not col.isdecimal():
        raise InvalidHeadError(f"line {line_no}: bad head {col!r}")
    return int(col)


def _byte_blocks(stream: IO[bytes]) -> Iterator[bytes]:
    """A byte stream's bytes in blocks of whole lines: each block ends with
    an LF, but the last one may end with the stream instead."""
    read = stream.read
    pending: list[bytes] = []  # the start of a line no block has ended yet
    while chunk := read(_BLOCK_SIZE):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        if pending:
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = []
        else:
            yield chunk[:cut]
        if cut < len(chunk):
            pending.append(chunk[cut:])
    if pending:
        yield b"".join(pending)


def _line_blocks(stream: IO[bytes]) -> Iterator[list[str]]:
    """The stream's lines, without their LF or CRLF, decoded a block at a
    time, in lists. A byte order mark that starts the stream is dropped."""
    line_no = 0
    mark = codecs.BOM_UTF8
    for block in _byte_blocks(stream):
        block, mark = block.removeprefix(mark), b""
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            # again a line at a time, each with its LF, as a line-by-line
            # read decodes them: the first that is not UTF-8 raises, naming it
            *ended, rest = block.split(b"\n")
            for raw in [line + b"\n" for line in ended] + [rest]:
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EncodingError(f"line {line_no + 1}: {exc}") from None
                if text:
                    line_no += 1
                    yield [text.rstrip("\n").rstrip("\r")]
            continue
        lines = text.split("\n")
        if text[-1:] == "\n":
            lines.pop()
        if "\r" in text:
            lines = [line.rstrip("\r") for line in lines]
        line_no += len(lines)
        yield lines


def parse_conllu(stream: IO[bytes]) -> Treebank:
    """Parse a CoNLL-U stream of UTF-8 bytes (LF or CRLF line endings) into
    a Treebank. ``stream`` is a binary file object, read a block at a time.
    A byte order mark may start it.

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
    numbers = _NUMBERS
    new = tuple.__new__
    # the sentence's columns, one entry per token
    ids: list[int] = []
    words: list[str] = []
    uposes: list[str] = []
    feats_col: list[dict[str, str]] = []
    heads: list[int] = []
    deprels: list[str] = []
    columns = (ids, words, uposes, feats_col, heads, deprels)
    sent_id: str | None = None
    sentences = token_count = line_no = 0
    duplicate: str | None = None  # the first repeated sent_id's message
    with _gc_paused():
        # a blank line after the last ends the last sentence
        for lines in chain(_line_blocks(stream), ([""],)):
            for line in lines:
                line_no += 1
                if not line:
                    if ids:
                        sentences += 1
                        name = sent_id or str(sentences)  # the ordinal without an id
                        n = len(ids)
                        if ids != list(range(1, n + 1)):
                            raise InvalidIdError(
                                f"sentence {name}: token ids are not consecutive 1..n: {ids}")
                        if max(heads) > n:
                            dep_id, head = next(pair for pair in zip(ids, heads) if pair[1] > n)
                            raise InvalidHeadError(
                                f"sentence {name}: token {dep_id} points to missing head {head}")
                        for dep_id, head, feats, deprel, upos in zip(
                                ids, heads, feats_col, deprels, uposes):
                            if head and feats:
                                head_feats = feats_col[head - 1]
                                if head_feats:
                                    shape = (uposes[head - 1], deprel, upos)
                                    triple = triples.get(shape)
                                    if triple is None:
                                        triple = triples[shape] = new(Triple, shape)
                                    append(new(Edge, (triple, (name, head, dep_id),
                                                      head_feats, feats)))
                        token_count += n
                        if name in forms and duplicate is None:
                            duplicate = f"sentence {sentences}: duplicate sent_id {name!r}"
                        forms[name] = tuple(words)
                        for column in columns:
                            column.clear()
                    sent_id = None
                    continue
                if line[0] == "#":
                    key, sep, value = line[1:].partition("=")
                    if sep and key.strip() == "sent_id":
                        sent_id = value.strip()
                    continue
                try:
                    id_col, form, _, upos, _, feats_text, head_col, deprel, _, _ = line.split("\t")
                except ValueError:
                    got = line.count("\t") + 1
                    raise MalformedLineError(
                        f"line {line_no}: expected {N_COLUMNS} columns, got {got}") from None
                token_id = numbers.get(id_col)
                if not token_id:
                    token_id = _token_id(id_col, line_no)
                    if token_id is None:
                        continue
                head = numbers.get(head_col)
                if head is None:
                    head = _head(head_col, line_no)
                if head == token_id:
                    raise InvalidHeadError(
                        f"line {line_no}: head {head} invalid for token {token_id}")
                entry = feats_of.get(feats_text)
                if entry is None:
                    try:
                        entry = feats_of[feats_text] = [parse_feats(feats_text), 0]
                    except MalformedFeatsError as exc:
                        raise MalformedFeatsError(f"line {line_no}: {exc}") from None
                entry[1] += 1
                ids.append(token_id)
                words.append(form)
                uposes.append(upos)
                feats_col.append(entry[0])
                heads.append(head)
                deprels.append(deprel)
    if duplicate is not None:
        raise DuplicateSentIdError(duplicate)
    feats_counts = tuple((feats, count) for feats, count in feats_of.values() if feats)
    return Treebank(Edges(tuple(entries), feats_counts), forms, token_count)


def parse_conllu_file(path: str | Path) -> Treebank:
    """Parse a CoNLL-U file (UTF-8, LF or CRLF line endings, an optional
    byte order mark), read and decoded a block at a time. An EncodingError
    names the path and the line."""
    with open(path, "rb") as fh:
        try:
            return parse_conllu(fh)
        except EncodingError as exc:
            raise EncodingError(f"{path}: {exc}") from None
