"""dump_canonical writes, byte for byte, what json.dumps writes with the
canonical settings (sorted keys, two-space indent, text not escaped to
ASCII) plus a newline: json.dumps is the oracle. write_json writes the
same text to a file, encoded as UTF-8."""
import json
import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from morphagree.evaluation import HumanLabel
from morphagree import serialization
from morphagree.labeling import Label, ThresholdMode
from morphagree.serialization import dump_canonical, write_json

_TEXT = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x7F)),  # control characters, quotes, backslashes
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "  ", "é", "😀𝄞"]),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
)


class _Pair(NamedTuple):
    first: object
    second: object


class _Dict(dict):
    pass


class _List(list):
    pass


_EMPTY = st.sampled_from([[], (), {}, [[]], ([], {}), {"": {}}, {"a": [()]}])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
    st.sampled_from([*Label, *ThresholdMode, *HumanLabel]), _EMPTY,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        # subclasses take the emitter's isinstance path
        st.tuples(children, children).map(lambda pair: _Pair(*pair)),
        st.dictionaries(_TEXT, children, max_size=4).map(_Dict),
        st.lists(children, max_size=4).map(_List),
    ),
    max_leaves=20,
)


@st.composite
def _deeply_nested(draw):
    """A value wrapped in 50 to 80 containers, each holding siblings too."""
    value = draw(_VALUES)
    for _ in range(draw(st.integers(50, 80))):
        siblings = draw(st.lists(_SCALARS, max_size=2))
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        if kind == "dict":
            value = {**dict(zip(draw(st.lists(_TEXT, max_size=2)), siblings)),
                     draw(_TEXT): value}
        else:
            items = [*siblings, value] if draw(st.booleans()) else [value, *siblings]
            value = items if kind == "list" else tuple(items)
    return value


@settings(max_examples=150, deadline=None)
@given(st.one_of(_VALUES, _deeply_nested()))
def test_dump_canonical_writes_what_json_dumps_writes(value):
    expected = json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    assert dump_canonical(value) == expected


# json.dumps would write an int key as a string; no document has one
@pytest.mark.parametrize("value", [{1: "x"}, {"a": {None: 1}}, [{("a",): 1}]])
def test_dump_canonical_rejects_a_key_that_is_not_a_string(value):
    with pytest.raises(TypeError):
        dump_canonical(value)


# what json.dumps rejects: a set, bytes and a plain object, alone or nested
@pytest.mark.parametrize("value", [
    {"a"}, b"a", object(), {"a": [1, {"b": frozenset()}]}, [b""], _Pair(1, object()),
    _Dict(a=set()), _List([bytearray()]),
])
def test_dump_canonical_rejects_a_value_that_is_not_json(value):
    with pytest.raises(TypeError):
        json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dump_canonical(value)


# chunks of one to eight pieces put chunk ends everywhere in these values
@settings(max_examples=100, deadline=None)
@given(st.one_of(_VALUES, _deeply_nested()), st.one_of(st.integers(1, 8), st.just(4096)))
def test_write_json_writes_the_bytes_of_dump_canonical(tmp_path_factory, value, chunk_pieces):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    expected = json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialization, "_CHUNK_PIECES", chunk_pieces)
        write_json(value, path)
        assert dump_canonical(value) == expected
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("value", [
    {"a": list(range(20_000)), "b": object()}, [{"x": [1.5] * 9_000}, {b"k": 1}],
])
def test_write_json_leaves_the_file_as_it_was_on_a_value_that_is_not_json(tmp_path, value):
    # the text before the fault spans several chunks
    path = tmp_path / "doc.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(TypeError):
        write_json(value, path)
    assert path.read_text(encoding="utf-8") == "old\n"
