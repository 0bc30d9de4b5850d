"""write_json writes, byte for byte, what json.dumps writes with the
canonical settings (sorted keys, two-space indent, text not escaped to
ASCII, no NaN or Infinity) plus a newline, encoded as UTF-8: json.dumps is
the oracle. That text is the canonical dump the tests below name.

write_json takes only what the loaders read back: values of the exact
types dict (with exact-str keys), list, tuple, str, int, float, bool and
None, and finite floats. A subclass, a str-valued enum or a NamedTuple
among them, raises TypeError, and a NaN or infinite float ValueError,
where json.dumps would write them; either leaves an existing file as it
was."""
import enum
import json
import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from morphagree.evaluation import HumanLabel
from morphagree import serialization
from morphagree.labeling import Label, ThresholdMode
from morphagree.serialization import write_json
from morphagree.triples import Triple

_TEXT = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x7F)),  # control characters, quotes, backslashes
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "\u2028\u2029", "  ", "é", "😀𝄞"]),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e300, 1.7976931348623157e308, 0.1, 1e16]),
)
_EMPTY = st.sampled_from([[], (), {}, [[]], ([], {}), {"": {}}, {"a": [()]}])
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT, _EMPTY)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
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


def _canonical(value) -> bytes:
    return (json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def _assert_rejected(tmp_path, value, error: type[Exception]) -> None:
    """write_json(value) over a file of old text raises error and leaves
    the old text."""
    path = tmp_path / "doc.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(error):
        write_json(value, path)
    assert path.read_text(encoding="utf-8") == "old\n"


@settings(max_examples=150, deadline=None)
@given(st.one_of(_VALUES, _deeply_nested()))
def test_dump_canonical_writes_what_json_dumps_writes(value):
    text = "".join(serialization._canonical_chunks(value))
    assert text.encode("utf-8") == _canonical(value)


# chunks of one to eight pieces put chunk ends everywhere in these values
@settings(max_examples=100, deadline=None)
@given(st.one_of(_VALUES, _deeply_nested()), st.one_of(st.integers(1, 8), st.just(4096)))
def test_write_json_writes_the_bytes_of_dump_canonical(tmp_path_factory, value, chunk_pieces):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialization, "_CHUNK_PIECES", chunk_pieces)
        write_json(value, path)
    assert path.read_bytes() == _canonical(value)


# json.dumps would write an int key as a string; no document has one
@pytest.mark.parametrize("value", [{1: "x"}, {"a": {None: 1}}, [{("a",): 1}]])
def test_dump_canonical_rejects_a_key_that_is_not_a_string(tmp_path, value):
    _assert_rejected(tmp_path, value, TypeError)


class _Pair(NamedTuple):
    first: object
    second: object


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Count(enum.IntEnum):
    ONE = 1


# what json.dumps rejects: a set, bytes and a plain object, alone or nested
@pytest.mark.parametrize("value", [
    {"a"}, b"a", object(), {"a": [1, {"b": frozenset()}]}, [b""], _Pair(1, object()),
    _Dict(a=set()), _List([bytearray()]),
])
def test_dump_canonical_rejects_a_value_that_is_not_json(tmp_path, value):
    with pytest.raises(TypeError):
        json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
    _assert_rejected(tmp_path, value, TypeError)


# what json.dumps writes as the value it subclasses, alone, as a list item
# (written without a call per item when it is an exact str or int), as a
# dict value past the first, or as a key; the second str key equals one
# whose text the emitter keeps, and still raises
@pytest.mark.parametrize("value", [
    Label.REQUIRED, ThresholdMode.HARD, HumanLabel.SOMETIMES, _Count.ONE,
    Triple("det", "NOUN", "DET"), _Pair(1, 2), _Dict(a=1), _List([1]), _Str("x"), _Int(3),
    _Float(1.5), [1, "a", _Str("b")], [0, _Int(1)], [1.5, _Float(2.5)],
    {"a": 1, "b": Label.CHANCE}, {"a": "x", "b": [(), _List()]}, {"a": _Dict()},
    {Label.REQUIRED: 1}, {"a": 1, _Str("b"): 2}, [{"a": 1}, {_Str("a"): 1}],
    [{"x": {"a": 1}}, {"x": {_Str("a"): 1}}],
])
def test_write_json_rejects_a_subclass_of_a_json_type(tmp_path, value):
    json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
    _assert_rejected(tmp_path, value, TypeError)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, [1, 2.5, math.nan], {"a": 0.5, "b": {"c": [math.inf]}},
    ({"x": -math.inf},), [1.0, float("-nan")],
], ids=repr)
def test_write_json_rejects_a_float_that_is_not_finite(tmp_path, value):
    with pytest.raises(ValueError):
        json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False)
    _assert_rejected(tmp_path, value, ValueError)


@pytest.mark.parametrize("value", [
    {"a": list(range(20_000)), "b": object()}, [{"x": [1.5] * 9_000}, {b"k": 1}],
    {"a": list(range(20_000)), "b": Label.REQUIRED}, [{"x": ["y"] * 9_000}, {_Str("k"): 1}],
])
def test_write_json_leaves_the_file_as_it_was_on_a_value_that_is_not_json(tmp_path, value):
    # the text before the fault spans several chunks
    _assert_rejected(tmp_path, value, TypeError)


def test_write_json_leaves_the_file_as_it_was_on_a_float_that_is_not_finite(tmp_path):
    _assert_rejected(tmp_path, [{"x": [1.5] * 9_000}, {"y": math.inf}], ValueError)
