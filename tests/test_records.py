"""``records.record`` against ``dataclass(frozen=True)``: one toy class under
each, which must behave alike."""

import dataclasses
from dataclasses import FrozenInstanceError, field

import pytest

from kimura_lab.records import record


def make(decorate):
    """The toy class under ``decorate``, with defaults, a factory, a
    ``repr=False`` field, two ``compare=False`` ones and a ``__post_init__``."""

    @decorate
    class Toy:
        """A toy record."""

        a: int
        b: tuple = (1, 2)
        extra: dict = field(default_factory=dict, compare=False)
        note: str = field(default="n", compare=False)
        secret: float = field(default=0.5, repr=False)

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a must be >= 0")
            object.__setattr__(self, "b", tuple(self.b))

    return Toy


Frozen = make(dataclasses.dataclass(frozen=True))
Record = make(record)


@pytest.mark.parametrize("args, kwargs", [
    ((3,), {}),
    ((3, [4, 5]), {"note": "x"}),
    ((), {"a": 0, "secret": 2.0, "extra": {"t": 1}}),
    ((1, (2,), {"u": 2}, "m", 9.0), {}),
])
def test_repr_hash_and_fields_match_the_frozen_dataclass(args, kwargs):
    fields = dataclasses.fields(Record)
    frozen, rec = Frozen(*args, **kwargs), Record(*args, **kwargs)
    assert repr(rec) == repr(frozen)
    assert [f.name for f in fields] == [f.name for f in dataclasses.fields(Frozen)]
    assert {f.name: getattr(rec, f.name) for f in fields} == {
        f.name: getattr(frozen, f.name) for f in fields}
    assert hash(rec) == hash(frozen)


def test_eq_within_a_class_and_not_implemented_across_classes():
    # note and extra are compare=False
    assert Record(1, note="x", extra={"k": 1}) == Record(1, note="y")
    assert Record(1) != Record(2)
    assert Record(1).__eq__(Frozen(1)) is NotImplemented
    assert Frozen(1).__eq__(Record(1)) is NotImplemented
    assert Record(1) != Frozen(1)
    assert hash(Record(1, note="x")) == hash(Record(1, note="y"))


def test_set_and_delete_raise_frozen_instance_error():
    rec = Record(1)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'a'"):
        rec.a = 2
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'a'"):
        del rec.a
    with pytest.raises(FrozenInstanceError):
        rec.other = 1
    assert rec.a == 1


def test_each_instance_gets_a_fresh_factory_value():
    first, second = Record(1), Record(1)
    assert first.extra == {} and first.extra is not second.extra


def test_post_init_runs():
    assert Record(1, [7, 8]).b == (7, 8)
    with pytest.raises(ValueError, match="a must be >= 0"):
        Record(-1)


def test_replace_rebinds_through_init():
    rec = Record(1, extra={"t": 1}, secret=3.0)
    moved = dataclasses.replace(rec, a=2, b=[5])
    assert (moved.a, moved.b, moved.extra, moved.secret) == (2, (5,), {"t": 1}, 3.0)
    assert dataclasses.is_dataclass(moved)
    with pytest.raises(ValueError):
        dataclasses.replace(rec, a=-1)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                         # a missing argument
    ((1,), {"bogus": 2}),             # an unknown one
    ((1,), {"a": 2}),                 # a duplicated one
    ((1, 2, {}, "n", 0.5, 6), {}),    # too many positional ones
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Frozen(*args, **kwargs)
    with pytest.raises(TypeError):
        Record(*args, **kwargs)


def test_a_class_without_a_docstring_or_with_its_own_methods_is_refused():
    class Bare:
        a: int

    class OwnRepr:
        """Defines a method a record installs."""

        a: int

        def __repr__(self):
            return "own"

    for cls in (Bare, OwnRepr):
        with pytest.raises(TypeError):
            record(cls)
