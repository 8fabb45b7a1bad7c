"""Frozen records: dataclasses that share one set of methods.

``@dataclass(frozen=True)`` compiles six methods per class with one ``exec``
each (``__init__``, ``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__``
and ``__delattr__``), which made up most of the package's import time.
:func:`record` keeps the class a dataclass (``dataclasses.fields``,
``dataclasses.replace`` and ``is_dataclass`` work as before) and installs
the six plain functions below instead.  They read a field spec built once
per class and behave like the generated ones: positional and keyword
binding, defaults and a fresh ``default_factory`` value per instance,
``__post_init__``, ``repr=False`` and ``compare=False`` fields, the same
repr strings, and the hash of the same tuple.
"""

from __future__ import annotations

import dataclasses
import reprlib
from dataclasses import MISSING, FrozenInstanceError

__all__ = ["record"]


class _Spec:
    """What the shared methods read of a record class's fields."""

    __slots__ = ("qualname", "names", "params", "repr_names", "compare", "hash", "post_init")

    def __init__(self, cls) -> None:
        fields = dataclasses.fields(cls)
        for f in fields:
            if not f.init or f.kw_only:
                raise TypeError(f"{cls.__qualname__}.{f.name}: a record binds every field "
                                "by position or keyword")
        self.qualname = cls.__qualname__
        self.names = tuple(f.name for f in fields)
        self.params = tuple((f.name, f.default, f.default_factory) for f in fields)
        self.repr_names = tuple(f.name for f in fields if f.repr)
        self.compare = tuple(f.name for f in fields if f.compare)
        self.hash = tuple(f.name for f in fields if (f.compare if f.hash is None else f.hash))
        self.post_init = hasattr(cls, "__post_init__")


def _init(self, *args, **kwargs):
    spec = type(self)._record_spec
    n = len(args)
    if n > len(spec.names):
        raise TypeError(f"{spec.qualname}.__init__() takes {len(spec.names) + 1} "
                        f"positional arguments but {n + 1} were given")
    set_field = object.__setattr__
    for name, value in zip(spec.names, args):
        set_field(self, name, value)
    for name, default, factory in spec.params[n:]:
        if name in kwargs:
            value = kwargs.pop(name)
        elif default is not MISSING:
            value = default
        elif factory is not MISSING:
            value = factory()
        else:
            raise TypeError(f"{spec.qualname}.__init__() missing required argument {name!r}")
        set_field(self, name, value)
    if kwargs:
        name = next(iter(kwargs))
        problem = ("got multiple values for argument" if name in spec.names
                   else "got an unexpected keyword argument")
        raise TypeError(f"{spec.qualname}.__init__() {problem} {name!r}")
    if spec.post_init:
        self.__post_init__()


@reprlib.recursive_repr()
def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}"
                       for name in type(self)._record_spec.repr_names)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = type(self)._record_spec.compare
    return (tuple([getattr(self, name) for name in names])
            == tuple([getattr(other, name) for name in names]))


def _hash(self) -> int:
    return hash(tuple([getattr(self, name) for name in type(self)._record_spec.hash]))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_METHODS = {
    "__init__": _init,
    "__repr__": _repr,
    "__eq__": _eq,
    "__hash__": _hash,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
}


def record(cls):
    """Make ``cls`` a frozen dataclass whose methods are the shared ones.

    ``cls`` needs a docstring: without one, ``dataclass`` writes one from
    ``inspect.signature(cls)``, which parses ``object.__init__``'s text
    signature and compiles the tokenizer's regexes, about 10 ms."""
    if not cls.__doc__:
        raise TypeError(f"{cls.__qualname__} needs a docstring to be a record")
    for name in _METHODS:
        if name in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} defines {name}, which a record installs")
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    cls._record_spec = _Spec(cls)
    for name, method in _METHODS.items():
        setattr(cls, name, method)
    return cls
