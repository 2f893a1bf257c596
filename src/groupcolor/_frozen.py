"""The shared part of the library's immutable value classes, written out in
place of ``dataclasses``, whose import (with ``inspect``, ``ast``, ``dis``
and ``tokenize``) and generated methods every process would pay for."""

from __future__ import annotations


class Frozen:
    """Base of an immutable value class. A subclass names in ``_fields``
    the attributes that equality and hashing read, and sets its attributes
    in ``__init__`` through ``_set`` or ``object.__setattr__``; afterwards
    setting or deleting any attribute raises AttributeError. A
    ``functools.cached_property`` still works on a subclass with an
    instance dict, since it writes that dict directly."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
