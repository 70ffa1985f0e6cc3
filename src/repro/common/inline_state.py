"""Unpickling that keeps CPython's inline instance attributes.

CPython 3.11+ stores a plain object's attributes inline in the object
until something asks for its ``__dict__``.  From then on the object owns
a real dict, and every attribute read and write on it takes a slower
lookup path for the rest of its life.  Pickle's default BUILD step fills
a restored object through its ``__dict__``, so a machine forked from a
snapshot (:meth:`repro.system.machine.Machine.restore`) would run every
component on that slow path.  :class:`InlineState` gives a class a
``__setstate__`` that assigns the pickled attributes one at a time
instead, which keeps them inline.

For the same reason the simulator never reads or updates a simulation
object's ``__dict__`` (``vars(obj)`` included).  Pickling a machine
still has to read it, so the machine a snapshot is taken from keeps the
slow path; its forks do not.
"""

from __future__ import annotations


class InlineState:
    """Mixin: restore pickled instance state attribute by attribute.

    Every dict-backed class of the machine graph derives from it
    (``tests/system/test_inline_state.py`` walks forked machines and
    names them).  ``object.__setattr__`` also serves the frozen config
    dataclasses.
    """

    __slots__ = ()

    def __setstate__(self, state: dict) -> None:
        setattr_ = object.__setattr__
        for name, value in state.items():
            setattr_(self, name, value)
