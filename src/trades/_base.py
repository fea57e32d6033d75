"""Shared by the package's modules: plain records and the atomic writer.

A record class takes its constructor, comparison and repr from Record,
so importing its module compiles no code for it (dataclasses compiles
several methods per class, which every command would pay at start-up).
"""

import contextlib
import os


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} "
                         f"field {name!r}")


class Record:
    """Base of a record: a field per annotation of the class itself, in
    order (records do not inherit fields), and a class attribute named as
    a field is its default.

    The constructor takes the fields by position or keyword, then calls
    __post_init__.  Records of one class are equal when their fields
    are; _replace copies a record through the constructor, so with its
    checks, with some fields changed.  A class declared frozen=True
    refuses to assign or delete attributes and hashes its fields; other
    records are unhashable.
    """

    _fields, _defaults, __hash__ = (), {}, None

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = lambda self: hash(self._values())

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        odd = values.keys() ^ set(self._fields)
        if len(args) > len(self._fields) or given.keys() & kwargs or odd:
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{self._fields} once each; missing or unknown: "
                            f"{sorted(odd)}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


def _write_atomic(path, text):
    """Write text to a sibling temporary file, then rename it onto path.

    If the write or the rename fails, the temporary is removed and path
    keeps its old bytes.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
