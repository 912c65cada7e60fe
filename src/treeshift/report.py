"""Shared report plumbing: status constants, read-only records, deterministic JSON."""

from __future__ import annotations

import json

#: stores a field of a :class:`Record`, which refuses plain assignment
set_field = object.__setattr__


class Record:
    """Read-only record: its fields are the public names in ``__slots__``,
    which ``__init__`` stores through :data:`set_field`.  Records compare and
    hash by their fields (by identity when declared with ``eq=False``), and
    their ``repr`` lists the fields."""

    __slots__ = ()

    def __init_subclass__(cls, eq=True):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        """(class, field values): copy and pickle rebuild from it, == and hash read it."""
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


CERTIFIED = "certified-up-to-horizon"
REFUTED = "refuted"
CONDITIONAL = "conditional"

CONSISTENT = "consistent-up-to-order-N"

#: exit codes used by the command line front end
EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_CONDITIONAL = 2
EXIT_INPUT_ERROR = 3

#: the exit code of every status a command reports
EXIT_CODE = {
    CERTIFIED: EXIT_OK, CONSISTENT: EXIT_OK, "consistent": EXIT_OK, "ok": EXIT_OK,
    "valid": EXIT_OK, REFUTED: EXIT_REFUTED, "invalid": EXIT_REFUTED,
    CONDITIONAL: EXIT_CONDITIONAL,
}


#: json's string escaper: ASCII output, in C where the ``_json`` accelerator is built
_escape = json.encoder.encode_basestring_ascii
#: the text of a non-finite float: a string in a report, json's literal inside a complex
_REPORT_FLOAT = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}
_JSON_FLOAT = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _encode(value, pad: str) -> str:
    """The JSON text of ``value`` at the indent ``pad`` (a newline and two
    spaces per level): dicts under ``str`` keys, lists and tuples as arrays,
    complex as ``{"im", "re"}``, records by ``as_dict``, the rest by ``str``."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _REPORT_FLOAT.get(text, text)
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        if not items:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_escape(k) + ": " + _encode(items[k], inner) for k in sorted(items)]
        ) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in value]) + pad + "]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, complex):
        im, re = (_JSON_FLOAT.get(t, t) for t in map(float.__repr__, (value.imag, value.real)))
        return f'{{{pad}  "im": {im},{pad}  "re": {re}{pad}}}'
    if hasattr(value, "as_dict"):
        return _encode(value.as_dict(), pad)
    return _escape(str(value))


def canonical_json(obj) -> str:
    """Deterministic JSON text in one pass: sorted keys, an indent of 2, a
    trailing newline; byte-equal to the standard encoder with those settings."""
    return _encode(obj, "\n") + "\n"
