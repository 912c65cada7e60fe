"""Shared report plumbing: status constants, read-only records, deterministic JSON."""

from __future__ import annotations

import json
import math

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


def jsonable(value):
    """Recursively convert report values into JSON-encodable primitives."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if hasattr(value, "as_dict"):
        return jsonable(value.as_dict())
    return str(value)


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
