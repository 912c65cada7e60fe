"""Command line front end.

Subcommands ingest JSON documents (validated against the schemas shipped
under ``schemas/``), run the library certifiers, and emit deterministic
reports: byte-identical for identical inputs, no timestamps.  Exit codes:
``report.EXIT_CODE`` maps each reported status to 0 (certified, consistent),
1 (refuted) or 2 (conditional); an input error exits 3.

Only the input layer (``report``, ``tree``, ``shift``) is imported with this
module.  Each handler imports the certifier modules it calls once its input
documents are parsed and checked, so a process pays for the moment engine and
the certifiers only when its subcommand runs them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from importlib import resources

from .report import (
    EXIT_CODE,
    EXIT_INPUT_ERROR,
    REFUTED,
    Record,
    canonical_json,
    set_field,
)
from .shift import keyed_weights, vertex_keyed, weights_from_json
from .tree import UnknownVertexError, tree_from_json, validate, vertex_from_key, vertex_to_key

DEFAULT_HORIZON = 16
DEFAULT_TOL = 1e-9
DEFAULT_I_LIST = (2, 4, 8, 16)

class InputError(Exception):
    """Anything wrong with the inputs; mapped to exit code 3."""


class RunConfig(Record):
    """One structure holding every knob, echoed into every report."""

    __slots__ = ("subcommand", "horizon", "tol", "fmt", "i_list")

    def __init__(
        self, subcommand: str, horizon: int = DEFAULT_HORIZON, tol: float = DEFAULT_TOL,
        fmt: str = "json", i_list: tuple = DEFAULT_I_LIST,
    ):
        set_field(self, "subcommand", subcommand)
        set_field(self, "horizon", horizon)
        set_field(self, "tol", tol)
        set_field(self, "fmt", fmt)
        set_field(self, "i_list", i_list)

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "horizon": self.horizon,
            "tol": self.tol,
            "format": self.fmt,
            "i_list": list(self.i_list),
        }


# -- document schemas ---------------------------------------------------------
#
# The shipped v1 schemas use a small subset of JSON Schema 2020-12; Schema
# checks exactly that subset and refuses any other keyword when it is built.
# Errors are chosen as jsonschema's ``best_match`` chooses them and worded as
# jsonschema words them, so a violation reads the same as it would there.

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (
        isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and v.is_integer()
    ),
}
_ANNOTATIONS = frozenset({"$id", "$schema", "title"})
_WEAK = frozenset({"oneOf", "anyOf"})
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _json_path(path) -> str:
    """JSONPath of a location given as a sequence of keys and indices."""
    out = "$"
    for elem in path:
        if isinstance(elem, int):
            out += f"[{elem}]"
        elif _PLAIN_KEY.match(elem):
            out += "." + elem
        else:
            out += "['" + elem.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


class Violation:
    """One failed keyword: the instance and (sub)schema it failed on, its
    location relative to the parent error's instance (or to the document),
    and, for ``oneOf``/``anyOf``, the errors of every branch tried."""

    __slots__ = ("keyword", "message", "instance", "schema", "path", "context", "parent")

    def __init__(self, keyword, message, instance, schema, context=()):
        self.keyword = keyword
        self.message = message
        self.instance = instance
        self.schema = schema
        self.path = ()
        self.context = context
        self.parent = None
        for error in context:
            error.parent = self

    @property
    def json_path(self) -> str:
        path = self.path
        parent = self.parent
        while parent is not None:
            path = parent.path + path
            parent = parent.parent
        return _json_path(path)

    def relevance(self) -> tuple:
        """jsonschema's ``relevance`` key; the largest ranks best: shallow
        errors, then later siblings, keywords other than ``oneOf``/``anyOf``,
        and instances off the failing schema's own type."""
        expected = self.schema.get("type")
        matches = expected is not None and _TYPES[expected](self.instance)
        return (-len(self.path), self.path, self.keyword not in _WEAK, False, not matches)


def _equal(one, two) -> bool:
    """JSON equality: ``True`` is not ``1``, in containers too."""
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(
            key in two and _equal(value, two[key]) for key, value in one.items()
        )
    if isinstance(one, bool) or isinstance(two, bool):
        return one is two
    return one == two


def _descend(instance, schema, key):
    for error in _errors(instance, schema):
        error.path = (key,) + error.path
        yield error


def _kw_type(expected, instance, schema):
    if not _TYPES[expected](instance):
        yield Violation("type", f"{instance!r} is not of type {expected!r}", instance, schema)


def _kw_properties(properties, instance, schema):
    if isinstance(instance, dict):
        for key, subschema in properties.items():
            if key in instance:
                yield from _descend(instance[key], subschema, key)


def _kw_additional_properties(extra, instance, schema):
    if not isinstance(instance, dict):
        return
    known = schema.get("properties", {})
    extras = [key for key in instance if key not in known]
    if extra is not False:
        for key in extras:
            yield from _descend(instance[key], extra, key)
    elif extras:
        names = ", ".join(repr(key) for key in sorted(extras, key=str))
        verb = "was" if len(extras) == 1 else "were"
        yield Violation(
            "additionalProperties",
            f"Additional properties are not allowed ({names} {verb} unexpected)",
            instance,
            schema,
        )


def _kw_required(names, instance, schema):
    if isinstance(instance, dict):
        for name in names:
            if name not in instance:
                yield Violation("required", f"{name!r} is a required property", instance, schema)


def _kw_items(subschema, instance, schema):
    if isinstance(instance, list):
        for index, item in enumerate(instance):
            yield from _descend(item, subschema, index)


def _kw_min_items(bound, instance, schema):
    if isinstance(instance, list) and len(instance) < bound:
        message = "should be non-empty" if bound == 1 else "is too short"
        yield Violation("minItems", f"{instance!r} {message}", instance, schema)


def _kw_max_items(bound, instance, schema):
    if isinstance(instance, list) and len(instance) > bound:
        message = "is expected to be empty" if bound == 0 else "is too long"
        yield Violation("maxItems", f"{instance!r} {message}", instance, schema)


def _kw_minimum(bound, instance, schema):
    if _TYPES["number"](instance) and instance < bound:
        message = f"{instance!r} is less than the minimum of {bound!r}"
        yield Violation("minimum", message, instance, schema)


def _kw_const(value, instance, schema):
    if not _equal(instance, value):
        yield Violation("const", f"{value!r} was expected", instance, schema)


def _kw_enum(values, instance, schema):
    if not any(_equal(value, instance) for value in values):
        yield Violation("enum", f"{instance!r} is not one of {values!r}", instance, schema)


def _kw_any_of(branches, instance, schema):
    context = []
    for subschema in branches:
        errors = list(_errors(instance, subschema))
        if not errors:
            return
        context.extend(errors)
    message = f"{instance!r} is not valid under any of the given schemas"
    yield Violation("anyOf", message, instance, schema, context)


def _kw_one_of(branches, instance, schema):
    context = []
    for index, subschema in enumerate(branches):
        errors = list(_errors(instance, subschema))
        if not errors:
            break
        context.extend(errors)
    else:
        message = f"{instance!r} is not valid under any of the given schemas"
        yield Violation("oneOf", message, instance, schema, context)
        return
    more = [s for s in branches[index + 1 :] if next(_errors(instance, s), None) is None]
    if more:
        reprs = ", ".join(repr(s) for s in [*more, branches[index]])
        yield Violation("oneOf", f"{instance!r} is valid under each of {reprs}", instance, schema)


_KEYWORDS = {
    "type": _kw_type,
    "properties": _kw_properties,
    "additionalProperties": _kw_additional_properties,
    "required": _kw_required,
    "items": _kw_items,
    "minItems": _kw_min_items,
    "maxItems": _kw_max_items,
    "minimum": _kw_minimum,
    "const": _kw_const,
    "enum": _kw_enum,
    "anyOf": _kw_any_of,
    "oneOf": _kw_one_of,
}


def _errors(instance, schema):
    """Every error of ``instance`` against ``schema``, keywords in schema order."""
    for keyword, value in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is not None:
            yield from check(value, instance, schema)


def _check_keywords(schema) -> None:
    """Raise ValueError unless every rule in ``schema`` is one that
    :func:`_errors` checks."""
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported schema {schema!r}")
    for keyword, value in schema.items():
        if keyword in _ANNOTATIONS:
            continue
        if keyword not in _KEYWORDS:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
        if keyword == "type" and not (isinstance(value, str) and value in _TYPES):
            raise ValueError(f"unsupported schema type {value!r}")
        if keyword == "properties":
            subschemas = value.values()
        elif keyword in ("oneOf", "anyOf"):
            subschemas = value
        elif keyword == "items" or keyword == "additionalProperties" and value is not False:
            subschemas = (value,)
        else:
            subschemas = ()
        for subschema in subschemas:
            _check_keywords(subschema)


class Schema:
    """A document schema in the supported subset of JSON Schema 2020-12."""

    def __init__(self, schema: dict):
        _check_keywords(schema)
        self.schema = schema

    def best_match(self, instance) -> Violation | None:
        """The error jsonschema's ``best_match`` would pick, or None."""
        key = Violation.relevance
        best = max(_errors(instance, self.schema), key=key, default=None)
        while best is not None and best.context:
            smallest = sorted(best.context, key=key)[:2]
            if len(smallest) == 2 and key(smallest[0]) == key(smallest[1]):
                break
            best = smallest[0]
        return best


def _schema(name: str) -> Schema:
    """A shipped schema.  The test suite checks the files against their
    meta-schema; loading checks only that every keyword is supported."""
    path = resources.files("treeshift.schemas").joinpath(f"{name}.v1.schema.json")
    return Schema(json.loads(path.read_text()))


def _non_finite_path(value, path=()):
    """Location of the first NaN or infinity in a decoded JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite_path(item, path + (key,))
        if found is not None:
            return found
    return None


def _decode_json(text: str, source: str):
    """Decode JSON text, rejecting NaN and infinities (``NaN``, ``Infinity``
    and overflowing literals such as ``1e400``) with their location."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    bad = _non_finite_path(doc)
    if bad is not None:
        raise InputError(f"non-finite number in {source} at {_json_path(bad)}")
    return doc


def _check_schema(doc, schema_name: str, source: str) -> dict:
    error = _schema(schema_name).best_match(doc)
    if error is not None:
        raise InputError(
            f"schema violation in {source} at {error.json_path}: {error.message}"
        )
    return doc


def load_document(path: str, schema_name: str) -> dict:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_document(text, schema_name, source=path)


def parse_document(text: str, schema_name: str, source: str = "<inline>") -> dict:
    return _check_schema(_decode_json(text, source), schema_name, source)


def _load_shift(args):
    tree = tree_from_json(load_document(args.tree, "tree"))
    report = validate(tree)
    if not report.ok:
        raise InputError("invalid tree: " + "; ".join(report.violations))
    return weights_from_json(load_document(args.weights, "weights"), tree)


def _load_system(path: str):
    doc = load_document(path, "system")
    from . import consistency

    return consistency.system_from_json(doc)


def _load_sequences(path: str):
    doc = load_document(path, "sequences")
    return {
        vertex_from_key(k): tuple(v) for k, v in doc["sequences"].items()
    }


def _emit(config: RunConfig, status: str, text: str | None = None, **fields) -> int:
    """Write the report of a run that reached ``status`` and return the
    status's exit code; ``text``, if given, is the report under ``--format
    text``."""
    report = {
        "command": config.subcommand, "status": status, "exit_code": EXIT_CODE[status],
        **fields, "config": config.as_dict(),
    }
    if config.fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(_render_text(report) if text is None else text + "\n")
    return report["exit_code"]


def _render_text(obj, indent: str = "") -> str:
    lines = []

    def walk(value, key, pad):
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in sorted(value):
                walk(value[k], k, pad + "  ")
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: [{len(value)} items]")
            for i, item in enumerate(value):
                walk(item, str(i), pad + "  ")
        else:
            lines.append(f"{pad}{key}: {value}")

    # the report's own JSON text, read back: the text shows what the JSON shows
    body = json.loads(canonical_json(obj))
    for k in sorted(body):
        walk(body[k], k, indent)
    return "\n".join(lines) + "\n"


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate_tree(args, config: RunConfig) -> int:
    tree = tree_from_json(load_document(args.tree, "tree"))
    report = validate(tree)
    status = "valid" if report.ok else "invalid"
    return _emit(config, status, report=report.as_dict(), vertex_count=len(tree))


def _cmd_moments(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    norms = shift.power_norms(config.horizon)
    if args.vertex:
        u = vertex_from_key(args.vertex)
        if u not in norms:
            raise UnknownVertexError(u)
        norms = {u: norms[u]}
    return _emit(config, "ok", norms_sq={vertex_to_key(u): list(row) for u, row in norms.items()})


def _cmd_check_stieltjes(args, config: RunConfig) -> int:
    if args.t is not None:
        doc = _check_schema({"t": _decode_json(args.t, "--t")}, "moments", "--t")
    elif args.input is not None:
        doc = load_document(args.input, "moments")
    else:
        raise InputError("supply --t or --input")
    from . import moments

    verdict = moments.check_stieltjes(doc["t"], tol=config.tol)
    return _emit(config, verdict.status, verdict=verdict.as_dict())


def _cmd_backward_extend(args, config: RunConfig) -> int:
    if not math.isfinite(args.theta):
        raise InputError(f"--theta must be finite, got {args.theta}")
    doc = load_document(args.measure, "measure")
    from . import moments

    mu = moments.measure_from_json(doc)
    try:
        nu = moments.backward_extend(mu, args.theta)
    except moments.NoBackwardExtensionError as exc:
        witness = {
            "check": "inverse-moment-threshold",
            "required": exc.required,
            "given": exc.given,
            "reason": str(exc),
        }
        return _emit(config, REFUTED, witness=witness)
    n_max = max(2, min(config.horizon, 16))
    mu_moments = mu.moments(5)
    lower = (
        moments.cauchy_schwarz_bound(mu_moments)
        if all(t > 0 for t in mu_moments)
        else None
    )
    return _emit(
        config, "ok", measure=nu.as_dict(), moments=list(nu.moments(n_max)),
        lower_bound_for_theta=lower,
    )


def _cmd_check_consistency(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    system = _load_system(args.system)
    from . import consistency

    depth = args.depth
    if args.vertex:
        u = vertex_from_key(args.vertex)
        reports = [consistency.propagate_check(system, shift, u, depth, tol=config.tol)]
    else:
        reports = consistency.identity_reports(system, shift, depth, tol=config.tol)
        if not reports:
            tree = shift.tree
            height = max((tree.available_depth(u) for u in tree.sorted_vertices), default=0)
            raise InputError(f"--depth {depth} exceeds the window height {height}")
    witness = consistency.identity_witness(reports, depth=depth)
    status = "consistent" if witness is None else REFUTED
    return _emit(config, status, reports=[r.as_dict() for r in reports], witness=witness)


def _cmd_truncate(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    system = _load_system(args.system)
    from . import truncation

    entry = truncation.truncate(system, shift, args.window)
    report = truncation.verify_truncated_consistency(entry, tol=config.tol)
    return _emit(
        config, "ok" if report.ok else REFUTED, entry=entry.as_dict(),
        verification=report.as_dict(), witness=report.witness,
    )


def _cmd_converge(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    system = _load_system(args.system)
    from . import truncation

    u = vertex_from_key(args.vertex)
    table = truncation.convergence_report(system, shift, u, args.power, config.i_list)
    return _emit(config, "ok", text=table.as_text(), table=table.as_dict())


#: the document flags that each ``certify --family`` reads
CERTIFY_DOCUMENTS = {
    "general": ("tree", "weights"), "unilateral": ("weights",), "bilateral": ("weights",),
    "t-eta-kappa": ("input",),
}


def _cmd_certify(args, config: RunConfig) -> int:
    family = args.family
    missing = [f"--{flag}" for flag in CERTIFY_DOCUMENTS[family] if getattr(args, flag) is None]
    if missing:
        raise InputError(f"--family {family} needs {' and '.join(missing)}")
    if family in ("unilateral", "bilateral"):
        entries = load_document(args.weights, "weights")["weights"]
    if family == "unilateral":
        if entries and vertex_keyed(entries):
            raise InputError("unilateral certification expects a bare weight list")
        from . import models

        cert = models.certify_unilateral(entries, tol=config.tol)
    elif family == "bilateral":
        if not entries or not vertex_keyed(entries):
            raise InputError(
                "bilateral certification expects vertex-keyed weights over a window"
            )
        weights = keyed_weights(entries)
        if not all(isinstance(v, int) for v in weights):
            raise InputError("bilateral vertices are integers")
        from . import models

        cert = models.certify_bilateral(weights, tol=config.tol)
    elif family == "t-eta-kappa":
        doc = load_document(args.input, "branch")
        from . import models

        data = models.branch_data_from_json(doc)
        depth = min(config.horizon, 8)
        cert = models.certify_t_eta_kappa(data, depth=depth, tol=config.tol)
    else:
        shift = _load_shift(args)
        if (args.system is None) == (args.sequences is None):
            raise InputError("supply exactly one of --system or --sequences")
        system = _load_system(args.system) if args.system is not None else None
        sequences = _load_sequences(args.sequences) if args.sequences is not None else None
        from . import consistency

        cert = consistency.certify_subnormal(
            shift, system, sequences, horizon=config.horizon, tol=config.tol
        )
    payload = cert.as_dict()
    return _emit(config, payload.pop("status"), family_mode=family, **payload)


# -- argument parsing ---------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--horizon", type=int, default=None, help="depth horizon (default 16)")
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="numeric tolerance (default: env TREESHIFT_TOL if set, else 1e-9)",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--i-list",
        default=None,
        help="comma-separated truncation windows (default 2,4,8,16)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Moment-based subnormality certification for weighted shifts on directed trees.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate-tree", help="check the directed-tree axioms")
    p.add_argument("--tree", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_validate_tree)

    p = sub.add_parser("moments", help="per-vertex squared power norms")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--vertex", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("check-stieltjes", help="Hankel positivity test for a sequence")
    p.add_argument("--input", default=None, help="moments document")
    p.add_argument("--t", default=None, help="inline JSON array of moments")
    _add_common(p)
    p.set_defaults(handler=_cmd_check_stieltjes)

    p = sub.add_parser("backward-extend", help="prepend a moment to a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--theta", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_backward_extend)

    p = sub.add_parser("check-consistency", help="verify the vertex identity")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--vertex", default=None)
    p.add_argument("--depth", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_cmd_check_consistency)

    p = sub.add_parser("truncate", help="build and verify one truncation entry")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--window", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_truncate)

    p = sub.add_parser("converge", help="truncation convergence table")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--power", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("certify", help="run a certifier")
    p.add_argument(
        "--family",
        required=True,
        choices=tuple(CERTIFY_DOCUMENTS),
    )
    p.add_argument("--tree", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--system", default=None)
    p.add_argument("--sequences", default=None)
    p.add_argument("--input", default=None, help="branch data document")
    _add_common(p)
    p.set_defaults(handler=_cmd_certify)

    return parser


def _config_from_args(args) -> RunConfig:
    tol = args.tol
    if tol is None:
        env = os.environ.get("TREESHIFT_TOL")
        try:
            tol = float(env) if env else DEFAULT_TOL
        except ValueError as exc:
            raise InputError(f"bad TREESHIFT_TOL: {exc}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be positive and finite, got {tol}")
    horizon = args.horizon if args.horizon is not None else DEFAULT_HORIZON
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    if args.i_list is not None:
        try:
            i_list = tuple(int(tok) for tok in args.i_list.split(",") if tok.strip())
        except ValueError as exc:
            raise InputError(f"bad --i-list: {exc}") from exc
        if not i_list or any(i < 1 for i in i_list):
            raise InputError("--i-list needs positive integers")
    else:
        i_list = DEFAULT_I_LIST
    return RunConfig(
        subcommand=args.subcommand,
        horizon=horizon,
        tol=tol,
        fmt=args.format,
        i_list=tuple(sorted(set(i_list))),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.handler(args, config)
    except (InputError, ValueError, KeyError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
