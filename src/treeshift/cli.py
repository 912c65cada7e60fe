"""Command line front end.

Subcommands ingest JSON documents (validated against the schemas shipped
under ``schemas/``), run the library certifiers, and emit deterministic
reports: byte-identical for identical inputs, no timestamps.  Exit codes:
0 certified/consistent, 1 refuted, 2 conditional, 3 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

from jsonschema.exceptions import ValidationError, best_match
from jsonschema.validators import validator_for

from . import consistency, models, moments, truncation
from .report import (
    CERTIFIED,
    CONDITIONAL,
    EXIT_CONDITIONAL,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_REFUTED,
    REFUTED,
    canonical_json,
    jsonable,
)
from .shift import weights_from_json
from .tree import tree_from_json, validate, vertex_from_key, vertex_to_key

DEFAULT_HORIZON = 16
DEFAULT_TOL = 1e-9
DEFAULT_I_LIST = (2, 4, 8, 16)

_STATUS_EXIT = {CERTIFIED: EXIT_OK, REFUTED: EXIT_REFUTED, CONDITIONAL: EXIT_CONDITIONAL}


class InputError(Exception):
    """Anything wrong with the inputs; mapped to exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """One structure holding every knob, echoed into every report."""

    subcommand: str
    horizon: int = DEFAULT_HORIZON
    tol: float = DEFAULT_TOL
    fmt: str = "json"
    i_list: tuple = DEFAULT_I_LIST

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "horizon": self.horizon,
            "tol": self.tol,
            "format": self.fmt,
            "i_list": list(self.i_list),
        }


@functools.cache
def _validator(name: str):
    """Validator for a shipped schema; the schemas themselves are checked
    against their meta-schema by the test suite, not on every document."""
    path = resources.files("treeshift.schemas").joinpath(f"{name}.v1.schema.json")
    schema = json.loads(path.read_text())
    return validator_for(schema)(schema)


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
        location = ValidationError("", path=bad).json_path
        raise InputError(f"non-finite number in {source} at {location}")
    return doc


def _check_schema(doc, schema_name: str, source: str) -> dict:
    error = best_match(_validator(schema_name).iter_errors(doc))
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
    return consistency.system_from_json(load_document(path, "system"))


def _load_sequences(path: str):
    doc = load_document(path, "sequences")
    return {
        vertex_from_key(k): tuple(v) for k, v in doc["sequences"].items()
    }


def _emit(report: dict, config: RunConfig) -> int:
    report = dict(report)
    report["config"] = config.as_dict()
    exit_code = report.get("exit_code", EXIT_OK)
    if config.fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(_render_text(report))
    return exit_code


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

    body = jsonable(obj)
    for k in sorted(body):
        walk(body[k], k, indent)
    return "\n".join(lines) + "\n"


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate_tree(args, config: RunConfig) -> int:
    tree = tree_from_json(load_document(args.tree, "tree"))
    report = validate(tree)
    return _emit(
        {
            "command": "validate-tree",
            "status": "valid" if report.ok else "invalid",
            "exit_code": EXIT_OK if report.ok else EXIT_REFUTED,
            "report": report.as_dict(),
            "vertex_count": len(tree),
        },
        config,
    )


def _cmd_moments(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    tree = shift.tree
    targets = (
        [vertex_from_key(args.vertex)] if args.vertex else list(tree.sorted_vertices)
    )
    table = {}
    for u in targets:
        avail = tree.available_depth(u)
        top = config.horizon if avail == float("inf") else int(min(config.horizon, avail))
        table[vertex_to_key(u)] = list(shift.moment_values(u, top))
    return _emit(
        {
            "command": "moments",
            "status": "ok",
            "exit_code": EXIT_OK,
            "norms_sq": table,
        },
        config,
    )


def _cmd_check_stieltjes(args, config: RunConfig) -> int:
    if args.t is not None:
        doc = _check_schema({"t": _decode_json(args.t, "--t")}, "moments", "--t")
    elif args.input is not None:
        doc = load_document(args.input, "moments")
    else:
        raise InputError("supply --t or --input")
    verdict = moments.check_stieltjes(doc["t"], tol=config.tol)
    return _emit(
        {
            "command": "check-stieltjes",
            "status": verdict.status,
            "exit_code": EXIT_OK if verdict.consistent else EXIT_REFUTED,
            "verdict": verdict.as_dict(),
        },
        config,
    )


def _cmd_backward_extend(args, config: RunConfig) -> int:
    if not math.isfinite(args.theta):
        raise InputError(f"--theta must be finite, got {args.theta}")
    mu = moments.measure_from_json(load_document(args.measure, "measure"))
    try:
        nu = moments.backward_extend(mu, args.theta)
    except moments.NoBackwardExtensionError as exc:
        return _emit(
            {
                "command": "backward-extend",
                "status": REFUTED,
                "exit_code": EXIT_REFUTED,
                "witness": {
                    "check": "inverse-moment-threshold",
                    "required": exc.required,
                    "given": exc.given,
                    "reason": str(exc),
                },
            },
            config,
        )
    n_max = max(2, min(config.horizon, 16))
    mu_moments = mu.moments(5)
    lower = (
        moments.cauchy_schwarz_bound(mu_moments)
        if all(t > 0 for t in mu_moments)
        else None
    )
    return _emit(
        {
            "command": "backward-extend",
            "status": "ok",
            "exit_code": EXIT_OK,
            "measure": nu.as_dict(),
            "moments": list(nu.moments(n_max)),
            "lower_bound_for_theta": lower,
        },
        config,
    )


def _cmd_check_consistency(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    system = _load_system(args.system)
    tree = shift.tree
    targets = (
        [vertex_from_key(args.vertex)]
        if args.vertex
        else [u for u in tree.sorted_vertices if tree.available_depth(u) >= 1]
    )
    depth = args.depth
    reports = []
    witness = None
    for u in targets:
        rep = consistency.propagate_check(system, shift, u, depth, tol=config.tol)
        reports.append(rep)
        if not rep.ok and witness is None:
            witness = {
                "vertex": vertex_to_key(u),
                "check": "consistency-identity",
                "depth": depth,
                "discrepancy": rep.max_discrepancy,
                "position": rep.discrepancy_position,
                "reason": rep.reason,
            }
    ok = witness is None
    return _emit(
        {
            "command": "check-consistency",
            "status": "consistent" if ok else REFUTED,
            "exit_code": EXIT_OK if ok else EXIT_REFUTED,
            "reports": [r.as_dict() for r in reports],
            "witness": witness,
        },
        config,
    )


def _cmd_truncate(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    system = _load_system(args.system)
    entry = truncation.truncate(system, shift, args.window)
    report = truncation.verify_truncated_consistency(entry, tol=config.tol)
    witness = None
    if not report.ok:
        bad = next((r for r in report.consistency if not r.ok), None)
        witness = {
            "vertex": bad.as_dict()["vertex"] if bad else None,
            "check": "truncated-consistency",
            "discrepancy": bad.max_discrepancy if bad else None,
            "reason": bad.reason if bad else "support or norm bound violation",
        }
    return _emit(
        {
            "command": "truncate",
            "status": "ok" if report.ok else REFUTED,
            "exit_code": EXIT_OK if report.ok else EXIT_REFUTED,
            "entry": entry.as_dict(),
            "verification": report.as_dict(),
            "witness": witness,
        },
        config,
    )


def _cmd_converge(args, config: RunConfig) -> int:
    shift = _load_shift(args)
    system = _load_system(args.system)
    u = vertex_from_key(args.vertex)
    table = truncation.convergence_report(system, shift, u, args.power, config.i_list)
    payload = {
        "command": "converge",
        "status": "ok",
        "exit_code": EXIT_OK,
        "table": table.as_dict(),
    }
    if config.fmt == "text":
        sys.stdout.write(table.as_text() + "\n")
        return EXIT_OK
    return _emit(payload, config)


def _cmd_certify(args, config: RunConfig) -> int:
    family = args.family
    if family == "unilateral":
        doc = load_document(args.weights, "weights")
        entries = doc["weights"]
        if entries and isinstance(entries[0], dict):
            raise InputError("unilateral certification expects a bare weight list")
        cert = models.certify_unilateral(entries, tol=config.tol)
        payload = cert.as_dict()
    elif family == "bilateral":
        doc = load_document(args.weights, "weights")
        entries = doc["weights"]
        if not entries or not isinstance(entries[0], dict):
            raise InputError(
                "bilateral certification expects vertex-keyed weights over a window"
            )
        weights = {}
        for item in entries:
            if not isinstance(item["v"], int):
                raise InputError("bilateral vertices are integers")
            weights[item["v"]] = complex(item.get("re", 0.0), item.get("im", 0.0))
        cert = models.certify_bilateral(weights, tol=config.tol)
        payload = cert.as_dict()
    elif family == "t-eta-kappa":
        doc = load_document(args.input, "branch")
        data = models.branch_data_from_json(doc)
        depth = min(config.horizon, 8)
        cert = models.certify_t_eta_kappa(
            data,
            depth=depth,
            tol=config.tol,
            conditional="branch_measures" not in doc,
        )
        payload = cert.as_dict()
    elif family == "general":
        shift = _load_shift(args)
        if (args.system is None) == (args.sequences is None):
            raise InputError("supply exactly one of --system or --sequences")
        if args.system is not None:
            system = _load_system(args.system)
            cert = consistency.certify_subnormal(
                shift, system, horizon=config.horizon, tol=config.tol
            )
        else:
            sequences = _load_sequences(args.sequences)
            try:
                cert = consistency.certify_subnormal(
                    shift,
                    sequences=sequences,
                    horizon=config.horizon,
                    tol=config.tol,
                )
            except moments.RefutedSequenceError as exc:
                verdict = exc.verdict
                payload = {
                    "command": "certify",
                    "family_mode": family,
                    "status": REFUTED,
                    "exit_code": EXIT_REFUTED,
                    "witness": {
                        "check": "hankel",
                        "reason": str(exc),
                        "verdict": verdict.as_dict() if verdict else None,
                    },
                }
                return _emit(payload, config)
        payload = cert.as_dict()
    else:
        raise InputError(f"unknown family {family!r}")
    status = payload["status"]
    payload.update(
        {
            "command": "certify",
            "family_mode": family,
            "exit_code": _STATUS_EXIT[status],
        }
    )
    return _emit(payload, config)


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
        choices=("general", "unilateral", "bilateral", "t-eta-kappa"),
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
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
