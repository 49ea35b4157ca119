"""Command-line front end: parses arguments, reads input files and writes
canonical JSON.

Subcommands: ``enumerate`` (parameter corpora from an inventory file),
``supports`` / ``hecke`` (inspect a single parameter), ``specialize``
(explicit algebra tables), and ``verify`` (run one suite of
``hecke_atlas.verify`` and print its report).

All output is canonical JSON with exact string fractions: stdout, ``--out``
and ``--report`` hold byte for byte ``json.dumps(obj, indent=2)`` plus a
newline, non-ASCII characters escaped, which the tests pin.  Exit codes: 0 on
success, 1 when a verify report has a failed case (or a flagged one without
``--allow-flagged``), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Sequence

from .hecke import factor_to_json_dict, hecke_descriptor, specialize, sp_normalization
from .params import (
    discrete_parameters,
    is_supercuspidal_shape,
    normed_parameter,
    parameter_from_json_dict,
    parameter_to_json_dict,
)
from .support import _character_members, _support_members, cuspidal_pairs, supports
from .verify import SUITES, run_suite, standard_inventory  # standard_inventory: re-exported
from .weil import DualGroupDescriptor, Family, Inventory, json_field, json_typed

GROUP_AMBIENTS = {
    "sp": lambda n: DualGroupDescriptor(Family.ORTHOGONAL, 2 * n + 1),
    "so-odd": lambda n: DualGroupDescriptor(Family.SYMPLECTIC, 2 * n),
    "o-even": lambda n: DualGroupDescriptor(Family.ORTHOGONAL, 2 * n),
    "u": lambda n: DualGroupDescriptor(Family.UNITARY_L, n),
}


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value nested ``indent`` deep.

    The stdlib runs its C encoder only without an indent; with one it yields
    every token up through one generator frame per nesting level.  This
    builds the same text recursing only into containers, bools and None:
    the parent encodes its str and int elements inline, strings through the
    C ``encode_basestring_ascii``.  Dict keys must be str; values other than
    dict, list, tuple, str, int, bool and None raise TypeError.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{_quote(k)}: {_quote(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner)}"
            for k, v in value.items()
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(parts) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_quote(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{indent}]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):  # an int subclass (IntEnum) prints as its value, as in json
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(text: str, path: str | None = None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(data, path: str | None = None) -> None:
    _write(_json_text(data) + "\n", path)


# ---------------------------------------------------------------------------
# subcommands


def _load_param_file(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json_typed(json.load(fh), dict, "parameter file")
    inventory = Inventory.from_json_list(json_field(data, "inventory", "parameter file"))
    phi = parameter_from_json_dict(json_field(data, "parameter", "parameter file"), inventory)
    # support data is attached to the base point of the orbit
    return normed_parameter(phi)


def _cmd_enumerate(args) -> int:
    if args.rank <= 0:
        raise ValueError(f"rank must be positive, got {args.rank}")
    inventory = Inventory.load(args.classes)
    ambient = GROUP_AMBIENTS[args.group](args.rank)
    params = discrete_parameters(inventory, ambient)
    if args.cuspidal:
        params = [phi for phi in params if is_supercuspidal_shape(phi)]
    payload = {
        "group": args.group,
        "rank": args.rank,
        "ambient": {"family": ambient.family.value, "dim": ambient.ambient_dim},
        "parameters": [parameter_to_json_dict(p) for p in params],
    }
    _emit(payload, args.out)
    return 0


def _cmd_supports(args) -> int:
    # _emit([support_to_json_dict(p) ...]), with a support's shared members encoded once
    phi0 = _load_param_file(args.param)
    items = []
    for _, group in itertools.groupby(cuspidal_pairs(phi0), key=attrgetter("S")):
        group = list(group)
        shared = _member_texts(_support_members(group[0]))
        for p in group:
            members = shared + _member_texts(_character_members(p))
            items.append("{\n    " + ",\n    ".join(members) + "\n  }")
    _write("[\n  " + ",\n  ".join(items) + "\n]\n" if items else "[]\n")
    return 0


def _member_texts(members: dict) -> list[str]:
    """The members of a dict in the top-level list, as ``_json_text`` writes them."""
    return [_quote(k) + ": " + _json_text(v, "    ") for k, v in members.items()]


def _cmd_hecke(args) -> int:
    phi0 = _load_param_file(args.param)
    out = []
    for S in supports(phi0):
        desc = hecke_descriptor(phi0, S)
        out.append(
            {
                "S": {label: list(pair) for label, pair in S.entries},
                "factors": [
                    {"orbit": label, **factor_to_json_dict(sp_normalization(f))}
                    for label, f in desc.factors
                ],
            }
        )
    _emit(out)
    return 0


def _cmd_specialize(args) -> int:
    rows = specialize(args.kind.replace("-", "_"), args.rank)
    _emit(
        [
            {
                "pair": list(r.pair),
                "factor": factor_to_json_dict(r.factor),
                "bucket": r.bucket,
                "multiplicity": r.multiplicity,
            }
            for r in rows
        ]
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.max_rank)
    text = _json_text(report) + "\n"
    _write(text)
    if args.report:
        _write(text, args.report)
    if report["failed"]:
        return 1
    if report["flagged"] and not args.allow_flagged:
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; each ``parse_args`` call returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="hecke-atlas")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list parameters for a group from an inventory")
    p.add_argument("--group", choices=sorted(GROUP_AMBIENTS), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--classes", required=True, help="inventory JSON file")
    p.add_argument("--cuspidal", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("supports", help="cuspidal support data of one parameter")
    p.add_argument("--param", required=True)
    p.set_defaults(fn=_cmd_supports)

    p = sub.add_parser("hecke", help="algebra factors attached to each support")
    p.add_argument("--param", required=True)
    p.set_defaults(fn=_cmd_hecke)

    p = sub.add_parser("specialize", help="explicit table for a single-orbit setting")
    p.add_argument("--kind", choices=("so-odd", "sp", "o-even", "unitary"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(fn=_cmd_specialize)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--report")
    p.add_argument("--allow-flagged", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
