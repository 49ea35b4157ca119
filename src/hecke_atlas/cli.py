"""Command-line front end: parses arguments, reads input files and writes
canonical JSON.

Subcommands: ``enumerate`` (parameter corpora from an inventory file),
``supports`` / ``hecke`` (inspect a single parameter), ``specialize``
(explicit algebra tables), and ``verify`` (run one suite of
``hecke_atlas.verify`` and print its report).

All output is canonical JSON with exact string fractions.  Exit codes: 0 on
success, 1 when a verify report has a failed case (or a flagged one without
``--allow-flagged``), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .hecke import factor_to_json_dict, hecke_descriptor, specialize, sp_normalization
from .params import (
    discrete_parameters,
    is_supercuspidal_shape,
    normed_parameter,
    parameter_from_json_dict,
    parameter_to_json_dict,
)
from .support import cuspidal_pairs, support_to_json_dict, supports
from .verify import SUITES, run_suite, standard_inventory  # standard_inventory: re-exported
from .weil import DualGroupDescriptor, Family, Inventory, json_field, json_typed

GROUP_AMBIENTS = {
    "sp": lambda n: DualGroupDescriptor(Family.ORTHOGONAL, 2 * n + 1),
    "so-odd": lambda n: DualGroupDescriptor(Family.SYMPLECTIC, 2 * n),
    "o-even": lambda n: DualGroupDescriptor(Family.ORTHOGONAL, 2 * n),
    "u": lambda n: DualGroupDescriptor(Family.UNITARY_L, n),
}


def _emit(data, path: str | None = None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _load_param_file(path: str):
    with open(path) as fh:
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
    phi0 = _load_param_file(args.param)
    _emit([support_to_json_dict(p) for p in cuspidal_pairs(phi0)])
    return 0


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
    _emit(report)
    if args.report:
        _emit(report, args.report)
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
