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
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .hecke import (
    UNIT_AMBIENTS,
    UNIT_KINDS,
    HeckeFactor,
    factor_to_json_dict,
    hecke_descriptor,
    sp_normalization,
    specialize,
)
from .params import (
    LDParameter,
    discrete_parameters,
    is_supercuspidal_shape,
    normed_parameter,
    parameter_from_json_dict,
)
from .support import SupportDatum, cuspidal_pairs, supports
from .verify import SUITES, run_suite, standard_inventory
from .weil import DualGroupDescriptor, Inventory, half_integer_str, json_field, json_typed, read_json_file

# standard_inventory is re-exported: the benchmark builds its inputs from it
__all__ = ["GROUP_AMBIENTS", "build_parser", "run", "main", "standard_inventory"]

# enumerate's group names for the unit settings' dual ambients
GROUP_AMBIENTS = {
    "u" if kind == "unitary" else kind.replace("_", "-"): ambient for kind, ambient in UNIT_AMBIENTS.items()
}


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value nested ``indent`` deep.

    The stdlib runs its C encoder only without an indent; with one it yields
    every token up through one generator frame per nesting level.  This
    builds the same text recursing only into containers, bools and None:
    the parent encodes its str and int elements inline, strings through the
    C ``encode_basestring_ascii``.  Dict keys must be str; values other than
    dict, list, tuple, str, int, bool and None raise TypeError, and so does a
    subclass of list or tuple, such as a NamedTuple record.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        parts = [
            f"{_quote(k)}: {_quote(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner)}"
            for k, v in value.items()
        ]
        return _container(parts, indent, "{}")
    if type(value) in (list, tuple):
        parts = [_quote(v) if type(v) is str else repr(v) if type(v) is int else _json_text(v, inner) for v in value]
        return _container(parts, indent, "[]")
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


def _container(parts: list[str], indent: str, brackets: str) -> str:
    """The JSON container ``brackets`` of the written ``parts``, nested ``indent`` deep."""
    if not parts:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{indent}{brackets[1]}"


# The writers below return ``_json_text`` of a reference dict, written straight
# from the record; tests pin each to ``json.dumps`` of its reference dict.


def _ambient_text(ambient: DualGroupDescriptor, indent: str) -> str:
    """``_json_text({"family": ambient.family.value, "dim": ambient.ambient_dim}, indent)``."""
    i1 = indent + "  "
    return f'{{\n{i1}"family": {_quote(ambient.family.value)},\n{i1}"dim": {ambient.ambient_dim!r}\n{indent}}}'


def _parameter_text(phi: LDParameter, indent: str) -> str:
    """``_json_text(parameter_to_json_dict(phi), indent)``."""
    i1, i2, i3, i4 = (indent + "  " * k for k in range(1, 5))
    summands = [
        f'{{\n{i3}"class": {_quote(s.point.cls.label)},\n{i3}"f": {{\n{i4}"root": "{s.point.f.rn}/{s.point.f.d}",'
        f'\n{i4}"qexp": "{s.point.f.e2}/2"\n{i3}}},\n{i3}"a": {s.sl2_dim!r},\n{i3}"mult": {s.multiplicity!r}\n{i2}}}'
        for s in phi.summands
    ]
    return (
        f'{{\n{i1}"ambient": {_ambient_text(phi.ambient, i1)},'
        f'\n{i1}"summands": {_container(summands, i1, "[]")}\n{indent}}}'
    )


def _support_datum_text(S: SupportDatum, indent: str) -> str:
    """``_json_text({label: list(pair) for label, pair in S.entries}, indent)``."""
    i1, i2 = indent + "  ", indent + "    "
    entries = [f"{_quote(label)}: [\n{i2}{a!r},\n{i2}{b!r}\n{i1}]" for label, (a, b) in S.entries]
    return _container(entries, indent, "{}")


def _factor_text(label: str, f: HeckeFactor) -> str:
    """``_json_text({"orbit": label, **factor_to_json_dict(f)}, "      ")``."""
    return (
        f'{{\n        "orbit": {_quote(label)},\n        "family": {_quote(f.family)},\n        "size": {f.size!r},'
        f'\n        "extended": {"true" if f.extended else "false"},\n        "t": {f.t!r},'
        f'\n        "internal": "{half_integer_str(f.internal)}",\n        "endLong": "{half_integer_str(f.end_long)}",'
        f'\n        "endShort": "{half_integer_str(f.end_short)}"\n      }}'
    )


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
    data = json_typed(read_json_file(path, "parameter file"), dict, "parameter file")
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
    # _emit({"group", "rank", "ambient", "parameters": [parameter_to_json_dict(p) ...]})
    entries = [_parameter_text(phi, "    ") for phi in params]
    _write(
        f'{{\n  "group": {_quote(args.group)},\n  "rank": {args.rank!r},\n  "ambient": {_ambient_text(ambient, "  ")},'
        f'\n  "parameters": {_container(entries, "  ", "[]")}\n}}\n',
        args.out,
    )
    return 0


def _cmd_supports(args) -> int:
    # _emit([support_to_json_dict(p, eps) for p in cuspidal_pairs(phi0) for eps in p.epsilons])
    # with the reference dict of tests/test_support.py, a support's shared members written once
    phi0 = _load_param_file(args.param)
    items = []
    for p in cuspidal_pairs(phi0):
        tail = p.phi_S.ambient
        gl = [f"[\n          {d!r},\n          {m!r}\n        ]" for d, m in p.gl_factors]
        shared = (
            f'{{\n    "S": {_support_datum_text(p.S, "    ")},\n    "phiS": {_parameter_text(p.phi_S, "    ")},'
            f'\n    "LS": {tail.ambient_dim!r},\n    "lS": {p.l_S!r},\n    "dS": "{"+" if p.d_S == 1 else "-"}",'
            f'\n    "levi": {{\n      "gl": {_container(gl, "      ", "[]")},\n      "tail": {{'
            f'\n        "family": {_quote(tail.family.value)},\n        "dim": {tail.ambient_dim!r},'
            f'\n        "rank": {p.l_S!r}\n      }}\n    }},\n    "epsilon": '
        )
        for eps in p.epsilons:
            epsilon = _container([f"{_quote(gen)}: {v!r}" for gen, v in eps.values], "    ", "{}")
            items.append(f'{shared}{epsilon},\n    "epsZ": {eps.eps_Z!r}\n  }}')
    _write(_container(items, "", "[]") + "\n")
    return 0


def _cmd_hecke(args) -> int:
    # _emit([{"S": ..., "factors": [{"orbit": label, **factor_to_json_dict(sp_normalization(f))} ...]} ...])
    phi0 = _load_param_file(args.param)
    items = []
    for S in supports(phi0):
        factors = [_factor_text(label, sp_normalization(f)) for label, f in hecke_descriptor(phi0, S)]
        items.append(
            f'{{\n    "S": {_support_datum_text(S, "    ")},\n    "factors": {_container(factors, "    ", "[]")}\n  }}'
        )
    _write(_container(items, "", "[]") + "\n")
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
    p.add_argument("--kind", choices=[kind.replace("_", "-") for kind in UNIT_KINDS], required=True)
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
