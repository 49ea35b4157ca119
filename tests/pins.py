"""The pinned outputs of ``hecke_atlas``: the sha256 of each one's bytes,
checked against the manifest ``pins.json`` beside this file.

A manifest entry has a ``key``, a ``tier``, its ``sha256`` and what writes
its bytes: either ``argv``, a list of ``hecke_atlas.cli`` argument lists
run in order in one process, their stdout concatenated; or ``producer``,
the name of a function of ``PRODUCERS`` followed by its arguments.  An
argument that names a file of ``INPUTS`` is replaced by the path of that
file, written for the entry.

Tier-1 runs ``check`` on each ``fast`` entry in its own process
(``tests/test_acceptance.py``).  ``python -O tests/pins.py``, with the
package importable, runs it on each ``stretch`` entry in a fresh process
with the same ``-O``, then on the corpus suites of ``ONE_PROCESS`` once
more, all in one process.  It takes no options.  It prints ``key expected
actual`` for each digest that differs and ``key: command exited N`` for
each command that fails, and then exits 1.  To re-pin an entry, replace
its digest in the manifest by the actual one printed.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from hecke_atlas.cli import run
from hecke_atlas.hecke import unit_setting
from hecke_atlas.params import (
    LDSummand,
    build_ld_parameter,
    classical_ambients,
    discrete_parameters,
    parameter_to_json_dict,
)
from hecke_atlas.verify import run_suite, standard_inventory
from hecke_atlas.weil import (
    ONE,
    DualGroupDescriptor,
    DualityType,
    Family,
    InertialClass,
    InertialPoint,
    Inventory,
    SelfDual,
)

MANIFEST = pathlib.Path(__file__).with_name("pins.json")

# the corpus suites share memoized cuspidal shapes and depth pairs within a
# process: each must write the bytes it writes alone after the others ran
ONE_PROCESS = ("thm11-r13", "thm16-r10", "thm18-r10", "thm31-r12", "thm32-r12", "thm33-r30")


class CommandFailed(Exception):
    """A pin's producer failed, a command exiting non-zero or a count off,
    so its output is not hashed."""


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def extended_inventory() -> Inventory:
    """The six standard classes plus a ramified quadratic character ``chi``."""
    inv = Inventory(dict(standard_inventory().classes))
    inv.add(InertialClass("chi", 1, 1, SelfDual(DualityType.ORTHOGONAL, DualityType.ORTHOGONAL), "chi"))
    inv.validate()
    return inv


def _write_param(path, classes, phi) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"inventory": classes.to_json_list(), "parameter": parameter_to_json_dict(phi)}, fh)


def _so7_two_orbit(path) -> None:
    inv = extended_inventory()
    summands = [
        LDSummand(InertialPoint(inv["triv"], ONE), 1, 3),
        LDSummand(InertialPoint(inv["a"], ONE), 1, 2),
    ]
    _write_param(path, inv, build_ld_parameter(summands, DualGroupDescriptor(Family.ORTHOGONAL, 7)))


INPUTS = {
    "standard-classes.json": lambda path: standard_inventory().dump(path),
    "so7-two-orbit.json": _so7_two_orbit,
}


def _cli(argv) -> None:
    if code := run(argv):
        raise CommandFailed(f"{' '.join(argv)} exited {code}")


def _suite_report(suite, rank) -> str:
    """A suite's report as ``json.dumps`` writes it, with no trailing newline."""
    return json.dumps(run_suite(suite, rank), indent=2)


def _supports_and_hecke(cases) -> str:
    """stdout of ``supports`` and then ``hecke`` on each ``(classes, phi)``."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as sink:
        path = os.path.join(tmp, "param.json")
        for classes, phi in cases:
            _write_param(path, classes, phi)
            for command in ("supports", "hecke"):
                _cli([command, "--param", path])
        return sink.getvalue()


def _discrete_up_to_dimension_8() -> str:
    inventory = standard_inventory()
    phis = [phi for ambient in classical_ambients(8) for phi in discrete_parameters(inventory, ambient)]
    if len(phis) != 375:
        raise CommandFailed(f"{len(phis)} parameters, expected 375")
    return _supports_and_hecke([(inventory, phi) for phi in phis])


def _unitary_unit_settings() -> str:
    cases = []  # ranks 1 to 16, each with the inventory of its one class
    for m in range(1, 17):
        phi = unit_setting("unitary", m)
        (orbit,) = phi.orbits
        classes = Inventory()
        classes.add(orbit.cls)
        cases.append((classes, phi))
    return _supports_and_hecke(cases)


PRODUCERS = {
    "report": _suite_report,
    "discrete-up-to-dimension-8": _discrete_up_to_dimension_8,
    "unitary-unit-settings": _unitary_unit_settings,
}


def output(entry: dict) -> str:
    """The text that writes ``entry``'s pinned bytes; raises
    ``CommandFailed`` if a command exits non-zero."""
    if "producer" in entry:
        name, *args = entry["producer"]
        return PRODUCERS[name](*args)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as sink:
        for name in INPUTS.keys() & {arg for argv in entry["argv"] for arg in argv}:
            INPUTS[name](os.path.join(tmp, name))
        for argv in entry["argv"]:
            _cli([os.path.join(tmp, arg) if arg in INPUTS else arg for arg in argv])
        return sink.getvalue()


def check(keys) -> list[str]:
    """One line per entry of ``keys`` whose bytes, produced in turn in this
    process, miss its digest: ``key expected actual``, or the command that
    failed, whose output is not hashed."""
    entries = {entry["key"]: entry for entry in load()}
    failures = []
    for key in keys:
        try:
            actual = hashlib.sha256(output(entries[key]).encode()).hexdigest()
        except CommandFailed as exc:
            failures.append(f"{key}: {exc}")
            continue
        if actual != entries[key]["sha256"]:
            failures.append(f"{key} {entries[key]['sha256']} {actual}")
    return failures


CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import pins; print(*pins.check(sys.argv[2:]), sep='\\n', end='')"


def _check_in_fresh_process(keys) -> list[str]:
    """``check(keys)`` in a fresh process with this one's ``-O``."""
    argv = [sys.executable, *["-O"] * sys.flags.optimize, "-c", CHILD, str(MANIFEST.parent), *keys]
    done = subprocess.run(argv, capture_output=True, text=True)
    where = f" (in one process with {' '.join(keys)})" if len(keys) > 1 else ""
    failures = [line + where for line in done.stdout.splitlines()]
    if done.returncode:
        failures.append(f"the process of {' '.join(keys)} exited {done.returncode}:\n{done.stderr.rstrip()}")
    return failures


def main() -> int:
    keys = [entry["key"] for entry in load() if entry["tier"] == "stretch"]
    runs = [[key] for key in keys] + [[key for key in keys if key in ONE_PROCESS]]
    failures = [line for run_keys in runs if run_keys for line in _check_in_fresh_process(run_keys)]
    print("\n".join(failures) or f"{len(keys)} stretch pins hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
