import contextlib
import copy
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hecke_atlas import centralizer, hecke, params, support, verify, weyl
from hecke_atlas.cli import GROUP_AMBIENTS, _emit, run
from hecke_atlas.hecke import derived_rows, factor_to_json_dict, hecke_descriptor, sp_normalization
from hecke_atlas.params import (
    LDSummand,
    build_ld_parameter,
    classical_ambients,
    discrete_parameters,
    is_supercuspidal_shape,
    normed_corpus,
    parameter_from_json_dict,
    parameter_to_json_dict,
)
from hecke_atlas.support import cuspidal_pairs, supports
from hecke_atlas.verify import run_suite, standard_inventory
from hecke_atlas.weil import (
    MINUS_ONE,
    DualGroupDescriptor,
    DualityType,
    Family,
    InertialClass,
    InertialPoint,
    Inventory,
    NotSelfDual,
    SelfDual,
    UnitMonomial,
    json_field,
    json_typed,
)
from test_support import support_to_json_dict


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_rank_must_be_positive(tmp_path, capsys):
    inv = tmp_path / "inv.json"
    standard_inventory().dump(inv)
    assert run(["enumerate", "--group", "sp", "--rank", "0", "--classes", str(inv)]) == 2
    assert capsys.readouterr() == ("", "error: rank must be positive, got 0\n")
    assert run(["specialize", "--kind", "sp", "--rank", "-1"]) == 2


def test_one_process_serves_several_calls(tmp_path, capsys):
    """The parser is built once per process; no call leaks state into the next."""
    param = str(_param_file(tmp_path, lambda d: None))
    assert run(["supports", "--param", param]) == 0
    alone = capsys.readouterr().out
    assert run(["supports", "--parm", param]) == 2
    capsys.readouterr()
    assert run(["supports", "--param", param]) == 0
    assert capsys.readouterr().out == alone
    assert run(["verify", "--suite", "thm33", "--max-rank", "4", "--allow-flagged"]) == 0
    assert run(["verify", "--suite", "thm33", "--max-rank", "4"]) == 1


def test_bad_inputs_exit_2(tmp_path):
    assert run(["supports", "--param", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["supports", "--param", str(bad)]) == 2
    # argparse rejects unknown suites/flags with its own exit code
    assert run(["verify", "--suite", "nope"]) == 2
    assert run(["verify", "--suite", "lemA3", "--frobnicate"]) == 2


def test_enumerate_and_inspect_round_trip(tmp_path, capsys):
    inv_path = tmp_path / "inv.json"
    standard_inventory().dump(inv_path)
    out_path = tmp_path / "params.json"
    code = run(
        [
            "enumerate",
            "--group",
            "sp",
            "--rank",
            "2",
            "--classes",
            str(inv_path),
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["ambient"] == {"family": "orthogonal", "dim": 5}
    assert data["parameters"]

    param_path = tmp_path / "p.json"
    param_path.write_text(
        json.dumps(
            {
                "inventory": json.loads(inv_path.read_text()),
                "parameter": data["parameters"][0],
            }
        )
    )
    assert run(["supports", "--param", str(param_path)]) == 0
    sup = out_json(capsys)
    assert sup and all({"S", "phiS", "LS", "lS", "dS", "levi", "epsilon"} <= set(p) for p in sup)
    assert run(["hecke", "--param", str(param_path)]) == 0
    hk = out_json(capsys)
    assert hk and all("factors" in row for row in hk)


def test_enumerate_cuspidal_is_subset(tmp_path, capsys):
    inv_path = tmp_path / "inv.json"
    standard_inventory().dump(inv_path)
    args = ["enumerate", "--group", "o-even", "--rank", "2", "--classes", str(inv_path)]
    assert run(args) == 0
    all_params = out_json(capsys)["parameters"]
    assert run(args + ["--cuspidal"]) == 0
    cuspidal = out_json(capsys)["parameters"]
    digests = [json.dumps(p) for p in all_params]
    assert all(json.dumps(p) in digests for p in cuspidal)
    assert len(cuspidal) < len(all_params)


def test_specialize_so_odd_rank2(capsys):
    assert run(["specialize", "--kind", "so-odd", "--rank", "2"]) == 0
    rows = out_json(capsys)
    assert len(rows) == 4
    assert {tuple(r["pair"]) for r in rows} == {(0, 0), (2, 0), (0, 2), (2, 2)}
    for r in rows:
        assert isinstance(r["factor"]["endLong"], str)  # exact fraction strings


def test_verify_lemA3(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    code = run(["verify", "--suite", "lemA3", "--max-rank", "4", "--report", str(report_path)])
    assert code == 0
    report = out_json(capsys)
    assert report["suite"] == "lemA3"
    assert report["failed"] == 0 and report["flagged"] == 0
    assert json.loads(report_path.read_text()) == report


def test_verify_flagged_needs_opt_in(capsys):
    assert run(["verify", "--suite", "thm32", "--max-rank", "2"]) == 1
    capsys.readouterr()
    assert run(["verify", "--suite", "thm32", "--max-rank", "2", "--allow-flagged"]) == 0
    report = out_json(capsys)
    assert report["failed"] == 0 and report["flagged"] > 0
    for case in report["cases"]:
        if case["status"] == "flagged":
            assert case["input"].startswith("sp:")


def test_verify_suites_small_ranks(capsys):
    for suite, rank in (("thm11", 5), ("thm31", 3), ("thm33", 6), ("thm18", 4)):
        report = run_suite(suite, rank)
        assert report["failed"] == 0, report["cases"]


def test_verify_output_is_byte_identical_across_runs(capsys):
    def render():
        assert run(["verify", "--suite", "thm31", "--max-rank", "3"]) == 0
        return capsys.readouterr().out

    assert render() == render()


def emitted(value) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(value)
    return buf.getvalue()


# every kind of character the ASCII escaping distinguishes: quote, backslash,
# the short escapes, other control characters, non-ASCII and lone surrogates
json_text = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f') | st.characters() | st.characters(categories=["Cs"]),
    max_size=8,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
@example([])
@example({"": {}, "a": [(), [None, False, True]], "\u00e9\"\\\n": -(10**30)})
def test_emit_writes_the_stdlib_indent_2_text(value):
    assert emitted(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        1.5, {1, 2}, object(), {1: "a"}, {"a": [0, {"b": 0.5}]}, [{(1, 2): None}], {"a": {"b": frozenset()}},
        support.SupportDatum((("triv", (1, 0)),)),  # a record, though a tuple
    ],
)
def test_emit_refuses_values_outside_the_emitted_types(value):
    with pytest.raises(TypeError):
        emitted(value)


@pytest.mark.parametrize(
    "suite, tables",
    [
        ("thm31", [("so_odd", d) for d in range(1, 5)]),
        ("thm32", [(kind, d) for kind in ("o_even", "sp") for d in range(1, 5)]),
        ("thm33", [("unitary", m) for m in range(2, 5)]),
    ],
    ids=["thm31", "thm32", "thm33"],
)
def test_each_unit_suite_derives_each_table_once(monkeypatch, suite, tables):
    calls = []

    def counted(kind, rank):
        calls.append((kind, rank))
        return derived_rows(kind, rank)

    monkeypatch.setattr(verify, "derived_rows", counted)
    run_suite(suite, 4)
    assert sorted(calls) == tables


def _param_file(tmp_path, edit):
    inv = standard_inventory()
    ambient = DualGroupDescriptor(Family.ORTHOGONAL, 5)
    data = {
        "inventory": inv.to_json_list(),
        "parameter": parameter_to_json_dict(discrete_parameters(inv, ambient)[0]),
    }
    edit(data)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["parameter"].update(summands={"class": "triv"}), "parameter.summands"),
        (lambda d: d["parameter"]["summands"][0].update(a=None), "parameter.summands[0].a"),
        (lambda d: d.update(inventory=5), "inventory"),
        (lambda d: d["parameter"]["summands"][0]["f"].update(root="1/0"), "parameter.summands[0].f.root"),
        (lambda d: d["parameter"]["summands"][0].update(a=2.5), "parameter.summands[0].a"),
        (lambda d: d["parameter"]["summands"][0].update(mult=True), "parameter.summands[0].mult"),
        (lambda d: d["inventory"][0].update(dim="2"), "inventory[0].dim"),
        (lambda d: d.pop("inventory"), "parameter file: missing key 'inventory'"),
        (lambda d: d["inventory"][0].pop("duality"), "inventory[0]: missing key 'duality'"),
        (lambda d: d["parameter"]["summands"][0]["f"].pop("root"), "parameter.summands[0].f: missing key 'root'"),
        (lambda d: d["inventory"][0]["duality"].update(type_plus="zzz"), "inventory[0].duality.type_plus"),
        (lambda d: d["inventory"][0]["duality"].update(type_minus="zzz"), "inventory[0].duality.type_minus"),
        (lambda d: d["inventory"][0]["duality"].update(kind="zzz"), "inventory[0].duality.kind"),
        (lambda d: d["parameter"]["ambient"].update(family="zzz"), "parameter.ambient.family"),
        (lambda d: d["parameter"]["summands"][0]["f"].update(root=0.1), "parameter.summands[0].f.root"),
        (lambda d: d["parameter"]["summands"][0]["f"].update(qexp=True), "parameter.summands[0].f.qexp"),
        (lambda d: d["parameter"]["summands"][0].update({"class": "zzz"}), "parameter.summands[0].class"),
        (lambda d: d["parameter"]["summands"][0]["f"].update(root="1e300000"), "parameter.summands[0].f.root"),
        (lambda d: d["parameter"]["summands"][0]["f"].update(qexp="1e999999999"), "parameter.summands[0].f.qexp"),
        (lambda d: d["inventory"][1]["duality"].update(partner="zzz"), "inventory[1].duality.partner"),
    ],
    ids=[
        "summands_dict", "a_null", "inventory_int", "root_zero_denominator", "a_float", "mult_bool", "dim_string",
        "inventory_missing", "duality_missing", "f_root_missing", "type_plus_bad", "type_minus_bad", "kind_bad",
        "family_bad", "root_float", "qexp_bool", "class_unknown", "root_huge_exponent", "qexp_huge_exponent",
        "partner_unknown",
    ],
)
def test_malformed_param_file_exits_2(tmp_path, capsys, edit, field):
    path = _param_file(tmp_path, edit)
    start = time.monotonic()
    assert run(["supports", "--param", str(path)]) == 2
    assert time.monotonic() - start <= 1
    err = capsys.readouterr().err
    assert (err.startswith(f"error: {field} ") or err == f"error: {field}\n") and "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_too_deeply_nested_input_file_exits_2(tmp_path, src_env, flags):
    """Past the decoder's recursion limit the file is malformed input: an error
    naming the file kind and exit 2, never a traceback; 900 levels still decode."""
    deep, shallow, classes = tmp_path / "deep.json", tmp_path / "shallow.json", tmp_path / "classes.json"
    deep.write_text("[" * 1100 + "]" * 1100)
    shallow.write_text("[" * 900 + "]" * 900)
    classes.write_text('{"a": ' * 5000 + "{}" + "}" * 5000)
    cases = [
        (["supports", "--param", str(deep)], "parameter file nests too deeply to decode"),
        (["hecke", "--param", str(deep)], "parameter file nests too deeply to decode"),
        (["supports", "--param", str(shallow)], "parameter file must be a dict, got list"),
        (["enumerate", "--group", "sp", "--rank", "2", "--classes", str(classes)], "inventory file nests too deeply to decode"),
    ]
    for argv, message in cases:
        done = subprocess.run(
            [sys.executable, *flags, "-m", "hecke_atlas.cli", *argv], capture_output=True, text=True, env=src_env()
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_class_that_is_its_own_partner_exits_2(tmp_path, src_env, flags):
    """A non-self-dual class naming itself as its partner would give a dual
    pair with one side; both inspecting commands refuse the file."""
    one = {"root": "0/1", "qexp": "0/2"}
    data = {
        "inventory": [
            {"label": "alpha", "dim": 1, "torsion": 1, "duality": {"kind": "not_self_dual", "partner": "alpha"}},
            {
                "label": "triv",
                "dim": 1,
                "torsion": 1,
                "duality": {"kind": "self_dual", "type_plus": "orthogonal", "type_minus": "orthogonal"},
            },
        ],
        "parameter": {
            "ambient": {"family": "orthogonal", "dim": 2},
            "summands": [{"class": label, "f": one, "a": 1, "mult": 1} for label in ("alpha", "triv")],
        },
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    for command in ("supports", "hecke"):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "hecke_atlas.cli", command, "--param", str(path)],
            capture_output=True, text=True, env=src_env(),
        )
        message = "error: inventory[0].duality.partner names the class itself: 'alpha'\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", message)


def _json_nodes(tree):
    """(container, key, value) for every node below the root of a JSON tree."""
    keys = tree.keys() if isinstance(tree, dict) else range(len(tree)) if isinstance(tree, list) else ()
    for key in keys:
        yield tree, key, tree[key]
        yield from _json_nodes(tree[key])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


# decoder and writer fuzzing: 150 examples locally; the ``ci`` profile (tests/conftest.py) asks for more
FUZZ_EXAMPLES = max(150, settings.default.max_examples)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["supports", "hecke"]), data=st.data())
def test_any_one_node_edit_of_a_param_file_exits_0_or_2(tmp_path, command, data):
    def edit(tree):
        nodes = list(_json_nodes(tree))
        container, key, _ = data.draw(st.sampled_from(nodes), label="node")
        if data.draw(st.booleans(), label="delete"):
            del container[key]
        else:
            # an arbitrary JSON value, or a copy of any node of the file
            others = st.sampled_from([v for _, _, v in nodes]).map(copy.deepcopy)
            container[key] = data.draw(_JSON_VALUES | others, label="value")

    assert run([command, "--param", str(_param_file(tmp_path, edit))]) in (0, 2)


# Reference road for ``test_decoder_matches_the_reference_decoder``: the
# decoder as it read parameter files before it built error paths lazily and
# read canonical fractions with int, with a bool or float monomial field
# refused, a decimal exponent above 4300 in size refused, and an unknown
# class label or partner a ValueError naming its path.


def ref_typed(value, kind, path):
    if not isinstance(value, kind):
        raise ValueError(f"{path} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def ref_field(data, key, path):
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{path}: missing key {key!r}") from None


def ref_value(value, kind, path):
    try:
        if kind is int and type(value) is not int:
            raise TypeError
        if kind is Fraction and type(value) not in (int, str):
            raise TypeError
        if kind is Fraction and type(value) is str and "e" in value.lower():
            if abs(int(value.lower().rpartition("e")[2])) > 4300:
                raise ValueError
        return kind(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{path} is not a valid {kind.__name__}: {value!r}") from None


def ref_monomial(data, path):
    ref_typed(data, dict, path)
    root, qexp = (ref_value(ref_field(data, k, path), Fraction, f"{path}.{k}") for k in ("root", "qexp"))
    return UnitMonomial(root, qexp)


def ref_inventory(data):
    inv = Inventory()
    for i, entry in enumerate(ref_typed(data, list, "inventory")):
        path = f"inventory[{i}]"
        entry = ref_typed(entry, dict, path)
        raw = ref_typed(ref_field(entry, "duality", path), dict, f"{path}.duality")
        kind = ref_field(raw, "kind", f"{path}.duality")
        if kind == "not_self_dual":
            partner = ref_field(raw, "partner", f"{path}.duality")
            duality = NotSelfDual(ref_typed(partner, str, f"{path}.duality.partner"))
        elif kind == "self_dual":
            plus, minus = (
                ref_value(ref_field(raw, k, f"{path}.duality"), DualityType, f"{path}.duality.{k}")
                for k in ("type_plus", "type_minus")
            )
            duality = SelfDual(plus, minus)
        else:
            raise ValueError(f"{path}.duality.kind must be 'self_dual' or 'not_self_dual', got {kind!r}")
        inv.add(
            InertialClass(
                ref_typed(ref_field(entry, "label", path), str, f"{path}.label"),
                ref_value(ref_field(entry, "dim", path), int, f"{path}.dim"),
                ref_value(ref_field(entry, "torsion", path), int, f"{path}.torsion"),
                duality,
                ref_typed(entry.get("det_base", ""), str, f"{path}.det_base"),
            )
        )
    for i, cls in enumerate(inv):
        if isinstance(cls.duality, NotSelfDual) and cls.duality.partner_label not in inv:
            partner = cls.duality.partner_label
            raise ValueError(f"inventory[{i}].duality.partner names no registered class: {partner!r}")
        if isinstance(cls.duality, NotSelfDual) and cls.duality.partner_label == cls.label:
            raise ValueError(f"inventory[{i}].duality.partner names the class itself: {cls.label!r}")
    inv.validate()
    return inv


def ref_parameter(data, inventory):
    data = ref_typed(data, dict, "parameter")
    raw = ref_typed(ref_field(data, "ambient", "parameter"), dict, "parameter.ambient")
    ambient = DualGroupDescriptor(
        ref_value(ref_field(raw, "family", "parameter.ambient"), Family, "parameter.ambient.family"),
        ref_value(ref_field(raw, "dim", "parameter.ambient"), int, "parameter.ambient.dim"),
    )
    summands = []
    for i, s in enumerate(ref_typed(ref_field(data, "summands", "parameter"), list, "parameter.summands")):
        path = f"parameter.summands[{i}]"
        s = ref_typed(s, dict, path)
        label = ref_typed(ref_field(s, "class", path), str, f"{path}.class")
        if label not in inventory:
            raise ValueError(f"{path}.class names no registered class: {label!r}")
        point = InertialPoint(inventory[label], ref_monomial(ref_field(s, "f", path), f"{path}.f"))
        a = ref_value(ref_field(s, "a", path), int, f"{path}.a")
        summands.append(LDSummand(point, a, ref_value(s.get("mult", 1), int, f"{path}.mult")))
    return build_ld_parameter(summands, ambient)


def ref_decode(data):
    data = ref_typed(data, dict, "parameter file")
    inventory = ref_inventory(ref_field(data, "inventory", "parameter file"))
    return ref_parameter(ref_field(data, "parameter", "parameter file"), inventory)


def decode(data):
    """What ``cli._load_param_file`` does with a parsed file, short of norming."""
    data = json_typed(data, dict, "parameter file")
    inventory = Inventory.from_json_list(json_field(data, "inventory", "parameter file"))
    return parameter_from_json_dict(json_field(data, "parameter", "parameter file"), inventory)


def decode_outcome(fn, data):
    try:
        phi = fn(copy.deepcopy(data))
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return phi, repr(phi)


# fraction strings on either side of the int reading of ``-?digits/digits``
FRACTION_STRINGS = [
    " 1/2 ", "+1/2", "-0/3", "1/-2", "2/4", "\u0663/4", "1e-1", "0.25", "1/0", "", "1//2", "3/3",
    "-3/6", "7/2", "-5/10", "00/08", "1", "-2", "\u00b2/4", "1_0/4", "9" * 4301 + "/2",
    "1e4300", "2E-4300", "1e4301", "1e-4301", "1e+0_1", "1e", "5e 1", "1e\u0663",
]


def _decoder_base_files():
    """Parameter files to edit: small discrete ones, and one with a dual pair
    and points off the base point."""
    inv = standard_inventory()
    inv_json = inv.to_json_list()
    phis = discrete_parameters(inv, DualGroupDescriptor(Family.ORTHOGONAL, 5))[:3]
    f = UnitMonomial(Fraction(1, 3), Fraction(1, 2))
    phis.append(
        build_ld_parameter(
            [
                LDSummand(InertialPoint(inv["alpha"], f), 1),
                LDSummand(InertialPoint(inv["beta"], f.inverse()), 1),
                LDSummand(InertialPoint(inv["a"], MINUS_ONE), 2),
            ],
            DualGroupDescriptor(Family.ORTHOGONAL, 6),
        )
    )
    return [{"inventory": inv_json, "parameter": parameter_to_json_dict(phi)} for phi in phis]


DECODER_BASE_FILES = _decoder_base_files()


def _assert_decoders_agree(data):
    assert decode_outcome(decode, data) == decode_outcome(ref_decode, data)


def test_decoder_reads_each_monomial_field_as_the_reference_does():
    for value in FRACTION_STRINGS + [0, -7, 10**30, 0.5, True, False, None, [], {}]:
        for field in ("root", "qexp"):
            for base in DECODER_BASE_FILES:
                for i in range(len(base["parameter"]["summands"])):
                    data = copy.deepcopy(base)
                    data["parameter"]["summands"][i]["f"][field] = value
                    _assert_decoders_agree(data)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(base=st.sampled_from(DECODER_BASE_FILES), data=st.data())
def test_decoder_matches_the_reference_decoder(base, data):
    """Any one-node edit of a parameter file decodes to an equal parameter
    with an equal repr, or fails with the same exception type and message."""
    tree = copy.deepcopy(base)
    nodes = list(_json_nodes(tree))
    monomial_fields = [node for node in nodes if node[1] in ("root", "qexp")]
    # any node, or (as often) a monomial field
    container, key, _ = data.draw(st.sampled_from(nodes) | st.sampled_from(monomial_fields), label="node")
    if data.draw(st.booleans(), label="delete"):
        del container[key]
    else:
        others = st.sampled_from([v for _, _, v in nodes]).map(copy.deepcopy)
        fractions = st.sampled_from(FRACTION_STRINGS) | st.from_regex(r"-?[0-9]{1,3}/[0-9]{1,3}", fullmatch=True)
        container[key] = data.draw(_JSON_VALUES | others | fractions, label="value")
    _assert_decoders_agree(tree)


def test_normed_corpus_is_normed():
    corpus = normed_corpus(standard_inventory(), 4)
    assert len(corpus) > 20
    for phi in corpus:
        assert all(s.point.f.is_one and s.sl2_dim == 1 for s in phi.summands)
        assert sum(s.dim for s in phi.summands) == phi.ambient.ambient_dim


def _inventory_with_a_unitary_class():
    inv = standard_inventory()
    co, cs = DualityType.CONJUGATE_ORTHOGONAL, DualityType.CONJUGATE_SYMPLECTIC
    inv.add(InertialClass("u1", 1, 1, SelfDual(co, cs), "u1"))
    inv.validate()
    return inv


def test_normed_corpus_skips_classes_of_the_wrong_flavour():
    """A conjugate-dual class has no place in an orthogonal or symplectic
    ambient, so it adds nothing to the corpus, as in discrete_parameters."""
    assert normed_corpus(_inventory_with_a_unitary_class(), 6) == normed_corpus(standard_inventory(), 6)


def _wrong_power(a, e):
    return [[v + 1 for v in row] for row in a]


def _wrong_transpose(a):
    return [[v + 1 for v in row] for row in zip(*a)]


def _wrong_rescaled(left, a, right):
    return [[li * v * rj + 1 for v, rj in zip(row, right)] for li, row in zip(left, a)]


def _wrong_product(a, b):
    return [[v + 1 for v in row] for row in a]


def test_matrix_suite_reports_a_broken_oracle(monkeypatch, capsys):
    # an unpatched run first, so that the blocks it builds and shares cannot hide a broken helper
    assert run_suite("thm26-matrix", 2)["failed"] == 0
    for helper, broken, error in (
        ("_mat_pow", _wrong_power, "q-scaling relation fails"),
        ("_transpose", _wrong_transpose, "Gram form not preserved"),
        ("_rescaled", _wrong_rescaled, "q-scaling relation fails"),
        ("_mat_mul", _wrong_product, "q-scaling relation fails"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(centralizer, helper, broken)
            report = run_suite("thm26-matrix", 2)
            assert report["cases"] and report["failed"] == len(report["cases"])
            for case in report["cases"]:
                assert case["actual"] == {"error": error}
            assert run(["verify", "--suite", "thm26-matrix", "--max-rank", "2"]) == 1
            assert json.loads(capsys.readouterr().out) == report


def _first_epsilon_repeated(phi_S, epsilons=support._epsilons):
    chars = epsilons(phi_S)
    return [chars[0]] * len(chars)


def _so_factor_one_larger(*args, factor=hecke.hecke_factor):
    f = factor(*args)
    return f if f.family != "SO" or f.extended else f._replace(size=f.size + 1)


def _fixed_sign_negated(depth, of_type, fixed_block_sign=params._fixed_block_sign):
    return -fixed_block_sign(depth, of_type)


def _buckets_flipped(kind, rank, table=hecke.specialize):
    return [row._replace(bucket=-row.bucket) for row in table(kind, rank)]


def _factors_one_larger(kind, rank, table=hecke.specialize):
    return [row._replace(factor=row.factor._replace(size=row.factor.size + 1)) for row in table(kind, rank)]


def _every_label_self_dual(decorations, by_block_perm, decorated_cosets=weyl._decorated_cosets):
    return decorated_cosets([(label, True) for label, _ in decorations], by_block_perm)


# suite -> (module, function, a broken replacement of it); the suite runs at rank 4
SUITE_MUTATIONS = {
    # every block move liftable by an even element: W0(M) = W(M) on every Levi
    "lemA3-even-lift": ("lemA3", weyl, "_min_lift_parity", lambda signs, levi: 0),
    "lemA4-even-lift": ("lemA4", weyl, "_min_lift_parity", lambda signs, levi: 0),
    # a reflection part that is only the (mirrored) identity: the splitting check must fail
    "lemA4-closure": ("lemA4", weyl, "_closure", lambda generators, r: {weyl._mirror(tuple(range(1, r + 1)))}),
    # every move kept as a complement element: R(O) overlaps the reflection part
    "lemA4-complement": ("lemA4", weyl, "_complement", lambda q, sigma_pos: list(q)),
    # every label taken as self-dual: an odd block with a non-self-dual label gains its negation
    "lemA4-decorations": ("lemA4", weyl, "_decorated_cosets", _every_label_self_dual),
    # the forced sign of every staircase flips: the closed form routes its count to the other form
    "thm11-fixed-sign": ("thm11", params, "_fixed_block_sign", _fixed_sign_negated),
    # every row of the so-odd table routes to the other sign bucket
    "thm31-bucket": ("thm31", verify, "specialize", _buckets_flipped),
    # every support keeps its number of characters, but they all coincide
    "thm16-epsilons": ("thm16", support, "_epsilons", _first_epsilon_repeated),
    # the derived unequal-parameter factors grow by one
    "thm18-so-size": ("thm18", hecke, "hecke_factor", _so_factor_one_larger),
    # the closed-form multiplicities route to the other sign
    "thm32-sign": ("thm32", verify, "epsilon_multiplicity", lambda dp, dm, s: hecke.epsilon_multiplicity(dp, dm, -s)),
    # every stated unitary factor grows by one; a bucket flip would only be flagged (the thm33 hole)
    "thm33-factor-size": ("thm33", verify, "specialize", _factors_one_larger),
}


@pytest.mark.parametrize("mutation", sorted(SUITE_MUTATIONS))
def test_suite_fails_under_a_mutation(mutation, monkeypatch, capsys):
    suite, module, name, broken = SUITE_MUTATIONS[mutation]
    # an unpatched run first, so that a cache filled by it cannot hide the mutation
    assert run_suite(suite, 4)["failed"] == 0
    monkeypatch.setattr(module, name, broken)
    report = run_suite(suite, 4)
    assert report["failed"] > 0
    for flags in ([], ["--allow-flagged"]):
        assert run(["verify", "--suite", suite, "--max-rank", "4", *flags]) == 1
        # byte for byte, which also pins the key order and the indentation
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("mutation", ["thm11-fixed-sign", "thm16-epsilons", "thm18-so-size"])
def test_another_suites_warm_up_cannot_hide_a_mutation(mutation, monkeypatch):
    # thm11 and thm16 share their cuspidal shapes, and all three share the
    # memoized depth pairs, so every one of them runs unpatched first
    suite, module, name, broken = SUITE_MUTATIONS[mutation]
    for warm in ("thm11", "thm16", "thm18"):
        assert run_suite(warm, 4)["failed"] == 0
    monkeypatch.setattr(module, name, broken)
    assert run_suite(suite, 4)["failed"] > 0


def test_matrix_suite_fails_when_sqrt_q_is_not_a_root_of_q(monkeypatch):
    # with s built from powers of 3 but u**q taken at q = 4, the relation
    # s u s^-1 = u**q fails exactly where an SL2 block of size >= 2 occurs
    monkeypatch.setattr(centralizer, "SQRT_Q", 3)
    inv = standard_inventory()
    phis = [phi for ambient in classical_ambients(3) for phi in discrete_parameters(inv, ambient)]
    report = run_suite("thm26-matrix", 3)
    assert len(report["cases"]) == len(phis)
    broken = 0
    for phi, case in zip(phis, report["cases"]):
        if max(s.sl2_dim for s in phi.summands) >= 2:
            broken += 1
            assert case["status"] == "fail"
            assert case["actual"] == {"error": "q-scaling relation fails"}
        else:
            assert case["status"] == "pass"
    assert broken > 0


def test_matrix_oracle_survives_optimized_mode(src_env):
    script = (
        "import sys\n"
        "from hecke_atlas import centralizer\n"
        "from hecke_atlas.verify import run_suite\n"
        "warm = run_suite('thm26-matrix', 2)['failed']\n"
        "centralizer._mat_pow = lambda a, e: [[v + 1 for v in row] for row in a]\n"
        "report = run_suite('thm26-matrix', 2)\n"
        "print(sys.flags.optimize, warm, report['failed'], len(report['cases']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env(), check=True
    )
    optimize, warm, failed, total = map(int, done.stdout.split())
    assert optimize == 1
    assert warm == 0
    assert failed == total > 0


def test_the_cli_loads_centralizer_and_weyl_only_for_the_suites_that_use_them(src_env):
    script = (
        "import contextlib, io, sys\n"
        "import hecke_atlas.cli as cli\n"
        "loaded = lambda: ','.join(m for m in ('centralizer', 'weyl') if 'hecke_atlas.' + m in sys.modules) or '-'\n"
        "print(loaded())\n"
        "for suite in ('thm18', 'lemA3', 'thm26-matrix'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(['verify', '--suite', suite, '--max-rank', '1'])\n"
        "    print(code, loaded())\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env(), check=True)
    assert done.stdout.split() == ["-", "0", "-", "0", "weyl", "0", "centralizer,weyl"]


@pytest.mark.parametrize("command", ["supports", "hecke"])
def test_param_file_is_read_as_utf8_whatever_the_locale(tmp_path, command, src_env):
    """A UTF-8 parameter file with a non-ASCII class label loads under the C
    locale too, as ``enumerate --classes`` reads its inventory."""
    inv = standard_inventory()
    phi0 = next(p for p in normed_corpus(inv, 6) if "rho_mix" in {s.point.cls.label for s in p.summands})
    text = json.dumps({"inventory": inv.to_json_list(), "parameter": parameter_to_json_dict(phi0)})
    path = tmp_path / "p.json"
    path.write_text(text.replace('"rho_mix"', '"rho_mix\u00e9"'), encoding="utf-8")
    assert "rho_mix\u00e9" in path.read_text(encoding="utf-8")
    stdout = {}
    for utf8 in ("1", "0"):
        env = src_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8=utf8)
        argv = [sys.executable, "-m", "hecke_atlas.cli", command, "--param", str(path)]
        done = subprocess.run(argv, capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (0, b"")
        stdout[utf8] = done.stdout
    assert stdout["0"] == stdout["1"] and b'"rho_mix\\u00e9"' in stdout["0"]


def reference_supports_and_hecke(phi0):
    """What ``supports`` and ``hecke`` print for a normed ``phi0``: ``json.dumps``
    of the reference dicts."""
    hecke = [
        {
            "S": {label: list(pair) for label, pair in S.entries},
            "factors": [
                {"orbit": label, **factor_to_json_dict(sp_normalization(f))}
                for label, f in hecke_descriptor(phi0, S)
            ],
        }
        for S in supports(phi0)
    ]
    pairs = [support_to_json_dict(p, eps) for p in cuspidal_pairs(phi0) for eps in p.epsilons]
    return json.dumps(pairs, indent=2) + "\n", json.dumps(hecke, indent=2) + "\n"


def reference_enumerate(inv, group, rank, cuspidal):
    """What ``enumerate`` writes: ``json.dumps`` of a payload of reference dicts."""
    ambient = GROUP_AMBIENTS[group](rank)
    params = [p for p in discrete_parameters(inv, ambient) if not cuspidal or is_supercuspidal_shape(p)]
    payload = {
        "group": group,
        "rank": rank,
        "ambient": {"family": ambient.family.value, "dim": ambient.ambient_dim},
        "parameters": [parameter_to_json_dict(p) for p in params],
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_param_file(path, inv, phi0):
    path.write_text(json.dumps({"inventory": inv.to_json_list(), "parameter": parameter_to_json_dict(phi0)}))


def test_supports_and_hecke_write_the_stdlib_text_on_every_small_parameter(tmp_path, capsys):
    """``supports`` writes each support's shared members once for all its
    characters; the text must stay the stdlib's on every shape of the corpus."""
    inv = standard_inventory()
    corpus = normed_corpus(inv, 8)
    path = tmp_path / "p.json"
    several_characters = empty_tail = 0
    for phi0 in corpus:
        _write_param_file(path, inv, phi0)
        expected_supports, expected_hecke = reference_supports_and_hecke(phi0)
        assert run(["supports", "--param", str(path)]) == 0
        assert capsys.readouterr().out == expected_supports
        assert run(["hecke", "--param", str(path)]) == 0
        assert capsys.readouterr().out == expected_hecke
        records = cuspidal_pairs(phi0)
        several_characters += any(len(p.epsilons) > 1 for p in records)
        empty_tail += any(not p.phi_S.summands for p in records)
    assert (len(corpus), several_characters, empty_tail) == (306, 206, 76)


def test_a_discrete_parameter_file_writes_what_its_normed_file_writes(tmp_path, capsys):
    """``supports`` and ``hecke`` norm the parameter they read, so a file of a
    discrete parameter, or of one with a dual pair and points off the base
    point, prints what the file of its normed parameter prints."""
    inv = standard_inventory()
    phis = [phi for ambient in classical_ambients(6) for phi in discrete_parameters(inv, ambient)]
    assert len(phis) == 143
    phis.append(parameter_from_json_dict(DECODER_BASE_FILES[-1]["parameter"], inv))
    path = tmp_path / "p.json"

    def outputs(phi):
        _write_param_file(path, inv, phi)
        return [(run([command, "--param", str(path)]), capsys.readouterr().out) for command in ("supports", "hecke")]

    for phi in phis:
        assert outputs(phi) == outputs(params.normed_parameter(phi))


@pytest.mark.parametrize("group", sorted(GROUP_AMBIENTS))
def test_enumerate_writes_the_stdlib_text(tmp_path, group):
    """Over the standard inventory the unitary group has no parameter, so the
    empty list is written too."""
    inv_path, out = tmp_path / "inv.json", tmp_path / "out.json"
    for inv in (standard_inventory(), _inventory_with_a_unitary_class()):
        inv.dump(inv_path)
        for rank in range(1, 5):
            for cuspidal in (False, True):
                argv = ["enumerate", "--group", group, "--rank", str(rank), "--classes", str(inv_path)]
                assert run([*argv, "--out", str(out)] + ["--cuspidal"] * cuspidal) == 0
                assert out.read_bytes() == reference_enumerate(inv, group, rank, cuspidal).encode()


# seven distinct class labels, each as a JSON file carries it (an escaped
# surrogate pair reads back as one character)
class_labels = st.lists(
    json_text.filter(bool).map(lambda t: json.loads(json.dumps(t))), min_size=7, max_size=7, unique=True
)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=class_labels, data=st.data())
def test_writers_escape_every_class_label_as_the_stdlib_does(tmp_path, capsys, labels, data):
    """Class labels come from the input files; written into class, orbit, S and
    character members, each must be escaped as ``json.dumps`` escapes it."""
    entries = _inventory_with_a_unitary_class().to_json_list()
    renamed = dict(zip((entry["label"] for entry in entries), labels))
    for entry in entries:
        entry["label"] = renamed[entry["label"]]
        if "partner" in entry["duality"]:
            entry["duality"]["partner"] = renamed[entry["duality"]["partner"]]
    inv = Inventory.from_json_list(entries)
    inv_path, out = tmp_path / "inv.json", tmp_path / "out.json"
    inv.dump(inv_path)
    group = data.draw(st.sampled_from(sorted(GROUP_AMBIENTS)), label="group")
    rank = data.draw(st.integers(1, 3), label="rank")
    assert run(["enumerate", "--group", group, "--rank", str(rank), "--classes", str(inv_path), "--out", str(out)]) == 0
    assert out.read_bytes() == reference_enumerate(inv, group, rank, False).encode()

    phi0 = data.draw(st.sampled_from(normed_corpus(inv, 6)), label="parameter")
    path = tmp_path / "p.json"
    _write_param_file(path, inv, phi0)
    expected_supports, expected_hecke = reference_supports_and_hecke(phi0)
    assert run(["supports", "--param", str(path)]) == 0
    assert capsys.readouterr().out == expected_supports
    assert run(["hecke", "--param", str(path)]) == 0
    assert capsys.readouterr().out == expected_hecke
