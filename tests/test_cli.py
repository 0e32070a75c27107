"""Exercising the batch front door through run(argv)."""
import json
import shutil
import subprocess
import sys

import pytest

from birkhoff2d import cli, corpus
from birkhoff2d.fincat import compose_functors
from birkhoff2d.jsonio import Workspace
from birkhoff2d.theory import satisfies

ROOT = corpus.corpus_root()
COLLAPSE = str(ROOT / "collapse.json")
COHERENCE = str(ROOT / "coherence.json")
CATALOG_DIR = str(ROOT / "monoidal")
SIGMA = str(ROOT / "monoidal" / "sigma_assoc.json")


def go(capsys, argv):
    code = cli.run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- validate ----------------------------------------------------------


def test_validate_reports_each_entity(capsys):
    code, out, _ = go(capsys, [
        "validate",
        "--category", str(ROOT / "p.json"),
        "--functor", COLLAPSE,
        "--algebra", SIGMA,
    ])
    assert code == 0
    assert "ok: %s (category)" % (ROOT / "p.json") in out
    assert "(functor)" in out and "(algebra)" in out


def test_validate_with_no_flags_is_a_usage_error(capsys):
    code, _, err = go(capsys, ["validate"])
    assert code == 2
    assert "nothing to validate" in err


def test_validate_rejects_mislabelled_entity(capsys):
    code, _, err = go(capsys, ["validate", "--category", COLLAPSE])
    assert code == 2
    assert "wrong entity kind" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = go(capsys, ["validate", "--category", str(tmp_path / "no.json")])
    assert code == 2
    assert err.startswith("error:")


def test_validate_a_directory(capsys, tmp_path):
    code, _, err = go(capsys, ["validate", "--category", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: cannot read")


@pytest.mark.parametrize("content,needle", [
    (b"\xff\xfe{}", "is not UTF-8"),
    (b"[" * 100000, "nested too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_validate_an_unreadable_json_file(capsys, tmp_path, content, needle):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    code, out, err = go(capsys, ["validate", "--category", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: %s " % path) and needle in err, err


def _pop(*path):
    def go(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node.pop(path[-1])
        return data
    return go


def _set(*path_and_value):
    *path, value = path_and_value

    def go(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return data
    return go


def _repeat_first_row(*path_and_value):
    """List the first row of a table a second time, with another value, before
    its lawful row."""
    *path, value = path_and_value

    def go(data):
        node = data
        for key in path:
            node = node[key]
        node.insert(0, [node[0][0], value])
        return data
    return go


def _one_sided_equation(data):
    data["added_two_cell_equations"][0] = data["added_two_cell_equations"][0][:1]
    return data


def _identity_sent_to_a_generator(data):
    """The functor p -> z2 sending the identity of a to the generator s."""
    return {"source": "p.json", "target": "z2.json", "on_objects": {"a": "*", "b": "*"},
            "on_morphisms": {"ida": "s", "idb": "1", "u": "s", "v": "s"}}


@pytest.mark.parametrize("flag,name,break_it,field", [
    ("--functor", "collapse.json", _pop("on_morphisms"), "on_morphisms"),
    ("--functor", "collapse.json", _set("on_objects", [1, 2]), "on_objects"),
    ("--nat", "cell.json", _pop("components"), "components"),
    ("--category", "p.json", _set("objects", "ab"), "objects"),
    ("--category", "p.json", _set("composition", 5), "composition"),
    ("--presentation", "monoidal.json", _pop("operations", 0, "name"), "name"),
    ("--presentation", "monoidal.json", _set("operations", 0, "arity", "x"), "arity"),
    ("--presentation", "monoidal.json", _pop("generators", 0, "arity"), "arity"),
    ("--presentation", "monoidal.json", _set("operations", "tensor"), "operations"),
    ("--extension", "coherence.json", _one_sided_equation, "added_two_cell_equations"),
    ("--extension", "coherence.json", _set("base", 3), "base"),
    ("--algebra", "monoidal/xor_strict.json", _set("operations", ["tensor"]), "operations"),
    ("--algebra", "monoidal/xor_strict.json", _set("generators", "assoc", 5), "assoc"),
    ("--algebra", "monoidal/xor_strict.json", _set("presentation", ["x"]), "presentation"),
    ("--functor", "collapse.json", _set("on_objects", "zzz", "0"), "zzz"),
    ("--functor", "collapse.json", _set("on_morphisms", "junk", "id0"), "junk"),
    ("--nat", "cell.json", _set("components", "zzz", "id0"), "zzz"),
    ("--algebra", "monoidal/xor_strict.json",
     _repeat_first_row("operations", "tensor", "on_objects", "1"), "on_objects"),
    ("--algebra", "monoidal/xor_strict.json",
     _repeat_first_row("generators", "assoc", "s0"), "assoc"),
    ("--category", "p.json", _set("objects", [1, {"a": 1}]), "objects"),
    ("--category", "p.json", _set("morphisms", 2, "id", 5), "id"),
    ("--category", "p.json", _set("morphisms", 0, ["ida", "a", "a"]), "morphisms"),
    ("--category", "p.json", _set("identities", "a", ["ida"]), "identities"),
    ("--category", "p.json", _set("name", ["x"]), "name"),
    ("--functor", "collapse.json", _set("name", 5), "name"),
    ("--presentation", "monoidal.json", _set("generators", 0, "invertible", "no"),
     "invertible"),
    ("--presentation", "monoidal.json", _set("generators", 1, "target", ["var", True]),
     ["var", True]),
    ("--extension", "coherence.json",
     _set("added_two_cell_equations", 0, 0, ["gen", ["assoc"]]), ["gen", ["assoc"]]),
    ("--presentation", "monoidal.json", _set("generators", 0, "invertable", True),
     "invertable"),
    ("--category", "p.json", _set("morphism", []), "morphism"),
    ("--category", "p.json", _set("morphisms", 0, "name", "ida"), "name"),
    ("--functor", "collapse.json", _set("onobjects", {}), "onobjects"),
    ("--nat", "cell.json", _set("component", {}), "component"),
    ("--presentation", "monoidal.json", _set("term_equation", []), "term_equation"),
    ("--presentation", "monoidal.json", _set("operations", 0, "arty", 2), "arty"),
    ("--extension", "coherence.json", _set("added_two_cell_equation", []),
     "added_two_cell_equation"),
    ("--algebra", "monoidal/xor_strict.json", _set("generator", {}), "generator"),
    ("--algebra", "monoidal/xor_strict.json", _set("operations", "tensor", "on_object", []),
     "on_object"),
    ("--category", "p.json", _set("objects", ["a", "b", "b"]), "b"),
    ("--category", "p.json", _set("morphisms", 3, "id", "u"), "u"),
    ("--presentation", "monoidal.json", _set("operations", 0, "name", "tensor"), "tensor"),
    ("--presentation", "monoidal.json", _set("generators", 2, "name", "lunit"), "lunit"),
    ("--category", "p.json", _set("identities", "c", "ida"), "c"),
    ("--category", "p.json", _set("composition", [["x", "y", "u"]]), ("x", "y")),
    ("--functor", "collapse.json", _identity_sent_to_a_generator, "a"),
    ("--presentation", "monoidal.json", _set("operations", 0, "arity", -1), "unit"),
    ("--presentation", "monoidal.json", _set("generators", 0, "source", []), []),
    ("--category", "p.json", _set("composition", [["u", "ida", "u"], ["u", "ida", "u"]]),
     ("u", "ida")),
], ids=["functor-without-on_morphisms", "functor-on_objects-list", "nat-without-components",
        "category-objects-string", "category-composition-number",
        "operation-without-name", "operation-arity-string", "generator-without-arity",
        "operations-string", "equation-one-sided", "extension-base-number",
        "algebra-operations-list", "generator-table-number", "algebra-presentation-list",
        "functor-stray-object", "functor-stray-morphism", "nat-stray-component",
        "operation-row-repeated", "generator-row-repeated", "category-objects-not-names",
        "morphism-id-number", "morphism-entry-list", "identity-value-list",
        "category-name-list", "functor-name-number", "generator-invertible-string",
        "variable-index-boolean", "generator-name-list", "generator-invertable",
        "category-stray-morphism", "morphism-stray-name", "functor-stray-field",
        "nat-stray-field", "presentation-stray-field", "operation-stray-field",
        "extension-stray-field", "algebra-stray-field", "operation-table-stray-field",
        "object-name-repeated", "morphism-name-repeated", "operation-name-repeated",
        "generator-name-repeated", "identity-of-unknown-object",
        "composition-over-unknown-morphisms", "functor-moves-an-identity",
        "arity-negative", "term-empty", "composition-entry-repeated"])
def test_validate_names_the_malformed_field(capsys, tmp_path, flag, name, break_it, field):
    """Each file validates as written; with one field missing or of the
    wrong shape, one field the format does not have, one map entry for
    nothing in the source, one table row listed twice, one name listed twice,
    one entry over unknown names, one broken functor law, one negative arity
    or one malformed term, it is invalid input (exit 2) naming that field or entry or showing
    that term."""
    shutil.copytree(ROOT, tmp_path, dirs_exist_ok=True)
    cell = {"from": "collapse.json", "to": "collapse.json",
            "components": {"a": "id0", "b": "id1"}}
    (tmp_path / "cell.json").write_text(json.dumps(cell))
    path = tmp_path / name
    assert go(capsys, ["validate", flag, str(path)])[0] == 0
    path.write_text(json.dumps(break_it(json.loads(path.read_text()))))
    code, _, err = go(capsys, ["validate", flag, str(path)])
    assert code == 2
    assert err.startswith("invalid input:") and repr(field) in err


def test_validate_rejects_a_file_that_refers_to_itself(capsys, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"source": "loop.json", "target": "loop.json",
                                "on_objects": {}, "on_morphisms": {}}))
    code, _, err = go(capsys, ["validate", "--functor", str(path)])
    assert code == 2
    assert err.startswith("invalid input:") and "refers back to itself" in err


# -- factor ------------------------------------------------------------


def test_factor_writes_a_recomposable_triple(capsys, tmp_path):
    out_dir = tmp_path / "fact"
    code, out, _ = go(capsys, [
        "factor", "--system", "bof", "--functor", COLLAPSE, "--out", str(out_dir),
    ])
    assert code == 0
    assert "sound: yes" in out
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "left.json", "middle.json", "right.json",
    ]
    ws = Workspace()
    left = ws.functor(out_dir / "left.json")
    right = ws.functor(out_dir / "right.json")
    assert compose_functors(right, left) == ws.functor(COLLAPSE)


def test_factor_report_as_json(capsys):
    code, out, _ = go(capsys, [
        "factor", "--system", "so", "--functor", COLLAPSE, "--json",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["sound"] is True
    assert report["left_class"] == "so" and report["right_class"] == "ioff"


# -- orthogonality -----------------------------------------------------


def test_orthogonal_quotient_against_itself_fails(capsys):
    code, out, _ = go(capsys, ["orthogonal", "--left", COLLAPSE, "--right", COLLAPSE])
    assert code == 1
    assert out.startswith("orthogonal: no")
    assert '"fillins": 0' in out


def test_orthogonal_object_verdicts(capsys):
    code, out, _ = go(capsys, [
        "orthogonal-object", "--morphism", COLLAPSE, "--object", str(ROOT / "one.json"),
    ])
    assert (code, out) == (0, "orthogonal: yes\n")
    code, out, _ = go(capsys, [
        "orthogonal-object", "--morphism", COLLAPSE, "--object", str(ROOT / "p.json"),
    ])
    assert code == 1
    assert "not surjective on functors" in out


@pytest.mark.parametrize("command", ["factor", "kernel", "coequify", "reflect"])
@pytest.mark.parametrize("where", ["a file", "a path under a file"])
def test_out_onto_a_file_is_a_usage_error(capsys, tmp_path, command, where):
    argv = {
        "factor": ["factor", "--system", "bof", "--functor", COLLAPSE],
        "kernel": ["kernel", "--functor", COLLAPSE],
        "coequify": ["coequify", "--phi", str(tmp_path / "kern" / "phi.json"),
                     "--psi", str(tmp_path / "kern" / "psi.json")],
        "reflect": ["reflect", "--algebra", SIGMA, "--extension", COHERENCE],
    }[command]
    if command == "coequify":
        assert go(capsys, ["kernel", "--functor", COLLAPSE,
                           "--out", str(tmp_path / "kern")])[0] == 0
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken if where == "a file" else taken / "sub"
    code, _, err = go(capsys, argv + ["--out", str(out)])
    assert code == 2
    assert err.startswith("error: cannot write %s" % out)
    assert taken.read_text() == "keep\n"


# -- kernel, coequifier, convergence -----------------------------------


def test_kernel_coequify_round_trip(capsys, tmp_path):
    kdir = tmp_path / "kernel"
    code, out, _ = go(capsys, ["kernel", "--functor", COLLAPSE, "--out", str(kdir)])
    assert code == 0
    assert "kernel apex: 6 objects, 12 morphisms" in out
    assert "input coequifies its kernel: yes" in out
    assert sorted(p.name for p in kdir.iterdir()) == [
        "apex.json", "phi.json", "psi.json", "s.json", "t.json",
    ]

    qdir = tmp_path / "quot"
    code, out, _ = go(capsys, [
        "coequify", "--phi", str(kdir / "phi.json"), "--psi", str(kdir / "psi.json"),
        "--out", str(qdir),
    ])
    assert code == 0
    assert "quotient: 2 objects, 3 morphisms" in out
    assert 'merged classes: [["u", "v"]]' in out
    assert "projection classifies b.o. full: yes" in out

    code, _, _ = go(capsys, [
        "validate",
        "--category", str(qdir / "quotient.json"),
        "--functor", str(qdir / "projection.json"),
        "--nat", str(kdir / "phi.json"),
    ])
    assert code == 0


def test_converges(capsys):
    code, out, _ = go(capsys, ["converges", "--functor", COLLAPSE])
    assert code == 0
    assert "converges immediately: yes" in out


# -- satisfaction and reflection ---------------------------------------


def test_satisfies_failure_prints_the_witness(capsys):
    code, out, _ = go(capsys, [
        "satisfies", "--algebra", SIGMA, "--extension", COHERENCE,
    ])
    assert code == 1
    assert out.startswith("satisfies: no")
    assert '"lhs": "id0"' in out and '"rhs": "s0"' in out


def test_satisfies_success(capsys):
    code, out, _ = go(capsys, [
        "satisfies", "--algebra", str(ROOT / "monoidal" / "xor_strict.json"),
        "--extension", COHERENCE,
    ])
    assert (code, out) == (0, "satisfies: yes\n")


def test_satisfies_accepts_a_bare_presentation_target(capsys):
    code, out, _ = go(capsys, [
        "satisfies", "--algebra", str(ROOT / "plain_p.json"),
        "--extension", str(ROOT / "bare.json"),
    ])
    assert (code, out) == (0, "satisfies: yes\n")


def test_reflect_writes_a_reloadable_bundle(capsys, tmp_path):
    rdir = tmp_path / "refl"
    code, out, _ = go(capsys, [
        "reflect", "--algebra", SIGMA, "--extension", COHERENCE, "--out", str(rdir),
    ])
    assert code == 0
    assert 'merged classes: [["id0", "s0"], ["id1", "s1"]]' in out
    assert "unit classifies b.o. full: yes" in out

    code, _, _ = go(capsys, [
        "validate",
        "--algebra", str(rdir / "reflected.json"),
        "--functor", str(rdir / "unit.json"),
    ])
    assert code == 0
    ws = Workspace()
    reloaded = ws.algebra(rdir / "reflected.json")
    assert satisfies(reloaded, ws.extension(COHERENCE))


# -- quotients ---------------------------------------------------------


def test_quotients_listing_is_frozen(capsys):
    code, out, _ = go(capsys, ["quotients", "--algebra", str(ROOT / "plain_p.json")])
    assert code == 0
    assert out == '2 quotient algebras\n  1: [["u", "v"]]\n  2: discrete\n'


@pytest.mark.parametrize("value", ["-3", "0", "x"])
def test_a_limit_below_one_is_a_usage_error(capsys, value):
    """argparse refuses the value (exit 2) and names --limit; no search runs."""
    with pytest.raises(SystemExit) as info:
        cli.run(["quotients", "--algebra", str(ROOT / "plain_p.json"), "--limit", value])
    assert info.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.endswith(
        "error: argument --limit: must be an integer of at least 1, got %r\n" % value)


# -- audit and characterisation ----------------------------------------

AUDIT_ARGS = [
    "audit", "--extension", COHERENCE, "--catalog", CATALOG_DIR,
    "--subs", str(ROOT / "subs.json"), "--refl", str(ROOT / "refl.json"),
]


def test_audit_passes_on_the_equational_subclass(capsys):
    code, out, _ = go(capsys, AUDIT_ARGS)
    assert code == 0
    assert out.splitlines()[-1] == "result: pass (21 checks)"


def test_audit_fails_on_a_pinned_subclass(capsys):
    code, out, _ = go(capsys, AUDIT_ARGS + ["--members", "sigma_assoc"])
    assert code == 1
    assert out.splitlines()[-1] == "result: FAIL (3 checks)"


def test_audit_rejects_unknown_member_names(capsys):
    code, _, err = go(capsys, AUDIT_ARGS + ["--members", "nonesuch"])
    assert code == 2
    assert "unknown catalog entry" in err


@pytest.mark.parametrize("flag,break_it,needles", [
    ("--subs", _pop(0, "witness", "on_objects"), ("'witness'", "'on_objects'")),
    ("--subs", _pop(1, "member"), ("'member'",)),
    ("--subs", lambda data: data[0], ("list of objects",)),
    ("--refl", _pop(0, "u", "on_objects"), ("'u'", "'on_objects'")),
    ("--refl", _pop(1, "section"), ("'section'",)),
    ("--subs", _set(0, "witness", "target", "two.json"), ("'witness'", "'target'")),
    ("--subs", _set(1, "members", "xor_strict"), ("'members'",)),
    ("--refl", _set(0, "u", "name", "u"), ("'u'", "'name'")),
    ("--refl", _set(1, "sections", {}), ("'sections'",)),
], ids=["witness-without-on_objects", "entry-without-member", "object-not-list",
        "u-without-on_objects", "entry-without-section", "witness-stray-field",
        "entry-stray-field", "u-stray-field", "datum-stray-field"])
def test_audit_names_the_malformed_field(capsys, tmp_path, flag, break_it, needles):
    """A malformed audit input file, or one with a field the format does not
    have, is invalid input (exit 2) naming the field."""
    shutil.copytree(ROOT, tmp_path / "corpus")
    path = tmp_path / "corpus" / ("subs.json" if flag == "--subs" else "refl.json")
    path.write_text(json.dumps(break_it(json.loads(path.read_text()))))
    code, _, err = go(capsys, AUDIT_ARGS + [flag, str(path)])
    assert code == 2
    assert err.startswith("invalid input:")
    assert all(n in err for n in needles), err


def test_audit_input_that_is_not_json(capsys, tmp_path):
    path = tmp_path / "refl.json"
    path.write_text('[{"member": ')
    code, _, err = go(capsys, AUDIT_ARGS + ["--refl", str(path)])
    assert code == 2
    assert "is not valid JSON" in err


def test_json_reports_are_deterministic(capsys):
    code1, out1, _ = go(capsys, AUDIT_ARGS + ["--json"])
    code2, out2, _ = go(capsys, AUDIT_ARGS + ["--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True


def test_ortho_char(capsys):
    code, out, _ = go(capsys, [
        "ortho-char", "--extension", COHERENCE, "--catalog", CATALOG_DIR,
    ])
    assert code == 0
    assert "equational subclass == orthogonality class: yes" in out
    assert '"class_size": 4' in out


# -- the text reports, pinned ------------------------------------------

ONE = str(ROOT / "one.json")
XOR = str(ROOT / "monoidal" / "xor_strict.json")

TEXT_REPORTS = {
    "orthogonal-yes": (
        ["orthogonal", "--left", "{fact}/left.json", "--right", "{fact}/right.json"],
        0, "orthogonal: yes\n"),
    "orthogonal-no": (
        ["orthogonal", "--left", COLLAPSE, "--right", COLLAPSE], 1,
        'orthogonal: no  {"fillins": 0, "level": 1, '
        '"square": [{"a": "a", "b": "b"}, {"0": "0", "1": "1"}]}\n'),
    "orthogonal-object-yes": (
        ["orthogonal-object", "--morphism", COLLAPSE, "--object", ONE], 0,
        "orthogonal: yes\n"),
    "orthogonal-object-no": (
        ["orthogonal-object", "--morphism", COLLAPSE, "--object", str(ROOT / "p.json")], 1,
        'orthogonal: no  {"level": 1, "missing": [{"a": "a", "b": "b"}, '
        '{"a": "a", "b": "b"}], "reason": "not surjective on functors"}\n'),
    "satisfies-yes": (
        ["satisfies", "--algebra", XOR, "--extension", COHERENCE], 0, "satisfies: yes\n"),
    "satisfies-no": (
        ["satisfies", "--algebra", SIGMA, "--extension", COHERENCE], 1,
        'satisfies: no  {"equation": 0, "kind": "two_cell", "lhs": "id0", "rhs": "s0", '
        '"tuple": ["0", "0", "0", "0"]}\n'),
    "converges": (
        ["converges", "--functor", COLLAPSE], 0,
        "converges immediately: yes\ncomparison functor faithful: yes\n"),
    "kernel": (
        ["kernel", "--functor", COLLAPSE], 0,
        "kernel apex: 6 objects, 12 morphisms\ninput coequifies its kernel: yes\n"),
    "coequify": (
        ["coequify", "--phi", "{kern}/phi.json", "--psi", "{kern}/psi.json"], 0,
        'quotient: 2 objects, 3 morphisms\nmerged classes: [["u", "v"]]\n'
        "projection classifies b.o. full: yes\n"),
    "reflect": (
        ["reflect", "--algebra", SIGMA, "--extension", COHERENCE], 0,
        'merged classes: [["id0", "s0"], ["id1", "s1"]]\n'
        "unit classifies b.o. full: yes\n"
        "reflected algebra satisfies the extension: yes\n"),
    "quotients": (
        ["quotients", "--algebra", str(ROOT / "plain_p.json")], 0,
        '2 quotient algebras\n  1: [["u", "v"]]\n  2: discrete\n'),
    "ortho-char": (
        ["ortho-char", "--extension", COHERENCE, "--catalog", CATALOG_DIR], 0,
        "equational subclass == orthogonality class: yes  "
        '{"catalog": 6, "class_size": 4, "units": 6}\n'),
    "audit-pinned": (
        ["audit", "--extension", COHERENCE, "--catalog", CATALOG_DIR,
         "--members", "sigma_assoc"], 1,
        "closure audit for extension coherence\n"
        "subclass members: sigma_assoc\n"
        "  [FAIL] products: sigma_assoc x sigma_assoc  "
        "<- {'not_isomorphic_to_any_member': '(sigma_assocxsigma_assoc)'}\n"
        "  [FAIL] quotients: sigma_assoc / [['id0', 's0'], ['id1', 's1']]  "
        "<- {'not_isomorphic_to_any_member': 'sigma_assoc/~'}\n"
        "  [pass] quotients: sigma_assoc / discrete\n"
        "result: FAIL (3 checks)\n"),
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The factor legs and the kernel data of collapse, written once."""
    root = tmp_path_factory.mktemp("written")
    dirs = {"fact": root / "fact", "kern": root / "kern"}
    assert cli.run(["factor", "--system", "bof", "--functor", COLLAPSE,
                    "--out", str(dirs["fact"])]) == 0
    assert cli.run(["kernel", "--functor", COLLAPSE, "--out", str(dirs["kern"])]) == 0
    return dirs


@pytest.mark.parametrize("case", sorted(TEXT_REPORTS))
def test_text_report_is_exact(capsys, written, case):
    """Each subcommand's plain-text report and exit code, byte for byte."""
    argv, want_code, want_out = TEXT_REPORTS[case]
    code, out, err = go(capsys, [a.format(**written) for a in argv])
    assert (code, out, err) == (want_code, want_out, "")


# -- lemma suites and module entry -------------------------------------


def test_lemma_suites_all_pass(capsys):
    code, out, _ = go(capsys, ["lemmas"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'cancel-2-cells: pass {"cells": 698, "pairs": 1335}'
    assert lines[1] == 'so-faithful: pass {"cells": 2652, "pairs": 5644}'
    assert lines[2] == 'coeq-refl: pass {"data": 115}'
    assert lines[3] == 'immediate-convergence: pass {"functors": 114}'


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "birkhoff2d", "validate", "--category",
         str(ROOT / "two.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok:" in proc.stdout
