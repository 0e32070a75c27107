"""Mutated input files never escape the CLI as a traceback.

Each example takes one corpus input file of a given kind, applies one
mutation somewhere in its JSON (drop a key or list element, or replace a
value with a value of another shape or with another value from the same
file) and runs the CLI on it in-process.  Whatever the mutation, the exit
code is 0 (still valid), 1 (a property failed) or 2 (invalid input).
"""
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from birkhoff2d import cli, corpus

NAT = {"from": "collapse.json", "to": "collapse.json", "components": {"a": "id0", "b": "id1"}}

AUDIT = ["audit", "--extension", "coherence.json", "--catalog", "monoidal"]

# kind -> (file in the corpus copy, CLI arguments before the file; relative
# paths resolve against the corpus copy, the working directory)
KINDS = {
    "category": ("p.json", ["validate", "--category"]),
    "functor": ("collapse.json", ["validate", "--functor"]),
    "nat": ("cell.json", ["validate", "--nat"]),
    "presentation": ("monoidal.json", ["validate", "--presentation"]),
    "extension": ("coherence.json", ["validate", "--extension"]),
    "algebra": ("monoidal/xor_strict.json", ["validate", "--algebra"]),
    "subs": ("subs.json", AUDIT + ["--subs"]),
    "refl": ("refl.json", AUDIT + ["--refl"]),
}

# values of every JSON shape, small enough that no mutation asks for a
# large search; sibling file names make references point elsewhere
POOL = [None, True, -1, 0, 1, 2, 3, 1.5, "", "x", "0", "id0", "one.json", "p.json",
        "fuzzed.json", [], ["x"], [["0"], "id0"], {}, {"x": "y"}]


@pytest.fixture(scope="module")
def corpus_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "corpus"
    shutil.copytree(corpus.corpus_root(), root)
    (root / "cell.json").write_text(json.dumps(NAT))
    return root


def _nodes(value, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


@st.composite
def mutated(draw, doc):
    nodes = list(_nodes(doc))
    path, _ = draw(st.sampled_from(nodes))
    delete = bool(path) and draw(st.booleans())
    replacement = None if delete else draw(st.sampled_from(POOL + [v for _, v in nodes]))
    if not path:
        return replacement
    new = json.loads(json.dumps(doc))
    parent = new
    for k in path[:-1]:
        parent = parent[k]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return new


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_exits_cleanly(corpus_copy, kind, data, capsys, monkeypatch):
    monkeypatch.chdir(corpus_copy)
    name, argv = KINDS[kind]
    original = corpus_copy / name
    doc = data.draw(mutated(json.loads(original.read_text())))
    path = original.with_name("fuzzed.json")
    path.write_text(json.dumps(doc))
    try:
        code = cli.run(argv + [str(path)])
    finally:
        path.unlink()
    capsys.readouterr()
    assert code in (0, 1, 2)


def _algebra_tables(doc):
    """Every operation table and generator table of an algebra file, with
    the field that holds it."""
    for tables in doc["operations"].values():
        yield from ((field, tables[field]) for field in ("on_objects", "on_morphisms"))
    yield from doc["generators"].items()


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_repeated_table_row_is_invalid_input(corpus_copy, data, capsys, monkeypatch):
    """One row of an algebra table listed a second time, anywhere in the
    table and with any value of the file, exits 2 naming the table, whether
    or not the other copy is lawful."""
    monkeypatch.chdir(corpus_copy)
    name, argv = KINDS["algebra"]
    original = corpus_copy / name
    doc = json.loads(original.read_text())
    field, table = data.draw(st.sampled_from(list(_algebra_tables(doc))))
    args, _ = data.draw(st.sampled_from(table))
    value = data.draw(st.sampled_from(sorted({v for _, v in table})))
    table.insert(data.draw(st.integers(0, len(table))), [args, value])
    path = original.with_name("fuzzed.json")
    path.write_text(json.dumps(doc))
    try:
        code = cli.run(argv + [str(path)])
    finally:
        path.unlink()
    err = capsys.readouterr().err
    assert code == 2 and repr(field) in err and "repeats the row %r" % (args,) in err, err
