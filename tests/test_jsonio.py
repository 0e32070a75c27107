"""On-disk format: parsing, serialization, the workspace loader."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from birkhoff2d import corpus
from birkhoff2d.errors import UsageError
from birkhoff2d.fincat import FinCategory, Functor, NatTransformation, classify
from birkhoff2d.jsonio import (
    Workspace,
    algebra_to_json,
    category_to_json,
    dump,
    entity_kind,
    extension_to_json,
    functor_to_json,
    presentation_to_json,
)
from birkhoff2d.theory import Algebra, AlgebraHom, Extension, Presentation


ROOT = corpus.corpus_root()

ENTITY_FILES = sorted(
    p for p in ROOT.rglob("*.json") if p.name not in ("subs.json", "refl.json")
)


def _reserialize(entity, raw):
    if isinstance(entity, FinCategory):
        return category_to_json(entity)
    if isinstance(entity, Functor):
        return functor_to_json(entity, raw["source"], raw["target"])
    if isinstance(entity, Presentation):
        return presentation_to_json(entity)
    if isinstance(entity, Extension):
        return extension_to_json(entity, raw["base"])
    if isinstance(entity, Algebra):
        return algebra_to_json(entity, raw["presentation"], raw["carrier"])
    raise TypeError(entity)


@pytest.mark.parametrize("path", ENTITY_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_bundled_files_roundtrip_byte_identically(path, tmp_path):
    raw = json.loads(path.read_text())
    entity = Workspace(ROOT).load(path)
    out = tmp_path / "again.json"
    dump(_reserialize(entity, raw), out)
    assert out.read_text() == path.read_text()


def test_entity_kinds_of_bundled_files():
    kinds = {}
    for path in ENTITY_FILES:
        kinds[str(path.relative_to(ROOT))] = entity_kind(json.loads(path.read_text()))
    assert kinds["one.json"] == "category"
    assert kinds["collapse.json"] == "functor"
    assert kinds["monoidal.json"] == "presentation"
    assert kinds["coherence.json"] == "extension"
    assert kinds["monoidal/xor_strict.json"] == "algebra"
    assert kinds["derived/xor_sq.json"] == "algebra"


def test_entity_kind_rejects_junk():
    with pytest.raises(UsageError):
        entity_kind(["not", "an", "object"])
    with pytest.raises(UsageError):
        entity_kind({"surprise": 1})


def test_workspace_caches_and_shares_references():
    ws = Workspace(ROOT)
    z2z2_a = ws.category("z2z2.json")
    z2z2_b = ws.category("z2z2.json")
    assert z2z2_a is z2z2_b
    xor = ws.algebra(Path("monoidal") / "xor_strict.json")
    assert xor.carrier is z2z2_a  # ../z2z2.json resolved through the same cache


def test_workspace_reports_missing_and_invalid_files(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(UsageError):
        ws.load("absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(UsageError):
        ws.load("bad.json")


def test_workspace_rejects_wrong_entity_kind():
    ws = Workspace(ROOT)
    with pytest.raises(UsageError) as exc:
        ws.functor("one.json")
    assert "wrong entity kind" in str(exc.value)


def test_catalog_lists_algebras_sorted():
    ws = Workspace(ROOT)
    entries = ws.catalog("monoidal")
    assert [n for n, _ in entries] == [
        "sigma_assoc", "terminal_alg", "two_max", "xor_strict",
        "z2_sigma", "z2_strict",
    ]


def test_catalog_requires_algebras(tmp_path):
    ws = Workspace(tmp_path)
    with pytest.raises(UsageError):
        ws.catalog(tmp_path)
    sub = tmp_path / "cats"
    sub.mkdir()
    dump(category_to_json(corpus.category("one")), sub / "one.json")
    with pytest.raises(UsageError):
        ws.catalog(sub)


def test_sub_witnesses_parse_to_faithful_functors():
    entries = corpus.sub_witnesses()
    assert len(entries) == 3
    for (F, member) in entries:
        assert F.target == member.carrier
        assert classify(F).faithful


def test_refl_data_parse_to_reflexive_shapes():
    entries = corpus.refl_data()
    assert len(entries) == 2
    for d in entries:
        assert isinstance(d["u"], AlgebraHom)
        assert isinstance(d["v"], AlgebraHom)
        assert isinstance(d["section"], AlgebraHom)
        assert isinstance(d["phi"], NatTransformation)
        assert d["u"].source is d["v"].source


@pytest.mark.parametrize("reader,name", [(corpus.sub_witnesses, "subs.json"),
                                         (corpus.refl_data, "refl.json")], ids=["subs", "refl"])
@pytest.mark.parametrize("content,message", [(b"[\xff\xfe]", "not UTF-8"),
                                             (None, "no such file")], ids=["not-utf8", "missing"])
def test_audit_files_of_a_copied_corpus_are_read_as_input(
        monkeypatch, tmp_path, reader, name, content, message):
    """The corpus reads its audit files like every other file: one that is
    missing or not UTF-8 is a usage error naming the file."""
    root = tmp_path / "corpus"
    shutil.copytree(ROOT, root)
    if content is None:
        (root / name).unlink()
    else:
        (root / name).write_bytes(content)
    monkeypatch.setenv("BIRKHOFF_CORPUS", str(root))
    with pytest.raises(UsageError, match=message) as info:
        reader()
    assert name in str(info.value)


def test_a_relative_corpus_directory_is_read_from_the_working_directory(
        monkeypatch, tmp_path):
    shutil.copytree(ROOT, tmp_path / "copy")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BIRKHOFF_CORPUS", "copy")
    assert corpus.workspace().path_of(corpus.category("one")) == tmp_path / "copy" / "one.json"
    xor = corpus.catalog_algebra("xor_strict")
    assert corpus.workspace().path_of(xor) == tmp_path / "copy" / "monoidal" / "xor_strict.json"
    assert len(corpus.sub_witnesses()) == 3 and len(corpus.refl_data()) == 2


def test_dump_is_deterministic(tmp_path):
    data = category_to_json(corpus.category("z2z2"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump(data, a)
    dump(data, b)
    assert a.read_bytes() == b.read_bytes()


def test_generator_reproduces_the_bundled_corpus(tmp_path):
    """scripts/gen_corpus.py, run in a copy of scripts/ and src/ whose
    corpus was deleted, writes back the committed corpus byte for byte."""
    repo = Path(__file__).resolve().parent.parent
    for part in ("scripts", "src"):
        shutil.copytree(repo / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "src" / "birkhoff2d" / "corpus"
    shutil.rmtree(out)
    subprocess.run([sys.executable, str(tmp_path / "scripts" / "gen_corpus.py")],
                   cwd=tmp_path, check=True, stdout=subprocess.DEVNULL)
    written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    committed = sorted(p.relative_to(ROOT) for p in ROOT.rglob("*") if p.is_file())
    assert written == committed
    for rel in committed:
        assert (out / rel).read_bytes() == (ROOT / rel).read_bytes(), rel
