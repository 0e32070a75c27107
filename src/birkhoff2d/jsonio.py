"""JSON ingestion and emission for every entity kind.

Files reference each other by relative path (a functor file names its
source and target category files, an algebra names its presentation and
carrier).  :class:`Workspace` resolves those references against the
directory of the referring file and caches parsed entities per path.

Serialization is deterministic: tables are emitted in sorted order and
composition tables list only entries that are not forced by the identity
laws.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .errors import UsageError, ValidationError
from .fincat import FinCategory, Functor, NatTransformation, validate_category
from .theory import (
    Algebra,
    AlgebraHom,
    Extension,
    Operation,
    OpTable,
    Presentation,
    Signature,
    TwoCellGenerator,
    expr_from_json,
    expr_to_json,
    term_from_json,
    term_to_json,
)


def entity_kind(data) -> str:
    """Infer what a parsed JSON document describes from its keys."""
    if not isinstance(data, dict):
        raise UsageError("expected a JSON object at top level")
    if "carrier" in data:
        return "algebra"
    if "base" in data:
        return "extension"
    if "objects" in data:
        return "category"
    if "on_objects" in data:
        return "functor"
    if "components" in data or "from" in data:
        return "nat"
    if "operations" in data:
        return "presentation"
    raise UsageError("unrecognized entity (keys: %s)" % ", ".join(sorted(data)))


# -- pure parsers and serializers -------------------------------------


def _field(data: dict, key: str, kind: str, shape: type):
    """``data[key]``, checked to be a string (a file reference) or a mapping
    of names to names; a ValidationError naming the field otherwise."""
    if key not in data:
        raise ValidationError("%s lacks %r" % (kind, key), witness=key)
    value = data[key]
    if not isinstance(value, shape) or (
        shape is dict and not all(isinstance(v, str) for v in value.values())
    ):
        raise ValidationError("%s field %r must be %s" % (
            kind, key, "a file name" if shape is str else "a mapping of names to names"),
            witness=key)
    return value


def parse_category(data, name: str = "") -> FinCategory:
    return validate_category(data, name=name or data.get("name", ""))


def category_to_json(C: FinCategory) -> dict:
    ids = set(C.identities.values())
    comp = sorted(
        [g, f, C.compose(g, f)]
        for (g, f) in C.composable_pairs()
        if g not in ids and f not in ids
    )
    out = {
        "objects": list(C.objects),
        "morphisms": [{"id": m.name, "dom": m.dom, "cod": m.cod} for m in C.morphisms],
        "identities": dict(C.identities),
        "composition": comp,
    }
    if C.name:
        out["name"] = C.name
    return out


def parse_presentation(data, name: str = "") -> Presentation:
    sig = Signature([Operation(o["name"], int(o["arity"])) for o in data.get("operations", [])])
    term_eqs = [
        (term_from_json(l), term_from_json(r)) for l, r in data.get("term_equations", [])
    ]
    gens = [
        TwoCellGenerator(
            g["name"],
            int(g["arity"]),
            term_from_json(g["source"]),
            term_from_json(g["target"]),
            bool(g.get("invertible", False)),
        )
        for g in data.get("generators", [])
    ]
    cell_eqs = [
        (expr_from_json(l), expr_from_json(r))
        for l, r in data.get("two_cell_equations", [])
    ]
    return Presentation(sig, term_eqs, gens, cell_eqs, name=name or data.get("name", ""))


def presentation_to_json(P: Presentation) -> dict:
    out = {
        "operations": [{"name": o.name, "arity": o.arity} for o in P.signature.operations],
        "term_equations": [[term_to_json(l), term_to_json(r)] for l, r in P.term_equations],
        "generators": [
            {
                "name": g.name,
                "arity": g.arity,
                "source": term_to_json(g.source),
                "target": term_to_json(g.target),
                "invertible": g.invertible,
            }
            for g in P.generators
        ],
        "two_cell_equations": [
            [expr_to_json(l), expr_to_json(r)] for l, r in P.two_cell_equations
        ],
    }
    if P.name:
        out["name"] = P.name
    return out


def extension_to_json(E: Extension, base_ref: str) -> dict:
    out = {
        "base": base_ref,
        "added_two_cell_equations": [
            [expr_to_json(l), expr_to_json(r)] for l, r in E.added_two_cell_equations
        ],
    }
    if E.name:
        out["name"] = E.name
    return out


def functor_to_json(F: Functor, source_ref: str, target_ref: str) -> dict:
    out = {
        "source": source_ref,
        "target": target_ref,
        "on_objects": dict(F.on_objects),
        "on_morphisms": dict(F.on_morphisms),
    }
    if F.name:
        out["name"] = F.name
    return out


def nat_to_json(alpha: NatTransformation, from_ref: str, to_ref: str) -> dict:
    return {"from": from_ref, "to": to_ref, "components": dict(alpha.components)}


def _parse_table(entries) -> Dict[Tuple[str, ...], str]:
    table = {}
    for pair in entries:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise UsageError("table entry must be [args, value], got %r" % (pair,))
        args, value = pair
        table[tuple(args)] = value
    return table


def _table_json(table: Mapping[Tuple[str, ...], str]) -> list:
    return [[list(k), v] for k, v in sorted(table.items())]


def parse_algebra(data, presentation: Presentation, carrier: FinCategory,
                  name: str = "") -> Algebra:
    operations = {
        op_name: OpTable.from_maps(
            _parse_table(tables.get("on_objects", [])),
            _parse_table(tables.get("on_morphisms", [])),
        )
        for op_name, tables in data.get("operations", {}).items()
    }
    generators = {
        g_name: _parse_table(entries)
        for g_name, entries in data.get("generators", {}).items()
    }
    return Algebra(presentation, carrier, operations, generators,
                   name=name or data.get("name", ""))


def algebra_to_json(A: Algebra, presentation_ref: str, carrier_ref: str) -> dict:
    out = {
        "presentation": presentation_ref,
        "carrier": carrier_ref,
        "operations": {
            op.name: {
                "on_objects": _table_json(A._op_obj[op.name]),
                "on_morphisms": _table_json(A._op_mor[op.name]),
            }
            for op in A.presentation.signature.operations
        },
        "generators": {
            g.name: _table_json(A._gen[g.name]) for g in A.presentation.generators
        },
    }
    if A.name:
        out["name"] = A.name
    return out


def dump(data, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# -- the workspace -----------------------------------------------------


class Workspace:
    """Loads entities from files, resolving cross-references.

    A reference inside a file is a path relative to that file's
    directory.  Paths given directly to the loader methods are resolved
    against ``root`` (default: the current directory).  Every loaded
    entity remembers the file it came from (:meth:`path_of`).
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else Path(".")
        self._cache: Dict[Path, object] = {}
        # keyed by id: equal entities read from different files keep their own path
        self._paths: Dict[int, Path] = {}

    def _resolve(self, ref: Union[str, Path], base: Optional[Path]) -> Path:
        p = Path(ref)
        if p.is_absolute():
            return p
        return ((base if base is not None else self.root) / p).resolve()

    def _data(self, path: Path):
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            raise UsageError("no such file: %s" % path)
        except json.JSONDecodeError as exc:
            raise UsageError("%s is not valid JSON: %s" % (path, exc))

    def load(self, ref: Union[str, Path], base: Optional[Path] = None):
        path = self._resolve(ref, base)
        if path in self._cache:
            return self._cache[path]
        data = self._data(path)
        kind = entity_kind(data)
        here = path.parent
        name = data.get("name", path.stem)
        if kind == "category":
            out = parse_category(data, name=name)
        elif kind == "functor":
            out = self._functor_from(data, here, name)
        elif kind == "nat":
            out = self._nat_from(data, here)
        elif kind == "presentation":
            out = parse_presentation(data, name=name)
        elif kind == "extension":
            base_pres = self.presentation(data["base"], base=here)
            out = Extension(
                base_pres,
                [
                    (expr_from_json(l), expr_from_json(r))
                    for l, r in data.get("added_two_cell_equations", [])
                ],
                name=name,
            )
        elif kind == "algebra":
            pres = self.presentation(data["presentation"], base=here)
            carrier = self.category(data["carrier"], base=here)
            out = parse_algebra(data, pres, carrier, name=name)
        else:  # pragma: no cover - entity_kind is exhaustive
            raise UsageError("cannot load %s" % kind)
        self._cache[path] = out
        self._paths[id(out)] = path
        return out

    def path_of(self, entity) -> Path:
        """The resolved file an entity was loaded from."""
        return self._paths[id(entity)]

    def _functor_from(self, data, here: Path, name: str) -> Functor:
        src = self.category(_field(data, "source", "functor", str), base=here)
        tgt = self.category(_field(data, "target", "functor", str), base=here)
        return Functor(src, tgt, _field(data, "on_objects", "functor", dict),
                       _field(data, "on_morphisms", "functor", dict), name=name)

    def _nat_from(self, data, here: Path) -> NatTransformation:
        F = self.functor(_field(data, "from", "nat", str), base=here)
        G = self.functor(_field(data, "to", "nat", str), base=here)
        return NatTransformation(F, G, _field(data, "components", "nat", dict))

    def _typed(self, ref, base, cls, kind: str):
        out = self.load(ref, base)
        if not isinstance(out, cls):
            raise UsageError("wrong entity kind in %s (expected %s)" % (ref, kind))
        return out

    def category(self, ref, base: Optional[Path] = None) -> FinCategory:
        return self._typed(ref, base, FinCategory, "category")

    def functor(self, ref, base: Optional[Path] = None) -> Functor:
        return self._typed(ref, base, Functor, "functor")

    def nat(self, ref, base: Optional[Path] = None) -> NatTransformation:
        return self._typed(ref, base, NatTransformation, "natural transformation")

    def presentation(self, ref, base: Optional[Path] = None) -> Presentation:
        return self._typed(ref, base, Presentation, "presentation")

    def extension(self, ref, base: Optional[Path] = None) -> Extension:
        return self._typed(ref, base, Extension, "extension")

    def algebra(self, ref, base: Optional[Path] = None) -> Algebra:
        return self._typed(ref, base, Algebra, "algebra")

    def catalog(self, directory: Union[str, Path]) -> List[Tuple[str, Algebra]]:
        """All algebras in a directory, sorted by file name."""
        d = self._resolve(directory, None)
        if not d.is_dir():
            raise UsageError("catalog directory not found: %s" % d)
        out = []
        for path in sorted(d.glob("*.json")):
            entity = self.load(path)
            if isinstance(entity, Algebra):
                out.append((path.stem, entity))
        if not out:
            raise UsageError("no algebras in catalog directory %s" % d)
        return out


# -- audit input files -------------------------------------------------


def _entries(data, kind: str) -> list:
    """``data``, checked to be a list of JSON objects."""
    if not isinstance(data, list) or not all(isinstance(e, dict) for e in data):
        raise ValidationError("%s file must be a list of objects" % kind, witness=kind)
    return data


def _functor_maps(data: dict, key: str, kind: str):
    """The object and morphism maps of the inline functor ``data[key]``."""
    value = data.get(key)
    if not isinstance(value, dict):
        raise ValidationError("%s field %r must be an object" % (kind, key), witness=key)
    where = "%s field %r" % (kind, key)
    return _field(value, "on_objects", where, dict), _field(value, "on_morphisms", where, dict)


def _member(entry: dict, kind: str, members: Mapping[str, Algebra]) -> Algebra:
    name = _field(entry, "member", kind, str)
    if name not in members:
        raise UsageError("unknown catalog member %r" % name)
    return members[name]


def parse_sub_witnesses(data, ws: Workspace, here: Path,
                        members: Mapping[str, Algebra]):
    """Subalgebra witness list: [{"witness": functor-ref-or-inline,
    "member": catalog-name}]."""
    kind = "subalgebra witness"
    out = []
    for entry in _entries(data, kind):
        member = _member(entry, kind, members)
        w = entry.get("witness")
        if isinstance(w, str):
            F = ws.functor(w, base=here)
        else:
            on_objects, on_morphisms = _functor_maps(entry, "witness", kind)
            src = ws.category(_field(w, "source", "%s field 'witness'" % kind, str), base=here)
            F = Functor(src, member.carrier, on_objects, on_morphisms, name=w.get("name", ""))
        out.append((F, member))
    return out


def parse_refl_data(data, ws: Workspace, here: Path,
                    members: Mapping[str, Algebra]):
    """Reflexive 2-cell data list.  Each entry names the apex algebra and
    target member and gives u, v, section as object/morphism maps and
    phi, psi as component maps."""
    kind = "reflexive datum"
    out = []
    for entry in _entries(data, kind):
        member = _member(entry, kind, members)
        apex = ws.algebra(_field(entry, "apex", kind, str), base=here)
        datum = {"name": entry.get("name", entry["member"]), "member": entry["member"]}
        for key, src, tgt in (("u", apex, member), ("v", apex, member),
                              ("section", member, apex)):
            datum[key] = AlgebraHom(src, tgt, Functor(
                src.carrier, tgt.carrier, *_functor_maps(entry, key, kind), name=key))
        for key in ("phi", "psi"):
            datum[key] = NatTransformation(datum["u"].functor, datum["v"].functor,
                                           _field(entry, key, kind, dict))
        out.append(datum)
    return out
