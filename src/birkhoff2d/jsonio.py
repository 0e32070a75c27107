"""JSON ingestion and emission for every entity kind.

Files reference each other by relative path (a functor file names its
source and target category files, an algebra names its presentation and
carrier).  :class:`Workspace` resolves those references against the
directory of the referring file and caches parsed entities per path.

Every field of a parsed file is read through one checker, ``_field``,
which names the field when it is missing or of the wrong shape; nothing
past this module checks the shape of input again.

Serialization is deterministic: tables are emitted in sorted order and
composition tables list only entries that are not forced by the identity
laws.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from .errors import UsageError, ValidationError
from .fincat import FinCategory, Functor, Morphism, NatTransformation

# ``theory`` is imported only where a presentation, extension or algebra is
# read or written, so loading categories, functors and 2-cells never
# compiles it.


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


def _is_table(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], list)
        and all(isinstance(a, str) for a in e[0]) and isinstance(e[1], str)
        for e in value
    )


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(e, str) for e in value)


def _is_object_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(e, dict) for e in value)


# shape -> (description for the error message, test)
_SHAPES = {
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
    dict: ("a mapping of names to names",
           lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values())),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "functor": ("a file name or an object", lambda v: isinstance(v, (str, dict))),
    "objects": ("a list of objects", _is_object_list),
    "names": ("a list of names", _is_names),
    "triples": ("a list of [g, f, result] name triples",
                lambda v: isinstance(v, list) and all(_is_names(e) and len(e) == 3 for e in v)),
    "pairs": ("a list of [lhs, rhs] pairs",
              lambda v: isinstance(v, list) and all(
                  isinstance(e, list) and len(e) == 2 for e in v)),
    "table": ("a list of [[name, ...], name] entries", _is_table),
}

_REQUIRED = object()


def _field(data: dict, key: str, kind: str, shape, default=_REQUIRED):
    """``data[key]`` checked against ``shape``, a key of ``_SHAPES`` (``str``
    for a name or file reference, ``dict`` for a mapping of names to
    names, ...); ``default`` when the key is absent and a default is given.
    A ValidationError naming the field otherwise."""
    if not isinstance(data, dict):
        raise ValidationError("%s must be an object" % kind, witness=data)
    if key not in data:
        if default is _REQUIRED:
            raise ValidationError("%s lacks %r" % (kind, key), witness=key)
        return default
    what, ok = _SHAPES[shape]
    if not ok(data[key]):
        raise ValidationError("%s field %r must be %s" % (kind, key, what), witness=key)
    return data[key]


def _only(data, kind: str, keys: Tuple[str, ...]) -> dict:
    """``data``, checked to be an object with no key outside ``keys``: a
    misspelt optional field would otherwise be read as absent.  A
    ValidationError naming the first other key otherwise."""
    if not isinstance(data, dict):
        raise ValidationError("%s must be an object" % kind, witness=data)
    stray = next((k for k in data if k not in keys), None)
    if stray is not None:
        raise ValidationError("%s has unknown field %r" % (kind, stray), witness=stray)
    return data


def _object_list(data: dict, key: str, kind: str, item_kind: str, keys: Tuple[str, ...],
                 default=_REQUIRED) -> list:
    """``data[key]``, a list of objects, each checked by :func:`_only`."""
    return [_only(item, item_kind, keys)
            for item in _field(data, key, kind, "objects", default)]


_MAPS = ("on_objects", "on_morphisms")


def validate_category(raw: dict, name: str = "") -> FinCategory:
    """Build a category from its on-disk description, checking all laws.

    ``raw`` has ``objects`` (list of names), ``morphisms`` (list of {"id",
    "dom", "cod"}), ``identities`` (object -> morphism), optionally
    ``composition`` (list of [g, f, result] triples).  Entries forced by the
    identity laws may be omitted; explicit entries always win and are then
    checked.
    """
    kind, mor_kind = "category", "category morphism"
    _only(raw, kind, ("objects", "morphisms", "identities", "composition", "name"))
    objects = _field(raw, "objects", kind, "names")
    morphisms = [
        Morphism(_field(m, "id", mor_kind, str), _field(m, "dom", mor_kind, str),
                 _field(m, "cod", mor_kind, str))
        for m in _object_list(raw, "morphisms", kind, mor_kind, ("id", "dom", "cod"))
    ]
    identities = _field(raw, "identities", kind, dict)
    composition: Dict[Tuple[str, str], str] = {}
    for g, f, h in _field(raw, "composition", kind, "triples", []):
        if (g, f) in composition:
            raise ValidationError("%s field 'composition' repeats the entry %r"
                                  % (kind, (g, f)), witness=(g, f))
        composition[(g, f)] = h
    # fill identity-forced entries that were left implicit
    names = {m.name for m in morphisms}
    for m in morphisms:
        ic, idm = identities.get(m.cod), identities.get(m.dom)
        if ic in names:
            composition.setdefault((ic, m.name), m.name)
        if idm in names:
            composition.setdefault((m.name, idm), m.name)
    return FinCategory(objects, morphisms, identities, composition, name=name)


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


def parse_presentation(data, name: str) -> Presentation:
    from .theory import (Operation, Presentation, Signature, TwoCellGenerator,
                         expr_from_json, term_from_json)
    kind = "presentation"
    op_kind, gen_kind = "presentation operation", "presentation generator"
    _only(data, kind, ("operations", "term_equations", "generators", "two_cell_equations",
                       "name"))
    sig = Signature([
        Operation(_field(o, "name", op_kind, str), _field(o, "arity", op_kind, int))
        for o in _object_list(data, "operations", kind, op_kind, ("name", "arity"), [])
    ])
    term_eqs = [
        (term_from_json(l), term_from_json(r))
        for l, r in _field(data, "term_equations", kind, "pairs", [])
    ]
    gens = [
        TwoCellGenerator(
            _field(g, "name", gen_kind, str),
            _field(g, "arity", gen_kind, int),
            term_from_json(_field(g, "source", gen_kind, list)),
            term_from_json(_field(g, "target", gen_kind, list)),
            _field(g, "invertible", gen_kind, bool, False),
        )
        for g in _object_list(data, "generators", kind, gen_kind,
                              ("name", "arity", "source", "target", "invertible"), [])
    ]
    cell_eqs = [
        (expr_from_json(l), expr_from_json(r))
        for l, r in _field(data, "two_cell_equations", kind, "pairs", [])
    ]
    return Presentation(sig, term_eqs, gens, cell_eqs, name=name)


def presentation_to_json(P: Presentation) -> dict:
    from .theory import expr_to_json, term_to_json
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
    from .theory import expr_to_json
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


def _parse_table(data: dict, key: str, kind: str) -> Dict[Tuple[str, ...], str]:
    table: Dict[Tuple[str, ...], str] = {}
    for args, value in _field(data, key, kind, "table", []):
        row = tuple(args)
        if row in table:
            raise ValidationError("%s field %r repeats the row %r" % (kind, key, args),
                                  witness=row)
        table[row] = value
    return table


def _table_json(table: Mapping[Tuple[str, ...], str]) -> list:
    return [[list(k), v] for k, v in sorted(table.items())]


def parse_algebra(data, presentation: Presentation, carrier: FinCategory,
                  name: str) -> Algebra:
    from .theory import Algebra
    _only(data, "algebra", ("presentation", "carrier", "operations", "generators", "name"))
    ops = _field(data, "operations", "algebra", "object", {})
    gens = _field(data, "generators", "algebra", "object", {})
    operations = {}
    for op_name in ops:
        where = "algebra operation %r" % op_name
        tables = _only(_field(ops, op_name, "algebra operations", "object"), where, _MAPS)
        operations[op_name] = (_parse_table(tables, "on_objects", where),
                               _parse_table(tables, "on_morphisms", where))
    generators = {g_name: _parse_table(gens, g_name, "algebra generators") for g_name in gens}
    return Algebra(presentation, carrier, operations, generators, name=name)


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
        self._loading: Set[Path] = set()

    def _resolve(self, ref: Union[str, Path], base: Optional[Path]) -> Path:
        p = Path(ref)
        if p.is_absolute():
            return p
        return ((base if base is not None else self.root) / p).resolve()

    def _data(self, path: Path):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UsageError("no such file: %s" % path)
        except OSError as exc:
            raise UsageError("cannot read %s: %s" % (path, exc.strerror))
        except UnicodeDecodeError as exc:
            raise UsageError("%s is not UTF-8: %s" % (path, exc))
        except json.JSONDecodeError as exc:
            raise UsageError("%s is not valid JSON: %s" % (path, exc))
        except RecursionError:
            raise UsageError("%s is nested too deeply to read" % path) from None

    def load(self, ref: Union[str, Path], base: Optional[Path] = None):
        path = self._resolve(ref, base)
        if path in self._cache:
            return self._cache[path]
        if path in self._loading:
            raise ValidationError("%s refers back to itself" % path, witness=str(path))
        self._loading.add(path)
        try:
            out = self._parse(path)
        finally:
            self._loading.discard(path)
        self._cache[path] = out
        self._paths[id(out)] = path
        return out

    def _parse(self, path: Path):
        data = self._data(path)
        kind = entity_kind(data)
        here = path.parent
        name = _field(data, "name", kind, str, path.stem)
        if kind == "category":
            return validate_category(data, name=name)
        elif kind == "functor":
            return self._functor_from(data, here, name)
        elif kind == "nat":
            return self._nat_from(data, here)
        elif kind == "presentation":
            return parse_presentation(data, name=name)
        elif kind == "extension":
            from .theory import Extension, expr_from_json
            _only(data, kind, ("base", "added_two_cell_equations", "name"))
            base_pres = self.presentation(_field(data, "base", "extension", str), base=here)
            return Extension(
                base_pres,
                [
                    (expr_from_json(l), expr_from_json(r))
                    for l, r in _field(data, "added_two_cell_equations", "extension",
                                       "pairs", [])
                ],
                name=name,
            )
        elif kind == "algebra":
            pres = self.presentation(_field(data, "presentation", "algebra", str), base=here)
            carrier = self.category(_field(data, "carrier", "algebra", str), base=here)
            return parse_algebra(data, pres, carrier, name=name)
        else:  # pragma: no cover - entity_kind is exhaustive
            raise UsageError("cannot load %s" % kind)

    def path_of(self, entity) -> Path:
        """The resolved file an entity was loaded from."""
        return self._paths[id(entity)]

    def _functor_from(self, data, here: Path, name: str) -> Functor:
        _only(data, "functor", ("source", "target") + _MAPS + ("name",))
        src = self.category(_field(data, "source", "functor", str), base=here)
        tgt = self.category(_field(data, "target", "functor", str), base=here)
        return Functor(src, tgt, _field(data, "on_objects", "functor", dict),
                       _field(data, "on_morphisms", "functor", dict), name=name)

    def _nat_from(self, data, here: Path) -> NatTransformation:
        _only(data, "nat", ("from", "to", "components", "name"))
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
        from .theory import Presentation
        return self._typed(ref, base, Presentation, "presentation")

    def extension(self, ref, base: Optional[Path] = None) -> Extension:
        from .theory import Extension
        return self._typed(ref, base, Extension, "extension")

    def algebra(self, ref, base: Optional[Path] = None) -> Algebra:
        from .theory import Algebra
        return self._typed(ref, base, Algebra, "algebra")

    def catalog(self, directory: Union[str, Path]) -> List[Tuple[str, Algebra]]:
        """All algebras in a directory, sorted by file name."""
        from .theory import Algebra
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


def _entries(ws: Workspace, ref: Union[str, Path], kind: str) -> Tuple[list, Path]:
    """The audit file ``ref``, read through ``ws`` and checked to be a list
    of JSON objects, and the directory its references resolve against."""
    path = ws._resolve(ref, None)
    data = ws._data(path)
    if not _is_object_list(data):
        raise ValidationError("%s file must be a list of objects" % kind, witness=kind)
    return data, path.parent


def _functor_maps(value: dict, where: str, others: Tuple[str, ...] = ()):
    """The object and morphism maps of an inline functor, whose only other
    keys are ``others``."""
    _only(value, where, _MAPS + others)
    return _field(value, "on_objects", where, dict), _field(value, "on_morphisms", where, dict)


def _member(entry: dict, kind: str, members: Mapping[str, Algebra]) -> Tuple[str, Algebra]:
    name = _field(entry, "member", kind, str)
    if name not in members:
        raise UsageError("unknown catalog member %r" % name)
    return name, members[name]


def parse_sub_witnesses(ws: Workspace, ref: Union[str, Path],
                        members: Mapping[str, Algebra]):
    """Subalgebra witness file: [{"witness": functor-ref-or-inline,
    "member": catalog-name}]."""
    kind = "subalgebra witness"
    entries, here = _entries(ws, ref, kind)
    out = []
    for entry in entries:
        _only(entry, kind, ("member", "witness"))
        _, member = _member(entry, kind, members)
        w = _field(entry, "witness", kind, "functor")
        if isinstance(w, str):
            F = ws.functor(w, base=here)
        else:
            where = "%s field 'witness'" % kind
            maps = _functor_maps(w, where, ("source", "name"))
            src = ws.category(_field(w, "source", where, str), base=here)
            F = Functor(src, member.carrier, *maps, name=_field(w, "name", where, str, ""))
        out.append((F, member))
    return out


def parse_refl_data(ws: Workspace, ref: Union[str, Path],
                    members: Mapping[str, Algebra]):
    """Reflexive 2-cell data file.  Each entry names the apex algebra and
    target member and gives u, v, section as object/morphism maps and
    phi, psi as component maps."""
    from .theory import AlgebraHom
    kind = "reflexive datum"
    entries, here = _entries(ws, ref, kind)
    out = []
    for entry in entries:
        _only(entry, kind, ("member", "apex", "name", "u", "v", "section", "phi", "psi"))
        member_name, member = _member(entry, kind, members)
        apex = ws.algebra(_field(entry, "apex", kind, str), base=here)
        name = _field(entry, "name", kind, str, member_name)
        u, v, section = (
            AlgebraHom(src, tgt, Functor(src.carrier, tgt.carrier, *_functor_maps(
                _field(entry, key, kind, "object"), "%s field %r" % (kind, key)), name=key))
            for key, src, tgt in (("u", apex, member), ("v", apex, member),
                                  ("section", member, apex)))
        phi, psi = (NatTransformation(u.functor, v.functor, _field(entry, key, kind, dict))
                    for key in ("phi", "psi"))
        out.append({"name": name, "member": member_name, "u": u, "v": v,
                    "section": section, "phi": phi, "psi": psi})
    return out
