"""Access to the bundled corpus.

The corpus ships six named small categories, the monoidal presentation
with its coherence extension, a catalog of monoidal-signature algebras,
and the audit input files (subalgebra witnesses and reflexive 2-cell
data).  The environment variable BIRKHOFF_CORPUS overrides the bundled
directory.
"""
from __future__ import annotations

import os
from importlib import resources
from pathlib import Path
from typing import Dict, List, Tuple

from .fincat import DEFAULT_SEARCH_LIMIT, FinCategory, Functor, enumerate_functors
from .jsonio import Workspace, parse_refl_data, parse_sub_witnesses

CATEGORY_NAMES = ("one", "two", "p", "d2", "z2", "z2z2")

_workspaces: Dict[Path, Workspace] = {}


def corpus_root() -> Path:
    env = os.environ.get("BIRKHOFF_CORPUS")
    if env:
        return Path(env)
    return Path(str(resources.files("birkhoff2d").joinpath("corpus")))


def workspace() -> Workspace:
    root = corpus_root()
    ws = _workspaces.get(root)
    if ws is None:
        ws = _workspaces[root] = Workspace(root)
    return ws


def category(name: str) -> FinCategory:
    return workspace().category("%s.json" % name)


def categories() -> Tuple[FinCategory, ...]:
    return tuple(category(n) for n in CATEGORY_NAMES)


def corpus_functors(limit: int = DEFAULT_SEARCH_LIMIT) -> Tuple[Functor, ...]:
    """Every functor between the named corpus categories, in a fixed order."""
    cats = categories()
    out: List[Functor] = []
    for A in cats:
        for B in cats:
            out.extend(enumerate_functors(A, B, limit=limit))
    return tuple(out)


def collapse_functor() -> Functor:
    return workspace().functor("collapse.json")


def monoidal_presentation() -> Presentation:
    return workspace().presentation("monoidal.json")


def coherence_extension() -> Extension:
    return workspace().extension("coherence.json")


def plain_p() -> Algebra:
    return workspace().algebra("plain_p.json")


def catalog() -> Tuple[Tuple[str, Algebra], ...]:
    return tuple(workspace().catalog("monoidal"))


def catalog_algebra(name: str) -> Algebra:
    return workspace().algebra("monoidal/%s.json" % name)


def sub_witnesses():
    return parse_sub_witnesses(workspace(), "subs.json", dict(catalog()))


def refl_data():
    return parse_refl_data(workspace(), "refl.json", dict(catalog()))


def coequifier_data(limit: int = DEFAULT_SEARCH_LIMIT):
    """The bundled coequifier data: the walking parallel-pair datum on P
    plus the kernel of every corpus functor."""
    from .fincat import NatTransformation
    from .kernel import bof_kernel

    one = category("one")
    P = category("p")
    s = Functor(one, P, {"*": "a"}, {"id": "ida"}, name="pick_a")
    t = Functor(one, P, {"*": "b"}, {"id": "idb"}, name="pick_b")
    data = [
        (
            NatTransformation(s, t, {"*": "u"}, name="top"),
            NatTransformation(s, t, {"*": "v"}, name="bottom"),
        )
    ]
    for f in corpus_functors(limit=limit):
        kd = bof_kernel(f)
        data.append((kd.phi, kd.psi))
    return data
