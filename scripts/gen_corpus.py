#!/usr/bin/env python3
"""Regenerate the bundled corpus under src/birkhoff2d/corpus.

Everything derived (product carriers, product algebras, the audit data
maps) is rebuilt from the primitive definitions here, validated through
the package, and written deterministically.  Run from anywhere:

    python3 scripts/gen_corpus.py
"""
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from birkhoff2d.fincat import Functor, power_span
from birkhoff2d.jsonio import (
    algebra_to_json,
    category_to_json,
    dump,
    extension_to_json,
    functor_to_json,
    presentation_to_json,
    validate_category,
)
from birkhoff2d.theory import (
    Algebra,
    App,
    Extension,
    GenCell,
    IdCell,
    Operation,
    Presentation,
    Signature,
    SubstCell,
    TwoCellGenerator,
    Var,
    VCompCell,
    product_algebra,
)

OUT = ROOT / "src" / "birkhoff2d" / "corpus"


# -- the six named categories -----------------------------------------

RAW_CATEGORIES = {
    "one": {
        "objects": ["*"],
        "morphisms": [{"id": "id", "dom": "*", "cod": "*"}],
        "identities": {"*": "id"},
        "composition": [],
    },
    "two": {
        "objects": ["0", "1"],
        "morphisms": [
            {"id": "id0", "dom": "0", "cod": "0"},
            {"id": "id1", "dom": "1", "cod": "1"},
            {"id": "t", "dom": "0", "cod": "1"},
        ],
        "identities": {"0": "id0", "1": "id1"},
        "composition": [],
    },
    "p": {
        "objects": ["a", "b"],
        "morphisms": [
            {"id": "ida", "dom": "a", "cod": "a"},
            {"id": "idb", "dom": "b", "cod": "b"},
            {"id": "u", "dom": "a", "cod": "b"},
            {"id": "v", "dom": "a", "cod": "b"},
        ],
        "identities": {"a": "ida", "b": "idb"},
        "composition": [],
    },
    "d2": {
        "objects": ["x", "y"],
        "morphisms": [
            {"id": "idx", "dom": "x", "cod": "x"},
            {"id": "idy", "dom": "y", "cod": "y"},
        ],
        "identities": {"x": "idx", "y": "idy"},
        "composition": [],
    },
    "z2": {
        "objects": ["*"],
        "morphisms": [
            {"id": "1", "dom": "*", "cod": "*"},
            {"id": "s", "dom": "*", "cod": "*"},
        ],
        "identities": {"*": "1"},
        "composition": [["s", "s", "1"]],
    },
    "z2z2": {
        "objects": ["0", "1"],
        "morphisms": [
            {"id": "id0", "dom": "0", "cod": "0"},
            {"id": "s0", "dom": "0", "cod": "0"},
            {"id": "id1", "dom": "1", "cod": "1"},
            {"id": "s1", "dom": "1", "cod": "1"},
        ],
        "identities": {"0": "id0", "1": "id1"},
        "composition": [["s0", "s0", "id0"], ["s1", "s1", "id1"]],
    },
}

CATS = {name: validate_category(raw, name=name) for name, raw in RAW_CATEGORIES.items()}


# -- the monoidal presentation and the coherence extension ------------

V1, V2, V3, V4 = Var(1), Var(2), Var(3), Var(4)
UNIT = App("unit", ())


def T(a, b):
    return App("tensor", (a, b))


def inst(gen, *terms):
    return SubstCell(GenCell(gen), tuple(terms))


def tens2(left, right):
    return SubstCell(IdCell(T(V1, V2)), (left, right))


def monoidal_presentation():
    sig = Signature([Operation("unit", 0), Operation("tensor", 2)])
    gens = [
        TwoCellGenerator("assoc", 3, T(T(V1, V2), V3), T(V1, T(V2, V3)), True),
        TwoCellGenerator("lunit", 1, T(UNIT, V1), V1, True),
        TwoCellGenerator("runit", 1, T(V1, UNIT), V1, True),
    ]
    return Presentation(sig, [], gens, [], name="monoidal")


def coherence_extension(pres):
    pentagon_lhs = VCompCell(
        inst("assoc", V1, V2, T(V3, V4)), inst("assoc", T(V1, V2), V3, V4)
    )
    pentagon_rhs = VCompCell(
        tens2(V1, inst("assoc", V2, V3, V4)),
        VCompCell(
            inst("assoc", V1, T(V2, V3), V4), tens2(inst("assoc", V1, V2, V3), V4)
        ),
    )
    triangle_lhs = VCompCell(tens2(V1, inst("lunit", V2)), inst("assoc", V1, UNIT, V2))
    triangle_rhs = tens2(inst("runit", V1), V2)
    return Extension(
        pres, [(pentagon_lhs, pentagon_rhs), (triangle_lhs, triangle_rhs)], name="coherence"
    )


# -- the catalog algebras ---------------------------------------------


def zname(a, x):
    return ("id" if a % 2 == 0 else "s") + str(x)


def zparts(m):
    return (0 if m.startswith("id") else 1, int(m[-1]))


def z2z2_algebra(pres, assoc_sigma, name):
    carrier = CATS["z2z2"]
    t_obj = {(x, y): str((int(x) + int(y)) % 2) for x in "01" for y in "01"}
    t_mor = {}
    for m1, m2 in itertools.product([m.name for m in carrier.morphisms], repeat=2):
        (a1, x1), (a2, x2) = zparts(m1), zparts(m2)
        t_mor[(m1, m2)] = zname(a1 + a2, (x1 + x2) % 2)
    ops = {
        "unit": ({(): "0"}, {(): "id0"}),
        "tensor": (t_obj, t_mor),
    }
    sigma_bit = 1 if assoc_sigma else 0
    gens = {
        "assoc": {
            t: zname(sigma_bit, sum(int(o) for o in t) % 2)
            for t in itertools.product("01", repeat=3)
        },
        "lunit": {(x,): zname(0, int(x)) for x in "01"},
        "runit": {(x,): zname(0, int(x)) for x in "01"},
    }
    return Algebra(pres, carrier, ops, gens, name=name)


def two_max_algebra(pres):
    carrier = CATS["two"]
    names = {("0", "0"): "id0", ("1", "1"): "id1", ("0", "1"): "t"}
    bnd = {"id0": ("0", "0"), "id1": ("1", "1"), "t": ("0", "1")}

    def omax(x, y):
        return str(max(int(x), int(y)))

    t_obj = {(x, y): omax(x, y) for x in "01" for y in "01"}
    t_mor = {}
    for m1, m2 in itertools.product(bnd, repeat=2):
        t_mor[(m1, m2)] = names[(omax(bnd[m1][0], bnd[m2][0]), omax(bnd[m1][1], bnd[m2][1]))]
    ops = {
        "unit": ({(): "0"}, {(): "id0"}),
        "tensor": (t_obj, t_mor),
    }
    gens = {
        "assoc": {
            t: "id" + str(max(int(o) for o in t)) for t in itertools.product("01", repeat=3)
        },
        "lunit": {(x,): "id" + x for x in "01"},
        "runit": {(x,): "id" + x for x in "01"},
    }
    return Algebra(pres, carrier, ops, gens, name="two_max")


def z2_algebra(pres, assoc_sigma, name):
    carrier = CATS["z2"]

    def mul(m1, m2):
        return "1" if m1 == m2 else "s"

    ops = {
        "unit": ({(): "*"}, {(): "1"}),
        "tensor": (
            {("*", "*"): "*"},
            {(m1, m2): mul(m1, m2) for m1 in "1s" for m2 in "1s"},
        ),
    }
    comp = "s" if assoc_sigma else "1"
    gens = {
        "assoc": {("*", "*", "*"): comp},
        "lunit": {("*",): "1"},
        "runit": {("*",): "1"},
    }
    return Algebra(pres, carrier, ops, gens, name=name)


def terminal_algebra(pres):
    carrier = CATS["one"]
    ops = {
        "unit": ({(): "*"}, {(): "id"}),
        "tensor": ({("*", "*"): "*"}, {(("id", "id")): "id"}),
    }
    gens = {
        "assoc": {("*", "*", "*"): "id"},
        "lunit": {("*",): "id"},
        "runit": {("*",): "id"},
    }
    return Algebra(pres, carrier, ops, gens, name="terminal_alg")


# -- writing -----------------------------------------------------------


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "monoidal").mkdir(exist_ok=True)
    (OUT / "derived").mkdir(exist_ok=True)

    for name, cat in CATS.items():
        dump(category_to_json(cat), OUT / ("%s.json" % name))

    collapse = Functor(
        CATS["p"],
        CATS["two"],
        {"a": "0", "b": "1"},
        {"ida": "id0", "idb": "id1", "u": "t", "v": "t"},
        name="collapse",
    )
    dump(functor_to_json(collapse, "p.json", "two.json"), OUT / "collapse.json")

    pres = monoidal_presentation()
    dump(presentation_to_json(pres), OUT / "monoidal.json")
    coherence = coherence_extension(pres)
    dump(extension_to_json(coherence, "monoidal.json"), OUT / "coherence.json")

    bare = Presentation(Signature([]), name="bare")
    dump(presentation_to_json(bare), OUT / "bare.json")
    plain_p = Algebra(bare, CATS["p"], {}, {}, name="plain_p")
    dump(algebra_to_json(plain_p, "bare.json", "p.json"), OUT / "plain_p.json")

    xor_strict = z2z2_algebra(pres, False, "xor_strict")
    sigma_assoc = z2z2_algebra(pres, True, "sigma_assoc")
    two_max = two_max_algebra(pres)
    z2_strict = z2_algebra(pres, False, "z2_strict")
    z2_sigma = z2_algebra(pres, True, "z2_sigma")
    terminal = terminal_algebra(pres)
    refs = {
        "xor_strict": ("../z2z2.json", xor_strict),
        "sigma_assoc": ("../z2z2.json", sigma_assoc),
        "two_max": ("../two.json", two_max),
        "z2_strict": ("../z2.json", z2_strict),
        "z2_sigma": ("../z2.json", z2_sigma),
        "terminal_alg": ("../one.json", terminal),
    }
    for name, (carrier_ref, alg) in refs.items():
        dump(
            algebra_to_json(alg, "../monoidal.json", carrier_ref),
            OUT / "monoidal" / ("%s.json" % name),
        )

    # derived product carriers and product algebras for the audit data
    two_max_sq, tm_p1, _ = product_algebra(two_max, two_max)
    xor_sq, x_p1, _ = product_algebra(xor_strict, xor_strict)
    dump(category_to_json(two_max_sq.carrier), OUT / "derived" / "two_sq.json")
    dump(category_to_json(xor_sq.carrier), OUT / "derived" / "z2z2_sq.json")
    dump(
        algebra_to_json(two_max_sq, "../monoidal.json", "two_sq.json"),
        OUT / "derived" / "two_max_sq.json",
    )
    dump(
        algebra_to_json(xor_sq, "../monoidal.json", "z2z2_sq.json"),
        OUT / "derived" / "xor_sq.json",
    )

    dump(
        [
            {
                "member": "xor_strict",
                "witness": {
                    "name": "unit-object",
                    "source": "one.json",
                    "on_objects": {"*": "0"},
                    "on_morphisms": {"id": "id0"},
                },
            },
            {
                "member": "xor_strict",
                "witness": {
                    "name": "discrete-objects",
                    "source": "d2.json",
                    "on_objects": {"x": "0", "y": "1"},
                    "on_morphisms": {"idx": "id0", "idy": "id1"},
                },
            },
            {
                "member": "two_max",
                "witness": {
                    "name": "unit-object",
                    "source": "one.json",
                    "on_objects": {"*": "0"},
                    "on_morphisms": {"id": "id0"},
                },
            },
        ],
        OUT / "subs.json",
    )

    # reflexive 2-cell data for the audit
    tm_span = power_span((CATS["two"], CATS["two"]))
    tm_mors = [m.name for m in CATS["two"].morphisms]
    tm_names = {("0", "0"): "id0", ("1", "1"): "id1", ("0", "1"): "t"}
    tensor_map = {
        "on_objects": {
            tm_span.obj_of[(x, y)]: two_max.op_obj("tensor", (x, y))
            for x in "01"
            for y in "01"
        },
        "on_morphisms": {
            tm_span.mor_of[t]: two_max.op_mor("tensor", t)
            for t in itertools.product(tm_mors, repeat=2)
        },
    }
    pr1_map = {
        "on_objects": dict(tm_p1.functor.on_objects),
        "on_morphisms": dict(tm_p1.functor.on_morphisms),
    }
    tm_diag = {
        "on_objects": {x: tm_span.obj_of[(x, x)] for x in "01"},
        "on_morphisms": {m: tm_span.mor_of[(m, m)] for m in tm_mors},
    }
    tm_mod = {
        tm_span.obj_of[(x, y)]: tm_names[(x, str(max(int(x), int(y))))]
        for x in "01"
        for y in "01"
    }

    x_span = power_span((CATS["z2z2"], CATS["z2z2"]))
    x_mors = [m.name for m in CATS["z2z2"].morphisms]
    x_pr1 = {
        "on_objects": dict(x_p1.functor.on_objects),
        "on_morphisms": dict(x_p1.functor.on_morphisms),
    }
    x_diag = {
        "on_objects": {x: x_span.obj_of[(x, x)] for x in "01"},
        "on_morphisms": {m: x_span.mor_of[(m, m)] for m in x_mors},
    }
    x_id = {x_span.obj_of[(x, y)]: zname(0, int(x)) for x in "01" for y in "01"}
    x_char = {
        x_span.obj_of[(x, y)]: zname(int(x) + int(y), int(x)) for x in "01" for y in "01"
    }

    dump(
        [
            {
                "name": "two_max-projection-vs-tensor",
                "member": "two_max",
                "apex": "derived/two_max_sq.json",
                "u": pr1_map,
                "v": tensor_map,
                "phi": tm_mod,
                "psi": tm_mod,
                "section": tm_diag,
            },
            {
                "name": "xor-character-collapse",
                "member": "xor_strict",
                "apex": "derived/xor_sq.json",
                "u": x_pr1,
                "v": x_pr1,
                "phi": x_id,
                "psi": x_char,
                "section": x_diag,
            },
        ],
        OUT / "refl.json",
    )

    # reload everything through the public loaders as a final validation
    sys.modules.pop("birkhoff2d.corpus", None)
    from birkhoff2d import corpus

    assert len(corpus.categories()) == 6
    assert len(corpus.catalog()) == 6
    assert corpus.plain_p().carrier == CATS["p"]
    assert len(corpus.sub_witnesses()) == 3
    assert len(corpus.refl_data()) == 2
    from birkhoff2d.theory import satisfies

    assert satisfies(corpus.catalog_algebra("xor_strict"), corpus.coherence_extension())
    assert not satisfies(corpus.catalog_algebra("sigma_assoc"), corpus.coherence_extension())
    print("corpus written to", OUT)


if __name__ == "__main__":
    main()
