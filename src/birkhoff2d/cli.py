"""Batch front door: load JSON entities, dispatch one subcommand, report.

Exit codes: 0 all checks passed, 1 a property check failed, 2 bad usage
or invalid input.  Reports are plain text by default and machine
readable with --json; output is deterministic for identical inputs.

Each ``cmd_*`` handler loads its inputs, runs its check, writes any
``--out`` files (``_write`` prints one "wrote" line per file) and returns
``(exit code, report, lines)``.  It prints nothing else: :func:`run` prints
the report as JSON under --json and the text lines otherwise, once, and
turns a ``ValidationError`` or ``LabError`` into exit 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import LabError, UsageError, ValidationError
from .factor import FACTOR_SYSTEMS, check_orthogonal_morphisms, check_orthogonal_object
from .fincat import DEFAULT_SEARCH_LIMIT, _kernel_classes, classify
from .jsonio import (
    Workspace,
    algebra_to_json,
    category_to_json,
    dump,
    functor_to_json,
    nat_to_json,
    parse_refl_data,
    parse_sub_witnesses,
    presentation_to_json,
)

# Each handler imports the kernel, theory, birkhoff and corpus modules it
# runs, so a command compiles only what it needs.


def _plain(x):
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(_plain(v) for v in x)
    return x


def _show(x) -> str:
    return json.dumps(_plain(x), sort_keys=True)


def _yes(flag) -> str:
    return "yes" if flag else "NO"


def _rel(path: Path, out_dir: Path) -> str:
    return os.path.relpath(path, out_dir)


def _write(out_dir: Path, name: str, data) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        dump(data, out_dir / name)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (out_dir / name, exc.strerror)) from None
    print("wrote %s" % (out_dir / name))


def _verdict(key: str, res):
    """The outcome of a yes/no check: its witness is shown only on failure."""
    line = "%s: yes" % key if res else "%s: no  %s" % (key, _show(res.witness))
    return (0 if res else 1), {key: res.ok, "witness": res.witness}, [line]


# -- subcommands -------------------------------------------------------


def cmd_validate(args, ws: Workspace):
    loaders = [
        ("category", ws.category),
        ("functor", ws.functor),
        ("nat", ws.nat),
        ("presentation", ws.presentation),
        ("extension", ws.extension),
        ("algebra", ws.algebra),
    ]
    results = []
    for kind, loader in loaders:
        for ref in getattr(args, kind) or []:
            loader(ref)
            results.append({"path": ref, "kind": kind})
    if not results:
        raise UsageError("nothing to validate; pass at least one entity flag")
    return 0, {"validated": results}, ["ok: %s (%s)" % (r["path"], r["kind"]) for r in results]


def cmd_factor(args, ws: Workspace):
    f = ws.functor(args.functor)
    build, left_class, right_class = FACTOR_SYSTEMS[args.system]
    fact = build(f)
    # every builder refuses legs that do not recompose to f (exit 2)
    sound = (getattr(classify(fact.left), left_class)
             and getattr(classify(fact.right), right_class))
    report = {
        "system": args.system,
        "left_class": left_class,
        "right_class": right_class,
        "sound": sound,
        "middle": category_to_json(fact.middle),
        "left": {"on_objects": fact.left.on_objects, "on_morphisms": fact.left.on_morphisms},
        "right": {"on_objects": fact.right.on_objects, "on_morphisms": fact.right.on_morphisms},
    }
    if args.out:
        src = ws.path_of(f.source)
        tgt = ws.path_of(f.target)
        out = Path(args.out)
        _write(out, "middle.json", report["middle"])
        _write(out, "left.json", functor_to_json(fact.left, _rel(src, out), "middle.json"))
        _write(out, "right.json", functor_to_json(fact.right, "middle.json", _rel(tgt, out)))
    return (0 if sound else 1), report, [
        "left: %s, right: %s" % (left_class, right_class),
        "middle category: %d objects, %d morphisms"
        % (len(fact.middle.objects), len(fact.middle.morphisms)),
        "sound: %s" % _yes(sound),
    ]


def cmd_orthogonal(args, ws: Workspace):
    f = ws.functor(args.left)
    g = ws.functor(args.right)
    return _verdict("orthogonal", check_orthogonal_morphisms(f, g, limit=args.limit))


def cmd_orthogonal_object(args, ws: Workspace):
    f = ws.functor(args.morphism)
    C = ws.category(args.object)
    return _verdict("orthogonal", check_orthogonal_object(f, C, limit=args.limit))


def cmd_kernel(args, ws: Workspace):
    from .kernel import bof_kernel, coequifies
    f = ws.functor(args.functor)
    kd = bof_kernel(f)
    coequified = coequifies(f, kd.phi, kd.psi)
    if args.out:
        src = ws.path_of(f.source)
        out = Path(args.out)
        _write(out, "apex.json", category_to_json(kd.apex))
        _write(out, "s.json", functor_to_json(kd.s, "apex.json", _rel(src, out)))
        _write(out, "t.json", functor_to_json(kd.t, "apex.json", _rel(src, out)))
        _write(out, "phi.json", nat_to_json(kd.phi, "s.json", "t.json"))
        _write(out, "psi.json", nat_to_json(kd.psi, "s.json", "t.json"))
    report = {
        "apex_objects": len(kd.apex.objects),
        "apex_morphisms": len(kd.apex.morphisms),
        "coequified_by_input": coequified,
    }
    return 0, report, [
        "kernel apex: %d objects, %d morphisms" % (len(kd.apex.objects), len(kd.apex.morphisms)),
        "input coequifies its kernel: %s" % _yes(coequified),
    ]


def cmd_coequify(args, ws: Workspace):
    from .kernel import coequify
    phi = ws.nat(args.phi)
    psi = ws.nat(args.psi)
    q, C = coequify(phi, psi)
    bo_full = classify(q).bo_full
    merged = [sorted(cl) for cl in sorted(cl for cl in _kernel_classes(q) if len(cl) > 1)]
    if args.out:
        apath = ws.path_of(phi.source.target)
        out = Path(args.out)
        _write(out, "quotient.json", category_to_json(C))
        _write(out, "projection.json", functor_to_json(q, _rel(apath, out), "quotient.json"))
    report = {
        "quotient_objects": len(C.objects),
        "quotient_morphisms": len(C.morphisms),
        "merged_classes": merged,
        "projection_bo_full": bo_full,
    }
    return 0, report, [
        "quotient: %d objects, %d morphisms" % (len(C.objects), len(C.morphisms)),
        "merged classes: %s" % (_show(merged) if merged else "none"),
        "projection classifies b.o. full: %s" % _yes(bo_full),
    ]


def cmd_converges(args, ws: Workspace):
    from .kernel import immediate_convergence_check
    f = ws.functor(args.functor)
    res = immediate_convergence_check(f)
    faithful = classify(res.comparison).faithful
    report = {
        "converges": res.converges,
        "comparison_faithful": faithful,
        "quotient_bo_full": classify(res.quotient).bo_full,
    }
    return (0 if res else 1), report, [
        "converges immediately: %s" % _yes(res.converges),
        "comparison functor faithful: %s" % _yes(faithful),
    ]


def cmd_satisfies(args, ws: Workspace):
    from .theory import Extension, Presentation, satisfies
    A = ws.algebra(args.algebra)
    E = ws.load(args.extension)
    if not isinstance(E, (Extension, Presentation)):
        raise UsageError("%s is neither an extension nor a presentation" % args.extension)
    return _verdict("satisfies", satisfies(A, E))


def cmd_reflect(args, ws: Workspace):
    from . import birkhoff
    A = ws.algebra(args.algebra)
    E = ws.extension(args.extension)
    R = birkhoff.reflect(A, E)
    bo_full = classify(R.unit.functor).bo_full
    merged = [sorted(cl) for cl in R.congruence.classes if len(cl) > 1]
    if args.out:
        out = Path(args.out)
        _write(out, "presentation.json", presentation_to_json(A.presentation))
        _write(out, "source_carrier.json", category_to_json(A.carrier))
        _write(out, "reflected_carrier.json", category_to_json(R.reflected.carrier))
        _write(out, "source.json",
               algebra_to_json(A, "presentation.json", "source_carrier.json"))
        _write(out, "reflected.json",
               algebra_to_json(R.reflected, "presentation.json", "reflected_carrier.json"))
        _write(out, "unit.json",
               functor_to_json(R.unit.functor, "source_carrier.json",
                               "reflected_carrier.json"))
    report = {
        "trivial": R.trivial,
        "merged_classes": merged,
        "unit_bo_full": bo_full,
        "reflected_satisfies": True,
    }
    return 0, report, [
        "merged classes: %s" % (_show(merged) if merged else "none (already inside)"),
        "unit classifies b.o. full: %s" % _yes(bo_full),
        "reflected algebra satisfies the extension: yes",
    ]


def cmd_quotients(args, ws: Workspace):
    from . import birkhoff
    A = ws.algebra(args.algebra)
    entries = []
    for (cong, Q, _) in birkhoff.enumerate_quotient_algebras(A, limit=args.limit):
        entries.append({"merged_classes": [sorted(cl) for cl in cong.classes if len(cl) > 1],
                        "objects": len(Q.carrier.objects),
                        "morphisms": len(Q.carrier.morphisms)})
    lines = ["%d quotient algebras" % len(entries)]
    lines += ["  %d: %s" % (i + 1, _show(e["merged_classes"]) if e["merged_classes"]
                                   else "discrete")
              for i, e in enumerate(entries)]
    return 0, {"count": len(entries), "quotients": entries}, lines


def cmd_audit(args, ws: Workspace):
    from . import birkhoff
    E = ws.extension(args.extension)
    catalog = ws.catalog(args.catalog)
    algebras = [a for (_, a) in catalog]
    by_name = dict(catalog)
    subs = parse_sub_witnesses(ws, args.subs, by_name) if args.subs else ()
    refl = parse_refl_data(ws, args.refl, by_name) if args.refl else ()
    members = None
    if args.members:
        members = []
        for nm in args.members.split(","):
            nm = nm.strip()
            if nm not in by_name:
                raise UsageError("--members names unknown catalog entry %r" % nm)
            members.append(by_name[nm])
    report = birkhoff.audit_closure(
        E, algebras, sub_witnesses=subs, refl_data=refl, members=members,
        limit=args.limit,
    )
    return (0 if report.ok else 1), report.to_json(), report.lines()


def cmd_ortho_char(args, ws: Workspace):
    from . import birkhoff
    E = ws.extension(args.extension)
    catalog = ws.catalog(args.catalog)
    res = birkhoff.verify_orthogonality_characterisation(
        E, [a for (_, a) in catalog], limit=args.limit
    )
    line = "equational subclass == orthogonality class: %s  %s" % (
        _yes(res), _show(res.witness))
    return (0 if res else 1), {"coincide": res.ok, "witness": res.witness}, [line]


def cmd_lemmas(args, ws: Workspace):
    from . import corpus
    from .kernel import (lemma_cancel_two_cells, lemma_coeq_refl,
                         lemma_immediate_convergence, lemma_so_faithful)
    cats = corpus.categories()
    functors = corpus.corpus_functors(limit=args.limit)
    suites = [
        ("cancel-2-cells", lambda: lemma_cancel_two_cells(functors, cats, limit=args.limit)),
        ("so-faithful", lambda: lemma_so_faithful(functors, cats, limit=args.limit)),
        ("coeq-refl", lambda: lemma_coeq_refl(corpus.coequifier_data(limit=args.limit))),
        ("immediate-convergence", lambda: lemma_immediate_convergence(functors)),
    ]
    results = []
    for name, run_suite in suites:
        res = run_suite()
        results.append({"suite": name, "ok": res.ok, "witness": res.witness})
    ok = all(r["ok"] for r in results)
    return (0 if ok else 1), {"suites": results, "ok": ok}, [
        "%s: %s %s" % (r["suite"], "pass" if r["ok"] else "FAIL", _show(r["witness"]))
        for r in results
    ]


# -- argument parsing and dispatch ------------------------------------


def _limit(text: str) -> int:
    """A ``--limit`` value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer of at least 1, got %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--limit", type=_limit, default=DEFAULT_SEARCH_LIMIT,
                        help="bound on enumeration search spaces")
    common.add_argument("--json", dest="as_json", action="store_true",
                        help="machine-readable report")

    parser = argparse.ArgumentParser(
        prog="birkhoff2d",
        description="Factorisations, kernels, coequifiers, orthogonality, "
                    "reflections and closure audits on finite categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate entity files")
    for kind in ("category", "functor", "nat", "presentation", "extension", "algebra"):
        p.add_argument("--" + kind, action="append", metavar="FILE")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("factor", parents=[common],
                       help="factor a functor in one of the three systems")
    p.add_argument("--system", choices=sorted(FACTOR_SYSTEMS), required=True)
    p.add_argument("--functor", required=True, metavar="FILE")
    p.add_argument("--out", metavar="DIR", help="write middle/left/right JSON files")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("orthogonal", parents=[common],
                       help="two-dimensional orthogonality of two functors")
    p.add_argument("--left", required=True, metavar="FILE")
    p.add_argument("--right", required=True, metavar="FILE")
    p.set_defaults(func=cmd_orthogonal)

    p = sub.add_parser("orthogonal-object", parents=[common],
                       help="orthogonality of a functor against a category")
    p.add_argument("--morphism", required=True, metavar="FILE")
    p.add_argument("--object", required=True, metavar="FILE")
    p.set_defaults(func=cmd_orthogonal_object)

    p = sub.add_parser("kernel", parents=[common],
                       help="kernel data of a functor")
    p.add_argument("--functor", required=True, metavar="FILE")
    p.add_argument("--out", metavar="DIR",
                   help="write apex/s/t/phi/psi JSON files")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("coequify", parents=[common],
                       help="coequifier of two parallel 2-cells")
    p.add_argument("--phi", required=True, metavar="FILE")
    p.add_argument("--psi", required=True, metavar="FILE")
    p.add_argument("--out", metavar="DIR",
                   help="write quotient/projection JSON files")
    p.set_defaults(func=cmd_coequify)

    p = sub.add_parser("converges", parents=[common],
                       help="one-step convergence of the kernel-quotient factorisation")
    p.add_argument("--functor", required=True, metavar="FILE")
    p.set_defaults(func=cmd_converges)

    p = sub.add_parser("satisfies", parents=[common],
                       help="does an algebra satisfy an extension or presentation")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--extension", required=True, metavar="FILE")
    p.set_defaults(func=cmd_satisfies)

    p = sub.add_parser("reflect", parents=[common],
                       help="reflect an algebra into an equational subclass")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--extension", required=True, metavar="FILE")
    p.add_argument("--out", metavar="DIR", help="write the reflection as JSON files")
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("quotients", parents=[common],
                       help="enumerate all quotient algebras")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.set_defaults(func=cmd_quotients)

    p = sub.add_parser("audit", parents=[common],
                       help="four-family closure audit of a catalog subclass")
    p.add_argument("--extension", required=True, metavar="FILE")
    p.add_argument("--catalog", required=True, metavar="DIR")
    p.add_argument("--subs", metavar="FILE", help="subalgebra witness list")
    p.add_argument("--refl", metavar="FILE", help="reflexive 2-cell data list")
    p.add_argument("--members", metavar="NAMES",
                   help="comma-separated catalog names; pins the subclass and "
                        "switches membership to isomorphism")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ortho-char", parents=[common],
                       help="equational subclass vs orthogonality class")
    p.add_argument("--extension", required=True, metavar="FILE")
    p.add_argument("--catalog", required=True, metavar="DIR")
    p.set_defaults(func=cmd_ortho_char)

    p = sub.add_parser("lemmas", parents=[common],
                       help="run the exhaustive lemma suites over the bundled corpus")
    p.set_defaults(func=cmd_lemmas)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report, lines = args.func(args, Workspace())
    except ValidationError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2
    except (LabError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(_plain(report), indent=1, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
