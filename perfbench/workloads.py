"""The five benchmark workloads.

Each workload's `setup(seed)` loads its inputs from the bundled corpus and
returns a Plan: a lazy sequence of checks plus a `finish` step for answers
that are only known summed over a pass.  A check is one top-level call that
returns a verdict: `run()` is timed, `judge(observed)` compares the verdict
with the known answer from expected.py outside the timed region.

The seed permutes the order of independent checks, and with it the state of
the package's caches that each check sees.  Seed 0 keeps the order of the
acceptance tests (and of README.md for cli-session).
"""
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import expected as X

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens"
BENCH_TMP = ROOT / ".bench_tmp"
CLI_DIR = BENCH_TMP / "cli-session"
CORPUS_REF = "../../src/birkhoff2d/corpus"  # as seen from CLI_DIR


class InputMismatch(Exception):
    """The workload's inputs differ from the known answer, so no pass can be
    judged."""


def _require(ok, what):
    if not ok:
        raise InputMismatch(what)


class Plan:
    def __init__(self, checks, finish=None):
        self.checks = checks  # iterable of (label, run, judge)
        self.finish = finish  # observations by label -> [(message, checks failed)]


def permuted(items, seed):
    items = list(items)
    if seed:
        random.Random(seed).shuffle(items)
    return items


def is_true(obs):
    return obs is True


def is_false(obs):
    return obs is False


def _sound(f, system):
    """Criterion 1 for one functor: the factorisation recomposes and both
    legs land in their classes."""
    from birkhoff2d.factor import FACTOR_SYSTEMS
    from birkhoff2d.fincat import classify
    build, left_class, right_class = FACTOR_SYSTEMS[system]
    fact = build(f)
    return bool(fact.recompose() == f
                and getattr(classify(fact.left), left_class)
                and getattr(classify(fact.right), right_class))


# -- ortho-sweep: criteria 1 and 2 ----------------------------------------

def ortho_sweep(seed):
    from birkhoff2d import corpus
    from birkhoff2d.factor import check_orthogonal_morphisms, factor_bof
    from birkhoff2d.fincat import classify

    functors = corpus.corpus_functors()
    _require(len(functors) == X.TOTAL_FUNCTORS, "corpus functor count")
    quotients = [f for f in functors if classify(f).bo_full]
    monos = [f for f in functors if classify(f).faithful]
    _require((len(quotients), len(monos)) == (X.BO_FULL_COUNT, X.FAITHFUL_COUNT),
             "quotient/mono counts")
    e0 = factor_bof(corpus.collapse_functor()).left

    checks = []
    for system in X.FACTOR_SYSTEMS:
        for i, f in enumerate(functors):
            checks.append(("factor %s #%d" % (system, i),
                           lambda f=f, s=system: _sound(f, s), is_true))
    for i, e in enumerate(quotients):
        for j, m in enumerate(monos):
            checks.append(("ortho q%d m%d" % (i, j),
                           lambda e=e, m=m: bool(check_orthogonal_morphisms(e, m)), is_true))
    checks.append(("ortho designed negative",
                   lambda: bool(check_orthogonal_morphisms(e0, e0)), is_false))
    return Plan(permuted(checks, seed))


# -- kernel-lemmas: criteria 3 to 6 ---------------------------------------

def kernel_lemmas(seed):
    from birkhoff2d import corpus
    from birkhoff2d.kernel import (
        bof_kernel, immediate_convergence_check, lemma_cancel_two_cells,
        lemma_coeq_refl, lemma_so_faithful, verify_kernel_universal,
    )

    cats = list(corpus.categories())
    functors = corpus.corpus_functors()
    _require(len(functors) == X.TOTAL_FUNCTORS, "corpus functor count")
    data = corpus.coequifier_data()
    _require(len(data) == X.COEQUIFIER_DATA, "coequifier data count")

    def per_functor(f):
        universal = bool(verify_kernel_universal(bof_kernel(f), f, cats))
        converges = bool(immediate_convergence_check(f))
        cancel = lemma_cancel_two_cells([f], cats)
        so = lemma_so_faithful([f], cats)
        return {"ok": universal and converges and cancel.ok and so.ok,
                "cancel": cancel.witness, "so": so.witness}

    def coeq(datum):
        res = lemma_coeq_refl([datum])
        return res.ok and res.witness == {"data": 1}

    checks = [("functor #%d" % i, lambda f=f: per_functor(f), lambda o: o["ok"] is True)
              for i, f in enumerate(functors)]
    checks += [("coequifier datum #%d" % i, lambda d=d: coeq(d), is_true)
               for i, d in enumerate(data)]

    def finish(observed):
        found = [o for label, o in observed.items() if label.startswith("functor")]
        failed = []
        for key, want in (("cancel", X.CANCEL_TWO_CELLS), ("so", X.SO_FAITHFUL)):
            got = {k: sum(o[key][k] for o in found if o and o.get(key)) for k in want}
            if got != want:
                failed.append(("%s witness sum %r != %r" % (key, got, want), len(found)))
        return failed

    return Plan(permuted(checks, seed), finish)


# -- variety: criteria 7 to 10 --------------------------------------------

def variety(seed):
    from birkhoff2d import corpus
    from birkhoff2d.birkhoff import (
        audit_closure, enumerate_quotient_algebras, reflect,
        verify_orthogonality_characterisation, verify_reflection_free,
    )
    from birkhoff2d.fincat import classify
    from birkhoff2d.theory import satisfies

    catalog = dict(corpus.catalog())
    _require(tuple(catalog) == X.CATALOG, "catalog names")
    E = corpus.coherence_extension()
    subs = corpus.sub_witnesses()
    refl = corpus.refl_data()
    algebras = list(catalog.values())
    quotient_inputs = dict(catalog, plain_p=corpus.plain_p())
    probes = [catalog[n] for n in X.CATALOG if X.SATISFIES[n]]

    def sat(name):
        res = satisfies(catalog[name], E)
        return res.ok, res.witness

    def judge_sat(name):
        def judge(obs):
            ok, witness = obs
            return ok == X.SATISFIES[name] and (
                name != "sigma_assoc" or witness == X.SIGMA_WITNESS)
        return judge

    def refl_check(name):
        R = reflect(catalog[name], E)
        sound = bool(satisfies(R.reflected, E)) and classify(R.unit.functor).bo_full
        return sound, R.trivial, R.congruence.classes

    def judge_refl(name):
        def judge(obs):
            sound, trivial, classes = obs
            return sound and trivial == X.SATISFIES[name] and (
                name != "sigma_assoc" or classes == X.SIGMA_REFLECTION_CLASSES)
        return judge

    def free():
        res = verify_reflection_free(reflect(catalog["sigma_assoc"], E), E, probes)
        return res.ok and res.witness == {"probes": len(probes)}

    def audit_positive():
        report = audit_closure(E, algebras, subs, refl)
        sizes = tuple(len(report.family(k)) for k in
                      ("products", "subalgebras", "quotients", "reflexive_coequifiers"))
        return report.ok and sizes == X.AUDIT_FAMILY_SIZES

    def audit_pinned():
        report = audit_closure(E, algebras, subs, refl, members=[catalog["sigma_assoc"]])
        bad = [c for c in report.checks if not c["ok"]]
        return (not report.ok and bool(bad)
                and all("not_isomorphic_to_any_member" in c["witness"] for c in bad))

    def ortho_char():
        res = verify_orthogonality_characterisation(E, algebras)
        return res.ok and res.witness == X.ORTHO_CHAR_WITNESS

    def quotients(name):
        found = enumerate_quotient_algebras(quotient_inputs[name])
        merged = [tuple(sorted(tuple(cl) for cl in cong.classes if len(cl) > 1))
                  for (cong, _, _) in found]
        return len(found) == X.QUOTIENT_COUNTS[name] and (
            name != "sigma_assoc" or X.SIGMA_REFLECTION_CLASSES in merged)

    checks = [("satisfies %s" % n, lambda n=n: sat(n), judge_sat(n)) for n in X.CATALOG]
    checks += [("reflect %s" % n, lambda n=n: refl_check(n), judge_refl(n)) for n in X.CATALOG]
    checks += [("reflection free", free, is_true),
               ("audit positive", audit_positive, is_true),
               ("audit pinned negative", audit_pinned, is_true),
               ("ortho-char", ortho_char, is_true)]
    checks += [("quotients %s" % n, lambda n=n: quotients(n), is_true)
               for n in X.QUOTIENT_COUNTS]
    return Plan(permuted(checks, seed))


# -- scale-ladder: product categories -------------------------------------

def scale_ladder(seed):
    from birkhoff2d import corpus
    from birkhoff2d.fincat import enumerate_functors, product_category

    cats = {n: corpus.category(n) for n in corpus.CATEGORY_NAMES}
    for a, b in (("d2", "z2z2"), ("z2z2", "z2z2")):
        P = product_category(cats[a], cats[b])[0]
        cats["%sx%s" % (a, b)] = P
    rungs = permuted(X.LADDER, seed)
    shortfall = []

    def checks():
        # The enumeration of each rung is part of the pass but not a check.
        for a, b, want in rungs:
            found = enumerate_functors(cats[a], cats[b])
            if len(found) != want:
                shortfall.append(("%s->%s: %d functors, want %d" % (a, b, len(found), want),
                                  abs(len(found) - want)))
            for i, f in enumerate(permuted(found, seed)):
                yield ("%s->%s #%d" % (a, b, i), lambda f=f: _sound(f, "bof"), is_true)

    return Plan(checks(), lambda observed: shortfall)


# -- cli-session: the README commands, one interpreter each ----------------

CLI_COMMANDS = (
    ("validate", "validate --category {C}/p.json --functor {C}/collapse.json"),
    ("factor", "factor --system bof --functor {C}/collapse.json --out fact/"),
    ("orthogonal", "orthogonal --left fact/left.json --right fact/right.json"),
    ("kernel", "kernel --functor {C}/collapse.json --out kern/"),
    ("coequify", "coequify --phi kern/phi.json --psi kern/psi.json"),
    ("converges", "converges --functor {C}/collapse.json"),
    ("satisfies", "satisfies --algebra {C}/monoidal/sigma_assoc.json --extension {C}/coherence.json"),
    ("reflect", "reflect --algebra {C}/monoidal/sigma_assoc.json --extension {C}/coherence.json"
                " --out refl/"),
    ("quotients", "quotients --algebra {C}/plain_p.json"),
    ("audit", "audit --extension {C}/coherence.json --catalog {C}/monoidal --subs {C}/subs.json"
              " --refl {C}/refl.json"),
    ("ortho-char", "ortho-char --extension {C}/coherence.json --catalog {C}/monoidal"),
    ("lemmas", "lemmas"),
)
# Commands that read another command's output run right after it.
CLI_CHAINS = (("factor", "orthogonal"), ("kernel", "coequify"))


def cli_argv(name):
    line = dict(CLI_COMMANDS)[name].format(C=CORPUS_REF)
    return line.split() + ["--json"]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


CLI_PREFIX = (sys.executable, "-m", "birkhoff2d")


def run_cli(name, env, prefix=CLI_PREFIX):
    """Run one README command with `--json` in CLI_DIR, as a shell would;
    return (exit code, stdout bytes)."""
    proc = subprocess.run(list(prefix) + cli_argv(name), cwd=CLI_DIR, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout


def cli_units(seed):
    """The commands in run order: README order for seed 0, otherwise a
    permutation that keeps each chain together and in order."""
    heads = {chain[0]: chain for chain in CLI_CHAINS}
    tails = {name for chain in CLI_CHAINS for name in chain[1:]}
    units = [heads.get(n, (n,)) for n, _ in CLI_COMMANDS if n not in tails]
    return [n for unit in permuted(units, seed) for n in unit]


def reset_cli_dir():
    if CLI_DIR.exists():
        shutil.rmtree(CLI_DIR)
    CLI_DIR.mkdir(parents=True)


def cli_session(seed, trace_dir=None):
    import birkhoff2d.cli  # noqa: F401 - the import a CLI user pays, timed as set-up

    goldens = {n: (GOLDENS / ("%s.out" % n)).read_bytes() for n, _ in CLI_COMMANDS}
    reset_cli_dir()
    env = cli_env()
    if trace_dir is None:
        prefix = CLI_PREFIX
    else:
        prefix = (sys.executable, str(Path(__file__).resolve().parent / "traced_cli.py"))

    def run(name, k):
        cmd_env = env
        if trace_dir is not None:
            cmd_env = dict(env, PERFBENCH_TRACE_OUT=str(Path(trace_dir) / ("%02d-%s" % (k, name))))
        return run_cli(name, cmd_env, prefix)

    def judge(name):
        want = (X.CLI_EXIT.get(name, 0), goldens[name])
        return lambda obs: obs == want

    checks = [(name, lambda n=name, k=k: run(n, k), judge(name))
              for k, name in enumerate(cli_units(seed))]
    return Plan(checks)


WORKLOADS = {
    "ortho-sweep": ortho_sweep,
    "kernel-lemmas": kernel_lemmas,
    "variety": variety,
    "scale-ladder": scale_ladder,
    "cli-session": cli_session,
}
