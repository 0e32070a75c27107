"""The package imports lazily: `import birkhoff2d` loads no submodule, each
CLI subcommand loads only the modules it runs, and every public name still
resolves to the object its home module defines."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import birkhoff2d
from birkhoff2d import cli, corpus

SRC = Path(__file__).resolve().parents[1] / "src"
C = corpus.corpus_root()

# The README commands in README order, with the modules each one loads
# besides the parsing core: cli, errors, fincat, jsonio and factor, whose
# FACTOR_SYSTEMS give the --system choices.
CORE = {"cli", "errors", "factor", "fincat", "jsonio"}
COMMANDS = (
    ("validate", "validate --category {C}/p.json --functor {C}/collapse.json", set()),
    ("factor", "factor --system bof --functor {C}/collapse.json --out fact/", set()),
    ("orthogonal", "orthogonal --left fact/left.json --right fact/right.json", set()),
    ("kernel", "kernel --functor {C}/collapse.json --out kern/", {"kernel"}),
    ("coequify", "coequify --phi kern/phi.json --psi kern/psi.json", {"kernel"}),
    ("converges", "converges --functor {C}/collapse.json", {"kernel"}),
    ("satisfies", "satisfies --algebra {C}/monoidal/sigma_assoc.json"
                  " --extension {C}/coherence.json", {"kernel", "theory"}),
    ("reflect", "reflect --algebra {C}/monoidal/sigma_assoc.json"
                " --extension {C}/coherence.json --out refl/", {"kernel", "theory", "birkhoff"}),
    ("quotients", "quotients --algebra {C}/plain_p.json", {"kernel", "theory", "birkhoff"}),
    ("audit", "audit --extension {C}/coherence.json --catalog {C}/monoidal"
              " --subs {C}/subs.json --refl {C}/refl.json", {"kernel", "theory", "birkhoff"}),
    ("ortho-char", "ortho-char --extension {C}/coherence.json --catalog {C}/monoidal",
     {"kernel", "theory", "birkhoff"}),
    ("lemmas", "lemmas", {"kernel", "corpus"}),
)

# Runs one command in this interpreter and prints its exit code and the
# package modules it loaded on the last line.
PROBE = (
    "import contextlib, io, json, sys\n"
    "from birkhoff2d import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.run(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(n.split('.', 1)[1] for n in sys.modules\n"
    "                               if n.startswith('birkhoff2d.'))]))\n"
)


def _fresh(code, args=(), cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    """A directory holding the files that orthogonal and coequify read."""
    d = tmp_path_factory.mktemp("cli-session")
    collapse = str(C / "collapse.json")
    assert cli.run(["factor", "--system", "bof", "--functor", collapse,
                    "--out", str(d / "fact")]) == 0
    assert cli.run(["kernel", "--functor", collapse, "--out", str(d / "kern")]) == 0
    return d


def test_importing_the_package_loads_no_submodule():
    found = _fresh("import json, sys\nimport birkhoff2d\n"
                   "print(json.dumps([n for n in sys.modules if n.startswith('birkhoff2d.')]))")
    assert found == []


@pytest.mark.parametrize("name,line,extra", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_each_command_loads_only_the_modules_it_runs(session_dir, name, line, extra):
    code, loaded = _fresh(PROBE, line.format(C=C).split(), cwd=session_dir)
    assert code == (1 if name == "satisfies" else 0)
    assert set(loaded) == CORE | extra


# -- the package surface -------------------------------------------------

PUBLIC = {
    "Algebra", "AlgebraHom", "Congruence", "Extension", "Factorisation", "FinCategory",
    "Functor", "KernelData", "LabError", "NatTransformation", "Presentation", "Signature",
    "UsageError", "ValidationError", "audit_closure", "bof_kernel",
    "check_algebra_orthogonal", "check_orthogonal_morphisms", "check_orthogonal_object",
    "classify", "coequify", "congruence_closure", "enumerate_functors",
    "enumerate_nat_transformations", "enumerate_quotient_algebras", "factor_bo_ff",
    "factor_bof", "factor_so_ioff", "immediate_convergence_check", "make_reflexive",
    "quotient_by_congruence", "reflect", "satisfies", "validate_category",
    "verify_coequifier_2d", "verify_kernel_universal",
    "verify_orthogonality_characterisation", "verify_reflection_free",
}


def test_every_public_name_is_its_home_modules_object():
    assert birkhoff2d.__all__ == sorted(PUBLIC)
    for name in birkhoff2d.__all__:
        value = getattr(birkhoff2d, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("birkhoff2d.") and getattr(home, name) is value, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from birkhoff2d import *", namespace)
    assert [n for n in PUBLIC if namespace.get(n) is not getattr(birkhoff2d, n)] == []
    assert PUBLIC <= set(dir(birkhoff2d))
    assert "__version__" in dir(birkhoff2d)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        birkhoff2d.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from birkhoff2d import no_such_name", {})
