"""Shared fixtures over the bundled corpus, the strict mode, plus the
acceptance report.

The acceptance tests register one line per criterion through
``record_acceptance``; the hook below replays them as a summary block at
the end of every run so the verdict is visible without ``-s``.

Constructions build their results from validated parts through trusted
builders that skip the law checks.  The ``strict`` fixture routes every
trusted builder back through the validating path, so a construction that
builds an unlawful value raises there instead.
"""
import importlib
import pkgutil
import sys

import pytest

import birkhoff2d
from birkhoff2d import corpus, theory
from birkhoff2d.fincat import Congruence, FinCategory, Functor, NatTransformation
from birkhoff2d.theory import Algebra, AlgebraHom

acceptance_lines = []

# the tables in which a category keeps search results for later calls;
# the strict fixture hides each of them
KEPT_TABLES = ("_functors_to", "_nats_between", "_universality", "_bof_middles",
               "_bof_kernels")


def record_acceptance(num, ok, text):
    line = "criterion %2d %s  %s" % (num, "PASS" if ok else "FAIL", text)
    acceptance_lines.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cats():
    return {n: corpus.category(n) for n in corpus.CATEGORY_NAMES}


@pytest.fixture(scope="session")
def all_functors():
    return corpus.corpus_functors()


@pytest.fixture(scope="session")
def catalog():
    return dict(corpus.catalog())


@pytest.fixture(scope="session")
def coherence():
    return corpus.coherence_extension()


def strict_patches():
    """(owner, attribute, validating replacement) for every trusted builder.

    Each class's ``_trusted`` becomes the public constructor.  The trusted
    quotient builder first checks the precondition of ``quotient_algebra``,
    in every package module that holds it.  The package imports its
    modules lazily, so every module is imported before the scan: one first
    imported later would keep the unchecked builder.
    """
    for info in pkgutil.iter_modules(birkhoff2d.__path__, "birkhoff2d."):
        if info.name != "birkhoff2d.__main__":  # importing it runs the CLI
            importlib.import_module(info.name)
    patches = [(cls, "_trusted", staticmethod(cls))
               for cls in (FinCategory, Functor, NatTransformation, Congruence, Algebra,
                           AlgebraHom)]
    build = theory._trusted_quotient_algebra

    def checked_quotient(A, cong):
        theory._require_operation_closed(A, cong)
        return build(A, cong)

    patches += [(mod, "_trusted_quotient_algebra", checked_quotient)
                for name, mod in sorted(sys.modules.items())
                if name.startswith("birkhoff2d.")
                and vars(mod).get("_trusted_quotient_algebra") is build]
    return patches


@pytest.fixture
def strict(monkeypatch):
    """Every trusted builder validates, and every table of search results
    a category keeps is hidden behind an empty one read afresh each time,
    so no result built before the test is returned unchecked and every
    factorisation builds, and so checks, its kernel congruence, and every
    kernel its apex."""
    for owner, attr, replacement in strict_patches():
        monkeypatch.setattr(owner, attr, replacement)
    for table in KEPT_TABLES:
        monkeypatch.setattr(FinCategory, table, property(lambda self: {}))
