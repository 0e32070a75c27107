"""Known answers the benchmark checks every verdict against.

Each figure comes from the acceptance criteria in tests/test_acceptance.py,
the lemma output pinned in tests/test_cli.py, or the independent brute-force
oracles in tests/oracles.py; none is computed by the code under test.  The
CLI goldens under goldens/ are the one exception: they are the `--json` bytes
recorded by record_goldens.py, which must stay byte-identical.
"""

# tests/oracles.py: TOTAL_FUNCTORS, BO_FULL_COUNT, FAITHFUL_COUNT.
TOTAL_FUNCTORS = 114
BO_FULL_COUNT = 13
FAITHFUL_COUNT = 60
FACTOR_SYSTEMS = ("bo", "bof", "so")  # criterion 1 iterates sorted(FACTOR_SYSTEMS)

# Criterion 3 and tests/test_cli.py (the `lemmas` report), summed over functors.
CANCEL_TWO_CELLS = {"pairs": 1335, "cells": 698}
SO_FAITHFUL = {"pairs": 5644, "cells": 2652}
# Criterion 4: the walking parallel pair plus one kernel per corpus functor.
COEQUIFIER_DATA = 1 + TOTAL_FUNCTORS

# Criteria 7 to 9.  The catalog has six algebras; the coherence extension
# holds in four.  The two twisted-associator algebras fail it (criterion 7
# pins sigma_assoc's witness; z2_sigma is generated with the same twist by
# scripts/gen_corpus.py).
CATALOG = ("sigma_assoc", "terminal_alg", "two_max", "xor_strict", "z2_sigma", "z2_strict")
SATISFIES = {
    "sigma_assoc": False, "terminal_alg": True, "two_max": True,
    "xor_strict": True, "z2_sigma": False, "z2_strict": True,
}
SIGMA_WITNESS = {
    "kind": "two_cell", "equation": 0, "tuple": ("0", "0", "0", "0"),
    "lhs": "id0", "rhs": "s0",
}
SIGMA_REFLECTION_CLASSES = (("id0", "s0"), ("id1", "s1"))
AUDIT_FAMILY_SIZES = (10, 3, 6, 2)
ORTHO_CHAR_WITNESS = {"catalog": 6, "units": 6, "class_size": 4}

# Criterion 10: tests/oracles.py QUOTIENT_COUNTS, plus z2_sigma, which
# oracles.count_quotient_algebras counts as 2.
QUOTIENT_COUNTS = {
    "two_max": 1, "xor_strict": 2, "sigma_assoc": 2, "z2_strict": 2,
    "terminal_alg": 1, "plain_p": 2, "z2_sigma": 2,
}

# Scale ladder: functor counts from oracles.count_functors_bruteforce.
LADDER = (
    ("d2xz2z2", "z2z2", 256),
    ("d2xz2z2", "d2xz2z2", 4096),
    ("z2z2xz2z2", "z2z2", 4096),
)

# cli-session: exit code per README command; 1 only where a property fails.
CLI_EXIT = {"satisfies": 1}
