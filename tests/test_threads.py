"""Results that do not depend on how many threads BLAS runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import waylab

#: Prints the bits of the long inner products of canonical schemes at the sizes in ``argv``.
_PROBE = """
import hashlib, json, sys
from waylab import ObjectState, build_canonical_scheme, tensor, three_outcome_stats
from waylab.graded import charge_expectation, inner
from waylab.scheme import scheme_error

plus, minus = ObjectState(2**-0.5, 2**-0.5), ObjectState(2**-0.5, -(2**-0.5))
out = {}
for n in map(int, sys.argv[1:]):
    s = build_canonical_scheme(n)
    joint, other = tensor(plus, s.xi), tensor(minus, s.xi)
    overlap = inner(joint, other)
    text = three_outcome_stats(s, plus).to_json()
    out[n] = {
        "norm2": joint.norm2().hex(),
        "inner": [overlap.real.hex(), overlap.imag.hex()],
        "scheme_error": scheme_error(s).hex(),
        "charge_expectation": [charge_expectation(v).hex() for v in (s.xi, joint)],
        "three_outcome_stats": hashlib.sha256(text.encode()).hexdigest(),
    }
print(json.dumps(out))
"""


def test_long_products_do_not_depend_on_the_blas_thread_count():
    """One child runs BLAS on one thread, the other on two; every printed bit must agree.

    The joint vectors have 12 004 and 40 004 entries, above the 10 000 at
    which OpenBLAS splits a dot product over threads.  On a machine with
    one core OpenBLAS runs one thread in both children, so there this test
    cannot fail.
    """
    src = Path(waylab.__file__).resolve().parents[1]
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _PROBE, "3000", "10000"],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in (1, 2)
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    one, two = map(json.loads, outputs)
    assert one == two
