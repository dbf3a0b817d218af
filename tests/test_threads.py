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
from waylab.graded import charge_expectation, inner, orthogonality_transfer_check
from waylab.scheme import interaction_blocks, scheme_error

plus, minus = ObjectState(2**-0.5, 2**-0.5), ObjectState(2**-0.5, -(2**-0.5))
out = {}
for n in map(int, sys.argv[1:]):
    s = build_canonical_scheme(n)
    joint, other = tensor(plus, s.xi), tensor(minus, s.xi)
    overlap = inner(joint, other)
    text = three_outcome_stats(s, plus).to_json()
    grams = orthogonality_transfer_check(interaction_blocks(s), [joint, other])
    out[n] = {
        "norm2": joint.norm2().hex(),
        "inner": [overlap.real.hex(), overlap.imag.hex()],
        "scheme_error": scheme_error(s).hex(),
        "charge_expectation": [charge_expectation(v).hex() for v in (s.xi, joint)],
        "three_outcome_stats": hashlib.sha256(text.encode()).hexdigest(),
        "transfer_grams": hashlib.sha256(b"".join(g.tobytes() for g in grams)).hexdigest(),
    }
print(json.dumps(out))
"""


#: Prints the bits of ``born_distribution`` on a 2 * 10^4-dimensional state and a 2-column family.
_BORN_PROBE = """
import hashlib, json
import numpy as np
from waylab.born import Observable, born_distribution

dim = 20000
rng = np.random.default_rng(5)
# orthonormal columns on the even and the odd rows, normalized without BLAS
fam = np.zeros((dim, 2), dtype=complex)
fam[0::2, 0] = rng.standard_normal(dim // 2) + 1j * rng.standard_normal(dim // 2)
fam[1::2, 1] = rng.standard_normal(dim // 2) + 1j * rng.standard_normal(dim // 2)
fam /= np.sqrt(np.sum(np.abs(fam) ** 2, axis=0))
phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
phi /= np.sqrt(np.sum(np.abs(phi) ** 2))
dist = born_distribution(Observable([0.0], [fam]), phi)
print(json.dumps({
    "probabilities": [p.hex() for p in dist.probabilities()],
    "post_states": [hashlib.sha256(o.post_state.tobytes()).hexdigest() for o in dist.outcomes],
}))
"""


def _outputs_at_one_and_two_threads(probe, *args):
    """The JSON printed by ``probe`` in one child with BLAS on one thread and one with two."""
    src = Path(waylab.__file__).resolve().parents[1]
    children = [
        subprocess.Popen(
            [sys.executable, "-c", probe, *args],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in (1, 2)
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    return [json.loads(out) for out in outputs]


def test_long_products_do_not_depend_on_the_blas_thread_count():
    """One child runs BLAS on one thread, the other on two; every printed bit must agree.

    The joint vectors have 12 004 and 40 004 entries, above the 10 000 at
    which OpenBLAS splits a dot product over threads; each entry of the
    transfer check's Gram matrices sums as many products, so it stays one
    matrix product rather than a ``np.vecdot``, which is such a dot
    product.  On a machine with one core OpenBLAS runs one thread in both
    children, so there this test cannot fail.
    """
    one, two = _outputs_at_one_and_two_threads(_PROBE, "3000", "10000")
    assert one == two


def test_born_distribution_does_not_depend_on_the_blas_thread_count():
    """The family's product with the state spans 40 000 matrix entries.

    OpenBLAS threads a matrix-vector product from 9216 entries; as above,
    on one core this test cannot fail.
    """
    one, two = _outputs_at_one_and_two_threads(_BORN_PROBE)
    assert one == two

