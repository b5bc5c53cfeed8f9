"""End-to-end equivalence of the forward engine with independent oracles.

Three-way differential over ≥200 seeded random instances from
:mod:`repro.workloads.random_instances`:

* the forward fixpoint (Lemma 14, interned kernel) vs the backward
  inverse-type-inference engine — verdicts must match exactly, and
  rejecting runs of both must produce *verifying* counterexamples
  (witnesses may legitimately differ between engines);
* forward vs ``typecheck(method="bruteforce")`` — the oracle must confirm
  every accept up to its node budget.

The test name is kept stable for the suite's test-id history; the
independent engines, not a second forward implementation, are the
evidence.
"""

import pytest

from repro.backward import typecheck_backward
from repro.core import typecheck
from repro.core.forward import typecheck_forward
from repro.transducers.analysis import analyze
from repro.workloads.random_instances import seeded_instance

N_SEEDS = 200
ORACLE_MAX_NODES = 6


def _in_trac(transducer) -> bool:
    return analyze(transducer).deletion_path_width is not None


@pytest.mark.parametrize("chunk", range(10))
def test_kernel_matches_object_engine_and_oracle(chunk):
    chunk_size = N_SEEDS // 10
    for seed in range(chunk * chunk_size, (chunk + 1) * chunk_size):
        transducer, din, dout = seeded_instance(seed)
        if not _in_trac(transducer):
            continue  # outside T_trac: the forward engine does not apply
        forward = typecheck_forward(transducer, din, dout)
        backward = typecheck_backward(transducer, din, dout)
        assert forward.typechecks == backward.typechecks, f"seed {seed}"
        if forward.typechecks:
            oracle = typecheck(
                transducer, din, dout, method="bruteforce",
                max_nodes=ORACLE_MAX_NODES,
            )
            assert oracle.typechecks, (
                f"seed {seed}: forward says OK, oracle found {oracle.counterexample}"
            )
        else:
            for result, name in ((forward, "forward"), (backward, "backward")):
                assert result.verify(transducer, din.accepts, dout.accepts), (
                    f"seed {seed}: {name} counterexample does not verify"
                )
