"""Unit coverage of the backward engine: workload families, the pre-image
NTA export, schema pickling, budgets, and the out-of-T_trac reach."""

import pickle

import pytest

import repro
from repro.backward import (
    BackwardSchema,
    preimage_product_nta,
    typecheck_backward,
)
from repro.core.bruteforce import typecheck_bruteforce
from repro.core.forward import typecheck_forward
from repro.core.session import Session, clear_registry
from repro.errors import BudgetExceededError, ClassViolationError
from repro.schemas import DTD
from repro.transducers import TreeTransducer, analyze
from repro.tree_automata.emptiness import is_empty, witness_tree
from repro.workloads.families import (
    filtering_family,
    nd_bc_family,
    relabeling_family,
    replus_family,
)
from repro.workloads.random_instances import seeded_instance


@pytest.mark.parametrize(
    "family", [nd_bc_family, filtering_family, relabeling_family, replus_family]
)
@pytest.mark.parametrize("expected", [True, False])
def test_workload_families(family, expected):
    transducer, din, dout, _ = family(5, expected)
    result = typecheck_backward(transducer, din, dout)
    assert result.typechecks == expected
    if not expected:
        assert result.verify(transducer, din.accepts, dout.accepts)
        assert result.output is None or not dout.accepts(result.output)


def test_paper_example_books():
    from repro.workloads.books import book_dtd, example11_output_dtd, toc_transducer

    transducer, din, dout = toc_transducer(), book_dtd(), example11_output_dtd()
    forward = typecheck_forward(transducer, din, dout)
    backward = typecheck_backward(transducer, din, dout)
    assert backward.typechecks == forward.typechecks


class TestPreimageNTA:
    def test_emptiness_matches_verdict_on_seeded_instances(self):
        for seed in range(40):
            transducer, din, dout = seeded_instance(seed)
            verdict = typecheck_backward(transducer, din, dout)
            nta = preimage_product_nta(transducer, din, dout)
            assert is_empty(nta) == verdict.typechecks, f"seed {seed}"

    def test_witness_tree_is_a_counterexample(self):
        transducer, din, dout, _ = nd_bc_family(4, typechecks=False)
        nta = preimage_product_nta(transducer, din, dout)
        witness = witness_tree(nta)
        assert witness is not None and din.accepts(witness)
        image = transducer.apply(witness)
        assert image is None or not dout.accepts(image)

    def test_empty_input_schema_gives_empty_preimage(self):
        din = DTD({"r": "r"}, start="r")  # no finite tree derivable
        dout = DTD({"out": ""}, start="out", alphabet={"out"})
        transducer = TreeTransducer(
            {"q"}, {"r", "out"}, "q", {("q", "r"): "out"}
        )
        assert is_empty(preimage_product_nta(transducer, din, dout))


class TestBeyondTrac:
    def _unbounded_instance(self, typechecks: bool):
        # Recursive deletion with copying width 2: deletion path width is
        # unbounded, so the forward engine refuses without max_tuple.
        din = DTD({"r": "m", "m": "m?"}, start="r")
        transducer = TreeTransducer(
            {"q"},
            {"r", "m", "out"},
            "q",
            {("q", "r"): "out(q)", ("q", "m"): "q q"},
        )
        dout = DTD(
            {"out": "" if typechecks else "out"},
            start="out",
            alphabet={"out", "r", "m"},
        )
        return transducer, din, dout

    @pytest.mark.parametrize("typechecks", [True, False])
    def test_backward_decides_where_forward_refuses(self, typechecks):
        transducer, din, dout = self._unbounded_instance(typechecks)
        assert analyze(transducer).deletion_path_width is None
        with pytest.raises(ClassViolationError):
            typecheck_forward(transducer, din, dout)
        result = typecheck_backward(transducer, din, dout)
        assert result.typechecks == typechecks
        oracle = typecheck_bruteforce(transducer, din, dout, max_nodes=6)
        if typechecks:
            assert oracle.typechecks
        else:
            assert result.verify(transducer, din.accepts, dout.accepts)


class TestPreamble:
    def test_empty_input_schema_vacuously_typechecks(self):
        din = DTD({"r": "r"}, start="r")
        dout = DTD({"out": ""}, start="out", alphabet={"out"})
        transducer = TreeTransducer({"q"}, {"r", "out"}, "q", {})
        assert typecheck_backward(transducer, din, dout).typechecks

    def test_missing_initial_rule_is_a_counterexample(self):
        transducer, din, dout, _ = nd_bc_family(3)
        stripped = TreeTransducer(
            transducer.states,
            transducer.alphabet,
            transducer.initial,
            {
                key: rhs
                for key, rhs in transducer.rules.items()
                if key != (transducer.initial, din.start)
            },
        )
        result = typecheck_backward(stripped, din, dout)
        assert not result.typechecks
        assert result.counterexample is not None
        assert din.accepts(result.counterexample)

    def test_root_label_mismatch(self):
        din = DTD({"r": ""}, start="r")
        dout = DTD({"out": ""}, start="out", alphabet={"out", "wrong"})
        transducer = TreeTransducer(
            {"q"}, {"r", "out", "wrong"}, "q", {("q", "r"): "wrong"}
        )
        result = typecheck_backward(transducer, din, dout)
        assert not result.typechecks
        assert result.verify(transducer, din.accepts, dout.accepts)

    def test_definition5_root_shape_is_enforced(self):
        din = DTD({"r": ""}, start="r")
        dout = DTD({"out": ""}, start="out", alphabet={"out"})
        transducer = TreeTransducer(
            {"q"}, {"r", "out"}, "q", {("q", "r"): "out out"}
        )
        with pytest.raises(ClassViolationError):
            typecheck_backward(transducer, din, dout)


class TestBudget:
    def test_budget_exceeded_is_reported_cleanly(self):
        transducer, din, dout, _ = nd_bc_family(8)
        with pytest.raises(BudgetExceededError):
            typecheck_backward(transducer, din, dout, max_product_nodes=3)

    def test_warm_retry_with_larger_budget(self):
        transducer, din, dout, expected = nd_bc_family(6)
        schema = BackwardSchema(din, dout)
        with pytest.raises(BudgetExceededError):
            typecheck_backward(
                transducer, din, dout, max_product_nodes=3, schema=schema
            )
        result = typecheck_backward(transducer, din, dout, schema=schema)
        assert result.typechecks == expected


class TestSchemaAndCache:
    def test_backward_schema_pickles_with_result_cache(self):
        transducer, din, dout, expected = nd_bc_family(5, False)
        schema = BackwardSchema(din, dout).warm()
        first = typecheck_backward(transducer, din, dout, schema=schema)
        assert first.stats.get("table_cache") == "miss"
        clone = pickle.loads(pickle.dumps(schema))
        snapshot = clone.cached_result(transducer.content_hash())
        assert snapshot is not None and snapshot["typechecks"] is expected
        # The snapshot's counterexample survives the round trip verbatim.
        assert snapshot["counterexample"] == first.counterexample

    def test_result_cache_hit_skips_the_engine(self):
        transducer, din, dout, _ = nd_bc_family(5, False)
        schema = BackwardSchema(din, dout)
        typecheck_backward(transducer, din, dout, schema=schema)
        hit = typecheck_backward(transducer, din, dout, schema=schema)
        assert hit.stats.get("table_cache") == "hit"
        assert hit.stats["product_nodes"] == 0
        assert hit.verify(transducer, din.accepts, dout.accepts)

    def test_result_cache_lru_bound(self):
        _, din, dout, _ = nd_bc_family(3)
        schema = BackwardSchema(din, dout)
        schema.transducer_result_limit = 2
        for j in range(4):
            schema.store_result(f"t{j}", {"typechecks": True})
        assert list(schema.transducer_results) == ["t2", "t3"]

    def test_want_counterexample_false(self):
        transducer, din, dout, _ = nd_bc_family(5, False)
        result = typecheck_backward(
            transducer, din, dout, want_counterexample=False
        )
        assert not result.typechecks
        assert result.counterexample is None and result.output is None

    def test_session_artifact_roundtrip_carries_backward_results(self):
        transducer, din, dout, _ = nd_bc_family(5, False)
        session = Session(din, dout, eager=False)
        session.typecheck(transducer, method="backward")
        artifacts = session.export_artifacts()
        restored = Session.from_artifacts(artifacts)
        hit = restored.typecheck(transducer, method="backward")
        assert hit.stats.get("table_cache") == "hit"
        assert not hit.typechecks

    def test_session_rejects_foreign_options(self):
        transducer, din, dout, _ = nd_bc_family(3)
        session = Session(din, dout, eager=False)
        with pytest.raises(TypeError, match="check_output_class"):
            session.typecheck(
                transducer, method="backward", check_output_class=False
            )
        with pytest.raises(TypeError, match="max_tuple"):
            session.typecheck(transducer, method="backward", max_tuple=2)

    def test_registry_facade_exposes_backward(self):
        clear_registry()
        transducer, din, dout, expected = nd_bc_family(4)
        result = repro.typecheck(transducer, din, dout, method="backward")
        assert result.typechecks == expected and result.algorithm == "backward"


class TestXPathCalls:
    def test_calls_are_compiled_away(self):
        from repro.workloads.books import (
            book_dtd,
            example11_output_dtd,
            toc_xpath_transducer,
        )

        transducer, din, dout = (
            toc_xpath_transducer(), book_dtd(), example11_output_dtd()
        )
        forward = typecheck_forward(transducer, din, dout)
        backward = typecheck_backward(transducer, din, dout)
        assert backward.typechecks == forward.typechecks
