"""Tests for Theorem 20 (T_del-relab w.r.t. DTAc(DFA)) and Lemma 19."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ClassViolationError
from repro.core import typecheck_bruteforce, typecheck_delrelab
from repro.core.delrelab import DelrelabSchema, _witness_rooted, wrap_deleting_states
from repro.schemas import DTD, dtd_to_dtac, dtd_to_nta
from repro.transducers import TreeTransducer, image_nta
from repro.trees import parse_tree
from repro.trees.generate import enumerate_trees
from repro.tree_automata.hash_elim import eliminate_hashes
from repro.tree_automata.ops import intersect


@pytest.fixture
def relabeler():
    """Relabel x→y, delete y's (one state per rhs, recursive deletion)."""
    return TreeTransducer(
        states={"q"},
        alphabet={"r", "x", "y"},
        initial="q",
        rules={("q", "r"): "r(q)", ("q", "x"): "y", ("q", "y"): "q"},
    )


class TestWrapDeletion:
    def test_wrap(self, relabeler):
        wrapped = wrap_deleting_states(relabeler)
        assert "#" in wrapped.alphabet
        rhs = wrapped.rules[("q", "y")]
        assert str(rhs[0]) == "#(q)"
        # Non-deleting rules untouched.
        assert wrapped.rules[("q", "x")] == relabeler.rules[("q", "x")]

    def test_wrapped_is_non_deleting(self, relabeler):
        from repro.transducers.analysis import is_non_deleting

        assert not is_non_deleting(relabeler)
        assert is_non_deleting(wrap_deleting_states(relabeler))


class TestImageNta:
    def test_image_language(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        wrapped = wrap_deleting_states(relabeler)
        image = image_nta(dtd_to_nta(din), wrapped)
        outputs = set()
        for tree in enumerate_trees(din, max_nodes=5):
            out = wrapped.apply(tree)
            assert out is not None
            assert image.accepts(out), f"{tree} -> {out}"
            outputs.add(out)
        # And some non-images are rejected.
        assert not image.accepts(parse_tree("r(x)"))
        assert not image.accepts(parse_tree("y(r)"))

    def test_image_gamma_matches_original(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        wrapped = wrap_deleting_states(relabeler)
        for tree in enumerate_trees(din, max_nodes=5):
            out_wrapped = wrapped.apply(tree)
            gamma = eliminate_hashes(out_wrapped)
            assert gamma == (relabeler.apply(tree),)

    def test_image_rejects_lemma19_violations(self):
        t = TreeTransducer(
            {"q", "p"}, {"a"}, "q", {("q", "a"): "a(p p)", ("p", "a"): "a"}
        )
        din = DTD({"a": "a?"}, start="a")
        with pytest.raises(Exception):
            image_nta(dtd_to_nta(din), t)

    def test_image_with_unprocessed_subtrees(self):
        # A rule-less symbol: children below it are invisible to T', but the
        # image must still demand they exist validly.
        din = DTD({"r": "m", "m": "a"}, start="r")
        t = TreeTransducer(
            {"q"}, {"r", "m", "a", "o"}, "q", {("q", "r"): "o"}
        )
        image = image_nta(dtd_to_nta(din), t)
        assert image.accepts(parse_tree("o"))


class TestTypecheckDelrelab:
    def test_accepting_instance(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        dout = DTD({"r": "y*"}, start="r")
        result = typecheck_delrelab(relabeler, dtd_to_nta(din), dtd_to_dtac(dout))
        assert result.typechecks
        assert typecheck_bruteforce(relabeler, din, dout, max_nodes=6).typechecks

    def test_rejecting_instance(self, relabeler):
        din = DTD({"r": "x* y*"}, start="r")
        dout = DTD({"r": "y+"}, start="r")
        result = typecheck_delrelab(relabeler, dtd_to_nta(din), dtd_to_dtac(dout))
        assert not result.typechecks
        assert not typecheck_bruteforce(relabeler, din, dout, max_nodes=6).typechecks
        # The violating output is reported and really violates dout.
        violating = result.stats["violating_output"]
        assert not dout.accepts(violating)

    def test_deep_deletion(self, relabeler):
        # Deletion of unbounded depth: r(y(y(...(x)))) → r(y).
        din = DTD({"r": "y", "y": "y | x"}, start="r")
        dout = DTD({"r": "y"}, start="r")
        result = typecheck_delrelab(relabeler, dtd_to_nta(din), dtd_to_dtac(dout))
        assert result.typechecks

    def test_dtd_inputs_accepted_directly(self, relabeler):
        din = DTD({"r": "x*"}, start="r")
        dout = DTD({"r": "y*"}, start="r")
        result = typecheck_delrelab(relabeler, din, dout)
        assert result.typechecks

    def test_missing_initial_rule(self):
        t = TreeTransducer({"q"}, {"r", "x"}, "q", {("q", "x"): "x"})
        din = DTD({"r": "x?"}, start="r")
        dout = DTD({"r": "x*"}, start="r")
        result = typecheck_delrelab(t, din, dout)
        assert not result.typechecks
        assert result.counterexample is not None
        assert result.counterexample.label == "r"

    def test_rejects_multi_state_rhs(self):
        t = TreeTransducer(
            {"q"}, {"r", "a"}, "q", {("q", "r"): "r(q q)", ("q", "a"): "a"}
        )
        din = DTD({"r": "a*"}, start="r")
        with pytest.raises(ClassViolationError):
            typecheck_delrelab(t, din, din)

    def test_agrees_with_forward_on_dtds(self, relabeler):
        from repro.core import typecheck_forward

        for out_model in ["y*", "y+", "y y*", "y? "]:
            din = DTD({"r": "x* y*"}, start="r")
            dout = DTD({"r": out_model}, start="r")
            fast = typecheck_forward(relabeler, din, dout)
            dr = typecheck_delrelab(relabeler, din, dout)
            assert fast.typechecks == dr.typechecks, out_model


class TestRootDeletion:
    """Root-deleting rules whose translation is not a single tree.

    Such outputs (the empty hedge, or a hedge of ≥ 2 trees) conform to no
    tree schema; the #-elimination lift cannot express them, so
    typecheck_delrelab uses a separate non-tree-elimination detector.
    Differentially confirmed against the brute-force oracle.
    """

    @pytest.fixture
    def root_deleter(self):
        return TreeTransducer(
            {"q"}, {"r", "x"}, "q", {("q", "r"): "q", ("q", "x"): "x"}
        )

    def _check(self, transducer, din, dout, expected):
        from repro.core.bruteforce import typecheck_bruteforce

        result = typecheck_delrelab(transducer, din, dout)
        oracle = typecheck_bruteforce(transducer, din, dout, max_nodes=6)
        assert result.typechecks is expected
        assert oracle.typechecks is expected
        return result

    def test_two_tree_hedge_is_violation(self, root_deleter):
        din = DTD({"r": "x x", "x": "ε"}, start="r")
        dout = DTD({"x": "ε"}, start="x", alphabet=root_deleter.alphabet)
        result = self._check(root_deleter, din, dout, False)
        assert "non-tree hedge" in result.reason
        assert len(result.stats["violating_output"]) == 2

    def test_empty_hedge_is_violation(self, root_deleter):
        din = DTD({"r": "ε", "x": "ε"}, start="r", alphabet={"x"})
        dout = DTD({"x": "ε"}, start="x", alphabet=root_deleter.alphabet)
        result = self._check(root_deleter, din, dout, False)
        assert "non-tree hedge" in result.reason

    def test_single_tree_elimination_still_checked(self, root_deleter):
        din = DTD({"r": "x", "x": "ε"}, start="r")
        dout_ok = DTD({"x": "ε"}, start="x", alphabet=root_deleter.alphabet)
        dout_bad = DTD(
            {"y": "ε"}, start="y", alphabet=root_deleter.alphabet | {"y"}
        )
        self._check(root_deleter, din, dout_ok, True)
        self._check(root_deleter, din, dout_bad, False)


def _failing_instance():
    """A fixed del-relab instance with several violating outputs of the same
    size, so the one reported depends on the product's rule and symbol
    order (``seeded_instance(5)`` as drawn under one hash seed — the
    generator itself iterates sets, so it is spelled out here)."""
    transducer = TreeTransducer(
        states={"q0", "q1"},
        alphabet={"o0", "o1", "o2", "s0", "s1", "s2"},
        initial="q0",
        rules={
            ("q0", "s0"): "o0(o0(o2) q0)",
            ("q0", "s2"): "o1",
            ("q1", "s2"): "o1",
        },
    )
    din = DTD({"s0": "s2* s2", "s1": "s2", "s2": "ε"}, start="s0")
    dout = DTD(
        {"o0": "ε", "o1": "ε", "o2": "ε"}, start="o0", alphabet=transducer.alphabet
    )
    return transducer, din, dout


class TestProductConstruction:
    """The Theorem 20 product is built in proportion to its transitions."""

    def test_product_kernels_are_sized_by_their_transitions(self):
        transducer, din, dout = _failing_instance()
        schema = DelrelabSchema(din, dout)
        hash_symbol = schema.free_hash_symbol(transducer.alphabet)
        b_in = image_nta(
            schema.input_nta, wrap_deleting_states(transducer, hash_symbol)
        )
        product = intersect(b_in, schema.lifted_complement(hash_symbol))
        assert product.delta
        for nfa in product.delta.values():
            # One shared pair-state set, never a per-rule copy.
            assert nfa.alphabet is product.states
            # The kernel interns exactly the pair symbols its rows read.
            infa = nfa.kernel()
            read = {symbol for row in infa.rows for symbol, _targets in row}
            assert len(infa.symbols) == len(read)


_WITNESS_SCRIPT = """
import pickle, sys
from repro.core.delrelab import _witness_rooted, typecheck_delrelab
from repro.schemas import dtd_to_nta

with open(sys.argv[1], "rb") as handle:
    transducer, din, dout = pickle.load(handle)
print(repr(typecheck_delrelab(transducer, din, dout).stats["violating_output"]))
ain = dtd_to_nta(din)
for symbol in sorted(ain.alphabet):
    print(symbol, repr(_witness_rooted(ain, symbol)))
"""


class TestCrossProcessWitnesses:
    def test_witnesses_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Interning and the product kernels order states and symbols
        without relying on hash order, so one failing instance yields the
        same violating output and rooted input witnesses in interpreters
        with different hash seeds."""
        instance = _failing_instance()
        path = tmp_path / "instance.pkl"
        path.write_bytes(pickle.dumps(instance))
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for hash_seed in ("1", "4"):
            run = subprocess.run(
                [sys.executable, "-c", _WITNESS_SCRIPT, str(path)],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        transducer, din, dout = instance
        ain = dtd_to_nta(din)
        local = [repr(typecheck_delrelab(transducer, din, dout).stats["violating_output"])]
        local += [
            f"{symbol} {_witness_rooted(ain, symbol)!r}" for symbol in sorted(ain.alphabet)
        ]
        assert outputs[0] == outputs[1] == "\n".join(local) + "\n"
