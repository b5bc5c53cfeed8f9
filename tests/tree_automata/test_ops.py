"""Tests for tree-automaton operations (product, completion, complement,
determinization) and the #-elimination lift of Theorem 20."""

import pytest

from repro.errors import NotCompleteError, NotDeterministicError
from repro.schemas import DTD, dtd_to_dtac, dtd_to_nta
from repro.strings import regex_to_nfa
from repro.trees import parse_tree
from repro.trees.generate import enumerate_trees
from repro.tree_automata import (
    NTA,
    complement_dtac,
    complete,
    determinize,
    hash_elimination_lift,
    intersect,
    is_bottom_up_deterministic,
    is_complete,
    is_empty,
    witness_tree,
)
from repro.tree_automata.hash_elim import eliminate_hashes


def nta_of(rules, finals, alphabet):
    states = {q for (q, _s) in rules} | set(finals)
    for text in rules.values():
        states |= set(regex_to_nfa(text).alphabet)
    delta = {key: regex_to_nfa(text, alphabet=states) for key, text in rules.items()}
    return NTA(states, set(alphabet), delta, set(finals))


@pytest.fixture
def dtd_ab():
    return DTD({"r": "a* b*"}, start="r")


@pytest.fixture
def dtd_ba():
    return DTD({"r": "b* a*"}, start="r")


class TestIntersect:
    def test_intersection_language(self, dtd_ab, dtd_ba):
        prod = intersect(dtd_to_nta(dtd_ab), dtd_to_nta(dtd_ba))
        # Intersection: all a's or all b's.
        assert prod.accepts(parse_tree("r(a a)"))
        assert prod.accepts(parse_tree("r(b)"))
        assert prod.accepts(parse_tree("r"))
        assert not prod.accepts(parse_tree("r(a b)"))
        assert not prod.accepts(parse_tree("r(b a)"))

    def test_empty_intersection(self):
        left = dtd_to_nta(DTD({"r": "a"}, start="r"))
        right = dtd_to_nta(DTD({"r": "b"}, start="r"))
        assert is_empty(intersect(left, right))

    def test_product_rules_pickle_as_kernels(self, dtd_ab, dtd_ba):
        import pickle

        prod = intersect(dtd_to_nta(dtd_ab), dtd_to_nta(dtd_ba))
        clone = pickle.loads(pickle.dumps(prod))
        for key, nfa in prod.delta.items():
            assert clone.delta[key] == nfa
        assert clone.accepts(parse_tree("r(b b)"))
        assert not clone.accepts(parse_tree("r(a b)"))

    def test_witness_from_intersection(self, dtd_ab, dtd_ba):
        prod = intersect(dtd_to_nta(dtd_ab), dtd_to_nta(dtd_ba))
        tree = witness_tree(prod)
        assert tree is not None
        assert dtd_ab.accepts(tree) and dtd_ba.accepts(tree)


class TestDeterminismChecks:
    def test_dtd_nta_is_deterministic(self, dtd_ab):
        assert is_bottom_up_deterministic(dtd_to_nta(dtd_ab))

    def test_nondeterministic(self):
        nta = nta_of(
            {("p", "a"): "ε", ("q", "a"): "ε"},
            finals=["p"],
            alphabet=("a",),
        )
        assert not is_bottom_up_deterministic(nta)

    def test_dtd_nta_not_complete(self, dtd_ab):
        assert not is_complete(dtd_to_nta(dtd_ab))

    def test_completed_is_complete(self, dtd_ab):
        assert is_complete(complete(dtd_to_nta(dtd_ab)))


class TestCompletion:
    def test_preserves_language(self, dtd_ab):
        nta = dtd_to_nta(dtd_ab)
        completed = complete(nta)
        for tree in [
            parse_tree("r"),
            parse_tree("r(a b)"),
            parse_tree("r(b a)"),
            parse_tree("a"),
        ]:
            assert nta.accepts(tree) == completed.accepts(tree)

    def test_preserves_determinism(self, dtd_ab):
        completed = complete(dtd_to_nta(dtd_ab))
        assert is_bottom_up_deterministic(completed)

    def test_every_tree_has_a_run(self, dtd_ab):
        completed = complete(dtd_to_nta(dtd_ab))
        for tree in [parse_tree("b(a(r) r)"), parse_tree("r(r r)")]:
            assert completed.states_of(tree)


class TestComplement:
    def test_complement_flips_membership(self, dtd_ab):
        dtac = dtd_to_dtac(dtd_ab)
        comp = complement_dtac(dtac, check=False)
        for tree in [
            parse_tree("r"),
            parse_tree("r(a a b)"),
            parse_tree("r(b a)"),
            parse_tree("a"),
            parse_tree("b(r)"),
        ]:
            assert dtac.accepts(tree) != comp.accepts(tree)

    def test_check_rejects_incomplete(self, dtd_ab):
        with pytest.raises(NotCompleteError):
            complement_dtac(dtd_to_nta(dtd_ab))

    def test_check_rejects_nondeterministic(self):
        nta = nta_of(
            {("p", "a"): "ε", ("q", "a"): "ε"},
            finals=["p"],
            alphabet=("a",),
        )
        with pytest.raises(NotDeterministicError):
            complement_dtac(complete(nta))


class TestDeterminize:
    def test_language_preserved(self):
        # Nondeterministic: root accepts if some child pair (a then b) exists.
        nta = nta_of(
            {
                ("r", "r"): "x* p q x*",
                ("p", "a"): "ε",
                ("q", "b"): "ε",
                ("x", "a"): "ε",
                ("x", "b"): "ε",
            },
            finals=["r"],
            alphabet=("r", "a", "b"),
        )
        det = determinize(nta)
        assert is_bottom_up_deterministic(det)
        dtd = DTD({"r": "(a | b)*"}, start="r")
        for tree in enumerate_trees(dtd, max_nodes=4):
            assert nta.accepts(tree) == det.accepts(tree), str(tree)

    def test_determinize_dtd(self, dtd_ab):
        det = determinize(dtd_to_nta(dtd_ab))
        assert det.accepts(parse_tree("r(a b)"))
        assert not det.accepts(parse_tree("r(b a)"))


class TestHashElimination:
    def test_gamma_function(self):
        tree = parse_tree("r(#(a b) c #(#(d)))")
        assert eliminate_hashes(tree) == (parse_tree("r(a b c d)"),)

    def test_gamma_root_hash(self):
        assert eliminate_hashes(parse_tree("#(a b)")) == (
            parse_tree("a"),
            parse_tree("b"),
        )

    def test_lift_accepts_iff_gamma_accepted(self, dtd_ab):
        base = dtd_to_nta(dtd_ab)
        lifted = hash_elimination_lift(base)
        cases = [
            ("r(a b)", True),
            ("r(#(a) b)", True),
            ("r(#(a #(a b)) b)", True),
            ("r(#(b) a)", False),
            ("r(# # #)", True),  # all hashes eliminate to ε
            # Root hashes: accepted exactly when the elimination is a
            # *single* accepted tree.
            ("#(r(a b))", True),
            ("#(#(r(a b)))", True),
            ("#(r(a b) r(a b))", False),  # eliminates to a two-tree hedge
            ("#", False),  # eliminates to the empty hedge
            ("#(b)", False),  # single tree, but not accepted
        ]
        for text, expected in cases:
            tree = parse_tree(text)
            assert lifted.accepts(tree) is expected, text
            gamma = eliminate_hashes(tree)
            assert (len(gamma) == 1 and base.accepts(gamma[0])) is expected, text

    def test_lift_rejects_existing_hash(self):
        dtd = DTD({"#": "a"}, start="#")
        from repro.errors import InvalidSchemaError

        with pytest.raises(InvalidSchemaError):
            hash_elimination_lift(dtd_to_nta(dtd))

    def test_lift_of_complement(self, dtd_ab):
        # The Theorem 20 usage: lift the complement of a DTAc.
        comp = complement_dtac(dtd_to_dtac(dtd_ab), check=False)
        lifted = hash_elimination_lift(comp)
        assert not lifted.accepts(parse_tree("r(#(a) b)"))
        assert lifted.accepts(parse_tree("r(#(b) a)"))
