"""Tests for tree transducers: Definition 5 semantics, Examples 6/7,
Fig. 1 XSLT export, rhs parsing."""

import pytest

from repro.errors import InvalidTransducerError, ParseError
from repro.transducers import TreeTransducer, parse_rhs, to_xslt
from repro.transducers.rhs import (
    RhsCall,
    RhsState,
    RhsSym,
    all_states,
    rhs_size,
    rhs_str,
    top_decomposition,
    top_states,
)
from repro.trees import parse_tree
from repro.trees.dag import from_tree, unfold_tree
from repro.workloads.examples_paper import (
    example6_transducer,
    example7_expected_output,
    example7_tree,
)


class TestRhsParsing:
    def test_states_vs_symbols(self):
        hedge = parse_rhs("c(p q)", states={"p", "q"})
        assert hedge == (RhsSym("c", (RhsState("p"), RhsState("q"))),)

    def test_hedge_rhs(self):
        hedge = parse_rhs("c p", states={"p"})
        assert hedge == (RhsSym("c"), RhsState("p"))

    def test_empty_rhs(self):
        assert parse_rhs("", states=set()) == ()

    def test_state_cannot_have_children(self):
        with pytest.raises(ParseError):
            parse_rhs("p(a)", states={"p"})

    def test_call_syntax(self):
        hedge = parse_rhs("chapter <q, .//title>", states={"q"})
        assert isinstance(hedge[1], RhsCall)
        assert hedge[1].state == "q"
        assert str(hedge[1].selector) == ".//title"

    def test_top_states_and_decomposition(self):
        hedge = parse_rhs("a p b q c", states={"p", "q"})
        assert top_states(hedge) == ("p", "q")
        assert top_decomposition(hedge) == (("a",), ("b",), ("c",))

    def test_all_states_nested(self):
        hedge = parse_rhs("a(p b(q)) q", states={"p", "q"})
        assert all_states(hedge) == ("p", "q", "q")

    def test_rhs_size(self):
        assert rhs_size(parse_rhs("a(p q) b", states={"p", "q"})) == 4

    def test_str_roundtrip(self):
        for text in ["c(p q)", "a p b", "d(e)"]:
            hedge = parse_rhs(text, states={"p", "q"})
            assert parse_rhs(rhs_str(hedge), states={"p", "q"}) == hedge


class TestConstruction:
    def test_unknown_state_in_rhs(self):
        with pytest.raises(InvalidTransducerError):
            TreeTransducer({"q"}, {"a"}, "q", {("q", "a"): "zz"})

    def test_unknown_rule_state(self):
        with pytest.raises(InvalidTransducerError):
            TreeTransducer({"q"}, {"a"}, "q", {("p", "a"): "a"})

    def test_unknown_rule_symbol(self):
        with pytest.raises(InvalidTransducerError):
            TreeTransducer({"q"}, {"a"}, "q", {("q", "b"): "a"})

    def test_unknown_output_symbol(self):
        with pytest.raises(InvalidTransducerError):
            TreeTransducer({"q"}, {"a"}, "q", {("q", "a"): "b"})

    def test_initial_must_be_state(self):
        with pytest.raises(InvalidTransducerError):
            TreeTransducer({"q"}, {"a"}, "zz", {})

    def test_size_measure(self):
        t = example6_transducer()
        # |Q| + |Σ| + Σ|rhs| = 2 + 5 + (2 + 2 + 2 + 3)
        assert t.size == 2 + 5 + 9

    def test_pretty(self):
        text = example6_transducer().pretty()
        assert "(q, b) → c(p q)" in text

    def test_uses_calls_is_cached(self, monkeypatch):
        plain = example6_transducer()
        calls = TreeTransducer(
            {"q"}, {"a", "b"}, "q", {("q", "a"): "b(<q, .//a>)"}
        )
        assert (plain.uses_calls(), calls.uses_calls()) == (False, True)

        def no_walk(_hedge):
            raise AssertionError("uses_calls re-walked the rules")

        monkeypatch.setattr("repro.transducers.rhs.iter_rhs_nodes", no_walk)
        assert (plain.uses_calls(), calls.uses_calls()) == (False, True)


class TestSemantics:
    def test_example7_translation(self):
        t = example6_transducer()
        assert t.apply(example7_tree()) == example7_expected_output()

    def test_missing_rule_is_epsilon(self):
        t = TreeTransducer({"q"}, {"a", "b"}, "q", {("q", "a"): "a(q)"})
        # b-children vanish.
        assert t.apply(parse_tree("a(b b)")) == parse_tree("a")

    def test_deleting_state_skips_node(self):
        t = TreeTransducer(
            {"q"},
            {"a", "b", "c"},
            "q",
            {("q", "a"): "a(q)", ("q", "b"): "q", ("q", "c"): "c"},
        )
        assert t.apply(parse_tree("a(b(c c) c)")) == parse_tree("a(c c c)")

    def test_copying(self):
        t = TreeTransducer(
            {"q", "p"},
            {"a", "b"},
            "q",
            {("q", "a"): "a(p p)", ("p", "b"): "b"},
        )
        assert t.apply(parse_tree("a(b)")) == parse_tree("a(b b)")

    def test_empty_translation_returns_none(self):
        t = TreeTransducer({"q"}, {"a", "b"}, "q", {("q", "a"): "a"})
        assert t.apply(parse_tree("b")) is None

    def test_hedge_translation_returns_none(self):
        # Initial state producing two trees at the root is not a tree.
        t = TreeTransducer({"q"}, {"a"}, "q", {("q", "a"): "a a"})
        assert t.apply(parse_tree("a")) is None

    def test_apply_state_hedge(self):
        t = example6_transducer()
        result = t.apply_state("q", parse_tree("a"))
        assert result == (parse_tree("c"),)

    def test_book_example(self):
        from repro.workloads.books import book_dtd, fig3_document, toc_transducer

        out = toc_transducer().apply(fig3_document())
        assert out == parse_tree(
            "book(title chapter title title title title chapter title title)"
        )


class TestDagSemantics:
    def test_matches_explicit_on_shared_input(self):
        t = example6_transducer()
        tree = example7_tree()
        dag_out = t.apply_dag(from_tree(tree))
        assert unfold_tree(dag_out) == t.apply(tree)

    def test_exponential_input_linear_work(self):
        # Chain DAG: 2^20 unfolded nodes; transduction must stay fast.
        from repro.trees.dag import DagHedge, DagTree

        leaf = DagTree("a")
        node = leaf
        for _ in range(20):
            node = DagTree("a", DagHedge([node, node]))
        t = TreeTransducer({"q"}, {"a", "b"}, "q", {("q", "a"): "b(q)"})
        out = t.apply_dag(node)
        from repro.trees.dag import unfolded_size

        assert out.label == "b"
        assert unfolded_size(out) == 2 ** 21 - 1

    def test_dag_deletion(self):
        t = TreeTransducer(
            {"q"},
            {"a", "b", "c"},
            "q",
            {("q", "a"): "a(q)", ("q", "b"): "q", ("q", "c"): "c"},
        )
        tree = parse_tree("a(b(c c) c)")
        out = t.apply_dag(from_tree(tree))
        assert unfold_tree(out) == parse_tree("a(c c c)")


class TestXslt:
    def test_fig1_structure(self):
        xslt = to_xslt(example6_transducer())
        assert '<xsl:template match="a" mode="p">' in xslt
        assert '<xsl:template match="b" mode="q">' in xslt
        # (p, a) → d(e)
        assert "<d>" in xslt and "<e/>" in xslt
        # (q, a) → c p : sibling apply-templates after c.
        assert '<xsl:apply-templates mode="p"/>' in xslt
        assert '<xsl:apply-templates mode="q"/>' in xslt

    def test_fig1_template_count(self):
        xslt = to_xslt(example6_transducer())
        assert xslt.count("<xsl:template") == 4

    def test_call_export(self):
        from repro.workloads.books import toc_xpath_transducer

        xslt = to_xslt(toc_xpath_transducer())
        assert 'select="descendant::title"' in xslt
