"""Tests for tree generation from DTDs."""

import random

from repro.schemas import DTD
from repro.trees.generate import enumerate_trees, minimal_tree, random_tree
from repro.trees.tree import Tree, parse_tree


def book_dtd() -> DTD:
    """The Example 10 schema."""
    return DTD(
        {
            "book": "title author+ chapter+",
            "chapter": "title intro section+",
            "section": "title paragraph+ section*",
        },
        start="book",
    )


class TestMinimalTree:
    def test_book_minimal(self):
        tree = minimal_tree(book_dtd())
        assert tree is not None
        assert book_dtd().accepts(tree)
        expected = parse_tree(
            "book(title author chapter(title intro section(title paragraph)))"
        )
        assert tree == expected

    def test_empty_dtd(self):
        # r needs an x child but x needs an x child forever: empty language.
        dtd = DTD({"r": "x", "x": "x"}, start="r")
        assert minimal_tree(dtd) is None

    def test_leaf_only(self):
        dtd = DTD({}, start="r")
        assert minimal_tree(dtd) == parse_tree("r")

    def test_specific_symbol(self):
        tree = minimal_tree(book_dtd(), symbol="section")
        assert tree == parse_tree("section(title paragraph)")

    def test_minimality(self):
        dtd = DTD({"r": "a | b b"}, start="r")
        tree = minimal_tree(dtd)
        assert tree == parse_tree("r(a)")


class TestEnumerate:
    def test_enumerates_exactly_the_language(self):
        dtd = DTD({"r": "a b?", "a": "ε", "b": "ε"}, start="r")
        trees = list(enumerate_trees(dtd, max_nodes=4))
        assert set(trees) == {parse_tree("r(a)"), parse_tree("r(a b)")}

    def test_respects_budget(self):
        dtd = DTD({"r": "a*"}, start="r")
        trees = list(enumerate_trees(dtd, max_nodes=3))
        assert set(trees) == {
            parse_tree("r"),
            parse_tree("r(a)"),
            parse_tree("r(a a)"),
        }

    def test_recursive_dtd(self):
        dtd = DTD({"r": "r? "}, start="r")
        trees = list(enumerate_trees(dtd, max_nodes=3))
        assert set(trees) == {
            parse_tree("r"),
            parse_tree("r(r)"),
            parse_tree("r(r(r))"),
        }

    def test_all_enumerated_trees_are_valid(self):
        dtd = book_dtd()
        for tree in enumerate_trees(dtd, max_nodes=10):
            assert dtd.accepts(tree)

    def test_no_duplicates(self):
        dtd = DTD({"r": "a* b*"}, start="r")
        trees = list(enumerate_trees(dtd, max_nodes=4))
        assert len(trees) == len(set(trees))


class TestRandom:
    def test_random_trees_are_valid(self):
        dtd = book_dtd()
        rng = random.Random(7)
        for _ in range(10):
            tree = random_tree(dtd, rng, max_depth=6)
            assert tree is not None
            assert dtd.accepts(tree)

    def test_respects_depth(self):
        dtd = DTD({"r": "r?"}, start="r")
        rng = random.Random(3)
        for _ in range(10):
            tree = random_tree(dtd, rng, max_depth=4)
            assert tree is not None
            assert tree.depth <= 4

    def test_impossible_depth_returns_none(self):
        dtd = DTD({"r": "x", "x": "x"}, start="r")
        assert random_tree(dtd, random.Random(0), max_depth=3) is None

    def test_never_starts_a_subtree_that_cannot_fit(self):
        # x only roots infinite trees and z needs depth 3: at max_depth 2
        # every r must be r(y), found without retries at any depth bound.
        dtd = DTD({"r": "x | y | z", "x": "x", "y": "", "z": "y"}, start="r")
        rng = random.Random(1)
        for _ in range(20):
            assert random_tree(dtd, rng, max_depth=2, attempts=1) == Tree(
                "r", (Tree("y"),)
            )
        assert random_tree(dtd, rng, symbol="x", max_depth=60) is None
