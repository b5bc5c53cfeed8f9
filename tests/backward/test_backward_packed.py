"""The backward behavior algebra's two transformation representations.

Transformations are compact byte tables composed with ``bytes.translate``
while every tracked output kernel has at most ``PACK_LIMIT`` states, and
tuples otherwise.  Symbol columns live in the output kernels' ``aux``
memo, shared by every engine over the same completed DFA.
"""

import pickle

import pytest

from repro.backward import (
    BackwardEngine,
    BackwardSchema,
    backward_check_keys,
    compute_backward_tables,
    merge_backward_tables,
    typecheck_backward,
)
from repro.backward import engine as backward_engine
from repro.core.forward import typecheck_forward
from repro.schemas.dtd import DTD
from repro.transducers.transducer import TreeTransducer
from repro.workloads.families import (
    filtering_family,
    nd_bc_family,
    wide_copy_family,
)
from repro.workloads.random_instances import seeded_instance

EXACT_ARITY = 300


def _exact_arity_instance(copies: int):
    """Input ``s -> c^100``, each ``c`` copied to ``copies`` ``a`` leaves
    under one ``r``; the output model is exactly ``EXACT_ARITY`` ``a``s,
    so ``r``'s completed content DFA has more than 256 states."""
    din = DTD({"s": " ".join(["c"] * 100)}, start="s", alphabet={"c"})
    dout = DTD({"r": " ".join(["a"] * EXACT_ARITY)}, start="r", alphabet={"a"})
    transducer = TreeTransducer(
        {"q", "p"}, {"s", "c", "r", "a"}, "q",
        {("q", "s"): "r(p)", ("p", "c"): " ".join(["a"] * copies)},
    )
    return transducer, din, dout


def _packed_values(tables):
    """Every transformation in externalized shard tables."""
    return [
        f
        for phis in tables["derived"].values()
        for phi in phis
        for _count, _label, _valid, fs in phi
        for f in fs
    ]


@pytest.mark.parametrize("copies,expected", [(3, True), (2, False), (4, False)])
def test_over_256_state_kernel_takes_the_tuple_path(copies, expected):
    transducer, din, dout = _exact_arity_instance(copies)
    engine = BackwardEngine(transducer, din, dout)
    assert max(idfa.n_states for idfa in engine._out) > 256
    assert not engine._packed
    backward = typecheck_backward(transducer, din, dout)
    forward = typecheck_forward(transducer, din, dout)
    assert backward.typechecks == forward.typechecks == expected
    if not expected:
        assert backward.verify(transducer, din.accepts, dout.accepts)


def test_lowered_limit_forces_tuples(monkeypatch):
    transducer, din, dout = seeded_instance(6)
    engine = BackwardEngine(transducer, din, dout)
    assert engine.sigmas and engine._packed
    monkeypatch.setattr(backward_engine, "PACK_LIMIT", 0)
    engine = BackwardEngine(transducer, din, dout)
    assert not engine._packed
    engine.run()
    f = engine._abs.value(engine._abs_empty)[3]
    assert all(isinstance(t, tuple) for t in f)


@pytest.mark.parametrize("make,n", [
    (filtering_family, 6), (nd_bc_family, 8), (wide_copy_family, 5),
])
@pytest.mark.parametrize("typechecks", [True, False])
def test_both_paths_decide_the_families(make, n, typechecks, monkeypatch):
    """Composition order matters on these families (the seeded instances
    rarely tell a word from its reverse)."""
    transducer, din, dout, expected = make(n, typechecks)
    assert typecheck_backward(transducer, din, dout).typechecks == expected
    monkeypatch.setattr(backward_engine, "PACK_LIMIT", 0)
    assert typecheck_backward(transducer, din, dout).typechecks == expected


class TestColumns:
    def _pair(self):
        """``r(u(a a) ⋯ u(a a))`` from ``s(c(d) ⋯ c(d))``: ``r`` and ``u``
        are both tracked, over two different completed content DFAs."""
        din = DTD({"s": "c*", "c": "d"}, start="s", alphabet={"d"})
        dout = DTD({"r": "u*", "u": "a a"}, start="r", alphabet={"a"})
        rules = {("q", "s"): "r(p)", ("p", "c"): "u(p)", ("p", "d"): "a a"}
        alphabet = {"s", "c", "d", "r", "u", "a"}
        narrow = TreeTransducer({"q", "p"}, alphabet, "q", rules)
        wide = TreeTransducer({"q", "p"}, alphabet | {"b"}, "q", rules)
        return din, dout, narrow, wide

    @staticmethod
    def _columns(engine, label):
        return engine._abs.value(engine._sym_abs(label, True))[3]

    @staticmethod
    def _read_off(idfa, label):
        return bytes(idfa.table[idfa.symbols.index(label)::idfa.n_symbols])

    def test_each_kernel_gets_its_own_columns(self):
        din, dout, narrow, wide = self._pair()
        schema = BackwardSchema(din, dout)
        engines = []
        for transducer in (narrow, wide):
            assert typecheck_backward(
                transducer, din, dout, schema=schema
            ).typechecks
            engines.append(BackwardEngine(transducer, din, dout, schema=schema))
        for engine in engines:
            assert engine.sigmas == ("r", "u")
            columns = self._columns(engine, "u")
            assert columns[0] != columns[1]
            for idfa, column in zip(engine._out, columns):
                assert column == self._read_off(idfa, "u")
        narrow_cols, wide_cols = (self._columns(e, "u") for e in engines)
        for narrow_col, wide_col in zip(narrow_cols, wide_cols):
            assert narrow_col is not wide_col
        assert "b" in engines[1]._out[0].symbols
        assert "b" not in engines[0]._out[0].symbols

    def test_same_alphabet_shares_column_objects(self):
        din, dout, narrow, _wide = self._pair()
        schema = BackwardSchema(din, dout)
        first = BackwardEngine(narrow, din, dout, schema=schema)
        second = BackwardEngine(narrow, din, dout, schema=schema)
        for a, b in zip(self._columns(first, "u"), self._columns(second, "u")):
            assert a is b

    def test_columns_are_built_on_first_use_not_at_compile(self):
        din, dout, narrow, _wide = self._pair()
        schema = BackwardSchema(din, dout).warm()
        kernel = schema.out_kernel("r", narrow.alphabet | dout.alphabet)
        assert not any(key[0] == "backward_columns" for key in kernel.aux)
        typecheck_backward(narrow, din, dout, schema=schema)
        assert "u" in kernel.aux[("backward_columns", True)]


@pytest.mark.parametrize("typechecks", [True, False])
def test_shard_round_trip_on_packed_instance(typechecks):
    transducer, din, dout, expected = wide_copy_family(6, typechecks)
    keys = backward_check_keys(transducer, din)
    shards = [
        pickle.loads(pickle.dumps(compute_backward_tables(
            transducer, din, dout, keys[index::2],
            schema=BackwardSchema(din, dout),
        )))
        for index in range(2)
    ]
    merged = merge_backward_tables(shards)
    values = _packed_values(merged)
    assert values and all(isinstance(f, bytes) for f in values)
    hydrated = typecheck_backward(transducer, din, dout, tables=merged)
    unsharded = typecheck_backward(transducer, din, dout)
    assert hydrated.typechecks == unsharded.typechecks == expected
    if not expected:
        assert hydrated.verify(transducer, din.accepts, dout.accepts)
