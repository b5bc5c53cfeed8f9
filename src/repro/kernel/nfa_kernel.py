"""Interned NFA core: per-state transition rows over dense integers.

:class:`InternedNFA` is the nondeterministic sibling of
:class:`~repro.kernel.dfa_kernel.InternedDFA`: states and symbols become
dense ints, transition rows become tuples ``(symbol, targets)`` of ints, and
symbol-restricted queries (``some_word`` over a productive subset, the
Fig. A.1 emptiness tests) take the allowed set as a *bitmask* instead of a
frozenset, so the inner loops are pure integer arithmetic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

from repro.kernel.dfa_kernel import PairInterner
from repro.kernel.interning import Interner
from repro.kernel.product import ProductBFS

State = Hashable
Symbol = Hashable


class InternedNFA:
    """An ε-free NFA over dense integer states and symbols.

    Built from an :class:`~repro.strings.nfa.NFA`, the interners hold its
    states and its *read* symbols — those labelling some transition — each
    repr-sorted, so indices and witnesses are hash-seed independent.
    Alphabet symbols no transition reads are not interned: they occur in no
    accepted word, and symbol masks (:meth:`allowed_mask`) ignore them.

    ``rows[q]`` is a tuple of ``(symbol_index, targets_tuple)`` pairs
    (sorted by symbol index when built from an NFA); ``initial`` is a tuple
    of state indices and ``finals_mask`` a bitmask.  Pair products are
    built directly from two kernels by :func:`pair_product_kernel`.
    """

    __slots__ = ("states", "symbols", "rows", "initial", "finals_mask", "n_states")

    def __init__(self, nfa) -> None:
        transitions = nfa.transitions
        self.states: Interner = Interner.from_sorted(nfa.states)
        # Only symbols that label a transition can occur in an accepted
        # word; unread alphabet symbols (a horizontal NFA's alphabet is the
        # whole tree-automaton state set) would only widen the masks.
        self.symbols: Interner = Interner.from_sorted(
            {symbol for row in transitions.values() for symbol in row}
        )
        self.n_states = len(self.states)
        state_index = self.states.index
        symbol_index = self.symbols.index
        rows: List[Tuple[Tuple[int, Tuple[int, ...]], ...]] = [()] * self.n_states
        for src, row in transitions.items():
            rows[state_index(src)] = tuple(
                sorted(
                    (
                        symbol_index(symbol),
                        tuple(sorted(state_index(t) for t in targets)),
                    )
                    for symbol, targets in row.items()
                )
            )
        self.rows = rows
        self.initial: Tuple[int, ...] = tuple(
            sorted(state_index(q) for q in nfa.initial)
        )
        self.finals_mask: int = self.states.mask(nfa.finals)

    def decode(self):
        """The object view ``(states, transitions, initial, finals)`` in the
        :class:`~repro.strings.nfa.NFA` representation."""
        state = self.states.value
        symbol = self.symbols.value
        transitions = {
            state(src): {
                symbol(index): frozenset(state(t) for t in targets)
                for index, targets in row
            }
            for src, row in enumerate(self.rows)
            if row
        }
        return (
            frozenset(self.states.values),
            transitions,
            frozenset(state(q) for q in self.initial),
            self.states.unmask(self.finals_mask),
        )

    # ------------------------------------------------------------------
    def allowed_mask(self, symbols=None) -> int:
        """Bitmask over *symbol* indices for a symbol restriction
        (``None``: everything)."""
        if symbols is None:
            return (1 << len(self.symbols)) - 1
        return self.symbols.mask(symbols)

    def some_word_ints(self, allowed: Optional[int] = None) -> Optional[Tuple[int, ...]]:
        """A shortest accepted word (as symbol indices) using only symbols
        whose bit is set in ``allowed``, or ``None`` when none exists."""
        finals_mask = self.finals_mask
        rows = self.rows
        unrestricted = allowed is None

        def accepting(state: int) -> bool:
            return bool(finals_mask >> state & 1)

        def successors(state: int):
            for symbol, targets in rows[state]:
                if unrestricted or allowed >> symbol & 1:
                    for target in targets:
                        yield target, symbol

        engine = ProductBFS()
        hit = engine.run(self.initial, successors, on_visit=accepting)
        if hit is None:
            return None
        return tuple(engine.path(hit))

    def some_word(self, symbols=None) -> Optional[Tuple[Symbol, ...]]:
        """A shortest accepted word over ``symbols``, decoded."""
        allowed = None if symbols is None else self.allowed_mask(symbols)
        word = self.some_word_ints(allowed)
        if word is None:
            return None
        value = self.symbols.value
        return tuple(value(symbol) for symbol in word)

    def is_empty(self, allowed: Optional[int] = None) -> bool:
        """Whether no word over the ``allowed`` symbol mask is accepted."""
        return self.reachable_mask(allowed) & self.finals_mask == 0

    def reachable_mask(self, allowed: Optional[int] = None) -> int:
        """Bitmask of states reachable from the initial states."""
        rows = self.rows
        unrestricted = allowed is None
        seen = 0
        for q in self.initial:
            seen |= 1 << q
        frontier = deque(self.initial)
        while frontier:
            src = frontier.popleft()
            for symbol, targets in rows[src]:
                if unrestricted or allowed >> symbol & 1:
                    for target in targets:
                        if not seen >> target & 1:
                            seen |= 1 << target
                            frontier.append(target)
        return seen

    def coreachable_mask(self, allowed: Optional[int] = None) -> int:
        """Bitmask of states from which a final state is reachable."""
        unrestricted = allowed is None
        predecessors: List[List[int]] = [[] for _ in range(self.n_states)]
        for src, row in enumerate(self.rows):
            for symbol, targets in row:
                if unrestricted or allowed >> symbol & 1:
                    for target in targets:
                        predecessors[target].append(src)
        seen = self.finals_mask
        frontier = deque(i for i in range(self.n_states) if seen >> i & 1)
        while frontier:
            node = frontier.popleft()
            for pred in predecessors[node]:
                if not seen >> pred & 1:
                    seen |= 1 << pred
                    frontier.append(pred)
        return seen


# ----------------------------------------------------------------------
# Horizontal pair products (tree-automaton intersection)
# ----------------------------------------------------------------------
def pair_product_kernel(ileft: InternedNFA, iright: InternedNFA) -> InternedNFA:
    """Reachable pair product of two interned NFAs reading *pairs* of
    symbols — the horizontal language of a product tree automaton (see
    :func:`repro.tree_automata.ops.intersect`).

    Built straight from the operand kernels, so the cost is the reachable
    pair transitions, not the pair alphabet: states are dense ints in BFS
    discovery order and symbols are the pairs read on some transition, in
    first-read order.  Both orders follow the operand kernels' repr-sorted
    indices, so they are hash-seed independent; the object pairs decode
    lazily through :class:`PairInterner` interners.  (Rows here are in
    operand-symbol order, not sorted by the product's symbol index.)
    """
    n_right = iright.n_states
    n_right_symbols = len(iright.symbols)
    lrows, rrows = ileft.rows, iright.rows
    codes: List[int] = [l * n_right + r for l in ileft.initial for r in iright.initial]
    ids: Dict[int, int] = {code: index for index, code in enumerate(codes)}
    symbol_codes: List[int] = []
    symbol_ids: Dict[int, int] = {}
    rows: List[Tuple[Tuple[int, Tuple[int, ...]], ...]] = []
    for code in codes:  # grows while iterating: the BFS frontier
        l, r = divmod(code, n_right)
        row = []
        for u, targets_l in lrows[l]:
            pair_base = u * n_right_symbols
            for v, targets_r in rrows[r]:
                pair = pair_base + v
                symbol = symbol_ids.get(pair)
                if symbol is None:
                    symbol = symbol_ids[pair] = len(symbol_codes)
                    symbol_codes.append(pair)
                targets = []
                for tl in targets_l:
                    base = tl * n_right
                    for tr in targets_r:
                        succ = base + tr
                        succ_id = ids.get(succ)
                        if succ_id is None:
                            succ_id = ids[succ] = len(codes)
                            codes.append(succ)
                        targets.append(succ_id)
                row.append((symbol, tuple(targets)))
        rows.append(tuple(row))

    lf, rf = ileft.finals_mask, iright.finals_mask
    finals_mask = 0
    for index, code in enumerate(codes):
        l, r = divmod(code, n_right)
        if lf >> l & 1 and rf >> r & 1:
            finals_mask |= 1 << index
    infa = InternedNFA.__new__(InternedNFA)
    infa.states = PairInterner(codes, ileft.states, iright.states, n_right)
    infa.symbols = PairInterner(
        symbol_codes, ileft.symbols, iright.symbols, n_right_symbols
    )
    infa.rows = rows
    infa.initial = tuple(range(len(ileft.initial) * len(iright.initial)))
    infa.finals_mask = finals_mask
    infa.n_states = len(codes)
    return infa
