"""Interned DFA core: flat transition tables and int-encoded product spaces.

:class:`InternedDFA` maps a (possibly partial) DFA's states and symbols to
dense integers once; the transition function becomes one flat list indexed
by ``state * n_symbols + symbol`` with ``-1`` for undefined transitions.

The module-level functions implement the hot DFA operations on top of the
shared :class:`~repro.kernel.product.ProductBFS` engine and return plain
decoded components (state sets, transition dicts) so the public
:class:`~repro.strings.dfa.DFA` API can wrap them without this module
importing it back.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.kernel.interning import Interner, iter_bits
from repro.kernel.product import ProductBFS

State = Hashable
Symbol = Hashable


class InternedDFA:
    """A DFA over dense integer states and symbols.

    ``table[q * n_symbols + a]`` is the successor state index or ``-1``;
    ``finals_mask`` is the bitmask of accepting state indices.
    """

    __slots__ = (
        "states",
        "symbols",
        "table",
        "initial",
        "finals_mask",
        "n_states",
        "n_symbols",
        "aux",
    )

    def __init__(self, dfa) -> None:
        self.states: Interner = Interner.from_sorted(dfa.states)
        self.symbols: Interner = Interner.from_sorted(dfa.alphabet)
        n_states = self.n_states = len(self.states)
        n_symbols = self.n_symbols = len(self.symbols)
        table = [-1] * (n_states * n_symbols)
        state_index = self.states.index
        symbol_index = self.symbols.index
        for (src, symbol), tgt in dfa.transitions.items():
            table[state_index(src) * n_symbols + symbol_index(symbol)] = state_index(tgt)
        self.table: List[int] = table
        self.initial: int = state_index(dfa.initial)
        self.finals_mask: int = self.states.mask(dfa.finals)
        # Scratch space for client-layer memos tied to this kernel's
        # lifetime (e.g. the forward engine's useful-mask/child tables).
        self.aux: dict = {}

    # ------------------------------------------------------------------
    def step(self, state: int, symbol: int) -> int:
        """Single transition; ``-1`` is the dead configuration (absorbing)."""
        if state < 0:
            return -1
        return self.table[state * self.n_symbols + symbol]

    def run(self, word: Tuple[int, ...], start: int) -> int:
        """Extended transition function over interned symbols."""
        table = self.table
        n_symbols = self.n_symbols
        state = start
        for symbol in word:
            if state < 0:
                return -1
            state = table[state * n_symbols + symbol]
        return state

    def intern_word(self, word) -> Optional[Tuple[int, ...]]:
        """Interned form of a symbol sequence; ``None`` if any symbol is
        foreign (a run on it necessarily dies)."""
        get = self.symbols.get
        out = []
        for symbol in word:
            index = get(symbol)
            if index < 0:
                return None
            out.append(index)
        return tuple(out)

    def is_final(self, state: int) -> bool:
        return state >= 0 and bool(self.finals_mask >> state & 1)

    def reachable(self) -> List[int]:
        """Indices of states reachable from the initial state (BFS order)."""
        table = self.table
        n_symbols = self.n_symbols
        seen = 1 << self.initial
        order = [self.initial]
        frontier = deque(order)
        while frontier:
            src = frontier.popleft()
            base = src * n_symbols
            for offset in range(n_symbols):
                tgt = table[base + offset]
                if tgt >= 0 and not seen >> tgt & 1:
                    seen |= 1 << tgt
                    order.append(tgt)
                    frontier.append(tgt)
        return order


# ----------------------------------------------------------------------
# Product (intersection-style) construction
# ----------------------------------------------------------------------
class PairInterner:
    """An :class:`Interner` over product pairs — the states of a DFA or NFA
    product, or the pair symbols of a horizontal NFA product — decoded
    lazily.

    The product BFS works entirely on packed codes ``l * n_right + r``;
    this interner stores those codes plus the two factors' state
    *interners* — not their decoded values, so chaining products over lazy
    factors stays decode-free all the way down — and materializes the
    object pair ``(left_state, right_state)`` of an index only when someone
    asks for it.  Deliberately closure-free so kernel-backed products
    pickle (see :mod:`repro.kernel.serialize`).
    """

    __slots__ = ("_codes", "_left_states", "_right_states", "_n_right",
                 "_decoded", "_object_index")

    def __init__(self, codes, left_states, right_states, n_right: int) -> None:
        self._codes: List[int] = list(codes)
        self._left_states = left_states  # Interner or PairInterner
        self._right_states = right_states
        self._n_right = n_right
        self._decoded: Dict[int, Tuple] = {}
        self._object_index: Optional[Dict[Tuple, int]] = None

    def value(self, index: int) -> Tuple:
        pair = self._decoded.get(index)
        if pair is None:
            l, r = divmod(self._codes[index], self._n_right)
            pair = (self._left_states.value(l), self._right_states.value(r))
            self._decoded[index] = pair
        return pair

    @property
    def values(self) -> Tuple:
        return tuple(self.value(i) for i in range(len(self._codes)))

    def _index_map(self) -> Dict[Tuple, int]:
        mapping = self._object_index
        if mapping is None:
            mapping = self._object_index = {
                self.value(i): i for i in range(len(self._codes))
            }
        return mapping

    def index(self, value: Tuple) -> int:
        return self._index_map()[value]

    def get(self, value, default: int = -1) -> int:
        return self._index_map().get(value, default)

    def intern(self, value) -> int:
        """Pair interners are fixed at construction — look up only."""
        index = self._index_map().get(value)
        if index is None:
            raise KeyError(f"{value!r} is not a product state")
        return index

    def mask(self, values) -> int:
        mapping = self._index_map()
        mask = 0
        for value in values:
            index = mapping.get(value)
            if index is not None:
                mask |= 1 << index
        return mask

    def unmask(self, mask: int) -> frozenset:
        return frozenset(self.value(i) for i in iter_bits(mask))

    def __len__(self) -> int:
        return len(self._codes)

    def __contains__(self, value) -> bool:
        return value in self._index_map()

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairInterner({len(self._codes)} pair states)"


def product_kernel(left, right, finals: str = "both") -> InternedDFA:
    """The reachable product of two DFA-like objects as an interned DFA.

    Unlike :func:`product_components`, nothing is decoded: states are dense
    ints assigned in BFS discovery order (deterministic — symbols are
    iterated in repr-sorted order) and the pair objects materialize lazily
    through the :class:`PairInterner`.  This is what makes small products
    cheap — the seed path spent its time building object dicts, not
    exploring the pair graph.
    """
    ileft: InternedDFA = left.kernel()
    iright: InternedDFA = right.kernel()
    alphabet = sorted(left.alphabet & right.alphabet, key=repr)
    shared = [
        (ileft.symbols.index(symbol), iright.symbols.index(symbol))
        for symbol in alphabet
    ]
    n_right = iright.n_states
    ltab, rtab = ileft.table, iright.table
    lns, rns = ileft.n_symbols, iright.n_symbols
    n_shared = len(shared)

    start = ileft.initial * n_right + iright.initial
    ids: Dict[int, int] = {start: 0}
    codes: List[int] = [start]
    table: List[int] = []
    frontier = deque((start,))
    while frontier:
        code = frontier.popleft()
        l, r = divmod(code, n_right)
        lbase = l * lns
        rbase = r * rns
        for ls, rs in shared:
            tl = ltab[lbase + ls]
            if tl < 0:
                table.append(-1)
                continue
            tr = rtab[rbase + rs]
            if tr < 0:
                table.append(-1)
                continue
            succ = tl * n_right + tr
            succ_id = ids.get(succ)
            if succ_id is None:
                succ_id = ids[succ] = len(codes)
                codes.append(succ)
                frontier.append(succ)
            table.append(succ_id)

    # BFS appended each popped node's row in pop (= id) order, so ``table``
    # is already the flat ``state * n_symbols + symbol`` layout.
    lf, rf = ileft.finals_mask, iright.finals_mask
    finals_mask = 0
    for index, code in enumerate(codes):
        l, r = divmod(code, n_right)
        l_final = bool(lf >> l & 1)
        r_final = bool(rf >> r & 1)
        if finals == "both":
            accept = l_final and r_final
        elif finals == "left":
            accept = l_final
        elif finals == "right":
            accept = r_final
        elif finals == "either":
            accept = l_final or r_final
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown finals mode {finals!r}")
        if accept:
            finals_mask |= 1 << index
    idfa = InternedDFA.__new__(InternedDFA)
    idfa.states = PairInterner(codes, ileft.states, iright.states, n_right)
    idfa.symbols = Interner(alphabet)
    idfa.table = table
    idfa.initial = 0
    idfa.finals_mask = finals_mask
    idfa.n_states = len(codes)
    idfa.n_symbols = n_shared
    idfa.aux = {}
    return idfa


def product_components(left, right, finals: str = "both"):
    """Reachable product of two DFA-like objects over the shared alphabet.

    Returns ``(states, transitions, initial, accept, alphabet)`` with states
    decoded back to the seed representation — pairs ``(p, q)`` of original
    states — so the caller can build a drop-in :class:`DFA`.
    """
    ileft: InternedDFA = left.kernel()
    iright: InternedDFA = right.kernel()
    alphabet = left.alphabet & right.alphabet
    shared = [
        (ileft.symbols.index(symbol), iright.symbols.index(symbol), symbol)
        for symbol in sorted(alphabet, key=repr)
    ]
    n_right = iright.n_states
    ltab, rtab = ileft.table, iright.table
    lns, rns = ileft.n_symbols, iright.n_symbols
    start = ileft.initial * n_right + iright.initial
    lvalue = ileft.states.value
    rvalue = iright.states.value

    def decode(node: int) -> Tuple[State, State]:
        l, r = divmod(node, n_right)
        return (lvalue(l), rvalue(r))

    # Decode each node the moment it is first seen, so transitions are
    # written in their final object form in one pass.
    decoded: Dict[int, Tuple[State, State]] = {start: decode(start)}
    out_transitions: Dict[Tuple[Tuple[State, State], Symbol], Tuple[State, State]] = {}

    def successors(node: int):
        l, r = divmod(node, n_right)
        lbase = l * lns
        rbase = r * rns
        src = decoded[node]
        for ls, rs, symbol in shared:
            tl = ltab[lbase + ls]
            if tl < 0:
                continue
            tr = rtab[rbase + rs]
            if tr < 0:
                continue
            succ = tl * n_right + tr
            target = decoded.get(succ)
            if target is None:
                target = decoded[succ] = decode(succ)
            out_transitions[(src, symbol)] = target
            yield succ, symbol

    engine = ProductBFS()
    engine.run((start,), successors)

    states: Set[Tuple[State, State]] = set(decoded.values())
    lf, rf = ileft.finals_mask, iright.finals_mask
    if finals == "both":
        accept = {
            decoded[n] for n in decoded
            if lf >> (n // n_right) & 1 and rf >> (n % n_right) & 1
        }
    elif finals == "left":
        accept = {decoded[n] for n in decoded if lf >> (n // n_right) & 1}
    elif finals == "right":
        accept = {decoded[n] for n in decoded if rf >> (n % n_right) & 1}
    elif finals == "either":
        accept = {
            decoded[n] for n in decoded
            if lf >> (n // n_right) & 1 or rf >> (n % n_right) & 1
        }
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown finals mode {finals!r}")
    return states, out_transitions, decode(start), accept, alphabet


# ----------------------------------------------------------------------
# Inclusion
# ----------------------------------------------------------------------
def contains_dfa(big, small) -> bool:
    """Whether ``L(small) ⊆ L(big)`` for two DFA-like objects.

    Explores the pair graph ``(small state, big state-or-dead)`` over the
    *small* automaton's alphabet, treating ``big`` as implicitly completed:
    the dead configuration is an absorbing non-final sink.  Early-exits on
    the first violating pair, so passing instances never materialize more
    of the product than needed.
    """
    ibig: InternedDFA = big.kernel()
    ismall: InternedDFA = small.kernel()
    # Map each small symbol to the big symbol index (-1: leads to the sink).
    symbol_map = [
        (index, ibig.symbols.get(symbol))
        for index, symbol in enumerate(ismall.symbols.values)
    ]
    nb = ibig.n_states + 1  # slot 0 encodes the dead big state
    stab, btab = ismall.table, ibig.table
    sns, bns = ismall.n_symbols, ibig.n_symbols
    sf, bf = ismall.finals_mask, ibig.finals_mask

    def violates(node: int) -> bool:
        s, b = divmod(node, nb)
        return bool(sf >> s & 1) and (b == 0 or not bf >> (b - 1) & 1)

    def successors(node: int):
        s, b = divmod(node, nb)
        sbase = s * sns
        for ssym, bsym in symbol_map:
            ts = stab[sbase + ssym]
            if ts < 0:
                continue
            if b == 0 or bsym < 0:
                tb = 0
            else:
                tb = btab[(b - 1) * bns + bsym] + 1
            yield ts * nb + tb, None

    engine = ProductBFS()
    seed = ismall.initial * nb + (ibig.initial + 1)
    return engine.run((seed,), successors, on_visit=violates) is None


def contains_nfa(big, small_nfa) -> bool:
    """Whether ``L(small_nfa) ⊆ L(big)`` for an NFA small side."""
    ibig: InternedDFA = big.kernel()
    ismall = small_nfa.kernel()
    symbol_map = [ibig.symbols.get(symbol) for symbol in ismall.symbols.values]
    nb = ibig.n_states + 1
    btab = ibig.table
    bns = ibig.n_symbols
    sf, bf = ismall.finals_mask, ibig.finals_mask
    rows = ismall.rows

    def violates(node: int) -> bool:
        s, b = divmod(node, nb)
        return bool(sf >> s & 1) and (b == 0 or not bf >> (b - 1) & 1)

    def successors(node: int):
        s, b = divmod(node, nb)
        for ssym, targets in rows[s]:
            bsym = symbol_map[ssym]
            if b == 0 or bsym < 0:
                tb = 0
            else:
                tb = btab[(b - 1) * bns + bsym] + 1
            for target in targets:
                yield target * nb + tb, None

    engine = ProductBFS()
    seeds = [s * nb + (ibig.initial + 1) for s in ismall.initial]
    return engine.run(seeds, successors, on_visit=violates) is None


# ----------------------------------------------------------------------
# Minimization (Moore partition refinement over int arrays)
# ----------------------------------------------------------------------
def minimize_components(completed):
    """Minimal-DFA components for a *complete* DFA-like object.

    Returns ``(states, transitions, initial, finals)`` over block-id states;
    the caller renumbers canonically.  Restricted to the reachable part,
    matching the seed implementation (the sink block survives only when
    reachable).
    """
    idfa: InternedDFA = completed.kernel()
    reach = idfa.reachable()
    table = idfa.table
    n_symbols = idfa.n_symbols
    finals_mask = idfa.finals_mask

    block = [-1] * idfa.n_states
    for q in reach:
        block[q] = 0 if finals_mask >> q & 1 else 1
    num_blocks = len({block[q] for q in reach})
    symbol_range = range(n_symbols)
    while True:
        signatures: Dict[tuple, List[int]] = {}
        for q in reach:
            base = q * n_symbols
            sig = (block[q], tuple(block[table[base + a]] for a in symbol_range))
            signatures.setdefault(sig, []).append(q)
        if len(signatures) == num_blocks:
            break
        num_blocks = len(signatures)
        for index, group in enumerate(signatures.values()):
            for q in group:
                block[q] = index

    symbols = idfa.symbols.values
    transitions = {
        (block[q], symbols[a]): block[table[q * n_symbols + a]]
        for q in reach
        for a in symbol_range
    }
    finals = {block[q] for q in reach if finals_mask >> q & 1}
    states = {block[q] for q in reach}
    return states, transitions, block[idfa.initial], finals


def finals_indices(idfa: InternedDFA):
    """Convenience: indices of the accepting states."""
    return list(iter_bits(idfa.finals_mask))
