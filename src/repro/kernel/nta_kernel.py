"""Interned NTA emptiness — Proposition 4(2,3) on bitmasks.

The seed implementation re-scanned every ``δ(q, a)`` entry per fixpoint
round and re-ran a frozenset-based BFS for each.  Here the productive set
lives in per-horizontal-NFA *bitmasks* that are updated incrementally: when
a state ``q`` becomes productive, only the rules whose horizontal NFA
reads ``q`` on some transition are re-enqueued.  Shortest-word searches run on
:class:`~repro.kernel.nfa_kernel.InternedNFA` via the shared
:class:`~repro.kernel.product.ProductBFS` engine.

Witness bookkeeping matches the seed contract: ``witness[q] = (a, w)`` with
``w`` mentioning only states that entered the productive set strictly
earlier, so the witness DAG stays acyclic and
:func:`repro.tree_automata.emptiness.witness_dag` works unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Tuple

State = Hashable


def productive_states(nta) -> Tuple[FrozenSet[State], Dict[State, Tuple[str, Tuple[State, ...]]]]:
    """States accepting at least one tree, with per-state witnesses.

    Drop-in replacement for the seed object-state fixpoint (retained as
    :func:`repro.kernel.reference.productive_states_object`).
    """
    rules = []  # (lhs state, symbol, InternedNFA)
    occurrences: Dict[State, List[Tuple[int, int]]] = {}
    for (state, symbol), nfa in nta.delta.items():
        infa = nfa.kernel()
        rule_id = len(rules)
        rules.append((state, symbol, infa))
        # Kernels intern only the symbols some transition reads, so a state
        # turning productive re-enqueues exactly the rules that can *read*
        # it (horizontal alphabets are the full state set; indexing those
        # would re-enqueue everything and go quadratic).
        value = infa.symbols.value
        for index in range(len(infa.symbols)):
            occurrences.setdefault(value(index), []).append((rule_id, index))

    allowed = [0] * len(rules)
    productive: set = set()
    witness: Dict[State, Tuple[str, Tuple[State, ...]]] = {}
    pending = deque(range(len(rules)))
    queued = [True] * len(rules)
    while pending:
        rule_id = pending.popleft()
        queued[rule_id] = False
        state, symbol, infa = rules[rule_id]
        if state in productive:
            continue
        word = infa.some_word_ints(allowed[rule_id])
        if word is None:
            continue
        value = infa.symbols.value
        productive.add(state)
        witness[state] = (symbol, tuple(value(index) for index in word))
        # Unlock every rule whose horizontal alphabet mentions the new state.
        for other_id, symbol_index in occurrences.get(state, ()):
            allowed[other_id] |= 1 << symbol_index
            other_state = rules[other_id][0]
            if other_state not in productive and not queued[other_id]:
                queued[other_id] = True
                pending.append(other_id)
    return frozenset(productive), witness


def is_empty(nta) -> bool:
    """Whether ``L(A) = ∅`` (Proposition 4(2)) on the interned kernel."""
    productive, _ = productive_states(nta)
    return not (productive & nta.finals)
