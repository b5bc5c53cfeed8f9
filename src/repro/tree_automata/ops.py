"""Operations on unranked tree automata.

Intersection (product), bottom-up determinism and completeness tests,
completion, complementation of complete deterministic automata (the DTAc
complement step of Theorem 20: "switch the final and non-final states"), and
bottom-up subset-construction determinization (exponential — guarded).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Tuple

from repro.errors import BudgetExceededError, NotCompleteError, NotDeterministicError
from repro.strings.nfa import NFA, LazyProductNFA
from repro.tree_automata.nta import NTA

State = Hashable


def _pair_product_nfa(left: NFA, right: NFA) -> NFA:
    """Product of two horizontal NFAs reading *pairs* of symbols.

    Accepts ``(u₁,v₁)…(u_n,v_n)`` iff ``left`` accepts ``u₁…u_n`` and
    ``right`` accepts ``v₁…v_n``, over the full pair alphabet
    ``left.alphabet × right.alphabet`` — the decoded form of the kernel
    :func:`intersect` builds (kept as the object-level contract the kernel
    tests compare against :mod:`repro.kernel.reference`).
    """
    from repro.kernel.nfa_kernel import pair_product_kernel

    states, table, initial, finals = pair_product_kernel(
        left.kernel(), right.kernel()
    ).decode()
    alphabet = {(u, v) for u in left.alphabet for v in right.alphabet}
    if not states:
        return NFA.empty_language(alphabet)
    return NFA(states, alphabet, table, initial, finals)


def intersect(left: NTA, right: NTA) -> NTA:
    """Product automaton with ``L = L(left) ∩ L(right)``.

    Every rule's horizontal NFA is a :class:`LazyProductNFA` built straight
    from the two operand kernels, so the work is the reachable pair
    transitions; each one shares the product's single pair-state set as its
    alphabet (the NTA invariant ``alphabet ⊆ states``) instead of copying
    it, and pair states decode only when an object view is asked for.
    """
    from repro.kernel.nfa_kernel import pair_product_kernel

    alphabet = left.alphabet & right.alphabet
    states = frozenset((p, q) for p in left.states for q in right.states)
    right_rules: Dict[str, list] = {}
    for (q, symbol), nfa_right in right.delta.items():
        if symbol in alphabet:
            right_rules.setdefault(symbol, []).append((q, nfa_right.kernel()))
    delta: Dict[Tuple[State, str], NFA] = {}
    for (p, symbol), nfa_left in left.delta.items():
        rules = right_rules.get(symbol)
        if not rules:
            continue
        ileft = nfa_left.kernel()
        for q, iright in rules:
            delta[((p, q), symbol)] = LazyProductNFA(
                pair_product_kernel(ileft, iright), states
            )
    finals = {(p, q) for p in left.finals for q in right.finals}
    return NTA(states, alphabet, delta, finals)


def is_bottom_up_deterministic(nta: NTA) -> bool:
    """Definition 2: ``δ(q,a) ∩ δ(q',a) = ∅`` for all ``q ≠ q'``."""
    by_symbol: Dict[str, list] = {}
    for (state, symbol), nfa in nta.delta.items():
        by_symbol.setdefault(symbol, []).append((state, nfa))
    for rules in by_symbol.values():
        for i, (state_i, nfa_i) in enumerate(rules):
            for state_j, nfa_j in rules[i + 1 :]:
                if state_i == state_j:
                    continue
                if not nfa_i.product(nfa_j).is_empty():
                    return False
    return True


def is_complete(nta: NTA) -> bool:
    """Whether ``⋃_q δ(q,a) = Q*`` for every symbol (may determinize the
    union — exponential in the worst case)."""
    for symbol in nta.alphabet:
        union: NFA | None = None
        for state in nta.states:
            nfa = nta.delta.get((state, symbol))
            if nfa is None:
                continue
            union = nfa if union is None else union.union(nfa)
        if union is None:
            return False
        if not union.with_alphabet(nta.states).is_universal():
            return False
    return True


def complete(nta: NTA, sink_name: State | None = None) -> NTA:
    """A complete automaton for the same language (adds a sink state).

    For every symbol the sink receives the complement of ``⋃_q δ(q,a)``
    (extended over the sink-enlarged state alphabet), so every tree has
    exactly one extra run through the sink where it had none.  Preserves
    bottom-up determinism.
    """
    sink: State = sink_name if sink_name is not None else ("__sink__", len(nta.states))
    while sink in nta.states:
        sink = (sink, 0)
    states = set(nta.states) | {sink}
    delta: Dict[Tuple[State, str], NFA] = {
        key: nfa.with_alphabet(states) for key, nfa in nta.delta.items()
    }
    for symbol in nta.alphabet:
        union: NFA | None = None
        for state in nta.states:
            nfa = nta.delta.get((state, symbol))
            if nfa is None:
                continue
            union = nfa if union is None else union.union(nfa)
        if union is None:
            missing = NFA.universal(states)
        else:
            missing = union.complement(states).to_nfa()
        delta[(sink, symbol)] = missing
    return NTA(states, nta.alphabet, delta, nta.finals)


def complement_dtac(nta: NTA, check: bool = True) -> NTA:
    """Complement of a bottom-up deterministic *complete* automaton by
    flipping final states (Theorem 20: "the complement Āout can easily be
    computed by switching the final and non-final states").

    With ``check=True`` determinism and completeness are verified first
    (completeness verification may be expensive; pass ``check=False`` for
    automata complete by construction).
    """
    if check:
        if not is_bottom_up_deterministic(nta):
            raise NotDeterministicError("complementation needs a deterministic NTA")
        if not is_complete(nta):
            raise NotCompleteError("complementation needs a complete NTA")
    return NTA(nta.states, nta.alphabet, nta.delta, nta.states - nta.finals)


def determinize(nta: NTA, max_states: int = 4096) -> NTA:
    """Bottom-up subset construction: an equivalent DTAc whose states are the
    reachable subsets ``{states_of(t) | t}`` (EXPTIME in general — guarded by
    ``max_states``).
    """
    # Fixpoint over reachable subsets.
    reachable: set[FrozenSet[State]] = set()
    changed = True
    while changed:
        changed = False
        for symbol in nta.alphabet:
            for subset in _subsets_from_words(nta, symbol, frozenset(reachable)):
                if subset not in reachable:
                    reachable.add(subset)
                    changed = True
                    if len(reachable) > max_states:
                        raise BudgetExceededError(
                            f"determinization exceeded {max_states} subset states"
                        )
    subset_states = frozenset(reachable)

    delta: Dict[Tuple[FrozenSet[State], str], NFA] = {}
    for symbol in nta.alphabet:
        tracker_states, tracker_transitions, initial = _tracker(nta, symbol, subset_states)
        for target in subset_states:
            finals = {h for h in tracker_states if _outcome(nta, symbol, h) == target}
            if not finals and _outcome_never(nta, symbol, target):
                continue
            delta[(target, symbol)] = NFA(
                tracker_states,
                subset_states,
                tracker_transitions,
                {initial},
                finals,
            )
    finals = {subset for subset in subset_states if subset & nta.finals}
    return NTA(subset_states, nta.alphabet, delta, finals)


def _tracker(nta: NTA, symbol: str, alphabet: FrozenSet[FrozenSet[State]]):
    """The deterministic 'tracker' automaton for one symbol: its states are
    tuples of NFA state-sets, one per (q, symbol) rule, advanced jointly on
    each child subset.  Reachable part only."""
    rules = sorted(
        ((q, nfa) for (q, s), nfa in nta.delta.items() if s == symbol),
        key=lambda item: repr(item[0]),
    )
    initial = tuple(nfa.initial for _, nfa in rules)
    states = {initial}
    transitions: Dict = {}
    frontier = deque([initial])
    while frontier:
        config = frontier.popleft()
        for subset in alphabet:
            successor = tuple(
                nta._step_over_sets(nfa, config[i], subset)
                for i, (_, nfa) in enumerate(rules)
            )
            transitions.setdefault(config, {}).setdefault(subset, set()).add(successor)
            if successor not in states:
                states.add(successor)
                frontier.append(successor)
    return states, transitions, initial


def _outcome(nta: NTA, symbol: str, tracker_state) -> FrozenSet[State]:
    rules = sorted(
        ((q, nfa) for (q, s), nfa in nta.delta.items() if s == symbol),
        key=lambda item: repr(item[0]),
    )
    return frozenset(
        q for i, (q, nfa) in enumerate(rules) if tracker_state[i] & nfa.finals
    )


def _outcome_never(nta: NTA, symbol: str, target: FrozenSet[State]) -> bool:
    """Cheap check that ``target`` can never be the outcome for ``symbol``
    (used only to skip emitting all-empty horizontal languages)."""
    return True


def _subsets_from_words(
    nta: NTA, symbol: str, alphabet: FrozenSet[FrozenSet[State]]
):
    """All outcome subsets reachable by running the tracker for ``symbol``
    over words of already-reachable subsets."""
    tracker_states, _, _ = _tracker(nta, symbol, alphabet)
    return {_outcome(nta, symbol, h) for h in tracker_states}
