"""Nondeterministic unranked tree automata — Definition 2.

An NTA is ``(Q, Σ, δ, F)`` where ``δ(q, a)`` is a regular language over ``Q``
(the *horizontal* language), here represented by an NFA whose alphabet
consists of tree-automaton states — the paper's NTA(NFA).  A run labels every
node ``v`` with a state ``λ(v)`` such that the children labels form a word of
``δ(λ(v), lab(v))``; leaves need ``ε ∈ δ(λ(v), lab(v))``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Tuple

from repro.errors import InvalidSchemaError
from repro.strings.nfa import NFA
from repro.trees.tree import Tree

State = Hashable


class NTA:
    """An unranked nondeterministic tree automaton with NFA transitions.

    Parameters
    ----------
    states:
        The state set ``Q``.
    alphabet:
        The node-label alphabet ``Σ``.
    delta:
        Mapping ``(q, a) -> NFA over states``; missing entries denote the
        empty horizontal language.
    finals:
        Accepting (root) states ``F``.
    """

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[str],
        delta: Mapping[Tuple[State, str], NFA],
        finals: Iterable[State],
    ) -> None:
        self.states: FrozenSet[State] = frozenset(states)
        self.alphabet: FrozenSet[str] = frozenset(alphabet)
        self.finals: FrozenSet[State] = frozenset(finals)
        self.delta: Dict[Tuple[State, str], NFA] = {}
        if not self.finals <= self.states:
            raise InvalidSchemaError("final states must be states")
        for (state, symbol), nfa in delta.items():
            if state not in self.states:
                raise InvalidSchemaError(f"transition for unknown state {state!r}")
            if symbol not in self.alphabet:
                raise InvalidSchemaError(f"transition for unknown symbol {symbol!r}")
            # Product automata share one state set as every rule's alphabet.
            if nfa.alphabet is not self.states and not nfa.alphabet <= self.states:
                raise InvalidSchemaError(
                    "horizontal language must be over the automaton's states"
                )
            self.delta[(state, symbol)] = nfa

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"NTA(|Q|={len(self.states)}, |Σ|={len(self.alphabet)}, "
            f"|δ|={len(self.delta)})"
        )

    @property
    def size(self) -> int:
        """Paper size measure: ``|Q| + |Σ| + Σ |δ(q,a)|`` with ``|δ(q,a)|``
        the size of the representing NFA."""
        return (
            len(self.states)
            + len(self.alphabet)
            + sum(nfa.size for nfa in self.delta.values())
        )

    def horizontal(self, state: State, symbol: str) -> NFA:
        """``δ(q, a)`` (the empty-language NFA when undefined)."""
        nfa = self.delta.get((state, symbol))
        if nfa is None:
            return NFA.empty_language(self.states)
        return nfa

    def content_hash(self) -> str:
        """Stable representation digest (see :meth:`DTD.content_hash`);
        keys the compiled-session registry for automaton schemas."""
        cached = getattr(self, "_content_hash", None)
        if cached is None:
            from repro.util import stable_digest

            rules = sorted(
                f"{(state, symbol)!r}->{nfa.content_hash()}"
                for (state, symbol), nfa in self.delta.items()
            )
            cached = stable_digest(
                "nta",
                repr(sorted(self.states, key=repr)),
                repr(sorted(self.alphabet, key=repr)),
                repr(sorted(self.finals, key=repr)),
                *rules,
            )
            self._content_hash = cached
        return cached

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _step_over_sets(
        self, nfa: NFA, nfa_states: FrozenSet, allowed: FrozenSet[State]
    ) -> FrozenSet:
        """NFA states reachable by reading *any* symbol from ``allowed``."""
        out: set = set()
        for src in nfa_states:
            row = nfa.transitions.get(src)
            if not row:
                continue
            for symbol, targets in row.items():
                if symbol in allowed:
                    out.update(targets)
        return frozenset(out)

    def states_of(self, tree: Tree) -> FrozenSet[State]:
        """All states ``q`` such that some run assigns ``q`` to the root.

        Bottom-up dynamic programming: for each node the set of assignable
        states is computed from the children's sets by running each
        horizontal NFA over the *sets* (any-symbol-of-set steps) — linear in
        ``|t|`` and polynomial in the automaton size.
        """
        memo: Dict[int, FrozenSet[State]] = {}

        def compute(node: Tree) -> FrozenSet[State]:
            cached = memo.get(id(node))
            if cached is not None:
                return cached
            child_sets = [compute(child) for child in node.children]
            assignable: set = set()
            for state in self.states:
                nfa = self.delta.get((state, node.label))
                if nfa is None:
                    continue
                current = nfa.initial
                for child_set in child_sets:
                    if not current:
                        break
                    current = self._step_over_sets(nfa, current, child_set)
                if current & nfa.finals:
                    assignable.add(state)
            result = frozenset(assignable)
            memo[id(node)] = result
            return result

        return compute(tree)

    def accepts(self, tree: Tree) -> bool:
        """Whether some accepting run exists on ``tree``."""
        return bool(self.states_of(tree) & self.finals)

    def a_run(self, tree: Tree) -> Dict[Tuple[int, ...], State] | None:
        """One accepting run as a map ``node address -> state``, or ``None``.

        Extracted top-down from the bottom-up state sets.
        """
        sets: Dict[Tuple[int, ...], FrozenSet[State]] = {}

        def collect(node: Tree, path: Tuple[int, ...]) -> FrozenSet[State]:
            child_sets = []
            for index, child in enumerate(node.children):
                child_sets.append(collect(child, path + (index,)))
            assignable: set = set()
            for state in self.states:
                nfa = self.delta.get((state, node.label))
                if nfa is None:
                    continue
                current = nfa.initial
                for child_set in child_sets:
                    if not current:
                        break
                    current = self._step_over_sets(nfa, current, child_set)
                if current & nfa.finals:
                    assignable.add(state)
            sets[path] = frozenset(assignable)
            return sets[path]

        collect(tree, ())
        root_choices = sets[()] & self.finals
        if not root_choices:
            return None
        run: Dict[Tuple[int, ...], State] = {}

        def assign(node: Tree, path: Tuple[int, ...], state: State) -> None:
            run[path] = state
            nfa = self.delta[(state, node.label)]
            # Find a horizontal word consistent with the children's sets.
            choice = self._horizontal_word(nfa, [
                sets[path + (i,)] for i in range(len(node.children))
            ])
            assert choice is not None, "membership sets promise a word"
            for index, child_state in enumerate(choice):
                assign(node.children[index], path + (index,), child_state)

        assign(tree, (), sorted(root_choices, key=repr)[0])
        return run

    def _horizontal_word(self, nfa: NFA, child_sets) -> Tuple[State, ...] | None:
        """A word ``q₁…q_n`` accepted by ``nfa`` with ``q_i ∈ child_sets[i]``."""
        frontier: Dict = {s: () for s in nfa.initial}
        for child_set in child_sets:
            next_frontier: Dict = {}
            for src, word in frontier.items():
                row = nfa.transitions.get(src)
                if not row:
                    continue
                for symbol, targets in row.items():
                    if symbol not in child_set:
                        continue
                    for target in targets:
                        if target not in next_frontier:
                            next_frontier[target] = word + (symbol,)
            frontier = next_frontier
            if not frontier:
                return None
        for state, word in frontier.items():
            if state in nfa.finals:
                return word
        return None

    # ------------------------------------------------------------------
    def map_states(self, mapping) -> "NTA":
        """Rename states through an injective ``mapping`` (also remaps the
        horizontal alphabets)."""
        return NTA(
            {mapping(q) for q in self.states},
            self.alphabet,
            {
                (mapping(q), a): nfa.map_symbols(mapping)
                for (q, a), nfa in self.delta.items()
            },
            {mapping(q) for q in self.finals},
        )
