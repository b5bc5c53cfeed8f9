"""Deterministic top–down unranked tree transducers — Definition 5.

A transducer is ``(Q, Σ, q₀, R)`` with at most one rule ``(q, a) → h`` per
state/symbol pair.  The translation ``T^q(t)`` of ``t = a(t₁ ⋯ t_n)`` is the
rhs of ``(q, a)`` with every state leaf ``p`` replaced by the hedge
``T^p(t₁) ⋯ T^p(t_n)``; without a rule ``T^q(t) = ε`` (the empty hedge).
``T(t) = T^{q₀}(t)`` must be a tree, which Definition 5 guarantees by
restricting initial rules to single state-free-rooted trees; we return
``None`` when no initial rule applies.

Calls ``⟨q, P⟩`` (Section 4) replace the leaf by ``T^q(t/u₁) ⋯ T^q(t/u_m)``
where ``u₁ … u_m`` are the nodes selected by ``P`` from the current node, in
document order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import InvalidTransducerError
from repro.strings.dfa import DFA
from repro.trees.dag import DagHedge, DagTree
from repro.trees.tree import Hedge, Tree
from repro.transducers.rhs import (
    RhsCall,
    RhsHedge,
    RhsState,
    RhsSym,
    all_states,
    parse_rhs,
    rhs_size,
    rhs_str,
)


def _canonical_rhs(hedge: RhsHedge) -> str:
    """Canonical text of an rhs hedge for content hashing.

    ``rhs_str`` is almost right but renders call selectors via ``str``,
    which is not canonical for selecting DFAs — those hash by their own
    content hash here.
    """
    parts: List[str] = []
    for node in hedge:
        if isinstance(node, RhsSym):
            parts.append(f"{node.label!r}({_canonical_rhs(node.children)})")
        elif isinstance(node, RhsState):
            parts.append(f"state:{node.state!r}")
        else:
            assert isinstance(node, RhsCall)
            selector = node.selector
            if isinstance(selector, DFA):
                sel = f"dfa:{selector.content_hash()}"
            else:
                sel = f"xpath:{selector}"
            parts.append(f"call:{node.state!r}:{sel}")
    return " ".join(parts)


class TreeTransducer:
    """A deterministic top–down tree transducer.

    Parameters
    ----------
    states / alphabet / initial:
        As in Definition 5 (``alphabet`` is both input and output alphabet).
    rules:
        Mapping ``(state, symbol) -> rhs``.  An rhs may be given as an
        :class:`~repro.transducers.rhs.RhsHedge` or as term-syntax text
        (parsed with the transducer's states).
    """

    def __init__(
        self,
        states: Iterable[str],
        alphabet: Iterable[str],
        initial: str,
        rules: Mapping[Tuple[str, str], Union[str, RhsHedge]],
    ) -> None:
        self.states: FrozenSet[str] = frozenset(states)
        self.alphabet: FrozenSet[str] = frozenset(alphabet)
        self.initial = initial
        if initial not in self.states:
            raise InvalidTransducerError("initial state must be a state")
        self.rules: Dict[Tuple[str, str], RhsHedge] = {}
        for (state, symbol), rhs in rules.items():
            if state not in self.states:
                raise InvalidTransducerError(f"rule for unknown state {state!r}")
            if symbol not in self.alphabet:
                raise InvalidTransducerError(f"rule for unknown symbol {symbol!r}")
            if isinstance(rhs, str):
                rhs = parse_rhs(rhs, self.states)
            for used in all_states(rhs):
                if used not in self.states:
                    raise InvalidTransducerError(
                        f"rhs of ({state!r}, {symbol!r}) uses unknown state {used!r}"
                    )
            self._check_output_symbols(rhs, state, symbol)
            # Definition 5 restricts rules (q₀, a) to single Σ-rooted trees
            # so that the output is a tree.  The paper's own Example 10 uses
            # the initial state with hedge rules on non-root symbols, so we
            # enforce the restriction only where it matters: at apply() the
            # translation must come out as a single tree, and the
            # typechecking algorithms require it of the rule for the input
            # schema's root symbol.
            self.rules[(state, symbol)] = rhs

    def _check_output_symbols(self, rhs: RhsHedge, state: str, symbol: str) -> None:
        from repro.transducers.rhs import iter_rhs_nodes

        for _, node in iter_rhs_nodes(rhs):
            if isinstance(node, RhsSym) and node.label not in self.alphabet:
                raise InvalidTransducerError(
                    f"rhs of ({state!r}, {symbol!r}) emits unknown symbol "
                    f"{node.label!r}"
                )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"TreeTransducer(|Q|={len(self.states)}, |Σ|={len(self.alphabet)}, "
            f"|R|={len(self.rules)})"
        )

    def pretty(self) -> str:
        """Paper-style rule listing ``(q, a) → h``."""
        lines = [f"initial: {self.initial}"]
        for (state, symbol) in sorted(self.rules):
            lines.append(f"({state}, {symbol}) → {rhs_str(self.rules[(state, symbol)]) or 'ε'}")
        return "\n".join(lines)

    @property
    def size(self) -> int:
        """``|Q| + |Σ| + Σ |rhs(q,a)|`` (Definition 5)."""
        return (
            len(self.states)
            + len(self.alphabet)
            + sum(rhs_size(rhs) for rhs in self.rules.values())
        )

    def rhs(self, state: str, symbol: str) -> RhsHedge | None:
        """``rhs(q, a)`` or ``None`` when there is no rule."""
        return self.rules.get((state, symbol))

    def content_hash(self) -> str:
        """Stable digest of the transducer's authored representation.

        Hashes the initial state, the state set, the alphabet and every
        rule's canonical rhs serialization (call selectors hash by their
        own canonical form), so equal-content transducers — distinct
        Python objects, different processes — hash alike.  Keys the
        per-transducer forward-table cache
        (:class:`repro.core.forward.ForwardSchema`) and the service
        layer's request routing, exactly as
        :meth:`repro.schemas.dtd.DTD.content_hash` keys the session
        registry.  Representation, not semantics: renaming a state changes
        the hash.
        """
        cached = getattr(self, "_content_hash", None)
        if cached is None:
            from repro.util import stable_digest

            parts = [
                "transducer",
                repr(self.initial),
                repr(sorted(self.states, key=repr)),
                repr(sorted(self.alphabet, key=repr)),
            ]
            for (state, symbol) in sorted(self.rules):
                rhs = self.rules[(state, symbol)]
                parts.append(f"({state!r}, {symbol!r})->{_canonical_rhs(rhs)}")
            cached = self._content_hash = stable_digest(*parts)
        return cached

    def uses_calls(self) -> bool:
        """Whether any rhs contains an XPath/DFA call (cached, like
        :meth:`content_hash`)."""
        cached = getattr(self, "_uses_calls", None)
        if cached is None:
            from repro.transducers.rhs import iter_rhs_nodes

            cached = self._uses_calls = any(
                isinstance(node, RhsCall)
                for rhs in self.rules.values()
                for _, node in iter_rhs_nodes(rhs)
            )
        return cached

    # ------------------------------------------------------------------
    # Semantics on explicit trees
    # ------------------------------------------------------------------
    def apply_state(self, state: str, tree: Tree, _memo=None) -> Hedge:
        """``T^q(t)`` as a hedge (memoized over shared subtrees)."""
        memo: Dict[Tuple[str, int], Hedge] = _memo if _memo is not None else {}

        def run(q: str, node: Tree) -> Hedge:
            key = (q, id(node))
            cached = memo.get(key)
            if cached is not None:
                return cached
            rhs = self.rules.get((q, node.label))
            if rhs is None:
                memo[key] = ()
                return ()
            result = self._instantiate(rhs, node, run)
            memo[key] = result
            return result

        return run(state, tree)

    def _instantiate(self, hedge: RhsHedge, node: Tree, run) -> Hedge:
        out: List[Tree] = []
        for item in hedge:
            if isinstance(item, RhsState):
                for child in node.children:
                    out.extend(run(item.state, child))
            elif isinstance(item, RhsCall):
                for target in self._select(item.selector, node):
                    out.extend(run(item.state, target))
            else:
                assert isinstance(item, RhsSym)
                out.append(Tree(item.label, self._instantiate(item.children, node, run)))
        return tuple(out)

    def _select(self, selector, node: Tree) -> List[Tree]:
        """Subtrees selected by an XPath pattern or selecting DFA, in
        document order."""
        if isinstance(selector, DFA):
            selected: List[Tree] = []

            def walk(current: Tree, dfa_state) -> None:
                for child in current.children:
                    nxt = selector.step(dfa_state, child.label)
                    if nxt is None:
                        continue
                    if nxt in selector.finals:
                        selected.append(child)
                    walk(child, nxt)

            walk(node, selector.initial)
            return selected
        from repro.xpath.semantics import select as xpath_select

        return [node.subtree(path) for path in xpath_select(selector, node)]

    def apply(self, tree: Tree) -> Optional[Tree]:
        """``T(t)`` — ``None`` when the translation is not a single tree
        (the paper's "interpreted as a tree" is then undefined, and such an
        output conforms to no output schema)."""
        result = self.apply_state(self.initial, tree)
        if len(result) != 1:
            return None
        return result[0]

    # ------------------------------------------------------------------
    # Semantics on DAG-compressed trees (used by the §5/§6 algorithms)
    # ------------------------------------------------------------------
    def apply_state_dag(self, state: str, node: DagTree, _memo=None) -> DagHedge:
        """``T^q`` over a DAG input, producing a DAG output.

        Shared input nodes are translated once per state, so the output DAG
        stays polynomial even when the unfolded trees are exponential.
        Calls (XPath selectors) are not supported on DAGs.
        """
        memo: Dict[Tuple[str, int], DagHedge] = _memo if _memo is not None else {}

        def run(q: str, current: DagTree) -> DagHedge:
            key = (q, id(current))
            cached = memo.get(key)
            if cached is not None:
                return cached
            rhs = self.rules.get((q, current.label))
            if rhs is None:
                result = DagHedge(())
            else:
                result = instantiate(rhs, current)
            memo[key] = result
            return result

        hedge_memo: Dict[Tuple[str, int], DagHedge] = {}

        def translate_part(q: str, part) -> DagHedge:
            """Translate a hedge part in state ``q``, preserving sharing."""
            if isinstance(part, DagTree):
                return run(q, part)
            key = (q, id(part))
            cached = hedge_memo.get(key)
            if cached is not None:
                return cached
            result = DagHedge([translate_part(q, sub) for sub in part.parts])
            hedge_memo[key] = result
            return result

        def state_over_children(q: str, current: DagTree) -> DagHedge:
            return translate_part(q, current.children)

        def instantiate(hedge: RhsHedge, current: DagTree) -> DagHedge:
            parts: List = []
            for item in hedge:
                if isinstance(item, RhsState):
                    parts.append(state_over_children(item.state, current))
                elif isinstance(item, RhsCall):
                    raise InvalidTransducerError(
                        "XPath calls are not supported over DAG inputs"
                    )
                else:
                    assert isinstance(item, RhsSym)
                    parts.append(DagTree(item.label, instantiate(item.children, current)))
            return DagHedge(parts)

        return run(state, node)

    def apply_dag(self, node: DagTree) -> Optional[DagTree]:
        """``T(t)`` over a DAG input; ``None`` when not a single tree."""
        from repro.trees.dag import top_length

        result = self.apply_state_dag(self.initial, node)
        if top_length(result) != 1:
            return None
        current = result
        while isinstance(current, DagHedge):
            # Descend into the unique part carrying the single root tree.
            (current,) = [p for p in current.parts if top_length(DagHedge([p])) == 1]
        return current
