"""Deterministic finite automata over finite label alphabets.

The linear-fragment procedures of the paper (Theorems 4.3, 4.8 and 5.4)
manipulate the word languages of predicate-free patterns: a node belongs to
the answer of a linear query exactly when its root-to-node label word does.
This module supplies the complete, reachable-state DFA representation those
procedures need, together with complement, product and emptiness with
witness extraction.

Alphabets are always *finite*: the engines normalise to the labels occurring
in the problem instance plus the fresh label ``z`` (renaming unknown labels
to ``z`` preserves membership in every positive pattern — the normalisation
step opening the proof of Theorem 4.2).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import TypeVar

_Key = TypeVar("_Key", bound=Hashable)


class DFA:
    """A complete DFA: every state has a transition on every symbol."""

    __slots__ = ("alphabet", "start", "transitions", "accepting")

    def __init__(
        self,
        alphabet: Sequence[str],
        start: int,
        transitions: list[dict[str, int]],
        accepting: Iterable[int],
    ):
        self.alphabet = tuple(alphabet)
        self.start = start
        self.transitions = transitions
        self.accepting = frozenset(accepting)
        for state, row in enumerate(transitions):
            missing = set(self.alphabet) - set(row)
            if missing:
                raise ValueError(f"state {state} lacks transitions on {sorted(missing)}")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: str) -> int:
        return self.transitions[state][symbol]

    def run(self, word: Iterable[str]) -> int:
        state = self.start
        for symbol in word:
            state = self.transitions[state][symbol]
        return state

    def accepts(self, word: Iterable[str]) -> bool:
        return self.run(word) in self.accepting

    def complement(self) -> "DFA":
        """DFA for the complement language (same alphabet)."""
        flipped = set(range(self.n_states)) - set(self.accepting)
        return DFA(self.alphabet, self.start, self.transitions, flipped)

    def is_empty(self) -> bool:
        return self.shortest_accepted() is None

    def shortest_accepted(self) -> tuple[str, ...] | None:
        """A shortest accepted word, or ``None`` when the language is empty."""
        if self.start in self.accepting:
            return ()
        queue: deque[int] = deque([self.start])
        back: dict[int, tuple[int, str]] = {}
        seen = {self.start}
        while queue:
            state = queue.popleft()
            for symbol in self.alphabet:
                nxt = self.transitions[state][symbol]
                if nxt in seen:
                    continue
                seen.add(nxt)
                back[nxt] = (state, symbol)
                if nxt in self.accepting:
                    word: list[str] = []
                    cur = nxt
                    while cur != self.start:
                        prev, sym = back[cur]
                        word.append(sym)
                        cur = prev
                    word.reverse()
                    return tuple(word)
                queue.append(nxt)
        return None


def reachable_dfa(alphabet: Sequence[str], start: _Key,
                  step: Callable[[_Key, str], _Key],
                  accepts: Callable[[_Key], bool]) -> tuple[DFA, list[_Key]]:
    """The complete DFA of the keys reachable from ``start`` under ``step``.

    The one reachable-state construction behind subset construction,
    products and regex compilation.  Keys are explored breadth-first, each
    key's successors in alphabet order, so state ``i`` is the ``i``-th key
    discovered and the start is state 0.  Returns the DFA with its keys in
    state order.
    """
    index: dict[_Key, int] = {start: 0}
    order = [start]
    transitions: list[dict[str, int]] = []
    while len(transitions) < len(order):
        # Rows are built in discovery order, so ``order`` is the queue.
        key = order[len(transitions)]
        row: dict[str, int] = {}
        for symbol in alphabet:
            nxt = step(key, symbol)
            state = index.get(nxt)
            if state is None:
                state = index[nxt] = len(order)
                order.append(nxt)
            row[symbol] = state
        transitions.append(row)
    accepting = [i for i, key in enumerate(order) if accepts(key)]
    return DFA(alphabet, 0, transitions, accepting), order


def product_dfa(dfas: Sequence[DFA]) -> tuple["DFA", list[frozenset[int]]]:
    """Reachable product of DFAs sharing one alphabet.

    Returns the product DFA (accepting iff *all* components accept — callers
    usually ignore that and use the second return value) together with the
    per-state *acceptance vector*: the set of component indices accepting in
    that product state.
    """
    if not dfas:
        raise ValueError("product of zero automata")
    alphabet = dfas[0].alphabet
    for d in dfas:
        if d.alphabet != alphabet:
            raise ValueError("product requires a shared alphabet")
    product, order = reachable_dfa(
        alphabet, tuple(d.start for d in dfas),
        lambda key, symbol: tuple(d.step(s, symbol)
                                  for d, s in zip(dfas, key, strict=True)),
        lambda key: all(s in d.accepting
                        for d, s in zip(dfas, key, strict=True)))
    vectors = [
        frozenset(i for i, (d, s) in enumerate(zip(dfas, key, strict=True)) if s in d.accepting)
        for key in order
    ]
    return product, vectors


def intersection_nonempty(dfas: Sequence[DFA]) -> tuple[str, ...] | None:
    """A word accepted by every DFA, or ``None``."""
    prod, _vectors = product_dfa(dfas)
    return prod.shortest_accepted()


def reachable_vectors(dfas: Sequence[DFA]) -> dict[frozenset[int], tuple[str, ...]]:
    """All realisable acceptance vectors with a shortest witness word each.

    A vector is the exact set of components accepting some word; this is the
    "realisable hit set" computation at the heart of the Theorem 4.8 claim.
    """
    if not dfas:
        raise ValueError("no automata")
    alphabet = dfas[0].alphabet
    start_key = tuple(d.start for d in dfas)
    seen = {start_key}
    queue: deque[tuple[tuple[int, ...], tuple[str, ...]]] = deque([(start_key, ())])
    found: dict[frozenset[int], tuple[str, ...]] = {}

    def vector_of(key: tuple[int, ...]) -> frozenset[int]:
        return frozenset(i for i, (d, s) in enumerate(zip(dfas, key, strict=True)) if s in d.accepting)

    found[vector_of(start_key)] = ()
    while queue:
        key, word = queue.popleft()
        for symbol in alphabet:
            nxt = tuple(d.step(s, symbol) for d, s in zip(dfas, key, strict=True))
            if nxt in seen:
                continue
            seen.add(nxt)
            next_word = word + (symbol,)
            vec = vector_of(nxt)
            if vec not in found:
                found[vec] = next_word
            queue.append((nxt, next_word))
    return found
