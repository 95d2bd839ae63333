"""Nondeterministic finite automata and the subset construction.

Linear patterns compile to tiny NFAs (one state per spine step, a self-loop
per descendant edge); determinisation then yields the DFAs the engines
consume.  As the paper notes (footnote 6, citing [Green et al.]), the DFA of
a linear path is exponential only in the maximal number of wildcards between
two consecutive ``//`` edges — the parameter that Theorems 4.3/4.8/5.4
require to be bounded for tractability.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.dfa import DFA, reachable_dfa


class NFA:
    """An NFA without epsilon transitions over a finite alphabet."""

    __slots__ = ("alphabet", "start", "transitions", "accepting", "n_states")

    def __init__(
        self,
        alphabet: Sequence[str],
        n_states: int,
        start: Iterable[int],
        transitions: dict[tuple[int, str], frozenset[int]],
        accepting: Iterable[int],
    ):
        self.alphabet = tuple(alphabet)
        self.n_states = n_states
        self.start = frozenset(start)
        self.transitions = transitions
        self.accepting = frozenset(accepting)

    def step(self, states: frozenset[int], symbol: str) -> frozenset[int]:
        nxt: set[int] = set()
        for state in states:
            nxt.update(self.transitions.get((state, symbol), frozenset()))
        return frozenset(nxt)

    def accepts(self, word: Iterable[str]) -> bool:
        states = self.start
        for symbol in word:
            states = self.step(states, symbol)
            if not states:
                return False
        return bool(states & self.accepting)

    def determinize(self) -> DFA:
        """Subset construction; the result is complete (has a sink)."""
        dfa, _ = reachable_dfa(self.alphabet, self.start, self.step,
                               lambda key: bool(key & self.accepting))
        return dfa
