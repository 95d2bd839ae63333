"""A small regular-expression AST over label alphabets.

DTD content models and the paths of regular key constraints (Section 3.2,
following [Arenas-Fan-Libkin]) are regular expressions over element types.
This module provides the AST, a Thompson construction with epsilon edges
and an epsilon-aware subset construction producing the library's complete
DFAs.  Constructors mirror the paper's notation: ``(l1|...|lk)*`` chains,
concatenation with ``.``, the wildcard ``_``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

from repro.automata.dfa import DFA, reachable_dfa


class Regex:
    """Base class; build with the module-level constructors."""

    def to_dfa(self, alphabet: Sequence[str]) -> DFA:
        return _regex_dfa(self, tuple(alphabet))

    def matches(self, word: Sequence[str], alphabet: Sequence[str]) -> bool:
        return self.to_dfa(tuple(alphabet)).accepts(word)


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Sym(Regex):
    label: str


@dataclass(frozen=True)
class AnyOf(Regex):
    """One symbol drawn from a set; the empty set means the whole alphabet
    (the paper's wildcard ``_``)."""

    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class Seq(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Alt(Regex):
    options: tuple[Regex, ...]


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex


def seq(*parts: Regex) -> Regex:
    return parts[0] if len(parts) == 1 else Seq(tuple(parts))


def alt(*options: Regex) -> Regex:
    return options[0] if len(options) == 1 else Alt(tuple(options))


def star(inner: Regex) -> Regex:
    return Star(inner)


def plus(inner: Regex) -> Regex:
    return Plus(inner)


def sym(label: str) -> Regex:
    return Sym(label)


def any_of(*labels: str) -> Regex:
    return AnyOf(tuple(labels))


class _Thompson:
    """Classical Thompson construction: one entry, one exit per fragment."""

    def __init__(self, alphabet: tuple[str, ...]):
        self.alphabet = alphabet
        self.count = 0
        self.edges: dict[tuple[int, str | None], set[int]] = {}

    def state(self) -> int:
        self.count += 1
        return self.count - 1

    def edge(self, src: int, label: str | None, dst: int) -> None:
        self.edges.setdefault((src, label), set()).add(dst)

    def build(self, regex: Regex) -> tuple[int, int]:
        if isinstance(regex, Epsilon):
            s, t = self.state(), self.state()
            self.edge(s, None, t)
            return s, t
        if isinstance(regex, Sym):
            s, t = self.state(), self.state()
            self.edge(s, regex.label, t)
            return s, t
        if isinstance(regex, AnyOf):
            s, t = self.state(), self.state()
            for label in (regex.labels or self.alphabet):
                if label in self.alphabet:
                    self.edge(s, label, t)
            return s, t
        if isinstance(regex, Seq):
            if not regex.parts:
                return self.build(Epsilon())
            first_s, last_t = None, None
            for part in regex.parts:
                s, t = self.build(part)
                if first_s is None:
                    first_s = s
                else:
                    self.edge(last_t, None, s)
                last_t = t
            assert first_s is not None and last_t is not None
            return first_s, last_t
        if isinstance(regex, Alt):
            s, t = self.state(), self.state()
            for option in regex.options:
                os, ot = self.build(option)
                self.edge(s, None, os)
                self.edge(ot, None, t)
            return s, t
        if isinstance(regex, Star):
            s, t = self.state(), self.state()
            inner_s, inner_t = self.build(regex.inner)
            self.edge(s, None, inner_s)
            self.edge(s, None, t)
            self.edge(inner_t, None, inner_s)
            self.edge(inner_t, None, t)
            return s, t
        if isinstance(regex, Plus):
            return self.build(Seq((regex.inner, Star(regex.inner))))
        raise TypeError(f"unknown regex node {regex!r}")

    def closure(self, states: frozenset[int]) -> frozenset[int]:
        result = set(states)
        queue = deque(states)
        while queue:
            state = queue.popleft()
            for nxt in self.edges.get((state, None), ()):
                if nxt not in result:
                    result.add(nxt)
                    queue.append(nxt)
        return frozenset(result)

    def step(self, states: frozenset[int], symbol: str) -> frozenset[int]:
        moved: set[int] = set()
        for state in states:
            moved.update(self.edges.get((state, symbol), ()))
        return self.closure(frozenset(moved))


@lru_cache(maxsize=2048)
def _regex_dfa(regex: Regex, alphabet: tuple[str, ...]) -> DFA:
    nfa = _Thompson(alphabet)
    start, accept = nfa.build(regex)
    dfa, _ = reachable_dfa(alphabet, nfa.closure(frozenset({start})),
                           nfa.step, lambda key: accept in key)
    return dfa
