"""One declarative codec for every wire shape.

Each frozen dataclass on the wire — requests, responses, stream ops,
templates, holes, journal payloads — gets an encoder and a decoder
generated once from its field annotations, every scalar check inlined.
``bool`` is a JSON boolean, ``int`` never one, :data:`Count` non-negative;
tuples are lists, ``frozenset[str]`` sorted lists, ``dict[str, X]``
objects; :class:`Wire` unions are told apart by their ``tag`` key.
``UpdateConstraint`` is ``[xpath, type]``, ``Pattern`` its text, and
``DataTree`` goes through :mod:`repro.trees.serialize`.  Decoding is
validation: a wrong JSON type is a :class:`~repro.errors.WireError`
naming the field, never coerced; a constructor's own error keeps its
class.  Unknown keys are ignored unless the class is ``closed``.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import types
from collections.abc import Callable
from functools import reduce
from typing import Annotated, Any, ClassVar, Self, Union, cast, get_args, get_origin, get_type_hints

from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.errors import WireError
from repro.trees import serialize
from repro.trees.tree import DataTree
from repro.xpath.ast import Pattern
from repro.xpath.parser import parse

#: An ``int`` that must also be non-negative (search knobs).
Count = Annotated[int, "non-negative"]
#: Field metadata: off the wire while equal to the default.
OMIT_DEFAULT = types.MappingProxyType({"omit_default": True})
#: Field metadata: the field's tuples, all of ``(name, value)`` pairs,
#: travel as JSON objects.
AS_OBJECT = types.MappingProxyType({"as_object": True})

Codec = tuple[Callable[[Any], Any], Callable[..., Any]]


class Wire:
    """Base of a wire class; the first call installs its generated codec.

    A tagged-union member names the union's JSON key (``tag``), its value
    under it (``kind``) and the union in errors (``noun``); a ``closed``
    class refuses keys that name none of its fields."""

    tag: ClassVar[str] = ""
    kind: ClassVar[str] = ""
    noun: ClassVar[str] = ""
    closed: ClassVar[bool] = False

    def to_dict(self) -> dict[str, Any]:
        return cast(dict[str, Any], _install(type(self)).to_dict(self))

    @classmethod
    def from_dict(cls, data: Any) -> Self:
        return cast(Self, _install(cls).from_dict(data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _install(cls: type[Any]) -> type[Any]:
    encode, decode = derive(cls)
    cls.to_dict, cls.from_dict = encode, staticmethod(decode)
    return cls


def derive(tp: Any, name: str = "value") -> Codec:
    """The ``(encode, decode)`` pair of ``tp``; errors call it ``name``."""
    key = tp if _is_record(tp) else (tp, name)
    if key not in _CODECS:
        if _is_record(tp):
            _CODECS[key] = _generate(tp)
        else:
            gen, body = _Gen(), list[str]()
            body.append(f"    return {gen.dec(tp, 'x', 'n', '    ', body, False)}")
            _CODECS[key] = gen.build(
                gen.define("x", [f"    return {gen.enc(tp, 'x', False)}"]),
                gen.define(f"x, n={name!r}", body))
    return _CODECS[key]


_CODECS: dict[Any, Codec] = {}
_MISSING = object()
_NONE = type(None)
_UNION = (Union, types.UnionType)
#: Scalar checks: the condition refusing ``{x}``, and what was wanted.
_CHECKS = {
    str: ("not isinstance({x}, str)", "a string"),
    int: ("{x}.__class__ is not int", "an int"),
    bool: ("{x} is not True and {x} is not False", "a boolean"),
    Count: ("{x}.__class__ is not int or {x} < 0", "a non-negative int")}
#: Leaf types: their encode and decode expressions.
_LEAVES = {
    UpdateConstraint: ("[str({x}.range), {x}.type.value]",
                       "_constraint(_parse({x}[0]), _types[{x}[1]])"),
    DataTree: ("_tree_out({x})", "_tree_in({x}, {n})"),
    Pattern: ("str({x})", "")}


def _bad(name: str, want: str, value: Any) -> WireError:
    # A JSON object's name reads bare: "bindings must be a JSON object".
    shown = name if want == "a JSON object" else repr(name)
    return WireError(f"{shown} must be {want}, got {value!r:.80}")


def _tree(data: Any, name: str) -> DataTree:
    try:
        return serialize.from_dict(data)
    except WireError as exc:
        raise WireError(f"{name!r}: {exc}") from None


def _is_record(tp: Any) -> bool:
    return (isinstance(tp, type) and dataclasses.is_dataclass(tp)
            and tp not in _LEAVES)


class _Gen:
    """Python source for a group of codec functions, with its namespace."""

    def __init__(self) -> None:
        self.ns: dict[str, Any] = {
            "_W": WireError, "_M": _MISSING, "_bad": _bad, "_parse": parse,
            "_constraint": UpdateConstraint, "_tree_in": _tree,
            "_tree_out": serialize.to_dict,
            "_types": {t.value: t for t in ConstraintType}}
        self.src: list[str] = []
        self.count = 0

    def fresh(self, prefix: str = "v") -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value: Any) -> str:
        key = self.fresh("_k")
        self.ns[key] = value
        return key

    def define(self, params: str, body: list[str]) -> str:
        name = self.fresh("_f")
        self.src += [f"def {name}({params}):", *body]
        return name

    def build(self, encode: str, decode: str) -> Codec:
        exec("\n".join(self.src), self.ns)
        return self.ns[encode], self.ns[decode]

    def enc(self, tp: Any, x: str, obj: bool) -> str:
        """An expression encoding the live value ``x``."""
        if tp in _LEAVES:
            return _LEAVES[tp][0].format(x=x)
        origin, args = get_origin(tp), get_args(tp)
        value_tp = get_args(args[0])[1] if obj and origin is tuple else None
        if origin is dict or value_tp is not None:
            if origin is dict and args[1] is Any:
                return x
            key, value = self.fresh(), self.fresh()
            inner = self.enc(args[1] if origin is dict else value_tp, value, obj)
            pairs = f"{x}.items()" if origin is dict else x
            return f"{{{key}: {inner} for {key}, {value} in {pairs}}}"
        if origin in _UNION:
            present = tuple(a for a in args if a is not _NONE)
            if len(present) < len(args):
                inner = self.enc(reduce(operator.or_, present), x, obj)
                return x if inner == x else f"(None if {x} is None else {inner})"
            if not any(_is_record(a) for a in present):
                return x
            # A scalar member encodes as itself: int(x) is x for an int.
            table = {a: derive(a)[0] if _is_record(a) else a for a in present}
            return f"{self.const(table)}[{x}.__class__]({x})"
        if origin is tuple and args[-1] is Ellipsis:
            item = self.fresh()
            inner = self.enc(args[0], item, obj)
            return f"list({x})" if inner == item else f"[{inner} for {item} in {x}]"
        if origin is tuple:
            parts = [self.enc(a, f"{x}[{i}]", obj) for i, a in enumerate(args)]
            return f"[{', '.join(parts)}]"
        if origin is frozenset:
            return f"sorted({x})"
        if _is_record(tp):
            return f"{self.const(derive(tp)[0])}({x})"
        return x

    def dec(self, tp: Any, x: str, n: str, ind: str, out: list[str],
            obj: bool) -> str:
        """Append the checks of local ``x`` (named by expression ``n``) to
        ``out``, indented by ``ind``; return its decoded value."""
        origin, args = get_origin(tp), get_args(tp)
        scalars = args if origin in _UNION else (tp,)
        if all(s in _CHECKS for s in scalars):
            test = " and ".join(_CHECKS[s][0].format(x=x) for s in scalars)
            want = " or ".join(_CHECKS[s][1] for s in scalars)
            out.append(f"{ind}if {test}: raise _bad({n}, {want!r}, {x})")
            return x
        if tp is Any:
            return x
        if tp is Pattern:
            return f"_parse({self.dec(str, x, n, ind, out, obj)})"
        if tp is UpdateConstraint:
            out.append(f"{ind}if {x}.__class__ is not list or len({x}) != 2 or "
                       f"not isinstance({x}[0], str) or not isinstance({x}[1], "
                       f"str) or {x}[1] not in _types: "
                       f"raise _bad({n}, 'an [xpath, type] constraint', {x})")
        if tp in _LEAVES:
            return _LEAVES[tp][1].format(x=x, n=n)
        if _is_record(tp):
            return f"{self.const(derive(tp)[1])}({x}, {n})"
        if origin in _UNION:
            return self.dec_union(args, x, n, ind, out, obj)
        value_tp = get_args(args[0])[1] if obj and origin is tuple else None
        if origin is dict or value_tp is not None:
            out.append(f"{ind}if {x}.__class__ is not dict: "
                       f"raise _bad({n}, 'a JSON object', {x})")
            if origin is dict and args[1] is Any:
                return x
            pairs = self.each(args[1] if origin is dict else value_tp, x, n,
                              ind, out, obj, True)
            return f"dict({pairs})" if origin is dict else f"tuple(sorted({pairs}))"
        if origin is frozenset or (origin is tuple and args[-1] is Ellipsis):
            want = "a list of names" if args[0] is str else "a list"
            out.append(f"{ind}if {x}.__class__ is not list: "
                       f"raise _bad({n}, {want!r}, {x})")
            items = self.each(args[0], x, n, ind, out, obj, False)
            return f"frozenset({items})" if origin is frozenset else f"tuple({items})"
        if origin is tuple:
            out.append(f"{ind}if {x}.__class__ is not list or len({x}) != "
                       f"{len(args)}: raise _bad({n}, 'a list of {len(args)}', {x})")
            parts = [self.fresh() for _ in args]
            out.append(f"{ind}{', '.join(parts)}, = {x}")
            values = [self.dec(a, p, n, ind, out, obj)
                      for a, p in zip(args, parts, strict=True)]
            return f"({', '.join(values)},)"
        raise TypeError(f"no wire form for {tp!r}")

    def each(self, tp: Any, x: str, n: str, ind: str, out: list[str],
             obj: bool, keyed: bool) -> str:
        """A list of the decoded items of list ``x`` — or, ``keyed``, of
        the ``(key, value)`` pairs of object ``x``."""
        key, item, acc = self.fresh(), self.fresh(), self.fresh()
        lines: list[str] = []
        result = self.dec(tp, item, n, ind + "    ", lines, obj)
        loop = (f"for {key}, {item} in {x}.items()" if keyed
                else f"for {item} in {x}")
        entry = f"({key}, {result})" if keyed else result
        if not lines:
            return f"[{entry} {loop}]"
        out += [f"{ind}{acc} = []", f"{ind}{loop}:", *lines,
                f"{ind}    {acc}.append({entry})"]
        return acc

    def dec_union(self, args: tuple[Any, ...], x: str, n: str, ind: str,
                  out: list[str], obj: bool) -> str:
        present = tuple(a for a in args if a is not _NONE)
        if len(present) < len(args):
            lines: list[str] = []
            value = self.dec(reduce(operator.or_, present), x, n,
                             ind + "    ", lines, obj)
            if value == x:
                out += [f"{ind}if {x} is not None:", *lines] if lines else []
                return x
            result = self.fresh()
            out += [f"{ind}{result} = None", f"{ind}if {x} is not None:", *lines,
                    f"{ind}    {result} = {value}"]
            return result
        records = [a for a in present if _is_record(a)]
        scalars = [a for a in present if not _is_record(a)]
        tag, noun = records[0].tag, records[0].noun or records[0].tag
        table = {r.kind: derive(r)[1] for r in records}
        want = " or ".join([_CHECKS[s][1] for s in scalars] + [f"a {noun} object"])
        body = [
            "    if x.__class__ is dict:",
            f"        kind = x.get({tag!r})",
            "        try:",
            f"            member = {self.const(table)}[kind]",
            "        except (KeyError, TypeError):",
            f'            raise _W(f"unknown {noun} {{kind!r:.80}}; '
            f'expected one of {sorted(table)}") from None',
            "        try:",
            "            return member(x, n)",
            "        except _W as exc:",
            f'            raise _W(f"bad fields for {noun} {{kind!r}}: '
            '{exc}") from None',
            *[f"    if not ({_CHECKS[s][0].format(x='x')}): return x"
              for s in scalars],
            f"    raise _bad(n, {want!r}, x)"]
        return f"{self.define('x, n', body)}({x}, {n})"


def _generate(cls: Any) -> Codec:
    """The class's encoder (one dict display, then the omittable fields)
    and decoder (fetch, check and construct, field by field)."""
    hints = get_type_hints(cls, include_extras=True)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    gen = _Gen()
    items = [f"{cls.tag!r}: {cls.kind!r}"] if getattr(cls, "tag", "") else []
    tail: list[str] = []
    body = ["    if d.__class__ is not dict: raise _bad(n, 'a JSON object', d)"]
    if getattr(cls, "closed", False):
        keys = gen.const(frozenset(f.name for f in fields) | {cls.tag})
        body.append(f"    if not d.keys() <= {keys}: raise _W(f\"unknown "
                    f"field(s) {{sorted(map(str, d.keys() - {keys}))}}\")")
    args = []
    for spec in fields:
        tp, v, obj = hints[spec.name], gen.fresh(), "as_object" in spec.metadata
        default = (gen.const(spec.default)
                   if spec.default is not dataclasses.MISSING else
                   f"{gen.const(spec.default_factory)}()"
                   if spec.default_factory is not dataclasses.MISSING else "")
        fallback = (f"{v} = {default}" if default
                    else f'raise _W("missing field {spec.name!r}")')
        if "omit_default" in spec.metadata:
            tail += [f"    {v} = o.{spec.name}",
                     f"    if {v} != {default}: d[{spec.name!r}] = "
                     f"{gen.enc(tp, v, obj)}"]
        else:
            items.append(f"{spec.name!r}: {gen.enc(tp, 'o.' + spec.name, obj)}")
        lines: list[str] = []
        value = gen.dec(tp, v, repr(spec.name), "        ", lines, obj)
        if value != v:
            lines.append(f"        {v} = {value}")
        body += [f"    {v} = d.get({spec.name!r}, _M)", f"    if {v} is _M: {fallback}"]
        body += ["    else:", *lines] if lines else []
        args.append(v)
    body.append(f"    return {gen.const(cls)}({', '.join(args)})")
    encode = gen.define("o", [f"    d = {{{', '.join(items)}}}", *tail,
                              "    return d"])
    return gen.build(encode, gen.define(f"d, n={cls.__name__!r}", body))


__all__ = ["Wire", "Count", "OMIT_DEFAULT", "AS_OBJECT", "Codec", "derive"]
