"""Declared checkpoint state: one field list per component, one codec.

A :class:`Stateful` component declares its persistent fields once, as a
class-level ``STATE``: a :class:`Struct` of ``(json key, attribute,
type)`` entries, ``(key, type)`` when the attribute has the key's name.
Snapshot and restore both derive from it.  The types are the codecs
below: JSON scalars, :class:`Nullable`, :class:`ListOf`, :class:`Row`
(:class:`Fields`: one written as a JSON object), :class:`DictOf`,
:class:`Items`, :class:`Record` (a dataclass as a positional row),
:class:`Choice`, the ``JOB``/``JOB_ID``/``NODE_ID`` references, nested
components (``NESTED``, :class:`Inline`, :class:`Built`) and a
component's table of rows (:class:`Rows`).

Loading is strict (no ``int("3")``, and a bool is not an int) and checks
every job and node id against the run (:class:`Refs`).  The first value
that does not fit raises :class:`CheckpointError` naming its JSON path::

    state.scheduler.queues.tracked["cpu-000002"]: expected [node id, int], got 7

State derived from what was loaded is rebuilt by the component's
``_after_load`` hook (``_before_load`` runs first).  This module imports
nothing from the package, so every component module can import it.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Set, Tuple


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or restored."""


class Refs(NamedTuple):
    """What ids may refer to: job id -> job (the run's trace) and the
    node count; ``None`` leaves that kind unchecked."""

    jobs: Optional[Mapping[str, Any]] = None
    nodes: Optional[int] = None


def _fail(path: str, message: str) -> CheckpointError:
    return CheckpointError(f"{path}: {message}")


def _show(raw: Any) -> str:
    text = json.dumps(raw, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


class _Load:
    """One decode pass: its references and the component loading now."""

    def __init__(self, refs: Refs) -> None:
        self.refs: Refs = refs
        self.owner: Any = None


class Codec:
    """A type: ``dump`` writes a value as JSON data; ``load`` checks JSON
    data at ``path`` and returns the value (``key``: the dict key it sits
    under).  An ``in_place`` codec loads into the current value instead.

    A list or row loads its entries at its own path, and only when one
    fails loads them again, each at its own path, to raise the located
    error: a table's rows would spend more on building paths than on
    decoding."""

    name = "value"
    in_place = False

    def dump(self, value: Any) -> Any:
        return value

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        raise NotImplementedError

    def expected(self, raw: Any, path: str) -> CheckpointError:
        return _fail(path, f"expected {self.name}, got {_show(raw)}")


class Scalar(Codec):
    """A JSON scalar of one of ``kinds``; ``widen`` is loaded as the
    first kind (an int in a float field: ``0`` loads as ``0.0``)."""

    def __init__(self, *kinds: type, widen: Optional[type] = None) -> None:
        self.kinds, self.widen = kinds, widen
        self.name = " or ".join(kind.__name__ for kind in kinds)

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) in self.kinds:
            return raw
        if type(raw) is self.widen:
            return self.kinds[0](raw)
        raise self.expected(raw, path)


INT, FLOAT, BOOL, STR = Scalar(int), Scalar(float, widen=int), Scalar(bool), Scalar(str)


class Nullable(Codec):
    """``codec``'s value, or ``null`` standing for ``null_value``."""

    def __init__(self, codec: Codec, null_value: Any = None) -> None:
        self.codec, self.null_value = codec, null_value
        self.name = f"{codec.name} or null"

    def dump(self, value: Any) -> Any:
        return None if value == self.null_value else self.codec.dump(value)

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        return self.null_value if raw is None else self.codec.load(raw, path, ctx)


#: A float that may be ``+inf``, which JSON cannot carry: ``null``.
INF_OR_FLOAT = Nullable(FLOAT, float("inf"))


class Choice(Codec):
    """An enum member, written as its string value."""

    def __init__(self, enum: Any) -> None:
        self.members = {member.value: member for member in enum}
        self.name = " or ".join(map(_show, self.members))

    def dump(self, value: Any) -> Any:
        return value.value

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) is not str or raw not in self.members:
            raise self.expected(raw, path)
        return self.members[raw]


class _JobRef(Codec):
    """A job id that must name a job of the run's trace; with ``resolve``
    the job itself, written as its id."""

    name = "job id"

    def __init__(self, resolve: bool) -> None:
        self.resolve = resolve

    def dump(self, value: Any) -> Any:
        return value.job_id if self.resolve else value

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        jobs = ctx.refs.jobs
        if type(raw) is not str:
            raise self.expected(raw, path)
        if jobs is None:
            if self.resolve:
                raise _fail(path, f"job {raw!r} needs the run's trace to load")
            return raw
        if raw not in jobs:
            raise _fail(path, f"no job {raw!r} in this run's trace")
        return jobs[raw] if self.resolve else raw


class _NodeRef(Codec):
    """A node id that must name a node of the run's cluster."""

    name = "node id"

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        nodes = ctx.refs.nodes
        if type(raw) is not int:
            raise self.expected(raw, path)
        if nodes is not None and not 0 <= raw < nodes:
            raise _fail(path, f"no node {raw} in this run's {nodes}-node cluster")
        return raw


JOB_ID, JOB, NODE_ID = _JobRef(resolve=False), _JobRef(resolve=True), _NodeRef()


class _IntKey(Codec):
    """An int dict key, which JSON writes as a string."""

    def __init__(self, codec: Codec) -> None:
        self.codec, self.name = codec, f"{codec.name} written as a string"

    def dump(self, value: Any) -> Any:
        return str(value)

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if not (type(raw) is str and raw.isdecimal() and str(int(raw)) == raw):
            raise self.expected(raw, path)
        return self.codec.load(int(raw), path, ctx)


INT_KEY, NODE_KEY = _IntKey(INT), _IntKey(NODE_ID)


class ListOf(Codec):
    """A list of ``item``, loaded ``into`` a container; ``sort`` writes it
    sorted (a set), ``by`` loads a dict of the items keyed by that
    attribute (and writes its values)."""

    def __init__(
        self,
        item: Codec,
        into: Callable[[Any], Any] = list,
        sort: bool = False,
        by: Optional[str] = None,
    ) -> None:
        self.item, self.into, self.sort, self.by = item, into, sort, by
        self.name = f"[{item.name}, ...]"

    def dump(self, value: Any) -> Any:
        items = [self.item.dump(v) for v in (value.values() if self.by else value)]
        return sorted(items) if self.sort else items

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) is not list:
            raise self.expected(raw, path)
        load = self.item.load
        try:
            items = [load(v, path, ctx) for v in raw]
        except CheckpointError:
            items = [load(v, f"{path}[{i}]", ctx) for i, v in enumerate(raw)]
        if self.by is None:
            return self.into(items)
        keyed = {getattr(item, self.by): item for item in items}
        if len(keyed) != len(items):
            raise _fail(path, f"duplicate {self.by}")
        return keyed


class Row(Codec):
    """A fixed-length positional row, loaded ``into`` a tuple."""

    def __init__(self, *items: Codec, into: Callable[[Any], Any] = tuple) -> None:
        self.items, self.into = items, into
        self.name = "[" + ", ".join(item.name for item in items) + "]"

    def dump(self, value: Any) -> Any:
        return [item.dump(v) for item, v in zip(self.items, value)]

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) is not list or len(raw) != len(self.items):
            raise self.expected(raw, path)
        try:
            pairs = zip(self.items, raw)
            return self.into([item.load(v, path, ctx) for item, v in pairs])
        except CheckpointError:
            pairs = enumerate(zip(self.items, raw))
            return self.into(
                [item.load(v, f"{path}[{i}]", ctx) for i, (item, v) in pairs]
            )


class Fields(Row):
    """A row written as a JSON object of its named fields, in order."""

    def __init__(self, **fields: Codec) -> None:
        super().__init__(*fields.values())
        self.keys, self.key_set = tuple(fields), frozenset(fields)
        self.name = "{" + ", ".join(self.keys) + "}"

    def dump(self, value: Any) -> Any:
        return dict(zip(self.keys, Row.dump(self, value)))

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) is not dict:
            raise self.expected(raw, path)
        if raw.keys() != self.key_set:
            for name in self.keys:
                if name not in raw:
                    raise _fail(f"{path}.{name}", "missing")
            unknown = sorted(raw.keys() - self.key_set)[0]
            raise _fail(f"{path}.{unknown}", "not a declared field")
        try:
            pairs = zip(self.keys, self.items)
            return self.into([item.load(raw[k], path, ctx) for k, item in pairs])
        except CheckpointError:
            pairs = zip(self.keys, self.items)
            return self.into(
                [item.load(raw[k], f"{path}.{k}", ctx) for k, item in pairs]
            )


class DictOf(Codec):
    def __init__(self, key: Codec, value: Codec) -> None:
        self.key, self.value = key, value
        self.name = f"{{{key.name}: {value.name}}}"

    def dump(self, value: Any) -> Any:
        return {self.key.dump(k): self.value.dump(v) for k, v in value.items()}

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) is not dict:
            raise self.expected(raw, path)
        loaded = {}
        for raw_key, value in raw.items():
            where = f"{path}[{json.dumps(raw_key)}]"
            loaded[self.key.load(raw_key, where, ctx)] = self.value.load(
                value, where, ctx, raw_key
            )
        return loaded


class Items(Codec):
    """A dict written as ``[*key, value]`` rows sorted by key; a key of
    several codecs is a tuple."""

    def __init__(self, keys: Tuple[Codec, ...], value: Codec) -> None:
        self.single, self.row = len(keys) == 1, Row(*keys, value)
        self.name = f"[{self.row.name}, ...]"

    def dump(self, value: Any) -> Any:
        rows = sorted(value.items(), key=lambda item: item[0])
        return [self.row.dump((k, v) if self.single else (*k, v)) for k, v in rows]

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) is not list:
            raise self.expected(raw, path)
        loaded = {}
        for i, entry in enumerate(raw):
            *parts, value = self.row.load(entry, f"{path}[{i}]", ctx)
            loaded[parts[0] if self.single else tuple(parts)] = value
        if len(loaded) != len(raw):
            raise _fail(path, "duplicate key")
        return loaded


class Record(Codec):
    """A dataclass written as the positional row of its ``fields``.

    ``from_key`` fills one more field from the enclosing dict key, and
    ``from_owner`` one from the loading component's attribute of that
    name; ``bare`` writes a one-field record as that field alone."""

    def __init__(
        self,
        cls: type,
        from_key: Optional[Tuple[str, Codec]] = None,
        from_owner: Optional[str] = None,
        bare: bool = False,
        **fields: Codec,
    ) -> None:
        self.cls, self.from_key, self.from_owner = cls, from_key, from_owner
        self.bare, self.names, self.row = bare, list(fields), Row(*fields.values())
        self.name = self.row.items[0].name if bare else cls.__name__ + self.row.name

    def dump(self, value: Any) -> Any:
        row = self.row.dump([getattr(value, name) for name in self.names])
        return row[0] if self.bare else row

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        row = self.row.load([raw] if self.bare else raw, path, ctx)
        kwargs = dict(zip(self.names, row))
        if self.from_key is not None:
            kwargs[self.from_key[0]] = self.from_key[1].load(key, path, ctx)
        if self.from_owner is not None:
            kwargs[self.from_owner] = getattr(ctx.owner, self.from_owner)
        try:
            return self.cls(**kwargs)
        except ValueError as exc:
            raise _fail(path, str(exc)) from None


class Rows:
    """A component's table, its only field (no key, no attribute):
    ``read(component)`` yields the rows, written as a list of ``row``; a
    load appends each with ``add(component, *row)``, and what ``add``
    refuses (``ValueError``, ``RuntimeError``, or ``OverflowError`` from
    a column too narrow for the number) fails at its row."""

    def __init__(self, row: Codec, read: Callable[[Any], Any], add: Callable) -> None:
        self.row, self.read, self.add = row, read, add

    def dump_from(self, obj: Any) -> Any:
        return list(map(self.row.dump, self.read(obj)))

    def load_into(self, obj: Any, raw: Any, path: str, ctx: _Load) -> None:
        if type(raw) is not list:
            raise _fail(path, f"expected [{self.row.name}, ...], got {_show(raw)}")
        load, add = self.row.load, self.add
        for i, entry in enumerate(raw):
            try:
                add(obj, *load(entry, path, ctx))
            except (ValueError, OverflowError, RuntimeError):  # CheckpointError too
                self._add_at(obj, entry, f"{path}[{i}]", ctx)

    def _add_at(self, obj: Any, entry: Any, where: str, ctx: _Load) -> None:
        """Load and add one entry, failing at its own path ``where``."""
        values = self.row.load(entry, where, ctx)
        try:
            self.add(obj, *values)
        except (ValueError, OverflowError, RuntimeError) as exc:
            raise _fail(where, str(exc)) from None


# --------------------------------------------------------------------- #
# Components


class Stateful:
    """A component whose checkpoint state is its class's ``STATE``;
    ``restore`` resolves job ids through ``jobs``."""

    __slots__ = ()
    STATE: "Struct"

    def snapshot(self) -> Any:
        return type(self).STATE.dump_from(self)

    def restore(self, state: Any, jobs: Optional[Mapping[str, Any]] = None) -> None:
        load(self, state, "state", Refs(jobs))

    def _before_load(self) -> None:
        pass

    def _after_load(self, refs: Refs) -> None:
        pass


def load(component: Stateful, raw: Any, path: str, refs: Refs) -> None:
    """Load ``raw`` into ``component``; raises :class:`CheckpointError`."""
    _load_component(component, raw, path, _Load(refs))


def decode(codec: Codec, raw: Any, path: str) -> Any:
    """``raw`` loaded as ``codec``, outside any component and run."""
    return codec.load(raw, path, _Load(Refs()))


def _load_component(component: Stateful, raw: Any, path: str, ctx: _Load) -> None:
    owner, ctx.owner = ctx.owner, component
    component._before_load()
    type(component).STATE.load_into(component, raw, path, ctx)
    component._after_load(ctx.refs)
    ctx.owner = owner


def _get(obj: Any, attr: Tuple[str, ...]) -> Any:
    for part in attr:
        obj = getattr(obj, part)
    return obj


_Field = Tuple[Any, Optional[Tuple[str, ...]], Any]


class Struct:
    """Fields ``(key, codec)`` or ``(key, dotted attribute, codec)``,
    written as a JSON object, or with ``row`` as a list.  An attribute of
    ``None`` groups more of the component's own fields (a ``Struct``)
    under ``key``.  A key of ``None`` writes an :class:`Inline`
    component's fields into this object, or, as the only field, makes
    that field's value the whole state."""

    def __init__(self, *fields: Tuple[Any, ...], row: bool = False) -> None:
        self.row, self.bare = row, len(fields) == 1 and fields[0][0] is None
        self.fields: List[_Field] = [
            (f[0], None if f[-2] is None else tuple(f[-2].split(".")), f[-1])
            for f in fields
        ]

    def plus(self, *fields: Tuple[Any, ...]) -> "Struct":
        extended = Struct(*fields, row=self.row)
        extended.fields = self.fields + extended.fields
        return extended

    def keys(self) -> Set[str]:
        keys: Set[str] = set()
        for key, _, codec in self.fields:
            keys |= {key} if key is not None else codec.cls.STATE.keys()
        return keys

    def dump_from(self, obj: Any) -> Any:
        state: Dict[Any, Any] = {}
        for key, attr, codec in self.fields:
            value = codec.dump(_get(obj, attr)) if attr else codec.dump_from(obj)
            if self.row or self.bare:
                state[len(state)] = value
            elif key is None:
                state.update(value)
            else:
                state[key] = value
        if self.bare:
            return state[0]
        return list(state.values()) if self.row else state

    def load_into(self, obj: Any, raw: Any, path: str, ctx: _Load) -> None:
        if self.bare:
            _load_field(obj, self.fields[0], raw, path, ctx)
            return
        if type(raw) is not (list if self.row else dict) or (
            self.row and len(raw) != len(self.fields)
        ):
            shape = f"a row of {len(self.fields)}" if self.row else "an object"
            raise _fail(path, f"expected {shape}, got {_show(raw)}")
        for i, (key, attr, codec) in enumerate(self.fields):
            if key is None:
                keys = codec.cls.STATE.keys()
                own = {k: v for k, v in raw.items() if k in keys}
                _load_component(_get(obj, attr), own, path, ctx)
                continue
            where = f"{path}[{i}]" if self.row else f"{path}.{key}"
            if not self.row and key not in raw:
                raise _fail(where, "missing")
            value = raw[i] if self.row else raw[key]
            _load_field(obj, (key, attr, codec), value, where, ctx)
        unknown = [] if self.row else sorted(raw.keys() - self.keys())
        if unknown:
            raise _fail(f"{path}.{unknown[0]}", "not a declared field")


def _load_field(obj: Any, field: _Field, raw: Any, path: str, ctx: _Load) -> None:
    _, attr, codec = field
    if attr is None:
        codec.load_into(obj, raw, path, ctx)
    elif codec.in_place:
        codec.load_in(_get(obj, attr), raw, path, ctx)
    else:
        setattr(_get(obj, attr[:-1]), attr[-1], codec.load(raw, path, ctx))


class _Nested(Codec):
    """A :class:`Stateful` attribute, or a fixed list of them, in place."""

    in_place = True

    def dump(self, value: Any) -> Any:
        if isinstance(value, list):
            return [component.snapshot() for component in value]
        return value.snapshot()

    def load_in(self, current: Any, raw: Any, path: str, ctx: _Load) -> None:
        if not isinstance(current, list):
            _load_component(current, raw, path, ctx)
            return
        if type(raw) is not list or len(raw) != len(current):
            raise _fail(path, f"expected this run's {len(current)}, got {_show(raw)}")
        for i, (component, entry) in enumerate(zip(current, raw)):
            _load_component(component, entry, f"{path}[{i}]", ctx)


NESTED = _Nested()


class Inline(_Nested):
    """A nested ``cls`` component whose fields sit in its parent's object."""

    def __init__(self, cls: type) -> None:
        self.cls = cls


class Pinned(Codec):
    """A value the run already fixed, which the checkpoint must repeat."""

    in_place = True

    def __init__(self, codec: Codec) -> None:
        self.codec = codec

    def load_in(self, current: Any, raw: Any, path: str, ctx: _Load) -> None:
        if self.codec.load(raw, path, ctx) != current:
            raise _fail(path, f"expected this run's {current!r}, got {_show(raw)}")


class Built(Codec):
    """A :class:`Stateful` built by ``make(owner, key, refs)``, then loaded;
    a ``LookupError`` from ``make`` fails at the path."""

    def __init__(self, make: Callable[[Any, Any, Refs], Stateful]) -> None:
        self.make = make

    def dump(self, value: Any) -> Any:
        return value.snapshot()

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        try:
            component = self.make(ctx.owner, key, ctx.refs)
        except LookupError as exc:
            raise _fail(path, f"cannot be rebuilt: {exc.args[0]}") from None
        _load_component(component, raw, path, ctx)
        return component
