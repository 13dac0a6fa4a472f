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
component's ``array`` columns (:class:`Columns`): each written as one
string of packed little-endian bytes (:class:`Packed`).

Loading is strict (no ``int("3")``, and a bool is not an int) and checks
every job and node id against the run (:class:`Refs`); a column is
checked whole.  The first value that does not fit raises
:class:`CheckpointError` naming its JSON path, and in a column its row::

    state.scheduler.queues.tracked["cpu-000002"]: expected [node id, int], got 7
    result.collector.records.final_cpus[17]: -2 is below -1

State derived from what was loaded is rebuilt by the component's
``_after_load`` hook (``_before_load`` runs first).  This module imports
nothing from the package, so every component module can import it.
"""

from __future__ import annotations

import json
import sys
from array import array
from base64 import b64decode, b64encode
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional
from typing import Set, Tuple


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


def _only(raw: Dict[str, Any], declared: Tuple[str, ...], path: str) -> None:
    """Fail at the first ``declared`` key missing from ``raw``, else at its
    first undeclared one."""
    for key in declared:
        if key not in raw:
            raise _fail(f"{path}.{key}", "missing")
    if len(raw) != len(declared):
        unknown = sorted(raw.keys() - set(declared))[0]
        raise _fail(f"{path}.{unknown}", "not a declared field")


class _Load:
    """One decode pass: its references and the component loading now."""

    def __init__(self, refs: Refs) -> None:
        self.refs: Refs = refs
        self.owner: Any = None


class Codec:
    """A type: ``dump`` writes a value as JSON data; ``load`` checks JSON
    data at ``path`` and returns the value (``key``: the dict key it sits
    under).  An ``in_place`` codec loads into the current value instead."""

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
        items = [self.item.load(v, f"{path}[{i}]", ctx) for i, v in enumerate(raw)]
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
        pairs = enumerate(zip(self.items, raw))
        return self.into([item.load(v, f"{path}[{i}]", ctx) for i, (item, v) in pairs])


class Fields(Row):
    """A row written as a JSON object of its named fields, in order."""

    def __init__(self, **fields: Codec) -> None:
        super().__init__(*fields.values())
        self.keys = tuple(fields)
        self.name = "{" + ", ".join(self.keys) + "}"

    def dump(self, value: Any) -> Any:
        return dict(zip(self.keys, Row.dump(self, value)))

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> Any:
        if type(raw) is not dict:
            raise self.expected(raw, path)
        _only(raw, self.keys, path)
        pairs = zip(self.keys, self.items)
        return self.into([item.load(raw[k], f"{path}.{k}", ctx) for k, item in pairs])


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


# --------------------------------------------------------------------- #
# Columns

#: Packed columns are little-endian on the wire.
_SWAP = sys.byteorder == "big"


def narrowest(column: array) -> array:
    """An int ``column`` in the narrowest of ``b``/``h``/``i`` that holds
    its values; a float column as it is."""
    if column.typecode == "d":
        return column
    low, high = min(column, default=0), max(column, default=0)
    for code, bound in (("b", 1 << 7), ("h", 1 << 15), ("i", 1 << 31)):
        if -bound <= low and high < bound:
            break
    return column if column.typecode == code else array(code, column)


class Packed(Codec):
    """An ``array`` column as one string: its typecode, ``:`` and its
    elements as little-endian bytes in base64 (``"h:AQACAA=="``).  An int
    column takes the narrowest typecode that holds its values, so the text
    depends on the values only.

    A load takes one of ``typecodes``, NaN only in a ``nan`` (sentinel)
    column, and elements from ``low`` to ``high``; a failure names its
    row (``records.final_cpus[17]``)."""

    def __init__(
        self,
        typecodes: str,
        nan: bool = False,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> None:
        self.typecodes, self.nan, self.low, self.high = typecodes, nan, low, high
        self.name = "packed column of " + " or ".join(map(_show, typecodes))

    def dump(self, value: array) -> str:
        column = narrowest(value)
        if _SWAP:
            column = array(column.typecode, column)
            column.byteswap()
        return column.typecode + ":" + b64encode(column.tobytes()).decode("ascii")

    def load(self, raw: Any, path: str, ctx: _Load, key: Any = None) -> array:
        code, _, text = raw.partition(":") if type(raw) is str else ("", "", "")
        try:
            data: Optional[bytes] = b64decode(text, validate=True)
        except ValueError:  # binascii.Error
            data = None
        if data is None or len(code) != 1 or code not in self.typecodes:
            raise self.expected(raw, path)
        column = array(code)
        if len(data) % column.itemsize:
            raise _fail(path, f"{len(data)} bytes of {column.itemsize}-byte elements")
        column.frombytes(data)
        if _SWAP:
            column.byteswap()
        # The sum is NaN if an element is (or if it adds inf and -inf).
        if not self.nan and code == "d" and (total := sum(column)) != total:
            row = next((r for r, v in enumerate(column) if v != v), None)
            if row is not None:
                raise _fail(f"{path}[{row}]", "NaN")
        within(column, path, self.low, self.high)
        return column


def first_row(rows: Iterable[Any], bad: Callable[[Any], bool]) -> int:
    """The index of the first of ``rows`` that is ``bad``."""
    return next(row for row, value in enumerate(rows) if bad(value))


def within(column: array, path: str, low: Any, high: Any) -> None:
    """Fail at the first element of ``column`` outside ``low``..``high``
    (None: unbounded)."""
    if low is not None and column and min(column) < low:
        row = first_row(column, lambda v: v < low)
        raise _fail(f"{path}[{row}]", f"{column[row]} is below {low}")
    if high is not None and column and max(column) > high:
        row = first_row(column, lambda v: v > high)
        raise _fail(f"{path}[{row}]", f"{column[row]} is above {high}")


class Columns:
    """A component's columns, as a group of its fields or its only field:
    ``read(component)`` gives ``{key: value}``, written as one JSON object
    of one value per key, a :class:`Packed` column or another codec's.

    A load checks each value, then that every column has the first one's
    length (failing at the first missing or extra row), and hands
    ``{key: loaded}`` to ``fill(component, loaded, path, refs)``, which
    checks what spans columns: by default each column replaces the
    contents of the array ``read`` gives, in that array's typecode."""

    def __init__(
        self,
        read: Callable[[Any], Mapping[str, Any]],
        fill: Optional[Callable[[Any, Dict[str, Any], str, Refs], None]] = None,
        **fields: Codec,
    ) -> None:
        self.read, self.fill, self.fields = read, fill or self._refill, fields
        self.columns = [k for k, c in fields.items() if isinstance(c, Packed)]

    def dump_from(self, obj: Any) -> Any:
        values = self.read(obj)
        return {key: codec.dump(values[key]) for key, codec in self.fields.items()}

    def load_into(self, obj: Any, raw: Any, path: str, ctx: _Load) -> None:
        if type(raw) is not dict:
            raise _fail(path, f"expected an object, got {_show(raw)}")
        _only(raw, tuple(self.fields), path)
        loaded = {k: c.load(raw[k], f"{path}.{k}", ctx) for k, c in self.fields.items()}
        rows = len(loaded[self.columns[0]])
        for key in self.columns:
            if len(loaded[key]) != rows:
                have = len(loaded[key])
                message = "missing" if have < rows else f"beyond the {rows} rows"
                raise _fail(f"{path}.{key}[{min(have, rows)}]", message)
        self.fill(obj, loaded, path, ctx.refs)

    def _refill(self, obj: Any, loaded: Dict[str, Any], path: str, refs: Refs) -> None:
        for key, column in self.read(obj).items():
            column[:] = array(column.typecode, loaded[key])


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
