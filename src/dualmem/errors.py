"""Shared exception types, and Record, the base of every frozen value class."""


class Record:
    """Base of the frozen value classes. A subclass's fields are the names its
    body annotates, in order, less those starting with "_"; a value the body
    gives one is its default. Each subclass gets one plain __init__, compiled
    once, that takes the fields by position or keyword, sets each with
    object.__setattr__ (a write through __dict__ would materialise the
    instance dict and slow every later attribute read about fourfold) and
    then calls __post_init__, if the class has one. A record equals only
    records of its own class with equal fields, hashes and reprs by its
    fields, and refuses assignment and deletion.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(n for n in cls.__dict__.get("__annotations__", ()) if not n.startswith("_"))
        defaults = {f"_d_{n}": cls.__dict__[n] for n in fields if n in cls.__dict__}
        params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in defaults else f", {n}" for n in fields)
        body = [f"_set(self, {n!r}, {n})" for n in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_set": object.__setattr__, **defaults}
        exec(f"def __init__(self{params}):\n " + "\n ".join(body or ["pass"]), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DualMemError(Exception):
    """Base class for all library errors."""


class StructureFormatError(DualMemError):
    """Malformed structure or certificate text, or a non-UTF-8 file. Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class FormulaError(DualMemError):
    """Lexical or syntactic error in a formula. Carries the 0-based offset."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"at offset {position}: {message}"
        super().__init__(message)


class EvalError(DualMemError):
    """Evaluation failed (unbound variable, out-of-range element)."""


class CycleError(DualMemError):
    """A membership cycle where well-foundedness is required.

    ``cycle`` lists the elements along the cycle, first element repeated last.
    """

    def __init__(self, cycle: tuple[int, ...], tag: int | None = None):
        self.cycle = tuple(cycle)
        self.tag = tag
        where = f" in e{tag}" if tag is not None else ""
        super().__init__(f"membership cycle{where}: {'>'.join(map(str, self.cycle))}")


class NonExtensionalError(DualMemError):
    """Two distinct elements share a member-set where extensionality is required."""

    def __init__(self, pair: tuple[int, int], tag: int):
        self.pair = pair
        self.tag = tag
        super().__init__(f"e{tag} not extensional: elements {pair[0]} and {pair[1]} have equal member-sets")


class LevelExtensionError(DualMemError):
    """Level-wise witness extension failed.

    ``kind`` is ``missing-level`` or ``unrealized-image``; ``witness`` names the
    ordinal or the element whose image set has no realizer.
    """

    def __init__(self, kind: str, witness: int, tag: int):
        self.kind = kind
        self.witness = witness
        self.tag = tag
        super().__init__(f"{kind} (tag {tag}, element {witness})")
