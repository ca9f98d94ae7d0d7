"""Shared exception types."""


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
