"""Fixed and enumerated schema instances in the joint vocabulary.

The fixed battery packages the exact separation/replacement uses the
level-extension and totality arguments need, with the function, level, and
bound arguments turned into universally quantified set parameters. Function
application is spelled out through two-element coding pairs, so every
sentence is a plain first-order formula over the two memberships and
equality. Replacement instances carry an explicit bounding parameter folded
into the class formula (v in_i K): on a finite domain an unbounded image may
outrank every element, so only the bounded form is part of the surrogate
theory.

Bounded mode enumerates separation filters up to an AST size in a canonical
deterministic order with a hard cap.
"""

from __future__ import annotations

from .errors import Record
from .formulas import (
    And,
    Equality,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Membership,
    Not,
    Or,
    conjoin,
    disjoin,
    free_vars,
    instantiate_replacement,
    instantiate_separation,
    render,
)


def pair_application(tag: int, func: str, arg: str, value: str) -> Formula:
    """The coding-pair sentence "func applied to arg gives value" in one relation.

    Reads: some member p of func has exactly the members {arg} and {arg, value},
    i.e. the two-element coding pair of (arg, value) belongs to func.
    """
    def only(container: str, *elems: str) -> Formula:
        options = disjoin(*(Equality("z", e) for e in elems)) if len(elems) > 1 else Equality("z", elems[0])
        return ForAll("z", Iff(Membership(tag, "z", container), options))

    is_first = Exists("q", And(Membership(tag, "q", "p"), only("q", arg)))
    is_both = Exists("r", And(Membership(tag, "r", "p"), only("r", arg, value)))
    nothing_else = ForAll(
        "c",
        Implies(
            Membership(tag, "c", "p"),
            Or(
                ForAll("z", Iff(Membership(tag, "z", "c"), Equality("z", arg))),
                ForAll("z", Iff(Membership(tag, "z", "c"), Or(Equality("z", arg), Equality("z", value)))),
            ),
        ),
    )
    return Exists("p", conjoin(Membership(tag, "p", func), is_first, is_both, nothing_else))


def pointwise_image(set_tag: int, app_tag: int) -> Formula:
    """v collects, inside level L, the app_tag-function g's values on u's members.

    forall w (w in_set v <-> (w in_set L & exists t (t in_app u & g(t) = w))).
    """
    return ForAll(
        "w",
        Iff(
            Membership(set_tag, "w", "v"),
            And(
                Membership(set_tag, "w", "L"),
                Exists("t", And(Membership(app_tag, "t", "u"), pair_application(app_tag, "g", "t", "w"))),
            ),
        ),
    )


class BatteryItem(Record):
    name: str
    sentence: Formula


def _separation_apply(tag: int) -> BatteryItem:
    other = 3 - tag
    filt = Exists("t", And(Membership(other, "t", "u"), pair_application(other, "g", "t", "w")))
    return BatteryItem(
        f"separation-apply-{tag}",
        instantiate_separation(filt, tag, params=["u", "g"]),
    )


def _replacement_pointwise(tag: int) -> BatteryItem:
    other = 3 - tag
    cls = And(pointwise_image(tag, other), Membership(tag, "v", "K"))
    return BatteryItem(
        f"replacement-pointwise-{tag}",
        instantiate_replacement(cls, tag, params=["g", "L", "K"]),
    )


def _replacement_graph(tag: int) -> BatteryItem:
    cls = And(pair_application(tag, "h", "u", "v"), Membership(tag, "v", "K"))
    return BatteryItem(
        f"replacement-graph-{tag}",
        instantiate_replacement(cls, tag, params=["h", "K"]),
    )


def fixed_battery() -> tuple[BatteryItem, ...]:
    """The six fixed sentences: three proof uses and their relation mirrors."""
    return (
        _separation_apply(1),
        _separation_apply(2),
        _replacement_pointwise(1),
        _replacement_pointwise(2),
        _replacement_graph(1),
        _replacement_graph(2),
    )


# -- bounded enumeration -------------------------------------------------------

BOUNDED_VARS = ("w", "p", "z")  # subset variable, one parameter, one bound variable
DEFAULT_BOUNDED_CAP = 400


def enumerate_filters(max_size: int, cap: int = DEFAULT_BOUNDED_CAP) -> tuple[Formula, ...]:
    """Separation filters up to the given AST size, canonicalized and capped.

    Deterministic order: by (size, rendered text). Commutative operands are
    ordered by text and duplicates collapse, so the family is stable under
    re-runs and additions only extend it.
    """
    atoms: list[Formula] = []
    for tag in (1, 2):
        for x in BOUNDED_VARS:
            for y in BOUNDED_VARS:
                atoms.append(Membership(tag, x, y))
    for i, x in enumerate(BOUNDED_VARS):
        for y in BOUNDED_VARS[i + 1:]:
            atoms.append(Equality(x, y))

    layer_keep = max(4 * cap, 1600)

    def canonical(layer: list[Formula]) -> list[Formula]:
        unique = {render(f): f for f in layer}
        return [unique[text] for text in sorted(unique)][:layer_keep]

    by_size: dict[int, list[Formula]] = {1: canonical(atoms)}
    out: list[Formula] = []
    for size in range(1, max_size + 1):
        if size not in by_size:
            layer: list[Formula] = []
            for f in by_size[size - 1]:
                layer.append(Not(f))
                layer.append(ForAll("z", f))
                layer.append(Exists("z", f))
            for left_size in range(1, size - 1):
                for fl in by_size[left_size]:
                    rl = render(fl)
                    for fr in by_size[size - 1 - left_size]:
                        rr = render(fr)
                        if rl <= rr:
                            layer.append(And(fl, fr))
                            layer.append(Or(fl, fr))
                            layer.append(Iff(fl, fr))
                        layer.append(Implies(fl, fr))
            by_size[size] = canonical(layer)
        for f in by_size[size]:
            if "z" in free_vars(f):
                continue
            out.append(f)
            if len(out) >= cap:
                return tuple(out)
    return tuple(out)


class BoundedInstance(Record):
    index: int
    tag: int
    filter_text: str
    sentence: Formula


def bounded_instances(max_size: int, cap: int = DEFAULT_BOUNDED_CAP) -> tuple[BoundedInstance, ...]:
    """Separation instances for every enumerated filter, on both tags."""
    out = []
    for f in enumerate_filters(max_size, cap):
        params = sorted(free_vars(f) - {"w"})
        for tag in (1, 2):
            out.append(BoundedInstance(len(out), tag, render(f), instantiate_separation(f, tag, params)))
    return tuple(out)
