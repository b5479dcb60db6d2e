"""Generator of cubicdescent/subgroup_table.py, the conjugacy classes of
subgroups of W(D5) = T x| S5 (lines27's group, order 1920).

The classes are found by cyclic extension.  Starting from the trivial
group, each class representative H is extended to <H, g> for every g
outside H, but only once per orbit of the map pair g -> h*g (h in H) and
g -> n*g*n^-1 (n in the normaliser of H): both keep <H, g> in one class.
Every subgroup U != 1 has a maximal subgroup M, and conjugating U so that
M becomes its class representative shows that U's class is reached from
it.  A new group is dropped when it is conjugate to a class found before:
the same order and the same number of elements in each of the 18 element
classes, and an element x with x * gens * x^-1 inside the other group.

Element k is full_group()[k]; element classes are the sorted signed cycle
types of frob_class(), and a class mask has bit i set when the subgroup
meets ELEMENT_CLASSES[i].  The table lists (order, generators, mask) by
order, then by the order in which the search found the classes.

Rewrite the module from the repository root with

    PYTHONPATH=src python3 tests/subgroup_classes.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from cubicdescent.lines27 import (_extend, _tables, full_group,
                                  subgroup_closure)

MODULE = (Path(__file__).resolve().parents[1]
          / "src" / "cubicdescent" / "subgroup_table.py")
COMMAND = "PYTHONPATH=src python3 tests/subgroup_classes.py"
ORDER = 1920


def group_tables():
    """(mul, conj, class_id, element_classes) as numpy arrays on element
    indices: mul[x, y] is the index of x*y, conj[x, y] that of x*y*x^-1,
    and class_id[x] the position of x's frob_class() in the sorted tuple
    element_classes."""
    _, perm_mul, perm_act, sign_mul = _tables()
    perm_mul, perm_act, sign_mul = (np.array(t, dtype=np.int16)
                                    for t in (perm_mul, perm_act, sign_mul))
    a, e = np.divmod(np.arange(ORDER), 16)
    mul = (perm_mul[a[:, None], a[None, :]]
           + sign_mul[e[:, None], perm_act[a[:, None], e[None, :]]])
    inv = np.argmin(mul, axis=1)            # the identity has index 0
    conj = mul[mul, inv[:, None]]
    types = [g.frob_class() for g in full_group()]
    element_classes = tuple(sorted(set(types)))
    position = {c: i for i, c in enumerate(element_classes)}
    class_id = np.array([position[c] for c in types])
    return mul, conj, class_id, element_classes


def closure(gens) -> set:
    """Element indices of the group generated by the indices gens."""
    grp = full_group()
    return {g.index for g in subgroup_closure([grp[k] for k in gens])}


def is_conjugate(conj, gens, other_mask) -> bool:
    """Some x maps every generator into the other group, whose membership
    mask is given; with equal orders that makes the groups conjugate."""
    return bool(other_mask[conj[:, list(gens)]].all(axis=1).any())


def _orbit_minima(maps, n) -> np.ndarray:
    """The least index of each point's orbit under the permutations maps."""
    maps = maps + [np.argsort(m) for m in maps]         # and the inverses
    label = np.arange(n)
    while True:
        nxt = label
        for m in maps:
            nxt = np.minimum(nxt, nxt[m])
        if np.array_equal(nxt, label):
            return label
        label = nxt


def _shorten(gens, order) -> tuple:
    """Drop each generator, first to last, that the others do not need."""
    gens = list(gens)
    for g in list(gens):
        rest = [x for x in gens if x != g]
        if len(closure(rest)) == order:
            gens = rest
    return tuple(gens)


def _generators(members) -> list:
    """A generating set of the group with the given element indices."""
    gens, elems = [], {0}
    for x in members.tolist():
        if x not in elems:
            elems = _extend(elems, gens, x, ORDER)
            gens.append(x)
    return gens


def enumerate_classes():
    """(element_classes, [(order, generators, mask), ...]) of W(D5)."""
    mul, conj, class_id, element_classes = group_tables()
    found = []                      # (generators, membership), one a class
    buckets = {}                    # (order, class counts) -> found indices

    def add(gens, elems):
        member = np.zeros(ORDER, dtype=bool)
        member[list(elems)] = True
        key = (len(elems), tuple(np.bincount(class_id[member], minlength=18)))
        bucket = buckets.setdefault(key, [])
        if not any(is_conjugate(conj, gens, found[j][1]) for j in bucket):
            bucket.append(len(found))
            found.append((_shorten(gens, len(elems)), member))

    add((), {0})
    for gens, member in found:      # found grows while it is read
        elems = set(np.flatnonzero(member).tolist())
        normaliser = np.flatnonzero(member[conj[:, list(gens)]].all(axis=1))
        maps = ([mul[h] for h in gens]
                + [conj[n] for n in _generators(normaliser)])
        for g in np.unique(_orbit_minima(maps, ORDER)[~member]).tolist():
            add(gens + (g,), _extend(elems, list(gens), g, ORDER))
    table = []
    for gens, member in found:
        mask = sum(1 << c for c in np.unique(class_id[member]).tolist())
        table.append((int(member.sum()), tuple(int(g) for g in gens), mask))
    table.sort(key=lambda row: row[0])      # stable: discovery order kept
    return element_classes, table


HEADER = '''"""The conjugacy classes of subgroups of W(D5) = T x| S5, the group of
lines27, one per row of SUBGROUP_CLASSES: (order, generators, mask).

Generators are element indices into lines27.full_group().  Bit i of
the mask is set when the subgroup meets the element class
ELEMENT_CLASSES[i], a signed cycle type as GroupElt.frob_class() gives
it.  Rows run by order.  Generated by tests/subgroup_classes.py; do not
edit."""
'''


def render(element_classes, table) -> str:
    """The source text of the table module."""
    classes = "".join(f"    {c!r},\n" for c in element_classes)
    rows = "".join(f"    ({order}, {gens!r}, {mask:#07x}),\n"
                   for order, gens, mask in table)
    return (f"{HEADER}\nELEMENT_CLASSES = (\n{classes})\n\n"
            f"SUBGROUP_CLASSES = (\n{rows})\n")


def main() -> int:
    MODULE.write_text(render(*enumerate_classes()))
    print(f"wrote {MODULE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
