"""Combinatorial model of the 27 lines on a cubic surface with a marked
rational line, and the sign-permutation group acting on them.

Labels: the marked line L0; ten "pair" lines (i, s) for i in 0..4 and
s = +-1, two on each of the five tritangent planes through L0; sixteen
lines labelled by even sign vectors in {+-1}^5.  The group is the
semidirect product of the even sign group T (order 16) by S5, order 1920:
(t, sigma) sends (i, s) to (sigma(i), s * t[sigma(i)]) and eps to
j -> t[j] * eps[sigma^-1(j)].

Each label carries a class in the blow-up basis (l, e1..e6) of the Picard
lattice; the action preserves the intersection pairing, L0 = e6 meets
exactly the pair lines, and each plane's trio sums to the anticanonical
class 3l - e1 - ... - e6.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import permutations, product
from operator import or_

# ---------------------------------------------------------------------------
# labels and Picard vectors

def _even_vectors():
    out = []
    for eps in product((1, -1), repeat=5):
        if eps.count(-1) % 2 == 0:
            out.append(eps)
    out.sort(key=lambda e: tuple(-x for x in e))
    return out


EVEN_VECTORS = _even_vectors()
_EVEN_INDEX = {e: i for i, e in enumerate(EVEN_VECTORS)}

#: label list: 0 = L0; 1..10 = (i, s) pairs; 11..26 = even sign vectors
LABELS = (["L0"]
          + [(i, s) for i in range(5) for s in (1, -1)]
          + EVEN_VECTORS)
LABEL_INDEX = {lab: k for k, lab in enumerate(LABELS)}
N_LINES = 27


def _pic_vector(label):
    """Class in the basis (l, e1, ..., e6)."""
    if label == "L0":
        return (0, 0, 0, 0, 0, 0, 1)
    if isinstance(label, tuple) and len(label) == 2 and label[0] in range(5):
        i, s = label
        if s == 1:
            v = [1, 0, 0, 0, 0, 0, -1]
            v[1 + i] = -1
            return tuple(v)
        v = [2, -1, -1, -1, -1, -1, -1]
        v[1 + i] = 0
        return tuple(v)
    eps = label
    minus = [i for i in range(5) if eps[i] == -1]
    if len(minus) == 4:
        # e_j for the unique plus position j
        j = next(i for i in range(5) if eps[i] == 1)
        v = [0, 0, 0, 0, 0, 0, 0]
        v[1 + j] = 1
        return tuple(v)
    if len(minus) == 2:
        a, b = minus
        v = [1, 0, 0, 0, 0, 0, 0]
        v[1 + a] = -1
        v[1 + b] = -1
        return tuple(v)
    if len(minus) == 0:
        return (2, -1, -1, -1, -1, -1, 0)
    raise AssertionError("odd sign vector in the 16-line labels")


PIC_VECTORS = tuple(_pic_vector(lab) for lab in LABELS)


def pairing(u, v) -> int:
    """Intersection pairing: l^2 = 1, e_i^2 = -1, mixed 0."""
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def intersection_matrix():
    return [[pairing(PIC_VECTORS[i], PIC_VECTORS[j]) for j in range(N_LINES)]
            for i in range(N_LINES)]


def anticanonical_check() -> bool:
    """Each tritangent trio L0 + (i,+) + (i,-) sums to 3l - e1 - ... - e6."""
    target = (3, -1, -1, -1, -1, -1, -1)
    l0 = PIC_VECTORS[LABEL_INDEX["L0"]]
    for i in range(5):
        p = PIC_VECTORS[LABEL_INDEX[(i, 1)]]
        m = PIC_VECTORS[LABEL_INDEX[(i, -1)]]
        s = tuple(a + b + c for a, b, c in zip(l0, p, m))
        if s != target:
            return False
    return True


# ---------------------------------------------------------------------------
# the group T x| S5
#
# Element k of full_group() is (EVEN_VECTORS[k % 16], PERMUTATIONS[k // 16]);
# products go through three small tables built on first use.

PERMUTATIONS = tuple(permutations(range(5)))
_PERM_INDEX = {s: i for i, s in enumerate(PERMUTATIONS)}


class GroupElt:
    """(t, sigma): t an even sign vector, sigma a permutation of 0..4
    given as the tuple (sigma(0), ..., sigma(4)); `index` is the element's
    position in full_group()."""

    __slots__ = ("t", "sigma", "index")

    def __init__(self, t, sigma):
        t = tuple(int(x) for x in t)
        sigma = tuple(int(x) for x in sigma)
        if len(t) != 5 or any(x not in (1, -1) for x in t):
            raise ValueError("t must be a vector of five signs")
        if t.count(-1) % 2 != 0:
            raise ValueError("sign vector must be even")
        if sorted(sigma) != [0, 1, 2, 3, 4]:
            raise ValueError("sigma must be a permutation of 0..4")
        self.t = t
        self.sigma = sigma
        self.index = 16 * _PERM_INDEX[sigma] + _EVEN_INDEX[t]

    @classmethod
    def identity(cls):
        return _tables()[0][0]

    def __mul__(self, other: "GroupElt") -> "GroupElt":
        grp, perm_mul, perm_act, sign_mul = _tables()
        a, e = divmod(self.index, 16)
        b, f = divmod(other.index, 16)
        return grp[perm_mul[a][b] + sign_mul[e][perm_act[a][f]]]

    def inv(self) -> "GroupElt":
        t = tuple(self.t[self.sigma[j]] for j in range(5))
        return _tables()[0][16 * _PERM_INDEX[_inv_perm(self.sigma)]
                            + _EVEN_INDEX[t]]

    def __eq__(self, other):
        return isinstance(other, GroupElt) and self.index == other.index

    def __hash__(self):
        return self.index

    def __repr__(self):
        return f"GroupElt(t={self.t}, sigma={self.sigma})"

    def frob_class(self) -> tuple:
        """Conjugacy invariant: sorted multiset of (cycle length, product
        of t over the cycle)."""
        return anchored_frob_data(self, (tuple(range(5)),))[0]


def _inv_perm(sigma):
    inv = [0] * 5
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


def act_on_27(g: GroupElt) -> tuple:
    """Permutation of the 27 labels induced by g, as an index tuple:
    result[k] is the index of the image of label k."""
    inv_sigma = _inv_perm(g.sigma)
    out = [0] * N_LINES
    out[LABEL_INDEX["L0"]] = LABEL_INDEX["L0"]
    for i in range(5):
        for s in (1, -1):
            ni = g.sigma[i]
            out[LABEL_INDEX[(i, s)]] = LABEL_INDEX[(ni, s * g.t[ni])]
    for eps in EVEN_VECTORS:
        img = tuple(g.t[j] * eps[inv_sigma[j]] for j in range(5))
        out[LABEL_INDEX[eps]] = LABEL_INDEX[img]
    return tuple(out)


@cache
def full_group() -> tuple:
    """All 1920 elements (even sign vectors times S5), built once; element
    k has index k."""
    return tuple(GroupElt(t, sigma) for sigma in PERMUTATIONS
                 for t in EVEN_VECTORS)


@cache
def _tables() -> tuple:
    """(full_group(), perm_mul, perm_act, sign_mul), read by products,
    inverses and closures without a further full_group() call.

    perm_mul[a][b] is 16 times the index of sigma_a o sigma_b, perm_act[a][f]
    the index of the sign vector k -> t_f[sigma_a^-1(k)], and sign_mul[e][f]
    the index of t_e * t_f, so that (t_e, sigma_a) * (t_f, sigma_b) has
    index perm_mul[a][b] + sign_mul[e][perm_act[a][f]]."""
    perm_mul = [[16 * _PERM_INDEX[tuple(s[i] for i in s2)]
                 for s2 in PERMUTATIONS] for s in PERMUTATIONS]
    perm_act = []
    for s in PERMUTATIONS:
        row = []
        for t in EVEN_VECTORS:
            moved = [0] * 5
            for k, x in enumerate(t):
                moved[s[k]] = x
            row.append(_EVEN_INDEX[tuple(moved)])
        perm_act.append(row)
    sign_mul = [[_EVEN_INDEX[tuple(x * y for x, y in zip(t, t2))]
                 for t2 in EVEN_VECTORS] for t in EVEN_VECTORS]
    return full_group(), perm_mul, perm_act, sign_mul


@cache
def _perm27(k: int) -> tuple:
    """act_on_27 of element k, built on its first use."""
    return act_on_27(full_group()[k])


def orbits(generators) -> list:
    """Sorted orbit-length multiset of the generated subgroup on the 27
    labels.  Each inverse is a power of its element, so images under the
    generators alone reach the whole orbit."""
    perms = [_perm27(g.index) for g in generators]
    seen = [False] * N_LINES
    sizes = []
    for start in range(N_LINES):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        size = 0
        while stack:
            k = stack.pop()
            size += 1
            for p in perms:
                nk = p[k]
                if not seen[nk]:
                    seen[nk] = True
                    stack.append(nk)
        sizes.append(size)
    return sorted(sizes)


#: for each possible subgroup order n, the orders above n of the subgroups
#: that could contain one of order n: the multiples of n dividing 1920
_ORDERS_ABOVE = {n: tuple(d for d in range(2 * n, 1921, n) if 1920 % d == 0)
                 for n in range(1, 1921) if 1920 % n == 0}


def _extend(h, gens, cand, limit):
    """<H, cand> as a union of right cosets H*y (Dimino's algorithm), on
    element indices: H is a closed subgroup, given as the set h of its
    indices and generated by the indices gens, and cand is not in H.  Each
    coset representative r is multiplied by gens and cand; a product y
    outside the known cosets adds its coset H*y and becomes a
    representative.  Returns the element set, or None as soon as the
    order would exceed limit.

    The order of <H, cand> is a multiple of |H| above |H| that divides
    1920 (_ORDERS_ABOVE), so the largest such order within limit is the
    real bound, and with none (as when 2|H| > limit) the step returns None
    before any product."""
    order = len(h)
    limit = max((d for d in _ORDERS_ABOVE[order] if d <= limit), default=0)
    if not limit:
        return None
    _, perm_mul, perm_act, sign_mul = _tables()
    pairs = [divmod(x, 16) for x in h]
    steps = [divmod(s, 16) for s in gens]
    steps.append(divmod(cand, 16))
    elems = set(h)
    reps = [0]
    for r in reps:                  # reps grows while it is read
        a, e = divmod(r, 16)
        mul_a, act_a, mul_e = perm_mul[a], perm_act[a], sign_mul[e]
        for b, f in steps:
            y = mul_a[b] + mul_e[act_a[f]]
            if y in elems:
                continue
            if len(elems) + order > limit:
                return None
            yb, yf = divmod(y, 16)
            elems.update([perm_mul[c][yb] + sign_mul[d][perm_act[c][yf]]
                          for c, d in pairs])
            reps.append(y)
    return elems


def subgroup_closure(generators, cap: int | None = None) -> list | None:
    """All elements generated, by one coset step (_extend) per generator
    outside the group so far; None as soon as the order exceeds cap."""
    limit = 1920 if cap is None else cap
    if limit < 1:
        return None
    elems, gens = {0}, []
    for g in generators:
        if g.index in elems:
            continue
        elems = _extend(elems, gens, g.index, limit)
        if elems is None:
            return None
        gens.append(g.index)
    grp = _tables()[0]
    return [grp[k] for k in elems]


def class_members(cls: tuple) -> list:
    """All elements of T x| S5 with the given (length, sign) multiset."""
    return anchored_class_members((tuple(cls),), (5,))


def _blocks_from_sizes(sizes) -> list:
    out = []
    pos = 0
    for s in sizes:
        out.append(tuple(range(pos, pos + s)))
        pos += s
    assert pos == 5
    return out


def anchored_frob_data(g: GroupElt, blocks) -> tuple:
    """Per-block sorted (cycle length, sign product) multisets, or None
    when sigma does not preserve the blocks."""
    out = []
    for block in blocks:
        parts = []
        seen = set()
        for i in block:
            length, sgn, j = 0, 1, i
            while j not in seen:
                if j not in block:
                    return None
                seen.add(j)
                length += 1
                sgn *= g.t[j]
                j = g.sigma[j]
            if length:
                parts.append((length, sgn))
        out.append(tuple(sorted(parts)))
    return tuple(out)


def anchored_class_members(anchored: tuple, block_sizes) -> list:
    """Elements whose block-anchored cycle data matches `anchored`, the
    plane blocks being consecutive index ranges of the given sizes."""
    return list(_anchored_index(tuple(block_sizes)).get(anchored, ()))


@cache
def _anchored_index(block_sizes: tuple) -> dict:
    """Anchored cycle data -> its elements, in full_group() order."""
    blocks = _blocks_from_sizes(block_sizes)
    out = {}
    for g in full_group():
        out.setdefault(anchored_frob_data(g, blocks), []).append(g)
    return out


def class_representative(cls: tuple) -> GroupElt:
    """Canonical representative: cycles laid out on consecutive letters in
    multiset order, one -1 at the first letter of each minus cycle."""
    t = [1, 1, 1, 1, 1]
    sigma = list(range(5))
    pos = 0
    for (length, sgn) in cls:
        letters = list(range(pos, pos + length))
        for a, b in zip(letters, letters[1:] + letters[:1]):
            sigma[a] = b
        if sgn == -1:
            t[pos] = -1
        pos += length
    return GroupElt(tuple(t), tuple(sigma))


@cache
def _subgroup_table() -> tuple:
    """(plain class -> its mask bit, rows (order, generators, mask)) of
    the shipped table of the 197 subgroup classes, read on first use."""
    from . import subgroup_table
    bits = {c: 1 << i for i, c in enumerate(subgroup_table.ELEMENT_CLASSES)}
    return bits, subgroup_table.SUBGROUP_CLASSES


@cache
def _class_bit(k: int) -> int:
    """The table's mask bit for the plain class (frob_class()) of element
    k, computed on its first use."""
    return _subgroup_table()[0][full_group()[k].frob_class()]


def cover_order_bound(members) -> int | None:
    """A lower bound on the order of any subgroup meeting every list of
    elements: the least order of a table class whose mask meets each
    list's plain classes.  Such a subgroup is conjugate to a table class
    of its order that meets the same plain classes, so none is smaller.
    None when a list is empty, as no subgroup then meets every list."""
    needs = {reduce(or_, map(_class_bit, [g.index for g in m]), 0)
             for m in members}
    if 0 in needs:
        return None
    # a list within one plain class needs that class: one subset test
    whole = reduce(or_, (n for n in needs if not n & (n - 1)), 0)
    mixed = [n for n in needs if n & (n - 1)]
    return next(order for order, _, mask in _subgroup_table()[1]
                if mask & whole == whole and all(mask & n for n in mixed))


def minimal_cover_subgroup(classes):
    """Smallest subgroup containing an element of every given conjugacy
    class, by backtracking over class representatives.

    Each branch carries its subgroup (a set of element indices) and the
    representatives that enlarged it, and grows it by one coset step
    (_extend) per outside representative.  When a branch's subgroup
    already meets the next class, the branch continues without growth
    (adding an outside representative can only enlarge the subgroup, so
    this is sound for minimality).  A (subgroup, depth) state is searched
    once per call: the subtree below it depends only on that state and
    the bound, and the bound only falls, so a revisit cannot find a
    smaller group.  Returns (sorted elements, chosen representatives).

    A cover replaces the best one only when it is strictly smaller, so
    the result is the first cover of least order that the search meets.
    No cover is smaller than cover_order_bound, read from the table of
    subgroup classes, so the search stops at its first cover of that
    order and returns what the full search would.  Where the anchored
    lists are finer than plain classes the bound can lie below every
    cover, and the search then runs to its end.

    `classes` may be plain (length, sign) multisets or prebuilt candidate
    element lists.
    """
    members = [c if isinstance(c, list) else class_members(c)
               for c in classes]
    members.sort(key=len)
    bound = cover_order_bound(members)
    if bound is None:
        return None, None
    best_elems: set | None = None
    best_chosen: list | None = None
    visited = set()

    def grow(chosen, elems, gens, k):
        nonlocal best_elems, best_chosen
        if best_elems is not None and len(elems) >= len(best_elems):
            return
        state = (frozenset(elems), k)
        if state in visited:
            return
        visited.add(state)
        if k == len(members):
            best_elems = elems
            best_chosen = list(chosen)
            return
        inside = next((c for c in members[k] if c.index in elems), None)
        if inside is not None:
            grow(chosen + [inside], elems, gens, k + 1)
            return
        for cand in members[k]:
            if best_elems is not None and len(best_elems) == bound:
                return
            limit = (len(best_elems) - 1) if best_elems is not None else 1920
            grown = _extend(elems, gens, cand.index, limit)
            if grown is not None:
                grow(chosen + [cand], grown, gens + [cand.index], k + 1)

    grow([], {0}, [], 0)
    grp = _tables()[0]
    return (sorted((grp[k] for k in best_elems), key=lambda g: (g.sigma, g.t)),
            best_chosen)


def pic_trace_of_class(cls: tuple) -> int:
    """Trace of the Picard action of any element g in the class, in
    integers.  The basis (l, e1, ..., e6) is orthogonal for the pairing,
    with l^2 = 1 and e_i^2 = -1, so tr g = g(l).l - sum_i g(e_i).e_i.
    Here e1..e5 are the even vectors with a single +, e6 = L0, and
    l = (0, +) + e1 + e6."""
    perm = act_on_27(class_representative(cls))

    def image(label):
        return PIC_VECTORS[perm[LABEL_INDEX[label]]]

    es = [eps for eps in EVEN_VECTORS if eps.count(1) == 1] + ["L0"]
    gl = [sum(x) for x in zip(image((0, 1)), image(es[0]), image("L0"))]
    return (pairing(gl, (1, 0, 0, 0, 0, 0, 0))
            - sum(pairing(image(e), PIC_VECTORS[LABEL_INDEX[e]]) for e in es))


# startup self-check: label count and the anticanonical trios through L0
assert len(LABELS) == N_LINES == 27
assert anticanonical_check(), "Picard dictionary is inconsistent"
