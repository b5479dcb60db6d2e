"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks each operation's output must pass.

A workload is a list of operations, run in that order as one round.  Each
operation's `run` makes only the program calls a user would make and is
the only code timed; `summarise` turns its result into plain data outside
the timed region, and `check` runs the independent checks of `checks` on
that data.  Repeats of an operation must give the same summary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

import checks as C
from tracing import Patches

# The worked example's published data (inputs, not expected outputs):
# the quintic (T - 2)((T - 3)^2 - 3)((T + 9)^2 - 6) and its reduced
# quadric pair.
PAPER_QUINTIC = (-900, 1134, -288, -51, 10, 1)
PAPER_Q0 = {
    (0, 0): 4, (0, 1): 10, (0, 2): 20, (0, 3): -112, (0, 4): -134,
    (1, 1): 7, (1, 2): -26, (1, 3): -134, (1, 4): -148,
    (2, 2): -2, (2, 3): 140, (2, 4): -2,
    (3, 3): 10, (3, 4): -38, (4, 4): -323,
}
PAPER_Q1 = {
    (0, 0): 47, (0, 1): -18, (0, 2): 10, (0, 3): -188, (0, 4): -178,
    (1, 1): 63, (1, 2): -22, (1, 3): 376, (1, 4): -86,
    (2, 2): 71, (2, 3): -580, (2, 4): 146,
    (3, 3): -364, (3, 4): -296, (4, 4): -21,
}
PAPER_POINT = (8, -13, 4, 2, -3)
PAPER_ORBITS = [1, 2, 4, 4, 16]

#: height of the exhaustive search in paper-example (>= 13, the height of
#: the published point)
PAPER_HEIGHT = 42
#: sampled primes of the Frobenius fit
PRIME_COUNT, PRIME_BOUND = 40, 500
#: the first sampled primes at which paper-example checks point counts,
#: and the prime of its line census
LEFSCHETZ_PRIMES = 3
CENSUS_PRIME = 7
#: the height up to which paper-example's points are compared with the
#: naive search: it holds all three points the search finds at height 42
NAIVE_HEIGHT = 24

#: galois-fit quintics, coefficients lowest degree first, chosen with
#: find_quintics.py (the README gives the fitted order and time of each);
#: their fit times spread evenly enough that the median operation never
#: sits between two far-apart costs
GALOIS_QUINTICS = (
    PAPER_QUINTIC,
    (36, 3, -3, -4, -3, 1),
    (-40, 6, 40, 29, 9, 1),
    (12, 11, 58, -18, -4, 1),
    (-50, 65, -56, 34, -10, 1),
    (-2, 2, -2, 3, 0, 1),
    (20, -5, -1, 20, 9, 1),
)
#: T -> k*T (p(T) -> k^5 p(T/k)) keeps the Galois action on the lines and
#: the sampled primes; k = -1 also keeps the size of every coefficient,
#: and with it the cost of the fit
GALOIS_SCALES = (1, -1)

#: wide-search: height, seeded pairs per round, coefficient size; at this
#: height the int64 kernel takes coefficients up to about 2.4e7 only
WIDE_HEIGHT = 15
WIDE_PAIRS = 5
WIDE_COEFF = 10 ** 10


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    summarise: Callable[[object], object]
    check: Callable[[object], list]


@dataclass
class Plan:
    ops: list
    patches: list = field(default_factory=list)

    def install(self):
        for p in self.patches:
            p.install()

    def uninstall(self):
        for p in reversed(self.patches):
            p.uninstall()


class FitCapture:
    """Keeps the group `sample_frobenius` fits; the report it returns
    holds only the group's order and orbits."""

    def __init__(self):
        self.last = None
        self._patches = Patches()

    def install(self):
        from cubicdescent import lines27

        def make(fn):
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.last = result[0]
                return result
            captured.__wrapped__ = fn
            return captured

        self._patches.wrap(lines27.minimal_cover_subgroup, make)

    def uninstall(self):
        self._patches.restore()

    def take(self):
        group, self.last = self.last, None
        return group


# ---------------------------------------------------------------------------
# seeded inputs


def _signed(cs: dict, signs) -> dict:
    return {(i, j): c * signs[i] * signs[j] for (i, j), c in cs.items()}


def _dp4(pair):
    from cubicdescent import DP4Surface, QuadForm

    return DP4Surface(QuadForm.from_poly_coeffs(5, pair[0]),
                      QuadForm.from_poly_coeffs(5, pair[1]))


def _int_pair(surface):
    """Integer coefficient dicts of a program-built pair, each form scaled
    to primitive integers (the point set is unchanged)."""
    out = []
    for q in (surface.Q0, surface.Q1):
        cs = {}
        for i in range(5):
            for j in range(i, 5):
                c = Fraction(q.gram[i, j]) * (1 if i == j else 2)
                if c:
                    cs[(i, j)] = c
        den = 1
        for c in cs.values():
            den = den * c.denominator // gcd(den, c.denominator)
        ints = {k: int(c * den) for k, c in cs.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        out.append({k: v // g for k, v in ints.items()})
    return tuple(out)


def _random_form(rng, n, bound):
    return {(i, j): rng.randint(-bound, bound)
            for i in range(n) for j in range(i, n)}


def planted_pair(rng, coeff_bound, coord_bound):
    """A quadric pair with integer coefficients through a planted point
    that has a coordinate 1 (so one diagonal coefficient absorbs the
    value)."""
    while True:
        point = [rng.randint(-coord_bound, coord_bound) for _ in range(5)]
        k = rng.randrange(5)
        point[k] = 1
        pair = []
        for _ in range(2):
            cs = _random_form(rng, 5, coeff_bound)
            cs[(k, k)] -= C.eval_quad(cs, point)
            pair.append(cs)
        if C.pencil_determinant(pair) != [0] * 6:
            return tuple(pair), C.normalise(point)


# ---------------------------------------------------------------------------
# summaries shared by the workloads


def _points(result) -> list:
    return [tuple(p.coords) for p in result.points]


def _sampling_summary(sampling, group) -> dict:
    return {
        "primes": list(sampling.primes),
        "classes": [tuple(c.parts) for c in sampling.classes],
        "anchored": [tuple(a) for a in sampling.anchored_classes],
        "order": sampling.subgroup_order,
        "orbits": sampling.orbit_lengths,
        "group": sorted((tuple(g.t), tuple(g.sigma)) for g in group or ()),
    }


def _check_sampling(quintic, s, paper: bool) -> list:
    problems = []
    if len(s["primes"]) != PRIME_COUNT or s["primes"] != sorted(set(s["primes"])) \
            or s["primes"][-1] >= PRIME_BOUND:
        problems.append(f"sampled primes {s['primes']}")
    for q, parts in zip(s["primes"], s["classes"]):
        problems += C.check_class(quintic, q, parts)
    problems += C.check_fit(s["group"], s["anchored"], s["order"], s["orbits"])
    if paper and (s["order"], s["orbits"]) != (16, PAPER_ORBITS):
        problems.append(f"paper quintic fitted order {s['order']} orbits "
                        f"{s['orbits']}, published 16 {PAPER_ORBITS}")
    return problems


def _line_data(surface):
    line = surface.known_line
    u, v = (tuple(p.coords) for p in line.points)
    l0, l1 = (tuple(f.coeffs) for f in line.forms)
    return {"coeffs": dict(surface.F.coeffs), "points": (u, v),
            "forms": (l0, l1)}


def _check_cubic(c, verdict=None) -> list:
    problems = C.check_line_on_cubic(c["coeffs"], *c["points"])
    if verdict is not None and not problems:
        problems += C.check_cubic_verdict(c["coeffs"], *c["forms"], verdict)
    return problems


# ---------------------------------------------------------------------------
# paper-example


def paper_example(seed: int) -> Plan:
    """The worked example, end to end, on the published pair under a
    seeded change of coordinate signs (heights and the point set are kept,
    up to the same signs)."""
    import cubicdescent as cd
    from cubicdescent import frobenius as fb

    rng = random.Random(seed)
    signs = [1] + [rng.choice((1, -1)) for _ in range(4)]
    pair = (_signed(PAPER_Q0, signs), _signed(PAPER_Q1, signs))
    point = tuple(s * x for s, x in zip(signs, PAPER_POINT))
    surface = _dp4(pair)
    quintic = cd.UniPoly(list(PAPER_QUINTIC))
    capture = FitCapture()

    def run():
        found = cd.search(surface, PAPER_HEIGHT)
        chosen = min(found.points, key=lambda p: (p.height(), p.coords))
        raw = cd.dp4_to_cubic(surface, chosen)
        cubic = cd.greedy_reduce(raw)
        smooth = (cd.smooth_cubic(cubic), cd.smooth_dp4(surface))
        tritangents = cd.tritangent_analysis(surface)
        _, report = cd.run_strategy(quintic)
        sampling = fb.sample_frobenius(report, PRIME_COUNT, PRIME_BOUND)
        group = capture.take()
        counts = []
        for q, cls in list(zip(sampling.primes, sampling.classes))[:LEFSCHETZ_PRIMES]:
            counts.append((q, fb.count_points_cubic(cubic.F, q),
                           fb.count_points_dp4(surface, q), cls.pic_trace()))
        census = fb.census_lines(cubic.F, CENSUS_PRIME)
        return found, chosen, raw, cubic, smooth, tritangents, sampling, \
            group, counts, census

    def summarise(result):
        found, chosen, raw, cubic, smooth, tri, sampling, group, counts, \
            census = result
        return {
            "points": _points(found), "chosen": tuple(chosen.coords),
            "raw": _line_data(raw), "cubic": _line_data(cubic),
            "smooth": smooth,
            "tritangents": [(e.pencil_root if isinstance(e.pencil_root, tuple)
                             else tuple(e.pencil_root.coeffs), e.multiplicity)
                            for e in tri],
            "sampling": _sampling_summary(sampling, group),
            "counts": counts,
            "census": census,
        }

    def check(s):
        pts = s["points"]
        problems = C.check_points(pair, pts, PAPER_HEIGHT)
        problems += C.check_contains(pts, point)
        problems += C.check_against_naive(pair, pts, NAIVE_HEIGHT)
        if pts and s["chosen"] != min(pts, key=lambda x: (max(map(abs, x)), x)):
            problems.append(f"blown-up point {s['chosen']} is not the smallest")
        problems += _check_cubic(s["raw"])
        problems += _check_cubic(s["cubic"], s["smooth"][0])
        problems += C.check_dp4_verdict(pair, s["smooth"][1])
        problems += C.check_tritangents(pair, s["tritangents"])
        problems += _check_sampling(PAPER_QUINTIC, s["sampling"], paper=True)
        for q, n_cubic, n_dp4, trace in s["counts"]:
            problems += C.check_point_counts(q, n_cubic, n_dp4, trace)
        if len(s["counts"]) != LEFSCHETZ_PRIMES:
            problems.append("missing Lefschetz primes")
        sampled = dict(zip(s["sampling"]["primes"], s["sampling"]["classes"]))
        if CENSUS_PRIME in sampled:
            problems += C.check_census(CENSUS_PRIME, s["census"],
                                       sampled[CENSUS_PRIME])
        else:
            problems.append(f"{CENSUS_PRIME} is not a sampled prime")
        return problems

    return Plan([Op("paper", run, summarise, check)], [capture])


# ---------------------------------------------------------------------------
# galois-fit


def galois_fit(seed: int) -> Plan:
    """The `frobenius` command's work on each quintic of a seeded list."""
    import cubicdescent as cd
    from cubicdescent import frobenius as fb

    rng = random.Random(seed)
    chosen = []
    for base in GALOIS_QUINTICS:
        k = rng.choice(GALOIS_SCALES)
        chosen.append((tuple(c * k ** (5 - i) for i, c in enumerate(base)),
                       base == PAPER_QUINTIC))
    rng.shuffle(chosen)
    capture = FitCapture()

    def make(coeffs, paper):
        quintic = cd.UniPoly(list(coeffs))

        def run():
            _, report = cd.run_strategy(quintic)
            return fb.sample_frobenius(report, PRIME_COUNT, PRIME_BOUND), \
                capture.take()

        def summarise(result):
            return _sampling_summary(*result)

        def check(s):
            return _check_sampling(coeffs, s, paper)

        return Op(str(coeffs), run, summarise, check)

    return Plan([make(c, p) for c, p in chosen], [capture])


# ---------------------------------------------------------------------------
# wide-search


def wide_search(seed: int) -> Plan:
    """Exhaustive search on pairs whose coefficients exceed the int64 guard
    at the searched height: the README example's descent, and seeded pairs
    through a planted point."""
    import cubicdescent as cd

    rng = random.Random(seed)
    quintic = cd.UniPoly(list(PAPER_QUINTIC))

    def run_readme():
        surface, _ = cd.run_strategy(quintic)
        return surface, cd.search(surface, WIDE_HEIGHT)

    def summarise_readme(result):
        surface, found = result
        return {"pair": _int_pair(surface), "points": _points(found)}

    def check_readme(s):
        problems = C.check_points(s["pair"], s["points"], WIDE_HEIGHT)
        return problems + C.check_against_naive(s["pair"], s["points"],
                                                WIDE_HEIGHT)

    ops = [Op("readme", run_readme, summarise_readme, check_readme)]
    for i in range(WIDE_PAIRS):
        pair, point = planted_pair(rng, WIDE_COEFF, WIDE_HEIGHT)
        surface = _dp4(pair)

        def check(points, pair=pair, point=point, naive=i == 0):
            problems = C.check_points(pair, points, WIDE_HEIGHT)
            problems += C.check_contains(points, point)
            if naive:
                problems += C.check_against_naive(pair, points, WIDE_HEIGHT)
            return problems

        ops.append(Op(f"planted {i}", lambda s=surface: cd.search(s, WIDE_HEIGHT),
                      _points, check))
    return Plan(ops)


WORKLOADS = {
    "paper-example": paper_example,
    "galois-fit": galois_fit,
    "wide-search": wide_search,
}
