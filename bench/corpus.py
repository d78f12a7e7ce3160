"""Seeded problem corpora for the three benchmark workloads.

Every problem's expected outcome follows from how it was built, never from a
run of the program:

* ``{z - a, c}`` satisfies the corona condition with minimum ``c**2``;
* ``f * {1, z}`` with ``f`` zero free on the closed disk satisfies it;
* ``(z - w) * {g1, g2}`` with ``|w| < 1`` has a common zero at ``w`` and
  fails it;
* ``f * A`` and ``A`` are isomorphic for a zero-free ``f`` (the factor adds a
  harmonic term to ``log u``);
* for ``theta1(0) = 1`` and ``theta2(0) = 0`` the Laplacian of ``log u`` at the
  origin is ``4 |theta2'(0)|**2``, so pairs with different ``|theta2'(0)|``
  are not isomorphic;
* distinct weights, or Hardy against a weighted Bergman space, never are.

Every problem file asks for ``target_gap`` = 5% of the smallest sampled
minimum of u among its modules that satisfy the corona condition, so a
certificate must prove at least a twentieth of the true minimum.  (With the default
target of 1e-6, today's epsilon over minimum ratio jumps by a factor of 100
between rotations of one pair.)

Magnitudes (and so each problem's cost) do not depend on the seed: a family
with ``S`` members takes the midpoints of ``S`` equal strata of its parameters
(``strata``), or points of a Halton sequence (``halton``), so the corpus covers
each range evenly and two seeds give equally hard corpora.  ``random.Random(seed)``
draws the phases of all coefficients and roots, the small parameters that
barely move the cost, and which section holds which module.  Families are
interleaved by a fixed schedule.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

HARDY = None  # a base is None (Hardy) or the weight alpha of A^2_alpha
# target_gap as a share of the sampled minimum of u: below 0.1, since the
# certifier reports CoronaFailure where u < 10 * target_gap
TARGET_SHARE = 0.05
npp = np.polynomial.polynomial


@dataclass(frozen=True)
class Module:
    """One quotient module: a base and two multipliers as coefficient lists."""

    base: float | None
    num1: tuple
    den1: tuple
    num2: tuple
    den2: tuple

    def section(self, name):
        return "\n".join(
            [
                f"[{name}]",
                f"base = {format_base(self.base)}",
                f"theta1 = {format_function(self.num1, self.den1)}",
                f"theta2 = {format_function(self.num2, self.den2)}",
                "",
            ]
        )


@dataclass
class Problem:
    """One problem file, the subcommand to run on it, and what must come out."""

    name: str
    family: str
    command: str
    modules: dict  # section name -> Module
    expect: dict  # exit code and per-command expectations
    grid: tuple | None = None  # (r_max, n_r, n_theta)
    oracle_degree: int | None = None
    params: dict = field(default_factory=dict)
    min_u: dict = field(default_factory=dict)  # section name -> sampled minimum of u
    target_gap: float = 0.0

    def __post_init__(self):
        self.min_u = {name: sampled_min_u(m) for name, m in self.modules.items()}
        outcomes = self.expect.get("modules", {})
        self.target_gap = TARGET_SHARE * min(
            v for name, v in self.min_u.items() if outcomes.get(name, "certified") == "certified"
        )

    def text(self):
        parts = [m.section(name) for name, m in self.modules.items()]
        if self.grid is not None:
            r_max, n_r, n_theta = self.grid
            parts.append(f"[grid]\nr_max = {r_max!r}\nn_r = {n_r}\nn_theta = {n_theta}\n")
        tolerances = f"[tolerances]\ntarget_gap = {self.target_gap!r}\n"
        if self.oracle_degree is not None:
            tolerances += f"oracle_degree = {self.oracle_degree}\n"
        parts.append(tolerances)
        return "\n".join(parts)


def u_values(mod, z):
    """|theta1(z)|**2 + |theta2(z)|**2 from the module's coefficient lists."""
    t1 = npp.polyval(z, np.asarray(mod.num1)) / npp.polyval(z, np.asarray(mod.den1))
    t2 = npp.polyval(z, np.asarray(mod.num2)) / npp.polyval(z, np.asarray(mod.den2))
    return np.abs(t1) ** 2 + np.abs(t2) ** 2


def sampled_min_u(mod, n_r=128, n_theta=512):
    """Minimum of u on a polar grid of the closed disk (centre and rim included)."""
    r = np.linspace(0.0, 1.0, n_r + 1)
    phi = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = (r[:, None] * np.exp(1j * phi)[None, :]).ravel()
    return float(np.min(u_values(mod, z)))


# ---------------------------------------------------------------------------
# literals in the problem-file grammar

def format_base(base):
    if base is None:
        return "hardy"
    if base == 0.0:
        return "bergman"
    return f"bergman(alpha={base!r})"


def _coef(c):
    c = complex(c)
    re, im = c.real + 0.0, c.imag + 0.0
    if im == 0.0:
        return repr(re)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"


def format_function(num, den):
    body = "[" + ",".join(_coef(c) for c in num) + "]"
    if len(den) == 1 and den[0] == 1:
        return "poly:" + body
    return "rat:" + body + "/[" + ",".join(_coef(c) for c in den) + "]"


def _mul(a, b):
    return tuple(complex(c) for c in np.convolve(np.asarray(a, complex), np.asarray(b, complex)))


def _power(a, k):
    out = (1 + 0j,)
    for _ in range(k):
        out = _mul(out, a)
    return out


ONE = (1 + 0j,)
Z = (0j, 1 + 0j)


# ---------------------------------------------------------------------------
# stratified sampling

def _radical_inverse(i, base=2):
    out, denom = 0.0, 1.0
    while i:
        denom *= base
        i, digit = divmod(i, base)
        out += digit / denom
    return out


def halton():
    """Seed-independent low-discrepancy points in the unit cube (bases 2-13)."""
    i = 0
    while True:
        i += 1
        yield [_radical_inverse(i, b) for b in (2, 3, 5, 7, 11, 13)]


def strata(count, secondary=False):
    """The midpoints of ``count`` equal strata of the unit interval, as an iterator.

    A main parameter visits them in van der Corput order, so any prefix spans
    the range; a secondary one (``secondary=True``) in golden-ratio order, so
    the two are paired the same way in every corpus.
    """
    if secondary:
        key = [(i * 0.6180339887498949) % 1.0 for i in range(count)]
    else:
        key = [_radical_inverse(i) for i in range(count)]
    values = [0.0] * count
    for rank, i in enumerate(sorted(range(count), key=key.__getitem__)):
        values[i] = (rank + 0.5) / count
    return iter(values)


def _lerp(lo, hi, u):
    return lo + (hi - lo) * u


def _phase(rng):
    return cmath.exp(2j * math.pi * rng.random())


# ---------------------------------------------------------------------------
# multiplier families

def near_dip(rng, u, u2):
    """``{z - a, c}``: c in 0.05-0.2 and |a| in 0.3-0.7; min u = c**2."""
    c = _lerp(0.05, 0.2, u)
    a = _lerp(0.3, 0.7, u2) * _phase(rng)
    mod = Module(HARDY, (-a, 1 + 0j), ONE, (c * _phase(rng),), ONE)
    return mod, {"a": [a.real, a.imag], "c": c}


def scaling(rng, u, k, b_range):
    """``(b + z)**k * {1, z}`` with |b| in ``b_range``: zero free on the closed disk."""
    b = _lerp(*b_range, u) * _phase(rng)
    f = _power((b, 1 + 0j), k)
    mod = Module(HARDY, f, ONE, _mul(f, Z), ONE)
    return mod, {"b": [b.real, b.imag], "k": k}


def rational_pair(rng, u, u2):
    """``{1/(1 - z/r1), z/(1 - z/r2)}``, |r1| in 1.5-3, |r2| in 2.25-3.

    theta1 has no zero and a pole outside the closed disk, so u > 0.
    """
    r1 = _lerp(1.5, 3.0, u) * _phase(rng)
    r2 = _lerp(2.25, 3.0, u2) * _phase(rng)
    mod = Module(HARDY, ONE, (1 + 0j, -1 / r1), Z, (1 + 0j, -1 / r2))
    return mod, {"r1": [r1.real, r1.imag], "r2": [r2.real, r2.imag]}


# common zeros sit at centres of dyadic boxes of depth <= 2: elsewhere
# today's certifier can flood for up to a minute before failing (see CHANGES.md)
ZERO_SITES = (0j, 0.25 + 0.25j, -0.25 + 0.25j, -0.25 - 0.25j, 0.25 - 0.25j,
              0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j)


def common_zero(rng, u):
    """``(z - w) * {1 + s z, z - v}``: a common zero at ``w``, |w| <= 0.71."""
    w = ZERO_SITES[min(int(u * len(ZERO_SITES)), len(ZERO_SITES) - 1)]
    s = _lerp(0.0, 0.5, rng.random()) * _phase(rng)
    v = w + _lerp(0.3, 0.6, rng.random()) * _phase(rng)
    g = (-w, 1 + 0j)
    mod = Module(HARDY, _mul(g, (1 + 0j, s)), ONE, _mul(g, (-v, 1 + 0j)), ONE)
    return mod, {"w": [w.real, w.imag]}


def mild_pair(rng, base, rational, q):
    """``{(1 + s z)/d, t z + p z**2}``: certifies in well under 100 boxes.

    ``d`` is 1 or ``1 - z/r`` with |r| in 5-8; the magnitudes come from the
    unit-cube point ``q``, the phases from ``rng``.  theta1(0) = 1 and
    theta2(0) = 0, so the Laplacian of log u at 0 is ``4 |t|**2``.
    """
    s = _lerp(0.0, 0.2, q[0]) * _phase(rng)
    t = _lerp(0.1, 0.5, q[1]) * _phase(rng)
    return _mild(rng, base, rational, s, t, q)


def _mild(rng, base, rational, s, t, q):
    p = _lerp(0.0, 0.1, q[2]) * _phase(rng)
    den = ONE
    if rational:
        r = _lerp(5.0, 8.0, q[3]) * _phase(rng)
        den = (1 + 0j, -1 / r)
    return Module(base, (1 + 0j, s), den, (0j, t, p), ONE)


def _scaled(mod, num, den):
    return Module(
        mod.base,
        _mul(mod.num1, num), _mul(mod.den1, den),
        _mul(mod.num2, num), _mul(mod.den2, den),
    )


def _grid(rng, u, lo, hi, r_lo, r_hi):
    points = 10 ** _lerp(math.log10(lo), math.log10(hi), u)
    n_r = max(4, round(math.sqrt(points / 4)))
    n_theta = max(8, round(points / n_r))
    return (round(_lerp(r_lo, r_hi, rng.random()), 6), n_r, n_theta)


BASES = (HARDY, 0.0, 0.5, 1.5)


# ---------------------------------------------------------------------------
# workloads

CORONA_SCHEDULE = ("dip", "rational", "zero", "scaling", "dip",
                   "tight", "rational", "scaling", "dip", "zero")
FIELD_SCHEDULE = ("curvature", "iso", "curvature", "not-iso", "curvature",
                  "weight", "curvature", "cross", "curvature", "iso")
VERIFY_SCHEDULE = ("one", "one", "one", "one", "two", "one", "one", "one", "one", "two")


def _counts(schedule, n):
    return Counter(schedule[i % len(schedule)] for i in range(n))


def corona_hard(seed, n=50):
    """``diskmod corona`` on two-module files.

    Each file holds a main module from one family and a cheap companion
    ``s (b + z) * {1, z}``, |b| in 2-3, in random order; the constant ``s``
    gives the companion the main module's minimum of u (its own when the main
    module has a common zero).  Families:

    * ``dip``: near-dip pairs; certify.
    * ``scaling``: ``(b + z)**k * {1, z}``, k = 1 or 2 with |b| in 2-3, and
      k = 3 with |b| in 2.8-3 (|b| = 2 at k = 3 needs 1.85M of the 2M-box
      budget); certify.
    * ``rational``: denominator roots at radius 1.5-3 and 2.25-3; certify.
    * ``zero``: a common zero at the centre of a dyadic box (``ZERO_SITES``);
      must fail with a witness near it.
    * ``tight``: ``(b + z)**4 * {1, z}`` with |b| in 1.25-1.35.  u >= (|b|-1)**8
      > 0, so the pair satisfies the corona condition, but the certifier gives
      up (a known weakness, kept in on purpose).  Larger |b| is left out: at
      |b| = 1.5 the certifier runs 64 s before giving up.
    """
    rng = random.Random(seed)
    k_cycle = (2, 1, 3, 2, 1)
    keys, seen = [], {}
    for i in range(n):
        fam = CORONA_SCHEDULE[i % len(CORONA_SCHEDULE)]
        if fam == "scaling":
            fam = ("scaling", k_cycle[seen.get(fam, 0) % len(k_cycle)])
            seen["scaling"] = seen.get("scaling", 0) + 1
        keys.append(fam)
    counts = {key: keys.count(key) for key in dict.fromkeys(keys)}
    primary = {key: strata(c) for key, c in counts.items()}
    secondary = {key: strata(c, secondary=True) for key, c in counts.items()}
    companions = strata(n, secondary=True)
    problems = []
    for i, key in enumerate(keys):
        fam = key[0] if isinstance(key, tuple) else key
        u, u2 = next(primary[key]), next(secondary[key])
        if fam == "dip":
            main, params = near_dip(rng, u, u2)
            outcome = "certified"
        elif fam == "scaling":
            k = key[1]
            main, params = scaling(rng, u, k, (2.8, 3.0) if k == 3 else (2.0, 3.0))
            outcome = "certified"
        elif fam == "rational":
            main, params = rational_pair(rng, u, u2)
            outcome = "certified"
        elif fam == "zero":
            main, params = common_zero(rng, u)
            outcome = "corona_failure"
        else:
            main, params = scaling(rng, u, 4, (1.25, 1.35))
            outcome = "certified"
        companion, cparams = scaling(rng, next(companions), 1, (2.0, 3.0))
        if outcome == "certified":
            scale = math.sqrt(sampled_min_u(main) / sampled_min_u(companion))
            companion = _scaled(companion, (scale,), ONE)
            cparams["scale"] = scale
        main_first = rng.random() < 0.5
        names = ("moduleA", "moduleB") if main_first else ("moduleB", "moduleA")
        modules = dict(sorted({names[0]: main, names[1]: companion}.items()))
        outcomes = {names[0]: outcome, names[1]: "certified"}
        params = {"main": names[0], names[0]: params, names[1]: cparams}
        problems.append(
            Problem(
                name=f"corona-{i:03d}",
                family=fam,
                command="corona",
                modules=modules,
                expect={
                    "exit": 0 if outcome == "certified" else 2,
                    "modules": outcomes,
                },
                params=params,
            )
        )
    return problems


def field_grid(seed, n=150):
    """``diskmod curvature`` and ``diskmod decide`` on grids of 1e4-1e5 points.

    Multipliers come from ``mild_pair`` (polynomial or rational, alternating).
    Decide cases: ``iso`` (B is A times a zero-free factor 1 + r z or
    1/(1 - z/r)), ``not-iso`` (same base, |theta2'(0)| 0.1-0.3 against
    0.35-0.5), ``weight`` (two distinct weighted Bergman spaces) and ``cross``
    (Hardy against a weighted Bergman space).
    """
    rng = random.Random(seed)
    points = halton()
    counts = _counts(FIELD_SCHEDULE, n)
    mains = {fam: strata(c) for fam, c in counts.items()}
    seen = dict.fromkeys(counts, 0)
    problems = []
    for i in range(n):
        fam = FIELD_SCHEDULE[i % len(FIELD_SCHEDULE)]
        k = seen[fam]
        seen[fam] += 1
        grid = _grid(rng, next(mains[fam]), 1e4, 1e5, 0.7, 0.9)
        rational = k % 2 == 1
        base = BASES[k % len(BASES)]
        q = next(points)
        if fam == "curvature":
            modules = {"moduleA": mild_pair(rng, base, rational, q)}
            expect = {"exit": 0}
        elif fam == "iso":
            a = mild_pair(rng, base, rational, q)
            if (k // 2) % 2 == 0:
                r = _lerp(0.05, 0.15, q[4]) * _phase(rng)
                b = _scaled(a, (1 + 0j, r), ONE)
            else:
                r = _lerp(6.0, 10.0, q[4]) * _phase(rng)
                b = _scaled(a, ONE, (1 + 0j, -1 / r))
            modules = {"moduleA": a, "moduleB": b}
            expect = {"exit": 0, "outcome": "Isomorphic", "detail": "Theorem 4.4"}
        elif fam == "not-iso":
            q2 = next(points)
            lo = _lerp(0.1, 0.3, q[4]) * _phase(rng)
            hi = _lerp(0.35, 0.5, q[5]) * _phase(rng)
            s1 = _lerp(0.0, 0.2, q[0]) * _phase(rng)
            s2 = _lerp(0.0, 0.2, q2[0]) * _phase(rng)
            pair = (_mild(rng, base, rational, s1, lo, q), _mild(rng, base, not rational, s2, hi, q2))
            if rng.random() < 0.5:
                pair = pair[::-1]
            modules = {"moduleA": pair[0], "moduleB": pair[1]}
            expect = {"exit": 3, "outcome": "NotIsomorphic", "detail": "Theorem 4.4"}
        elif fam == "weight":
            alphas = rng.sample((0.0, 0.5, 1.5, 3.0), 2)
            a = mild_pair(rng, alphas[0], rational, q)
            b = _scaled(a, (1 + 0j, _lerp(0.05, 0.2, q[4]) * _phase(rng)), ONE)
            modules = {"moduleA": a, "moduleB": Module(alphas[1], *_fields(b))}
            expect = {"exit": 3, "outcome": "NotIsomorphic", "detail": "Theorem 4.5"}
        else:
            alpha = (0.0, 0.5, 1.5)[k % 3]
            a = mild_pair(rng, HARDY, rational, q)
            b = mild_pair(rng, alpha, not rational, next(points))
            if rng.random() < 0.5:
                a, b = b, a
            modules = {"moduleA": a, "moduleB": b}
            expect = {"exit": 3, "outcome": "NotIsomorphic", "detail": "Theorem 4.7"}
        problems.append(
            Problem(
                name=f"field-{i:03d}",
                family=fam,
                command="curvature" if fam == "curvature" else "decide",
                modules=modules,
                expect=expect,
                grid=grid,
                params={"points": grid[1] * grid[2], "r_max": grid[0], "rational": rational},
            )
        )
    return problems


def _fields(mod):
    return mod.num1, mod.den1, mod.num2, mod.den2


def verify_oracle(seed, n=50):
    """``diskmod verify`` on one- and two-module files.

    oracle_degree is 120 + 180 u**4 for a stratified u (120-300, weighted
    toward the low end); grids hold 1e3-1e4 points with r_max in 0.6-0.8.
    Multipliers come from ``mild_pair``, half of them rational.
    """
    rng = random.Random(seed)
    points = halton()
    counts = _counts(VERIFY_SCHEDULE, n)
    mains = {fam: strata(c) for fam, c in counts.items()}
    grids = {fam: strata(c, secondary=True) for fam, c in counts.items()}
    seen = dict.fromkeys(counts, 0)
    problems = []
    for i in range(n):
        fam = VERIFY_SCHEDULE[i % len(VERIFY_SCHEDULE)]
        k = seen[fam]
        seen[fam] += 1
        degree = 120 + round(180 * next(mains[fam]) ** 4)
        grid = _grid(rng, next(grids[fam]), 1e3, 1e4, 0.6, 0.8)
        names = ("moduleA",) if fam == "one" else ("moduleA", "moduleB")
        modules = {
            name: mild_pair(rng, BASES[(k + j) % len(BASES)], (k + j) % 2 == 1, next(points))
            for j, name in enumerate(names)
        }
        problems.append(
            Problem(
                name=f"verify-{i:03d}",
                family=fam,
                command="verify",
                modules=modules,
                expect={"exit": 0},
                grid=grid,
                oracle_degree=degree,
                params={"points": grid[1] * grid[2], "r_max": grid[0], "oracle_degree": degree},
            )
        )
    return problems


WORKLOADS = {
    "corona-hard": corona_hard,
    "field-grid": field_grid,
    "verify-oracle": verify_oracle,
}
