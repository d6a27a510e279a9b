"""Seeded inputs for the benchmark workloads.

Standard library only; nothing here imports specpairs.  Each document-based
workload draws from a fixed pool of candidate documents built once from
POOL_SEED, so the outcome of every document the benchmark can ever run is
recorded in expected.json.  The workload seed picks documents from each
class of the pool (one per stratum of three neighbours in estimated cost,
which keeps the per-seed mix steady), assigns the CLI commands in equal
shares, and shuffles the order.

Classes (picked per seed / pool size):

corpus (300 documents per seed, pool 900)
    curve        90 / 270  plane curves with ordinary and brieskorn germs, d 3..30
    arrangement  60 / 180  line arrangements from weak data, d 3..12, incl. the braid arrangement
    explicit     45 / 135  n = 2 and n = 3 explicit Brieskorn-Pham germs
    rhm          30 /  90  rational homology manifolds (n = 1 cusp curves, n = 2 explicit with grF_dims)
    delta_hd     45 / 135  curves and arrangements with a consistent delta_U; n = 2, 3 with hD rows
    invalid      26 /  78  documents that fail validation (exit 1, nothing on stdout)
    crash_degree1 2 /   6  degree 1; passes validation, then raises
    crash_grf     2 /   6  RHM grF_dims above the smooth numbers; passes validation, then raises
    The crash classes are expected to end with exit 1 and nothing on stdout,
    as the README documents for invalid input; until then they count as failed.

large_germ (100 specs per seed, pool 300)
    pencil       34 / 102  Ordinary(m) pencils, m 15..45, plus 0..4 generic lines
    brieskorn    33 /  99  Brieskorn(a, b), Milnor number 60..500, on curves of degree 40..150
    cusps        33 /  99  curves of degree 100..200 with 3..40 cusps and 0..5 nodes
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, gcd, prod

POOL_SEED = 1607_05521

# The CLI commands an op may run on a document, by short name.
COMMANDS = {
    "structured": ["compute", "{path}", "--format", "structured"],
    "table": ["compute", "{path}", "--format", "table"],
    "verify": ["verify", "{path}"],
}

CORPUS_CLASSES = {
    "curve": 90,
    "arrangement": 60,
    "explicit": 45,
    "rhm": 30,
    "delta_hd": 45,
    "invalid": 26,
    "crash_degree1": 2,
    "crash_grf": 2,
}
LARGE_GERM_CLASSES = {"pencil": 34, "brieskorn": 33, "cusps": 33}
STRATUM = 3  # pool size per picked document

# Census workloads: the line count of `census --lines D`.  An op is one row.
CENSUS_LINES = {"census10": 10, "census12": 12}


def census_argv(workload: str, max_rows: int | None = None) -> list[str]:
    argv = ["census", "--lines", str(CENSUS_LINES[workload]), "--format", "structured"]
    return argv if max_rows is None else argv + ["--max-rows", str(max_rows)]


def doc_key(text: str) -> str:
    """Short content hash that keys a document's recorded outcomes."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Small independent formulas used to keep generated documents consistent


def _milnor_dim(n: int, d: int, m: int) -> int:
    if m < 0 or m > (n + 1) * (d - 2):
        return 0
    return sum(
        (-1) ** j * comb(n + 1, j) * comb(m - j * (d - 1) + n, n)
        for j in range(n + 2)
        if m - j * (d - 1) >= 0
    )


def _smooth_middle(n: int, d: int, p: int) -> int:
    return sum(_milnor_dim(n, d, p * d + i - n - 1) for i in range(1, d))


def _totient(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def _ordinary(m: int, count: int = 1) -> dict:
    return {"kind": "ordinary", "multiplicity": m, "count": count}


def _brieskorn(a: int, b: int, count: int = 1) -> dict:
    return {"kind": "brieskorn", "exponents": [a, b], "count": count}


def _germ_numbers(entry: dict) -> tuple[int, int]:
    """(Milnor number, branches) of a built-in curve germ entry."""
    if entry["kind"] == "ordinary":
        m = entry["multiplicity"]
        return (m - 1) ** 2, m
    a, b = entry["exponents"]
    return (a - 1) * (b - 1), gcd(a, b)


def _curve_ok(d: int, r: int, germs: list[dict]) -> bool:
    """The validation constraints a plane curve document must meet."""
    mu_sum = excess = 0
    for g in germs:
        mu, br = _germ_numbers(g)
        mu_sum += mu * g["count"]
        excess += (br - 1) * g["count"]
    mu = (d - 1) ** 2 - mu_sum
    genus2 = mu + 2 * r - d - 1 - excess
    return 1 <= r <= d and mu >= 0 and excess + 1 >= r and genus2 >= 0 and genus2 % 2 == 0


def _curve_doc(d: int, r: int, germs: list[dict], **extra) -> dict:
    doc = {"ambient_dim": 2, "degree": d, "components": r, "singularities": germs}
    doc.update(extra)
    return doc


def _bp_explicit(exponents: tuple[int, ...], count: int = 1, grf: bool = False) -> dict:
    """Consistent explicit data for the Brieskorn-Pham germ with these exponents."""
    n = len(exponents) - 1
    pairs: Counter = Counter()
    per_order: Counter = Counter()
    for choice in product(*(range(1, a) for a in exponents)):
        s = sum(Fraction(i, a) for i, a in zip(choice, exponents))
        if s.denominator == 1:
            pairs[(int(s), n + 1 - int(s), Fraction(0))] += 1
            per_order[1] += 1
        else:
            level = s.numerator // s.denominator
            pairs[(level, n - level, s - level)] += 1
            per_order[s.denominator] += 1
    entry = {
        "kind": "explicit",
        "milnor_number": prod(a - 1 for a in exponents),
        "branches": gcd(*exponents) if n == 1 else 1,
        "alexander": {
            "unit": "1/1",
            "t_power": 0,
            "factors": [[k, c // _totient(k)] for k, c in sorted(per_order.items())],
        },
        "spectral_pairs": [
            [p, q, f"{a.numerator}/{a.denominator}", c]
            for (p, q, a), c in sorted(pairs.items())
        ],
        "count": count,
    }
    if grf:
        dims: Counter = Counter()
        for (p, _, _), c in pairs.items():
            dims[p] += c
        entry["grF_dims"] = [[p, c] for p, c in sorted(dims.items())]
    return entry


def _pairwise_coprime(exponents) -> bool:
    return all(gcd(a, b) == 1 for i, a in enumerate(exponents) for b in exponents[i + 1 :])


# ---------------------------------------------------------------------------
# Candidate generators: each returns (estimated cost, document text)


def _gen_curve(rng: random.Random) -> tuple[int, str]:
    while True:
        d = rng.randint(3, 30)
        r = rng.randint(1, min(d, 3))
        germs = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                germs.append(_ordinary(rng.randint(2, min(d, 6)), rng.randint(1, 4)))
            else:
                germs.append(_brieskorn(rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 4)))
        if _curve_ok(d, r, germs):
            cost = d + sum(_germ_numbers(g)[0] for g in germs)
            return cost, json.dumps(_curve_doc(d, r, germs))


def _weak_data(rng: random.Random, d: int) -> list[int]:
    """A random multiset {m_i} with sum C(m_i, 2) = C(d, 2)."""
    shape = rng.random()
    if d == 6 and shape < 0.3:
        return [3, 3, 3, 3, 2, 2, 2]  # the braid arrangement
    if shape < 0.45:
        m = rng.randint(3, d)  # a pencil of m lines plus generic lines
        return [m] + [2] * (comb(d, 2) - comb(m, 2))
    remaining = comb(d, 2)
    mults = []
    while remaining:
        m = rng.randint(2, min(d, 5))
        if comb(m, 2) <= remaining and (rng.random() < 0.5 or m == 2):
            mults.append(m)
            remaining -= comb(m, 2)
    return sorted(mults, reverse=True)


def _arrangement_doc(d: int, mults: list[int], **extra) -> dict:
    counts = Counter(mults)
    germs = [_ordinary(m, c) for m, c in sorted(counts.items(), reverse=True)]
    return _curve_doc(d, d, germs, line_arrangement=True, **extra)


def _gen_arrangement(rng: random.Random) -> tuple[int, str]:
    d = rng.choice([6, 6] + list(range(3, 13)))
    mults = _weak_data(rng, d)
    return d + len(set(mults)), json.dumps(_arrangement_doc(d, mults))


def _random_bp(rng: random.Random, n: int, coprime: bool = False) -> tuple[int, ...]:
    top = 5 if n == 2 else 4
    while True:
        exps = tuple(rng.randint(2, top + (2 if coprime else 0)) for _ in range(n + 1))
        if not coprime or _pairwise_coprime(exps):
            return exps


def _explicit_doc(rng: random.Random, n: int, grf: bool = False, **extra) -> tuple[int, dict]:
    germs, mu_sum = [], 0
    for _ in range(rng.randint(1, 2)):
        exps = _random_bp(rng, n, coprime=grf)
        count = rng.randint(1, 2)
        germs.append(_bp_explicit(exps, count, grf))
        mu_sum += prod(a - 1 for a in exps) * count
    d = rng.randint(3, 8)
    while (d - 1) ** (n + 1) < mu_sum or (
        grf and any(
            _smooth_middle(n, d, p)
            < sum(c * g["count"] for g in germs for q, c in g["grF_dims"] if q == p)
            for p in range(n + 1)
        )
    ):
        d += 1
    doc = {"ambient_dim": n + 1, "degree": d, "components": 1, "singularities": germs}
    doc.update(extra)
    return d + mu_sum, doc


def _gen_explicit(rng: random.Random) -> tuple[int, str]:
    cost, doc = _explicit_doc(rng, rng.choice([2, 2, 3]))
    return cost, json.dumps(doc)


def _gen_rhm(rng: random.Random) -> tuple[int, str]:
    if rng.random() < 0.5:
        cost, doc = _explicit_doc(rng, 2, grf=True, rational_homology_manifold=True)
        return cost, json.dumps(doc)
    while True:
        d = rng.randint(4, 20)
        germs = []
        for _ in range(rng.randint(1, 2)):
            a, b = rng.choice([(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)])
            germs.append(_brieskorn(a, b, rng.randint(1, 3)))
        if _curve_ok(d, 1, germs):
            doc = _curve_doc(d, 1, germs, rational_homology_manifold=True)
            return d + sum(_germ_numbers(g)[0] for g in germs), json.dumps(doc)


def _gen_delta_hd(rng: random.Random) -> tuple[int, str]:
    shape = rng.random()
    if shape < 0.35:
        cost, text = _gen_curve(rng)
        doc = json.loads(text)
        r = doc["components"]
        doc["delta_U"] = {"unit": "1/1", "t_power": 0, "factors": [[1, r - 1]] if r > 1 else []}
        return cost, json.dumps(doc)
    if shape < 0.7:
        d = rng.randint(3, 12)
        doc = _arrangement_doc(
            d, _weak_data(rng, d),
            delta_U={"unit": "1/1", "t_power": 0, "factors": [[1, d - 1]]},
        )
        return d, json.dumps(doc)
    n = rng.choice([2, 3])
    rows = [[p, n + 1 - p, rng.randint(0, 3)] for p in range(n + 2)]
    cost, doc = _explicit_doc(rng, n, hD=rows)
    return cost, json.dumps(doc)


def _gen_invalid(rng: random.Random) -> tuple[int, str]:
    """A document that validation rejects with exit status 1."""
    kind = rng.randrange(9)
    d = rng.randint(3, 12)
    if kind == 0:  # more components than the degree
        return d, json.dumps(_curve_doc(d, d + rng.randint(1, 3), [_ordinary(2, d)]))
    if kind == 1:  # local Milnor numbers exceed (d-1)^2
        return d, json.dumps(_curve_doc(d, 1, [_brieskorn(2, 3, (d - 1) ** 2)]))
    if kind == 2:  # weak data that does not count C(d, 2) line pairs
        return d, json.dumps(_arrangement_doc(d, [2] * (comb(d, 2) - 1)))
    if kind == 3:  # built-in germ above curves
        return d, json.dumps(
            {"ambient_dim": 3, "degree": d, "components": 1, "singularities": [_ordinary(2)]}
        )
    if kind == 4:  # explicit data whose Alexander degree is not the Milnor number
        _, doc = _explicit_doc(rng, 2)
        doc["singularities"][0]["milnor_number"] += 1
        return d, json.dumps(doc)
    if kind == 5:  # an RHM curve with several components
        return d, json.dumps(
            _curve_doc(d, 2, [_ordinary(2, 1)], rational_homology_manifold=True)
        )
    if kind == 6:  # structurally malformed: degree is not an integer
        return d, json.dumps({"ambient_dim": 2, "degree": str(d), "components": 1})
    if kind == 7:  # unknown singularity kind
        return d, json.dumps(
            _curve_doc(d, 1, [{"kind": "tacnode", "count": rng.randint(1, 3)}])
        )
    text = json.dumps(_curve_doc(d, 1, [_ordinary(2, 1)]))  # truncated JSON
    return d, text[: rng.randint(5, len(text) - 2)]


def _gen_crash_degree1(rng: random.Random) -> tuple[int, str]:
    """A degree-1 document: it passes validation and then raises.  The
    documented outcome is a violation with exit status 1."""
    doc = {"ambient_dim": rng.randint(1, 4), "degree": 1, "components": 1, "singularities": []}
    if rng.random() < 0.5:
        doc["rational_homology_manifold"] = False
    return doc["ambient_dim"], json.dumps(doc)


def _gen_crash_grf(rng: random.Random) -> tuple[int, str]:
    """An RHM curve whose explicit grF_dims exceed the smooth numbers: it
    passes validation and then raises."""
    d = rng.randint(4, 8)
    germ = _bp_explicit((2, 3), rng.randint(1, 2), grf=True)
    germ["grF_dims"] = [[0, (d - 1) * (d - 2) + rng.randint(1, 5)], [1, 1]]
    return d, json.dumps(_curve_doc(d, 1, [germ], rational_homology_manifold=True))


def _gen_pencil(rng: random.Random) -> tuple[int, str]:
    m = rng.randint(15, 45)
    d = m + rng.randint(0, 4)
    mults = [m] + [2] * (comb(d, 2) - comb(m, 2))
    return m * m, json.dumps(_arrangement_doc(d, mults))


def _gen_large_brieskorn(rng: random.Random) -> tuple[int, str]:
    while True:
        a, b = rng.randint(2, 40), rng.randint(2, 40)
        mu = (a - 1) * (b - 1)
        if not 60 <= mu <= 500:
            continue
        d = rng.randint(40, 150)
        germs = [_brieskorn(a, b, rng.randint(1, 3))]
        if rng.random() < 0.5:
            germs.append(_ordinary(2, rng.randint(1, 5)))
        r = rng.randint(1, 2)
        if _curve_ok(d, r, germs):
            return mu + d, json.dumps(_curve_doc(d, r, germs))


def _gen_cusps(rng: random.Random) -> tuple[int, str]:
    d = rng.randint(100, 200)
    germs = [_brieskorn(2, 3, rng.randint(3, 40))]
    nodes = rng.randint(0, 5)
    if nodes:
        germs.append(_ordinary(2, nodes))
    assert _curve_ok(d, 1, germs)
    return d, json.dumps(_curve_doc(d, 1, germs))


GENERATORS = {
    "curve": _gen_curve,
    "arrangement": _gen_arrangement,
    "explicit": _gen_explicit,
    "rhm": _gen_rhm,
    "delta_hd": _gen_delta_hd,
    "invalid": _gen_invalid,
    "crash_degree1": _gen_crash_degree1,
    "crash_grf": _gen_crash_grf,
    "pencil": _gen_pencil,
    "brieskorn": _gen_large_brieskorn,
    "cusps": _gen_cusps,
}

WORKLOAD_CLASSES = {"corpus": CORPUS_CLASSES, "large_germ": LARGE_GERM_CLASSES}


def pool(cls: str, picks: int) -> list[str]:
    """The fixed candidate documents of one class, sorted by estimated cost.

    Distinct documents only: a class draws until it has STRATUM * picks."""
    rng = random.Random(f"{POOL_SEED}:{cls}")
    seen: dict[str, int] = {}
    while len(seen) < STRATUM * picks:
        cost, text = GENERATORS[cls](rng)
        seen.setdefault(text, cost)
    return sorted(seen, key=lambda t: (seen[t], t))


@functools.cache
def all_pools(workload: str) -> dict[str, list[str]]:
    """Every class's pool; built once per process, since no seed changes it."""
    return {cls: pool(cls, picks) for cls, picks in WORKLOAD_CLASSES[workload].items()}


def workload_ops(workload: str, seed: int, pools=None) -> list[tuple[str, str, str]]:
    """The seeded op sequence of a document workload: (class, command, text)."""
    rng = random.Random(f"{workload}:{seed}")
    pools = pools or all_pools(workload)
    ops = []
    commands = sorted(COMMANDS)
    for cls, picks in WORKLOAD_CLASSES[workload].items():
        candidates = pools[cls]
        chosen = [
            candidates[i * STRATUM + rng.randrange(STRATUM)] for i in range(picks)
        ]
        rng.shuffle(chosen)
        offset = rng.randrange(len(commands))
        for i, text in enumerate(chosen):
            ops.append((cls, commands[(i + offset) % len(commands)], text))
    rng.shuffle(ops)
    return ops


def warmup_op(workload: str, pools=None) -> tuple[str, str, str]:
    """A fixed op, the same for every seed, run once during set-up."""
    pools = pools or all_pools(workload)
    cls = "arrangement" if workload == "corpus" else "pencil"
    return cls, "structured", pools[cls][0]
