"""Seeded input generation for the four benchmark workloads.

Every workload is a fixed cycle of op *slots*; the seed only chooses the
values inside each slot (masses, labels, (alpha, beta) pairs).  That keeps
the work per run nearly the same from seed to seed, so run-to-run spread
measures the program, not the draw.  The same seed gives byte-identical
inputs: every op is a pure function of ``(workload, seed, index)``.

An :class:`Op` holds one or more CLI argv lists (file arguments are names
relative to the run's work directory, written as ``@name``), the files to
write, what the output checks need to know, and the properties the
manifest counts.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

F = Fraction


@dataclass
class Op:
    kind: str
    argvs: list
    files: dict = field(default_factory=dict)  # name -> JSON-able object
    expect: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)

    def file_bytes(self, name: str) -> bytes:
        return json.dumps(self.files[name], sort_keys=True).encode()

    def digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(json.dumps([self.kind, self.argvs], sort_keys=True).encode())
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.file_bytes(name))
        return h.digest()


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _composition(rng: random.Random, total: int, parts: int, minimum: int = 1) -> list:
    """Random split of ``total`` into ``parts`` integers, each >= minimum."""
    free = total - parts * minimum
    cuts = sorted(rng.randint(0, free) for _ in range(parts - 1))
    bounds = [0] + cuts + [free]
    return [minimum + bounds[i + 1] - bounds[i] for i in range(parts)]


def _factor(name, atoms, diffuse=F(0), trace=True) -> dict:
    """Problem-JSON factor from (label, mass, isolated) triples."""
    out = {
        "name": name,
        "atoms": [
            {"label": lab, "mass": _q(m), "isolated": iso} for lab, m, iso in atoms
        ],
    }
    if diffuse:
        out["diffuse_mass"] = _q(diffuse)
        out["diffuse_state_is_trace"] = trace
    return out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _random_factor(rng, name) -> dict:
    """A factor with 1-6 atoms over a denominator up to ~10^3, optionally a
    diffuse part, optionally non-isolated atoms."""
    den = rng.randint(2, 1000)
    k = rng.randint(1, 6)
    with_diffuse = rng.random() < 0.3
    parts = k + (1 if with_diffuse else 0)
    if den < parts:
        den = parts + rng.randint(0, 20)
    if rng.random() < 0.7:
        # one heavy atom so that tuples fit the deficit budget
        hi = den - (parts - 1)
        big = rng.randint(min(den // 2, hi), hi) if parts > 1 else den
        sizes = [big] + _composition(rng, den - big, parts - 1)
    else:
        sizes = _composition(rng, den, parts)
    diffuse = F(sizes.pop(), den) if with_diffuse else F(0)
    atoms = [
        (f"{name.lower()}{i}", F(s, den), rng.random() >= 0.15)
        for i, s in enumerate(sizes)
    ]
    if len(atoms) == 1 and not diffuse:
        # keep every generated factor non-trivial (not the algebra C)
        m = atoms[0][1]
        atoms = [(atoms[0][0], m * F(den - 1, den), True), (f"{name.lower()}x", m / den, True)]
    return _factor(name, atoms, diffuse, rng.random() < 0.8)


def _is_two_projection(factors) -> bool:
    return len(factors) == 2 and all(
        len(f["atoms"]) == 2 and not f.get("diffuse_mass") for f in factors
    )


def _small_problem(rng) -> dict:
    n = rng.randint(2, 4)
    factors = [_random_factor(rng, f"F{i}") for i in range(n)]
    if _is_two_projection(factors):
        factors.append(_random_factor(rng, f"F{n}"))
    if rng.random() < 0.15:
        factors.append(_factor("C", [("one", F(1), True)]))  # elided by normalize
    return {"factors": factors}


def _chain_problem(rng) -> dict:
    """5-30 factors, each with a dominant atom; deficits share a budget."""
    n = rng.randint(5, 30)
    den = rng.choice([720, 840, 960, 1000])
    budget = rng.randint(den // 5, (9 * den) // 10)
    # each factor gets at least 2 units of deficit so it has a second atom
    budget = max(budget, 2 * n)
    shares = _composition(rng, budget, n, minimum=2)
    factors = []
    for i, d in enumerate(shares):
        name = f"G{i}"
        k = rng.randint(1, min(3, d))
        with_diffuse = d > k and rng.random() < 0.25
        small = _composition(rng, d, k + (1 if with_diffuse else 0))
        diffuse = F(small.pop(), den) if with_diffuse else F(0)
        atoms = [(f"g{i}m", F(den - d, den), True)]
        atoms += [(f"g{i}s{j}", F(s, den), rng.random() >= 0.2) for j, s in enumerate(small)]
        factors.append(_factor(name, atoms, diffuse, rng.random() < 0.8))
    return {"factors": factors}


def _flat_problem(rng) -> dict:
    """One flat factor of 100-300 atoms, all fitting the deficit budget
    against two near-trivial factors: hundreds of tuples."""
    den = 1000
    eps_b = rng.randint(1, 2)
    eps_c = rng.randint(1, 3 - eps_b) if eps_b < 3 else 1
    floor_mass = eps_b + eps_c
    m = rng.randint(100, 300)
    with_diffuse = rng.random() < 0.4
    parts = m + (1 if with_diffuse else 0)
    sizes = _composition(rng, den, parts, minimum=floor_mass)
    diffuse = F(sizes.pop(), den) if with_diffuse else F(0)
    flat = [(f"a{i}", F(s, den), rng.random() >= 0.1) for i, s in enumerate(sizes)]
    b = [("b0", F(den - eps_b, den), True), ("b1", F(eps_b, den), True)]
    c = [("c0", F(den - eps_c, den), True)]
    c += [(f"c{j + 1}", F(1, den), True) for j in range(eps_c)]
    return {
        "factors": [
            _factor("A", flat, diffuse, rng.random() < 0.7),
            _factor("B", b),
            _factor("C2", c),
        ]
    }


def _tail_problem(rng) -> dict:
    """Infinite product: decidable certified tail, or a divergent one."""
    n = rng.randint(1, 4)
    factors = [_random_factor(rng, f"T{i}") for i in range(n)]
    if rng.random() < 0.3:
        return {"factors": factors,
                "tail": {"explicit_deficits": ["1/4", "1/8"],
                         "remainder_sum_lower_bound": "inf"}}
    prefix_min = sum(
        (min(F(1) - F(a["mass"]) for a in f["atoms"]) for f in factors), F(0)
    )
    den = rng.choice([64, 100, 128, 360, 1000])
    while True:
        k = rng.randint(2, 5)
        d = [F(rng.randint(1, den // 20 + 1), den) for _ in range(k)]
        rem = F(rng.randint(0, den // 20 + 1), den)
        total = sum(d, F(0)) + rem
        # Decidable by construction: no single tail factor can carry half of
        # the certified deficit (the engine refuses otherwise).
        if prefix_min + total > 2 * max(max(d), min(rem, F(1))):
            break
    return {
        "factors": factors,
        "tail": {"explicit_deficits": [_q(x) for x in d],
                 "remainder_sum_lower_bound": _q(rem)},
    }


def _refusal(rng, which: int) -> tuple:
    """A problem the engine must refuse with exit 1; returns (kind, obj)."""
    den = rng.randint(3, 1000)
    a = rng.randint(1, den - 1)
    b = rng.randint(1, den - 1)
    two = [
        _factor("P", [("p1", F(a, den), True), ("p2", F(den - a, den), True)]),
        _factor("Q", [("q1", F(b, den), True), ("q2", F(den - b, den), True)]),
    ]
    kinds = ["two_projection", "degenerate", "tail_undecidable", "mass_mismatch",
             "decimal", "duplicate_label"]
    kind = kinds[which % len(kinds)]
    if kind == "two_projection":
        obj = {"factors": two}
    elif kind == "degenerate":
        obj = {"factors": [two[0], _factor("C", [("one", F(1), True)])]}
    elif kind == "tail_undecidable":
        # prefix deficit 2/n <= 1/2, so a tail factor of deficit 1/2 could
        # hold a second heavy atom: the data cannot decide.
        n = max(den, 4)
        obj = {"factors": [_factor(x.upper(), [(f"{x}1", F(n - 1, n), True),
                                               (f"{x}2", F(1, n), True)])
                           for x in ("u", "v")],
               "tail": {"explicit_deficits": ["1/2"], "remainder_sum_lower_bound": "0"}}
    elif kind == "mass_mismatch":
        bad = _factor("P", [("p1", F(a, den), True), ("p2", F(den - a + 1, den), True)])
        obj = {"factors": [bad, two[1], _random_factor(rng, "R")]}
    elif kind == "decimal":
        obj = {"factors": two + [_random_factor(rng, "R")]}
        obj["factors"][0]["atoms"][0]["mass"] = "0.5"
    else:
        dup = _factor("P", [("p1", F(a, den), True), ("p1", F(den - a, den), True)])
        obj = {"factors": [dup, two[1], _random_factor(rng, "R")]}
    return kind, obj


def _conjecture(rng, matrix: bool) -> dict:
    if not matrix:
        return {"X": _random_factor(rng, "X"), "Y": _random_factor(rng, "Y")}

    def algebra():
        while True:
            den = rng.randint(2, 200)
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            total = sum(sizes)
            if den < total:
                den = total + rng.randint(0, 10)
            weights = _composition(rng, den, total)
            blocks, pos = [], 0
            for s in sizes:
                blocks.append({"size": s, "weights": [_q(F(w, den)) for w in weights[pos:pos + s]]})
                pos += s
            if not (len(blocks) == 1 and sizes == [1]):
                return {"blocks": blocks}

    return {"A": algebra(), "B": algebra()}


# One cycle of analyze slots.  Shares: 10 structure ops in JSON and 5 in
# text, 3 refusals, 2 conjecture checks per 20 ops.
ANALYZE_SLOTS = (
    ("small", "json"), ("small", "json"), ("small", "text"), ("chain", "json"),
    ("small", "json"), ("tail", "json"), ("refuse", None), ("chain", "text"),
    ("flat", "json"), ("small", "text"), ("tail", "text"), ("conjecture", "abelian"),
    ("small", "json"), ("refuse", None), ("chain", "json"), ("tail", "json"),
    ("small", "text"), ("conjecture", "matrix"), ("refuse", None), ("small", "json"),
)

REFUSE_SLOTS = tuple(i for i, (slot, _) in enumerate(ANALYZE_SLOTS) if slot == "refuse")


def analyze_op(rng: random.Random, index: int) -> Op:
    slot, fmt = ANALYZE_SLOTS[index % len(ANALYZE_SLOTS)]
    name = f"p{index}.json"
    if slot == "conjecture":
        obj = _conjecture(rng, fmt == "matrix")
        return Op("conjecture", [["conjecture", "--kind", fmt, "@" + name]],
                  {name: obj}, {"kind": fmt, "input": obj},
                  {"class": f"conjecture-{fmt}"})
    if slot == "refuse":
        kind, obj = _refusal(rng, index // len(ANALYZE_SLOTS) * len(REFUSE_SLOTS)
                             + REFUSE_SLOTS.index(index % len(ANALYZE_SLOTS)))
        fmt = "json" if rng.random() < 0.5 else "text"
        return Op("refuse", [["analyze", "@" + name, "--format", fmt]], {name: obj},
                  {"refusal": kind}, {"class": f"refuse-{kind}", "tail": "tail" in obj})
    build = {"small": _small_problem, "chain": _chain_problem,
             "flat": _flat_problem, "tail": _tail_problem}[slot]
    obj = build(rng)
    return Op("analyze", [["analyze", "@" + name, "--format", fmt]], {name: obj},
              {"problem": obj, "format": fmt},
              {"class": slot, "tail": "tail" in obj, "format": fmt})


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

# (summands s, characters c): ideal_count = 2^s * (2^c + 1), thirteen
# sizes from 2^4 to about 2^15, about twice apart.  Each size is one slot of
# the cycle, so the median op is the seventh size (640 ideals) and the tail,
# the 11th-largest op of a run, falls among the 2^13.6 ones behind the few
# 2^15 ones: order statistics that stay inside one size from run to run.
IDEAL_SIZES = (
    (3, 0), (4, 0), (4, 1), (3, 3), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2),
    (9, 3), (11, 1), (12, 1), (11, 4),
)
IDEAL_TEXT_SLOTS = (5, 8)


def ideals_op(rng: random.Random, index: int) -> Op:
    """Three-factor problem with exactly s summands and c characters.

    Factor A carries s isolated atoms of distinct masses above eps plus c
    atoms that become characters (non-isolated above eps, or of mass exactly
    eps: deficit exactly 1); B has a dominant atom of mass 1 - eps.  Only
    the pairs (a, b0) fit the deficit budget.
    """
    s, c = IDEAL_SIZES[index % len(IDEAL_SIZES)]
    den = 997 * rng.randint(1, 3)
    eps = rng.randint(1, 3)
    masses = rng.sample(range(eps + 1, den // 40), s)  # distinct: distinct gammas
    char_masses = [eps if rng.random() < 0.5 else rng.randint(eps + 1, den // 40) for _ in range(c)]
    used = sum(masses) + sum(char_masses)
    atoms = [(f"s{i}", F(m, den), True) for i, m in enumerate(masses)]
    atoms += [(f"k{j}", F(m, den), m == eps) for j, m in enumerate(char_masses)]
    diffuse = F(den - used, den)  # an atom this heavy would fit the budget
    a = _factor("A", atoms, diffuse, rng.random() < 0.5)
    b = _factor("B", [("b0", F(den - eps, den), True), ("b1", F(eps, den), True)])
    obj = {"factors": [a, b, _factor("C", [("one", F(1), True)])]}
    fmt = "text" if index % len(IDEAL_SIZES) in IDEAL_TEXT_SLOTS else "json"
    gammas = sorted((F(m, den) - F(eps, den) for m in masses), reverse=True)
    name = f"i{index}.json"
    return Op("ideals", [["ideals", "@" + name, "--format", fmt]], {name: obj},
              {"s": s, "c": c, "gammas": [_q(g) for g in gammas], "format": fmt},
              {"lattice": 2 ** s * (2 ** c + 1), "format": fmt})


# ---------------------------------------------------------------------------
# oracle and montecarlo: (alpha, beta) pairs
# ---------------------------------------------------------------------------

#: Pairs within this of a pinch without being on it stay out of the oracle
#: mix: there `certify_law` and `moments --compare-law` miss their 1e-8
#: tolerance (alpha=120/331, beta=37/58, alpha+beta-1 = 4.7e-4: error
#: 1.2e-7), a correctness item for the tests.  At 1/100 the error is below
#: 1e-14.
NEAR_PINCH = F(1, 100)


def _near_pinch(a: Fraction, b: Fraction) -> bool:
    return 0 < abs(a - b) < NEAR_PINCH or 0 < abs(a + b - 1) < NEAR_PINCH


def _pair(rng: random.Random, regime: str) -> tuple:
    """A pair in the named regime; masses are k/den with den up to ~10^3."""
    if regime == "half":
        return F(1, 2), F(1, 2)
    while True:
        den = rng.randint(10, 1000)
        a = F(rng.randint(1, den - 1), den)
        if regime == "equal":
            b = a
        elif regime == "complement":
            b = 1 - a
        elif regime == "tiny":
            small = F(rng.randint(1, 3), 1000)
            other = F(rng.randint(1, 999), 1000)
            a, b = (small, other) if rng.random() < 0.5 else (other, 1 - small)
        else:
            b_den = rng.randint(10, 1000)
            b = F(rng.randint(1, b_den - 1), b_den)
            if b == a or a + b == 1:
                continue
        if not _near_pinch(a, b):
            return a, b


def _regime_of(a: Fraction, b: Fraction) -> str:
    if a == b and a + b == 1:
        return "double_pinch"
    if a == b:
        return "pinch_at_a"
    if a + b == 1:
        return "pinch_at_b"
    return "unpinched"


ORACLE_SLOTS = ("generic", "generic", "equal", "generic", "complement",
                "tiny", "generic", "half", "generic", "tiny")


def oracle_op(rng: random.Random, index: int, seen: set) -> Op:
    regime = ORACLE_SLOTS[index % len(ORACLE_SLOTS)]
    while True:
        a, b = _pair(rng, regime)
        # alpha = beta = 1/2 is a single pair; later "half" slots take
        # another double-pinch-free pinched pair so that pairs stay distinct.
        if (a, b) not in seen:
            break
        regime = "equal"
    seen.add((a, b))
    qa, qb = _q(a), _q(b)
    return Op("oracle", [
        ["moments", "--alpha", qa, "--beta", qb, "--max-n", "8", "--compare-law",
         "--format", "json"],
        ["two-proj", "--alpha", qa, "--beta", qb, "--format", "json"],
    ], {}, {"alpha": qa, "beta": qb},
        {"regime": _regime_of(a, b), "tiny_mass": min(a, b, 1 - a, 1 - b) <= F(3, 1000)})


# (dim, trials): pooled sample dim * trials = 2048 in every slot; every
# third op also writes the eigenvalues with --eig-csv, one of each size per
# cycle.
MC_SIZES = ((128, 16), (256, 8), (512, 4))
MC_CSV_SLOTS = (2, 4, 6)

# (alpha, beta) band centres per slot; beta None means beta = alpha (pinch at
# a).  The eigvalsh and KS costs grow with the ranks, so fixed bands keep a
# run's cost from drifting with the seed; the seed moves each mass within
# +-0.05 of its centre.  The two plain 512 slots (5 and 8) have the same
# rank of P, so the tail (11th-largest op) falls among their ops behind
# the 512 --eig-csv ones whether a run has five cycles or six.  alpha + beta stays at least 0.15 away from 1: there
# (pinch at b, and alpha = beta = 1/2) an eigenvalue of the continuous part
# can land within 1e-8 of 1 and be counted as an atom, so `mc` fails now and
# then on a right law (about one op in a few hundred; e.g. --alpha 207/634
# --beta 427/634 --dim 512 --trials 4 --seed 730169922).  That is a
# correctness item for the tests; the oracle workload still covers both
# pinches.
MC_SLOTS = ((0.25, 0.55), (0.35, None), (0.7, 0.55), (0.65, None), (0.45, 0.35),
            (0.8, None), (0.85, 0.4), (0.2, None), (0.8, 0.6))


def _banded(rng: random.Random, centre: float) -> Fraction:
    den = rng.randint(20, 1000)
    k = round((centre + rng.uniform(-0.05, 0.05)) * den)
    return F(min(max(k, 1), den - 1), den)


def montecarlo_op(rng: random.Random, index: int) -> Op:
    dim, trials = MC_SIZES[index % len(MC_SIZES)]
    ca, cb = MC_SLOTS[index % len(MC_SLOTS)]
    a = _banded(rng, ca)
    b = a if cb is None else _banded(rng, cb)
    csv = index % len(MC_SLOTS) in MC_CSV_SLOTS
    name = f"eig{index}.csv"
    argv = ["mc", "--alpha", _q(a), "--beta", _q(b), "--dim", str(dim),
            "--trials", str(trials), "--seed", str(rng.randint(0, 2**31 - 1))]
    if csv:
        argv += ["--eig-csv", "@" + name]
    return Op("mc", [argv], {}, {"alpha": _q(a), "beta": _q(b), "dim": dim,
                                 "trials": trials, "seed": int(argv[argv.index("--seed") + 1]),
                                 "csv": name if csv else None},
              {"size": f"{dim}x{trials}", "eig_csv": csv, "regime": _regime_of(a, b)})


# ---------------------------------------------------------------------------

#: Ops per cycle of each workload's slots.  A run stops only at the end of a
#: cycle, so every run has exactly the stated mix.
CYCLE = {"analyze": len(ANALYZE_SLOTS), "ideals": len(IDEAL_SIZES),
         "oracle": len(ORACLE_SLOTS), "montecarlo": len(MC_SLOTS)}

#: Ops generated per run, whole cycles.  A run goes round its pool again if
#: it outlasts it; the oracle pool holds more distinct pairs than the
#: 256-entry quadrature cache, so going round still misses it.
POOL_SIZE = {"analyze": 4000, "ideals": 260, "oracle": 600, "montecarlo": 180}


def make_pool(workload: str, seed: int, size: int | None = None) -> list:
    rng = random.Random(f"freeprod-bench:{workload}:{seed}")
    size = POOL_SIZE[workload] if size is None else size
    if workload == "oracle":
        seen: set = set()
        return [oracle_op(rng, i, seen) for i in range(size)]
    build = {"analyze": analyze_op, "ideals": ideals_op,
             "montecarlo": montecarlo_op}[workload]
    return [build(rng, i) for i in range(size)]


def pool_digest(pool: list) -> str:
    h = hashlib.sha256()
    for op in pool:
        h.update(op.digest())
    return h.hexdigest()
