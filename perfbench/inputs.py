"""Seeded input generation for the three workloads.

Only the standard library is used here, so inputs can be generated (and
compared across seeds) without importing the program.  Every input a
workload sends is drawn from ``random.Random(seed)``; the program receives
only the generated requests.

Inputs are organised in *rounds*.  A round is the smallest unit whose cost
mix is the same for every seed: the seed chooses the order and the fine
detail of each request, never how many requests of each size a round holds.
That keeps throughput comparable across seeds while still exercising the
full input range.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("verify-large", "desk-cli", "racah-stream")

# verify-large: ROADMAP's large config, one op per round.
LARGE_SIG = (8, 2, -2)
LARGE_Q = "13/10"
LARGE_WINDOW = (10, 10, 10)
PRECISION = 50

# desk-cli: desk config at q = 13/10, 50 digits.
DESK_SIG = (4, 2, -2)
DESK_Q = "13/10"
DESK_WINDOW = 6
GENERATORS = ("A11", "A12", "A13", "A21", "A22", "A23", "A31", "A32", "A33")
# The golden commands of tests/test_cli.py and the files they must reproduce.
GOLDEN_BASIS = (["basis", "--sig", "3,1,-1", "--lmax", "1", "--q", "1/2",
                 "--format", "json"], "basis_u_small.json")
GOLDEN_RACAH = (["racah", "--mode", "exact", "--q", "13/10", "1", "1", "1",
                 "1", "1", "1", "--format", "csv"], "racah_exact.csv")
DESK_KINDS = ("verify", "verify-exact", "weyl", "matrix", "basis", "racah")

# racah-stream: q values and spin classes.  Per round, for every q and
# request kind: SMALL requests with spins <= 5, MEDIUM with spins <= 10 and
# one LARGE request for each of the LADDER_STEPS values of a ladder of top
# spins (up to 20, or 30 for exact requests).  Every round thus holds the
# whole ladder: the large requests dominate a round's time, so a round that
# held only part of the ladder would cost more or less depending on the seed.
RACAH_QS = ("1/2", "9/10", "1", "13/10", "2", "3")
RACAH_KINDS = ("exact", "float", "bracket")
LADDER_STEPS = 8
SMALL, MEDIUM = 6 * LADDER_STEPS, 2 * LADDER_STEPS
LARGE_TOP = {"exact": 30, "float": 20, "bracket": 20}


def _half(x: Fraction) -> str:
    return str(Fraction(x))


def _half_range(lo: Fraction, hi: Fraction, whole_steps=False):
    """lo, lo + 1/2, ... up to hi; with whole_steps, lo, lo + 1, ... (the
    values that keep a triangle's perimeter integral)."""
    out = []
    x = Fraction(lo)
    step = Fraction(1) if whole_steps else Fraction(1, 2)
    while x <= hi:
        out.append(x)
        x += step
    return out


def _ladder(top: int):
    """LADDER_STEPS half-integer spins evenly spaced from 21/2 to top."""
    lo, hi = 21, 2 * top                            # in halves
    return [Fraction(round(lo + (hi - lo) * i / (LADDER_STEPS - 1)), 2)
            for i in range(LADDER_STEPS)]


def racah_args(rng: random.Random, top: Fraction):
    """Six half-integers (a, b, e, d, c, f) obeying all four triangles, a = top."""
    a = Fraction(top)
    halves = _half_range(Fraction(0), a)
    while True:
        b = rng.choice(halves)
        c = rng.choice(_half_range(abs(a - b), a, whole_steps=True))
        d = rng.choice(halves)
        e_lo, e_hi = abs(c - d), min(c + d, a)
        f_lo, f_hi = abs(b - d), min(b + d, a)
        if e_lo > e_hi or f_lo > f_hi:
            continue
        e = rng.choice(_half_range(e_lo, e_hi, whole_steps=True))
        # f must close (a, e, f) and (b, d, f) with integral perimeters.
        fs = [f for f in _half_range(f_lo, f_hi, whole_steps=True)
              if abs(a - e) <= f <= a + e and (a + e + f).denominator == 1]
        if not fs:
            continue
        f = rng.choice(fs)
        return [_half(x) for x in (a, b, e, d, c, f)]


def _bracket(rng: random.Random, ell: int):
    """A signature, a U label (k, ell, MU) and a T label (s, p, M) at its weight."""
    f3 = rng.randint(-3, 0)
    f2 = f3 + rng.randint(2, 5)
    f1 = f2 + rng.randint(0, 4)
    k = rng.randint(0, f1 - f2)
    two_u = f1 - f2 - k + ell
    drop = rng.randint(0, two_u)                    # U - MU
    mu = Fraction(two_u, 2) - drop
    # match_labels: weight equality leaves s free in [s_lo, s_hi].
    s_lo = max(0, ell - drop)
    s_hi = min(ell + k, ell - drop + (f1 - f2))
    s = rng.randint(s_lo, s_hi)
    p = drop - ell + s
    t = Fraction(f2 - f3 + p + s - 2, 2)
    m = t + 1 + (ell + k - s)
    return {"sig": [f1, f2, f3], "u": [k, ell, _half(mu)],
            "t": [s, p, _half(m)]}


def _racah_request(rng: random.Random, kind: str, q: str, top: Fraction):
    if kind == "bracket":
        return {"kind": kind, "q": q, **_bracket(rng, int(top))}
    return {"kind": kind, "q": q, "args": racah_args(rng, top)}


def racah_rounds(seed: int, nrounds: int):
    rng = random.Random(seed)
    ladders = {kind: _ladder(LARGE_TOP[kind]) for kind in RACAH_KINDS}
    rounds = []
    for _ in range(nrounds):
        reqs = []
        for kind in RACAH_KINDS:
            for q in RACAH_QS:
                for _ in range(SMALL):
                    top = Fraction(rng.randint(1, 10), 2)
                    reqs.append(_racah_request(rng, kind, q, top))
                for _ in range(MEDIUM):
                    top = Fraction(rng.randint(11, 20), 2)
                    reqs.append(_racah_request(rng, kind, q, top))
                for top in ladders[kind]:
                    reqs.append(_racah_request(rng, kind, q, top))
        rng.shuffle(reqs)
        rounds.append(reqs)
    return rounds


def _desk_weight(rng: random.Random):
    """The weight of a random U label of the desk window."""
    f1, f2, f3 = DESK_SIG
    ell = rng.randint(0, DESK_WINDOW)
    k = rng.randint(0, f1 - f2)
    drop = rng.randint(0, f1 - f2 - k + ell)
    return f"{f1 + ell - drop},{f2 + k + drop},{f3 - k - ell}"


def desk_argv(rng: random.Random, kind: str):
    sig = ",".join(str(x) for x in DESK_SIG)
    common = ["--q", DESK_Q, "--precision", str(PRECISION)]
    if kind == "verify":
        return ["verify", "--sig", sig, *common]
    if kind == "verify-exact":
        return ["verify", "--sig", sig, "--mode", "exact", *common]
    if kind == "weyl":
        return ["weyl", "--sig", sig, "--weight", _desk_weight(rng),
                "--via-racah", *common]
    if kind == "matrix":
        return ["matrix", "--sig", sig, "--gen", rng.choice(GENERATORS),
                "--basis", rng.choice("ut"), *common]
    if kind == "basis":
        return list(GOLDEN_BASIS[0])
    if kind == "racah":
        return list(GOLDEN_RACAH[0])
    raise ValueError(kind)


def desk_rounds(seed: int, nrounds: int):
    rng = random.Random(seed)
    rounds = []
    for _ in range(nrounds):
        kinds = rng.sample(DESK_KINDS, len(DESK_KINDS))
        rounds.append([{"kind": k, "argv": desk_argv(rng, k)} for k in kinds])
    return rounds


def large_rounds(seed: int, nrounds: int):
    # The large config is fixed by ROADMAP; the seed has nothing to choose.
    return [[{"kind": "verify-large"}] for _ in range(nrounds)]


# Rounds are cycled when a run outlasts them.  A racah-stream round takes
# about 3 s, so a run repeats its rounds; every request builds a fresh
# context, so a repeated request costs what it cost the first time, and the
# parent's references are computed once per distinct request.
ROUNDS = {"verify-large": 4, "desk-cli": 16, "racah-stream": 4}


def cost_class(req):
    """Requests of one class cost about the same: the same kind and, on
    racah-stream, the same q and top spin (a bracket's ell)."""
    if "q" not in req:
        return req["kind"]
    top = req["u"][1] if req["kind"] == "bracket" else req["args"][0]
    return req["kind"], req["q"], top


def generate(workload: str, seed: int):
    """The workload's rounds for this seed: a list of lists of request dicts."""
    make = {"verify-large": large_rounds, "desk-cli": desk_rounds,
            "racah-stream": racah_rounds}[workload]
    return make(seed, ROUNDS[workload])
