"""Seeded inputs, independent expected answers and answer checkers.

Nothing here imports spincut: every expected answer is computed by code of
the benchmark's own, from the way the inputs are built.

Building blocks (all realizable by construction):

* difference pair (a, mu1, n): weight-a points with determinant weights mu1
  (sign +1) and mu1 - 2na (sign -1).  Its character has the weights
  (mu1 - a)/2 - l*a, l = 0..n-1, each with multiplicity 1.
* product of difference pairs: the points are all sign/determinant
  combinations, so its character is the convolution of the factors'.
* surface mirror (alpha, mu, c, L, N): two dim-2 components with normal
  weight alpha, (mu, +1, chern_L = L) and (mu - 2c*alpha, -1, L - 2cN), chern_N
  = N, L even.  Expanding both integrands as geometric series, everything
  past step c cancels, leaving the weights (mu - (2j+1)*alpha)/2 with
  multiplicity L/2 - (j+1)*N for j = 0..c-1.

Cost-relevant parameters (m, isotropy weights, pair lengths, query
distances) are fixed by a job's position; the seed picks determinant
offsets, signs of Chern numbers, component order and job order.  So two
seeds give different inputs of nearly the same cost.
"""

from __future__ import annotations

import random
from collections import defaultdict

WORKLOADS = ("product-ladder", "deep-count", "cut-roundtrip")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# ---------------------------------------------------------------------------
# Closed-form characters (the benchmark's own)


def pair_character(a: int, mu1: int, n: int) -> dict[int, int]:
    top = (mu1 - a) // 2
    return {top - l * a: 1 for l in range(n)}


def mirror_character(alpha: int, mu: int, c: int, chern_l: int, chern_n: int) -> dict[int, int]:
    out = {}
    for j in range(c):
        mult = chern_l // 2 - (j + 1) * chern_n
        if mult:
            out[(mu - (2 * j + 1) * alpha) // 2] = mult
    return out


def convolve(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = defaultdict(int)
    for w1, m1 in x.items():
        for w2, m2 in y.items():
            out[w1 + w2] += m1 * m2
    return {w: m for w, m in out.items() if m}


def add_chars(*chars: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = defaultdict(int)
    for char in chars:
        for w, m in char.items():
            out[w] += m
    return {w: m for w, m in out.items() if m}


# ---------------------------------------------------------------------------
# Dataset documents (the program's JSON dataset schema)


def product_points(factors: list[tuple[int, int, int]]) -> list[dict]:
    points = [((), 0, 1)]
    for a, mu1, n in factors:
        points = [
            (w + (a,), d + mu, s * sign)
            for w, d, s in points
            for mu, sign in ((mu1, 1), (mu1 - 2 * n * a, -1))
        ]
    return [{"weights": list(w), "det_weight": d, "sign": s} for w, d, s in points]


def product_character(factors: list[tuple[int, int, int]]) -> dict[int, int]:
    char = {0: 1}
    for factor in factors:
        char = convolve(char, pair_character(*factor))
    return char


def mirror_components(alpha: int, mu: int, c: int, chern_l: int, chern_n: int) -> list[dict]:
    return [
        surface(alpha, mu, 1, chern_l, chern_n),
        surface(alpha, mu - 2 * c * alpha, -1, chern_l - 2 * c * chern_n, chern_n),
    ]


def surface(alpha: int, det: int, sign: int, chern_l: int, chern_n: int) -> dict:
    return {
        "dim": 2,
        "normal_weight": alpha,
        "det_weight": det,
        "sign": sign,
        "chern_L": chern_l,
        "chern_N": chern_n,
    }


def dataset(m: int, isolated: list[dict], codim2: list[dict]) -> dict:
    return {"half_dimension": m, "isolated": isolated, "codim2": codim2}


def det_for(rng: random.Random, a: int, lo: int, hi: int) -> int:
    """A determinant weight in [lo, hi] with the parity of the weight a."""
    value = rng.randint(lo, hi)
    return value if (value - a) % 2 == 0 else value + 1


# ---------------------------------------------------------------------------
# product-ladder: character_rational on products of m difference pairs

# (m, jobs): 100 jobs; rank 50 is the 19th of the m=3 rung (ranks 32-61)
# and rank 90 the 5th of the m=5 rung (ranks 86-97), each in the middle of
# a group of jobs with the same weight multiset, so neither percentile falls
# between rungs or groups.  m=6 and m=7 are few because one m=7 job alone
# takes about a second.
LADDER_RUNGS = ((2, 31), (3, 30), (4, 24), (5, 12), (6, 2), (7, 1))


def product_ladder(seed: int) -> list[dict]:
    rng = rng_for("product-ladder", seed)
    jobs = []
    for m, count in LADDER_RUNGS:
        for i in range(count):
            factors = []
            for j in range(m):
                a = (i + j) % 4 + 1
                n = (i + 2 * j) % 3 + 1
                factors.append((a, det_for(rng, a, -12, 12), n))
            rng.shuffle(factors)
            jobs.append(
                {
                    "m": m,
                    "data": dataset(m, product_points(factors), []),
                    "expected": product_character(factors),
                }
            )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# deep-count: multiplicity(polarize(d), beta) one weight at a time

# Each template is a list of blocks: ("P", [(a, n), ...]) is a product of
# difference pairs, ("M", alpha, c, N) a surface mirror.  In "shared"
# datasets every point has one weight tuple; "distinct" ones have one tuple
# per block.  Far queries sit below the support by the listed distances:
# m=2 walks grow linearly with the distance, m=3 walks quadratically.
FAR_M2 = tuple(int(100 * 2 ** (i / 2)) for i in range(14))
FAR_M3 = tuple(int(8 * 2 ** (i / 2)) for i in range(10))
DEEP_TEMPLATES = (
    ("shared", 2, [("P", [(1, 150), (3, 2)])], FAR_M2),
    ("shared", 2, [("P", [(2, 60), (1, 3)])], FAR_M2),
    ("shared", 3, [("P", [(1, 8), (2, 4), (3, 3)])], FAR_M3),
    ("shared", 3, [("P", [(2, 6), (1, 5), (1, 3)])], FAR_M3),
    ("distinct", 2, [("P", [(1, 40), (2, 2)]), ("P", [(2, 20), (3, 2)]), ("P", [(3, 12), (4, 1)])], FAR_M2),
    ("surfaces", 2, [("M", 1, 60, 1), ("M", 2, 25, 2), ("P", [(1, 30), (1, 2)])], FAR_M2),
)


def odd_partition_table(weights: tuple[int, ...], limit: int) -> list[int]:
    """ways[t] = number of odd d_j >= 1 with sum d_j*a_j = t, for t <= limit.

    With d_j = 2e_j + 1 this is coin change for the coins a_j over the
    amount (t - sum a_j)/2, which a single table over the amount answers.
    """
    base = sum(weights)
    amount_limit = max(0, (limit - base) // 2)
    ways = [0] * (amount_limit + 1)
    ways[0] = 1
    for a in weights:
        for v in range(a, amount_limit + 1):
            ways[v] += ways[v - a]
    table = [0] * (limit + 1)
    for t in range(base, limit + 1, 2):
        table[t] = ways[(t - base) // 2]
    return table


def counted_multiplicity(doc: dict, beta: int, tables: dict) -> int:
    """Counting-formula multiplicity from the benchmark's own tables."""
    doubled = 0
    for point in doc["isolated"]:
        target = point["det_weight"] - 2 * beta
        table = tables[tuple(sorted(point["weights"]))]
        if 0 < target < len(table):
            doubled += 2 * point["sign"] * table[target]
        elif target >= len(table):
            raise ValueError(f"table too short for target {target}")
    for comp in doc["codim2"]:
        k_doubled, rest = divmod(comp["det_weight"] - 2 * beta, comp["normal_weight"])
        if rest == 0 and k_doubled > 0 and k_doubled % 2 == 1:
            if comp["dim"] == 0:
                value = 2
            else:
                value = (comp["chern_L"] - comp["chern_N"]) - k_doubled * comp["chern_N"]
            doubled += comp["sign"] * value
    if doubled % 2:
        raise ValueError(f"odd doubled multiplicity at {beta}")
    return doubled // 2


def deep_count(seed: int) -> tuple[list[dict], list[dict]]:
    """(datasets, jobs); a job queries one dataset at one weight."""
    rng = rng_for("deep-count", seed)
    datasets = []
    jobs = []
    for index, (kind, m, blocks, far) in enumerate(DEEP_TEMPLATES):
        isolated: list[dict] = []
        codim2: list[dict] = []
        char: dict[int, int] = {}
        # Top determinant weights near a centre in 10^2..10^4; the centre only
        # shifts the support, and all blocks share it so supports overlap.
        centre = rng.randint(100, 10000)
        for block in blocks:
            if block[0] == "P":
                share = centre // len(block[1])
                factors = [(a, det_for(rng, a, share - 5, share + 5), n) for a, n in block[1]]
                isolated += product_points(factors)
                char = add_chars(char, product_character(factors))
            else:
                _, alpha, c, chern_n = block
                chern_n *= rng.choice((1, -1))
                chern_l = 2 * rng.randint(-3, 3)
                mu = det_for(rng, alpha, centre - 5, centre + 5)
                codim2 += mirror_components(alpha, mu, c, chern_l, chern_n)
                char = add_chars(char, mirror_character(alpha, mu, c, chern_l, chern_n))
        rng.shuffle(isolated)
        rng.shuffle(codim2)
        doc = dataset(m, isolated, codim2)
        lo, hi = min(char), max(char)
        betas = list(range(lo - 2, hi + 3)) + [lo - d for d in far]
        limit = max(p["det_weight"] for p in isolated) - 2 * min(betas)
        tables = {}
        for p in isolated:
            key = tuple(sorted(p["weights"]))
            if key not in tables:
                tables[key] = odd_partition_table(key, limit)
        for beta in betas:
            expected = counted_multiplicity(doc, beta, tables)
            if expected != char.get(beta, 0):
                raise AssertionError(
                    f"benchmark self-check: count {expected} != closed form "
                    f"{char.get(beta, 0)} at {beta} in deep-count dataset {index}"
                )
            jobs.append({"dataset": index, "beta": beta, "expected": expected})
        datasets.append(doc)
    rng.shuffle(jobs)
    return datasets, jobs


# ---------------------------------------------------------------------------
# cut-roundtrip: cut, quantize both halves, check-additivity through cli.main

SPHERE_GRID = range(-3, 4)
CUT_JOBS_PER_KIND = 40


def _m1_cut(rng: random.Random, i: int) -> dict:
    """m=1 point cut: anchored points around one or two dim-0 reduced points."""
    tagged: list[tuple[str, dict, bool]] = []
    plus_char: dict[int, int] = {}
    minus_char: dict[int, int] = {}
    reduced = [{"dim": 0} for _ in range(1 + i % 2)]
    for r in range(len(reduced)):
        t_plus = (i + r) % 4 + 1
        t_minus = (i + 2 * r) % 3 + 1
        # plus: (1, 2t+1, +1) with the induced (1, 1, -1) is the pair (1, 2t+1, t)
        tagged.append(("plus", {"weights": [1], "det_weight": 2 * t_plus + 1, "sign": 1}, rng.random() < 0.5))
        plus_char = add_chars(plus_char, pair_character(1, 2 * t_plus + 1, t_plus))
        # minus: the induced (1, 1, +1) with (1, 1-2t, -1) is the pair (1, 1, t)
        tagged.append(("minus", {"weights": [1], "det_weight": 1 - 2 * t_minus, "sign": -1}, rng.random() < 0.5))
        minus_char = add_chars(minus_char, pair_character(1, 1, t_minus))
    if i % 3:
        side = rng.choice(("plus", "minus"))
        a = i % 4 + 1
        n = i % 3 + 1
        mu1 = det_for(rng, a, -9, 9)
        as_codim2 = rng.random() < 0.5
        tagged.append((side, {"weights": [a], "det_weight": mu1, "sign": 1}, as_codim2))
        tagged.append((side, {"weights": [a], "det_weight": mu1 - 2 * n * a, "sign": -1}, as_codim2))
        extra = pair_character(a, mu1, n)
        if side == "plus":
            plus_char = add_chars(plus_char, extra)
        else:
            minus_char = add_chars(minus_char, extra)
    rng.shuffle(tagged)
    isolated = [(s, p) for s, p, as_c in tagged if not as_c]
    codim2 = [
        (s, {"dim": 0, "normal_weight": p["weights"][0], "det_weight": p["det_weight"], "sign": p["sign"]})
        for s, p, as_c in tagged
        if as_c
    ]
    return _cut_job("m1", 1, isolated, codim2, reduced, plus_char, minus_char)


def _m2_cut(rng: random.Random, i: int) -> dict:
    """m=2 surface cut: anchored surfaces around one or two dim-2 reduced surfaces."""
    tagged: list[tuple[str, dict, bool]] = []
    plus_char: dict[int, int] = {}
    minus_char: dict[int, int] = {}
    reduced = []
    for r in range(1 + i % 2):
        chern_nminus = rng.randint(-3, 3)
        chern_lred = 2 * rng.randint(-2, 2) - chern_nminus
        reduced.append({"dim": 2, "chern_Lred": chern_lred, "chern_Nminus": chern_nminus})
        chern_l = chern_lred + chern_nminus
        c_plus = (i + r) % 3 + 1
        c_minus = (i + 2 * r) % 3 + 1
        # plus: anchored (1, 1+2c, +1, L+2cN) mirrors the induced (1, 1, -1, L)
        tagged.append(("plus", surface(1, 1 + 2 * c_plus, 1, chern_l + 2 * c_plus * chern_nminus, chern_nminus), True))
        plus_char = add_chars(
            plus_char,
            mirror_character(1, 1 + 2 * c_plus, c_plus, chern_l + 2 * c_plus * chern_nminus, chern_nminus),
        )
        # minus: the induced (1, 1, +1, L) mirrors the anchored (1, 1-2c, -1, L-2cN)
        tagged.append(("minus", surface(1, 1 - 2 * c_minus, -1, chern_l - 2 * c_minus * chern_nminus, chern_nminus), True))
        minus_char = add_chars(minus_char, mirror_character(1, 1, c_minus, chern_l, chern_nminus))
    if i % 3:
        side = rng.choice(("plus", "minus"))
        if i % 3 == 1:
            factors = [
                (a, det_for(rng, a, -6, 6), n)
                for a, n in ((i % 4 + 1, i % 3 + 1), ((i + 1) % 4 + 1, 2))
            ]
            extra_parts = [(side, p, False) for p in product_points(factors)]
            extra = product_character(factors)
        else:
            alpha = i % 4 + 1
            c = i % 3 + 1
            chern_n = rng.randint(-3, 3)
            chern_l = 2 * rng.randint(-2, 2)
            mu = det_for(rng, alpha, -9, 9)
            extra_parts = [(side, comp, True) for comp in mirror_components(alpha, mu, c, chern_l, chern_n)]
            extra = mirror_character(alpha, mu, c, chern_l, chern_n)
        tagged += extra_parts
        if side == "plus":
            plus_char = add_chars(plus_char, extra)
        else:
            minus_char = add_chars(minus_char, extra)
    rng.shuffle(tagged)
    isolated = [(s, p) for s, p, is_c in tagged if not is_c]
    codim2 = [(s, p) for s, p, is_c in tagged if is_c]
    return _cut_job("m2", 2, isolated, codim2, reduced, plus_char, minus_char)


def _cut_job(kind, m, isolated, codim2, reduced, plus_char, minus_char) -> dict:
    sides = [s for s, _ in isolated + codim2]
    return {
        "kind": kind,
        "data": dataset(m, [p for _, p in isolated], [c for _, c in codim2]),
        "spec": {
            "assignments": {str(index): side for index, side in enumerate(sides)},
            "reduced": reduced,
        },
        "plus": plus_char,
        "minus": minus_char,
        "original": add_chars(plus_char, minus_char),
    }


def sphere_job(k: int, n: int) -> dict:
    """P_{k,n} with its equator cut (north to plus, south to minus)."""
    data = dataset(
        1,
        [
            {"weights": [1], "det_weight": 2 * k + 2 * n + 1, "sign": 1},
            {"weights": [1], "det_weight": 2 * k + 1, "sign": -1},
        ],
        [],
    )
    spec = {"assignments": {"0": "plus", "1": "minus"}, "reduced": [{"dim": 0}]}
    return {"kind": "sphere", "k": k, "n": n, "data": data, "spec": spec}


def cut_roundtrip(seed: int) -> list[dict]:
    rng = rng_for("cut-roundtrip", seed)
    jobs = [_m1_cut(rng, i) for i in range(CUT_JOBS_PER_KIND)]
    jobs += [_m2_cut(rng, i) for i in range(CUT_JOBS_PER_KIND)]
    jobs += [sphere_job(k, n) for k in SPHERE_GRID for n in SPHERE_GRID]
    rng.shuffle(jobs)
    return jobs


def label(job: dict) -> str:
    """A short description of a job, for the per-job lines of a result file."""
    if "m" in job:
        return f"m={job['m']}"
    if "beta" in job:
        return f"dataset {job['dataset']}, beta {job['beta']}"
    if job["kind"] == "sphere":
        return f"sphere k={job['k']} n={job['n']}"
    return f"{job['kind']} cut"


# ---------------------------------------------------------------------------
# Checkers: each returns None when the answer is right, else a reason.


def check_ladder(job: dict, answer) -> str | None:
    got = {int(w): m for w, m in answer}
    if got != job["expected"]:
        return f"character differs from the convolution of the factors (m={job['m']})"
    return None


def check_deep(job: dict, answer) -> str | None:
    if answer != job["expected"]:
        return f"multiplicity {answer!r} at {job['beta']}, counted {job['expected']}"
    return None


def parse_character(text: str) -> dict[int, int]:
    text = text.strip()
    if text == "(zero representation)":
        return {}
    out = {}
    for line in text.splitlines():
        weight, mult = line.split(":")
        out[int(weight)] = int(mult)
    return out


def parse_additivity(text: str) -> tuple[dict, dict, dict, str]:
    lines = text.strip().splitlines()
    original, plus, minus = {}, {}, {}
    for line in lines[:-1]:
        weight, rest = line.split(":")
        o, rest = rest.split("=")
        p, q = rest.split(" + ")
        w = int(weight)
        for table, value in ((original, o), (plus, p), (minus, q)):
            value = int(value.strip().strip("()"))
            if value:
                table[w] = value
    return original, plus, minus, lines[-1] if lines else ""


def sphere_expectations(k: int, n: int, closed_form, cut_identity) -> tuple[dict, dict, dict]:
    """P_{k,n} characters from the program's catalogue formulas."""
    window = range(-20, 21)
    (pk, pn), (mk, mn) = cut_identity(k, n)

    def char(kk, nn):
        return {w: closed_form(kk, nn, w) for w in window if closed_form(kk, nn, w)}

    return char(k, n), char(pk, pn), char(mk, mn)


def check_cut(job: dict, answer, sphere_funcs=None) -> str | None:
    codes, plus_text, minus_text, check_text = answer
    if codes != [0, 0, 0, 0]:
        return f"exit codes {codes}"
    try:
        plus = parse_character(plus_text)
        minus = parse_character(minus_text)
        original, row_plus, row_minus, verdict = parse_additivity(check_text)
    except ValueError as exc:
        return f"unreadable output: {exc}"
    if verdict != "ADDITIVITY HOLDS":
        return f"verdict {verdict!r}"
    if job["kind"] == "sphere":
        exp_original, exp_plus, exp_minus = sphere_expectations(job["k"], job["n"], *sphere_funcs)
    else:
        exp_original, exp_plus, exp_minus = job["original"], job["plus"], job["minus"]
    if plus != exp_plus or minus != exp_minus:
        return "a half's character differs from its expected character"
    if add_chars(plus, minus) != exp_original or original != exp_original:
        return "the halves do not sum to the original's character"
    if row_plus != plus or row_minus != minus:
        return "check-additivity rows differ from the quantized halves"
    return None
