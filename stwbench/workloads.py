"""The benchmark's workloads and the inputs it generates for them.

Every workload runs at the flagship group (q, p, n) = (11, 5, 4).  A
round is a list of jobs; each job runs in a fresh process, because every
call of the `stw` command pays the cold caches of `double`, `cyclotomic`
and `modular`.
"""

from __future__ import annotations

import random

GROUP = (11, 5, 4)
THEORIES = (0, 1, 2, 3, 4)

# Labels of the flagship's simple objects by quantum dimension: five I_*
# of dimension 1, two I_* and the 22 A_l_m of dimension 5, and the 20
# B_k_s of dimension 11.
ALL_LABELS = (
    [f"I_{j}" for j in range(7)]
    + [f"A_{l}_{m}" for l in (1, 2) for m in range(11)]
    + [f"B_{k}_{s}" for k in range(1, 5) for s in range(5)]
)
B_LABELS = [lab for lab in ALL_LABELS if lab.startswith("B_")]

# The make-up of one braid-invariants round: (kind, strands, word length,
# closures, colour pool, Markov moves allowed).  Strand counts, word
# lengths and the colour dimensions of the walk-bound closures are fixed,
# so the cost of a round hardly depends on the seed; the seed picks the
# letters, the colours and the theory of each closure.  A round lasts a
# few seconds, so each round's time averages over the machine's slow
# swings in speed, which last seconds.  Stabilisation is
# kept to words of at most three strands, so that no partner word walks
# more than 11^5 basis tuples.
BRAID_BATCH = (
    ("call", 2, 4, 240, "all", ("conjugate", "stabilise")),
    ("call", 3, 6, 64, "all", ("conjugate", "stabilise")),
    ("call", 4, 8, 32, "all", ("conjugate",)),
    ("walk", 5, 12, 24, "B", ("conjugate",)),
    ("single", 2, 5, 12, "B", ("conjugate", "stabilise")),
    ("single", 3, 6, 12, "B", ("conjugate", "stabilise")),
    ("single", 4, 8, 8, "B", ("conjugate",)),
)


def _components(strands: int, letters: list[int]) -> list[list[int]]:
    """Closure components as lists of 0-based bottom positions."""
    at = list(range(strands))
    for letter in letters:
        i = abs(letter) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    top_of = {strand: pos for pos, strand in enumerate(at)}
    seen, comps = set(), []
    for start in range(strands):
        if start in seen:
            continue
        comp, j = [], start
        while j not in seen:
            seen.add(j)
            comp.append(j)
            j = top_of[j]
        comps.append(comp)
    return comps


def _closure(rng: random.Random, strands: int, length: int, pool, single: bool):
    letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
    colors = [""] * strands
    if single:
        label = rng.choice(pool)
        colors = [label] * strands
    else:
        for comp in _components(strands, letters):
            label = rng.choice(pool)
            for j in comp:
                colors[j] = label
    return letters, colors


def _markov_partner(rng: random.Random, strands: int, letters, colors, moves):
    """A Markov-equivalent colored word: a conjugate g w g^-1 (colours
    carried across the conjugating crossing) or a stabilisation w s_n^+-1
    (the new strand joins the component through position n)."""
    move = rng.choice(moves)
    sign = rng.choice((1, -1))
    if move == "conjugate":
        g = sign * rng.randint(1, strands - 1)
        moved = list(colors)
        i = abs(g) - 1
        moved[i], moved[i + 1] = moved[i + 1], moved[i]
        return {"move": move, "strands": strands,
                "letters": [g] + list(letters) + [-g], "colors": moved}
    return {"move": move, "strands": strands + 1,
            "letters": list(letters) + [sign * strands],
            "colors": list(colors) + [colors[strands - 1]]}


def braid_batch(seed: int) -> list[dict]:
    """The closures of one braid-invariants round, from the seed alone."""
    rng = random.Random(seed)
    items = []
    for kind, strands, length, count, pool_name, moves in BRAID_BATCH:
        pool = B_LABELS if pool_name == "B" else ALL_LABELS
        for _ in range(count):
            single = kind == "single"
            letters, colors = _closure(rng, strands, length, pool, single)
            item = {
                "kind": kind,
                "u": rng.choice(THEORIES),
                "strands": strands,
                "letters": letters,
                "colors": colors,
                "partner": _markov_partner(rng, strands, letters, colors, moves),
                "single": None,
            }
            if single:
                _, k, s = colors[0].split("_")
                item["single"] = [int(k), int(s)]
            items.append(item)
    return items


def round_jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one round of a workload; each job is one process."""
    if workload == "distinguish-flagship":
        return [{"kind": "cli", "argv": ["distinguish", "--all"], "theories": list(THEORIES),
                 "check": "distinguish", "ops": 1}]
    if workload == "certify-flagship":
        return [
            {"kind": "cli", "argv": ["modular", "--u", "1"], "theories": [1],
             "check": "modular", "ops": 1},
            {"kind": "cli", "argv": ["wmatrix", "--u", "1"], "theories": [1],
             "check": "wmatrix", "ops": 1},
        ]
    if workload == "braid-invariants":
        items = braid_batch(seed)
        return [{"kind": "braid", "items": items, "theories": list(THEORIES),
                 "check": "braid", "ops": len(items)}]
    raise ValueError(f"unknown workload {workload!r}")


def setup_theories(workload: str) -> list[int]:
    """The theories whose contexts a workload's processes build in set-up."""
    return [1] if workload == "certify-flagship" else list(THEORIES)


WORKLOADS = ("distinguish-flagship", "certify-flagship", "braid-invariants")
