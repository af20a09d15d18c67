"""Output checks made apart from the program.

Exact values that the program returns are turned into complex numbers
here, from their raw root-of-unity histograms or power-basis
coefficients, and compared against the paper's classes, against
properties every modular category has, or against quandle coloring
counts that this module counts by brute force.  Each function returns a
list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-7

# The paper's classes at (q, p, n) = (11, 5, 4).
PAPER_ST_CLASSES = {frozenset({0}), frozenset({1, 4}), frozenset({2, 3})}
PAPER_STW_CLASSES = {frozenset({u}) for u in range(5)}


def root_sums(counts: np.ndarray, order: int) -> np.ndarray:
    """sum_j counts[..., j] * exp(2 pi i j / order)."""
    zeta = np.exp(2j * np.pi * np.arange(order) / order)
    return np.asarray(counts, dtype=np.float64) @ zeta


def cyclo_complex(value) -> tuple[complex, float]:
    """The complex value of an exact cyclotomic number, from its
    power-basis numerators and denominator, with an error scale."""
    num = np.array(value.num, dtype=np.float64)
    zeta = np.exp(2j * np.pi * np.arange(len(num)) / value.order)
    return complex(num @ zeta / value.den), float(np.abs(num).sum() / value.den)


def _close(a: complex, b: complex, scale: float) -> bool:
    return abs(a - b) <= TOL * (1.0 + scale)


class FloatTheory:
    """Complex S, T and W of one theory, summed from the trace histograms."""

    def __init__(self, md, wm=None):
        order = md.root_order
        self.labels = md.labels
        self.dims = md.dims.astype(np.float64)
        self.total_dim = float(md.total_dim)
        self.twist = np.exp(2j * np.pi * md.twist_exps / order)
        self.s = root_sums(md.s_counts, order) / self.total_dim
        self.w = None
        if wm is not None:
            v = root_sums(wm.v_counts, order)
            self.w = v / np.outer(self.twist, self.twist)

    def t_classes(self) -> list[tuple]:
        """(dim, rounded twist) per object: what T and d alone allow."""
        return [
            (int(d), round(t.real, 6) + 0.0, round(t.imag, 6) + 0.0)
            for d, t in zip(self.dims, self.twist)
        ]


def _parse_partition(line: str) -> set:
    body = line.split(":", 1)[1]
    groups = [g.strip(" {}") for g in body.split("}") if g.strip()]
    return {frozenset(int(x.strip()[2:]) for x in g.split(",")) for g in groups}


# ----- distinguish-flagship ------------------------------------------------------


def check_distinguish(output: str, theories: dict, searches: list) -> list[str]:
    """Both partitions against the paper; every witness entry by entry
    against S and T; an obstruction re-derived from T and W for every
    pair that W separates but (S, T) does not."""
    failures = []
    lines = {line.split(":")[0].strip(): line for line in output.splitlines() if ":" in line}
    try:
        st = _parse_partition(lines["(S,T) classes"])
        stw = _parse_partition(lines["(S,T,W) classes"])
    except (KeyError, ValueError) as err:
        return [f"cannot read the partitions from the output: {err!r}"]
    if st != PAPER_ST_CLASSES:
        failures.append(f"(S,T) classes {sorted(map(sorted, st))} differ from the paper's")
    if stw != PAPER_STW_CLASSES:
        failures.append(f"(S,T,W) classes {sorted(map(sorted, stw))} differ from the paper's")

    witnessed = set()
    for name1, name2, with_w, result in searches:
        if not result.equivalent:
            continue
        u1, u2 = int(name1[2:]), int(name2[2:])
        witnessed.add(frozenset({u1, u2}))
        failures += _check_witness(theories[u1], theories[u2], result.permutation, with_w)
    for group in PAPER_ST_CLASSES:
        if len(group) > 1 and group not in witnessed:
            failures.append(f"no equivalence witness for the (S,T) class {sorted(group)}")

    for group in PAPER_ST_CLASSES:
        for u1, u2 in itertools.combinations(sorted(group), 2):
            if _obstruction(theories[u1], theories[u2]) is None:
                failures.append(f"no T-versus-W obstruction separates u={u1} and u={u2}")
    for g1, g2 in itertools.combinations(sorted(PAPER_ST_CLASSES, key=min), 2):
        u1, u2 = min(g1), min(g2)
        if _st_fingerprint(theories[u1]) == _st_fingerprint(theories[u2]):
            failures.append(f"u={u1} and u={u2} share the (d, T, S) fingerprint")
    return failures


def _check_witness(t1: FloatTheory, t2: FloatTheory, perm, with_w: bool) -> list[str]:
    if perm is None or sorted(perm) != list(range(len(t1.labels))) or perm[0] != 0:
        return [f"witness {perm} is not a permutation fixing the unit"]
    p = np.array(perm)
    failures = []
    if not np.array_equal(t1.dims, t2.dims[p]):
        failures.append("witness does not preserve dimensions")
    if np.max(np.abs(t1.twist - t2.twist[p])) > TOL:
        failures.append("witness does not preserve T")
    if np.max(np.abs(t1.s - t2.s[np.ix_(p, p)])) > TOL:
        failures.append("witness does not preserve S")
    if with_w and np.max(np.abs(t1.w - t2.w[np.ix_(p, p)])) > TOL * 100:
        failures.append("witness does not preserve W")
    return failures


def _obstruction(t1: FloatTheory, t2: FloatTheory):
    """Some (anchor, label) with: for every b that T allows as the
    anchor's image and every x that T allows as the label's image,
    W2[b, x] != W1[anchor, label].  Then no bijection matching T and W
    exists.  The program's own anchor B_1_0 and label A_1_4 are tried
    first."""
    keys1, keys2 = t1.t_classes(), t2.t_classes()
    images = {}
    for b, key in enumerate(keys2):
        images.setdefault(key, []).append(b)
    n = len(keys1)
    first = [(t1.labels.index("B_1_0"), t1.labels.index("A_1_4"))]
    for anchor, label in first + list(itertools.product(range(n), repeat=2)):
        bs, xs = images.get(keys1[anchor], []), images.get(keys1[label], [])
        if not bs or not xs:
            return (anchor, label)
        target = t1.w[anchor, label]
        block = t2.w[np.ix_(bs, xs)]
        if np.min(np.abs(block - target)) > 1e-6 * (1 + abs(target)):
            return (anchor, label)
    return None


def _st_fingerprint(t: FloatTheory) -> tuple:
    """Permutation-invariant data of (d, T, S): rounded multisets."""
    dt = sorted(t.t_classes())
    s = sorted((round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0) for z in t.s.ravel())
    return tuple(dt), tuple(s)


# ----- certify-flagship ---------------------------------------------------------


def _passes(output: str, expected: int) -> list[str]:
    lines = [line for line in output.splitlines() if line[:4] in ("PASS", "FAIL")]
    failures = [f"program reports: {line}" for line in lines if line.startswith("FAIL")]
    if len(lines) != expected:
        failures.append(f"expected {expected} verdict lines, read {len(lines)}")
    return failures


def check_modular(output: str, md, table: np.ndarray) -> list[str]:
    """Float S unitary; the float Verlinde formula rounds to the exact
    fusion table; fusion is associative and commutative; c = 0 mod 8."""
    failures = _passes(output, 7)
    if "chiral central charge c = 0 (mod 8)" not in output:
        failures.append("program does not report c = 0 (mod 8)")
    t = FloatTheory(md)
    n = len(t.labels)
    gram = t.s @ t.s.conj().T
    if np.max(np.abs(gram - np.eye(n))) > TOL:
        failures.append("float S is not unitary")
    worst = 0.0
    rounded = np.empty((n, n, n), dtype=np.int64)
    for a in range(n):
        values = (t.s * (t.s[a] / t.s[0])[None, :]) @ t.s.conj().T
        rounded[a] = np.rint(values.real)
        worst = max(worst, float(np.max(np.abs(values - rounded[a]))))
    if worst > 1e-6:
        failures.append(f"float Verlinde values are {worst:.2e} from integers")
    if not np.array_equal(rounded, table):
        failures.append("float Verlinde formula does not round to the exact fusion table")
    if not np.array_equal(table, table.transpose(1, 0, 2)):
        failures.append("fusion is not commutative: N_ab^c != N_ba^c")
    f = table.astype(np.float64)
    flat = f.reshape(n * n, n)
    for a in range(n):
        left = (f[a] @ f.reshape(n, n * n)).reshape(n, n, n)  # sum_e N_ab^e N_ec^d
        right = (flat @ f[a]).reshape(n, n, n)  # sum_e N_bc^e N_ae^d
        if not np.array_equal(left, right):
            failures.append(f"fusion is not associative at a={t.labels[a]}")
            break
    gauss = np.sum(t.dims**2 * t.twist) / t.total_dim
    if abs(gauss - 1) > TOL:
        failures.append(f"Gauss sum over D is {gauss:.6f}, not 1: c != 0 (mod 8)")
    return failures


def check_wmatrix(output: str, md, wm) -> list[str]:
    """The program's verdicts, and from the histograms: W symmetric and
    |W_BA| = |G| = 55 on the (B, A) block."""
    failures = _passes(output, 4)
    t = FloatTheory(md, wm)
    if np.max(np.abs(t.w - t.w.T)) > TOL * np.max(np.abs(t.w)):
        failures.append("float W is not symmetric")
    bs = [i for i, lab in enumerate(t.labels) if lab.startswith("B_")]
    as_ = [i for i, lab in enumerate(t.labels) if lab.startswith("A_")]
    block = np.abs(t.w[np.ix_(bs, as_)])
    if np.max(np.abs(block - 55)) > TOL * 55:
        failures.append("|W| on the (B, A) block is not 55")
    return failures


# ----- braid-invariants -----------------------------------------------------------


def coloring_count(q: int, t: int, strands: int, letters) -> int:
    """Colorings of the closure by the affine quandle x > y = (1-t)x + ty
    on Z_q, counted by pushing every tuple in Z_q^strands through the
    word and keeping those that return to themselves."""
    tuples = np.array(list(itertools.product(range(q), repeat=strands)), dtype=np.int64)
    state = tuples.copy()
    t_inv = pow(t, -1, q)
    for letter in letters:
        i = abs(letter) - 1
        x, y = state[:, i].copy(), state[:, i + 1].copy()
        if letter > 0:  # the left flux conjugates the right one and moves over it
            state[:, i], state[:, i + 1] = ((1 - t) * x + t * y) % q, x
        else:
            state[:, i], state[:, i + 1] = y, (t_inv * (x - (1 - t) * y)) % q
    return int(np.count_nonzero(np.all(state == tuples, axis=1)))


def check_braid(items: list, outputs: list, group, twist_exps, root_order: int) -> list[str]:
    """Markov partners give equal zero-framed invariants; single-colour
    traces equal twist^writhe times the brute-force coloring count."""
    q, _, n = group
    failures = []
    for idx, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        v1, v2, report = out
        z1, s1 = cyclo_complex(v1)
        z2, s2 = cyclo_complex(v2)
        if not _close(z1, z2, s1 + s2):
            failures.append(
                f"item {idx}: {item['partner']['move']} changes the zero-framed"
                f" invariant ({z1:.6f} vs {z2:.6f})"
            )
        if item["single"] is None:
            continue
        k, _ = item["single"]
        count = coloring_count(q, pow(n, k, q), item["strands"], item["letters"])
        writhe = sum(1 if x > 0 else -1 for x in item["letters"])
        theta = np.exp(2j * np.pi * twist_exps[idx] / root_order)
        predicted = theta**writhe * count
        z, scale = cyclo_complex(report.invariant)
        if report.count != count:
            failures.append(f"item {idx}: program counts {report.count} colorings, not {count}")
        if not report.ok:
            failures.append(f"item {idx}: the program's single_color_check reports a mismatch")
        if not _close(z, predicted, scale):
            failures.append(f"item {idx}: single-colour trace {z:.6f} != {predicted:.6f}")
    return failures
