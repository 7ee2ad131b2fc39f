"""Complete skew-morphism sets for Z_p^n, n <= 3.

Three independent routes produce (pieces of) the same sets:

  * brute force, a pruned DFS over partial permutations (p^n <= 9);
  * the automorphism block, all of GL(n,p) read as permutations;
  * the non-normal block for odd p, built from the canonical affine
    configuration (unipotent sigma_1, scaling-type sigma_2 acting on a
    translation group T), recombined through the CRT exponents, extracted
    as skew-morphisms, then closed under conjugation by GL(n,p).

The closure step is the completeness argument made executable: the count
against the closed formula is asserted, and at (3,2) the structured set
must equal the brute set elementwise.  (5,3) is count-only by default
with sampled validation; everything else is materialized and validated
in full.
"""

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from . import fpalg
from . import group_engine as ge
from . import skew_core as sc
from .fpalg import AffineMap, FpMatrix, check_prime


def formula_count(p, n):
    """Closed-form number of skew-morphisms of Z_p^n, n in {1,2,3}."""
    check_prime(p)
    if n == 1:
        return 1 if p == 2 else p - 1
    if n == 2:
        return 6 if p == 2 else 2 * (p + 1) * (p - 1) ** 3
    if n == 3:
        if p == 2:
            return 168
        return (p ** 3 - 1) * (p ** 2 - 1) * (p - 1) * (2 * p ** 3 - 3 * p ** 2 + p + 2)
    raise ValueError("n must be 1, 2 or 3")


def nonnormal_count(p, n):
    """The n_2 block of the count: skew-morphisms whose G is not normal."""
    check_prime(p)
    if p == 2 or n == 1:
        return 0
    if n == 2:
        return (p * p - 1) * (p - 2) * (p - 1)
    if n == 3:
        omega = fpalg.omega_formula_derivation(p)
        return omega * (p ** 3 - 1) * (p + 1) * (p - 1)
    raise ValueError("n must be 1, 2 or 3")


@dataclass
class EnumerationResult:
    p: int
    n: int
    method: str
    skews: list  # None when count-only
    count_total: int
    count_aut: int
    count_nonaut: int
    formula_value: int
    sample_validated: int = 0

    @property
    def match(self):
        return self.count_total == self.formula_value

    def csv_row(self):
        return [self.p, self.n, self.method, self.count_total, self.count_aut,
                self.count_nonaut, self.formula_value, self.match]


CSV_COLUMNS = ["p", "n", "method", "count_total", "count_aut", "count_nonaut",
               "formula_value", "match"]


def write_summary_csv(results, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in results:
            w.writerow(r.csv_row())


# ---------------------------------------------------------------------------
# brute force


def brute_force_enum(p, n):
    arrs = K.brute_images(p, n)
    skews = [_validated(p, n, a, "brute", i) for i, a in enumerate(arrs)]
    return _result_from_skews(p, n, "brute", skews)


def _validated(p, n, images, block, index):
    """A computed member as a validated SkewMorphism.

    The images come from this module, not from the user, so a member
    that breaks the skew law is a finding (AssertionError), not bad input.
    """
    try:
        return sc.validate(p, n, images)
    except sc.SkewValidationError as exc:
        raise AssertionError("p=%d n=%d: %s member %d fails validation (status %s): %s"
                             % (p, n, block, index, exc.status, exc)) from None


def _result_from_skews(p, n, method, skews):
    skews = sorted(set(skews), key=lambda s: tuple(s.images))
    aut = sum(1 for s in skews if s.is_automorphism())
    return EnumerationResult(
        p=p, n=n, method=method, skews=skews, count_total=len(skews),
        count_aut=aut, count_nonaut=len(skews) - aut,
        formula_value=formula_count(p, n))


# ---------------------------------------------------------------------------
# automorphism block


def enum_automorphisms(p, n):
    """All of GL(n,p) as skew-morphisms with constant power function."""
    perms = fpalg.matrices_to_perms(fpalg.gl_matrices_array(n, p), p)
    return [_validated(p, n, row, "GL", i) for i, row in enumerate(perms)]


# ---------------------------------------------------------------------------
# canonical non-normal configurations


def _crt_sigma(L, M2, k, p):
    # sigma = sigma1^u sigma2^v with uk + vp = 1; the two parts commute,
    # so sigma has order exactly k*p and sigma^k, sigma^p recover the parts
    u = pow(k, -1, p)
    v = pow(p, -1, k)
    return AffineMap.from_matrix(L.pow(u) * M2.pow(v))


def _affine_group_from(G_elems, s, order, gens):
    """The group G<s> materialized as an explicit element list.

    The list has |G|*order distinct elements and sits inside the affine
    group generated by the same elements, which has the same size, so it
    is closed; FiniteGroup gets it without a BFS.
    """
    p, n = s.p, s.n
    spows = [AffineMap.identity(p, n)]
    for _ in range(order - 1):
        spows.append(spows[-1] * s)
    elems = [g * sp for g in G_elems for sp in spows]
    if len(set(elems)) != len(G_elems) * order:
        raise ValueError("G<s> collapses; configuration invalid")
    carrier = ge.affine_carrier(p, n)
    return ge.FiniteGroup(carrier, elems, gens)


def _resolve_workers(workers):
    if workers is None:
        workers = int(os.environ.get("SKEWMORPH_WORKERS", "1"))
    return max(1, workers)


def _seed_for_config(p, n, i, M2):
    L = fpalg.canonical_unipotent(n, p)
    carrier = ge.affine_carrier(p, n)
    trans = [AffineMap.translation(fpalg.basis_vector(p, n, j)) for j in range(n)]
    Li = AffineMap.from_matrix(L.pow(-i))
    if n == 2:
        g_gens = (trans[0], trans[1] * Li)
    else:
        g_gens = (trans[1], trans[2], trans[0] * Li)
    G = ge.FiniteGroup.from_generators(carrier, g_gens, cap=p ** n + 1)
    if len(G) != p ** n:
        raise ValueError("canonical G has order %d, expected %d" % (len(G), p ** n))
    k = M2.order()
    s = _crt_sigma(L, M2, k, p)
    X = _affine_group_from(G.elements, s, k * p, g_gens + (s,))
    return sc.extract_skew(X, G, s, g_gens)


def _seed_chunk(args):
    p, n, chunk = args
    return [_seed_for_config(p, n, i, FpMatrix(p, rows)) for i, rows in chunk]


def _canonical_config_seeds(p, n, i_values, sigma2_list, workers=1):
    """Extract one seed skew-morphism per (i, sigma_2) canonical choice.

    Worker processes split the config list into contiguous chunks, so the
    seed order (hence everything downstream) is identical for any count.
    """
    configs = [(i, M2) for i in i_values for M2 in sigma2_list]
    if workers <= 1 or len(configs) < 2 * workers:
        return [_seed_for_config(p, n, i, M2) for i, M2 in configs]
    raw = [(i, M2.rows) for i, M2 in configs]
    bound = -(-len(raw) // workers)
    chunks = [(p, n, raw[a:a + bound]) for a in range(0, len(raw), bound)]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(_seed_chunk, chunks))
    return [sk for part in parts for sk in part]


def _scalar_sigma2_list(p):
    return [FpMatrix.from_array(np.eye(2, dtype=int) * s, p) for s in range(2, p)]


def enum_nonnormal_n2(p, workers=None):
    check_prime(p)
    if p == 2:
        raise ValueError("non-normal skew-morphisms need p odd")
    seeds = _canonical_config_seeds(p, 2, range(1, p), _scalar_sigma2_list(p),
                                    workers=_resolve_workers(workers))
    skews = aut_closure(p, 2, seeds)
    _check_nonnormal(p, 2, len(skews), skews)
    return skews


def enum_nonnormal_n3(p, count_only=None, sample_rate=0.01, workers=None):
    """Non-normal block for n=3.  Returns (skews or None, count, validated).

    p=5 defaults to count-only: members are hashed and counted during the
    closure, a deterministic >=1% sample is validated, and only the seeds
    stay materialized.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("non-normal skew-morphisms need p odd")
    if count_only is None:
        count_only = p >= 5
    omega = sorted(fpalg.omega_set(p), key=lambda M: M.rows)
    seeds = _canonical_config_seeds(p, 3, range(1, p), omega,
                                    workers=_resolve_workers(workers))
    if count_only:
        count, checked = aut_closure_count(p, 3, seeds, sample_rate=sample_rate)
        _check_nonnormal(p, 3, count, checked)
        return None, count, len(checked)
    skews = aut_closure(p, 3, seeds)
    _check_nonnormal(p, 3, len(skews), skews)
    return skews, len(skews), len(skews)


def _check_nonnormal(p, n, count, validated):
    """The block's count must equal the formula, and none of its validated
    members may be an automorphism."""
    expected = nonnormal_count(p, n)
    if count != expected:
        raise AssertionError(
            "non-normal closure gives %d instances, formula says %d" % (count, expected))
    for s in validated:
        if s.is_automorphism():
            raise AssertionError("automorphism leaked into the non-normal set")


# ---------------------------------------------------------------------------
# closure under conjugation by GL(n,p)


def _gl_generator_perms(p, n):
    gens = fpalg.gl_generators(n, p)
    out = []
    for M in gens:
        a = fpalg.matrix_to_perm(M)
        ainv = np.argsort(a).astype(K.IDX_DTYPE)
        out.append((a, ainv))
    return out


def _closure_rows(p, n, seeds):
    """Breadth-first GL-conjugation closure of seeds, as (row, seed) pairs.

    The distinct seeds come first, each paired with its validated object;
    every later row is a new conjugate, paired with None.  The order
    depends only on the seed order and the generator list, so a sample
    taken by position is the same on every run.
    """
    gens = _gl_generator_perms(p, n)
    seen = set()
    frontier = []
    for s in seeds:
        key = s.key()
        if key not in seen:
            seen.add(key)
            frontier.append(s.images)
            yield s.images, s
    while frontier:
        batch = np.stack(frontier)
        frontier = []
        for a, ainv in gens:
            for row in K.conj_batch(batch, a, ainv):
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    row = row.copy()
                    frontier.append(row)
                    yield row, None


def aut_closure(p, n, seeds):
    """Orbit closure of seed skew-morphisms under all GL conjugations.

    The seeds are kept as they are; every new member is validated.
    """
    out = [seed if seed is not None else _validated(p, n, row, "closure", i)
           for i, (row, seed) in enumerate(_closure_rows(p, n, seeds))]
    return sorted(out, key=lambda s: tuple(s.images))


def aut_closure_count(p, n, seeds, sample_rate=0.01):
    """Count-only closure: (member count, the seeds plus every stride-th
    member by closure position, validated)."""
    stride = max(1, int(round(1.0 / sample_rate)))
    count = 0
    checked = []
    for count, (row, seed) in enumerate(_closure_rows(p, n, seeds), 1):
        if seed is not None:
            checked.append(seed)
        elif count % stride == 0:
            checked.append(_validated(p, n, row, "closure", count - 1))
    return count, checked


# ---------------------------------------------------------------------------
# orchestration


def full_enum(p, n, method="structured", count_only=None, sample_rate=0.01,
              workers=None):
    check_prime(p)
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    if method not in ("brute", "structured", "both"):
        raise ValueError("unknown method %r" % method)
    K.check_index_width(p, n)
    if method == "brute":
        return brute_force_enum(p, n)
    if method == "both":
        res_s = full_enum(p, n, "structured", count_only=count_only,
                          sample_rate=sample_rate, workers=workers)
        res_b = brute_force_enum(p, n)
        report = compare_sets(res_s.skews, res_b.skews)
        if not report["equal"]:
            raise AssertionError("structured and brute sets differ: %r" % report)
        res_s.method = "both"
        return res_s

    if count_only is None:
        count_only = n == 3 and p >= 5
    if count_only and n == 3 and p >= 5:
        _check_key_set_fits(p, n)
        nn, nn_count, validated = enum_nonnormal_n3(
            p, count_only=True, sample_rate=sample_rate, workers=workers)
        aut_count = fpalg.gl_order(3, p)
        validated += _sampled_gl_validation(p, n, sample_rate)
        total = aut_count + nn_count
        return EnumerationResult(
            p=p, n=n, method="structured", skews=None, count_total=total,
            count_aut=aut_count, count_nonaut=nn_count,
            formula_value=formula_count(p, n), sample_validated=validated)

    skews = enum_automorphisms(p, n)
    if p != 2 and n >= 2:
        if n == 2:
            skews = skews + list(enum_nonnormal_n2(p, workers=workers))
        else:
            nn, _, _ = enum_nonnormal_n3(p, count_only=False, workers=workers)
            skews = skews + list(nn)
    return _result_from_skews(p, n, "structured", skews)


def _sampled_gl_validation(p, n, rate, seed=0):
    """Validate a deterministic random sample of GL(n,p) as skew-morphisms."""
    stride = max(1, int(round(1.0 / rate)))
    target = -(-fpalg.gl_order(n, p) // stride)
    rng = np.random.default_rng(seed)
    picked = {}
    while len(picked) < target:
        ms = rng.integers(0, p, size=(max(64, target), n, n))
        ms = ms[fpalg._batch_det(ms, p) != 0]
        for m in ms:
            picked.setdefault(m.tobytes(), m)
            if len(picked) >= target:
                break
    perms = fpalg.matrices_to_perms(
        np.stack(list(picked.values())), p)
    status = K.validate_many(p, n, perms)
    if (status != K.OK).any():
        bad = int(np.nonzero(status != K.OK)[0][0])
        raise AssertionError("p=%d n=%d: sampled GL member %d fails validation (status %d)"
                             % (p, n, bad, int(status[bad])))
    return len(picked)


def physical_memory_bytes():
    """Physical memory of this host, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_key_set_fits(p, n):
    """Reject a count-only run whose closure key set cannot fit in memory.

    Each non-normal member is hashed as its images bytes; the payload
    alone is a lower bound on what the set holds.
    """
    keys = nonnormal_count(p, n)
    need = keys * p ** n * np.dtype(K.IDX_DTYPE).itemsize
    have = physical_memory_bytes()
    if need > have:
        raise ValueError(
            "count-only (%d,%d) would hash %d member keys of %d bytes, %.1f GB, "
            "more than the %.1f GB of physical memory"
            % (p, n, keys, need // keys, need / 1e9, have / 1e9))


def compare_sets(A, B):
    """Symmetric-difference report for two skew-morphism collections."""
    da = {s.key(): s for s in A}
    db = {s.key(): s for s in B}
    only_a = [list(map(int, da[k].images)) for k in da.keys() - db.keys()]
    only_b = [list(map(int, db[k].images)) for k in db.keys() - da.keys()]
    only_a.sort()
    only_b.sort()
    return {
        "equal": not only_a and not only_b,
        "count_a": len(da),
        "count_b": len(db),
        "only_a": only_a[:5],
        "only_b": only_b[:5],
    }
