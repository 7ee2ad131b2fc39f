"""Complete skew-morphism sets for Z_p^n, n <= 3.

Three independent routes produce (pieces of) the same sets:

  * brute force, a pruned DFS over partial permutations (p^n <= 9), its
    leaves validated in one kernel call, the members those that pass;
  * the automorphism block, all of GL(n,p) read as permutations;
  * the non-normal block for odd p, built from the canonical affine
    configurations (i, sigma_2) (unipotent sigma_1, scaling-type sigma_2
    acting on a translation group T), recombined through the CRT
    exponents into s, each seed read off by the orbit map of the regular
    group G (the action of s carried over to G, no skew product built),
    then closed under conjugation by GL(n,p).

Only the configurations with i = 1 are seeded: GL conjugation maps
skew-morphisms to skew-morphisms, and the closure of the i = 1 seeds
holds the seeds of every other i.  That was measured, not proved: the
closure meets the formula at (p,2) for every odd p up to 17 and at
(3,3) and (5,3), and a test finds every other seed in it at (5,2), (7,2)
and (3,3).  The closure step is the completeness argument made
executable: the count against the closed formula is asserted on every
run, so a missed orbit is a finding, and at (3,2) the structured set
must equal the brute set elementwise.  One closure routine serves both
outcomes: full_enum makes (5,3) count-only by default, validating a
sample of the members; everything else is materialized and validated in
full, each member once.  A set travels as one skew_core.SkewBlock of
validated image rows, from the kernel to the JSONL file, put in the
order of skew_core.lex_order once per result.  Nothing merges duplicates: a
repeated member shows as a count mismatch.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from . import fpalg
from . import skew_core as sc
from .fpalg import check_prime


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
    skews: object  # a skew_core.SkewBlock in member order, None when count-only
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
    """The search leaves, validated in one kernel call; the members are those that pass."""
    leaves = K.brute_images(p, n)
    status, order, pi, _ = K.validate_many(p, n, leaves)
    ok = status == K.OK
    return _result(p, n, "brute", [sc.SkewBlock(p, n, leaves[ok], pi[ok], order[ok])])


def _validated_rows(p, n, rows, block, index=None):
    """Computed members as one validated SkewBlock, in one kernel call.

    The rows come from this module, not from the user, so a member that
    breaks the skew law is a finding (AssertionError), not bad input.
    index[r] is the member index the finding names for row r (default r).
    """
    status, order, pi, witness = K.validate_many(p, n, rows)
    bad = np.flatnonzero(status != K.OK)
    if bad.size:
        r = int(bad[0])
        raise AssertionError("p=%d n=%d: %s member %d fails validation (status %d): %s"
                             % (p, n, block, r if index is None else index[r], status[r],
                                sc.status_message(status[r], witness[r])))
    return sc.SkewBlock(p, n, rows, pi, order)


def _result(p, n, method, parts):
    # a repeated member is counted twice, so it shows as a count mismatch
    block = sc.member_block(p, n, parts)
    aut = int(block.aut.sum())
    return EnumerationResult(
        p=p, n=n, method=method, skews=block, count_total=len(block),
        count_aut=aut, count_nonaut=len(block) - aut,
        formula_value=formula_count(p, n))


# ---------------------------------------------------------------------------
# automorphism block


def enum_automorphisms(p, n):
    """All of GL(n,p) as skew-morphisms with constant power function."""
    perms = fpalg.matrix_to_perm(fpalg.gl_matrices_array(n, p), p)
    return _validated_rows(p, n, perms, "GL")


# ---------------------------------------------------------------------------
# canonical non-normal configurations


def _crt_sigma(L, M2, k, p):
    # sigma = sigma1^u sigma2^v with uk + vp = 1; the two parts commute,
    # so sigma has order exactly k*p and sigma^k, sigma^p recover the parts
    u = pow(k, -1, p)
    v = pow(p, -1, k)
    return fpalg.mat_pow(L, u, p) @ fpalg.mat_pow(M2, v, p) % p


def _then(A, B):
    """The permutation rows a then b, x -> b[a[x]], for every row a of A
    and b of B, row a * len(B) + b."""
    return B[:, A].transpose(1, 0, 2).reshape(-1, A.shape[1])


def _config_group(p, n):
    """G = <translations, L^-1> of the configurations with i = 1, as the
    permutation rows g_1^e_1 ... g_n^e_n of its generators, in the
    big-endian order of (e_1, ..., e_n).  G does not depend on sigma_2."""
    add = K.index_tables(p, n)[0]
    trans = [add[:, p ** (n - 1 - j)] for j in range(n)]
    L = fpalg.canonical_unipotent(n, p)
    Li = fpalg.matrix_to_perm(fpalg.mat_pow(L, p - 1, p), p)  # L^-1, as L has order p
    # translation then L^-1
    gens = [trans[0], Li[trans[1]]] if n == 2 else [trans[1], trans[2], Li[trans[0]]]
    rows = K.power_rows(gens[0], 1)  # the identity alone
    for g in gens:
        rows = _then(rows, K.power_rows(g, p))
    return rows


def _canonical_config_seeds(p, n, sigma2_list):
    """One validated seed skew-morphism per canonical (1, sigma_2), read
    off by the orbit map, as a block in sigma2_list order.  The seeds are
    validated in one batch, a failing one named by its index.

    G acts regularly on F_p^n and s fixes 0, so s * g = sigma(g) * s^e
    ("a then b") evaluated at 0 reads sigma(g)^-1(0) = s^-1(g^-1(0)).
    With psi(g) = g^-1(0), the seed is sigma = psi^-1 s^-1 psi on the
    rows of G, which label Z_p^n by their exponents.
    """
    psi = np.argmin(_config_group(p, n), axis=1)
    psi_inv = np.argsort(psi).astype(K.IDX_DTYPE)
    if (psi[psi_inv] != np.arange(p ** n)).any():
        raise ValueError("canonical G is not regular on F_%d^%d" % (p, n))
    L = fpalg.canonical_unipotent(n, p)
    s = fpalg.matrix_to_perm(np.array(
        [_crt_sigma(L, M2, fpalg.matrix_order(M2, p), p) for M2 in sigma2_list]), p)
    return _validated_rows(p, n, psi_inv[np.argsort(s, axis=1)[:, psi]], "seed")


def _scalar_sigma2_list(p):
    return np.arange(2, p)[:, None, None] * np.eye(2, dtype=np.int64)


def enum_nonnormal_n2(p):
    return _enum_nonnormal(p, 2)[0]


def enum_nonnormal_n3(p, count_only=False, sample_rate=0.01):
    """Non-normal block for n=3.  Returns (skews or None, count, validated).

    Count-only hashes and counts the members during the closure and
    validates the seeds plus a deterministic sample at sample_rate; only
    those stay materialized, and skews is None.
    """
    stride = _sample_stride(sample_rate) if count_only else 1
    skews, count = _enum_nonnormal(p, 3, stride)
    return None if count_only else skews, count, len(skews)


def _enum_nonnormal(p, n, stride=1):
    """The non-normal block of (p, n), n in {2, 3}: the seed of every
    canonical (1, sigma_2), closed under GL conjugation and checked
    against the formula, as (validated members, member count); stride
    is aut_closure's."""
    check_prime(p)
    if p == 2:
        raise ValueError("non-normal skew-morphisms need p odd")
    sigma2_list = _scalar_sigma2_list(p) if n == 2 else fpalg.omega_set(p)
    seeds = _canonical_config_seeds(p, n, sigma2_list)
    count, skews = aut_closure(p, n, seeds, stride)
    _check_nonnormal(p, n, count, skews)
    return skews, count


def _check_nonnormal(p, n, count, validated):
    """The block's count must equal the formula, and none of its validated
    members may be an automorphism."""
    expected = nonnormal_count(p, n)
    if count != expected:
        raise AssertionError(
            "non-normal closure gives %d instances, formula says %d" % (count, expected))
    if sc.as_block(validated, p, n).aut.any():
        raise AssertionError("automorphism leaked into the non-normal set")


# ---------------------------------------------------------------------------
# closure under conjugation by GL(n,p)


def _closure_rows(p, n, rows):
    """Breadth-first GL-conjugation closure of the distinct rows, as the
    new conjugates alone.

    The order depends only on the row order and the generator list, so a
    sample taken by position is the same on every run.
    """
    gens = [(a, np.argsort(a).astype(K.IDX_DTYPE))
            for a in fpalg.matrix_to_perm(fpalg.gl_generators(n, p), p)]
    seen = {row.tobytes() for row in rows}
    frontier = list(rows)
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
                    yield row


def aut_closure(p, n, seeds, stride=1):
    """Orbit closure of seed skew-morphisms (a block or a member list)
    under all GL conjugations, as (member count, block of the validated
    members in member order).

    The distinct seeds, each at its first position in the block, are
    kept as they are and come first.  Every stride-th member by closure
    position is validated, in one batch, each named by its closure
    position; stride 1 validates, and returns, every member once.
    """
    seeds = sc.as_block(seeds, p, n)
    seeds = seeds.take(np.sort(np.unique(seeds.images, axis=0, return_index=True)[1]))
    count = len(seeds)
    rows, at = [], []
    for count, row in enumerate(_closure_rows(p, n, seeds.images), count + 1):
        if count % stride == 0:
            rows.append(row)
            at.append(count - 1)
    closed = _validated_rows(p, n, _stack(rows, p ** n), "closure", at)
    return count, sc.member_block(p, n, [seeds, closed])


def _stack(rows, N):
    return np.array(rows, dtype=K.IDX_DTYPE).reshape(len(rows), N)


# ---------------------------------------------------------------------------
# orchestration


def full_enum(p, n, method="structured", count_only=None, sample_rate=0.01,
              workers=None):
    """The (p, n) skew-morphism set by brute force, the structured blocks
    or both, as an EnumerationResult.

    count_only=None makes (p, 3) with p >= 5 count-only: skews is None and
    sample_validated counts the sampled members, one in 1/sample_rate; a
    sample_rate outside (0, 1] raises ValueError on every run.  A
    structured run whose memory model exceeds physical memory raises
    ValueError before anything large is built (_check_fits).  workers is
    accepted and ignored, so that callers that pass it keep working.
    """
    check_prime(p)
    _sample_stride(sample_rate)
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    if method not in ("brute", "structured", "both"):
        raise ValueError("unknown method %r" % method)
    K.check_index_width(p, n)
    if count_only and (method != "structured" or n != 3 or p == 2):
        raise ValueError("no count-only path for %s (%d,%d): it exists for the "
                         "structured method, odd p and n = 3" % (method, p, n))
    if method == "brute":
        return brute_force_enum(p, n)
    if method == "both":
        res_s = full_enum(p, n, "structured", count_only=count_only,
                          sample_rate=sample_rate)
        res_b = brute_force_enum(p, n)
        report = compare_sets(res_s.skews, res_b.skews)
        if not report["equal"]:
            raise AssertionError("structured and brute sets differ: %r" % report)
        res_s.method = "both"
        return res_s

    if count_only is None:
        count_only = n == 3 and p >= 5
    _check_fits(p, n, count_only)
    if count_only:
        _, nn_count, validated = enum_nonnormal_n3(
            p, count_only=True, sample_rate=sample_rate)
        aut_count = fpalg.gl_order(3, p)
        validated += _sampled_gl_validation(p, n, sample_rate)
        total = aut_count + nn_count
        return EnumerationResult(
            p=p, n=n, method="structured", skews=None, count_total=total,
            count_aut=aut_count, count_nonaut=nn_count,
            formula_value=formula_count(p, n), sample_validated=validated)

    parts = [enum_automorphisms(p, n)]
    if p != 2 and n == 2:
        parts.append(enum_nonnormal_n2(p))
    elif p != 2 and n == 3:
        parts.append(enum_nonnormal_n3(p)[0])
    return _result(p, n, "structured", parts)


def _sample_stride(rate):
    """The stride that samples one member in 1/rate; refuses a rate
    outside (0, 1], NaN among them."""
    if not 0 < rate <= 1:
        raise ValueError("sample rate must be in (0, 1]")
    return max(1, int(round(1.0 / rate)))


def _sampled_gl_validation(p, n, rate):
    """Validate a deterministic random sample of GL(n,p) as skew-morphisms."""
    stride = _sample_stride(rate)
    target = -(-fpalg.gl_order(n, p) // stride)
    rng = np.random.default_rng(0)  # a fixed seed: the same sample on every run
    drawn, first = np.zeros((0, n, n), dtype=np.int64), []
    while len(first) < target:
        ms = rng.integers(0, p, size=(max(64, target), n, n))
        drawn = np.concatenate([drawn, ms[fpalg.mat_det(ms, p) != 0]])
        # the first draw of each matrix, in draw order, found by its base-p code
        codes = drawn.reshape(-1, n * n) @ p ** np.arange(n * n)
        first = np.sort(np.unique(codes, return_index=True)[1])
    perms = fpalg.matrix_to_perm(drawn[first[:target]], p)
    return len(_validated_rows(p, n, perms, "sampled GL"))


def physical_memory_bytes():
    """Physical memory of this host, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(p, n, count_only):
    """Reject a structured run whose memory model exceeds physical memory,
    before anything large is built.

    Count-only hashes each non-normal member as its images bytes, a lower
    bound on the key set.  A materialized run is bounded by two int64
    arrays of |GL| x p**n x n, 16 n times the int16 GL rows that
    matrix_to_perm returns; the bound is kept conservative so that the
    refused inputs stay the same.  The members, a block of about 4 p**n
    bytes each, hold less at every p.
    """
    N = p ** n
    if count_only:
        keys, key = nonnormal_count(p, n), N * np.dtype(K.IDX_DTYPE).itemsize
        need, what = keys * key, "hash %d member keys of %d bytes" % (keys, key)
    else:
        gl = fpalg.gl_order(n, p)
        need = 2 * gl * N * n * 8
        what = "build GL through two int64 arrays of %d x %d x %d" % (gl, N, n)
    have = physical_memory_bytes()
    if need > have:
        raise ValueError("%s (%d,%d) would %s, %.1f GB, more than the %.1f GB of physical memory"
                         % ("count-only" if count_only else "materialized", p, n, what,
                            need / 1e9, have / 1e9))


def compare_sets(A, B):
    """Symmetric-difference report for two skew-morphism sets, blocks or
    member lists; they are equal only when neither repeats a member."""
    da = {row.tobytes(): row for row in sc.as_block(A).images}
    db = {row.tobytes(): row for row in sc.as_block(B).images}
    only_a = sorted(da[k].tolist() for k in da.keys() - db.keys())
    only_b = sorted(db[k].tolist() for k in db.keys() - da.keys())
    return {
        "equal": not only_a and not only_b and len(da) == len(A) and len(db) == len(B),
        "count_a": len(A),
        "count_b": len(B),
        "only_a": only_a[:5],
        "only_b": only_b[:5],
    }
