"""Benchmark workloads: set-up, one operation, and the correctness gate.

Each operation makes the calls the ``enum``, ``verify`` and ``example``
commands make, through the public ``skewmorph`` API.  ``op`` returns what
the gate needs; ``check`` returns the list of failed checks, empty when
the operation's output is correct.  A workload runs the same inputs in
every operation of a run; the seed picks them.
"""

import collections
import hashlib
import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cfg(p, n):
    return "p%d_n%d" % (p, n)


def stem(p, n, method="structured"):
    return "%s_%s" % (cfg(p, n), method)


class Enum:
    """full_enum runs written the way ``skewmorph enum`` writes them.

    jobs: (p, n, method, outputs) with outputs a subset of {"jsonl", "csv"}.
    These inputs have no random part, so the seed is not used.
    """

    seeded = False

    def __init__(self, sm, ref, jobs):
        self.sm = sm
        self.ref = ref
        self.jobs = jobs

    def setup(self, seed, workdir):
        self.workdir = workdir

    def _path(self, kind, job):
        p, n, method, _ = job
        prefix = "skews" if kind == "jsonl" else "summary"
        return os.path.join(self.workdir, "%s_%s.%s" % (prefix, stem(p, n, method), kind))

    def op(self):
        out = []
        for job in self.jobs:
            p, n, method, outputs = job
            res = self.sm.full_enum(p, n, method=method, workers=1)
            if "csv" in outputs:
                self.sm.write_summary_csv([res], self._path("csv", job))
            if "jsonl" in outputs:
                self.sm.write_jsonl(res.skews, self._path("jsonl", job))
            out.append(res)
        return out

    def check(self, results):
        bad = []
        for job, res in zip(self.jobs, results):
            p, n, method, outputs = job
            name = stem(p, n, method)
            if not res.match or res.count_total != self.ref["counts"][cfg(p, n)]:
                bad.append("%s: count %d, formula %d" % (name, res.count_total, res.formula_value))
            for kind in outputs:
                key = "%s.%s" % (name, kind)
                if sha256_file(self._path(kind, job)) != self.ref["sha256"][key]:
                    bad.append("%s: sha256 differs from the reference" % key)
        return bad


class Verify:
    """Classify sets read back from JSONL, as ``skewmorph verify`` does
    with its default affine mode, then run a skew-product round trip on a
    sample of one of the sets.

    trips: None, or (p, n, size), the set the round-trip sample comes from
    and its target size.  The sample is stratified by sigma's order with a
    fixed share per order, because the skew product's size, and so the
    cost, grows with the order.  The seed picks the sampled affine
    searches on normal members and the round-trip members inside each
    stratum.
    """

    seeded = True
    affine = "nonnormal"
    sample_rate = 0.05

    def __init__(self, sm, ref, sets, trips=None):
        self.sm = sm
        self.ref = ref
        self.sets = sets
        self.trips = trips

    def setup(self, seed, workdir):
        self.seed = seed
        self.inputs = []
        self.members = []
        for p, n in self.sets:
            path = os.path.join(workdir, "skews_%s.jsonl" % stem(p, n))
            skews = self.sm.full_enum(p, n, workers=1).skews
            self.sm.write_jsonl(skews, path)
            self.inputs.append(path)
            if self.trips and self.trips[:2] == (p, n):
                self.members = stratified_sample(skews, self.trips[2], seed)

    def op(self):
        # one helper call per set, so that a set's records and reports are
        # freed before the next set and the round trips run
        sets = [self._classify(path) for path in self.inputs]
        return sets, [self._round_trip(sk) for sk in self.members]

    def _classify(self, path):
        sv = self.sm.structure_verify
        skews = self.sm.read_jsonl(path)
        rows = self.sm.sweep_classify(skews, affine=self.affine,
                                      sample_rate=self.sample_rate, seed=self.seed)
        sv.write_classified_jsonl(path + ".classified",
                                  [(sk, rep, aff) for sk, (rep, aff) in zip(skews, rows)])
        hist = collections.Counter(rep.case for rep, _ in rows)
        violations = sum(1 for sk, (rep, _) in zip(skews, rows)
                         if sv.theorem1_violations(sk, rep))
        missing = sum(1 for _, aff in rows if aff is not None and not aff.found)
        return len(skews), dict(hist), violations, missing

    def _round_trip(self, sk):
        X = self.sm.build_skew_product(sk)
        FX = X.as_finite_group()
        gens = FX.generators[: sk.n]
        back = self.sm.extract_skew(FX, FX.subgroup(gens), X.sigma_pair(), gens)
        return back == sk, X.derived_is_abelian()

    def check(self, results):
        sets, trips = results
        bad = []
        for (p, n), path, (records, hist, violations, missing) in zip(
                self.sets, self.inputs, sets):
            name = cfg(p, n)
            if sha256_file(path) != self.ref["sha256"][stem(p, n) + ".jsonl"]:
                bad.append("%s: input sha256 differs from the reference" % name)
            if records != self.ref["counts"][name]:
                bad.append("%s: %d records" % (name, records))
            if hist != self.ref["cases"][name]:
                bad.append("%s: case histogram %r" % (name, hist))
            if violations or missing:
                bad.append("%s: %d violations, %d affine misses" % (name, violations, missing))
        if self.trips and not self.members:
            bad.append("no round-trip sample")
        if not all(same for same, _ in trips):
            bad.append("round trip returned a different skew-morphism")
        # Ito: a product of two abelian subgroups is metabelian
        if not all(metabelian for _, metabelian in trips):
            bad.append("skew product with a non-abelian derived subgroup")
        return bad


def stratified_sample(skews, size, seed):
    """About `size` members of `skews`, a fixed share of each order of sigma."""
    by_order = collections.defaultdict(list)
    for sk in skews:
        by_order[sk.order].append(sk)
    rng = np.random.default_rng(seed)
    members = []
    for order in sorted(by_order):
        group = by_order[order]
        take = min(len(group), max(1, round(size * len(group) / len(skews))))
        members += [group[i] for i in sorted(rng.choice(len(group), take, replace=False))]
    return members


class Groups:
    """The reference groups e1-e3, built and checked as ``skewmorph
    example`` does.  They have no random part, so the seed is not used."""

    seeded = False

    def __init__(self, sm, examples):
        self.sm = sm
        self.examples = examples

    def setup(self, seed, workdir):
        pass

    def op(self):
        return [self.sm.build_and_verify_example(tag) for tag in self.examples]

    def check(self, reports):
        bad = ["%s: claims failed" % rep.name for rep in reports if not rep.ok]
        if len(reports) != len(self.examples):
            bad.append("%d example reports" % len(reports))
        return bad


def make(name, sm, ref):
    """The named workload, built on the skewmorph package sm."""
    if name == "enum":
        # (7,2) is dominated by seed construction and extraction, (3,3) and
        # (3,2) "both" by validation and brute force
        return Enum(sm, ref, [(7, 2, "structured", ("jsonl", "csv")),
                              (3, 3, "structured", ("jsonl",)),
                              (3, 2, "both", ())])
    if name == "verify":
        return Verify(sm, ref, [(7, 2), (3, 3)], trips=(7, 2, 32))
    if name == "groups":
        return Groups(sm, ("e1", "e2", "e3"))
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("enum", "verify", "groups")
