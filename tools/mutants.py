"""Mutation probe: one-line mutants of src/skewmorph, each run against a
pytest selection in a temporary copy of the tree.

From the repository root:

    python tools/mutants.py                       # every mutant, its own tests
    python tools/mutants.py L1 S4                 # the named mutants
    python tools/mutants.py --tests tests perfbench   # one selection for all

A mutant replaces the one occurrence of its old text in its file by the
new text.  It is killed when the selection fails with it applied and
survives when the selection passes.  One line per mutant gives its
outcome and time; the exit status is 1 when any mutant survived, and 2
when a mutant's old text does not occur exactly once (the source moved
and the list needs mending) or pytest could not run.  pytest does not
collect this file: tools/ lies outside the configured testpaths.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
GE = "src/skewmorph/group_engine.py"
SV = "src/skewmorph/structure_verify.py"
FP = "src/skewmorph/fpalg.py"
EN = "src/skewmorph/enumeration.py"
KE = "src/skewmorph/_kernels.py"
SC = "src/skewmorph/skew_core.py"
LAWS = ("tests/test_group_laws.py",)
SEARCH = ("tests/test_structure_verify.py",)
FPALG = ("tests/test_fpalg.py",)
ENUM = ("tests/test_enumeration.py",)
KERNELS = ("tests/test_kernels.py",)
SKEW = ("tests/test_skew_core.py",)
GROUP = ("tests/test_group_engine.py",)

# name: (what it breaks, file, old text, new text, default selection)
MUTANTS = {
    "L1": ("split tables off by one at every code c = -1 mod t", GE,
           "return c // t, c % t", "return (c + 1) // t, c % t", LAWS),
    "L2": ("q and r of j1 + j2 swapped in the extension law", GE,
           "q, r = split_tables(2 * t, t)", "r, q = split_tables(2 * t, t)", LAWS),
    "L3": ("_code dropped from the extension's mul", GE,
           "return _code(twist.take(q.take(j) * nb + y) * t + r.take(j))",
           "return twist.take(q.take(j) * nb + y) * t + r.take(j)", LAWS),
    "L4": ("the twist row dropped from the extension's mul", GE,
           "return _code(twist.take(q.take(j) * nb + y) * t + r.take(j))",
           "return _code(twist.take(y) * t + r.take(j))", LAWS),
    "D1": ("check_group_law: only the first chunk of sampled triples tested", GE,
           "for d in _assoc_draws():", "for d in _assoc_draws()[:1]:", GROUP),
    "D2": ("check_group_law: the draws reduced by their low bits, d % n", GE,
           "codes *= np.uint64(n)\n        codes >>= np.uint64(32)", "codes %= np.uint64(n)",
           GROUP),
    "S4": ("_search_chunk: tried without its carry-over across values of a", SV,
           "int(tried[m] + c - first[m] + 1)", "int(c - first[m] + 1)", SEARCH),
    "S5": ("_search_chunk: in_T without its t < p guard", SV,
           "return (t < p) & zt[rN + add[g, back[t * C + cols]]]",
           "return zt[rN + add[g, back[t * C + cols]]]", SEARCH),
    "S9": ("_search_chunk: a settled member left in todo, the first of each pass", SV,
           "todo[done] = False", "todo[done[1:]] = False", SEARCH),
    "P1": ("matrix_to_perm: the last coordinate summed without its remainder mod p", FP,
           "idx = idx * p + m[:, :, j] @ Vt % p",
           "idx = idx * p + (m[:, :, j] @ Vt % p if j < n - 1 else m[:, :, j] @ Vt)", FPALG),
    "P2": ("matrix_to_perm: the last partial chunk skipped", FP,
           "for a in range(0, len(batch), step):",
           "for a in range(0, len(batch) - len(batch) % step, step):", FPALG),
    "G1": ("gl_generators: the basis cycle dropped", FP,
           "[trans, cycle, diag][:2 if p == 2 else 3]", "[trans, diag][:1 if p == 2 else 2]",
           FPALG),
    "G2": ("gl_generators: the diagonal dropped", FP,
           "[trans, cycle, diag][:2 if p == 2 else 3]", "[trans, cycle]", FPALG),
    "R1": ("aut_closure: repeated seeds not merged", EN,
           "seeds = seeds.take(np.sort(np.unique(seeds.images, axis=0, return_index=True)[1]))",
           "seeds = seeds.take(np.arange(len(seeds)))", ENUM),
    "A1": ("_automorphisms: the last basis point skipped", KE,
           "at = s.take(add_basis, axis=1)", "at = s.take(add_basis[:-1], axis=1)", KERNELS),
    "N1": ("_power_match: the anchor taken from a shortest cycle, not a full-length one", KE,
           "anchor = np.argmax(full, axis=1)", "anchor = np.argmin(full, axis=1)", KERNELS),
    "N2": ("_power_match: a row without an anchor skips the exact compare, failing at x = 0",
           KE, "for j in np.flatnonzero(~has):", "for j in ():", KERNELS),
    "N3": ("validate_images: the anchor from the first cycle walked, not a longest one", KE,
           "longest, anchor = length, start", "longest, anchor = length, anchor", KERNELS),
    "O1": ("validate_many: the other rows' orders walked from the basis alone", KE,
           "order[rest] = _orders(batch, rest, ident)", "order[rest] = _orders(batch, rest, basis)",
           KERNELS),
    "O2": ("validate_many: the other rows put in one order group", KE,
           "np.split(rest, np.flatnonzero(np.diff(order[rest])) + 1)", "[rest]", KERNELS),
    "C1": ("_canonical_config_seeds: the last sigma_2 left unseeded", EN,
           "for M2 in sigma2_list]), p)", "for M2 in sigma2_list[:-1]]), p)", ENUM),
    "C2": ("_config_group: G built with L^-2 in place of L^-1", EN,
           "fpalg.mat_pow(L, p - 1, p)", "fpalg.mat_pow(L, p - 2, p)", ENUM),
    "J1": ("_parse_chunk: pi compared on the chunk's first record alone", SC,
           "zip(objs[:end], block.pi.tolist())", "zip(objs[:min(end, 1)], block.pi.tolist())",
           SKEW),
    "J2": ("_parse_chunk: each automorphism flag checked against the first record's verdict",
           SC, "zip(flags[:end], aut)", "zip(flags[:end], aut[:1] * len(aut))", SKEW),
}


def _text_once(name):
    _, path, old, _, _ = MUTANTS[name]
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        sys.exit("mutant %s: its old text occurs %d times in %s" % (name, text.count(old), path))
    return text


def run(name, selection):
    """'killed' or 'survived', and the seconds pytest took."""
    _, path, old, new, default = MUTANTS[name]
    text = _text_once(name)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.pyc"))
        (tree / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(selection or default)]
        t0 = time.monotonic()
        code = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        took = time.monotonic() - t0
    if code not in (0, 1):
        sys.exit("mutant %s: pytest exited %d" % (name, code))
    return ("survived" if code == 0 else "killed"), took


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--tests", nargs="+", default=None,
                    help="pytest selection for every mutant (default: each its own)")
    args = ap.parse_args(argv)
    names = args.names or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        ap.error("unknown mutants: %s" % ", ".join(unknown))
    for name in names:  # refuse a stale list before any run
        _text_once(name)
    survived = []
    for name in names:
        outcome, took = run(name, args.tests)
        print("%-3s %-8s %6.1f s  %s" % (name, outcome, took, MUTANTS[name][0]), flush=True)
        if outcome == "survived":
            survived.append(name)
    print("survived: %s" % (" ".join(survived) or "none"))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
