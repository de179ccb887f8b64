"""Self-test of the benchmark: its checks reject bad output, and tracing
changes nothing.

    python3 bench/selfcheck.py        # from the root of a khcube checkout

1. For each workload, genuine items run through the public API (for
   t45-deduction the known answer stands in for its 45-second item) and
   pass their checks.  Corrupted copies of them (a rank off by one, a
   wrong or lost torsion divisor, a page whose total breaks conservation
   and so on) and an item without output must each be counted as failed
   by ``workloads.check_all``, the function behind ``failed_frac``.
2. braid-sweep-z and ss-sandbox run briefly in fresh interpreters,
   untraced and traced, and must report the same item and failure
   counts and the same input and output digests.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _edit(out: dict, fn) -> dict:
    bad = copy.deepcopy(out)
    fn(bad)
    return bad


def _first_with_torsion(outs) -> int:
    return next(k for k, out in enumerate(outs)
                if any(row[3] for row in out["table"]))


def t45_cases():
    w = workloads.T45Deduction()
    spec = w.generate(0, 1)[0]
    good = {"alexander": w.ALEXANDER, "bound": w.BOUND,
            "table": sorted([i, s + i, 1] for i, s in w.SUPPORT),
            "betti": w.BETTI, "placements": [w.PLACEMENT]}

    def rank_up(o):
        o["table"][0][2] += 1

    def move_point(o):
        o["table"][-1][1] += 2

    def betti(o):
        o["betti"][0] -= 1

    def alexander(o):
        o["alexander"][0][1] = 2

    def bound(o):
        o["bound"] = 9

    def placement(o):
        o["placements"] = []

    edits = (rank_up, move_point, betti, alexander, bound, placement)
    return w, [spec], [good], [spec] * len(edits), [_edit(good, f)
                                                    for f in edits]


def braid_cases():
    w = workloads.BraidSweepZ()
    specs = [{"kind": "braid", "word": [1, 1, 1], "strands": 3},
             {"kind": "braid", "word": [1, -2, 1, -2, 1], "strands": 3},
             {"kind": "braid", "word": [1, 2, -2, 1, -2, 1], "strands": 3,
              "marked": [0, 3, 4, 5]},
             {"kind": "corpus", "name": "clasp-minus"}]
    good = [w.run(s) for s in specs]
    k = _first_with_torsion(good)

    def rank_up(o):
        o["table"][0][2] += 1

    def torsion(divisors):
        def edit(o):
            next(r for r in o["table"] if r[3])[3] = divisors
        return edit

    def shift_h(o):
        o["table"][-1][0] += 1

    bad = [(0, rank_up), (k, torsion([3])), (k, torsion([])),
           (k, torsion([2, 2])), (1, shift_h), (2, rank_up), (3, shift_h)]
    return (w, specs, good, [specs[i] for i, _ in bad],
            [_edit(good[i], f) for i, f in bad])


def ss_cases():
    w = workloads.SSSandbox()
    trefoil = {"kind": "corpus", "name": "trefoil"}
    specs = [{"diagram": trefoil, "weight": [1, 0], "perturb": None},
             {"diagram": trefoil, "weight": [0, 1], "perturb": None},
             {"diagram": trefoil, "weight": [1, 0], "perturb": 5}]
    good = [w.run(s) for s in specs]

    def page_total(o):
        o["pages"][1]["groups"][0]["rank"] += 1

    def d_rank(o):
        page = next(p for p in o["pages"] if p["d_ranks"])
        page["d_ranks"][0]["rank"] += 1

    def terminal(o):
        o["pages"][-1]["groups"].append({"p": 99, "complementary": 0,
                                         "rank": 1})

    def move_group(o):
        for page in o["pages"]:
            page["groups"][0]["complementary"] += 2

    bad = [(0, page_total), (0, d_rank), (2, d_rank), (2, terminal),
           (1, move_group), (2, move_group)]
    return (w, specs, good, [specs[i] for i, _ in bad],
            [_edit(good[i], f) for i, f in bad])


def check_corruptions() -> bool:
    ok = True
    for name, cases in (("t45-deduction", t45_cases),
                        ("braid-sweep-z", braid_cases),
                        ("ss-sandbox", ss_cases)):
        w, good_specs, good, bad_specs, bad = cases()
        # The last item stands for one that raised: it has no output.
        specs = good_specs + bad_specs + good_specs[:1]
        failures = workloads.check_all(w, specs, good + bad + [None])
        n_good, n_bad = len(good), len(specs) - len(good)
        expect = set(range(n_good, len(specs)))
        passed = set(failures) == expect
        ok &= passed
        print(f"{name}: {n_good} genuine items pass, {len(failures)} of "
              f"{n_bad} corrupted or missing outputs fail, failed_frac "
              f"{len(failures) / len(specs):.3f}: "
              f"{'ok' if passed else 'WRONG'}")
        for i in sorted(set(failures) ^ expect):
            print(f"  item {i}: {failures.get(i, 'passed its check')}")
    return ok


def check_trace_equivalence() -> bool:
    root = os.getcwd()
    env = run.child_env(root)
    ok = True
    for name in ("braid-sweep-z", "ss-sandbox"):
        deadline = perf_counter() + run.RUN_BUDGET_S
        plain = run.worker(env, name, 7, 3, 0, deadline)
        traced = run.worker(env, name, 7, 3, 1, deadline)
        keys = ("items", "failed", "inputs_sha256", "outputs_sha256")
        same = all(plain[k] == traced[k] for k in keys)
        ok &= same
        print(f"{name}: traced and untraced runs give "
              f"{'identical' if same else 'DIFFERENT'} counts and digests "
              f"({plain['items']} items, outputs "
              f"{plain['outputs_sha256'][:16]})")
    return ok


def main() -> int:
    ok = check_corruptions()
    ok &= check_trace_equivalence()
    print("selfcheck", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
