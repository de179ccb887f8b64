"""The benchmark's workloads: seeded inputs, timed items, output checks.

Each workload turns a seed into a list of JSON item specs (set-up),
computes one item at a time through the public khcube API (``run``,
timed), and checks each output against an answer the benchmark obtains
on its own (``check``, untimed, after every item has run).  Calls go
through module attributes so that the tracer's wrappers see them.

Item counts are fixed by the seed and ``--seconds`` alone, never by a
clock, so a traced and an untraced run do identical work.

Left out: ``t45`` unreduced over Z (about 101 s a run, too long for the
number of runs a comparison needs; its mechanisms show on
t45-deduction and braid-sweep-z) and the tier-1 test suite's wall time
(a pytest run with known failures and Hypothesis randomness, not a user
workload).
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Tuple

from khcube import braids, corpus, filtration, invariants, khovanov

import oracles


class CheckFailed(Exception):
    """An item's output disagrees with the benchmark's own answer."""


def load(spec: dict):
    """The diagram an item spec names (corpus name or braid word)."""
    if spec["kind"] == "corpus":
        return corpus.get(spec["name"])
    d = braids.braid_closure(spec["word"], strands=spec.get("strands"))
    if spec.get("marked") is not None:
        d = d.with_marked(spec["marked"])
    return d


def _table_json(groups) -> list:
    return [[h, q, g.free_rank, list(g.torsion)]
            for (h, q), g in sorted(groups.items())]


def _table(out_table: list) -> Dict[Tuple[int, int], Tuple[int, list]]:
    return {(h, q): (free, tors) for h, q, free, tors in out_table}


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got}, expected {want}")


# -- t45-deduction -------------------------------------------------------------


class T45Deduction:
    """The ``kh analyze t45`` chain, as one item.

    The input is the corpus diagram itself, whatever the seed: the
    deduction is about this knot, and relabelled copies of it (cyclic
    rotations of the braid word) renumber the generators, which changes
    the tie-breaks of unit cancellation and so its cost, for reasons
    that have nothing to do with the code under test.
    """

    # Criteria 05 and 06: support as (i, j - i), mod-4 Betti numbers,
    # Alexander coefficients, rank bound and the unique placement.
    SUPPORT = {(0, 11), (2, 13), (4, 13), (6, 13), (3, 14), (8, 15),
               (5, 16), (7, 16), (9, 16)}
    BETTI = [3, 1, 2, 3]
    ALEXANDER = [[-6, 1], [-5, -1], [-2, 1], [0, -1], [2, 1], [5, -1],
                 [6, 1]]
    BOUND = 7
    PLACEMENT = [[13, 16, 1]]

    def generate(self, seed: int, seconds: int) -> List[dict]:
        return [{"kind": "corpus", "name": "t45"}]

    def run(self, spec: dict) -> dict:
        d = load(spec)
        poly = invariants.alexander(d)
        bound = invariants.rank_lower_bound(poly)
        kc = khovanov.reduced_assemble(d)
        table = {k: v for k, v in kc.rational_ranks().items() if v}
        report = invariants.differential_feasibility(table, bound)
        return {
            "alexander": sorted([e, c] for e, c in poly.to_dict().items()),
            "bound": bound,
            "table": sorted([h, q, r] for (h, q), r in table.items()),
            "betti": list(invariants.mod4_betti(table).betti),
            "placements": [[[x.source_row, x.target_row, x.rank]
                             for x in option.differentials]
                            for option in report.placements],
        }

    def check(self, spec: dict, out: dict) -> None:
        _expect("ranks", sorted({r for _h, _q, r in out["table"]}), [1])
        _expect("support", {(h, q - h) for h, q, _r in out["table"]},
                self.SUPPORT)
        _expect("mod-4 Betti", out["betti"], self.BETTI)
        _expect("Alexander", out["alexander"], self.ALEXANDER)
        _expect("rank bound", out["bound"], self.BOUND)
        _expect("placements", out["placements"], [self.PLACEMENT])


# -- braid-sweep-z -------------------------------------------------------------


class BraidSweepZ:
    """Random 3-4 strand braid closures of 6-8 letters, unreduced
    homology over Z, plus the two clasps (nonorientable band edges).

    Words come from ``braid_pool.json`` (written by ``make_pool.py``):
    240 random words per (strands, letters) class, sorted by the number
    of generators of their closure's complex.  A run takes four words
    per class per round, one from each of equal slices of that order,
    so every seed gets words of the same spread of sizes; drawn freely,
    the median item's size moved by 13% from seed to seed.  One word in
    four gets a cancelling pair s s^-1 inserted and left retained while
    every other crossing is marked, which makes every state an unlink (a
    pseudo-diagram).  Items run in a seeded random order.

    Item cost roughly triples per letter, so the three letter counts
    form three cost classes of equal size: the median item lies inside
    the middle class and p90 inside the top one, not on a class edge.
    """

    STRANDS = (3, 4)
    LETTERS = range(6, 9)
    POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "braid_pool.json")
    # Seconds the items of one round take at reference speed (speed.py);
    # it only converts --seconds into a round count.  Nine rounds at
    # --seconds 20 put 72 items in the top class, enough that p90 moves
    # little with the seed.
    ROUND_S = 2.2
    # One-crossing cubes whose only edge is a nonorientable band.
    CLASPS = ("clasp-minus", "clasp-plus")

    def generate(self, seed: int, seconds: int) -> List[dict]:
        rng = random.Random(seed)
        with open(self.POOL, encoding="utf-8") as fh:
            pool = json.load(fh)
        per_class = 4 * max(1, round(seconds / self.ROUND_S))
        specs = []
        for k in self.STRANDS:
            for n in self.LETTERS:
                words = [w for _size, w in pool[f"{k}-{n}"]]
                for i in range(per_class):
                    lo = i * len(words) // per_class
                    hi = max((i + 1) * len(words) // per_class, lo + 1)
                    specs.append(self._item(rng, k, rng.choice(words[lo:hi]),
                                            pseudo=i % 4 == 0))
        rng.shuffle(specs)
        return [{"kind": "corpus", "name": n} for n in self.CLASPS] + specs

    @staticmethod
    def _item(rng: random.Random, strands: int, word: List[int],
              pseudo: bool) -> dict:
        spec = {"kind": "braid", "word": word, "strands": strands}
        if pseudo:
            at = rng.randint(0, len(word))
            x = rng.choice((1, -1)) * rng.randint(1, strands - 1)
            spec["word"] = word[:at] + [x, -x] + word[at:]
            spec["marked"] = [c for c in range(len(word) + 2)
                              if c not in (at, at + 1)]
        return spec

    def run(self, spec: dict) -> dict:
        kc = khovanov.assemble(load(spec))
        return {"table": _table_json(kc.homology())}

    def check(self, spec: dict, out: dict) -> None:
        table = _table(out["table"])
        d = load(spec)
        _expect("Euler characteristic", oracles.table_euler(table),
                oracles.state_sum_euler(d.crossings, d.marked,
                                        d.free_circles))
        bc = khovanov.assemble(d).bigraded_complex(check=False)
        _expect("homology over F_2", oracles.table_mod2_dims(table),
                oracles.mod2_dims(bc.gradings, bc.out))


# -- ss-sandbox ----------------------------------------------------------------


class SSSandbox:
    """Criterion 08's loop: spectral sequences of small complexes.

    Every small corpus diagram and the T(2,5) closure get the (1,0) and
    (0,1) sequences.  Then each perturbation seed perturbs every small
    diagram but the unknot, each followed by its (1,0) sequence.  The
    unknot is left out there so that the median item falls inside one
    class of items (hopf) rather than on the edge between the tiny items
    and the next class, where it flipped between 2.0 and 3.1 ms from
    seed to seed; its two generators share one h-degree, so its
    perturbation is the identity and no sandbox path is lost.
    """

    SMALL = ("clasp-minus", "clasp-plus", "figure8", "hopf", "trefoil",
             "unknot")
    T25 = {"kind": "braid", "word": [1, 1, 1, 1, 1]}
    # Seconds the base sequences take, and the perturbation items of one
    # perturbation seed, at reference speed (speed.py); they only
    # convert --seconds into a seed count.
    BASE_S = 2.4
    SEED_S = 0.133

    def __init__(self):
        self._kh_q: Dict[str, Dict[Tuple[int, int], int]] = {}

    def generate(self, seed: int, seconds: int) -> List[dict]:
        rng = random.Random(seed)
        diagrams = [{"kind": "corpus", "name": n} for n in self.SMALL]
        specs = [{"diagram": d, "weight": w, "perturb": None}
                 for d in diagrams + [self.T25] for w in ([1, 0], [0, 1])]
        n_seeds = max(1, round((seconds - self.BASE_S) / self.SEED_S))
        for _ in range(n_seeds):
            s = rng.randrange(1 << 31)
            specs += [{"diagram": d, "weight": [1, 0], "perturb": s}
                      for d in diagrams if d["name"] != "unknot"]
        return specs

    def run(self, spec: dict) -> dict:
        kc = khovanov.assemble(load(spec["diagram"]))
        weight = tuple(spec["weight"])
        if spec["perturb"] is None:
            fc = filtration.FilteredComplex(
                kc.bigraded_complex(check=False), weight)
        else:
            fc = filtration.sandbox_perturb(
                kc, seed=spec["perturb"]).filtered(weight)
        return {"pages": [p.to_json_dict()
                          for p in filtration.spectral_sequence(fc)]}

    def _kh_over_q(self, diagram: dict) -> Dict[Tuple[int, int], int]:
        """Free ranks of the base complex's integral homology (the
        cancellation + SNF route, not the rank route the pages use)."""
        key = repr(sorted(diagram.items()))
        if key not in self._kh_q:
            groups = khovanov.assemble(load(diagram)).homology()
            self._kh_q[key] = {k: g.free_rank for k, g in groups.items()
                               if g.free_rank}
        return self._kh_q[key]

    def check(self, spec: dict, out: dict) -> None:
        pages = out["pages"]
        totals = [sum(g["rank"] for g in p["groups"]) for p in pages]
        d_totals = [sum(d["rank"] for d in p["d_ranks"]) for p in pages]
        for r in range(len(pages) - 1):
            _expect(f"E_{r + 1} total", totals[r + 1],
                    totals[r] - 2 * d_totals[r])
        _expect("terminal differentials", d_totals[-1], 0)
        kh = self._kh_over_q(spec["diagram"])
        _expect("terminal rank", totals[-1], sum(kh.values()))

        def groups(r: int) -> Dict[Tuple[int, int], int]:
            page = pages[min(r, len(pages) - 1)]
            return {(g["p"], g["complementary"]): g["rank"]
                    for g in page["groups"]}

        if spec["weight"] == [1, 0]:
            _expect("E_2", groups(2), kh)
        else:
            _expect("E_1", groups(1), {(q, h): r for (h, q), r in kh.items()})
            _expect("d_r for r >= 1", d_totals[1:], [0] * (len(pages) - 1))


def check_all(workload, specs: List[dict], outputs: List[dict]
              ) -> Dict[int, str]:
    """Reason per failed item: its output is missing (the item raised)
    or its check did not pass.  failed_frac counts these."""
    failures: Dict[int, str] = {}
    for i, (spec, out) in enumerate(zip(specs, outputs)):
        if out is None:
            failures[i] = "no output"
            continue
        try:
            workload.check(spec, out)
        except Exception as exc:  # a check that breaks fails the item
            failures[i] = f"{type(exc).__name__}: {exc}"
    return failures


WORKLOADS = {
    "t45-deduction": T45Deduction,
    "braid-sweep-z": BraidSweepZ,
    "ss-sandbox": SSSandbox,
}
