"""Build the workload universes and record their golden results.

Writes ``data/<workload>.tasks.json`` (the universe, split into strata)
and ``data/<workload>.golden.json`` (the exact canonical result of every
task at the current commit).  Re-record only at a commit whose results
are known to be right; the benchmark treats any difference as a failure.
Run from the repository root::

    python3 perfbench/make_golden.py [workload ...]
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import Checker, format_word, reduce_word  # noqa: E402
from provenance import collect  # noqa: E402

UNIVERSE_SEED = 20221104
CAP = 40  # tasks per stratum, where the stratum has that many


def reduced_words(length: int) -> list[tuple[int, ...]]:
    words = [()]
    for _ in range(length):
        words = [w + (c,) for w in words for c in (1, -1, 2, -2) if not w or w[-1] != -c]
    return words


def cyclically_reduced(length: int) -> list[tuple[int, ...]]:
    return [w for w in reduced_words(length) if length < 2 or w[0] != -w[-1]]


def sample(rng: random.Random, items: list, cap: int = CAP) -> list:
    return items if len(items) <= cap else rng.sample(items, cap)


def commutators() -> list[tuple[int, ...]]:
    short = [w for n in (1, 2) for w in reduced_words(n)]
    out = set()
    for u, v in itertools.product(short, short):
        c = reduce_word(tuple(-x for x in reversed(u)) + tuple(-x for x in reversed(v)) + u + v)
        if len(c) >= 2 and c[0] != -c[-1]:
            out.add(c)
    return sorted(out)


def power_windows(rng: random.Random) -> list[dict]:
    # Each stratum is one task kind at one word length.  A round has an odd
    # number of tasks, so the median falls inside the middle stratum rather
    # than on the edge between two; detect at length 3, the most expensive
    # stratum with nearly equal costs, counts twice, so the p95 tail falls
    # well inside it.
    strata = []

    def stratum(name, specs, weight=1):
        strata.append({"name": name, "weight": weight, "tasks": specs})

    words = {n: [format_word(w) for w in cyclically_reduced(n)] for n in range(1, 9)}
    for n in (2, 4, 6, 8):
        stratum(f"hom-plain-L{n}", [["hom", "plain", w] for w in sample(rng, words[n])])
    for n in (3, 5, 7):
        stratum(f"hom-cesaro-L{n}", [["hom", "cesaro", w] for w in sample(rng, words[n])])
    for n in (2, 4):
        stratum(f"hom-arith2-L{n}", [["hom", "arith:2", w] for w in sample(rng, words[n])])
    for n in (1, 2, 3):
        stratum(f"detect-L{n}", [["detect", w] for w in sample(rng, words[n])],
                weight=2 if n == 3 else 1)
    pairs = [[g, h] for g in words[4] for h in words[4]]
    stratum("cone-L4", [["cone", g, h] for g, h in sample(rng, pairs)])
    comms = [format_word(c) for c in commutators()]
    stratum("hom-plain-comm", [["hom", "plain", c] for c in sample(rng, comms)])
    return strata


def word_sweep(rng: random.Random) -> list[dict]:
    # Nine tasks a round: the median falls among the three Brooks defect
    # sweeps, which cost about the same, and the tail inside the norm
    # Lipschitz sweep, which counts twice.
    from tasks import BROOKS_PATTERNS, SWEEP_MAXLEN

    firsts = [format_word(w) for n in range(SWEEP_MAXLEN + 1) for w in reduced_words(n)]
    strata = [{"name": f"defect-{p.replace(' ', '.')}", "weight": 1,
               "tasks": [["defect", p, g] for g in firsts]} for p in BROOKS_PATTERNS]
    strata.append({"name": "lipschitz", "weight": 2, "tasks": [["lipschitz", g] for g in firsts]})
    short = [format_word(w) for n in (1, 2) for w in reduced_words(n)]
    for n in range(3, 7):
        strata.append({"name": f"ctrick-n{n}", "weight": 1, "tasks": [
            ["ctrick", g, h, str(n), base] for g in short for h in short for base in ("g", "h")
        ]})
    return strata


def perm_text(rng: random.Random, degree: int) -> str:
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    mapping = dict(zip(range(1, degree + 1), images))
    seen, cycles = set(), []
    for start in range(1, degree + 1):
        if start in seen or mapping[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        p = mapping[start]
        while p != start:
            cycle.append(p)
            seen.add(p)
            p = mapping[p]
        cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "()"


def job(**params) -> list[str]:
    body = "".join(f"  {k} = {v}\n" for k, v in params.items())
    return ["job", "job {\n" + body + "}\n"]


def vec(rng: random.Random, dim: int, box: int) -> str:
    return "[" + ",".join(str(rng.randint(-box, box)) for _ in range(dim)) + "]"


def heis(rng: random.Random, box: int) -> str:
    return "H(" + ",".join(str(rng.randint(-box, box)) for _ in range(3)) + ")"


def job_batch(rng: random.Random) -> list[dict]:
    r = rng.randint

    def cone_job():
        if rng.random() < 0.5:
            dim = r(1, 3)
            return job(task="cone-norm", family="lattice", dim=dim, element=vec(rng, dim, 5),
                       window=rng.choice([8, 16]))
        return job(task="cone-dist", family="heisenberg", element=heis(rng, 3),
                   element2=heis(rng, 3), window=rng.choice([8, 16]))

    makers = {
        "perm-bfs5": lambda: job(task="norm", family="perm", degree=5, backend="bfs",
                                 element=perm_text(rng, 5)),
        "perm-bfs6": lambda: job(task="norm", family="perm", degree=6, backend="bfs",
                                 element=perm_text(rng, 6)),
        "perm-closed": lambda: job(task="norm", family="perm", degree=7,
                                   element=perm_text(rng, 7)),
        "lattice-defect": lambda: job(task="defect", family="lattice", dim=r(1, 3),
                                      function=rng.choice(["norm", "coord:0", f"scale:{r(2, 5)}"]),
                                      samples=r(100, 300), maxlen=r(3, 6), seed=r(1, 10**6)),
        "heis-defect": lambda: job(task="defect", family="heisenberg", function="norm",
                                   samples=r(50, 150), maxlen=r(2, 3), seed=r(1, 10**6)),
        "lattice-lipschitz": lambda: job(task="lipschitz", family="lattice", dim=r(1, 3),
                                         function=rng.choice(["norm", "coord:0", f"scale:{r(2, 5)}"]),
                                         samples=r(100, 300), maxlen=r(3, 6), seed=r(1, 10**6)),
        "heis-lipschitz": lambda: job(task="lipschitz", family="heisenberg", function="norm",
                                      samples=r(50, 150), maxlen=r(2, 3), seed=r(1, 10**6)),
        "lattice-detect": lambda: job(task="detect", family="lattice", dim=1,
                                      element=f"[{rng.choice([-1, 1]) * r(1, 9)}]",
                                      window=rng.choice([16, 32, 64])),
        "heis-detect": lambda: job(task="detect", family="heisenberg",
                                   element=rng.choice([f"H(0,0,{r(1, 9)})", heis(rng, 3)]),
                                   window=rng.choice([16, 32])),
        "lattice-extend": lambda: job(task="extend", family="lattice", dim=1, element=f"[{r(1, 3)}]",
                                      c=rng.choice(["1/3", "1/2", "1"]),
                                      at=";".join(f"[{r(-9, 9)}]" for _ in range(r(1, 4))),
                                      window=rng.choice([8, 16])),
        "cone": cone_job,
        "walk": lambda: job(task="walk", walk=rng.choice(["alternating", "all-up", "doubling-blocks"]),
                            window=rng.choice([256, 1024, 4096])),
        "fekete": lambda: job(task="fekete",
                              sequence=rng.choice([f"linear:{r(1, 4)}", "halfceil",
                                                   f"sqrt-drift:{r(1, 3)}"]),
                              phi=rng.choice(["zero", f"const:{r(1, 3)}", f"sqrt:{r(1, 3)}"]),
                              n=rng.choice([32, 64, 128, 256])),
        "pullback": lambda: job(task="pullback", family="lattice", dim=2,
                                functional=rng.choice(["coord:0", "coord:1"]),
                                samples=r(10, 30), window=8, seed=r(1, 10**6)),
        # the correct answer of each of these is a typed error row
        "expected-error": lambda: rng.choice([
            job(task="extend", family="perm", degree=5, element=rng.choice(["(1 2)", "(1 2 3)", "(2 4)(3 5)"]),
                c="1/2", at="(1 2)", window=8),
            job(task="extend", family="lattice", dim=1, element="[1]", c=str(r(2, 5)),
                at="[3]", window=8),
            job(task="walk", walk=rng.choice(["zigzag", "all-down", "random"])),
            job(task="defect", family="lattice", dim=2, generators="explicit:[1,0],[0,1]",
                backend="bfs", function="coord:0", samples=50, maxlen=r(10, 12), seed=r(1, 10**6)),
        ]),
    }
    strata = []
    for name, make in makers.items():
        specs: dict[str, list[str]] = {}
        for _ in range(4 * CAP):
            spec = make()
            specs.setdefault(workloads.task_key(spec), spec)
            if len(specs) == CAP:
                break
        strata.append({"name": name, "tasks": list(specs.values())})
    return strata


UNIVERSES = {"power-windows": power_windows, "word-sweep": word_sweep, "job-batch": job_batch}


def record(workload: str) -> None:
    import tasks

    strata = UNIVERSES[workload](random.Random(f"{UNIVERSE_SEED}:{workload}"))
    env = tasks.Env(workload)
    results = {}
    start = time.perf_counter()
    for s in strata:
        for spec in s["tasks"]:
            results[workloads.task_key(spec)] = tasks.canonical(spec, tasks.run(env, spec))
    elapsed = time.perf_counter() - start
    checker = Checker(results)
    for s in strata:
        for spec in s["tasks"]:
            key = workloads.task_key(spec)
            checker.check(key, spec, results[key])
    if checker.failed:
        raise SystemExit(f"{workload}: invariants fail on the recorded results:\n"
                         + "\n".join(checker.problems))
    data = workloads.DATA
    data.mkdir(exist_ok=True)
    with open(data / f"{workload}.tasks.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "universe_seed": UNIVERSE_SEED, "strata": strata},
                  fh, indent=1)
        fh.write("\n")
    meta = collect()
    meta.update(tasks.provenance())
    with open(data / f"{workload}.golden.json", "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": meta, "results": results}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(results)} tasks in {len(strata)} strata, {elapsed:.1f} s")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    for name in ap.parse_args().workloads:
        record(name)
