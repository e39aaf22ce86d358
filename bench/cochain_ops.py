"""The ``cochain-ops`` request catalog, its seeded stream, and its golden digests.

A request is one argv for ``seqop.cli.main``.  The catalog is a fixed list
built from a fixed internal seed, so every entry has a committed expected
exit code and stdout digest in ``expected.json``.  The workload seed only
chooses the order of the stream (see :func:`stream`).

Exit codes follow the README contract: 0 for every well-formed request
here, 2 for every malformed one, with nothing on stdout.  Four malformed
inputs are flagged as known defects of the seqop 1.0.0 CLI (a cochain
without ``"dim"``, a coefficient of 1.5, ``coaction --seq 0,2`` and
``coaction --seq 1,1``): they count as failed until the CLI is fixed, but
do not make a run incorrect.  Any other miss, on the handled malformed
inputs too, does.

The traffic is an assumption, not measured use: the nine commands in equal
shares, malformed inputs in a small fixed share (``MALFORMED_SHARE``), and
catalog sizes and cochain supports (20 to 60 values) picked so that each
request takes milliseconds.  No record of real use exists to weigh them by.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random

CATALOG_SEED = 20010624
EMPTY_SHA = hashlib.sha256(b"").hexdigest()

# the commands of the stream, each in an equal share of the well-formed requests
COMMANDS = ("cup", "steenrod", "coaction", "hochschild-theta", "diff", "act", "compose", "homology", "berger-subcomplex")
MALFORMED_SHARE = 0.04

RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
RINGS = {"dual-numbers": 2, "upper-triangular": 3, "group-ring-c2": 2}


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _seq(word) -> str:
    return ",".join(map(str, word))


def _faces(simplices, dim):
    out = set()
    for s in simplices:
        out.update(itertools.combinations(s, dim + 1))
    return sorted(out)


def _random_word(rng, arity, degree):
    """A nondegenerate surjective word of the given arity and degree."""
    length = arity + degree
    while True:
        word = []
        for _ in range(length):
            word.append(rng.choice([v for v in range(1, arity + 1) if not word or v != word[-1]]))
        if len(set(word)) == arity:
            return word


def _complexity(word, arity):
    best = 0
    for i, j in itertools.combinations(range(1, arity + 1), 2):
        sub = [u for u in word if u in (i, j)]
        best = max(best, sum(1 for a, b in zip(sub, sub[1:]) if a != b))
    return best


def _cochain(rng, simplices, dim, support):
    faces = _faces(simplices, dim)
    chosen = rng.sample(faces, min(support, len(faces)))
    values = [{"simplex": list(f), "coeff": rng.choice((-3, -2, -1, 1, 2, 3))} for f in sorted(chosen)]
    return {"dim": dim, "values": values}


def _mod2_cocycle(rng, simplices, dim, terms):
    """A sum of coboundaries of dual (dim-1)-cochains, reduced mod 2."""
    lower = _faces(simplices, dim - 1)
    acc = {}
    for sigma in rng.sample(lower, min(terms, len(lower))):
        for face in _faces(simplices, dim):
            if set(sigma) <= set(face):
                acc[face] = acc.get(face, 0) ^ 1
    values = [{"simplex": list(f), "coeff": 1} for f, v in sorted(acc.items()) if v]
    return {"dim": dim, "values": values}


# (name, complex JSON, maximal simplices) for Delta^7..Delta^10 and RP^2
SPACES = [(f"D{n}", {"vertices": n + 1, "simplices": [list(range(n + 1))]}, [tuple(range(n + 1))]) for n in (7, 8, 9, 10)]
SPACES.append(("RP2", {"vertices": 6, "simplices": [list(t) for t in RP2]}, RP2))


def _hochschild_cochain(rng, rank, degree):
    keys = list(itertools.product(range(1, rank), repeat=degree))
    return {
        "degree": degree,
        "values": [{"args": list(k), "value": [rng.randint(-2, 2) for _ in range(rank)]} for k in keys],
    }


def catalog() -> list[tuple[str, list[str], int, bool]]:
    """Every request the stream can send: (category, argv, expected exit, known defect)."""
    rng = random.Random(CATALOG_SEED)
    out: list[tuple[str, list[str], int]] = []

    for _ in range(60):
        name, cx, simplices = rng.choice(SPACES)
        p, q = rng.choice(((1, 2), (2, 1), (2, 2), (2, 3), (3, 2))) if name != "RP2" else (1, 1)
        i = rng.choice((0, 1, 2)) if name != "RP2" else rng.choice((0, 1))
        x = _cochain(rng, simplices, p, rng.randint(20, 60))
        y = _cochain(rng, simplices, q, rng.randint(20, 60))
        out.append(("cup", ["cup", "--complex", _dumps(cx), "--x", _dumps(x), "--y", _dumps(y), "--i", str(i)], 0))

    for _ in range(45):
        name, cx, simplices = rng.choice(SPACES)
        p = rng.choice((2, 3)) if name != "RP2" else rng.choice((1, 2))
        x = _mod2_cocycle(rng, simplices, p, rng.randint(2, 6))
        i = rng.randint(0, p)
        out.append(("steenrod", ["steenrod", "--complex", _dumps(cx), "--x", _dumps(x), "--i", str(i)], 0))

    for _ in range(60):
        name, cx, simplices = rng.choice(SPACES)
        k = rng.choice((2, 3))
        word = _random_word(rng, k, rng.randint(1, 2))
        simplex = sorted(rng.sample(rng.choice(simplices), min(9, len(simplices[0]))))
        argv = ["coaction", "--simplex", _seq(simplex), "--seq", _seq(word)]
        if name == "RP2":
            argv += ["--complex", _dumps(cx)]
        out.append(("coaction", argv, 0))

    for _ in range(60):
        ring = rng.choice(sorted(RINGS))
        rank = RINGS[ring]
        while True:
            k = rng.choice((1, 2, 3))
            word = _random_word(rng, k, rng.choice((0, 1, 2)) if k > 1 else 0)
            if _complexity(word, k) <= 2:
                break
        argv = ["hochschild-theta", "--ring", ring, "--seq", _seq(word)]
        for v in range(1, k + 1):
            degree = word.count(v) - 1 + rng.choice((0, 1))
            argv += ["--cochain", _dumps(_hochschild_cochain(rng, rank, degree))]
        out.append(("hochschild-theta", argv, 0))

    for _ in range(60):
        k = rng.choice((2, 3, 4))
        out.append(("diff", ["diff", "--seq", _seq(_random_word(rng, k, rng.randint(1, 5)))], 0))

    for _ in range(45):
        k = rng.choice((2, 3, 4))
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        word = _random_word(rng, k, rng.randint(0, 4))
        out.append(("act", ["act", "--seq", _seq(word), "--perm", _seq(perm)], 0))

    for _ in range(45):
        k = rng.choice((1, 2))
        outer = _random_word(rng, k, rng.randint(0, 2) if k > 1 else 0)
        argv = ["compose", "--outer", _seq(outer)]
        for _ in range(k):
            kg = rng.choice((1, 2))
            argv += ["--inner", _seq(_random_word(rng, kg, rng.randint(0, 2) if kg > 1 else 0))]
        out.append(("compose", argv, 0))

    for arity, top in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        out.append(("homology", ["homology", "--arity", str(arity), "--max-degree", str(top)], 0))
        for n in range(1, 3):
            out.append(("homology", ["homology", "--arity", str(arity), "--max-degree", str(top), "--max-complexity", str(n)], 0))

    for k, weights in ((1, [[]]), (2, [[0], [1], [2]]), (3, [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]])):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        for w in weights:
            order = list(range(1, k + 1))
            rng.shuffle(order)
            poset = {"k": k, "b": [{"pair": list(pr), "val": v} for pr, v in zip(pairs, w)], "order": order}
            top = 3 if k < 3 else 2
            out.append(("berger-subcomplex", ["berger-subcomplex", "--max-degree", str(top), "--poset", _dumps(poset)], 0))

    out = [entry + (False,) for entry in out]
    delta2 = _dumps({"vertices": 3, "simplices": [[0, 1, 2]]})
    edge = _dumps({"dim": 1, "values": [{"simplex": [0, 1], "coeff": 1}]})
    out += [
        # known defects of seqop 1.0.0 (KeyError traceback, exit 0, exit 1, exit 0)
        ("malformed", ["cup", "--complex", delta2, "--x", _dumps({"values": []}), "--y", edge], 2, True),
        ("malformed", ["cup", "--complex", delta2, "--x", _dumps({"dim": 1, "values": [{"simplex": [0, 1], "coeff": 1.5}]}), "--y", edge], 2, True),
        ("malformed", ["coaction", "--simplex", "0,1,2", "--seq", "0,2"], 2, True),
        ("malformed", ["coaction", "--simplex", "0,1,2", "--seq", "1,1"], 2, True),
        # handled
        ("malformed", ["diff", "--seq", "1,x"], 2, False),
        ("malformed", ["diff", "--seq", "0,2"], 2, False),
        ("malformed", ["diff"], 2, False),
        ("malformed", ["hochschild-theta", "--ring", "{not json", "--seq", "1,2", "--cochain", "{}"], 2, False),
    ]
    return out


def stream(seed: int, count: int) -> list[int]:
    """Catalog indices of a seeded closed-loop stream of about ``count`` requests.

    Malformed inputs get ``MALFORMED_SHARE`` of the stream and each of the
    ``COMMANDS`` an equal part of the rest; within a category every entry
    is sent equally often, give or take one; the seed picks which
    entries get the extra copy and the order of the whole stream.  Every
    seed thus sends nearly the same mix, so its tail latency does not hang
    on how often the few heaviest entries happen to be drawn.
    """
    by_category: dict[str, list[int]] = {}
    for index, entry in enumerate(catalog()):
        by_category.setdefault(entry[0], []).append(index)
    rng = random.Random(seed)
    malformed = round(count * MALFORMED_SHARE)
    sizes = {"malformed": malformed, **{c: round((count - malformed) / len(COMMANDS)) for c in COMMANDS}}
    out = []
    for category in sorted(sizes):
        pool = by_category[category]
        rng.shuffle(pool)
        out += [pool[i % len(pool)] for i in range(sizes[category])]
    rng.shuffle(out)
    return out


def key(argv) -> str:
    return hashlib.sha256(_dumps(argv).encode()).hexdigest()[:20]


def call(main, argv) -> tuple[object, str, str]:
    """One in-process request: (exit code or escaped exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    except Exception as exc:  # an escaped exception is a contract miss, never fatal
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digests(main) -> dict[str, str]:
    """Stdout digest of every well-formed catalog entry, by :func:`key`."""
    out = {}
    for category, argv, want, _ in catalog():
        if category == "malformed":
            continue
        code, stdout, stderr = call(main, argv)
        if code != want:
            raise RuntimeError(f"{argv[:3]}: exit {code!r}, expected {want}: {stderr.strip()}")
        out[key(argv)] = hashlib.sha256(stdout.encode()).hexdigest()
    return out
