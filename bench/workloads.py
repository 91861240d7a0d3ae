"""Seeded inputs, queries and answer oracles of the cuspcount benchmark.

Nothing here imports cuspcount at module level: the benchmark times that
import as part of set-up.  The Gram matrices are built here, not by the
package, so a change to the package cannot change the inputs it is given.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

ORACLES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.json")

# --- Gram matrices ---------------------------------------------------------

_TERM = re.compile(r"([A-Za-z]+)(?:\(([-\d,]+)\))?$")


def _cartan_a(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def _cartan_d(n):
    # chain 0-1-...-(n-2), node n-1 attached to n-3
    g = [row + [0] for row in _cartan_a(n - 1)] + [[0] * n]
    g[n - 1][n - 1] = 2
    g[n - 1][n - 3] = g[n - 3][n - 1] = -1
    return g


def _block(name, params):
    if name == "U":
        r = params[0] if params else 1
        return [[0, r], [r, 0]]
    if name == "A":
        return [[-x for x in row] for row in _cartan_a(params[0])]
    if name == "D":
        return [[-x for x in row] for row in _cartan_d(params[0])]
    if name == "diag":
        return [[params[i] if i == j else 0 for j in range(len(params))] for i in range(len(params))]
    raise ValueError(f"unknown block {name!r}")


def gram_of(label):
    """Gram matrix of a '+'-separated block label such as "U(2)+D(4)".

    Root lattices are negative definite, as in the package's default.
    """
    blocks = []
    for term in label.split("+"):
        match = _TERM.match(term)
        if match is None:
            raise ValueError(f"bad block {term!r} in {label!r}")
        params = [int(p) for p in match.group(2).split(",")] if match.group(2) else []
        blocks.append(_block(match.group(1), params))
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[at + i][at:at + len(b)] = row
        at += len(b)
    return gram


def _congruent(gram, mat):
    """mat^T gram mat."""
    n = len(gram)
    gm = [[sum(gram[i][k] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(mat[k][i] * gm[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def random_unimodular(n, rng, steps=6):
    """Product of `steps` random elementary row operations with multiplier +-1.

    Kept this small on purpose: with 10 steps and multipliers up to 2, Gram
    entries reach the hundreds and about 1.6 % of the forms send
    intmat.snf_transforms into a coefficient blow-up that does not finish
    (bench/README.md, "Inputs left out").
    """
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    return mat


def random_signed_permutation(n, rng):
    perm = rng.sample(range(n), n)
    return [[rng.choice((-1, 1)) if perm[j] == i else 0 for j in range(n)] for i in range(n)]


# --- running one query -----------------------------------------------------


class Query:
    """One timed call.  `call()` returns the raw answer, `check(answer)`
    returns True when the answer is right; only `call` is timed."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def run_cli(argv):
    """(exit code, stdout) of `cuspcount.cli.main(argv)` in this process."""
    from cuspcount import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def _cli_query(label, argv, check):
    return Query(label, lambda: run_cli(argv), check)


def _load_oracles(workload):
    with open(ORACLES_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)[workload]


def _equals(want):
    return lambda got: got == want


# --- ur-family ---------------------------------------------------------------


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _ur_closed_forms(r):
    """(partners, elliptic pairs, fibre size, one-dimensional cusps) of U(r)."""
    primes = _prime_factors(r)
    phi = r
    for p in primes:
        phi -= phi // p
    tau = len(primes)
    return 2**tau * phi // 4, 2**tau * phi // 2, phi // 2, 2**tau


def _check_ur(r):
    fm, fm_ell, mu1, cusps = _ur_closed_forms(r)

    def check(answer):
        code, out = answer
        if code != 0:
            return False
        report = json.loads(out)
        (item,) = report["results"]
        return (
            report["all_passed"] is True
            and item["r"] == r
            and item["passed"] is True
            and item["genus_singleton"] is True
            and item["fm"]["value"] == item["fm_expected"] == fm
            and item["fm"]["exact"] is True
            and item["fm_ell"]["value"] == item["fm_ell_expected"] == fm_ell
            and item["fm_ell"]["exact"] is True
            and item["mu1_fiber"]["value"] == item["mu1_expected"] == mu1
            and item["cusps_one_dim"] == item["cusps_expected"] == cusps
        )

    return check


class UrFamily:
    """`verify-ur --r r` through cli.main, r from three strata in 3..60.

    A round runs every r of every stratum once, in a seeded order, so the
    work of a round does not depend on the seed.  The large stratum holds
    composite r, where the rank-2 genus sweep takes most of the time; at a
    prime r aut_group does, which fqf-groups already measures.
    """

    name = "ur-family"
    tail_pct = 90
    trace_rounds = 2
    strata = (
        tuple(range(3, 13)),
        tuple(range(13, 23)),
        (30, 36, 40, 48, 60),
    )

    def __init__(self, seed, workdir):
        self.seed = seed

    def inputs(self):
        """The seed's endless sequence of rounds, as plain data."""
        rng = random.Random(f"{self.name}:{self.seed}")
        values = [r for stratum in self.strata for r in stratum]
        while True:
            yield rng.sample(values, len(values))

    def rounds(self):
        for rs in self.inputs():
            yield [
                _cli_query(f"verify-ur r={r}", ["verify-ur", "--r", str(r)], _check_ur(r))
                for r in rs
            ]


# --- fqf-groups ----------------------------------------------------------------


class FqfGroups:
    """Library queries on discriminant forms: O(A, q) and two double-coset
    counts.  A round takes every tier once, in a seeded order, each in a
    fresh random basis of its lattice."""

    name = "fqf-groups"
    tail_pct = 90
    trace_rounds = 3
    tiers = (
        "U+diag(-2,-2,-2,-2)",
        "U(3)+A(2)",
        "U(2)+A(2)+A(2)",
        "U(2)+U(2)",
        "U(4)+diag(-2,-2)",
        "U(2)+D(4)",
        "U+diag(-2,-2,-2,-2,-2)",
        "U(2)+diag(-2,-2,-2)",
        "U(2)+U(4)",
        "U(2)+U(6)",
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.oracle = _load_oracles(self.name)

    def inputs(self):
        """The seed's endless sequence of rounds, as plain data."""
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            forms = []
            for label in rng.sample(self.tiers, len(self.tiers)):
                gram = gram_of(label)
                forms.append((label, _congruent(gram, random_unimodular(len(gram), rng))))
            yield forms

    def rounds(self):
        for forms in self.inputs():
            yield [q for label, gram in forms for q in self._queries(label, gram)]

    def _queries(self, label, gram):
        import cuspcount as cc

        want = self.oracle[label]
        state = {}

        def aut():
            form = cc.discriminant_form(cc.make_lattice(gram))
            state["O"] = cc.aut_group(form)
            state["pm"] = cc.plus_minus_subgroup(form)
            return state["O"].order()

        def pm_o_pm():
            return cc.double_coset_count(state["pm"], state["O"], state["pm"])

        def pm_o_o():
            return cc.double_coset_count(state["pm"], state["O"], state["O"])

        return (
            Query(f"aut {label}", aut, _equals(want["aut_order"])),
            Query(f"pm\\O/pm {label}", pm_o_pm, _equals(want["pm_O_pm"])),
            Query(f"pm\\O/O {label}", pm_o_o, _equals(want["pm_O_O"])),
        )


# --- iso-window ------------------------------------------------------------------


def _check_count(want):
    def check(answer):
        code, out = answer
        if code != 0:
            return False
        report = json.loads(out)
        return [report["value"], report["exact"]] == want

    return check


def _check_classes(want):
    def check(answer):
        code, out = answer
        if code != want["exit"]:
            return False
        if code != 0:
            return out == ""
        sizes = sorted(len(c["vectors"]) for c in json.loads(out)["classes"])
        return sizes == want["class_sizes"]

    return check


class IsoWindow:
    """Window queries through cli.main on hyperbolic lattices given as
    {"gram": ...} files.  A round takes every tier once, in a seeded order,
    each in a random signed-permutation basis, which maps the coordinate
    window onto itself and so keeps the answers."""

    name = "iso-window"
    tail_pct = 90
    trace_rounds = 4
    tiers = (
        ("U+diag(-2,-2)", 4),
        ("U+A(2)", 4),
        ("U(2)+diag(-2,-2)", 4),
        ("U+diag(-2,-4)", 4),
        ("U(2)+A(2)", 4),
        ("U+diag(-2,-6)", 4),
        ("U+diag(-2,-2,-2)", 3),
        ("U+A(3)", 3),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.oracle = _load_oracles(self.name)

    def inputs(self):
        """The seed's endless sequence of rounds, as plain data."""
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            lattices = []
            for label, bound in rng.sample(self.tiers, len(self.tiers)):
                gram = gram_of(label)
                lattices.append((label, bound, _congruent(gram, random_signed_permutation(len(gram), rng))))
            yield lattices

    def rounds(self):
        for k, lattices in enumerate(self.inputs()):
            queries = []
            for i, (label, bound, gram) in enumerate(lattices):
                path = os.path.join(self.workdir, f"{k:04d}-{i}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"gram": gram}, handle)
                queries.extend(self._queries(label, bound, path))
            yield queries

    def _queries(self, label, bound, path):
        want = self.oracle[f"{label}@{bound}"]
        b = str(bound)
        return (
            _cli_query(
                f"fm-elliptic {label}", ["fm", "elliptic", path, "--bound", b],
                _check_count(want["fm_elliptic"]),
            ),
            _cli_query(
                f"classify-i1 {label}", ["classify-i1", path, "--bound", b],
                _check_classes(want["classify_i1"]),
            ),
            _cli_query(
                f"cusps-div2 {label}", ["cusps", path, "--div", "2", "--bound", b],
                _check_count(want["cusps_div2"]),
            ),
        )


WORKLOADS = {w.name: w for w in (UrFamily, FqfGroups, IsoWindow)}
