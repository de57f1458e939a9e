"""The four benchmark workloads: inputs, warm-up, timed operations, checks.

Inputs are exact rationals drawn like the acceptance suite's (denominators
7, 9, 11, 12, 13, 20) from a seeded `random.Random`; they are made before
the package is imported, so their cost is in neither set-up nor timing.
A workload hands the runner a pool of rounds; a round is a fixed list of
operations ("ops"), and a run attempts whole rounds only.

Every check runs after the timed section and compares the program's output
with an oracle of `flatklein.oracle` (which shares no formulas with the fast
paths) or with a property the method must have, never with a stored copy of
earlier output.  The library is always reached through attributes of the
package (`fk.plan`, ...), so that the tracer and the self-test can rebind
them.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

DENS = (7, 9, 11, 12, 13, 20)


def rat(rng: random.Random) -> F:
    den = rng.choice(DENS)
    return F(rng.randrange(0, den), den)


def interval_rat(rng: random.Random) -> F:
    """A horizontal coordinate that is never 0 or 1/2 (a generic cell axis)."""
    while True:
        v = rat(rng)
        if v not in (0, F(1, 2)):
            return v


def point(rng: random.Random, n: int) -> tuple[F, ...]:
    return tuple(rat(rng) for _ in range(n))


class OpError:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text


class Workload:
    name = ""
    #: rounds per process; None lets one process run until the time is up
    process_rounds: int | None = None
    #: rounds a run makes even when the time is up sooner
    min_rounds = 1
    #: checked ops replayed after timing, which must give the same results
    replay = 0

    def inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def warm_up(self, fk) -> None:
        pass

    def op(self, fk, inp):
        raise NotImplementedError

    def call(self, fk, inp):
        try:
            return self.op(fk, inp)
        except Exception as exc:  # an op that raises is a failed op
            return OpError(exc)

    def run_round(self, fk, round_inputs, clock) -> list:
        """Time each op on its own.

        Returns (span, latency_ns, input, result) per op, where span is the
        (start, end) reading of `clock()` over which the latency was taken.
        The runner's clock leaves out the time its speed probe takes.
        """
        out = []
        for inp in round_inputs:
            start = clock()
            result = self.call(fk, inp)
            end = clock()
            out.append(((start, end), end - start, inp, result))
        return out

    def check(self, fk, inp, result) -> str | None:
        """Problem with one op's output, or None."""
        raise NotImplementedError

    def check_run(self, fk, records, rng: random.Random) -> list[str]:
        """Problems found across the (input, result) records of a run's
        checked ops: here, a shuffled sample replayed that gives other results."""
        sample = rng.sample(records, min(len(records), self.replay))
        bad = sum(self.call(fk, inp) != result for inp, result in sample)
        return [f"{bad} of {len(sample)} replayed ops differ"] if bad else []


class Metric(Workload):
    """op = one pair: project both points, squared_distance, minimal_lifts."""

    name = "metric"

    def __init__(self, tiny=False):
        self.dims = (2, 3) if tiny else (2, 3, 4, 5, 6, 7)
        self.rounds = 20 if tiny else 200
        self.replay = 10 if tiny else 200

    def inputs(self, rng):
        return [[(point(rng, n), point(rng, n)) for n in self.dims]
                for _ in range(self.rounds)]

    def warm_up(self, fk):
        for n in self.dims:
            self.op(fk, ((F(1, 3),) * n, (F(-7, 5),) * n))

    def op(self, fk, inp):
        y = fk.project(inp[0])
        z = fk.project(inp[1])
        return y.rep, z.rep, fk.squared_distance(y, z), tuple(fk.minimal_lifts(y.rep, z))

    def check(self, fk, inp, result):
        y, z, d2, lifts = result
        if fk.brute_distance(inp[0], y) != 0 or fk.brute_distance(inp[1], z) != 0:
            return "projection is not the image of the input point"
        if not all(0 <= c < 1 for c in y + z):
            return "representative outside [0,1)^n"
        oracle_d2, images = fk.brute_minimal_images(y, z)
        if d2 != oracle_d2:
            return f"squared distance {d2} != oracle {oracle_d2}"
        if list(lifts) != images:
            return "minimal lifts differ from the oracle's images"
        if any(fk.project(q).rep != z for q in lifts):
            return "a lift does not project to the target"
        return None


class Plan(Workload):
    """op = one warm `plan(y, z)`."""

    name = "plan"

    def __init__(self, tiny=False):
        self.dims = (2, 3) if tiny else (2, 3, 4)
        self.rounds = 30 if tiny else 500
        self.replay = 10 if tiny else 200

    def inputs(self, rng):
        return [[(point(rng, n), point(rng, n)) for n in self.dims]
                for _ in range(self.rounds)]

    def warm_up(self, fk):
        # one pair in every stratum of each dimension: a superset of the
        # strata any run hits, so the set-up does not depend on the seed
        for n in self.dims:
            for stratum in fk.catalog(n):
                fk.plan(stratum.witness, stratum.witness)

    def op(self, fk, inp):
        return fk.plan(*inp)

    def check(self, fk, inp, result):
        y, z = inp
        n = len(y)
        if not 0 <= result.index <= 2 * n:
            return f"index {result.index} outside 0..{2 * n}"
        if result.index != result.stratum_dim + result.face_dim:
            return "index != stratum_dim + face_dim"
        oracle_d2, images = fk.brute_minimal_images(y, z)
        if sum((a - b) ** 2 for a, b in zip(y, result.lift)) != oracle_d2:
            return "chosen lift is not at the oracle's distance"
        if result.lift not in images:
            return "chosen lift is not one of the oracle's images"
        return None


class Atlas(Workload):
    """Cold catalogs n = 2..7 and the cell at every stratum witness of n <= 4.

    op = one stratum delivered.  Its latency is its share of the `catalog`
    call that delivered it plus, for n <= 4, the time to build its cell.
    One round per process keeps every round cold.
    """

    name = "atlas"
    process_rounds = 1

    def __init__(self, tiny=False):
        self.dims = (2, 3) if tiny else (2, 3, 4, 5, 6, 7)
        self.cell_max = 3 if tiny else 4

    def inputs(self, rng):
        # the seed only orders the cell builds; catalogs have no input but n
        return [rng.randrange(1 << 30)]

    def run_round(self, fk, order_seed, clock):
        delivered = {}
        for n in self.dims:
            start = clock()
            strata = fk.catalog(n)
            delivered[n] = (strata, (start, clock()))
        todo = [(n, i) for n in self.dims if n <= self.cell_max
                for i in range(len(delivered[n][0]))]
        random.Random(order_seed).shuffle(todo)
        cells = {}
        for n, i in todo:
            witness = delivered[n][0][i].witness
            start = clock()
            cell = fk.cut_polytope(witness)
            data = (cell, cell.vertices(), cell.face_lattice(),
                    cell.face_equivalences(), fk.representatives(witness))
            cells[n, i] = ((start, clock()), data)
        out = []
        for n in self.dims:
            strata, (start, end) = delivered[n]
            share = (end - start) // len(strata)
            for i, stratum in enumerate(strata):
                # the span is where most of the op's time went
                span, data = cells.get((n, i), ((start, end), None))
                cell_ns = span[1] - span[0] if data else 0
                out.append((span, share + cell_ns, None, (stratum, data)))
        return out

    def check(self, fk, inp, result):
        stratum, data = result
        back = fk.classify(stratum.witness)
        if (back.domain, back.alpha) != (stratum.domain, stratum.alpha):
            return f"witness {stratum.witness} classifies to another stratum"
        if data is None:
            return None
        cell, verts, faces, classes, _ = data
        pairs = [(normal, off) for _, normal, off in cell.halfspaces()]
        if sorted(v.coords for v in verts) != fk.brute_vertices(pairs):
            return "vertex set differs from the exhaustive oracle"
        if sum((-1) ** f.dim for f in faces) != 1:
            return "face lattice breaks Euler's relation"
        groups: dict = {}
        for i, f in enumerate(faces):
            pts = [verts[v].coords for v in f.vertex_ids]
            bary = tuple(sum(col) / len(pts) for col in zip(*pts))
            groups.setdefault((f.dim, fk.project(bary)), []).append(i)
        if sorted(groups.values()) != sorted(sorted(c) for c in classes):
            return "face classes differ from the barycenter partition"
        return None

    def check_run(self, fk, records, rng):
        problems = []
        strata = [res for _, res in records]
        for n in self.dims:
            if n > self.cell_max:
                continue
            hit = {s.dim + j for s, data in strata if len(s.witness) == n
                   for j in data[4]}
            if hit != set(range(2 * n + 1)):
                problems.append(f"n={n}: stratum + face dims cover {sorted(hit)}")
        if 7 in self.dims:
            split = _criterion_09_split(
                [s for s, _ in strata if s.domain.kinds == ("interval",) * 7])
            if split != {"a": 1, "b": 1, "c": 1, "d": 6, "e": 15, "f": 6, "center": 1}:
                problems.append(f"n=7 all-interval split is {split}")
        return problems


def _criterion_09_split(seven) -> dict:
    """Classes a-f and center of the n = 7 all-interval strata, counted."""
    top = tuple(range(6))
    hist: dict = {}
    for s in seven:
        tau = s.alpha.sign_of(top)
        level5 = [sg for sub, sg in s.alpha.items() if len(sub) == 5]
        if tau >= 0:
            key = "a" if tau == 1 else "b"
        elif level5.count(-1) == 1:
            key = "f"
        elif level5.count(0) == 0:
            key = "c"
        elif level5.count(0) == 6:
            key = "center"
        else:
            key = "d" if level5.count(0) == 1 else "e"
        hist[key] = hist.get(key, 0) + 1
    return hist


class Verify(Workload):
    """op = one trial of `flatklein verify`: vertex oracle + one distance."""

    name = "verify"
    # a round holds only two trials at n = 6, whose cost depends on the
    # cell's stratum: four rounds keep the percentiles steady from seed to seed
    min_rounds = 4

    def __init__(self, tiny=False):
        # trial latencies span three decades, so the mix sets which trials
        # the percentiles fall on: the median in the middle of the n = 4
        # group and the 90th percentile in the middle of the n = 6 group,
        # never on a step between groups.  The n = 4 trials sit between the
        # long ones, so that they sample the whole run.  n = 5, 6 still take
        # nearly all of the time
        self.dims = (2, 3) if tiny else (4, 5, 4, 6, 4, 6, 4, 2, 3)
        # as `flatklein verify`: exhaustive oracle below n = 6, certifier from
        # there (from n = 3 at tiny sizes, so that the self-test reaches it)
        self.certify_from = 3 if tiny else 6
        self.rounds = 20 if tiny else 100

    def inputs(self, rng):
        # generic cells (no horizontal coordinate at 0 or 1/2): a prism
        # coordinate cuts the oracle's work at n = 5 more than tenfold, which
        # would make a run's cost depend on the seed
        return [[(tuple(interval_rat(rng) for _ in range(n - 1)) + (rat(rng),),
                  point(rng, n), point(rng, n)) for n in self.dims]
                for _ in range(self.rounds)]

    def warm_up(self, fk):
        for n in (2, 3):
            self.op(fk, ((F(1, 3),) * n, (F(1, 5),) * n, (F(4, 7),) * n))

    def op(self, fk, inp):
        base, y, z = inp
        cell = fk.cut_polytope(fk.project(base))
        claimed = [v.coords for v in cell.vertices()]
        pairs = [(normal, off) for _, normal, off in cell.halfspaces()]
        if len(base) < self.certify_from:
            vertices_ok = sorted(claimed) == fk.brute_vertices(pairs)
        else:
            vertices_ok = fk.certify_vertices(pairs, claimed).ok
        yp, zp = fk.project(y), fk.project(z)
        return vertices_ok, fk.squared_distance(yp, zp) == fk.brute_distance(yp, zp)

    def check(self, fk, inp, result):
        vertices_ok, distance_ok = result
        if not vertices_ok:
            return f"vertex oracle disagrees at P = {inp[0]}"
        if not distance_ok:
            return f"distance oracle disagrees for {inp[1]} -> {inp[2]}"
        return None


WORKLOADS = {w.name: w for w in (Metric, Plan, Atlas, Verify)}
