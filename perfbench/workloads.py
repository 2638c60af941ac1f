"""The three workloads, the operation runner and the reference loop.

A workload draws its inputs from the seed when it is made, then runs whole
rounds of the same operations.  Every operation is timed on its own, and its
result is checked against oracles.py outside the timed region.  An operation
that raises or whose check fails counts as failed; the round runs on.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import sys
from array import array
from time import perf_counter
from typing import NamedTuple

from fsind import cocycles as co
from fsind import cyclotomic as cy
from fsind import extensions as ext
from fsind import groups as gr
from fsind import indicators as ind

import oracles
from oracles import Family

SAMPLE_PERIOD_S = 0.025  # wall time between two runs of the reference loop
WINDOW_S = 0.1  # samples this far before and after an operation count for it
REF_ITERATIONS = 6000
MAX_REPORTED_FAILURES = 5


def reference_loop():
    """A fixed pure-Python loop that uses nothing of fsind: dict updates and
    integer arithmetic, the kind of work the engines' inner loops do."""
    seen: dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        k = (i * 7919) % 257
        seen[k] = seen.get(k, 0) + i
        acc = (acc + k * k) % 1000003
    return acc


def reference_time(runs=9):
    """The median time of the reference loop over `runs` runs, in seconds."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def tail_percentile(ops_per_round):
    """The highest whole percentile with at least 10 of one round's
    operation times beyond it."""
    return int(100 - 1000 / ops_per_round)


def _tail(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Sampler:
    """Runs the reference loop every SAMPLE_PERIOD_S of wall time, from a
    SIGALRM handler, so that it also samples the host's speed in the middle
    of a long operation.  The handler runs on the one thread of work,
    between two bytecodes of whatever was running; the time it takes is
    kept in `stolen` and taken out of every operation and span."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each run of the loop
        self.durations: list[float] = []  # the loop's time at each run
        self.stolen = 0.0
        self._busy = False
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        self._busy = True
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.stolen += perf_counter() - t0
        self._busy = False

    def now(self):
        """(perf_counter, stolen) read with no sample between the two."""
        while True:
            stolen = self.stolen
            t = perf_counter()
            if stolen == self.stolen:
                return t, stolen

    def work_clock(self):
        """perf_counter with the sampler's own time taken out."""
        t, stolen = self.now()
        return t - stolen

    def reference(self, t0, t1):
        """Mean loop time over the samples from WINDOW_S before t0 to
        WINDOW_S after t1, widened to the nearest sample on each side."""
        i = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        i = min(i, max(0, bisect.bisect_left(self.starts, t0) - 1))
        j = max(j, min(len(self.starts), bisect.bisect_right(self.starts, t1) + 1))
        return statistics.fmean(self.durations[i:j])

    def forget_before(self, t):
        """Drop the samples that no operation starting after t reads."""
        k = max(0, bisect.bisect_left(self.starts, t - WINDOW_S) - 1)
        del self.starts[:k]
        del self.durations[:k]

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Round(NamedTuple):
    """One round's figures: its operation time in seconds and in reference
    loops, and the median and tail of its operations in both."""

    seconds: float
    refs: float
    op_ref_p50: float
    op_ref_tail: float
    op_s_p50: float
    op_s_tail: float


class Runner:
    """Times operations, checks their results, and divides each operation's
    time by the reference loop's time measured around and during it.

    The host's speed swings by a quarter within seconds, so a wall-clock
    figure moves from one run to the next by as much; the same figure in
    reference loops moves far less.  Each round is reduced to a Round when
    it ends, so the runner holds one round's operations at a time and its
    memory does not grow with the number of rounds a run makes.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds: list[Round] = []
        self.round_ends: list[int] = []  # id of each round's last operation
        self.tail_q = None  # the tail percentile, set when a round ends
        self._ops = array("d")  # start, end, seconds of each operation of this round
        self.sampler = Sampler()
        tracer.clock = self.sampler.work_clock

    def op(self, label, fn, check):
        """Run fn timed, then check(result) untimed; return the result."""
        self.attempted += 1
        self.tracer.op = self.attempted
        t0, stolen0 = self.sampler.now()
        try:
            result = fn()
            error = None
        except Exception as exc:  # an operation's failure must not stop the round
            result, error = None, exc
        t1, stolen1 = self.sampler.now()
        self.tracer.op = None
        self._ops.extend((t0, t1, (t1 - t0) - (stolen1 - stolen0)))
        if error is None:
            try:
                ok = check(result)
            except Exception as exc:  # a check that cannot run counts as failed
                ok, error = False, exc
            if not ok:
                self.wrong += 1
        if error is not None or not ok:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                why = f"{type(error).__name__}: {error}" if error is not None else "wrong result"
                print(f"perfbench: operation {label!r} failed: {why}", file=sys.stderr)
        return result

    def end_round(self):
        """Take a sample after the round's last operation, express each of
        its operations in reference loops and keep the round's figures."""
        self.round_ends.append(self.attempted)
        sampler, ops = self.sampler, self._ops
        sampler.sample()
        times = ops[2::3]
        refs = [ops[i + 2] / sampler.reference(ops[i], ops[i + 1]) for i in range(0, len(ops), 3)]
        self.tail_q = q = tail_percentile(len(times))  # the same in every round
        self.rounds.append(Round(sum(times), sum(refs), statistics.median(refs), _tail(refs, q),
                                 statistics.median(times), _tail(times, q)))
        del ops[:]
        sampler.forget_before(perf_counter())

    def finish(self):
        self.sampler.stop()


# ---------------------------------------------------------------------------
# operations shared by the workloads


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _family_category(run, fam):
    with run.tracer.span("extensions.build"):
        return ext.parse_family_spec(fam.spec)


def _cyclic_category(run, big_n, r):
    with run.tracer.span("extensions.build"):
        omega = co.psi(big_n, r)
        return ext.GTCategory(omega.group, omega, label=f"(Z{big_n},psi^{r})")


def value_op(run, cat, n, expected):
    """nu_n by the brute engine, rendered as text as the CLI prints it."""

    def evaluate():
        value = ind.nu_brute(cat, n)
        run.tracer.add("indicators.values", 1)
        return value, value.render_text()

    def check(result):
        value, text = result
        want = expected(n)
        return value == want and oracles.from_text(text) == want

    run.op(f"nu_{n} {cat.label}", evaluate, check)


def c_omega_op(run, cat):
    run.op(f"c_omega {cat.label}", lambda: co.c_omega(cat.omega),
           lambda c: c == oracles.c_from_omega_tilde(cat))


def gauss_op(run, a, m):
    def check(result):
        direct, closed = result
        if direct != closed:
            return False
        if oracles.is_odd_prime(m) and a % m:
            return direct * direct.conjugate() == cy.CyclotomicInteger.from_int(m)
        return True

    run.op(f"S({a},{m})", lambda: (cy.gauss_sum_direct(a, m), cy.gauss_sum_closed(a, m)), check)


def _cli_row(entry):
    value = entry.value
    return {
        "n": entry.n,
        "value": value.to_json_dict(),
        "text": value.render_text(),
        "divisible_by_n": entry.divisible_by_n,
        "p": entry.p,
        "divisible_by_n_over_sqrt_p": entry.divisible_by_n_over_sqrt_p,
    }


def analyse(run, label, build, expected_value, expected_c, expected_failures):
    """Build a category, run the Frobenius analyzer over every divisor of its
    order and render each value to text and JSON as the CLI prints them.

    expected_failures lists the n where n does not divide nu_n, and at each
    of them the sqrt(p)-refined test must pass; None makes no such claim
    beyond the per-value divisibility checks."""

    def work():
        cat = build()
        report = ind.frobenius_check(cat)
        run.tracer.add("indicators.values", len(report.entries))
        with run.tracer.span("cyclotomic.render"):
            rows = [_cli_row(e) for e in report.entries]
            json.dumps({"entries": rows, "verdict": report.verdict}, indent=2, sort_keys=True)
        return cat, report, rows

    def check(result):
        cat, report, rows = result
        if [e.n for e in report.entries] != _divisors(cat.group.order):
            return False
        if report.c_omega != expected_c(cat):
            return False
        for e, row in zip(report.entries, rows):
            want = expected_value(e.n)
            if e.value != want or e.divisible_by_n != oracles.divisible(want, e.n):
                return False
            if e.divisible_by_n_over_sqrt_p is not None and (
                e.divisible_by_n_over_sqrt_p != oracles.divisible_over_sqrt_p(want, e.n, e.p)
            ):
                return False
            back, close = oracles.from_json(row["value"])
            if not close or back != want or oracles.from_text(row["text"]) != want:
                return False
        if expected_failures is None:
            return True
        failures = [e for e in report.entries if not e.divisible_by_n]
        return [e.n for e in failures] == list(expected_failures) and all(
            e.divisible_by_n_over_sqrt_p for e in failures
        )

    run.op(label, work, check)


def build_family(run, fam):
    return run.op(f"build {fam.spec}", lambda: _family_category(run, fam),
                  lambda cat: cat.group.order == fam.order)


def analyse_family(run, fam):
    analyse(run, f"frobenius {fam.spec}", lambda: _family_category(run, fam),
            fam.closed, oracles.c_from_omega_tilde, ())


def analyse_cyclic(run, big_n, r):
    # (Z_p, psi^r) with p an odd prime and r != 0 mod p fails at n = p only
    fails = (big_n,) if oracles.is_odd_prime(big_n) and r % big_n else None
    analyse(run, f"frobenius (Z{big_n},psi^{r})", lambda: _cyclic_category(run, big_n, r),
            lambda n: oracles.nu_cyclic(big_n, r, n),
            lambda cat: oracles.c_cyclic(big_n, r), fails)


# ---------------------------------------------------------------------------
# seeded inputs


def h2n2(rng, n):
    return Family("h2n2", (n, rng.randrange(n)))


def hn3(rng, n):
    return Family("hn3", (n, rng.randrange(n), rng.randrange(n)))


def suzuki(rng, n, l):
    # the cyclic case excludes (N even, alpha = +1)
    alpha = -1 if n % 2 == 0 else rng.choice((1, -1))
    return Family("suzuki", (n, l, alpha, rng.choice((1, -1))))


def suzuki_p(rng, n, l):
    return Family("suzukiP", (n, l, rng.choice((1, -1))))


class DivisorSweep:
    """nu_n for every divisor n of |Gamma|, categories of order 360 to 800."""

    def __init__(self, rng):
        self.families = [hn3(rng, 9), h2n2(rng, 20), suzuki(rng, 5, 30)]
        self.cyclic = [(400, rng.randrange(1, 400)), (360, rng.randrange(1, 360))]
        self.divisors = {n: _divisors(n) for n in [f.order for f in self.families] + [400, 360]}

    def round(self, run):
        for fam in self.families:
            cat = build_family(run, fam)
            for n in self.divisors[fam.order]:
                value_op(run, cat, n, fam.closed)
        for big_n, r in self.cyclic:
            cat = run.op(f"build (Z{big_n},psi^{r})", lambda: _cyclic_category(run, big_n, r),
                         lambda cat: cat.group.order == big_n)
            for n in self.divisors[big_n]:
                value_op(run, cat, n, lambda n: oracles.nu_cyclic(big_n, r, n))


class Validate:
    """Build and vet small categories: group-axiom checks, cocycle
    verification, c(omega), nu_2, and two negative controls."""

    def __init__(self, rng):
        self.exhaustive_group = h2n2(rng, 12)  # order 288, cubic group check
        self.control = h2n2(rng, 3)  # order 18, also carries the altered cocycle
        self.verified = [
            hn3(rng, 5),  # order 125: sampled verification
            hn3(rng, 3),
            self.control,
            suzuki(rng, 3, 2),
            suzuki_p(rng, 2, 3),
            suzuki(rng, 1, 4),
            suzuki_p(rng, 2, 2),
            h2n2(rng, 2),
            suzuki(rng, 1, 3),
        ]
        # Both alterations sit in the row of element 1, so each check meets
        # its first violation after the same number of cases whatever the seed.
        n = self.exhaustive_group.order
        self.bad_product = (1, rng.randrange(1, n), rng.randrange(1, n))
        n = self.control.order
        self.bad_value = (
            (1, rng.randrange(1, n), rng.randrange(1, n)),
            rng.randrange(1, self.control.value_order),
        )

    def round(self, run):
        fam = self.exhaustive_group
        cat = build_family(run, fam)
        c_omega_op(run, cat)
        value_op(run, cat, 2, fam.closed)
        run.op(f"altered product in {fam.spec}", lambda: self._altered_group(cat.group),
               lambda raised: raised is True)
        for fam in self.verified:
            cat = build_family(run, fam)
            run.op(f"verify {fam.spec}", lambda: co.verify_cocycle(cat.omega, mode="auto"),
                   lambda rep: rep.ok)
            c_omega_op(run, cat)
            value_op(run, cat, 2, fam.closed)
            if fam is self.control:
                run.op(f"altered value in {fam.spec}", lambda: self._altered_cocycle(cat),
                       lambda rep: not rep.ok)

    def _altered_group(self, grp):
        """True iff the axiom check rejects the table with one product moved."""
        g, h, shift = self.bad_product
        wrong = (grp.mul(g, h) + shift) % grp.order

        def mul(a, b):
            return wrong if a == g and b == h else grp.mul(a, b)

        try:
            gr.FiniteGroup(grp.order, mul, label="altered", check=True)
        except ValueError:
            return True
        return False

    def _altered_cocycle(self, cat):
        (pos, delta) = self.bad_value
        f = cat.omega.exp_fn

        def exp_fn(g, h, k):
            return f(g, h, k) + (delta if (g, h, k) == pos else 0)

        altered = co.ThreeCocycle(cat.group, cat.omega.value_order, exp_fn, label="altered")
        return co.verify_cocycle(altered, mode="full")


class Survey:
    """The Frobenius analyzer over small families and (Z_N, psi^r), and
    quadratic Gauss sums direct beside closed form."""

    CYCLIC_MAX = 80
    GAUSS_MAX = 80

    def __init__(self, rng):
        self.families = [h2n2(rng, n) for n in range(2, 7)] + [
            hn3(rng, 3),
            suzuki(rng, 1, 2),
            suzuki(rng, 3, 2),
            suzuki(rng, 2, 3),
            suzuki(rng, 1, 4),
            suzuki_p(rng, 2, 2),
            suzuki_p(rng, 4, 3),
            suzuki_p(rng, 2, 5),
        ]
        self.cyclic = [(n, rng.randrange(1, n)) for n in range(2, self.CYCLIC_MAX + 1)]
        self.gauss = [(a, m) for m in range(1, self.GAUSS_MAX + 1) for a in range(m)]

    def round(self, run):
        for fam in self.families:
            analyse_family(run, fam)
        for big_n, r in self.cyclic:
            analyse_cyclic(run, big_n, r)
        for a, m in self.gauss:
            gauss_op(run, a, m)


WORKLOADS = {"divisor-sweep": DivisorSweep, "validate": Validate, "survey": Survey}
