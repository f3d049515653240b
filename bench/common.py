"""Pieces shared by the workload modules."""

from __future__ import annotations

import hashlib
import random
import time
from typing import NamedTuple

import measure
from trirad import exactnum
from trirad.words import GroupWord, Syllable

# the coprime pairs the acceptance suite exercises
PQ_LIST = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 7))

# status of a failed op that is the known matrix_to_word defect (README: known defect)
KNOWN = "known matrix_to_word defect"


class Failure(NamedTuple):
    """An op that raised; kept as its result so the checks can classify it."""

    kind: str
    message: str


def round_rng(name, seed, round_idx):
    """The RNG of one round: the same (workload, seed, round) gives the same inputs."""
    return random.Random(f"{name}:{seed}:{round_idx}")


def random_word(params, rng, syllables, first=None):
    """Random normal-form word: alternating generators, a random central sign."""
    gen = first or rng.choice("SU")
    sylls = []
    for _ in range(syllables):
        order = params.p if gen == "S" else params.q
        sylls.append(Syllable(gen, rng.randint(1, order - 1)))
        gen = "U" if gen == "S" else "S"
    return GroupWord(rng.choice((1, -1)), tuple(sylls))


def certified_sign(x):
    return exactnum.sign(x).value


def timed_ops(op, inputs):
    """Run `op` on each input: per-op CPU times, results (a Failure if it raised), their sum.

    Times are this process's CPU time (all its threads), which time spent
    descheduled does not inflate.  A speed probe (measure.probe) runs between
    ops after every PROBE_EVERY seconds of op time, outside the op times.
    """
    clock = time.process_time
    lat, results = [], []
    busy, next_probe = 0.0, measure.PROBE_EVERY
    for inp in inputs:
        t0 = clock()
        try:
            r = op(inp)
        except Exception as exc:  # a failing op is counted by the checks; the run goes on
            r = Failure(type(exc).__name__, str(exc))
        lat.append(clock() - t0)
        results.append(r)
        busy += lat[-1]
        if busy >= next_probe:
            measure.probe()
            next_probe = busy + measure.PROBE_EVERY
    return lat, results, busy


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class PerOpWorkload:
    """A workload whose round is a list of independent ops: `op` and `check_one`."""

    def run_round(self, inputs):
        return timed_ops(self.op, inputs)

    def digest(self, results):
        return digest(results)

    def check(self, inputs, results):
        return [self.check_one(inp, r) for inp, r in zip(inputs, results)]
