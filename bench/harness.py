"""Shared pieces of the benchmark: paths, statistics, traffic plans, references.

Every workload draws its traffic from a :class:`Plan` built here from the
run seed, and checks the program's decisions against :class:`Reference`,
which scores (user, resource) cells with the fixtures' model and rules
outside the ledger. The program itself only ever sees the generated
transactions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"

# Seed kept out of tuning; later claims are re-checked on it.
HELD_OUT_SEED = 7919

# Traffic mix shared by all workloads (shares of requests, then of grants).
# Synthetic: the paper states no evaluation mix. The abandon share matches
# the probe that showed the redemption mis-attribution; the others are
# chosen so that each path runs a few hundred times in one run.
UNREGISTERED_SHARE = 0.10
RULE_CELL_SHARE = 0.10
ABANDON_SHARE = 0.20  # grants whose link is never redeemed
REPLAY_SHARE = 0.10  # redeemed links replayed to the storage node
N_UNREGISTERED_KEYS = 16


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no program source)."""


def bench_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metric names and units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no {path.name} at {ROOT}")
    return json.loads(path.read_text())


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "chainacl" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chainacl  # noqa: F401

    return chainacl


def fixtures():
    """``scenarios.shared_fixtures()``, kept in the checkout between runs.

    Training the fixtures' model takes seconds of every run and depends on
    the program's source alone, so the fixtures are pickled right after they
    are built, under a hash of ``src/chainacl``, and later runs load them.
    """
    import pickle

    from chainacl import scenarios

    digest = hashlib.sha256()
    for path in sorted((SRC / "chainacl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cache = RUN_DIR / f"fixtures-{digest.hexdigest()[:16]}.pickle"
    if cache.is_file():
        return pickle.loads(cache.read_bytes())
    fx = scenarios.shared_fixtures()
    RUN_DIR.mkdir(exist_ok=True)
    partial = cache.with_suffix(".partial")
    partial.write_bytes(pickle.dumps(fx))
    partial.replace(cache)
    return fx


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- statistics -----------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (capped at p99)."""
    if n <= 20:
        return 0.5
    return min(0.99, 1.0 - 10.0 / n)


def timing_summary(values) -> dict:
    """Median, the tail percentile the sample supports, and the sample count."""
    q = tail_quantile(len(values))
    return {"p50": quantile(values, 0.5), "tail": quantile(values, q), "tail_q": q, "n": len(values)}


class Speedometer:
    """Tracks this machine's speed while a run works, for speed-scaled timings.

    On a shared host the same work takes up to twice as long from one
    minute to the next, which would swamp any change to the program.
    ``sample`` times a fixed reference workload, ``VERIFIES`` Ed25519
    verifications made with ``cryptography`` directly, never through the
    program; workloads call it between units of work (slots, blocks,
    reads), outside the intervals they time. A factor is the mean reference
    time over ``NOMINAL_REF_MS``, so dividing a CPU-bound duration by the
    factor around it gives the duration on a machine where the reference
    takes ``NOMINAL_REF_MS``. A program change leaves the reference
    untouched, so it moves scaled and raw figures alike. The reference is
    native code with a working set of a few kilobytes, so the program's
    heap does not slow it; a reference of Python hashing, dict and
    allocation work with a scan over a log-sized table tracked the host's
    slowdowns of the program less well than the raw figures vary.
    """

    VERIFIES = 6
    NOMINAL_REF_MS = 0.9  # 150 us per verification
    WINDOW = 5  # samples on each side that ``local`` averages over

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        key = Ed25519PrivateKey.from_private_bytes(hashlib.sha256(b"bench-speedometer").digest())
        self._message = b"bench-speedometer-reference" * 4
        self._signature = key.sign(self._message)
        self._verify = key.public_key().verify
        self.loop_s: list[float] = []
        self.total_s = 0.0
        self._reference()  # warm: the first run in a process is slower

    def _reference(self) -> None:
        for _ in range(self.VERIFIES):
            self._verify(self._signature, self._message)

    def sample(self) -> int:
        """Run the reference once; returns the sample's index."""
        start = time.perf_counter()
        self._reference()
        elapsed = time.perf_counter() - start
        self.loop_s.append(elapsed)
        self.total_s += elapsed
        return len(self.loop_s) - 1

    def _factor(self, samples) -> float:
        return sum(samples) * 1000.0 / len(samples) / self.NOMINAL_REF_MS

    @property
    def factor(self) -> float:
        return self._factor(self.loop_s)

    def local(self, first: int, last: int) -> float:
        """The factor around samples ``first``..``last``, widened by ``WINDOW``."""
        return self._factor(self.loop_s[max(0, first - self.WINDOW) : last + self.WINDOW + 1])


def machine_record() -> dict:
    import cryptography
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "platform": platform.platform(),
    }


# -- traffic plan ------------------------------------------------------------------


@dataclass
class Req:
    """One planned access request and what its user will do with the answer."""

    index: int
    due: int  # slot (logical workloads) or ordinal (live)
    user: int  # fixture user index, or -1 for an unregistered key
    key_index: int  # index into the unregistered key pool when user == -1
    resource: int
    op: int
    kind: str  # cell | rule_denies | rule_allows | unregistered
    abandon: bool
    replay: bool
    request_id: bytes


@dataclass
class Plan:
    requests: list[Req]
    per_due: dict[int, list[Req]] = field(default_factory=dict)

    def __post_init__(self):
        for r in self.requests:
            self.per_due.setdefault(r.due, []).append(r)

    def repeated_pair_share(self) -> float:
        seen: set = set()
        repeats = 0
        for r in self.requests:
            pair = (r.user, r.key_index, r.resource)
            repeats += pair in seen
            seen.add(pair)
        return repeats / max(1, len(self.requests))


def make_plan(seed: int, dues: range, per_due: int, pairs: dict, n_users: int, n_resources: int) -> Plan:
    """Seeded open-loop traffic: ``per_due`` new requests at every due point."""
    rng = random.Random(f"chainacl-bench/{seed}")
    out: list[Req] = []
    for due in dues:
        for _ in range(per_due):
            roll = rng.random()
            key_index = -1
            if roll < UNREGISTERED_SHARE:
                kind = "unregistered"
                user, key_index = -1, rng.randrange(N_UNREGISTERED_KEYS)
                resource, op = rng.randrange(n_resources), rng.randrange(4)
            elif roll < UNREGISTERED_SHARE + RULE_CELL_SHARE:
                kind = rng.choice(("rule_denies", "rule_allows"))
                user, resource, op = pairs[kind]
                if kind == "rule_denies":
                    op = rng.randrange(4)  # that rule denies every operation
            else:
                kind = "cell"
                user, resource, op = rng.randrange(n_users), rng.randrange(n_resources), rng.randrange(4)
            out.append(
                Req(
                    index=len(out),
                    due=due,
                    user=user,
                    key_index=key_index,
                    resource=resource,
                    op=op,
                    kind=kind,
                    abandon=rng.random() < ABANDON_SHARE,
                    replay=rng.random() < REPLAY_SHARE,
                    request_id=rng.randbytes(16),
                )
            )
    return Plan(out)


def rule_pairs(rules) -> dict:
    """The rule-override cells, read off the rule set: the deny rule and the allow rule."""
    from chainacl.engine import ALLOW

    pairs = {}
    for rule in rules:
        kind = "rule_allows" if rule.effect == ALLOW else "rule_denies"
        pairs[kind] = (rule.user_index, rule.resource_id, rule.operation or 0)
    return pairs


def unregistered_keys(provider, seed: int) -> list:
    from chainacl.crypto import sha256

    return [
        provider.generate_keypair(seed=sha256(f"bench-unregistered/{seed}/{i}".encode()))
        for i in range(N_UNREGISTERED_KEYS)
    ]


# -- reference decisions ---------------------------------------------------------


class Reference:
    """Expected access lists, computed with forward + decide_access off-ledger.

    The functions are bound at construction, so building the reference
    before tracing starts keeps its calls out of the per-layer counts.
    """

    def __init__(self, model, rules, user_index: dict[int, int]):
        from chainacl.engine.model import forward
        from chainacl.engine.policy import binary_repr
        from chainacl.engine.rules import decide_access
        from chainacl.transactions import RESOURCE_BITS_WIDTH, USER_BITS_WIDTH

        import numpy as np

        self._cells: dict[tuple[int, int], tuple[bool, ...]] = {}
        self._np = np
        self._forward = forward
        self._decide = decide_access
        self._bits = binary_repr
        self._widths = (USER_BITS_WIDTH, RESOURCE_BITS_WIDTH)
        self.model = model
        self.rules = rules
        self.user_index = user_index  # fixture user -> on-chain user index

    def access_list(self, user: int, resource: int) -> tuple[bool, ...]:
        key = (user, resource)
        if key not in self._cells:
            idx = self.user_index[user]
            x = self._np.array(
                self._bits(idx, self._widths[0]) + self._bits(resource, self._widths[1]),
                dtype=self._np.float64,
            )
            scores = self._forward(self.model, x)
            self._cells[key] = tuple(self._decide(self.rules, scores, idx, resource).access_list)
        return self._cells[key]

    def granted(self, req: Req) -> bool:
        return req.user >= 0 and self.access_list(req.user, req.resource)[req.op]

    def prime(self, plan: Plan) -> None:
        for r in plan.requests:
            if r.user >= 0:
                self.access_list(r.user, r.resource)


def payload_for(seed: int, resource: int) -> bytes:
    """``Fixtures.payload`` without training a model: it depends on the seed only."""
    from types import SimpleNamespace

    from chainacl.scenarios import Fixtures

    return Fixtures.payload(SimpleNamespace(seed=seed), resource)


# -- outcome bookkeeping ------------------------------------------------------------


@dataclass
class Tally:
    """What the correctness gate found, by failure kind."""

    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    hard_errors: list[str] = field(default_factory=list)

    def fail(self, kind: str, n: int = 1) -> None:
        if n:
            self.failures[kind] = self.failures.get(kind, 0) + n

    def hard(self, message: str) -> None:
        self.hard_errors.append(message)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """Every failure is the known redemption mis-attribution, and no check broke."""
        unexpected = {k: v for k, v in self.failures.items() if k != KNOWN_DEFECT}
        return not unexpected and not self.hard_errors


# A redemption the chain pins on another request of the same user: the
# ledger correlates redemptions to the user's oldest outstanding link. It
# stays visible in ``failed``; it does not make a run incorrect.
KNOWN_DEFECT = "redemption_misattributed"


def check_decision(tally: Tally, ref: Reference, req: Req, record) -> bool:
    """Compare one on-chain request record with the reference decision."""
    if record is None:
        tally.fail("not_decided")
        return False
    if req.user < 0:
        if record.status != "denied" or record.deny_reason != "unregistered":
            tally.fail("decision_mismatch")
            return False
        return True
    want = ref.access_list(req.user, req.resource)
    if record.access_list is None or tuple(record.access_list) != want:
        tally.fail("decision_mismatch")
        return False
    granted_status = record.status in ("granted", "link_issued", "redeemed", "expired")
    if granted_status != want[req.op]:
        tally.fail("decision_mismatch")
        return False
    return True


def check_redemptions(tally: Tally, plan: Plan, ref: Reference, redeemed, status) -> int:
    """Compare the chain's redemption records with the client's, user by user.

    ``redeemed`` are the requests the client redeemed; ``status(req)`` reads
    a request's on-chain status. Each user must hold exactly as many
    ``redeemed`` records as the client made redemptions, and a record on a
    request the client did not redeem must sit on one of the user's
    abandoned grants: that is the known mis-attribution, counted as
    ``KNOWN_DEFECT`` once per client redemption left unmarked. Any other
    difference (a redemption the chain never logged, a record on a link
    the user still meant to redeem) is a plain failure. Returns the number
    of mis-attributed redemptions.
    """
    mine: dict[int, set[int]] = {}
    for req in redeemed:
        mine.setdefault(req.user, set()).add(req.index)
    marked: dict[int, set[int]] = {}
    for req in plan.requests:
        if ref.granted(req) and status(req) == "redeemed":
            marked.setdefault(req.user, set()).add(req.index)
    misattributed = 0
    for user in sorted(mine.keys() | marked.keys()):
        unmarked = mine.get(user, set()) - marked.get(user, set())
        in_place = marked.get(user, set()) - mine.get(user, set())
        live = [i for i in in_place if not plan.requests[i].abandon]
        if len(unmarked) != len(in_place) or live:
            tally.fail("redemption_not_logged", max(0, len(unmarked) - len(in_place)))
            tally.fail("redeemed_without_redemption", max(0, len(in_place) - len(unmarked)))
            tally.fail("redemption_on_unabandoned_link", len(live))
            continue
        misattributed += len(unmarked)
    tally.fail(KNOWN_DEFECT, misattributed)
    return misattributed


def mix_record(plan: Plan, ref: Reference) -> dict:
    reqs = plan.requests
    n = max(1, len(reqs))
    granted = [r for r in reqs if ref.granted(r)]
    abandoned = [r for r in granted if r.abandon]
    replayed = [r for r in granted if not r.abandon and r.replay]
    return {
        "requests": len(reqs),
        "repeated_pair_share": plan.repeated_pair_share(),
        "unregistered_share": sum(r.user < 0 for r in reqs) / n,
        "rule_cell_share": sum(r.kind.startswith("rule") for r in reqs) / n,
        "denied_share": 1.0 - len(granted) / n,
        "abandoned_share": len(abandoned) / n,
        "replayed_share": len(replayed) / n,
    }
