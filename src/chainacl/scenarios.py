"""Scripted end-to-end runs over the deterministic simulator.

A scenario is a fixed cast (three validators, one storage node, a hundred
registered users), a list of timed actions, and a list of expectations
checked after the run. Fixtures pin the trained model and the rule set, and
the interesting (user, resource, operation) cells are selected by scanning
the trained model's predictions, so "model allows" and "model denies" cases
hold by construction rather than by luck.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Container, Sequence

import numpy as np

from .blocks import GenesisConfig
from .contracts import ContractRuntime, engine_fingerprint
from .crypto import KeyPair, Provider, sha256
from .engine import (
    ALLOW,
    DENY,
    DecisionModel,
    PriorityRule,
    SyntheticPolicy,
    TrainConfig,
    encode_pairs,
    fixed_point_grants,
    generate_dataset,
    init_model,
    quantize_model,
    train,
)
from .network import NetworkConfig, RedeemCall, RedeemReply, World
from .storage import open_link_ciphertext
from .transactions import (
    N_OPERATIONS,
    RequestInfo,
    build_access_request_tx,
    build_register_user_tx,
)

FIXTURE_SEED = 2024
N_USERS = 100
N_RESOURCES = 50

VALIDATOR_NAMES = ("v0", "v1", "v2")
STORAGE_NAME = "s0"

_GRANTED_STATUSES = ("granted", "link_issued", "redeemed")


# -- fixtures ---------------------------------------------------------------------


class FixtureError(ValueError):
    """The trained model leaves no cell with a wanted decision, as on a grid
    too small to hold one of each."""


@dataclass
class Fixtures:
    """Deterministic cast of keys plus a trained engine, shared by scenarios."""

    seed: int
    provider: Provider
    admin: KeyPair
    storage: KeyPair
    validators: tuple[KeyPair, ...]
    users: tuple[KeyPair, ...]
    policy: SyntheticPolicy
    model: DecisionModel
    train_accuracy: float
    holdout_accuracy: float
    rules: list[PriorityRule]
    config: GenesisConfig
    # label -> (user_index, resource_id, operation); labels:
    #   model_allows, model_denies, rule_denies, rule_allows
    pairs: dict[str, tuple[int, int, int]]
    n_resources: int = N_RESOURCES

    def runtime(self) -> ContractRuntime:
        return ContractRuntime(self.model, self.rules)

    def payload(self, resource_id: int) -> bytes:
        base = sha256(f"payload/{self.seed}/{resource_id}".encode())
        return (base * 3)[:72]


def _fixture_keypair(provider: Provider, seed: int, name: str) -> KeyPair:
    return provider.generate_keypair(seed=sha256(f"fixture/{seed}/{name}".encode()))


def _grant_table(model: DecisionModel, n_users: int, n_resources: int) -> np.ndarray:
    """(n_users, n_resources, ops) boolean grid of the model's grants, decided
    on the fixed-point path block execution uses."""
    users, resources = divmod(np.arange(n_users * n_resources), n_resources)
    grants = fixed_point_grants(quantize_model(model), encode_pairs(users.tolist(), resources.tolist()))
    return grants.reshape(n_users, n_resources, N_OPERATIONS)


def _first_cell(
    grants: np.ndarray, want: bool, used: Container[tuple[int, int]] = ()
) -> tuple[int, int, int]:
    """The first (user, resource, op) in grid order whose grant is ``want``
    and whose (user, resource) is not in ``used``."""
    for u, r, op in np.argwhere(grants == want).tolist():
        if (u, r) not in used:
            return (u, r, op)
    raise FixtureError(f"model predicts no free cell with grant={want}")


def _pick_cells(grants: np.ndarray) -> dict[str, tuple[int, int, int]]:
    """Choose four mutually disjoint (user, resource) cells off the grid."""
    used: set[tuple[int, int]] = set()

    def pick(want: bool) -> tuple[int, int, int]:
        cell = _first_cell(grants, want, used)
        used.add(cell[:2])
        return cell

    return {
        "model_allows": pick(True),
        "model_denies": pick(False),
        "rule_denies": pick(True),  # model would allow; rule overrides to deny
        "rule_allows": pick(False),  # model would deny; rule overrides to allow
    }


def build_fixtures(
    seed: int = FIXTURE_SEED,
    n_users: int = N_USERS,
    n_resources: int = N_RESOURCES,
) -> Fixtures:
    provider = Provider(seed)
    admin = _fixture_keypair(provider, seed, "admin")
    storage = _fixture_keypair(provider, seed, "storage")
    validators = tuple(
        _fixture_keypair(provider, seed, f"validator/{i}") for i in range(3)
    )
    users = tuple(
        _fixture_keypair(provider, seed, f"user/{i}") for i in range(n_users)
    )

    policy = SyntheticPolicy(seed=seed)
    dataset = generate_dataset(policy, n_users, n_resources)
    report = train(init_model(seed=seed), dataset, TrainConfig(seed=seed))
    model = report.model

    pairs = _pick_cells(_grant_table(model, n_users, n_resources))
    rd_u, rd_r, _ = pairs["rule_denies"]
    ra_u, ra_r, ra_op = pairs["rule_allows"]
    rules = [
        PriorityRule(priority=10, user_index=rd_u, resource_id=rd_r, operation=None, effect=DENY),
        PriorityRule(priority=10, user_index=ra_u, resource_id=ra_r, operation=ra_op, effect=ALLOW),
    ]

    config = GenesisConfig(
        admin_pks=(admin.public_key,),
        validators=tuple(v.public_key for v in validators),
        storage_pk=storage.public_key,
        engine_fingerprint=engine_fingerprint(model, rules),
        genesis_time=0,
        block_interval=1,
    )
    return Fixtures(
        seed=seed,
        provider=provider,
        admin=admin,
        storage=storage,
        validators=validators,
        users=users,
        policy=policy,
        model=model,
        train_accuracy=report.final_train_accuracy,
        holdout_accuracy=report.final_holdout_accuracy,
        rules=rules,
        config=config,
        pairs=pairs,
        n_resources=n_resources,
    )


_FIXTURES_CACHE: dict[tuple[int, int, int], Fixtures] = {}


def shared_fixtures(
    seed: int = FIXTURE_SEED, n_users: int = N_USERS, n_resources: int = N_RESOURCES
) -> Fixtures:
    """Cached fixtures; training is the only expensive step."""
    key = (seed, n_users, n_resources)
    if key not in _FIXTURES_CACHE:
        _FIXTURES_CACHE[key] = build_fixtures(seed, n_users, n_resources)
    return _FIXTURES_CACHE[key]


def build_world(
    fixtures: Fixtures,
    net: NetworkConfig | None = None,
    rules: Sequence[PriorityRule] | None = None,
) -> World:
    """Three validators plus a storage node preloaded with every resource.

    The validators share one contract runtime of ``rules`` (the fixtures'
    own when None), and the genesis config pins that runtime's fingerprint.
    """
    runtime = ContractRuntime(fixtures.model, fixtures.rules if rules is None else rules)
    config = replace(fixtures.config, engine_fingerprint=runtime.fingerprint())
    world = World(net or NetworkConfig())
    for i, name in enumerate(VALIDATOR_NAMES):
        world.add_validator(
            name=name,
            keypair=fixtures.validators[i],
            config=config,
            runtime=runtime,
            validator_names=VALIDATOR_NAMES,
            storage_name=STORAGE_NAME,
        )
    storage_core = world.add_storage(
        name=STORAGE_NAME,
        keypair=fixtures.storage,
        config=config,
        validator_names=VALIDATOR_NAMES,
    )
    for rid in range(fixtures.n_resources):
        storage_core.service.put_resource(rid, fixtures.payload(rid))
    return world


# -- scripts ----------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """One timed step: ``do`` acts on the runner at the start of ``tick``."""

    tick: int
    do: Callable[[_Runner], None]


def request_at(
    tick: int,
    label: str,
    resource_id: int,
    operation: int,
    user: int | None = None,
    fresh: str | None = None,
) -> Action:
    """Request as fixture user ``user``, or as a new unregistered key named ``fresh``."""
    return Action(
        tick, lambda runner: runner.request(label, resource_id, operation, user, fresh)
    )


def redeem_at(
    tick: int, label: str, operation: int | None = None, mode: str = "normal"
) -> Action:
    """Redeem ``label``'s link; mode "replay" reuses the captured creds and
    "wrong_nonce" flips a bit of the nonce."""
    return Action(tick, lambda runner: runner.redeem(label, operation, mode))


def adversary_at(tick: int, behavior: str, **kw) -> Action:
    return Action(tick, lambda runner: runner.world.inject_adversary(behavior, **kw))


@dataclass(frozen=True)
class Expectation:
    """One check after the run: ``check`` gives (passed, detail)."""

    description: str
    check: Callable[[_Runner], tuple[bool, str]]


def expect_status(label: str, statuses: tuple[str, ...], reason: str = "") -> Expectation:
    want = "/".join(statuses) + (f" ({reason})" if reason else "")

    def check(runner: _Runner) -> tuple[bool, str]:
        req = runner.requests.get(label)
        record = runner.world.poll(req.request_id) if req else None
        if record is None:
            return False, "request unknown to ledger"
        ok = record.status in statuses and reason in record.deny_reason
        return ok, f"status={record.status} reason={record.deny_reason or '-'}"

    return Expectation(f"request {label!r} ends up {want}", check)


def expect_log_kinds(label: str, kinds: tuple[str, ...]) -> Expectation:
    def check(runner: _Runner) -> tuple[bool, str]:
        got = tuple(e.kind for e in runner.entries(label))
        return got == kinds, f"got {'>'.join(got) or '(none)'}"

    return Expectation(f"audit trail for {label!r} is {'>'.join(kinds)}", check)


def expect_basis(label: str, basis: str) -> Expectation:
    def check(runner: _Runner) -> tuple[bool, str]:
        decided = [e for e in runner.entries(label) if e.kind == "decided"]
        if not decided:
            return False, "no decided entry"
        return decided[-1].reason == basis, f"basis={decided[-1].reason}"

    return Expectation(f"decision for {label!r} attributed to {basis}", check)


def expect_redeem(label: str, ok: bool, reason: str = "", index: int = -1) -> Expectation:
    what = "succeeds" if ok else f"rejected ({reason})"

    def check(runner: _Runner) -> tuple[bool, str]:
        replies = runner.replies(label)
        if not replies:
            return False, "no redeem reply received"
        try:
            reply = replies[index]
        except IndexError:
            return False, f"only {len(replies)} replies"
        passed = reply.ok == ok and (not reason or reason == reply.reason)
        return passed, f"ok={reply.ok} reason={reply.reason or '-'}"

    return Expectation(f"redemption #{index} for {label!r} {what}", check)


def expect_payload(label: str, resource_id: int) -> Expectation:
    def check(runner: _Runner) -> tuple[bool, str]:
        got = next((r.payload for r in runner.replies(label) if r.ok), None)
        if got is None:
            return False, "no successful redemption"
        return got == runner.fixtures.payload(resource_id), f"{len(got)} bytes"

    return Expectation(f"redeeming {label!r} returns resource {resource_id} bytes", check)


def expect_agreement() -> Expectation:
    def check(runner: _Runner) -> tuple[bool, str]:
        report = runner.world.report()
        return (
            report.agreement,
            f"height={report.height} tips={len(set(report.tips.values()))}",
        )

    return Expectation("honest validators converge on one chain", check)


def expect_trace(substring: str, min_count: int = 1) -> Expectation:
    def check(runner: _Runner) -> tuple[bool, str]:
        count = sum(substring in line for line in runner.world.trace)
        return count >= min_count, f"count={count}"

    return Expectation(f"trace contains {substring!r} x{min_count}", check)


def expect_single_redemption() -> Expectation:
    def check(runner: _Runner) -> tuple[bool, str]:
        redeemed = Counter(e.request_id for e in runner.access_log() if e.kind == "redeemed")
        worst = max(redeemed.values(), default=0)
        return worst <= 1, f"max per request={worst}"

    return Expectation("no request is redeemed twice on chain", check)


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    description: str
    actions: tuple[Action, ...]
    expectations: tuple[Expectation, ...]
    net: NetworkConfig = NetworkConfig()
    settle_ticks: int = 20
    register_users: int = N_USERS
    rules: tuple[PriorityRule, ...] | None = None  # None: the fixtures' rules


# -- execution --------------------------------------------------------------------


@dataclass
class AssertionResult:
    description: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" [{self.detail}]" if self.detail else ""
        return f"{mark} {self.description}{tail}"


@dataclass
class ScenarioReport:
    name: str
    description: str
    passed: bool
    assertions: list[AssertionResult]
    trace: list[str]
    ticks: int

    def lines(self) -> list[str]:
        head = f"=== scenario {self.name}: {self.description} ==="
        out = [head]
        out.extend(a.line() for a in self.assertions)
        out.append(f"result={'PASS' if self.passed else 'FAIL'} ticks={self.ticks}")
        return out

    def text(self, with_trace: bool = False) -> str:
        out = self.lines()
        if with_trace:
            out.append("--- trace ---")
            out.extend(self.trace)
        return "\n".join(out) + "\n"


@dataclass
class _Request:
    """What the script knows of one labelled request."""

    request_id: bytes
    keypair: KeyPair
    node: str
    operation: int
    creds: tuple[bytes, bytes] | None = None  # (link token, nonce) of its first redemption


class _Runner:
    def __init__(self, script: ScenarioScript, fixtures: Fixtures):
        self.script = script
        self.fixtures = fixtures
        self.world = build_world(fixtures, script.net, script.rules)
        self.requests: dict[str, _Request] = {}
        self.problems: list[str] = []

    # -- steps -------------------------------------------------------------------

    def _register_all(self) -> None:
        for i in range(self.script.register_users):
            tx = build_register_user_tx(
                self.fixtures.provider,
                self.fixtures.admin,
                self.fixtures.users[i].public_key,
                time=self.world.tick,
            )
            self.world.submit_transaction("admin", tx)

    def request(
        self, label: str, resource_id: int, operation: int, user: int | None, fresh: str | None
    ) -> None:
        if fresh:
            kp = self.fixtures.provider.generate_keypair(
                seed=sha256(f"fresh/{self.script.name}/{fresh}".encode())
            )
            node = fresh
        else:
            kp = self.fixtures.users[user]
            node = f"u{user:03d}"
        rid = sha256(f"req/{self.script.name}/{label}".encode())[:16]
        info = RequestInfo(resource_id=resource_id, operation=operation, request_id=rid)
        tx = build_access_request_tx(
            self.fixtures.provider, kp, info, time=self.world.tick
        )
        self.requests[label] = _Request(rid, kp, node, operation)
        self.world.submit_transaction(node, tx)

    def redeem(self, label: str, operation: int | None, mode: str) -> None:
        req = self.requests.get(label)
        if req is None:
            self.problems.append(f"redeem before request for {label!r}")
            return
        if mode == "replay" and req.creds is not None:
            token, nonce = req.creds
        else:
            record = self.world.poll(req.request_id)
            if record is None or not record.link_ciphertext:
                self.problems.append(f"no link to redeem for {label!r}")
                return
            grant = open_link_ciphertext(
                self.fixtures.provider, req.keypair, record.link_ciphertext
            )
            token, nonce = grant.link_token, grant.nonce
            req.creds = (token, nonce)
        if mode == "wrong_nonce":
            nonce = bytes([nonce[0] ^ 0x01]) + nonce[1:]
        if operation is None:
            operation = req.operation
        self.world.send_message(
            req.node,
            STORAGE_NAME,
            RedeemCall(link_token=token, nonce=nonce, operation=operation, reply_to=req.node),
        )

    def run(self) -> None:
        self._register_all()
        by_tick: dict[int, list[Action]] = {}
        for action in self.script.actions:
            by_tick.setdefault(action.tick, []).append(action)
        last = max(by_tick, default=0) + self.script.settle_ticks
        while self.world.tick <= last:
            for action in by_tick.get(self.world.tick, ()):
                action.do(self)
            self.world.step()

    # -- what checks read ----------------------------------------------------------

    def access_log(self):
        return self.world.nodes[VALIDATOR_NAMES[0]].core.state.access_log

    def entries(self, label: str):
        req = self.requests.get(label)
        return [e for e in self.access_log() if req and e.request_id == req.request_id]

    def replies(self, label: str) -> list[RedeemReply]:
        req = self.requests.get(label)
        node = self.world.nodes.get(req.node) if req else None
        return node.core.replies if node else []


def run_scenario(script: ScenarioScript, fixtures: Fixtures | None = None) -> ScenarioReport:
    fixtures = fixtures or shared_fixtures()
    runner = _Runner(script, fixtures)
    runner.run()
    assertions = [AssertionResult(e.description, *e.check(runner)) for e in script.expectations]
    for problem in runner.problems:
        assertions.append(AssertionResult(f"script step: {problem}", False))
    return ScenarioReport(
        name=script.name,
        description=script.description,
        passed=all(a.passed for a in assertions),
        assertions=assertions,
        trace=list(runner.world.trace),
        ticks=runner.world.tick,
    )


# -- the standard scripts ----------------------------------------------------------


def _net_for(name: str, base_seed: int) -> NetworkConfig:
    seed = int.from_bytes(sha256(f"net/{base_seed}/{name}".encode())[:4], "big")
    return NetworkConfig(seed=seed)


def scenario_unregistered(fixtures: Fixtures) -> ScenarioScript:
    _, r, op = fixtures.pairs["model_allows"]
    return ScenarioScript(
        name="1",
        description="request from an unregistered key is turned away",
        actions=(
            request_at(4, "intruder", resource_id=r, operation=op, fresh="mallory"),
        ),
        expectations=(
            expect_status("intruder", ("denied",), reason="unregistered"),
            expect_log_kinds("intruder", ("requested", "denied")),
            expect_agreement(),
        ),
    )


def scenario_model_denies(fixtures: Fixtures) -> ScenarioScript:
    u, r, op = fixtures.pairs["model_denies"]
    return ScenarioScript(
        name="2",
        description="registered user denied by the scoring model",
        actions=(request_at(4, "modeldeny", resource_id=r, operation=op, user=u),),
        expectations=(
            expect_status("modeldeny", ("denied",), reason="policy"),
            expect_log_kinds(
                "modeldeny", ("requested", "authenticated", "decided", "denied")
            ),
            expect_basis("modeldeny", "model"),
            expect_agreement(),
        ),
    )


def scenario_rule_override(fixtures: Fixtures) -> ScenarioScript:
    u, r, op = fixtures.pairs["rule_denies"]
    return ScenarioScript(
        name="3",
        description="admin deny rule overrides a model grant",
        actions=(request_at(4, "overruled", resource_id=r, operation=op, user=u),),
        expectations=(
            expect_status("overruled", ("denied",), reason="policy"),
            expect_basis("overruled", "rule_override"),
            expect_log_kinds(
                "overruled", ("requested", "authenticated", "decided", "denied")
            ),
            expect_agreement(),
        ),
    )


def scenario_grant_and_redeem(fixtures: Fixtures) -> ScenarioScript:
    u, r, op = fixtures.pairs["model_allows"]
    return ScenarioScript(
        name="4",
        description="grant, single-use link delivery, and redemption",
        actions=(
            request_at(4, "granted", resource_id=r, operation=op, user=u),
            redeem_at(14, "granted"),
        ),
        expectations=(
            expect_status("granted", ("redeemed",)),
            expect_redeem("granted", ok=True),
            expect_payload("granted", r),
            expect_log_kinds(
                "granted",
                ("requested", "authenticated", "decided", "link_issued", "redeemed"),
            ),
            expect_agreement(),
        ),
        settle_ticks=24,
    )


def scenario_replay(fixtures: Fixtures) -> ScenarioScript:
    u, r, op = fixtures.pairs["model_allows"]
    return ScenarioScript(
        name="replay",
        description="second redemption of a spent link is rejected",
        actions=(
            request_at(4, "victim", resource_id=r, operation=op, user=u),
            redeem_at(14, "victim"),
            redeem_at(20, "victim", mode="replay"),
            adversary_at(26, "replay_link"),
        ),
        expectations=(
            expect_redeem("victim", ok=True, index=0),
            expect_redeem("victim", ok=False, reason="already_redeemed", index=1),
            expect_single_redemption(),
            expect_status("victim", ("redeemed",)),
            expect_agreement(),
        ),
        settle_ticks=28,
    )


def scenario_tamper(fixtures: Fixtures) -> ScenarioScript:
    u, r, op = fixtures.pairs["model_allows"]
    return ScenarioScript(
        name="tamper",
        description="bit-flipped block is rejected by every validator",
        actions=(
            request_at(4, "traffic", resource_id=r, operation=op, user=u),
            adversary_at(12, "tamper_block"),
        ),
        expectations=(
            expect_trace("tamper", 1),
            expect_trace("block_reject", 1),
            expect_agreement(),
        ),
        settle_ticks=24,
    )


_SCENARIO_BUILDERS = {
    "1": scenario_unregistered,
    "2": scenario_model_denies,
    "3": scenario_rule_override,
    "4": scenario_grant_and_redeem,
    "replay": scenario_replay,
    "tamper": scenario_tamper,
}

SCENARIO_NAMES = tuple(_SCENARIO_BUILDERS)


def standard_scenario(name: str, fixtures: Fixtures, base_seed: int = 0) -> ScenarioScript:
    try:
        builder = _SCENARIO_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        ) from None
    return replace(builder(fixtures), net=_net_for(name, base_seed))


# -- decision matrix ----------------------------------------------------------------


@dataclass(frozen=True)
class MatrixRow:
    registered: bool
    model_grant: bool
    rule_effect: str  # none|allow|deny
    expected: str  # granted|denied
    outcome: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return (
            f"{mark} registered={str(self.registered).lower():5} "
            f"model={'grant' if self.model_grant else 'deny':5} "
            f"rule={self.rule_effect:5} -> {self.outcome} (expected {self.expected})"
        )


@dataclass
class MatrixReport:
    rows: list[MatrixRow]
    passed: bool

    def lines(self) -> list[str]:
        out = ["=== decision matrix (registered x model x rule) ==="]
        out.extend(r.line() for r in self.rows)
        out.append(f"result={'PASS' if self.passed else 'FAIL'} rows={len(self.rows)}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _run_matrix_row(
    fixtures: Fixtures,
    cell: tuple[int, int, int],
    registered: bool,
    model_grant: bool,
    rule_effect: str,
    base_seed: int,
) -> MatrixRow:
    """Request ``cell`` of user 0 at tick 3 on a world of its own, as the
    user (registered) or as a fresh key, under at most one rule on the cell."""
    u, r, op = cell
    rules = () if rule_effect == "none" else (PriorityRule(10, u, r, op, rule_effect),)
    if not registered:
        expected = "denied"
    elif rule_effect == "none":
        expected = "granted" if model_grant else "denied"
    else:
        expected = "granted" if rule_effect == ALLOW else "denied"

    tag = f"matrix/{int(registered)}{int(model_grant)}{rule_effect}"
    requester = {"user": u} if registered else {"fresh": "outsider"}
    runner = _Runner(
        ScenarioScript(
            name=tag,
            description="one row of the decision matrix",
            actions=(request_at(3, "row", resource_id=r, operation=op, **requester),),
            expectations=(),
            net=_net_for(tag, base_seed),
            settle_ticks=11,
            register_users=int(registered),
            rules=rules,
        ),
        fixtures,
    )
    runner.run()

    record = runner.world.poll(runner.requests["row"].request_id)
    if record is None:
        outcome = "missing"
    elif record.status in _GRANTED_STATUSES:
        outcome = "granted"
    elif record.status == "denied":
        outcome = "denied"
    else:
        outcome = record.status
    return MatrixRow(
        registered=registered,
        model_grant=model_grant,
        rule_effect=rule_effect,
        expected=expected,
        outcome=outcome,
        ok=outcome == expected,
        detail=f"user={u} resource={r} op={op}",
    )


def run_matrix(fixtures: Fixtures | None = None, base_seed: int = 0) -> MatrixReport:
    """Every (registered, model grant, rule effect) combination, one world each."""
    fixtures = fixtures or shared_fixtures()
    user0 = _grant_table(fixtures.model, 1, fixtures.n_resources)
    cells = {want: _first_cell(user0, want) for want in (True, False)}
    rows = [
        _run_matrix_row(fixtures, cells[model_grant], registered, model_grant, rule_effect, base_seed)
        for registered in (True, False)
        for model_grant in (True, False)
        for rule_effect in ("none", ALLOW, DENY)
    ]
    return MatrixReport(rows=rows, passed=all(r.ok for r in rows))


# -- whole-suite runner --------------------------------------------------------------


@dataclass
class SuiteReport:
    scenarios: list[ScenarioReport]
    matrix: MatrixReport
    passed: bool

    def text(self, with_traces: bool = True) -> str:
        parts = [s.text(with_trace=with_traces) for s in self.scenarios]
        parts.append(self.matrix.text())
        parts.append(f"suite={'PASS' if self.passed else 'FAIL'}\n")
        return "\n".join(parts)


def run_suite(fixtures: Fixtures | None = None, base_seed: int = 0) -> SuiteReport:
    """All standard scenarios plus the decision matrix, deterministically."""
    fixtures = fixtures or shared_fixtures()
    reports = [
        run_scenario(standard_scenario(name, fixtures, base_seed), fixtures)
        for name in SCENARIO_NAMES
    ]
    matrix = run_matrix(fixtures, base_seed)
    passed = all(r.passed for r in reports) and matrix.passed
    return SuiteReport(scenarios=reports, matrix=matrix, passed=passed)
