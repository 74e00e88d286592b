"""The request lifecycle against an independent reference model.

A ``hypothesis.stateful`` machine drives the ledger API: register, request,
seal, deliver a link, redeem any held link in any order, redeem a link past
its lifetime before a block sweeps it, replay a redemption, reuse a request
id, and advance the clock. A plain-dict model
judges and applies the same transactions; after every step each request's
``RequestRecord.status`` and its ``access_log`` kind sequence must match the
model's. No threads are started.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from chainacl.blocks import GenesisConfig
from chainacl.contracts import ContractRuntime
from chainacl.crypto import Provider
from chainacl.engine import DENY, PriorityRule, zero_model
from chainacl.ledger import (
    FRESHNESS_WINDOW,
    LINK_LIFETIME,
    REJECT_DUPLICATE,
    REJECT_DUPLICATE_REQUEST,
    REJECT_DUPLICATE_USER,
    REJECT_REPLAYED_NONCE,
    REJECT_STALE_TIME,
    REJECT_UNKNOWN_REQUEST,
    genesis,
    submit_to_pool,
)
from chainacl.transactions import (
    AccessRequestTx,
    LinkDeliveryTx,
    RedemptionLogTx,
    RegisterUserTx,
    RequestInfo,
    build_access_request_tx,
    build_link_delivery_tx,
    build_redemption_log_tx,
    build_register_user_tx,
    tx_id,
)

P = Provider(seed=43)
ACTORS = {
    "admin": P.generate_keypair(),
    "storage": P.generate_keypair(),
    "validators": [P.generate_keypair() for _ in range(3)],
}
USERS = [P.generate_keypair() for _ in range(3)]
DENIED_RESOURCE = 1  # the zero model grants everything; one rule denies this resource
RUNTIME = ContractRuntime(zero_model(), [PriorityRule(5, None, DENIED_RESOURCE, None, DENY)])
CONFIG = GenesisConfig(
    admin_pks=(ACTORS["admin"].public_key,),
    validators=tuple(v.public_key for v in ACTORS["validators"]),
    storage_pk=ACTORS["storage"].public_key,
    engine_fingerprint=RUNTIME.fingerprint(),
    genesis_time=0,
    block_interval=1,
)


class Model:
    """What the chain should hold, in dictionaries keyed by request id."""

    def __init__(self):
        self.registered: set[bytes] = set()
        self.status: dict[bytes, str] = {}
        self.kinds: dict[bytes, list[str]] = {}
        self.owner: dict[bytes, bytes] = {}
        self.issued_at: dict[bytes, int] = {}
        self.nonces: set[bytes] = set()
        self.seen: set[bytes] = set()
        self.pool: list = []

    def judge(self, tx, now: int, against_pool: bool) -> str | None:
        """The reject reason for ``tx`` at ``now``, or None."""
        if tx_id(tx) in self.seen or (against_pool and tx_id(tx) in {tx_id(t) for t in self.pool}):
            return REJECT_DUPLICATE
        if isinstance(tx, LinkDeliveryTx):
            status = self.status.get(tx.request_id)
            if status in ("link_issued", "redeemed"):
                return REJECT_DUPLICATE
            return None if status == "granted" else REJECT_UNKNOWN_REQUEST
        if abs(tx.time - now) > FRESHNESS_WINDOW:
            return REJECT_STALE_TIME
        if isinstance(tx, RegisterUserTx):
            return REJECT_DUPLICATE_USER if tx.user_pk in self.registered else None
        if isinstance(tx, RedemptionLogTx):
            if tx.nonce in self.nonces:
                return REJECT_REPLAYED_NONCE
            held = self.status.get(tx.request_id) == "link_issued" and self.owner[tx.request_id] == tx.user_pk
            in_time = held and tx.time <= self.issued_at[tx.request_id] + LINK_LIFETIME
            return None if in_time else REJECT_UNKNOWN_REQUEST
        return REJECT_DUPLICATE_REQUEST if tx.info.request_id in self.status else None

    def _set(self, rid: bytes, status: str, *kinds: str) -> None:
        self.status[rid] = status
        self.kinds.setdefault(rid, []).extend(kinds)

    def apply(self, tx, now: int) -> None:
        if isinstance(tx, RegisterUserTx):
            self.registered.add(tx.user_pk)
        elif isinstance(tx, AccessRequestTx):
            rid = tx.info.request_id
            self.owner[rid] = tx.user_pk
            if tx.user_pk not in self.registered:
                self._set(rid, "denied", "requested", "denied")
            elif tx.info.resource_id == DENIED_RESOURCE:
                self._set(rid, "denied", "requested", "authenticated", "decided", "denied")
            else:
                self._set(rid, "granted", "requested", "authenticated", "decided")
        elif isinstance(tx, LinkDeliveryTx):
            self.issued_at[tx.request_id] = now
            self._set(tx.request_id, "link_issued", "link_issued")
        else:
            self.nonces.add(tx.nonce)
            self._set(tx.request_id, "redeemed", "redeemed")
        self.seen.add(tx_id(tx))

    def seal(self, now: int) -> tuple[bool, list]:
        """Execute the pool as a block at ``now``: (sealed, skipped txs)."""
        skipped, sealed = [], False
        for tx in self.pool:
            if self.judge(tx, now, against_pool=False) is None:
                self.apply(tx, now)
                sealed = True
            else:
                skipped.append(tx)
        if sealed:
            for rid, status in list(self.status.items()):
                if status == "link_issued" and self.issued_at[rid] + LINK_LIFETIME < now:
                    self._set(rid, "expired", "expired")
        self.pool = []
        return sealed, skipped


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self, seal_next):
        super().__init__()
        self.seal_next = seal_next
        self.state = genesis(CONFIG)
        self.model = Model()
        self.now = 1
        self.last_block = CONFIG.genesis_time
        self.counter = 0
        self.redemptions: list[RedemptionLogTx] = []

    def _fresh_bytes(self, tag: bytes) -> bytes:
        self.counter += 1
        return tag + self.counter.to_bytes(16 - len(tag), "big")

    def _submit(self, tx) -> str | None:
        want = self.model.judge(tx, self.now, against_pool=True)
        got = submit_to_pool(self.state, tx, self.now, provider=P)
        assert got == want
        if got is None:
            self.model.pool.append(tx)
        return got

    def _request_ids(self) -> list[bytes]:
        pooled = [tx.info.request_id for tx in self.model.pool if isinstance(tx, AccessRequestTx)]
        return sorted(set(self.model.status) | set(pooled))

    @initialize()
    def register_two_users(self):
        """The last user stays unregistered until a ``register`` step."""
        for user in USERS[:2]:
            self._submit(build_register_user_tx(P, ACTORS["admin"], user.public_key, time=self.now))
        self.seal()

    @rule(user=st.integers(0, len(USERS) - 1))
    def register(self, user):
        self._submit(build_register_user_tx(P, ACTORS["admin"], USERS[user].public_key, time=self.now))

    @rule(user=st.integers(0, len(USERS) - 1), resource=st.integers(0, 2), op=st.integers(0, 3))
    def request(self, user, resource, op):
        info = RequestInfo(resource, op, self._fresh_bytes(b"rq"))
        assert self._submit(build_access_request_tx(P, USERS[user], info, time=self.now)) is None

    @precondition(lambda self: self._request_ids())
    @rule(data=st.data(), user=st.integers(0, len(USERS) - 1))
    def reuse_request_id(self, data, user):
        rid = data.draw(st.sampled_from(self._request_ids()))
        tx = build_access_request_tx(P, USERS[user], RequestInfo(0, 0, rid), time=self.now)
        if rid in self.model.status:
            assert self._submit(tx) in (REJECT_DUPLICATE, REJECT_DUPLICATE_REQUEST)
        else:
            self._submit(tx)  # pooled beside the first: the later one is skipped at the seal

    @precondition(lambda self: "granted" in self.model.status.values())
    @rule(data=st.data())
    def deliver(self, data):
        rid = data.draw(st.sampled_from(sorted(r for r, s in self.model.status.items() if s == "granted")))
        self._submit(build_link_delivery_tx(P, ACTORS["storage"], b"link " + rid, rid))

    @precondition(lambda self: "link_issued" in self.model.status.values())
    @rule(data=st.data(), as_owner=st.booleans())
    def redeem(self, data, as_owner):
        """Any held link, not only the user's oldest; now and then in
        another user's name, which the chain must refuse."""
        rid = data.draw(st.sampled_from(sorted(r for r, s in self.model.status.items() if s == "link_issued")))
        user_pk = self.model.owner[rid] if as_owner else data.draw(st.sampled_from(USERS)).public_key
        tx = build_redemption_log_tx(P, ACTORS["storage"], self._fresh_bytes(b"nc"), self.now, user_pk, rid)
        if self._submit(tx) is None:
            self.redemptions.append(tx)

    @precondition(lambda self: "link_issued" in self.model.status.values())
    @rule(data=st.data())
    def redeem_after_the_lifetime(self, data):
        """The clock moves past a held link's lifetime with no block to
        sweep it; the chain must refuse its redemption all the same."""
        rid = data.draw(st.sampled_from(sorted(r for r, s in self.model.status.items() if s == "link_issued")))
        self.now = max(self.now, self.model.issued_at[rid] + LINK_LIFETIME + 1)
        tx = build_redemption_log_tx(
            P, ACTORS["storage"], self._fresh_bytes(b"nc"), self.now, self.model.owner[rid], rid
        )
        assert self._submit(tx) == REJECT_UNKNOWN_REQUEST

    @precondition(lambda self: self.redemptions)
    @rule(data=st.data(), exact=st.booleans())
    def replay_redemption(self, data, exact):
        """The same bytes again, or a new record around a spent nonce."""
        old = data.draw(st.sampled_from(self.redemptions))
        tx = old if exact else build_redemption_log_tx(
            P, ACTORS["storage"], old.nonce, self.now, old.user_pk, old.request_id
        )
        self._submit(tx)

    @precondition(lambda self: self.model.pool)
    @rule()
    def seal(self):
        self.now = max(self.now, self.last_block + 1)  # the next slot
        sealed, skipped = self.model.seal(self.now)
        if sealed:
            self.state = self.seal_next(self.state, P, ACTORS, RUNTIME, self.now, [])
            self.last_block = self.now
            assert list(self.state.pending_pool) == [tx_id(tx) for tx in skipped]
        # a validator drops what its seal skipped, as ValidatorCore does
        self.state.pending_pool.clear()

    @rule(dt=st.sampled_from([1, 2, 60, FRESHNESS_WINDOW + 1, LINK_LIFETIME]))
    def advance_clock(self, dt):
        self.now += dt

    @invariant()
    def chain_matches_model(self):
        assert {rid: r.status for rid, r in self.state.requests.items()} == self.model.status
        kinds: dict[bytes, list[str]] = {}
        for entry in self.state.access_log:
            kinds.setdefault(entry.request_id, []).append(entry.kind)
        assert kinds == self.model.kinds


def test_ledger_matches_reference_model(seal_next):
    run_state_machine_as_test(
        lambda: LedgerMachine(seal_next),
        settings=settings(
            max_examples=60,
            stateful_step_count=60,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
