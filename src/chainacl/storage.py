"""Storage service: resources, single-use access links, redemptions.

The service trusts nothing but validator-signed result envelopes, one per
sealed block with that block's results in order. A granted result mints
an AccessLink (opaque token + single-use nonce) that is delivered
encrypted to the requesting user on chain; redemption is a direct
bearer-style exchange, and every successful redemption is pushed back to
the chain as a redemption-log transaction.

Possession of (token, nonce) is the entire redemption credential; the
service does not re-identify the caller. The log still attributes the
redemption to the request, and so the user, the link was issued for.
"""

from __future__ import annotations

import heapq
import hmac
from dataclasses import dataclass

from .codec import BYTES, U64, decode_record, encode_record
from .contracts import EnvelopeError, RequestResult, decrypt_request_results
from .crypto import KeyPair, Provider
from .ledger import link_deadline
from .transactions import (
    LinkDeliveryTx,
    N_OPERATIONS,
    RedemptionLogTx,
    build_link_delivery_tx,
    build_redemption_log_tx,
)

LINK_TOKEN_LEN = 16
NONCE_LEN = 16

REDEEM_UNKNOWN_TOKEN = "unknown_token"
REDEEM_WRONG_NONCE = "wrong_nonce"
REDEEM_EXPIRED = "expired"
REDEEM_ALREADY_REDEEMED = "already_redeemed"
REDEEM_OP_NOT_PERMITTED = "operation_not_permitted"


class StorageError(ValueError):
    pass


class RedeemError(StorageError):
    """Redemption refused; ``reason`` is one of the REDEEM_* constants."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass
class AccessLink:
    link_token: bytes
    nonce: bytes
    resource_id: int
    permitted_ops: tuple[bool, ...]
    user_pk: bytes
    expires_at: int
    request_id: bytes
    redeemed: bool = False
    expired: bool = False


@dataclass(frozen=True)
class DenialRecord:
    request_id: bytes
    reason: str
    time: int


@dataclass(frozen=True)
class LinkGrant:
    """What the user recovers by decrypting a link delivery."""

    link_token: bytes
    nonce: bytes
    issued_at: int

    FIELDS = (("link_token", BYTES), ("nonce", BYTES), ("issued_at", U64))

    @property
    def expires_at(self) -> int:
        return link_deadline(self.issued_at)

    def encode(self) -> bytes:
        return encode_record(self, self.FIELDS)

    @classmethod
    def decode(cls, data: bytes) -> "LinkGrant":
        return decode_record(cls, data, cls.FIELDS)


def open_link_ciphertext(provider: Provider, user: KeyPair, ciphertext: bytes) -> LinkGrant:
    return LinkGrant.decode(provider.decrypt(user.secret_key, ciphertext))


class StorageService:
    """Single-writer state machine over resource and link tables.

    Link tokens and nonces are bearer credentials, so they come from the
    provider's randomness: ``os.urandom`` unless the provider is seeded for
    a simulation. ``seed`` seeds the provider made here when none is given;
    every caller in the package passes a provider. A link is redeemable up
    to ``ledger.link_deadline`` of its issue time, the deadline the chain
    holds its redemption record to.
    """

    def __init__(
        self,
        keypair: KeyPair,
        validators: tuple[bytes, ...],
        provider: Provider | None = None,
        seed: int | None = None,
    ):
        self.keypair = keypair
        self.validators = tuple(validators)
        self.provider = provider or Provider(seed)
        self.resources: dict[int, bytes] = {}  # resource id -> payload
        self.links: dict[bytes, AccessLink] = {}
        self._expiry: list[tuple[int, bytes]] = []  # heap of (expires_at, link_token)
        self.served_requests: set[bytes] = set()
        self.denials: list[DenialRecord] = []

    # -- resources ----------------------------------------------------------

    def put_resource(self, resource_id: int, payload: bytes) -> None:
        if resource_id in self.resources:
            raise StorageError(f"resource {resource_id} already stored")
        self.resources[resource_id] = payload

    # -- link issuance --------------------------------------------------------

    def handle_request_results(self, envelope: bytes, now: int) -> list[LinkDeliveryTx | DenialRecord]:
        """Mint and deliver a link for each granted result; record everything else.

        The envelope's signer is checked and its payload decrypted once;
        its results are then handled in block order. Each gives either the
        chain-bound delivery transaction or the denial it landed in
        ``denials`` (denied result, replayed request_id, unknown resource).
        An envelope that does not open gives one ``bad_envelope`` denial.
        """
        try:
            results = decrypt_request_results(self.provider, self.keypair, envelope, self.validators)
        except EnvelopeError as exc:
            return [self._deny(b"", f"bad_envelope: {exc}", now)]
        return [self._issue(result, now) for result in results]

    def handle_request_result(self, envelope: bytes, now: int) -> LinkDeliveryTx | None:
        """The one result of ``envelope``: its delivery transaction, or None when denied."""
        (out,) = self.handle_request_results(envelope, now)
        return out if isinstance(out, LinkDeliveryTx) else None

    def _deny(self, request_id: bytes, reason: str, now: int) -> DenialRecord:
        denial = DenialRecord(request_id=request_id, reason=reason, time=now)
        self.denials.append(denial)
        return denial

    def _issue(self, result: RequestResult, now: int) -> LinkDeliveryTx | DenialRecord:
        if result.request_id in self.served_requests:
            return self._deny(result.request_id, "already_served", now)
        self.served_requests.add(result.request_id)
        if not result.granted:
            return self._deny(result.request_id, "denied_by_policy", now)
        if result.resource_id not in self.resources:
            return self._deny(result.request_id, "unknown_resource", now)

        link = AccessLink(
            link_token=self.provider._rand(LINK_TOKEN_LEN),
            nonce=self.provider._rand(NONCE_LEN),
            resource_id=result.resource_id,
            permitted_ops=tuple(result.access_list),
            user_pk=result.user_pk,
            expires_at=link_deadline(now),
            request_id=result.request_id,
        )
        self.links[link.link_token] = link
        heapq.heappush(self._expiry, (link.expires_at, link.link_token))
        grant = LinkGrant(link_token=link.link_token, nonce=link.nonce, issued_at=now)
        ciphertext = self.provider.encrypt(result.user_pk, grant.encode())
        return build_link_delivery_tx(
            self.provider, self.keypair, ciphertext=ciphertext, request_id=result.request_id
        )

    # -- redemption -----------------------------------------------------------

    def redeem(
        self, link_token: bytes, nonce: bytes, operation: int, now: int
    ) -> tuple[bytes, RedemptionLogTx]:
        """One-shot exchange of (token, nonce) for the resource payload."""
        if not (0 <= operation < N_OPERATIONS):
            raise RedeemError(REDEEM_OP_NOT_PERMITTED, f"no such operation {operation}")
        link = self.links.get(link_token)
        if link is None:
            raise RedeemError(REDEEM_UNKNOWN_TOKEN)
        if not hmac.compare_digest(nonce, link.nonce):  # constant time: the nonce is a bearer secret
            raise RedeemError(REDEEM_WRONG_NONCE)
        if link.redeemed:
            raise RedeemError(REDEEM_ALREADY_REDEEMED)
        if link.expired or now > link.expires_at:
            link.expired = True
            raise RedeemError(REDEEM_EXPIRED)
        if not link.permitted_ops[operation]:
            raise RedeemError(REDEEM_OP_NOT_PERMITTED)
        payload = self.resources.get(link.resource_id)
        if payload is None:
            raise RedeemError(REDEEM_UNKNOWN_TOKEN, "resource vanished")
        link.redeemed = True
        log_tx = build_redemption_log_tx(
            self.provider, self.keypair, link.nonce, now, link.user_pk, link.request_id
        )
        return payload, log_tx

    def expire_links(self, now: int) -> int:
        """Mark overdue links unredeemable; returns how many just expired.

        Only links due by ``now`` are visited. A link leaves the heap once
        due, which is final: redeemed and expired are never cleared.
        """
        count = 0
        while self._expiry and self._expiry[0][0] < now:
            _, token = heapq.heappop(self._expiry)
            link = self.links[token]
            if not (link.redeemed or link.expired):
                link.expired = True
                count += 1
        return count
