"""Administrator priority rules layered over the scoring model.

A rule pins one (user, resource, operation) cell, or a wildcard slice of
cells, to an explicit allow/deny. When several rules match the same cell
the highest priority wins; at equal priority a deny beats an allow, so the
outcome never depends on rule order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..transactions import (
    MAX_RESOURCE_ID,
    N_OPERATIONS,
    OPERATION_NAMES,
    operation_index,
)
from .model import GRANT_THRESHOLD

ALLOW = "allow"
DENY = "deny"

_WILDCARD = "*"


class RuleError(ValueError):
    """Invalid rule contents."""


class RuleParseError(RuleError):
    """Rule text could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class PriorityRule:
    """None in a matcher field means "any"."""

    priority: int
    user_index: int | None
    resource_id: int | None
    operation: int | None
    effect: str

    def __post_init__(self):
        if self.priority < 0:
            raise RuleError("priority must be non-negative")
        if self.user_index is not None and self.user_index < 0:
            raise RuleError("user_index must be non-negative")
        if self.resource_id is not None and not (0 <= self.resource_id <= MAX_RESOURCE_ID):
            raise RuleError(f"resource_id out of range: {self.resource_id}")
        if self.operation is not None and not (0 <= self.operation < N_OPERATIONS):
            raise RuleError(f"operation index out of range: {self.operation}")
        if self.effect not in (ALLOW, DENY):
            raise RuleError(f"effect must be {ALLOW!r} or {DENY!r}")

    def matches(self, user_index: int, resource_id: int, operation: int) -> bool:
        return (
            (self.user_index is None or self.user_index == user_index)
            and (self.resource_id is None or self.resource_id == resource_id)
            and (self.operation is None or self.operation == operation)
        )


@dataclass(frozen=True)
class AccessDecision:
    """Final per-operation outcome and how it was reached."""

    access_list: tuple[bool, ...]
    model_scores: tuple[float, ...]
    overridden: tuple[bool, ...]  # True where a rule displaced the model


def apply_priority_rules(
    rules: Sequence[PriorityRule],
    model_grants: Sequence[bool],
    user_index: int,
    resource_id: int,
) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Fold the rules over the model's grants for one (user, resource).

    Returns (final grants, overridden flags). For each operation the
    matching rule with the highest priority decides; ties go to deny.
    """
    if len(model_grants) != N_OPERATIONS:
        raise RuleError(f"expected {N_OPERATIONS} model grants, got {len(model_grants)}")
    final = list(bool(g) for g in model_grants)
    overridden = [False] * N_OPERATIONS
    for op in range(N_OPERATIONS):
        best: PriorityRule | None = None
        for rule in rules:
            if not rule.matches(user_index, resource_id, op):
                continue
            if best is None or rule.priority > best.priority:
                best = rule
            elif rule.priority == best.priority and rule.effect == DENY:
                best = rule
        if best is not None:
            final[op] = best.effect == ALLOW
            overridden[op] = final[op] != bool(model_grants[op])
    return tuple(final), tuple(overridden)


def decide_access(
    rules: Sequence[PriorityRule],
    model_scores: Sequence[float],
    user_index: int,
    resource_id: int,
) -> AccessDecision:
    model_grants = tuple(bool(s >= GRANT_THRESHOLD) for s in model_scores)
    final, overridden = apply_priority_rules(rules, model_grants, user_index, resource_id)
    return AccessDecision(
        access_list=final,
        model_scores=tuple(float(s) for s in model_scores),
        overridden=overridden,
    )


# --- text format ---------------------------------------------------------------
#
# One rule per line: "<priority> <user|*> <resource|*> <operation|*> <allow|deny>"
# Operations accept either the op name or its index. '#' starts a comment.


def _parse_field(token: str, line_no: int, what: str, limit: int | None) -> int | None:
    if token == _WILDCARD:
        return None
    try:
        value = int(token)
    except ValueError:
        raise RuleParseError(line_no, f"bad {what}: {token!r}") from None
    if value < 0 or (limit is not None and value > limit):
        raise RuleParseError(line_no, f"{what} out of range: {value}")
    return value


def parse_rules(text: str) -> list[PriorityRule]:
    rules: list[PriorityRule] = []
    seen_keys: dict[tuple, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise RuleParseError(line_no, f"expected 5 fields, got {len(parts)}")
        prio_s, user_s, res_s, op_s, effect = parts
        try:
            priority = int(prio_s)
        except ValueError:
            raise RuleParseError(line_no, f"bad priority: {prio_s!r}") from None
        user = _parse_field(user_s, line_no, "user index", None)
        resource = _parse_field(res_s, line_no, "resource id", MAX_RESOURCE_ID)
        if op_s == _WILDCARD:
            op: int | None = None
        elif op_s in OPERATION_NAMES:
            op = operation_index(op_s)
        else:
            op = _parse_field(op_s, line_no, "operation", N_OPERATIONS - 1)
        effect = effect.lower()
        if effect not in (ALLOW, DENY):
            raise RuleParseError(line_no, f"bad effect: {parts[4]!r}")
        key = (priority, user, resource, op)
        if key in seen_keys:
            raise RuleParseError(line_no, f"duplicates matcher from line {seen_keys[key]}")
        seen_keys[key] = line_no
        try:
            rules.append(
                PriorityRule(
                    priority=priority,
                    user_index=user,
                    resource_id=resource,
                    operation=op,
                    effect=effect,
                )
            )
        except RuleParseError:
            raise
        except RuleError as exc:
            raise RuleParseError(line_no, str(exc)) from None
    return rules


def format_rules(rules: Iterable[PriorityRule]) -> str:
    lines = []
    for rule in rules:
        fields = (
            str(rule.priority),
            _WILDCARD if rule.user_index is None else str(rule.user_index),
            _WILDCARD if rule.resource_id is None else str(rule.resource_id),
            _WILDCARD if rule.operation is None else OPERATION_NAMES[rule.operation],
            rule.effect,
        )
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")
