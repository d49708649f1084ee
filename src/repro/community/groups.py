"""Dynamic interest groups (Figures 2 and 5).

A group is named by an interest (its canonical form when semantics are
on) and holds the members currently believed to share it.  Membership
changes are recorded with timestamps so the churn benches (Figure 5)
can reconstruct group lifetimes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class MembershipEvent:
    """One join or leave, with provenance.

    Attributes:
        time: Virtual time of the change.
        member_id: Affected member.
        joined: ``True`` for join, ``False`` for leave.
        reason: ``"dynamic"`` (discovery), ``"manual"`` (user action)
            or ``"departed"`` (device left the neighbourhood).
    """

    time: float
    member_id: str
    joined: bool
    reason: str


MembershipListener = Callable[[str, MembershipEvent], None]


class Group:
    """One interest group; ``registry``'s listeners hear its changes."""

    def __init__(self, interest: str, created_at: float,
                 registry: GroupRegistry | None = None) -> None:
        self.interest = interest
        self.created_at = created_at
        self._registry = registry
        self._members: set[str] = set()
        #: Members who joined manually and must not be auto-evicted by
        #: a discovery refresh (Table 7: "Join/Leave Manually").
        self.manual_members: set[str] = set()
        self.history: list[MembershipEvent] = []

    @property
    def members(self) -> frozenset[str]:
        """Current member ids."""
        return frozenset(self._members)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def add(self, member_id: str, when: float, reason: str = "dynamic") -> bool:
        """Add a member; returns ``True`` if membership changed."""
        if member_id in self._members:
            if reason == "manual":
                self.manual_members.add(member_id)
            return False
        self._members.add(member_id)
        if reason == "manual":
            self.manual_members.add(member_id)
        self._record(MembershipEvent(when, member_id, True, reason))
        return True

    def remove(self, member_id: str, when: float, reason: str = "departed") -> bool:
        """Remove a member; returns ``True`` if membership changed."""
        if member_id not in self._members:
            return False
        self._members.discard(member_id)
        self.manual_members.discard(member_id)
        self._record(MembershipEvent(when, member_id, False, reason))
        return True

    def _record(self, event: MembershipEvent) -> None:
        self.history.append(event)
        if self._registry is not None:
            for listener in self._registry._listeners:
                listener(self.interest, event)

    def __repr__(self) -> str:
        return f"Group({self.interest!r}, members={sorted(self._members)})"


class GroupRegistry:
    """All groups one device currently knows about."""

    #: Rebound per instance on registration: unobserved, it allocates none.
    _listeners: tuple[MembershipListener, ...] = ()

    def __init__(self) -> None:
        self._groups: dict[str, Group] = {}

    def on_membership_change(self, callback: MembershipListener) -> None:
        """Call ``callback(interest, event)`` after each join or leave."""
        self._listeners = (*self._listeners, callback)

    def off_membership_change(self, callback: MembershipListener) -> None:
        """Stop calling ``callback``."""
        self._listeners = tuple(listener for listener in self._listeners
                                if listener is not callback)

    def close(self) -> None:
        """Unlink the groups, which refer back here: they stay readable,
        and their changes reach no listener."""
        for group in self._groups.values():
            group._registry = None

    def ensure(self, interest: str, when: float) -> Group:
        """The group for ``interest``, created on first reference."""
        group = self._groups.get(interest)
        if group is None:
            group = Group(interest, created_at=when, registry=self)
            self._groups[interest] = group
        return group

    def get(self, interest: str) -> Group | None:
        """The group, or ``None`` if it never formed."""
        return self._groups.get(interest)

    def items(self) -> list[tuple[str, Group]]:
        """``(interest, group)`` pairs, sorted by interest."""
        return sorted(self._groups.items())

    def names(self) -> list[str]:
        """All group names, sorted."""
        return sorted(self._groups)

    def non_empty(self) -> list[Group]:
        """Groups that currently have at least one member."""
        return [group for _, group in sorted(self._groups.items())
                if len(group) > 0]

    def groups_of(self, member_id: str) -> list[str]:
        """Names of groups the member currently belongs to."""
        return sorted(interest for interest, group in self._groups.items()
                      if member_id in group)

    def remove_member_everywhere(self, member_id: str, when: float,
                                 reason: str = "departed") -> list[str]:
        """Drop a member from every group; returns affected group names."""
        affected = []
        for interest, group in self._groups.items():
            if group.remove(member_id, when, reason):
                affected.append(interest)
        return sorted(affected)

    def drop_empty(self) -> int:
        """Forget empty groups; returns how many were dropped."""
        empty = [interest for interest, group in self._groups.items()
                 if len(group) == 0]
        for interest in empty:
            del self._groups[interest]
        return len(empty)

    def merge(self, absorbed: str, into: str, when: float) -> None:
        """Fold group ``absorbed`` into group ``into`` (semantics teach)."""
        if absorbed == into or absorbed not in self._groups:
            return
        source = self._groups.pop(absorbed)
        target = self.ensure(into, when)
        for member_id in source.members:
            reason = "manual" if member_id in source.manual_members else "dynamic"
            target.add(member_id, when, reason)

    def __len__(self) -> int:
        return len(self._groups)
