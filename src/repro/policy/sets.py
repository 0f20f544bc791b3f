"""Set predicates used inside Policy Terms.

Policy Terms name *sets* of ADs (permitted sources, destinations,
previous/next hops).  :class:`ADSet` is a small immutable predicate type
supporting "everyone", explicit inclusion, and explicit exclusion, plus a
wire-size estimate for the message byte accounting.

:class:`TimeWindow` models the paper's time-of-day policies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro.adgraph.ad import ADId


class _SetMode(enum.Enum):
    ALL = "all"
    INCLUDE = "include"
    EXCLUDE = "exclude"

    __hash__ = object.__hash__  # singletons, as ``QOS``: no ``Enum.__hash__`` per ``ADSet`` hash


#: The modes as module globals: the algebra tests them on every operation.
_ALL = _SetMode.ALL
_INCLUDE = _SetMode.INCLUDE
_EXCLUDE = _SetMode.EXCLUDE


@dataclass(frozen=True)
class ADSet:
    """An immutable predicate over AD ids.

    Construct via :meth:`everyone`, :meth:`of`, :meth:`excluding` or
    :meth:`none`.

    **A set operation allocates only when its answer is new.**
    :meth:`intersect` and :meth:`union` hand back one of their operands
    whenever the answer *is* that operand (``x ∩ everyone``, ``∅ ∪ x``,
    ``∅ ∩ x`` ...), :meth:`everyone` and :meth:`none` hand back shared
    module-level instances, and only the remaining cases build one new
    set.  Nothing may rely on the *identity* of a result, in either
    direction: instances are values, compared with ``==``.

    **The universal set has two spellings that are not ``==``:** ``ALL``
    (``"*"``, what :meth:`everyone` returns) and ``EXCLUDE{}`` (``"!{}"``).
    :attr:`is_universal` is true for both; equality, ``str`` and the wire
    form tell them apart, and IDRP's decision process treats a change of
    spelling as a change of route.  Which one comes out is therefore part
    of the contract (``tests/test_policy_sets_algebra.py`` pins it):

    * an operation never *produces* ``ALL``.  ``x ∩ ALL`` and ``ALL ∩ x``
      are ``x`` as spelled -- except ``ALL ∩ ALL``, which is ``EXCLUDE{}``;
      ``x ∪ ALL`` and ``ALL ∪ x`` are ``EXCLUDE{}`` for every ``x``;
    * every other universal answer (``EXCLUDE{} ∩ EXCLUDE{}``,
      ``{1} ∪ !{1}`` ...) is ``EXCLUDE{}`` too.

    Do not normalise the two: it moves which updates IDRP sends.
    """

    mode: _SetMode
    members: FrozenSet[ADId] = field(default_factory=frozenset)

    @classmethod
    def everyone(cls) -> "ADSet":
        """The universal set (matches any AD), spelled ``ALL``."""
        return _EVERYONE

    @classmethod
    def none(cls) -> "ADSet":
        """The empty set."""
        return _NONE

    @classmethod
    def of(cls, ads: Iterable[ADId]) -> "ADSet":
        """Exactly the given ADs."""
        return cls(_SetMode.INCLUDE, frozenset(ads))

    @classmethod
    def excluding(cls, ads: Iterable[ADId]) -> "ADSet":
        """Every AD except the given ones."""
        return cls(_SetMode.EXCLUDE, frozenset(ads))

    def matches(self, ad_id: ADId) -> bool:
        """Whether ``ad_id`` is in the set."""
        if self.mode is _SetMode.ALL:
            return True
        if self.mode is _SetMode.INCLUDE:
            return ad_id in self.members
        return ad_id not in self.members

    @property
    def is_universal(self) -> bool:
        return self.mode is _SetMode.ALL or (
            self.mode is _SetMode.EXCLUDE and not self.members
        )

    @property
    def is_finite(self) -> bool:
        """Whether the set enumerates exactly the ADs it admits.

        Finite (INCLUDE) sets can back an exact-match index: a traversal
        can only match the set via one of its listed members.  ALL and
        EXCLUDE sets are cofinite -- they admit every AD not listed -- so
        they can never be bucketed by member.
        """
        return self.mode is _SetMode.INCLUDE

    def size_bytes(self) -> int:
        """Estimated encoded size: 1 tag byte + 2 bytes per listed AD."""
        return 1 + 2 * len(self.members)

    # ------------------------------------------------------------ algebra
    #
    # ADSets are finite (INCLUDE) or cofinite (ALL/EXCLUDE) sets, which are
    # closed under intersection and union.  IDRP uses this to propagate
    # allowed-source scopes through path-vector advertisements without
    # enumerating the whole internet.  ``ALL`` is told by its mode alone
    # (its ``members`` are never read); every early return below is an
    # identity or absorbing case whose answer equals the operand returned.

    def intersect(self, other: "ADSet") -> "ADSet":
        """Set intersection (stays finite/cofinite)."""
        if self.mode is _ALL:
            return _EXCLUDE_NOTHING if other.mode is _ALL else other
        if other.mode is _ALL:
            return self
        a, b = self.members, other.members
        if self.mode is _INCLUDE:
            if not a:
                return self
            if other.mode is _INCLUDE:
                return ADSet(_INCLUDE, a & b) if b else other
            return ADSet(_INCLUDE, a - b) if b else self
        if other.mode is _INCLUDE:
            return ADSet(_INCLUDE, b - a) if a and b else other
        if not a:
            return other
        return ADSet(_EXCLUDE, a | b) if b else self

    def union(self, other: "ADSet") -> "ADSet":
        """Set union (stays finite/cofinite)."""
        if self.mode is _ALL or other.mode is _ALL:
            return _EXCLUDE_NOTHING
        a, b = self.members, other.members
        if self.mode is _INCLUDE:
            if not a:
                return other
            if other.mode is _INCLUDE:
                return ADSet(_INCLUDE, a | b) if b else self
            return ADSet(_EXCLUDE, b - a) if b else other
        if other.mode is _INCLUDE:
            return ADSet(_EXCLUDE, a - b) if a and b else self
        if not a:
            return self
        return ADSet(_EXCLUDE, a & b) if b else other

    def is_subset_of(self, other: "ADSet") -> bool:
        """Whether every AD this set admits is admitted by ``other``."""
        if other.mode is _ALL:
            return True
        if self.mode is _INCLUDE:
            if other.mode is _INCLUDE:
                return self.members <= other.members
            return self.members.isdisjoint(other.members)
        if other.mode is _INCLUDE:
            return False  # a cofinite set never fits in a finite one
        if self.mode is _ALL:
            return not other.members
        return other.members <= self.members

    @property
    def is_empty(self) -> bool:
        """Whether the set is certainly empty (cofinite sets never are)."""
        return self.mode is _SetMode.INCLUDE and not self.members

    def plausible_size(self) -> float:
        """Cardinality: exact for finite sets, ``inf`` for cofinite ones."""
        if self.mode is _SetMode.INCLUDE:
            return float(len(self.members))
        return float("inf")

    def __contains__(self, ad_id: ADId) -> bool:
        return self.matches(ad_id)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.mode is _SetMode.ALL:
            return "*"
        sign = "" if self.mode is _SetMode.INCLUDE else "!"
        return sign + "{" + ",".join(str(m) for m in sorted(self.members)) + "}"


#: The shared instances behind :meth:`ADSet.everyone` / :meth:`ADSet.none`
#: and the ``EXCLUDE{}`` normal form the algebra spells the universal set as.
_EVERYONE = ADSet(_ALL)
_NONE = ADSet(_INCLUDE, frozenset())
_EXCLUDE_NOTHING = ADSet(_EXCLUDE, frozenset())


@dataclass(frozen=True)
class TimeWindow:
    """A daily time window ``[start_hour, end_hour)`` with wraparound.

    ``TimeWindow(22, 6)`` matches hours 22,23,0..5.  Equal endpoints make
    the window universal (always matches), which is the default.
    """

    start_hour: int = 0
    end_hour: int = 0

    def __post_init__(self) -> None:
        for h in (self.start_hour, self.end_hour):
            if not 0 <= h < 24:
                raise ValueError(f"hour {h} out of range [0, 24)")

    @classmethod
    def always(cls) -> "TimeWindow":
        return cls(0, 0)

    @property
    def is_universal(self) -> bool:
        return self.start_hour == self.end_hour

    def matches(self, hour: int) -> bool:
        """Whether the given hour of day falls inside the window."""
        if not 0 <= hour < 24:
            raise ValueError(f"hour {hour} out of range [0, 24)")
        if self.is_universal:
            return True
        if self.start_hour < self.end_hour:
            return self.start_hour <= hour < self.end_hour
        return hour >= self.start_hour or hour < self.end_hour

    def size_bytes(self) -> int:
        """Encoded size: two hour bytes."""
        return 2
