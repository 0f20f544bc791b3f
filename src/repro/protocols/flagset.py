"""The base of the flag-set runtime configs, and their one spelling parser.

Hardening, validation, pacing and graceful restart are each a frozen
dataclass of individually toggleable boolean *flags* and nothing else
(their timers and thresholds are constants of their modules).  What
they share -- which flags are on, how a config prints, and how a
user-facing spelling (a CLI flag value, a ``ProtocolSpec`` option)
becomes a config -- lives here once.

The spelling grammar, for every flag set:

* a ready config passes through unchanged;
* ``None`` / ``""`` -- the config's default (``cls()``);
* ``"none"`` / ``"off"`` -- every flag off;
* ``"all"`` / ``"full"`` -- every flag on;
* flag names joined by ``+`` or ``,`` (or any iterable of names), dashes
  accepted for underscores; an unknown name is rejected naming the valid
  ones.

A config's ``str()`` is one of those spellings, so
``cls.parse(str(cfg)) == cfg`` for every config.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Tuple, Union


class FlagSet:
    """Mixin for a frozen dataclass whose ``FLAGS`` fields are booleans."""

    #: The toggleable field names, in canonical order.
    FLAGS: Tuple[str, ...] = ()
    #: How error messages name this family of features.
    NOUN = ""

    # ``cached_property``: fields are frozen, so the answers cannot
    # change, and receive/flush paths ask once per message.
    @cached_property
    def enabled(self) -> Tuple[str, ...]:
        """Enabled flag names, in canonical order."""
        return tuple(f for f in self.FLAGS if getattr(self, f))

    @cached_property
    def any_enabled(self) -> bool:
        return bool(self.enabled)

    def __str__(self) -> str:
        return "+".join(self.enabled) or "none"

    @classmethod
    def parse(cls, value: Union[None, str, Iterable[str], "FlagSet"] = None):
        """Normalize a user-facing spelling into a config (see module doc)."""
        if isinstance(value, cls):
            return value
        if value is None or value == "":
            return cls()
        if isinstance(value, str):
            if value in ("none", "off"):
                value = ()
            elif value in ("all", "full"):
                value = cls.FLAGS
            else:
                value = value.replace("+", ",").split(",")
        names = [n.strip().replace("-", "_") for n in value if n.strip()]
        unknown = [n for n in names if n not in cls.FLAGS]
        if unknown:
            raise ValueError(
                f"unknown {cls.NOUN} feature(s) {unknown}; "
                f"choose from {cls.FLAGS}"
            )
        return cls(**{flag: flag in names for flag in cls.FLAGS})
