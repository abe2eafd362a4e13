"""Domain name handling per RFC 1035.

A :class:`DomainName` is an immutable sequence of labels. Names are
case-insensitive for comparison and hashing (RFC 4343) but preserve the
case they were created with for display.

Limits enforced (RFC 1035 §2.3.4):

* each label is 1..63 octets,
* the full name is at most 255 octets in wire form (including the length
  octet of every label and the terminating root octet).
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator

from repro.errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_WIRE_LENGTH = 255

_ALLOWED_LABEL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz" "ABCDEFGHIJKLMNOPQRSTUVWXYZ" "0123456789" "-_"
)


def _validate_label(label: str) -> None:
    if not label:
        raise NameError_("empty label")
    if len(label.encode("ascii", "strict")) > MAX_LABEL_LENGTH:
        raise NameError_(f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}")
    bad = set(label) - _ALLOWED_LABEL_CHARS
    if bad:
        raise NameError_(f"label {label!r} contains invalid characters: {sorted(bad)!r}")


@total_ordering
class DomainName:
    """An immutable, validated DNS domain name.

    Instances can be built from a dotted string (``DomainName("www.cnn.com")``)
    or a label sequence (``DomainName.from_labels(["www", "cnn", "com"])``).
    The root name is spelled ``DomainName(".")`` or :data:`ROOT`.
    """

    __slots__ = ("_labels", "_folded", "_folded_str", "_hash")

    def __init__(self, text: str | "DomainName"):
        if isinstance(text, DomainName):
            self._labels: tuple[str, ...] = text._labels
            self._folded: tuple[str, ...] = text._folded
            return
        if not isinstance(text, str):
            raise NameError_(f"expected str or DomainName, got {type(text).__name__}")
        stripped = text.rstrip(".")
        if stripped == "":
            labels: tuple[str, ...] = ()
        else:
            labels = tuple(stripped.split("."))
            for label in labels:
                try:
                    _validate_label(label)
                except UnicodeEncodeError as exc:
                    raise NameError_(f"non-ASCII label in {text!r}") from exc
        self._labels = labels
        self._folded = tuple(label.lower() for label in labels)
        self._check_wire_length()

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "DomainName":
        """Build a name from an iterable of labels, most-specific first."""
        name = cls.__new__(cls)
        label_tuple = tuple(labels)
        for label in label_tuple:
            _validate_label(label)
        name._labels = label_tuple
        name._folded = tuple(label.lower() for label in label_tuple)
        name._check_wire_length()
        return name

    @classmethod
    def intern(cls, text: "str | DomainName") -> "DomainName":
        """A shared, parse-once instance for *text*.

        Hot paths resolve the same bounded universe of hostnames over and
        over; interning turns each repeat parse (label split, validation,
        wire-length check) into one dict probe. Interned instances are
        immutable like any other :class:`DomainName`, so sharing them is
        observationally identical to constructing fresh ones.
        """
        if isinstance(text, DomainName):
            return text
        cached = _INTERNED.get(text)
        if cached is None:
            cached = cls(text)
            if len(_INTERNED) >= _INTERNED_MAX:
                _INTERNED.clear()
            _INTERNED[text] = cached
        return cached

    def _check_wire_length(self) -> None:
        if self.wire_length() > MAX_NAME_WIRE_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_WIRE_LENGTH} octets: {self}")

    # -- basic protocol -------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """The labels of this name, most-specific first (root excluded)."""
        return self._labels

    def is_root(self) -> bool:
        """True for the root name ``.``."""
        return not self._labels

    def wire_length(self) -> int:
        """Number of octets of the uncompressed wire encoding."""
        return sum(len(label) + 1 for label in self._labels) + 1

    def __str__(self) -> str:
        if not self._labels:
            return "."
        return ".".join(self._labels)

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DomainName):
            return self._folded == other._folded
        if isinstance(other, str):
            try:
                return self._folded == DomainName(other)._folded
            except NameError_:
                return False
        return NotImplemented

    def __lt__(self, other: "DomainName") -> bool:
        if not isinstance(other, DomainName):
            return NotImplemented
        # Canonical DNS ordering compares names right to left (RFC 4034 §6.1).
        return self._folded[::-1] < other._folded[::-1]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._folded)
            return self._hash

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    # -- relations ------------------------------------------------------

    def parent(self) -> "DomainName":
        """The name with the most-specific label removed.

        Raises :class:`~repro.errors.NameError_` for the root name.
        """
        if not self._labels:
            raise NameError_("the root name has no parent")
        return DomainName.from_labels(self._labels[1:])

    def ancestors(self) -> Iterator["DomainName"]:
        """Yield every ancestor from the direct parent up to the root."""
        name = self
        while not name.is_root():
            name = name.parent()
            yield name

    def is_subdomain_of(self, other: "DomainName | str") -> bool:
        """True if *self* equals *other* or sits below it in the tree."""
        other_name = other if isinstance(other, DomainName) else DomainName(other)
        if len(other_name._folded) > len(self._folded):
            return False
        if not other_name._folded:
            return True
        return self._folded[-len(other_name._folded):] == other_name._folded

    def relativize(self, origin: "DomainName | str") -> tuple[str, ...]:
        """Labels of *self* below *origin*; raises if not a subdomain."""
        origin_name = origin if isinstance(origin, DomainName) else DomainName(origin)
        if not self.is_subdomain_of(origin_name):
            raise NameError_(f"{self} is not a subdomain of {origin_name}")
        keep = len(self._labels) - len(origin_name._labels)
        return self._labels[:keep]

    def child(self, label: str) -> "DomainName":
        """Prepend *label*, producing a more-specific name."""
        return DomainName.from_labels((label,) + self._labels)

    def folded(self) -> str:
        """Case-folded dotted representation, suitable as a cache key."""
        try:
            return self._folded_str
        except AttributeError:
            self._folded_str = ".".join(self._folded) if self._folded else "."
            return self._folded_str


#: Parse-once cache behind :meth:`DomainName.intern`. One scenario's
#: hostname universe is small (thousands of names), but a long-lived
#: driver running many scenarios with distinct universes would grow an
#: uncapped memo without bound, so the cache resets once it exceeds
#: ``_INTERNED_MAX`` entries. Interning memoizes a pure constructor, so
#: a reset only costs re-parses — it can never change behaviour.
_INTERNED_MAX = 65536
_INTERNED: dict[str, DomainName] = {}  # repro-lint: fork-shared(memo of a pure constructor: a fork worker fills only its copy-on-write copy, and every copy maps a name to an equal DomainName)

ROOT = DomainName(".")
