"""Messages and their bit-size accounting.

The CONGEST model allows one ``B = O(log n)``-bit message per edge per
round.  To make that budget *measurable* rather than aspirational, every
message payload is a flat tuple whose first element is a short string
tag (the message kind) followed by integer fields; the accounting model
charges

* a constant ``TAG_BITS`` for the kind (protocols use a constant number
  of kinds), and
* one *word* of ``ceil(log2(n+1))`` bits per integer field (every
  quantity our algorithms ship — node ids, path positions, cycle sizes,
  round numbers — is at most polynomial in n, so O(log n) bits each).

The simulator checks each message against the edge budget at send time.
"""

from __future__ import annotations

__all__ = ["Message", "TAG_BITS", "word_bits", "payload_words", "payload_bits"]

TAG_BITS = 8


def word_bits(n: int) -> int:
    """Bits per integer field in an ``n``-node network: ``ceil(log2(n+1))``."""
    if n <= 0:
        return 1
    return max(1, (n).bit_length())


def payload_words(payload: tuple) -> int:
    """Number of integer words in a payload (excluding the kind tag)."""
    return len(payload) - 1


def payload_bits(payload: tuple, n: int) -> int:
    """Total bit size of a payload in an ``n``-node network."""
    return TAG_BITS + payload_words(payload) * word_bits(n)


class Message:
    """A single CONGEST message.

    A plain slotted value class rather than a frozen dataclass: the
    engine builds one per delivered message, and a slotted ``__init__``
    costs well under half of the frozen one.  Messages compare and hash
    by value; treat them as immutable.

    Attributes
    ----------
    sender:
        Node id of the sender (learned by the receiver from the port the
        message arrived on, so it is metadata, not charged bandwidth).
    payload:
        ``(kind, *int_fields)`` — see module docstring.
    """

    __slots__ = ("sender", "payload")

    def __init__(self, sender: int, payload: tuple):
        self.sender = sender
        self.payload = payload

    def __eq__(self, other):
        if other.__class__ is not Message:
            return NotImplemented
        return self.sender == other.sender and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.sender, self.payload))

    def __repr__(self) -> str:
        return f"Message(sender={self.sender!r}, payload={self.payload!r})"

    @property
    def kind(self) -> str:
        """The message kind tag (first payload element)."""
        return self.payload[0]

    def bits(self, n: int) -> int:
        """Bit size of this message in an ``n``-node network."""
        return payload_bits(self.payload, n)
