"""Dictionary encoding for TEXT column values.

Stored strings are interned to dense integer ids so that equality — the
dominant operation in the generated DB2RDF SQL (index probes, hash-join
keys, predicate-column filters) — runs on ints instead of strings, and so
row tuples stay small. An encoded value is an :class:`EncodedString`: an
``int`` subclass whose class carries a reference to the owning dictionary's
lexicon, which makes decoding a plain list index and lets any layer decode
a value without holding the dictionary (late materialization happens once,
at the ``Database.execute`` result boundary).

Design points:

* **Per-database class.** Each :class:`StringDictionary` manufactures its
  own ``EncodedString`` subclass, so ids from different databases cannot be
  confused and ``isinstance(v, EncodedString)`` is a cheap universal test.
* **Writes allocate, reads look up.** Ids are allocated on the insert path
  (under the store's writer lock); query-time constants use
  :meth:`lookup`, which never allocates — a miss proves no stored row can
  match.
* **Text semantics via __str__.** ``str(encoded)`` returns the decoded
  text, so generic string machinery (``LIKE``, ``||``, ``LOWER`` …) that
  funnels through ``str(value)`` stays correct without edits. Numeric and
  comparison paths check ``isinstance`` explicitly.
"""

from __future__ import annotations


class EncodedString(int):
    """A dictionary-encoded string: an int id that can decode itself."""

    __slots__ = ()
    #: overridden per dictionary with that dictionary's id -> str list
    lexicon: list[str] = []

    def decode(self) -> str:
        return self.lexicon[self]

    def __str__(self) -> str:  # text semantics for generic string paths
        return self.lexicon[self]

    def __repr__(self) -> str:
        return f"EncodedString({int(self)}={self.lexicon[self]!r})"


class StringDictionary:
    """An append-only string interner with O(1) encode and decode."""

    __slots__ = ("_ids", "_lexicon", "cls")

    def __init__(self) -> None:
        self._ids: dict[str, EncodedString] = {}
        self._lexicon: list[str] = []
        # A fresh subclass per dictionary: the class attribute ties every id
        # it mints back to this lexicon.
        self.cls = type(
            "EncodedString", (EncodedString,), {"__slots__": (), "lexicon": self._lexicon}
        )

    def __len__(self) -> int:
        return len(self._lexicon)

    def encode(self, text: str) -> EncodedString:
        """Intern ``text``, allocating an id on first sight."""
        encoded = self._ids.get(text)
        if encoded is None:
            encoded = self.cls(len(self._lexicon))
            self._lexicon.append(text)
            self._ids[text] = encoded
        return encoded

    def lookup(self, text: str) -> EncodedString | None:
        """The id of ``text`` if already interned; never allocates."""
        return self._ids.get(text)

    def decode(self, encoded: int) -> str:
        return self._lexicon[encoded]
