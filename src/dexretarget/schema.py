"""One checker for the YAML documents the package reads.

A reader declares each entry of its document as a table mapping every key
to ``(kind, required)``, and ``check`` walks the parsed document against
it: each entry is a mapping, names only keys of its table, gives every
required key, and gives each key a value of its kind.  A boolean is never a
number and a fraction never an integer.  An optional key left empty (null)
takes the reader's default.  Checks about meaning stay with each reader.
"""

from __future__ import annotations

import sys
from collections import namedtuple

# ``what`` names the kind in messages and ``test`` accepts its values; an entry
# list also has its entries' ``table`` and the ``label`` key naming an entry.
Kind = namedtuple("Kind", "what test table label", defaults=(None, None))

INTEGER = Kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
# an integer past the float range is no number: converting it overflows
NUMBER = Kind("a number", lambda v: isinstance(v, float)
              or INTEGER.test(v) and abs(v) <= sys.float_info.max)
STRING = Kind("a string", lambda v: isinstance(v, str))


def list_of(kind, what):
    """A list whose every item is of ``kind``."""
    return Kind(what, lambda v: isinstance(v, list) and all(map(kind.test, v)))


def numbers(n):
    """A list of exactly ``n`` numbers."""
    return Kind(f"{n} numbers", lambda v: NUMBERS.test(v) and len(v) == n)


def entries(table, what, label=None):
    """A list of entries, each a mapping checked against ``table``."""
    return Kind(what, lambda v: isinstance(v, list), table, label)


NUMBERS = list_of(NUMBER, "a list of numbers")
INTEGERS = list_of(INTEGER, "a list of integers")
NUMBER_BY_INTEGER = Kind("a mapping from integers to numbers", lambda v: isinstance(v, dict)
                         and all(map(INTEGER.test, v)) and all(map(NUMBER.test, v.values())))


def check(doc, table, error, where="document", path=""):
    """Check the entry ``doc`` (named ``where``, its keys spelt ``path`` + key)
    against ``table``, raising ``error(message)``; an optional key given as
    null is removed from ``doc``, so the reader's default applies."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a mapping, got {doc!r}")
    for key in doc:
        if key not in table:
            raise error(f"{where}: unknown key {key!r}, expected one of {', '.join(table)}")
    for key, (kind, required) in table.items():
        if key not in doc:
            if required:
                raise error(f"{where}: missing required key {key!r}")
        elif doc[key] is None and not required:
            del doc[key]
        elif not kind.test(doc[key]):
            raise error(f"{path}{key}: expected {kind.what}, got {doc[key]!r}")
        elif kind.table is not None:
            for n, entry in enumerate(doc[key]):
                label = entry.get(kind.label) if isinstance(entry, dict) else None
                name = f"{path}{key}[{label if isinstance(label, str) else n}]"
                check(entry, kind.table, error, name, name + ".")

