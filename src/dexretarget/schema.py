"""One loader and one checker for the YAML documents the package reads.

A reader declares each entry of its document as a table mapping every key
to ``(kind, required)``, and ``check`` walks the parsed document against
it: each entry is a mapping, names only keys of its table, gives every
required key, and gives each key a value of its kind.  A boolean is never a
number and a fraction never an integer.  An optional key left empty (null)
takes the reader's default.  A bound on one value is part of its key's
kind, as for a model's lengths, limits and grid sides; relations between
keys or entries stay with the reader.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from numbers import Integral

import yaml

# libyaml's scanner and parser when PyYAML was built with them, else PyYAML's own;
# the constructor and resolver are PyYAML's either way, so both build the same documents
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# ``what`` names the kind in messages and ``test`` accepts its values; an entry
# list also has its entries' ``table`` and the ``label`` key naming an entry.
Kind = namedtuple("Kind", "what test table label", defaults=(None, None))

INTEGER = Kind("an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool))
# an integer past the float range is no number: converting it overflows
NUMBER = Kind("a number", lambda v: isinstance(v, float)
              or INTEGER.test(v) and abs(v) <= sys.float_info.max)
STRING = Kind("a string", lambda v: isinstance(v, str))
# each numeric setting's rule, numpy's scalars included: the library checks the
# argument by ``require`` and the command line parses the flag by the same kind
SEED = Kind("an integer >= 0", lambda v: INTEGER.test(v) and v >= 0)
COUNT = Kind("an integer >= 1", lambda v: INTEGER.test(v) and v >= 1)
# finite is within the float range, which an integer too large to convert is not;
# the test takes a numpy array too, elementwise
FINITE = Kind("finite", lambda v: (-sys.float_info.max <= v) & (v <= sys.float_info.max))
WEIGHT = Kind("finite and >= 0", lambda v: 0.0 <= v <= sys.float_info.max)
POSITIVE = Kind("finite and > 0", lambda v: 0.0 < v <= sys.float_info.max)


def require(kind, name, value, error):
    """Raise ``error`` unless ``value``, the setting ``name``, is of ``kind``."""
    if not kind.test(value):
        raise error(f"{name} must be {kind.what}, got {value!r}")


def list_of(kind, what):
    """A list whose every item is of ``kind``."""
    return Kind(what, lambda v: isinstance(v, list) and all(map(kind.test, v)))


def numbers(n, rule=None):
    """A list of exactly ``n`` numbers, each of ``rule`` when one is given."""
    return Kind(f"{n} numbers" + (f", each {rule.what}" if rule else ""), lambda v: NUMBERS.test(v)
                and len(v) == n and (rule is None or all(map(rule.test, v))))


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

