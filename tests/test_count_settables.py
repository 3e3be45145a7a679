"""tools/count_settables.py on a small package written for the test."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "count_settables.py")
_SPEC = importlib.util.spec_from_file_location("count_settables", _PATH)
count_settables = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_settables)

SOURCE = '''\
from dataclasses import dataclass
from typing import NamedTuple
import typing


@dataclass(frozen=True)
class Old:
    a: int
    b: int = 1


class New(NamedTuple):
    a: int
    b: int = 2
    c: str = "c"

    def scaled(self, k=3):
        return self.a * k


class Qualified(typing.NamedTuple):
    a: int = 0


class Checked(New):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)


class Plain:
    x: int = 4
'''


def test_source_counts_counts_record_field_defaults(tmp_path):
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("class Ignored(NamedTuple):\n    a: int = 1\n")
    keywords, fields, lines = count_settables.source_counts(str(tmp_path))
    # k=3; no default in __new__(cls, *args, **kwargs)
    assert keywords == 1
    # Old.b, New.b, New.c and Qualified.a; Plain is no record, and the
    # validating subclass Checked adds no field
    assert fields == 4
    assert lines == SOURCE.count("\n")
