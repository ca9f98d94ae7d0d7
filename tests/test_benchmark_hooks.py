"""The benchmark's trace hooks name only what the program still has.

perfbench/replay.py swaps spanning wrappers in for library functions by
(module, name), and its parse hook calls relation accessors by name; a
rename in the program would break the traced benchmark without failing any
other test. The replay script is read and executed here, never imported, so
nothing is written under perfbench/.
"""

import contextlib
import importlib
import types
from pathlib import Path

from dualmem import MembershipRelation

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"
ACCESSORS = (
    "member_sets", "parent_sets", "extension_index", "toposort", "find_cycle",
    "duplicate_extensions", "is_acyclic", "ranks", "max_rank", "edges",
)


def load_replay():
    module = types.ModuleType("replay")
    exec(compile(REPLAY.read_text(encoding="utf-8"), str(REPLAY), "exec"), module.__dict__)
    return module


class RecordingTracer:
    def __init__(self):
        self.counts = {}

    def count(self, name, value, combine=None):
        self.counts[name] = value

    @contextlib.contextmanager
    def span(self, name):
        yield


def test_every_traced_function_resolves():
    for module, name, *_ in load_replay().targets(None):
        assert callable(getattr(importlib.import_module(f"dualmem.{module}"), name)), (module, name)


def test_parse_hook_accessors_exist(scrambled_v4):
    for name in ACCESSORS:
        assert hasattr(MembershipRelation, name), name
    tracer = RecordingTracer()
    load_replay()._after_parse((1, 2))(tracer, scrambled_v4)
    assert tracer.counts == {
        "structure.elements": 16, "structure.edges": 64, "structure.max_rank": 3,
    }
