"""Every call-site binding the bench tracer wraps must exist.

``bench/tracer.py`` replaces bindings such as ``rumorcast.network:solve_chatroom``
by name, so deleting an import it names would crash ``bench/run.py --trace 1``.
This test makes that a test failure instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
BINDINGS = [b for _, bindings, _ in tracer.SPANS for b in bindings]
BINDINGS += [b for _, bindings in tracer.LEAVES for b in bindings]


@pytest.mark.parametrize("binding", BINDINGS)
def test_binding_resolves(binding):
    owner, attr = tracer._resolve(binding)
    assert attr in owner.__dict__, f"{binding} names no binding the tracer could wrap"
